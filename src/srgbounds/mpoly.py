"""Sparse multivariate Laurent polynomials over Q; division by monomials only.

The variable list is fixed as (t, w, b, c, v, k, lam, mu, r, s, m, j, beta);
exponent vectors are dense tuples over this list so serialized polynomials
are deterministic.  Exponents may be negative, so a quotient by a monomial is
again an MPoly, which is all the identity checker needs (denominators only
ever involve s and mu).  The Laurent form is canonical: two quotients are
equal exactly when their term dicts are.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Mapping

VARS = ("t", "w", "b", "c", "v", "k", "lam", "mu", "r", "s", "m", "j", "beta")
NVARS = len(VARS)
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZERO_EXP = (0,) * NVARS


class ArityMismatchError(ValueError):
    """Exponent vector does not match the fixed variable list."""


def _coerce_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational coefficient")


class MPoly:
    """Immutable sparse Laurent polynomial; no zero coefficients are stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            if len(exp) != NVARS:
                raise ArityMismatchError(f"exponent vector {exp} has wrong arity")
            if coeff != 0:
                clean[tuple(exp)] = Fraction(coeff)
        self.terms = clean

    @classmethod
    def _wrap(cls, terms: dict) -> "MPoly":
        """The polynomial with these terms, taken as they are: the ring
        operations pass exponent tuples of the right arity and nonzero
        Fraction coefficients only, so neither is checked or copied."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "MPoly":
        return MPoly()

    @staticmethod
    def const(c) -> "MPoly":
        c = _coerce_scalar(c)
        return MPoly._wrap({_ZERO_EXP: c} if c else {})

    @staticmethod
    def var(name: str) -> "MPoly":
        exp = [0] * NVARS
        exp[_VAR_INDEX[name]] = 1
        return MPoly({tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(coeff, exponents: Mapping[str, int]) -> "MPoly":
        exp = [0] * NVARS
        for name, e in exponents.items():
            exp[_VAR_INDEX[name]] = e
        return MPoly({tuple(exp): _coerce_scalar(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, MPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return MPoly.const(x)
        return NotImplemented

    def __add__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            c = out.get(exp)
            if c is None:
                out[exp] = coeff
                continue
            c += coeff
            if c:
                out[exp] = c
            else:
                del out[exp]
        return MPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._wrap({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        other_terms = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in other_terms:
                exp = tuple(map(add, e1, e2))
                c = out.get(exp)
                out[exp] = c1 * c2 if c is None else c + c1 * c2
        return MPoly._wrap({exp: c for exp, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Multiply by the inverse of a single-term divisor or nonzero scalar."""
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if len(other.terms) != 1:
            raise ValueError("division requires a monomial divisor")
        ((m_exp, m_coeff),) = other.terms.items()
        return MPoly._wrap(
            {tuple(map(sub, exp, m_exp)): c / m_coeff for exp, c in self.terms.items()}
        )

    def __rtruediv__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals, and so hashes as, its coefficient (0 if empty)
        if self.terms.keys() <= {_ZERO_EXP}:
            return hash(self.terms.get(_ZERO_EXP, 0))
        return hash(frozenset(self.terms.items()))

    # -- evaluation / display ------------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at rational values for every variable that occurs."""
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exp):
                if e:
                    term *= Fraction(point[VARS[i]]) ** e
            total += term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            factors = [str(coeff)]
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(VARS[i])
                elif e:
                    factors.append(f"{VARS[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly<{self}>"

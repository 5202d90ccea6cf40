"""Exact arithmetic in quadratic extensions Q(sqrt(d)).

A QuadExt represents the real number a + b*sqrt(d) with a, b rational and d a
square-free nonnegative integer.  All comparisons, floors and fractional parts
are decided exactly; no floating point enters any decision path.  Values with
d = 0 are plain rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Union

RationalLike = Union[int, Fraction]


class IncompatibleRadicandsError(ValueError):
    """Arithmetic attempted between values in different quadratic fields."""


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def factorize(n: int) -> Iterator[tuple[int, int]]:
    """Yield (prime, exponent) for each prime factor of n in increasing
    order; nothing for n <= 1.  Trial division: the numbers factored here
    (radicands, conference v, Paley p) stay small."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (root, core) with n = root**2 * core and core square-free.

    Requires n >= 0.
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    if n == 0:
        return 1, 0
    root, core = 1, 1
    for p, e in factorize(n):
        root *= p ** (e // 2)
        core *= p ** (e % 2)
    return root, core


@dataclass(frozen=True)
class QuadExt:
    """Immutable exact value a + b*sqrt(d); construct via QuadExt.make()."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a: RationalLike, b: RationalLike = 0, d: int = 0) -> "QuadExt":
        """Build a normalized value: square factors of d are folded into b,
        and a rational result always ends up with b = 0, d = 0."""
        a = Fraction(a)
        b = Fraction(b)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b != 0 and d != 0:
            root, d = squarefree_split(d)
            b *= root
            if d == 1:
                a, b = a + b, Fraction(0)
        return QuadExt._from_parts(a, b, d)

    @staticmethod
    def _from_parts(a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """Arithmetic result; d is an operand's radicand, already square-free."""
        if b == 0 or d == 0:
            return QuadExt(a, Fraction(0), 0)
        return QuadExt(a, b, d)

    @staticmethod
    def sqrt(n: int) -> "QuadExt":
        """Exact sqrt of a nonnegative integer."""
        return QuadExt.make(0, 1, n)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(Fraction(x), Fraction(0), 0)
        return NotImplemented

    def _join(self, other: "QuadExt") -> int:
        """Common radicand, or raise if the two fields are incompatible."""
        if self.d == other.d or other.d == 0:
            return self.d
        if self.d == 0:
            return other.d
        raise IncompatibleRadicandsError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    def __add__(self, other):
        other = QuadExt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return QuadExt._from_parts(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = QuadExt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QuadExt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return QuadExt._from_parts(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        """1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - b^2 d)."""
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero")
            raise ZeroDivisionError("zero field norm")  # unreachable for square-free d
        return QuadExt._from_parts(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = QuadExt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._join(other)
        if other.a == 0 and other.b == 0:
            raise ZeroDivisionError("division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = QuadExt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d)."""
        sa = _sgn(self.a)
        if self.d == 0:
            return sa
        sb = _sgn(self.b)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 d
        return sa * _sgn(self.a * self.a - self.b * self.b * self.d)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __eq__(self, other):
        other = QuadExt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # canonical form makes structural equality semantic
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a rational value equals, and so hashes as, the Fraction self.a
        return hash(self.a) if self.d == 0 else hash((self.a, self.b, self.d))

    # -- floor / fractional part -------------------------------------------

    def floor(self) -> int:
        """Unique n with n <= x < n+1, by exact integer arithmetic.

        Write x = (A + B*sqrt(d)) / C over a common denominator C > 0.  Since
        d is square-free and > 1 here, B*sqrt(d) is irrational, so
        floor(B*sqrt(d)) is isqrt(B^2 d) for B > 0 and -isqrt(B^2 d) - 1 for
        B < 0, and no integer lies strictly between A + B*sqrt(d) and
        A + floor(B*sqrt(d)); hence floor(x) = (A + floor(B*sqrt(d))) // C.
        """
        if self.d == 0:
            return math.floor(self.a)
        c = math.lcm(self.a.denominator, self.b.denominator)
        a_int = self.a.numerator * (c // self.a.denominator)
        b_int = self.b.numerator * (c // self.b.denominator)
        root = isqrt(b_int * b_int * self.d)
        shift = root if b_int > 0 else -root - 1
        return (a_int + shift) // c

    def frac(self) -> "QuadExt":
        """Fractional part x - floor(x), in [0, 1)."""
        return self - self.floor()

    # -- display ------------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

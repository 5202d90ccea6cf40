"""What `import srgbounds.cli` loads, and the records and package names that
make it small.

The per-tuple records and the scan's settings and counters are tuples, so
building one needs neither dataclasses nor the inspect/ast chain it imports;
json loads only where JSON is written; and the package serves QuadExt and
the graph names on first access.  The import set is read in a fresh
interpreter as a diff of sys.modules, so it does not depend on what site
preloads; no time is measured.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import srgbounds
from srgbounds.cab import CabWitness, cab, full_report
from srgbounds.graphs import CliqueResult, max_clique, paley
from srgbounds.srg import (
    DegenerateParamsError,
    EdgeRegularParams,
    InfeasibleParamsError,
    SrgParams,
    complement,
    spectrum,
)

SRC = os.path.dirname(os.path.dirname(srgbounds.__file__))

# modules the bounds path must not load: the dataclass and Fraction
# machinery, and every srgbounds module beyond srg, cab and cli
HEAVY = {"dataclasses", "fractions"} | {
    f"srgbounds.{m}" for m in ("quadext", "graphs", "graphio", "catalog", "identities", "mpoly")
}

PROBE = """
import json, sys
seen = set(sys.modules)
import srgbounds.cli
loaded = set(sys.modules) - seen
seen = set(sys.modules)
rc = srgbounds.cli.main(["bounds", "17", "8", "3", "4", "--json"])
print(json.dumps({
    "rc": rc,
    "import": sorted(loaded),
    "bounds": sorted(set(sys.modules) - seen),
    "dir_missing": sorted(set(srgbounds.__all__) - set(dir(srgbounds))),
}))
"""


# a cold call, import included, with json imported only after the diff
COLD_CALL = """
import sys
seen = set(sys.modules)
import srgbounds.cli
rc = srgbounds.cli.main(sys.argv[1:])
loaded = sorted(set(sys.modules) - seen)
import json
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


def probe(code: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportSet:
    def test_bounds_loads_only_the_core(self):
        out = probe(PROBE)
        assert out["rc"] == 0
        assert {"srgbounds", "srgbounds.srg", "srgbounds.cab", "srgbounds.cli"} <= set(out["import"])
        assert HEAVY & set(out["import"]) == set()
        assert HEAVY & set(out["bounds"]) == set()
        # the lazily served names are listed before their modules load
        assert out["dir_missing"] == []

    def test_maxclique_loads_no_dataclasses(self, tmp_path):
        f = tmp_path / "c5.txt"
        f.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        code = """
import json, sys
import srgbounds.cli
seen = set(sys.modules)
rc = srgbounds.cli.main(["maxclique", sys.argv[1]])
print(json.dumps({"rc": rc, "loaded": sorted(set(sys.modules) - seen)}))
"""
        out = probe(code, str(f))
        assert out["rc"] == 0
        assert {"srgbounds.graphs", "srgbounds.graphio"} <= set(out["loaded"])
        assert (HEAVY - {"srgbounds.graphs", "srgbounds.graphio"}) & set(out["loaded"]) == set()

    @pytest.mark.parametrize("argv", [["paley", "13", "--clique"], ["delta3"]],
                             ids=lambda argv: argv[0])
    def test_paley_loads_no_quadext(self, argv):
        # the Paley primality test factors with srg.factorize, and delta3
        # floors its irrational bounds with isqrt, so neither graph command
        # needs QuadExt or Fraction
        code = """
import json, sys
import srgbounds.cli
seen = set(sys.modules)
rc = srgbounds.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "loaded": sorted(set(sys.modules) - seen)}))
"""
        out = probe(code, json.dumps(argv))
        assert out["rc"] == 0
        assert "srgbounds.graphs" in out["loaded"]
        assert (HEAVY - {"srgbounds.graphs"}) & set(out["loaded"]) == set()

    @pytest.mark.parametrize("argv, loads, absent", [
        (["scan", "--max-v", "60", "--format", "csv"], "srgbounds.catalog",
         {"dataclasses", "inspect", "json"}),
        (["bounds", "17", "8", "3", "4"], "srgbounds.cab", {"json"}),
    ], ids=["scan-csv", "bounds-text"])
    def test_no_json_unless_written(self, argv, loads, absent):
        out = probe(COLD_CALL, *argv)
        assert out["rc"] == 0
        assert loads in out["loaded"]
        assert absent & set(out["loaded"]) == set()


class TestRecords:
    def test_repr_unchanged(self):
        assert repr(SrgParams(17, 8, 3, 4)) == "SrgParams(v=17, k=8, lam=3, mu=4)"
        assert repr(EdgeRegularParams(21, 8, 3)) == "EdgeRegularParams(v=21, k=8, lam=3)"
        assert repr(cab(SrgParams(17, 8, 3, 4))[1]) == "CabWitness(b=1, c_plus_1=4, value=-2)"
        assert repr(max_clique(paley(13))) == "CliqueResult(size=3, witness=(0, 1, 10))"
        assert repr(spectrum(SrgParams(10, 3, 0, 1))) == (
            "Spectrum(r=QuadExt(Fraction(1, 1), Fraction(0, 1), 0), "
            "s=QuadExt(Fraction(-2, 1), Fraction(0, 1), 0), f=5, g=4, "
            "type_tag=<SrgType.TYPE_II_ONLY: 'II'>)")
        assert repr(full_report(SrgParams(17, 8, 3, 4))) == (
            "BoundsReport(params=SrgParams(v=17, k=8, lam=3, mu=4), "
            "type_tag=<SrgType.TYPE_I_ONLY: 'I'>, cab=3, "
            "cab_witness=CabWitness(b=1, c_plus_1=4, value=-2), delsarte=4, "
            "thm21=True, thm22=False, thm51=False)")

    def test_error_messages_print_the_tuple(self):
        with pytest.raises(InfeasibleParamsError) as exc:
            spectrum(SrgParams(7, 3, 0, 2))
        assert str(exc.value) == (
            "SrgParams(v=7, k=3, lam=0, mu=2) is neither conference nor has integer eigenvalues")
        with pytest.raises(DegenerateParamsError) as exc:
            complement(SrgParams(6, 1, 0, 0))
        assert str(exc.value) == "SrgParams(v=6, k=1, lam=0, mu=0) is disconnected (mu=0)"

    @pytest.mark.parametrize("record, field", [
        (SrgParams(17, 8, 3, 4), "mu"),
        (EdgeRegularParams(21, 8, 3), "lam"),
        (spectrum(SrgParams(17, 8, 3, 4)), "f"),
        (CabWitness(1, 4, -2), "value"),
        (full_report(SrgParams(17, 8, 3, 4)), "cab"),
        (CliqueResult(3, (0, 1, 10)), "size"),
    ])
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_equal_records_hash_equal(self):
        pairs = [
            (SrgParams(17, 8, 3, 4), SrgParams(17, 8, 3, 4)),
            (spectrum(SrgParams(17, 8, 3, 4)), spectrum(SrgParams(17, 8, 3, 4))),
            (full_report(SrgParams(36, 15, 6, 6)), full_report(SrgParams(36, 15, 6, 6))),
            (CliqueResult(3, (0, 1, 10)), max_clique(paley(13))),
        ]
        for a, b in pairs:
            assert a == b and a is not b
            assert hash(a) == hash(b)
        assert len({SrgParams(17, 8, 3, 4), SrgParams(17, 8, 3, 4), SrgParams(16, 6, 2, 2)}) == 2


class TestPackageNames:
    def test_every_name_is_the_defining_modules_object(self):
        for name in srgbounds.__all__:
            obj = getattr(srgbounds, name)
            assert obj.__module__.startswith("srgbounds."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from srgbounds import *", ns)
        assert {n: ns[n] for n in srgbounds.__all__} == {
            n: getattr(srgbounds, n) for n in srgbounds.__all__}

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            srgbounds.no_such_name
        with pytest.raises(ImportError):
            exec("from srgbounds import no_such_name", {})

    def test_dir_lists_every_name(self):
        assert set(srgbounds.__all__) <= set(dir(srgbounds))

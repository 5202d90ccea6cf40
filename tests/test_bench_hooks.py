"""The benchmark's tracing hooks still find their targets.

perfbench/workloads.py times each layer by rebinding the names listed in
its HOOKS.  A span whose every target is gone reads as a missing metric, so
a refactor that renames or inlines such a name silently blanks a per-layer
number.  HOOKS is read here with ast; the benchmark module is neither
imported nor edited.
"""

import ast
import importlib
from pathlib import Path

import srgbounds.catalog as catalog
from srgbounds.catalog import ScanConfig, scan_compare
from srgbounds.srg import SrgType, _int_spectrum
from test_cab import delsarte_level_branch

# the package re-exports the function cab, which shadows the module name
cab_module = importlib.import_module("srgbounds.cab")

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def read_hooks() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no HOOKS assignment in perfbench/workloads.py")


def resolves(owner: str, attr: str) -> bool:
    """The lookup the tracer makes: a module global, or for "module:Class"
    an attribute in the class's own namespace."""
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return False
    if class_name:
        target = getattr(target, class_name, None)
        return target is not None and attr in target.__dict__
    return hasattr(target, attr)


def test_every_span_keeps_a_target():
    spans: dict[str, list[bool]] = {}
    for owner, attr, span in read_hooks():
        spans.setdefault(span, []).append(resolves(owner, attr))
    assert spans
    assert {span for span, found in spans.items() if not any(found)} == set()


def primitive(p) -> bool:
    """0 < mu < k: neither m*K_c (mu = 0) nor K_{m x a} (mu = k), the two
    families whose rows the scan builds in closed form."""
    return 0 < p.mu < p.k


def delsarte_level(p) -> bool:
    """Whether cab._report decides p, a primitive tuple, at its Delsarte
    level without cab() (tests/test_cab.py: TestDelsarteLevelPath)."""
    _, r, s, _, _ = _int_spectrum(p)
    return s is not None and delsarte_level_branch(p, r, -s) == "delsarte-level"


def test_scan_reports_through_the_catalog_name(monkeypatch):
    # catalog.report_s times full_report as rebound in srgbounds.catalog,
    # once per irrational conference row (type I); the rows of
    # _primitive_rows with integer eigenvalues go to cab._report, and the
    # family rows call it not at all
    calls = []
    original = catalog.full_report

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(catalog, "full_report", counted)
    reports, stats = scan_compare(ScanConfig(v_max=20))
    assert len(reports) == stats().total
    others = [r.params for r in reports if r.type_tag is not SrgType.TYPE_I_ONLY]
    assert any(map(primitive, others)) and not all(map(primitive, others))
    assert set(others).isdisjoint(calls)
    assert calls == [r.params for r in reports if r.type_tag is SrgType.TYPE_I_ONLY] != []


def test_full_report_bounds_through_the_cab_name(monkeypatch):
    # cab.cab_s times cab as rebound in srgbounds.cab, so full_report must
    # call it by that module-level name, once per primitive report that the
    # Delsarte-level path leaves to it, thm51 reports included (cab decides
    # those without the walk), and the family rows call it not at all
    calls = []
    original = cab_module.cab

    def counted(p, **start):
        calls.append((p.v, p.k, p.lam))
        return original(p, **start)

    monkeypatch.setattr(cab_module, "cab", counted)
    reports, _ = scan_compare(ScanConfig(v_max=20))
    assert any(not primitive(r.params) for r in reports)
    assert any(primitive(r.params) and r.thm51 for r in reports)
    left = [(r.params.v, r.params.k, r.params.lam) for r in reports
            if primitive(r.params) and not delsarte_level(r.params)]
    assert calls == left != []
    assert len(left) < sum(primitive(r.params) for r in reports)


def test_full_report_decides_thm21_through_its_name(monkeypatch):
    # cab.predicates_s times thm21_applies as rebound in srgbounds.cab, so
    # full_report must call it by that name, once per type-I report
    calls = []
    original = cab_module.thm21_applies

    def counted(v):
        calls.append(v)
        return original(v)

    monkeypatch.setattr(cab_module, "thm21_applies", counted)
    reports, _ = scan_compare(ScanConfig(v_max=150))
    type1 = [r for r in reports if r.type_tag is SrgType.TYPE_I_ONLY]
    assert type1
    assert calls == [r.params.v for r in type1]

"""The srgbounds benchmark workloads, run in a fresh child interpreter.

    PYTHONPATH=src python3 perfbench/workloads.py --workload W --seed N --seconds S --trace 0|1

``run.py`` starts this process and adds the set-up and import-time figures;
the last line on stdout is one JSON object.  Each workload is a closed loop
with one caller and no threads.  A pass is one fixed set of operations made
from the seed and the pass number; an untraced run repeats passes until the
time is up; a traced run makes untraced, traced and untraced passes over
the operations of pass 0, so its counts repeat exactly for a given seed.

Operations are timed one by one, and ``calibrate.Meter`` turns their raw
times into reference seconds.  Every output is checked after its pass,
outside the timed region.  An operation fails on an exception, a non-zero
exit code or a failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
from collections import Counter
from functools import partial
from itertools import combinations
from pathlib import Path
from time import perf_counter

import srgbounds
from srgbounds import cli
from srgbounds.cab import cab, cap_min_over_b, cap_value, full_report
from srgbounds.catalog import ScanConfig, emit, scan_compare
from srgbounds.graphio import load_graph, write_edge_list, write_graph6
from srgbounds.graphs import (
    Graph,
    heawood_line_distance3,
    is_edge_regular,
    is_strongly_regular,
    max_clique,
    paley,
)
from srgbounds.identities import (
    CASES,
    random_point_crosscheck,
    rhs_term_count,
    verify_identity,
    verify_identity_mutated,
)
from srgbounds.srg import EdgeRegularParams, SrgParams

from calibrate import Meter, speed
from spantrace import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


class Direct:
    """Untraced stand-in for ``Tracer``: calls straight through."""

    def __init__(self) -> None:
        self.op = 0
        self.counts: Counter = Counter()

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


# -- catalog_scan --------------------------------------------------------------


def csv_digest(text: str, v_max: int) -> tuple[str, int]:
    """sha256 and tuple count of the CSV restricted to v <= v_max.  Rows are in
    v order, so this equals the output of ``scan --max-v v_max --format csv``."""
    lines = text.splitlines()
    kept = lines[:1] + [ln for ln in lines[1:] if int(ln.split(",", 1)[0]) <= v_max]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest(), len(kept) - 1


class CatalogScan:
    """``srgbounds scan --max-v V --format csv`` in process: scan_compare then
    emit.  One operation is one tuple reported.  The seed is unused."""

    name = "catalog_scan"

    def __init__(self, v_max: int | None = None, digests: dict | None = None) -> None:
        spec = EXPECTED["catalog_scan"]
        self.v_max = v_max if v_max is not None else spec["v_max"]
        self.digests = {int(v): d for v, d in (digests or spec["csv_sha256"]).items()}
        self.tuples = {int(v): n for v, n in spec["tuples"].items()}

    def inputs(self, seed: int, i: int) -> int:
        return self.v_max

    def operations(self, v_max: int) -> list:
        return [partial(self._scan, v_max)]

    @staticmethod
    def _scan(v_max: int, rec) -> str:
        records, _ = rec.call("catalog.scan_compare", scan_compare, ScanConfig(v_max=v_max))
        text = rec.call("catalog.emit", emit, records, "csv")
        rec.counts["catalog.emit_bytes"] += len(text)
        return text

    def check(self, v_max: int, outputs: list) -> tuple[int, int]:
        """The scan is one call, but one operation per tuple reported.  Any
        digest or count mismatch fails every operation of the pass."""
        text = outputs[0]
        if text is None:
            return self.tuples[v_max], self.tuples[v_max]
        ops = len(text.splitlines()) - 1
        for cut, want in self.digests.items():
            if cut <= v_max and csv_digest(text, cut) != (want, self.tuples[cut]):
                return ops, ops
        return ops, 0


# -- bounds_queries -------------------------------------------------------------


def _stratum(rng: random.Random, j: int, strata: int, lo: int, hi: int) -> int:
    """Uniform draw from the j-th of ``strata`` equal slices of [lo, hi), so
    the cost of the large-input tail varies little from seed to seed."""
    width = (hi - lo) / strata
    return int(lo + width * (j + rng.random()))


def large_query(family: str, rng: random.Random, j: int, strata: int) -> tuple[int, ...]:
    if family == "triangular":        # T(n)
        n = _stratum(rng, j, strata, 100, 3000)
        return n * (n - 1) // 2, 2 * (n - 2), n - 2, 4
    if family == "lattice":           # L2(n)
        n = _stratum(rng, j, strata, 100, 3000)
        return n * n, 2 * (n - 1), n - 2, 2
    if family == "conference":        # log-uniform v in [1e6, 1e8), v = 1 mod 4
        x = 10 ** (6 + 2 * (j + rng.random()) / strata)
        v = 4 * int(x // 4) + 1
        return v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4
    if family == "edge_regular":      # (2m, m-1, m-2), no mu
        m = _stratum(rng, j, strata, 1000, 10000)
        return 2 * m, m - 1, m - 2
    raise ValueError(family)


def load_pool(path: Path = HERE / "data" / "pool.csv") -> list[tuple[tuple[int, ...], tuple[int, int]]]:
    """Recorded catalogue tuples with their cab and Delsarte answers."""
    rows = path.read_text().splitlines()[1:]
    out = []
    for row in rows:
        v, k, lam, mu, c, d = map(int, row.split(","))
        out.append(((v, k, lam, mu), (c, d)))
    return out


def check_answer(params: tuple[int, ...], expected, rc, out: str) -> bool:
    """Exit code 0, JSON for the asked tuple, a witness C(b, cab+1) < 0, no
    negative value at the level below, cab <= Delsarte and cab <= trivial."""
    if rc != 0:
        return False
    v, k, lam = params[:3]
    mu = params[3] if len(params) == 4 else None
    try:
        ans = json.loads(out)
        if (ans["v"], ans["k"], ans["lambda"], ans["mu"]) != (v, k, lam, mu):
            return False
        c, b, y, triv, dels = (ans["cab"], ans["cab_witness_b"], ans["cab_witness_y"],
                               ans["trivial"], ans["delsarte"])
    except (ValueError, KeyError, TypeError):
        return False
    if y != c + 1 or cap_value(v, k, lam, b, y) >= 0:
        return False
    if 3 <= c < v and cap_min_over_b(v, k, lam, c)[1] < 0:
        return False
    if triv != lam + 2 or c > triv:
        return False
    if mu is not None and (dels is None or c > dels):
        return False
    return expected is None or (c, dels) == tuple(expected)


class BoundsQueries:
    """A seeded stream of ``srgbounds bounds ... --json`` calls through
    ``cli.main`` in process.  Most queries are drawn with replacement from the
    recorded pool; the rest are large inputs, a fixed number per family.  One
    operation is one query answered."""

    name = "bounds_queries"
    FAMILIES = ("triangular", "lattice", "conference", "edge_regular")

    def __init__(self, pool_queries: int = 540, large_per_family: int = 15) -> None:
        self.pool = load_pool()
        self.pool_queries = pool_queries
        self.large_per_family = large_per_family
        self.seen: set = set()
        self.pool_drawn = 0
        self.repeats = 0

    def inputs(self, seed: int, i: int) -> list:
        rng = random.Random(f"bounds_queries:{seed}:{i}")
        queries = [rng.choice(self.pool) for _ in range(self.pool_queries)]
        for fam in self.FAMILIES:
            queries += [(large_query(fam, rng, j, self.large_per_family), None)
                        for j in range(self.large_per_family)]
        rng.shuffle(queries)
        return queries

    def operations(self, queries: list) -> list:
        for params, expected in queries:
            if expected is not None:
                self.pool_drawn += 1
                self.repeats += params in self.seen
                self.seen.add(params)
        return [partial(self._query, ["bounds", *map(str, params), "--json"])
                for params, _ in queries]

    @staticmethod
    def _query(argv: list[str], rec) -> tuple[object, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = rec.call("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code
        return rc, out.getvalue()

    def check(self, queries: list, outputs: list) -> tuple[int, int]:
        failed = sum(out is None or not check_answer(params, expected, *out)
                     for (params, expected), out in zip(queries, outputs))
        return len(queries), failed


# -- graph_verify ----------------------------------------------------------------


def _primes_1_mod_4(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1)
            if p % 4 == 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))]


class GraphVerify:
    """Concrete graphs: build, recognise parameters, exact max clique, bounds
    for recognised parameters, graphio round trip.  Paley graphs from 137 to
    241 (the heavy tail) run in every pass; the seed picks half of the
    smaller Paley primes and the G(n, 1/2) graphs.  The delta3 fixture and
    the eight identity proofs, each with its mutation tests and a seeded
    random-point cross-check, complete a pass.  One operation is one graph
    or one identity case verified."""

    name = "graph_verify"

    def __init__(self, heavy=(137, 241), light=(5, 136), random_graphs: int = 40,
                 n_range=(24, 160), trials: int = 20) -> None:
        self.heavy = _primes_1_mod_4(*heavy)
        self.light = _primes_1_mod_4(*light)
        self.random_graphs = random_graphs
        self.n_range = n_range
        self.trials = trials
        self.omega = {int(p): w for p, w in EXPECTED["paley_omega"].items()}
        self.delta3 = EXPECTED["delta3"]

    def inputs(self, seed: int, i: int) -> list:
        rng = random.Random(f"graph_verify:{seed}:{i}")
        ops: list = [("paley", p) for p in sorted(rng.sample(self.light, len(self.light) // 2))]
        ops += [("paley", p) for p in self.heavy]
        for j in range(self.random_graphs):
            n = _stratum(rng, j, self.random_graphs, *self.n_range)
            edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.5]
            ops.append(("random", n, edges))
        ops.append(("delta3",))
        ops += [("identity", case, rng.randrange(2 ** 31)) for case in CASES]
        return ops

    @staticmethod
    def _graph(rec, kind: str, build, *args):
        g = rec.call("graphs.build", build, *args)
        srg = rec.call("graphs.regularity", is_strongly_regular, g)
        er = srg.edge_regular if srg else rec.call("graphs.regularity", is_edge_regular, g)
        if srg is not None:
            rep = rec.call("cab.full_report", full_report, srg)
            bounds = (rep.cab, rep.delsarte)
        elif er is not None:
            bounds = (rec.call("cab.cab", cab, er)[0], er.lam + 2)
        else:
            bounds = None
        clique = rec.call(f"graphs.max_clique.{kind}", max_clique, g)
        texts = [rec.call("graphio.write", write_edge_list, g)]
        if g.n < 63:
            texts.append(rec.call("graphio.write", write_graph6, g))
        rec.counts["graphio.bytes"] += sum(map(len, texts))
        copies = [rec.call("graphio.load", load_graph, t) for t in texts]
        return g, srg, er, bounds, clique, copies

    def operations(self, ops: list) -> list:
        return [partial(self._run_op, op) for op in ops]

    def _run_op(self, op, rec):
        kind = op[0]
        if kind == "paley":
            return self._graph(rec, "paley", paley, op[1])
        if kind == "random":
            return self._graph(rec, "random", Graph, op[1], op[2])
        if kind == "delta3":
            return self._graph(rec, "fixture", heawood_line_distance3)
        case, seed = op[1], op[2]
        proved = rec.call("identities.verify", verify_identity, case)
        terms = rec.call("identities.mutation", rhs_term_count, case)
        mutants = [rec.call("identities.mutation", verify_identity_mutated, case, t)
                   for t in range(terms)]
        crosscheck = rec.call("identities.crosscheck", random_point_crosscheck,
                              case, self.trials, seed)
        return proved, mutants, crosscheck

    @staticmethod
    def _clique_ok(n: int, witness, size: int, adjacent) -> bool:
        """A clique of the stated size that no outside vertex extends."""
        members = set(witness)
        return (len(members) == size == len(witness)
                and all(adjacent(u, w) for u, w in combinations(witness, 2))
                and not any(all(adjacent(x, w) for w in witness)
                            for x in range(n) if x not in members))

    def _op_ok(self, op, res) -> bool:
        kind = op[0]
        if kind == "identity":
            proved, mutants, crosscheck = res
            return proved is True and bool(mutants) and not any(mutants) and crosscheck is True
        g, srg, er, bounds, clique, copies = res
        if kind == "paley":
            p = op[1]
            residues = {x * x % p for x in range(1, p)}
            adjacent = lambda u, w: (u - w) % p in residues  # noqa: E731
            if srg != SrgParams(p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4):
                return False
            if clique.size != self.omega[p]:
                return False
        elif kind == "random":
            edge_set = set(op[2])
            adjacent = lambda u, w: (min(u, w), max(u, w)) in edge_set  # noqa: E731
            if g.n != op[1]:
                return False
        else:
            d = self.delta3
            adjacent = g.has_edge
            if (srg is not None or er != EdgeRegularParams(d["v"], d["k"], d["lambda"])
                    or clique.size != d["omega"] or bounds[0] != d["cab"]):
                return False
        if bounds is not None and not clique.size <= bounds[0] <= bounds[1]:
            return False
        return (self._clique_ok(g.n, clique.witness, clique.size, adjacent)
                and all(c == g for c in copies))

    def check(self, ops: list, outputs: list) -> tuple[int, int]:
        failed = 0
        for op, res in zip(ops, outputs):
            try:
                ok = res is not None and self._op_ok(op, res)
            except (TypeError, ValueError, IndexError):
                ok = False
            failed += not ok
        return len(ops), failed


WORKLOADS = {cls.name: cls for cls in (CatalogScan, BoundsQueries, GraphVerify)}


# -- tracing hooks and per-layer metrics -------------------------------------------

# (owner, attribute, span name): the public names through which the layers
# call one another.  An owner "module:Class" names a class attribute.
HOOKS = (
    ("srgbounds.catalog", "enumerate_feasible", "catalog.enumerate"),
    ("srgbounds.catalog", "is_feasible", "srg.is_feasible"),
    ("srgbounds.catalog", "spectrum", "srg.spectrum"),
    ("srgbounds.cab", "spectrum", "srg.spectrum"),
    ("srgbounds.srg", "spectrum", "srg.spectrum"),
    ("srgbounds.srg", "classify", "srg.classify"),
    ("srgbounds.cab", "classify", "srg.classify"),
    ("srgbounds.catalog", "full_report", "cab.full_report"),
    ("srgbounds.cli", "full_report", "cab.full_report"),
    ("srgbounds.cab", "cab", "cab.cab"),
    ("srgbounds.cli", "cab", "cab.cab"),
    ("srgbounds.cab", "cap_min_over_b", "cab.cap_min_over_b"),
    ("srgbounds.cab", "delsarte_bound", "cab.delsarte_bound"),
    ("srgbounds.cab", "thm21_applies", "cab.predicate"),
    ("srgbounds.cab", "thm22_applies", "cab.predicate"),
    ("srgbounds.cab", "thm51_predicate", "cab.predicate"),
    ("srgbounds.cab", "improved_bound", "cab.predicate"),
    ("srgbounds.quadext:QuadExt", "sqrt", "quadext.sqrt"),
)

# constraint names returned by srg.is_feasible -> metric suffix
REJECT_SLUGS = {
    "v>=2": "v_min",
    "0<k<=v-2": "k_range",
    "0<=lambda<=k-1": "lambda_range",
    "0<=mu<=k": "mu_range",
    "counting identity": "counting_identity",
    "v-2k+lambda>=0": "complement_lambda",
    "nonnegative discriminant": "discriminant",
    "integer eigenvalues": "integer_eigenvalues",
    "distinct restricted eigenvalues": "distinct_eigenvalues",
    "integral multiplicities": "integral_multiplicities",
    "conference or perfect-square discriminant": "conference_or_square",
    "conference sum of two squares": "conference_two_squares",
    "Krein 1": "krein_1",
    "Krein 2": "krein_2",
    "absolute bound (f)": "absolute_bound_f",
    "absolute bound (g)": "absolute_bound_g",
}


def install_hooks(tr: Tracer) -> None:
    def tally(result) -> None:
        ok, reason = result
        tr.counts["srg.accepted" if ok else "srg.reject." + REJECT_SLUGS.get(reason, "other")] += 1

    for owner, attr, span in HOOKS:
        tr.hook(owner, attr, span, generator=span == "catalog.enumerate",
                on_result=tally if span == "srg.is_feasible" else None)


def layer_metrics(tr: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, and the metrics whose every
    hook target is gone, with the reason."""
    dur = tr.durations()
    own = tr.self_times()
    spans = tr.by_name()

    def ids(name):
        return spans.get(name, [])

    def total(*names):
        return sum(dur[i] for n in names for i in ids(n))

    def self_total(name):
        return sum(own[i] for i in ids(name))

    def parent_name(i):
        p = tr.parent[i]
        return tr.names[tr.name[p]] if p >= 0 else None

    reports = [dur[i] for i in ids("cab.full_report")]
    calls = len(ids("srg.is_feasible"))
    s, n = "s", "count"
    m = {
        "catalog.enumerate_s": (total("catalog.enumerate"), s),
        "catalog.candidates_s": (self_total("catalog.enumerate"), s),
        "catalog.accept_ratio": (tr.counts["srg.accepted"] / calls if calls else 0.0, "ratio"),
        "catalog.report_s": (sum(dur[i] for i in ids("cab.full_report")
                                 if parent_name(i) == "catalog.scan_compare"), s),
        "catalog.emit_s": (total("catalog.emit"), s),
        "catalog.emit_bytes": (tr.counts["catalog.emit_bytes"], "bytes"),
        "srg.is_feasible_calls": (calls, n),
        "srg.is_feasible_s": (total("srg.is_feasible"), s),
        **{f"srg.reject.{slug}": (tr.counts[f"srg.reject.{slug}"], n)
           for slug in [*REJECT_SLUGS.values(), "other"]},
        "srg.spectrum_calls": (len(ids("srg.spectrum")), n),
        "srg.spectrum_s": (total("srg.spectrum"), s),
        "srg.classify_calls": (len(ids("srg.classify")), n),
        "cab.full_report_calls": (len(reports), n),
        "cab.full_report_s": (sum(reports), s),
        "cab.full_report_p50_us": (statistics.median(reports) * 1e6 if reports else 0.0, "us"),
        "cab.cab_s": (total("cab.cab"), s),
        "cab.cab_levels": (len(ids("cab.cap_min_over_b")), n),
        "cab.delsarte_s": (total("cab.delsarte_bound"), s),
        "cab.predicates_s": (sum(dur[i] for i in ids("cab.predicate")
                                 if parent_name(i) != "cab.predicate"), s),
        "quadext.sqrt_calls": (len(ids("quadext.sqrt")), n),
        "quadext.sqrt_s": (total("quadext.sqrt"), s),
        "graphs.build_s": (total("graphs.build"), s),
        "graphs.regularity_s": (total("graphs.regularity"), s),
        "graphs.max_clique_s": (total("graphs.max_clique.paley", "graphs.max_clique.random",
                                      "graphs.max_clique.fixture"), s),
        "graphs.max_clique_paley_s": (total("graphs.max_clique.paley"), s),
        "graphs.max_clique_random_s": (total("graphs.max_clique.random"), s),
        "graphio.write_s": (total("graphio.write"), s),
        "graphio.load_s": (total("graphio.load"), s),
        "graphio.bytes": (tr.counts["graphio.bytes"], "bytes"),
        "identities.verify_s": (total("identities.verify"), s),
        "identities.mutation_s": (total("identities.mutation"), s),
        "identities.crosscheck_s": (total("identities.crosscheck"), s),
        "cli.main_s": (total("cli.main"), s),
        "cli.self_s": (self_total("cli.main"), s),
        "trace.spans": (len(tr), n),
    }
    # a span name is missing when every hook that records it found no target
    targets: dict[str, list[str]] = {}
    for owner, attr, span in HOOKS:
        targets.setdefault(span, []).append(f"{owner}.{attr}")
    gone = {span: "; ".join(f"{t}: {tr.missing[t]}" for t in ts)
            for span, ts in targets.items() if all(t in tr.missing for t in ts)}
    needs = {
        "catalog.enumerate_s": ["catalog.enumerate"],
        "catalog.candidates_s": ["catalog.enumerate", "srg.is_feasible"],
        "catalog.accept_ratio": ["srg.is_feasible"],
        "catalog.report_s": ["cab.full_report"],
        "srg.is_feasible_calls": ["srg.is_feasible"],
        "srg.is_feasible_s": ["srg.is_feasible"],
        "srg.spectrum_calls": ["srg.spectrum"],
        "srg.spectrum_s": ["srg.spectrum"],
        "srg.classify_calls": ["srg.classify"],
        "cab.full_report_calls": ["cab.full_report"],
        "cab.full_report_s": ["cab.full_report"],
        "cab.full_report_p50_us": ["cab.full_report"],
        "cab.cab_s": ["cab.cab"],
        "cab.cab_levels": ["cab.cap_min_over_b"],
        "cab.delsarte_s": ["cab.delsarte_bound"],
        "cab.predicates_s": ["cab.predicate"],
        "quadext.sqrt_calls": ["quadext.sqrt"],
        "quadext.sqrt_s": ["quadext.sqrt"],
        "cli.self_s": ["cab.full_report", "cab.cab"],
        **{k: ["srg.is_feasible"] for k in m if k.startswith("srg.reject.")},
    }
    missing = {}
    for metric, spans_needed in needs.items():
        lost = [sp for sp in spans_needed if sp in gone]
        if lost:
            missing[metric] = "; ".join(gone[sp] for sp in lost)
            del m[metric]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, missing


# -- runner -------------------------------------------------------------------------


def execute_pass(workload, inputs, rec, meter: Meter, pass_no: int) -> tuple[list, list]:
    """Run and time each operation of one pass; an operation that raises
    gives the output None, which its check counts as failed.  Latencies are
    raw seconds without the meter's samples."""
    outputs, lat = [], []
    meter.start(pass_no)
    try:
        for j, op in enumerate(workload.operations(inputs)):
            rec.op = j
            stolen = meter.stolen
            t0 = perf_counter()
            try:
                out = op(rec)
            except Exception as exc:
                print(f"# {workload.name} operation {j} raised {exc!r}", file=sys.stderr)
                out = None
            dt = perf_counter() - t0 - (meter.stolen - stolen)
            meter.raw[pass_no] += dt
            lat.append(dt)
            outputs.append(out)
    finally:
        meter.stop()
    return outputs, lat


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """Passes while the next one still fits in ``seconds``; at least one."""
    t_start = perf_counter()
    meter = Meter()
    lat = []
    attempted = failed = passes = 0
    while True:
        inputs = workload.inputs(seed, passes)
        outputs, op_lat = execute_pass(workload, inputs, Direct(), meter, passes)
        a, f = workload.check(inputs, outputs)
        del inputs, outputs  # so that peak memory is that of one pass
        lat += op_lat
        attempted += a
        failed += f
        passes += 1
        if perf_counter() - t_start + statistics.median(meter.raw.values()) > seconds:
            break
    ref = [meter.ref(p) for p in range(passes)]
    raw = [meter.raw[p] for p in range(passes)]
    info = {
        "passes": passes,
        "failed_frac": failed / attempted,
        "raw_wall_s": statistics.median(raw),
        "raw_ops_per_s": (attempted - failed) / sum(raw),
        "speed": statistics.median(speed(meter.samples[p]) for p in range(passes)),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_samples": len(lat),
    }
    if len(lat) >= 1000:  # at least 10 samples beyond the 99th percentile
        info["op_p99_ms"] = statistics.quantiles(lat, n=100)[98] * 1e3
    if isinstance(workload, BoundsQueries):
        info["repeat_share"] = workload.repeats / workload.pool_drawn
    metrics = {
        "wall_s": _metric(statistics.median(ref), "s"),
        "ops_per_s": _metric((attempted - failed) / sum(ref), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def run_traced(workload, seed: int, spans_path: Path | None) -> dict:
    """Untraced, traced and untraced again over the operations of pass 0, so
    that warm-up does not count as negative overhead.  Times are raw seconds:
    speed samples would land inside the spans."""
    inputs = workload.inputs(seed, 0)
    meter = Meter(interval_s=0)
    tr = Tracer()
    attempted = failed = 0
    for pass_no in range(3):
        traced = pass_no == 1
        if traced:
            install_hooks(tr)
        try:
            outputs, _ = execute_pass(workload, inputs, tr if traced else Direct(), meter, pass_no)
        finally:
            tr.uninstall()
        a, f = workload.check(inputs, outputs)
        attempted += a
        failed += f
    metrics, missing = layer_metrics(tr)
    untraced = (meter.raw[0] + meter.raw[2]) / 2
    metrics["trace.untraced_wall_s"] = _metric(untraced, "s")
    metrics["trace.traced_wall_s"] = _metric(meter.raw[1], "s")
    metrics["trace.overhead_s"] = _metric(meter.raw[1] - untraced, "s")
    info = {}
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tr.write(spans_path)
        info["spans_file"] = str(spans_path)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info,
            "missing": missing}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)
    src = HERE.parent / "src"
    if not Path(srgbounds.__file__).resolve().is_relative_to(src.resolve()):
        print(f"srgbounds imported from {srgbounds.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = run_traced(workload, args.seed, args.spans_out)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

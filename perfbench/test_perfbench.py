"""Tests of the benchmark itself, on small inputs.

    python3 perfbench/test_perfbench.py        # from the root of the repository
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from spantrace import Tracer  # noqa: E402
from calibrate import Meter, speed  # noqa: E402
from workloads import (  # noqa: E402
    BoundsQueries,
    CatalogScan,
    Direct,
    GraphVerify,
    execute_pass,
    layer_metrics,
    run_traced,
    run_untraced,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# added by run.py, outside the workload process
END_TO_END_FROM_RUNNER = {"setup_s"}
PER_LAYER_FROM_RUNNER = {"cli.import_s", "catalog.numpy_import_s"}


def small(name: str):
    """Each workload at a size that runs in about a second."""
    if name == "catalog_scan":
        spec = workloads.EXPECTED["catalog_scan"]
        return CatalogScan(v_max=150, digests={150: spec["csv_sha256"]["150"]})
    if name == "bounds_queries":
        return BoundsQueries(pool_queries=40, large_per_family=2)
    return GraphVerify(heavy=(29, 61), light=(5, 28), random_graphs=4, n_range=(20, 70))


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_the_benchmark_file(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))


class EveryMetricAppears(unittest.TestCase):
    def test_untraced_runs_report_every_end_to_end_metric(self):
        want = {m["name"] for m in SPEC["end_to_end"]} - END_TO_END_FROM_RUNNER
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = run_untraced(small(name), seed=3, seconds=0)
                self.assertEqual(set(res["metrics"]), want)
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_runs_report_every_per_layer_metric_and_the_overhead(self):
        want = {m["name"] for m in SPEC["per_layer"]} - PER_LAYER_FROM_RUNNER
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                with tempfile.TemporaryDirectory() as tmp:
                    spans = Path(tmp) / "spans.csv.gz"
                    res = run_traced(small(name), seed=3, spans_path=spans)
                    self.assertTrue(spans.stat().st_size > 0)
                self.assertEqual(set(res["metrics"]), want)
                self.assertEqual(res["missing"], {})
                self.assertEqual(res["failed"], 0)
                m = res["metrics"]
                self.assertAlmostEqual(
                    m["trace.overhead_s"]["value"],
                    m["trace.traced_wall_s"]["value"] - m["trace.untraced_wall_s"]["value"])

    def test_layers_are_exercised_where_the_map_says(self):
        res = {name: run_traced(small(name), seed=3, spans_path=None)["metrics"]
               for name in workloads.WORKLOADS}
        self.assertGreater(res["catalog_scan"]["srg.is_feasible_calls"]["value"], 0)
        self.assertGreater(res["catalog_scan"]["catalog.report_s"]["value"], 0)
        self.assertGreater(res["bounds_queries"]["cli.self_s"]["value"], 0)
        self.assertGreater(res["bounds_queries"]["quadext.sqrt_calls"]["value"], 0)
        self.assertEqual(res["bounds_queries"]["srg.is_feasible_calls"]["value"], 0)
        self.assertGreater(res["graph_verify"]["graphs.max_clique_paley_s"]["value"], 0)
        self.assertGreater(res["graph_verify"]["graphs.max_clique_random_s"]["value"], 0)
        self.assertGreater(res["graph_verify"]["identities.mutation_s"]["value"], 0)

    def test_reject_counts_repeat_exactly(self):
        runs = [run_traced(small("catalog_scan"), seed=s, spans_path=None)["metrics"]
                for s in (1, 2)]
        counts = [{k: v["value"] for k, v in r.items()
                   if k.startswith("srg.") and not k.endswith("_s")} for r in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(sum(v for k, v in counts[0].items() if ".reject." in k), 0)


class FailuresAreCounted(unittest.TestCase):
    def test_corrupted_digest_fails_every_operation(self):
        good = small("catalog_scan")
        bad = CatalogScan(v_max=150, digests={150: "0" * 64})
        (text,), _ = execute_pass(good, 150, Direct(), Meter(), 0)
        self.assertEqual(good.check(150, [text]), (1227, 0))
        self.assertEqual(bad.check(150, [text]), (1227, 1227))
        self.assertEqual(good.check(150, [text.replace("\n17,8,3,4,", "\n17,8,3,4,x", 1)]),
                         (1227, 1227))
        self.assertEqual(good.check(150, [None]), (1227, 1227))

    def test_wrong_cab_answer_fails(self):
        wl = small("bounds_queries")
        queries = wl.inputs(5, 0)
        outputs, _ = execute_pass(wl, queries, Direct(), Meter(), 0)
        self.assertEqual(wl.check(queries, outputs), (len(queries), 0))

        def tamper(out, **changes):
            ans = json.loads(out)
            ans.update({k: ans[k] + d for k, d in changes.items() if ans[k] is not None})
            return json.dumps(ans)

        for changes in ({"cab": 1}, {"cab": 1, "cab_witness_y": 1},
                        {"cab": -1, "cab_witness_y": -1}, {"delsarte": -5}):
            with self.subTest(changes=changes):
                bad = [(rc, tamper(out, **changes)) for rc, out in outputs]
                attempted, failed = wl.check(queries, bad)
                self.assertGreater(failed, 0)
        for bad in ([(1, out) for _, out in outputs], [None] * len(outputs)):
            self.assertEqual(wl.check(queries, bad), (len(queries), len(queries)))

    def test_wrong_clique_number_fails(self):
        wl = small("graph_verify")
        ops = wl.inputs(5, 0)
        outputs, _ = execute_pass(wl, ops, Direct(), Meter(), 0)
        self.assertEqual(wl.check(ops, outputs), (len(ops), 0))
        wl.omega[61] += 1
        self.assertEqual(wl.check(ops, outputs), (len(ops), 1))


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs_except_for_the_scan(self):
        for name in ("bounds_queries", "graph_verify"):
            wl = small(name)
            self.assertEqual(repr(wl.inputs(1, 0)), repr(wl.inputs(1, 0)))
            self.assertNotEqual(repr(wl.inputs(1, 0)), repr(wl.inputs(2, 0)))
        wl = small("catalog_scan")
        self.assertEqual(wl.inputs(1, 0), wl.inputs(2, 0))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = Tracer()
        outer = tr.begin("outer")
        inner = tr.begin("inner")
        tr.finish(inner)
        tr.finish(outer)
        dur, own = tr.durations(), tr.self_times()
        self.assertEqual(tr.parent[inner], outer)
        self.assertAlmostEqual(own[outer], dur[outer] - dur[inner])

    def test_missing_hook_target_is_reported_not_zero(self):
        cab_module = importlib.import_module("srgbounds.cab")
        saved = cab_module.cap_min_over_b
        del cab_module.cap_min_over_b  # as if a refactor had removed it
        tr = Tracer()
        try:
            workloads.install_hooks(tr)
        finally:
            tr.uninstall()
            cab_module.cap_min_over_b = saved
        metrics, missing = layer_metrics(tr)
        self.assertNotIn("cab.cab_levels", metrics)
        self.assertIn("cab.cab_levels", missing)
        self.assertIn("cab.cab_s", metrics)

    def test_hooks_are_restored(self):
        from srgbounds.quadext import QuadExt

        cab_module = importlib.import_module("srgbounds.cab")  # the package rebinds .cab
        before = (cab_module.cap_min_over_b, QuadExt.__dict__["sqrt"])
        tr = Tracer()
        workloads.install_hooks(tr)
        self.assertIsNot(cab_module.cap_min_over_b, before[0])
        self.assertEqual(QuadExt.sqrt(8), QuadExt.make(0, 2, 2))
        tr.uninstall()
        self.assertEqual((cab_module.cap_min_over_b, QuadExt.__dict__["sqrt"]), before)
        self.assertEqual(len(tr), 1)


class Calibration(unittest.TestCase):
    def test_meter_samples_during_work_and_scales_by_speed(self):
        meter = Meter(interval_s=0.01)
        meter.start(0)
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
        meter.stop()
        samples = meter.samples[0]
        self.assertGreaterEqual(len(samples), 5)
        self.assertAlmostEqual(meter.stolen, sum(samples), delta=0.05)
        meter.raw[0] = 2.0
        self.assertAlmostEqual(meter.ref(0), 2.0 * speed(samples))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_a_pass_shorter_than_the_interval_still_gets_a_sample(self):
        meter = Meter(interval_s=10)
        meter.start(3)
        meter.stop()
        self.assertEqual(len(meter.samples[3]), 1)

    def test_traced_runs_take_no_samples(self):
        meter = Meter(interval_s=0)
        meter.start(0)
        meter.stop()
        self.assertEqual(meter.samples[0], [])


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_a_result_when_src_is_absent(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "bounds_queries",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Benchmark of srgbounds: one workload per run, in a fresh child interpreter.

    python3 perfbench/run.py --workload catalog_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

Run from the root of a checkout; the package is imported from ``src/``.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it, starting
with ``#``, carry figures that are not gated (per-operation latency,
failed_frac, repeat share, raw seconds) and metrics reported missing, with the
reason.  Times in the metrics are reference seconds (see calibrate.py).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog_scan", "bounds_queries", "graph_verify")

SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150

# Times the import in a fresh interpreter, with speed samples taken during it
# (see calibrate.py); prints reference seconds, raw seconds and the origin.
IMPORT_TIMER = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from calibrate import Meter
meter = Meter(interval_s=0.02)
meter.start(0)
t0 = time.perf_counter()
import srgbounds.cli
meter.raw[0] = time.perf_counter() - t0 - meter.stolen
meter.stop()
print(meter.ref(0), meter.raw[0], srgbounds.__file__)
"""


class BenchError(RuntimeError):
    pass


def _child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median import time of srgbounds.cli in fresh interpreters, in reference
    seconds and raw, after one warm-up import that fills the bytecode cache."""
    ref, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        ref_s, raw_s, origin = _child(["-c", IMPORT_TIMER], env).stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"srgbounds imported from {origin}, not from {SRC}")
        if i:
            ref.append(float(ref_s))
            raw.append(float(raw_s))
    return statistics.median(ref), statistics.median(raw)


def import_times(env: dict) -> tuple[float, float]:
    """(srgbounds.cli, numpy) cumulative import seconds from ``-X importtime``,
    medians over fresh interpreters.  numpy reads 0 when nothing imports it."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        err = _child(["-X", "importtime", "-c", "import srgbounds.cli"], env).stderr
        cum = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                if cumulative.strip().isdigit():
                    cum.setdefault(name.strip(), (int(cumulative), name))
        # top-level entries only: importing srgbounds.cli imports the package first
        cli_s.append(sum(us for key, (us, name) in cum.items()
                         if key in ("srgbounds", "srgbounds.cli") and name == " " + key) / 1e6)
        numpy_s.append(cum.get("numpy", (0, ""))[0] / 1e6)
    return statistics.median(cli_s), statistics.median(numpy_s)


def run_workload(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    args = [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans-out", str(HERE / "out" / f"spans-{workload}-seed{seed}.csv.gz")]
    proc = _child(args, env)
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: no result line from the workload process") from exc
    if trace:
        cli_s, numpy_s = import_times(env)
        result["metrics"]["cli.import_s"] = {"value": cli_s, "unit": "s"}
        result["metrics"]["catalog.numpy_import_s"] = {"value": numpy_s, "unit": "s"}
    else:
        setup_ref, setup_raw = setup_seconds(env)
        result["metrics"]["setup_s"] = {"value": setup_ref, "unit": "s"}
        result["info"]["raw_setup_s"] = setup_raw
    return result


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy,
            "cores": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "srgbounds" / "__init__.py").is_file():
        print(f"no srgbounds package under {SRC}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # one CPU for the workload, its calibration kernel and every child process,
    # so that the kernel samples the speed of the CPU the work runs on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"# not pinned to one CPU: {exc}", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, env) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for key, value in environment().items():
        print(f"# {key} = {value}")
    for w, res in results.items():
        for key, value in sorted(res.get("info", {}).items()):
            print(f"# {w} {key} = {value}")
        for key, reason in sorted(res.get("missing", {}).items()):
            print(f"# {w} {key} missing: {reason}")
        for key, m in sorted(res["metrics"].items()):
            print(f"# {w} {key} = {m['value']} {m['unit']}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

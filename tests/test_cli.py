import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srgbounds
from srgbounds.cab import cab, cap_min_over_b, cap_value, full_report
from srgbounds.catalog import SCAN_MAX_V, ScanConfig, enumerate_feasible
from srgbounds import cli
from srgbounds.cli import main
from srgbounds.graphio import GRAPH6_MAX_N, write_edge_list, write_graph6
from srgbounds.graphs import (
    MAX_CLIQUE_NODE_LIMIT, MAX_CLIQUE_VERTEX_LIMIT, PALEY_MAX_P, Graph, paley)
from srgbounds.srg import EdgeRegularParams, FeasibilityLevel, SrgParams

SRC = os.path.dirname(os.path.dirname(srgbounds.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the rows of tests/pins.txt, each split on whitespace: sha256 of stdout
# followed by stderr, stdout line count, exit code, tier and argv; a line
# whose first word starts with # is a comment
PINS_FILE = os.path.join(os.path.dirname(__file__), "pins.txt")
with open(PINS_FILE) as _f:
    PINS = [row for row in map(str.split, _f) if row and not row[0].startswith("#")]


def check_pin(pin, runner) -> bool:
    """Run one row of PINS through runner(argv) -> (exit code, stdout,
    stderr), print its argv, the outcome got and the one wanted, and return
    whether they match: the sha256 of stdout followed by stderr, the stdout
    line count and the exit code."""
    tier, argv = pin[3], pin[4:]
    code, out, err = runner(argv)
    lines = out.count("\n")
    got = f"{hashlib.sha256((out + err).encode()).hexdigest()} {lines} {code}"
    want = " ".join(pin[:3])
    print(tier, *argv)
    print("  got ", got)
    print("  want", want)
    if got != want:
        print("  MISMATCH")
    return got == want


def run_installed(argv):
    """Run the installed srgbounds entry point as a cold process, so that
    the modules a subcommand imports on demand resolve in the installed
    package.  stdin is /dev/null, and a call still running at 120 s reads
    as exit code "timeout"."""
    try:
        proc = subprocess.run(["srgbounds", *argv], stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=120)
    except subprocess.TimeoutExpired as e:
        return "timeout", (e.stdout or b"").decode(), (e.stderr or b"").decode()
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize("pin", [row for row in PINS if row[3:4] == ["1"]],
                         ids=lambda row: "-".join(w.strip("-/").replace("/", "-") for w in row[4:]))
def test_pinned_output(capsys, pin):
    # a tier-1 row, in process; CI runs every row through run_installed
    assert check_pin(pin, lambda argv: run(capsys, *argv))


def test_pin_table_is_well_formed():
    argvs = [" ".join(row[4:]) for row in PINS]
    assert len(set(argvs)) == len(argvs)
    for row in PINS:
        assert len(row) >= 5, row
        assert len(row[0]) == 64 and set(row[0]) <= set("0123456789abcdef"), row
        assert row[1].isdigit() and row[2].isdigit(), row
        assert row[3] in ("1", "ci"), row
    # CI runs every row through check_pin; a workflow that stops calling it
    # fails here
    with open(os.path.join(os.path.dirname(PINS_FILE), os.pardir, ".github", "workflows",
                           "tests.yml")) as f:
        assert "from test_cli import PINS, check_pin, run_installed" in f.read()


def bounds_json(p):
    """The answer of `bounds --json`, keys in order: a tuple's report, or for
    an edge-regular triple its CAB with no mu, Delsarte or predicate."""
    if isinstance(p, SrgParams):
        rep = full_report(p)
        c, wit = rep.cab, rep.cab_witness
        mu, delsarte, thm21, thm22, improved = (
            p.mu, rep.delsarte, rep.thm21, rep.thm22, rep.improved)
    else:
        c, wit = cab(p)
        mu, delsarte, thm21, thm22, improved = None, None, False, False, None
    return {
        "v": p.v,
        "k": p.k,
        "lambda": p.lam,
        "mu": mu,
        "cab": c,
        "cab_witness_b": wit.b,
        "cab_witness_y": wit.c_plus_1,
        "delsarte": delsarte,
        "trivial": p.lam + 2,
        "thm21": thm21,
        "thm22": thm22,
        "improved": improved,
    }


class TestBounds:
    def test_srg_tuple_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "378", "52", "1", "8")
        assert code == 0
        assert "cab             3" in out
        assert "delsarte        5" in out

    def test_srg_tuple_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "17,8,3,4", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["cab"] == 3 and d["delsarte"] == 4 and d["thm21"] is True
        assert d["improved"] == 3

    def test_edge_regular_tuple(self, capsys):
        code, out, _ = run(capsys, "bounds", "21", "8", "3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["cab"] == 4 and d["mu"] is None and d["delsarte"] is None

    def test_json_fields(self, capsys):
        rng = random.Random(19)
        triples = []
        for _ in range(200):
            v = rng.randint(3, 300)
            k = rng.randint(1, v - 2)
            triples.append(EdgeRegularParams(v, k, rng.randint(0, k - 1)))
        for p in [*enumerate_feasible(300), *triples]:
            code, out, _ = run(capsys, "bounds", *map(str, p), "--json")
            assert code == 0
            assert list(json.loads(out).items()) == list(bounds_json(p).items()), p

    @pytest.mark.parametrize("params, stdout", [
        ("17 8 3 4", '{"v": 17, "k": 8, "lambda": 3, "mu": 4, "cab": 3, '
                     '"cab_witness_b": 1, "cab_witness_y": 4, "delsarte": 4, '
                     '"trivial": 5, "thm21": true, "thm22": false, "improved": 3}\n'),
        ("21 8 3", '{"v": 21, "k": 8, "lambda": 3, "mu": null, "cab": 4, '
                   '"cab_witness_b": 1, "cab_witness_y": 5, "delsarte": null, '
                   '"trivial": 5, "thm21": false, "thm22": false, "improved": null}\n'),
        # the complement of the Schlafli graph: cab() decides it at none of
        # its steps 1 and 2, and the report at the Delsarte level, without cab()
        ("27 16 10 8", '{"v": 27, "k": 16, "lambda": 10, "mu": 8, "cab": 9, '
                       '"cab_witness_b": 4, "cab_witness_y": 10, "delsarte": 9, '
                       '"trivial": 12, "thm21": false, "thm22": false, "improved": null}\n'),
    ], ids=["srg", "edge-regular", "delsarte-level"])
    def test_json_stdout(self, capsys, params, stdout):
        assert run(capsys, "bounds", *params.split(), "--json") == (0, stdout, "")

    @pytest.mark.parametrize("params, message", [
        ("10 3 1 1", "error: counting identity fails: (v-k-1)mu=6 != k(k-lambda-1)=3"),
        ("7 3 0 2", "error: SrgParams(v=7, k=3, lam=0, mu=2) is neither conference"
                    " nor has integer eigenvalues"),
        # edge-regular triples are validated by cab itself
        ("21 21 3", "error: k=21 out of range for v=21"),
        ("21 8 8", "error: lambda=8 out of range for k=8"),
    ], ids=["srg", "srg-spectrum", "edge-regular-k", "edge-regular-lambda"])
    def test_infeasible_tuple_is_usage_error(self, capsys, params, message):
        code, out, err = run(capsys, "bounds", *params.split())
        assert code == 2
        assert out == ""
        assert err.splitlines() == [message]

    def test_garbage_params(self, capsys):
        code, _, err = run(capsys, "bounds", "not-a-number")
        assert code == 2

    @pytest.mark.parametrize("params", [["17,8,,4"], [",17,8,3,4,"], ["17", "8,,3", "4"]])
    def test_empty_comma_field_is_usage_error(self, capsys, params):
        # not read as the edge-regular triple (17, 8, 4) or as (17, 8, 3, 4)
        code, out, err = run(capsys, "bounds", *params)
        assert (code, out) == (2, "")
        assert err.startswith("error: empty comma-separated field in ")

    @pytest.mark.parametrize("params, message", [
        (["17", "8", "3"] + ["4"] * 50000,
         "error: expected 3 or 4 integers, got '17 8 3 4 4 4 4 4 4 4'..."),
        (["17,8,,4"] * 50000, "error: empty comma-separated field in '17,8,,4 17,8,,4 17,8'..."),
        (["1", "2"], "error: expected 3 or 4 integers, got '1 2'"),
        (["17,8,,4"], "error: empty comma-separated field in '17,8,,4'"),
    ], ids=["many-fields", "many-empty-fields", "two-fields", "empty-field"])
    def test_params_message_is_bounded(self, capsys, params, message):
        # the arguments are quoted up to their first 20 characters
        code, out, err = run(capsys, "bounds", *params)
        assert (code, out) == (2, "")
        assert err == message + "\n"
        assert len(err) < 200, len(err)

    def test_empty_argv_entries_are_blanks(self, capsys):
        assert run(capsys, "bounds", "17", "", "8", "3", "4", "--json") == \
            run(capsys, "bounds", "17", "8", "3", "4", "--json")

    def test_usage_error_then_valid_call_matches_fresh_process(self, capsys):
        # an argparse exit leaves nothing behind for the next in-process call
        with pytest.raises(SystemExit) as exc:
            main(["bounds"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        code, out, _ = run(capsys, "bounds", "17", "8", "3", "4", "--json")
        assert code == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "srgbounds.cli", "bounds", "17", "8", "3", "4", "--json"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC})
        assert fresh.returncode == 0
        assert out == fresh.stdout

    def test_fifteen_digit_conference_tuple_within_budget(self):
        # the CAB level is 10^7: a level-by-level walk takes seconds
        argv = ["bounds", "100000000000037", "50000000000018", "25000000000008",
                "25000000000009", "--json"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "v": 100000000000037, "k": 50000000000018, "lambda": 25000000000008,
            "mu": 25000000000009, "cab": 9999999, "cab_witness_b": 4999999,
            "cab_witness_y": 10000000, "delsarte": 10000000,
            "trivial": 25000000000010, "thm21": True, "thm22": False,
            "improved": 9999999,
        }
        assert elapsed < 1, f"bounds took {elapsed:.2f} s"

    def test_twenty_digit_conference_tuple_within_budget(self):
        # v = 4000000000^2 + 3^2 = 1 (mod 4), a sum of two squares
        v = 16000000000000000009
        p = SrgParams(v, (v - 1) // 2, (v - 5) // 4, (v - 1) // 4)
        start = time.perf_counter()
        rep = full_report(p)
        elapsed = time.perf_counter() - start
        assert (rep.cab, rep.delsarte, rep.improved) == (3999999999, 4000000000, 3999999999)
        assert rep.cab_witness.c_plus_1 == 4000000000
        assert elapsed < 0.05, f"full_report took {elapsed * 1e3:.1f} ms"

    @pytest.mark.parametrize("params, text, stdout", [
        ("10 4 3 0",
         "parameters      (10,4,3,0)  type II\n"
         "cab             5  (witness C(-2,6) = -46)\n"
         "delsarte        5  (degenerate: disconnected)\n"
         "trivial         5\n"
         "thm21/thm22     False/False\n"
         "thm51 predicate True\n",
         '{"v": 10, "k": 4, "lambda": 3, "mu": 0, "cab": 5, "cab_witness_b": -2, '
         '"cab_witness_y": 6, "delsarte": 5, "trivial": 5, "thm21": false, '
         '"thm22": false, "improved": null}\n'),
        ("12 8 4 8",
         "parameters      (12,8,4,8)  type II\n"
         "cab             3  (witness C(2,4) = -8)\n"
         "delsarte        3\n"
         "trivial         6\n"
         "thm21/thm22     False/False\n"
         "thm51 predicate False\n",
         '{"v": 12, "k": 8, "lambda": 4, "mu": 8, "cab": 3, "cab_witness_b": 2, '
         '"cab_witness_y": 4, "delsarte": 3, "trivial": 6, "thm21": false, '
         '"thm22": false, "improved": null}\n'),
    ], ids=["2xK5", "K3x4"])
    def test_family_tuple_prints_its_witness(self, capsys, params, text, stdout):
        # the scan's family rows carry no witness; bounds still prints one
        assert run(capsys, "bounds", *params.split()) == (0, text, "")
        assert run(capsys, "bounds", *params.split(), "--json") == (0, stdout, "")

    def test_thm51_family_d_within_budget(self):
        # family D at t = 10^4, (r, a, mu) = (t^2+t-1, t+1, 1): thm51 holds,
        # and a walk over its 10^8 levels did not finish
        argv = ["bounds", "1000300020001000200000001", "1000200000000", "99999999", "1",
                "--json"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            '{"v": 1000300020001000200000001, "k": 1000200000000, "lambda": 99999999, '
            '"mu": 1, "cab": 100000001, "cab_witness_b": 0, "cab_witness_y": 100000002, '
            '"delsarte": 100010000, "trivial": 100000001, "thm21": false, "thm22": true, '
            '"improved": 100009999}\n')
        assert elapsed < 2, f"bounds took {elapsed:.2f} s"

    def test_edge_regular_family_d_within_budget(self):
        # the same tuple without mu: cab() decides it from C(1, lam+2) >= 0
        # alone, where its walk over the 10^8 levels did not finish
        v, k, lam = 1000300020001000200000001, 1000200000000, 99999999
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", "bounds",
                               str(v), str(k), str(lam), "--json"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        out = proc.stdout
        assert out == (
            '{"v": 1000300020001000200000001, "k": 1000200000000, "lambda": 99999999, '
            '"mu": null, "cab": 100000001, "cab_witness_b": 0, "cab_witness_y": 100000002, '
            '"delsarte": null, "trivial": 100000001, "thm21": false, "thm22": false, '
            '"improved": null}\n')
        assert elapsed < 2, f"bounds took {elapsed:.2f} s"
        # the witness, in integers: level lam+3 is negative at b, and no b
        # makes level lam+2 negative
        rep = json.loads(out)
        b, y = rep["cab_witness_b"], rep["cab_witness_y"]
        assert (rep["cab"], y) == (lam + 2, lam + 3)
        assert cap_value(v, k, lam, b, y) < 0
        assert cap_min_over_b(v, k, lam, lam + 2)[1] >= 0

    def test_multipartite_at_m_10_12_within_budget(self):
        # K_{m x 2} at m = 10^12: cab() decides it at its complete-multipartite
        # step, in one level, where a walk would visit about m levels
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", "bounds", "2000000000000",
                               "1999999999998", "1999999999996", "--json"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            '{"v": 2000000000000, "k": 1999999999998, "lambda": 1999999999996, '
            '"mu": null, "cab": 1000000000000, "cab_witness_b": 999999999999, '
            '"cab_witness_y": 1000000000001, "delsarte": null, "trivial": 1999999999998, '
            '"thm21": false, "thm22": false, "improved": null}\n')
        assert elapsed < 2, f"bounds took {elapsed:.2f} s"

    def test_degenerate_tuple_text(self, capsys):
        # 2*K_5: Delsarte is flagged degenerate, and a disconnected tuple has
        # no complement Hoffman bound
        code, out, _ = run(capsys, "bounds", "10", "4", "3", "0")
        assert code == 0
        lines = out.splitlines()
        assert "delsarte        5  (degenerate: disconnected)" in lines
        assert not any(line.startswith("hoffman (comp)") for line in lines)

    @pytest.mark.parametrize("target, argv", [
        ("srgbounds.cli.full_report", ["bounds", "17", "8", "3", "4"]),
        # the scan relies on full_report's assertion, not a check of its own
        ("srgbounds.catalog.full_report", ["scan", "--max-v", "60"]),
    ], ids=["bounds", "scan"])
    def test_invariant_violation_exits_1(self, capsys, monkeypatch, target, argv):
        def broken(p):
            raise AssertionError(f"cab 9 exceeds Delsarte bound for {p}")

        monkeypatch.setattr(target, broken)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("invariant violation: cab 9 exceeds Delsarte bound")
        assert "Traceback" not in err


class TestScan:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-v", "60", "--filter", "gap",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("v,k,lambda,mu")
        assert len(lines) == 5  # header + 4 gap rows below v=60
        assert lines[1].startswith("17,8,3,4,I,3,4,1,")

    def test_json_output_parses(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-v", "40", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["v"] == 5

    def test_stats_to_stderr(self, capsys):
        code, out, err = run(capsys, "scan", "--max-v", "60", "--stats")
        assert code == 0
        assert "type-I tuples" in err
        assert "type-I tuples" not in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "--max-v", "40", "--format", "csv",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("v,k,lambda,mu")

    def test_unwritable_out_fails_before_the_scan(self, capsys, tmp_path, monkeypatch):
        # --out is opened before the scan runs, so a bad path costs no scan
        from srgbounds import catalog

        calls = []
        monkeypatch.setattr(catalog, "scan_compare", lambda cfg: calls.append(cfg))
        target = tmp_path / "missing" / "scan.csv"
        with pytest.raises(OSError) as exc:
            open(target, "w")
        assert run(capsys, "scan", "--max-v", "40", "--out", str(target)) == (
            2, "", f"error: {exc.value}\n")
        assert calls == []

    def test_failed_scan_keeps_an_existing_out_file(self, capsys, tmp_path, monkeypatch):
        # --out is emptied only once the output is ready
        from srgbounds import catalog

        def fails(p):
            raise AssertionError("report failed")

        monkeypatch.setattr(catalog, "full_report", fails)
        target = tmp_path / "scan.csv"
        target.write_bytes(b"x\n")
        assert run(capsys, "scan", "--max-v", "40", "--out", str(target)) == (
            1, "", "invariant violation: report failed\n")
        assert target.read_bytes() == b"x\n"
        monkeypatch.undo()
        assert run(capsys, "scan", "--max-v", "40", "--format", "csv",
                   "--out", str(target))[0] == 0
        assert target.read_text() == catalog.emit(
            catalog.scan_compare(ScanConfig(v_max=40))[0], "csv")
        # a device has nothing to empty
        assert run(capsys, "scan", "--max-v", "40", "--out", os.devnull) == (0, "", "")

    def test_level_option(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-v", "30", "--level", "counting",
                           "--format", "csv")
        assert code == 0
        code2, out2, _ = run(capsys, "scan", "--max-v", "30", "--level", "absolute",
                             "--format", "csv")
        assert len(out.splitlines()) >= len(out2.splitlines())

    @pytest.mark.parametrize("command", [["scan"], ["conjecture"], ["scan", "--level", "counting"]],
                             ids=["scan", "conjecture", "counting"])
    def test_max_v_over_limit_is_rejected_fast(self, command):
        # without the limit enumeration sorts about v log v candidates first;
        # every level shares it
        assert SCAN_MAX_V >= 10000
        for max_v in (SCAN_MAX_V + 1, 1000000000):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", *command,
                                   "--max-v", str(max_v)],
                                  capture_output=True, text=True, timeout=30,
                                  env={**os.environ, "PYTHONPATH": SRC})
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == f"error: v_max={max_v} exceeds limit {SCAN_MAX_V}\n"
            assert time.perf_counter() - start < 5

    def test_max_v_at_limit_is_accepted(self):
        for level in FeasibilityLevel:
            ScanConfig(v_max=SCAN_MAX_V, level=level)
            with pytest.raises(ValueError) as exc:
                ScanConfig(v_max=SCAN_MAX_V + 1, level=level)
            assert str(exc.value) == f"v_max={SCAN_MAX_V + 1} exceeds limit {SCAN_MAX_V}"

    def test_counting_limit(self):
        # COUNTING has no limit of its own: it accepts what INTEGRALITY accepts
        # (701 was the first v_max over its former limit) and stops at SCAN_MAX_V
        for v_max in (701, SCAN_MAX_V):
            ScanConfig(v_max=v_max, level=FeasibilityLevel.COUNTING)
            ScanConfig(v_max=v_max, level=FeasibilityLevel.INTEGRALITY)
        with pytest.raises(ValueError) as exc:
            ScanConfig(v_max=SCAN_MAX_V + 1, level=FeasibilityLevel.COUNTING)
        assert str(exc.value) == f"v_max={SCAN_MAX_V + 1} exceeds limit {SCAN_MAX_V}"

    def test_counting_scan_is_fast(self):
        # the counting scan enumerates only the tuples with a spectrum, like
        # every other level
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", "scan", "--level",
                               "counting", "--max-v", "1000", "--format", "csv"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 13660
        assert time.perf_counter() - start < 5


def test_import_leaves_numpy_out():
    code = "import sys, srgbounds.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0


class TestVerifyIdentities:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify-identities")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8
        assert all(line.endswith("PASS") for line in lines)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 8
        assert all(d["status"] == "PASS" for d in data)
        assert {d["parameterization"] for d in data} == {"general-srg", "type-i", "raw"}

    def test_false_identity_fails(self, capsys, monkeypatch):
        from srgbounds import identities

        good = identities.CASES[-1]
        bad = identities.IdentityCase(
            name="off-by-one", parameterization="raw", lhs=good.lhs,
            rhs=lambda sym: good.rhs(sym) + 1, clearing=(),
        )
        monkeypatch.setattr(identities, "CASES", (good, bad))
        code, out, _ = run(capsys, "verify-identities")
        assert code == 1
        assert out.splitlines() == [
            "level-monotonicity                   raw          deg  3  PASS",
            "off-by-one                           raw          deg  3  FAIL",
        ]


class TestGraphCommands:
    def test_paley(self, capsys):
        code, out, _ = run(capsys, "paley", "17", "--clique")
        assert code == 0
        assert "strongly regular (17,8,3,4)" in out
        assert "clique number 3" in out

    def test_paley_241_clique_within_budget(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "paley", "241", "--clique")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == ("paley(241): 241 vertices, 14460 edges\n"
                       "strongly regular (241,120,59,60)\n"
                       "clique number 7  witness [0, 1, 236, 237, 238, 239, 240]\n")
        assert elapsed < 10, f"paley 241 --clique took {elapsed:.1f} s"

    def test_paley_bad_input(self, capsys):
        code, _, err = run(capsys, "paley", "8")
        assert code == 2

    def test_paley_over_limit(self, capsys):
        # 4097 = 17 * 241: the size limit is reported before primality
        assert 1000 <= PALEY_MAX_P < 4097
        code, out, err = run(capsys, "paley", "4097")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: p=4097 exceeds limit {PALEY_MAX_P}")

    def test_paley_huge_prime_candidate_is_rejected_fast(self):
        # a 30-digit prime p = 1 (mod 4): trial division alone would take
        # years, and its bitset rows p^2/8 bytes
        p = "100000000000000000000000000481"
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", "paley", p],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: p={p} exceeds limit {PALEY_MAX_P}")

    def test_maxclique_file(self, capsys, tmp_path):
        f = tmp_path / "k4.txt"
        f.write_text("4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "maxclique", str(f))
        assert code == 0
        assert "omega=4" in out
        assert "witness 0 1 2 3" in out

    def test_maxclique_file_with_leading_comment(self, capsys, tmp_path):
        f = tmp_path / "k4-commented.txt"
        f.write_text("# K4, written by hand\n\n4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, err = run(capsys, "maxclique", str(f))
        assert (code, err) == (0, "")
        assert out == "n=4 m=6 omega=4\nwitness 0 1 2 3\n"

    def test_maxclique_signed_count_file(self, capsys, tmp_path):
        # a "+" first is a signed vertex count, not a graph6 character
        f = tmp_path / "k2-signed.txt"
        f.write_text("+3\n0 1\n")
        code, out, err = run(capsys, "maxclique", str(f))
        assert (code, err) == (0, "")
        assert out == "n=3 m=1 omega=2\nwitness 0 1\n"

    def test_maxclique_graph6_file(self, capsys, tmp_path):
        f = tmp_path / "k3.g6"
        f.write_text("Bw\n")
        code, out, _ = run(capsys, "maxclique", str(f))
        assert code == 0
        assert "omega=3" in out

    def test_maxclique_long_form_graph6_file(self, capsys, tmp_path):
        f = tmp_path / "paley101.g6"
        f.write_text(write_graph6(paley(101)) + "\n")
        code, out, _ = run(capsys, "maxclique", str(f))
        assert code == 0
        assert out == "n=101 m=2525 omega=5\nwitness 0 1 80 96 97\n"

    def test_maxclique_over_vertex_limit(self, capsys, tmp_path):
        f = tmp_path / "empty513.g6"
        f.write_text(write_graph6(Graph(MAX_CLIQUE_VERTEX_LIMIT + 1)) + "\n")
        code, out, err = run(capsys, "maxclique", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: n=513 exceeds limit 512")

    def test_maxclique_dense_graph_exits_2_on_node_budget(self, tmp_path):
        # G(200, 0.9) from random.Random(1) takes minutes to search in full
        rng = random.Random(1)
        g = Graph(200, [(u, v) for u in range(200) for v in range(u + 1, 200)
                        if rng.random() < 0.9])
        f = tmp_path / "gnp200-dense.txt"
        f.write_text(write_edge_list(g))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", "maxclique", str(f)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            f"error: clique search exceeds its budget of {MAX_CLIQUE_NODE_LIMIT} nodes;"
            " best clique so far has 35 vertices (omega >= 35): ")
        assert elapsed < 2.0, elapsed

    def test_maxclique_junk_file_message_is_bounded(self, capsys, tmp_path):
        # the message names the bad character and quotes only a prefix
        f = tmp_path / "junk.txt"
        f.write_text("not a graph " * 87382)
        assert f.stat().st_size >= 10**6
        code, out, err = run(capsys, "maxclique", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid graph6 character ' ' at offset 3:")
        assert len(err) < 200, len(err)

    @pytest.mark.parametrize("text, message", [
        ("4\n0 1\n" + "0 1 " * 150000 + "\n", "error: bad edge line '0 1 0 1 0 1 0 1 0 1 '..."),
        ("1 " * 300000 + "\n0 1\n", "error: bad vertex count line '1 1 1 1 1 1 1 1 1 1 '..."),
    ], ids=["edge", "count"])
    def test_maxclique_long_line_message_is_bounded(self, capsys, tmp_path, text, message):
        # the line is quoted up to its first 20 characters
        f = tmp_path / "long.txt"
        f.write_text(text)
        assert f.stat().st_size >= 600000
        code, out, err = run(capsys, "maxclique", str(f))
        assert (code, out) == (2, "")
        assert err == message + "\n"
        assert len(err) < 200, len(err)

    def test_maxclique_missing_file(self, capsys):
        code, _, err = run(capsys, "maxclique", "/nonexistent/file")
        assert code == 2

    @pytest.mark.parametrize("n", [GRAPH6_MAX_N + 1, 10**13])
    def test_maxclique_huge_count_exits_2(self, capsys, tmp_path, n):
        # rejected before a row is allocated, not by a MemoryError
        f = tmp_path / "huge.txt"
        f.write_text(f"{n}\n0 1\n")
        code, out, err = run(capsys, "maxclique", str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: edge list with n={n} > {GRAPH6_MAX_N} is unsupported\n"

    def test_maxclique_refuses_wide_edge_list_before_rows(self, capsys, tmp_path):
        # 2000 edges to the last vertex would make 2000 rows of 258047 bits
        # (67 MiB) if the rows were built before the vertex limit is checked
        f = tmp_path / "wide.txt"
        f.write_text(f"{GRAPH6_MAX_N}\n" + "".join(f"{u} {GRAPH6_MAX_N - 1}\n" for u in range(2000)))
        assert f.stat().st_size == 22897
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "maxclique", str(f))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: n={GRAPH6_MAX_N} exceeds limit {MAX_CLIQUE_VERTEX_LIMIT}\n"
        assert elapsed < 1.0, elapsed
        assert peak < 4 * 2**20, peak

    def test_delta3(self, capsys):
        code, out, _ = run(capsys, "delta3")
        assert code == 0
        assert out == (
            "distance-3 graph of the Heawood line graph: (21,8,3)\n"
            "strongly regular: no\n"
            "cab       4  (witness C(1,5) = -8)\n"
            "delsarte  3  (least eigenvalue -sqrt(8))\n"
            "hoffman   5  (complement least eigenvalue -1-sqrt(8))\n"
            "omega     3\n"
        )


class TestConjecture:
    def test_empty(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--max-v", "60")
        assert code == 0
        assert "no counterexamples" in out

    def test_hits_up_to_3000(self, capsys):
        # empty for v <= 2184 only
        code, out, _ = run(capsys, "conjecture", "--max-v", "3000")
        assert code == 0
        assert out.splitlines() == [
            "13 counterexample candidate(s):",
            "  (2185,264,23,33)",
            "  (2205,290,25,40)",
            "  (2376,275,22,33)",
            "  (2491,384,32,64)",
            "  (2574,248,22,24)",
            "  (2584,315,26,40)",
            "  (2598,392,31,64)",
            "  (2646,345,24,48)",
            "  (2704,424,36,72)",
            "  (2809,432,35,72)",
            "  (2829,378,27,54)",
            "  (2883,262,21,24)",
            "  (2916,440,34,72)",
        ]


class TestNumbersAsTyped:
    """Every number on the command line and in an edge list is ASCII digits
    with an optional sign: int() alone would read "1_7" and "١٧" as 17."""

    _WANT = "invalid integer {}: expected ASCII digits with an optional sign"

    @pytest.mark.parametrize("token", ["1_7", "\u0661\u0667", "\uff11\uff17"])
    def test_bounds(self, token):
        assert _outcome(main, ["bounds", token, "8", "3", "4", "--json"]) == (
            2, "", f"error: {self._WANT.format(repr(token))}\n")
        assert _outcome(main, ["bounds", f"{token},8,3,4"]) == (
            2, "", f"error: {self._WANT.format(repr(token))}\n")

    @pytest.mark.parametrize("argv", [
        ["scan", "--max-v", "1_0"],
        ["scan", "--max-v", "\u0661\u0660"],
        ["scan", "--max-v", " 10"],
        ["conjecture", "--max-v", "1_00"],
        ["paley", "1_3"],
        ["paley", "\u0661\u0663", "--clique"],
    ], ids=["scan", "scan-arabic", "scan-blank", "conjecture", "paley", "paley-arabic"])
    def test_argparse_types(self, argv):
        code, out, err = _outcome(main, argv)
        token = argv[2] if argv[0] != "paley" else argv[1]
        argument = "p" if argv[0] == "paley" else "--max-v"
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (f"srgbounds {argv[0]}: error: argument {argument}: "
                                        + self._WANT.format(repr(token)))

    @pytest.mark.parametrize("text, token", [
        ("3\n0 \u0662\n", "\u0662"),
        ("3\n0 1\n1_0 2\n", "1_0"),
        ("3\n0 1\n0 +2\n", None),
    ], ids=["arabic", "underscore", "sign"])
    def test_edge_list_tokens(self, capsys, tmp_path, text, token):
        f = tmp_path / "g.txt"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "maxclique", str(f))
        if token is None:
            assert (code, err) == (0, "") and out.startswith("n=3 m=2 omega=2")
        else:
            assert (code, out, err) == (2, "", f"error: {self._WANT.format(repr(token))}\n")

    def test_edge_list_count_line(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("\u0663\n0 1\n", encoding="utf-8")
        assert run(capsys, "maxclique", str(f)) == (
            2, "", "error: bad vertex count line '\u0663'\n")


def _outcome(parse, argv):
    """Exit code (or return value), stdout and stderr of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# for every subcommand: -h, a missing required argument, an unknown option
# and bad values; then the argv that the full parser serves; then valid and
# invalid argv whose parse could tell a subcommand's own parser from the
# full one: abbreviations, "--", -h after positionals, "=" values, repeats,
# negative numbers and empty strings
PARSER_CASES = [
    ["bounds", "-h"], ["bounds"], ["bounds", "17", "8", "3", "4", "--bogus"],
    ["bounds", "--json=1", "17"],
    ["scan", "-h"], ["scan"], ["scan", "--max-v", "10", "--bogus"],
    ["scan", "--max-v", "10", "--format", "xml"], ["scan", "--max-v", "10", "--level", "bogus"],
    ["scan", "--max-v", "ten"],
    ["verify-identities", "-h"], ["verify-identities", "--bogus"],
    ["paley", "-h"], ["paley"], ["paley", "13", "--bogus"], ["paley", "x"],
    ["maxclique", "-h"], ["maxclique"], ["maxclique", "g.txt", "--bogus"],
    ["delta3", "-h"], ["delta3", "--bogus"],
    ["conjecture", "-h"], ["conjecture"], ["conjecture", "--max-v", "10", "--bogus"],
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "--max-v", "10"],
    ["bounds", "17", "8", "3", "4", "--js"], ["bounds", "17", "8", "3", "4", "--he"],
    ["scan", "--max", "60"], ["scan", "--max-v", "60", "--f", "csv"],
    ["scan", "--max-v", "60", "--form", "csv", "--lev", "krein", "--pai", "--st"],
    ["bounds", "--", "17", "8", "3", "4"], ["bounds", "17", "8", "--", "3", "4", "--json"],
    ["bounds", "17", "8", "3", "4", "--", "--bogus"], ["maxclique", "--", "-g.txt"],
    ["scan", "--max-v", "60", "--"], ["delta3", "--"], ["delta3", "--", "x"],
    ["bounds", "17", "8", "3", "4", "-h"], ["paley", "13", "-h"],
    ["scan", "--max-v", "60", "--help"], ["bounds", "17", "--json", "-h", "--bogus"],
    ["scan", "--max-v=60"], ["conjecture", "--max-v=60"], ["scan", "--max-v=", "60"],
    ["scan", "--max-v", "10", "--max-v", "60", "--format", "json", "--format", "csv"],
    ["bounds", "17", "8", "3", "4", "--json", "--json"], ["paley", "13", "17"],
    ["bounds", "-17", "8", "3", "4"], ["paley", "-7"], ["scan", "--max-v", "-60"],
    ["bounds", "17", "8", "3", "4", "-5"], ["conjecture", "--max-v", "-1"],
    ["bounds", ""], ["bounds", "17", "", "3"], ["maxclique", ""], ["paley", ""],
    ["scan", "--max-v", "60", "--out", ""], ["delta3", ""], ["", "bounds"],
    ["bounds", "-x"], ["scan", "-m", "60"], ["verify-identities", "--json", "-j"],
]


class TestParser:
    """main builds one ArgumentParser, the subcommand's own; the full
    _build_parser() stays the oracle for every Namespace, help text, usage
    error and exit code."""

    @pytest.fixture
    def handlers(self, monkeypatch):
        """Each handler replaced by a function of its own that returns its
        Namespace, so main returns what it parsed."""
        for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
            monkeypatch.setattr(cli, name, lambda args: args)

    def test_cases_cover_every_subcommand(self):
        assert [name for name in cli._SUBCOMMANDS
                if not any(argv[:1] == [name] for argv in PARSER_CASES)] == []

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
    def test_matches_full_parser(self, monkeypatch, handlers, columns, argv):
        # argparse wraps usage and help at the terminal width, read from COLUMNS
        monkeypatch.setenv("COLUMNS", columns)
        want = _outcome(cli._build_parser().parse_args, argv)
        if isinstance(want[0], argparse.Namespace):
            # a valid argv: main returns the Namespace its handler was given
            assert want[0].command == argv[0]
        else:
            assert want[0] in (0, 2)
        assert _outcome(main, argv) == want

    def test_a_subcommand_builds_only_its_subparser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
        full = ["srgbounds", *(f"srgbounds {name}" for name in cli._SUBCOMMANDS)]
        assert run(capsys, "bounds", "17", "8", "3", "4")[0] == 0
        assert built == ["srgbounds bounds"]
        # an unknown option is reported by the full parser, whose usage lists
        # every command
        built.clear()
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(main, ["bounds", "17", "8", "3", "4", "--bogus"]) == (2, "", (
            "usage: srgbounds [-h]\n"
            "                 {bounds,scan,verify-identities,paley,maxclique,delta3,conjecture}\n"
            "                 ...\n"
            "srgbounds: error: unrecognized arguments: --bogus\n"))
        assert built == ["srgbounds bounds", *full]
        built.clear()
        assert _outcome(main, ["--help"])[0] == 0
        assert built == full

    @pytest.mark.parametrize("target, argv", [
        ("srgbounds.cli.full_report", ["bounds", "17", "8", "3", "4"]),
        ("srgbounds.catalog.scan_compare", ["scan", "--max-v", "60"]),
    ], ids=["bounds", "scan"])
    def test_ctrl_c_exits_130_without_traceback(self, capsys, monkeypatch, target, argv):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(target, interrupted)
        code, out, err = run(capsys, *argv)
        assert code == 130
        assert "Traceback" not in err
        assert (out, err) == ("", "interrupted\n")


def _lines(line):
    return st.lists(line, max_size=8).map(lambda ls: "\n".join(ls) + "\n")


_COUNT = st.one_of(
    st.integers(-5, 70).map(str),
    st.integers(GRAPH6_MAX_N - 2, 10**40).map(str),
    st.integers(-(10**40), -1).map(str),
    st.sampled_from(["x", "3.0", "1e9", "--4", "0x10", "# n", "", "7 7"]),
)
_EDGE_LINE = st.one_of(
    st.tuples(st.integers(-3, 80), st.integers(-3, 80)).map(lambda e: f"{e[0]} {e[1]}"),
    st.integers(0, 80).map(lambda u: f"{u} {u}"),
    st.integers(0, 80).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)).map(
        lambda e: " ".join(map(str, e))),
    st.sampled_from(["# comment", "", "   ", "a b", "1 b", "0 1 # c", "1,2"]),
)
EDGE_LISTS = st.tuples(_COUNT, _lines(_EDGE_LINE)).map(lambda t: t[0] + "\n" + t[1])

_G6_CHAR = st.integers(63, 126).map(chr)
GRAPH6 = st.one_of(
    # bad characters anywhere
    st.text(st.characters(min_codepoint=1, max_codepoint=300), min_size=1, max_size=20),
    # short header with a body of the wrong (or right) length
    st.tuples(st.integers(63, 125).map(chr), st.text(_G6_CHAR, max_size=12)).map("".join),
    # long header, truncated or with a short body
    st.tuples(st.sampled_from(["~", "~~"]), st.text(_G6_CHAR, max_size=12)).map("".join),
)


class TestGraphFileFuzz:
    """`maxclique` on malformed graph files: a fast answer or exit code 2
    with a message, never a traceback."""

    @staticmethod
    def _maxclique(path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["maxclique", str(path)])
        elapsed = time.perf_counter() - start
        assert code in (0, 2), (text, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue().startswith("n=") and err.getvalue() == ""
        else:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert elapsed < 1.0, (text, elapsed)

    @settings(max_examples=300, deadline=None)
    @given(text=EDGE_LISTS)
    def test_edge_lists(self, tmp_path_factory, text):
        self._maxclique(tmp_path_factory.getbasetemp() / "fuzz.txt", text)

    @settings(max_examples=300, deadline=None)
    @given(text=GRAPH6)
    def test_graph6(self, tmp_path_factory, text):
        self._maxclique(tmp_path_factory.getbasetemp() / "fuzz.g6", text)


# argv tokens for the fuzz below.  A non-integer token is one word that the
# CLI rejects, so it never splits into pieces or vanishes from a tuple: it holds
# no comma and no whitespace, and it does not start with "--", which argparse
# would read as the end of the options or as a prefix of --json.
_SMALL = st.integers(-10, 10 ** 6).map(str)
_HUGE = st.integers(10 ** 29, 10 ** 30 - 1).map(str)
# int() reads these as numbers, the CLI does not: digit-group underscores and
# the decimal digits of other scripts (Arabic-Indic, Devanagari, fullwidth)
_LOOKALIKE = st.one_of(
    st.integers(10, 10 ** 6).map(lambda n: f"{n // 10}_{n % 10}"),
    st.tuples(st.integers(0, 10 ** 6), st.sampled_from([0x660, 0x966, 0xFF10])).map(
        lambda t: "".join(chr(t[1] + int(d)) for d in str(t[0]))),
)
_NON_INT = st.one_of(
    _LOOKALIKE,
    st.sampled_from(["1.5", "5.0", "x", "1e3", "0x11", "nan", "-inf", "1/2", "-"]),
    st.floats().map(repr),
    st.text(st.characters(whitelist_categories=("L", "P", "S")), min_size=1, max_size=4)
    .filter(lambda t: "," not in t and not t.startswith("--")),
)
_TOKEN = st.one_of(_SMALL, _HUGE, _NON_INT)
_MAX_V = st.one_of(st.integers(-10, 60).map(str),
                   st.integers(SCAN_MAX_V + 1, 10 ** 30 - 1).map(str), _NON_INT)


def _comma_forms(tokens):
    """The tokens as given, joined by commas into one word, or split in two."""
    return st.sampled_from([
        list(tokens), [",".join(tokens)], [",".join(tokens[:2]), *tokens[2:]]])


class TestArgvFuzz:
    """`main` on fuzzed argv: exit 0, or 2 with a message (argparse's
    SystemExit(2) included), never a traceback, and fast.  Edge-regular
    triples keep small entries: a triple with huge entries can still walk
    the CAB levels for a long time (ROADMAP item 2)."""

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        elapsed = time.perf_counter() - start
        assert code in (0, 2), (argv, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
        if code == 2:
            assert "error: " in err.getvalue(), argv
        assert elapsed < 2.0, (argv, elapsed)

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(_TOKEN, min_size=4, max_size=4).flatmap(_comma_forms),
           json_flag=st.booleans())
    def test_bounds_tuples(self, words, json_flag):
        self._main(["bounds", *words, *(["--json"] if json_flag else [])])

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.integers(-10, 10 ** 4).map(str), min_size=3, max_size=3)
           .flatmap(_comma_forms))
    def test_bounds_triples(self, words):
        self._main(["bounds", *words])

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["scan", "conjecture"]), max_v=_MAX_V,
           extra=st.sampled_from([[], ["--format", "csv"], ["--stats"], ["--pairs"],
                                  ["--level", "counting"], ["--filter", "gap"]]))
    def test_scan_and_conjecture(self, command, max_v, extra):
        self._main([command, "--max-v", max_v, *(extra if command == "scan" else [])])

    @settings(max_examples=100, deadline=None)
    @given(token=_LOOKALIKE, place=st.sampled_from(["bounds", "scan", "conjecture", "paley"]))
    def test_digit_lookalikes_are_usage_errors(self, token, place):
        argv = {"bounds": ["bounds", "17", token, "3", "4"],
                "scan": ["scan", "--max-v", token],
                "conjecture": ["conjecture", "--max-v", token],
                "paley": ["paley", token]}[place]
        want = ("error: invalid integer" if place == "bounds" else
                f"error: argument {'p' if place == 'paley' else '--max-v'}: invalid integer")
        code, out, err = _outcome(main, argv)
        assert (code, out) == (2, ""), argv
        assert want in err, err

    @settings(max_examples=150, deadline=None)
    @given(p=st.one_of(st.integers(-10, 300).map(str),
                       st.integers(PALEY_MAX_P + 1, 10 ** 30 - 1).map(str), _NON_INT),
           clique=st.booleans())
    def test_paley(self, p, clique):
        self._main(["paley", p, *(["--clique"] if clique else [])])

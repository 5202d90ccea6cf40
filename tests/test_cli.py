import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import srgbounds
from srgbounds.cli import main
from srgbounds.graphio import write_graph6
from srgbounds.graphs import MAX_CLIQUE_VERTEX_LIMIT, PALEY_MAX_P, Graph, paley


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_infeasible_tuple_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "10", "3", "1", "1")
        assert code == 2
        assert "error:" in err

    def test_garbage_params(self, capsys):
        code, _, err = run(capsys, "bounds", "not-a-number")
        assert code == 2

    def test_invariant_violation_exits_1(self, capsys, monkeypatch):
        def broken(p):
            raise AssertionError(f"cab 9 exceeds Delsarte bound for {p}")

        monkeypatch.setattr("srgbounds.cli.full_report", broken)
        code, out, err = run(capsys, "bounds", "17", "8", "3", "4")
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

    @pytest.mark.parametrize("max_v,level,tuples,digest", [
        (150, "absolute", 1227,
         "c4b2784a61c88797950c37a26e1d21afc07de84b8faf175b609e319e86428c62"),
        # the COUNTING scan skips tuples without integral multiplicities
        (150, "counting", 1281,
         "433dfa9bf4ed2561cfea42dc02e9b66f4e5861804ba5e3039297d7aa6daf7082"),
        (500, "absolute", 5681,
         "2d1d3a57bc92e148f175e626d4866c9992e0de7ebc2c8c0b6f1e4d7b4a30a739"),
        # the range of the published parameter tables
        (1300, "absolute", 18011,
         "958c3d2e935c3bed414109b8604e974d4776f2dcd0f4b168754d8bb8cb2b32b3"),
    ], ids=["absolute", "counting", "absolute-500", "absolute-1300"])
    def test_csv_digest(self, capsys, max_v, level, tuples, digest):
        # the catalogue, byte for byte
        code, out, _ = run(capsys, "scan", "--max-v", str(max_v), "--level", level,
                           "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + tuples
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_level_option(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-v", "30", "--level", "counting",
                           "--format", "csv")
        assert code == 0
        code2, out2, _ = run(capsys, "scan", "--max-v", "30", "--level", "absolute",
                             "--format", "csv")
        assert len(out.splitlines()) >= len(out2.splitlines())


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(srgbounds.__file__))
    code = "import sys, srgbounds.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
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
        assert "strongly regular (241,120,59,60)" in out
        assert "clique number 7" in out
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
        src = os.path.dirname(os.path.dirname(srgbounds.__file__))
        p = "100000000000000000000000000481"
        proc = subprocess.run([sys.executable, "-m", "srgbounds.cli", "paley", p],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": src})
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
        assert "n=101 m=2525 omega=5" in out

    def test_maxclique_over_vertex_limit(self, capsys, tmp_path):
        f = tmp_path / "empty513.g6"
        f.write_text(write_graph6(Graph(MAX_CLIQUE_VERTEX_LIMIT + 1)) + "\n")
        code, out, err = run(capsys, "maxclique", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: n=513 exceeds limit 512")

    def test_maxclique_missing_file(self, capsys):
        code, _, err = run(capsys, "maxclique", "/nonexistent/file")
        assert code == 2

    def test_delta3(self, capsys):
        code, out, _ = run(capsys, "delta3")
        assert code == 0
        assert "(21,8,3)" in out
        assert "strongly regular: no" in out
        assert "cab       4" in out
        assert "delsarte  3" in out
        assert "hoffman   5" in out
        assert "omega     3" in out


class TestConjecture:
    def test_empty(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--max-v", "60")
        assert code == 0
        assert "no counterexamples" in out

"""End-to-end command-line behavior and exit codes."""

import csv
import io
import json
import os

import numpy as np
import pytest

from kronmle.cli import (
    EXIT_BAD_ARGS,
    EXIT_DEGENERATE,
    EXIT_NO_MLE,
    EXIT_OK,
    main,
)
from kronmle.model import format_sample_set, parse_sample_set, sample_matrix_normal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_header_and_k(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, _, err = run(
            capsys, "sample", "--m1", "3", "--m2", "2", "--n", "2", "--seed", "7",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "3 2 2"
        assert "k = 1" in err

    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            run(capsys, "sample", "--m1", "4", "--m2", "3", "--n", "2", "--seed", "9",
                "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_threshold_bounds_printed(self, capsys):
        code, _, err = run(capsys, "sample", "--m1", "7", "--m2", "2", "--n", "4")
        assert code == EXIT_OK
        assert "lower 7/2" in err
        assert "upper 4" in err


class TestMle:
    def write_sample(self, tmp_path, m1, m2, n, seed=0):
        s = sample_matrix_normal(np.eye(m1), np.eye(m2), n, seed=seed)
        path = tmp_path / "sample.txt"
        path.write_text(format_sample_set(s))
        return path

    def test_exact_path(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 3, 2, 2, seed=3)
        out = tmp_path / "est.txt"
        code, stdout, _ = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_OK
        assert "method: exact" in stdout
        assert out.exists()

    def test_sweep_comparison_shrinks(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 7, 2, 4, seed=4)
        code, stdout, _ = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_OK
        rows = [
            line.split()
            for line in stdout.splitlines()
            if line and line.split()[0].isdigit()
        ]
        devs = {int(r[0]): float(r[1]) for r in rows}
        assert devs[500] < devs[3]

    def test_flipflop_path(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 2, 2, 3, seed=5)
        code, stdout, _ = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_OK
        assert "method: flipflop" in stdout

    def test_nonexistence_exit_code(self, tmp_path, capsys):
        # k = 1 with n < m2, and n*m2 < m1 (flip-flop regime, k < 0)
        for m1, m2, n in [(5, 3, 2), (20, 3, 4)]:
            path = self.write_sample(tmp_path, m1, m2, n, seed=6)
            code, _, err = run(capsys, "mle", "--in", str(path))
            assert code == EXIT_NO_MLE
            assert "MLE does not exist" in err

    def test_degenerate_exit_code(self, tmp_path, capsys):
        # all-zero data: a singular leading block (k = 1) or a singular
        # scatter in the first flip-flop sweep (k = 6)
        for m1, m2, n in [(3, 2, 2), (12, 6, 3)]:
            rows = "\n".join(" ".join(["0"] * (n * m2)) for _ in range(m1))
            path = tmp_path / "zero.txt"
            path.write_text(f"{m1} {m2} {n}\n{m1} {n * m2}\n{rows}\n")
            code, _, err = run(capsys, "mle", "--in", str(path))
            assert code == EXIT_DEGENERATE
            assert "degenerate data" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "mle", "--in", "/nonexistent/sample.txt")
        assert code == EXIT_BAD_ARGS


class TestVerifyLemma:
    def test_pinned_and_random(self, capsys):
        code, stdout, _ = run(capsys, "verify-lemma", "--seed", "1", "--count", "20")
        assert code == EXIT_OK
        assert "16640" in stdout
        assert "20 passed, 0 failed" in stdout


class TestMlDegreeCommand:
    def test_small_grid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KRONMLE_WORKERS", "2")
        cache = tmp_path / "cache"
        code, stdout, _ = run(
            capsys, "mldegree", "--m1", "2:3", "--n", "2:3", "--seed", "1",
            "--cache-dir", str(cache),
        )
        assert code == EXIT_OK
        cells = {}
        for line in stdout.splitlines()[1:]:
            toks = line.split()
            cells[(int(toks[0]), int(toks[1]))] = toks[2]
        assert cells[(2, 2)] == "0"
        assert cells[(2, 3)] == "3"
        assert cells[(3, 2)] == "1"
        assert cells[(3, 3)] == "4"

    def test_cache_reused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KRONMLE_WORKERS", "1")
        cache = tmp_path / "cache"
        run(capsys, "mldegree", "--m1", "3", "--n", "2", "--seed", "1",
            "--cache-dir", str(cache))
        cell = cache / "cell_3_2_1.json"
        assert cell.exists()
        # poison the cache; a rerun must trust it rather than recompute
        data = json.loads(cell.read_text())
        data["degree"] = 99
        cell.write_text(json.dumps(data))
        _, stdout, _ = run(capsys, "mldegree", "--m1", "3", "--n", "2", "--seed", "1",
                           "--cache-dir", str(cache))
        assert "99" in stdout

    def test_seed_independence_of_degree(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KRONMLE_WORKERS", "1")
        degrees = []
        for seed in ("1", "2"):
            _, stdout, _ = run(
                capsys, "mldegree", "--m1", "3", "--n", "3", "--seed", seed,
                "--cache-dir", str(tmp_path / f"c{seed}"),
            )
            degrees.append(stdout.splitlines()[1].split()[2])
        assert degrees == ["4", "4"]

    def test_timeout_marker(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KRONMLE_WORKERS", "1")
        code, stdout, _ = run(
            capsys, "mldegree", "--m1", "3", "--n", "3", "--seed", "1",
            "--pair-budget", "1", "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == EXIT_OK
        assert "timeout" in stdout

    def test_csv_and_json_formats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KRONMLE_WORKERS", "1")
        _, out_csv, _ = run(
            capsys, "mldegree", "--m1", "3", "--n", "2", "--seed", "1",
            "--format", "csv", "--cache-dir", str(tmp_path / "c1"),
        )
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert rows[0]["degree"] == "1"
        _, out_json, _ = run(
            capsys, "mldegree", "--m1", "3", "--n", "2", "--seed", "1",
            "--format", "json", "--cache-dir", str(tmp_path / "c1"),
        )
        cells = json.loads(out_json)
        assert cells[0]["degree"] == 1

    def test_m2_restriction(self, capsys):
        code, _, _ = run(capsys, "mldegree", "--m1", "3", "--n", "2", "--m2", "3")
        assert code == EXIT_BAD_ARGS


class TestMultiplicity:
    def test_case_one_report(self, capsys):
        code, stdout, _ = run(
            capsys, "multiplicity", "--case", "one", "--m2", "3", "--k", "2"
        )
        assert code == EXIT_OK
        assert "4*x^2 + -11*x + -6" in stdout
        assert "discriminant: 217" in stdout
        assert "solution count: 4" in stdout

    def test_case_two_report(self, capsys):
        code, stdout, _ = run(
            capsys, "multiplicity", "--case", "two", "--m2", "2", "--k", "2"
        )
        assert code == EXIT_OK
        assert "4*x^2 + 0*x + -6" in stdout
        assert "solution count: 2" in stdout

    def test_regime_error(self, capsys):
        code, _, err = run(
            capsys, "multiplicity", "--case", "one", "--m2", "2", "--k", "2"
        )
        assert code == EXIT_BAD_ARGS
        assert "case one requires m2 > 2" in err


class TestArgParsing:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_BAD_ARGS

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "sample", "--m1", "3")[0] == EXIT_BAD_ARGS

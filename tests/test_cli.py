"""End-to-end command-line behavior and exit codes."""

import argparse
import ast
import builtins
import collections
import contextlib
import csv
import decimal
import inspect
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmle import canonical, cli, linalg, mldegree, model, solvers
from kronmle.cli import (
    EXIT_BAD_ARGS,
    EXIT_DEGENERATE,
    EXIT_NO_MLE,
    EXIT_OK,
    main,
)
from kronmle.canonical import det_reduction_sides
from kronmle.mldegree import b_zero_quadratic
from kronmle.model import SampleSet, format_sample_set, sample_matrix_normal
from paper_helpers import det_reduction_oracle, lemma_instance


class SerialExecutor:
    """Stand-in for ProcessPoolExecutor that maps lazily in this process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def counting_executor(pools):
    """A SerialExecutor class that appends each pool's max_workers to pools."""

    class CountingExecutor(SerialExecutor):
        def __init__(self, max_workers=None):
            pools.append(max_workers)

    return CountingExecutor


def stub_cell(seconds, ran):
    """Stand-in for cli._mldegree_cell: degree m1*n, reported as taking seconds."""

    def cell(task):
        m1, n, seed = task
        ran.append((m1, n))
        return {"m1": m1, "n": n, "seed": seed, "degree": m1 * n, "seconds": seconds}

    return cell


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

    def test_no_matrices_rejected(self, capsys):
        code, stdout, err = run(capsys, "sample", "--m1", "2", "--m2", "2", "--n", "0")
        assert code == EXIT_BAD_ARGS
        assert stdout == "" and err == "error: need at least one data matrix\n"

    @pytest.mark.parametrize("m1, m2", [(0, 2), (2, 0), (-1, 3)])
    def test_bad_dimensions_write_nothing(self, tmp_path, capsys, m1, m2):
        for out in (None, tmp_path / "s.txt"):
            args = ["sample", "--m1", str(m1), "--m2", str(m2), "--n", "2"]
            code, stdout, err = run(capsys, *args, *(["--out", str(out)] if out else []))
            assert code == EXIT_BAD_ARGS
            assert stdout == "" and err == "error: dimensions must be positive\n"
            assert out is None or not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 298. GiB for an array", ""])
    def test_memory_error_exits_4(self, tmp_path, capsys, monkeypatch, message):
        # A sample too large for memory (--m1 200000 --m2 2 --n 1000000) is
        # one error line and exit 4, not a traceback.  The sizes here are
        # small: a large host could allocate the real ones.
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sample_matrix_normal", refuse)
        out = tmp_path / "s.txt"
        code, stdout, err = run(capsys, "sample", "--m1", "3", "--m2", "2", "--n", "1", "--out", str(out))
        assert code == EXIT_BAD_ARGS and stdout == "" and not out.exists()
        assert err == f"error: input too large for memory: {message or 'MemoryError'}\n"

    def test_memory_grows_with_the_sample_only(self, tmp_path, capsys):
        # 3000 x 2 draws are 48 KB and their text about 130 KB; a dense
        # 3000 x 3000 factor alone would be 72 MB.
        out = tmp_path / "s.txt"
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "sample", "--m1", "3000", "--m2", "2", "--n", "1",
                             "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and out.read_text().startswith("3000 2 1\n")
        assert peak < 5e6

    def test_threshold_bounds_printed(self, capsys):
        code, _, err = run(capsys, "sample", "--m1", "7", "--m2", "2", "--n", "4")
        assert code == EXIT_OK
        assert "lower 7/2" in err
        assert "upper 4" in err


def ones_k1_sample(seed):
    """A (23,4,6) sample whose last column of Y_* is the sum of the others.

    ker Y is spanned by v = (1, ..., 1, -1, 0), so sum_i v_i v_i^T has rank 2.
    """
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((23, 24))
    y[:, 22] = y[:, :22] @ np.ones(22)
    return SampleSet(y, 4)


def shared_kernel_sample(seed):
    """A (13,5,3) sample whose dual blocks Z_i all vanish on one vector w.

    Y is an orthonormal basis of the complement of the rows of
    D^T = [Z_1 | Z_2 | Z_3], so that ker Y is spanned by those rows.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(5)
    project = np.eye(5) - np.outer(w, w) / (w @ w)
    d_t = np.hstack([rng.standard_normal((2, 5)) @ project for _ in range(3)])
    q, _ = np.linalg.qr(d_t.T, mode="complete")
    return SampleSet(q[:, 2:].T, 5)


class TestMle:
    def write_sample(self, tmp_path, m1, m2, n, seed=0):
        s = sample_matrix_normal(m1, m2, n, seed=seed)
        path = tmp_path / "sample.txt"
        path.write_text(format_sample_set(s))
        return path

    def test_exact_path(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 3, 2, 2, seed=3)
        out = tmp_path / "est.txt"
        code, stdout, _ = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_OK
        assert "method: chain" in stdout  # the k = 1 closed form, reached by castle
        assert out.exists()

    def test_k1_solves_once(self, tmp_path, capsys, monkeypatch):
        # The closed form is the estimate: flip-flop solves the (1, m2, n)
        # dual from the identity, then once more on the sample, as the
        # closed form's certifying polish; no re-solve and no sweep table.
        starts = []
        real = solvers.flipflop

        def spy(*args, **kwargs):
            starts.append(kwargs.get("init_k2") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "flipflop", spy)
        monkeypatch.setattr(cli, "flipflop", spy, raising=False)
        path = self.write_sample(tmp_path, 7, 2, 4, seed=4)
        code, stdout, _ = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_OK
        assert starts == [False, True]
        assert "sweep" not in stdout
        assert stdout.splitlines()[:2] == ["method: chain", "start: castle (1,2,4)"]

    def test_chain_start_line(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 13, 5, 3, seed=1)
        out = tmp_path / "est.txt"
        code, stdout, _ = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_OK
        assert stdout.splitlines()[:2] == [
            "method: chain",
            "start: castle (2,5,3) > castle^T (1,2,3)",
        ]
        # the method stays one token of the estimate header
        assert out.read_text().split("\n")[0].split()[:3] == ["13", "5", "chain"]

    @pytest.mark.parametrize("scale", [1e4, 1e-3])
    def test_castle_transpose_at_any_data_scale(self, tmp_path, capsys, scale):
        # the descent castle^T (10,20,3) > castle^T (10,10,3) rescales a
        # 50 x 50 K1 to det 1, whose float determinant leaves the doubles at
        # these scales
        s = sample_matrix_normal(20, 50, 3, seed=0)
        path, out = tmp_path / "sample.txt", tmp_path / "est.txt"
        path.write_text(format_sample_set(SampleSet(scale * s.y, s.m2)))
        code, stdout, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_OK, err
        assert "converged: True" in stdout
        lines = out.read_text().splitlines()
        assert lines[0].split()[:2] == ["20", "50"]
        k1 = linalg.parse_matrix(lines[1:22])
        k2 = linalg.parse_matrix(lines[22:])
        assert k1.shape == (20, 20) and k2.shape == (50, 50)
        assert np.isfinite(k1).all() and np.isfinite(k2).all()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_code(self, tmp_path, capsys, tol):
        # tol = inf would pass one sweep at residual 0.356 as "converged";
        # nan and -1 could never converge.
        path = self.write_sample(tmp_path, 4, 3, 3, seed=2)
        out = tmp_path / "est.txt"
        code, stdout, err = run(capsys, "mle", "--in", str(path), f"--tol={tol}", "--out", str(out))
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_zero_tol_accepted(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 4, 3, 3, seed=2)
        code, stdout, _ = run(capsys, "mle", "--in", str(path), "--tol", "0")
        assert code == EXIT_OK
        assert "converged: False" in stdout

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
        # all-zero data at k = 1 and k = 6, and a rank-2 Y at k = 1: castle
        # finds Y rank-deficient before any solve
        rng = np.random.default_rng(0)
        rank2 = rng.standard_normal((23, 2)) @ rng.standard_normal((2, 24))
        for y, m2 in [(np.zeros((3, 4)), 2), (np.zeros((12, 18)), 6), (rank2, 4)]:
            path = tmp_path / "degenerate.txt"
            path.write_text(format_sample_set(SampleSet(y, m2)))
            code, _, err = run(capsys, "mle", "--in", str(path))
            assert code == EXIT_DEGENERATE
            assert "degenerate data" in err

    @pytest.mark.parametrize("shape", [(8, 5, 2), (11, 7, 2), (13, 8, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_no_mle_when_nk_below_m2(self, tmp_path, capsys, shape, seed):
        # n*k < m2: the stacked dual blocks have a kernel vector on any data
        m1, m2, n = shape
        path = self.write_sample(tmp_path, m1, m2, n, seed=seed)
        code, stdout, err = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_NO_MLE and stdout == ""
        k = n * m2 - m1
        assert err.splitlines() == [
            f"MLE does not exist: the descent ({m1},{m2},{n}) > castle ({k},{m2},{n}) "
            "ends where n*m2 < m1 or n*m1 < m2"
        ]

    @pytest.mark.parametrize("shape", [(5, 8, 2), (7, 11, 2), (8, 13, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_no_mle_when_transposed_nk_below_m1(self, tmp_path, capsys, shape, seed):
        # The mirror rule: the transposed sample (m2, m1, n) has n*k_T < m1
        m1, m2, n = shape
        path = self.write_sample(tmp_path, m1, m2, n, seed=seed)
        code, stdout, err = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_NO_MLE and stdout == ""
        k_t = n * m1 - m2
        assert err.splitlines() == [
            f"MLE does not exist: the descent ({m1},{m2},{n}) > castle^T ({k_t},{m1},{n}) "
            "ends where n*m2 < m1 or n*m1 < m2"
        ]

    @pytest.mark.parametrize("shape", [(5, 7, 2), (7, 5, 2), (7, 9, 2), (9, 7, 2), (7, 10, 2), (10, 7, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_no_mle_when_the_descent_is_unbounded(self, tmp_path, capsys, shape, seed):
        # No one-step rule refuses these shapes; their descents end
        # unbounded two or three steps down, on any data.
        path = self.write_sample(tmp_path, *shape, seed=seed)
        out = tmp_path / "est.txt"
        code, stdout, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_NO_MLE and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("MLE does not exist: the descent ({},{},{}) > ".format(*shape))
        assert not out.exists()

    def test_zero_rows_exit_code(self, tmp_path, capsys):
        # A file may declare m1 = 0: no shape, so bad input, not an MLE verdict
        path = tmp_path / "sample.txt"
        path.write_text("0 2 3\n0 6\n")
        code, stdout, err = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_BAD_ARGS and stdout == ""
        assert err == "error: dimensions must be positive\n"

    @pytest.mark.parametrize("build", [ones_k1_sample, shared_kernel_sample], ids=["k1", "13x5x3"])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_mle_when_dual_blocks_share_a_kernel_vector(self, tmp_path, capsys, build, seed):
        # n*k >= m2, so only the dual's flip-flop can tell
        path = tmp_path / "sample.txt"
        path.write_text(format_sample_set(build(seed)))
        code, _, err = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_NO_MLE
        assert err == "MLE does not exist: the dual blocks share a kernel vector\n"

    @pytest.mark.parametrize("shape", [(3, 2, 2), (5, 2, 3), (9, 2, 5), (23, 4, 6)])
    @pytest.mark.parametrize("seed", range(5))
    def test_k1_singular_left_block_exit_code(self, tmp_path, capsys, shape, seed):
        # the last column of Y_* is Y_*[:, :-1] @ c: no [I | C] form, but an MLE
        m1, m2, n = shape
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((m1, n * m2))
        y[:, m1 - 1] = y[:, : m1 - 1] @ rng.standard_normal(m1 - 1)
        path = tmp_path / "sample.txt"
        path.write_text(format_sample_set(SampleSet(y, m2)))
        code, stdout, err = run(capsys, "mle", "--in", str(path))
        assert code == EXIT_OK, err
        assert "converged: True" in stdout

    @pytest.mark.parametrize(
        "token, named",
        [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1/0", "zero denominator")],
    )
    def test_non_finite_entry_exit_code(self, tmp_path, capsys, token, named):
        path = self.write_sample(tmp_path, 3, 2, 3, seed=1)
        lines = path.read_text().splitlines()
        row = lines[2].split()
        row[4] = token
        lines[2] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "est.txt"
        code, _, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_BAD_ARGS
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "#", "0x10"])
    def test_unparsable_entry_exit_code(self, tmp_path, capsys, token):
        # float() would read "1_0" as 10 and the Arabic-Indic digit one as 1;
        # sample files take ASCII decimals only
        path = self.write_sample(tmp_path, 3, 2, 3, seed=1)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split()[2], token, 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "est.txt"
        code, _, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_BAD_ARGS
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert token in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tail, code",
        [("0.5 1 2\n-1 0 3\n", EXIT_BAD_ARGS), ("#\n", EXIT_BAD_ARGS), ("\n  \n", EXIT_OK)],
    )
    def test_lines_after_declared_rows(self, tmp_path, capsys, tail, code):
        # header "2 1 3", matrix header "2 3": only blank lines may follow the two rows
        path = self.write_sample(tmp_path, 2, 1, 3, seed=2)
        path.write_text(path.read_text() + tail)
        out = tmp_path / "est.txt"
        got, _, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert got == code
        assert out.exists() == (code == EXIT_OK)
        if code != EXIT_OK:
            assert err == "error: data after the declared rows\n"

    @pytest.mark.parametrize(
        "keep, named",
        [
            (0, "empty file"),
            (1, "no header"),
            (2, "0 of 3 rows"),
            (4, "2 of 3 rows"),
            ("3 2\n", "sample header is not three integers"),
            ("3 2 3\n3\n", "matrix header is not two integers"),
        ],
    )
    def test_truncated_file_exit_code(self, tmp_path, capsys, keep, named):
        # keep the first `keep` lines: nothing, the m1 m2 n line, both headers,
        # two rows; or, given text, a file cut inside a header line
        path = self.write_sample(tmp_path, 3, 2, 3, seed=1)
        if isinstance(keep, int):
            lines = path.read_text().splitlines()[:keep]
            path.write_text("".join(line + "\n" for line in lines))
        else:
            path.write_text(keep)
        out = tmp_path / "est.txt"
        code, _, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_BAD_ARGS
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_rows_narrower_than_the_header_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sample.txt"
        path.write_text("2 3 1\n2 3\n1 2\n3 4\n")
        out = tmp_path / "est.txt"
        code, stdout, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_BAD_ARGS and stdout == ""
        assert err == "error: bad matrix row width\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, spelled, named",
        [
            (0, "1_0 3 4", "sample header is not three integers 'm1 m2 n'"),
            (0, "10 \u0663 4", "sample header is not three integers 'm1 m2 n'"),
            (1, "1_0 12", "matrix header is not two integers 'rows cols'"),
            (1, "\u0661\u0660 12", "matrix header is not two integers 'rows cols'"),
        ],
    )
    def test_header_integers_are_ascii_digits(self, tmp_path, capsys, line, spelled, named):
        # int() would read each spelling as the header's own value: 10, 3, 10, 10
        path = self.write_sample(tmp_path, 10, 3, 4)
        lines = path.read_text().splitlines(keepends=True)
        lines[line] = spelled + "\n"
        path.write_text("".join(lines))
        out = tmp_path / "est.txt"
        code, stdout, err = run(capsys, "mle", "--in", str(path), "--out", str(out))
        assert code == EXIT_BAD_ARGS and stdout == ""
        assert err == f"error: {named}\n"
        assert not out.exists()

    def test_signed_header_integers_read_as_before(self, tmp_path, capsys):
        path = self.write_sample(tmp_path, 10, 3, 4)
        plain = tmp_path / "plain.txt"
        assert run(capsys, "mle", "--in", str(path), "--out", str(plain))[0] == EXIT_OK
        text = path.read_text().replace("10 3 4\n10 12\n", "+10 +3 +04\n+10 012\n", 1)
        assert text != path.read_text()
        path.write_text(text)
        signed = tmp_path / "signed.txt"
        assert run(capsys, "mle", "--in", str(path), "--out", str(signed))[0] == EXIT_OK
        assert signed.read_bytes() == plain.read_bytes()

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "mle", "--in", "/nonexistent/sample.txt")
        assert code == EXIT_BAD_ARGS


def oracle_instances(rng, count):
    """(shape, index in its group, canonical form, K) of verify-lemma's
    instances, drawn one entry at a time and built with Matrix arithmetic."""
    seen = collections.Counter()
    for _ in range(count):
        while True:
            m2 = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            if 1 <= n * m2 - k <= 10:
                break
        cf, k_mat = lemma_instance(rng, m2, k, n)
        yield (m2, k, n), seen[m2, k, n], cf, k_mat
        seen[m2, k, n] += 1


class TestVerifyLemma:
    def test_pinned_and_random(self, capsys):
        code, stdout, _ = run(capsys, "verify-lemma", "--seed", "1", "--count", "20")
        assert code == EXIT_OK
        assert "16640" in stdout
        assert "20 passed, 0 failed" in stdout

    # The benchmark's instance set and README's example.
    @pytest.mark.parametrize("seed, count", [(20240116, 300), (3, 100)])
    def test_stdout(self, capsys, seed, count):
        code, stdout, _ = run(capsys, "verify-lemma", "--seed", str(seed), "--count", str(count))
        assert code == EXIT_OK
        assert stdout == (
            "pinned example: lhs = 16640 rhs = 16640 PASS\n"
            f"random instances: {count} passed, 0 failed\n"
        )

    def test_instances_match_matrix_build(self):
        # Same draws in the same order, and the same generator state after:
        # the instances, and so the output, of any seed are unchanged.
        rng_a, rng_b = np.random.default_rng(20240116), np.random.default_rng(20240116)
        stacks = cli.lemma_stacks(cli.lemma_draws(rng_a, 150))
        for shape, i, cf, k_ref in oracle_instances(rng_b, 150):
            c, k_mat = stacks[shape]
            assert cf.C.den == k_ref.den == 1
            assert c[i].tolist() == [list(row) for row in cf.C.num]
            assert k_mat[i].tolist() == [list(row) for row in k_ref.num]
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_stacked_sides_match_oracle(self):
        # All 300 benchmark instances: each side is the oracle's times det(K)^k.
        stacks = cli.lemma_stacks(cli.lemma_draws(np.random.default_rng(20240116), 300))
        sides = {shape: det_reduction_sides(c, k_mat) for shape, (c, k_mat) in stacks.items()}
        checked = 0
        for shape, i, cf, k_mat in oracle_instances(np.random.default_rng(20240116), 300):
            lhs, rhs = det_reduction_oracle(cf, k_mat)
            scale = k_mat.det() ** cf.k
            assert (sides[shape][0][i], sides[shape][1][i]) == (lhs * scale, rhs * scale)
            checked += 1
        assert checked == sum(len(c) for c, _ in stacks.values()) == 300

    def test_failed_instance_exits_4(self, capsys, monkeypatch):
        real = cli.det_reduction_sides
        calls = []

        def break_first_member(c, k_mat):
            lhs, rhs = real(c, k_mat)
            if not calls:
                lhs = lhs.copy()
                lhs[0] += 1
            calls.append(len(lhs))
            return lhs, rhs

        monkeypatch.setattr(cli, "det_reduction_sides", break_first_member)
        code, stdout, err = run(capsys, "verify-lemma", "--seed", "3", "--count", "100")
        assert code == EXIT_BAD_ARGS and "Traceback" not in err
        assert stdout.endswith("random instances: 99 passed, 1 failed\n")
        assert sum(calls) == 100

    def test_failed_pinned_example_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "det_reduction_check", lambda cf, k_mat: (1, 2))
        code, stdout, _ = run(capsys, "verify-lemma", "--count", "5")
        assert code == EXIT_BAD_ARGS
        assert stdout.startswith("pinned example: lhs = 1 rhs = 2 FAIL\n")
        assert "5 passed, 0 failed" in stdout

    def test_chunks_bound_the_stacks(self, capsys, monkeypatch):
        # More instances than one chunk: every one is checked, a chunk at a time.
        real = cli.det_reduction_sides
        sizes = []
        monkeypatch.setattr(cli, "_LEMMA_CHUNK", 40)
        monkeypatch.setattr(cli, "det_reduction_sides", lambda c, k: sizes.append(len(c)) or real(c, k))
        code, stdout, _ = run(capsys, "verify-lemma", "--seed", "3", "--count", "100")
        assert code == EXIT_OK and "100 passed, 0 failed" in stdout
        assert sum(sizes) == 100 and max(sizes) <= 40


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

    def test_lone_cell_runs_without_pool(self, tmp_path, capsys, monkeypatch):
        # Cheap cells run in this process, a whole table of them included.
        pools = []
        monkeypatch.setenv("KRONMLE_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", counting_executor(pools))
        cache = tmp_path / "cache"
        code, stdout, _ = run(capsys, "mldegree", "--m1", "3", "--n", "3", "--seed", "1",
                              "--cache-dir", str(cache))
        assert code == EXIT_OK and stdout.splitlines()[1].split()[2] == "4"
        assert (cache / "cell_3_3_1.json").exists()
        code, stdout, _ = run(capsys, "mldegree", "--m1", "3", "--n", "2:3", "--seed", "1",
                              "--cache-dir", str(cache))
        assert code == EXIT_OK and len(stdout.splitlines()) == 3
        # Two pending cells: the second is the last, so no pool can take it.
        run(capsys, "mldegree", "--m1", "2", "--n", "2:3", "--seed", "1",
            "--cache-dir", str(cache))
        ran = []
        monkeypatch.setattr(cli, "_mldegree_cell", stub_cell(0.001, ran))
        code, stdout, _ = run(capsys, "mldegree", "--m1", "4:9", "--n", "2:7", "--seed", "1",
                              "--cache-dir", str(cache))
        assert code == EXIT_OK and len(ran) == 36 and len(stdout.splitlines()) == 37
        assert pools == []

    @pytest.mark.parametrize("workers, n_range, expected", [
        ("3", "2:4", [3]),  # five cells left after the first: KRONMLE_WORKERS caps the pool
        ("4", "2:3", [3]),  # three left, fewer than KRONMLE_WORKERS: a pool of three
    ])
    def test_slow_table_hands_rest_to_pool(self, tmp_path, capsys, monkeypatch,
                                           workers, n_range, expected):
        pools, ran = [], []
        monkeypatch.setenv("KRONMLE_WORKERS", workers)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", counting_executor(pools))
        monkeypatch.setattr(cli, "_mldegree_cell", stub_cell(2 * cli._POOL_AFTER_S, ran))
        cache = tmp_path / "cache"
        code, stdout, _ = run(capsys, "mldegree", "--m1", "2:3", "--n", n_range, "--seed", "1",
                              "--format", "json", "--cache-dir", str(cache))
        assert code == EXIT_OK
        assert pools == expected
        cells = json.loads(stdout)
        keys = [(c["m1"], c["n"]) for c in cells]
        assert keys == ran == sorted(keys)
        for c in cells:
            assert c["degree"] == c["m1"] * c["n"]
            cached = json.loads((cache / f"cell_{c['m1']}_{c['n']}_1.json").read_text())
            assert cached == c

    def test_one_worker_never_starts_pool(self, tmp_path, capsys, monkeypatch):
        pools, ran = [], []
        monkeypatch.setenv("KRONMLE_WORKERS", "1")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", counting_executor(pools))
        monkeypatch.setattr(cli, "_mldegree_cell", stub_cell(1.0, ran))
        code, _, _ = run(capsys, "mldegree", "--m1", "2:4", "--n", "2:4", "--seed", "1",
                         "--cache-dir", str(tmp_path / "cache"))
        assert code == EXIT_OK and len(ran) == 9
        assert pools == []

    def test_real_pool_counts_as_in_process(self, tmp_path, capsys, monkeypatch):
        # The only test that starts a real process pool (of two): the other
        # pool tests patch cli.ProcessPoolExecutor out.
        def degrees(workers):
            monkeypatch.setenv("KRONMLE_WORKERS", workers)
            code, stdout, _ = run(capsys, "mldegree", "--m1", "2:3", "--n", "3:4", "--format", "json",
                                  "--cache-dir", str(tmp_path / workers))
            assert code == EXIT_OK
            return [(c["m1"], c["n"], c["degree"]) for c in json.loads(stdout)]

        serial = degrees("1")
        real, pools = cli.ProcessPoolExecutor, []
        monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: pools.append(max_workers) or real(max_workers))
        assert degrees("2") == serial == [(2, 3, 3), (2, 4, 3), (3, 3, 4), (3, 4, 7)]
        assert pools == [2]

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

    @pytest.mark.parametrize("text", [
        '{"m1": 2}',
        "[1, 2]",
        "not json",
        '{"m1": 2, "n": 5, "seed": 1, "degree": 99, "seconds": 0.1}',  # another seed's cell
        '{"m1": 2, "n": 5, "seed": 0, "degree": "99", "seconds": 0.1}',
        '{"m1": 2, "n": 5, "seed": 0, "degree": 99, "seconds": 0.1, "extra": 1}',
        "[" * 100_000,
        '{"m1": 2, "n": 5, "seed": 0, "degree": 99, "seconds": NaN}',
        '{"m1": 2, "n": 5, "seed": 0, "degree": 99, "seconds": Infinity}',
        '{"m1": 2, "n": 5, "seed": 0, "degree": 99, "seconds": -0.5}',
        '{"m1": 2, "n": 5, "seed": 0, "degree": -7, "seconds": 0.1}',
    ], ids=["missing-keys", "list", "not-json", "other-seed", "str-degree", "extra-key", "deep",
            "nan-seconds", "infinite-seconds", "negative-seconds", "negative-degree"])
    def test_malformed_cache_cell_is_recomputed(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setenv("KRONMLE_WORKERS", "1")
        cache = tmp_path / "cache"
        cache.mkdir()
        cell = cache / "cell_2_5_0.json"
        cell.write_text(text)
        code, stdout, stderr = run(capsys, "mldegree", "--m1", "2", "--n", "5",
                                   "--cache-dir", str(cache))
        assert code == EXIT_OK and stderr == ""
        assert stdout.splitlines()[1].split()[:3] == ["2", "5", "3"]
        rewritten = json.loads(cell.read_text())
        assert (rewritten["m1"], rewritten["n"], rewritten["seed"], rewritten["degree"]) == (2, 5, 0, 3)

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
        # --out writes exactly what stdout would show, and stdout stays empty.
        out = tmp_path / "cells.json"
        code, stdout, _ = run(
            capsys, "mldegree", "--m1", "3", "--n", "2", "--seed", "1",
            "--format", "json", "--cache-dir", str(tmp_path / "c1"), "--out", str(out),
        )
        assert code == EXIT_OK and stdout == ""
        assert out.read_text() == out_json

    def test_csv_bytes(self):
        # The cells as cached: any key order, seconds an int or a float.
        cells = [
            {"m1": 2, "n": 3, "seed": 0, "degree": 3, "seconds": 0.0},
            {"m1": 2, "n": 4, "seed": 0, "degree": 3, "seconds": 1e-05},
            {"seconds": 12.345, "degree": 12, "seed": 7, "n": 4, "m1": 10},
            {"m1": 11, "n": 5, "seed": -1, "degree": 0, "seconds": 2},
        ]
        assert cli._emit_cells(cells, "csv") == (
            "m1,n,seed,degree,seconds\r\n"
            "2,3,0,3,0.0\r\n"
            "2,4,0,3,1e-05\r\n"
            "10,4,7,12,12.345\r\n"
            "11,5,-1,0,2\r\n"
        )

    def test_primes_exhausted(self, tmp_path, capsys, monkeypatch):
        # With no prime to confirm a modular count, the command reports one
        # error line, exits 4 and caches no result.  The cells lie outside
        # ml_degree's shape rules, so each counts mod primes.  The cells run
        # in this process, so that the patched PRIMES reaches them.
        monkeypatch.setattr(mldegree, "PRIMES", ())
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialExecutor)
        cache = tmp_path / "cache"
        code, stdout, err = run(
            capsys, "mldegree", "--m1", "3", "--n", "2:3", "--seed", "1",
            "--cache-dir", str(cache),
        )
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (cache / "cell_3_2_1.json").exists()
        assert not (cache / "cell_3_3_1.json").exists()

    def test_memory_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # A cell whose grid does not fit in memory (29.3 GiB at --m1 250
        # --n 250) is one error line and exit 4, and caches nothing.
        def refuse(m1, n, seed):
            raise MemoryError("Unable to allocate 29.3 GiB for an array")

        monkeypatch.setattr(cli, "ml_degree", refuse)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialExecutor)
        cache = tmp_path / "cache"
        code, stdout, err = run(capsys, "mldegree", "--m1", "3", "--n", "3", "--cache-dir", str(cache))
        assert code == EXIT_BAD_ARGS and stdout == ""
        assert err == "error: input too large for memory: Unable to allocate 29.3 GiB for an array\n"
        assert not list(cache.iterdir())

    def test_pair_budget_is_unknown(self, tmp_path, capsys):
        # The count has no S-pairs left to budget: Bezout's bound fixes its cost.
        for argv in (["mldegree", "--m1", "3", "--n", "3", "--cache-dir", str(tmp_path)],
                     ["multiplicity", "--case", "two", "--m2", "2", "--k", "3"]):
            code, stdout, err = run(capsys, *argv, "--pair-budget", "5")
            assert code == EXIT_BAD_ARGS and stdout == ""
            assert "unrecognized arguments: --pair-budget 5" in err

    def test_m2_restriction(self, capsys):
        # The table is for m2 = 2 only, so there is no --m2 to set, not even to 2.
        code, _, err = run(capsys, "mldegree", "--m1", "3", "--n", "2", "--m2", "2")
        assert code == EXIT_BAD_ARGS
        assert "unrecognized arguments: --m2 2" in err


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

    @pytest.mark.parametrize("case_id,m2,k", [("two", 2, 10**400), ("one", 10**400, 2)])
    def test_huge_arguments(self, capsys, case_id, m2, k):
        # No float holds these coefficients or case one's large root: the
        # count reduces m2 and k mod each prime, and the roots are Decimals,
        # exact to the printed place as the textbook formula at 1,000 digits.
        code, stdout, err = run(capsys, "multiplicity", "--case", case_id, "--m2", str(m2), "--k", str(k))
        assert code == EXIT_OK and err == ""
        c2, c1, c0 = b_zero_quadratic(m2, k, case_id).coefficients
        with decimal.localcontext(decimal.Context(prec=1000)):
            r = decimal.Decimal(c1 * c1 - 4 * c2 * c0).sqrt()
            low, high = sorted([(-c1 - r) / (2 * c2), (-c1 + r) / (2 * c2)])
        assert f"roots: {low:.6f}, {high:.6f}\n" in stdout
        assert "solution count: 4" in stdout

    def test_regime_error(self, capsys):
        code, _, err = run(
            capsys, "multiplicity", "--case", "one", "--m2", "2", "--k", "2"
        )
        assert code == EXIT_BAD_ARGS
        assert "case one requires m2 > 2" in err

class TestArgParsing:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_BAD_ARGS

    def test_parser_built_once(self, capsys, monkeypatch, request):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.prog)

        cli.build_parser.cache_clear()
        request.addfinalizer(cli.build_parser.cache_clear)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(2):
            assert run(capsys, "sample", "--m1", "2", "--m2", "2", "--n", "1")[0] == EXIT_OK
        assert built.count("kronmle") == 1

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = cli.mle

        def spy(sample, tol, max_iter):
            seen.append((tol, max_iter))
            return real(sample, tol=tol, max_iter=max_iter)

        monkeypatch.setattr(cli, "mle", spy)
        s = sample_matrix_normal(4, 3, 3, seed=2)
        path = tmp_path / "sample.txt"
        path.write_text(format_sample_set(s))
        assert run(capsys, "mle", "--in", str(path), "--tol", "0", "--max-iter", "3")[0] == EXIT_OK
        assert run(capsys, "mle", "--in", str(path))[0] == EXIT_OK
        assert seen == [(0.0, 3), (1e-10, 10000)]
        # a bad argv after good calls is still refused, and a good one still runs
        assert run(capsys, "mle", "--in", str(path), "--max-iter", "x")[0] == EXIT_BAD_ARGS
        assert run(capsys, "mle")[0] == EXIT_BAD_ARGS
        assert run(capsys, "mle", "--in", str(path))[0] == EXIT_OK
        assert seen[-1] == (1e-10, 10000)

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "sample", "--m1", "3")[0] == EXIT_BAD_ARGS

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify-lemma", "--count", "-3"], "--count"),
            (["verify-lemma", "--count", "0"], "--count"),
            (["mldegree", "--m1", "5:3", "--n", "2"], "empty range 5:3"),
            (["mldegree", "--m1", "3", "--n", "1:0"], "empty range 1:0"),
            (["mldegree", "--m1", "0", "--n", "2"], "--m1"),
            (["mldegree", "--m1", "3", "--n", "0:2"], "--n"),
            (["mldegree", "--m1", "1:2:3", "--n", "2"], "--m1 must be an integer or a range lo:hi, got '1:2:3'"),
            (["mldegree", "--m1", "3", "--n", ":"], "--n must be an integer or a range lo:hi, got ':'"),
            (["mldegree", "--m1", "3", "--n", "2:x"], "--n must be an integer or a range lo:hi, got '2:x'"),
            (["KRONMLE_WORKERS=two", "mldegree", "--m1", "3", "--n", "2"],
             "KRONMLE_WORKERS must be an integer, got 'two'"),
            (["mldegree", "--m1", "1_0", "--n", "2"], "--m1 must be an integer or a range lo:hi, got '1_0'"),
            (["mldegree", "--m1", "3", "--n", "2:\u0663"],
             "--n must be an integer or a range lo:hi, got '2:\u0663'"),
            (["KRONMLE_WORKERS=1_6", "mldegree", "--m1", "3", "--n", "2"],
             "KRONMLE_WORKERS must be an integer, got '1_6'"),
            (["KRONMLE_WORKERS=\u0663", "mldegree", "--m1", "3", "--n", "2"],
             "KRONMLE_WORKERS must be an integer, got '\u0663'"),
            (["KRONMLE_WORKERS=0", "mldegree", "--m1", "3", "--n", "2"],
             "KRONMLE_WORKERS must be at least 1, got 0"),
            (["KRONMLE_WORKERS=-3", "mldegree", "--m1", "3", "--n", "2"],
             "KRONMLE_WORKERS must be at least 1, got -3"),
            (["sample", "--m1", "3", "--m2", "2", "--n", "2", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["verify-lemma", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["mldegree", "--m1", "4", "--n", "2", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["mldegree", "--m1", "2:4", "--n", "2", "--seed", "-1"], "--seed must be at least 0, got -1"),
        ],
    )
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, monkeypatch, argv, named):
        # Refused before any work: no instances, no cells, no cache directory.
        # A leading NAME=value sets an environment variable, as in a shell.
        while "=" in argv[0]:
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        cache = tmp_path / "cache"
        extra = ["--cache-dir", str(cache)] if argv[0] == "mldegree" else []
        code, stdout, err = run(capsys, *argv, *extra)
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert named in err
        assert not cache.exists()

    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"], ["--max-iter", "0"], ["--max-iter", "-2"]])
    @pytest.mark.parametrize("kind", ["rank-deficient", "unbounded", "generic"])
    def test_bad_stop_rule_refused_first(self, tmp_path, capsys, monkeypatch, kind, flags):
        # mle checks --tol and --max-iter before the descent, so a sample that
        # would exit 2 (castle) or 3 (descent) still exits 4.
        y, m2 = {
            "rank-deficient": (np.zeros((3, 4)), 2),
            "unbounded": (sample_matrix_normal(20, 3, 4, seed=6).y, 3),
            "generic": (sample_matrix_normal(4, 3, 3, seed=2).y, 3),
        }[kind]
        path, out = tmp_path / "sample.txt", tmp_path / "est.txt"
        path.write_text(format_sample_set(SampleSet(y, m2)))
        monkeypatch.setattr(solvers, "descent", None)  # a call would raise TypeError
        code, stdout, err = run(capsys, "mle", "--in", str(path), *flags, "--out", str(out))
        assert (code, stdout) == (EXIT_BAD_ARGS, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert flags[0].strip("-").replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "x"])
    @pytest.mark.parametrize("flag", ["--m1", "--seed"])
    def test_integer_flags_take_ascii_digits_only(self, tmp_path, capsys, flag, value):
        argv = {"--m1": "3", "--m2": "2", "--n": "2", "--seed": "0", flag: value}
        out = tmp_path / "sample.txt"
        code, stdout, err = run(capsys, "sample", *sum(argv.items(), ()), "--out", str(out))
        assert code == EXIT_BAD_ARGS and stdout == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"kronmle sample: error: argument {flag}: invalid int value: {value!r}"]
        assert not out.exists()

    def test_signed_integers_read_as_before(self, capsys, monkeypatch):
        plain = run(capsys, "verify-lemma", "--count", "3", "--seed", "1")
        assert run(capsys, "verify-lemma", "--count", "+3", "--seed", "+01") == plain
        assert run(capsys, "sample", "--m1", "+3", "--m2", "02", "--n", "+2") == run(
            capsys, "sample", "--m1", "3", "--m2", "2", "--n", "2")
        assert cli._parse_range("-1:+1", "--m1") == [-1, 0, 1]
        assert cli._parse_range("+007", "--n") == [7]
        monkeypatch.setenv("KRONMLE_WORKERS", "+02")
        assert cli._worker_cap() == 2

    def test_default_worker_cap_counts_usable_cpus(self, monkeypatch):
        # under taskset or a container cpuset the affinity mask, not the
        # host's CPU count, says how many workers can run at once
        monkeypatch.delenv("KRONMLE_WORKERS", raising=False)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._worker_cap() == 1
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._worker_cap() == 64


def _sample_files(root):
    """Tiny sample files for the argv property, by kind: each ends in a documented way."""
    files = {"missing": root / "missing.txt"}

    def write(name, text):
        files[name] = root / f"{name}.txt"
        files[name].write_text(text)

    for m1, m2, n in [(3, 2, 2), (4, 3, 2), (2, 2, 3), (3, 2, 1), (4, 2, 1), (2, 4, 2)]:
        s = sample_matrix_normal(m1, m2, n, seed=m1 + m2 + n)
        write(f"normal-{m1}x{m2}x{n}", format_sample_set(s))
    write("zeros", "3 2 2\n3 4\n" + "0 0 0 0\n" * 3)
    write("nan", "2 2 2\n2 4\n1 nan 0 1\n0 1 1 0\n")
    write("truncated", "3 2 2\n3 4\n1 0 0 1\n")
    write("bad-header", "3 2\n")
    write("exact", "2 2 2\n2 4\n1 1/2 0 1\n0 1 -3/4 0\n")
    return files


_SMALL = st.integers(-1, 4).map(str)
_RANGE = st.one_of(_SMALL, st.tuples(_SMALL, _SMALL).map(":".join))


@st.composite
def _argv(draw, files, cache):
    command = draw(st.sampled_from(["sample", "mle", "verify-lemma", "mldegree", "multiplicity"]))
    if command == "sample":
        argv = ["sample", "--m1", draw(_SMALL), "--m2", draw(_SMALL), "--n", draw(_SMALL)]
    elif command == "mle":
        path = files[draw(st.sampled_from(sorted(files)))]
        argv = ["mle", "--in", str(path)]
        argv += draw(st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-3"], ["--tol", "nan"],
                                      ["--tol", "-1"], ["--tol", "x"]]))
        argv += draw(st.sampled_from([[], ["--max-iter", "0"], ["--max-iter", "1"],
                                      ["--max-iter", "3"], ["--max-iter", "-2"]]))
    elif command == "verify-lemma":
        argv = ["verify-lemma", "--count", str(draw(st.integers(-2, 3))),
                "--seed", str(draw(st.integers(-1, 3)))]
    elif command == "mldegree":
        argv = ["mldegree", "--m1", draw(_RANGE), "--n", draw(_RANGE),
                "--seed", str(draw(st.integers(-1, 2))), "--cache-dir", str(cache)]
        argv += draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"],
                                      ["--format", "xml"]]))
    else:
        argv = ["multiplicity", "--case", draw(st.sampled_from(["one", "two", "three"])),
                "--m2", draw(_SMALL), "--k", draw(_SMALL)]
    # Sometimes drop a token or add an unknown flag: parse errors are exit 4 too.
    edit = draw(st.sampled_from(["keep", "keep", "keep", "drop", "unknown"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "unknown":
        argv.append("--bogus")
    return argv


class TestArgvGrammar:
    @pytest.fixture(scope="class")
    def grammar(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        return _argv(_sample_files(root), root / "cache")

    def test_documented_exit_codes(self, grammar):
        @settings(max_examples=150, deadline=None)
        @given(grammar)
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "ProcessPoolExecutor", SerialExecutor)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            assert code in (EXIT_OK, EXIT_DEGENERATE, EXIT_NO_MLE, EXIT_BAD_ARGS), argv
            assert "Traceback" not in err.getvalue(), argv

        check()


_SPECIAL = st.sampled_from(["nan", "1e400", "1/0", "#", ""])


@st.composite
def _mutated_sample(draw, bases):
    """A valid small sample file with one edit: a token dropped, doubled or
    replaced, a line inserted, a row cut short, or rows added at the end."""
    lines = [line.split() for line in draw(st.sampled_from(bases)).splitlines()]
    edit = draw(st.sampled_from(["drop", "double", "replace", "insert", "cut", "trail"]))
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    if edit == "drop":
        del lines[i][j]
    elif edit == "double":
        lines[i].insert(j, lines[i][j])
    elif edit == "replace":
        lines[i][j] = draw(_SPECIAL)
    elif edit == "insert":
        lines.insert(draw(st.integers(0, len(lines))), [draw(_SPECIAL)])
    elif edit == "cut":
        lines[i] = lines[i][:j]
    else:
        lines += [lines[-1]] * draw(st.integers(1, 2))
    return "".join(" ".join(line) + "\n" for line in lines)


class TestSampleFileContents:
    @pytest.fixture(scope="class")
    def bases(self):
        texts = [format_sample_set(sample_matrix_normal(m1, m2, n, seed=m1 + n))
                 for m1, m2, n in [(3, 2, 2), (2, 2, 3), (4, 3, 2)]]
        return texts + ["2 2 2\n2 4\n1 1/2 0 1\n0 1 -3/4 0\n"]

    def test_documented_exit_codes(self, bases, tmp_path_factory):
        root = tmp_path_factory.mktemp("contents")
        sample, out = root / "sample.txt", root / "est.txt"

        @settings(max_examples=150, deadline=None)
        @given(_mutated_sample(bases))
        def check(text):
            sample.write_text(text)
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["mle", "--in", str(sample), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_DEGENERATE, EXIT_NO_MLE, EXIT_BAD_ARGS), text
            assert "Traceback" not in err.getvalue(), text
            assert out.exists() == (code == EXIT_OK), text

        check()


def _exit_code_types():
    """The exception types that cli.main maps to an exit code, read off its except clauses."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(main))):
        if isinstance(node, ast.ExceptHandler):
            names |= {t.id for t in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])}
    return tuple(getattr(cli, name, None) or getattr(builtins, name) for name in names)


def test_every_exception_type_reaches_an_exit_code():
    # An engine's own exception type either reaches an exit code through
    # cli.main or is an internal signal that the engines translate; any
    # other type reaching main would print a traceback.
    mapped = _exit_code_types()
    assert {canonical.DegenerateData, solvers.MLENotExists, ValueError, OSError,
            mldegree.PrimesExhausted} <= set(mapped)
    defined = {obj for module in (linalg, model, canonical, solvers, mldegree, cli)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__}
    assert {linalg.SingularMatrix, linalg.NotPD, canonical.DegenerateData} <= defined
    unmapped = {t.__name__ for t in defined if not issubclass(t, mapped)}
    assert unmapped <= {"SingularMatrix", "NotPD"}

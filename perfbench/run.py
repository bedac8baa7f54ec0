"""kronmle benchmark: verified solves per second on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kronmle checkout; the package is imported from
``src``.  The runner writes the workload's inputs from the seed, then sends
the items in order, one at a time (a closed loop with one caller), to a
fresh worker process that calls ``kronmle.cli.main(argv)`` or
``kronmle.solvers.exact_mle_k1`` in-process.  An item that exceeds its
limit (perfbench/spec.json) is killed with the worker's process group,
pool included, and is charged the limit.  Outputs are checked by
oracle.py after each batch, outside the timed region.

With ``--trace 0`` the batch runs ``--seconds`` divided by the workload's
nominal pass time (spec.json) times, rounded and at least once, and the
end-to-end metrics are printed; ``solved_per_s`` is solved items per
second of item time, with each item's time the fastest of its repeats.  With
``--trace 1`` the batch runs once untraced, once untraced with mldegree
cells in-process (only when the workload uses the pool), and once with
spans around each layer's public functions (spans.py), and the per-layer
metrics are printed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

SPEC = gen.SPEC
PR_SET_CHILD_SUBREAPER = 36


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


WORKERS = max(1, min(SPEC["workers_max"], _cpus()))


def pinned_env():
    """One BLAS/OpenMP thread, KRONMLE_WORKERS capped at the usable CPUs, src on the path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["KRONMLE_WORKERS"] = str(WORKERS)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process in its own session; killed as a whole process group."""

    def __init__(self, env, flags, log):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            env=env, cwd=ROOT, start_new_session=True, text=True,
        )
        ready = self._read(120.0)
        if ready is None or not ready.get("ready"):
            self.kill()
            raise WorkerError("worker did not start; is kronmle importable from src/?")
        self.import_s = ready["import_s"]

    def _read(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def call(self, request, timeout):
        """The worker's reply, or None when it has not replied within timeout."""
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def quit(self):
        try:
            self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self):
        """SIGKILL the worker's process group and wait until every member has ended."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            # Orphaned pool children are re-parented to this process (a
            # child subreaper); reap them so that the group empties.
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.01)
        raise WorkerError(f"process group {pgid} did not end")


class Session:
    """Runs items on a worker, restarting it after an item is killed."""

    def __init__(self, env, flags, log):
        self.env, self.flags, self.log = env, flags, log
        self.worker = None
        self.peak_rss_mb = 0.0

    def start(self):
        self.worker = Worker(self.env, self.flags, self.log)
        return self.worker.import_s

    def run(self, item):
        """(charged seconds, reply, or None and the reason there is none)."""
        if self.worker is None:
            self.start()
        cache = item["expect"].get("cache_dir")
        if cache:
            shutil.rmtree(cache, ignore_errors=True)
            os.makedirs(cache)
            if os.listdir(cache):
                raise WorkerError(f"cache directory {cache} is not empty")
        request = {k: item[k] for k in ("id", "call", "argv", "sample") if k in item}
        start = time.perf_counter()
        limit = item["limit_s"]
        reply = self.worker.call(request, limit + 0.25 + 0.1 * limit)
        if reply is None:
            died = self.worker.proc.poll() is not None
            elapsed = time.perf_counter() - start
            self.worker.kill()
            self.worker = None
            if died and elapsed <= limit:
                return elapsed, None, "the worker process died"
            return limit, None, "hit its limit"
        self.peak_rss_mb = max(self.peak_rss_mb, reply["peak_rss_mb"])
        if reply["elapsed_s"] > limit:
            return limit, None, "hit its limit"
        return reply["elapsed_s"], reply, None

    def close(self):
        if self.worker is not None:
            self.worker.quit()
            self.worker = None


def run_batch(session, items, sample_cache):
    """Run every item in order, then check the outputs; one record per item."""
    records = []
    for item in items:
        charged, reply, lost = session.run(item)
        records.append({"item": item, "charged_s": charged, "reply": reply, "reason": lost})
    for rec in records:
        if rec["reply"] is None:
            rec["verdict"] = "fail"
        else:
            rec["verdict"], rec["reason"] = oracle.classify(rec["item"], rec["reply"], sample_cache)
    return records


def _report(records, label):
    """One stderr line per item that did not pass, grouped by reason."""
    reasons = {}
    for rec in records:
        if rec["verdict"] != "ok":
            key = f"{rec['verdict']}: {rec['reason'][:70]}"
            reasons.setdefault(key, []).append(rec["item"]["id"])
    ok = sum(rec["verdict"] == "ok" for rec in records)
    print(f"[{label}] {ok}/{len(records)} verified, "
          f"{sum(r['charged_s'] for r in records):.3f} s charged", file=sys.stderr)
    for key, ids in sorted(reasons.items()):
        print(f"  {len(ids):4d} x {key}  (e.g. {ids[0]})", file=sys.stderr)


def end_to_end(workload, items, seconds, env, log):
    sample_cache = {}
    setup = []
    for _ in range(SPEC["setup_repeats"] - 1):
        probe = Worker(env, [], log)
        setup.append(probe.import_s)
        probe.quit()
    session = Session(env, [], log)
    setup.append(session.start())
    records = []
    # Whole passes only, so that every item has the same number of repeats.
    # Each pass starts in a fresh worker, so that its memory does not
    # depend on whether an item of the last pass was killed.
    passes = max(1, round(seconds / SPEC["nominal_pass_s"][workload]))
    try:
        for p in range(passes):
            if p:
                session.close()
            batch = run_batch(session, items, sample_cache)
            _report(batch, f"{workload} pass {p + 1} of {passes}")
            records += batch
    finally:
        session.close()
    by_item = {}
    for rec in records:
        by_item.setdefault(rec["item"]["id"], []).append(rec)
    # An item's time is the fastest of its repeats.  Other load on a shared
    # host only ever adds time, and it comes and goes over tens of seconds,
    # so the fastest repeat is the steadiest estimate of the item's own
    # cost.  A killed repeat is charged the limit, a failed one its time.
    solved = sum(statistics.fmean(r["verdict"] == "ok" for r in recs) for recs in by_item.values())
    item_s = sum(min(r["charged_s"] for r in recs) for recs in by_item.values())
    metrics = {
        "solved_per_s": (solved / item_s, "1/s"),
        "verified_ratio": (solved / len(by_item), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (session.peak_rss_mb, "MB"),
    }
    return records, metrics


def _pool_workers(item):
    argv = item.get("argv", [])
    if not argv or argv[0] != "mldegree":
        return 0
    cells = len(item["expect"]["cells"])
    return min(WORKERS, cells)


def per_layer(workload, items, env, log):
    sample_cache = {}
    has_pool = any(_pool_workers(it) for it in items)

    def one_pass(flags):
        session = Session(env, flags, log)
        try:
            batch = run_batch(session, items, sample_cache)
        finally:
            session.close()
        _report(batch, f"{workload} {' '.join(flags) or 'untraced'}")
        return batch

    untraced = one_pass([])
    pool_cpu = pool_capacity = 0.0
    for rec in untraced:
        workers = _pool_workers(rec["item"])
        if workers and rec["reply"] is not None:
            pool_cpu += rec["reply"]["child_cpu_s"]
            pool_capacity += rec["reply"]["elapsed_s"] * workers
    # Cells run serially in the traced pass, so the reference for the
    # tracing overhead is an untraced serial pass when the workload has a pool.
    reference = one_pass(["--serial-pool"]) if has_pool else untraced
    traced = one_pass(["--trace", "--serial-pool"])

    all_spans = []
    calls, total, self_s, counts, maxima = {}, {}, {}, {}, {}
    remainder = 0.0
    timed_out = 0
    for rec in traced:
        item, reply = rec["item"], rec["reply"]
        is_mldegree = item.get("argv", [""])[0] == "mldegree"
        if reply is None:
            timed_out += len(item["expect"]["cells"]) if is_mldegree else 0
            continue
        if is_mldegree:
            timed_out += oracle.timed_out_cells(item, reply)
        tr = reply.pop("trace")
        c, t, s, root_s = spans.summarize(tr["spans"])
        remainder += reply["elapsed_s"] - root_s
        all_spans += [[item["id"], *span] for span in tr["spans"]]
        for name in c:
            calls[name] = calls.get(name, 0) + c[name]
            total[name] = total.get(name, 0.0) + t[name]
            self_s[name] = self_s.get(name, 0.0) + s[name]
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in tr["maxima"].items():
            maxima[k] = max(v, maxima.get(k, v))

    def wall(batch):
        return sum(r["charged_s"] for r in batch)

    parse_s = self_s.get("linalg.parse_matrix", 0.0)
    sweeps = counts.get("solvers.flipflop.sweeps", 0)
    metrics = {}
    for name in ("linalg.parse_matrix", "linalg.Matrix.solve", "linalg.Matrix.det",
                 "linalg.Matrix.is_positive_definite", "linalg.cholesky",
                 "model.scatter_k2", "model.scatter_k1", "model.kron_loglik",
                 "model.parse_sample_set", "canonical.canonicalize",
                 "canonical.det_reduction_check", "solvers.exact_mle_k1",
                 "poly.poly_gcd", "poly.poly_det", "groebner.buchberger",
                 "groebner.normal_form", "mldegree.score_polynomials",
                 "mldegree.count_solutions_off_locus", "mldegree.ml_multiplicity_prop43",
                 "cli.main.mle", "cli.main.verify-lemma", "cli.main.mldegree",
                 "cli.main.multiplicity"):
        metrics[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("linalg.cholesky", "model.scatter_k2", "model.scatter_k1", "poly.poly_gcd"):
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
    metrics.update({
        "linalg.parse_matrix.mb_per_s": (
            counts.get("linalg.parse_matrix.bytes", 0) / 1e6 / parse_s if parse_s else 0.0, "MB/s"),
        "linalg.max_coeff_bits": (maxima.get("linalg.max_coeff_bits", 0), "bits"),
        "model.scatter.gflop_computed": (counts.get("model.scatter.flop", 0) / 1e9, "Gflop"),
        "solvers.flipflop.sweeps": (sweeps, "count"),
        "solvers.flipflop.unconverged": (counts.get("solvers.flipflop.unconverged", 0), "count"),
        "solvers.sweep_ms": (
            1e3 * total.get("solvers.flipflop", 0.0) / sweeps if sweeps else 0.0, "ms"),
        "poly.score_coeff_bits": (maxima.get("poly.score_coeff_bits", 0), "bits"),
        "groebner.basis_size": (counts.get("groebner.basis_size", 0), "count"),
        "groebner.quotient_dim": (counts.get("groebner.quotient_dim", 0), "count"),
        "mldegree.cells_timed_out": (timed_out, "count"),
        "cli.pool_cpu_s": (pool_cpu, "s"),
        "cli.pool_busy_ratio": (pool_cpu / pool_capacity if pool_capacity else 0.0, "ratio"),
        "trace.untraced_remainder_s": (remainder, "s"),
        "trace.overhead_s": (wall(traced) - wall(reference), "s"),
        "trace.traced_wall_s": (wall(traced), "s"),
        "trace.untraced_wall_s": (wall(reference), "s"),
    })
    # The solve rate of each part, from the untraced pass; 0 for the parts
    # of the other workload.
    for part in gen.PARTS:
        recs = [r for r in untraced if r["item"]["part"] == part]
        metrics[f"part.{part}.solved_per_s"] = (
            sum(r["verdict"] == "ok" for r in recs) / wall(recs) if recs else 0.0, "1/s")
    return untraced + ([] if reference is untraced else reference) + traced, metrics, all_spans


def _set_subreaper():
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "kronmle" / "__init__.py").is_file():
        print(f"error: no kronmle package under {ROOT / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    # Let SIGTERM unwind through the finally blocks that stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _set_subreaper()
    env = pinned_env()
    base = ROOT / ".perfbench_run"
    run_dir = base / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        items = gen.generate(args.workload, args.seed, run_dir / "inputs")
        with open(run_dir / "worker.log", "w") as log:
            if args.trace:
                records, metrics, all_spans = per_layer(args.workload, items, env, log)
                spans_path = base / f"spans-{args.workload}-{args.seed}.jsonl"
                with open(spans_path, "w") as fh:
                    for s in all_spans:
                        fh.write(json.dumps(s) + "\n")
                print(f"spans written to {spans_path}", file=sys.stderr)
            else:
                records, metrics = end_to_end(args.workload, items, args.seconds, env, log)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        log_path = run_dir / "worker.log"
        if log_path.exists():
            sys.stderr.write(log_path.read_text()[-4000:])
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(r["verdict"] != "ok" for r in records)
    result = {
        "correct": not any(r["verdict"] == "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

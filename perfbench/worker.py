"""Workload process: imports kronmle, then runs items sent by the runner.

Started by ``run.py`` in its own session, so that the runner can kill it
together with its process pool when an item hits its limit.  Requests and
replies are JSON lines: requests on stdin, replies on the stdout file
descriptor the worker inherited.  Inside an item, ``sys.stdout`` and
``sys.stderr`` are captured, and file descriptor 1 points at stderr, so
nothing the program prints can corrupt the protocol.

    python3 perfbench/worker.py [--trace] [--serial-pool]

``--trace`` wraps the public functions of every kronmle layer (see
spans.py) and returns the spans recorded during each item with its reply.
``--serial-pool`` replaces the CLI's process pool by an in-process loop, so
mldegree cells run serially in the worker and their spans are kept.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _rusage_children():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    """Peak RSS of this process plus the largest peak of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class SerialExecutor:
    """Stand-in for ProcessPoolExecutor that maps in the calling process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return [fn(x) for x in iterable]


def _exact_payload(est):
    def fmt(m):
        return [[f"{x.numerator}/{x.denominator}" for x in row] for row in m.data]

    return {"k1_exact": fmt(est.k1_exact), "k2_exact": fmt(est.k2_exact)}


def main():
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply_with(msg):
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    trace = "--trace" in sys.argv[1:]
    serial = "--serial-pool" in sys.argv[1:]

    t0 = time.perf_counter()
    import kronmle  # noqa: F401  (the import is what set-up measures)
    import kronmle.cli
    import kronmle.model
    import kronmle.solvers
    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        import spans  # this script's directory is first on sys.path

        tracer = spans.Tracer()
        spans.install(tracer)
    if serial:
        kronmle.cli.ProcessPoolExecutor = SerialExecutor

    reply_with({"ready": True, "import_s": import_s, "pid": os.getpid()})

    for line in sys.stdin:
        req = json.loads(line)
        if req.get("op") == "quit":
            break
        reply = {"id": req["id"]}
        exact_sample = None
        if req["call"] == "exact":
            with open(req["sample"]) as fh:
                exact_sample = kronmle.model.parse_sample_set(fh.read(), exact=True)
            if tracer is not None:
                tracer.drain()  # the parse is outside the timed call
        out, err = io.StringIO(), io.StringIO()
        cpu0 = _rusage_children()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if req["call"] == "cli":
                    reply["exit"] = kronmle.cli.main(req["argv"])
                else:
                    est = kronmle.solvers.exact_mle_k1(exact_sample)
                    reply.update(_exact_payload(est))
        except Exception as exc:  # the item's outcome, classified by the runner
            reply["exception"] = type(exc).__name__
            reply["traceback"] = traceback.format_exc()[-2000:]
        reply["elapsed_s"] = time.perf_counter() - start
        reply["child_cpu_s"] = _rusage_children() - cpu0
        reply["stdout"] = out.getvalue()[-20000:]
        reply["stderr"] = err.getvalue()[-2000:]
        reply["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            reply["trace"] = tracer.drain()
        reply_with(reply)


if __name__ == "__main__":
    main()

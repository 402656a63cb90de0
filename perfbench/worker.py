"""Runs one workload in a fresh interpreter: a closed loop with one client
that calls tannakit.cli.run on one job after another, passes over the job
list until the time budget is spent, and checks every answer.

Usage (from the checkout root; run.py starts it):
    python3 perfbench/worker.py --jobs JOBS.json --seconds S --trace 0|1
        --out RESULT.json [--spans SPANS.json]

Only the cli.run call of a job is timed; checking happens between jobs.
Around every job the worker also times `reference()`, a fixed piece of
Fraction arithmetic that does not touch tannakit, so run.py can tell how
fast the machine was while each pass ran.  With --trace 1 plain and traced
passes alternate, so the per-layer numbers and the tracing overhead come
from the same process.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def reference():
    """Seconds taken by a fixed 3 ms (at full speed) piece of Fraction
    arithmetic, the same kind of work tannakit does."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def run_job(cli, job, tracer):
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.run(job["argv"])
            else:
                code = tracer.run_job(job["id"], cli.run, job["argv"])
    except SystemExit as e:             # argparse rejects a flag
        code = e.code
    except Exception as e:              # a traceback escaping cli.run
        exc = "%s: %s" % (type(e).__name__, str(e)[:160])
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue(), exc


def run_pass(cli, check, jobs, tracer, root):
    """One record per job: id, command, seconds, status, reason, and the
    reference times just before and just after the job."""
    records = []
    for job in jobs:
        # Each CLI call starts with a fresh heap; collecting the previous
        # job's garbage here keeps that cost out of the next job's time.
        gc.collect()
        before = reference()
        secs, code, out, err, exc = run_job(cli, job, tracer)
        after = reference()
        status, reason = check.check_job(job, code, out, err, exc, root)
        records.append([job["id"], job["command"], secs, status, reason,
                        before, after])
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from tannakit import cli
    import check
    from tracer import Tracer

    with open(args.jobs, "r", encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = Tracer() if args.trace else None
    # A pass is started only if the passes so far, plus one more of their
    # mean length, fit in 1.25 x the budget; at least one pass (one plain
    # and one traced pass with --trace 1) always runs.
    unit = 2 if tracer else 1
    passes = []
    elapsed = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.reset_counts()
            tracer.install()
        try:
            records = run_pass(cli, check, jobs, tracer if traced else None,
                               root)
        finally:
            if traced:
                tracer.uninstall()
        entry = {"mode": "traced" if traced else "plain", "jobs": records}
        if traced:
            entry["layers"] = tracer.summary(tracer.spans[first_span:])
            entry["counts"] = dict(tracer.counts)
        passes.append(entry)
        elapsed += sum(r[2] for r in records)
        if len(passes) % unit:
            continue
        mean = elapsed / len(passes)
        if elapsed >= args.seconds or \
                elapsed + unit * mean > 1.25 * args.seconds:
            break

    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tannakit": os.path.relpath(sys.modules["tannakit"].__file__, root),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

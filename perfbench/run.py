"""The tannakit benchmark.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload sweep-d2 --seed 1 --seconds 25 \
        --trace 0

--workload is one of sweep-d2, regularity-d3, presentations-d3, or `all`
(each in turn).  The seed generates the workload's spec files; the program
only sees those files and the flags of each job.  Load is a closed loop
with one client in one single-threaded process, standing in for a script
that runs one CLI job after another; each workload runs in its own fresh
child process.  Times are converted to a nominal machine speed (see
nominal()); perfbench/README.md describes the method and the metrics.

With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (plus the tracing overhead).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  `correct` is false when a job exits 0 with a wrong answer;
jobs with a wrong exit code or an exception count as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import COMMANDS, WORKLOADS, generate, spec_paths  # noqa: E402
from tracer import ROOT, TARGETS  # noqa: E402

OUT = ".perfbench"
SETUP_TRIALS = 15
# Seconds reference() takes at the nominal speed that every reported time
# is converted to; about its time on an idle core of a 2.0 GHz Xeon VM
# (see nominal()).
REFERENCE_S = 0.003
CHILD_TIMEOUT = 170

END_TO_END = [
    ("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("job_p50_s", "s"),
    ("job_tail_s", "s"), ("peak_rss_mb", "MiB"), ("fail_ratio", "share"),
] + [("cmd.%s_s" % c, "s") for c in COMMANDS]

# Per-layer metrics: self seconds per pass of every wrapped function, call
# counts where duplicate work shows, and counts taken from arguments and
# return values.
PER_LAYER = [("%s.%s.s" % t, "s") for t in TARGETS] + [(ROOT + ".s", "s")] + [
    ("quadalg.relation_spaces.calls", "count"),
    ("quadalg.graded_dims.calls", "count"),
    ("quadalg.as_regular_check.calls", "count"),
    ("exactlin.rref.calls", "count"),
    ("exactlin.rref.cells", "count"),
    ("exactlin.rref.max_cols", "cols"),
    ("exactlin.rref.rank_ratio", "share"),
    ("ncpoly.span_equal.calls", "count"),
    ("ncpoly.rewrite_reduce.calls", "count"),
    ("ncpoly.rewrite_reduce.passes", "count"),
    ("ncpoly.rewrite_reduce.decided_ratio", "share"),
    ("coendc.compile_coend.relations", "count"),
    ("comodrep.StructureContext.calls", "count"),
    ("comodrep.incoming_image_sum.calls", "count"),
    ("moncat.leq.calls", "count"),
    ("trace.overhead_s", "s"),
]


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def nominal(secs, ref):
    """secs measured while reference() took ref seconds, converted to the
    nominal speed at which reference() takes REFERENCE_S.  Other tenants of
    a shared machine can slow everything in a run down by up to 2x for
    minutes at a time; the reference, timed in the same process just
    before and after each job, slows down with it."""
    return secs * REFERENCE_S / ref


def job_costs(passes, mode):
    """Per job of the given pass mode: the median over passes of its time
    at nominal speed, its command, and whether every run of it was ok."""
    times, command, ok = {}, {}, {}
    for p in passes:
        if p["mode"] != mode:
            continue
        for job_id, cmd, secs, status, _, before, after in p["jobs"]:
            times.setdefault(job_id, []).append(
                nominal(secs, (before + after) / 2))
            command[job_id] = cmd
            ok[job_id] = ok.get(job_id, True) and status == "ok"
    return ({j: statistics.median(t) for j, t in times.items()}, command,
            ok)


def _pass_reference(p):
    return statistics.mean(x for r in p["jobs"] for x in r[5:7])


def end_to_end(passes, setup_s, peak_rss_mb):
    """Metrics of one pass over the job list in which every job takes its
    cost from job_costs."""
    cost, command, ok = job_costs(passes, "plain")
    times = list(cost.values())
    value, pct, beyond = tail(times)
    plain = [p for p in passes if p["mode"] == "plain"]
    runs = [r for p in plain for r in p["jobs"]]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": sum(ok.values()) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": sum(r[3] != "ok" for r in runs) / len(runs),
    }
    for c in COMMANDS:
        metrics["cmd.%s_s" % c] = sum(t for j, t in cost.items()
                                      if command[j] == c)
    raw = statistics.median(sum(r[2] for r in p["jobs"]) for p in plain)
    notes = ["job_tail_s is p%.2f of %d jobs (%d beyond it)"
             % (pct, len(times), beyond),
             "%d passes; pass time %.3f s as measured (median), %.3f s at "
             "nominal speed; reference() took %s ms" % (
                 len(plain), raw, sum(times),
                 " ".join("%.2f" % (1e3 * _pass_reference(p))
                          for p in plain))]
    return metrics, notes


def _layer_metrics(p):
    """Per-layer metrics of one traced pass."""
    layers, counts = p["layers"], p["counts"]
    metrics = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("s", "calls"):
            metrics[name] = layers.get(base, {}).get(field, 0)
    rw_calls = layers.get("ncpoly.rewrite_reduce", {}).get("calls", 0)
    for key in ("exactlin.rref.cells", "exactlin.rref.max_cols",
                "ncpoly.rewrite_reduce.passes",
                "coendc.compile_coend.relations"):
        metrics[key] = counts[key]
    metrics["exactlin.rref.rank_ratio"] = (
        counts["exactlin.rref.rank_out"] / counts["exactlin.rref.rows_in"]
        if counts["exactlin.rref.rows_in"] else 0.0)
    metrics["ncpoly.rewrite_reduce.decided_ratio"] = (
        counts["ncpoly.rewrite_reduce.zero"] / rw_calls if rw_calls else 0.0)
    return metrics


def per_layer(passes):
    """Medians over the traced passes, self times at nominal speed; the
    overhead compares the job costs with and without tracing."""
    per_pass = []
    for p in passes:
        if p["mode"] == "traced":
            ref = _pass_reference(p)
            per_pass.append({k: nominal(v, ref) if k.endswith(".s") else v
                             for k, v in _layer_metrics(p).items()})
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    plain = sum(job_costs(passes, "plain")[0].values())
    traced = sum(job_costs(passes, "traced")[0].values())
    metrics["trace.overhead_s"] = traced - plain
    notes = ["%d traced passes; pass cost %.3f s plain, %.3f s traced"
             % (len(per_pass), plain, traced)]
    return metrics, notes


def _child(argv, timeout):
    return subprocess.run([sys.executable, "-E", "-s"] + argv,
                          capture_output=True, text=True, timeout=timeout)


def measure_setup(specs):
    """Median over fresh interpreters, after one warm-up that may also
    compile the bytecode cache; each trial at nominal speed, using the
    reference timed in the same interpreter right after it."""
    trials = []
    for k in range(SETUP_TRIALS + 1):
        proc = _child([os.path.join(HERE, "setup_probe.py")] + specs, 60)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        if k:
            secs, ref = proc.stdout.split()
            trials.append(nominal(float(secs), float(ref)))
    return statistics.median(trials)


def run_workload(workload, seed, seconds, trace):
    outdir = os.path.join(OUT, "%s-s%d" % (workload, seed))
    jobs = generate(workload, seed, outdir)
    jobs_path = os.path.join(outdir, "jobs.json")
    setup_s = measure_setup(spec_paths(jobs))
    result_path = os.path.join(outdir, "result-trace%d.json" % trace)
    argv = [os.path.join(HERE, "worker.py"), "--jobs", jobs_path,
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", result_path]
    if trace:
        argv += ["--spans", os.path.join(outdir, "spans.json")]
    proc = _child(argv, CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("workload process failed:\n" + proc.stderr)
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    passes = result["passes"]
    records = [r for p in passes for r in p["jobs"]]
    if trace:
        metrics, notes = per_layer(passes)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(passes, setup_s, result["peak_rss_mb"])
        units = dict(END_TO_END)
    failures = {}
    for r in records:
        if r[3] != "ok":
            failures.setdefault(r[0], (r[3], r[4]))
    return {
        "correct": not any(r[3] == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r[3] != "ok" for r in records),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "notes": notes + ["tannakit imported from %s" % result["tannakit"]],
        "failures": failures,
    }


def report(workload, res):
    print("== %s: %d jobs attempted, %d failed, answer check %s"
          % (workload, res["attempted"], res["failed"],
             "PASS" if res["correct"] else "FAIL (wrong answers)"))
    for name, m in res["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for note in res["notes"]:
        print("  note: " + note)
    for job_id, (status, reason) in sorted(res["failures"].items()):
        print("  %s: %s: %s" % (status, job_id, reason))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/tannakit/cli.py", "tests/golden"):
        if not os.path.exists(need):
            print("error: run from the root of a tannakit checkout (%s is "
                  "missing)" % need, file=sys.stderr)
            return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in workloads}
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    for w, res in results.items():
        report(w, res)
    if len(results) == 1:
        metrics = res["metrics"]
    else:
        metrics = {"%s/%s" % (w, k): m for w, res in results.items()
                   for k, m in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

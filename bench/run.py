"""coxkit benchmark runner.

    python3 bench/run.py --workload growth|census|queries --seed N \
        --seconds S --trace 0|1

Run from the root of a coxkit checkout; the library is imported from
src/ as is, so there is nothing to build.  The seed goes to the job
generator (workloads.py) only; coxkit sees nothing but the generated
argv lists.

With --trace 0 the run repeats passes over the job list, each in a
fresh worker process, until --seconds have gone by, and always makes an
odd number of passes, at least three.  Each job's latency is its median
over the passes; `wall_s` is the sum of those medians and the latency
quantiles are taken over them (see end_to_end), so one pass slowed by
the host moves nothing.  Before each pass it times a few fresh interpreters importing
coxkit.cli and building its parser; `setup_s` is the median of all of
them.  With --trace 1 it makes passes in the order untraced, traced,
untraced, and reports the per-layer metrics of spans.py from the traced
pass with the tracing overhead: the traced pass time over the mean of
the untraced ones.

Every job's output is checked outside the timed region (check.py).  A
job fails when it raises, exits non-zero, prints a wrong answer, runs
past its time limit, or prints something else on a later pass.  The
known wrong answers of known_defects.json are not in the job lists;
they are run and checked after the passes and reported on stderr.  A
human-readable report goes to stderr; the last line of stdout is the
JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

SETUP_SPAWNS_PER_PASS = 3
MIN_PASSES = 3
# Passes of a traced run: untraced ones before and after, so that a
# steady drift of host speed cancels out of the overhead.
TRACE_ORDER = (False, True, False)
JOB_LIMIT_S = 30.0
# Past the first MIN_PASSES, two more passes start only while they can
# end inside this budget, which keeps a run, checks included, well
# inside three minutes.
PASS_BUDGET_S = 120.0

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
]


def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup():
    """Wall time of one fresh interpreter importing coxkit.cli and
    building the parser."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import coxkit.cli; coxkit.cli.build_parser()")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC], check=True, cwd=ROOT,
                   env=worker_env(), stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_pass(jobs, trace, deadline_s):
    """One pass in a fresh worker process; returns the worker's report
    with the per-job results under "jobs"."""
    request = json.dumps({"jobs": jobs, "trace": trace, "job_limit_s": JOB_LIMIT_S,
                          "deadline_s": deadline_s})
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py")], cwd=ROOT,
                            env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(request.encode(), timeout=deadline_s + JOB_LIMIT_S + 30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish")
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    lines = out.decode().splitlines()
    report = json.loads(lines[-1])
    report["jobs"] = [json.loads(line) for line in lines[:-1]]
    return report


def find_failures(jobs, passes):
    """Map job index -> cause, over every pass."""
    from check import Checker
    checker = Checker()
    failures = {}
    first = passes[0]["jobs"]
    for i, argv in enumerate(jobs):
        res = first[i]
        if res["status"] != "ok":
            failures[i] = res["status"]
            continue
        reason = checker.check(argv, res["stdout"])
        if reason:
            failures[i] = "wrong output: " + reason
    for p in passes[1:]:
        for i, res in enumerate(p["jobs"]):
            if i not in failures and (res["status"] != "ok" or res["stdout"] != first[i]["stdout"]):
                failures[i] = "pass differs: " + res["status"]
    return failures


def probe_known_defects(workload):
    """Runs and checks the known wrong answers of known_defects.json
    that belong to this workload, outside every timed pass.  They are
    reported on stderr and never count as failed jobs."""
    from check import Checker
    with open(os.path.join(BENCH, "known_defects.json")) as fh:
        jobs = [d["job"] for d in json.load(fh)["defects"] if d["workload"] == workload]
    if not jobs:
        return []
    checker = Checker()
    lines = []
    for argv, res in zip(jobs, run_pass(jobs, False, PASS_BUDGET_S)["jobs"]):
        cause = res["status"] if res["status"] != "ok" else checker.check(argv, res["stdout"])
        lines.append("  known defect %s: %s\n" % (
            " ".join(argv), "still wrong: " + cause[:300] if cause
            else "now passes its check; move it into the workload"))
    return lines


def end_to_end(passes, setup_times, failures):
    """Each job's latency is its median over the passes.  The quantiles
    are means of neighbouring ranks, so that two jobs of different cost
    trading places around a quantile move it little: `job_p50_ms` is the
    mean of the nine latencies around the median, and `job_tail_ms` that
    of the 11th to 15th highest, each of which has ten jobs beyond it."""
    n = len(passes[0]["jobs"])
    per_job = [statistics.median(p["jobs"][i]["seconds"] for p in passes) for i in range(n)]
    ranked = sorted(per_job)
    mid = n // 2
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(per_job),
        "job_p50_ms": statistics.mean(ranked[mid - 4:mid + 5]) * 1000.0,
        "job_tail_ms": statistics.mean(ranked[n - 15:n - 10]) * 1000.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (n - len(failures)) / n,
    }
    tail_note = "ranks p%.0f-p%.0f of %d jobs" % (100.0 * (n - 14) / n, 100.0 * (n - 10) / n, n)
    return metrics, tail_note


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (os.path.join(SRC, "coxkit", "cli.py"), os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(need):
            sys.stderr.write("error: %s not found; run from a coxkit checkout\n" % need)
            return 2
    sys.path[1:1] = [SRC, TESTS]
    from spans import METRICS
    from workloads import WORKLOADS, make_jobs
    if args.workload not in WORKLOADS:
        sys.stderr.write("error: unknown workload %r\n" % args.workload)
        return 2

    jobs = make_jobs(args.workload, args.seed)
    log = sys.stderr.write
    if args.trace:
        passes = [run_pass(jobs, trace, PASS_BUDGET_S) for trace in TRACE_ORDER]
    else:
        time_setup()  # writes the bytecode
        setup_times = []
        started = time.perf_counter()
        passes = []
        while True:
            setup_times += [time_setup() for _ in range(SETUP_SPAWNS_PER_PASS)]
            spent = time.perf_counter() - started
            passes.append(run_pass(jobs, False, PASS_BUDGET_S - spent))
            spent = time.perf_counter() - started
            longest = max(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and len(passes) % 2 and (
                    spent >= args.seconds or spent + 2 * longest > PASS_BUDGET_S):
                break
    failures = find_failures(jobs, passes)
    log("workload %s, seed %d: %d jobs, %d pass(es)\n"
        % (args.workload, args.seed, len(jobs), len(passes)))
    log("  %-14s %12.4f ratio\n" % ("failed_frac", len(failures) / len(jobs)))
    for i, cause in sorted(failures.items()):
        log("  FAILED %s: %s\n" % (" ".join(jobs[i]), cause[:300]))
    for line in probe_known_defects(args.workload):
        log(line)

    if args.trace:
        traced = passes[1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = traced["wall_s"] / statistics.mean(
            p["wall_s"] for p, t in zip(passes, TRACE_ORDER) if not t)
        units = dict(METRICS + [("trace.overhead", "ratio")])
        for name, unit in units.items():
            log("  %-26s %14.6g %s\n" % (name, metrics[name], unit))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "layers": metrics,
                       "jobs": [{"argv": argv, "spans": spans}
                                for argv, spans in zip(jobs, traced["spans"])]}, fh, indent=1)
        log("  spans written to %s\n" % os.path.relpath(path, ROOT))
    else:
        metrics, tail_note = end_to_end(passes, setup_times, failures)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            log("  %-14s %12.4f %s%s\n" % (name, metrics[name], unit,
                                           "  (%s)" % tail_note if name == "job_tail_ms" else ""))

    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass over a job list, in a fresh process.

Reads a JSON request on stdin: {"jobs": [argv, ...], "trace": bool,
"job_limit_s": float, "deadline_s": float}.  Each job runs in-process
through coxkit.cli.main(argv) with stdout captured, one after the other
(one client, closed loop).  A job that runs past job_limit_s is stopped
by SIGALRM and reported as a timeout; jobs not started by deadline_s
are reported as skipped.  Writes one JSON line to stdout per job, as
soon as the job ends, with its latency, status and output, so that no
output stays in this process's memory and `peak_rss_mb` is coxkit's.
A last line holds the pass wall time, the process's peak RSS and, when
traced, the per-layer spans.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time


class JobTimeout(Exception):
    """Raised inside a job that ran past its time limit."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_one(main, argv, limit_s, tracer):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.run_job(main, argv) if tracer else main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok" if code == 0 else "exit %s: %s" % (code, err.getvalue().strip())
    except JobTimeout:
        status = "timeout after %g s" % limit_s
    except SystemExit as exc:
        status = "exit %s: %s" % (exc.code, err.getvalue().strip())
    except Exception as exc:
        status = "raised %s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return {"argv": argv, "seconds": seconds, "status": status, "stdout": out.getvalue()}


def main():
    request = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from coxkit import cli

    tracer = None
    if request["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    for argv in request["jobs"]:
        if time.perf_counter() - start > request["deadline_s"]:
            result = {"argv": argv, "seconds": 0.0, "status": "skipped: run deadline",
                      "stdout": ""}
            if tracer:
                tracer.jobs.append({})
        else:
            result = run_one(cli.main, argv, request["job_limit_s"], tracer)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    wall = time.perf_counter() - start
    report = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["layers"] = tracer.report()
        report["spans"] = tracer.jobs
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()

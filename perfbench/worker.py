"""Workload process: set up one workload, run its timed jobs in a closed
loop (one client, the next job starts when the previous one returns), and
print a JSON summary as the last line of standard output.

run.py starts it with ``PERFBENCH_T0`` set to the monotonic time at spawn.
Set-up time, from the spawn to the first timed job, covers interpreter
start, imports, algebra tables, standard builders and input files.  With
``--setup-only`` it stops before the first job and reports only its set-up
time.  ``--first-round`` lets run.py split one run's rounds over several
workers without changing the job orders.

An untraced worker also times the reference loops (reference.py) after
set-up and between jobs, outside the job times, so that run.py can take
out the host's changing speed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import signal
import sys
import time

T0 = float(os.environ["PERFBENCH_T0"])

import bhfi.cli      # noqa: E402  (the import is part of the measured set-up)

IMPORTED = time.monotonic()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference     # noqa: E402
import tracer        # noqa: E402
import workloads     # noqa: E402  (binds no function the tracer wraps)

SETUP_REFS = 3       # reference loop samples right after set-up


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--first-round", type=int, default=0,
                   help="index of the first round; it picks the job order")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True,
                   help="scratch directory for inputs and span files")
    p.add_argument("--last-start", type=float, default=float("inf"),
                   help="monotonic time after which no job is started")
    return p.parse_args(argv)


def _raise_timeout(signum, frame):
    raise workloads.JobTimeout


@contextlib.contextmanager
def budget(timeout_s, cap_mb):
    """Wall timeout and address-space cap around one in-process job."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = cap_mb << 20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        signal.signal(signal.SIGALRM, previous)


def run_job(job):
    """(seconds, error or None).  Failures are recorded, never dropped."""
    t = time.perf_counter()
    answer, error = None, None
    try:
        if job.in_child:
            answer = job.run(job.timeout_s, job.cap_mb)
        else:
            with budget(job.timeout_s, job.cap_mb):
                answer = job.run()
    except workloads.JobTimeout:
        error = f"timed out at {job.timeout_s:g} s"
    except MemoryError:
        error = f"memory cap at {job.cap_mb} MB"
    except Exception as exc:          # a failed job must not end the run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t
    if error is None:
        try:
            error = job.check(answer)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            error = f"unreadable answer: {type(exc).__name__}: {exc}"
    return elapsed, error


def main(argv=None):
    args = parse_args(argv)
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.span(tracer.IMPORT_SPAN, T0, IMPORTED)
        tr.install()

    span_dir = os.path.join(args.workdir, "spans")
    os.makedirs(span_dir, exist_ok=True)

    def sample():
        return None if args.trace else reference.sample(args.workload)

    ctx = workloads.Context(trace=bool(args.trace),
                            workdir=os.path.join(args.workdir, "inputs"),
                            span_dir=span_dir)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, ctx)
        out = {"setup_s": time.monotonic() - T0}
        out["setup_refs"] = [sample() for _ in range(SETUP_REFS)]
        if args.setup_only:
            print(json.dumps(out))
            return 0
        # [name, seconds or None, error or None,
        #  reference loops' seconds before and after the job, or None]
        results = []
        before = sample()
        for r in range(args.first_round, args.first_round + args.rounds):
            order = list(jobs)
            random.Random(f"order-{args.seed}-{r}").shuffle(order)
            for job in order:
                if time.monotonic() > args.last_start:
                    results.append([job.name, None, "not started: deadline",
                                    None, None])
                    continue
                seconds, error = run_job(job)
                after = sample()
                results.append([job.name, seconds, error, before, after])
                before = after
        end = time.monotonic()
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(jobs=results, peak_rss_mb=(own + children) / 1024.0)
    if tr is not None:
        own_file = os.path.join(span_dir, f"{os.getpid()}.jsonl")
        tr.write(own_file)
        files = [os.path.join(span_dir, f) for f in sorted(os.listdir(span_dir))]
        spans, counters = tracer.read_spans(files)
        out["window_s"] = end - T0
        out["layers"] = tracer.layer_metrics(spans, counters, end - T0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

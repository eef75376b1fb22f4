"""The bhfi benchmark: one seeded workload, checked answers, named metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see workloads.py for why each was chosen): ``structures-g2``
and ``cli-cold``, listed in BENCHMARK.json, and ``ladder``, which does not
fit the time the benchmark may take yet (see excluded.json).  Each is a
closed loop with one client: rounds of all its jobs in a seeded order, the
next job starting when the previous one returns.  The number of rounds, at least
one, is the number of nominal round times that fit in ``--seconds``; the
nominal times were measured on a 2-core x86-64 VM.  Two runs with the
same arguments thus do the same work, and a slower machine makes a run
longer, not lighter.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: jobs per second (executions over their summed times), the
median job latency (over the jobs, each at its median over the rounds),
the tail latency (over the executions, each at its job's median), set-up
time, peak resident memory and the share of jobs that passed their checks.
With ``--trace 1`` it carries the per-layer metrics of a traced run of the
same jobs.  The line before it gives the details: the tail percentile with the
number of executions and of distinct jobs beyond it, the failed jobs, and
for a traced run the traced wall time that the layer self times add up to.

The host's speed changes by up to a factor of two for seconds to minutes
at a time, more than the bounds allow, and a run cannot outlast it.  So
every time an untraced run reports is scaled to a host of nominal speed:
the worker times a fixed reference loop between jobs (reference.py), and
each job's time is multiplied by the loop's nominal time over the mean of
its times right before and after the job, and each set-up time by the
nominal time over the median of the loop's times right after that set-up.
The detail line gives the unscaled figures and the host's speed beside
them.  Traced runs are not scaled.

Also, an untraced run spreads its samples over its length: it splits its
rounds over ``MEASURED_WORKERS`` fresh worker processes, one after
another, and before each starts processes that stop before the first job.
Set-up is reported as the median of these ``SETUP_SAMPLES`` set-up times.
A traced run is one worker.  Round r orders its jobs by the seed and r
alone, so the split does not change the work.  Every process runs with
``PYTHONHASHSEED=0``, so a seed fixes the work done and a traced run's
counts repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

# Seconds per round of each workload's jobs, measured untraced.
NOMINAL_ROUND_S = {"ladder": 20.0, "structures-g2": 1.7, "cli-cold": 7.6}
MEASURED_WORKERS = 4       # untraced runs split their rounds over these
SETUP_SAMPLES = 9          # the measured workers and setup-only processes
RUN_LIMIT_S = 170.0        # the worker is killed after this
LAST_START_S = 100.0       # no job starts after this; job timeouts are <= 60 s
TAIL_BEYOND = 10           # executions beyond the tail percentile


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_worker(args, workdir, extra, deadline):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0",
               PERFBENCH_T0=repr(time.monotonic()))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, *extra]
    # Its own session, so that a timeout also stops the CLI children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark worker did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"benchmark worker failed with exit code "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def host_scaled(job, nominal_s):
    """[name, seconds at nominal host speed, error] of a job given as
    [name, seconds, error, loop before, loop after].  A job without loop
    samples (not started, or in a traced run) keeps its time."""
    name, seconds, error, before, after = job
    if seconds is None or before is None:
        return [name, seconds, error]
    return [name, seconds * nominal_s / ((before + after) / 2), error]


def job_medians(jobs):
    """{job: (median time over its rounds, executions)}.  Taking each job
    at its median over the rounds keeps the median and the tail from
    jumping with a few executions that a slow moment of the host hit."""
    times = {}
    for name, seconds, _ in jobs:
        if seconds is not None:
            times.setdefault(name, []).append(seconds)
    return {name: (statistics.median(ts), len(ts))
            for name, ts in times.items()}


def tail(medians):
    """(value, percentile, executions beyond, distinct jobs beyond): the
    highest percentile of the executions with TAIL_BEYOND executions beyond
    it, the maximum when there are too few.  Each execution counts at its
    job's median, so the tail is the median of one job, and a job run in
    every round can be the only one beyond it."""
    ordered = sorted(median for median, count in medians.values()
                     for _ in range(count))
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    value = ordered[rank - 1]
    jobs_beyond = sum(median > value for median, _ in medians.values())
    return value, 100.0 * rank / n, n - rank, jobs_beyond


def end_to_end(jobs):
    """Throughput and latencies of [name, seconds, error] jobs.  One client
    runs them one after another, so jobs per second is the executions over
    their summed times."""
    times = [seconds for _, seconds, _ in jobs if seconds is not None]
    medians = job_medians(jobs)
    tail_s, tail_pct, beyond, jobs_beyond = tail(medians)
    return {"jobs_per_s": len(times) / sum(times),
            "latency_p50_s": statistics.median(
                median for median, _ in medians.values()),
            "latency_tail_s": tail_s,
            "tail_percentile": round(tail_pct, 2),
            "tail_executions_beyond": beyond,
            "tail_distinct_jobs_beyond": jobs_beyond}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bhfi", "__init__.py")):
        sys.stderr.write("perfbench: no bhfi sources under src/ in "
                         f"{ROOT}\n")
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rounds = max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    if args.trace:
        workdir = os.path.join(WORKDIR, f"trace-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        # One worker, so that one span directory holds the whole run; a
        # traced run reports no set-up time, so it samples none.
        plan, extra = [rounds], 0
    else:
        workers = min(rounds, MEASURED_WORKERS)
        plan = [rounds // workers + (i < rounds % workers)
                for i in range(workers)]
        extra = SETUP_SAMPLES - workers

    setups = []                # [(seconds, loop samples right after)]

    def setup_sample(out):
        setups.append((out["setup_s"], out["setup_refs"]))
        return out

    runs, first = [], 0
    try:
        for i, n in enumerate(plan):
            before = extra // len(plan) + (i < extra % len(plan))
            for _ in range(before):
                setup_sample(start_worker(args, workdir, ["--setup-only"],
                                          deadline))
            runs.append(setup_sample(start_worker(
                args, workdir,
                ["--rounds", str(n), "--first-round", str(first),
                 "--trace", str(args.trace),
                 "--last-start", repr(started + LAST_START_S)], deadline)))
            first += n
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)

    nominal_s = reference.nominal_s(args.workload)
    jobs = [job[:3] for run in runs for job in run["jobs"]]
    scaled = [host_scaled(job, nominal_s)
              for run in runs for job in run["jobs"]]
    failed = [[name, error] for name, _, error in jobs if error is not None]
    raw, figures = end_to_end(jobs), end_to_end(scaled)
    refs = [r for run in runs for job in run["jobs"] for r in job[3:]
            if r is not None]
    detail = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "jobs": len(jobs), "tail_percentile": figures["tail_percentile"],
              "tail_executions_beyond": figures["tail_executions_beyond"],
              "tail_distinct_jobs_beyond": figures["tail_distinct_jobs_beyond"],
              "setup_samples_s": [s for s, _ in setups],
              "failed_jobs": failed, "failed_frac": len(failed) / len(jobs)}
    if args.trace:
        metrics = dict(runs[0]["layers"])
        metrics["trace.jobs_per_s"] = figures["jobs_per_s"]
        metrics["trace.wall_s"] = runs[0]["window_s"]
        detail["trace_dir"] = os.path.relpath(workdir, ROOT)
        units = {name: unit_of(name) for name in metrics}
    else:
        detail["host_speed"] = nominal_s / statistics.median(refs)
        detail["unscaled"] = {
            "jobs_per_s": raw["jobs_per_s"],
            "latency_p50_s": raw["latency_p50_s"],
            "latency_tail_s": raw["latency_tail_s"],
            "setup_s": statistics.median(s for s, _ in setups)}
        metrics = {
            "jobs_per_s": figures["jobs_per_s"],
            "latency_p50_s": figures["latency_p50_s"],
            "latency_tail_s": figures["latency_tail_s"],
            "setup_s": statistics.median(
                seconds * nominal_s / statistics.median(after)
                for seconds, after in setups),
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
            "ok_frac": 1.0 - len(failed) / len(jobs),
        }
        units = {"jobs_per_s": "1/s", "latency_p50_s": "s",
                 "latency_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "ok_frac": "fraction"}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(metric):
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

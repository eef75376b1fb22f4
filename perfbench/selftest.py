"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

For each workload (all three by default) it runs one round untraced and two
traced rounds with the same seed (``--seconds 1`` is shorter than any
round, so each run is one round), and checks that:

* every end-to-end and per-layer metric in BENCHMARK.json is emitted with
  its unit, and no job failed;
* the outermost spans of all processes do not overlap, so that the self
  times, recomputed here as the summed outermost span durations, fit in
  the traced wall time and ``other.self_s`` is the rest of it;
* the two traced runs give identical counts (calls, sizes, candidates);
* a job past its timeout or its memory cap, or with a wrong answer, is
  recorded as failed with the reason;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.

It prints the tracing overhead as traced against untraced jobs per second.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# ladder is not in BENCHMARK.json (see excluded.json) but is kept working
WORKLOADS = ("ladder", "structures-g2", "cli-cold")

sys.path.insert(0, HERE)
import tracer        # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    """(result line, detail line) of a benchmark run."""
    if proc.returncode != 0:
        raise AssertionError(f"benchmark failed: {proc.stderr[-2000:]}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(detail)


def check_metrics(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] and result["failed"] == 0, \
        f"{label}: failed jobs"
    assert result["attempted"] >= 1
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, f"{label}: {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], \
            f"{label}: {m['name']} unit {got[m['name']]['unit']}"


def check_spans(workload, result):
    """Check the self times against the span files they were computed from.

    One client means the outermost spans of the workload process and of
    its CLI children run one after another.  Their summed durations are
    then the covered time, which the layer self times must add up to and
    which must fit in the traced wall time."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    span_dir = os.path.join(ROOT, ".perfbench", f"trace-{workload}", "spans")
    files = [os.path.join(span_dir, f) for f in sorted(os.listdir(span_dir))]
    spans, _ = tracer.read_spans(files)
    roots = sorted((s["t0"], s["t1"]) for s in spans if s["parent"] is None)
    assert roots, f"{workload}: no spans recorded"
    for (_, end), (start, _) in zip(roots, roots[1:]):
        assert start >= end, f"{workload}: outermost spans overlap"
    covered = sum(t1 - t0 for t0, t1 in roots)
    assert covered <= m["trace.wall_s"], \
        f"{workload}: spans cover {covered} s of a {m['trace.wall_s']} s wall"
    layers = sum(v for k, v in m.items()
                 if k.endswith(".self_s") and k != "other.self_s")
    layers += m["cli.import_s"]
    assert abs(layers - covered) < 1e-6 * max(1.0, covered), \
        f"{workload}: self times {layers} s, spans cover {covered} s"


def check_workload(workload):
    plain, detail = result_of(run(workload, 0))
    check_metrics(plain, SPEC["end_to_end"], f"{workload} untraced")
    traced = []
    for _ in range(2):
        # each traced run replaces the span files of the one before
        result, _ = result_of(run(workload, 1))
        check_metrics(result, SPEC["per_layer"], f"{workload} traced")
        check_spans(workload, result)
        traced.append(result)
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] not in ("s", "1/s")} for r in traced]
    assert counts[0] == counts[1], \
        f"{workload}: counts differ between traced runs: " + ", ".join(
            f"{k} {counts[0][k]} vs {counts[1][k]}"
            for k in counts[0] if counts[0][k] != counts[1].get(k))
    # traced runs are not scaled to the nominal host speed
    untraced = detail["unscaled"]["jobs_per_s"]
    traced_rate = traced[0]["metrics"]["trace.jobs_per_s"]["value"]
    print(f"{workload}: ok; tracing overhead {1 - traced_rate / untraced:+.1%} "
          f"of jobs/s ({traced_rate:.4g} traced, {untraced:.4g} untraced, "
          f"one round each)")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("structures-g2", 0, cwd=bare)
        assert proc.returncode != 0, "bare directory: exit code 0"
        assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: exits nonzero without a result")


def check_budgets():
    os.environ["PERFBENCH_T0"] = "0"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker
    from workloads import Job, equals

    def spin():
        while True:
            pass

    cases = [(Job("spin", spin, equals(None), timeout_s=0.2),
              "timed out at 0.2 s"),
             (Job("hog", lambda: bytearray(1 << 30), equals(None), cap_mb=512),
              "memory cap at 512 MB"),
             (Job("wrong", lambda: 2, equals(1)), "expected 1, got 2")]
    for job, reason in cases:
        _, error = worker.run_job(job)
        assert error == reason, f"{job.name}: recorded {error!r}"
    print("budgets: timeouts, memory caps and wrong answers are recorded")


def main(argv):
    names = argv or WORKLOADS
    check_budgets()
    check_bare_directory()
    for workload in names:
        check_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Fixed reference loops that measure the host's current speed.

The benchmark runs on a few cores of a shared host whose speed changes
by up to a factor of two for seconds to minutes at a time, for every
process alike (CPU time moves with wall time, so it is not the
scheduler).  Runs made minutes apart cannot average that out.  So the
workload process times a reference loop between jobs, and run.py scales
each job's time by the loop's nominal time over its time around that job:
a time is reported as it would read on a host where the loop takes its
nominal time.

Code is slowed unequally: work over large dicts and sets more than small
integer work.  So each workload has the loops whose time, taken as their
geometric mean, moved most like its jobs' times when both were timed side
by side over several minutes of changing host speed on a 2-core x86-64 VM
(a slope of 0.8-1.0 against the jobs' log times, where 1 is exact):
``dicts`` alone for the in-process workloads (GF(2) elimination, strands
lookups), ``dicts`` and ``ints`` for ``cli-cold``, whose fresh
interpreters spend much of their time starting and importing (``dicts``
alone gave a slope of 0.84 there, ``ints`` alone 1.13).  The loops use
nothing of bhfi, so a change to the program cannot change them.
"""
import gc
import statistics
import time


def dicts():
    table, live, acc = {}, set(), 0
    for i in range(16000):
        k = (i * 7919) % 1021
        key = (k, i & 15)
        table[key] = table.get(key, 0) ^ i
        live ^= {k, k + 1}
        acc += len(live) & 3
    return acc + len(frozenset(table))


def ints():
    acc, small = 0, {}
    for i in range(40000):
        acc = (acc * 31 + i) & 0xFFFF
        small[acc & 63] = i
    return acc


# loop, and about its time on a quiet 2-core x86-64 VM
LOOPS = {"dicts": (dicts, 0.0075), "ints": (ints, 0.0039)}
WORKLOAD_LOOPS = {"ladder": ("dicts",), "structures-g2": ("dicts",),
                  "cli-cold": ("dicts", "ints")}


def nominal_s(workload):
    """The geometric mean of the workload's loops' nominal times."""
    return statistics.geometric_mean(
        LOOPS[name][1] for name in WORKLOAD_LOOPS[workload])


def sample(workload):
    """The geometric mean of the seconds the workload's loops take now.  The
    garbage collector is off meanwhile, so that the program's heap does not
    change the loops' times."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for name in WORKLOAD_LOOPS[workload]:
            t = time.perf_counter()
            LOOPS[name][0]()
            times.append(time.perf_counter() - t)
        return statistics.geometric_mean(times)
    finally:
        if enabled:
            gc.enable()

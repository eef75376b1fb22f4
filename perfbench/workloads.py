"""Seeded inputs, jobs and answer checks for the benchmark workloads.

Each workload function builds its inputs from the seed and returns one
round of jobs.  The seed relabels and permutes the generators of the
inputs it builds (builtins keep their own labels), which leaves hf, hfi,
ker and iota unchanged, so every job is checked against the fixed answers
in ``expected.json``.

* ``ladder``: the morphism-complex route on the genus-1 twisted ladders
  az^n ⊠ cfd0 (n = 0..3) against the three framed solid tori, plus the
  1561-generator cancellation and a genus-2 twisted pairing.  Mor complex
  assembly, GF(2) homology, the equivalence search and cancellation do
  almost all of the work; the strands algebra is tiny or warmed in set-up.
  It runs, but is not listed in BENCHMARK.json: see excluded.json.
* ``structures-g2``: relation checks, the pairing route through the box
  tensor, and the involutive A side over the genus-2 circle with warm
  caches.  Strands lookups and relation checking dominate; the search is
  a small part.
* ``cli-cold``: one fresh ``python -m bhfi.cli`` process per job, so every
  question pays again for the import, the algebra tables, the standard
  builders and JSON parsing.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

import bhfi
from bhfi.files import dump_structure
from bhfi.strands import split_pmc
from bhfi.structures import BorderedObject

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)
PAIRINGS = EXPECTED["pairings"]

# Budgets.  A job's cap is on the address space of the process running it:
# the workload process for in-process jobs, the CLI child otherwise.
SHORT_S, LONG_S = 20.0, 60.0
CAP_MB = 3072


@dataclass
class Job:
    name: str
    run: object               # () -> answer
    check: object             # answer -> None, or a description of the error
    timeout_s: float = SHORT_S
    cap_mb: int = CAP_MB
    in_child: bool = False    # the job enforces its budget in its own process


@dataclass
class Context:
    trace: bool
    workdir: str              # scratch directory inside the checkout
    span_dir: str             # where traced CLI children write their spans


class JobFailed(Exception):
    """A CLI child exited abnormally; the message says how."""


class JobTimeout(Exception):
    """A job ran past its wall timeout."""


def relabel(S, rng, prefix):
    """A copy of ``S`` with fresh generator labels in a shuffled order."""
    fresh = [f"{prefix}{i}" for i in range(len(S.generators))]
    rng.shuffle(fresh)
    T = S.relabeled(dict(zip(S.generators, fresh)))
    rng.shuffle(fresh)
    return BorderedObject(T.out_alg, T.in_alg, fresh, T.out_idem, T.in_idem,
                          T.ops)


def warm_tables(circle):
    """Build the algebra's product and preimage tables now."""
    alg = bhfi.algebra(circle)
    key = alg.idem_keys[0]
    alg.basis_between(key, key)


def framed_tori():
    return {"cfd0": bhfi.cfd_solid_torus("zero"),
            "cfd_inf": bhfi.cfd_solid_torus("infinity"),
            "cfd_m1": bhfi.cfd_solid_torus("minus_one")}


# ---------------------------------------------------------------------------
# answer checks


def report_check(expected):
    """Compare hf_dim, hfi_dim and ker only: Q and iota depend on the basis."""
    def check(report):
        got = {key: report.get(key) for key in expected}
        return None if got == expected else f"expected {expected}, got {got}"
    return check


def equals(expected):
    def check(value):
        return None if value == expected else \
            f"expected {expected!r}, got {value!r}"
    return check


def no_violations(report):
    bad = {ref: r["violations"] for ref, r in report.items()
           if r["violations"]}
    if not report or bad:
        return f"relation violations {bad or 'not reported'}"
    return None


def iota_report(P0, P1):
    return bhfi.iota_on_mor(P0, P1).to_json()


def hfhat_report(P0, P1):
    return {"hf_dim": bhfi.homology(bhfi.mor_complex_DD(P0, P1).complex)
            .dimension}


# ---------------------------------------------------------------------------
# workloads


def ladder(seed, ctx):
    rng = random.Random(seed)
    tori = framed_tori()
    az1 = bhfi.cfda_az(split_pmc(1))
    rungs = [tori["cfd0"]]
    for _ in range(3):
        rungs.append(bhfi.box_tensor(az1, rungs[-1]))
    jobs = []
    for depth, rung in enumerate(rungs):
        for other, Q in tori.items():
            for forward in (True, False):
                P0, P1 = relabel(rung, rng, "p"), relabel(Q, rng, "q")
                names, pair = [f"az^{depth}.cfd0", other], ["cfd0", other]
                if not forward:
                    P0, P1 = P1, P0
                    names.reverse()
                    pair.reverse()
                # every rung must give the depth-0 answer
                jobs.append(Job("iota_on_mor " + " ".join(names),
                                functools.partial(iota_report, P0, P1),
                                report_check(PAIRINGS[",".join(pair)]),
                                LONG_S))
    z2 = split_pmc(2)
    warm_tables(z2)
    az2 = bhfi.cfda_az(z2)
    one = bhfi.box_tensor(az2, bhfi.cfd_zero_handlebody(2))
    two = relabel(bhfi.box_tensor(az2, one), rng, "r")
    jobs.append(Job(
        "reduce_structure az.az.cfd0_k2",
        lambda: len(bhfi.reduce_structure(two).reduced.generators),
        equals(EXPECTED["reduced_generators"]["cfd0_k2"]), LONG_S))
    jobs.append(Job(
        "hfhat az.cfd0_k2 az.cfd0_k2",
        functools.partial(hfhat_report, relabel(one, rng, "s"),
                          relabel(one, rng, "t")),
        report_check({"hf_dim": PAIRINGS["cfd0_k2,cfd0_k2"]["hf_dim"]})))
    return jobs


def structures_g2(seed, ctx):
    rng = random.Random(seed)
    z2 = split_pmc(2)
    warm_tables(z2)
    az2 = bhfi.cfda_az(z2)
    cfa2 = bhfi.cfa_zero_handlebody(2)
    cfd2 = bhfi.cfd_zero_handlebody(2)
    named = {"az_k2": az2, "azbar_k2": bhfi.cfda_azbar(z2),
             "ddid_k2": bhfi.dd_identity(z2), "cfa0_k2": cfa2}
    jobs = []
    for name, S in named.items():
        for copy, T in (("builtin", S), ("relabelled", relabel(S, rng, "g"))):
            jobs.append(Job(f"check_structure {name} {copy}",
                            functools.partial(bhfi.check_structure, T),
                            equals([])))
    twisted = [cfd2]
    while len(twisted) < 3:
        twisted.append(bhfi.box_tensor(az2, twisted[-1]))
    for n, X in enumerate(twisted):
        M, P = relabel(cfa2, rng, "m"), relabel(X, rng, "x")
        jobs.append(Job(
            f"pairing cfa0_k2 az^{n}.cfd0_k2",
            lambda M=M, P=P: bhfi.homology(bhfi.box_tensor_AD(M, P)).dimension,
            equals(EXPECTED["pairing_route"]["cfa0_k2,cfd0_k2"])))
    jobs.append(Job("iota_on_mor cfd0_k2 cfd0_k2",
                    functools.partial(iota_report, relabel(cfd2, rng, "p"),
                                      relabel(cfd2, rng, "q")),
                    report_check(PAIRINGS["cfd0_k2,cfd0_k2"])))
    # The builtin labelling: on relabelled copies this search takes 0.6 s
    # to 44 s depending on the seed (see excluded.json).
    jobs.append(Job(
        "standard_involutive_a cfa0_k2",
        functools.partial(bhfi.standard_involutive_a, cfa2),
        # construction certifies psi; the result must wrap this module
        lambda inv: None if inv.module is cfa2 else "wrong module"))
    return jobs


def builtins(command, *names):
    argv = [command]
    for name in names:
        argv += ["--builtin", name]
    return argv


def cli_cold(seed, ctx):
    rng = random.Random(seed)
    structures = dict(framed_tori(), cfd0_k2=bhfi.cfd_zero_handlebody(2))
    os.makedirs(ctx.workdir, exist_ok=True)
    serial = itertools.count()

    def json_copy(name):
        path = os.path.join(ctx.workdir, f"{name}-{next(serial)}.json")
        dump_structure(relabel(structures[name], rng, "j"), path)
        return path

    jobs = []
    for command, pairs in (("hfhat", ("cfd0,cfd_inf", "cfd_m1,cfd0",
                                      "cfd0_k2,cfd0_k2")),
                           ("hfihat", ("cfd_inf,cfd0", "cfd0,cfd_m1",
                                       "cfd0_k2,cfd0_k2"))):
        for pair in pairs:
            names = pair.split(",")
            expected = PAIRINGS[pair] if command == "hfihat" else \
                {"hf_dim": PAIRINGS[pair]["hf_dim"]}
            for argv in (builtins(command, *names),
                         [command, *map(json_copy, names)]):
                jobs.append(cli_job(ctx, argv, report_check(expected)))
    for argv in (builtins("verify", "az_k2"),
                 ["verify", os.path.join("fixtures", "az_k2.json")],
                 builtins("verify", "ddid_k2")):
        jobs.append(cli_job(ctx, argv, no_violations))
    jobs.append(cli_job(ctx, builtins("triangle", "cfa0_k1"),
                        report_check(EXPECTED["triangle"]["cfa0_k1"])))
    mcg = "cfa0_k1,cfd0,az_k1,azbar_k1"
    jobs.append(cli_job(ctx, builtins("mcg", *mcg.split(",")),
                        report_check({"action": EXPECTED["mcg"][mcg]})))
    return jobs


WORKLOADS = {"ladder": ladder, "structures-g2": structures_g2,
             "cli-cold": cli_cold}


# ---------------------------------------------------------------------------
# CLI children


def address_space_cap(cap_mb):
    """Return a pre-exec hook that caps the child's address space."""
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (cap_mb << 20, cap_mb << 20))
    return apply


def cli_job(ctx, argv, check):
    shown = [os.path.basename(a) if a.endswith(".json") else a for a in argv]
    return Job("bhfi " + " ".join(shown),
               functools.partial(run_cli, ctx, argv),
               lambda out: check(json.loads(out)), in_child=True)


def run_cli(ctx, argv, timeout_s, cap_mb):
    """Run one CLI question in a fresh process; its report on success."""
    if ctx.trace:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "bhfi.cli", *argv]
    env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
    if ctx.trace:
        env["PERFBENCH_SPAN_DIR"] = ctx.span_dir
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout_s,
                              preexec_fn=address_space_cap(cap_mb))
    except subprocess.TimeoutExpired:
        raise JobTimeout from None
    if proc.returncode != 0:
        if "MemoryError" in proc.stderr:
            raise MemoryError
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise JobFailed(f"exit code {proc.returncode}: {tail[0][:200]}")
    return proc.stdout.strip().splitlines()[-1]

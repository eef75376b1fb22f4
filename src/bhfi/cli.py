"""Command-line front end.

Subcommands: hfhat, hfihat, verify, triangle, mcg, dump-standard.  Inputs
are JSON structure files or builtin names (--builtin).  Reports are printed
as JSON with sorted keys, so identical inputs give byte-identical output.

Exit codes: 0 success, 2 parse error (including inputs of the wrong kind or
over the wrong circle), 3 relation violation, 4 equivalence search failure,
5 divergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import involutive, triangle
from .errors import (DivergenceError, NotEquivalentError, ParseError,
                     RelationViolation)
from .files import BUILTIN_NAMES, builtin_structure, dump_structure, \
    load_structure
from .strands import algebra, split_pmc
from .structures import check_structure, mor_complex_DD, require_valid


def _resolve_inputs(args, kinds=None, genus=None):
    """The input structures, builtins first, then files.

    ``kinds`` lists the kind sequences the subcommand accepts; with None
    any inputs load unchecked.  Otherwise the count, each input's kind and
    the one algebra all inputs share (that of ``split_pmc(genus)`` when
    ``genus`` is given) are checked, raising ParseError, and then the
    structure relations of each input, raising RelationViolation.
    """
    refs = [(builtin_structure, name) for name in args.builtin or []]
    refs += [(load_structure, path) for path in args.inputs]
    if kinds is None:
        return [load(ref) for load, ref in refs]
    cmd = args.command
    if len(refs) != len(kinds[0]):
        raise ParseError(f"{cmd}: expected {len(kinds[0])} inputs "
                         f"(files or --builtin), got {len(refs)}")
    home = None if genus is None else algebra(split_pmc(genus))
    where = "the circle of input 1" if genus is None \
        else f"split_pmc({genus})"
    out = []
    for i, (load, ref) in enumerate(refs):
        S = load(ref)
        allowed = sorted({seq[i] for seq in kinds})
        if S.kind not in allowed:
            raise ParseError(f"{cmd}: input {i + 1} has kind {S.kind}, "
                             f"expected {' or '.join(allowed)}")
        kinds = [seq for seq in kinds if seq[i] == S.kind]
        algs = [a for a in (S.out_alg, S.in_alg) if not a.is_trivial]
        if home is None:
            home = algs[0]
        if any(a is not home for a in algs):
            raise ParseError(f"{cmd}: input {i + 1} has kind {S.kind} over "
                             f"another circle, expected {S.kind} over {where}")
        out.append(S)
    for i, S in enumerate(out):
        require_valid(S, f"{cmd} input {i + 1}")
    return out


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    print(text)


def _cmd_hfhat(args):
    P0, P1 = _resolve_inputs(args, (("D", "D"), ("DD", "DD")))
    mc = mor_complex_DD(P0, P1)
    _emit(args, {"hf_dim": mc.homology().dimension})
    return 0


def _cmd_hfihat(args):
    P0, P1 = _resolve_inputs(args, (("D", "D"),))
    report = involutive.iota_on_mor(P0, P1)
    _emit(args, report.to_json())
    return 0


def _cmd_verify(args):
    results = {}
    bad = 0
    refs = (args.builtin or []) + args.inputs
    if not refs:
        raise ParseError("verify: expected at least 1 input (files or "
                         "--builtin), got 0")
    for ref, S in zip(refs, _resolve_inputs(args)):
        violations = check_structure(S)
        results[ref] = {
            "generators": len(S.generators),
            "operations": len(S.ops),
            "violations": len(violations),
        }
        bad += len(violations)
    _emit(args, results)
    if bad:
        raise RelationViolation(f"{bad} relation violations")
    return 0


def _cmd_triangle(args):
    (X,) = _resolve_inputs(args, (("A",),), genus=1)
    report = triangle.verify_hfi_triangle(X)
    _emit(args, report.to_json())
    return 0


def _cmd_mcg(args):
    M, P, chi, chi_inv = _resolve_inputs(args, (("A", "D", "DA", "DA"),))
    matrix = involutive.mcg_action(M, P, chi, chi_inv)
    _emit(args, {"action": matrix.to_lists()})
    return 0


def _cmd_dump_standard(args):
    outdir = args.out or "fixtures"
    # each fixed builtin once, then every genus family at genus 1 and 2
    names = list(dict.fromkeys(name.format(n=k) for k in (1, 2)
                               for name in BUILTIN_NAMES))
    written = [os.path.join(outdir, f"{name}.json") for name in names]
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, path in zip(names, written):
            dump_structure(builtin_structure(name), path)
    except OSError as exc:
        raise ParseError(f"cannot write {exc.filename}: {exc}") from exc
    print(json.dumps({"written": written}, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bhfi",
        description="hat-flavor bordered Floer calculator: pairings, the "
                    "involutive refinement, mapping class actions and the "
                    "surgery triangle, all over F2")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("inputs", nargs="*", help="JSON structure files")
        p.add_argument("--builtin", action="append",
                       help="builtin structure name; known: "
                            + ", ".join(BUILTIN_NAMES))
        p.add_argument("--out", help="also write the JSON report here")

    for name, fn in (("hfhat", _cmd_hfhat), ("hfihat", _cmd_hfihat),
                     ("verify", _cmd_verify), ("triangle", _cmd_triangle),
                     ("mcg", _cmd_mcg), ("dump-standard", _cmd_dump_standard)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
    return parser


# the stderr label and exit code of each reported error, tried in order
_EXIT_CODES = {ParseError: ("parse", 2), RelationViolation: ("relations", 3),
               NotEquivalentError: ("search", 4),
               DivergenceError: ("divergence", 5)}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        label, code = next(entry for cls, entry in _EXIT_CODES.items()
                           if isinstance(exc, cls))
        print(json.dumps({"error": label, "detail": str(exc)}),
              file=sys.stderr)
        return code


def run():
    """Entry of ``python -m bhfi.cli`` and ``bhfi``: main, flush, os._exit.
    Exit-time writers must finish before run returns control; atexit hooks
    of wrapping tools (coverage) do not run.  Exceptions exit as before."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

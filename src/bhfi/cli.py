"""Command-line front end.

Subcommands: hfhat, hfihat, verify, triangle, mcg, dump-standard.  Inputs
are JSON structure files or builtin names (--builtin).  Reports are printed
as JSON with sorted keys, so identical inputs give byte-identical output.

Exit codes: 0 success, 2 parse error, 3 relation violation, 4 equivalence
search failure, 5 divergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (DivergenceError, NotEquivalentError, ParseError,
                     RelationViolation)
from .files import BUILTIN_NAMES, builtin_structure, dump_structure, \
    load_structure
from .homology import homology
from .structures import check_structure


def _resolve_inputs(args, expected=None):
    inputs = [("builtin", name) for name in (args.builtin or [])]
    inputs += [("file", path) for path in args.inputs]
    if expected is not None and len(inputs) != expected:
        raise ParseError(f"expected {expected} inputs "
                         f"(files or --builtin), got {len(inputs)}")
    out = []
    for kind, ref in inputs:
        out.append(builtin_structure(ref) if kind == "builtin"
                   else load_structure(ref))
    return out


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_hfhat(args):
    P0, P1 = _resolve_inputs(args, expected=2)
    _require_clean(P0, "first input")
    _require_clean(P1, "second input")
    from .structures import mor_complex_DD
    mc = mor_complex_DD(P0, P1)
    _emit(args, {"hf_dim": homology(mc.complex).dimension})
    return 0


def _cmd_hfihat(args):
    P0, P1 = _resolve_inputs(args, expected=2)
    _require_clean(P0, "first input")
    _require_clean(P1, "second input")
    from .involutive import iota_on_mor
    report = iota_on_mor(P0, P1, max_sum_size=args.max_sum_size)
    _emit(args, report.to_json())
    return 0


def _cmd_verify(args):
    results = {}
    bad = 0
    for kind, ref in [("builtin", n) for n in (args.builtin or [])] + \
            [("file", p) for p in args.inputs]:
        S = builtin_structure(ref) if kind == "builtin" \
            else load_structure(ref)
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
    (X,) = _resolve_inputs(args, expected=1)
    _require_clean(X, "input module")
    from .triangle import verify_hfi_triangle
    report = verify_hfi_triangle(X)
    _emit(args, report.to_json())
    return 0


def _cmd_mcg(args):
    M, P, chi, chi_inv = _resolve_inputs(args, expected=4)
    for S, tag in ((M, "module"), (P, "structure"), (chi, "mapping class"),
                   (chi_inv, "inverse mapping class")):
        _require_clean(S, tag)
    from .involutive import mcg_action
    matrix = mcg_action(M, P, chi, chi_inv)
    _emit(args, {"action": matrix.to_lists()})
    return 0


def _cmd_dump_standard(args):
    outdir = args.out or "fixtures"
    os.makedirs(outdir, exist_ok=True)
    names = ["cfd_inf", "cfd_m1", "cfd0"]
    for k in (1, 2):
        names += [f"cfd0_k{k}", f"cfa0_k{k}", f"ddid_k{k}",
                  f"az_k{k}", f"azbar_k{k}"]
    written = []
    for name in names:
        path = os.path.join(outdir, f"{name}.json")
        dump_structure(builtin_structure(name), path)
        written.append(path)
    print(json.dumps({"written": written}, sort_keys=True))
    return 0


def _require_clean(S, tag):
    violations = check_structure(S)
    if violations:
        raise RelationViolation(
            f"{tag} fails {len(violations)} structure relations; "
            f"first: {violations[0]}")


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
        if name == "hfihat":
            p.add_argument("--max-sum-size", type=int, default=4,
                           help="cap on the sums the equivalence search "
                                "tries for the two conjugating maps")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(json.dumps({"error": "parse", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except RelationViolation as exc:
        print(json.dumps({"error": "relations", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except NotEquivalentError as exc:
        print(json.dumps({"error": "search", "detail": str(exc)}),
              file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(json.dumps({"error": "divergence", "detail": str(exc)}),
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())

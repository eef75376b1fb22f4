"""usage: bhfi COMMAND [FILE ...] [--builtin NAME]... [--out PATH]

COMMAND is hfhat, hfihat, verify, triangle, mcg or dump-standard.  The
inputs are JSON structure files and builtins (--builtin NAME), builtins
first.  The report is JSON with sorted keys, so identical inputs give
byte-identical output; --out PATH also writes it there (dump-standard
writes every builtin, at genus 1 and 2, into the directory PATH, by
default fixtures).  Options and files come in any order, --opt=VALUE and
unique prefixes of the options are accepted, -- ends the options, and -h
or --help prints this text.

Exit codes: 0 success, 2 usage or parse error (including inputs of the
wrong kind or over the wrong circle), 3 relation violation, 4 equivalence
search failure, 5 divergence.
"""
from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import files, involutive, mor, standard, triangle
from .errors import (DivergenceError, NotEquivalentError, ParseError,
                     RelationViolation)
from .strands import algebra, split_pmc
from .structures import check_structure, require_valid


def _resolve_inputs(args, kinds=None, genus=None):
    """The input structures, builtins first, then files.

    ``kinds`` lists the kind sequences the subcommand accepts; with None
    any inputs load unchecked.  Otherwise the count, each input's kind and
    the one algebra all inputs share (that of ``split_pmc(genus)`` when
    ``genus`` is given) are checked, raising ParseError, and then the
    structure relations of each input, raising RelationViolation.
    """
    refs = [(standard.builtin_structure, name) for name in args.builtin]
    refs += [(files.load_structure, path) for path in args.inputs]
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
    mc = mor.mor_complex_DD(P0, P1)
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
    refs = args.builtin + args.inputs
    if not refs:
        raise ParseError("verify: expected at least 1 input (files or "
                         "--builtin), got 0")
    for i, ref in enumerate(refs):
        if ref in refs[:i]:
            raise ParseError(f"verify: input {ref!r} is given twice; the "
                             "report has one row per input")
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
                               for name in standard.BUILTIN_NAMES))
    written = [os.path.join(outdir, f"{name}.json") for name in names]
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, path in zip(names, written):
            files.dump_structure(standard.builtin_structure(name), path)
    except OSError as exc:
        raise ParseError(f"cannot write {exc.filename}: {exc}") from exc
    print(json.dumps({"written": written}, sort_keys=True))
    return 0


_COMMANDS = {"hfhat": _cmd_hfhat, "hfihat": _cmd_hfihat,
             "verify": _cmd_verify, "triangle": _cmd_triangle,
             "mcg": _cmd_mcg, "dump-standard": _cmd_dump_standard}


def _usage_error(message):
    """The usage line and the message on stderr, then exit 2."""
    print(__doc__.partition("\n")[0], f"bhfi: error: {message}", sep="\n",
          file=sys.stderr)
    raise SystemExit(2)


def _is_option(word):
    return word.startswith("-") and word != "-"


def parse_args(argv):
    """The command, inputs, builtin names and --out of ``argv``; the first
    word that is not an option is the command.  -h or --help prints the
    module docstring and the builtin names and exits 0; a usage error
    exits 2."""
    args = SimpleNamespace(command=None, inputs=[], builtin=[], out=None)
    words = iter(argv)
    options = True
    for word in words:
        if options and word == "--":
            options = False
        elif options and _is_option(word):
            name, eq, value = word.partition("=")
            known = ["--help"] if name == "-h" else \
                [o for o in ("--builtin", "--out", "--help")
                 if name[:2] == "--" and o.startswith(name)]
            if known == ["--help"]:
                print(f"{__doc__}\nBuiltin names, {{n}} a genus:\n  "
                      + ", ".join(standard.BUILTIN_NAMES))
                raise SystemExit(0)
            if len(known) != 1:
                _usage_error(f"unrecognized arguments: {word}")
            if not eq:
                value = next(words, None)
                if value is None or _is_option(value):
                    _usage_error(f"argument {known[0]}: expected one "
                                 "argument")
            if known[0] == "--builtin":
                args.builtin.append(value)
            else:
                args.out = value
        elif args.command is None:
            if word not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _usage_error(f"argument command: invalid choice: {word!r} "
                             f"(choose from {choices})")
            args.command = word
        else:
            args.inputs.append(word)
    if args.command is None:
        _usage_error("the following arguments are required: command")
    return args


# the stderr label and exit code of each reported error, tried in order
_EXIT_CODES = {ParseError: ("parse", 2), RelationViolation: ("relations", 3),
               NotEquivalentError: ("search", 4),
               DivergenceError: ("divergence", 5)}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
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

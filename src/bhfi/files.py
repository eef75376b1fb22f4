"""JSON encoding and decoding of circles, algebra elements and structures.

The on-disk structure format is the interchange format for user-supplied
modules:

    {"kind": "D" | "A" | "DA" | "DD",
     "circle": {...} or {"out": {...}, "in": {...}} or {"left":..,"right":..},
     "generators": [{"label": .., "idem": ..}, ...],
     "ops": [{"src": .., "inputs": [element...], "out": element, "dst": ..}]}

where an element is a list of diagrams, each
``{"left_idem": [...], "moving": [[i, j], ...], "horizontal": [...]}``.
"""
from __future__ import annotations

import json

from .errors import ParseError
from .strands import (AlgebraElement, PointedMatchedCircle, _pair_labels,
                      _strand_points, algebra, split_pmc)
from .structures import AInfModule, DABimodule, DDBimodule, TypeDStructure


def circle_from_json(data):
    try:
        return PointedMatchedCircle.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad circle payload: {exc}") from exc


def diagram_from_json(circle, data):
    try:
        moving = _strand_points(circle, data["moving"])
        horizontal = _pair_labels(circle, data["horizontal"])
        diag = algebra(circle).diagram(moving, horizontal)
        left = data.get("left_idem", diag.left_idem)
        # a repeated label shrinks the set; a bool or a float is refused
        agrees = _pair_labels(circle, left) == diag.left_idem and \
            len(left) == len(diag.left_idem)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad diagram payload: {exc}") from exc
    if not agrees:
        raise ParseError("diagram left idempotent disagrees with its strands")
    return diag


def element_from_json(circle, data):
    return AlgebraElement(circle,
                          frozenset(diagram_from_json(circle, d)
                                    for d in data))


def structure_to_json(S):
    kind = S.kind
    gens = []
    ops = []
    if kind == "D":
        circle = {"circle": S.out_alg.circle.to_json()}
        for g in S.generators:
            gens.append({"label": g, "idem": sorted(S.out_idem[g])})
        for src, _, out, dst in S.sorted_ops():
            ops.append({"src": src, "inputs": [],
                        "out": [out.to_json()], "dst": dst})
    elif kind == "A":
        circle = {"circle": S.in_alg.circle.to_json()}
        for g in S.generators:
            gens.append({"label": g, "idem": sorted(S.in_idem[g])})
        for src, ins, _, dst in S.sorted_ops():
            ops.append({"src": src,
                        "inputs": [[b.to_json()] for b in ins],
                        "dst": dst})
    elif kind == "DA":
        circle = {"circle": {"out": S.out_alg.circle.to_json(),
                             "in": S.in_alg.circle.to_json()}}
        for g in S.generators:
            gens.append({"label": g,
                         "idem": [sorted(S.out_idem[g]),
                                  sorted(S.in_idem[g])]})
        for src, ins, out, dst in S.sorted_ops():
            ops.append({"src": src,
                        "inputs": [[b.to_json()] for b in ins],
                        "out": [out.to_json()], "dst": dst})
    elif kind == "DD":
        circle = {"circle": {"left": S.out_alg.left.circle.to_json(),
                             "right": S.out_alg.right.circle.to_json()}}
        for g in S.generators:
            gens.append({"label": g,
                         "idem": [sorted(S.out_idem[g][0]),
                                  sorted(S.out_idem[g][1])]})
        for src, _, out, dst in S.sorted_ops():
            ops.append({"src": src, "inputs": [],
                        "out": [[out[0].to_json()], [out[1].to_json()]],
                        "dst": dst})
    else:
        raise ParseError(f"cannot serialize a {kind}-kind object")
    return {"kind": kind, **circle, "generators": gens, "ops": ops}


def _idempotent(circle, pairs):
    """A generator idempotent: k pair labels of its circle, read as the
    basic idempotent of the circle's algebra."""
    return algebra(circle).idempotent(_pair_labels(circle, pairs)).left_idem


def _refuse(kind, ops, key, what):
    """Type D and DD operations take no algebra inputs, and type A
    operations give no algebra output; a file that fills ``key`` anyway
    would otherwise have it silently dropped."""
    for i, o in enumerate(ops):
        if o.get(key):
            raise ParseError(f"operation {i} of a kind-{kind} structure "
                             f"carries {what}")


def structure_from_json(data):
    try:
        kind = data["kind"]
        gens = data["generators"]
        ops = data["ops"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing structure fields: {exc}") from exc
    try:
        for label in (g["label"] for g in gens):
            if not isinstance(label, str):   # labels sort as strings
                raise ParseError("bad structure payload: generator label "
                                 f"{json.dumps(label)} is not a string")
        if kind == "D":
            circle = circle_from_json(data["circle"])
            delta = [(o["src"], element_from_json(circle, o["out"]), o["dst"])
                     for o in ops]
            _refuse(kind, ops, "inputs", "algebra inputs")
            return TypeDStructure(
                circle, [(g["label"], _idempotent(circle, g["idem"]))
                         for g in gens],
                delta)
        if kind == "A":
            circle = circle_from_json(data["circle"])
            operations = [(o["src"],
                           [element_from_json(circle, e)
                            for e in o["inputs"]],
                           o["dst"]) for o in ops]
            _refuse(kind, ops, "out", "an algebra output")
            return AInfModule(
                circle, [(g["label"], _idempotent(circle, g["idem"]))
                         for g in gens],
                operations)
        if kind == "DA":
            out_circle = circle_from_json(data["circle"]["out"])
            in_circle = circle_from_json(data["circle"]["in"])
            operations = [(o["src"],
                           [element_from_json(in_circle, e)
                            for e in o["inputs"]],
                           element_from_json(out_circle, o["out"]),
                           o["dst"]) for o in ops]
            return DABimodule(
                out_circle, in_circle,
                [(g["label"], _idempotent(out_circle, g["idem"][0]),
                  _idempotent(in_circle, g["idem"][1])) for g in gens],
                operations)
        if kind == "DD":
            left = circle_from_json(data["circle"]["left"])
            right = circle_from_json(data["circle"]["right"])
            delta = [(o["src"],
                      (element_from_json(left, o["out"][0]),
                       element_from_json(right, o["out"][1])),
                      o["dst"]) for o in ops]
            _refuse(kind, ops, "inputs", "algebra inputs")
            return DDBimodule(
                left, right,
                [(g["label"], _idempotent(left, g["idem"][0]),
                  _idempotent(right, g["idem"][1])) for g in gens],
                delta)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad structure payload: {exc}") from exc
    raise ParseError(f"unknown structure kind {kind!r}")


def load_structure(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests its JSON too deeply: {exc}") from exc
    return structure_from_json(data)


def dump_structure(S, path):
    with open(path, "w") as fh:
        json.dump(structure_to_json(S), fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# builtin registry


def builtin_structure(name):
    """Structures addressable by name on the command line."""
    from . import standard
    if name == "cfd_inf":
        return standard.cfd_solid_torus("infinity")
    if name == "cfd_m1":
        return standard.cfd_solid_torus("minus_one")
    if name == "cfd0":
        return standard.cfd_solid_torus("zero")
    for prefix, builder in (
            ("cfd0_k", standard.cfd_zero_handlebody),
            ("cfa0_k", standard.cfa_zero_handlebody),
            ("ddid_k", lambda k: standard.dd_identity(split_pmc(k))),
            ("az_k", lambda k: standard.cfda_az(split_pmc(k))),
            ("azbar_k", lambda k: standard.cfda_azbar(split_pmc(k)))):
        if name.startswith(prefix):
            tail = name[len(prefix):]
            if not (tail.isascii() and tail.isdigit()) or int(tail) < 1:
                raise ParseError(f"bad genus in builtin name {name!r}")
            return builder(int(tail))
    raise ParseError(f"unknown builtin {name!r}")


BUILTIN_NAMES = ("cfd_inf", "cfd_m1", "cfd0", "cfd0_k{n}", "cfa0_k{n}",
                 "ddid_k{n}", "az_k{n}", "azbar_k{n}")

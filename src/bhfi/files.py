"""JSON encoding and decoding of circles, algebra elements and structures.

The on-disk structure format is the interchange format for user-supplied
modules:

    {"kind": "D" | "A" | "DA" | "DD",
     "circle": {...} or {"out": {...}, "in": {...}} or {"left":..,"right":..},
     "generators": [{"label": .., "idem": ..}, ...],
     "ops": [{"src": .., "inputs": [element...], "out": element, "dst": ..}]}

where an element is a list of diagrams, each
``{"left_idem": [...], "moving": [[i, j], ...], "horizontal": [...]}``.
Like ``standard``, the module executes on first use: the CLI reaches it
only for file inputs and ``dump-standard``.
"""
from __future__ import annotations

import json

from .elements import AlgebraElement
from .errors import ParseError
from .strands import (PointedMatchedCircle, _pair_labels, _strand_points,
                      algebra)
from .structures import AInfModule, DABimodule, TypeDStructure


def circle_from_json(data):
    try:
        k = data["k"]
        if type(k) is not int:      # no float, string or bool genus
            raise ValueError(f"genus must be a JSON integer, not {k!r}")
        matching = tuple(map(tuple, data["matching"]))
        for p in [q for pair in matching for q in pair]:
            if type(p) is not int:  # 1.0 == True == 1 would pass as point 1
                raise ValueError(f"points must be JSON integers, not {p!r}")
        return PointedMatchedCircle(k, matching)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad circle payload: {exc}") from exc


def _distinct_pairs(circle, labels, what):
    """The matched pairs ``labels`` names, each named once: a repeated
    label would shrink the set, and so the diagram or the idempotent."""
    pairs = _pair_labels(circle, labels)
    if len(pairs) != len(labels):
        raise ValueError(f"{what} {json.dumps(labels)} repeats a matched pair")
    return pairs


def diagram_from_json(circle, data):
    try:
        moving = _strand_points(circle, data["moving"])
        horizontal = _distinct_pairs(circle, data["horizontal"], "horizontal")
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


def element_from_json(circle, data, memo):
    """The element of a payload, decoded once per file: ``memo`` maps the
    identities of the circle and of the payload's diagrams, which
    ``load_structure`` shares, and on a miss the circle with the payload's
    ``repr``, exact, so ``true``, ``1`` and ``1.0`` stay apart, to the
    element."""
    key = (id(circle), *map(id, data))
    if key not in memo:
        exact = (circle, repr(data))
        if exact not in memo:
            memo[exact] = AlgebraElement(circle, frozenset(
                diagram_from_json(circle, d) for d in data))
        memo[key] = memo[exact]
    return memo[key]


def structure_to_json(S):
    kind, o, i = S.kind, S.out_alg, S.in_alg
    if kind == "D":
        circle = o.circle.to_json()
        idems = [sorted(S.out_idem[g]) for g in S.generators]
    elif kind == "A":
        circle = i.circle.to_json()
        idems = [sorted(S.in_idem[g]) for g in S.generators]
    elif kind == "DA":
        circle = {"out": o.circle.to_json(), "in": i.circle.to_json()}
        idems = [[sorted(S.out_idem[g]), sorted(S.in_idem[g])]
                 for g in S.generators]
    elif kind == "DD":
        circle = {"left": o.left.circle.to_json(),
                  "right": o.right.circle.to_json()}
        idems = [[sorted(a), sorted(b)]
                 for a, b in (S.out_idem[g] for g in S.generators)]
    else:
        raise ParseError(f"cannot serialize a {kind}-kind object")
    ops = []
    for src, ins, out, dst in S.sorted_ops():
        op = {"src": src, "inputs": [[b.to_json()] for b in ins], "dst": dst}
        if kind != "A":     # an A operation outputs the ground field's unit
            op["out"] = [[t.to_json()] for t in out] if kind == "DD" \
                else [out.to_json()]
        ops.append(op)
    gens = [{"label": g, "idem": idem} for g, idem in zip(S.generators, idems)]
    return {"kind": kind, "circle": circle, "generators": gens, "ops": ops}


def _refuse(kind, ops, key, what):
    """Type D and DD operations take no algebra inputs, and type A
    operations give no algebra output; a file that fills ``key`` anyway
    would otherwise have it silently dropped."""
    for i, o in enumerate(ops):
        if o.get(key):
            raise ParseError(f"operation {i} of a kind-{kind} structure "
                             f"carries {what}")


def _per_circle(kind, field, what):
    """The two entries, one per circle, of a DA or DD generator's ``idem``
    or a DD operation's ``out``; any other count is refused."""
    if len(field) != 2:
        raise ParseError(f"{what} of a kind-{kind} structure must have two "
                         f"entries, one per circle, not {len(field)}")
    return field


def _generators(kind, gens, *circles):
    """Each generator of a file as its label and its idempotent on each
    circle: k pair labels, read as the basic idempotent of the circle's
    algebra.  A DA or DD generator's ``idem`` has one entry per circle."""
    out = []
    for g in gens:
        what = f"generator {json.dumps(g['label'])} idem"
        idem = [g["idem"]] if len(circles) == 1 else _per_circle(
            kind, g["idem"], what)
        out.append((g["label"], *(
            algebra(c).idempotent(_distinct_pairs(c, p, what)).left_idem
            for c, p in zip(circles, idem))))
    return out


def structure_from_json(data):
    try:
        kind = data["kind"]
        gens = data["generators"]
        ops = data["ops"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing structure fields: {exc}") from exc
    memo = {}
    try:
        for label in (g["label"] for g in gens):
            if not isinstance(label, str):   # labels sort as strings
                raise ParseError("bad structure payload: generator label "
                                 f"{json.dumps(label)} is not a string")
        if kind == "D":
            circle = circle_from_json(data["circle"])
            delta = [(o["src"], element_from_json(circle, o["out"], memo),
                      o["dst"]) for o in ops]
            _refuse(kind, ops, "inputs", "algebra inputs")
            return TypeDStructure(circle, _generators(kind, gens, circle),
                                  delta)
        if kind == "A":
            circle = circle_from_json(data["circle"])
            operations = [(o["src"],
                           [element_from_json(circle, e, memo)
                            for e in o["inputs"]],
                           o["dst"]) for o in ops]
            _refuse(kind, ops, "out", "an algebra output")
            return AInfModule(circle, _generators(kind, gens, circle),
                              operations)
        if kind == "DA":
            out_circle = circle_from_json(data["circle"]["out"])
            in_circle = circle_from_json(data["circle"]["in"])
            operations = [(o["src"],
                           [element_from_json(in_circle, e, memo)
                            for e in o["inputs"]],
                           element_from_json(out_circle, o["out"], memo),
                           o["dst"]) for o in ops]
            return DABimodule(
                out_circle, in_circle,
                _generators(kind, gens, out_circle, in_circle), operations)
        if kind == "DD":
            left = circle_from_json(data["circle"]["left"])
            right = circle_from_json(data["circle"]["right"])
            delta = []
            for i, o in enumerate(ops):
                a, b = _per_circle(kind, o["out"], f"operation {i} out")
                delta.append((o["src"], (element_from_json(left, a, memo),
                                         element_from_json(right, b, memo)),
                              o["dst"]))
            _refuse(kind, ops, "inputs", "algebra inputs")
            from .dd import DDBimodule
            return DDBimodule(left, right,
                              _generators(kind, gens, left, right), delta)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad structure payload: {exc}") from exc
    raise ParseError(f"unknown structure kind {kind!r}")


def _shared_diagrams():
    """An ``object_hook`` that returns one object per exact diagram payload,
    keyed by its ``repr``, so ``true``, ``1`` and ``1.0`` stay apart."""
    seen = {}

    def hook(obj):
        return seen.setdefault(repr(obj), obj) if "moving" in obj else obj
    return hook


def load_structure(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_hook=_shared_diagrams())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:    # also an integer past the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests its JSON too deeply: {exc}") from exc
    return structure_from_json(data)


def dump_structure(S, path):
    with open(path, "w") as fh:
        json.dump(structure_to_json(S), fh, sort_keys=True, indent=1)
        fh.write("\n")


"""The box tensor product of structures and of morphisms: one chain walk
(``_pair_with_chains``) behind ``box_tensor``, the morphism pairings and
the type A pairings, and the boundedness check that makes it finite."""
from __future__ import annotations

import itertools

from .errors import DivergenceError, ParseError, refuse_past_cap
from .morphisms import Morphism
from .structures import _OUT, BorderedObject, _toggle


def _unsortable(ops):
    """The generators that Kahn's algorithm cannot remove from the graph
    with one edge per operation: those on a cycle or downstream of one."""
    succ, indegree = {}, {}
    for op in ops:
        succ.setdefault(op[0], []).append(op[3])
        indegree[op[3]] = indegree.get(op[3], 0) + 1
    ready = [g for g in succ if g not in indegree]
    while ready:
        for dst in succ.pop(ready.pop(), ()):
            indegree[dst] -= 1
            if not indegree[dst]:
                ready.append(dst)
    return {g for g, n in indegree.items() if n}


def validate_bounded(S):
    """Check operational boundedness of a no-input structure.

    The delta iteration runs forever exactly when some cycle of operations
    carries one and the same idempotent coefficient: a nonzero product of
    basis elements has the total strand length of its factors, so a product
    that comes back around a cycle was multiplied only by idempotents, and
    two different idempotents multiply to zero.  So the operations of each
    idempotent coefficient (grouped by coefficient, not by their
    generators' idempotents) are sorted topologically, with no product
    taken; the error names the first generator on or below a cycle.
    """
    if not S.in_alg.is_trivial:
        raise ValueError("boundedness applies to no-input structures")
    is_idem = S.out_alg.is_idem
    looping = set()
    for coeff, ops in S._grouped(_OUT).items():
        if is_idem(coeff):
            looping |= _unsortable(ops)
    for g in S.generators:
        if g in looping:
            raise DivergenceError("structure is not operationally bounded: "
                                  f"delta iteration loops through {g!r}")
    return True


def _chains_consuming(B2, start, outs):
    """All op-chains in B2 from ``start`` whose outputs read ``outs`` in
    order, as (concatenated inputs, end generator) in the order of a
    depth-first walk."""
    chains = [((), start)]
    for out in outs:
        chains = [(ins + op[1], op[3]) for ins, at in chains
                  for op in B2.ops_from_with_out(at, out)]
    return chains


def _chains_reading(B2, starts, word):
    """All op-chains in B2 from one of ``starts`` (one or more generators
    sharing one idempotent) whose outputs read ``word``, as (start,
    concatenated inputs, end generator).  Chains grow from the operations
    that output ``word[0]``, so a start with no such operation costs
    nothing; ``_pair_with_chains`` calls it only for a word that is empty
    or starts with a letter B2 outputs."""
    if not word:
        return [(g2, (), g2) for g2 in starts]
    idem = B2.out_idem[starts[0]]
    return [(op[0], op[1] + ins, end)
            for op in B2.ops_with_out(word[0]) if B2.out_idem[op[0]] == idem
            for ins, end in _chains_consuming(B2, op[3], word[1:])]


def _partners(gens1, idem1, gens2, idem2):
    """Map each of ``gens1`` to the generators ``g2`` of ``gens2`` with
    ``idem2[g2] == idem1[g1]``, in the order of ``gens2``: the pairs that
    survive in a box tensor product."""
    buckets = {}
    for g2 in gens2:
        buckets.setdefault(idem2[g2], []).append(g2)
    return {g1: buckets.get(idem1[g1], ()) for g1 in gens1}


def _label_pairs(gens1, partners, labels, stage, tag=""):
    """Label each pair (g1, g2) of one of ``gens1`` with one of its
    ``partners`` once, as ``labels[g1][g2] = tag + "g1|g2"``, and return
    the pairs by label, in order.  One label twice raises ParseError."""
    pairs = {}
    for g1 in filter(partners.get, gens1):
        row = labels.setdefault(g1, {})
        for g2 in partners[g1]:
            label = row[g2] = f"{tag}{g1}|{g2}"
            if (first := pairs.setdefault(label, (g1, g2))) != (g1, g2):
                raise ParseError(f"{stage}: generators {first} and "
                                 f"{(g1, g2)} pair to one label {label!r}")
    return pairs


def box_tensor(B1, B2):
    """Box tensor product pairing B1's algebra inputs with B2's outputs."""
    if B1.in_alg is not B2.out_alg:
        raise ValueError("input algebra of the first factor must match the "
                         "output algebra of the second")
    partners = _partners(B1.generators, B1.in_idem, B2.generators, B2.out_idem)
    refuse_past_cap("box_tensor", sum(map(len, partners.values())),
                    "generators")
    labels = {}
    pairs = _label_pairs(B1.generators, partners, labels, "box_tensor")
    ops = [B1.ops_from(g1) for g1 in B1.generators if partners[g1]]
    return BorderedObject(
        B1.out_alg, B2.in_alg, tuple(pairs),
        {g: B1.out_idem[g1] for g, (g1, _) in pairs.items()},
        {g: B2.in_idem[g2] for g, (_, g2) in pairs.items()},
        _pair_with_chains(itertools.chain.from_iterable(ops), B2, partners,
                          labels, "box_tensor"))


def _pair_with_chains(ops, B2, partners, labels, stage, dst_labels=None):
    """Pair each operation (or morphism component) (x, word, a, x2) of a
    left factor with the chains of B2 from ``partners[x]`` that read
    ``word``: the terms of its box tensor with B2.  Only the operations
    that can pair are walked: one whose source has no partner, or whose
    word starts with a letter that B2 never outputs, reads no chain and is
    skipped.  Each term's ends are the shared strings ``labels[x][g2]``
    and ``dst_labels[x2][end]`` (``labels`` by default); a term that
    ends on no pair (an operation off its target's idempotent) is a
    ValueError naming ``stage`` and the operation paired."""
    outputs = B2._grouped(_OUT)
    dst_labels = labels if dst_labels is None else dst_labels
    out = set()
    try:
        for x, word, a, x2 in ops:
            if not partners[x] or word and word[0] not in outputs:
                continue
            src = labels[x]
            for g2, ins, end in _chains_reading(B2, partners[x], word):
                _toggle(out, (src[g2], ins, a, dst_labels[x2][end]))
    except KeyError as err:
        raise ValueError(f"{stage}: pairing {(x, word, a, x2)!r} ends at "
                         f"{err.args[0]!r}, which has no partner: an "
                         "operation does not end at its target's "
                         "idempotent") from None
    return out


def box_morphism_right(B, f):
    """(Id_B boxtimes f): B on the left, f between right-hand structures."""
    return Morphism(box_tensor(B, f.source), box_tensor(B, f.target),
                    box_morphism_right_comps(B, f))


def box_morphism_right_comps(B, f):
    """The components of (Id_B boxtimes f), for callers that already hold
    its endpoints B x f.source and B x f.target.

    Each operation of B reads its word along a chain of P1 operations
    (the prefix), exactly one component of f, then a chain of P2
    operations (the suffix).  Only a word letter that some component of f
    outputs can take the component, so the walk visits just the operations
    that read such a letter, at those positions.  Labels are made for the
    walked operations' ends alone, and partners in P1 for their sources,
    made last."""
    P1, P2 = f.source, f.target
    f_by_out = {}
    for comp in f.comps:
        f_by_out.setdefault((comp[0], comp[2]), []).append(comp)
    letters = {comp[2] for comp in f.comps}
    walked = {op for c in letters for op in B.ops_reading(c)}
    labels = {}
    for P, ends in ((P2, {op[3] for op in walked}),
                    (P1, {op[0] for op in walked})):
        partners = _partners(ends, B.in_idem, P.generators, P.out_idem)
        _label_pairs(ends, partners, labels, "box_morphism_right")
    comps = set()
    for b, word, a, b2 in walked:
        for t, out in enumerate(word):
            if out not in letters:
                continue
            for p in partners[b]:
                for ins1, at in _chains_consuming(P1, p, word[:t]):
                    for _, ins2, _, mid in f_by_out.get((at, out), ()):
                        for ins3, end in _chains_consuming(P2, mid,
                                                           word[t + 1:]):
                            _toggle(comps, (labels[b][p], ins1 + ins2 + ins3,
                                            a, labels[b2][end]))
    return comps

"""The standard pieces of every genus that are built from the strands
algebra: the type D 0-framed handlebody and the interpolating piece az, a
DA bimodule (the A-infinity handlebody and azbar are in ``typea``)."""
from __future__ import annotations

import functools
import itertools

from .errors import refuse_past_cap
from .strands import algebra, split_pmc
from .structures import DABimodule, TypeDStructure


def cfd_zero_handlebody(k):
    """The standard one-generator type D structure of the 0-framed
    genus-k handlebody: k diagrams of k - 1 horizontals each, a size
    checked against the cap before any is listed."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    zk = split_pmc(k)
    refuse_past_cap("cfd_zero_handlebody", k * (k - 1), "horizontal entries")
    odd = frozenset(range(1, 2 * k + 1, 2))
    delta = []
    for i in range(k):
        moving = ((4 * i + 1, 4 * i + 3),)
        horizontal = odd - {2 * i + 1}
        delta.append(("n", algebra(zk).diagram(moving, horizontal), "n"))
    return TypeDStructure(zk, [("n", odd)], delta)


def cfda_az(circle, idempotents=None, letters=None):
    """DA bimodule of the interpolating piece: one generator per algebra
    basis element, right multiplication as the two-input operation, and the
    chord-sum one-input operation.

    Only the generators whose input idempotent is in ``idempotents`` are
    kept, with the whole piece's labels and order, and the two-input
    operations read only ``letters``: a box tensor with a type D structure
    over those idempotents, whose outputs are among those letters, reads no
    other.  ``None`` is every idempotent, or every letter between them.
    """
    alg = algebra(circle)
    if idempotents is None:
        alg.basis       # refuses past the cap, also when cached
    return _cfda_az(circle, frozenset(
        alg.idem_keys if idempotents is None else idempotents),
        None if letters is None else frozenset(letters))


@functools.cache
def _chords_into(alg, idem):
    """Each chord u into ``idem`` between two pairs, a strand from a pair p
    outside ``idem`` up to a pair q in it, the rest of ``idem`` horizontal,
    with its partner: u's strand from the complement of ``idem``."""
    Z, rest = alg.circle, frozenset(alg.circle.pairs) - idem
    return [(alg.diagram(((i, j),), idem - {q}),
             alg.diagram(((i, j),), rest - {p}))
            for q in idem for p in rest
            for i in Z.pair_points(p) for j in Z.pair_points(q) if i < j]


@functools.cache
def _cfda_az(circle, idempotents, letters=None):
    """az's generators a with a.right_idem in ``idempotents``, in basis
    order, and their operations, from the algebra on demand: a (x) [v] ->
    a.v with a's unit, v a letter from a.right_idem into ``idempotents``;
    a -> u.a with u's partner, u a chord into a.left_idem; a -> x with a's
    unit, x in d(a).  Each target has a's or v's right idempotent, so the
    kept generators are closed under every operation."""
    alg = algebra(circle)
    all_pairs = frozenset(circle.pairs)
    whole = idempotents == frozenset(alg.idem_keys)
    kept = alg.basis if whole else sorted(itertools.chain.from_iterable(
        map(alg.basis_into, idempotents)), key=alg.sort_key)
    if letters is None:
        letters = kept if whole else itertools.chain.from_iterable(
            alg.basis_between(x, y) for x in idempotents for y in idempotents)
    reads = {}
    for v in letters:
        if v.right_idem in idempotents:
            reads.setdefault(v.left_idem, []).append(v)
    name = {a: a.label for a in kept}
    gens, ops = [], []
    for a in kept:
        src, one = name[a], alg.idempotent(all_pairs - a.left_idem)
        gens.append((src, one.left_idem, a.right_idem))
        for v in reads.get(a.right_idem, ()):
            if (w := alg.mul_basis(a, v)) is not None:
                ops.append((src, [v], one, name[w]))
        for u, partner in _chords_into(alg, a.left_idem):
            if (w := alg.mul_basis(u, a)) is not None:
                ops.append((src, [], partner, name[w]))
        ops += [(src, [], one, name[x]) for x in alg.diff_basis(a)]
    return DABimodule(circle, circle, gens, ops)

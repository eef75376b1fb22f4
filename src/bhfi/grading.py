"""Grading classes of morphism complexes.

A grading that the differential never leaves splits a complex into
classes, each a union of support blocks.  ``graded_classes`` finds them
from potentials on a graph modulo its loops, and a ``GradedDifferential``
keeps one ``BlockDifferential`` per class, built when first read, so a
search that stops early never builds the classes after its hit.
``mor_differential`` grades a morphism complex by multiplicity; only the
morphism complexes use this module, and they import it on their first
build.
"""
from __future__ import annotations

import heapq
from functools import cache, cached_property

from .homology import BlockDifferential, F2Matrix, HomologyData, _bits


def graded_classes(edges, points):
    """The indices of ``points``, each (m, u, v), by the class of m plus
    the potentials of u and v, the classes ordered by first index.  Along
    an edge (s, m, t), the potential of t is that of s plus m, from a root
    of each connected piece of the graph; m and the potentials are F2
    vectors as bitmasks, taken modulo the loops, the sums of m around the
    graph's cycles.  The loops are echeloned as ``_echelon`` echelons
    columns, and a vector is reduced by clearing every pivot bit, lowest
    first: one value per class, and linear, so each m and each potential
    is reduced once."""
    up, loops = {}, []

    def find(g):                # (root, potential); a root is not in ``up``
        m = 0
        while g in up:
            g, step = up[g]
            m ^= step
        return g, m

    for s, m, t in edges:
        (rs, ms), (rt, mt) = find(s), find(t)
        if rs == rt:
            loops.append(ms ^ m ^ mt)
        else:
            up[rs] = (rt, ms ^ m ^ mt)
    pivots, cols, _, _ = F2Matrix(max(loops, default=0).bit_length(),
                                  len(loops), loops)._echelon()
    loops = [cols[j] for _, j in sorted(pivots.items())]

    @cache
    def reduced(x):
        for w in loops:
            x ^= w if x & w & -w else 0
        return x

    @cache
    def at(g):
        root, m = find(g)
        return root, reduced(m)

    classes = {}
    for i, (m, u, v) in enumerate(points):
        (ru, mu), (rv, mv) = at(u), at(v)
        classes.setdefault((ru, rv, reduced(m) ^ mu ^ mv), []).append(i)
    return tuple(map(tuple, classes.values()))


class GradedDifferential:
    """A square F2 differential split into grading classes that it never
    leaves: ``classes`` are sorted index tuples ordered by first index, and
    ``rows(members)`` gives a class's rows at its positions in ``members``.
    Each class is a ``BlockDifferential`` on those positions, ``parts[c]``,
    built with this differential for the first class and when ``runs()``
    reaches its first index for the others, so d² = 0 is checked on every
    block built; ``blocks``, ``homology()`` and ``matrix()`` read them all."""

    def __init__(self, classes, rows):
        self.classes, self._rows, self.parts = classes, rows, {}
        if classes:
            self.part(0)

    def part(self, c):
        if c not in self.parts:
            self.parts[c] = BlockDifferential(self._rows(self.classes[c]))
        return self.parts[c]

    def runs(self):
        """The cycles of each support block over all the indices, by first
        index: a heap holds the blocks of the classes built so far and the
        first index of each class not yet built."""
        heap = [(members[0], c, -1) for c, members in enumerate(self.classes)]
        while heap:
            _, c, b = heapq.heappop(heap)
            at, part = self.classes[c], self.part(c)
            if b < 0:
                for k, block in enumerate(part.blocks):
                    heapq.heappush(heap, (at[block[0]], c, k))
            else:
                yield [sum(1 << at[i] for i in _bits(z))
                       for z in part.cycles(b)]

    @cached_property
    def blocks(self):
        return tuple(sorted(tuple(at[i] for i in block)
                            for c, at in enumerate(self.classes)
                            for block in self.part(c).blocks))

    def homology(self):
        cycles = tuple(z for run in self.runs() for z in run)
        return HomologyData(len(cycles), cycles)

    def matrix(self):
        """The dense differential; a ChainComplex on it adopts this one."""
        n = sum(map(len, self.classes))
        d = F2Matrix.from_entries(n, n, (
            (at[r], at[j]) for c, at in enumerate(self.classes)
            for j, col in enumerate(self.part(c).rows) for r in col))
        object.__setattr__(d, "_blocks", self)
        return d


def mor_differential(P, Q, basis, walk):
    """The differential of Mor(P, Q) on ``basis``, its components
    (p, (), a, q), by grading class.  The class of a component is the
    multiplicity of a plus potentials of p and q on the graphs of P's and
    Q's operations, each operation s -> t with coefficient b an edge
    (s, mult(b), t).  Nonzero products add multiplicities and d keeps
    them, so d never leaves a class.  A class's rows come from ``walk``,
    the complex's ``_term_walk``; a term outside its class is a
    ValueError, never dropped."""
    mult = cache(P.out_alg.multiplicity)
    classes = graded_classes(
        [((side, s), mult(b), (side, t))
         for side, S in enumerate((P, Q)) for s, _, b, t in S.ops],
        [(mult(a), (0, p), (1, q)) for p, _, a, q in basis])

    def rows(members):
        pos = {basis[i]: n for n, i in enumerate(members)}
        try:
            return [[pos[t] for t in walk(basis[i], set())] for i in members]
        except KeyError as err:
            raise ValueError(f"mor_complex_DD: {err} leaves its grading "
                             "class") from None

    return GradedDifferential(classes, rows)

"""Grading classes of morphism complexes.

A grading that the differential never leaves splits a complex into
classes, each a union of support blocks.  ``graded_classes`` finds them
from potentials on a graph modulo its loops, and ``mor_differential``
grades a morphism complex by multiplicity, into a ``BlockDifferential``
that builds each class when first read, so a search that stops early
never builds the classes after its hit.  Only the morphism complexes use
this module, and they import it on their first build.
"""
from __future__ import annotations

from functools import cache

from .homology import BlockDifferential, F2Matrix


def graded_classes(edges, points):
    """The indices of ``points``, each (m, u, v), by the class of m plus
    the potentials of u and v, the classes ordered by first index.  Along
    an edge (s, m, t), the potential of t is that of s plus m, from a root
    of each connected piece of the graph; m and the potentials are F2
    vectors as bitmasks, taken modulo the loops, the sums of m around the
    graph's cycles.  The pieces are a union-find with path compression:
    each node keeps its potential over its parent, and a lookup points
    every node it passes at the root, so the whole pass is near-linear.
    The loops are echeloned as ``_echelon`` echelons columns, and a vector
    is reduced by clearing every pivot bit, lowest first: one value per
    class, and linear, so each m and each potential is reduced once."""
    up, loops = {}, []          # g: (parent, potential over it); roots absent

    def find(g):                # (root, potential), pointing g's path at it
        path = []
        while g in up:
            path.append(g)
            g = up[g][0]
        m = 0
        for node in reversed(path):
            m ^= up[node][1]
            up[node] = g, m
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


def mor_differential(P, Q, basis, walk):
    """The differential of Mor(P, Q) on ``basis``, its components
    (p, (), a, q) as ``_elementary_components`` lists them, by grading
    class, every component graded in one near-linear pass.  The class of
    a component is the multiplicity of a plus potentials of p and q on
    the graphs of P's and Q's operations, whose nodes are P's generators
    and then Q's, numbered; each operation s -> t with coefficient b is an
    edge (s, mult(b), t).  Nonzero products add multiplicities and d
    keeps them, so d never leaves a class.  A class's rows come from
    ``walk``, the complex's ``_term_walk``; a term outside its class is a
    ValueError, never dropped."""
    mult = cache(P.out_alg.multiplicity)
    node_p = {p: n for n, p in enumerate(P.generators)}
    node_q = {q: n for n, q in enumerate(Q.generators, len(node_p))}
    classes = graded_classes(
        [(node[s], mult(b), node[t])
         for node, S in ((node_p, P), (node_q, Q)) for s, _, b, t in S.ops],
        [(mult(a), node_p[p], node_q[q]) for p, _, a, q in basis])

    def rows(members):
        pos = {basis[i]: n for n, i in enumerate(members)}
        try:
            return [[pos[t] for t in walk(basis[i], set())] for i in members]
        except KeyError as err:
            raise ValueError(f"mor_complex_DD: {err} leaves its grading "
                             "class") from None

    return BlockDifferential.graded(classes, rows)

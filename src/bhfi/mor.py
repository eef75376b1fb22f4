"""Morphism complexes of type D structures, which ``verify`` never runs:
their bases of elementary components, counted against the cap before any
is listed, and their differentials, graded by multiplicity into classes
that the differential never leaves (``graded_classes``), each built when
first read, so a search that stops early never builds the classes after
its hit."""
from __future__ import annotations

import heapq
from functools import cache, cached_property

from ._record import record
from .errors import refuse_past_cap
from .homology import BlockDifferential, _bits, echelon
from .structures import BorderedObject, _term_walk


def graded_classes(edges, points):
    """The indices of ``points``, each (m, u, v), by the class of m plus
    the potentials of u and v, the classes ordered by first index.  Along
    an edge (s, m, t), the potential of t is that of s plus m, from a root
    of each connected piece of the graph; m and the potentials are F2
    vectors as bitmasks, taken modulo the loops, the sums of m around the
    graph's cycles.  The pieces are a union-find with path compression:
    each node keeps its potential over its parent, and a lookup points
    every node it passes at the root, so the whole pass is near-linear.
    The loops are echeloned by ``echelon``, and a vector
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
    pivots, cols, _, _ = echelon(loops)
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


def _elementary_components(stage, A, B, max_arity=1):
    """The elementary components A -> B, each (a, word, out, b) with
    ``out`` a basis element between the output idempotents of a and b and
    ``word`` an idempotent-chained input word of at most ``max_arity - 1``
    letters between their input idempotents.  They are counted and refused
    past the cap, naming ``stage``, before any is listed, then listed in
    ``A.op_sort_key`` order with no key built: a by label, its words in
    preorder over the ``basis_from`` listings, the outputs merged by
    ``sort_key`` across the spans to B's output idempotents, b by label."""
    out_alg, in_alg = A.out_alg, A.in_alg
    depth = 0 if in_alg.is_trivial else max_arity - 1
    spans = {}              # B's generators by input, then output idempotent
    for b in sorted(B.generators):
        spans.setdefault(B.in_idem[b], {}).setdefault(B.out_idem[b],
                                                      []).append(b)

    def preorder(word, at):
        yield word, at
        for b in in_alg.basis_from(at) if len(word) < depth else ():
            yield from preorder(word + (b,), in_alg.right_idem_of(b))

    words = cache(lambda i: list(preorder((), i)))      # (word, end)
    targets = cache(lambda o, j: list(heapq.merge(      # (out, bs)
        *([(out, bs) for out in out_alg.basis_between(o, p)]
          for p, bs in spans.get(j, {}).items()),
        key=lambda pair: out_alg.sort_key(pair[0]))))
    a_gens = sorted(A.generators)
    refuse_past_cap(stage, sum(
        len(bs) * len(out_alg.basis_between(A.out_idem[a], p))
        for a in a_gens for _, j in words(A.in_idem[a])
        for p, bs in spans.get(j, {}).items()), "basis morphisms")
    return [(a, w, out, b) for a in a_gens for w, j in words(A.in_idem[a])
            for out, bs in targets(A.out_idem[a], j) for b in bs]


@record
class MorComplex:
    """The chain complex of type D structure morphisms P -> Q, with its
    basis of elementary components (``_elementary_components``).  The
    differential is kept one grading class at a time, each class built on
    first use; the dense ``complex``, built on first use, adopts it."""

    P: BorderedObject
    Q: BorderedObject
    basis: tuple              # components (p, (), coefficient diagram, q)
    differential: object      # a BlockDifferential by grading class

    @cached_property
    def complex(self):
        from .matrices import ChainComplex
        alg = self.P.out_alg
        return ChainComplex(
            tuple(f"{p}>{alg.label_of(a)}>{q}" for p, _, a, q in self.basis),
            self.differential.matrix())

    def homology(self):
        return self.differential.homology()

    @cached_property
    def _pos(self):
        return {t: i for i, t in enumerate(self.basis)}

    def vector_of(self, morphism):
        vec = 0
        for comp in morphism.comps:
            vec ^= 1 << self._pos[comp]
        return vec

    def morphism_of(self, vec):
        from .morphisms import Morphism
        return Morphism(self.P, self.Q, {self.basis[i] for i in _bits(vec)})


def mor_complex_DD(P, Q):
    """Morphism complex between two type D structures over one algebra,
    kept one grading class at a time (``mor_differential``), with
    d² = 0 checked on every block built."""
    if P.out_alg is not Q.out_alg or not P.in_alg.is_trivial \
       or not Q.in_alg.is_trivial:
        raise ValueError("morphism complexes need type D structures over "
                         "one algebra")
    basis = tuple(_elementary_components("mor_complex_DD", P, Q))
    return MorComplex(P, Q, basis,
                      mor_differential(P, Q, basis, _term_walk(Q, P)))

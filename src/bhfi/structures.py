"""Bordered structures: type D, A-infinity, DA and DD objects over strands
algebras, with box tensor products, morphism complexes, relation checkers
and cancellation.

Every structure kind is stored the same way: a finite list of generators
carrying an idempotent on the algebra-output side and one on the
algebra-input side, plus a finite F2 set of operations

    (source, algebra inputs, algebra output, target)

with basis-element coefficients.  Type D structures have no inputs,
A-infinity modules have trivial output, DD bimodules output into a tensor
algebra, chain complexes have both sides trivial.  All of the calculus
(box tensors, structure relations, morphism calculus, cancellation) is
written once against this shape.
"""
from __future__ import annotations

import heapq
import itertools
from functools import cache, cached_property
from operator import itemgetter

from ._record import record
from .errors import (DivergenceError, ParseError, RelationViolation,
                     refuse_past_cap)
from .homology import BlockDifferential, ChainComplex, F2Matrix, _bits
from .strands import AlgebraElement, algebra


# ---------------------------------------------------------------------------
# the two auxiliary algebras of the generic interface


class TrivialAlgebra:
    """The ground field F2 as a one-element 'algebra' for absent sides."""

    is_trivial = True
    UNIT = "1"

    basis = (UNIT,)

    @staticmethod
    def mul_basis(a, b):
        return TrivialAlgebra.UNIT

    @staticmethod
    def diff_basis(a):
        return frozenset()

    @staticmethod
    def left_idem_of(a):
        return TrivialAlgebra.UNIT

    right_idem_of = left_idem_of

    @staticmethod
    def is_idem(a):
        return True

    @staticmethod
    def sort_key(a):
        return (0,)

    @staticmethod
    def label_of(a):
        return "1"

    @staticmethod
    def multiplicity(a):
        return 0

    @staticmethod
    def idem_sort_key(idem):
        return (0,)

    @staticmethod
    def idem_element(idem_key):
        return TrivialAlgebra.UNIT

    @staticmethod
    def basis_between(left, right):
        return (TrivialAlgebra.UNIT,)


TRIVIAL = TrivialAlgebra()


class TensorAlgebra:
    """Tensor product of two strands algebras; basis = pairs of diagrams.

    A product is the pair of the two factors' own cached products, or
    None when either is zero; it is not cached here.
    """

    is_trivial = False

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def mul_basis(self, a, b):
        left = self.left.mul_basis(a[0], b[0])
        if left is None:
            return None
        right = self.right.mul_basis(a[1], b[1])
        if right is None:
            return None
        return (left, right)

    def diff_basis(self, a):
        out = {(c, a[1]) for c in self.left.diff_basis(a[0])}
        out ^= {(a[0], c) for c in self.right.diff_basis(a[1])}
        return frozenset(out)

    def left_idem_of(self, a):
        return (self.left.left_idem_of(a[0]), self.right.left_idem_of(a[1]))

    def right_idem_of(self, a):
        return (self.left.right_idem_of(a[0]), self.right.right_idem_of(a[1]))

    def is_idem(self, a):
        return self.left.is_idem(a[0]) and self.right.is_idem(a[1])

    def sort_key(self, a):
        return (self.left.sort_key(a[0]), self.right.sort_key(a[1]))

    def label_of(self, a):
        return f"{self.left.label_of(a[0])}*{self.right.label_of(a[1])}"

    def multiplicity(self, a):
        return self.left.multiplicity(a[0]) | \
            self.right.multiplicity(a[1]) << self.left.circle.n_points

    def idem_sort_key(self, idem):
        return (self.left.idem_sort_key(idem[0]),
                self.right.idem_sort_key(idem[1]))

    def idem_element(self, idem_key):
        return (self.left.idem_element(idem_key[0]),
                self.right.idem_element(idem_key[1]))

    def basis_between(self, left, right):
        return tuple((a, b)
                     for a in self.left.basis_between(left[0], right[0])
                     for b in self.right.basis_between(left[1], right[1]))


@cache
def tensor_algebra(left, right):
    return TensorAlgebra(left, right)


# ---------------------------------------------------------------------------
# the common structure container


def _coefficient_terms(value):
    """The basis terms of a coefficient: an AlgebraElement's terms, the
    tuples of terms of a tuple of coefficients, or a basis element."""
    if isinstance(value, AlgebraElement):
        return value.terms
    if isinstance(value, tuple):
        return itertools.product(*map(_coefficient_terms, value))
    return (value,)


def _expand(entries):
    """The F2 set of operations spelled by the entries (source, input
    sums, output sum, target): the product of each entry's term sets,
    summed over the entries, so that a term met twice cancels."""
    ops = set()
    for src, ins, out, dst in entries:
        for t in itertools.product(*map(_coefficient_terms, ins),
                                   _coefficient_terms(out)):
            ops ^= {(src, t[:-1], t[-1], dst)}
    return ops


_SRC, _OUT, _DST = itemgetter(0), itemgetter(2), itemgetter(3)
_SRC_OUT = itemgetter(0, 2)


class BorderedObject:
    """Common container for all structure kinds; see the module docstring."""

    def __init__(self, out_alg, in_alg, generators, out_idem, in_idem, ops):
        self.out_alg = out_alg
        self.in_alg = in_alg
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator labels")
        self.out_idem = dict(out_idem)
        self.in_idem = dict(in_idem)
        self.ops = frozenset(ops)
        for (src, ins, out, dst) in self.ops:
            if src not in self.out_idem or dst not in self.out_idem:
                raise ValueError(f"operation references unknown generator "
                                 f"{src!r} or {dst!r}")
        self._index = {}

    # -- structural views ---------------------------------------------------

    @property
    def kind(self):
        o = not self.out_alg.is_trivial
        i = not self.in_alg.is_trivial
        if o and i:
            return "DA"
        if o:
            return "DD" if isinstance(self.out_alg, TensorAlgebra) else "D"
        if i:
            return "A"
        return "CX"

    def op_sort_key(self, op):
        src, ins, out, dst = op
        return (src, tuple(map(self.in_alg.sort_key, ins)),
                self.out_alg.sort_key(out), dst)

    def sorted_ops(self):
        return sorted(self.ops, key=self.op_sort_key)

    def _grouped(self, key):
        """The operations grouped by ``key``; each index is built on its
        first request."""
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = {}
            for op in self.ops:
                index.setdefault(key(op), []).append(op)
        return index

    def ops_from(self, src):
        return self._grouped(_SRC).get(src, ())

    def ops_into(self, dst):
        return self._grouped(_DST).get(dst, ())

    def ops_with_out(self, out):
        return self._grouped(_OUT).get(out, ())

    def ops_from_with_out(self, src, out):
        return self._grouped(_SRC_OUT).get((src, out), ())

    def ops_reading(self, letter):
        """The operations whose input word contains ``letter``, once per
        occurrence; the index is built on the first lookup."""
        index = self._index.get("letters")
        if index is None:
            index = self._index["letters"] = {}
            for op in self.ops:
                for b in op[1]:
                    index.setdefault(b, []).append(op)
        return index.get(letter, ())

    def relabeled(self, mapping):
        return BorderedObject(
            self.out_alg, self.in_alg,
            tuple(mapping[g] for g in self.generators),
            {mapping[g]: v for g, v in self.out_idem.items()},
            {mapping[g]: v for g, v in self.in_idem.items()},
            frozenset((mapping[s], ins, out, mapping[t])
                      for s, ins, out, t in self.ops))

    def __repr__(self):
        return (f"<{self.kind} structure: {len(self.generators)} generators, "
                f"{len(self.ops)} operations>")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, BorderedObject)
            and self.out_alg is other.out_alg
            and self.in_alg is other.in_alg
            and self.generators == other.generators
            and self.out_idem == other.out_idem
            and self.in_idem == other.in_idem
            and self.ops == other.ops)

    def __hash__(self):
        return hash((self.generators, self.ops))


# ---------------------------------------------------------------------------
# spec-facing structure kinds


class TypeDStructure(BorderedObject):
    """Type D structure: generators with one idempotent, delta with algebra
    coefficients on the left."""

    def __init__(self, circle, generators, delta):
        gens = [g for g, _ in generators]
        super().__init__(algebra(circle), TRIVIAL, gens,
                         {g: frozenset(i) for g, i in generators},
                         dict.fromkeys(gens, TRIVIAL.UNIT),
                         _expand((s, (), c, t) for s, c, t in delta))


class AInfModule(BorderedObject):
    """A-infinity module: operations m_{1+j} against algebra inputs."""

    def __init__(self, circle, generators, operations):
        gens = [g for g, _ in generators]
        super().__init__(TRIVIAL, algebra(circle), gens,
                         dict.fromkeys(gens, TRIVIAL.UNIT),
                         {g: frozenset(i) for g, i in generators},
                         _expand((s, w, TRIVIAL.UNIT, t)
                                 for s, w, t in operations))


class DABimodule(BorderedObject):
    """Type DA bimodule: algebra output on one circle, inputs on another."""

    def __init__(self, out_circle, in_circle, generators, operations):
        super().__init__(algebra(out_circle), algebra(in_circle),
                         [g for g, _, _ in generators],
                         {g: frozenset(o) for g, o, _ in generators},
                         {g: frozenset(i) for g, _, i in generators},
                         _expand(operations))


class DDBimodule(BorderedObject):
    """Type DD bimodule: a type D structure over a tensor of two algebras."""

    def __init__(self, circle_left, circle_right, generators, delta):
        gens = [g for g, _, _ in generators]
        super().__init__(
            tensor_algebra(algebra(circle_left), algebra(circle_right)),
            TRIVIAL, gens,
            {g: (frozenset(a), frozenset(b)) for g, a, b in generators},
            dict.fromkeys(gens, TRIVIAL.UNIT),
            _expand((s, (), (ca, cb), t) for s, (ca, cb), t in delta))


# ---------------------------------------------------------------------------
# relation checking (fully symbolic: the residues below vanish identically
# if and only if the relations hold for every choice of algebra inputs)


def _toggle(acc, op):
    if op in acc:
        acc.discard(op)
    else:
        acc.add(op)


def _term_walk(T, S=None):
    """One call's relation-term walk: a function that toggles into a set,
    and returns it, the terms of an operation or component (x, w, a, y)
    into T in order: S's operations into x before it (S given), T's out of
    y after it, a's differential, then each input's differentials and
    splits.  Each of these is computed once per walk and then reused."""
    mul, in_alg = T.out_alg.mul_basis, T.in_alg
    heads, tails, splits = {}, {}, {}

    def walk(comp, acc):
        x, w, a, y = comp
        if S is not None:
            if (hs := heads.get((x, a))) is None:
                hs = heads[x, a] = [(s, w0, c) for s, w0, b, _ in S.ops_into(x)
                                    if (c := mul(b, a)) is not None]
            for s, w0, c in hs:
                if (t := (s, w0 + w, c, y)) in acc:
                    acc.discard(t)
                else:
                    acc.add(t)
        if (ts := tails.get((a, y))) is None:
            ts = tails[a, y] = []
            for _, w2, b, z in T.ops_from(y):
                if (c := mul(a, b)) is not None:
                    ts.append((w2, c, z))
            for c in T.out_alg.diff_basis(a):
                ts.append(((), c, y))
        for w2, c, z in ts:
            if (t := (x, w + w2, c, z)) in acc:
                acc.discard(t)
            else:
                acc.add(t)
        if (vs := splits.get(w)) is None:
            vs = splits[w] = [
                w[:pos] + part + w[pos + 1:] for pos, b in enumerate(w)
                for part in [(b0,) for b0 in in_alg.diff_preimages(b)]
                + list(in_alg.mul_preimages(b))]
        for v in vs:
            if (t := (x, v, a, y)) in acc:
                acc.discard(t)
            else:
                acc.add(t)
        return acc

    return walk


def structure_residue(S):
    """Leftover terms of the structure relation, as operations: one
    ``_term_walk`` toggles the terms of every operation, source by source,
    into one set ``acc``, where a term met twice cancels."""
    walk, acc = _term_walk(S), set()
    for ops in S._grouped(_SRC).values():
        for op in ops:
            walk(op, acc)
    return acc


def idempotent_violations(S):
    """Operations whose coefficients do not match the generator idempotents;
    each distinct coefficient and input word is read once, as the two
    idempotents it runs between (None when its letters do not chain)."""
    out_alg, in_alg = S.out_alg, S.in_alg
    outs, words, bad = {}, {}, []
    for src, ins, out, dst in S.ops:
        if out not in outs:
            outs[out] = (out_alg.left_idem_of(out), out_alg.right_idem_of(out))
        if ins and ins not in words:
            lefts = [in_alg.left_idem_of(b) for b in ins]
            rights = [in_alg.right_idem_of(b) for b in ins]
            words[ins] = (lefts[0], rights[-1]) \
                if lefts[1:] == rights[:-1] else None
        span = (S.in_idem[src], S.in_idem[dst])
        if outs[out] != (S.out_idem[src], S.out_idem[dst]) or (
                words[ins] != span if ins else span[0] != span[1]):
            bad.append((src, ins, out, dst))
    return sorted(bad, key=S.op_sort_key)


def check_structure(S):
    """All violations: idempotent mismatches plus structure-relation residue.

    The relation residue is computed symbolically, which covers every input
    word at once; words longer than twice the stored arity cannot support a
    nonzero term, so the check is complete for finitely presented structures.
    """
    violations = [("idempotent", op) for op in idempotent_violations(S)]
    if not violations:
        residue = structure_residue(S)
        violations += [("relation", op)
                       for op in sorted(residue, key=S.op_sort_key)]
    return violations


def require_valid(S, what="structure"):
    """Raise RelationViolation naming ``what`` unless S passes
    ``check_structure``."""
    bad = check_structure(S)
    if bad:
        raise RelationViolation(f"{what} fails {len(bad)} structure "
                                f"relations; first: {bad[0]}")
    return S


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


# ---------------------------------------------------------------------------
# box tensor products


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


def _label_pairs(gens1, partners, labels, stage):
    """Label each pair (g1, g2) of one of ``gens1`` with one of its
    ``partners`` once, as ``labels[g1][g2] = "g1|g2"``, and return the
    pairs by label, in order.  Two pairs with one label raise ParseError."""
    pairs = {}
    for g1 in filter(partners.get, gens1):
        row = labels.setdefault(g1, {})
        for g2 in partners[g1]:
            label = row[g2] = f"{g1}|{g2}"
            if (first := pairs.setdefault(label, (g1, g2))) != (g1, g2):
                raise ParseError(f"{stage}: generators {first} and "
                                 f"{(g1, g2)} pair to one label {label!r}")
    return pairs


def _pairing(stage, B1, B2):
    """The pairs of B1 with B2 by label (``_label_pairs``), and the terms
    of that pairing: the operations out of generators with a partner,
    paired by ``_pair_with_chains``."""
    partners = _partners(B1.generators, B1.in_idem, B2.generators, B2.out_idem)
    refuse_past_cap(stage, sum(map(len, partners.values())), "generators")
    labels = {}
    pairs = _label_pairs(B1.generators, partners, labels, stage)
    ops = [B1.ops_from(g1) for g1 in B1.generators if partners[g1]]
    return pairs, _pair_with_chains(itertools.chain.from_iterable(ops), B2,
                                    partners, labels, stage)


def box_tensor(B1, B2):
    """Box tensor product pairing B1's algebra inputs with B2's outputs."""
    if B1.in_alg is not B2.out_alg:
        raise ValueError("input algebra of the first factor must match the "
                         "output algebra of the second")
    pairs, ops = _pairing("box_tensor", B1, B2)
    return BorderedObject(B1.out_alg, B2.in_alg, tuple(pairs),
                          {g: B1.out_idem[g1] for g, (g1, _) in pairs.items()},
                          {g: B2.in_idem[g2] for g, (_, g2) in pairs.items()},
                          ops)


def _pair_with_chains(ops, B2, partners, labels, stage):
    """Pair each operation (or morphism component) (x, word, a, x2) of a
    left factor with the chains of B2 from ``partners[x]`` that read
    ``word``: the terms of its box tensor with B2.  Only the operations
    that can pair are walked: one whose source has no partner, or whose
    word starts with a letter that B2 never outputs, reads no chain and is
    skipped.  Each term's ends are the shared strings ``labels[x][g2]``
    and ``labels[x2][end]``, so ``labels`` must cover the targets too; a
    term that ends on no pair (an operation off its target's idempotent)
    is a ValueError naming ``stage`` and the operation paired."""
    outputs = B2._grouped(_OUT)
    out = set()
    try:
        for x, word, a, x2 in ops:
            if not partners[x] or word and word[0] not in outputs:
                continue
            src = labels[x]
            for g2, ins, end in _chains_reading(B2, partners[x], word):
                _toggle(out, (src[g2], ins, a, labels[x2][end]))
    except KeyError as err:
        raise ValueError(f"{stage}: pairing {(x, word, a, x2)!r} ends at "
                         f"{err.args[0]!r}, which has no partner: an "
                         "operation does not end at its target's "
                         "idempotent") from None
    return out


def to_chain_complex(S):
    """View a both-sides-trivial structure as a based chain complex, each
    generator's row list read off its operations (one per target)."""
    if S.kind != "CX":
        raise ValueError("structure still carries algebra actions")
    pos = {g: i for i, g in enumerate(S.generators)}
    rows = [[] for _ in pos]
    for src, _, _, dst in S.ops:
        rows[pos[src]].append(pos[dst])
    return ChainComplex(S.generators, BlockDifferential(rows).matrix())


def box_tensor_AD(M, P):
    """Pair an A-infinity module with a type D structure; a chain complex."""
    validate_bounded(P)
    return to_chain_complex(box_tensor(M, P))


def box_tensor_DD_side(B, X):
    """Pair a DA bimodule (or A-infinity module) with the left factor of a
    DD-type structure, carrying the right factor along.

    ``X`` is a no-input structure over a tensor algebra whose left factor is
    ``B``'s input algebra.  The result is a no-input structure over
    ``B.out_alg`` tensor the carried factor (the trivial output of an
    A-infinity module is dropped).  It pairs B with the carried view of
    X, whose operations output X's left coefficients and read the right
    ones as one-letter inputs, through the generator loop and chain walk
    of ``box_tensor`` (``_pairing``: the same walked operations and shared
    labels); each term's carried word is multiplied out from the carried
    idempotent of its source, with no paired structure in between.
    """
    if not isinstance(X.out_alg, TensorAlgebra) or \
       X.out_alg.left is not B.in_alg:
        raise ValueError("left output factor must match the input algebra")
    carried = X.out_alg.right
    view = BorderedObject(
        B.in_alg, carried, X.generators,
        {x: idem[0] for x, idem in X.out_idem.items()},
        {x: idem[1] for x, idem in X.out_idem.items()},
        [(x, (right,), left, y) for x, _, (left, right), y in X.ops])
    pairs, terms = _pairing("box_tensor_DD_side", B, view)
    trivial_out = B.out_alg.is_trivial
    res_alg = carried if trivial_out else tensor_algebra(B.out_alg, carried)
    right = {g: view.in_idem[x] for g, (_, x) in pairs.items()}
    out_idem = right if trivial_out else {
        g: (B.out_idem[b], right[g]) for g, (b, _) in pairs.items()}
    start = {g: (carried.idem_element(idem),) for g, idem in right.items()}
    ops = set()
    for src, word, a, dst in terms:
        if (prod := carried.mul_many(start[src] + word)) is not None:
            _toggle(ops, (src, (), prod if trivial_out else (a, prod), dst))
    return BorderedObject(res_alg, TRIVIAL, tuple(right), out_idem,
                          dict.fromkeys(right, TRIVIAL.UNIT), ops)


# ---------------------------------------------------------------------------
# morphisms


@record
class Morphism:
    """A degree-0 collection of component maps between structures of one
    kind, stored exactly like structure operations."""

    source: BorderedObject
    target: BorderedObject
    comps: frozenset = frozenset()

    def __post_init__(self):
        if self.source.out_alg is not self.target.out_alg or \
           self.source.in_alg is not self.target.in_alg:
            raise ValueError("endpoint structures live over different algebras")
        object.__setattr__(self, "comps", frozenset(self.comps))
        for src, ins, out, dst in self.comps:
            if src not in self.source.out_idem or \
               dst not in self.target.out_idem:
                raise ValueError("component references unknown generators")

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise RelationViolation("+: the end structures differ")
        return Morphism(self.source, self.target, self.comps ^ other.comps)

    def sorted_comps(self):
        return sorted(self.comps, key=self.source.op_sort_key)

    def then(self, other):
        """Composition: apply self first, then ``other``, whose source
        must be self's target as one structure (``BorderedObject.__eq__``)."""
        if other.source != self.target:
            raise RelationViolation("then: the middle structures differ")
        out_alg = self.source.out_alg
        by_src = {}
        for comp in other.comps:
            by_src.setdefault(comp[0], []).append(comp)
        acc = set()
        for (x, w1, a, m) in self.comps:
            for (_, w2, b, z) in by_src.get(m, ()):
                if (c := out_alg.mul_basis(a, b)) is not None:
                    _toggle(acc, (x, w1 + w2, c, z))
        return Morphism(self.source, other.target, acc)

    def differential(self):
        """The morphism-complex differential: by linearity, every
        component's terms toggled into one set by one ``_term_walk``."""
        walk, acc = _term_walk(self.target, self.source), set()
        for comp in self.comps:
            walk(comp, acc)
        return Morphism(self.source, self.target, acc)

    def is_cycle(self):
        return not self.differential().comps

    def cone_trace(self):
        """``contraction_trace`` of the cone: its reduction trace when it
        cancels away, None otherwise.  Computed on the first call and kept
        with this morphism, so a search and a later certificate of the
        same morphism reduce its cone once."""
        if not hasattr(self, "_cone_trace"):
            object.__setattr__(self, "_cone_trace",
                               contraction_trace(self.cone()))
        return self._cone_trace

    def cone(self):
        """Mapping cone, a structure of the same kind; each generator's
        ``S:``/``T:`` label is made once and shared by its operations."""
        S, T = self.source, self.target
        s, t = ({g: f"{tag}:{g}" for g in X.generators}
                for tag, X in (("S", S), ("T", T)))
        out_idem = {s[g]: v for g, v in S.out_idem.items()} | \
            {t[g]: v for g, v in T.out_idem.items()}
        in_idem = {s[g]: v for g, v in S.in_idem.items()} | \
            {t[g]: v for g, v in T.in_idem.items()}
        ops = {(s[x], w, a, s[y]) for x, w, a, y in S.ops}
        ops |= {(t[x], w, a, t[y]) for x, w, a, y in T.ops}
        ops |= {(s[x], w, a, t[y]) for x, w, a, y in self.comps}
        return BorderedObject(S.out_alg, S.in_alg,
                              (*s.values(), *t.values()), out_idem, in_idem,
                              ops)

    def to_matrix(self, source_cx, target_cx):
        """The matrix of a morphism of both-sides-trivial structures between
        the given based complexes, matched by generator label.  Nothing is
        checked: callers test the chain-map identity themselves."""
        spos = {g: i for i, g in enumerate(source_cx.generators)}
        tpos = {g: i for i, g in enumerate(target_cx.generators)}
        return F2Matrix.from_entries(len(tpos), len(spos), [
            (tpos[dst], spos[src]) for src, _, _, dst in self.comps])

    def __repr__(self):
        return f"<morphism: {len(self.comps)} components>"


def identity_morphism(S):
    return morphism_from_generator_map(S, S, {g: g for g in S.generators})


def _generator_map_comps(S, mapping):
    """The components g -> mapping[g] with identity coefficients."""
    return [(g, (), S.out_alg.idem_element(S.out_idem[g]), mapping[g])
            for g in S.generators]


def morphism_from_generator_map(S, T, mapping):
    """The morphism induced by a label bijection (identity coefficients)."""
    return Morphism(S, T, _generator_map_comps(S, mapping))


# -- tensoring morphisms with identities -------------------------------------


def box_morphism_left_comps(f, P):
    """The components of (f boxtimes Id_P): f between left-hand structures,
    P on the right, for callers that already hold its endpoints
    f.source x P and f.target x P.  The labels cover both endpoints, since
    each component ends in f.target x P; the walk starts from the partners
    of f.source, made last."""
    labels = {}
    for B1 in (f.target, f.source):
        partners = _partners(B1.generators, B1.in_idem, P.generators,
                             P.out_idem)
        _label_pairs(B1.generators, partners, labels, "box_morphism_left")
    return _pair_with_chains(f.comps, P, partners, labels,
                             "box_morphism_left")


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


# ---------------------------------------------------------------------------
# elementary components and the morphism complexes of type D structures


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
        return Morphism(self.P, self.Q, {self.basis[i] for i in _bits(vec)})


def mor_complex_DD(P, Q):
    """Morphism complex between two type D structures over one algebra,
    kept one grading class at a time (``grading.mor_differential``), with
    d² = 0 checked on every block built."""
    if P.out_alg is not Q.out_alg or not P.in_alg.is_trivial \
       or not Q.in_alg.is_trivial:
        raise ValueError("morphism complexes need type D structures over "
                         "one algebra")
    basis = tuple(_elementary_components("mor_complex_DD", P, Q))
    from .grading import mor_differential
    return MorComplex(P, Q, basis,
                      mor_differential(P, Q, basis, _term_walk(Q, P)))


# ---------------------------------------------------------------------------
# identity bimodules


def identity_da(circle):
    """The identity DA bimodule: one generator per idempotent, the right
    action feeding straight through."""
    alg = algebra(circle)
    idem = {f"e_{d.label}": d.left_idem for d in alg.idempotent_diagrams}
    label = {pairs: g for g, pairs in idem.items()}
    ops = {(label[b.left_idem], (b,), b, label[b.right_idem])
           for b in alg.basis}
    return BorderedObject(alg, alg, tuple(idem), idem, idem, ops)


# ---------------------------------------------------------------------------
# cancellation


@record
class StructureReduction:
    reduced: BorderedObject
    from_reduced: Morphism | None
    to_reduced: Morphism | None
    trace: tuple


def reduce_structure(S, track_from=False, track_to=False):
    """Cancel length-zero idempotent-coefficient operations.

    Returns the reduced structure together with (optionally) the homotopy
    equivalences in and out of it, both honest morphisms of the same kind.

    Cancelling a pair with parallel operations requires a correction
    series; the series terminates exactly when no parallel operation
    carries an idempotent (unit-like) coefficient, because everything else
    multiplies into the nilpotent ideal.  Pairs whose series would not
    terminate are blocked: each is left alone until a correction removes
    the loop that blocks it, so the result can stop short of a minimal
    model for input-carrying structures (one-input minimal models honestly
    need infinitely many operations); for no-input structures the
    reduction always completes.
    """
    out_alg, in_alg = S.out_alg, S.in_alg
    # each live operation sits in two buckets, its source's and its
    # target's, and nowhere else: membership is ``op in by_src[op[0]]``
    by_src = {g: set() for g in S.out_idem}
    by_dst = {g: set() for g in S.out_idem}

    def cancellable(op):
        return not op[1] and op[0] != op[3] and out_alg.is_idem(op[2])

    def add_op(op):
        bucket = by_src[op[0]]
        if op in bucket:
            bucket.discard(op)
            by_dst[op[3]].discard(op)
            # a loop is gone: each operation it blocked is queued again
            for o in blocked.pop((op[0], op[3]), ()):
                heapq.heappush(heap, (S.op_sort_key(o), o))
        else:
            bucket.add(op)
            by_dst[op[3]].add(op)
            if cancellable(op):
                heapq.heappush(heap, (S.op_sort_key(op), op))

    for op in S.ops:
        by_src[op[0]].add(op)
        by_dst[op[3]].add(op)
    # each cancellable operation as (op_sort_key, op), pushed when added;
    # sort keys are unique, so two entries compare their operations only
    # when the entries are equal
    heap = [(S.op_sort_key(op), op) for op in S.ops if cancellable(op)]
    heapq.heapify(heap)

    # accumulated morphisms, both starting from the identity, indexed for
    # cheap composition
    identity = _generator_map_comps(S, {g: g for g in S.generators})
    from_comps = {c[0]: {c} for c in identity} if track_from else None
    to_by_dst = {c[3]: {c} for c in identity} if track_to else None

    trace = []

    def compose(firsts, seconds):
        """Each nonzero product of an operation in ``firsts`` followed by
        one in ``seconds``, as (source, word, coefficient, target); the
        generators in the middle are not matched."""
        return [(s, w1 + w2, c, t) for s, w1, a, _ in firsts
                for _, w2, b, t in seconds
                if (c := out_alg.mul_basis(a, b)) is not None]

    # (x, y) -> the operations x -> y an idempotent loop blocks; only
    # ``add_op`` can unblock them, as dropping x or y drops them too
    blocked = {}
    while heap:
        op = heapq.heappop(heap)[1]
        x, _, _, y = op
        # stale: its source is cancelled or the operation is toggled away
        if op not in by_src.get(x, ()):
            continue
        loops = [o for o in by_src[x] if o[3] == y and o != op]
        if any(out_alg.is_idem(l[2]) for l in loops):
            blocked.setdefault((x, y), set()).add(op)  # series never ends
            continue
        into_y = [o for o in by_dst[y] if o[0] not in (x, y)]
        from_x = [o for o in by_src[x] if o[3] not in (x, y)]
        trace.append((x, y))

        # the zig-zag series e.(loops)*, seeded with the cancelled operation,
        # whose coefficient e is the idempotent at y.  It ends: no loop
        # carries an idempotent, and a nonzero product of basis elements
        # has the total strand length of its factors, so each fold adds
        # length until the products vanish.
        series, frontier = [], [op]
        while frontier:
            series += frontier
            frontier = compose(frontier, loops)
        heads = compose(into_y, series)
        if track_from:
            for comp in compose(heads, from_comps.pop(x)):
                _toggle(from_comps[comp[0]], comp)
            del from_comps[y]
        if track_to:
            for comp in compose(to_by_dst.pop(y), compose(series, from_x)):
                _toggle(to_by_dst[comp[3]], comp)
            del to_by_dst[x]

        # drop the cancelled pair: its four buckets go whole, and each of
        # their operations leaves its far end's bucket, which in this order
        # is never gone: a bucket popped earlier took its operations out
        # of the ones popped later.  Then apply the corrections
        for g in (x, y):
            for o in by_src.pop(g):
                by_dst[o[3]].discard(o)
            for o in by_dst.pop(g):
                by_src[o[0]].discard(o)
        for op in compose(heads, from_x):
            add_op(op)

    alive = tuple(g for g in S.generators if g in by_src)
    reduced = BorderedObject(out_alg, in_alg, alive,
                             {g: S.out_idem[g] for g in alive},
                             {g: S.in_idem[g] for g in alive},
                             itertools.chain.from_iterable(by_src.values()))
    # the buckets of a cancelled pair are dropped, so each tracked
    # morphism is the union of the buckets left
    from_mor = to_mor = None
    if track_from:
        from_mor = Morphism(reduced, S, set().union(*from_comps.values()))
    if track_to:
        to_mor = Morphism(S, reduced, set().union(*to_by_dst.values()))
    return StructureReduction(reduced, from_mor, to_mor, tuple(trace))


def contraction_trace(S):
    """The reduction trace when the structure cancels away completely;
    None otherwise.

    Structures with algebra inputs are first converted to the no-input side
    by pairing with the DD identity of the input circle, where cancellation
    provably terminates.
    """
    if not S.in_alg.is_trivial:
        from .standard import dd_identity
        S = box_tensor_DD_side(S, dd_identity(S.in_alg.circle))
    red = reduce_structure(S)
    return None if red.reduced.generators else red.trace

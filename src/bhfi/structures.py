"""Bordered structures over strands algebras, and their relation checker.

Every structure kind is stored the same way: a finite list of generators
carrying an idempotent on the algebra-output side and one on the
algebra-input side, plus a finite F2 set of operations

    (source, algebra inputs, algebra output, target)

with basis-element coefficients.  Type D structures have no inputs,
A-infinity modules have trivial output, DD bimodules (``dd``) output into
a tensor algebra, chain complexes have both sides trivial.  All of the
calculus is written once against this shape.  The names here of ``dd``,
``mor``, ``morphisms``, ``pairing`` and ``typea`` import them on first use.
"""
from __future__ import annotations

import itertools
from operator import itemgetter

from . import _forward
from .errors import RelationViolation
from .strands import StrandsAlgebra, algebra

__getattr__ = _forward(
    __name__, dd="DDBimodule TensorAlgebra tensor_algebra",
    mor="MorComplex mor_complex_DD", morphisms="Morphism "
    "StructureReduction contraction_trace identity_morphism "
    "morphism_from_generator_map reduce_structure",
    pairing="box_morphism_right box_morphism_right_comps box_tensor "
    "validate_bounded", typea="box_morphism_left_comps box_tensor_AD "
    "box_tensor_DD_side identity_da to_chain_complex")


# ---------------------------------------------------------------------------
# the trivial algebra of the generic interface


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

    right_idem_of = idem_element = label_of = left_idem_of

    @staticmethod
    def is_idem(a):
        return True

    @staticmethod
    def sort_key(a):
        return (0,)

    idem_sort_key = sort_key

    @staticmethod
    def multiplicity(a):
        return 0

    @staticmethod
    def basis_between(left, right):
        return (TrivialAlgebra.UNIT,)


TRIVIAL = TrivialAlgebra()


# ---------------------------------------------------------------------------
# the common structure container


def _coefficient_terms(value):
    """The basis terms of a coefficient: the tuples of terms of a tuple of
    coefficients, a sum's ``terms`` (an ``AlgebraElement``), or a basis
    element."""
    if isinstance(value, tuple):
        return itertools.product(*map(_coefficient_terms, value))
    return getattr(value, "terms", (value,))


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
            return "D" if isinstance(self.out_alg, StrandsAlgebra) else "DD"
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

"""Type DD bimodules: the tensor product of two strands algebras that they
output into, the bimodules over it, and the DD identity."""
from __future__ import annotations

import itertools
import math
from functools import cache

from .errors import refuse_past_cap
from .strands import algebra, chord_term_count
from .structures import TRIVIAL, BorderedObject, _expand


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


def dd_identity(circle):
    """The DD bimodule of the identity cobordism: complementary idempotent
    pairs, differential the sum over chords paired with their reverses.

    Both output factors are written over the same reflection-symmetric
    circle; the second factor carries the reflected coefficients.  Both
    sizes, C(2k, k) generators and the terms of every chord, are checked
    against the cap on every call, before anything is listed, so a lower
    cap refuses a cached build too; the bimodule is built once per circle.
    """
    refuse_past_cap("dd_identity", math.comb(2 * circle.k, circle.k),
                    "generators")
    refuse_past_cap("dd_identity", chord_term_count(circle), "chord terms")
    return _dd_identity(circle)


@cache
def _dd_identity(circle):
    alg = algebra(circle)
    all_pairs = frozenset(circle.pairs)
    subsets = [frozenset(s) for s in
               itertools.combinations(sorted(all_pairs), circle.k)]
    # the right idempotent of each generator is the reflected complement
    # of its left idempotent
    paired = {s: frozenset(circle.reflect_pair_label(p)
                           for p in all_pairs - s) for s in subsets}
    gens = [(_gen_label(s), s, paired[s]) for s in subsets]
    delta = []
    for i, j in itertools.combinations(range(1, circle.n_points + 1), 2):
        terms = alg.chord_terms(i, j)
        mirror = {(r.left_idem, r.right_idem): r
                  for r in map(_reflect, terms)}
        for d in terms:
            r = mirror.get((paired[d.left_idem], paired[d.right_idem]))
            if r is not None:
                delta.append((_gen_label(d.left_idem), (d, r),
                              _gen_label(d.right_idem)))
    return DDBimodule(circle, circle, gens, delta)


def _gen_label(pairs):
    return "i" + ".".join(str(p) for p in sorted(pairs))


def _reflect(d):
    """The corresponding diagram of the orientation-reversed circle,
    written back in the coordinates of the (reflection-symmetric) circle."""
    Z = d.circle
    moving = tuple(sorted((Z.reflect_point(j), Z.reflect_point(i))
                          for i, j in d.moving))
    horizontal = frozenset(Z.reflect_pair_label(p) for p in d.horizontal)
    return algebra(Z).diagram(moving, horizontal)

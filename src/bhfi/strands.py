"""Pointed matched circles and the weight-0 summand of their strands algebras.

Everything is exact arithmetic over F2.  A basis element of the algebra is a
strand diagram: a set of moving strands (strictly increasing arcs between
marked points) together with a set of "smeared" horizontal strands, one per
matched pair.  Products and the differential are both computed on the
smeared diagrams themselves: the product of two basis elements is zero or
one basis element, found by composing strands pair by pair and checking
that crossings add; the differential resolves one crossing at a time and
checks that crossings drop by one.  Nothing expands the placements of the
horizontal strands.
"""
from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter

from ._record import record
from .errors import generator_cap, refuse_past_cap


def _as_pairs(matching):
    return tuple(sorted(tuple(sorted(p)) for p in matching))


@record
class PointedMatchedCircle:
    """A circle with 4k marked points and a 2-to-1 matching.

    Points are linearly ordered 1..4k (the basepoint sits between 4k and 1
    and is never crossed by a chord).  Matched pairs are labeled 1..2k in
    order of their smallest point.
    """

    k: int
    matching: tuple = ()
    reversed_orientation: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("genus must be a positive integer")
        matching = _as_pairs(self.matching)
        object.__setattr__(self, "matching", matching)
        # counted first, so that a huge k lists no 4k points
        if len(matching) != 2 * self.k or any(len(p) != 2 for p in matching):
            raise ValueError("matching must consist of 2k pairs")
        points = [p for pair in matching for p in pair]
        if sorted(points) != list(range(1, 4 * self.k + 1)):
            raise ValueError("matching must pair up the points 1..4k")
        object.__setattr__(self, "_pair_of", {
            p: idx for idx, pair in enumerate(matching, start=1)
            for p in pair})
        # every algebra(circle) lookup hashes the circle
        object.__setattr__(self, "_hash", hash(
            (self.k, matching, self.reversed_orientation)))

    def __hash__(self):
        return self._hash

    @property
    def n_points(self):
        return 4 * self.k

    @property
    def pairs(self):
        """Pair labels, 1..2k."""
        return tuple(range(1, 2 * self.k + 1))

    def pair_label(self, point):
        try:
            return self._pair_of[point]
        except (KeyError, TypeError):
            raise ValueError(f"no such point: {point}") from None

    def pair_points(self, label):
        return self.matching[label - 1]

    def reflect_point(self, point):
        return self.n_points + 1 - point

    def reflect_pair_label(self, label):
        a, b = self.pair_points(label)
        return self.pair_label(self.reflect_point(a))

    def reverse(self):
        """Orientation reverse; reversing twice gives back the original."""
        refl = [(self.reflect_point(a), self.reflect_point(b))
                for a, b in self.matching]
        return PointedMatchedCircle(self.k, _as_pairs(refl),
                                    not self.reversed_orientation)

    def to_json(self):
        return {"k": self.k, "matching": [list(p) for p in self.matching]}

    def __repr__(self):
        tag = "-" if self.reversed_orientation else ""
        return f"PMC({tag}k={self.k})"


def split_pmc(k):
    """The split circle of genus k: pairs {4i+1, 4i+3} and {4i+2, 4i+4}."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    refuse_past_cap("split_pmc", 4 * k, "points")
    matching = []
    for i in range(k):
        matching.append((4 * i + 1, 4 * i + 3))
        matching.append((4 * i + 2, 4 * i + 4))
    return PointedMatchedCircle(k, tuple(matching))


def _pair_labels(circle, labels):
    """The matched-pair labels as a frozenset: each a JSON integer in
    1..2k.  A bool or a float would equal a label, and so find the
    interned diagram of that label."""
    labels = frozenset(labels)
    for p in labels:
        if type(p) is not int or not 1 <= p <= 2 * circle.k:
            raise ValueError(f"no matched pair {p!r} on a genus-{circle.k} "
                             f"circle")
    return labels


def _strand_points(circle, moving):
    """The moving strands as sorted pairs of points: each strand two JSON
    integers in 1..4k.  A bool or a float would equal a point, and so find
    the interned diagram of that point."""
    strands = [tuple(s) for s in moving]
    for s in strands:
        if len(s) != 2 or not all(type(p) is int and 1 <= p <= circle.n_points
                                  for p in s):
            raise ValueError(f"strand {list(s)!r} is not two points of a "
                             f"genus-{circle.k} circle")
    return tuple(sorted(strands))


# ---------------------------------------------------------------------------
# crossing counts

def _inversions(strands):
    inv = 0
    for (i1, j1), (i2, j2) in itertools.combinations(strands, 2):
        if (i1 - i2) * (j1 - j2) < 0:
            inv += 1
    return inv


def _over(strands, q):
    """How many of the strands cross a horizontal strand pinned at q."""
    return sum(i < q < j for i, j in strands)


class StrandDiagram(int):
    """Basis element of the weight-0 strands algebra of a matched circle.

    ``moving`` holds the strictly increasing strands on points; ``horizontal``
    the matched-pair labels carrying a smeared horizontal strand.  The
    diagram is an ``int``: its value is a code of its strands, injective on
    the diagrams of one circle and the same in every process, so it hashes
    in C.  The left and right idempotents and the sort key are derived
    once, at construction.  ``StrandsAlgebra.diagram`` hands out one shared
    object per diagram; a directly constructed copy compares and hashes
    equal, and a diagram never equals a bare int or a diagram of another
    circle.
    """

    def __new__(cls, circle, moving=(), horizontal=frozenset()):
        moving = _strand_points(circle, moving)
        horizontal = _pair_labels(circle, horizontal)
        Z = circle
        srcs = [Z.pair_label(i) for i, _ in moving]
        dsts = [Z.pair_label(j) for _, j in moving]
        for i, j in moving:
            if not i < j:
                raise ValueError(f"strand {(i, j)} is not strictly increasing")
        if len(set(i for i, _ in moving)) != len(moving) or \
           len(set(j for _, j in moving)) != len(moving):
            raise ValueError("moving strands must have distinct endpoints")
        if len(set(srcs)) != len(moving) or len(set(dsts)) != len(moving):
            raise ValueError("two strands occupy one matched pair")
        if horizontal & set(srcs) or horizontal & set(dsts):
            raise ValueError("horizontal pair clashes with a moving strand")
        if len(moving) + len(horizontal) != Z.k:
            raise ValueError("not a weight-0 diagram (need k occupied pairs)")
        # one bit per horizontal pair, then one digit per point: the end of
        # the strand leaving it; nonzero, since k >= 1 pairs are occupied
        width = Z.n_points.bit_length()
        code = sum(1 << (p - 1) for p in horizontal)
        for i, j in moving:
            code |= j << (2 * Z.k + width * (i - 1))
        self = super().__new__(cls, code)
        left = frozenset(srcs) | horizontal
        self.__dict__.update(
            circle=Z, moving=moving, horizontal=horizontal, left_idem=left,
            right_idem=frozenset(dsts) | horizontal,
            _sort_key=(tuple(sorted(left)), moving, tuple(sorted(horizontal))),
            # what a product needs: the moving strand leaving each pair,
            # and the crossings among the moving strands
            _leaving=dict(zip(srcs, moving)), _crossings=_inversions(moving))
        return self

    __hash__ = int.__hash__

    def __eq__(self, other):
        if self is other:
            return True
        return (other.__class__ is StrandDiagram and int.__eq__(self, other)
                and self.circle == other.circle)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __setattr__(self, name, value):
        # frozen: the code, and with it the hash, is fixed by the fields
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def is_idempotent(self):
        return not self.moving

    def sort_key(self):
        return self._sort_key

    @property
    def label(self):
        parts = [f"r{i}.{j}" for i, j in self.moving]
        parts += [f"h{p}" for p in sorted(self.horizontal)]
        return "_".join(parts)

    def to_json(self):
        return {"left_idem": sorted(self.left_idem),
                "moving": [list(s) for s in self.moving],
                "horizontal": sorted(self.horizontal)}

    def __repr__(self):
        return self.label


_MISS = object()     # not cached yet; a cached None is a zero product
# what a pair does at its first point, given whether it must: (here, owed)
_CHOICES = {False: ((0, 0),), True: ((1, 0), (0, 1))}


class StrandsAlgebra:
    """The weight-0 summand of the strands algebra of a matched circle.

    Interns its diagrams, one object per diagram, and caches products,
    differentials and the basis listings between two idempotents, from
    one and into one, each listed straight from its idempotents and
    refused past the cap by its own size.  The whole basis and the reverse
    lookups the relation checkers need are built by ``tables`` on first
    use.  Products and differentials are composed on the smeared diagrams.
    """

    def __init__(self, circle):
        self.circle = circle
        self._diagrams = {}
        self._mul_cache = {}
        self._diff_cache = {}
        self._between, self._from, self._into = {}, {}, {}
        self._tables = None

    def diagram(self, moving=(), horizontal=()):
        """The interned diagram with these strands, built on first request."""
        key = (tuple(sorted(tuple(s) for s in moving)), frozenset(horizontal))
        diag = self._diagrams.get(key)
        if diag is None:
            diag = self._diagrams[key] = StrandDiagram(self.circle, *key)
        return diag

    # -- basis ---------------------------------------------------------

    def _sweep(self, left, right, ways):
        """Count (``ways`` 1) or list (``ways`` [()], as moving strands) the
        diagrams from idempotent ``left`` to ``right``, in one pass over the
        points.  A pair of ``left`` only has a strand leaving it, a pair of
        ``right`` only one arriving, and a pair of both carries either a
        horizontal or both strands.  At its first point a pair takes what it
        does there and owes the rest to its second point; a strand arriving
        closes one of the open strands, before one may leave that point.
        A state is (starts owed, ends owed, open strands' starts)."""
        Z, counting = self.circle, ways == 1
        states = {(0, 0, ()): ways}
        for point in range(1, Z.n_points + 1):
            p = Z.pair_label(point)
            bit, first = 1 << p, point == Z.pair_points(p)[0]
            # (end here, start here, start owed, end owed)
            moves = [(e, s, so, eo)
                     for s, so in _CHOICES[p in left]
                     for e, eo in _CHOICES[p in right]]
            if p in left and p in right:
                moves.append((0, 0, 0, 0))      # a horizontal
            nxt = {}
            for (owed_s, owed_e, opened), value in states.items():
                for e, s, so, eo in moves if first else \
                        [(owed_e & bit, owed_s & bit, 0, 0)]:
                    ends = [(opened, value)] if not e else [
                        (opened[:n] + opened[n + 1:],
                         value if counting else [m + ((i, point),)
                                                 for m in value])
                        for n, i in enumerate(opened)]
                    for rest, v in ends:
                        key = ((owed_s & ~bit) | so * bit,
                               (owed_e & ~bit) | eo * bit,
                               rest + (point,) if s else rest)
                        nxt[key] = nxt[key] + v if key in nxt else v
            states = nxt
        return states.get((0, 0, ()), ways * 0)

    def _refuse_listing(self, spans):
        """Refuse past the cap the diagrams between the idempotent pairs
        ``spans``, counted only when a bound passes it: 5 ways for a pair
        of both idempotents, 2 for a pair of one, k! ways to join them."""
        if math.factorial(self.circle.k) * sum(
                5 ** len(x & y) * 2 ** len(x ^ y)
                for x, y in spans) > generator_cap():
            refuse_past_cap("strands basis", sum(
                self._sweep(x, y, 1) for x, y in spans), "diagrams")

    def _listing(self, cache, key, spans):
        """The basis diagrams between the idempotent pairs ``spans``, in
        basis order, refused past the cap first and cached under ``key``."""
        hit = cache.get(key)
        if hit is None:
            self._refuse_listing(spans)
            pair_of = self.circle._pair_of
            hit = cache[key] = tuple(sorted(
                (self.diagram(m, x - {pair_of[i] for i, _ in m})
                 for x, y in spans for m in self._sweep(x, y, [()])),
                key=StrandDiagram.sort_key))
        return hit

    @property
    def idempotent_diagrams(self):
        return tuple(map(self.idempotent, self.idem_keys))

    def idempotent(self, pairs):
        """The basic idempotent occupying the given matched pairs: its
        interned diagram, looked up by the pair set with no sorted key."""
        key = ((), frozenset(pairs))
        diag = self._diagrams.get(key)
        return self.diagram(*key) if diag is None else diag

    # -- ring operations -------------------------------------------------

    def mul_basis(self, a, b):
        """The product of two basis elements: the interned diagram, or
        None when it is zero (cached as None too)."""
        key = (a, b)
        hit = self._mul_cache.get(key, _MISS)
        if hit is _MISS:
            hit = self._mul_cache[key] = (
                self._mul_smeared(a, b) if a.right_idem == b.left_idem
                else None)
        return hit

    def _mul_smeared(self, a, b):
        """Compose two diagrams whose idempotents match, pair by pair.

        On each occupied middle pair, a's strand into point j and b's
        strand out of j compose; b's strand out of j's partner kills the
        product; a horizontal meeting a strand sits where the strand meets
        the middle; two horizontals stay one smeared horizontal.  Crossings must
        add for every placement of those shared horizontals, or for none.
        """
        pair_of = self.circle._pair_of
        leaving = b._leaving
        moving = []
        pinned_a = []   # where a's horizontals sit, against b's strands
        pinned_b = []   # where b's horizontals sit, against a's strands
        for i, j in a.moving:
            strand = leaving.get(pair_of[j])
            if strand is None:
                moving.append((i, j))
                pinned_b.append(j)
            elif strand[0] == j:
                moving.append((i, strand[1]))
            else:
                return None
        shared = []
        for p in a.horizontal:
            strand = leaving.get(p)
            if strand is None:
                shared.append(p)
            else:
                moving.append(strand)
                pinned_a.append(strand[0])
        if not self._all_or_none(
                _inversions(moving) - a._crossings - b._crossings
                - sum(_over(a.moving, q) for q in pinned_a)
                - sum(_over(b.moving, q) for q in pinned_b),
                shared, a.moving + b.moving, moving):
            return None
        return self.diagram(moving, shared)

    def _all_or_none(self, excess, shared, before, after):
        """Whether the crossing-count ``excess``, counted without the
        ``shared`` horizontals, is 0 for every placement of them (True) or
        for none (False).  A shared pair placed at q adds what the ``after``
        strands cross at q less what the ``before`` strands cross there;
        only the distinct excesses are kept, so the work stays polynomial.
        """
        excess = {excess}
        for p in shared:
            excess = {e + _over(after, q) - _over(before, q)
                      for e in excess for q in self.circle.pair_points(p)}
        if all(excess):
            return False
        if any(excess):
            raise AssertionError("incomplete smeared group; not in the algebra")
        return True

    def diff_basis(self, a):
        hit = self._diff_cache.get(a)
        if hit is None:
            hit = self._diff_cache[a] = self._diff_smeared(a)
        return hit

    def _diff_smeared(self, a):
        """Resolve one crossing of a at a time, on the smeared diagram.

        Two crossing moving strands swap their ends; a moving strand
        (i, j) over a point q of a horizontal pair p breaks into (i, q) and
        (q, j), consuming p's horizontal.  A resolution stays when it drops
        the crossing count by one for every placement of the remaining
        horizontals, and goes when it does for none.
        """
        moving, horizontal = a.moving, a.horizontal
        # (strands resolved, strands made, horizontals left, crossings at q)
        found = [((s, t), [(s[0], t[1]), (t[0], s[1])], horizontal, 0)
                 for s, t in itertools.combinations(moving, 2)
                 if t[1] < s[1]]        # sorted, so s[0] < t[0]
        found += [((s,), [(s[0], q), (q, s[1])], horizontal - {p},
                   _over(moving, q))
                  for s in moving for p in horizontal
                  for q in self.circle.pair_points(p) if s[0] < q < s[1]]
        out = []
        for gone, made, rest, pinned in found:
            res = [s for s in moving if s not in gone] + made
            if self._all_or_none(_inversions(res) + 1 - a._crossings - pinned,
                                 rest, moving, res):
                out.append(self.diagram(res, rest))
        return frozenset(out)

    def mul_many(self, factors):
        """Fold a nonempty list of basis elements: one diagram or None."""
        acc = factors[0]
        for b in factors[1:]:
            acc = self.mul_basis(acc, b)
            if acc is None:
                break
        return acc

    # -- idempotent bookkeeping (generic-algebra interface) ---------------

    is_trivial = False
    left_idem_of = staticmethod(attrgetter("left_idem"))
    right_idem_of = staticmethod(attrgetter("right_idem"))
    is_idem = staticmethod(attrgetter("is_idempotent"))
    sort_key = staticmethod(attrgetter("_sort_key"))
    label_of = staticmethod(attrgetter("label"))

    @staticmethod
    def multiplicity(a):
        """Bit i - 1 is set when an odd number of a's moving strands cover
        the interval from point i to i + 1."""
        m = 0
        for i, j in a.moving:
            m ^= (1 << j - 1) - (1 << i - 1)
        return m

    @staticmethod
    def idem_sort_key(idem):
        return tuple(sorted(idem))

    idem_element = idempotent

    @functools.cached_property
    def idem_keys(self):
        """The idempotents as pair sets: the k-subsets of the 2k pairs, in
        basis order, counted against the cap before any is listed."""
        Z = self.circle
        refuse_past_cap("strands basis", math.comb(2 * Z.k, Z.k),
                        "idempotents")
        return tuple(map(frozenset, itertools.combinations(Z.pairs, Z.k)))

    def basis_between(self, left, right):
        """Canonically ordered basis elements with the given idempotents."""
        key = (frozenset(left), frozenset(right))
        return self._listing(self._between, key, (key,))

    def basis_from(self, left):
        """Canonically ordered basis elements with left idempotent ``left``."""
        left = frozenset(left)
        return self._listing(self._from, left,
                             [(left, y) for y in self.idem_keys])

    def basis_into(self, right):
        """Canonically ordered basis elements ending at idempotent ``right``."""
        right = frozenset(right)
        return self._listing(self._into, right,
                             [(x, right) for x in self.idem_keys])

    @property
    def basis(self):
        """Every basis diagram, refused past the cap on each read."""
        from .tables import basis
        return basis(self)

    def chord_terms(self, i, j):
        """The terms of the chord a(rho_{i,j}): one moving strand i -> j,
        with every horizontal completion."""
        Z = self.circle
        if not 1 <= i < j <= Z.n_points:
            raise ValueError("chord endpoints must satisfy 1 <= i < j <= 4k")
        occupied = {Z.pair_label(i), Z.pair_label(j)}
        free = [p for p in Z.pairs if p not in occupied]
        return [self.diagram(((i, j),), h)
                for h in itertools.combinations(free, Z.k - 1)]

    # -- reverse lookups for relation checking ---------------------------

    def mul_preimages(self, c):
        return (self._tables or self._ensure_tables())[0].get(c, ())

    def diff_preimages(self, c):
        return (self._tables or self._ensure_tables())[1].get(c, ())

    def _ensure_tables(self):
        from .tables import preimage_tables
        return preimage_tables(self)


_ALGEBRAS = {}


def algebra(circle):
    alg = _ALGEBRAS.get(circle)
    if alg is None:
        alg = _ALGEBRAS[circle] = StrandsAlgebra(circle)
    return alg


def chord_term_count(circle):
    """The number of diagrams with one moving strand, which are the terms
    of all the chords: a strand between two pairs leaves k - 1 of the other
    2k - 2 pairs horizontal, a strand within one pair k - 1 of 2k - 1."""
    k, comb = circle.k, math.comb
    return (comb(4 * k, 2) - 2 * k) * comb(2 * k - 2, k - 1) + \
        2 * k * comb(2 * k - 1, k - 1)

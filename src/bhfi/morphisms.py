"""Morphisms between structures of one kind (composition, the morphism
differential, mapping cones) and cancellation, which reduces a structure
along tracked homotopy equivalences and certifies that a cone cancels."""
from __future__ import annotations

import functools
import gc
import heapq
import itertools

from ._record import record
from .errors import RelationViolation
from .structures import BorderedObject, _term_walk, _toggle


def collector_paused(fn):
    """``fn`` with the cycle collector off during each call if it was on:
    a pipeline keeps millions of tuples alive, none in a cycle."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


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
        """Whether the differential is zero, read one source generator p at
        a time into a set of its own: S's operations out of p followed by
        components, then the tails and splits of the components out of p.
        ``differential`` builds the whole morphism instead."""
        S, mul, walk = self.source, self.target.out_alg.mul_basis, \
            _term_walk(self.target)
        by_src = {}
        for comp in self.comps:
            by_src.setdefault(comp[0], []).append(comp)
        for p in S.generators:
            acc = set()
            for _, w0, b, s in S.ops_from(p):
                for _, w, a, y in by_src.get(s, ()):
                    if (c := mul(b, a)) is not None:
                        _toggle(acc, (p, w0 + w, c, y))
            for comp in by_src.get(p, ()):
                walk(comp, acc)
            if acc:
                return False
        return True

    def cone_trace(self):
        """``contraction_trace`` of the cone or, with inputs, of its DD side
        (``box_tensor_DD_side`` of this morphism's parts), kept with this
        morphism, so a search and a later certificate reduce it once."""
        if not hasattr(self, "_cone_trace"):
            if self.source.in_alg.is_trivial:
                cone = self.cone()
            else:
                from .dd import dd_identity
                from .typea import box_tensor_DD_side
                cone = box_tensor_DD_side(
                    self, dd_identity(self.source.in_alg.circle))
            object.__setattr__(self, "_cone_trace", contraction_trace(cone))
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


@record
class StructureReduction:
    reduced: BorderedObject
    from_reduced: Morphism | None
    to_reduced: Morphism | None
    trace: tuple


def reduce_structure(S, track_from=False, track_to=False):
    """Cancel length-zero idempotent-coefficient operations, and return
    the reduced structure with (optionally) the homotopy equivalences in
    and out of it, both honest morphisms of the same kind.

    A pair with parallel operations (loops) is cancelled along a
    correction series, which ends exactly when no loop carries an
    idempotent coefficient.  Any other pair is blocked until a correction
    removes the loop that blocks it, so an input-carrying structure can
    stop short of a minimal model (one-input minimal models need
    infinitely many operations); a no-input structure always reduces
    completely.
    """
    out_alg, in_alg = S.out_alg, S.in_alg
    mul, is_idem, key = out_alg.mul_basis, out_alg.is_idem, out_alg.sort_key
    # each live operation sits in two buckets, its source's and its
    # target's, and nowhere else: membership is ``op in by_src[op[0]]``
    by_src = {g: set() for g in S.out_idem}
    by_dst = {g: set() for g in S.out_idem}
    for op in S.ops:
        by_src[op[0]].add(op)
        by_dst[op[3]].add(op)
    # each cancellable operation (no inputs, an idempotent coefficient, two
    # ends) as ((source, coefficient's sort key, target), op), in
    # ``op_sort_key`` order; keys are unique, so ops are never compared
    heap = [((x, key(a), y), (x, w, a, y)) for x, w, a, y in S.ops
            if not w and x != y and is_idem(a)]
    heapq.heapify(heap)

    identity = _generator_map_comps(S, {g: g for g in S.generators})
    from_comps = {c[0]: {c} for c in identity} if track_from else None
    zigzags, trace = [], []     # each cancelled y with its zig-zag

    def compose(firsts, seconds):
        """Each nonzero product of an operation in ``firsts`` followed by
        one in ``seconds``, whose middle generators are not matched."""
        return [(s, w1 + w2, c, t) for s, w1, a, _ in firsts
                for _, w2, b, t in seconds
                if (c := mul(a, b)) is not None]

    # (x, y) -> the operations x -> y an idempotent loop blocks; only a
    # correction can unblock them, as dropping x or y drops them too
    blocked = {}
    while heap:
        op = heapq.heappop(heap)[1]
        x, _, _, y = op
        # stale: its source is cancelled or the operation is toggled away
        if op not in by_src.get(x, ()):
            continue
        loops = [o for o in by_src[x] if o[3] == y and o != op]
        if any(is_idem(l[2]) for l in loops):
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
            zigzags.append((y, compose(series, from_x)))

        # drop the cancelled pair: its four buckets go whole, and each of
        # their operations leaves its far end's bucket, which in this order
        # is never gone: a bucket popped earlier took its operations out
        # of the ones popped later.  Then toggle in the corrections
        for g in (x, y):
            for o in by_src.pop(g):
                by_dst[o[3]].discard(o)
            for o in by_dst.pop(g):
                by_src[o[0]].discard(o)
        for op in compose(heads, from_x):
            s, w, a, t = op
            if op in by_src[s]:
                by_src[s].discard(op)
                by_dst[t].discard(op)
                # a loop is gone: each operation it blocked is queued again
                for o in blocked.pop((s, t), ()):
                    heapq.heappush(heap, ((s, key(o[2]), t), o))
            else:
                by_src[s].add(op)
                by_dst[t].add(op)
                if not w and s != t and is_idem(a):
                    heapq.heappush(heap, ((s, key(a), t), op))

    alive = tuple(g for g in S.generators if g in by_src)
    reduced = BorderedObject(out_alg, in_alg, alive,
                             {g: S.out_idem[g] for g in alive},
                             {g: S.in_idem[g] for g in alive},
                             itertools.chain.from_iterable(by_src.values()))
    # the buckets of a cancelled pair are dropped, so the tracked inclusion
    # is the union of the buckets left
    from_mor = to_mor = None
    if track_from:
        from_mor = Morphism(reduced, S, set().union(*from_comps.values()))
    if track_to:
        # the steps' projections composed last first, each image known when
        # read: a survivor maps to itself, a cancelled x to zero and a
        # cancelled y along its zig-zag to its targets' images
        images = {c[0]: {c} for c in identity if c[0] in by_src}
        for y, zigzag in reversed(zigzags):
            image = images[y] = set()
            for _, w1, a, t in zigzag:
                for _, w2, b, z in images.get(t, ()):
                    if (c := mul(a, b)) is not None:
                        _toggle(image, (y, w1 + w2, c, z))
        to_mor = Morphism(S, reduced, set().union(*images.values()))
    return StructureReduction(reduced, from_mor, to_mor, tuple(trace))


def contraction_trace(S):
    """The reduction trace when the no-input S cancels away, else None."""
    red = reduce_structure(S)
    return None if red.reduced.generators else red.trace

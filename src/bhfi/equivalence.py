"""Finding and certifying homotopy equivalences.

Type D structures are compared through the homology of their morphism
complex: rigidity of the standard modules guarantees a unique equivalence
class, so the search walks homology classes (smallest combinations first)
and certifies the first candidate whose mapping cone cancels to nothing;
one rank of each candidate's unit part tells, exactly, which cone will.

Input-carrying structures (A-infinity modules, DA bimodules) are compared
by cancelling both sides as far as the safe (series-free) reduction goes,
matching the reduced models, and transporting the result back along the
reduction equivalences; certification converts the cone to the no-input
side by pairing with the DD identity, where cancellation always terminates.
"""
from __future__ import annotations

import functools
import itertools
import math

from ._record import record
from .errors import DivergenceError, NotEquivalentError, generator_cap
from .homology import F2Matrix, _bits, rows_nullspace
from .standard import cfda_az, cfda_azbar
from .structures import (Morphism, _elementary_components, _term_walk,
                         box_tensor, identity_da, mor_complex_DD,
                         morphism_from_generator_map, reduce_structure)

# the largest sums of basis vectors that the searches try, and the inputs
# plus one that a component of a bridge between reduced models may read
MAX_SUM_SIZE = 4
BRIDGE_ARITY = 3


@record
class EquivalenceCertificate:
    """A certified homotopy equivalence: the morphism and which basis
    combination produced it.  Construction refuses a morphism whose cone
    does not cancel; the trace is the morphism's own cached one."""

    forward: Morphism
    search_index: tuple

    def __post_init__(self):
        if self.forward.cone_trace() is None:
            raise NotEquivalentError("certificate: the cone does not cancel")

    def to_json(self):
        """Reproducibility record: components, selected classes, trace."""
        out_alg = self.forward.source.out_alg
        comps = []
        for src, ins, out, dst in self.forward.sorted_comps():
            comps.append({
                "src": src,
                "inputs": [[b.to_json()] for b in ins],
                "out": [out.to_json()] if hasattr(out, "to_json") else [],
                "dst": dst,
            })
        return {"components": comps,
                "search_index": list(self.search_index),
                "cone_trace": list(map(list, self.forward.cone_trace()))}

    def __repr__(self):
        return (f"<equivalence: {len(self.forward.comps)} components, "
                f"classes {self.search_index}>")


def _acyclic_cone_trace(f):
    """Reduction trace of the cone when it cancels away; None otherwise.
    Each call is one search candidate whose cone is reduced; a morphism no
    search walked is certified through ``Morphism.cone_trace`` directly."""
    return f.cone_trace()


def _unit_part(S, T):
    """The exact test of a cycle S -> T that its cone cancels to nothing:
    the cone's unit part, the F2 complex on S and T of the operations and
    components that read no input and carry an idempotent, has no
    homology: twice its rank is |S| + |T|.

    Cancellation (after pairing with the DD identity, whose coefficients
    are never idempotent) is never blocked on the cone of a cycle, and
    modulo the non-idempotent ideal each step is one elimination step of
    the unit part.  The columns of S and T are built once."""
    is_idem = S.out_alg.is_idem
    pos_s = {g: i for i, g in enumerate(S.generators)}
    pos_t = {g: len(pos_s) + i for i, g in enumerate(T.generators)}
    size = len(pos_s) + len(pos_t)

    def columns(ops, src_pos, dst_pos, cols):
        for src, ins, out, dst in ops:
            if not ins and is_idem(out):
                cols[src_pos[src]] ^= 1 << dst_pos[dst]
        return cols

    fixed = columns(T.ops, pos_t, pos_t, columns(S.ops, pos_s, pos_s,
                                                 [0] * size))
    return lambda f: 2 * F2Matrix(size, size, columns(
        f.comps, pos_s, pos_t, fixed.copy())).rank() == size


def _first_acyclic_sum(stage, runs, what, comps, source, target):
    """Walk F2 sums of a basis of bit-vectors, singletons first, in
    combination order, and certify the first candidate whose cone cancels
    to nothing; bit j of a vector is the component ``comps[j]``.  The
    basis arrives as ``runs``, an iterable of lists whose concatenation is
    the basis; the singletons of each run are tried before the next run is
    drawn, so a hit never computes the runs after it.  Sums of two to
    ``MAX_SUM_SIZE`` vectors, the ``search_index`` and the messages see the
    whole basis.  Every candidate is a cycle ``source -> target``, and only
    one that passes ``_unit_part`` has its cone reduced.  The walk may
    pass at most ``BHFI_MAX_GENERATORS`` cone generators in total,
    counting every candidate; past that it raises DivergenceError, and
    NotEquivalentError when every sum fails.  Both errors name ``stage``."""
    cap = generator_cap()
    cone_size = len(source.generators) + len(target.generators)
    may_cancel = _unit_part(source, target)
    basis = []
    runs = iter(runs)

    def picks():
        for run in runs:
            start = len(basis)
            basis.extend(run)
            yield from ((i,) for i in range(start, len(basis)))
        for size in range(2, MAX_SUM_SIZE + 1):
            yield from itertools.combinations(range(len(basis)), size)
        if not basis:           # the zero morphism is then the only class
            yield ()

    tried = 0
    for pick in picks():
        if (tried + 1) * cone_size > cap:
            basis.extend(itertools.chain.from_iterable(runs))
            candidates = sum(math.comb(len(basis), k)
                             for k in range(1, MAX_SUM_SIZE + 1))
            raise DivergenceError(
                f"{stage}: {tried} of {candidates} candidates tried "
                f"({len(basis)}-vector {what}, sums of up to "
                f"{MAX_SUM_SIZE}); the next cone would pass "
                f"BHFI_MAX_GENERATORS={cap} generators in total")
        tried += 1
        mask = 0
        for i in pick:
            mask ^= basis[i]
        candidate = Morphism(source, target, {comps[j] for j in _bits(mask)})
        if may_cancel(candidate) and \
                _acyclic_cone_trace(candidate) is not None:
            return EquivalenceCertificate(candidate, pick)
    raise NotEquivalentError(
        f"{stage}: no acyclic cone among sums of up to {MAX_SUM_SIZE} of "
        f"the {len(basis)}-vector {what}")


def find_homotopy_equivalence(P, Q):
    """The unique-up-to-homotopy equivalence between two type D structures.

    Walks F2 combinations of morphism-homology classes, singletons first,
    in canonical order; the first candidate whose cone cancels to nothing
    wins.  The classes come one support block at a time, and a grading
    class of the morphism complex is built only when its first block
    comes up, so the classes after a singleton hit are never built.
    Raises NotEquivalentError when sums of up to ``MAX_SUM_SIZE`` classes
    fail, which signals that the caller's equivalence claim was wrong,
    and DivergenceError past the cone cap of the walk.
    """
    mc = mor_complex_DD(P, Q)
    return _first_acyclic_sum("find_homotopy_equivalence",
                              mc.differential.runs(), "homology basis",
                              mc.basis, P, Q)


# ---------------------------------------------------------------------------
# equivalences of input-carrying structures


def find_isomorphism(A, B):
    """A generator bijection matching idempotents and operation sets, or
    None.  Deterministic: the first valid bijection when A's generators
    are assigned in order (buckets in key order), each trying B's bucket
    in order; an assignment is dropped as soon as an operation between
    assigned generators has no image in B, which no completion can fix."""

    def bucket(S):
        out = {}
        for g in S.generators:
            key = (S.out_alg.idem_sort_key(S.out_idem[g]),
                   S.in_alg.idem_sort_key(S.in_idem[g]))
            out.setdefault(key, []).append(g)
        return out

    ba, bb = bucket(A), bucket(B)
    if set(ba) != set(bb) or len(A.ops) != len(B.ops) or \
            any(len(ba[k]) != len(bb[k]) for k in ba):
        return None
    keys = sorted(ba)
    order = [g for k in keys for g in ba[k]]
    pools = [bb[k] for k in keys for _ in ba[k]]
    at = {g: i for i, g in enumerate(order)}
    closing = [[] for _ in order]       # ops whose later end is order[i]
    for op in A.ops:
        closing[max(at[op[0]], at[op[3]])].append(op)
    # iterative, since models can be large: one candidate iterator for
    # each assigned generator and the one being assigned
    mapping, used, frames = {}, set(), [iter(pools[0])] if order else []
    while frames:
        depth = len(frames) - 1
        g = order[depth]
        used.discard(mapping.pop(g, None))
        for h in frames[-1]:
            if h not in used:
                mapping[g] = h
                if all((mapping[s], ins, out, mapping[t]) in B.ops
                       for s, ins, out, t in closing[depth]):
                    break
        else:
            mapping.pop(g, None)
            frames.pop()
            continue
        used.add(mapping[g])
        if len(frames) == len(order):
            return mapping
        frames.append(iter(pools[len(frames)]))
    return None if order else {}


def search_small_equivalence(A, B, max_arity=2):
    """Bounded-arity equivalence search between two small structures.

    Solves the morphism-cycle condition as a linear system over the
    elementary components with at most ``max_arity - 1`` inputs, then walks
    combinations of the solution space looking for an acyclic cone.  Past
    ``BHFI_MAX_GENERATORS`` components (counted before any is listed) or
    cone generators of the candidates tried, reduced or not, in total, the
    search raises DivergenceError.  ``max_arity`` keeps its default of 2,
    which the golden certificates and the genus-1 kernel tests pin; the
    bridge of ``find_structure_equivalence`` passes ``BRIDGE_ARITY``.
    """
    unknowns = _elementary_components("search_small_equivalence", A, B,
                                      max_arity)
    # rows in first-seen order: each kernel vector is its own column plus
    # the unique sum of earlier independent columns, whatever the row order
    row, walk = {}, _term_walk(B, A)
    kernel = rows_nullspace([[row.setdefault(t, len(row))
                              for t in walk(e, set())] for e in unknowns])
    return _first_acyclic_sum("search_small_equivalence", (kernel,), "kernel",
                              unknowns, A, B)


def find_structure_equivalence(A, B):
    """An equivalence A -> B for input-carrying structures.

    Both sides are cancelled as far as the series-free reduction reaches;
    if the reduced models are isomorphic on the nose, the equivalence is
    the composite through them, otherwise a bounded-arity search bridges
    the small remainder.  The certificate cancels the result's cone.
    """
    red_a = reduce_structure(A, track_to=True)
    red_b = reduce_structure(B, track_from=True)
    mapping = find_isomorphism(red_a.reduced, red_b.reduced)
    if mapping is not None:
        bridge = morphism_from_generator_map(red_a.reduced, red_b.reduced,
                                             mapping)
        index = ()
    else:
        cert = search_small_equivalence(red_a.reduced, red_b.reduced,
                                        max_arity=BRIDGE_ARITY)
        bridge, index = cert.forward, cert.search_index
    return EquivalenceCertificate(
        red_a.to_reduced.then(bridge).then(red_b.from_reduced), index)


@functools.cache
def omega_equivalence(circle):
    """The equivalence from the identity DA bimodule into the composite of
    the two interpolating-piece bimodules (reversed then standard).

    No pipeline calls this: they all insert the paired equivalence of
    ``bhfi.involutive.paired_insertion`` instead, because the tracked
    cancellation of the composite explodes past genus one.  It stays public
    only because the golden tests pin its certificate digest.
    """
    composite = box_tensor(cfda_azbar(circle), cfda_az(circle))
    return find_structure_equivalence(identity_da(circle), composite)

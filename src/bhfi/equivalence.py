"""Finding and certifying homotopy equivalences.

Type D structures are compared through the homology of their morphism
complex: rigidity of the standard modules guarantees a unique equivalence
class, so the search walks homology classes (smallest combinations first)
and certifies the first candidate whose mapping cone cancels to nothing;
one rank of each candidate's unit part tells, exactly, which cone will.
The equivalences of input-carrying structures are in ``typea``; only the
benchmark's tracer reads two of them through here."""
from __future__ import annotations

import itertools
import math

from . import _forward
from ._record import record
from .errors import DivergenceError, NotEquivalentError, generator_cap
from .homology import _bits
from .matrices import F2Matrix
from .mor import mor_complex_DD
from .morphisms import Morphism

# old homes, kept for the layers of perfbench/tracer.py, which patch them
__getattr__ = _forward(__name__, typea="find_structure_equivalence "
                       "search_small_equivalence")

# the largest sums of basis vectors that the searches try
MAX_SUM_SIZE = 4


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
        comps = [{"src": src, "inputs": [[b.to_json()] for b in ins],
                  "out": [out.to_json()] if hasattr(out, "to_json") else [],
                  "dst": dst}
                 for src, ins, out, dst in self.forward.sorted_comps()]
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
    """The unique-up-to-homotopy equivalence between two type D structures:
    the first F2 sum of morphism-homology classes, singletons first, in
    canonical order, whose cone cancels to nothing.  The classes come one
    support block at a time, and a grading class of the morphism complex
    is built when its first block comes up, so none after a singleton hit
    is.  Raises NotEquivalentError when sums of up to ``MAX_SUM_SIZE``
    classes fail (the caller's equivalence claim was wrong), and
    DivergenceError past the cone cap of the walk."""
    mc = mor_complex_DD(P, Q)
    return _first_acyclic_sum("find_homotopy_equivalence",
                              mc.differential.runs(), "homology basis",
                              mc.basis, P, Q)

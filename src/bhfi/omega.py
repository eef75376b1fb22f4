"""The identity DA bimodule and the equivalence omega from it into the
composite of the two interpolating pieces.  No pipeline runs either: each
inserts the paired equivalence of ``typea.paired_insertion`` instead, so
they live apart from the type A side that the commands compile."""
from __future__ import annotations

import functools

from .pairing import box_tensor
from .pieces import cfda_az
from .strands import algebra
from .structures import BorderedObject
from .typea import cfda_azbar, find_structure_equivalence


def identity_da(circle):
    """The identity DA bimodule: one generator per idempotent, the right
    action feeding straight through."""
    alg = algebra(circle)
    idem = {f"e_{d.label}": d.left_idem for d in alg.idempotent_diagrams}
    label = {pairs: g for g, pairs in idem.items()}
    ops = {(label[b.left_idem], (b,), b, label[b.right_idem])
           for b in alg.basis}
    return BorderedObject(alg, alg, tuple(idem), idem, idem, ops)


@functools.cache
def omega_equivalence(circle):
    """The equivalence from the identity DA bimodule into the composite of
    the two interpolating-piece bimodules (reversed then standard).

    No pipeline calls this: they all insert the paired equivalence of
    ``paired_insertion`` instead, because the tracked
    cancellation of the composite explodes past genus one.  It stays public
    only because the golden tests pin its certificate digest.
    """
    composite = box_tensor(cfda_azbar(circle), cfda_az(circle))
    return find_structure_equivalence(identity_da(circle), composite)

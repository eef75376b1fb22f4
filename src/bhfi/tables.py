"""A strands algebra as a whole, for ``StrandsAlgebra.basis`` and
``_ensure_tables``: its basis, refused past the cap by its size, and the
reverse product and differential tables of the relation checks."""
from __future__ import annotations

import itertools
import math

from .errors import refuse_past_cap
from .strands import chord_term_count


def basis(alg):
    """The listings from each idempotent, in order.  Both refusals run
    on every read, the second on the cached length once the basis is
    listed, so a cap lowered later in the process refuses it too."""
    # the exact count is exponential in k: the bound refuses first
    refuse_past_cap("strands basis", _basis_lower_bound(alg),
                    "diagrams", lower_bound=True)
    listed = alg.__dict__.get("_basis_cached")
    if listed is None:
        keys = alg.idem_keys
        alg._refuse_listing([(x, y) for x in keys for y in keys])
        listed = alg._basis_cached = tuple(itertools.chain.from_iterable(
            map(alg.basis_from, keys)))
    refuse_past_cap("strands basis", len(listed), "diagrams")
    return listed


def _basis_lower_bound(alg):
    """A closed-form lower bound on the basis size, cheap at any genus:
    the idempotents, the diagrams with one moving strand (between two
    pairs, or within one), and the diagrams whose two moving strands end
    on four distinct pairs (three ways to join four such points)."""
    k, comb = alg.circle.k, math.comb
    bound = comb(2 * k, k) + chord_term_count(alg.circle)
    if k >= 2:
        bound += 3 * 16 * comb(2 * k, 4) * comb(2 * k - 4, k - 2)
    return bound


def preimage_tables(alg):
    """The preimages of each basis element under the product, as pairs,
    and under the differential, each in basis order; built once, into
    ``alg._tables``."""
    mul_pre, diff_pre = {}, {}
    for a in alg.basis:
        for c in alg.diff_basis(a):
            diff_pre.setdefault(c, []).append(a)
    for a in alg.basis:
        for b in alg.basis_from(a.right_idem):
            if (c := alg.mul_basis(a, b)) is not None:
                mul_pre.setdefault(c, []).append((a, b))
    alg._tables = ({k: tuple(v) for k, v in mul_pre.items()},
                   {k: tuple(v) for k, v in diff_pre.items()})
    return alg._tables

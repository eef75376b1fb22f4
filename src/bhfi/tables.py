"""A strands algebra as a whole: its basis, listed and refused past the cap
by its size, and the reverse product and differential tables that the
relation checks of structures with algebra inputs read, which
``StrandsAlgebra`` reads from here as its methods."""
from __future__ import annotations

import itertools
import math

from .errors import refuse_past_cap
from .strands import chord_term_count


@property
def basis(self):
    """The listings from each idempotent, in order.  Both refusals run
    on every read, the second on the cached length once the basis is
    listed, so a cap lowered later in the process refuses it too."""
    # the exact count is exponential in k: the bound refuses first
    refuse_past_cap("strands basis", _basis_lower_bound(self),
                    "diagrams", lower_bound=True)
    basis = self.__dict__.get("_basis_cached")
    if basis is None:
        keys = self.idem_keys
        self._refuse_listing([(x, y) for x in keys for y in keys])
        basis = self._basis_cached = tuple(itertools.chain.from_iterable(
            map(self.basis_from, keys)))
    refuse_past_cap("strands basis", len(basis), "diagrams")
    return basis


def _basis_lower_bound(self):
    """A closed-form lower bound on the basis size, cheap at any genus:
    the idempotents, the diagrams with one moving strand (between two
    pairs, or within one), and the diagrams whose two moving strands end
    on four distinct pairs (three ways to join four such points)."""
    k, comb = self.circle.k, math.comb
    bound = comb(2 * k, k) + chord_term_count(self.circle)
    if k >= 2:
        bound += 3 * 16 * comb(2 * k, 4) * comb(2 * k - 4, k - 2)
    return bound


def _ensure_tables(self):
    """The preimages of each basis element under the product, as pairs,
    and under the differential, each in basis order; built once, into
    ``self._tables``."""
    mul_pre = {}
    diff_pre = {}
    for a in self.basis:
        for c in self.diff_basis(a):
            diff_pre.setdefault(c, []).append(a)
    for a in self.basis:
        for b in self.basis_from(a.right_idem):
            if (c := self.mul_basis(a, b)) is not None:
                mul_pre.setdefault(c, []).append((a, b))
    self._tables = ({k: tuple(v) for k, v in mul_pre.items()},
                    {k: tuple(v) for k, v in diff_pre.items()})
    return self._tables

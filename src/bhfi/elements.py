"""Elements of a strands algebra beyond its basis: ``AlgebraElement``, an
F2 sum of diagrams, with its arithmetic."""
from __future__ import annotations

from ._record import record
from .strands import PointedMatchedCircle, StrandDiagram, algebra


@record
class AlgebraElement:
    """An F2 linear combination of strand diagrams over one circle."""

    circle: PointedMatchedCircle
    terms: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "terms", frozenset(self.terms))
        for t in self.terms:
            if t.circle != self.circle:
                raise ValueError("terms over a different circle")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.circle, self.terms ^ other.terms)

    def __mul__(self, other):
        self._check(other)
        alg = algebra(self.circle)
        acc = set()
        for a in self.terms:
            for b in other.terms:
                if (c := alg.mul_basis(a, b)) is not None:
                    acc ^= {c}
        return AlgebraElement(self.circle, frozenset(acc))

    def d(self):
        alg = algebra(self.circle)
        acc = set()
        for a in self.terms:
            acc ^= alg.diff_basis(a)
        return AlgebraElement(self.circle, frozenset(acc))

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.circle != self.circle:
            raise ValueError("operands lie over different circles")

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(self.terms, key=StrandDiagram.sort_key)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(t.label for t in self.sorted_terms())


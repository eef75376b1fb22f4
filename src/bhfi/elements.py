"""Elements of a strands algebra beyond its basis: ``AlgebraElement``, an
F2 sum of diagrams, with its arithmetic, and the algebra's unit and
chords, which ``StrandsAlgebra`` reads from here as its methods."""
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


def unit(self):
    return AlgebraElement(self.circle, frozenset(self.idempotent_diagrams))


def element(self, diagrams):
    return AlgebraElement(self.circle, frozenset(diagrams))


def zero(self):
    return AlgebraElement(self.circle)


def chord(self, i, j):
    """a(rho_{i,j}), the sum of its ``chord_terms``."""
    return AlgebraElement(self.circle, frozenset(self.chord_terms(i, j)))


def chords(self):
    """All chord elements a(rho_{i,j}), i < j, in lexicographic order."""
    Z = self.circle
    return [chord(self, i, j)
            for i in range(1, Z.n_points + 1)
            for j in range(i + 1, Z.n_points + 1)]


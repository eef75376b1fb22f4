"""Dense linear algebra over F2, which no command that only reads the
homology of a Mor complex runs: matrices stored column-major as bitmasks,
the based chain complexes on them, the kernel of a row-list matrix, and
coordinates in homology."""
from __future__ import annotations

from ._record import record
from .homology import (BlockDifferential, _bits, _components, _local_echelon,
                       _lowbit, echelon)

_NONZERO = b"\0" + b"\1" * 255    # byte -> 1 if any bit is set


@record
class F2Matrix:
    """A dense F2 matrix; columns as bitmasks."""

    nrows: int
    ncols: int
    cols: tuple = ()

    def __post_init__(self):
        cols = tuple(self.cols) if self.cols else tuple([0] * self.ncols)
        if len(cols) != self.ncols:
            raise ValueError("column count mismatch")
        if any(c >> self.nrows for c in cols):     # copy only to mask
            cols = tuple(c & ((1 << self.nrows) - 1) for c in cols)
        object.__setattr__(self, "cols", cols)

    @staticmethod
    def zero(nrows, ncols):
        return F2Matrix(nrows, ncols, tuple([0] * ncols))

    @staticmethod
    def identity(n):
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_entries(nrows, ncols, entries):
        """entries: iterable of (row, col) positions holding a 1."""
        cols = [0] * ncols
        for r, c in entries:
            cols[c] ^= 1 << r
        return F2Matrix(nrows, ncols, tuple(cols))

    def entry(self, r, c):
        return (self.cols[c] >> r) & 1

    def apply(self, vec):
        """Matrix times column vector (vector = bitmask over columns)."""
        out = 0
        m = vec
        while m:
            c = _lowbit(m)
            m &= m - 1
            out ^= self.cols[c]
        return out

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return F2Matrix(self.nrows, self.ncols,
                        tuple(a ^ b for a, b in zip(self.cols, other.cols)))

    def __mul__(self, other):
        """self ∘ other (apply other first)."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch for composition")
        return F2Matrix(self.nrows, other.ncols,
                        tuple(self.apply(c) for c in other.cols))

    def transpose(self):
        # one pass over each column's bytes, not one column copy per set bit
        rows = [0] * self.nrows
        for c, colmask in enumerate(self.cols):
            data = colmask.to_bytes((colmask.bit_length() + 7) // 8, "little")
            flags = data.translate(_NONZERO)
            k = flags.find(1)
            while k >= 0:
                for i in _bits(data[k]):
                    rows[8 * k + i] ^= 1 << c
                k = flags.find(1, k + 1)
        return F2Matrix(self.ncols, self.nrows, tuple(rows))

    def is_zero(self):
        return all(c == 0 for c in self.cols)

    def to_lists(self):
        return [[self.entry(r, c) for c in range(self.ncols)]
                for r in range(self.nrows)]

    def rank(self):
        return len(echelon(self.cols)[0])

    def nullspace_basis(self):
        """Vectors (bitmasks over columns) spanning the kernel, in order."""
        _, cols, trans, _ = echelon(self.cols)
        return [trans[j] for j in range(self.ncols) if cols[j] == 0]

    def solve(self, target):
        """A preimage bitmask with self * x = target, or None."""
        return self.solve_all((target,))[0]

    def solve_all(self, targets):
        """``solve`` for each of ``targets``, from one elimination."""
        pivots, cols, trans, _ = echelon(self.cols)
        out = []
        for cur in targets:
            x = 0
            while cur and (j := pivots.get(_lowbit(cur))) is not None:
                cur ^= cols[j]
                x ^= trans[j]
            out.append(None if cur else x)
        return out


@record
class ChainComplex:
    """A based F2 chain complex, with an optional Q action: a chain map
    q with q² = 0, which makes it a complex over F2[Q]/(Q²)."""

    generators: tuple
    d: F2Matrix
    q: F2Matrix = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        n = len(self.generators)
        if self.d.nrows != n or self.d.ncols != n:
            raise ValueError("differential must be square on the generators")
        # d² = 0 checked here, or by the BlockDifferential that made d
        object.__setattr__(self, "_blocks", getattr(self.d, "_blocks", None)
                           or BlockDifferential(list(map(_bits, self.d.cols))))
        if (q := self.q) is not None:
            if (q.nrows, q.ncols) != (n, n):
                raise ValueError("Q action has the wrong shape")
            if not _commutator(q, self, self).is_zero():
                raise ValueError("Q action does not commute with d")
            if not (q * q).is_zero():
                raise ValueError("Q action must square to zero")

    @property
    def dim(self):
        return len(self.generators)


def _commutator(f, source, target):
    """f d + d f for a map f from the complex ``source`` to ``target``;
    zero exactly when f is a chain map."""
    return f * source.d + target.d * f


def rows_nullspace(cols):
    """The ``nullspace_basis`` of the matrix whose column j has a 1 in each
    row of ``cols[j]``, one connected component at a time: an echelon step
    only adds columns of one component, and each pivot is still the lowest
    row in global order, so the kernel vectors, sorted by their top bit
    (their own column), are the dense ones, in the same order."""
    owner = {}
    links = [[owner.setdefault(r, j) for r in col]
             for j, col in enumerate(cols)]
    out = []
    for comp in _components(links):
        _, red, trans, _ = _local_echelon(
            sorted({r for j in comp for r in cols[j]}),
            [cols[j] for j in comp])
        out += [sum(1 << comp[i] for i in _bits(t))
                for c, t in zip(red, trans) if not c]
    return sorted(out, key=int.bit_length)


def express_in_homology(C, hom, vecs):
    """Coordinates of each cycle's class in the basis ``hom.cycles``, all
    read off one elimination of [cycles | d]; None for a vector that is
    not a cycle class combination (should not happen)."""
    k = len(hom.cycles)
    return [None if x is None else x & ((1 << k) - 1) for x in F2Matrix(
        C.dim, k + C.dim, tuple(hom.cycles) + C.d.cols).solve_all(vecs)]

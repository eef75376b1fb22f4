"""Exact linear and homological algebra over F2.

Matrices are stored column-major as Python integers (bit i of column j is
the (i, j) entry), which makes row operations single XORs of arbitrary
width.  Every elimination in the package (rank, kernel, solving,
homology representatives) is ``F2Matrix._echelon``, which pivots on the
first available row in index order, so every result is reproducible across
runs.  Systems kept as row lists (a ``BlockDifferential``, class by class;
the kernel of ``rows_nullspace``) are split into connected components
first, and each component is eliminated at its own row indices by
``_local_echelon``.
"""
from __future__ import annotations

import heapq

from ._record import record


def _lowbit(x):
    return (x & -x).bit_length() - 1


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

    # -- constructors ------------------------------------------------------

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

    # -- basic operations ----------------------------------------------------

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

    # -- elimination ---------------------------------------------------------

    def _echelon(self):
        """Column echelon data: (pivot row of each reduced column, columns,
        transform T with self * T = reduced)."""
        cols = list(self.cols)
        trans = [1 << j for j in range(self.ncols)]
        pivots = {}
        order = []
        for j in range(self.ncols):
            cur = cols[j]
            t = trans[j]
            while cur:
                r = _lowbit(cur)
                if r in pivots:
                    k = pivots[r]
                    cur ^= cols[k]
                    t ^= trans[k]
                else:
                    pivots[r] = j
                    order.append((r, j))
                    break
            cols[j] = cur
            trans[j] = t
        return pivots, cols, trans, order

    def rank(self):
        pivots, _, _, _ = self._echelon()
        return len(pivots)

    def nullspace_basis(self):
        """Vectors (bitmasks over columns) spanning the kernel, in order."""
        _, cols, trans, _ = self._echelon()
        return [trans[j] for j in range(self.ncols) if cols[j] == 0]

    def solve(self, target):
        """A preimage bitmask with self * x = target, or None."""
        return self.solve_all((target,))[0]

    def solve_all(self, targets):
        """``solve`` for each of ``targets``, from one elimination."""
        pivots, cols, trans, _ = self._echelon()
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

    def support_blocks(self):
        """Connected components of the differential's support graph,
        as sorted tuples of generator indices."""
        return self._blocks.blocks


def _bits(mask):
    out = []
    while mask:
        out.append(_lowbit(mask))
        mask &= mask - 1
    return out


def _commutator(f, source, target):
    """f d + d f for a map f from the complex ``source`` to ``target``;
    zero exactly when f is a chain map."""
    return f * source.d + target.d * f


@record
class HomologyData:
    dimension: int
    cycles: tuple        # explicit cycle representatives, one per class


def _components(rows):
    """Connected components of the support graph of a square differential
    whose column j has a 1 in each row of ``rows[j]``: sorted tuples of
    indices, ordered by their first index.  ``rows_nullspace`` passes the
    graph that joins each column to the first column with each of its rows."""
    n = len(rows)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, col in enumerate(rows):
        if col:
            root = find(j)
            for r in col:
                top = find(r)
                if top != root:
                    parent[top] = root
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(map(tuple, groups.values())))


def _local_echelon(rows, cols):
    """``_echelon`` of columns given as lists of rows out of the sorted
    ``rows`` (a repeated entry cancels), at their positions in ``rows``."""
    pos = {r: i for i, r in enumerate(rows)}
    return F2Matrix.from_entries(len(rows), len(cols), (
        (pos[r], j) for j, col in enumerate(cols) for r in col))._echelon()


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


class BlockDifferential:
    """A square F2 differential kept as row lists and nothing denser, split
    by ``graded(classes, rows)`` into ``classes`` that it never leaves:
    sorted index tuples ordered by first index, ``rows(members)`` a
    class's rows at its positions in ``members``; ``BlockDifferential(
    rows)`` is one class of every index.  ``parts[c]`` holds class c's
    rows, support blocks (``_components``) and cycles found so far, built
    and checked d² = 0 at once for the first class and when ``runs()``
    reaches its first index for the others.  ``cycles(c, b)`` builds block
    b's matrix in local indices only to eliminate it, when first asked
    for; ``blocks``, ``homology()`` and ``matrix()`` read every class."""

    def __init__(self, rows):
        self._open((tuple(range(len(rows))),) if rows else (), lambda _: rows)

    @classmethod
    def graded(cls, classes, rows):
        d = cls.__new__(cls)
        d._open(classes, rows)
        return d

    def _open(self, classes, rows):
        self.classes, self._rows, self.parts = classes, rows, {}
        if classes:
            self.part(0)

    def part(self, c):
        if c not in self.parts:
            rows = self._rows(self.classes[c])
            for col in rows:
                twice = []
                for r in col:
                    twice += rows[r]
                twice.sort()
                if twice[::2] != twice[1::2]:
                    raise ValueError("differential does not square to zero")
            self.parts[c] = rows, _components(rows), {}
        return self.parts[c]

    def runs(self):
        """The cycles of each support block, by first index; a class is
        built when its first index comes up in the merge of ``starts``."""
        def starts(c, at):
            yield at[0], c, -1
            for b, block in enumerate(self.part(c)[1]):
                yield at[block[0]], c, b

        for _, c, b in heapq.merge(*map(starts, range(len(self.classes)),
                                        self.classes)):
            if b >= 0:
                yield self.cycles(c, b)

    def cycles(self, c, b):
        """The cycle representatives of block b of class c, as vectors over
        all the indices: the kernel vectors that are independent of the
        boundaries and of the kernel vectors before them, the pivot columns
        of ``[im | ker]``."""
        rows, blocks, done = self.part(c)
        if b not in done:
            block, at = blocks[b], self.classes[c]
            _, cols, trans, order = _local_echelon(
                block, [rows[g] for g in block])
            im = [cols[j] for _, j in order]
            ker = [trans[j] for j in range(len(block)) if cols[j] == 0]
            both = F2Matrix(len(block), len(im) + len(ker), tuple(im + ker))
            _, _, _, both_order = both._echelon()
            done[b] = [
                sum(1 << at[block[i]] for i in _bits(ker[j - len(im)]))
                for _, j in both_order if j >= len(im)]
        return done[b]

    @property
    def blocks(self):
        return tuple(sorted(tuple(at[i] for i in block)
                            for c, at in enumerate(self.classes)
                            for block in self.part(c)[1]))

    def homology(self):
        cycles = tuple(z for run in self.runs() for z in run)
        return HomologyData(len(cycles), cycles)

    def matrix(self):
        """The dense differential; a ChainComplex on it adopts this one."""
        n = sum(map(len, self.classes))
        d = F2Matrix.from_entries(n, n, (
            (at[r], j) for c, at in enumerate(self.classes)
            for j, col in zip(at, self.part(c)[0]) for r in col))
        object.__setattr__(d, "_blocks", self)
        return d


def homology(C):
    """Homology dimension plus explicit, deterministic cycle representatives,
    found block by block by the differential that checked d² = 0 when C
    was built, so each comes from a single block, in the order of the
    blocks' first indices."""
    return C._blocks.homology()


def express_in_homology(C, hom, vecs):
    """Coordinates of each cycle's class in the basis ``hom.cycles``, all
    read off one elimination of [cycles | d]; None for a vector that is
    not a cycle class combination (should not happen)."""
    k = len(hom.cycles)
    return [None if x is None else x & ((1 << k) - 1) for x in F2Matrix(
        C.dim, k + C.dim, tuple(hom.cycles) + C.d.cols).solve_all(vecs)]

"""Homology over F2, one support block at a time.

Columns and vectors are Python integers used as bitmasks (bit i of column
j is the (i, j) entry), so a row operation is one XOR of any width.  Every
elimination in the package (rank, kernel, solving, homology
representatives) is ``echelon``, which pivots on the first available row
in index order, so every result is reproducible across runs.  Systems
kept as row lists (a ``BlockDifferential``, class by class; the kernel of
``rows_nullspace``) are eliminated one connected component at a time, at
its own row indices (``_local_echelon``).  The dense matrices, chain
complexes and coordinates in homology are ``matrices``."""
from __future__ import annotations

import heapq

from . import _forward
from ._record import record

# an old home, kept for the layers of perfbench/tracer.py, which patch it
__getattr__ = _forward(__name__, matrices="express_in_homology")


def _lowbit(x):
    return (x & -x).bit_length() - 1


def _bits(mask):
    out = []
    while mask:
        out.append(_lowbit(mask))
        mask &= mask - 1
    return out


def echelon(columns):
    """Column echelon data of the bitmask ``columns``: (pivot row of each
    reduced column, columns, transform T with columns * T = reduced, the
    (row, column) pivots in order)."""
    cols = list(columns)
    trans = [1 << j for j in range(len(cols))]
    pivots = {}
    order = []
    for j, cur in enumerate(cols):
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
    """``echelon`` of columns given as lists of rows out of the sorted
    ``rows`` (a repeated entry cancels), at their positions in ``rows``."""
    pos = {r: i for i, r in enumerate(rows)}
    masks = [0] * len(cols)
    for j, col in enumerate(cols):
        for r in col:
            masks[j] ^= 1 << pos[r]
    return echelon(masks)


class BlockDifferential:
    """A square F2 differential kept as row lists and nothing denser, split
    by ``graded(classes, rows)`` into ``classes`` that it never leaves:
    sorted index tuples ordered by first index, ``rows(members)`` a
    class's rows at its positions in ``members``; ``BlockDifferential(
    rows)`` is one class of every index.  ``parts[c]`` holds class c's
    rows, support blocks (``_components``) and cycles found so far, built
    and checked d² = 0 at once for the first class and when ``runs()``
    reaches its first index for the others.  ``cycles(c, b)`` eliminates
    block b in local indices, when first asked for; ``blocks``,
    ``homology()`` and ``matrix()`` read every class."""

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
            done[b] = [
                sum(1 << at[block[i]] for i in _bits(ker[j - len(im)]))
                for _, j in echelon(im + ker)[3] if j >= len(im)]
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
        from .matrices import F2Matrix
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

import random
import tracemalloc

import pytest

from bhfi import (ChainComplex, F2Matrix, box_tensor, homology,
                  involutive_pair, iota_on_mor, mor_complex_DD,
                  standard_involutive_a, standard_involutive_d,
                  verify_hfi_triangle)
from bhfi.homology import (BlockDifferential, HomologyData, _bits,
                           _components, echelon, express_in_homology,
                           rows_nullspace)
from bhfi.involutive import conjugation_cone
from bhfi.structures import BorderedObject


def random_two_term_complex(rng, max_dim=14):
    """A valid complex from a random map between two summands."""
    n = rng.randrange(1, max_dim)
    split = rng.randrange(0, n + 1)
    cols = [0] * n
    for j in range(split, n):
        cols[j] = rng.getrandbits(split) if split else 0
    mat = F2Matrix(n, n, tuple(cols))
    return ChainComplex(tuple(f"g{i}" for i in range(n)), mat)


class TestF2Matrix:
    def test_mul_and_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(1, 10)
            m = F2Matrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
            eye = F2Matrix.identity(n)
            assert (m * eye).cols == m.cols
            assert (eye * m).cols == m.cols

    def test_rank_transpose_invariant(self):
        rng = random.Random(5)
        for _ in range(30):
            r, c = rng.randrange(1, 9), rng.randrange(1, 9)
            m = F2Matrix(r, c, tuple(rng.getrandbits(r) for _ in range(c)))
            assert m.rank() == m.transpose().rank()

    @pytest.mark.parametrize("nrows, ncols, ones", [
        (5000, 40, 6),          # long sparse columns, bits past byte 0
        (20, 30, 15),           # short dense columns
        (9, 70, 1),             # half the columns empty, a row past a byte
    ])
    def test_transpose_is_the_bit_by_bit_transpose(self, nrows, ncols, ones):
        rng = random.Random(nrows)
        cols = tuple(sum(1 << r for r in rng.sample(range(nrows), k))
                     for k in (rng.randrange(ones + 1) for _ in range(ncols)))
        rows = [0] * nrows
        for c, col in enumerate(cols):
            for r in range(nrows):
                rows[r] |= (col >> r & 1) << c
        assert F2Matrix(nrows, ncols, cols).transpose() == \
            F2Matrix(ncols, nrows, tuple(rows))

    def test_solve_and_nullspace(self):
        rng = random.Random(7)
        for _ in range(40):
            r, c = rng.randrange(1, 9), rng.randrange(1, 9)
            m = F2Matrix(r, c, tuple(rng.getrandbits(r) for _ in range(c)))
            x = rng.getrandbits(c)
            b = m.apply(x)
            sol = m.solve(b)
            assert sol is not None and m.apply(sol) == b
            for v in m.nullspace_basis():
                assert m.apply(v) == 0
            assert len(m.nullspace_basis()) == c - m.rank()

    def test_nullspace_independent_of_row_order(self):
        # each kernel vector is its own column plus the unique sum of
        # earlier independent columns that cancels it
        rng = random.Random(9)
        for _ in range(60):
            r, c = rng.randrange(1, 12), rng.randrange(1, 14)
            span = [rng.getrandbits(r)
                    for _ in range(rng.randrange(1, r + 1))]
            cols = []
            for _ in range(c):
                col = 0
                for v in span:
                    if rng.random() < 0.5:
                        col ^= v
                cols.append(col)
            m = F2Matrix(r, c, tuple(cols))
            perm = list(range(r))
            rng.shuffle(perm)
            permuted = F2Matrix.from_entries(r, c, [
                (perm[i], j) for j in range(c) for i in range(r)
                if m.entry(i, j)])
            assert permuted.nullspace_basis() == m.nullspace_basis()


class TestHomology:
    def test_zero_differential(self):
        C = ChainComplex(("a", "b", "c"), F2Matrix.zero(3, 3))
        data = homology(C)
        assert data.dimension == 3
        assert list(data.cycles) == [1, 2, 4]

    def test_two_generator_cancelling(self):
        C = ChainComplex(("x", "y"), F2Matrix.from_entries(2, 2, [(1, 0)]))
        assert homology(C).dimension == 0

    def test_invalid_complex(self):
        with pytest.raises(ValueError):
            ChainComplex(("x", "y"),
                         F2Matrix.from_entries(2, 2, [(1, 0), (0, 1)]))

    def test_dimension_invariant_under_permutation(self):
        rng = random.Random(13)
        for _ in range(25):
            C = random_two_term_complex(rng)
            n = C.dim
            perm = list(range(n))
            rng.shuffle(perm)
            inv = [0] * n
            for i, p in enumerate(perm):
                inv[p] = i
            cols = [0] * n
            for j in range(n):
                src = perm[j]
                m = C.d.cols[src]
                while m:
                    r = (m & -m).bit_length() - 1
                    m &= m - 1
                    cols[j] |= 1 << inv[r]
            C2 = ChainComplex(tuple(C.generators[p] for p in perm),
                              F2Matrix(n, n, tuple(cols)))
            assert homology(C2).dimension == homology(C).dimension

    def test_blocks_are_homogeneous(self):
        d = F2Matrix.from_entries(4, 4, [(1, 0)])
        C = ChainComplex(("a", "b", "c", "d"), d)
        data = homology(C)
        assert data.dimension == 2
        # each cycle lies inside one block of the differential's support
        blocks = [sum(1 << g for g in b) for b in C._blocks.blocks]
        assert all(any(z & ~b == 0 for b in blocks) for z in data.cycles)


class TestQAction:
    def test_valid_q(self):
        q = F2Matrix.from_entries(2, 2, [(1, 0)])
        C = ChainComplex(("x", "Qx"), F2Matrix.zero(2, 2), q=q)
        assert (C.q * C.q).is_zero()

    def test_q_must_square_to_zero(self):
        q = F2Matrix.identity(2)
        with pytest.raises(ValueError):
            ChainComplex(("x", "y"), F2Matrix.zero(2, 2), q=q)

    def test_action_must_commute(self):
        d = F2Matrix.from_entries(2, 2, [(1, 0)])
        q = F2Matrix.from_entries(2, 2, [(0, 1)])
        with pytest.raises(ValueError):
            ChainComplex(("x", "y"), d, q=q)


def hand_built_cone(X, Y, incl, conj):
    """(d, Q) of the cone of incl + conj: X -> Y as row lists, written out
    independently of ``conjugation_cone``: d = [[d_X, 0], [incl + conj,
    d_Y]] and Q = [[0, 0], [incl, 0]], the X copy first."""
    zero = [0] * Y.dim
    f = [[a ^ b for a, b in zip(r, s)]
         for r, s in zip(incl.to_lists(), conj.to_lists())]
    d = [row + zero for row in X.d.to_lists()]
    d += [a + b for a, b in zip(f, Y.d.to_lists())]
    q = [[0] * (X.dim + Y.dim) for _ in range(X.dim)]
    q += [row + zero for row in incl.to_lists()]
    return d, q


def checked_cone(X, Y, incl, conj):
    """``conjugation_cone(X, Y, incl, conj)``, checked against the
    hand-built blocks and labels."""
    cone = conjugation_cone(X, Y, incl, conj)
    assert (cone.d.to_lists(), cone.q.to_lists()) == \
        hand_built_cone(X, Y, incl, conj)
    assert cone.generators == tuple(f"S:{g}" for g in X.generators) + \
        tuple(f"T:{g}" for g in Y.generators)
    return cone


def plain_cone(X, Y, f):
    """The cone of a chain map f: X -> Y, a conjugation cone with a zero
    conjugation."""
    return checked_cone(X, Y, f, F2Matrix.zero(Y.dim, X.dim))


class TestMappingCone:
    def test_cone_of_identity_is_acyclic(self):
        rng = random.Random(17)
        for _ in range(10):
            C = random_two_term_complex(rng)
            cone = plain_cone(C, C, F2Matrix.identity(C.dim))
            assert homology(cone).dimension == 0

    def test_cone_of_zero_is_direct_sum(self):
        C = ChainComplex(("a", "b", "c"), F2Matrix.zero(3, 3))
        assert homology(plain_cone(C, C, F2Matrix.zero(3, 3))).dimension == 6

    def test_cone_of_one_plus_identity_involution(self):
        # direct 4x4 check: involution = identity on a two-dimensional
        # homology, the relevant map is zero, cone splits
        C = ChainComplex(("p", "q"), F2Matrix.zero(2, 2))
        eye = F2Matrix.identity(2)
        cone = checked_cone(C, C, eye, eye)
        assert cone.dim == 4
        assert homology(cone).dimension == 4

    def test_cone_rank_formula(self):
        # dim H(cone f) = dim H(src) + dim H(tgt) - 2 rank H(f)
        rng = random.Random(23)
        for _ in range(30):
            C = random_two_term_complex(rng, max_dim=9)
            n = C.dim
            # a random chain self-map: d f = f d solved by trial
            for _ in range(40):
                mat = F2Matrix(n, n, tuple(rng.getrandbits(n)
                                           for _ in range(n)))
                if (mat * C.d + C.d * mat).is_zero():
                    break
            else:
                continue
            hd = homology(C)
            img = express_in_homology(C, hd, map(mat.apply, hd.cycles))
            hf = F2Matrix(hd.dimension, hd.dimension, tuple(img))
            cone_dim = homology(plain_cone(C, C, mat)).dimension
            assert cone_dim == 2 * hd.dimension - 2 * hf.rank()


def random_chain_map(rng, C):
    """A uniformly random chain self-map of C: a random vector of the
    kernel of f -> fd + df on the entries of f."""
    n = C.dim
    cols = []
    for r in range(n):
        for c in range(n):
            img = 0
            for s in range(n):          # E_rc d: row c of d moved to row r
                if C.d.entry(c, s):
                    img ^= 1 << (r * n + s)
            for t in range(n):          # d E_rc: column r of d moved to c
                if C.d.entry(t, r):
                    img ^= 1 << (t * n + c)
            cols.append(img)
    vec = 0
    for v in F2Matrix(n * n, n * n, tuple(cols)).nullspace_basis():
        if rng.getrandbits(1):
            vec ^= v
    return F2Matrix.from_entries(
        n, n, [(r, c) for r in range(n) for c in range(n)
               if (vec >> (r * n + c)) & 1])


def random_cone(rng, max_dim=9):
    """The cone of a random chain self-map of a random complex; its
    differential usually has several support blocks."""
    C = random_two_term_complex(rng, max_dim=max_dim)
    return plain_cone(C, C, random_chain_map(rng, C))


def dense_homology(C):
    """The whole-matrix oracle for ``homology``: the support blocks found
    on the set bits of the dense columns, and each block's columns
    restricted to it before the same ``[im | ker]`` echelon."""
    n = C.dim
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, col in enumerate(C.d.cols):
        for r in _bits(col):
            if find(j) != find(r):
                parent[find(j)] = find(r)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    cycles = []
    for block in sorted(blocks.values()):
        pos = {g: i for i, g in enumerate(block)}
        local = F2Matrix(len(block), len(block), tuple(
            sum(1 << pos[r] for r in _bits(C.d.cols[g])) for g in block))
        _, cols, trans, order = echelon(local.cols)
        im = [cols[j] for _, j in order]
        ker = [trans[j] for j in range(len(block)) if cols[j] == 0]
        both = F2Matrix(len(block), len(im) + len(ker), tuple(im + ker))
        for _, j in echelon(both.cols)[3]:
            if j >= len(im):
                cycles.append(sum(1 << block[i] for i in range(len(block))
                                  if ker[j - len(im)] >> i & 1))
    return HomologyData(len(cycles), tuple(cycles))


class TestBlockDifferential:
    def test_cycles_match_the_dense_oracle_on_seeded_cones(self, az1, cfd0):
        rng = random.Random(43)
        blocks = 0
        for _ in range(80):
            C = random_cone(rng)
            rows = [[r for r in range(C.dim) if C.d.entry(r, j)]
                    for j in range(C.dim)]
            d = BlockDifferential(rows)
            blocks = max(blocks, len(d.blocks))
            assert d.blocks == C._blocks.blocks
            assert d.homology() == homology(C) == dense_homology(C)
        assert blocks > 1
        # the twisted ladder's Mor(az^n ⊠ cfd0 -> az^(n+1) ⊠ cfd0), n = 0..3,
        # the complexes of the equivalence search: 25,628 basis morphisms
        # in 35 blocks at n = 3
        ladder = [cfd0]
        for _ in range(4):
            ladder.append(box_tensor(az1, ladder[-1]))
        for P, Q in zip(ladder, ladder[1:]):
            mc = mor_complex_DD(P, Q)
            assert mc.homology() == dense_homology(mc.complex)
        assert (len(mc.basis), len(mc.differential.blocks)) == (25628, 35)

    def test_what_it_keeps_is_linear_in_the_nonzeros(self):
        # the zigzag d(e_2i) = e_2i-1 + e_2i+1 on 20,001 generators: one
        # support block, 20,000 nonzeros; its dense block matrix would
        # take about 15 MB
        n = 20001
        rows = [[r for r in (j - 1, j + 1) if 0 <= r < n]
                if j % 2 == 0 else [] for j in range(n)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = BlockDifferential(rows)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept - before < 3_000_000 and peak - before < 3_000_000
        assert len(d.blocks) == 1 and d.homology().dimension == 1

    def test_cycles_are_computed_per_block_on_request(self):
        d = BlockDifferential([[1], [], [], [], [3], []])
        assert d.blocks == ((0, 1), (2,), (3, 4), (5,))
        assert d.cycles(0, 1) == [1 << 2]
        assert list(d.parts[0][2]) == [1]
        assert d.homology().cycles == (1 << 2, 1 << 5)

    def test_a_later_block_with_nonzero_square_raises(self):
        # block (0, 1) is a complex; in block (2, 3, 4), d(e2) = e3 and
        # d(e3) = e4, so d² e2 = e4
        with pytest.raises(ValueError,
                           match="differential does not square to zero"):
            BlockDifferential([[1], [], [3], [4], []])


def graded_by(rows, classes):
    """The differential on ``rows`` with ``classes``, each class's rows at
    its positions."""
    def class_rows(members):
        pos = {g: i for i, g in enumerate(members)}
        return [[pos[r] for r in rows[g]] for g in members]

    return BlockDifferential.graded(classes, class_rows)


def random_classes(rng, blocks):
    """The blocks dealt at random into up to four classes, each a sorted
    tuple, ordered by first index."""
    dealt = {}
    for block in blocks:
        dealt.setdefault(rng.randrange(4), []).extend(block)
    return tuple(sorted(tuple(sorted(c)) for c in dealt.values()))


class TestClasses:
    """One class of every index and classes that are unions of its
    support blocks read the same differential."""

    def test_random_unions_of_blocks_read_as_one_class(self):
        rng = random.Random(44)
        split = interleaved = 0
        for _ in range(200):
            C = random_cone(rng)
            rows = [_bits(col) for col in C.d.cols]
            one = BlockDifferential(rows)
            classes = random_classes(rng, one.blocks)
            graded = graded_by(rows, classes)
            split += len(classes) > 1
            # a class whose blocks are not consecutive in index order
            interleaved += any(classes[i][-1] > classes[i + 1][0]
                               for i in range(len(classes) - 1))
            assert list(graded.runs()) == list(one.runs())
            assert graded.blocks == one.blocks == C._blocks.blocks
            assert graded.homology() == one.homology() == homology(C)
            assert graded.matrix() == one.matrix() == C.d
        assert split > 40 and interleaved > 20

    def test_a_later_class_with_nonzero_square_raises_when_reached(self):
        # a random cone's blocks in random classes, then a class after
        # them in which d(e_n) = e_n+1 and d(e_n+1) = e_n+2
        rng = random.Random(45)
        for _ in range(20):
            C = random_cone(rng)
            n = C.dim
            rows = [_bits(col) for col in C.d.cols] + [[n + 1], [n + 2], []]
            classes = random_classes(rng, BlockDifferential(rows[:n]).blocks)
            d = graded_by(rows, classes + ((n, n + 1, n + 2),))
            runs = d.runs()
            for _ in range(len(C._blocks.blocks)):
                next(runs)
            with pytest.raises(ValueError,
                               match="differential does not square to zero"):
                next(runs)

    def test_no_index_has_homology_zero(self, cfd0):
        empty = HomologyData(0, ())
        for d in (BlockDifferential([]), BlockDifferential.graded((), None)):
            assert (d.classes, d.blocks, list(d.runs())) == ((), (), [])
            assert d.homology() == empty and d.matrix() == F2Matrix(0, 0)
        assert homology(ChainComplex((), F2Matrix.zero(0, 0))) == empty
        E = BorderedObject(cfd0.out_alg, cfd0.in_alg, (), {}, {}, ())
        for P, Q in ((E, cfd0), (cfd0, E), (E, E)):
            mc = mor_complex_DD(P, Q)
            assert mc.homology() == homology(mc.complex) == empty
        assert iota_on_mor(E, cfd0).hf_dim == 0


def random_row_lists(rng):
    """(nrows, row lists) of a sparse system, each column inside a span of
    up to three row bands, so it often splits; with zero columns, untouched
    rows, and sums of earlier columns written as their concatenated row
    lists, so repeated entries cancel."""
    nrows = rng.randrange(0, 40)
    bands = sorted(rng.sample(range(nrows + 1), min(nrows + 1, 4)))
    cols = []
    for _ in range(rng.randrange(0, 30)):
        pick = rng.random()
        if pick < 0.1 or len(bands) < 2:
            cols.append([])
        elif pick < 0.4 and cols:
            cols.append([r for col in rng.sample(cols, min(len(cols), 3))
                         for r in col])
        else:
            lo, hi = sorted(rng.sample(bands, 2))
            cols.append([rng.randrange(lo, hi)
                         for _ in range(rng.randrange(1, 4))])
    return nrows, cols


class TestRowsNullspace:
    """``rows_nullspace`` eliminates one component at a time and returns
    the dense ``nullspace_basis``, vector for vector and in order."""

    @staticmethod
    def dense(nrows, cols):
        return F2Matrix.from_entries(nrows, len(cols), (
            (r, j) for j, col in enumerate(cols) for r in col))

    def test_seeded_sparse_systems(self):
        rng = random.Random(61)
        split = repeated = kernels = 0
        for _ in range(300):
            nrows, cols = random_row_lists(rng)
            expected = self.dense(nrows, cols).nullspace_basis()
            assert rows_nullspace(cols) == expected
            owner = {}
            split += len(_components([[owner.setdefault(r, j) for r in col]
                                      for j, col in enumerate(cols)])) > 1
            repeated += any(len(set(col)) < len(col) for col in cols)
            kernels += bool(expected)
        assert min(split, repeated, kernels) > 20

    def test_edge_cases(self):
        assert rows_nullspace([]) == []
        # nrows = 0: every column is zero
        assert rows_nullspace([[], []]) == \
            self.dense(0, [[], []]).nullspace_basis() == [1, 2]
        # rows 1 and 4 untouched; column 2 is column 0 written twice
        cols = [[0, 2], [3], [0, 2, 0, 2], [], [5, 3], [5]]
        assert rows_nullspace(cols) == \
            self.dense(6, cols).nullspace_basis() == [4, 8, 2 | 16 | 32]


@pytest.fixture
def block_builds(monkeypatch):
    """The rows of every class of a BlockDifferential built while the test
    runs."""
    built = []
    part = BlockDifferential.part

    def counting(self, c):
        if c not in self.parts:
            built.append(part(self, c)[0])
        return part(self, c)

    monkeypatch.setattr(BlockDifferential, "part", counting)
    return built


class TestKeptBlocks:
    """A ChainComplex checks d² = 0 through its one BlockDifferential,
    which homology() and _blocks.blocks then read."""

    def test_construction_builds_one_block_differential(self, block_builds):
        d = F2Matrix.from_entries(4, 4, [(1, 0), (3, 2)])
        C = ChainComplex(("a", "b", "c", "d"), d)
        assert block_builds == [[[1], [], [3], []]]
        assert C._blocks.blocks == ((0, 1), (2, 3))

    def test_homology_and_blocks_build_no_more(self, block_builds):
        rng = random.Random(19)
        C = random_cone(rng)
        block_builds.clear()
        first, second = homology(C), homology(C)
        blocks = C._blocks.blocks
        assert block_builds == []
        assert first == second == dense_homology(C)
        assert blocks == BlockDifferential(
            [[r for r in range(C.dim) if C.d.entry(r, j)]
             for j in range(C.dim)]).blocks

    def test_nonzero_square_in_the_second_block_raises(self):
        # (0, 1) is a complex; in (2, 3, 4), d² e2 = e4
        d = F2Matrix.from_entries(5, 5, [(1, 0), (3, 2), (4, 3)])
        with pytest.raises(ValueError,
                           match="differential does not square to zero"):
            ChainComplex(tuple("abcde"), d)

    def test_involutive_cone_builds_one_block_differential(self,
                                                           block_builds):
        # C = <a -> b>; a -> b alone is a chain map, the conjugation here
        C = ChainComplex(("a", "b"), F2Matrix.from_entries(2, 2, [(1, 0)]))
        eye, conj = F2Matrix.identity(2), F2Matrix.from_entries(2, 2,
                                                                [(1, 0)])
        block_builds.clear()
        cone = checked_cone(C, C, eye, conj)
        assert len(block_builds) == 1
        assert cone.q == F2Matrix.from_entries(4, 4, [(2, 0), (3, 1)])

    def test_cone_carries_the_actions_it_is_given(self):
        # Q is incl on the lower-left block, whatever the conjugation
        C = ChainComplex(("a", "b"), F2Matrix.from_entries(2, 2, [(1, 0)]))
        eye, zero = F2Matrix.identity(2), F2Matrix.zero(2, 2)
        swap = F2Matrix.from_entries(4, 4, [(2, 0), (3, 1)])
        assert checked_cone(C, C, eye, zero).q == swap
        assert checked_cone(C, C, eye, eye).q == swap
        assert checked_cone(C, C, zero, eye).q == F2Matrix.zero(4, 4)


class TestConjugationConeRefusals:
    """The builder checks only the shape; the cone's own d² = 0 refuses an
    incl + conj that is not a chain map, and its Q check an incl that is
    not one.  C = <a -> b>; b -> a is not a chain map."""

    C = ChainComplex(("a", "b"), F2Matrix.from_entries(2, 2, [(1, 0)]))
    back = F2Matrix.from_entries(2, 2, [(0, 1)])

    def test_sum_not_a_chain_map_fails_the_square(self):
        with pytest.raises(ValueError,
                           match="^differential does not square to zero$"):
            conjugation_cone(self.C, self.C, F2Matrix.identity(2), self.back)

    def test_incl_not_a_chain_map_fails_the_action_check(self):
        # incl + conj = 0 is a chain map, so only Q can refuse it
        with pytest.raises(ValueError,
                           match="^Q action does not commute with d$"):
            conjugation_cone(self.C, self.C, self.back, self.back)

    def test_wrong_shape_refused(self):
        # F2Matrix masks out-of-range bits, so an incl a row short would
        # build a cone without any error
        D = ChainComplex(("x", "y", "z"), F2Matrix.zero(3, 3))
        for incl in (F2Matrix.zero(2, 2), F2Matrix.zero(3, 3)):
            with pytest.raises(ValueError, match="^matrix shape does not "
                               "match the complexes$"):
                conjugation_cone(self.C, D, incl, incl)


class TestPipelineBlockBuilds:
    """Each complex a pipeline reads blocks of is split into blocks once;
    a Mor complex's dense view adopts the blocks it was built with."""

    def test_mor_complex_view_adopts_its_blocks(self, cfd0_k2, block_builds):
        block_builds.clear()
        mc = mor_complex_DD(cfd0_k2, cfd0_k2)
        assert len(block_builds) == 1
        assert mc.complex._blocks.blocks == mc.differential.blocks
        assert homology(mc.complex) == mc.homology()
        assert len(block_builds) == 1
        n, rows = len(mc.basis), block_builds[0]
        assert mc.complex.d == F2Matrix.from_entries(n, n, [
            (r, j) for j, col in enumerate(rows) for r in col])

    def test_iota_on_mor_genus_2(self, cfd0_k2, block_builds):
        block_builds.clear()
        iota_on_mor(cfd0_k2, cfd0_k2)
        sizes = [len(rows) for rows in block_builds]
        assert len(sizes) == 5
        assert sizes.count(max(sizes)) == 1     # the Mor complex, once

    def test_triangle_genus_1(self, cfa1, block_builds):
        block_builds.clear()
        verify_hfi_triangle(cfa1)
        assert len(block_builds) == 9

    def test_involutive_pair_genus_1(self, cfa1, cfd0, block_builds):
        A, D = standard_involutive_a(cfa1), standard_involutive_d(cfd0)
        block_builds.clear()
        involutive_pair(A, D)
        assert len(block_builds) == 3

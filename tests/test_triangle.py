import random
import time

import pytest

import bhfi.involutive as involutive
import bhfi.triangle as triangle
from bhfi import (ChainComplex, F2Matrix, build_triangle_data,
                  check_structure, verify_hfi_triangle)
from bhfi.errors import RelationViolation
from bhfi.involutive import conjugation_cone
from bhfi.standard import cfa_zero_handlebody
from bhfi.structures import (AInfModule, Morphism, box_morphism_right,
                             box_tensor, contraction_trace)
from bhfi.triangle import _check_sequence, _exact_at


def comp_labels(morphism):
    return sorted((s, o.label, d) for s, i, o, d in morphism.comps)


def disjoint_copies(M, n):
    """The direct sum of n copies of the module M, copy c's generators
    suffixed with c."""
    gens = [(f"{g}{c}", M.in_idem[g]) for c in range(n)
            for g in M.generators]
    ops = [(f"{s}{c}", list(i), f"{d}{c}") for c in range(n)
           for s, i, _, d in M.ops]
    return AInfModule(M.in_alg.circle, gens, ops)


class TestTriangleData:
    def test_builds_and_verifies(self):
        data = build_triangle_data()
        assert data.phi.is_cycle() and data.psi.is_cycle()

    def test_displayed_equivalence_values(self):
        data = build_triangle_data()
        assert comp_labels(data.psi_inf) == [
            ("r2.4|r", "r3.4", "r"), ("r3.4|r", "h2", "r")]
        assert comp_labels(data.psi_0) == [
            ("r1.3|n", "r2.3", "n"), ("r2.3|n", "h1", "n")]

    def test_homotopies_are_the_drawn_arrows(self):
        data = build_triangle_data()
        assert comp_labels(data.G) == [
            ("r1.2|r", "r2.4", "b"), ("r1.4|r", "h2", "b"),
            ("r2.4|r", "h1", "a")]
        assert comp_labels(data.H) == [
            ("r1.4|b", "r2.3", "n"), ("r2.4|b", "h1", "n")]

    def test_squares_commute_up_to_homotopy(self, az1):
        data = build_triangle_data()
        lhs = data.G.differential()
        rhs = box_morphism_right(az1, data.phi).then(data.psi_m1) + \
            data.psi_inf.then(data.phi)
        assert lhs.comps == rhs.comps

    def test_interchange_identity(self, az1):
        data = build_triangle_data()
        assert data.G.then(data.psi).comps == \
            box_morphism_right(az1, data.phi).then(data.H).comps

    def test_equivalences_have_acyclic_cones(self):
        data = build_triangle_data()
        for mor in (data.psi_inf, data.psi_m1, data.psi_0):
            assert contraction_trace(mor.cone()) is not None

    def test_non_cycle_surgery_map_refused(self, monkeypatch):
        phi, psi = triangle.surgery_maps()
        cut = Morphism(phi.source, phi.target, phi.comps - {min(phi.comps)})
        monkeypatch.setattr(triangle, "surgery_maps", lambda: (cut, psi))
        with pytest.raises(RelationViolation,
                           match=r"^phi is not a cycle; leftover paths: "
                                 r"\[\('r', \(\), r2\.4, 'b'\)\]$"):
            build_triangle_data()


class TestHfiTriangle:
    def test_standard_module(self, cfa1):
        report = verify_hfi_triangle(cfa1)
        assert report.hat_dims == (1, 1, 2)
        assert report.involutive_dims == (2, 2, 4)
        assert report.hat_exact and report.involutive_exact
        assert report.levelwise_exact and report.chain_maps_ok

    def test_relabelled_module_gives_same_report(self, cfa1, z1):
        relabeled = [(f"g_{g}", cfa1.in_idem[g]) for g in cfa1.generators]
        ops = [(f"g_{s}", list(i), f"g_{d}") for s, i, _, d in cfa1.ops]
        M = AInfModule(z1, relabeled, ops)
        assert check_structure(M) == []
        report = verify_hfi_triangle(M)
        assert report.to_json() == verify_hfi_triangle(cfa1).to_json()

    def test_alternate_bounded_module(self, z1):
        # two disjoint copies of the handlebody module
        base = cfa_zero_handlebody(1)
        gens = [(f"{g}0", base.in_idem[g]) for g in base.generators]
        gens += [(f"{g}1", base.in_idem[g]) for g in base.generators]
        ops = [(f"{s}0", list(i), f"{d}0") for s, i, _, d in base.ops]
        ops += [(f"{s}1", list(i), f"{d}1") for s, i, _, d in base.ops]
        M = AInfModule(z1, gens, ops)
        report = verify_hfi_triangle(M)
        assert report.hat_dims == (2, 2, 4)
        assert report.hat_exact and report.involutive_exact

    @pytest.mark.parametrize("twists", [1, 2])
    def test_twisted_module_gives_same_report(self, cfa1, az1, twists):
        # modules on which the drawn G and H, paired with the module, do
        # not satisfy the identities; the solved ones give the same report
        M = cfa1
        for _ in range(twists):
            M = box_tensor(M, az1)
        assert verify_hfi_triangle(M).to_json() == \
            verify_hfi_triangle(cfa1).to_json()

    def test_five_disjoint_copies(self, cfa1):
        # 15 generators: the reduced models' buckets of 10 and 5 made the
        # permutation walk of find_isomorphism take minutes
        start = time.monotonic()
        report = verify_hfi_triangle(disjoint_copies(cfa1, 5))
        assert time.monotonic() - start < 10
        assert report.hat_dims == (5, 5, 10)
        assert report.involutive_dims == (10, 10, 20)

    def test_named_failure_raised_before_the_homotopies(self, cfa1,
                                                        monkeypatch):
        # one component less on the last step of the minus_one
        # involution, the only node with a nonzero differential; the
        # conjugation refuses it, and the homotopy solve that would then
        # fail is never reached
        real, built = involutive.box_morphism_left_comps, []

        def perturbed(theta_m, target):
            comps = real(theta_m, target)
            built.append(comps)
            return comps - {min(comps)} if len(built) == 2 else comps

        def solve(*args):
            raise AssertionError("the homotopies were solved for")

        monkeypatch.setattr(involutive, "box_morphism_left_comps", perturbed)
        monkeypatch.setattr(triangle, "_solve_homotopy_pair", solve)
        with pytest.raises(RelationViolation,
                           match="^conjugation is not a chain map$"):
            verify_hfi_triangle(cfa1)
        assert len(built) == 2          # the third is never built

    def test_involutive_sequence_refused(self, cfa1, monkeypatch):
        # one entry more in G: the hat sequence passes, and the cone block
        # maps no longer compose to zero
        real = triangle._solve_homotopy_pair

        def perturbed(*args):
            G, H = real(*args)
            return G + F2Matrix.from_entries(G.nrows, G.ncols, [(0, 0)]), H

        monkeypatch.setattr(triangle, "_solve_homotopy_pair", perturbed)
        with pytest.raises(RelationViolation,
                           match="^HFI inf -> HFI zero: composite is "
                                 "nonzero$"):
            verify_hfi_triangle(cfa1)

    def test_pinned_builds(self, cfa1, monkeypatch):
        # the three conjugation composites insert from P, so none builds
        # the identity bimodule or relabels into it, and the homotopies
        # are solved for, not built as composites
        from test_involutive import count_builds
        assert count_builds(monkeypatch, lambda: verify_hfi_triangle(cfa1)) \
            == {"box_tensor": 22, "box_tensor_DD_side": 1, "then": 17}


def complex_of(n, entries):
    """The complex on generators g0..g(n-1) whose differential has a 1 at
    each (row, column) of ``entries``."""
    return ChainComplex(tuple(f"g{i}" for i in range(n)),
                        F2Matrix.from_entries(n, n, entries))


def map_of(source, target, entries):
    return F2Matrix.from_entries(target.dim, source.dim, entries)


class TestCheckSequence:
    """``_check_sequence`` on hand-built sequences 0 -> A -> B -> C -> 0."""

    NAMES = ("A", "B", "C")

    def check(self, cxs, f_entries, g_entries):
        A, B, C = cxs
        failures = []
        homs = _check_sequence(cxs, map_of(A, B, f_entries),
                               map_of(B, C, g_entries), self.NAMES, failures)
        return failures, [h.dimension for h in homs]

    def test_exact_sequence_with_a_connecting_map(self):
        # A = <a>, B = <b0 -> b1>, C = <c>: f(a) = b1, g(b0) = c, and the
        # connecting map carries the class of c to that of a
        cxs = complex_of(1, []), complex_of(2, [(1, 0)]), complex_of(1, [])
        assert self.check(cxs, [(1, 0)], [(0, 0)]) == ([], [1, 0, 1])

    def test_split_exact_sequence(self):
        cxs = complex_of(1, []), complex_of(2, []), complex_of(1, [])
        assert self.check(cxs, [(0, 0)], [(0, 1)]) == ([], [1, 2, 1])

    def test_f_not_injective(self):
        cxs = complex_of(2, []), complex_of(2, []), complex_of(1, [])
        failures, _ = self.check(cxs, [(0, 0), (0, 1)], [(0, 1)])
        assert failures == ["B: not levelwise short exact"]

    def test_g_after_f_nonzero(self):
        # f injective, g surjective and the ranks add up to dim B
        cxs = complex_of(1, []), complex_of(2, []), complex_of(1, [])
        failures, _ = self.check(cxs, [(0, 0)], [(0, 0), (0, 1)])
        assert failures == ["A -> C: composite is nonzero"]

    def test_f_not_a_chain_map(self):
        # f(a0) = b0 but d(b0) = b1 while d(a0) = 0; g kills im f
        cxs = complex_of(2, []), complex_of(3, [(1, 0)]), complex_of(1, [])
        failures, _ = self.check(cxs, [(0, 0), (1, 1)], [(0, 2)])
        assert failures == ["A -> B: not a chain map"]

    def test_corrupted_map_on_homology(self, monkeypatch):
        # the split sequence with f_* sending the class of a to b0 + b1,
        # so that g_* f_* != 0 while the ranks still add up
        real, made = triangle._on_homology, []

        def corrupted(cx, hom, cycles):
            mat = real(cx, hom, cycles)
            made.append(mat)
            if len(made) == 1:
                mat = F2Matrix(mat.nrows, mat.ncols, (0b11,))
            return mat

        monkeypatch.setattr(triangle, "_on_homology", corrupted)
        cxs = complex_of(1, []), complex_of(2, []), complex_of(1, [])
        assert self.check(cxs, [(0, 0)], [(0, 1)]) == \
            (["B: image != kernel"], [1, 2, 1])
        assert len(made) == 2           # f_* and g_*

    def test_triangle_checks_both_levels(self, cfa1, monkeypatch):
        seen = []

        def recording(cxs, f, g, names, failures):
            seen.append(names)
            return _check_sequence(cxs, f, g, names, failures)

        monkeypatch.setattr(triangle, "_check_sequence", recording)
        verify_hfi_triangle(cfa1)
        assert seen == [("inf", "minus_one", "zero"),
                        ("HFI inf", "HFI minus_one", "HFI zero")]


def random_complex(rng, max_dim=6):
    """A random complex: a random map from the last generators into the
    first, so that d² = 0."""
    n = rng.randrange(1, max_dim + 1)
    split = rng.randrange(0, n + 1)
    return complex_of(n, [(r, c) for c in range(split, n)
                          for r in range(split) if rng.getrandbits(1)])


def random_chain_map(rng, X, Y):
    """A uniformly random chain map X -> Y: a random vector of the kernel
    of f -> f d + d f on the entries of f (entry (r, c) at r * X.dim + c)."""
    m, n = Y.dim, X.dim
    cols = []
    for r in range(m):
        for c in range(n):
            img = 0
            for s in range(n):          # E_rc d: row c of d_X moved to row r
                img ^= X.d.entry(c, s) << (r * n + s)
            for t in range(m):          # d E_rc: column r of d_Y moved to c
                img ^= Y.d.entry(t, r) << (t * n + c)
            cols.append(img)
    vec = 0
    for v in F2Matrix(m * n, m * n, tuple(cols)).nullspace_basis():
        if rng.getrandbits(1):
            vec ^= v
    return F2Matrix.from_entries(m, n, [divmod(k, n) for k in range(m * n)
                                        if vec >> k & 1])


def rank_on_homology(phi, X, Y):
    """rank of phi_*, from the cycles of X and the boundaries of Y alone:
    dim (phi(Z_X) + B_Y) - dim B_Y."""
    images = [phi.apply(z) for z in X.d.nullspace_basis()]
    both = F2Matrix(Y.dim, len(images) + Y.dim, tuple(images) + Y.d.cols)
    return both.rank() - Y.d.rank()


class TestConnectingMapOnCones:
    """0 -> Y -> Cone(phi) -> X -> 0, with the T copy as the inclusion and
    the S copy as the projection.  Its connecting map is phi_*, so the
    cone's homology has dimension h(X) + h(Y) - 2 rank(phi_*).  The cone
    is the conjugation cone with a zero conjugation, whose differential
    is [[d_X, 0], [phi, d_Y]], written out here as row lists."""

    def test_seeded_cones(self):
        rng = random.Random(21)
        ranks = []
        for _ in range(120):
            X, Y = random_complex(rng), random_complex(rng)
            phi = random_chain_map(rng, X, Y)
            cone = conjugation_cone(X, Y, phi, F2Matrix.zero(Y.dim, X.dim))
            assert cone.d.to_lists() == \
                [row + [0] * Y.dim for row in X.d.to_lists()] + \
                [a + b for a, b in zip(phi.to_lists(), Y.d.to_lists())]
            incl = F2Matrix(cone.dim, Y.dim,
                            tuple(1 << (X.dim + j) for j in range(Y.dim)))
            proj = F2Matrix(X.dim, cone.dim,
                            tuple(1 << j for j in range(X.dim)) +
                            (0,) * Y.dim)
            failures = []
            homs = _check_sequence((Y, cone, X), incl, proj,
                                   ("Y", "Cone", "X"), failures)
            r = rank_on_homology(phi, X, Y)
            hX, hY = X.dim - 2 * X.d.rank(), Y.dim - 2 * Y.d.rank()
            assert failures == []
            assert [h.dimension for h in homs] == [hY, hX + hY - 2 * r, hX]
            ranks.append(r)
        assert sum(r >= 2 for r in ranks) >= 10
        assert max(ranks) >= 3


def spans_agree(vectors_a, vectors_b, dim):
    """The span comparison that once read exactness on homology: the
    ranks of each set and of both together agree."""
    ra = F2Matrix(dim, len(vectors_a), tuple(vectors_a)).rank()
    rb = F2Matrix(dim, len(vectors_b), tuple(vectors_b)).rank()
    rab = F2Matrix(dim, len(vectors_a) + len(vectors_b),
                   tuple(vectors_a) + tuple(vectors_b)).rank()
    return ra == rb == rab


class TestExactnessRule:
    """``_exact_at`` (the composite vanishes and the ranks add up) against
    the span comparison of the image of f with the kernel of g."""

    def test_matches_span_comparison(self):
        outcomes = []
        for seed in range(400):
            rng = random.Random(seed)
            n0, n1, n2 = (rng.randrange(0, 6) for _ in range(3))
            g = F2Matrix(n2, n1, tuple(rng.getrandbits(n2)
                                       for _ in range(n1)))
            kernel = g.nullspace_basis()
            cols = [rng.getrandbits(n1) for _ in range(n0)]
            if seed % 2:
                # g f = 0: each column of f is a random sum of kernel vectors
                cols = [0] * n0
                for j in range(n0):
                    for v in kernel:
                        cols[j] ^= v * rng.getrandbits(1)
            f = F2Matrix(n1, n0, tuple(cols))
            exact = _exact_at(f, g, n1)
            assert exact == spans_agree(f.cols, kernel, n1), seed
            outcomes.append((seed % 2, exact))
        # both outcomes, with and without g f = 0
        assert all(outcomes.count((odd, exact)) > 20
                   for odd in (0, 1) for exact in (True, False)), outcomes


class TestHomotopySolve:
    """The linear solve of the homotopies, on the triangle's own system
    and on systems with nonzero right-hand sides."""

    @staticmethod
    def captured_system(cfa1, monkeypatch):
        seen = []
        original = triangle._solve_homotopy_pair

        def capture(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(triangle, "_solve_homotopy_pair", capture)
        verify_hfi_triangle(cfa1)
        (args,) = seen
        return original, args

    @staticmethod
    def residues(cxs, i_mat, p_mat, iotas, G, H):
        c_inf, c_m1, c_0 = cxs
        r1 = iotas[1] * i_mat + i_mat * iotas[0]
        r2 = iotas[2] * p_mat + p_mat * iotas[1]
        return (c_m1.d * G + G * c_inf.d + r1,
                c_0.d * H + H * c_m1.d + r2,
                p_mat * G + H * i_mat)

    @staticmethod
    def garbage(rng, nrows, ncols):
        return F2Matrix(nrows, ncols,
                        tuple(rng.getrandbits(nrows) for _ in range(ncols)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solution_satisfies_the_identities(self, cfa1, monkeypatch, seed):
        solve, (cxs, i_mat, p_mat, iotas) = \
            self.captured_system(cfa1, monkeypatch)
        rng = random.Random(seed)
        # a null-homotopic change of the involutions keeps the system
        # solvable; it is drawn until the right-hand sides are nonzero
        real, rhs_zero = iotas, True
        while rhs_zero:
            iotas = [iota + cx.d * k + k * cx.d for iota, cx, k in
                     zip(real, cxs, [self.garbage(rng, c.dim, c.dim)
                                     for c in cxs])]
            rhs_zero = (iotas[1] * i_mat + i_mat * iotas[0]).is_zero() and \
                (iotas[2] * p_mat + p_mat * iotas[1]).is_zero()
        G, H = solve(cxs, i_mat, p_mat, iotas)
        assert (G.nrows, G.ncols) == (cxs[1].dim, cxs[0].dim)
        assert (H.nrows, H.ncols) == (cxs[2].dim, cxs[1].dim)
        after = self.residues(cxs, i_mat, p_mat, iotas, G, H)
        assert all(m.is_zero() for m in after)

    def test_unsolvable_system_raises(self, cfa1, monkeypatch):
        solve, (cxs, i_mat, p_mat, _) = \
            self.captured_system(cfa1, monkeypatch)
        # iota.i + i.iota = i, which is not null-homotopic
        iotas = [F2Matrix.identity(cxs[0].dim)] + \
            [F2Matrix.zero(c.dim, c.dim) for c in cxs[1:]]
        with pytest.raises(RelationViolation,
                           match="^no homotopies make the cone maps chain "
                                 "maps$"):
            solve(cxs, i_mat, p_mat, iotas)


def rowwise_homotopy_solve(cxs, i_mat, p_mat, iotas):
    """The row-by-row assembly of the homotopy system that the column-wise
    one replaced, kept as an oracle: one equation row at a time, then
    transposed into columns."""
    c_inf, c_m1, c_0 = cxs
    r1 = iotas[1] * i_mat + i_mat * iotas[0]
    r2 = iotas[2] * p_mat + p_mat * iotas[1]
    nG = (c_m1.dim, c_inf.dim)
    nH = (c_0.dim, c_m1.dim)

    def g_idx(r, c):
        return r * nG[1] + c

    def h_idx(r, c):
        return nG[0] * nG[1] + r * nH[1] + c

    nvars = nG[0] * nG[1] + nH[0] * nH[1]
    rows = []
    rhs = 0

    def add_eq(row, b):
        nonlocal rhs
        rhs |= b << len(rows)
        rows.append(row)

    for r in range(nG[0]):
        for c in range(nG[1]):
            row = 0
            for t in range(nG[0]):
                if c_m1.d.entry(r, t):
                    row ^= 1 << g_idx(t, c)
            for s in range(nG[1]):
                if c_inf.d.entry(s, c):
                    row ^= 1 << g_idx(r, s)
            add_eq(row, r1.entry(r, c))
    for r in range(nH[0]):
        for c in range(nH[1]):
            row = 0
            for t in range(nH[0]):
                if c_0.d.entry(r, t):
                    row ^= 1 << h_idx(t, c)
            for s in range(nH[1]):
                if c_m1.d.entry(s, c):
                    row ^= 1 << h_idx(r, s)
            add_eq(row, r2.entry(r, c))
    for r in range(nH[0]):
        for c in range(nG[1]):
            row = 0
            for t in range(nG[0]):
                if p_mat.entry(r, t):
                    row ^= 1 << g_idx(t, c)
            for s in range(nH[1]):
                if i_mat.entry(s, c):
                    row ^= 1 << h_idx(r, s)
            add_eq(row, 0)
    cols = [0] * nvars
    for r, row in enumerate(rows):
        for c in range(nvars):
            if (row >> c) & 1:
                cols[c] ^= 1 << r
    sol = F2Matrix(len(rows), nvars, tuple(cols)).solve(rhs)
    assert sol is not None
    G = F2Matrix.from_entries(
        nG[0], nG[1], [(r, c) for r in range(nG[0]) for c in range(nG[1])
                       if (sol >> g_idx(r, c)) & 1])
    H = F2Matrix.from_entries(
        nH[0], nH[1], [(r, c) for r in range(nH[0]) for c in range(nH[1])
                       if (sol >> h_idx(r, c)) & 1])
    return G, H


class TestColumnwiseHomotopySystem:
    """The column-wise assembly returns exactly the oracle's G and H: the
    same system in the same equation and unknown order, so the same
    solution with every free unknown zero."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rowwise_on_perturbed_systems(self, cfa1, monkeypatch,
                                                  seed):
        T = TestHomotopySolve
        solve, (cxs, i_mat, p_mat, iotas) = \
            T.captured_system(cfa1, monkeypatch)
        rng = random.Random(seed)
        iotas = [iota + cx.d * k + k * cx.d for iota, cx, k in
                 zip(iotas, cxs, [T.garbage(rng, c.dim, c.dim)
                                  for c in cxs])]
        assert solve(cxs, i_mat, p_mat, iotas) == \
            rowwise_homotopy_solve(cxs, i_mat, p_mat, iotas)

    def test_matches_rowwise_on_the_real_system(self, cfa1, monkeypatch):
        solve, (cxs, i_mat, p_mat, iotas) = \
            TestHomotopySolve.captured_system(cfa1, monkeypatch)
        assert solve(cxs, i_mat, p_mat, iotas) == \
            rowwise_homotopy_solve(cxs, i_mat, p_mat, iotas)

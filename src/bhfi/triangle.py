"""The exact-triangle data for the three solid-torus framings: the surgery
morphisms between them, the explicit equivalences from the twisted
structures, the connecting homotopies, and the machine verification that
both the hat-level and the involutive-cone level sequences are exact."""
from __future__ import annotations

from ._record import record
from .errors import RelationViolation
from .homology import _bits, homology
from .involutive import _on_homology, conjugation_cone
from .matrices import F2Matrix, _commutator, express_in_homology
from .morphisms import Morphism, collector_paused
from .pairing import box_morphism_right_comps, box_tensor
from .pieces import cfda_az
from .standard import cfd_solid_torus, torus_chord
from .strands import algebra, split_pmc
from .typea import (cfda_azbar, conjugation, standard_involutive_a,
                    to_matrix)


@record
class TriangleData:
    """All arrows of the framing-change diagram, machine verified."""

    phi: Morphism
    psi: Morphism
    psi_inf: Morphism
    psi_m1: Morphism
    psi_0: Morphism
    G: Morphism
    H: Morphism


def surgery_maps():
    """The two morphisms of the solid-torus short exact sequence."""
    inf, m1, zero = map(cfd_solid_torus, ("infinity", "minus_one", "zero"))
    alg = algebra(split_pmc(1))
    phi = Morphism(inf, m1, {
        ("r", (), alg.idempotent({2}), "b"),
        ("r", (), torus_chord(2, 3), "a"),
    })
    psi = Morphism(m1, zero, {
        ("a", (), alg.idempotent({1}), "n"),
        ("b", (), torus_chord(2, 3), "n"),
    })
    return phi, psi


def build_triangle_data():
    """Construct the diagram arrows and verify every identity they satisfy.

    The twisted-to-plain equivalences and the two homotopies are written
    out explicitly; verification reduces to length-two path identities in
    the morphism complexes, and any leftover term raises with the square
    it violates.
    """
    z1 = split_pmc(1)
    az = cfda_az(z1)
    alg = algebra(z1)
    i0, i1 = alg.idempotent({1}), alg.idempotent({2})

    d_inf, d_m1, d_0 = map(cfd_solid_torus, ("infinity", "minus_one", "zero"))
    az_inf, az_m1, az_0 = (box_tensor(az, d) for d in (d_inf, d_m1, d_0))

    phi, psi = surgery_maps()

    psi_inf = Morphism(az_inf, d_inf, {
        ("r3.4|r", (), i1, "r"),
        ("r2.4|r", (), torus_chord(3, 4), "r"),
    })
    psi_m1 = Morphism(az_m1, d_m1, {
        ("h2|b", (), i0, "a"),
        ("r3.4|b", (), i1, "b"),
        ("r1.2|b", (), i1, "b"),
    })
    psi_0 = Morphism(az_0, d_0, {
        ("r2.3|n", (), i0, "n"),
        ("r1.3|n", (), torus_chord(2, 3), "n"),
    })
    G = Morphism(az_inf, d_m1, {
        ("r2.4|r", (), i0, "a"),
        ("r1.4|r", (), i1, "b"),
        ("r1.2|r", (), torus_chord(2, 4), "b"),
    })
    H = Morphism(az_m1, d_0, {
        ("r2.4|b", (), i0, "n"),
        ("r1.4|b", (), torus_chord(2, 3), "n"),
    })

    for name, mor in (("phi", phi), ("psi", psi), ("Psi_inf", psi_inf),
                      ("Psi_m1", psi_m1), ("Psi_0", psi_0)):
        residue = mor.differential()
        if residue.comps:
            raise RelationViolation(
                f"{name} is not a cycle; leftover paths: "
                f"{sorted(residue.comps, key=mor.source.op_sort_key)[:3]}")
    for name, mor in (("Psi_inf", psi_inf), ("Psi_m1", psi_m1),
                      ("Psi_0", psi_0)):
        if mor.cone_trace() is None:
            raise RelationViolation(f"{name} is not an equivalence")

    az_phi = Morphism(az_inf, az_m1, box_morphism_right_comps(az, phi))
    az_psi = Morphism(az_m1, az_0, box_morphism_right_comps(az, psi))
    square_1 = G.differential() + az_phi.then(psi_m1) + psi_inf.then(phi)
    if square_1.comps:
        raise RelationViolation(
            f"left square does not commute up to G: {square_1.comps}")
    square_2 = H.differential() + az_psi.then(psi_0) + psi_m1.then(psi)
    if square_2.comps:
        raise RelationViolation(
            f"right square does not commute up to H: {square_2.comps}")
    mixed = G.then(psi) + az_phi.then(H)
    if mixed.comps:
        raise RelationViolation(
            f"homotopies fail psi.G = H.(Id x phi): {mixed.comps}")
    return TriangleData(phi=phi, psi=psi, psi_inf=psi_inf, psi_m1=psi_m1,
                        psi_0=psi_0, G=G, H=H)


# ---------------------------------------------------------------------------
# the involutive exact-sequence verification


def _solve_homotopy_pair(cxs, i_mat, p_mat, iotas):
    """Homotopies G and H over F2 with  dG + Gd = iota.i + i.iota,
    dH + Hd = iota.p + p.iota and p.G + H.i = 0, so that the
    involutive-cone block maps are chain maps and compose to zero.

    Solves the linear system in the entries of G and H and returns the
    solution with every free unknown zero.  Existence follows from the
    square identities holding up to homotopy; failure raises.
    """
    c_inf, c_m1, c_0 = cxs
    r1 = iotas[1] * i_mat + i_mat * iotas[0]
    r2 = iotas[2] * p_mat + p_mat * iotas[1]
    # assembled column by column.  Unknowns: the entries of G (n1 x n0),
    # then of H (n2 x n1); equations: the entries of dG + Gd, dH + Hd and
    # pG + Hi, at offsets 0, e1 and e12; all row by row.
    # G[t][c] enters equation (r, c) of dG + Gd and of pG + Hi for each 1
    # in column t of d_m1 and of p (spread with stride n0), and equation
    # (t, c') of dG + Gd for each 1 in row c of d_inf; H likewise.
    n0, n1, n2 = c_inf.dim, c_m1.dim, c_0.dim
    e1, e12 = n1 * n0, n1 * n0 + n2 * n1     # e1 is also the size of G

    def spread(col, stride, offset):
        return sum(1 << (offset + r * stride) for r in _bits(col))

    def rows(mat):
        return mat.transpose().cols

    d_inf_rows, d_m1_rows, i_rows = rows(c_inf.d), rows(c_m1.d), rows(i_mat)
    cols = []
    for t in range(n1):                 # G[t][c]
        for c in range(n0):
            cols.append(spread(c_m1.d.cols[t], n0, c)
                        ^ d_inf_rows[c] << t * n0
                        ^ spread(p_mat.cols[t], n0, e12 + c))
    for t in range(n2):                 # H[t][c]
        for c in range(n1):
            cols.append(spread(c_0.d.cols[t], n1, e1 + c)
                        ^ d_m1_rows[c] << e1 + t * n1
                        ^ i_rows[c] << e12 + t * n0)
    rhs = 0
    for r, row in enumerate(rows(r1)):
        rhs ^= row << r * n0
    for r, row in enumerate(rows(r2)):
        rhs ^= row << e1 + r * n1
    sol = F2Matrix(e12 + n2 * n0, len(cols), tuple(cols)).solve(rhs)
    if sol is None:
        raise RelationViolation("no homotopies make the cone maps chain maps")
    G = F2Matrix.from_entries(n1, n0, [divmod(j, n0) for j in _bits(sol)
                                       if j < e1])
    H = F2Matrix.from_entries(n2, n1, [divmod(j - e1, n1) for j in _bits(sol)
                                       if j >= e1])
    return G, H


@record
class TriangleReport:
    """The homology dimensions of a verified surgery sequence.  A report
    is made only when every check passed, so its flags are all true."""

    hat_dims: tuple
    involutive_dims: tuple
    hat_exact = involutive_exact = levelwise_exact = chain_maps_ok = True

    def to_json(self):
        return {"hat_dims": list(self.hat_dims),
                "involutive_dims": list(self.involutive_dims),
                "hat_exact": self.hat_exact,
                "involutive_exact": self.involutive_exact,
                "levelwise_exact": self.levelwise_exact,
                "chain_maps": self.chain_maps_ok}


def _exact_at(into, out_of, dim):
    """Exactness at a node of dimension ``dim`` between the maps ``into``
    and ``out_of`` it: the composite vanishes and the ranks add up to dim."""
    return (out_of * into).is_zero() and into.rank() + out_of.rank() == dim


def _check_sequence(cxs, f, g, names, failures):
    """Check that 0 -> A -f-> B -g-> C -> 0 on the complexes ``cxs``,
    named ``names``, is a short exact sequence of chain maps with an
    exact homology triangle, appending what fails to ``failures``.  Both
    read exactness with the rule of ``_exact_at``; levelwise, with zeros
    at the ends, it asks g f = 0, f injective, g surjective and the ranks
    to add up to dim B.  The triangle is checked only when that holds; then
    chain maps carry cycles to cycles, and the connecting map's lifts exist
    (g is onto, ker g = im f, and f is an injective chain map).  Returns
    the three homologies."""
    A, B, C = cxs
    homs = hA, hB, hC = [homology(cx) for cx in cxs]
    found = len(failures)
    for mat, src, tgt, at in ((f, A, B, 0), (g, B, C, 1)):
        if not _commutator(mat, src, tgt).is_zero():
            failures.append(f"{names[at]} -> {names[at + 1]}: "
                            "not a chain map")
    if not (g * f).is_zero():
        failures.append(f"{names[0]} -> {names[2]}: composite is nonzero")
    rf, rg = f.rank(), g.rank()
    if (rf, rg, rf + rg) != (A.dim, C.dim, B.dim):
        failures.append(f"{names[1]}: not levelwise short exact")
    if len(failures) > found:
        return homs
    mat_f = _on_homology(B, hB, map(f.apply, hA.cycles))
    mat_g = _on_homology(C, hC, map(g.apply, hB.cycles))
    # the connecting map: lift along g, differentiate, pull back along f
    mat_d = F2Matrix(hA.dimension, hC.dimension, tuple(express_in_homology(
        A, hA, f.solve_all(map(B.d.apply, g.solve_all(hC.cycles))))))
    for into, out_of, hom, name in ((mat_f, mat_g, hB, names[1]),
                                    (mat_g, mat_d, hC, names[2]),
                                    (mat_d, mat_f, hA, names[0])):
        if not _exact_at(into, out_of, hom.dimension):
            failures.append(f"{name}: image != kernel")
    return homs


@collector_paused
def verify_hfi_triangle(X):
    """Verify the surgery sequence for a bounded one-input-circle module.

    Pairs X with the three framings through ``conjugation``, which
    checks each involution; then builds the cone complexes with their
    block maps and checks both sequences with ``_check_sequence``.  Each
    involution conjugates through the diagram's equivalence on the framing
    and the certified psi of ``standard_involutive_a(X)``; the two
    connecting homotopies come from one linear solve.
    """
    z1 = split_pmc(1)
    data = build_triangle_data()
    az, azb = cfda_az(z1), cfda_azbar(z1)
    psi_x = standard_involutive_a(X).psi
    pairs, cxs, iotas = zip(*(
        conjugation(X, psi_p.target, azb, az, psi_p, psi_x)
        for psi_p in (data.psi_inf, data.psi_m1, data.psi_0)))
    nodes = ("inf", "minus_one", "zero")
    failures = []
    i_mat = to_matrix(Morphism(pairs[0], pairs[1], box_morphism_right_comps(
        X, data.phi)), cxs[0], cxs[1])
    p_mat = to_matrix(Morphism(pairs[1], pairs[2], box_morphism_right_comps(
        X, data.psi)), cxs[1], cxs[2])
    hat_homs = _check_sequence(cxs, i_mat, p_mat, nodes, failures)
    if failures:
        raise RelationViolation("; ".join(failures))

    G_mat, H_mat = _solve_homotopy_pair(cxs, i_mat, p_mat, iotas)

    cones = [conjugation_cone(cx, cx, F2Matrix.identity(cx.dim), conj)
             for cx, conj in zip(cxs, iotas)]

    def block_map(f_mat, h_mat):
        """[[f, 0], [h, f]] between the cones, source copies first."""
        nt = f_mat.nrows
        cols = [f | h << nt for f, h in zip(f_mat.cols, h_mat.cols)]
        return F2Matrix(2 * nt, 2 * f_mat.ncols,
                        tuple(cols + [f << nt for f in f_mat.cols]))

    I_blk = block_map(i_mat, G_mat)
    P_blk = block_map(p_mat, H_mat)
    cone_homs = _check_sequence(cones, I_blk, P_blk,
                                tuple(f"HFI {node}" for node in nodes),
                                failures)
    if failures:
        raise RelationViolation("; ".join(failures))
    return TriangleReport(tuple(h.dimension for h in hat_homs),
                          tuple(h.dimension for h in cone_homs))

"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  Run with  pytest tests/test_acceptance.py -v -s
"""
import os
import random
import time

import pytest

from bhfi import (F2Matrix, Morphism, TypeDStructure, algebra, box_tensor,
                  box_tensor_AD, check_structure,
                  find_homotopy_equivalence, homology, involutive_pair,
                  iota_on_mor, mor_complex_DD, reduce_structure,
                  standard_involutive_a, standard_involutive_d,
                  validate_bounded)
from bhfi.errors import DivergenceError
from bhfi.standard import cfd_solid_torus
from bhfi.structures import BorderedObject


def report(number, label, started):
    print(f"criterion {number} ({label}): PASS ({time.time() - started:.2f}s)")


def test_ac1_algebra_size(z1):
    t0 = time.time()
    algebra(z1).basis          # warm the cached enumeration
    t0 = time.time()
    basis = algebra(z1).basis
    elapsed = time.time() - t0
    assert len(basis) == 8
    assert elapsed < 1e-3
    report(1, "algebra size", t0)


def test_ac2_algebra_laws(z1, z2):
    t0 = time.time()
    alg1 = algebra(z1)
    els1 = [alg1.element([b]) for b in alg1.basis]
    for x in els1:
        for y in els1:
            assert (x * y).d() == x.d() * y + x * y.d()
            for z in els1:
                assert (x * y) * z == x * (y * z)
    for x in els1:
        assert not x.d().d()
    alg2 = algebra(z2)
    els2 = [alg2.element([b]) for b in alg2.basis]
    for x in els2:
        assert not x.d().d()
    for x in els2:
        for y in els2:
            assert (x * y).d() == x.d() * y + x * y.d()
    rng = random.Random(2)
    for _ in range(2000):
        x, y, z = (rng.choice(els2) for _ in range(3))
        assert (x * y) * z == x * (y * z)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, "algebra laws", t0)


def test_ac3_nilpotency(z1):
    t0 = time.time()
    alg = algebra(z1)
    chords = alg.chords()
    frontier = [alg.unit()]
    depth = 0
    for depth in range(1, 8):
        frontier = [p for v in frontier for c in chords if (p := v * c)]
        if not frontier:
            break
    assert not frontier and depth <= 7
    elapsed = time.time() - t0
    assert elapsed < 10
    report(3, "nilpotency", t0)


def test_ac4_pairing_sanity(cfa1, cfd0):
    t0 = time.time()
    box_dim = homology(box_tensor_AD(cfa1, cfd0)).dimension
    mor_dim = homology(mor_complex_DD(cfd0, cfd0).complex).dimension
    assert box_dim == 2
    assert mor_dim == 2
    elapsed = time.time() - t0
    assert elapsed < 1
    report(4, "pairing sanity", t0)


def test_ac5_triangle_data():
    from bhfi import build_triangle_data
    t0 = time.time()
    build_triangle_data()      # raises on any failed identity
    elapsed = time.time() - t0
    assert elapsed < 5
    report(5, "framing-change diagram", t0)


def test_ac6_surgery_triangle(cfa1):
    from bhfi import verify_hfi_triangle
    t0 = time.time()
    rep = verify_hfi_triangle(cfa1)
    assert rep.hat_exact and rep.involutive_exact
    assert rep.levelwise_exact and rep.chain_maps_ok
    elapsed = time.time() - t0
    assert elapsed < 30
    report(6, "surgery exact triangle", t0)


def test_ac7_involutive_pipeline(cfa1, cfd0, cfa2, cfd0_k2):
    t0 = time.time()
    rep = iota_on_mor(cfd0, cfd0)
    assert rep.hf_dim == 2
    assert rep.iota_matrix.cols == F2Matrix.identity(2).cols
    assert rep.hfi_dim == 4
    one_plus = rep.iota_matrix + F2Matrix.identity(2)
    assert rep.hfi_dim == 2 * len(one_plus.nullspace_basis())
    # derived oracle: the cone homology computed directly
    from bhfi import cfi_hat
    assert homology(cfi_hat(cfd0, cfd0)).dimension == 4
    # route equality at genus one
    pair1 = involutive_pair(standard_involutive_a(cfa1),
                            standard_involutive_d(cfd0))
    assert homology(pair1).dimension == rep.hfi_dim
    # genus-two run
    rep2 = iota_on_mor(cfd0_k2, cfd0_k2)
    sq = rep2.iota_matrix * rep2.iota_matrix
    assert sq.cols == F2Matrix.identity(rep2.hf_dim).cols
    pair2 = involutive_pair(standard_involutive_a(cfa2),
                            standard_involutive_d(cfd0_k2))
    assert homology(pair2).dimension == rep2.hfi_dim
    elapsed = time.time() - t0
    assert elapsed < 600
    report(7, "involutive pipeline", t0)


def test_ac8_uniqueness_shadow(cfd0, az1):
    t0 = time.time()
    twisted = box_tensor(az1, cfd0)
    cert1 = find_homotopy_equivalence(twisted, cfd0)
    permuted = BorderedObject(
        twisted.out_alg, twisted.in_alg,
        tuple(reversed(twisted.generators)),
        twisted.out_idem, twisted.in_idem, twisted.ops)
    cert2 = find_homotopy_equivalence(permuted, cfd0)
    diff_comps = cert1.forward.comps ^ cert2.forward.comps
    diff = Morphism(twisted, cfd0, diff_comps)
    mc = mor_complex_DD(twisted, cfd0)
    vec = mc.vector_of(diff)
    assert vec == 0 or mc.complex.d.solve(vec) is not None
    # same check for the reversed search direction
    cert3 = find_homotopy_equivalence(cfd0, twisted)
    permuted2 = BorderedObject(
        cfd0.out_alg, cfd0.in_alg, cfd0.generators, cfd0.out_idem,
        cfd0.in_idem, cfd0.ops)
    cert4 = find_homotopy_equivalence(permuted2, twisted)
    diff2 = Morphism(cfd0, twisted, cert3.forward.comps
                     ^ cert4.forward.comps)
    mc2 = mor_complex_DD(cfd0, twisted)
    vec2 = mc2.vector_of(diff2)
    assert vec2 == 0 or mc2.complex.d.solve(vec2) is not None
    elapsed = time.time() - t0
    assert elapsed < 300
    report(8, "uniqueness shadow", t0)


TABLE1 = {
    "10_139": (5, 6),
    "10_145": (5, 6),
    "10_152": (13, 14),
    "10_153": (5, 6),
    "10_154": (15, 16),
    "10_161": (7, 8),
}


def test_ac9_table_reproduction():
    fixture_dir = os.environ.get(
        "BHFI_TABLE1_DIR",
        os.path.join(os.path.dirname(__file__), "fixtures", "table1"))
    if not os.path.isdir(fixture_dir):
        pytest.skip("branched-double-cover fixtures not supplied")
    from bhfi.files import load_structure
    t0 = time.time()
    for knot, (hf, hfi) in sorted(TABLE1.items()):
        p0 = os.path.join(fixture_dir, f"sigma_{knot}_H0.json")
        p1 = os.path.join(fixture_dir, f"sigma_{knot}_H1.json")
        if not (os.path.exists(p0) and os.path.exists(p1)):
            pytest.skip(f"fixtures for {knot} not supplied")
        rep = iota_on_mor(load_structure(p0), load_structure(p1))
        assert (rep.hf_dim, rep.hfi_dim) == (hf, hfi), knot
    report(9, "conditional quantitative reproduction", t0)


# ---------------------------------------------------------------------------
# randomized bounded structures for the property suite


def random_bounded_type_d(rng, z1):
    """A random bounded type D structure: a sum of framed solid tori moved
    by random change-of-basis twists, kept only when still bounded."""
    alg = algebra(z1)
    summands = [rng.choice(["infinity", "minus_one", "zero"])
                for _ in range(rng.randrange(1, 4))]
    gens, delta = [], []
    for idx, fr in enumerate(summands):
        S = cfd_solid_torus(fr)
        for g in S.generators:
            gens.append((f"{g}{idx}", S.out_idem[g]))
        for (s, _, c, t) in S.ops:
            delta.append((f"{s}{idx}", c, f"{t}{idx}"))
    P = TypeDStructure(z1, gens, delta)
    for _ in range(rng.randrange(0, 5)):
        twisted = _try_transvection(P, rng, alg)
        if twisted is not None:
            P = twisted
    return P


def _try_transvection(P, rng, alg):
    if len(P.generators) < 2:
        return None
    x, y = rng.sample(P.generators, 2)
    between = alg.basis_between(P.out_idem[x], P.out_idem[y])
    if not between:
        return None
    a = rng.choice(between)
    ops = set(P.ops)
    for (s, _, b, t) in P.ops:
        if s == y:
            if (c := alg.mul_basis(a, b)) is not None:
                ops ^= {(x, (), c, t)}
        if t == x:
            if (c := alg.mul_basis(b, a)) is not None:
                ops ^= {(s, (), c, y)}
        if s == y and t == x:
            if (c := alg.mul_many([a, b, a])) is not None:
                ops ^= {(x, (), c, y)}
    twisted = BorderedObject(P.out_alg, P.in_alg, P.generators,
                             P.out_idem, P.in_idem, ops)
    if check_structure(twisted):
        return None
    try:
        validate_bounded(twisted)
    except DivergenceError:
        return None
    return twisted


def test_ac10_property_suite(z1, az1, cfa1):
    t0 = time.time()
    rng = random.Random(20260809)
    for trial in range(200):
        P = random_bounded_type_d(rng, z1)
        assert check_structure(P) == [], trial
        twisted = box_tensor(az1, P)
        assert check_structure(twisted) == [], trial
        C = box_tensor_AD(cfa1, P)
        # the pairing has no algebra on either side, so no pair is blocked
        # and the cancellation runs to homology
        red = reduce_structure(box_tensor(cfa1, P))
        assert len(red.reduced.generators) == homology(C).dimension, trial
    elapsed = time.time() - t0
    assert elapsed < 120
    report(10, "property suite", t0)

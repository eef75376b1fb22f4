import importlib.util
import itertools
import math
import os
import random
import sys
import time
from collections import Counter

import pytest

from bhfi import (DivergenceError, Morphism, NotEquivalentError, algebra,
                  box_tensor, cfd_zero_handlebody, find_homotopy_equivalence,
                  find_structure_equivalence, homology, identity_da,
                  identity_morphism, mor_complex_DD, omega_equivalence,
                  split_pmc)
from bhfi import morphisms
from bhfi.dd import dd_identity
from bhfi.equivalence import MAX_SUM_SIZE, EquivalenceCertificate, _unit_part
from bhfi.errors import generator_cap
from bhfi.homology import BlockDifferential, _bits
from bhfi.involutive import iota_on_mor
from bhfi.matrices import F2Matrix, rows_nullspace
from bhfi.mor import _elementary_components
from bhfi.morphisms import contraction_trace, reduce_structure
from bhfi.pieces import cfda_az
from bhfi.standard import torus_chord
from bhfi.structures import BorderedObject
from bhfi.typea import cfda_azbar, find_isomorphism
from test_homology import dense_homology
from test_structures import (_Captured, captured_search_system,
                             search_unknowns, shuffled,
                             summed_search_columns)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestHomologyBasis:
    def test_self_classes_of_zero_framing(self, cfd0):
        mc = mor_complex_DD(cfd0, cfd0)
        classes = [mc.morphism_of(v) for v in mc.homology().cycles]
        assert len(classes) == 2
        flat = {op[2].label for c in classes for op in c.comps}
        assert flat == {"h1", "r1.3"}

    def test_identity_class_is_present(self, cfd0, cfd_m1):
        for P in (cfd0, cfd_m1):
            mc = mor_complex_DD(P, P)
            hom = homology(mc.complex)
            idv = mc.vector_of(identity_morphism(P))
            from bhfi.matrices import express_in_homology
            assert express_in_homology(mc.complex, hom, [idv]) != [None]

    def test_twisted_basis_has_two_classes(self, cfd0, az1):
        twisted = box_tensor(az1, cfd0)
        for P, Q in ((cfd0, twisted), (twisted, cfd0)):
            mc = mor_complex_DD(P, Q)
            assert len([mc.morphism_of(v)
                        for v in mc.homology().cycles]) == 2

    def test_genus_2_twisted_basis_has_four_classes(self, cfd0_k2, z2):
        twisted = box_tensor(cfda_az(z2), cfd0_k2)
        mc = mor_complex_DD(cfd0_k2, twisted)
        assert len([mc.morphism_of(v) for v in mc.homology().cycles]) == 4


class TestFindHomotopyEquivalence:
    def test_self_equivalence_is_identity_class(self, cfd0):
        cert = find_homotopy_equivalence(cfd0, cfd0)
        assert cert.search_index == (0,)
        diff = cert.forward + identity_morphism(cfd0)
        mc = mor_complex_DD(cfd0, cfd0)
        vec = mc.vector_of(diff)
        assert mc.complex.d.solve(vec) is not None or vec == 0

    def test_twisted_equivalence_matches_displayed_map(self, cfd_inf, az1):
        # the found class agrees with the displayed equivalence up to
        # homotopy: their difference has an acyclic-cone-free class test
        twisted = box_tensor(az1, cfd_inf)
        cert = find_homotopy_equivalence(twisted, cfd_inf)
        alg = algebra(cfd_inf.out_alg.circle)
        displayed = Morphism(twisted, cfd_inf, {
            ("r3.4|r", (), alg.idempotent({2}), "r"),
            ("r2.4|r", (), torus_chord(3, 4), "r"),
        })
        assert displayed.is_cycle()
        diff = cert.forward + displayed
        mc = mor_complex_DD(twisted, cfd_inf)
        vec = mc.vector_of(diff)
        assert vec == 0 or mc.complex.d.solve(vec) is not None

    def test_not_equivalent_raises(self, cfd0, cfd_inf):
        with pytest.raises(NotEquivalentError):
            find_homotopy_equivalence(cfd0, cfd_inf)

    def test_genus_2_twist(self, cfd0_k2, z2):
        twisted = box_tensor(cfda_az(z2), cfd0_k2)
        cert = find_homotopy_equivalence(cfd0_k2, twisted)
        assert cert.forward.is_cycle()
        assert contraction_trace(cert.forward.cone()) is not None

    def test_certificates_from_permuted_orders_agree(self, cfd0, az1):
        # uniqueness shadow: certificates found under different generator
        # orders differ by a boundary
        twisted = box_tensor(az1, cfd0)
        cert1 = find_homotopy_equivalence(twisted, cfd0)
        permuted = BorderedObject(
            twisted.out_alg, twisted.in_alg,
            tuple(reversed(twisted.generators)),
            twisted.out_idem, twisted.in_idem, twisted.ops)
        cert2 = find_homotopy_equivalence(permuted, cfd0)
        diff = Morphism(twisted, cfd0, cert1.forward.comps
                        ^ cert2.forward.comps)
        assert diff.is_cycle()
        mc = mor_complex_DD(twisted, cfd0)
        vec = mc.vector_of(diff)
        assert vec == 0 or mc.complex.d.solve(vec) is not None


class TestOmega:
    def test_exists_and_certified(self, z1):
        cert = omega_equivalence(z1)
        assert cert.forward.is_cycle()
        assert contraction_trace(cert.forward.cone()) is not None

    def test_leading_term_hits_idempotent_pairs(self, z1):
        cert = omega_equivalence(z1)
        ident = identity_da(z1)
        for g in ident.generators:
            leads = [op for op in cert.forward.comps
                     if op[0] == g and not op[1]
                     and cert.forward.source.out_alg.is_idem(op[2])]
            assert leads, f"no leading term for {g}"
            for op in leads:
                tgt = cert.forward.target
                assert tgt.out_idem[op[3]] == ident.out_idem[g]
                assert tgt.in_idem[op[3]] == ident.in_idem[g]

    def test_quasi_inverse_composite_is_equivalence(self, z1, az1, azbar1):
        om = omega_equivalence(z1).forward
        composite = box_tensor(azbar1, az1)
        back = find_structure_equivalence(composite, identity_da(z1)).forward
        round_trip = om.then(back)
        # by rigidity of the identity bimodule any self-equivalence is in
        # the identity class, so an acyclic cone is the full check
        assert round_trip.is_cycle()
        assert contraction_trace(round_trip.cone()) is not None


class TestStructureEquivalence:
    def test_module_twist(self, cfa1, azbar1):
        twisted = box_tensor(cfa1, azbar1)
        cert = find_structure_equivalence(twisted, cfa1)
        assert cert.forward.is_cycle()
        assert contraction_trace(cert.forward.cone()) is not None

    def test_composite_bimodule_is_identity_equivalent(self, z1, az1,
                                                       azbar1):
        composite = box_tensor(azbar1, az1)
        cert = find_structure_equivalence(identity_da(z1), composite)
        assert contraction_trace(cert.forward.cone()) is not None


class TestSmallSearch:
    def test_direct_search_finds_identity_class(self, z1):
        from bhfi.typea import search_small_equivalence
        ident = identity_da(z1)
        cert = search_small_equivalence(ident, ident, max_arity=1)
        assert cert.forward.is_cycle()
        assert contraction_trace(cert.forward.cone()) is not None

    def test_direct_search_rejects_inequivalent(self, monkeypatch, z1, az1):
        from bhfi import equivalence, typea
        monkeypatch.setattr(equivalence, "MAX_SUM_SIZE", 1)
        with pytest.raises(NotEquivalentError):
            typea.search_small_equivalence(identity_da(z1), az1, max_arity=1)


@pytest.fixture(scope="module")
def doubled(cfd0):
    """cfd0 + cfd0, which no class of Mor(cfd0, cfd0 + cfd0) matches."""
    return BorderedObject(
        cfd0.out_alg, cfd0.in_alg, ("n0", "n1"),
        {"n0": cfd0.out_idem["n"], "n1": cfd0.out_idem["n"]},
        {"n0": cfd0.in_idem["n"], "n1": cfd0.in_idem["n"]},
        {(f"n{i}", ins, out, f"n{i}") for i in (0, 1)
         for _, ins, out, _ in cfd0.ops})


class TestSearchGuard:
    def test_candidate_cones_bounded_by_generator_cap(self, monkeypatch, z1,
                                                       az1, azbar1):
        # a 60-vector kernel: 523,685 candidate sums of up to four
        from bhfi.typea import search_small_equivalence
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "320")
        start = time.monotonic()
        with pytest.raises(DivergenceError) as err:
            search_small_equivalence(identity_da(z1), box_tensor(azbar1, az1))
        assert time.monotonic() - start < 1.0
        message = str(err.value)
        assert message.startswith("search_small_equivalence:")
        assert "10 of 523685 candidates" in message
        assert "60-vector kernel" in message

    def test_bridge_system_bounded_by_generator_cap(self, monkeypatch, z1,
                                                    az1, azbar1):
        # 306 unknowns at arity 2: one past the cap, the system is refused
        # before it is eliminated; at the cap, it is eliminated once and
        # the walk stops at its own candidate refusal
        from bhfi import typea
        eliminated = []
        monkeypatch.setattr(typea, "rows_nullspace",
                            lambda rows: eliminated.append(len(rows)) or
                            rows_nullspace(rows))
        A, B = identity_da(z1), box_tensor(azbar1, az1)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "305")
        with pytest.raises(DivergenceError) as err:
            typea.search_small_equivalence(A, B)
        assert str(err.value) == ("search_small_equivalence: 306 basis "
                                  "morphisms exceed BHFI_MAX_GENERATORS=305")
        assert eliminated == []
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "306")
        with pytest.raises(DivergenceError) as err:
            typea.search_small_equivalence(A, B)
        assert str(err.value).startswith(
            "search_small_equivalence: 9 of 523685 candidates tried")
        assert eliminated == [306]

    def test_homology_walk_bounded_by_generator_cap(self, monkeypatch, cfd0,
                                                    doubled):
        # Mor(cfd0, cfd0 + cfd0) has four classes and no equivalence; each
        # candidate cone has three generators
        with pytest.raises(NotEquivalentError) as err:
            find_homotopy_equivalence(cfd0, doubled)
        assert str(err.value).startswith("find_homotopy_equivalence:")
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "4")
        with pytest.raises(DivergenceError) as err:
            find_homotopy_equivalence(cfd0, doubled)
        assert str(err.value) == (
            "find_homotopy_equivalence: 1 of 15 candidates tried "
            "(4-vector homology basis, sums of up to 4); the next cone would "
            "pass BHFI_MAX_GENERATORS=4 generators in total")


def eager_search(P, Q):
    """The oracle for ``find_homotopy_equivalence``: the whole homology
    basis of the dense morphism complex first, then every sum of up to
    ``MAX_SUM_SIZE`` of its vectors in combination order."""
    stage = "find_homotopy_equivalence"
    mc = mor_complex_DD(P, Q)
    basis = dense_homology(mc.complex).cycles
    cap, cone_size = generator_cap(), len(P.generators) + len(Q.generators)
    tried = 0
    for size in range(1, MAX_SUM_SIZE + 1):
        for pick in itertools.combinations(range(len(basis)), size):
            if (tried + 1) * cone_size > cap:
                candidates = sum(math.comb(len(basis), k)
                                 for k in range(1, MAX_SUM_SIZE + 1))
                raise DivergenceError(
                    f"{stage}: {tried} of {candidates} candidates tried "
                    f"({len(basis)}-vector homology basis, sums of up to "
                    f"{MAX_SUM_SIZE}); the next cone would pass "
                    f"BHFI_MAX_GENERATORS={cap} generators in total")
            tried += 1
            mask = 0
            for i in pick:
                mask ^= basis[i]
            candidate = mc.morphism_of(mask)
            if candidate.cone_trace() is not None:
                return EquivalenceCertificate(candidate, pick)
    raise NotEquivalentError(
        f"{stage}: no acyclic cone among sums of up to {MAX_SUM_SIZE} of "
        f"the {len(basis)}-vector homology basis")


def direct_sum(A, B):
    a = A.relabeled({g: f"a{g}" for g in A.generators})
    b = B.relabeled({g: f"b{g}" for g in B.generators})
    return BorderedObject(A.out_alg, A.in_alg, a.generators + b.generators,
                          {**a.out_idem, **b.out_idem},
                          {**a.in_idem, **b.in_idem}, a.ops | b.ops)


def same_certificate(lazy, eager):
    return (lazy.forward.comps, lazy.search_index,
            lazy.forward.cone_trace()) == \
        (eager.forward.comps, eager.search_index, eager.forward.cone_trace())


def outcome(search, P, Q):
    """The certificate of a search, or the type and text of its error."""
    try:
        return search(P, Q)
    except (DivergenceError, NotEquivalentError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def rungs_and_g2(az1, cfd0, z2, cfd0_k2):
    """az^n x cfd0 against cfd0 for n = 1..3, and az x cfd0_k2 against
    cfd0_k2, in both directions."""
    rung, pairs = cfd0, []
    for _ in range(3):
        rung = box_tensor(az1, rung)
        pairs += [(rung, cfd0), (cfd0, rung)]
    twisted = box_tensor(cfda_az(z2), cfd0_k2)
    return pairs + [(twisted, cfd0_k2), (cfd0_k2, twisted)]


class TestLazySearch:
    """The walk that echelons one support block at a time returns what the
    walk over the whole dense basis returns."""

    @pytest.fixture(scope="class")
    def twisted(self, az1, cfd_inf):
        once = box_tensor(az1, cfd_inf)
        return once, box_tensor(az1, once)

    def test_certificates_match_the_eager_walk(self, twisted, rungs_and_g2,
                                               cfd0, cfd_inf):
        pairs = [(cfd_inf, twisted[0]), (twisted[0], cfd_inf),
                 (twisted[0], twisted[1]), (twisted[1], twisted[0])]
        pairs += [(P, Q) for P, Q in rungs_and_g2]
        pairs.append((direct_sum(cfd0, cfd_inf), direct_sum(cfd_inf, cfd0)))
        for P, Q in pairs:
            assert same_certificate(find_homotopy_equivalence(P, Q),
                                    eager_search(P, Q))

    def test_a_hit_in_block_one_echelons_no_later_block(
            self, monkeypatch, twisted):
        # Mor(az x cfd_inf, az x az x cfd_inf) has four blocks and its two
        # classes in block 1; the second is the equivalence.  Its grading
        # classes are blocks 0 and 3 and blocks 1 and 2, so block 1, the
        # first of the second class, is reached after block 0; each block
        # is recorded by its first index in the whole complex
        reached = []
        cycles = BlockDifferential.cycles

        def recording(self, c, b):
            reached.append((self, c, b))
            return cycles(self, c, b)

        monkeypatch.setattr(BlockDifferential, "cycles", recording)
        cert = find_homotopy_equivalence(*twisted)
        assert cert.search_index == (1,)
        [d] = {d for d, _, _ in reached}
        assert [d.classes[c][d.parts[c][1][b][0]]
                for _, c, b in reached] == [0, 2]
        # no class whose first index comes after the hit's block is built
        assert sorted(d.parts) == [
            c for c, members in enumerate(d.classes) if members[0] <= 2]
        assert same_certificate(cert, eager_search(*twisted))
        mc = mor_complex_DD(*twisted)
        assert len(mc.differential.blocks) == 4
        assert [len(z) for z in mc.differential.runs()] == [0, 2, 0, 0]

    def test_sums_of_two_see_the_whole_basis(self, cfd0, cfd_inf):
        # each summand's identity alone is no equivalence; their sum, the
        # classes 0 and 3 of six one-class blocks, is
        P = direct_sum(cfd0, cfd_inf)
        cert = find_homotopy_equivalence(P, P)
        assert cert.search_index == (0, 3)
        assert same_certificate(cert, eager_search(P, P))

    def test_errors_name_the_whole_basis(self, monkeypatch, cfd0, cfd_inf):
        P = direct_sum(cfd0, cfd_inf)
        # no equivalence: every sum fails
        lazy = outcome(find_homotopy_equivalence, cfd0, cfd_inf)
        assert lazy == outcome(eager_search, cfd0, cfd_inf)
        assert lazy[0] is NotEquivalentError
        # the cap stops the walk at the third singleton, in block 2 of 6
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "8")
        lazy = outcome(find_homotopy_equivalence, P, P)
        assert lazy == outcome(eager_search, P, P)
        assert lazy == (DivergenceError, (
            "find_homotopy_equivalence: 2 of 56 candidates tried "
            "(6-vector homology basis, sums of up to 4); the next cone "
            "would pass BHFI_MAX_GENERATORS=8 generators in total"))


def same_outcome(P, Q):
    """Whether the class-by-class search ends as ``eager_search`` does:
    with the same certificate, or the same error type and text."""
    lazy, eager = (outcome(find_homotopy_equivalence, P, Q),
                   outcome(eager_search, P, Q))
    if isinstance(lazy, EquivalenceCertificate) and \
            isinstance(eager, EquivalenceCertificate):
        return same_certificate(lazy, eager)
    return lazy == eager


@pytest.fixture(scope="module")
def graded_pairs(az1, cfd0, cfd_inf, cfd_m1, z2, cfd0_k2):
    """The genus-1 ladder az^n x cfd0 (n = 0..3), relabelled, against the
    three framed tori in both directions; cfd0_k2 against az x cfd0_k2,
    both ways."""
    rung, pairs = cfd0, []
    for n in range(4):
        P = shuffled(rung, n)
        pairs += [pair for torus in (cfd0, cfd_inf, cfd_m1)
                  for pair in ((P, torus), (torus, P))]
        rung = box_tensor(az1, rung)
    twisted = box_tensor(cfda_az(z2), cfd0_k2)
    return pairs + [(cfd0_k2, twisted), (twisted, cfd0_k2)]


class TestGradedSearch:
    """The search over a morphism complex built one grading class at a
    time returns the eager search's certificate, and raises its errors
    with their texts."""

    def test_ladder_tori_and_genus_2(self, graded_pairs):
        verdicts = Counter()
        for P, Q in graded_pairs:
            assert same_outcome(P, Q)
            verdicts[type(outcome(find_homotopy_equivalence, P, Q))] += 1
        # the rungs are cfd0 up to homotopy: 8 equivalences on the ladder
        # and 2 at genus 2; the other framings fail every sum
        assert verdicts == {EquivalenceCertificate: 10, tuple: 16}

    def test_hits_that_are_sums_of_two_classes(self, az1, cfd0, cfd_inf,
                                               cfd_m1):
        twisted = box_tensor(az1, cfd0)
        pairs = [(direct_sum(cfd0, cfd_inf), direct_sum(cfd0, cfd_inf)),
                 (direct_sum(cfd0, cfd_m1), direct_sum(cfd_m1, cfd0)),
                 (direct_sum(twisted, cfd_inf), direct_sum(cfd0, cfd_inf))]
        for P, Q in pairs:
            assert len(find_homotopy_equivalence(P, Q).search_index) == 2
            assert same_outcome(P, Q)

    def test_errors_under_lowered_caps(self, monkeypatch, az1, cfd0,
                                       cfd_inf, cfd_m1, cfd0_k2, z2):
        # each cap admits the whole basis, and stops the walk before the
        # first, second or fifth cone of |P| + |Q| generators unless the
        # basis count alone admits more
        pairs = [(direct_sum(cfd0, cfd_inf), direct_sum(cfd_inf, cfd0)),
                 (direct_sum(cfd0, cfd_m1), direct_sum(cfd_m1, cfd0)),
                 (cfd0, box_tensor(az1, box_tensor(az1, cfd_m1))),
                 (cfd0_k2, box_tensor(cfda_az(z2), cfd0_k2))]
        ends = []
        for P, Q in pairs:
            monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
            n = len(mor_complex_DD(P, Q).basis)
            cone = len(P.generators) + len(Q.generators)
            for tried in (0, 1, 4):
                monkeypatch.setenv("BHFI_MAX_GENERATORS",
                                   str(max(n, (tried + 1) * cone - 1)))
                assert same_outcome(P, Q)
                lazy = outcome(find_homotopy_equivalence, P, Q)
                ends.append(lazy[0].__name__ if isinstance(lazy, tuple)
                            else "certificate")
        # the direct sums need sums of two classes; the third pair has no
        # equivalence; the genus-2 hit is the first singleton
        assert ends == 6 * ["DivergenceError"] + \
            3 * ["NotEquivalentError"] + 3 * ["certificate"]

    def test_genus_2_search_builds_80_of_304_rows(self, monkeypatch, z2,
                                                  cfd0_k2):
        twisted = box_tensor(cfda_az(z2), cfd0_k2)
        built = []
        part = BlockDifferential.part

        def counting(self, c):
            if c not in self.parts:
                built.append(len(part(self, c)[0]))
            return part(self, c)

        monkeypatch.setattr(BlockDifferential, "part", counting)
        cert = find_homotopy_equivalence(cfd0_k2, twisted)
        assert built == [80]
        assert len(mor_complex_DD(cfd0_k2, twisted).basis) == 304
        assert same_certificate(cert, eager_search(cfd0_k2, twisted))


def load_relabel():
    """``relabel`` from the benchmark's workloads, which is not a package."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up here
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.relabel


def captured(run):
    """``captured_search_system``, with the package restored on return."""
    with pytest.MonkeyPatch.context() as mp:
        return captured_search_system(mp, run)


@pytest.fixture(scope="module")
def seed_1_bridge(z2, cfa2):
    """The bridge search of the relabelled genus-2 A side, seed 1: its
    ends, arity, linear system and row lists, captured before the
    kernel."""
    M = load_relabel()(cfa2, random.Random(1), "m")
    return captured(lambda eq: eq.find_structure_equivalence(
        box_tensor(M, cfda_azbar(z2)), M))


def cone_verdicts(S, T, cycles):
    """For each cycle S -> T: (unit-part verdict, whether its cone
    cancels to nothing)."""
    may_cancel = _unit_part(S, T)
    return [(may_cancel(f), f.cone_trace() is not None) for f in cycles]


def kernel_cycles(ends, system):
    """The morphisms of a bounded search's kernel vectors."""
    A, B, arity = ends
    unknowns = search_unknowns(A, B, arity)
    return [Morphism(A, B, {unknowns[j] for j in _bits(v)})
            for v in F2Matrix(*system).nullspace_basis()]


class TestUnitPart:
    """The rank test on a candidate's unit part decides, without reducing
    it, whether the candidate's cone cancels to nothing."""

    def test_morphism_classes(self, az1, cfd0, cfd_inf, cfd_m1,
                              rungs_and_g2):
        # singletons and pairs of the homology classes of Mor between
        # az^n x cfd0 (n <= 3) and the framed tori, and between az x
        # cfd0_k2 and cfd0_k2
        rung, pairs = cfd0, list(rungs_and_g2[-2:])
        for _ in range(4):
            pairs += [(P, Q) for torus in (cfd0, cfd_inf, cfd_m1)
                      for P, Q in ((rung, torus), (torus, rung))]
            rung = box_tensor(az1, rung)
        verdicts = []
        for P, Q in pairs:
            mc = mor_complex_DD(P, Q)
            basis = mc.homology().cycles
            sums = [*basis, *(u ^ v for u, v in
                              itertools.combinations(basis, 2))]
            verdicts += cone_verdicts(P, Q, map(mc.morphism_of, sums))
        assert all(test == reduced for test, reduced in verdicts)
        assert Counter(reduced for _, reduced in verdicts) == \
            {True: 24, False: 36}

    @pytest.mark.parametrize("left, size, hits", [
        ("azbar", 60, 0), ("az", 61, 1)])
    def test_genus_1_kernels(self, z1, az1, azbar1, left, size, hits):
        # the kernels of identity_da -> azbar x az and -> az x azbar
        pieces = (azbar1, az1) if left == "azbar" else (az1, azbar1)
        ends, system, _ = captured(lambda eq: eq.search_small_equivalence(
            identity_da(z1), box_tensor(*pieces)))
        verdicts = cone_verdicts(*ends[:2], kernel_cycles(ends, system))
        assert len(verdicts) == size
        assert all(test == reduced for test, reduced in verdicts)
        assert sum(reduced for _, reduced in verdicts) == hits

    def test_relabelled_genus_2_bridge(self, seed_1_bridge):
        ends, system, _ = seed_1_bridge
        verdicts = cone_verdicts(*ends[:2], kernel_cycles(ends, system))
        assert len(verdicts) == 736
        assert all(test == reduced for test, reduced in verdicts)
        assert sum(reduced for _, reduced in verdicts) == 5

    def test_bridge_columns_match_summed_shifts(self, seed_1_bridge):
        (A, B, arity), system, _ = seed_1_bridge
        assert system == summed_search_columns(A, B, arity)


@pytest.mark.parametrize("left", ["azbar", "az", "seed 1"])
def test_split_search_kernel_is_the_dense_one(request, z1, az1, azbar1,
                                              cfd0, z2, cfd0_k2, left):
    # the genus-1 search systems fall into 100 and 115 components
    if left == "seed 1":
        (A, B, _), system, rows = request.getfixturevalue("seed_1_bridge")
    else:
        pieces = (azbar1, az1) if left == "azbar" else (az1, azbar1)
        (A, B, _), system, rows = captured(
            lambda eq: eq.search_small_equivalence(identity_da(z1),
                                                   box_tensor(*pieces)))
    assert rows_nullspace(rows) == F2Matrix(*system).nullspace_basis()
    # the search lists the reference components at every arity, and so
    # does one Mor complex, D or DD, at arity 1
    for arity in (1, 2, 3):
        assert _elementary_components("search", A, B, arity) == \
            search_unknowns(A, B, arity)
    P, Q = {"azbar": (box_tensor(az1, cfd0), cfd0),
            "az": (dd_identity(z1),) * 2,
            "seed 1": (box_tensor(cfda_az(z2), cfd0_k2), cfd0_k2)}[left]
    assert list(mor_complex_DD(P, Q).basis) == search_unknowns(P, Q, 1)


class TestListingOrder:
    """``_elementary_components`` lists in ``op_sort_key`` order without a
    sort: it equals the sorted reference listing for every kind of caller,
    and builds no sort key."""

    @pytest.fixture(scope="class")
    def type_d_pairs(self, az1, cfd0, cfd_inf, cfd_m1, z2, cfd0_k2):
        # shuffled labels s0, s1, ..., s10, ... sort as strings, "s10"
        # before "s2", on the ladder rungs (3, 13 and 55 generators)
        pairs, rung = [], cfd0
        for n in range(3):
            rung = box_tensor(az1, rung)
            relabelled = shuffled(rung, n)
            for torus in (cfd0, cfd_inf, cfd_m1):
                pairs += [(relabelled, torus), (torus, relabelled)]
        twisted = shuffled(box_tensor(cfda_az(z2), cfd0_k2), 5)
        pairs += [(twisted, cfd0_k2), (cfd0_k2, twisted)]
        P = cfd_zero_handlebody(3)
        az = cfda_az(split_pmc(3), P.out_idem.values(), {o[2] for o in P.ops})
        twisted = shuffled(box_tensor(az, P), 7)
        return pairs + [(twisted, P), (P, twisted)]

    def test_type_d_pairs_at_genus_1_to_3(self, type_d_pairs):
        sizes = []
        for P, Q in type_d_pairs:
            listed = _elementary_components("test", P, Q)
            assert listed == search_unknowns(P, Q, 1)
            sizes.append(len(listed))
        assert max(sizes) == 21632

    def test_dd_pairs_over_the_tensor_algebra(self, z1, z2):
        for circle in (z1, z2):
            D = dd_identity(circle)
            for P, Q in ((D, shuffled(D, 3)), (shuffled(D, 4), D)):
                listed = _elementary_components("test", P, Q)
                assert listed == search_unknowns(P, Q, 1)
                assert list(mor_complex_DD(P, Q).basis) == listed
        assert len(listed) == 3494

    @pytest.mark.parametrize("seed", [1, 11, 38])
    def test_bridge_systems_of_the_relabelled_a_side(self, monkeypatch, z2,
                                                     cfa2, seed):
        import bhfi.typea as typea
        ends = []

        def search(A, B, max_arity=2):
            ends.append((A, B))
            raise _Captured
        monkeypatch.setattr(typea, "search_small_equivalence", search)
        M = load_relabel()(cfa2, random.Random(seed), "m")
        with pytest.raises(_Captured):
            find_structure_equivalence(box_tensor(M, cfda_azbar(z2)), M)
        A, B = ends[0]
        sizes = []
        for arity in (1, 2, 3):
            listed = _elementary_components("test", A, B, arity)
            assert listed == search_unknowns(A, B, arity)
            sizes.append(len(listed))
        assert sizes == ([69, 1481, 24630] if seed == 38
                         else [25, 877, 16278])

    def test_no_sort_key_is_built(self, monkeypatch, seed_1_bridge,
                                  type_d_pairs):
        calls = []
        real = BorderedObject.op_sort_key
        monkeypatch.setattr(BorderedObject, "op_sort_key",
                            lambda S, op: calls.append(op) or real(S, op))
        (A, B, _), _, _ = seed_1_bridge
        for arity in (1, 2, 3):
            _elementary_components("test", A, B, arity)
        for P, Q in type_d_pairs:
            _elementary_components("test", P, Q)
        assert calls == []


class TestConeReductions:
    """A search reduces the cone of a candidate only when its unit part
    is acyclic."""

    @pytest.fixture
    def reduced(self, monkeypatch):
        calls = []
        real = morphisms.contraction_trace
        monkeypatch.setattr(morphisms, "contraction_trace",
                            lambda S: calls.append(S) or real(S))
        return calls

    def test_involution_reduces_the_two_hits(self, reduced, cfd0_k2):
        iota_on_mor(cfd0_k2, cfd0_k2)
        assert len(reduced) == 2

    def test_only_walked_candidates_pass_the_alias(self, monkeypatch,
                                                   cfa2, cfd0_k2):
        # the composite that find_structure_equivalence certifies is no
        # candidate: the A side's models match on the nose, so it walks none
        from bhfi import equivalence
        from bhfi.typea import standard_involutive_a
        calls = []
        real = equivalence._acyclic_cone_trace
        monkeypatch.setattr(equivalence, "_acyclic_cone_trace",
                            lambda f: calls.append(f) or real(f))
        standard_involutive_a(cfa2)
        assert calls == []
        iota_on_mor(cfd0_k2, cfd0_k2)
        assert len(calls) == 2

    def test_failed_search_reduces_no_cone(self, reduced, cfd0, doubled):
        with pytest.raises(NotEquivalentError):
            find_homotopy_equivalence(cfd0, doubled)
        assert reduced == []


def product_walk(A, B):
    """The walk that ``find_isomorphism`` replaced, kept as its oracle:
    every product of the buckets' permutations, in order, each checked
    whole."""
    if len(A.generators) != len(B.generators):
        return None

    def bucket(S):
        out = {}
        for g in S.generators:
            key = (S.out_alg.idem_sort_key(S.out_idem[g]),
                   S.in_alg.idem_sort_key(S.in_idem[g]))
            out.setdefault(key, []).append(g)
        return out

    ba, bb = bucket(A), bucket(B)
    if set(ba) != set(bb) or any(len(ba[k]) != len(bb[k]) for k in ba):
        return None
    keys = sorted(ba)
    pools = [list(itertools.permutations(bb[k])) for k in keys]
    for assignment in itertools.product(*pools):
        mapping = {}
        for k, perm in zip(keys, assignment):
            mapping.update(dict(zip(ba[k], perm)))
        relabeled = frozenset((mapping[s], ins, out, mapping[t])
                              for s, ins, out, t in A.ops)
        if relabeled == B.ops:
            return mapping
    return None


def reduced_pair(M):
    """The reduced models that ``find_structure_equivalence(M x azbar, M)``
    matches."""
    twisted = box_tensor(M, cfda_azbar(M.in_alg.circle))
    return (reduce_structure(twisted, track_to=True).reduced,
            reduce_structure(M, track_from=True).reduced)


def rewired(S):
    """S with the target of its first operation that has one moved to
    another generator of the same idempotents: as many operations, and in
    these cases no isomorphism to S."""
    def mates(g):
        return [h for h in S.generators if h != g and
                (S.out_idem[h], S.in_idem[h]) == (S.out_idem[g],
                                                  S.in_idem[g])]

    op = next(op for op in sorted(S.ops, key=S.op_sort_key) if mates(op[3]))
    ops = S.ops - {op} | {op[:3] + (mates(op[3])[0],)}
    return BorderedObject(S.out_alg, S.in_alg, S.generators, S.out_idem,
                          S.in_idem, ops)


class TestFindIsomorphism:
    """The backtracking search returns the product walk's mapping: the
    first valid assignment in the same order, or None."""

    @pytest.fixture(scope="class")
    def pairs(self, cfa1, cfa2):
        from test_triangle import disjoint_copies
        relabel = load_relabel()
        out = {f"{n} copies of cfa0_k1":
               reduced_pair(disjoint_copies(cfa1, n)) for n in range(1, 5)}
        out["cfa0_k2"] = reduced_pair(cfa2)
        for seed in (2, 3, 4, 7, 8, 9, 10, 12, 13):
            M = relabel(cfa2, random.Random(seed), "m")
            out[f"cfa0_k2 relabelled, seed {seed}"] = reduced_pair(M)
        return out

    def test_matches_the_product_walk(self, pairs):
        found = {name: find_isomorphism(A, B) for name, (A, B) in
                 pairs.items()}
        for name, (A, B) in pairs.items():
            assert found[name] == product_walk(A, B), name
        # seeds 2, 3 and 10 reduce to models with no isomorphism
        assert {name for name, mapping in found.items()
                if mapping is None} == {
            f"cfa0_k2 relabelled, seed {seed}" for seed in (2, 3, 10)}

    @pytest.mark.parametrize("name", ["2 copies of cfa0_k1",
                                      "3 copies of cfa0_k1", "cfa0_k2"])
    def test_rewired_model_has_none(self, pairs, name):
        A, B = pairs[name]
        B = rewired(B)
        assert len(B.ops) == len(A.ops)
        assert find_isomorphism(A, B) is None
        assert product_walk(A, B) is None


class TestCertificateChecksItsCone:
    def test_zero_morphism_refused(self, cfd0):
        with pytest.raises(NotEquivalentError, match="does not cancel"):
            EquivalenceCertificate(Morphism(cfd0, cfd0), ())

    def test_trace_is_the_forward_maps_own(self, cfd0):
        cert = EquivalenceCertificate(identity_morphism(cfd0), ())
        assert cert.to_json()["cone_trace"] == \
            [list(pair) for pair in cert.forward.cone_trace()]


class TestCertificateSerialization:
    def test_round_trippable_record(self, cfd0, az1):
        import json
        twisted = box_tensor(az1, cfd0)
        cert = find_homotopy_equivalence(twisted, cfd0)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        data = json.loads(blob)
        assert data["search_index"] == list(cert.search_index)
        assert len(data["components"]) == len(cert.forward.comps)
        assert data["cone_trace"]

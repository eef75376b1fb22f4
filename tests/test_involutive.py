import hashlib
import sys

import pytest

from bhfi import involutive, typea
from bhfi import (F2Matrix, box_tensor, cfd_solid_torus, cfi_hat,
                  dd_identity, find_homotopy_equivalence,
                  find_structure_equivalence, homology, identity_da,
                  involutive_pair, iota_on_mor, mcg_action, mor_complex_DD,
                  standard_involutive_a, standard_involutive_d)
from bhfi.errors import RelationViolation
from bhfi.files import structure_from_json
from bhfi.involutive import InvolutiveTypeD, IotaReport, _iota_pipeline
from bhfi.morphisms import (Morphism, contraction_trace,
                            morphism_from_generator_map)
from bhfi.pairing import box_morphism_right_comps
from bhfi.pieces import cfda_az
from bhfi.standard import builtin_structure
from bhfi.structures import BorderedObject
from bhfi.typea import (InvolutiveAInf, box_morphism_left_comps, cfda_azbar,
                        conjugation, paired_insertion)


class TestIotaOnMor:
    def test_two_sphere_times_circle(self, cfd0):
        rep = iota_on_mor(cfd0, cfd0)
        assert rep.hf_dim == 2
        assert rep.iota_matrix.cols == F2Matrix.identity(2).cols
        assert rep.ker_dim == 2
        assert rep.hfi_dim == 4

    def test_one_dimensional_pairing(self, cfd_inf, cfd0):
        rep = iota_on_mor(cfd_inf, cfd0)
        assert rep.hf_dim == 1
        assert rep.iota_matrix.cols == (1,)
        assert rep.hfi_dim == 2

    def test_involution_squares_to_identity(self, cfd0, cfd_m1, cfd_inf):
        for P0 in (cfd0, cfd_inf):
            for P1 in (cfd0, cfd_m1):
                rep = iota_on_mor(P0, P1)
                sq = rep.iota_matrix * rep.iota_matrix
                assert sq.cols == F2Matrix.identity(rep.hf_dim).cols

    def test_genus_2_run(self, cfd0_k2):
        rep = iota_on_mor(cfd0_k2, cfd0_k2)
        assert rep.hf_dim == 4
        sq = rep.iota_matrix * rep.iota_matrix
        assert sq.cols == F2Matrix.identity(4).cols
        assert rep.hfi_dim == 2 * rep.ker_dim

    def test_consistency_rule(self, cfd0, cfd_inf, cfd_m1):
        for P0 in (cfd0, cfd_inf, cfd_m1):
            for P1 in (cfd0, cfd_inf, cfd_m1):
                rep = iota_on_mor(P0, P1)
                assert rep.hfi_dim == 2 * rep.ker_dim
                assert rep.hfi_dim >= rep.hf_dim or rep.hf_dim == 0

    def test_determinism(self, cfd0):
        a = iota_on_mor(cfd0, cfd0).to_json()
        b = iota_on_mor(cfd0, cfd0).to_json()
        assert a == b

    def test_q_action_shape(self, cfd0):
        rep = iota_on_mor(cfd0, cfd0)
        q = rep.q_action
        assert (q * q).is_zero()
        assert q.rank() == rep.ker_dim


class TestIotaReportCount:
    """The report checks hfi = ker + coker, where coker = ker since
    1 + iota is square."""

    @staticmethod
    def report(hfi_dim):
        return IotaReport(hf_dim=2, iota_matrix=F2Matrix.identity(2),
                          ker_dim=2, hfi_dim=hfi_dim,
                          q_action=F2Matrix.zero(hfi_dim, hfi_dim))

    def test_count_checked(self):
        assert self.report(4).hfi_dim == 4
        for hfi_dim in (2, 3, 5):
            with pytest.raises(RelationViolation,
                               match="kernel/cokernel count"):
                self.report(hfi_dim)


class TestCfiHat:
    def test_cone_matches_report(self, cfd0, cfd_inf):
        for P0, P1 in ((cfd0, cfd0), (cfd_inf, cfd0)):
            rep = iota_on_mor(P0, P1)
            cone = cfi_hat(P0, P1)
            assert homology(cone).dimension == rep.hfi_dim
            q = cone.q
            assert (q * q).is_zero()


class TestNonCycleConjugation:
    """A conjugated image that is not a cycle fails the one check both
    routes share: the involutive cone's own d² = 0, whose lower-left block
    is the chain-map identity of incl + conj."""

    def test_both_routes_fail_at_the_cone(self, cfd_m1, monkeypatch):
        cx, hom, images = _iota_pipeline(cfd_m1, cfd_m1)
        j = next(j for j in range(cx.dim) if cx.d.cols[j])
        broken = (cx, hom, [images[0] ^ 1 << j] + images[1:])
        monkeypatch.setattr(involutive, "_iota_pipeline",
                            lambda P0, P1: broken)
        for route in (iota_on_mor, cfi_hat):
            with pytest.raises(ValueError, match="^differential does not "
                               "square to zero$") as err:
                route(cfd_m1, cfd_m1)
            assert "_involutive_cone" in [e.name for e in err.traceback]


class TestInvolutivePair:
    def test_standard_genus_1(self, cfa1, cfd0):
        A = standard_involutive_a(cfa1)
        D = standard_involutive_d(cfd0)
        cx = involutive_pair(A, D)
        assert homology(cx).dimension == 4
        assert (cx.q * cx.q).is_zero()

    def test_route_equality_genus_1(self, cfa1, cfd0):
        A = standard_involutive_a(cfa1)
        D = standard_involutive_d(cfd0)
        assert homology(involutive_pair(A, D)).dimension == \
            iota_on_mor(cfd0, cfd0).hfi_dim

    def test_route_equality_all_genus_1_pairings(self, cfa1, cfd0, cfd_inf,
                                                 cfd_m1):
        A = standard_involutive_a(cfa1)
        for P in (cfd_inf, cfd_m1, cfd0):
            D = standard_involutive_d(P)
            assert homology(involutive_pair(A, D)).dimension == \
                iota_on_mor(cfd0, P).hfi_dim

    def test_route_equality_genus_2(self, cfa2, cfd0_k2):
        A = standard_involutive_a(cfa2)
        D = standard_involutive_d(cfd0_k2)
        cx = involutive_pair(A, D)
        rep = iota_on_mor(cfd0_k2, cfd0_k2)
        assert homology(cx).dimension == rep.hfi_dim == 8

    def test_invariance_under_equivalent_psi(self, cfa1, cfd0, az1):
        # post-compose the type D half with an identity-class automorphism
        A = standard_involutive_a(cfa1)
        D = standard_involutive_d(cfd0)
        auto = find_homotopy_equivalence(cfd0, cfd0).forward
        D2 = InvolutiveTypeD(cfd0, D.psi.then(auto))
        assert homology(involutive_pair(A, D2)).dimension == \
            homology(involutive_pair(A, D)).dimension


def d_file_structure(z1, labels, ops=()):
    """A type D structure over the genus-1 split circle whose generators
    all sit at pair 1, with an operation of coefficient the horizontal
    strand of pair 1 (the idempotent) from src to dst for each of ``ops``,
    read from its JSON payload as a file would be."""
    return structure_from_json({
        "kind": "D", "circle": z1.to_json(),
        "generators": [{"label": g, "idem": [1]} for g in labels],
        "ops": [{"src": s, "inputs": [], "dst": t,
                 "out": [{"moving": [], "horizontal": [1]}]}
                for s, t in ops]})


class TestContractibleStructure:
    """With no homology the zero morphism is the only class, and its cone
    certifies it when both ends are contractible."""

    def test_zero_morphism_is_the_certified_equivalence(self, z1, az1):
        for P in (d_file_structure(z1, "xy", [("x", "y")]),
                  d_file_structure(z1, "")):
            cert = find_homotopy_equivalence(box_tensor(az1, P), P)
            assert cert.search_index == () and not cert.forward.comps

    def test_both_routes_agree(self, z1, cfa1, cfd0):
        P = d_file_structure(z1, "xy", [("x", "y")])
        cx = involutive_pair(standard_involutive_a(cfa1),
                             standard_involutive_d(P))
        assert homology(cx).dimension == iota_on_mor(cfd0, P).hfi_dim == 0


class TestMcgAction:
    def test_identity_bimodule_acts_by_identity(self, cfa1, cfd0, z1):
        ident = identity_da(z1)
        mat = mcg_action(cfa1, cfd0, ident, ident)
        assert mat.cols == F2Matrix.identity(2).cols

    def test_composite_bimodule_acts_by_identity(self, cfa1, cfd0, z1, az1,
                                                 azbar1):
        # the reversed-then-standard interpolating composite is equivalent
        # to the identity, so its action on homology is trivial
        composite = box_tensor(azbar1, az1)
        back = box_tensor(az1, azbar1)
        mat = mcg_action(cfa1, cfd0, composite, back)
        assert mat.cols == F2Matrix.identity(2).cols

    def test_genus_1_functoriality_square(self, cfa1, cfd0, z1):
        ident = identity_da(z1)
        mat = mcg_action(cfa1, cfd0, ident, ident)
        assert (mat * mat).cols == mat.cols


class TestPairedInsertion:
    """Every pipeline inserts Id ~ L x R after pairing with P, starting at
    P.  The bimodule-level insertion it replaced, the equivalence
    Id -> L x R tensored with P, is kept here as the oracle, precomposed
    with the canonical isomorphism P -> Id x P."""

    # the reversed labels sort against the idempotents, so Mor(P, X) and
    # Mor(Id x P, X) order their bases differently
    @pytest.mark.parametrize("framing, labels", [
        ("infinity", None), ("minus_one", None), ("zero", None),
        ("minus_one", {"a": "z", "b": "y"})],
        ids=["infinity", "minus_one", "zero", "minus_one_reversed"])
    @pytest.mark.parametrize("order", ["azbar,az", "az,azbar"])
    def test_homotopic_to_bimodule_insertion(self, framing, labels, order,
                                             z1, az1, azbar1):
        P = cfd_solid_torus(framing)
        if labels:
            P = P.relabeled(labels)
        L, R = (azbar1, az1) if order == "azbar,az" else (az1, azbar1)
        paired = paired_insertion(L, R, P)
        assert contraction_trace(paired.cone()) is not None
        old = find_structure_equivalence(identity_da(z1), box_tensor(L, R))
        alg = P.out_alg
        iso = morphism_from_generator_map(P, box_tensor(identity_da(z1), P), {
            p: f"e_{alg.label_of(alg.idem_element(P.out_idem[p]))}|{p}"
            for p in P.generators})
        assert iso.is_cycle()
        f = old.forward
        left = Morphism(box_tensor(f.source, P), box_tensor(f.target, P),
                        box_morphism_left_comps(f, P))
        diff = paired + iso.then(left)
        mc = mor_complex_DD(diff.source, diff.target)
        vec = mc.vector_of(diff)
        assert vec == 0 or mc.complex.d.solve(vec) is not None

    def test_starts_at_p(self, az1, azbar1, cfd0):
        assert paired_insertion(azbar1, az1, cfd0).source is cfd0

    def test_every_pipeline_inserts_through_it(self, monkeypatch, cfa1,
                                               cfd0, az1, azbar1):
        # every pipeline reaches the insertion through ``conjugation``
        import bhfi.triangle
        framings = []

        def counted(L, R, P):
            framings.append(P)
            return paired_insertion(L, R, P)

        monkeypatch.setattr(typea, "paired_insertion", counted)
        mcg_action(cfa1, cfd0, az1, azbar1)
        involutive_pair(standard_involutive_a(cfa1),
                        standard_involutive_d(cfd0))
        bhfi.triangle.verify_hfi_triangle(cfa1)
        assert len(framings) == 5

    @pytest.mark.parametrize("framing", ["infinity", "minus_one", "zero"])
    @pytest.mark.parametrize("order", ["azbar,az", "az,azbar"])
    def test_target_reassociates_at_genus_1(self, framing, order, az1,
                                            azbar1):
        L, R = (azbar1, az1) if order == "azbar,az" else (az1, azbar1)
        self._check_reassociation(L, R, cfd_solid_torus(framing))

    def test_target_reassociates_at_genus_2(self, z2, cfd0_k2):
        self._check_reassociation(cfda_azbar(z2), cfda_az(z2), cfd0_k2)

    @staticmethod
    def _check_reassociation(L, R, P):
        # the insertion pairs L x (R x P); the bimodule-first (L x R) x P
        # is the same structure
        left_first = box_tensor(box_tensor(L, R), P)
        right_first = box_tensor(L, box_tensor(R, P))
        assert right_first.generators == left_first.generators
        assert right_first.ops == left_first.ops
        assert right_first == left_first

    def test_genus_2_mapping_class_acts_by_identity(self):
        mat = mcg_action(*map(builtin_structure, (
            "cfa0_k2", "cfd0_k2", "az_k2", "azbar_k2")))
        assert mat.cols == F2Matrix.identity(4).cols


class TestInvolutiveWrappers:
    def test_psi_that_lands_elsewhere_rejected(self, cfa1, cfd0, cfd_inf):
        with pytest.raises(ValueError, match="^psi must land in the "
                                             "underlying structure$"):
            InvolutiveTypeD(cfd_inf, standard_involutive_d(cfd0).psi)
        other = cfa1.relabeled({g: f"g_{g}" for g in cfa1.generators})
        with pytest.raises(ValueError, match="^psi must land in the "
                                             "underlying module$"):
            InvolutiveAInf(other, standard_involutive_a(cfa1).psi)

    def test_non_cycle_rejected(self, cfd0):
        # psi without one of its components still lands in cfd0
        psi = standard_involutive_d(cfd0).psi
        for comp in psi.comps:
            with pytest.raises(RelationViolation,
                               match="^psi is not a morphism cycle$"):
                InvolutiveTypeD(cfd0, Morphism(psi.source, psi.target,
                                               psi.comps - {comp}))

    def test_non_equivalence_rejected(self, cfa1, cfd0, az1):
        from bhfi import RelationViolation
        twisted = box_tensor(az1, cfd0)
        import pytest
        with pytest.raises(RelationViolation):
            InvolutiveTypeD(cfd0, Morphism(twisted, cfd0))

    def test_functoriality_square(self, cfa1, cfd0, z1, az1, azbar1):
        # the action of a square is the square of the action, exercised on
        # the quasi-invertible pair built from the interpolating pieces
        single = mcg_action(cfa1, cfd0, az1, azbar1)
        chi2 = box_tensor(az1, az1)
        chi2_inv = box_tensor(azbar1, azbar1)
        double = mcg_action(cfa1, cfd0, chi2, chi2_inv)
        assert double.cols == (single * single).cols


def patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` in every ``bhfi`` namespace that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "bhfi" or name.startswith("bhfi."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


class TestPairOnceCertifyOnce:
    def test_iota_on_mor_pairs_az_twice(self, monkeypatch, z2, cfd0_k2):
        P0 = cfd0_k2.relabeled({g: f"p{g}" for g in cfd0_k2.generators})
        P1 = cfd0_k2.relabeled({g: f"q{g}" for g in cfd0_k2.generators})
        # the piece cut to P0's and P1's idempotents, which the pipeline
        # pairs, has the whole piece's generators over them
        kept = _kept(cfda_az(z2), _outs(P0, P1))
        real, paired = box_tensor, []

        def counted(B1, B2):
            if B1.generators == kept:
                paired.append((B1, B2))
            return real(B1, B2)

        patch_everywhere(monkeypatch, real, counted)
        rep = iota_on_mor(P0, P1)
        assert rep.hf_dim == 4
        assert len(paired) == 2
        (az, first), (again, second) = paired
        assert az is again and first is P0 and second is P1

    def test_involutive_pair_builds_each_pairing_once(self, monkeypatch,
                                                       cfa1, cfd0):
        A, D = standard_involutive_a(cfa1), standard_involutive_d(cfd0)
        real, pairs = box_tensor, []

        def counted(B1, B2):
            pairs.append((B1, B2))
            return real(B1, B2)

        patch_everywhere(monkeypatch, real, counted)
        involutive_pair(A, D)
        # each structure hashes and compares by value, so no operand pair
        # is built twice, not even as a copy
        assert len(pairs) == len(set(pairs)) == 6

    @pytest.mark.parametrize("build, name", [
        (standard_involutive_a, "cfa0_k1"), (standard_involutive_d, "cfd0")])
    def test_psi_cone_reduced_once(self, monkeypatch, build, name):
        real, reduced = contraction_trace, []

        def counted(S):
            reduced.append(S.ops)
            return real(S)

        patch_everywhere(monkeypatch, real, counted)
        inv = build(builtin_structure(name))
        # a cone with inputs is reduced as its pairing with the DD identity
        cone = inv.psi.cone()
        if not cone.in_alg.is_trivial:
            cone = typea.box_tensor_DD_side(cone,
                                            dd_identity(cone.in_alg.circle))
        assert reduced.count(cone.ops) == 1

    def test_a_refused_certificate_stays_refused(self, cfa1, cfd0, az1,
                                                 azbar1):
        from bhfi import RelationViolation
        psi_d = Morphism(box_tensor(az1, cfd0), cfd0)
        psi_a = Morphism(box_tensor(cfa1, azbar1), cfa1)
        for _ in range(2):      # the second time reads the kept trace
            with pytest.raises(RelationViolation, match="cone does not"):
                InvolutiveTypeD(cfd0, psi_d)
            with pytest.raises(RelationViolation, match="cone does not"):
                InvolutiveAInf(cfa1, psi_a)


def _outs(*structures):
    return {i for P in structures for i in P.out_idem.values()}


def _kept(whole, idems):
    """The whole piece's generators whose input idempotent is in ``idems``,
    in its order: the generators of az cut to ``idems``."""
    return tuple(g for g in whole.generators if whole.in_idem[g] in idems)


class TestCutPiecePairsAsTheWhole:
    """Each caller pairs az cut to its type D structures' idempotents and
    letters; every pairing with az and every Id_az x f it builds equals the
    one the whole piece gives, generators in order and operation for
    operation."""

    @pytest.mark.parametrize("run, names", [
        ("iota", ("cfd0", "cfd0")), ("iota", ("cfd_inf", "cfd0")),
        ("iota", ("cfd0", "cfd_m1")), ("iota", ("cfd_m1", "cfd_inf")),
        ("iota", ("cfd0_k2", "cfd0_k2")),
        ("d", ("cfd0",)), ("d", ("cfd_m1",)), ("d", ("cfd0_k2",)),
        ("pair", ("cfa0_k1", "cfd_inf")), ("pair", ("cfa0_k2", "cfd0_k2"))])
    def test_pairings_match_the_whole_piece(self, monkeypatch, run, names):
        args = [builtin_structure(n) for n in names]
        if run == "iota":
            call, idems = lambda: _iota_pipeline(*args), _outs(*args)
        elif run == "d":
            call, idems = lambda: standard_involutive_d(*args), _outs(*args)
        else:
            A, D = standard_involutive_a(args[0]), standard_involutive_d(
                args[1])
            call, idems = lambda: involutive_pair(A, D), _outs(args[1])
        circle = args[-1].out_alg.circle
        whole = cfda_az(circle)
        kept = _kept(whole, idems)
        pair, comps, seen = box_tensor, box_morphism_right_comps, []

        def recorded(real):
            def wrapped(B, X):
                out = real(B, X)
                if B.generators == kept:
                    seen.append((real, B, X, out))
                return out
            return wrapped

        patch_everywhere(monkeypatch, pair, recorded(pair))
        patch_everywhere(monkeypatch, comps, recorded(comps))
        call()
        assert seen
        for real, B, X, out in seen:
            # a structure equals another only with its generators in order
            assert B.ops <= whole.ops and out == real(whole, X)


class TestConjugationComposite:
    """The conjugation composes three morphisms: the insertion starts at
    P, so no relabeling leads into it, and the regrouped pairing is step
    1's target itself, checked strictly, so no identity re-points it."""

    @staticmethod
    def halves(monkeypatch, cfa1, cfd0, z1):
        """The two psi maps; the insertion is found here, once, so that
        the compositions counted are the conjugation's own."""
        omega = paired_insertion(cfda_azbar(z1), cfda_az(z1), cfd0)
        monkeypatch.setattr(typea, "paired_insertion",
                            lambda L, R, P: omega)
        return (standard_involutive_d(cfd0).psi,
                standard_involutive_a(cfa1).psi)

    def test_three_compositions(self, monkeypatch, cfa1, cfd0, z1):
        psi_d, psi_a = self.halves(monkeypatch, cfa1, cfd0, z1)
        real, composed = Morphism.then, []

        def counted(f, g):
            composed.append(g)
            return real(f, g)

        monkeypatch.setattr(Morphism, "then", counted)
        pair, cx, conj = conjugation(cfa1, cfd0, cfda_azbar(z1),
                                     cfda_az(z1), psi_d, psi_a)
        assert len(composed) == 2
        assert pair == box_tensor(cfa1, cfd0)
        assert cx.generators == pair.generators
        assert conj.nrows == conj.ncols == cx.dim

    def test_reordered_regrouping_refused(self, monkeypatch, cfa1, cfd0,
                                          z1):
        psi_d, psi_a = self.halves(monkeypatch, cfa1, cfd0, z1)
        S = psi_d.source            # az x P, its generators reversed
        flipped = BorderedObject(S.out_alg, S.in_alg, S.generators[::-1],
                                 S.out_idem, S.in_idem, S.ops)
        theta_p = Morphism(flipped, psi_d.target, psi_d.comps)
        with pytest.raises(RelationViolation,
                           match="^then: the middle structures differ$"):
            conjugation(cfa1, cfd0, cfda_azbar(z1), cfda_az(z1), theta_p,
                        psi_a)


def count_builds(monkeypatch, run):
    """Run ``run`` and return how many box tensors and compositions it
    builds; a DD-side pairing, which pairs without a ``box_tensor`` call,
    counts under its own key once it is built.  An identity bimodule
    built on the way fails the run."""
    counts = {"box_tensor": 0, "then": 0}
    real_box, real_then = box_tensor, Morphism.then
    real_dd = typea.box_tensor_DD_side

    def box(B1, B2):
        counts["box_tensor"] += 1
        return real_box(B1, B2)

    def dd_side(B, X):
        counts["box_tensor_DD_side"] = counts.get("box_tensor_DD_side", 0) + 1
        return real_dd(B, X)

    def then(f, g):
        counts["then"] += 1
        return real_then(f, g)

    def no_identity(circle):
        raise AssertionError("a pipeline built the identity bimodule")

    patch_everywhere(monkeypatch, real_box, box)
    patch_everywhere(monkeypatch, real_dd, dd_side)
    patch_everywhere(monkeypatch, identity_da, no_identity)
    monkeypatch.setattr(Morphism, "then", then)
    run()
    return counts


class TestPipelineBuilds:
    """The pipelines pair and compose a pinned number of times and never
    build the identity bimodule: the inserted equivalence starts at P."""

    def test_mcg_action(self, monkeypatch, cfa1, cfd0, az1, azbar1):
        assert count_builds(monkeypatch, lambda: mcg_action(
            cfa1, cfd0, az1, azbar1)) == \
            {"box_tensor": 8, "box_tensor_DD_side": 2, "then": 5}

    def test_involutive_pair(self, monkeypatch, cfa1, cfd0):
        A, D = standard_involutive_a(cfa1), standard_involutive_d(cfd0)
        assert count_builds(monkeypatch, lambda: involutive_pair(A, D)) == \
            {"box_tensor": 6, "then": 3}


class TestPipelineInvariance:
    def test_report_invariant_under_change_of_basis(self, cfd0, z1):
        # replace one side by an isomorphic twist; every search then runs
        # on non-standard (but equivalent) input data
        import random
        from test_acceptance import _try_transvection
        from bhfi import algebra
        rng = random.Random(5)
        base = iota_on_mor(cfd0, cfd0)
        twisted = None
        for _ in range(50):
            twisted = _try_transvection(_double(cfd0), rng, algebra(z1))
            if twisted is not None:
                break
        assert twisted is not None
        rep = iota_on_mor(cfd0, twisted)
        doubled = iota_on_mor(cfd0, _double(cfd0))
        assert rep.hf_dim == doubled.hf_dim
        assert rep.hfi_dim == doubled.hfi_dim


def _double(P):
    from bhfi import TypeDStructure
    gens = [(f"{g}0", P.out_idem[g]) for g in P.generators]
    gens += [(f"{g}1", P.out_idem[g]) for g in P.generators]
    delta = [(f"{s}0", c, f"{t}0") for s, _, c, t in P.ops]
    delta += [(f"{s}1", c, f"{t}1") for s, _, c, t in P.ops]
    return TypeDStructure(P.out_alg.circle, gens, delta)


def hand_built_cfi(cx, hom, images):
    """The involutive complex written out block by block, independently of
    ``conjugation_cone``: (d, Q) of the cone of (inclusion + involution)
    from the homology of ``cx`` into ``cx``."""
    n, m = len(hom.cycles), cx.dim
    cols = [(hom.cycles[i] ^ images[i]) << n for i in range(n)]
    cols += [cx.d.cols[j] << n for j in range(m)]
    q_cols = [hom.cycles[i] << n for i in range(n)] + [0] * m
    return (F2Matrix(n + m, n + m, tuple(cols)),
            F2Matrix(n + m, n + m, tuple(q_cols)))


class TestCfiHatOracle:
    @pytest.mark.parametrize("left", ["cfd_inf", "cfd_m1", "cfd0"])
    @pytest.mark.parametrize("right", ["cfd_inf", "cfd_m1", "cfd0"])
    def test_genus_1_matches_hand_built_cone(self, left, right):
        self._check(builtin_structure(left), builtin_structure(right))

    def test_genus_2_matches_hand_built_cone(self, cfd0_k2):
        self._check(cfd0_k2, cfd0_k2)

    @staticmethod
    def _check(P0, P1):
        cone = cfi_hat(P0, P1)
        cx, hom, images = _iota_pipeline(P0, P1)
        d, q = hand_built_cfi(cx, hom, images)
        assert cone.d.cols == d.cols
        assert cone.q.cols == q.cols
        n = hom.dimension
        assert all(g.startswith("S:H:") for g in cone.generators[:n])
        assert all(g.startswith("T:") for g in cone.generators[n:])


def hand_built_pair(cx, conj):
    """The pairing route's involutive complex written out block by block,
    independently of ``conjugation_cone``: (d, Q) = ([[d, 0], [1 + c, d]],
    [[0, 0], [1, 0]]) on two copies of ``cx``, with c = ``conj``."""
    n = cx.dim
    cols = [cx.d.cols[j] | ((1 << j) ^ conj.cols[j]) << n for j in range(n)]
    cols += [cx.d.cols[j] << n for j in range(n)]
    q_cols = [1 << (n + j) for j in range(n)] + [0] * n
    return (F2Matrix(2 * n, 2 * n, tuple(cols)),
            F2Matrix(2 * n, 2 * n, tuple(q_cols)))


class TestInvolutivePairOracle:
    """The pairing route's cone against the hand-built blocks, with c the
    matrix that ``conjugation`` returns; c is the identity on these
    pairings but cfa0_k1 x cfd_m1, where 1 + c has rank 1."""

    @pytest.mark.parametrize("a, d", [
        ("cfa0_k1", "cfd_inf"), ("cfa0_k1", "cfd_m1"), ("cfa0_k1", "cfd0"),
        ("cfa0_k2", "cfd0_k2")])
    def test_matches_hand_built_cone(self, a, d, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(conjugation(*args))
            return seen[-1]

        monkeypatch.setattr(typea, "conjugation", recording)
        cone = involutive_pair(standard_involutive_a(builtin_structure(a)),
                               standard_involutive_d(builtin_structure(d)))
        (_, cx, conj), = seen
        want_d, want_q = hand_built_pair(cx, conj)
        assert cone.d.cols == want_d.cols
        assert cone.q.cols == want_q.cols
        assert cone.generators == tuple(f"S:{g}" for g in cx.generators) + \
            tuple(f"T:{g}" for g in cx.generators)



class TestCycleCheck:
    """``Morphism.is_cycle`` reads d(psi) one source generator at a time.
    On every pinned psi it agrees with the whole ``differential``, and
    with one component removed both say that psi is no cycle."""

    @pytest.fixture(scope="class")
    def pinned(self, cfa1, cfd0, cfa2, cfd0_k2):
        import random

        from test_equivalence import load_relabel
        relabel = load_relabel()
        out = {"cfa0_k1": standard_involutive_a(cfa1).psi,
               "cfd0": standard_involutive_d(cfd0).psi,
               "cfa0_k2": standard_involutive_a(cfa2).psi,
               "cfd0_k2": standard_involutive_d(cfd0_k2).psi}
        # the relabelled genus-2 A sides whose psi digests CI pins
        for seed in (1, 11, 38):
            M = relabel(cfa2, random.Random(seed), "m")
            out[f"cfa0_k2, seed {seed}"] = standard_involutive_a(M).psi
        return out

    @pytest.mark.parametrize("name", [
        "cfa0_k1", "cfd0", "cfa0_k2", "cfd0_k2", "cfa0_k2, seed 1",
        "cfa0_k2, seed 11", "cfa0_k2, seed 38"])
    def test_agrees_with_the_differential(self, pinned, name):
        psi = pinned[name]
        assert psi.is_cycle() and not psi.differential().comps
        comps = psi.sorted_comps()
        for comp in (comps[0], comps[len(comps) // 2], comps[-1]):
            cut = Morphism(psi.source, psi.target, psi.comps - {comp})
            assert not cut.is_cycle() and cut.differential().comps, comp

class TestGenus2Certificates:
    """The genus-2 involutive certificates, pinned by digest: psi's sorted
    components and its cone's cancellation trace.  The golden file pins
    only genus 1."""

    @pytest.mark.parametrize("build, name, digest", [
        (standard_involutive_a, "cfa0_k2",
         "eead40a82c79f9b7c26c3f0f9d0d8d610680e1ad241ecfd98ba57987484914ae"),
        (standard_involutive_d, "cfd0_k2",
         "329cd07aec1c097abb22de5af1f51713ddbe091b94760a439d02bd0e64c16afd")])
    def test_psi_and_cone_trace(self, build, name, digest):
        psi = build(builtin_structure(name)).psi
        text = repr((psi.sorted_comps(), psi.cone_trace()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_pairing_route_cone(self):
        cone = involutive_pair(
            standard_involutive_a(builtin_structure("cfa0_k2")),
            standard_involutive_d(builtin_structure("cfd0_k2")))
        assert homology(cone).dimension == 8
        text = repr((cone.generators, cone.d.cols, cone.q.cols))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "37a0868e8c59fc434bd06bf97f650755a3748ff9ea010eaad8e55644f67b1dd5"


@pytest.fixture
def collector_on():
    """The cycle collector on for the test, as it was afterwards."""
    import gc
    was = gc.isenabled()
    gc.enable()
    yield gc
    (gc.enable if was else gc.disable)()


class TestCollectorPaused:
    """``collector_paused`` turns the cycle collector off for the call and
    leaves it as it found it, and wraps every involutive entry point."""

    ENTRIES = {"involutive": ("standard_involutive_d", "iota_on_mor",
                              "cfi_hat"),
               "typea": ("standard_involutive_a", "involutive_pair",
                         "mcg_action"),
               "triangle": ("verify_hfi_triangle",)}

    @staticmethod
    def recording(seen, gc, fail=False):
        from bhfi.morphisms import collector_paused

        @collector_paused
        def call():
            """Records whether the collector is on."""
            seen.append(gc.isenabled())
            if fail:
                raise ValueError("inside")
            return "done"
        return call

    def test_on_again_after_a_return_and_after_a_raise(self, collector_on):
        seen = []
        assert self.recording(seen, collector_on)() == "done"
        assert collector_on.isenabled()
        with pytest.raises(ValueError, match="^inside$"):
            self.recording(seen, collector_on, fail=True)()
        assert collector_on.isenabled()
        assert seen == [False, False]

    def test_a_caller_that_turned_it_off_finds_it_off(self, collector_on):
        seen = []
        collector_on.disable()
        self.recording(seen, collector_on)()
        with pytest.raises(ValueError):
            self.recording(seen, collector_on, fail=True)()
        assert not collector_on.isenabled() and seen == [False, False]

    def test_nested_calls_leave_it_off_until_the_outermost_returns(
            self, collector_on):
        from bhfi.morphisms import collector_paused
        seen = []
        inner = self.recording(seen, collector_on)

        @collector_paused
        def outer():
            inner()
            seen.append(collector_on.isenabled())
            with pytest.raises(ValueError):
                self.recording(seen, collector_on, fail=True)()
            seen.append(collector_on.isenabled())

        outer()
        assert seen == [False, False, False, False]
        assert collector_on.isenabled()

    def test_wrapper_keeps_name_module_and_doc(self, collector_on):
        call = self.recording([], collector_on)
        assert (call.__name__, call.__module__, call.__doc__) == (
            "call", __name__, "Records whether the collector is on.")

    def test_every_entry_point_is_paused(self):
        import importlib

        from bhfi.morphisms import collector_paused
        paused_code = collector_paused(len).__code__
        for home, names in self.ENTRIES.items():
            module = importlib.import_module(f"bhfi.{home}")
            for name in names:
                fn = getattr(module, name)
                assert fn.__code__ is paused_code, name
                assert (fn.__name__, fn.__module__, fn.__doc__) == (
                    name, f"bhfi.{home}", fn.__wrapped__.__doc__), name

    def test_pipeline_runs_with_it_off(self, collector_on, monkeypatch, cfd0,
                                       cfd_m1):
        seen = []
        real = involutive.mor_complex_DD

        def recorded(P, Q):
            seen.append(collector_on.isenabled())
            return real(P, Q)

        monkeypatch.setattr(involutive, "mor_complex_DD", recorded)
        assert iota_on_mor(cfd0, cfd_m1).hfi_dim == 2
        assert seen == [False] and collector_on.isenabled()

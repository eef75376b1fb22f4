import functools
import hashlib
import json
import os
import random
import re

import pytest

from bhfi import (AlgebraElement, DivergenceError, PointedMatchedCircle,
                  algebra, check_structure, dd_identity, homology, pieces,
                  split_pmc, strands)
from bhfi.cli import main
from bhfi.files import structure_to_json
from bhfi.mor import mor_complex_DD
from bhfi.pairing import box_tensor
from bhfi.pieces import _cfda_az, cfd_zero_handlebody, cfda_az
from bhfi.standard import cfd_solid_torus
from bhfi.structures import BorderedObject
from bhfi.triangle import surgery_maps
from bhfi.typea import cfa_zero_handlebody, cfda_azbar
from test_strands import chord, chords, include_split

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "fixtures")


class TestSolidTori:
    def test_infinity(self, cfd_inf):
        assert cfd_inf.generators == ("r",)
        assert cfd_inf.ops == {("r", (), d, "r") for d in
                               chord(split_pmc(1), 2, 4).terms}

    def test_minus_one(self, cfd_m1):
        assert sorted(cfd_m1.generators) == ["a", "b"]
        coeff = chord(split_pmc(1), 1, 2) + chord(split_pmc(1), 3, 4)
        assert cfd_m1.ops == {("a", (), d, "b") for d in coeff.terms}

    def test_zero(self, cfd0):
        assert cfd0.ops == {("n", (), d, "n") for d in
                            chord(split_pmc(1), 1, 3).terms}

    def test_unknown_framing(self):
        with pytest.raises(ValueError):
            cfd_solid_torus("seventeen")


class TestZeroHandlebody:
    def test_genus_1_is_zero_framed_torus(self, cfd0):
        P = cfd_zero_handlebody(1)
        assert P.ops == cfd0.ops

    def test_genus_2_delta(self, z2):
        P = cfd_zero_handlebody(2)
        assert P.generators == ("n",)
        assert {op[2].label for op in P.ops} == {"r1.3_h3", "r5.7_h1"}

    def test_coefficient_squares_to_zero(self, z2):
        P = cfd_zero_handlebody(2)
        total = None
        coeff = AlgebraElement(z2)
        for _, _, c, _ in P.ops:
            coeff = coeff + AlgebraElement(z2, [c])
        assert not coeff * coeff

    def test_matches_block_inclusion_of_tensor_factors(self, z1):
        # the one-generator data agrees with the image of the genus-1
        # factors under the block inclusion
        for k in (2, 3):
            P = cfd_zero_handlebody(k)
            rho = chord(z1, 1, 3)
            idem = AlgebraElement(z1, [algebra(z1).idempotent({1})])
            expected = set()
            for slot in range(k):
                factors = [rho if i == slot else idem for i in range(k)]
                expected ^= include_split(factors).terms
            assert {op[2] for op in P.ops} == expected

    def test_invalid_genus(self):
        with pytest.raises(ValueError):
            cfd_zero_handlebody(0)


class TestCfaHandlebody:
    def test_genus_1_operation_table(self, cfa1, z1):
        assert sorted(cfa1.generators) == ["t", "u", "v"]
        ops = {(s, tuple(b.label for b in i), d) for s, i, _, d in cfa1.ops}
        assert ops == {
            ("u", (), "v"),
            ("u", ("r1.2",), "t"),
            ("u", ("r1.3",), "v"),
            ("t", ("r2.3",), "v"),
            ("t", ("h2",), "t"),
            ("u", ("h1",), "u"),
            ("v", ("h1",), "v"),
        }

    def test_genus_2_m1(self, cfa2):
        targets = {d for s, i, _, d in cfa2.ops if not i and s == "uu"}
        assert targets == {"vu", "uv"}

    def test_structure_relations(self, cfa1, cfa2):
        assert check_structure(cfa1) == []
        assert check_structure(cfa2) == []

    def test_vanishing_chords(self, cfa2, z2):
        # the even-to-odd chords act by zero
        banned = {(4, 5), (3, 4), (7, 8)}
        for s, ins, _, d in cfa2.ops:
            for b in ins:
                assert not (b.moving and b.moving[0] in banned)

    def test_generator_count(self):
        assert len(cfa_zero_handlebody(3).generators) == 27

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_genus_1_circle_per_build(self, monkeypatch, k):
        # split_pmc checks its cap on every call, so the genus-1 algebra of
        # the factors is built once per build, not once per basis element
        from bhfi import typea
        calls, real = [], typea.split_pmc
        monkeypatch.setattr(typea, "split_pmc",
                            lambda n: calls.append(n) or real(n))
        cfa_zero_handlebody(k)
        assert sorted(calls) == [1, k]


class TestDDIdentity:
    def test_genus_1_generators(self, z1):
        DD = dd_identity(z1)
        assert DD.generators == ("i1", "i2")
        assert check_structure(DD) == []

    def test_genus_1_coefficients_are_chord_pairs(self, z1):
        DD = dd_identity(z1)
        for src, _, (left, right), dst in DD.ops:
            assert len(left.moving) == 1
            i, j = left.moving[0]
            refl = (5 - j, 5 - i)
            assert right.moving == (refl,)

    def test_genus_2_generator_count(self, z2):
        DD = dd_identity(z2)
        assert len(DD.generators) == 6
        assert check_structure(DD) == []

    def test_genus_3_relations(self):
        DD = dd_identity(split_pmc(3))
        assert len(DD.generators) == 20
        assert check_structure(DD) == []

    def test_tensor_product_is_the_factorwise_product(self, z2):
        DD = dd_identity(z2)
        coeffs = sorted({c for _, _, c, _ in DD.ops}, key=DD.out_alg.sort_key)
        nonzero = 0
        for a in coeffs:
            for b in coeffs:
                left = AlgebraElement(z2, [a[0]]) * AlgebraElement(z2, [b[0]])
                right = AlgebraElement(z2, [a[1]]) * AlgebraElement(z2, [b[1]])
                got = DD.out_alg.mul_basis(a, b)
                assert (set() if got is None else {got}) == {
                    (x, y) for x in left.terms for y in right.terms}, (a, b)
                nonzero += got is not None
        assert (len(coeffs), nonzero) == (48, 128)

    def test_chord_term_count(self):
        for k in (1, 2, 3):
            Z = split_pmc(k)
            assert strands.chord_term_count(Z) == \
                sum(len(c.terms) for c in chords(Z))
        assert [strands.chord_term_count(split_pmc(k)) for k in (5, 6, 7)] \
            == [13860, 72072, 360360]

    @pytest.mark.parametrize("cap, what", [(5, "6 generators"),
                                           (59, "60 chord terms")])
    def test_refused_before_listing(self, z2, monkeypatch, cap, what):
        monkeypatch.setenv("BHFI_MAX_GENERATORS", str(cap))
        with pytest.raises(DivergenceError, match=re.escape(
                f"dd_identity: {what} exceed BHFI_MAX_GENERATORS={cap}")):
            dd_identity(z2)

    def test_built_once_per_circle(self, z2):
        assert dd_identity(z2) is dd_identity(z2)
        assert dd_identity(split_pmc(2)) is dd_identity(z2)

    @pytest.mark.parametrize("cap, what", [(5, "6 generators"),
                                           (59, "60 chord terms")])
    def test_lowered_cap_refuses_cached_build(self, z2, monkeypatch, cap,
                                              what):
        # built and cached under the default cap, then refused under a
        # lower one with the text of a fresh build
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        cached = dd_identity(z2)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", str(cap))
        with pytest.raises(DivergenceError, match=re.escape(
                f"dd_identity: {what} exceed BHFI_MAX_GENERATORS={cap}")):
            dd_identity(z2)
        monkeypatch.delenv("BHFI_MAX_GENERATORS")
        assert dd_identity(z2) is cached

    @pytest.mark.parametrize("cap", [114, 237])
    def test_lowered_cap_refuses_cached_interpolating_piece(
            self, z2, monkeypatch, cap):
        # the whole az's cap is the basis count, 238 at genus 2 (114 its
        # lower bound): a cached whole piece is refused with the text of a
        # fresh build; a cut piece counts only its own listing (below)
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        cached = cfda_az(z2)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", str(cap))
        with pytest.raises(DivergenceError, match=re.escape(
                f"strands basis: 238 diagrams exceed "
                f"BHFI_MAX_GENERATORS={cap}")):
            cfda_az(z2)
        monkeypatch.delenv("BHFI_MAX_GENERATORS")
        assert cfda_az(z2) is cached

    def test_lowered_cap_refuses_a_cut_piece_by_its_listing(
            self, monkeypatch):
        # the 21 diagrams into {1, 3}, the generators of az cut to that
        # idempotent, in a fresh algebra and a fresh az cache
        monkeypatch.setattr(strands, "_ALGEBRAS", {})
        monkeypatch.setattr(pieces, "_cfda_az",
                            functools.cache(_cfda_az.__wrapped__))
        z2, idems = split_pmc(2), {frozenset({1, 3})}
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "20")
        with pytest.raises(DivergenceError, match=re.escape(
                "strands basis: 21 diagrams exceed BHFI_MAX_GENERATORS=20")):
            cfda_az(z2, idems)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "21")
        assert len(cfda_az(z2, idems).generators) == 21


class TestInterpolatingPiece:
    def test_generator_count_is_basis_size(self, z1, z2):
        for z in (z1, z2):
            assert len(cfda_az(z).generators) == len(algebra(z).basis)
            assert len(cfda_azbar(z).generators) == len(algebra(z).basis)

    def test_genus_1_relations(self, az1, azbar1):
        assert check_structure(az1) == []
        assert check_structure(azbar1) == []

    def test_genus_1_one_input_table(self, az1):
        # the two displayed values of the one-input operation
        got = {}
        for src, ins, out, dst in az1.ops:
            if not ins:
                got.setdefault(src, set()).add((out.label, dst))
        assert got["h2"] == {("r1.2", "r1.2"), ("r3.4", "r3.4"),
                             ("r1.4", "r1.4")}
        assert got["h1"] == {("r2.3", "r2.3")}

    def test_two_input_is_right_multiplication(self, az1, z1):
        alg = algebra(z1)
        for src, ins, out, dst in az1.ops:
            if len(ins) != 1:
                continue
            a = next(d for d in alg.basis if d.label == src)
            assert alg.mul_basis(a, ins[0]) is \
                next(d for d in alg.basis if d.label == dst)

    def test_azbar_uses_transpose_differential(self, z2):
        alg = algebra(z2)
        azb = cfda_azbar(z2)
        idem_outs = {(src, dst) for src, ins, out, dst in azb.ops
                     if not ins and out.is_idempotent}
        for src, dst in idem_outs:
            a = next(d for d in alg.basis if f"{d.label}'" == src)
            b = next(d for d in alg.basis if f"{d.label}'" == dst)
            assert a in alg.diff_basis(b)

    def test_higher_operations_vanish(self, az1, azbar1):
        assert all(len(op[1]) <= 1 for op in az1.ops)
        assert all(len(op[1]) <= 1 for op in azbar1.ops)


def _type_d_structures(k):
    """Type D structures over the genus-k split circle: the handlebody, and
    at genus 1 the other framings, at genus 2 the handlebody twisted by az."""
    P = cfd_zero_handlebody(k)
    if k == 1:
        return [P] + [cfd_solid_torus(f) for f in ("infinity", "minus_one")]
    return [P, box_tensor(cfda_az(split_pmc(k)), P)]


def _idempotent_sets(circle):
    """Each idempotent alone, and the sets the callers pass at this genus:
    the output idempotents of a builtin type D structure and of each pair
    of them."""
    singles = [{i} for i in algebra(circle).idem_keys]
    if circle.k == 1:
        outs = [set(P.out_idem.values()) for P in map(
            cfd_solid_torus, ("zero", "infinity", "minus_one"))]
    else:
        outs = [set(cfd_zero_handlebody(2).out_idem.values())]
    return singles + outs + [a | b for a in outs for b in outs]


def _cut_of(whole, idems, letters=None):
    """The whole piece's generators whose input idempotent is in ``idems``,
    in order, and its operations among them that read no letter or one of
    ``letters`` (None: every letter)."""
    kept = tuple(g for g in whole.generators if whole.in_idem[g] in idems)
    ops = {op for op in whole.ops if whole.in_idem[op[0]] in idems
           and whole.in_idem[op[3]] in idems
           and (letters is None or set(op[1]) <= letters)}
    return kept, ops


def _shuffled(S, seed):
    """A copy of ``S`` with fresh generator labels in a shuffled order."""
    rng = random.Random(seed)
    fresh = [f"g{i}" for i in range(len(S.generators))]
    rng.shuffle(fresh)
    T = S.relabeled(dict(zip(S.generators, fresh)))
    rng.shuffle(fresh)
    return BorderedObject(T.out_alg, T.in_alg, fresh, T.out_idem, T.in_idem,
                          T.ops)


def _pairing_bytes(S):
    return json.dumps(structure_to_json(S), sort_keys=True).encode()


class TestRestrictedInterpolatingPiece:
    @pytest.mark.parametrize("k", [1, 2])
    def test_operations_out_of_the_given_idempotents(self, k):
        z = split_pmc(k)
        whole = cfda_az(z)
        for idems in _idempotent_sets(z):
            cut = cfda_az(z, idems)
            kept, ops = _cut_of(whole, idems)
            assert cut.generators == kept
            assert (cut.out_idem, cut.in_idem) == \
                ({g: whole.out_idem[g] for g in kept},
                 {g: whole.in_idem[g] for g in kept})
            assert cut.ops == ops

    @pytest.mark.parametrize("k", [1, 2])
    def test_operations_reading_the_given_letters(self, k):
        # the kept generators are closed under the operations that read
        # the letters of a type D structure over the kept idempotents
        z = split_pmc(k)
        whole = cfda_az(z)
        for P in _type_d_structures(k):
            idems = set(P.out_idem.values())
            letters = {op[2] for op in P.ops}
            cut = cfda_az(z, idems, letters)
            assert (cut.generators, cut.ops) == \
                _cut_of(whole, idems, letters)

    @pytest.mark.parametrize("k", [1, 2])
    def test_cut_pairs_byte_identically(self, k):
        z = split_pmc(k)
        whole = cfda_az(z)
        for P in _type_d_structures(k):
            for X in (P, _shuffled(P, 1), _shuffled(P, 2)):
                cut = cfda_az(z, X.out_idem.values(),
                              {op[2] for op in X.ops})
                paired, want = box_tensor(cut, X), box_tensor(whole, X)
                assert paired.generators == want.generators
                assert _pairing_bytes(paired) == _pairing_bytes(want)

    def test_genus_3_cut_pairs_as_the_whole_piece(self):
        # the sha256 of the pairings with the whole az_k3, recorded from
        # the builder that kept every generator and letter (the whole piece
        # takes 17 s and 480 MB to build)
        z3, P = split_pmc(3), cfd_zero_handlebody(3)
        for X, digest in (
                (P, "62a0051e07459c68a1422eb17f1e324a"
                    "8729d9e30a43b515889b6a030368862b"),
                (P.relabeled({"n": "g0"}),
                 "66102f3ff2e2725543697c88ef461dd6"
                 "479c55fd56f45edbeafcae9e5334ae96")):
            cut = cfda_az(z3, X.out_idem.values(), {op[2] for op in X.ops})
            paired = box_tensor(cut, X)
            assert (len(paired.generators), len(paired.ops)) == (231, 1171)
            assert hashlib.sha256(_pairing_bytes(paired)).hexdigest() == \
                digest

    def test_every_idempotent_is_the_whole_piece(self, z2):
        assert cfda_az(z2, algebra(z2).idem_keys) is cfda_az(z2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_built_without_the_preimage_tables(self, monkeypatch, k):
        # a fresh algebra and a fresh az cache, so that nothing built
        # before this test is read
        monkeypatch.setattr(strands, "_ALGEBRAS", {})
        monkeypatch.setattr(pieces, "_cfda_az",
                            functools.cache(_cfda_az.__wrapped__))
        z = split_pmc(k)
        for idems in [None] + _idempotent_sets(z):
            cfda_az(z, idems)
        assert algebra(z)._tables is None


class TestBuildersAreLinearInTheTables:
    def test_az_multiplies_composable_pairs_only(self, monkeypatch):
        # a fresh algebra, so that the count is az's alone
        monkeypatch.setattr(strands, "_ALGEBRAS", {})
        z2 = split_pmc(2)
        _cfda_az.__wrapped__(z2, frozenset(algebra(z2).idem_keys))
        keys = algebra(z2)._mul_cache
        assert all(a.right_idem == b.left_idem for a, b in keys)
        assert len(keys) == 5286


# SHA-256 of the sorted-key JSON of structure_to_json, recorded from an
# independent implementation of the builders (one that rescanned every chord
# per generator), so that these pin the operation sets, not the code
PINNED_SHA256 = {
    ("az", "reversed split"):
        "d23255b82ff8596c6c371a8c1fec3fa2f9dd94ba41a3b28d1ca9a56c8db84ee4",
    ("azbar", "reversed split"):
        "e37f609d7e73d629206b175149bb802bf1344196ee79e076e930206e4a58b807",
    ("az", "antipodal"):
        "7a67f2fa7d2ca99bdd2d8115007de4b9677c42db21495c6850ac49516169df44",
    ("azbar", "antipodal"):
        "2fab4ce0e21753ebb7db7e1d0b7cd5566e0b897ec446a2251762d5656e74e473",
    ("az", "mixed"):
        "d859d016b66d5e50837d67447cc8eb8dee667ae0f70d374a3ed8b96bfc87c017",
    ("azbar", "mixed"):
        "397c15602d4d14d43ef9a6f9444d02d920d189e37ae0f1821228e99061260a93",
    ("ddid", "split genus 3"):
        "83374ed6e97d3d26d5193076e5cb98142791bf9b6648cdc74afee955ee68a1bb",
}

CIRCLES = {
    "reversed split": lambda: split_pmc(2).reverse(),
    "antipodal": lambda: PointedMatchedCircle(
        2, ((1, 5), (2, 6), (3, 7), (4, 8))),
    "mixed": lambda: PointedMatchedCircle(
        2, ((1, 6), (2, 4), (3, 8), (5, 7))),
    "split genus 3": lambda: split_pmc(3),
}

BUILDERS = {"az": cfda_az, "azbar": cfda_azbar, "ddid": dd_identity}


class TestPinnedBytes:
    @pytest.mark.parametrize("kind,circle", sorted(PINNED_SHA256))
    def test_structure_json_hash(self, kind, circle):
        S = BUILDERS[kind](CIRCLES[circle]())
        text = json.dumps(structure_to_json(S), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            PINNED_SHA256[kind, circle]

    def test_dump_standard_matches_fixtures(self, capsys, tmp_path):
        assert main(["dump-standard", "--out", str(tmp_path)]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        names = sorted(os.path.basename(p) for p in written)
        assert names == sorted(f for f in os.listdir(FIXTURES)
                               if f.endswith(".json"))
        for name in names:
            with open(os.path.join(tmp_path, name), "rb") as fh:
                got = fh.read()
            with open(os.path.join(FIXTURES, name), "rb") as fh:
                assert got == fh.read(), name


class TestGenusThree:
    def test_handlebody_pairing_homology(self):
        P = cfd_zero_handlebody(3)
        assert homology(mor_complex_DD(P, P).complex).dimension == 8


class TestAlgebraAsPairing:
    def test_dimensions(self, z1, z2):
        assert len(algebra(z1).basis) == 8
        assert len(algebra(z2).basis) == 238

    def test_idempotent_action_is_diagonal(self, z1):
        alg = algebra(z1)
        for b in alg.basis:
            right = alg.mul_basis(b, alg.idempotent(b.right_idem))
            assert right is b


class TestSurgeryMaps:
    def test_values(self, cfd_inf, cfd_m1, cfd0):
        phi, psi = surgery_maps()
        assert labels(phi) == [("r", "h2", "b"), ("r", "r2.3", "a")]
        assert labels(psi) == [("a", "h1", "n"), ("b", "r2.3", "n")]

    def test_cycles(self):
        phi, psi = surgery_maps()
        assert phi.is_cycle() and psi.is_cycle()

    def test_composite_vanishes(self):
        phi, psi = surgery_maps()
        assert not phi.then(psi).comps

    def test_levelwise_exact(self, cfd_inf, cfd_m1, cfd0):
        # injective, kernel of the second map equals the image of the first;
        # over idempotent-compatible elementary coordinates
        phi, psi = surgery_maps()
        assert len(phi.comps) == 2 and len(psi.comps) == 2
        srcs = {c[0] for c in psi.comps}
        assert srcs == {"a", "b"}


def labels(morphism):
    return sorted((s, o.label, d) for s, i, o, d in morphism.comps)

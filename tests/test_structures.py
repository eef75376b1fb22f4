import graphlib
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from bhfi import (DivergenceError, Morphism, ParseError, RelationViolation,
                  TypeDStructure, algebra, box_tensor, box_tensor_AD,
                  box_tensor_DD_side, check_structure, dd_identity, homology,
                  identity_da, identity_morphism, mor_complex_DD,
                  reduce_structure, split_pmc, validate_bounded)
from bhfi.dd import DDBimodule, TensorAlgebra
from bhfi.elements import AlgebraElement
from bhfi.homology import BlockDifferential, echelon
from bhfi.matrices import F2Matrix
from bhfi.morphisms import contraction_trace
from bhfi.pairing import box_morphism_right, box_morphism_right_comps
from bhfi.pieces import cfda_az
from bhfi.standard import torus_chord
from bhfi.strands import StrandsAlgebra
from bhfi.structures import (TRIVIAL, AInfModule, BorderedObject,
                             DABimodule, _expand, _term_walk,
                             structure_residue)
from bhfi.typea import box_morphism_left_comps, cfda_azbar
from test_homology import dense_homology
from test_strands import chord


def labels(morphism):
    return sorted((s, tuple(b.label for b in i), o.label, d)
                  for s, i, o, d in morphism.comps)


@pytest.fixture(scope="module")
def az2(z2):
    return cfda_az(z2)


@pytest.fixture(scope="module")
def az2_twice(az2, cfd0_k2):
    return box_tensor(az2, box_tensor(az2, cfd0_k2))


@pytest.fixture(scope="module")
def standard_corpus(z1, az1, az2, az2_twice, cfa1, cfa2, cfd0, cfd_inf, cfd_m1,
                    cfd0_k2):
    """Valid type D, DD and chain-complex structures of genus 1 to 3."""
    from bhfi import cfd_zero_handlebody
    ladder = [cfd0]
    for _ in range(3):
        ladder.append(box_tensor(az1, ladder[-1]))
    return ladder + [
        cfd_inf, cfd_m1, cfd_zero_handlebody(1), cfd0_k2,
        cfd_zero_handlebody(3), box_tensor(az2, cfd0_k2), az2_twice,
        dd_identity(z1), dd_identity(split_pmc(2)),
        box_tensor_DD_side(az1, dd_identity(z1)),
        box_tensor(cfa1, cfd0), box_tensor(cfa1, cfd_inf),
        box_tensor(cfa1, cfd_m1), box_tensor(cfa1, ladder[2]),
        box_tensor(cfa2, cfd0_k2)]


@pytest.fixture(scope="module")
def involutive_a_cone(z2, cfa2):
    # the cone that standard_involutive_a(cfa0_k2) certifies, before pairing
    # with the DD identity
    from bhfi import find_structure_equivalence
    cert = find_structure_equivalence(box_tensor(cfa2, cfda_azbar(z2)), cfa2)
    return cert.forward.cone()


def shuffled(S, seed):
    """A copy of ``S`` with fresh generator labels in a shuffled order."""
    rng = random.Random(seed)
    fresh = [f"s{i}" for i in range(len(S.generators))]
    rng.shuffle(fresh)
    T = S.relabeled(dict(zip(S.generators, fresh)))
    rng.shuffle(fresh)
    return BorderedObject(T.out_alg, T.in_alg, fresh, T.out_idem, T.in_idem,
                          T.ops)


def count_products(monkeypatch):
    """Count every strands-algebra product from now on."""
    calls = []
    real = StrandsAlgebra.mul_basis

    def counted(self, a, b):
        calls.append(None)
        return real(self, a, b)

    monkeypatch.setattr(StrandsAlgebra, "mul_basis", counted)
    return calls


# ---------------------------------------------------------------------------
# reference implementations: the whole state-graph walk for boundedness and
# the nested generator scans of the pairings, as they stood before the
# topological certificate and the idempotent buckets


def state_walk_bounded(S):
    """True when the (generator, coefficient product) graph has no cycle."""
    out_alg = S.out_alg
    edges = {}

    def successors(state):
        g, c = state
        hit = edges.get(state)
        if hit is None:
            hit = []
            for _, _, b, g2 in S.ops_from(g):
                if (c2 := out_alg.mul_basis(c, b)) is not None:
                    hit.append((g2, c2))
            edges[state] = hit
        return hit

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    for g in S.generators:
        for op in S.ops_from(g):
            start = (op[3], op[2])
            if color.get(start, WHITE) == BLACK:
                continue
            stack = [(start, iter(successors(start)))]
            color[start] = GRAY
            while stack:
                state, it = stack[-1]
                advanced = False
                for nxt in it:
                    col = color.get(nxt, WHITE)
                    if col == GRAY:
                        return False
                    if col == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(successors(nxt))))
                        advanced = True
                        break
                if not advanced:
                    color[state] = BLACK
                    stack.pop()
    return True


def any_basis_element(alg):
    """Every basis element of a no-input structure's output algebra."""
    if isinstance(alg, TensorAlgebra):
        return tuple(itertools.product(alg.left.basis, alg.right.basis))
    return tuple(alg.basis)


def with_random_ops(rng, S, count, anywhere=0.3):
    """S with up to ``count`` random operations toggled on: a share
    ``anywhere`` of them carry any basis element, its idempotents
    unchecked, the rest one between their generators' idempotents."""
    alg, pool = S.out_alg, any_basis_element(S.out_alg)
    ops = set(S.ops)
    for _ in range(count):
        x, y = rng.choice(S.generators), rng.choice(S.generators)
        between = pool if rng.random() < anywhere else \
            alg.basis_between(S.out_idem[x], S.out_idem[y])
        if between:
            ops ^= {(x, (), rng.choice(between), y)}
    return BorderedObject(S.out_alg, S.in_alg, S.generators, S.out_idem,
                          S.in_idem, ops)


def bounded_by_both(S):
    """The boundedness of S, asserting that the check and the state walk
    agree on it."""
    expected = state_walk_bounded(S)
    try:
        got = validate_bounded(S)
    except DivergenceError:
        got = False
    assert got == expected, S
    return expected


def generator_graph_has_cycle(S):
    sorter = graphlib.TopologicalSorter({g: () for g in S.generators})
    for src, _, _, dst in S.ops:
        sorter.add(dst, src)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return True
    return False


def toggle(acc, item):
    acc ^= {item}


def chains_scan(B2, start, outs):
    if not outs:
        return [((), start)]
    return [(op[1] + ins, end)
            for op in B2.ops_from_with_out(start, outs[0])
            for ins, end in chains_scan(B2, op[3], outs[1:])]


def nested_scan_ops(left_ops, gen_set, B2):
    ops = set()
    for x, word, a, x2 in left_ops:
        for g2 in B2.generators:
            if f"{x}|{g2}" not in gen_set:
                continue
            for ins, end in chains_scan(B2, g2, word):
                toggle(ops, (f"{x}|{g2}", ins, a, f"{x2}|{end}"))
    return ops


def nested_scan_box_tensor(B1, B2):
    """(generators, out_idem, in_idem, ops) of the box tensor product."""
    gens, out_idem, in_idem = [], {}, {}
    for g1 in B1.generators:
        for g2 in B2.generators:
            if B1.in_idem[g1] != B2.out_idem[g2]:
                continue
            label = f"{g1}|{g2}"
            gens.append(label)
            out_idem[label] = B1.out_idem[g1]
            in_idem[label] = B2.in_idem[g2]
    return (tuple(gens), out_idem, in_idem,
            nested_scan_ops(B1.ops, set(gens), B2))


def nested_scan_dd_side(B, X):
    """(generators, out_idem, ops) of box_tensor_DD_side(B, X)."""
    carried = X.out_alg.right
    trivial_out = B.out_alg.is_trivial
    gens, out_idem = [], {}
    for b in B.generators:
        for x in X.generators:
            if B.in_idem[b] != X.out_idem[x][0]:
                continue
            label = f"{b}|{x}"
            gens.append(label)
            out_idem[label] = X.out_idem[x][1] if trivial_out \
                else (B.out_idem[b], X.out_idem[x][1])
    gen_set = set(gens)
    by_src_left = {}
    for op in X.ops:
        by_src_left.setdefault((op[0], op[2][0]), []).append(op)
    ops = set()
    for bsrc, word, a, bdst in B.ops:
        for x in X.generators:
            if f"{bsrc}|{x}" not in gen_set:
                continue

            def walk(at, idx, prods):
                if idx == len(word):
                    for prod in prods:
                        coeff = prod if trivial_out else (a, prod)
                        toggle(ops, (f"{bsrc}|{x}", (), coeff,
                                     f"{bdst}|{at}"))
                    return
                for xop in by_src_left.get((at, word[idx]), ()):
                    carry = xop[2][1]
                    nxt = set()
                    for p in prods:
                        q = carried.mul_basis(p, carry) if p is not None \
                            else carry
                        nxt ^= set() if q is None else {q}
                    if nxt:
                        walk(xop[3], idx + 1, nxt)

            walk(x, 0, {None})
    fixed = set()
    for (src, ins, out, dst) in ops:
        if trivial_out and out is None:
            out = carried.idem_element(out_idem[dst])
        elif not trivial_out and out[1] is None:
            out = (out[0], carried.idem_element(out_idem[dst][1]))
        toggle(fixed, (src, ins, out, dst))
    return tuple(gens), out_idem, fixed


class TestCheckStructure:
    def test_standard_objects_pass(self, cfd0, cfd_inf, cfd_m1, cfa1, az1,
                                   azbar1):
        for S in (cfd0, cfd_inf, cfd_m1, cfa1, az1, azbar1):
            assert check_structure(S) == []

    def test_broken_idempotent_reported(self, z1):
        bad = TypeDStructure(z1, [("n", {1})],
                             [("n", torus_chord(1, 2), "n")])
        violations = check_structure(bad)
        assert violations and violations[0][0] == "idempotent"

    def test_idempotent_violations_in_sorted_order(self, az1):
        bad = BorderedObject(az1.out_alg, az1.in_alg, az1.generators,
                             az1.out_idem,
                             {g: frozenset() for g in az1.generators},
                             az1.ops)
        violations = check_structure(bad)
        assert {v[0] for v in violations} == {"idempotent"}
        assert [v[1] for v in violations] == \
            [op for op in bad.sorted_ops() if op[1]]

    def test_broken_relation_reported(self, z1):
        # a lone arrow whose square term survives
        bad = TypeDStructure(z1, [("x", {1}), ("y", {1}), ("z", {1})],
                             [("x", torus_chord(1, 3), "y"),
                              ("y", algebra(z1).idempotent({1}), "z")])
        violations = check_structure(bad)
        assert violations and violations[0][0] == "relation"


class TestBoundedness:
    def test_standard_structures_bounded(self, cfd0, cfd_inf, cfd_m1):
        for S in (cfd0, cfd_inf, cfd_m1):
            assert validate_bounded(S)

    def test_unbounded_loop_detected(self, z1):
        # x -> y -> x through idempotent coefficients iterates forever
        alg = algebra(z1)
        bad = TypeDStructure(z1, [("x", {1}), ("y", {1})],
                             [("x", alg.idempotent({1}), "y"),
                              ("y", alg.idempotent({1}), "x")])
        with pytest.raises(DivergenceError, match=re.escape(
                "structure is not operationally bounded: delta iteration "
                "loops through")):
            validate_bounded(bad)

    def test_dd_identity_is_bounded(self, z1):
        assert validate_bounded(dd_identity(z1))

    def test_vanishing_cycle_passes_through_the_walk(self, z1, monkeypatch):
        # x -> y -> x is a cycle of generators, but every product around it
        # dies: r3.4 * r2.3 = 0 and r2.3 * r3.4 * r2.3 = r2.4 * r2.3 = 0.
        # No coefficient on it is an idempotent, so no product is needed
        # to see that: each factor adds strand length.
        S = TypeDStructure(z1, [("x", {1}), ("y", {2})],
                           [("x", torus_chord(3, 4), "y"),
                            ("y", torus_chord(2, 3), "x")])
        assert generator_graph_has_cycle(S)
        assert state_walk_bounded(S)
        calls = count_products(monkeypatch)
        assert validate_bounded(S)
        assert calls == []

    def test_agrees_with_state_walk_on_random_structures(self, z1):
        from test_acceptance import random_bounded_type_d
        rng = random.Random(20260809)
        alg = algebra(z1)
        seen = set()
        for trial in range(200):
            P = random_bounded_type_d(rng, z1)
            # unchecked extra operations close cycles, bounded or not
            ops = set(P.ops)
            for _ in range(rng.randrange(0, 3)):
                x, y = rng.choice(P.generators), rng.choice(P.generators)
                between = alg.basis_between(P.out_idem[x], P.out_idem[y])
                if between:
                    ops ^= {(x, (), rng.choice(between), y)}
            Q = BorderedObject(P.out_alg, P.in_alg, P.generators,
                               P.out_idem, P.in_idem, ops)
            for S in (P, Q):
                expected = state_walk_bounded(S)
                try:
                    got = validate_bounded(S)
                except DivergenceError:
                    got = False
                assert got == expected, trial
                seen.add((expected, generator_graph_has_cycle(S)))
        assert seen == {(True, False), (True, True), (False, True)}

    def test_agrees_with_state_walk_on_unchecked_coefficients(self, z1):
        from test_acceptance import random_bounded_type_d
        rng = random.Random(20261018)
        seen = set()
        for _ in range(1500):
            P = random_bounded_type_d(rng, z1)
            for S in (P, with_random_ops(rng, P, rng.randrange(1, 6))):
                seen.add(bounded_by_both(S))
        assert seen == {True, False}

    def test_agrees_with_state_walk_at_genus_2(self, z2):
        rng = random.Random(20261019)
        alg = algebra(z2)
        idems = sorted({d.left_idem for d in alg.idempotent_diagrams},
                       key=sorted)
        seen = set()
        for _ in range(1000):
            gens = [f"g{i}" for i in range(rng.randrange(1, 6))]
            # two idempotents between them, so that loops close often
            pick = rng.sample(idems, 2)
            out_idem = {g: rng.choice(pick) for g in gens}
            S = BorderedObject(alg, TRIVIAL, gens, out_idem,
                               dict.fromkeys(gens, TRIVIAL.UNIT), ())
            seen.add(bounded_by_both(
                with_random_ops(rng, S, rng.randrange(1, 9))))
        assert seen == {True, False}

    def test_agrees_with_state_walk_on_standard_dd_and_chain_complexes(
            self, standard_corpus):
        assert {S.kind for S in standard_corpus} == {"D", "DD", "CX"}
        rng = random.Random(20261020)
        seen = set()
        for S in standard_corpus:
            assert bounded_by_both(S)
            if len(S.ops) < 1000:     # the walk is the slow side
                for _ in range(8):
                    seen.add((S.kind, bounded_by_both(
                        with_random_ops(rng, S, rng.randrange(1, 4)))))
        assert seen == {(kind, answer) for kind in ("D", "DD", "CX")
                        for answer in (True, False)}

    def test_agrees_with_state_walk_on_twisted_ladder(self, az1, cfd0):
        P = cfd0
        for _ in range(4):
            assert state_walk_bounded(P)
            assert validate_bounded(P)
            P = box_tensor(az1, P)

    def test_acyclic_generator_graph_needs_no_products(self, az2_twice,
                                                       monkeypatch):
        assert not generator_graph_has_cycle(az2_twice)
        calls = count_products(monkeypatch)
        assert validate_bounded(az2_twice)
        assert calls == []

    def test_cyclic_generator_graphs_need_no_products(self, cfd_inf,
                                                      cfd0_k2, z1,
                                                      monkeypatch):
        for S in (cfd_inf, cfd0_k2, dd_identity(z1)):
            assert generator_graph_has_cycle(S)
            calls = count_products(monkeypatch)
            assert validate_bounded(S)
            assert calls == []

    def test_names_the_first_generator_left_by_the_sort(self, z1):
        # y -> z -> y loops on e1 and w sits downstream of it; x -> v -> x
        # changes idempotent on the way, so it is no loop
        alg = algebra(z1)
        e1, e2 = alg.idempotent({1}), alg.idempotent({2})
        S = TypeDStructure(z1, [(g, {1}) for g in "xvwyz"],
                           [("y", e1, "z"), ("z", e1, "y"), ("z", e1, "w"),
                            ("x", e2, "v"), ("v", e1, "x")])
        assert state_walk_bounded(S) is False
        with pytest.raises(DivergenceError, match=re.escape(
                "delta iteration loops through 'w'")):
            validate_bounded(S)
        # a loop on one generator
        T = TypeDStructure(z1, [(g, {1}) for g in "xyz"],
                           [("y", e1, "z"), ("z", e2, "y"), ("x", e1, "x")])
        assert state_walk_bounded(T) is False
        with pytest.raises(DivergenceError, match=re.escape(
                "delta iteration loops through 'x'")):
            validate_bounded(T)

    def test_refusal_is_the_same_across_hash_seeds(self):
        # two loops, on two idempotents, over generators whose string
        # hashes (and with them the set orders) change with the seed
        runs = [_refusal_in_fresh_process(seed) for seed in ("0", "1")]
        assert runs[0] == runs[1] == (
            "structure is not operationally bounded: delta iteration loops "
            "through 'g1'")


_TWO_LOOPS_SCRIPT = """
from bhfi import DivergenceError, TypeDStructure, algebra, split_pmc
from bhfi import validate_bounded
from bhfi.standard import torus_chord
z1 = split_pmc(1)
alg = algebra(z1)
e1, e2 = alg.idempotent({1}), alg.idempotent({2})
S = TypeDStructure(z1, [(f"g{i}", {1 + i % 2}) for i in range(8)], [
    ("g0", torus_chord(1, 2), "g1"), ("g1", e2, "g7"), ("g7", e2, "g1"),
    ("g4", e1, "g6"), ("g6", e1, "g4"), ("g2", e1, "g3"), ("g6", e1, "g3")])
try:
    validate_bounded(S)
except DivergenceError as exc:
    print(exc)
"""


def _refusal_in_fresh_process(hash_seed):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _TWO_LOOPS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def terms_after(T, op, acc):
    """Toggle into ``acc`` the relation terms that start with ``op``, one
    operation at a time with nothing kept between calls: op followed by
    each operation of T out of its target, the differential of its
    coefficient, and the differential or a split of each of its inputs."""
    x, w, a, y = op
    out_alg, in_alg = T.out_alg, T.in_alg
    for _, w2, b, z in T.ops_from(y):
        if (c := out_alg.mul_basis(a, b)) is not None:
            toggle(acc, (x, w + w2, c, z))
    for c in out_alg.diff_basis(a):
        toggle(acc, (x, w, c, y))
    for pos, b in enumerate(w):
        head, tail = w[:pos], w[pos + 1:]
        for b0 in in_alg.diff_preimages(b):
            toggle(acc, (x, head + (b0,) + tail, a, y))
        for b1, b2 in in_alg.mul_preimages(b):
            toggle(acc, (x, head + (b1, b2) + tail, a, y))


def one_set_residue(S):
    """The relation residue with the terms of every operation toggled
    into one set by the per-operation walk: the oracle for the term walk
    and its sums per source generator."""
    acc = set()
    for op in S.ops:
        terms_after(S, op, acc)
    return acc


def with_op_from_each(rng, S):
    """S with one random operation toggled on out of every generator, with
    no inputs and its coefficient between the generators' idempotents."""
    ops = set(S.ops)
    for x in S.generators:
        y = rng.choice([y for y in S.generators
                        if S.in_idem[y] == S.in_idem[x]])
        between = S.out_alg.basis_between(S.out_idem[x], S.out_idem[y])
        if between:
            ops ^= {(x, (), rng.choice(between), y)}
    return BorderedObject(S.out_alg, S.in_alg, S.generators, S.out_idem,
                          S.in_idem, ops)


class TestStructureResidue:
    def test_matches_one_set_on_the_bounded_corpus(self, standard_corpus,
                                                    z1, az1, azbar1, cfa1):
        for S in standard_corpus + [az1, azbar1, cfa1, identity_da(z1)]:
            assert structure_residue(S) == one_set_residue(S) == set()

    def test_matches_one_set_on_broken_structures(self, standard_corpus,
                                                   z1, az1, azbar1, cfa1):
        rng = random.Random(20261018)
        every_source_broken = set()
        for S in standard_corpus + [az1, azbar1, cfa1, identity_da(z1)]:
            if len(S.ops) >= 1000:
                continue
            for _ in range(4):
                B = with_op_from_each(rng, S)
                residue = one_set_residue(B)
                assert structure_residue(B) == residue
                assert check_structure(B) == [
                    ("relation", op)
                    for op in sorted(residue, key=B.op_sort_key)]
                if {op[0] for op in residue} == set(B.generators):
                    every_source_broken.add((B.kind, len(B.generators) > 1))
        assert every_source_broken >= {("D", True), ("DA", True),
                                       ("CX", True)}

    def test_matches_one_set_on_broken_genus_2_bimodules(self, z2, az2):
        # az_k2 and azbar_k2 (2,579 operations each) are past the size cut
        # of the test above
        rng = random.Random(20261019)
        for S in (az2, cfda_azbar(z2)):
            for _ in range(3):
                B = with_op_from_each(rng, S)
                residue = one_set_residue(B)
                assert residue
                assert structure_residue(B) == residue
                assert check_structure(B) == [
                    ("relation", op)
                    for op in sorted(residue, key=B.op_sort_key)]


class TestBoxTensor:
    def test_operations_without_a_partner_read_no_chains(self, monkeypatch,
                                                         az2, cfd0_k2):
        # az_k2 has 2,579 operations; only those out of a generator whose
        # input idempotent is cfd0_k2's, with a word that is empty or starts
        # with a letter cfd0_k2 outputs, are walked, and the rest cost
        # nothing
        from bhfi import pairing
        from bhfi.pairing import _chains_consuming, _chains_reading, _partners
        from bhfi.structures import _toggle

        def every_chain_reading(B2, starts, word):
            # the walk as it was, called for every operation
            if not word:
                return [(g2, (), g2) for g2 in starts]
            if not starts:
                return []
            return [(op[0], op[1] + ins, end)
                    for op in B2.ops_with_out(word[0])
                    if B2.out_idem[op[0]] == B2.out_idem[starts[0]]
                    for ins, end in _chains_consuming(B2, op[3], word[1:])]

        partners = _partners(az2.generators, az2.in_idem,
                             cfd0_k2.generators, cfd0_k2.out_idem)
        old = set()
        for x, word, a, x2 in az2.ops:
            for g2, ins, end in every_chain_reading(cfd0_k2, partners[x],
                                                    word):
                _toggle(old, (f"{x}|{g2}", ins, a, f"{x2}|{end}"))
        starts = []

        def recording(B2, given, word):
            starts.append(given)
            return _chains_reading(B2, given, word)

        monkeypatch.setattr(pairing, "_chains_reading", recording)
        paired = box_tensor(az2, cfd0_k2)
        assert paired.ops == old
        assert all(starts)
        outputs = {op[2] for op in cfd0_k2.ops}
        assert len(starts) == sum(
            1 for op in az2.ops
            if partners[op[0]] and (not op[1] or op[1][0] in outputs)) == 56
        assert len(starts) < len(az2.ops)

    def test_pairing_dimension_two(self, cfa1, cfd0):
        C = box_tensor_AD(cfa1, cfd0)
        assert sorted(C.generators) == ["u|n", "v|n"]
        assert homology(C).dimension == 2

    def test_infinity_pairing_hand_oracle(self, cfa1, cfd_inf):
        C = box_tensor_AD(cfa1, cfd_inf)
        # by hand: only t is compatible, no differential survives
        assert C.generators == ("t|r",)
        assert C.d.is_zero()
        assert homology(C).dimension == 1

    def test_minus_one_pairing_hand_oracle(self, cfa1, cfd_m1):
        C = box_tensor_AD(cfa1, cfd_m1)
        assert sorted(C.generators) == ["t|b", "u|a", "v|a"]
        # d(u|a) = v|a + t|b, everything else closed
        at = C.generators.index
        assert C.d.cols[at("u|a")] == 1 << at("v|a") | 1 << at("t|b")
        assert homology(C).dimension == 1

    def test_genus_2_pairing(self, cfa2, cfd0_k2):
        C = box_tensor_AD(cfa2, cfd0_k2)
        assert C.dim == 4
        assert C.d.is_zero()
        assert homology(C).dimension == 4

    def test_circle_mismatch(self, cfa1, cfd0_k2):
        with pytest.raises(ValueError):
            box_tensor_AD(cfa1, cfd0_k2)

    def test_da_d_passes_relations(self, az1, cfd0, cfd_inf, cfd_m1):
        for P in (cfd0, cfd_inf, cfd_m1):
            out = box_tensor(az1, P)
            assert check_structure(out) == []

    def test_az_twist_of_infinity_matches_table(self, az1, cfd_inf, z1):
        out = box_tensor(az1, cfd_inf)
        assert sorted(out.generators) == \
            ["h2|r", "r1.2|r", "r1.4|r", "r2.4|r", "r3.4|r"]
        alg = algebra(z1)
        i0 = alg.idempotent({1})
        i1 = alg.idempotent({2})
        expected = {
            ("h2|r", (), i0, "r2.4|r"),
            ("h2|r", (), torus_chord(1, 2), "r1.2|r"),
            ("h2|r", (), torus_chord(3, 4), "r3.4|r"),
            ("h2|r", (), torus_chord(1, 4), "r1.4|r"),
            ("r1.2|r", (), i1, "r1.4|r"),
            ("r3.4|r", (), torus_chord(2, 3), "r2.4|r"),
            ("r2.4|r", (), torus_chord(1, 2), "r1.4|r"),
        }
        assert out.ops == expected

    def test_az_twist_of_minus_one_generators(self, az1, cfd_m1):
        out = box_tensor(az1, cfd_m1)
        assert sorted(out.generators) == \
            ["h1|a", "h2|b", "r1.2|b", "r1.3|a", "r1.4|b", "r2.3|a",
             "r2.4|b", "r3.4|b"]
        assert check_structure(out) == []

    def test_identity_bimodule_acts_trivially(self, z1, cfd0, cfd_m1):
        ident = identity_da(z1)
        for P in (cfd0, cfd_m1):
            out = box_tensor(ident, P)
            mapping = {f"e_{_idem_label(P, p)}|{p}": p
                       for p in P.generators}
            relabeled = out.relabeled(mapping)
            assert relabeled.ops == P.ops

    def test_strict_associativity(self, az1, azbar1, cfd0):
        left = box_tensor(box_tensor(azbar1, az1), cfd0)
        right = box_tensor(azbar1, box_tensor(az1, cfd0))
        assert left.generators == right.generators
        assert left.ops == right.ops

    def test_generator_cap(self, az1, cfd0, monkeypatch):
        n = len(box_tensor(az1, cfd0).generators)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "2")
        with pytest.raises(DivergenceError, match=re.escape(
                f"box_tensor: {n} generators exceed BHFI_MAX_GENERATORS=2")):
            box_tensor(az1, cfd0)

    def test_colliding_pair_labels_are_a_parse_error(self, cfa1, cfd_m1,
                                                       az1, tmp_path):
        # a ⊠ b|c and a|b ⊠ c would both be "a|b|c"
        M = cfa1.relabeled({"t": "a", "u": "a|b", "v": "v"})
        P = cfd_m1.relabeled({"a": "c", "b": "b|c"})
        with pytest.raises(ParseError, match=re.escape(
                "box_tensor: generators ('a', 'b|c') and ('a|b', 'c') pair "
                "to one label 'a|b|c'")):
            box_tensor(M, P)
        # a pairing's own "|" labels still dump and load
        from bhfi.files import dump_structure, load_structure
        twisted = box_tensor(az1, P)
        assert "h2|b|c" in twisted.generators
        dump_structure(twisted, tmp_path / "twisted.json")
        back = load_structure(tmp_path / "twisted.json")
        assert back.generators == twisted.generators
        assert back.ops == twisted.ops

    def test_operation_off_its_idempotent_is_a_value_error(self, z1, az1):
        # Q's operation reads r1.2 but ends at idempotent {1}, so pairing
        # az's h1 --r1.2--> r1.2 with it ends on r1.2, which has no partner
        r12 = next(b for b in algebra(z1).basis if b.label == "r1.2")
        h2 = next(b for b in algebra(z1).basis if b.label == "h2")
        Q = TypeDStructure(z1, [("n", {1}), ("m", {1})], [("n", r12, "m")])
        X = DDBimodule(z1, z1, [("n", {1}, {2}), ("m", {1}, {2})],
                       [("n", (r12, h2), "m")])
        assert [v[0] for v in check_structure(Q) + check_structure(X)] \
            == ["idempotent", "idempotent"]
        for stage, pair, B in (("box_tensor", box_tensor, Q),
                               ("box_tensor_DD_side", box_tensor_DD_side, X)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{stage}: pairing ('h1', (r1.2,), h2, 'r1.2') ends at "
                    "'r1.2', which has no partner")):
                pair(az1, B)

    def test_dd_side_generator_cap(self, z1, monkeypatch):
        ident, ddid = identity_da(z1), dd_identity(z1)
        n = len(box_tensor_DD_side(ident, ddid).generators)
        assert n == 2
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "1")
        with pytest.raises(DivergenceError, match=re.escape(
                "box_tensor_DD_side: 2 generators exceed "
                "BHFI_MAX_GENERATORS=1")):
            box_tensor_DD_side(ident, ddid)

    @pytest.mark.parametrize("case", ["az.cfd0_k2", "az.az.cfd0_k2",
                                      "cfa0_k2.az.az.cfd0_k2"])
    def test_matches_nested_scan(self, case, az2, az2_twice, cfa2, cfd0_k2):
        left, right = {"az.cfd0_k2": (az2, cfd0_k2),
                       "az.az.cfd0_k2": (az2, box_tensor(az2, cfd0_k2)),
                       "cfa0_k2.az.az.cfd0_k2": (cfa2, az2_twice)}[case]
        B1, B2 = shuffled(left, 11), shuffled(right, 12)
        out = box_tensor(B1, B2)
        gens, out_idem, in_idem, ops = nested_scan_box_tensor(B1, B2)
        assert out.generators == gens
        assert out.out_idem == out_idem and out.in_idem == in_idem
        assert out.ops == ops

    def test_mismatched_idempotents_match_nested_scan(self, cfa1, cfd_m1,
                                                      az1):
        # every operation of M starts at the wrong idempotent
        swap = {frozenset({1}): frozenset({2}), frozenset({2}): frozenset({1})}
        M = BorderedObject(cfa1.out_alg, cfa1.in_alg, cfa1.generators,
                           cfa1.out_idem,
                           {g: swap[i] for g, i in cfa1.in_idem.items()},
                           cfa1.ops)
        for P in (cfd_m1, box_tensor(az1, cfd_m1)):
            out = box_tensor(M, P)
            gens, _, _, ops = nested_scan_box_tensor(M, P)
            assert out.generators == gens
            assert out.ops == ops

    def test_morphism_tensor_matches_nested_scan(self, az1, z1, cfd_m1):
        from bhfi.typea import omega_equivalence
        P = shuffled(box_tensor(az1, cfd_m1), 13)
        f = omega_equivalence(z1).forward
        gen_set = set(box_tensor(f.source, P).generators)
        left = Morphism(box_tensor(f.source, P), box_tensor(f.target, P),
                        box_morphism_left_comps(f, P))
        assert left.comps == nested_scan_ops(f.comps, gen_set, P)


def _idem_label(P, p):
    alg = P.out_alg
    return alg.label_of(alg.idem_element(P.out_idem[p]))


class TestDDSide:
    def test_identity_absorbs(self, z1):
        ident = identity_da(z1)
        ddid = dd_identity(z1)
        out = box_tensor_DD_side(ident, ddid)
        assert check_structure(out) == []
        assert len(out.generators) == len(ddid.generators)
        assert {tuple(sorted(v[0])) for v in out.out_idem.values()} == \
            {tuple(sorted(v[0])) for v in ddid.out_idem.values()}

    def test_module_converts_to_no_input_side(self, cfa1, z1):
        ddid = dd_identity(z1)
        out = box_tensor_DD_side(cfa1, ddid)
        assert out.kind == "D"
        assert check_structure(out) == []

    def test_matches_nested_scan(self, z1, z2, involutive_a_cone, az2,
                                 cfa2):
        from bhfi import split_pmc
        z3, ddid2 = split_pmc(3), dd_identity(z2)
        for B, X in ((identity_da(z1), dd_identity(z1)),
                     (shuffled(involutive_a_cone, 14), ddid2),
                     (az2, ddid2), (cfda_azbar(z2), ddid2),
                     (box_tensor(cfa2, cfda_azbar(z2)), ddid2),
                     (identity_da(z3), dd_identity(z3))):
            out = box_tensor_DD_side(B, X)
            gens, out_idem, ops = nested_scan_dd_side(B, X)
            assert out.generators == gens
            assert out.out_idem == out_idem
            assert out.ops == ops


def kernel_oracle_box_tensor(B1, B2):
    """box_tensor before the one pairing kernel: every operation of B1
    scanned, and two new label strings for every term."""
    from bhfi.pairing import _chains_reading, _partners
    from bhfi.structures import _toggle
    partners = _partners(B1.generators, B1.in_idem, B2.generators,
                         B2.out_idem)
    gens, out_idem, in_idem = [], {}, {}
    for g1 in B1.generators:
        for g2 in partners[g1]:
            label = f"{g1}|{g2}"
            gens.append(label)
            out_idem[label] = B1.out_idem[g1]
            in_idem[label] = B2.in_idem[g2]
    ops = set()
    for x, word, a, x2 in B1.ops:
        if not partners[x]:
            continue
        for g2, ins, end in _chains_reading(B2, partners[x], word):
            _toggle(ops, (f"{x}|{g2}", ins, a, f"{x2}|{end}"))
    return BorderedObject(B1.out_alg, B2.in_alg, tuple(gens), out_idem,
                          in_idem, ops)


def kernel_oracle_dd_side(B, X):
    """box_tensor_DD_side before the one pairing kernel: the box tensor of
    B with the carried view of X, then a second pass over its
    operations."""
    from bhfi.dd import tensor_algebra
    from bhfi.structures import _toggle
    carried = X.out_alg.right
    view = BorderedObject(
        B.in_alg, carried, X.generators,
        {x: idem[0] for x, idem in X.out_idem.items()},
        {x: idem[1] for x, idem in X.out_idem.items()},
        [(x, (right,), left, y) for x, _, (left, right), y in X.ops])
    paired = kernel_oracle_box_tensor(B, view)
    trivial_out = B.out_alg.is_trivial
    res_alg = carried if trivial_out else tensor_algebra(B.out_alg, carried)
    out_idem = {g: idem if trivial_out else (paired.out_idem[g], idem)
                for g, idem in paired.in_idem.items()}
    ops = set()
    for src, word, a, dst in paired.ops:
        start = carried.idem_element(paired.in_idem[src])
        if (prod := carried.mul_many((start,) + word)) is not None:
            _toggle(ops, (src, (), prod if trivial_out else (a, prod), dst))
    return BorderedObject(res_alg, TRIVIAL, paired.generators, out_idem,
                          dict.fromkeys(paired.generators, TRIVIAL.UNIT), ops)


def kernel_oracle_left_comps(f, P):
    """box_morphism_left_comps before the one pairing kernel."""
    from bhfi.pairing import _chains_reading, _partners
    from bhfi.structures import _toggle
    partners = _partners(f.source.generators, f.source.in_idem,
                         P.generators, P.out_idem)
    comps = set()
    for x, word, a, x2 in f.comps:
        if partners[x]:
            for g2, ins, end in _chains_reading(P, partners[x], word):
                _toggle(comps, (f"{x}|{g2}", ins, a, f"{x2}|{end}"))
    return comps


def kernel_oracle_right_comps(B, f):
    """box_morphism_right_comps before the one pairing kernel."""
    from bhfi.pairing import _chains_consuming, _partners
    from bhfi.structures import _toggle
    P1, P2 = f.source, f.target
    partners = _partners(B.generators, B.in_idem, P1.generators,
                         P1.out_idem)
    f_by_out = {}
    for comp in f.comps:
        f_by_out.setdefault((comp[0], comp[2]), []).append(comp)
    comps = set()
    for b, word, a, b2 in B.ops:
        for t, out in enumerate(word):
            for p in partners[b]:
                for ins1, at in _chains_consuming(P1, p, word[:t]):
                    for _, ins2, _, mid in f_by_out.get((at, out), ()):
                        for ins3, end in _chains_consuming(P2, mid,
                                                           word[t + 1:]):
                            _toggle(comps, (f"{b}|{p}", ins1 + ins2 + ins3,
                                            a, f"{b2}|{end}"))
    return comps


def random_genus_1_left_factor(rng, z1, with_output):
    """A random genus-1 A-infinity module (or DA bimodule, ``with_output``)
    whose words of up to three letters chain between the input
    idempotents of their ends, as do its output coefficients between the
    output idempotents; the relations need not hold."""
    alg = algebra(z1)
    idems = [d.left_idem for d in alg.idempotent_diagrams]
    gens = [f"g{i}" for i in range(rng.randrange(2, 6))]
    in_idem = {g: rng.choice(idems) for g in gens}
    out_idem = {g: rng.choice(idems) if with_output else TRIVIAL.UNIT
                for g in gens}
    ops = set()
    for _ in range(rng.randrange(4, 16)):
        x, word = rng.choice(gens), []
        at = in_idem[x]
        for _ in range(rng.randrange(4)):
            letter = rng.choice([b for b in alg.basis if b.left_idem == at])
            word.append(letter)
            at = letter.right_idem
        ends = [y for y in gens if in_idem[y] == at]
        if not ends:
            continue
        y = rng.choice(ends)
        outs = alg.basis_between(out_idem[x], out_idem[y]) if with_output \
            else (TRIVIAL.UNIT,)
        if outs:
            ops ^= {(x, tuple(word), rng.choice(outs), y)}
    return BorderedObject(alg if with_output else TRIVIAL, alg, gens,
                          out_idem, in_idem, ops)


def assert_shares_labels(S):
    """Each operation's ends are the generator strings themselves."""
    own = {g: g for g in S.generators}
    assert all(own[x] is x and own[y] is y for x, _, _, y in S.ops)


class TestPairingKernelOracle:
    """Every pairing equals its pre-kernel form, generator tuple and
    operation set, and names each generator pair with one string."""

    def assert_box_tensor(self, B1, B2):
        out, old = box_tensor(B1, B2), kernel_oracle_box_tensor(B1, B2)
        assert out.generators == old.generators
        assert out.out_idem == old.out_idem and out.in_idem == old.in_idem
        assert out.ops == old.ops
        assert_shares_labels(out)

    def assert_dd_side(self, B, X):
        out, old = box_tensor_DD_side(B, X), kernel_oracle_dd_side(B, X)
        assert out.generators == old.generators
        assert out.out_idem == old.out_idem
        assert out.ops == old.ops
        assert_shares_labels(out)

    def test_genus_1_twists_of_framed_tori(self, az1, azbar1, cfd0, cfd_inf,
                                           cfd_m1):
        for B1 in (az1, azbar1):
            for P in (cfd0, cfd_inf, cfd_m1):
                self.assert_box_tensor(B1, P)

    def test_az_k2_on_relabelled_cfd0_k2(self, az2, cfd0_k2):
        self.assert_box_tensor(az2, cfd0_k2)
        self.assert_box_tensor(az2, shuffled(cfd0_k2, 15))

    def test_cfa0_k2_on_the_twisted_ladder(self, az2, cfa2, cfd0_k2):
        P = cfd0_k2
        for _ in range(3):
            self.assert_box_tensor(cfa2, P)
            P = box_tensor(az2, P)

    def test_involutive_a_cone_on_the_dd_identity(self, z2,
                                                  involutive_a_cone):
        self.assert_dd_side(involutive_a_cone, dd_identity(z2))

    def test_cone_shares_labels(self, involutive_a_cone):
        assert_shares_labels(involutive_a_cone)

    def test_random_genus_1_a_and_da_structures(self, z1, az1, azbar1,
                                                cfd0, cfd_inf, cfd_m1):
        rng = random.Random(20261019)
        ddid = dd_identity(z1)
        rights = (cfd0, cfd_inf, cfd_m1, box_tensor(az1, cfd_m1), az1,
                  azbar1)
        for trial in range(40):
            B1 = random_genus_1_left_factor(rng, z1, trial % 2)
            for B2 in rights:
                self.assert_box_tensor(B1, B2)
            self.assert_dd_side(B1, ddid)
            self.assert_box_tensor(B1, random_genus_1_left_factor(
                rng, z1, True))

    def test_morphism_components(self, z1, z2, az1, az2, cfa2, cfd_m1,
                                 cfd0_k2):
        from bhfi import standard_involutive_d
        from bhfi.typea import omega_equivalence
        om = omega_equivalence(z1).forward
        for P in (cfd_m1, shuffled(box_tensor(az1, cfd_m1), 16)):
            assert box_morphism_left_comps(om, P) == \
                kernel_oracle_left_comps(om, P)
        psi = standard_involutive_d(cfd0_k2).psi
        for B in (az2, cfa2):
            assert box_morphism_right_comps(B, psi) == \
                kernel_oracle_right_comps(B, psi)


class TestMorComplex:
    def test_self_mor_of_zero_framing(self, cfd0):
        mc = mor_complex_DD(cfd0, cfd0)
        assert mc.complex.generators == ("n>h1>n", "n>r1.3>n")
        assert mc.complex.d.is_zero()
        assert homology(mc.complex).dimension == 2

    def test_identity_is_a_cycle(self, cfd0, cfd_m1):
        for P in (cfd0, cfd_m1):
            assert identity_morphism(P).is_cycle()

    def test_cross_oracle_against_pairing(self, cfa1, cfd0, cfd_inf, cfd_m1):
        # morphism-space route and box-tensor route agree on the three
        # framings paired against the genus-1 handlebody module
        for P in (cfd_inf, cfd_m1, cfd0):
            mor_dim = homology(mor_complex_DD(cfd0, P).complex).dimension
            box_dim = homology(box_tensor_AD(cfa1, P)).dimension
            assert mor_dim == box_dim

    def test_mor_d_squared(self, cfd0, cfd_m1, cfd_inf):
        for P in (cfd0, cfd_m1, cfd_inf):
            for Q in (cfd0, cfd_m1, cfd_inf):
                mc = mor_complex_DD(P, Q)
                assert (mc.complex.d * mc.complex.d).is_zero()

    def test_circle_mismatch(self, cfd0, cfd0_k2):
        with pytest.raises(ValueError):
            mor_complex_DD(cfd0, cfd0_k2)

    def test_block_cycles_match_the_dense_oracle(self, rungs, az2, cfd0,
                                                 cfd_inf, cfd_m1, cfd0_k2):
        pairs = [(P, Q) for rung in rungs for torus in (cfd_inf, cfd_m1, cfd0)
                 for P, Q in ((rung, torus), (torus, rung))]
        twisted = box_tensor(az2, cfd0_k2)
        pairs += [(twisted, cfd0_k2), (cfd0_k2, twisted)]
        for P, Q in pairs:
            mc = mor_complex_DD(P, Q)
            data = mc.homology()
            assert data == dense_homology(mc.complex)
            assert data == homology(mc.complex)
            assert mc.differential.blocks == mc.complex._blocks.blocks

    def test_a_block_with_nonzero_square_raises(self, rungs, cfd0):
        # az x az x cfd0 without one of its operations is no structure,
        # and its morphism complexes have d² != 0
        P = rungs[2]
        op = next(op for op in P.ops
                  if (op[0], op[3]) == ("h2|h1|n", "h2|r1.3|n"))
        broken = BorderedObject(P.out_alg, P.in_alg, P.generators,
                                P.out_idem, P.in_idem, P.ops - {op})
        for args in ((broken, cfd0), (cfd0, broken)):
            with pytest.raises(ValueError,
                               match="differential does not square to zero"):
                mor_complex_DD(*args)

    def test_size_cap_counts_the_basis(self, monkeypatch, az1, cfd_m1):
        twisted = box_tensor(az1, cfd_m1)
        n = len(mor_complex_DD(cfd_m1, twisted).basis)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", str(n))
        assert len(mor_complex_DD(cfd_m1, twisted).basis) == n
        monkeypatch.setenv("BHFI_MAX_GENERATORS", str(n - 1))
        with pytest.raises(DivergenceError) as err:
            mor_complex_DD(cfd_m1, twisted)
        assert str(err.value) == (f"mor_complex_DD: {n} basis morphisms "
                                  f"exceed BHFI_MAX_GENERATORS={n - 1}")

    def test_size_cap_raises_before_building(self, monkeypatch, az2,
                                             cfd0_k2):
        # the genus-2 ladder's Mor(21 -> 1561): counted, never built
        P0 = box_tensor(az2, cfd0_k2)
        Q = box_tensor(az2, P0)
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "147231")
        with pytest.raises(DivergenceError) as err:
            mor_complex_DD(P0, Q)
        assert str(err.value) == ("mor_complex_DD: 147232 basis morphisms "
                                  "exceed BHFI_MAX_GENERATORS=147231")


def eager_differential(P, Q):
    """The whole Mor(P, Q) as one BlockDifferential on the rows of every
    component, with no grading."""
    basis = mor_complex_DD(P, Q).basis
    pos = {c: i for i, c in enumerate(basis)}
    walk = _term_walk(Q, P)
    return BlockDifferential([[pos[t] for t in walk(c, set())]
                              for c in basis])


class TestGradingClasses:
    """Mor(P, Q) is built one grading class at a time, and every class is
    a union of support blocks of the whole complex."""

    def test_multiplicity_adds_under_products_and_d(self, z1, z2):
        for alg in map(algebra, (z1, z2)):
            mult = alg.multiplicity
            for a in alg.basis:
                assert all(mult(c) == mult(a) for c in alg.diff_basis(a))
                for b in alg.basis_from(a.right_idem):
                    if (c := alg.mul_basis(a, b)) is not None:
                        assert mult(c) == mult(a) ^ mult(b)
        a = chord(z1, 1, 3).sorted_terms()[0]
        b = chord(z2, 2, 7).sorted_terms()[0]
        assert (algebra(z1).multiplicity(a), algebra(z2).multiplicity(b)) \
            == (0b11, 0b111110)
        assert TensorAlgebra(algebra(z1), algebra(z2)).multiplicity(
            (a, b)) == 0b11 | 0b111110 << 4
        assert TRIVIAL.multiplicity(TRIVIAL.UNIT) == 0

    def test_every_class_is_a_union_of_blocks(self, rungs, az1, az2, cfd0,
                                              cfd_inf, cfd_m1, cfd0_k2):
        pairs = [(P, Q) for rung in rungs
                 for torus in (cfd_inf, cfd_m1, cfd0)
                 for P, Q in ((rung, torus), (torus, rung))]
        pairs += [(cfd_m1, box_tensor(az1, cfd_m1))]
        twisted = box_tensor(az2, cfd0_k2)
        pairs += [(twisted, cfd0_k2), (cfd0_k2, twisted)]
        blocks_per_class = Counter()
        for P, Q in pairs:
            d = mor_complex_DD(P, Q).differential
            blocks = eager_differential(P, Q).blocks
            owner = {i: c for c, members in enumerate(d.classes)
                     for i in members}
            assert sorted(owner) == sorted(i for b in blocks for i in b)
            assert [members[0] for members in d.classes] == \
                sorted({min(members) for members in d.classes})
            for block in blocks:
                assert len({owner[i] for i in block}) == 1
            blocks_per_class.update(Counter(owner[b[0]] for b in blocks)
                                    .values())
            assert d.blocks == blocks
        assert blocks_per_class[1] and len(blocks_per_class) > 1

    def test_cfd_m1_class_with_two_of_three_blocks(self, az1, cfd_m1):
        # the second class's blocks start at 1 and 8, after the first
        # class's one block starts at 0: the runs read them in that order
        P, Q = cfd_m1, box_tensor(az1, cfd_m1)
        mc = mor_complex_DD(P, Q)
        assert [len(members) for members in mc.differential.classes] == \
            [18, 16]
        eager = eager_differential(P, Q)
        assert [(b[0], len(b)) for b in eager.blocks] == \
            [(0, 18), (1, 8), (8, 8)]
        assert mc.differential.blocks == eager.blocks
        # the same cycles, block by block in that order
        assert list(mc.differential.runs()) == [eager.cycles(0, b)
                                                for b in range(3)]
        assert mc.homology() == dense_homology(mc.complex)

    def test_genus_2_classes_are_the_blocks(self, az2, cfd0_k2):
        P, Q = cfd0_k2, box_tensor(az2, cfd0_k2)
        d = mor_complex_DD(P, Q).differential
        assert d.classes == eager_differential(P, Q).blocks
        assert [len(members) for members in d.classes][0] == 80

    def test_a_term_outside_its_class_raises(self, monkeypatch, az1,
                                             cfd_m1):
        # with every component alone in a class, a nonzero row leaves it
        from bhfi import mor
        monkeypatch.setattr(mor, "graded_classes", lambda edges, b:
                            tuple((i,) for i in range(len(b))))
        with pytest.raises(ValueError,
                           match="^mor_complex_DD: .* leaves its grading "
                                 "class$"):
            mor_complex_DD(cfd_m1, box_tensor(az1, cfd_m1)).homology()

    def test_compressed_union_find_gives_the_walked_classes(self):
        from bhfi.mor import graded_classes
        looped = split = 0
        for seed in range(300):
            rng = random.Random(seed)
            nodes = range(rng.randint(1, 40))
            edges = [(rng.choice(nodes), rng.getrandbits(5),
                      rng.choice(nodes))
                     for _ in range(rng.randint(0, 2 * len(nodes)))]
            points = [(rng.getrandbits(5), rng.choice(nodes),
                       rng.choice(nodes)) for _ in range(rng.randint(0, 60))]
            classes = graded_classes(edges, points)
            assert classes == walked_classes(edges, points)
            looped += len(edges) >= len(nodes)
            split += len(classes) > 1
        assert looped > 100 and split > 100

    def test_a_long_path_fed_leaf_first_is_graded_in_seconds(self):
        # every node's walk up the uncompressed chain to the root at n
        # would take about n² / 2 = 1.25e9 hops
        from bhfi.mor import graded_classes
        n = 50_000
        start = time.monotonic()
        classes = graded_classes([(i, 1, i + 1) for i in range(n)],
                                 [(0, i, 0) for i in range(n + 1)])
        assert time.monotonic() - start < 5
        assert classes == (tuple(range(0, n + 1, 2)),
                           tuple(range(1, n + 1, 2)))


def walked_classes(edges, points):
    """``graded_classes`` with the uncompressed walk up the parents, the
    reference for its union-find with path compression."""
    up, loops = {}, []

    def find(g):
        m = 0
        while g in up:
            g, step = up[g]
            m ^= step
        return g, m

    for s, m, t in edges:
        (rs, ms), (rt, mt) = find(s), find(t)
        if rs == rt:
            loops.append(ms ^ m ^ mt)
        else:
            up[rs] = (rt, ms ^ m ^ mt)
    pivots, cols, _, _ = echelon(loops)
    loops = [cols[j] for _, j in sorted(pivots.items())]

    def reduced(x):
        for w in loops:
            x ^= w if x & w & -w else 0
        return x

    classes = {}
    for i, (m, u, v) in enumerate(points):
        (ru, mu), (rv, mv) = find(u), find(v)
        key = (ru, rv, reduced(m) ^ reduced(mu) ^ reduced(mv))
        classes.setdefault(key, []).append(i)
    return tuple(map(tuple, classes.values()))


class TestMorphisms:
    def test_compose_with_identity(self, cfd0, cfd_m1):
        f = Morphism(cfd0, cfd_m1, _expand([("n", (), torus_chord(1, 2),
                                             "b")]))
        assert identity_morphism(cfd0).then(f).comps == f.comps
        assert f.then(identity_morphism(cfd_m1)).comps == f.comps

    def test_composition_associative(self, cfd0):
        from bhfi.triangle import surgery_maps
        phi, psi = surgery_maps()
        lhs = phi.then(psi).then(identity_morphism(cfd0))
        rhs = phi.then(psi.then(identity_morphism(cfd0)))
        assert lhs.comps == rhs.comps

    def test_one_structure_at_each_join(self, cfd0):
        """``then`` and ``+`` take an equal copy of an endpoint, and refuse
        one with the same generators but different operations."""
        assert cfd0.ops
        copy, bare = (BorderedObject(cfd0.out_alg, cfd0.in_alg,
                                     cfd0.generators, cfd0.out_idem,
                                     cfd0.in_idem, ops)
                      for ops in (cfd0.ops, ()))
        f = identity_morphism(cfd0)
        assert f.then(Morphism(copy, cfd0, f.comps)).comps == f.comps
        assert not (f + Morphism(copy, cfd0, f.comps)).comps
        with pytest.raises(RelationViolation,
                           match="^then: the middle structures differ$"):
            f.then(Morphism(bare, cfd0, f.comps))
        with pytest.raises(RelationViolation,
                           match="^[+]: the end structures differ$"):
            f + Morphism(bare, cfd0, f.comps)
        with pytest.raises(RelationViolation, match="^[+]"):
            f + Morphism(cfd0, bare, f.comps)

    def test_box_morphism_right_is_chain_map(self, az1, cfd0, cfd_m1, z1):
        # d(Id x f) = Id x df, on random not-necessarily-cycle morphisms
        rng = random.Random(31)
        alg = algebra(z1)
        for _ in range(25):
            comps = set()
            for _ in range(rng.randrange(1, 4)):
                src = rng.choice(cfd0.generators)
                dst = rng.choice(cfd_m1.generators)
                between = alg.basis_between(cfd0.out_idem[src],
                                            cfd_m1.out_idem[dst])
                if between:
                    comps ^= {(src, (), rng.choice(between), dst)}
            f = Morphism(cfd0, cfd_m1, comps)
            lhs = box_morphism_right(az1, f).differential()
            rhs = box_morphism_right(az1, f.differential())
            assert lhs.comps == rhs.comps

    def test_box_morphism_right_of_identity(self, az1, cfd0):
        f = box_morphism_right(az1, identity_morphism(cfd0))
        box = box_tensor(az1, cfd0)
        assert f.comps == identity_morphism(box).comps

    def test_cone_of_identity_contracts(self, cfd0, cfd_m1, az1):
        for S in (cfd0, cfd_m1, az1):
            assert contraction_trace(identity_morphism(S).cone()) is not None

    def test_cone_of_zero_map_keeps_generators(self, cfd0):
        assert contraction_trace(Morphism(cfd0, cfd0).cone()) is None

    def test_box_morphism_left_cycle(self, az1, azbar1, cfd0, z1):
        from bhfi.typea import omega_equivalence
        om = omega_equivalence(z1).forward
        f = Morphism(box_tensor(om.source, cfd0),
                     box_tensor(om.target, cfd0),
                     box_morphism_left_comps(om, cfd0))
        assert f.is_cycle()


class TestReduceStructure:
    def test_reduces_contractible_pair(self, z1):
        alg = algebra(z1)
        S = TypeDStructure(z1, [("x", {1}), ("y", {1})],
                           [("x", alg.idempotent({1}), "y")])
        red = reduce_structure(S)
        assert red.reduced.generators == ()

    def test_tracked_morphisms_are_cycles(self, az1, cfd_m1):
        S = box_tensor(az1, cfd_m1)
        red = reduce_structure(S, track_from=True, track_to=True)
        assert red.from_reduced.is_cycle()
        assert red.to_reduced.is_cycle()
        # to . from is the identity of the reduced structure
        round_trip = red.from_reduced.then(red.to_reduced)
        assert round_trip.comps == identity_morphism(red.reduced).comps

    def test_no_input_reduction_reaches_zero_idempotent_ops(self, az1,
                                                            cfd_m1):
        red = reduce_structure(box_tensor(az1, cfd_m1)).reduced
        assert all(op[1] or not red.out_alg.is_idem(op[2])
                   for op in red.ops)


def _trace_digest(red):
    return hashlib.sha256(repr(red.trace).encode()).hexdigest()


class TestPivotOrder:
    """Cancellation traces pinned when every step re-sorted the cancellable
    operations by ``op_sort_key``; the ranked queue must pick the same
    pivots."""

    def test_relabelled_twisted_handlebody(self, z2, cfd0_k2):
        from bhfi.standard import cfda_az
        az = cfda_az(z2)
        S = box_tensor(az, box_tensor(az, cfd0_k2))
        fresh = [f"r{i}" for i in range(len(S.generators))]
        random.Random(7).shuffle(fresh)
        red = reduce_structure(S.relabeled(dict(zip(S.generators, fresh))))
        assert (len(S.generators), len(red.reduced.generators)) == (1561, 1)
        assert _trace_digest(red) == \
            "199b650d090f6a25841baac4dba525496fe827caacd75d17926189adb48b7c35"

    def test_involutive_a_certificate_cone(self, z2, involutive_a_cone):
        cone = box_tensor_DD_side(involutive_a_cone, dd_identity(z2))
        red = reduce_structure(cone)
        assert (len(cone.generators), len(red.reduced.generators)) == (334, 0)
        assert _trace_digest(red) == \
            "7da0b51b982205160761bad82b6f899e85dc2edb9882afaa8a635e0a3e3d752a"


class TestJsonRoundTrip:
    def test_all_builtins_round_trip(self):
        from bhfi.files import structure_from_json, structure_to_json
        from bhfi.standard import builtin_structure
        names = ["cfd_inf", "cfd_m1", "cfd0", "cfd0_k2", "cfa0_k1",
                 "ddid_k1", "az_k1", "azbar_k1",
                 "cfa0_k2", "ddid_k2", "az_k2", "azbar_k2"]
        for name in names:
            S = builtin_structure(name)
            T = structure_from_json(structure_to_json(S))
            assert T.generators == S.generators
            assert T.ops == S.ops
            assert T.out_idem == S.out_idem
            assert T.in_idem == S.in_idem

    def test_each_distinct_payload_is_decoded_once(self, monkeypatch):
        # fixtures/az_k2.json holds 4,496 element payloads, 238 of them
        # distinct, one diagram each; each is decoded once per file
        import json
        from bhfi import files, standard
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "fixtures", "az_k2.json")) as fh:
            data = json.load(fh)
        circle_in, circle_out = (json.dumps(data["circle"][side])
                                 for side in ("in", "out"))
        distinct = {(circle_in, repr(e)): e for o in data["ops"]
                    for e in o["inputs"]}
        distinct.update({(circle_out, repr(o["out"])): o["out"]
                         for o in data["ops"]})
        decoded = []
        original = files.diagram_from_json

        def counted(circle, payload):
            decoded.append(payload)
            return original(circle, payload)

        monkeypatch.setattr(files, "diagram_from_json", counted)
        S = files.structure_from_json(data)
        assert len(decoded) == sum(map(len, distinct.values())) == 238
        assert S.ops == standard.builtin_structure("az_k2").ops

    def test_parse_error_on_garbage(self):
        from bhfi.errors import ParseError
        from bhfi.files import structure_from_json
        with pytest.raises(ParseError):
            structure_from_json({"kind": "Z"})
        with pytest.raises(ParseError):
            structure_from_json({"kind": "D", "generators": [], "ops": []})


# The loops each constructor once ran on its own, kept as the oracle for
# the one term expansion that replaced them.

def _loop_terms(value):
    if isinstance(value, AlgebraElement):
        return value.sorted_terms()
    return [value]


def loop_type_d(delta):
    ops = set()
    for src, coeff, dst in delta:
        for term in _loop_terms(coeff):
            ops ^= {(src, (), term, dst)}
    return ops


def loop_ainf(operations):
    ops = set()
    for src, ins, dst in operations:
        words = [()]
        for a in ins:
            words = [w + (t,) for w in words for t in _loop_terms(a)]
        for w in words:
            ops ^= {(src, w, TRIVIAL.UNIT, dst)}
    return ops


def loop_da(operations):
    ops = set()
    for src, ins, out, dst in operations:
        words = [()]
        for a in ins:
            words = [w + (t,) for w in words for t in _loop_terms(a)]
        for term in _loop_terms(out):
            for w in words:
                ops ^= {(src, w, term, dst)}
    return ops


def loop_dd(delta):
    ops = set()
    for src, (ca, cb), dst in delta:
        for ta in _loop_terms(ca):
            for tb in _loop_terms(cb):
                ops ^= {(src, (), (ta, tb), dst)}
    return ops


def loop_elementary(src, coeff, dst):
    comps = set()
    for term in _loop_terms(coeff):
        comps ^= {(src, (), term, dst)}
    return comps


class TestExpand:
    """The one term expansion against the five loops it replaced, on
    seeded entries drawn from small pools, so that terms repeat within
    and across entries and some cancel."""

    GENS = ("x", "y", "z")

    @staticmethod
    def random_sum(rng, pool):
        """A bare basis element, or a sum of up to three of them."""
        if rng.random() < 0.3:
            return rng.choice(pool)
        return AlgebraElement(pool[0].circle,
                              frozenset(rng.sample(pool, rng.randint(0, 3))))

    def entries(self, seed, alg):
        rng = random.Random(seed)
        pool = rng.sample(alg.basis, 6)
        return [(rng.choice(self.GENS),
                 [self.random_sum(rng, pool)
                  for _ in range(rng.randint(0, 3))],
                 (self.random_sum(rng, pool), self.random_sum(rng, pool)),
                 rng.choice(self.GENS)) for _ in range(40)]

    @pytest.mark.parametrize("seed", range(6))
    def test_each_kind_matches_its_loop(self, seed, z1, z2):
        circle = (z1, z2)[seed % 2]
        alg = algebra(circle)
        entries = self.entries(seed, alg)
        # the constructors do not check idempotents against coefficients
        idem = alg.idempotent_diagrams[0].left_idem
        ones = [(g, idem) for g in self.GENS]
        twos = [(g, i, i) for g, i in ones]
        delta = [(s, out[0], t) for s, _, out, t in entries]
        assert TypeDStructure(circle, ones, delta).ops == loop_type_d(delta)
        ainf = [(s, ins, t) for s, ins, _, t in entries]
        assert AInfModule(circle, ones, ainf).ops == loop_ainf(ainf)
        da = [(s, ins, out[0], t) for s, ins, out, t in entries]
        assert DABimodule(circle, circle, twos, da).ops == loop_da(da)
        dd = [(s, out, t) for s, _, out, t in entries]
        assert DDBimodule(circle, circle, twos, dd).ops == loop_dd(dd)
        # the draws repeat terms across entries, some of which cancel,
        # and spell words of several sums
        assert len(loop_type_d(delta)) < \
            sum(len(_loop_terms(c)) for _, c, _ in delta)
        assert any(len(ins) > 1 for _, ins, _ in ainf)
        P = TypeDStructure(circle, ones, [])
        for s, _, (coeff, _), t in entries:
            assert Morphism(P, P, _expand([(s, (), coeff, t)])).comps == \
                loop_elementary(s, coeff, t)

    def test_a_term_met_twice_cancels(self, z1):
        a, b = [d for d in algebra(z1).basis if not d.is_idempotent][:2]
        twice = AlgebraElement(z1, frozenset({a, b}))
        delta = [("x", twice, "x"), ("x", a, "x")]
        assert _expand([(s, (), c, t) for s, c, t in delta]) == \
            {("x", (), b, "x")} == loop_type_d(delta)


class TestTrackedLoopReduction:
    def test_composite_bimodule_tracking_through_series(self, az1, azbar1):
        # this reduction needs the correction series (parallel operations
        # with non-idempotent coefficients); the tracked equivalences must
        # stay honest morphisms with to . from the identity
        T = box_tensor(azbar1, az1)
        red = reduce_structure(T, track_from=True, track_to=True)
        assert len(red.reduced.generators) == 2
        assert red.from_reduced.is_cycle()
        assert red.to_reduced.is_cycle()
        round_trip = red.from_reduced.then(red.to_reduced)
        assert round_trip.comps == identity_morphism(red.reduced).comps


# ---------------------------------------------------------------------------
# the morphism calculus as it stood before the one-component ``_term_walk``
# and the prefix / f / suffix chain walk, kept as oracles


def two_loop_differential(f):
    """The morphism differential as two loops: every operation of the
    source into a component, then every component with its own terms."""
    S, T = f.source, f.target
    out_alg, in_alg = S.out_alg, S.in_alg
    comps_by_src = {}
    for comp in f.comps:
        comps_by_src.setdefault(comp[0], []).append(comp)
    acc = set()
    for (x, w1, a, y) in S.ops:
        for (_, w2, b, z) in comps_by_src.get(y, ()):
            if (c := out_alg.mul_basis(a, b)) is not None:
                toggle(acc, (x, w1 + w2, c, z))
    for (x, w1, a, y) in f.comps:
        for (_, w2, b, z) in T.ops_from(y):
            if (c := out_alg.mul_basis(a, b)) is not None:
                toggle(acc, (x, w1 + w2, c, z))
        for c in out_alg.diff_basis(a):
            toggle(acc, (x, w1, c, y))
        for pos in range(len(w1)):
            for b in in_alg.diff_preimages(w1[pos]):
                toggle(acc, (x, w1[:pos] + (b,) + w1[pos + 1:], a, y))
            for b1, b2 in in_alg.mul_preimages(w1[pos]):
                toggle(acc, (x, w1[:pos] + (b1, b2) + w1[pos + 1:], a, y))
    return acc


def per_element_mor_columns(mc):
    """The Mor differential assembled from one one-component morphism per
    basis element."""
    pos = {t: i for i, t in enumerate(mc.basis)}
    cols = []
    for comp in mc.basis:
        img = two_loop_differential(Morphism(mc.P, mc.Q, {comp}))
        cols.append(sum(1 << pos[t] for t in img))
    return tuple(cols)


def _chained_words(alg, start, end, max_len):
    """Idempotent-chained input words from ``start`` to ``end``, listed by
    length."""
    words = []
    frontier = [((), start)]
    for _ in range(max_len):
        frontier = [(word + (b,), alg.right_idem_of(b))
                    for word, at in frontier for b in alg.basis_from(at)]
        words += frontier
    return [w for w, at in [((), start)] + words if at == end]


def search_unknowns(A, B, max_arity):
    """The unknowns of the bounded search's linear system, in its order:
    every component, sorted by ``op_sort_key``."""
    out_alg, in_alg = A.out_alg, A.in_alg
    unknowns = []
    for src in A.generators:
        for dst in B.generators:
            for out in out_alg.basis_between(A.out_idem[src],
                                             B.out_idem[dst]):
                words = [()] if in_alg.is_trivial else _chained_words(
                    in_alg, A.in_idem[src], B.in_idem[dst], max_arity - 1)
                unknowns += [(src, w, out, dst) for w in words]
    return sorted(unknowns, key=A.op_sort_key)


def summed_search_columns(A, B, max_arity):
    """(rows, unknowns, columns) of the bounded search's linear system,
    rows in first-seen order, each column a sum of shifted ints: the
    search's own assembly must give the same ints."""
    unknowns = search_unknowns(A, B, max_arity)
    row = {}
    cols = tuple(sum(1 << row.setdefault(t, len(row))
                     for t in _term_walk(B, A)(e, set()))
                 for e in unknowns)
    return len(row), len(unknowns), cols


def per_element_search_system(A, B, max_arity):
    """(rows, unknowns, columns) of the bounded search's linear system,
    from one one-component morphism per unknown, with the rows in residue
    term order."""
    unknowns = search_unknowns(A, B, max_arity)
    residues = [two_loop_differential(Morphism(A, B, {e})) for e in unknowns]
    terms = sorted(set().union(*residues), key=B.op_sort_key)
    row = {t: i for i, t in enumerate(terms)}
    return (len(terms), len(unknowns),
            tuple(sum(1 << row[t] for t in img) for img in residues))


def assert_same_system(system, oracle):
    """The same equations over the same unknowns, rows in any order, and
    the same kernel basis: the search numbers its rows in first-seen
    order, the oracle in residue term order."""
    ours, theirs = F2Matrix(*system), F2Matrix(*oracle)
    assert (ours.nrows, ours.ncols) == (theirs.nrows, theirs.ncols)
    assert sorted(ours.transpose().cols) == sorted(theirs.transpose().cols)
    assert ours.nullspace_basis() == theirs.nullspace_basis()


class _Captured(Exception):
    pass


def captured_search_system(monkeypatch, run):
    """The arguments, the (rows, unknowns, columns) and the row lists of
    the first bounded search system that ``run`` assembles: the columns
    are the row lists read as the int columns of an F2Matrix, and the row
    lists are the ones the search hands its kernel.  The search stops
    there."""
    import bhfi.typea as typea
    seen = []
    real = typea.search_small_equivalence

    def search(A, B, max_arity=2):
        seen.append((A, B, max_arity))
        return real(A, B, max_arity)

    def kernel(cols):
        m = F2Matrix.from_entries(
            len({r for col in cols for r in col}), len(cols),
            ((r, j) for j, col in enumerate(cols) for r in col))
        seen.append((m.nrows, m.ncols, m.cols))
        seen.append(cols)
        raise _Captured

    monkeypatch.setattr(typea, "search_small_equivalence", search)
    monkeypatch.setattr(typea, "rows_nullspace", kernel)
    with pytest.raises(_Captured):
        run(typea)
    return seen[0], seen[1], seen[2]


def walker_box_morphism_right(B, f):
    """(Id_B x f) by the recursive walker with a used flag: at each letter
    of an operation's word, step along P1 (before f is used) or P2 (after),
    or insert one f component.  Also returns the insertion positions."""
    P1, P2 = f.source, f.target
    partners = {b: [p for p in P1.generators
                    if P1.out_idem[p] == B.in_idem[b]] for b in B.generators}
    fcomps_by_out = {}
    for comp in f.comps:
        fcomps_by_out.setdefault((comp[0], comp[2]), []).append(comp)
    comps, positions = set(), set()
    for (b, word, a, b2) in B.ops:
        for p in partners[b]:
            def walk(at, idx, ins_acc, used):
                if idx == len(word):
                    if used is not None:
                        positions.add((used, len(word)))
                        toggle(comps, (f"{b}|{p}", ins_acc, a, f"{b2}|{at}"))
                    return
                struct = P1 if used is None else P2
                for op in struct.ops_from_with_out(at, word[idx]):
                    walk(op[3], idx + 1, ins_acc + op[1], used)
                if used is None:
                    for comp in fcomps_by_out.get((at, word[idx]), ()):
                        walk(comp[3], idx + 1, ins_acc + comp[1], idx)

            walk(p, 0, (), None)
    return comps, positions


def seeded_right_factors(z1, seed, kind):
    """Random genus-1 B (A or DA, words of one to three chords) and a random
    f between random type D structures P1, P2.  Idempotents match, so the
    box tensors exist; the structure relations are not imposed."""
    rng = random.Random(seed)
    alg = algebra(z1)
    idems = [d.left_idem for d in alg.idempotent_diagrams]
    chords = [d for d in alg.basis if not d.is_idempotent]

    def at(idem_of, idem):
        return rng.choice([g for g, i in idem_of.items() if i == idem])

    def type_d(prefix):
        idem_of = {f"{prefix}{i}": idems[i % 2] for i in range(4)}
        ops = set()
        for a in rng.choices(chords, k=24):
            ops.add((at(idem_of, a.left_idem), (), a,
                     at(idem_of, a.right_idem)))
        return BorderedObject(alg, TRIVIAL, list(idem_of), idem_of,
                              dict.fromkeys(idem_of, TRIVIAL.UNIT), ops)

    P1, P2 = type_d("p"), type_d("q")
    f = Morphism(P1, P2, {(at(P1.out_idem, a.left_idem), (), a,
                           at(P2.out_idem, a.right_idem))
                          for a in rng.choices(alg.basis, k=8)})
    in_idem = {f"b{i}": idems[i % 2] for i in range(4)}
    out_idem = {g: rng.choice(idems) if kind == "DA" else TRIVIAL.UNIT
                for g in in_idem}
    out_alg = alg if kind == "DA" else TRIVIAL
    ops = set()
    for _ in range(24):
        word = [rng.choice(chords)]
        while len(word) < 3 and rng.random() < 0.8:
            word.append(rng.choice(alg.basis_from(word[-1].right_idem)))
        src = at(in_idem, word[0].left_idem)
        dst = at(in_idem, word[-1].right_idem)
        out = rng.choice(out_alg.basis_between(out_idem[src], out_idem[dst]))
        ops.add((src, tuple(word), out, dst))
    B = BorderedObject(out_alg, alg, list(in_idem), out_idem, in_idem, ops)
    return B, f


@pytest.fixture(scope="module")
def rungs(az1, cfd0):
    """az^n x cfd0 for n = 0..3."""
    out = [cfd0]
    for _ in range(3):
        out.append(box_tensor(az1, out[-1]))
    return out


class TestComponentDifferential:
    def test_mor_complex_on_the_rungs(self, rungs, cfd0, cfd_inf, cfd_m1):
        for rung in rungs:
            for torus in (cfd_inf, cfd_m1, cfd0):
                for P, Q in ((rung, torus), (torus, rung)):
                    mc = mor_complex_DD(P, Q)
                    assert mc.complex.d.cols == per_element_mor_columns(mc)

    def test_mor_complex_on_relabelled_genus_2_twist(self, az2, cfd0_k2):
        P = shuffled(box_tensor(az2, cfd0_k2), 21)
        for A, B in ((P, cfd0_k2), (cfd0_k2, P), (P, P)):
            mc = mor_complex_DD(A, B)
            assert mc.complex.d.cols == per_element_mor_columns(mc)

    def test_differential_of_sums(self, rungs, cfd_m1):
        rng = random.Random(5)
        mc = mor_complex_DD(rungs[3], cfd_m1)
        for _ in range(20):
            f = mc.morphism_of(rng.getrandbits(len(mc.basis)))
            assert f.differential().comps == two_loop_differential(f)

    def test_differential_with_inputs(self, z1, az1, azbar1):
        from bhfi import find_structure_equivalence
        f = find_structure_equivalence(identity_da(z1),
                                       box_tensor(az1, azbar1)).forward
        rng = random.Random(6)
        comps = sorted(f.comps, key=f.source.op_sort_key)
        for _ in range(10):
            g = Morphism(f.source, f.target,
                         {c for c in comps if rng.random() < 0.5})
            assert g.differential().comps == two_loop_differential(g)
        assert two_loop_differential(f) == set()

    def test_search_system_identity_to_composite(self, monkeypatch, z1, az1,
                                                 azbar1):
        target = box_tensor(az1, azbar1)
        (A, B, arity), system, _ = captured_search_system(
            monkeypatch, lambda eq: eq.search_small_equivalence(
                identity_da(z1), target))
        assert_same_system(system, per_element_search_system(A, B, arity))

    def test_search_system_genus_2_theta(self, monkeypatch, z2, cfa2, az2):
        (A, B, arity), system, _ = captured_search_system(
            monkeypatch, lambda eq: eq.find_structure_equivalence(
                box_tensor(cfa2, az2), cfa2))
        assert arity == 3
        assert_same_system(system, per_element_search_system(A, B, arity))
        assert system == summed_search_columns(A, B, arity)


class TestBoxMorphismRightChains:
    def test_surgery_map(self, az1):
        from bhfi.triangle import surgery_maps
        phi, _ = surgery_maps()
        comps, _ = walker_box_morphism_right(az1, phi)
        assert box_morphism_right(az1, phi).comps == comps

    @pytest.mark.parametrize("kind", ["A", "DA"])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_structures(self, z1, kind, seed):
        B, f = seeded_right_factors(z1, seed, kind)
        comps, positions = walker_box_morphism_right(B, f)
        got = box_morphism_right(B, f)
        assert got.comps == comps
        assert got.source.generators == box_tensor(B, f.source).generators
        assert got.target.generators == box_tensor(B, f.target).generators
        # f inserted mid-word: a non-empty prefix and a non-empty suffix
        assert (1, 3) in positions


# ---------------------------------------------------------------------------
# the cancellation as it stood with five hand-written product loops over
# three chain shapes, kept as the oracle of ``reduce_structure``


def five_loop_reduce_structure(S, track_from=False, track_to=False):
    import bisect

    from bhfi.morphisms import StructureReduction, _generator_map_comps
    from bhfi.structures import _toggle
    out_alg, in_alg = S.out_alg, S.in_alg
    ops = set(S.ops)
    alive = dict.fromkeys(S.generators)
    by_src, by_dst = {}, {}
    queue = []
    ranks = {}

    def is_candidate(op):
        return not op[1] and op[0] != op[3] and out_alg.is_idem(op[2])

    def enqueue(op):
        if is_candidate(op):
            rank = ranks.get(op)
            if rank is None:
                rank = ranks[op] = S.op_sort_key(op)
            bisect.insort(queue, (rank, op))

    def dequeue(op):
        if is_candidate(op):
            del queue[bisect.bisect_left(queue, (ranks[op],))]

    def add_op(op):
        if op in ops:
            ops.discard(op)
            by_src[op[0]].discard(op)
            by_dst[op[3]].discard(op)
            dequeue(op)
        else:
            ops.add(op)
            by_src.setdefault(op[0], set()).add(op)
            by_dst.setdefault(op[3], set()).add(op)
            enqueue(op)

    for op in S.ops:
        by_src.setdefault(op[0], set()).add(op)
        by_dst.setdefault(op[3], set()).add(op)
        if is_candidate(op):
            ranks[op] = S.op_sort_key(op)
    queue.extend(sorted((rank, op) for op, rank in ranks.items()))

    identity = _generator_map_comps(S, {g: g for g in S.generators})
    from_comps = {c[0]: {c} for c in identity} if track_from else None
    to_by_dst = {c[3]: {c} for c in identity} if track_to else None

    trace = []

    def chain_products(first_word, first_coeff, loops):
        results = []
        frontier = [(first_word, first_coeff)]
        while frontier:
            results += frontier
            frontier = [(word + ell[1], c)
                        for word, coeff in frontier for ell in loops
                        if (c := out_alg.mul_basis(coeff, ell[2])) is not None]
        return results

    while True:
        step = None
        for _, op in queue:
            x, _, unit_coeff, y = op
            loops = [o for o in by_src.get(x, ()) if o[3] == y and o != op]
            if any(out_alg.is_idem(l[2]) for l in loops):
                continue
            step = (op, loops)
            break
        if step is None:
            break
        cancel_op, loops = step
        x, _, unit_coeff, y = cancel_op
        into_y = [o for o in by_dst.get(y, ()) if o[0] not in (x, y)]
        from_x = [o for o in by_src.get(x, ()) if o[3] not in (x, y)]
        trace.append((x, y))

        heads = []
        for A in into_y:
            for word_a, coeff_a in chain_products(A[1], A[2], loops):
                heads.append((A[0], word_a, coeff_a))
        corrections = []
        for (src, word_a, coeff_a) in heads:
            for B in from_x:
                if (c := out_alg.mul_basis(coeff_a, B[2])) is not None:
                    corrections.append((src, word_a + B[1], c, B[3]))
        pieces = None
        if track_to:
            pieces = []
            for word_l, coeff_l in chain_products((), unit_coeff, loops):
                for B in from_x:
                    if (c := out_alg.mul_basis(coeff_l, B[2])) is not None:
                        pieces.append((word_l + B[1], c, B[3]))

        if track_from:
            tail_x = from_comps[x]
            for (s, w1, c1) in heads:
                acc = from_comps[s]
                for (_, w2, c2, orig) in tail_x:
                    if (c := out_alg.mul_basis(c1, c2)) is not None:
                        _toggle(acc, (s, w1 + w2, c, orig))
            del from_comps[x]
            del from_comps[y]
        if track_to:
            for (orig, w0, c0, _) in list(to_by_dst.get(y, ())):
                for (w1, c1, tgt) in pieces:
                    if (c := out_alg.mul_basis(c0, c1)) is not None:
                        _toggle(to_by_dst.setdefault(tgt, set()),
                                (orig, w0 + w1, c, tgt))
            to_by_dst[y] = set()
            to_by_dst[x] = set()

        for op in (by_src.get(x, set()) | by_dst.get(x, set())
                   | by_src.get(y, set()) | by_dst.get(y, set())):
            add_op(op)
        for op in corrections:
            add_op(op)
        del alive[x], alive[y]

    reduced = BorderedObject(out_alg, in_alg, tuple(alive),
                             {g: S.out_idem[g] for g in alive},
                             {g: S.in_idem[g] for g in alive}, ops)
    from_mor = None
    to_mor = None
    if track_from:
        comps = set()
        for g in alive:
            comps ^= from_comps[g]
        from_mor = Morphism(reduced, S, comps)
    if track_to:
        comps = set()
        for g, bucket in to_by_dst.items():
            if g in alive:
                comps ^= bucket
        to_mor = Morphism(S, reduced, comps)
    return StructureReduction(reduced, from_mor, to_mor, tuple(trace))


def assert_same_reduction(S):
    got = reduce_structure(S, track_from=True, track_to=True)
    want = five_loop_reduce_structure(S, track_from=True, track_to=True)
    assert got.reduced.generators == want.reduced.generators
    assert got.reduced.sorted_ops() == want.reduced.sorted_ops()
    assert got.trace == want.trace
    assert got.from_reduced.sorted_comps() == want.from_reduced.sorted_comps()
    assert got.to_reduced.sorted_comps() == want.to_reduced.sorted_comps()


class TestReduceStructureOracle:
    """``reduce_structure`` gives, tuple for tuple, the reduced structure,
    the trace and both tracked morphisms of the five-loop cancellation."""

    def test_standard_corpus(self, standard_corpus, az1, cfd0):
        # az^6 x cfd0 (4,181 generators) leaves thousands of stale and
        # repeated entries in the queue
        deep = cfd0
        for _ in range(6):
            deep = box_tensor(az1, deep)
        for S in (*standard_corpus, deep):
            assert_same_reduction(S)

    @pytest.mark.parametrize("seed", range(5))
    def test_relabelled_corpus(self, standard_corpus, seed):
        # fresh labels change the sort keys, and with them the queue order
        for S in standard_corpus:
            assert_same_reduction(shuffled(S, seed))

    def test_input_carrying_structures(self, z2, cfa2, az2, az1, azbar1):
        # azbar_k1 x az_k1 cancels pairs with parallel operations, so its
        # corrections and tracked maps run along the loops
        for S in (box_tensor(cfa2, cfda_azbar(z2)), box_tensor(cfa2, az2),
                  box_tensor(azbar1, az1)):
            assert_same_reduction(S)

    @pytest.mark.parametrize("seed", range(3))
    def test_involutive_a_reductions(self, z2, cfa2, involutive_a_cone, seed):
        # the two reductions of standard_involutive_a(cfa0_k2): M x azbar,
        # relabelled, and the DD side of psi's cone
        for S in (box_tensor(cfa2, cfda_azbar(z2)),
                  box_tensor_DD_side(involutive_a_cone, dd_identity(z2))):
            assert_same_reduction(shuffled(S, seed))

    @staticmethod
    def count_heap_calls(monkeypatch):
        """Wrap the module's ``heapq``: the pop count and each pushed
        operation, in order (``heapify`` is not counted)."""
        import heapq

        from bhfi import morphisms
        calls = {"pops": 0, "pushed": []}

        def heappop(heap):
            calls["pops"] += 1
            return heapq.heappop(heap)

        def heappush(heap, entry):
            calls["pushed"].append(entry[1])
            heapq.heappush(heap, entry)

        monkeypatch.setattr(morphisms, "heapq", SimpleNamespace(
            heapify=heapq.heapify, heappop=heappop, heappush=heappush))
        return calls

    @staticmethod
    def hand_built_module(ops):
        gens = tuple(sorted({g for op in ops for g in (op[0], op[3])}))
        return BorderedObject(TRIVIAL, algebra(split_pmc(1)), gens,
                              dict.fromkeys(gens, TRIVIAL.UNIT),
                              dict.fromkeys(gens, frozenset({1})), ops)

    def test_blocked_entries_are_pushed_back(self, z2, cfa2, monkeypatch):
        # a blocked operation goes back on the heap only when a correction
        # toggles away a loop between its ends
        M = box_tensor(cfa2, cfda_azbar(z2))
        assert_same_reduction(M)
        calls = self.count_heap_calls(monkeypatch)
        reduce_structure(M)
        assert (calls["pops"], len(calls["pushed"])) == (534, 54)
        # a -> e is blocked by its loop a -[r1.3]-> e until cancelling
        # c -> d corrects that loop away; that is the one push, and a -> e
        # cancels second
        r13 = next(b for b in algebra(split_pmc(1)).basis
                   if b.label == "r1.3")
        one = TRIVIAL.UNIT
        S = self.hand_built_module(
            {("a", (), one, "e"), ("a", (r13,), one, "e"),
             ("c", (), one, "d"), ("a", (r13,), one, "d"),
             ("c", (), one, "e")})
        assert_same_reduction(S)
        calls["pushed"].clear()
        assert reduce_structure(S).trace == (("c", "d"), ("a", "e"))
        assert calls["pushed"] == [("a", (), one, "e")]

    def test_requeued_entry_still_blocked(self, monkeypatch):
        # a -> e has two idempotent loops.  Cancelling c -> d corrects only
        # a -[r1.3]-> e away, so a -> e is queued, pops and is blocked again
        # by a -[r1.2, r2.3]-> e; cancelling f -> b corrects that one away
        # and a -> e cancels last
        by_label = {b.label: b for b in algebra(split_pmc(1)).basis}
        r13, r12, r23 = (by_label[k] for k in ("r1.3", "r1.2", "r2.3"))
        one = TRIVIAL.UNIT
        S = self.hand_built_module(
            {("a", (), one, "e"), ("a", (r13,), one, "e"),
             ("a", (r12, r23), one, "e"),
             ("c", (), one, "d"), ("a", (r13,), one, "d"),
             ("c", (), one, "e"),
             ("f", (), one, "b"), ("a", (r12, r23), one, "b"),
             ("f", (), one, "e")})
        assert_same_reduction(S)
        calls = self.count_heap_calls(monkeypatch)
        assert reduce_structure(S).trace == (("c", "d"), ("f", "b"),
                                             ("a", "e"))
        assert calls["pushed"] == [("a", (), one, "e")] * 2
        # without the second correction a -> e stays blocked for good
        T = self.hand_built_module(S.ops - {("f", (), one, "b"),
                                            ("a", (r12, r23), one, "b"),
                                            ("f", (), one, "e")})
        assert_same_reduction(T)
        calls["pushed"].clear()
        red = reduce_structure(T)
        assert red.trace == (("c", "d"),)
        assert ("a", (), one, "e") in red.reduced.ops
        assert calls["pushed"] == [("a", (), one, "e")]

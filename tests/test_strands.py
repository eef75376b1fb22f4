import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from bhfi import AlgebraElement, DivergenceError, algebra, split_pmc, tables
from bhfi.strands import (PointedMatchedCircle, StrandDiagram, StrandsAlgebra,
                          _inversions)
from bhfi.dd import tensor_algebra
from bhfi.structures import TRIVIAL, TrivialAlgebra


# two sets over the points of a genus-1 circle that are not two pairs
NOT_PAIRS = [[[1, 2, 3], [4]], [[1, 2, 3, 4], []]]


def chord(circle, i, j):
    """The chord a(rho_{i,j}): the sum of its terms."""
    return AlgebraElement(circle, algebra(circle).chord_terms(i, j))


def chords(circle):
    """Every chord a(rho_{i,j}), i < j, in lexicographic order."""
    points = range(1, circle.n_points + 1)
    return [chord(circle, i, j) for i in points for j in points if i < j]


def unit(circle):
    return AlgebraElement(circle, algebra(circle).idempotent_diagrams)


def include_split(elements):
    """Embed a k-tuple of genus-1 elements block-diagonally into genus k:
    the oracle for the genus-k handlebodies built block by block."""
    if not elements:
        raise ValueError("need at least one tensor factor")
    k = len(elements)
    z1 = split_pmc(1)
    for e in elements:
        if e.circle != z1:
            raise ValueError("factors must lie over the genus-1 split circle")
    zk = split_pmc(k)
    alg = algebra(zk)
    acc = {()}
    for e in elements:
        acc = {prefix + (t,) for prefix in acc for t in e.terms}
    out = set()
    for combo in acc:
        moving = []
        horiz = set()
        for idx, diag in enumerate(combo):
            moving += [(i + 4 * idx, j + 4 * idx) for i, j in diag.moving]
            horiz |= {p + 2 * idx for p in diag.horizontal}
        out ^= {alg.diagram(moving, horiz)}
    return AlgebraElement(zk, frozenset(out))


def count_basis(alg):
    """The number of basis diagrams, counted by the algebra's sweep
    without building one."""
    keys = alg.idem_keys
    return sum(alg._sweep(x, y, 1) for x in keys for y in keys)


def brute_force_basis_count(circle):
    """Independent generator-and-filter enumeration: all increasing partial
    injections on points with the matched-pair constraints, times the
    horizontal completions."""
    pts = range(1, circle.n_points + 1)
    count = 0
    for m in range(circle.k + 1):
        for srcs in itertools.combinations(pts, m):
            for dsts in itertools.permutations(pts, m):
                if any(s >= t for s, t in zip(srcs, dsts)):
                    continue
                spairs = [circle.pair_label(s) for s in srcs]
                tpairs = [circle.pair_label(t) for t in dsts]
                if len(set(spairs)) != m or len(set(tpairs)) != m:
                    continue
                used = set(spairs) | set(tpairs)
                free = [p for p in circle.pairs if p not in used]
                count += sum(1 for _ in
                             itertools.combinations(free, circle.k - m))
    return count


class TestCircle:
    def test_split_genus_1(self, z1):
        assert z1.n_points == 4
        assert z1.matching == ((1, 3), (2, 4))

    def test_split_genus_2(self, z2):
        assert z2.matching == ((1, 3), (2, 4), (5, 7), (6, 8))

    def test_invalid_genus(self):
        with pytest.raises(ValueError):
            split_pmc(0)

    def test_genus_50000_fits_the_default_cap(self, monkeypatch):
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        assert split_pmc(50000).n_points == 200000
        with pytest.raises(DivergenceError, match=re.escape(
                "split_pmc: 200004 points exceed BHFI_MAX_GENERATORS=200000")):
            split_pmc(50001)

    def test_matching_must_be_fixed_point_free(self):
        with pytest.raises(ValueError):
            PointedMatchedCircle(1, ((1, 1), (2, 3)))

    @pytest.mark.parametrize("matching", NOT_PAIRS, ids=json.dumps)
    def test_matching_must_be_pairs(self, matching):
        # two sets that cover the points 1..4 once passed as a matching
        with pytest.raises(ValueError, match="^matching must consist of "
                           "2k pairs$"):
            PointedMatchedCircle(1, matching)

    def test_reverse_is_involutive(self, z1, z2):
        for z in (z1, z2):
            assert z.reverse().reverse() == z
            assert z.reverse() != z

    def test_reflection_symmetry(self, z1, z2):
        # the reversed split circle has the same matching, so the circles
        # agree after forgetting the orientation flag
        for z in (z1, z2):
            assert z.reverse().matching == z.matching

    def test_json_round_trip(self, z2):
        from bhfi.files import circle_from_json
        assert circle_from_json(z2.to_json()) == z2


class TestBasis:
    def test_genus_1_has_eight_elements(self, z1):
        basis = algebra(z1).basis
        assert len(basis) == 8

    def test_genus_1_element_names(self, z1):
        labels = {d.label for d in algebra(z1).basis}
        assert labels == {"h1", "h2", "r1.2", "r2.3", "r3.4",
                          "r1.3", "r2.4", "r1.4"}

    def test_genus_2_count_matches_brute_force(self, z2):
        assert len(algebra(z2).basis) == brute_force_basis_count(z2)

    def test_genus_1_count_matches_brute_force(self, z1):
        assert len(algebra(z1).basis) == brute_force_basis_count(z1)

    def test_canonical_order_is_stable(self, z2):
        first = [d.label for d in algebra(z2).basis]
        second = [d.label for d in algebra(split_pmc(2)).basis]
        assert first == second

    def test_idempotent_absorption(self, z1):
        alg = algebra(z1)
        for b in alg.basis:
            left = AlgebraElement(z1, [alg.idempotent(b.left_idem)])
            right = AlgebraElement(z1, [alg.idempotent(b.right_idem)])
            eb = AlgebraElement(z1, [b])
            assert left * eb * right == eb


class TestChordElements:
    def test_genus_1_chord_is_single_diagram(self, z1):
        el = chord(z1, 1, 3)
        assert {d.label for d in el.terms} == {"r1.3"}
        assert {d.label for d in chord(z1, 1, 2).terms} == {"r1.2"}

    def test_invalid_endpoints(self, z1):
        with pytest.raises(ValueError):
            chord(z1, 3, 1)
        with pytest.raises(ValueError):
            chord(z1, 2, 2)

    def test_genus_2_completions_brute_force(self, z2):
        el = chord(z2, 1, 2)
        expected = {d for d in algebra(z2).basis
                    if d.moving == ((1, 2),)}
        assert el.terms == expected

    def test_same_pair_chord_completions(self, z2):
        el = chord(z2, 1, 3)
        assert {frozenset(d.horizontal) for d in el.terms} == \
            {frozenset({2}), frozenset({3}), frozenset({4})}


class TestMultiplication:
    def test_known_products(self, z1):
        r = lambda i, j: chord(z1, i, j)
        assert r(1, 2) * r(2, 3) == r(1, 3)
        alg = algebra(z1)
        i0 = AlgebraElement(z1, [alg.idempotent({1})])
        i1 = AlgebraElement(z1, [alg.idempotent({2})])
        assert i0 * r(1, 2) * i1 == r(1, 2)
        assert not r(1, 2) * r(1, 2)

    def test_unit(self, z1, z2):
        for z in (z1, z2):
            one = unit(z)
            for b in algebra(z).basis:
                eb = AlgebraElement(z, [b])
                assert one * eb == eb
                assert eb * one == eb

    def test_orthogonal_idempotents(self, z1):
        idems = algebra(z1).idempotent_diagrams
        for a in idems:
            for b in idems:
                prod = AlgebraElement(z1, [a]) * AlgebraElement(z1, [b])
                if a == b:
                    assert prod == AlgebraElement(z1, [a])
                else:
                    assert not prod

    def test_associativity_exhaustive_genus_1(self, z1):
        els = [AlgebraElement(z1, [b]) for b in algebra(z1).basis]
        for x in els:
            for y in els:
                for z in els:
                    assert (x * y) * z == x * (y * z)

    def test_associativity_sampled_genus_2(self, z2):
        rng = random.Random(20260809)
        basis = algebra(z2).basis
        for _ in range(500):
            x, y, z = (AlgebraElement(z2, [rng.choice(basis)])
                       for _ in range(3))
            assert (x * y) * z == x * (y * z)


class TestDifferential:
    def test_genus_1_vanishes(self, z1):
        for b in algebra(z1).basis:
            assert not AlgebraElement(z1, [b]).d()

    def test_idempotents_closed(self, z2):
        for d in algebra(z2).idempotent_diagrams:
            assert not AlgebraElement(z2, [d]).d()

    def test_genus_2_crossing_resolution(self, z2):
        # two moving strands with a crossing; the expected value comes from
        # an independent single-swap enumeration
        diag = StrandDiagram(z2, ((1, 6), (2, 3)), frozenset())
        expected = set()
        strands = list(diag.moving)
        for a, b in itertools.combinations(range(len(strands)), 2):
            (i1, j1), (i2, j2) = strands[a], strands[b]
            if (i1 - i2) * (j1 - j2) >= 0:
                continue
            rest = [s for k, s in enumerate(strands) if k not in (a, b)]
            expected.add(StrandDiagram(
                z2, tuple(rest + [(i1, j2), (i2, j1)]), frozenset()))
        assert AlgebraElement(z2, [diag]).d().terms == expected
        assert expected  # the chosen diagram really has a crossing

    def test_d_squared_full_basis(self, z1, z2):
        for z in (z1, z2):
            for b in algebra(z).basis:
                assert not AlgebraElement(z, [b]).d().d()

    def test_leibniz_full_genus_2(self, z2):
        els = [AlgebraElement(z2, [b]) for b in algebra(z2).basis]
        for x in els:
            for y in els:
                assert (x * y).d() == x.d() * y + x * y.d()


class TestNilpotency:
    def test_exhaustive_products_of_seven_chords(self, z1):
        every = chords(z1)
        frontier = [unit(z1)]
        for _ in range(7):
            frontier = [p for v in frontier for c in every if (p := v * c)]
            if not frontier:
                break
        assert not frontier


class TestSplitMaps:
    def test_inclusion_example(self, z1):
        rho13 = chord(z1, 1, 3)
        i0 = AlgebraElement(z1, [algebra(z1).idempotent({1})])
        image = include_split([rho13, i0])
        assert {d.label for d in image.terms} == {"r1.3_h3"}

    def test_inclusion_length_mismatch(self):
        with pytest.raises(ValueError):
            include_split([])


_HASH_SCRIPT = """
import json, sys
from bhfi.strands import PointedMatchedCircle, algebra
specs, reverse = json.load(sys.stdin)
out = {}
order = reversed if reverse else iter
for index, (k, matching, flipped, diagrams) in order(list(enumerate(specs))):
    alg = algebra(PointedMatchedCircle(k, tuple(map(tuple, matching)),
                                       flipped))
    for moving, horizontal in order(diagrams):
        d = alg.diagram(moving, horizontal)
        out[repr((index, d.moving, sorted(d.horizontal)))] = hash(d)
print(json.dumps(out, sort_keys=True))
"""


def _hashes_in_fresh_process(specs, hash_seed, reverse):
    """The hash of every listed diagram, made in a fresh interpreter under
    ``PYTHONHASHSEED=hash_seed``, in reverse order when ``reverse``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _HASH_SCRIPT],
                          input=json.dumps([specs, reverse]), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestInterning:
    def test_one_object_per_diagram(self, z2):
        alg = algebra(z2)
        assert alg.diagram(((1, 6), (2, 3))) is alg.diagram([(2, 3), (1, 6)])
        assert alg.diagram((), {1, 2}) is alg.idempotent({1, 2})

    def test_products_and_differentials_return_basis_objects(self, z2):
        alg = algebra(z2)
        own = {d: d for d in alg.basis}
        for a in alg.basis:
            for c in alg.diff_basis(a):
                assert own[c] is c
            for b in alg.basis:
                c = alg.mul_basis(a, b)
                assert c is None or own[c] is c

    def test_hashes_repeat_across_seeds_and_creation_order(self):
        # set iteration orders, and with them the report bytes, follow the
        # diagram hashes: they must not depend on the hash seed or on the
        # order the diagrams are made in
        circles = [ORACLE_CIRCLES[name]() for name in sorted(ORACLE_CIRCLES)]
        specs = [[z.k, z.matching, z.reversed_orientation,
                  [[d.moving, sorted(d.horizontal)]
                   for d in StrandsAlgebra(z).basis]] for z in circles]
        runs = [_hashes_in_fresh_process(specs, "0", reverse=False),
                _hashes_in_fresh_process(specs, "1", reverse=True)]
        assert runs[0] == runs[1]
        assert len(runs[0]) == sum(len(s[3]) for s in specs)

    def test_direct_construction_equals_interned(self, z2):
        alg = algebra(z2)
        for d in alg.basis:
            copy = StrandDiagram(z2, d.moving, d.horizontal)
            assert copy is not d
            assert copy == d and not copy != d and hash(copy) == hash(d)
            assert alg.mul_basis(copy, copy) == alg.mul_basis(d, d)

    @pytest.mark.parametrize("label", [0, 3, 99, True, 1.0, "1", None])
    def test_horizontal_labels_are_pairs_of_the_circle(self, z1, label):
        # 99 once built a diagram whose products raised an IndexError
        with pytest.raises(ValueError, match="no matched pair"):
            StrandDiagram(z1, (), {label})

    @pytest.mark.parametrize("strand", [(True, 3), (1.0, 3), (0, 3), (1, 5),
                                        ("1", 3), (1, 2, 3)], ids=repr)
    def test_strand_endpoints_are_points_of_the_circle(self, z1, strand):
        with pytest.raises(ValueError, match=re.escape(
                f"strand {list(strand)!r} is not two points")):
            StrandDiagram(z1, (strand,), ())

    def test_different_circles_are_unequal(self, z1):
        other = z1.reverse()
        assert StrandDiagram(z1, (), {1}) != StrandDiagram(other, (), {1})
        assert algebra(z1).idempotent({1}) != algebra(other).idempotent({1})

    def test_cached_derived_data(self, z2):
        for d in algebra(z2).basis:
            left = frozenset(z2.pair_label(i) for i, _ in d.moving)
            right = frozenset(z2.pair_label(j) for _, j in d.moving)
            assert d.left_idem == left | d.horizontal
            assert d.right_idem == right | d.horizontal
            assert d.sort_key() == (tuple(sorted(d.left_idem)), d.moving,
                                    tuple(sorted(d.horizontal)))

    def test_invalid_diagram_is_not_interned(self, z1):
        alg = algebra(z1)
        with pytest.raises(ValueError):
            alg.diagram(((1, 3),), {2})
        assert (((1, 3),), frozenset({2})) not in alg._diagrams


class TestIntegerDiagrams:
    def test_hash_is_the_int_hash(self):
        assert StrandDiagram.__hash__ is int.__hash__

    def test_codes_are_distinct_within_a_circle(self):
        circles = [make() for make in ORACLE_CIRCLES.values()]
        for z in circles + [split_pmc(3)]:
            basis = StrandsAlgebra(z).basis
            assert len(set(map(int, basis))) == len(basis)
        assert len(basis) == 12448

    def test_every_diagram_is_truthy(self):
        for make in ORACLE_CIRCLES.values():
            assert all(StrandsAlgebra(make()).basis)

    def test_never_equal_to_a_bare_int(self, z2):
        for d in algebra(z2).basis:
            code = int(d)
            assert d != code and code != d
            assert not d == code and not code == d
            assert type(code) is int and hash(code) == hash(d)

    def test_equal_codes_on_two_circles_are_unequal(self, z2):
        other = z2.reverse()
        for d in algebra(z2).basis:
            twin = algebra(other).diagram(d.moving, d.horizontal)
            assert int(twin) == int(d)
            assert twin != d and not twin == d


class TestLazyTables:
    def test_basis_between_builds_no_products(self):
        alg = StrandsAlgebra(split_pmc(2))
        keys = alg.idem_keys
        total = sum(len(alg.basis_between(x, y)) for x in keys for y in keys)
        assert total == len(alg.basis)
        assert alg._mul_cache == {}
        assert alg._tables is None

    def test_preimages_in_basis_order(self):
        # the order the tables had when basis_between built them: a, then
        # b, each over the canonical basis
        alg = StrandsAlgebra(split_pmc(2))
        basis = alg.basis
        mul_pre = {c: [] for c in basis}
        diff_pre = {c: [] for c in basis}
        for a in basis:
            for c in alg.diff_basis(a):
                diff_pre[c].append(a)
            for b in basis:
                if (c := alg.mul_basis(a, b)) is not None:
                    mul_pre[c].append((a, b))
        for c in basis:
            assert alg.mul_preimages(c) == tuple(mul_pre[c])
            assert alg.diff_preimages(c) == tuple(diff_pre[c])


# Products and differentials as they were computed before both were composed
# on smeared diagrams: expand each factor into its point-level placements
# (frozensets of strands (i, j), i <= j, where (q, q) is a horizontal strand
# pinned at q), work there, and regroup.  Kept here as the oracle.

def expansions(diag):
    """All point-level placements of the smeared horizontal strands."""
    Z = diag.circle
    choices = [Z.pair_points(p) for p in sorted(diag.horizontal)]
    return [frozenset(diag.moving) | frozenset((p, p) for p in pick)
            for pick in itertools.product(*choices)]


def _collect(alg, point_diagrams):
    """Regroup an F2 set of point-level diagrams into smeared basis terms;
    every group of placements must be complete."""
    groups = {}
    for pd in point_diagrams:
        moving = tuple(sorted((i, j) for i, j in pd if i < j))
        horiz = frozenset(alg.circle.pair_label(i) for i, j in pd if i == j)
        groups.setdefault((moving, horiz), set()).add(pd)
    out = set()
    for (moving, horiz), got in groups.items():
        diag = alg.diagram(moving, horiz)
        if set(expansions(diag)) != got:
            raise AssertionError("incomplete smeared group; not in the algebra")
        out.add(diag)
    return frozenset(out)


def _mul_points(x, y):
    """Compose two point-level diagrams; None when the product vanishes."""
    if {j for _, j in x} != {i for i, _ in y}:
        return None
    cont = {i: j for i, j in y}
    out = frozenset((i, cont[j]) for i, j in x)
    if _inversions(out) != _inversions(x) + _inversions(y):
        return None
    return out


def expanded_product(alg, a, b):
    acc = set()
    if a.right_idem == b.left_idem:
        for xa in expansions(a):
            for xb in expansions(b):
                prod = _mul_points(xa, xb)
                if prod is not None:
                    acc ^= {prod}
    return _collect(alg, acc)


def _diff_points(x):
    """Single-crossing resolutions that drop the crossing number by one."""
    inv_x = _inversions(x)
    out = []
    for s1, s2 in itertools.combinations(sorted(x), 2):
        (i1, j1), (i2, j2) = s1, s2
        if (i1 - i2) * (j1 - j2) >= 0:
            continue
        res = (x - {s1, s2}) | {(i1, j2), (i2, j1)}
        if len(res) == len(x) and _inversions(res) == inv_x - 1:
            out.append(res)
    return out


def expanded_diff(alg, a):
    acc = set()
    for xa in expansions(a):
        for res in _diff_points(xa):
            acc ^= {res}
    return _collect(alg, acc)


ORACLE_CIRCLES = {
    "split genus 1": lambda: split_pmc(1),
    "split genus 2": lambda: split_pmc(2),
    "reversed split genus 2": lambda: split_pmc(2).reverse(),
    "antipodal genus 2": lambda: PointedMatchedCircle(
        2, ((1, 5), (2, 6), (3, 7), (4, 8))),
    "mixed genus 2": lambda: PointedMatchedCircle(
        2, ((1, 6), (2, 4), (3, 8), (5, 7))),
}


class TestSmearedProducts:
    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCLES))
    def test_every_ordered_pair_matches_the_expansion(self, name):
        alg = StrandsAlgebra(ORACLE_CIRCLES[name]())
        for a in alg.basis:
            for b in alg.basis:
                got = alg.mul_basis(a, b)
                assert (set() if got is None else {got}) == \
                    expanded_product(alg, a, b), (a, b)
                assert got is None or isinstance(got, StrandDiagram)

    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCLES))
    def test_preimages_in_full_scan_order(self, name):
        alg = StrandsAlgebra(ORACLE_CIRCLES[name]())
        basis = alg.basis
        mul_pre = {c: [] for c in basis}
        for a in basis:
            for b in basis:
                for c in expanded_product(alg, a, b):
                    mul_pre[c].append((a, b))
        for c in basis:
            assert alg.mul_preimages(c) == tuple(mul_pre[c])

    def test_sampled_genus_3_composable_pairs(self):
        alg = StrandsAlgebra(split_pmc(3))
        rng = random.Random(20261018)
        nonzero = 0
        for _ in range(1500):
            a = rng.choice(alg.basis)
            b = rng.choice(alg.basis_from(a.right_idem))
            got = alg.mul_basis(a, b)
            assert (set() if got is None else {got}) == \
                expanded_product(alg, a, b), (a, b)
            nonzero += got is not None
        assert nonzero > 100

    def test_basis_from_groups_by_left_idempotent(self, z2):
        alg = StrandsAlgebra(z2)
        for idem in alg.idem_keys:
            assert alg.basis_from(idem) == tuple(
                d for d in alg.basis if d.left_idem == idem)


class TestPartialProducts:
    """A product of basis elements is one basis element or None, in every
    algebra of the generic interface; the strands cache keeps None for a
    zero product and the interned diagram otherwise."""

    @staticmethod
    def assert_cache_holds_interned_or_none(alg):
        own = {d: d for d in alg.basis}
        values = list(alg._mul_cache.values())
        assert None in values
        assert all(v is None or own[v] is v for v in values)
        return values

    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCLES))
    def test_tables_cache_interned_diagrams_or_none(self, name):
        alg = StrandsAlgebra(ORACLE_CIRCLES[name]())
        alg._ensure_tables()
        values = self.assert_cache_holds_interned_or_none(alg)
        assert len(values) == sum(len(alg.basis_from(a.right_idem))
                                  for a in alg.basis)

    def test_sampled_genus_3_cache(self):
        alg = StrandsAlgebra(split_pmc(3))
        rng = random.Random(20261019)
        for _ in range(1000):
            a = rng.choice(alg.basis)
            alg.mul_basis(a, rng.choice(alg.basis))
            alg.mul_basis(a, rng.choice(alg.basis_from(a.right_idem)))
        values = self.assert_cache_holds_interned_or_none(alg)
        assert any(v is not None for v in values)

    def test_mul_many_folds_to_one_element_or_none(self, z2):
        alg = algebra(z2)
        rng = random.Random(7)
        for _ in range(300):
            a, b, c = (rng.choice(alg.basis) for _ in range(3))
            ab = alg.mul_basis(a, b)
            want = None if ab is None else alg.mul_basis(ab, c)
            assert alg.mul_many([a, b, c]) is want
        assert alg.mul_many([alg.basis[-1]]) is alg.basis[-1]

    def test_tensor_product_is_a_pair_or_none(self, z2):
        alg = algebra(z2)
        tensor = tensor_algebra(alg, alg)
        rng = random.Random(11)
        nonzero = 0
        for _ in range(500):
            a, b = [(rng.choice(alg.basis), rng.choice(alg.basis))
                    for _ in range(2)]
            left, right = (alg.mul_basis(a[i], b[i]) for i in (0, 1))
            got = tensor.mul_basis(a, b)
            if left is None or right is None:
                assert got is None
            else:
                assert type(got) is tuple
                assert got[0] is left and got[1] is right
                nonzero += 1
        assert nonzero > 0

    def test_trivial_product_is_the_unit(self):
        unit = TrivialAlgebra.UNIT
        assert TRIVIAL.mul_basis(unit, unit) is unit


def oracle_basis(circle):
    """The whole basis from an independent enumeration: every set of at
    most k strands on points with distinct start and end pairs, times the
    horizontal completions, sorted by the diagrams' sort key."""
    alg = StrandsAlgebra(circle)
    strands = list(itertools.combinations(range(1, circle.n_points + 1), 2))
    out = []
    for m in range(circle.k + 1):
        for combo in itertools.combinations(strands, m):
            srcs = {circle.pair_label(i) for i, _ in combo}
            dsts = {circle.pair_label(j) for _, j in combo}
            if len(srcs) != m or len(dsts) != m:
                continue
            free = [p for p in circle.pairs if p not in srcs | dsts]
            out += [alg.diagram(combo, h)
                    for h in itertools.combinations(free, circle.k - m)]
    return sorted(out, key=StrandDiagram.sort_key)


LISTED_CIRCLES = dict(ORACLE_CIRCLES, **{"split genus 3":
                                         lambda: split_pmc(3)})


class TestListings:
    """Each listing is the whole basis filtered, in the whole basis's
    order, and is refused past the cap by its own count."""

    @pytest.mark.parametrize("name", sorted(LISTED_CIRCLES))
    def test_listings_filter_the_whole_basis(self, name):
        circle = LISTED_CIRCLES[name]()
        whole = oracle_basis(circle)
        alg = StrandsAlgebra(circle)
        keys = alg.idem_keys
        assert keys == tuple(d.left_idem for d in whole if d.is_idempotent)
        assert alg.idempotent_diagrams == tuple(
            d for d in whole if d.is_idempotent)
        for x in keys:
            assert alg.basis_from(x) == tuple(
                d for d in whole if d.left_idem == x)
            assert alg.basis_into(x) == tuple(
                d for d in whole if d.right_idem == x)
        between = {}
        for d in whole:
            between.setdefault((d.left_idem, d.right_idem), []).append(d)
        for x in keys:
            for y in keys:
                assert alg.basis_between(x, y) == tuple(
                    between.get((x, y), ()))
        assert alg.basis == tuple(whole)

    def test_a_listing_is_refused_by_its_own_count(self, monkeypatch, z2):
        x, y = frozenset({1, 3}), frozenset({2, 4})
        for listing, size in (("basis_between", 9), ("basis_from", 45),
                              ("basis_into", 21)):
            alg = StrandsAlgebra(z2)
            args = (x, y) if listing == "basis_between" else (x,)
            monkeypatch.setenv("BHFI_MAX_GENERATORS", str(size - 1))
            with pytest.raises(DivergenceError) as err:
                getattr(alg, listing)(*args)
            assert str(err.value) == (f"strands basis: {size} diagrams "
                                      f"exceed BHFI_MAX_GENERATORS={size - 1}")
            assert alg._diagrams == {}
            monkeypatch.setenv("BHFI_MAX_GENERATORS", str(size))
            assert len(getattr(alg, listing)(*args)) == size

    def test_idempotents_are_refused_by_their_count(self, monkeypatch, z2):
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "5")
        with pytest.raises(DivergenceError, match=re.escape(
                "strands basis: 6 idempotents exceed BHFI_MAX_GENERATORS=5")):
            StrandsAlgebra(z2).idem_keys

    def test_a_huge_listing_is_counted_not_listed(self, monkeypatch):
        # genus 447, the largest handlebody under the default cap: 2^447
        # diagrams from its idempotent to itself, one per subset of pairs
        # carrying a strand, counted in one pass over the points
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        alg = StrandsAlgebra(split_pmc(447))
        odd = frozenset(range(1, 2 * 447, 2))
        assert alg._sweep(odd, odd, 1) == 2 ** 447
        with pytest.raises(DivergenceError) as err:
            alg.basis_between(odd, odd)
        assert str(err.value) == ("strands basis: at least 10^134 diagrams "
                                  "exceed BHFI_MAX_GENERATORS=200000")
        assert alg._diagrams == {}


class TestBasisGuard:
    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCLES))
    def test_count_matches_the_basis(self, name):
        alg = StrandsAlgebra(ORACLE_CIRCLES[name]())
        assert count_basis(alg) == len(alg.basis)

    def test_counts_at_genus_3_and_4(self):
        assert count_basis(StrandsAlgebra(split_pmc(3))) == 12448
        assert count_basis(StrandsAlgebra(split_pmc(4))) == 948390

    def test_cap_below_the_basis_raises(self, monkeypatch, z2):
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "237")
        alg = StrandsAlgebra(z2)
        with pytest.raises(DivergenceError) as err:
            alg.basis
        assert str(err.value) == ("strands basis: 238 diagrams exceed "
                                  "BHFI_MAX_GENERATORS=237")
        assert alg._diagrams == {}
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "238")
        assert len(alg.basis) == 238


class TestOversizedCircles:
    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCLES))
    def test_lower_bound_below_the_count(self, name):
        alg = StrandsAlgebra(ORACLE_CIRCLES[name]())
        assert tables._basis_lower_bound(alg) <= count_basis(alg)

    def test_lower_bound_at_genus_1_to_5(self):
        bounds = [tables._basis_lower_bound(StrandsAlgebra(split_pmc(k)))
                  for k in range(1, 6)]
        # exact at genus 1; below the counts 238, 12448, 948390 after it,
        # and past the default cap from genus 5 on
        assert bounds == [8, 114, 1880, 22750, 215712]

    def test_basis_refused_from_the_bound(self, monkeypatch):
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        alg = StrandsAlgebra(split_pmc(30))
        with pytest.raises(DivergenceError) as err:
            alg.basis
        assert str(err.value).startswith("strands basis: at least ")
        assert str(err.value).endswith(" diagrams exceed "
                                       "BHFI_MAX_GENERATORS=200000")
        assert alg._diagrams == {}

    def test_sizes_past_100_digits_print_as_a_bound(self):
        from bhfi.errors import size_text
        assert size_text(12471888) == "12471888"
        assert size_text(12471888, lower_bound=True) == "at least 12471888"
        assert size_text(10 ** 100 - 1) == "9" * 100
        for size in (10 ** 100, 10 ** 100 + 1, 2 * 10 ** 100):
            assert size_text(size) == "at least 10^100"
        assert size_text(10 ** 101 - 1, lower_bound=True) == "at least 10^100"
        assert size_text(10 ** 5000 - 1) == "at least 10^4999"
        assert size_text(10 ** 5000) == "at least 10^5000"
        assert size_text(2 ** 100000) == "at least 10^30102"
        assert size_text(math.comb(15000, 7500)) == "at least 10^4513"

    def test_diff_basis_needs_no_placement_cap(self, monkeypatch, z2):
        # the differential never expands the 2^h placements, so a cap below
        # them does not bind it
        alg = StrandsAlgebra(z2)
        elements = alg.basis_from({1, 2})
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "3")
        for a in elements:
            assert alg.diff_basis(a) == expanded_diff(alg, a), a
        assert alg.diff_basis(alg.idempotent({1, 2})) == frozenset()

    def test_product_with_many_shared_horizontals(self):
        # 18 shared horizontal pairs: the placements are never expanded
        k = 20
        alg = StrandsAlgebra(split_pmc(k))
        odd = frozenset(range(1, 2 * k + 1, 2))
        a = alg.diagram(((1, 3),), odd - {1})
        b = alg.diagram(((5, 7),), odd - {3})
        both = alg.diagram(((1, 3), (5, 7)), odd - {1, 3})
        assert alg.mul_basis(a, b) is alg.mul_basis(b, a) is both

    def test_differential_with_many_shared_horizontals(self):
        # 19 horizontals under one long strand, 2^19 placements, never
        # expanded: breaking the strand at either point of one pair drops
        # one crossing for every placement of the other 18
        k = 20
        alg = StrandsAlgebra(split_pmc(k))
        under = frozenset(range(3, 2 * k, 2))
        long = alg.diagram(((1, 4 * k),), under)
        assert alg.diff_basis(long) == {
            alg.diagram(((1, q), (q, 4 * k)), under - {p})
            for p in under for q in alg.circle.pair_points(p)}
        # 18 horizontals beside a crossing: the one swap stays
        beside = frozenset(range(5, 2 * k + 1, 2))
        crossing = alg.diagram(((1, 4), (2, 3)), beside)
        assert alg.diff_basis(crossing) == {
            alg.diagram(((1, 3), (2, 4)), beside)}


class TestSmearedDifferential:
    @pytest.mark.parametrize("name", sorted(ORACLE_CIRCLES) + ["split genus 3"])
    def test_every_basis_element_matches_the_expansion(self, name):
        circle = (ORACLE_CIRCLES[name] if name in ORACLE_CIRCLES
                  else lambda: split_pmc(3))()
        alg = StrandsAlgebra(circle)
        nonzero = 0
        for a in alg.basis:
            got = alg.diff_basis(a)
            assert got == expanded_diff(alg, a), a
            nonzero += bool(got)
        assert nonzero or name == "split genus 1"

"""Constructors for the standard modules and bimodules: solid tori and
handlebodies in both flavors, the DD identity, the interpolating-piece DA
bimodules, and the surgery morphisms between the three solid-torus framings.
"""
from __future__ import annotations

import itertools

from .strands import AlgebraElement, algebra, split_pmc, split_factors
from .structures import (AInfModule, DABimodule, DDBimodule, Morphism,
                         TypeDStructure)


def _diagram(circle, moving=(), horizontal=()):
    return algebra(circle).diagram(moving, horizontal)


def torus_chord(i, j):
    """Genus-1 chord as a single diagram (no completions exist)."""
    return _diagram(split_pmc(1), [(i, j)])


def cfd_solid_torus(framing):
    """Type D structures of the three solid-torus framings.

    infinity: one generator r with a degree-one self operation through the
    even chord; minus_one: two generators a, b; zero: one generator n.
    """
    z1 = split_pmc(1)
    if framing == "infinity":
        return TypeDStructure(z1, [("r", {2})],
                              [("r", torus_chord(2, 4), "r")])
    if framing == "minus_one":
        coeff = AlgebraElement(z1, frozenset({torus_chord(1, 2),
                                              torus_chord(3, 4)}))
        return TypeDStructure(z1, [("a", {1}), ("b", {2})],
                              [("a", coeff, "b")])
    if framing == "zero":
        return TypeDStructure(z1, [("n", {1})],
                              [("n", torus_chord(1, 3), "n")])
    raise ValueError("framing must be one of infinity, minus_one, zero")


def cfd_zero_handlebody(k):
    """The standard one-generator type D structure of the 0-framed
    genus-k handlebody."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    zk = split_pmc(k)
    odd = frozenset(range(1, 2 * k + 1, 2))
    delta = []
    for i in range(k):
        moving = ((4 * i + 1, 4 * i + 3),)
        horizontal = odd - {2 * i + 1}
        delta.append(("n", _diagram(zk, moving, horizontal), "n"))
    return TypeDStructure(zk, [("n", odd)], delta)


_FACTOR_IDEM = {"t": 2, "u": 1, "v": 1}
# genus-1 right action on {t, u, v}; keys are local moving strands
_FACTOR_ACTION = {((1, 2),): {"u": "t"},
                  ((1, 3),): {"u": "v"},
                  ((2, 3),): {"t": "v"}}


def cfa_zero_handlebody(k):
    """The dg A-infinity module of the 0-framed genus-k handlebody on the
    basis {t, u, v}^k; only one- and two-input operations are nonzero."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    zk = split_pmc(k)
    gens = []
    for word in itertools.product("tuv", repeat=k):
        label = "".join(word)
        idem = frozenset(2 * i + _FACTOR_IDEM[x] for i, x in enumerate(word))
        gens.append((label, idem))
    operations = []
    for word in itertools.product("tuv", repeat=k):
        label = "".join(word)
        for i, x in enumerate(word):
            if x == "u":
                out = "".join(word[:i] + ("v",) + word[i + 1:])
                operations.append((label, [], out))
    for b in algebra(zk).basis:
        factors = split_factors(b)
        if factors is None:
            continue
        for word in itertools.product("tuv", repeat=k):
            new = []
            for x, f in zip(word, factors):
                if f.is_idempotent:
                    if f.horizontal != {_FACTOR_IDEM[x]}:
                        new = None
                        break
                    new.append(x)
                else:
                    img = _FACTOR_ACTION.get(f.moving, {}).get(x)
                    if img is None:
                        new = None
                        break
                    new.append(img)
            if new is not None:
                operations.append(("".join(word), [b], "".join(new)))
    return AInfModule(zk, gens, operations, max_arity=2)


def dd_identity(circle):
    """The DD bimodule of the identity cobordism: complementary idempotent
    pairs, differential the sum over chords paired with their reverses.

    Both output factors are written over the same reflection-symmetric
    circle; the second factor carries the reflected coefficients.
    """
    alg = algebra(circle)
    all_pairs = set(circle.pairs)

    def refl(labels):
        return frozenset(circle.reflect_pair_label(p) for p in labels)

    gens = []
    subsets = sorted(itertools.combinations(sorted(all_pairs), circle.k))
    for s in subsets:
        s = frozenset(s)
        comp = refl(all_pairs - s)
        gens.append((_gen_label(s), s, comp))
    delta = []
    chords = [(i, j) for i in range(1, circle.n_points + 1)
              for j in range(i + 1, circle.n_points + 1)]
    for s in subsets:
        s = frozenset(s)
        for t in subsets:
            t = frozenset(t)
            for (i, j) in chords:
                left = _compress(alg.chord(i, j), s, t)
                if left is None:
                    continue
                refl_chord = AlgebraElement(
                    circle, frozenset(d.reflect()
                                      for d in alg.chord(i, j).terms))
                right = _compress(refl_chord, refl(all_pairs - s),
                                  refl(all_pairs - t))
                if right is None:
                    continue
                delta.append((_gen_label(s), (left, right), _gen_label(t)))
    return DDBimodule(circle, circle, gens, delta)


def _gen_label(pairs):
    return "i" + ".".join(str(p) for p in sorted(pairs))


def _compress(element, left, right):
    """The single diagram of an element with the stated idempotents."""
    hits = [d for d in element.terms
            if d.left_idem == left and d.right_idem == right]
    if not hits:
        return None
    assert len(hits) == 1
    return hits[0]


def _complement_idem(circle, idem):
    return frozenset(set(circle.pairs) - set(idem))


_AZ_CACHE = {}


def cfda_az(circle):
    """DA bimodule of the interpolating piece: one generator per algebra
    basis element, right multiplication as the two-input operation, and the
    chord-sum one-input operation."""
    key = (circle, False)
    if key not in _AZ_CACHE:
        _AZ_CACHE[key] = _cfda_interpolating(circle, dualized=False)
    return _AZ_CACHE[key]


def cfda_azbar(circle):
    """The reversed interpolating piece: generators indexed by dual basis
    elements; the transpose differential and the dual right action."""
    key = (circle, True)
    if key not in _AZ_CACHE:
        _AZ_CACHE[key] = _cfda_interpolating(circle, dualized=True)
    return _AZ_CACHE[key]


def _az_gen_label(a, alg, dualized):
    star = "'" if dualized else ""
    return f"{alg.label_of(a)}{star}"


def _cfda_interpolating(circle, dualized):
    alg = algebra(circle)
    gens = []
    for a in alg.basis:
        anchor = a.right_idem if dualized else a.left_idem
        out = _complement_idem(circle, anchor)
        inn = a.left_idem if dualized else a.right_idem
        gens.append((_az_gen_label(a, alg, dualized), out, inn))
    ops = []
    # two-input operations: the (dual) right action, idempotent output
    for a in alg.basis:
        src = _az_gen_label(a, alg, dualized)
        anchor = a.right_idem if dualized else a.left_idem
        out_idem_diag = alg.idempotent(_complement_idem(circle, anchor))
        if dualized:
            pairs = alg.mul_preimages(a)
        else:
            pairs = [(b, c) for b in alg.basis
                     for c in alg.mul_basis(a, b)]
        for b, c in pairs:
            ops.append((src, [b], out_idem_diag,
                        _az_gen_label(c, alg, dualized)))
    # one-input-free operations: internal differential plus the chord sum
    for a in alg.basis:
        src = _az_gen_label(a, alg, dualized)
        anchor = a.right_idem if dualized else a.left_idem
        J = _complement_idem(circle, anchor)
        out_idem_diag = alg.idempotent(J)
        for c in _internal_diff(alg, a, dualized):
            ops.append((src, [], out_idem_diag,
                        _az_gen_label(c, alg, dualized)))
        for i in range(1, circle.n_points + 1):
            for j in range(i + 1, circle.n_points + 1):
                chord = alg.chord(i, j)
                for jp in _complement_pairs(circle):
                    Jp, Ip = jp
                    coeffs = [d for d in chord.terms
                              if d.left_idem == J and d.right_idem == Jp]
                    if not coeffs:
                        continue
                    assert len(coeffs) == 1
                    feeds = [d for d in chord.terms if d.left_idem == Ip]
                    for feed in feeds:
                        for c in _left_action(alg, a, feed, dualized):
                            ops.append((src, [], coeffs[0],
                                        _az_gen_label(c, alg, dualized)))
    return DABimodule(circle, circle, gens, ops)


def _complement_pairs(circle):
    out = []
    for combo in itertools.combinations(circle.pairs, circle.k):
        s = frozenset(combo)
        out.append((s, _complement_idem(circle, s)))
    return out


def _left_action(alg, a, feed, dualized):
    """Generators reached from a by left multiplication with ``feed``."""
    if not dualized:
        return sorted(alg.mul_basis(feed, a), key=alg.sort_key)
    out = [c for (c, f2) in alg.mul_preimages(a) if f2 == feed]
    return sorted(out, key=alg.sort_key)


def _internal_diff(alg, a, dualized):
    if not dualized:
        return sorted(alg.diff_basis(a), key=alg.sort_key)
    return sorted(alg.diff_preimages(a), key=alg.sort_key)


def surgery_maps():
    """The two morphisms of the solid-torus short exact sequence."""
    inf = cfd_solid_torus("infinity")
    m1 = cfd_solid_torus("minus_one")
    zero = cfd_solid_torus("zero")
    z1 = split_pmc(1)
    alg = algebra(z1)
    phi = Morphism(inf, m1, {
        ("r", (), alg.idempotent({2}), "b"),
        ("r", (), torus_chord(2, 3), "a"),
    })
    psi = Morphism(m1, zero, {
        ("a", (), alg.idempotent({1}), "n"),
        ("b", (), torus_chord(2, 3), "n"),
    })
    return phi, psi

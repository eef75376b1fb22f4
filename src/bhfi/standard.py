"""Constructors for the standard modules and bimodules: solid tori and
handlebodies in both flavors, the DD identity, the interpolating-piece DA
bimodules, and the surgery morphisms between the three solid-torus framings.
The builtin names live in one table, ``_BUILTINS``, which
``BUILTIN_NAMES``, ``builtin_structure`` and ``dump-standard`` all read.
"""
from __future__ import annotations

import functools
import itertools
import math

from .errors import ParseError, refuse_past_cap
from .strands import (AlgebraElement, algebra, chord_term_count, split_pmc,
                      split_factors)
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
    genus-k handlebody: k diagrams of k - 1 horizontals each, a size
    checked against the cap before any is listed."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    zk = split_pmc(k)
    refuse_past_cap("cfd_zero_handlebody", k * (k - 1), "horizontal entries")
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


def _factor_action(f):
    """The right action of a genus-1 factor on {t, u, v}, as a map."""
    if f.is_idempotent:
        return {x: x for x, i in _FACTOR_IDEM.items() if f.horizontal == {i}}
    return _FACTOR_ACTION.get(f.moving, {})


def cfa_zero_handlebody(k):
    """The dg A-infinity module of the 0-framed genus-k handlebody on the
    basis {t, u, v}^k; only one- and two-input operations are nonzero."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    zk = split_pmc(k)
    basis = algebra(zk).basis      # refuses oversized genera before 3^k words
    gens, operations = [], []
    for word in itertools.product("tuv", repeat=k):
        label = "".join(word)
        gens.append((label, frozenset(2 * i + _FACTOR_IDEM[x]
                                      for i, x in enumerate(word))))
        operations += [(label, [], label[:i] + "v" + label[i + 1:])
                       for i, x in enumerate(word) if x == "u"]
    for b in basis:
        if (factors := split_factors(b)) is not None:
            # the words the factors act on, each with its image
            for pairs in itertools.product(*(_factor_action(f).items()
                                             for f in factors)):
                word, image = zip(*pairs)
                operations.append(("".join(word), [b], "".join(image)))
    return AInfModule(zk, gens, operations)


def dd_identity(circle):
    """The DD bimodule of the identity cobordism: complementary idempotent
    pairs, differential the sum over chords paired with their reverses.

    Both output factors are written over the same reflection-symmetric
    circle; the second factor carries the reflected coefficients.  Both
    sizes, C(2k, k) generators and the terms of every chord, are checked
    against the cap on every call, before anything is listed, so a lower
    cap refuses a cached build too; the bimodule is built once per circle.
    """
    refuse_past_cap("dd_identity", math.comb(2 * circle.k, circle.k),
                    "generators")
    refuse_past_cap("dd_identity", chord_term_count(circle), "chord terms")
    return _dd_identity(circle)


@functools.cache
def _dd_identity(circle):
    alg = algebra(circle)
    all_pairs = frozenset(circle.pairs)
    subsets = [frozenset(s) for s in
               itertools.combinations(sorted(all_pairs), circle.k)]
    # the right idempotent of each generator is the reflected complement
    # of its left idempotent
    paired = {s: frozenset(circle.reflect_pair_label(p)
                           for p in all_pairs - s) for s in subsets}
    gens = [(_gen_label(s), s, paired[s]) for s in subsets]
    delta = []
    for chord in alg.chords():
        mirror = {(r.left_idem, r.right_idem): r
                  for r in (d.reflect() for d in chord.terms)}
        for d in chord.terms:
            r = mirror.get((paired[d.left_idem], paired[d.right_idem]))
            if r is not None:
                delta.append((_gen_label(d.left_idem), (d, r),
                              _gen_label(d.right_idem)))
    return DDBimodule(circle, circle, gens, delta)


def _gen_label(pairs):
    return "i" + ".".join(str(p) for p in sorted(pairs))


def cfda_az(circle, idempotents=None, letters=None):
    """DA bimodule of the interpolating piece: one generator per algebra
    basis element, right multiplication as the two-input operation, and the
    chord-sum one-input operation.

    Only the generators whose input idempotent is in ``idempotents`` are
    kept, with the whole piece's labels and order, and the two-input
    operations read only ``letters``: a box tensor with a type D structure
    over those idempotents, whose outputs are among those letters, reads no
    other.  ``None`` is every idempotent, or every letter between them.
    """
    alg = algebra(circle)
    if idempotents is None:
        alg.basis       # refuses past the cap, also when cached
    return _cfda_az(circle, frozenset(
        alg.idem_keys if idempotents is None else idempotents),
        None if letters is None else frozenset(letters))


def cfda_azbar(circle):
    """The reversed interpolating piece: generators indexed by dual basis
    elements; the transpose differential and the dual right action."""
    algebra(circle).basis       # refuses past the cap, also when cached
    return _cfda_azbar(circle)


@functools.cache
def _chords_into(alg, idem):
    """Each chord u into ``idem`` between two pairs, a strand from a pair p
    outside ``idem`` up to a pair q in it, the rest of ``idem`` horizontal,
    with its partner: u's strand from the complement of ``idem``."""
    Z, rest = alg.circle, frozenset(alg.circle.pairs) - idem
    return [(alg.diagram(((i, j),), idem - {q}),
             alg.diagram(((i, j),), rest - {p}))
            for q in idem for p in rest
            for i in Z.pair_points(p) for j in Z.pair_points(q) if i < j]


@functools.cache
def _cfda_az(circle, idempotents, letters=None):
    """az's generators a with a.right_idem in ``idempotents``, in basis
    order, and their operations, from the algebra on demand: a (x) [v] ->
    a.v with a's unit, v a letter from a.right_idem into ``idempotents``;
    a -> u.a with u's partner, u a chord into a.left_idem; a -> x with a's
    unit, x in d(a).  Each target has a's or v's right idempotent, so the
    kept generators are closed under every operation."""
    alg = algebra(circle)
    all_pairs = frozenset(circle.pairs)
    whole = idempotents == frozenset(alg.idem_keys)
    kept = alg.basis if whole else sorted(itertools.chain.from_iterable(
        map(alg.basis_into, idempotents)), key=alg.sort_key)
    if letters is None:
        letters = kept if whole else itertools.chain.from_iterable(
            alg.basis_between(x, y) for x in idempotents for y in idempotents)
    reads = {}
    for v in letters:
        if v.right_idem in idempotents:
            reads.setdefault(v.left_idem, []).append(v)
    name = {a: a.label for a in kept}
    gens, ops = [], []
    for a in kept:
        src, one = name[a], alg.idempotent(all_pairs - a.left_idem)
        gens.append((src, one.left_idem, a.right_idem))
        for v in reads.get(a.right_idem, ()):
            if (w := alg.mul_basis(a, v)) is not None:
                ops.append((src, [v], one, name[w]))
        for u, partner in _chords_into(alg, a.left_idem):
            if (w := alg.mul_basis(u, a)) is not None:
                ops.append((src, [], partner, name[w]))
        ops += [(src, [], one, name[x]) for x in alg.diff_basis(a)]
    return DABimodule(circle, circle, gens, ops)


@functools.cache
def _cfda_azbar(circle):
    """One walk over the product triples u.v -> w and the differential
    pairs x -> w of the algebra, read backwards: w' (x) [u] -> v',
    w' -> u' with v's partner, and w' -> x'; the other operations carry
    the source's unit, the idempotent complementary to w.right_idem."""
    alg = algebra(circle)
    all_pairs = frozenset(circle.pairs)
    name, unit, partners, gens, ops = {}, {}, {}, [], []
    for a in alg.basis:
        name[a] = a.label + "'"
        unit[a] = alg.idempotent(all_pairs - a.right_idem)
        gens.append((name[a], unit[a].left_idem, a.left_idem))
    for idem in alg.idem_keys:
        partners.update(_chords_into(alg, idem))
    for w in alg.basis:
        for u, v in alg.mul_preimages(w):
            ops.append((name[w], [u], unit[w], name[v]))
            if (partner := partners.get(v)) is not None:
                ops.append((name[w], [], partner, name[u]))
        for x in alg.diff_preimages(w):
            ops.append((name[w], [], unit[w], name[x]))
    return DABimodule(circle, circle, gens, ops)


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


# ---------------------------------------------------------------------------
# builtin registry

# name -> (builder in this module, its argument); for a genus family
# "..._k{n}" the argument is a function of the genus n.  Builders are
# looked up by name on each call, so a wrapped builder is the one called.
_BUILTINS = {
    "cfd_inf": ("cfd_solid_torus", "infinity"),
    "cfd_m1": ("cfd_solid_torus", "minus_one"),
    "cfd0": ("cfd_solid_torus", "zero"),
    "cfd0_k{n}": ("cfd_zero_handlebody", int),
    "cfa0_k{n}": ("cfa_zero_handlebody", int),
    "ddid_k{n}": ("dd_identity", split_pmc),
    "az_k{n}": ("cfda_az", split_pmc),
    "azbar_k{n}": ("cfda_azbar", split_pmc),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_structure(name):
    """Structures addressable by name on the command line."""
    for pattern, (builder, arg) in _BUILTINS.items():
        prefix, family, _ = pattern.partition("{n}")
        if not family and name == pattern:
            return globals()[builder](arg)
        if family and name.startswith(prefix):
            tail = name[len(prefix):]
            if not (tail.isascii() and tail.isdigit()) or int(tail) < 1:
                raise ParseError(f"bad genus in builtin name {name!r}")
            return globals()[builder](arg(int(tail)))
    raise ParseError(f"unknown builtin {name!r}")

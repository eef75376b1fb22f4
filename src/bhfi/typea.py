"""The type A side, read only by the pairing route, the mapping class
group action and the surgery triangle: structures with algebra inputs,
their pairings, their equivalences (both sides cancelled, the reduced
models matched, the result carried back), and the conjugation."""
from __future__ import annotations

import functools
import itertools

from ._record import record
from .dd import TensorAlgebra, tensor_algebra
from .equivalence import (EquivalenceCertificate, _first_acyclic_sum,
                          find_homotopy_equivalence)
from .errors import RelationViolation, refuse_past_cap
from .homology import BlockDifferential, homology
from .involutive import _certify_psi, _on_homology, conjugation_cone
from .matrices import ChainComplex, F2Matrix, _commutator, rows_nullspace
from .mor import _elementary_components
from .morphisms import (Morphism, collector_paused,
                         morphism_from_generator_map, reduce_structure)
from .pairing import (_label_pairs, _pair_with_chains, _partners,
                      box_morphism_right, box_morphism_right_comps,
                      box_tensor, validate_bounded)
from .pieces import _chords_into, cfda_az
from .strands import algebra, split_pmc
from .structures import (TRIVIAL, AInfModule, BorderedObject, DABimodule,
                         _term_walk, _toggle)
from .tables import basis


_FACTOR_IDEM = {"t": 2, "u": 1, "v": 1}
# the genus-1 right action on {t, u, v}, keyed by the (moving strands,
# horizontal pairs) of its diagram; block n shifts them by 4n and 2n
_GENUS_1_ACTION = {((), (2,)): {"t": "t"},
                   ((), (1,)): {"u": "u", "v": "v"},
                   (((1, 2),), ()): {"u": "t"},
                   (((1, 3),), ()): {"u": "v"},
                   (((2, 3),), ()): {"t": "v"}}


def cfa_zero_handlebody(k):
    """The dg A-infinity module of the 0-framed genus-k handlebody on the
    basis {t, u, v}^k: one-input operations, and two-input ones from the
    k-fold product of the genus-1 action, a word mapped letter by letter."""
    if k < 1:
        raise ValueError("genus must be a positive integer")
    alg = algebra(split_pmc(k))
    basis(alg, listing=False)   # refuses oversized genera, listing nothing
    gens, operations = [], []
    for word in itertools.product("tuv", repeat=k):
        label = "".join(word)
        gens.append((label, frozenset(2 * i + _FACTOR_IDEM[x]
                                      for i, x in enumerate(word))))
        operations += [(label, [], label[:i] + "v" + label[i + 1:])
                       for i, x in enumerate(word) if x == "u"]
    for rows in itertools.product(_GENUS_1_ACTION.items(), repeat=k):
        keys, actions = zip(*rows)
        b = alg.diagram([(i + 4 * n, j + 4 * n)
                         for n, (moving, _) in enumerate(keys)
                         for i, j in moving],
                        [p + 2 * n for n, (_, pairs) in enumerate(keys)
                         for p in pairs])
        for letters in itertools.product(*(a.items() for a in actions)):
            word, image = zip(*letters)
            operations.append(("".join(word), [b], "".join(image)))
    return AInfModule(alg.circle, gens, operations)


def cfda_azbar(circle):
    """The reversed interpolating piece: generators indexed by dual basis
    elements; the transpose differential and the dual right action."""
    algebra(circle).basis       # refuses past the cap, also when cached
    return _cfda_azbar(circle)


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


def to_chain_complex(S):
    """View a both-sides-trivial structure as a based chain complex, each
    generator's row list read off its operations (one per target)."""
    if S.kind != "CX":
        raise ValueError("structure still carries algebra actions")
    pos = {g: i for i, g in enumerate(S.generators)}
    rows = [[] for _ in pos]
    for src, _, _, dst in S.ops:
        rows[pos[src]].append(pos[dst])
    return ChainComplex(S.generators, BlockDifferential(rows).matrix())


def to_matrix(f, source_cx, target_cx):
    """The matrix of a morphism f of both-sides-trivial structures between
    the given based complexes, matched by generator label.  Nothing is
    checked: callers test the chain-map identity themselves."""
    spos = {g: i for i, g in enumerate(source_cx.generators)}
    tpos = {g: i for i, g in enumerate(target_cx.generators)}
    return F2Matrix.from_entries(len(tpos), len(spos), [
        (tpos[dst], spos[src]) for src, _, _, dst in f.comps])


def box_tensor_AD(M, P):
    """Pair an A-infinity module with a type D structure; a chain complex."""
    validate_bounded(P)
    return to_chain_complex(box_tensor(M, P))


def box_tensor_DD_side(B, X):
    """Pair a DA bimodule (or A-infinity module) B, or the cone of a
    morphism B of such structures, with the left factor of a DD-type
    structure X, carrying the right factor along: a no-input structure
    over B's output algebra (dropped if trivial) tensor the carried
    factor.  A cone is paired from its parts, S's operations, T's and the
    components, labelled ``S:x|e`` and ``T:y|e``, with no cone built, each
    by ``box_tensor``'s chain walk over the carried view of X, which
    outputs X's left coefficients and reads the right ones as inputs; the
    cap counts every part's pairs.  Each term's carried word is multiplied
    out from the carried idempotent of its source."""
    parts, comps = ((B, ""),), ()
    if isinstance(B, Morphism):
        parts, comps = ((B.source, "S:"), (B.target, "T:")), B.comps
        B = B.source
    if not isinstance(X.out_alg, TensorAlgebra) or \
       X.out_alg.left is not B.in_alg:
        raise ValueError("left output factor must match the input algebra")
    carried, stage = X.out_alg.right, "box_tensor_DD_side"
    trivial_out = B.out_alg.is_trivial
    view = BorderedObject(
        B.in_alg, carried, X.generators,
        {x: idem[0] for x, idem in X.out_idem.items()},
        {x: idem[1] for x, idem in X.out_idem.items()},
        [(x, (right,), left, y) for x, _, (left, right), y in X.ops])
    partners = [_partners(P.generators, P.in_idem, view.generators,
                          view.out_idem) for P, _ in parts]
    refuse_past_cap(stage, sum(len(g) for p in partners for g in p.values()),
                    "generators")
    # the parts' terms have disjoint ends, so they are read one after another
    labels, out_idem, right, terms = [{} for _ in parts], {}, {}, []
    for (P, tag), p, lab in zip(parts, partners, labels):
        for g, (b, x) in _label_pairs(P.generators, p, lab, stage,
                                      tag).items():
            right[g] = idem = view.in_idem[x]
            out_idem[g] = idem if trivial_out else (P.out_idem[b], idem)
        terms.append(_pair_with_chains(P.ops, view, p, lab, stage))
    terms.append(_pair_with_chains(comps, view, partners[0], labels[0], stage,
                                   labels[-1]))
    res_alg = carried if trivial_out else tensor_algebra(B.out_alg, carried)
    start = {g: (carried.idem_element(idem),) for g, idem in right.items()}
    ops = set()
    for src, word, a, dst in itertools.chain.from_iterable(terms):
        if (prod := carried.mul_many(start[src] + word)) is not None:
            _toggle(ops, (src, (), prod if trivial_out else (a, prod), dst))
    return BorderedObject(res_alg, TRIVIAL, tuple(right), out_idem,
                          dict.fromkeys(right, TRIVIAL.UNIT), ops)


def box_morphism_left_comps(f, P):
    """The components of (f boxtimes Id_P): f between left-hand structures,
    P on the right, for callers that already hold its endpoints
    f.source x P and f.target x P.  The labels cover both endpoints, since
    each component ends in f.target x P; the walk starts from the partners
    of f.source, made last."""
    labels = {}
    for B1 in (f.target, f.source):
        partners = _partners(B1.generators, B1.in_idem, P.generators,
                             P.out_idem)
        _label_pairs(B1.generators, partners, labels, "box_morphism_left")
    return _pair_with_chains(f.comps, P, partners, labels,
                             "box_morphism_left")


# the inputs plus one that a component of a bridge between reduced models
# may read
BRIDGE_ARITY = 3


def find_isomorphism(A, B):
    """A generator bijection matching idempotents and operation sets, or
    None.  Deterministic: the first valid bijection when A's generators
    are assigned in order (buckets in key order), each trying B's bucket
    in order; an assignment is dropped as soon as an operation between
    assigned generators has no image in B, which no completion can fix."""

    def bucket(S):
        out = {}
        for g in S.generators:
            key = (S.out_alg.idem_sort_key(S.out_idem[g]),
                   S.in_alg.idem_sort_key(S.in_idem[g]))
            out.setdefault(key, []).append(g)
        return out

    ba, bb = bucket(A), bucket(B)
    if set(ba) != set(bb) or len(A.ops) != len(B.ops) or \
            any(len(ba[k]) != len(bb[k]) for k in ba):
        return None
    keys = sorted(ba)
    order = [g for k in keys for g in ba[k]]
    pools = [bb[k] for k in keys for _ in ba[k]]
    at = {g: i for i, g in enumerate(order)}
    closing = [[] for _ in order]       # ops whose later end is order[i]
    for op in A.ops:
        closing[max(at[op[0]], at[op[3]])].append(op)
    # iterative, since models can be large: one candidate iterator for
    # each assigned generator and the one being assigned
    mapping, used, frames = {}, set(), [iter(pools[0])] if order else []
    while frames:
        depth = len(frames) - 1
        g = order[depth]
        used.discard(mapping.pop(g, None))
        for h in frames[-1]:
            if h not in used:
                mapping[g] = h
                if all((mapping[s], ins, out, mapping[t]) in B.ops
                       for s, ins, out, t in closing[depth]):
                    break
        else:
            mapping.pop(g, None)
            frames.pop()
            continue
        used.add(mapping[g])
        if len(frames) == len(order):
            return mapping
        frames.append(iter(pools[len(frames)]))
    return None if order else {}


def search_small_equivalence(A, B, max_arity=2):
    """Bounded-arity equivalence search between two small structures.

    Solves the morphism-cycle condition as a linear system over the
    elementary components with at most ``max_arity - 1`` inputs, then walks
    combinations of the solution space looking for an acyclic cone.  Past
    ``BHFI_MAX_GENERATORS`` components (counted before any is listed) or
    cone generators of the candidates tried, reduced or not, in total, the
    search raises DivergenceError.  ``max_arity`` keeps its default of 2,
    which the golden certificates and the genus-1 kernel tests pin; the
    bridge of ``find_structure_equivalence`` passes ``BRIDGE_ARITY``.
    """
    unknowns = _elementary_components("search_small_equivalence", A, B,
                                      max_arity)
    # rows in first-seen order: each kernel vector is its own column plus
    # the unique sum of earlier independent columns, whatever the row order
    row, walk = {}, _term_walk(B, A)
    kernel = rows_nullspace([[row.setdefault(t, len(row))
                              for t in walk(e, set())] for e in unknowns])
    return _first_acyclic_sum("search_small_equivalence", (kernel,), "kernel",
                              unknowns, A, B)


def find_structure_equivalence(A, B):
    """An equivalence A -> B for input-carrying structures.

    Both sides are cancelled as far as the series-free reduction reaches;
    if the reduced models are isomorphic on the nose, the equivalence is
    the composite through them, otherwise a bounded-arity search bridges
    the small remainder.  The certificate cancels the result's cone.
    """
    red_a = reduce_structure(A, track_to=True)
    red_b = reduce_structure(B, track_from=True)
    mapping = find_isomorphism(red_a.reduced, red_b.reduced)
    if mapping is not None:
        bridge, index = morphism_from_generator_map(
            red_a.reduced, red_b.reduced, mapping), ()
    else:
        cert = search_small_equivalence(red_a.reduced, red_b.reduced,
                                        max_arity=BRIDGE_ARITY)
        bridge, index = cert.forward, cert.search_index
    return EquivalenceCertificate(
        red_a.to_reduced.then(bridge).then(red_b.from_reduced), index)


@record
class InvolutiveAInf:
    """An A-infinity module with a certified equivalence from its twist by
    the reversed interpolating piece, checked as on the type D side."""

    module: object
    psi: Morphism            # M boxtimes azbar -> M

    def __post_init__(self):
        _certify_psi(self.psi, self.module, "module")


@collector_paused
def standard_involutive_a(M):
    azb = cfda_azbar(M.in_alg.circle)
    cert = find_structure_equivalence(box_tensor(M, azb), M)
    return InvolutiveAInf(M, cert.forward)


def paired_insertion(L, R, P):
    """The equivalence  P -> (L x R) x P  that ``conjugation`` inserts:
    Id ~ L x R paired with P, starting at P itself, since Id x P is
    canonically P.  By rigidity its class is unique, so it is searched for
    after pairing with P, from P into the cancelled (L x R) x P, and
    carried back along the tracked inclusion; the bimodule-level
    equivalence Id -> L x R is never built (its tracked cancellation
    explodes at genus two).  The target is paired as L x (R x P), which
    has the same generators and operations as (L x R) x P without building
    the bimodule L x R."""
    red = reduce_structure(box_tensor(L, box_tensor(R, P)), track_from=True)
    bridge = find_homotopy_equivalence(P, red.reduced)
    return bridge.forward.then(red.from_reduced)


def conjugation(M, P, L, R, theta_p, theta_m):
    """The map  M x P -> M x P  through the inserted equivalence
    Id ~ L x R, checked to be a chain map.  Returns the pairing M x P, its
    chain complex and the map's matrix on it.

    The three steps: apply Id_M x omega_p, where omega_p: P -> (L x R) x P
    is ``paired_insertion(L, R, P)``; apply Id x theta_p with
    theta_p: R x P -> P, whose source (M x L) x (R x P) ``then`` checks to
    be the target of step 1 strictly, generator order included; apply
    theta_m x Id with theta_m: M x L -> M.  The strict check also
    certifies that theta_m and theta_p start at M x L and R x P.  With
    theta_p and theta_m the twisted-to-plain equivalences this is the
    conjugation map; with the equivalences out of chi_inv x P and M x chi
    it is the action of the mapping class chi.
    """
    base = box_tensor(M, P)
    omega_p = paired_insertion(L, R, P)
    step1 = Morphism(base, box_tensor(M, omega_p.target),
                     box_morphism_right_comps(M, omega_p))
    step2 = box_morphism_right(theta_m.source, theta_p)
    # step 2's target is step 3's source, and the thetas land in M and P
    step3 = Morphism(step2.target, base,
                     box_morphism_left_comps(theta_m, theta_p.target))
    cx = to_chain_complex(base)
    mat = to_matrix(step1.then(step2).then(step3), cx, cx)
    if not _commutator(mat, cx, cx).is_zero():
        raise RelationViolation("conjugation is not a chain map")
    return base, cx, mat


@collector_paused
def involutive_pair(A, D):
    """The pairing of involutive structures: the cone of (identity plus the
    conjugation) on the box tensor complex, over F2[Q]/(Q^2)."""
    M, P = A.module, D.structure
    circle = P.out_alg.circle
    _, cx, conj = conjugation(M, P, cfda_azbar(circle),
                              cfda_az(circle, P.out_idem.values(),
                                      {op[2] for op in P.ops}),
                              D.psi, A.psi)
    return conjugation_cone(cx, cx, F2Matrix.identity(cx.dim), conj)


@collector_paused
def mcg_action(M, P, chi, chi_inv):
    """The homology action of a mapping class supplied as a bimodule pair:
    the matrix, on the homology of the pairing complex, of the
    ``conjugation`` through Id ~ chi x chi_inv, contracted by the
    equivalences chi_inv x P -> P and M x chi -> M."""
    theta1 = find_homotopy_equivalence(box_tensor(chi_inv, P), P).forward
    theta0 = find_structure_equivalence(box_tensor(M, chi), M).forward
    _, cx, mat = conjugation(M, P, chi, chi_inv, theta1, theta0)
    hom = homology(cx)
    return _on_homology(cx, hom, map(mat.apply, hom.cycles))

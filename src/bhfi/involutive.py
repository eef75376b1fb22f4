"""The conjugation involution on a gluing's hat Floer complex, its
involutive homology with the Q-action by the morphism-space route, and
the conjugation cone of every route.  The involutive pairing and the mcg
action are in ``typea``; the tracer and ``cli`` read them through here."""
from __future__ import annotations

from . import _forward
from ._record import record
from .equivalence import find_homotopy_equivalence
from .errors import RelationViolation
from .homology import homology
from .matrices import ChainComplex, F2Matrix, express_in_homology
from .mor import mor_complex_DD
from .morphisms import Morphism
from .pairing import box_tensor, box_morphism_right_comps, validate_bounded
from .pieces import cfda_az

# old homes, kept for the layers of perfbench/tracer.py, which patch them
__getattr__ = _forward(__name__, typea="involutive_pair mcg_action "
                       "standard_involutive_a")


@record
class InvolutiveTypeD:
    """A type D structure with a certified equivalence from its twist by
    the interpolating piece.  Construction checks the certificate: the
    map must be a cycle with a cone that cancels away."""

    structure: object
    psi: Morphism            # az boxtimes P -> P

    def __post_init__(self):
        _certify_psi(self.psi, self.structure, "structure")


def _certify_psi(psi, underlying, what):
    if psi.target.generators != underlying.generators:
        raise ValueError(f"psi must land in the underlying {what}")
    if not psi.is_cycle():
        raise RelationViolation("psi is not a morphism cycle")
    if psi.cone_trace() is None:
        raise RelationViolation("psi is not a homotopy equivalence "
                                "(its cone does not cancel)")


def standard_involutive_d(P):
    # the pairing reads az over P's idempotents, on the letters P outputs
    az = cfda_az(P.out_alg.circle, P.out_idem.values(),
                 {op[2] for op in P.ops})
    cert = find_homotopy_equivalence(box_tensor(az, P), P)
    return InvolutiveTypeD(P, cert.forward)


@record
class IotaReport:
    """Everything the involutive pipeline reports for one pairing; it checks
    hfi = ker + coker = 2 ker, as 1 + iota is square."""

    hf_dim: int
    iota_matrix: F2Matrix     # on the homology basis of the morphism complex
    ker_dim: int              # of 1 + iota
    hfi_dim: int
    q_action: F2Matrix        # on the homology basis of the involutive cone

    def __post_init__(self):
        if self.hfi_dim != 2 * self.ker_dim:
            raise RelationViolation("involutive homology disagrees with the "
                                    "kernel/cokernel count")

    def to_json(self):
        return {
            "hf_dim": self.hf_dim,
            "iota": self.iota_matrix.to_lists(),
            "ker": self.ker_dim,
            "hfi_dim": self.hfi_dim,
            "Q": self.q_action.to_lists(),
        }


def _iota_pipeline(P0, P1):
    """Steps shared by the involution report and the involutive complex.

    Computes the homology basis of the morphism complex, conjugates each
    representative f through the interpolating piece using the two certified
    equivalences, as psi1 . (Id_az x f) . psi0^-1.  The pairings az x P0
    and az x P1 are built once and are the endpoints of every Id_az x f;
    az, built after the homology, has the generators over P0's and P1's
    idempotents only, reading the letters of P0, P1 and the representatives.
    Returns the morphism complex, its homology basis and the vectors of the
    conjugated representatives.
    """
    validate_bounded(P0)
    validate_bounded(P1)
    mc = mor_complex_DD(P0, P1)
    hom = mc.homology()
    reps = [mc.morphism_of(v) for v in hom.cycles]
    az = cfda_az(P0.out_alg.circle,
                 {*P0.out_idem.values(), *P1.out_idem.values()},
                 {c[2] for cs in (P0.ops, P1.ops, *(f.comps for f in reps))
                  for c in cs})
    az_p0 = box_tensor(az, P0)
    az_p1 = box_tensor(az, P1)
    psi0_inv = find_homotopy_equivalence(P0, az_p0).forward
    psi1 = find_homotopy_equivalence(az_p1, P1).forward
    images = []
    for f in reps:
        id_f = Morphism(az_p0, az_p1, box_morphism_right_comps(az, f))
        images.append(mc.vector_of(psi0_inv.then(id_f).then(psi1)))
    return mc.complex, hom, images


def _on_homology(cx, hom, cycles):
    """The matrix, into the homology basis ``hom`` of ``cx``, of the classes
    of ``cycles``; each caller's chain-map check certifies them as cycles."""
    cols = tuple(express_in_homology(cx, hom, cycles))
    return F2Matrix(hom.dimension, len(cols), cols)


def _involutive_cone(cx, hom, images):
    """The involutive complex: the conjugation cone from the homology of
    ``cx``, a complex with zero differential, into ``cx``, with the cycle
    representatives as the inclusion and ``images`` as the involution.
    The cone's d² = 0 is the one check that the images are cycles."""
    n, m = hom.dimension, cx.dim
    classes = ChainComplex(tuple(f"H:{i}" for i in range(n)),
                           F2Matrix.zero(n, n))
    return conjugation_cone(classes, cx, F2Matrix(m, n, hom.cycles),
                            F2Matrix(m, n, tuple(images)))


def iota_on_mor(P0, P1):
    """The involution report for the pairing encoded by two type D
    structures over one circle.  The cone is built first: its d² = 0
    certifies incl + conj as a chain map, so the conjugated images are
    cycles, its action check that Q carries cycles to cycles, and the
    report checks its own count."""
    cx, hom, images = _iota_pipeline(P0, P1)
    cone = _involutive_cone(cx, hom, images)
    n = hom.dimension
    iota = _on_homology(cx, hom, images)
    cone_h = homology(cone)
    q_matrix = _on_homology(cone, cone_h, map(cone.q.apply, cone_h.cycles))
    return IotaReport(hf_dim=n, iota_matrix=iota,
                      ker_dim=n - (iota + F2Matrix.identity(n)).rank(),
                      hfi_dim=cone_h.dimension, q_action=q_matrix)


def cfi_hat(P0, P1):
    """The involutive complex of the pairing, a complex over F2[Q]/(Q^2)."""
    return _involutive_cone(*_iota_pipeline(P0, P1))


def conjugation_cone(src, tgt, incl, conj):
    """The cone of (incl + conj): src -> tgt over F2[Q]/(Q^2), the source
    copy first (labels ``S:``), then the target copy (``T:``), where Q
    carries the source copy onto the target copy by ``incl``.  With
    ``incl`` the identity of one complex this is the involutive complex of
    the conjugation ``conj``.  The lower-left block of the cone's d² is
    (incl + conj) d + d (incl + conj), so the cone's own d² = 0 check
    certifies incl + conj as a chain map, and its Q check certifies incl.
    Only incl's shape is checked here: F2Matrix masks out-of-range bits."""
    ns, nt = src.dim, tgt.dim
    if (incl.nrows, incl.ncols) != (nt, ns):
        raise ValueError("matrix shape does not match the complexes")
    n = ns + nt
    cols = [d | m << ns for d, m in zip(src.d.cols, (incl + conj).cols)]
    cols += [d << ns for d in tgt.d.cols]
    q = tuple(c << ns for c in incl.cols) + (0,) * nt
    return ChainComplex(tuple(f"S:{g}" for g in src.generators) +
                        tuple(f"T:{g}" for g in tgt.generators),
                        F2Matrix(n, n, tuple(cols)), F2Matrix(n, n, q))

"""Exact bordered Floer calculus over F2: strands algebras, the four
bordered structure kinds with box tensor products and morphism complexes,
the hat-flavor pairing, its involutive refinement with the Q-action, the
mapping class group action, and a machine-verified surgery exact triangle.

A command compiles only the modules it runs: ``standard``, ``files``,
``mor``, ``equivalence``, ``involutive``, ``triangle`` and ``homology`` sit
in ``sys.modules`` unexecuted until first used, and the other submodules
but ``strands`` and ``structures`` are imported on first use, directly or
through ``_forward``.
"""


def _forward(home, **places):
    """The ``__getattr__`` of ``home``, as its AttributeError names it:
    each name that ``places`` lists under a submodule is read from it,
    imported on first use, on every access.  Defined before the
    submodules below, which import it."""
    from importlib import import_module
    where = {name: module for module, names in places.items()
             for name in names.split()}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"{home} has no attribute {name!r}")
        return getattr(import_module(f"{__name__}.{where[name]}"), name)
    return __getattr__


from .errors import (BhfiError, DivergenceError, NotEquivalentError,
                     ParseError, RelationViolation)
from .strands import PointedMatchedCircle, StrandDiagram, algebra, split_pmc
from .structures import (AInfModule, BorderedObject, DABimodule,
                         TypeDStructure, check_structure)


def _lazy(name):
    """The submodule ``bhfi.<name>``, in ``sys.modules`` but not executed."""
    import importlib.util
    import sys
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


standard, files, mor, equivalence, involutive, triangle = map(_lazy, (
    "standard", "files", "mor", "equivalence", "involutive", "triangle"))
_lazy("homology")       # not bound here: ``bhfi.homology`` is the function

# the names re-exported from the deferred submodules, by home module
_EXPORTS = dict(
    homology="homology", matrices="ChainComplex F2Matrix",
    elements="AlgebraElement", dd="DDBimodule dd_identity",
    standard="cfd_solid_torus", pieces="cfd_zero_handlebody cfda_az",
    mor="mor_complex_DD", structures="Morphism box_tensor box_tensor_AD "
    "box_tensor_DD_side identity_da identity_morphism reduce_structure "
    "to_chain_complex validate_bounded",
    equivalence="EquivalenceCertificate find_homotopy_equivalence "
    "find_structure_equivalence omega_equivalence",
    involutive="InvolutiveAInf InvolutiveTypeD IotaReport cfi_hat "
    "involutive_pair iota_on_mor mcg_action standard_involutive_a "
    "standard_involutive_d",
    typea="cfa_zero_handlebody cfda_azbar",
    triangle="TriangleData build_triangle_data surgery_maps "
    "verify_hfi_triangle")
__getattr__ = _forward(__name__, **_EXPORTS)


def __dir__():
    return sorted({*globals(), *" ".join(_EXPORTS.values()).split()})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"

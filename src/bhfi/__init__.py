"""Exact bordered Floer calculus over F2: strands algebras, the four
bordered structure kinds with box tensor products and morphism complexes,
the hat-flavor pairing, its involutive refinement with the Q-action, the
mapping class group action, and a machine-verified surgery exact triangle.

A command compiles only the modules it runs: ``standard``, ``files``,
``equivalence``, ``involutive`` and ``triangle`` sit in ``sys.modules``
unexecuted until first used, and ``grading``, ``morphisms`` (with
cancellation), ``pairing`` (the box tensor kernel) and ``typea`` (the type
A side) are imported on first use, directly or through ``_forward``.
"""


def _forward(home, **places):
    """The ``__getattr__`` of module ``home``: each name that ``places``
    lists under a submodule is read from it, imported on first use, on
    every access.  Defined before the submodules below, which import it."""
    from importlib import import_module
    where = {name: module for module, names in places.items()
             for name in names.split()}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {home!r} has no attribute {name!r}")
        return getattr(import_module(f"{__name__}.{where[name]}"), name)
    return __getattr__


from .errors import (BhfiError, DivergenceError, NotEquivalentError,
                     ParseError, RelationViolation)
from .strands import (AlgebraElement, PointedMatchedCircle, StrandDiagram,
                      algebra, split_pmc)
from .homology import ChainComplex, F2Matrix, homology
from .structures import (AInfModule, BorderedObject, DABimodule, DDBimodule,
                         TypeDStructure, check_structure, mor_complex_DD)


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


standard, files, equivalence, involutive, triangle = map(_lazy, (
    "standard", "files", "equivalence", "involutive", "triangle"))

# the names re-exported from the deferred submodules, by home module
_EXPORTS = dict(
    standard="cfa_zero_handlebody cfd_solid_torus cfd_zero_handlebody "
    "cfda_az cfda_azbar dd_identity",
    structures="Morphism box_tensor box_tensor_AD box_tensor_DD_side "
    "identity_da identity_morphism reduce_structure to_chain_complex "
    "validate_bounded",
    equivalence="EquivalenceCertificate find_homotopy_equivalence "
    "find_structure_equivalence omega_equivalence",
    involutive="InvolutiveAInf InvolutiveTypeD IotaReport cfi_hat "
    "involutive_pair iota_on_mor mcg_action standard_involutive_a "
    "standard_involutive_d",
    triangle="TriangleData build_triangle_data surgery_maps "
    "verify_hfi_triangle")
__getattr__ = _forward(__name__, **_EXPORTS)


def __dir__():
    return sorted({*globals(), *" ".join(_EXPORTS.values()).split()})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"

"""Exact bordered Floer calculus over F2: strands algebras, the four
bordered structure kinds with box tensor products and morphism complexes,
the hat-flavor pairing, its involutive refinement with the Q-action, the
mapping class group action, and a machine-verified surgery exact triangle.

``standard``, ``files``, ``equivalence``, ``involutive`` and ``triangle`` are
placed in ``sys.modules`` unexecuted and compile on their first attribute
access, so a command that never runs them never pays for them.
"""

from .errors import (BhfiError, DivergenceError, NotEquivalentError,
                     ParseError, RelationViolation)
from .strands import (AlgebraElement, PointedMatchedCircle, StrandDiagram,
                      algebra, include_split, split_pmc)
from .homology import ChainComplex, F2Matrix, homology
from .structures import (AInfModule, BorderedObject, DABimodule, DDBimodule,
                         Morphism, TypeDStructure, box_tensor, box_tensor_AD,
                         box_tensor_DD_side, check_structure, identity_da,
                         identity_morphism, mor_complex_DD, reduce_structure,
                         to_chain_complex, validate_bounded)


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


standard = _lazy("standard")
files = _lazy("files")
equivalence = _lazy("equivalence")
involutive = _lazy("involutive")
triangle = _lazy("triangle")

# the names re-exported from the lazy submodules; looked up on every access,
# so a name patched in its submodule is the one returned
_EXPORTS = {name: module for module, names in (
    (standard, ("cfa_zero_handlebody", "cfd_solid_torus",
                "cfd_zero_handlebody", "cfda_az", "cfda_azbar", "dd_identity",
                "surgery_maps")),
    (equivalence, ("EquivalenceCertificate", "find_homotopy_equivalence",
                   "find_structure_equivalence", "omega_equivalence")),
    (involutive, ("InvolutiveAInf", "InvolutiveTypeD", "IotaReport",
                  "cfi_hat", "involutive_pair", "iota_on_mor", "mcg_action",
                  "standard_involutive_a", "standard_involutive_d")),
    (triangle, ("TriangleData", "build_triangle_data", "verify_hfi_triangle")),
) for name in names}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EXPORTS[name], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"

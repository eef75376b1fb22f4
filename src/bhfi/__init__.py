"""Exact bordered Floer calculus over F2: strands algebras, the four
bordered structure kinds with box tensor products and morphism complexes,
the hat-flavor pairing, its involutive refinement with the Q-action, the
mapping class group action, and a machine-verified surgery exact triangle.

A command compiles only the modules it runs: the ``_lazy`` submodules sit
in ``sys.modules`` unexecuted until first used, and each name of
``_EXPORTS`` is read from its defining module, imported on first use.
"""


def _forward(home, **places):
    """The ``__getattr__`` of ``home``, as its AttributeError names it:
    each name that ``places`` lists under a submodule is read from it on
    every access.  Defined before the submodules below, which import it."""
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

# the names re-exported from the deferred submodules, by defining module
_EXPORTS = dict(
    homology="homology", matrices="ChainComplex F2Matrix",
    elements="AlgebraElement", dd="DDBimodule dd_identity",
    standard="cfd_solid_torus", pieces="cfd_zero_handlebody cfda_az",
    mor="mor_complex_DD", pairing="box_tensor validate_bounded",
    morphisms="Morphism identity_morphism reduce_structure",
    equivalence="EquivalenceCertificate find_homotopy_equivalence",
    involutive="InvolutiveTypeD IotaReport cfi_hat iota_on_mor "
    "standard_involutive_d", typea="InvolutiveAInf box_tensor_AD "
    "box_tensor_DD_side cfa_zero_handlebody cfda_azbar identity_da "
    "find_structure_equivalence involutive_pair mcg_action omega_equivalence "
    "standard_involutive_a to_chain_complex", triangle="TriangleData "
    "build_triangle_data surgery_maps verify_hfi_triangle")
__getattr__ = _forward(__name__, **_EXPORTS)


def __dir__():
    return sorted({*globals(), *" ".join(_EXPORTS.values()).split()})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"

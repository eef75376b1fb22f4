"""The package's public names resolve, although its submodules load lazily.

``bhfi`` executes ``standard``, ``files``, ``mor``, ``equivalence``,
``involutive``, ``triangle`` and ``homology`` on first use; the names it
re-exports from them must keep resolving as attributes, through ``from
bhfi import`` and in ``dir``.
"""
import pytest

import bhfi
from test_cli import run_python

# every public name the package bound when it imported all submodules
PUBLIC = """
AInfModule AlgebraElement BhfiError BorderedObject ChainComplex
DABimodule DDBimodule DivergenceError EquivalenceCertificate F2Matrix
InvolutiveAInf InvolutiveTypeD IotaReport Morphism NotEquivalentError
ParseError PointedMatchedCircle RelationViolation StrandDiagram TriangleData
TypeDStructure algebra box_tensor box_tensor_AD
box_tensor_DD_side build_triangle_data cfa_zero_handlebody cfd_solid_torus
cfd_zero_handlebody cfda_az cfda_azbar cfi_hat check_structure dd_identity
equivalence errors find_homotopy_equivalence find_structure_equivalence
homology identity_da identity_morphism involutive
involutive_pair iota_on_mor mcg_action mor_complex_DD
omega_equivalence reduce_structure split_pmc standard
standard_involutive_a standard_involutive_d strands structures surgery_maps
to_chain_complex triangle validate_bounded verify_hfi_triangle
""".split()


def test_every_public_name_resolves():
    listed = dir(bhfi)
    for name in PUBLIC:
        namespace = {}
        exec(f"from bhfi import {name}", namespace)
        assert namespace[name] is getattr(bhfi, name), name
        assert name in listed, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bhfi import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_re_exports_are_the_submodule_names():
    assert bhfi.cfda_az is bhfi.standard.cfda_az
    assert bhfi.iota_on_mor is bhfi.involutive.iota_on_mor
    assert bhfi.TriangleData is bhfi.triangle.TriangleData
    assert callable(bhfi.homology)      # the function, not the submodule


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        bhfi.nope


# what runs before ``bhfi.homology`` is read, in a fresh process each: the
# package attribute stays the function whether the submodule executed or not
HOMOLOGY_AFTER = {
    "verify": "from bhfi.cli import main\n"
              "main(['verify', '--builtin', 'ddid_k1'])",
    "hfihat": "from bhfi.cli import main\n"
              "main(['hfihat', '--builtin', 'cfd0', '--builtin', 'cfd_m1'])",
    "import": "import bhfi.homology"}


@pytest.mark.parametrize("before", HOMOLOGY_AFTER.values(),
                         ids=list(HOMOLOGY_AFTER))
def test_homology_stays_the_function(before):
    code, out, err = run_python(["-c", before + "\nimport sys, bhfi\n"
                                 "module = sys.modules['bhfi.homology']\n"
                                 "print(bhfi.homology is module.homology)"])
    assert (code, err, out.splitlines()[-1]) == (0, "", "True")

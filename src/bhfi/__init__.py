"""Exact bordered Floer calculus over F2: strands algebras, the four
bordered structure kinds with box tensor products and morphism complexes,
the hat-flavor pairing, its involutive refinement with the Q-action, the
mapping class group action, and a machine-verified surgery exact triangle.
"""

from .errors import (BhfiError, DivergenceError, NotEquivalentError,
                     ParseError, RelationViolation)
from .strands import (AlgebraElement, PointedMatchedCircle, StrandDiagram,
                      algebra, algebra_basis, include_split, split_pmc)
from .homology import (ChainComplex, ChainMap, F2Matrix, homology,
                       mapping_cone, reduce)
from .structures import (AInfModule, BorderedObject, DABimodule, DDBimodule,
                         Morphism, TypeDStructure, box_tensor, box_tensor_AD,
                         box_tensor_DA_D, box_tensor_DD_side, check_structure,
                         identity_da, identity_morphism, is_contractible,
                         mor_complex_DD, reduce_structure, to_chain_complex,
                         validate_bounded)
from .standard import (cfa_zero_handlebody, cfd_solid_torus,
                       cfd_zero_handlebody, cfda_az, cfda_azbar, dd_identity,
                       surgery_maps)
from .equivalence import (EquivalenceCertificate, find_homotopy_equivalence,
                          find_structure_equivalence, omega_equivalence)
from .involutive import (InvolutiveAInf, InvolutiveTypeD, IotaReport, cfi_hat,
                         involutive_pair, iota_on_mor, mcg_action,
                         standard_involutive_a, standard_involutive_d)
from .triangle import TriangleData, build_triangle_data, verify_hfi_triangle

__version__ = "0.1.0"

"""Exact computer algebra for a family of pointed Hopf algebras attached to
quantum sl2 at a root of unity: normal-form arithmetic in the algebra and its
finite quotients, explicit simple modules, tensor-product (fusion)
decomposition, and machine verification of the Grothendieck-ring relations.
"""

from .cyclo import CycScalar, rational, root_of_unity, parse_scalar
from .algebra import (
    AlgebraParams,
    QuotientParams,
    BlockAlgebra,
    Element,
    Monomial,
    TensorElement,
    parse_element,
)
from .modules import (
    ModuleRep,
    SimpleLabel,
    WrongType,
    build_V0,
    build_VI,
    build_VII,
    build_Vr,
    build_simple,
    build_extension_prop46,
    build_extension_prop47,
    direct_sum_extension,
    dual_module,
    intertwiner_space,
    is_simple,
    is_split,
    solve_k_seed,
    verify_module,
)
from .fusion import FusionVector, candidate_simples, decompose, fuse, fusion_table, tensor
from .grothendieck import (
    GelakiContext,
    chebyshev_z,
    compare_fusion_rings,
    gr_mul,
    radford_context,
    verify_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

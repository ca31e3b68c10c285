"""Exact classification and isomorphism decision for integrable highest-weight
modules over graded multi-loop and twisted multi-loop Lie algebras."""

from .classify import (
    BlockStructure,
    IsoResult,
    ModuleDescriptor,
    Witness,
    classify,
    decide_iso,
    detect_blocks,
)
from .cyclotomic import CycScalar, CycVector, cyclotomic_polynomial, root_of_unity_order_divides, sum_is_zero
from .errors import EngineError
from .lattice import Lattice, from_generators
from .liealg import (
    DiagramAut,
    RestrictedWeight,
    SimpleLieAlgebra,
    apply_aut,
    build_algebra,
    build_aut,
    restrict_weight,
    weyl_dim,
)
from .psi import SupportLattice, eval_functional, support_lattice, verify_support
from .realizer import (
    FinModule,
    GradedBox,
    build_tensor,
    count_components,
    generate_component,
    graded_character,
    loop_action,
    twisted_generate_component,
)
from .spec import PsiSpec, TwistedSpec
from .twisted import (
    TwistedDescriptor,
    check_complete_reducibility,
    classify_type,
    decide_twisted_iso,
    image_equality,
    twisted_classify,
    twisted_support,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

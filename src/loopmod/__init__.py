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
from .cyclotomic import CycScalar, CycVector, cyclotomic_polynomial
from .errors import EngineError
from .lattice import Lattice
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
from .psi import SupportLattice, support_lattice, verify_support
from .realizer import (
    FinModule,
    GradedBox,
    build_tensor,
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

__all__ = [
    # classify
    "BlockStructure", "IsoResult", "ModuleDescriptor", "Witness",
    "classify", "decide_iso", "detect_blocks",
    # cyclotomic
    "CycScalar", "CycVector", "cyclotomic_polynomial",
    # errors
    "EngineError",
    # lattice
    "Lattice",
    # liealg
    "DiagramAut", "RestrictedWeight", "SimpleLieAlgebra",
    "apply_aut", "build_algebra", "build_aut", "restrict_weight", "weyl_dim",
    # psi
    "SupportLattice", "support_lattice", "verify_support",
    # realizer
    "FinModule", "GradedBox", "build_tensor", "generate_component", "graded_character",
    "loop_action", "twisted_generate_component",
    # spec
    "PsiSpec", "TwistedSpec",
    # twisted
    "TwistedDescriptor", "check_complete_reducibility", "classify_type", "decide_twisted_iso",
    "image_equality", "twisted_classify", "twisted_support",
]

"""coeq: a workbench for equational programs over mixed inductive and
coinductive data systems.

Evaluate programs observationally on infinite data, check productivity
against the primitive-corecurrence schema, check and normalize
natural-deduction proofs with coinduction, and translate in both
directions between corecursive definitions and strongly-positive
coinduction proofs via realizability.
"""

from .corec import (CorecBundle, CorecSchema, ProductivityVerdict,
                    check_primitive_corecursive, compile_schema, stock_library)
from .evaluation import DiagramEnv, Session, derives_omega
from .extract import extract, prove_corec, roundtrip_report
from .kernel import KERNEL_BACKEND
from .logic import (assert_sp_proof, build_dcm, check_proof, classify_formula,
                    normalize)
from .program import (check_compatibility, deep_destructor, standard_functions,
                      unify, validate_program)
from .realize import RealizabilityJudgment, realizes
from .system import canonical_member, syntactic_class, validate_system

__version__ = "0.1.0"
__all__ = [
    "KERNEL_BACKEND", "__version__",
    "validate_system", "syntactic_class", "canonical_member",
    "unify", "check_compatibility", "standard_functions", "deep_destructor",
    "validate_program",
    "DiagramEnv", "Session", "derives_omega",
    "CorecSchema", "CorecBundle", "ProductivityVerdict",
    "check_primitive_corecursive", "compile_schema", "stock_library",
    "classify_formula", "check_proof", "normalize", "assert_sp_proof",
    "build_dcm",
    "RealizabilityJudgment", "realizes",
    "prove_corec", "extract", "roundtrip_report",
]

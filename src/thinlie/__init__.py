"""Exact-arithmetic construction of graded Hamiltonian-type modular Lie
algebras, Laguerre-series grading switches, and machine verification of
the thin loop-algebra diamond patterns."""

from .dpalgebra import AlgebraElement, Heights, Monomial, SparseEchelon
from .ffield import FieldElement, FieldParams, lucas_binomial
from .grading import (GradedBasis, GradingCase, GradingSpec, Label, SwitchConfig,
                      build_closed_basis, check_graded, laguerre_apply,
                      monomial_grading_violations, switch_checks,
                      switch_grading, verify_product_tables)
from .liealg import AlgebraDescriptor, Derivation, Family
from .loopalg import (CheckResult, ComponentRecord, DiamondRecord, LoopConfig,
                      PatternParams, ThinReport, centralizer_chain,
                      check_covering, classify_component, expand_loop,
                      render_text, run_analysis, verify_pattern)

__version__ = "0.1.0"

__all__ = [
    "AlgebraDescriptor",
    "AlgebraElement",
    "CheckResult",
    "ComponentRecord",
    "Derivation",
    "DiamondRecord",
    "Family",
    "FieldElement",
    "FieldParams",
    "GradedBasis",
    "GradingCase",
    "GradingSpec",
    "Heights",
    "Label",
    "LoopConfig",
    "Monomial",
    "PatternParams",
    "SparseEchelon",
    "SwitchConfig",
    "ThinReport",
    "build_closed_basis",
    "centralizer_chain",
    "check_covering",
    "check_graded",
    "classify_component",
    "expand_loop",
    "laguerre_apply",
    "lucas_binomial",
    "monomial_grading_violations",
    "render_text",
    "run_analysis",
    "switch_checks",
    "switch_grading",
    "verify_pattern",
    "verify_product_tables",
]

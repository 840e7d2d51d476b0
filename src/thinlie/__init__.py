"""Exact-arithmetic construction of graded Hamiltonian-type modular Lie
algebras, Laguerre-series grading switches, and machine verification of
the thin loop-algebra diamond patterns.

Public names are loaded lazily (PEP 562): `from thinlie import X` imports
X's module and what it imports, nothing else, so `build_closed_basis`
loads neither the table laws (`laws`) nor the raw switch and its
certificate (`switch`).  `import thinlie.cli` puts every module in
sys.modules, but runs `grading`, `laws`, `loopalg` and `switch` only when
a command first reads them: `verify` runs `laws` alone of the four,
`switch` all but `loopalg`, `analyze` only `grading` and `loopalg`."""

import importlib

__version__ = "0.1.0"

#: Each module of the package and the public names it defines.
_EXPORTS = {
    "common": ("CheckResult", "GradingCase", "GradingSpec", "Label",
               "monomial_grading_violations"),
    "dpalgebra": ("AlgebraElement", "Heights", "Monomial", "SparseEchelon"),
    "ffield": ("FieldElement", "FieldParams", "lucas_binomial"),
    "grading": ("GradedBasis", "SwitchConfig", "build_closed_basis"),
    "laws": (),
    "liealg": ("AlgebraDescriptor", "Derivation", "Family"),
    "loopalg": ("ComponentRecord", "DiamondRecord", "LoopConfig", "PatternParams",
                "ThinReport", "centralizer_chain", "check_covering", "classify_component",
                "expand_loop", "render_text", "run_analysis", "verify_pattern"),
    "switch": ("check_graded", "laguerre_apply", "switch_checks", "switch_grading",
               "verify_product_tables"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the module of a public name or a submodule on first access,
    and keep the value in the package namespace."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)

"""Quantitative tools for trinomials z^n + a z^m + b: Mahler measure by root
products, Jensen quadrature and an exact series; limit regimes; irreducibility
certificates and a full integer factorization engine; house lower bounds and
extremality; and an exhaustive reducibility scanner with CLI.

Importing the package loads none of its modules: each public name is looked
up in its module on first use (PEP 562), so a CLI command compiles and runs
only the modules it calls."""

import importlib

__version__ = "0.1.0"

# the package's one list of public names, by module; modules are public too
_EXPORTS = {
    "bounds": (
        "ComparisonBounds",
        "ExtremalityVerdict",
        "HouseBoundReport",
        "check_extremality",
        "comparison_bounds",
        "house_lower_bound",
    ),
    "errors": (
        "ClassificationMismatch",
        "ConvergenceFailure",
        "CoprimalityViolated",
        "DivergenceDetected",
        "DominanceViolated",
        "GcdNotOne",
        "InternalVerificationFailure",
        "NonIntegerCoefficient",
        "NotRepresentable",
        "ParityViolated",
        "QuadratureBudgetExceeded",
        "TrinotoolError",
    ),
    "factor": (
        "FactorizationResult",
        "IrreducibilityVerdict",
        "SchinzelReport",
        "factorize",
        "is_irreducible",
        "schinzel_conditions",
        "threshold_irreducible",
    ),
    "mahler": (
        "LimitCase",
        "MeasureResult",
        "SeriesTerm",
        "house",
        "limit_case",
        "limit_measure",
        "measure_from_roots",
        "measure_jensen",
        "residue_term",
        "series_measure",
    ),
    "polycore": (
        "FamilyForm",
        "IntPolynomial",
        "LimitRegime",
        "RootSet",
        "TrinomialSpec",
        "all_roots",
        "classify_real_roots",
        "evaluate",
        "is_reciprocal",
        "normalize",
        "to_dense",
    ),
    "quadrature": ("QuadResult", "integrate"),
    "scan": (
        "ConvergenceRow",
        "ScanRecord",
        "convergence_table",
        "scan_conjecture",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    # importing a module binds it as a package attribute, and a name is
    # bound here on first use, so this runs at most once per public name
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

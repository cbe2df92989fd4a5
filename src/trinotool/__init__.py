"""Quantitative tools for trinomials z^n + a z^m + b: Mahler measure by root
products, Jensen quadrature and an exact series; limit regimes; irreducibility
certificates and a full integer factorization engine; house lower bounds and
extremality; and an exhaustive reducibility scanner with CLI."""

__version__ = "0.1.0"

from .bounds import (
    ComparisonBounds,
    ExtremalityVerdict,
    HouseBoundReport,
    check_extremality,
    comparison_bounds,
    house_lower_bound,
)
from .errors import (
    ClassificationMismatch,
    ConvergenceFailure,
    CoprimalityViolated,
    DivergenceDetected,
    DominanceViolated,
    GcdNotOne,
    InternalVerificationFailure,
    NonIntegerCoefficient,
    NotRepresentable,
    ParityViolated,
    QuadratureBudgetExceeded,
    TrinotoolError,
)
from .factor import (
    FactorizationResult,
    IrreducibilityVerdict,
    SchinzelReport,
    factorize,
    is_irreducible,
    schinzel_conditions,
    threshold_irreducible,
)
from .mahler import (
    LimitCase,
    LimitRegime,
    MeasureResult,
    SeriesTerm,
    house,
    limit_case,
    limit_measure,
    measure_from_roots,
    measure_jensen,
    residue_term,
    series_measure,
)
from .polycore import (
    FamilyForm,
    IntPolynomial,
    RootSet,
    TrinomialSpec,
    all_roots,
    classify_real_roots,
    evaluate,
    is_reciprocal,
    normalize,
    to_dense,
)
from .quadrature import QuadResult, integrate
from .scan import (
    ConvergenceRow,
    ScanRecord,
    convergence_table,
    scan_conjecture,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""House lower bounds for the R/S/T families, extremality verdicts, and the
literature comparison constants.

For a >= 2 and gcd(m, n) = 1 the labelled extreme real root satisfies

    R:  r1   >= 1 + log(a-1)/(n-m)
    S:  |s3| >= 1 + log(a-1)/(n-m)   (m even; no nontrivial bound if m odd)
    T:  t1   >  1 + log(a)/(n-m)

via the auxiliary solution t0 = exp(log(.)/(n-m)) - 1 of (1+t)^n = (.)(1+t)^m.
Since the house dominates every root, integer a >= 2 gives the same lower
bound for the house.  Extremality is ruled out whenever the computed house
exceeds 2^(1/n), the trivial upper bound for the minimal house at degree n
(attained by no known family; z^n - 2 shows m(n) <= 2^(1/n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polycore import FamilyForm

# real zero of z^3 - z - 1, the smallest Pisot number
THETA0 = 1.3247179572447460259609088544780973

_CERT_SLACK = 1e-10


@dataclass(frozen=True)
class HouseBoundReport:
    """Closed-form lower bound vs the computed house for one family form.

    ``bound`` is None exactly when no nontrivial bound exists (S family with
    m and n both odd: the single real zero lies in (0, 1)); ``reason`` then
    explains the marker.
    """

    family: FamilyForm
    bound: float | None
    t0: float | None
    house: float
    satisfied: bool | None
    reason: str | None = None


@dataclass(frozen=True)
class ComparisonBounds:
    """Literature lower bounds on the house at degree n (values only).

    ``rhin_wu`` is None for n < 4.  ``verger_gaugry`` applies to the family
    of reciprocals of the real zero of z^n + z - 1 only; it is reported for
    any n with that caveat.  ``smyth_boyd_house`` and ``trivial_mn`` are
    upper bounds for the minimal house m(n).
    """

    n: int
    dimitrov: float
    matveev: float
    rhin_wu: float | None
    voutier: float
    verger_gaugry: float
    smyth_boyd_house: float
    trivial_mn: float


@dataclass(frozen=True)
class ExtremalityVerdict:
    """NotExtremal when the house provably exceeds the 2^(1/n) threshold.

    For the T family, ``sign_certificate`` carries 1 - a*2^(m/n); its
    negativity (automatic for a >= 2) independently certifies t1 > 2^(1/n).
    """

    family: FamilyForm
    house: float
    threshold: float
    verdict: str  # "not-extremal" | "undetermined"
    sign_certificate: float | None = None


def house_lower_bound(f: FamilyForm) -> HouseBoundReport:
    """Closed-form house bound for the family, checked against the computed house."""
    from . import mahler

    f.require_hypotheses()
    house = mahler.house(f.as_trinomial())

    if f.family == "S" and f.m % 2 == 1:
        return HouseBoundReport(
            family=f, bound=None, t0=None, house=house, satisfied=None,
            reason="no nontrivial lower bound when m and n are both odd "
                   "(the only real zero lies in (0, 1))",
        )

    base = f.a if f.family == "T" else f.a - 1.0
    exponent = math.log(base) / (f.n - f.m)
    bound = 1.0 + exponent
    t0 = math.exp(exponent) - 1.0
    return HouseBoundReport(
        family=f, bound=bound, t0=t0, house=house,
        satisfied=house >= bound - _CERT_SLACK,
    )


def comparison_bounds(n: int) -> ComparisonBounds:
    """Evaluate the displayed literature constants at degree n (n >= 3)."""
    if n < 3:
        raise ValueError("comparison bounds are stated for n >= 3")
    log_n = math.log(n)
    loglog = math.log(log_n)
    rhin_wu = None
    if n >= 13:
        rhin_wu = math.exp(3 * math.log(n / 2) / n**2)
    elif n >= 4:
        rhin_wu = math.exp(3 * math.log(n / 3) / n**2)
    return ComparisonBounds(
        n=n,
        dimitrov=2.0 ** (1.0 / (4 * n)),
        matveev=math.exp(math.log(n + 0.5) / n**2),
        rhin_wu=rhin_wu,
        voutier=1.0 + (loglog / log_n) ** 3 / (2 * n),
        verger_gaugry=1.0 + log_n * (1.0 - loglog / log_n) / n,
        smyth_boyd_house=THETA0 ** (3.0 / (2 * n)),
        trivial_mn=2.0 ** (1.0 / n),
    )


def check_extremality(f: FamilyForm) -> ExtremalityVerdict:
    """Compare the computed house against 2^(1/n).

    Requires integer a >= 2 and gcd(m, n) = 1.  The verdict is decided from
    the house for all three families; the sign certificate is attached for T.
    """
    from . import mahler

    f.require_hypotheses()
    if not float(f.a).is_integer():
        raise ValueError("extremality check requires integer a")
    house = mahler.house(f.as_trinomial())
    threshold = 2.0 ** (1.0 / f.n)
    certificate = None
    if f.family == "T":
        certificate = 1.0 - f.a * 2.0 ** (f.m / f.n)
    verdict = "not-extremal" if house > threshold + _CERT_SLACK else "undetermined"
    return ExtremalityVerdict(
        family=f, house=house, threshold=threshold,
        verdict=verdict, sign_certificate=certificate,
    )

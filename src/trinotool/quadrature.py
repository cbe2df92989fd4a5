"""Adaptive Gauss-Kronrod (G7/K15) quadrature with worst-panel-first refinement.

Integrands are vectorised callables (ndarray -> ndarray, real or complex).
Panels never place nodes on their endpoints, so integrable endpoint
singularities (log zeros) are handled by listing the singular abscissae as
breakpoints and letting the refinement zoom in.  The final reduction sums
panel values in left-endpoint order, so results do not depend on the order in
which panels were refined.

``integrate`` refines until the summed panel error estimate is at most its
``tol`` keyword (default ``DEFAULT_TOL``), and gives up with
QuadratureBudgetExceeded once ``_MAX_EVALS`` integrand evaluations are spent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureBudgetExceeded

__all__ = ["QuadResult", "integrate"]

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss rule sits on the odd-indexed abscissae.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])  # ascending, 15 points
_WK = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])

DEFAULT_TOL = 1e-10  # absolute error target of integrate and its mahler callers
_MAX_EVALS = 1_000_000


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    evals: int
    panels: int


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x))
    resk = half * np.sum(_WK * y)
    resg = half * np.sum(_WGFULL * y)
    # QUADPACK-style inflation of the raw |K - G| estimate on rough panels
    resasc = abs(half) * float(np.sum(_WK * np.abs(y - resk / (b - a))))
    raw = abs(resk - resg)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return resk, err


def integrate(f, lo: float, hi: float, tol: float = DEFAULT_TOL,
              breakpoints: tuple[float, ...] = ()) -> QuadResult:
    """Integrate f over [lo, hi], splitting initially at the given breakpoints.

    Raises QuadratureBudgetExceeded when _MAX_EVALS function evaluations were
    spent and the summed panel error estimate still exceeds tol.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    pts = sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)})
    panels = []  # (-err, tie, a, b, value, err)
    tie = 0
    evals = 0
    err_total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, err = _panel(f, a, b)
        evals += 15
        err_total += err
        heapq.heappush(panels, (-err, tie, a, b, val, err))
        tie += 1

    frozen: list[tuple[float, float, complex, float]] = []  # (a, b, val, err)
    width_floor = 1e-15 * (hi - lo)

    while panels and err_total > tol:
        if evals + 30 > _MAX_EVALS:
            value = sum(p[4] for p in panels) + sum(p[2] for p in frozen)
            raise QuadratureBudgetExceeded(
                f"quadrature budget of {_MAX_EVALS} evaluations exhausted "
                f"(error estimate {err_total:.3e} > {tol:.3e})",
                value=value,
                error=err_total,
            )
        _, _, a, b, val, err = heapq.heappop(panels)
        if b - a < width_floor:
            frozen.append((a, b, val, err))
            continue
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        evals += 30
        err_total += e1 + e2 - err
        heapq.heappush(panels, (-e1, tie, a, mid, v1, e1))
        tie += 1
        heapq.heappush(panels, (-e2, tie, mid, b, v2, e2))
        tie += 1

    pieces = [(p[2], p[4], p[5]) for p in panels] + [(a, v, e) for a, b, v, e in frozen]
    pieces.sort(key=lambda t: t[0])  # fixed reduction order
    value = sum(p[1] for p in pieces)
    error = sum(p[2] for p in pieces)
    return QuadResult(value=value, error=error, evals=evals, panels=len(pieces))

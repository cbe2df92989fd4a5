"""Adaptive Gauss-Kronrod (G7/K15) quadrature, refined worst-panel-first in rounds.

Integrands are vectorised callables (ndarray -> ndarray, real or complex).
Panels never place nodes on their endpoints, so integrable endpoint
singularities (log zeros) are handled by listing the singular abscissae as
breakpoints and letting the refinement zoom in.  The final reduction sums
panel values in left-endpoint order, so results do not depend on the order in
which panels were refined.

``integrate`` refines until the summed panel error estimate is at most its
``tol`` keyword (default ``DEFAULT_TOL``), then on to tol/10 from the same
panels, and returns the finer value.  Its error is the finer panel estimate
plus the gap between the two values: on a sharp dip of a log integrand without
a zero the panel estimate alone can understate the error.  It gives up with
QuadratureBudgetExceeded once ``_MAX_EVALS`` integrand evaluations, counted
over both decades, are spent.  It refines in rounds: each round halves a batch
of panels and evaluates all their 15-point nodes with one call of the
integrand.  The batch is the fewest worst panels whose errors add up to more
than the excess over the current target.  A worst-first heap could not stop
before splitting each of them (halving replaces an error by two non-negative
ones), and it splits them in the same order as long as no half is worse than
the batch's last panel, the usual case once the rule converges on a panel.
The heap's order of splits does not depend on the target, only its stopping
point does, so the second decade ends on the panels of one heap run to tol/10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import QuadratureBudgetExceeded
from .polycore import np

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss rule sits on the odd-indexed abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@cache
def _rule():
    """The 15 ascending nodes, their Kronrod weights and the Gauss weights
    (zero off the Gauss nodes), as numpy arrays.  Built on first use, so that
    importing this module does not load numpy."""
    xgk, wgk, wg = np.array(_XGK), np.array(_WGK), np.array(_WG)
    nodes = np.concatenate([-xgk[:-1], [0.0], xgk[-2::-1]])
    wk = np.concatenate([wgk[:-1], [wgk[-1]], wgk[-2::-1]])
    wgfull = np.zeros(15)
    wgfull[1:-1:2] = np.concatenate([wg[:-1], [wg[-1]], wg[-2::-1]])
    return nodes, wk, wgfull


DEFAULT_TOL = 1e-10  # absolute error target of integrate and its mahler callers
_MAX_EVALS = 1_000_000


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    evals: int
    panels: int


def _panels(f, a, b):
    """K15 values and error estimates of the panels [a_i, b_i], one call of f."""
    nodes, wk, wgfull = _rule()
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
    y = np.broadcast_to(f(x.ravel()), (x.size,)).reshape(x.shape)
    resk = half * np.sum(wk * y, axis=1)
    resg = half * np.sum(wgfull * y, axis=1)
    # QUADPACK-style inflation of the raw |K - G| estimate on rough panels
    resasc = np.abs(half) * np.sum(wk * np.abs(y - (resk / (b - a))[:, None]), axis=1)
    raw = np.abs(resk - resg)
    rough = resasc != 0.0
    ratio = 200.0 * raw / np.where(rough, resasc, 1.0)
    return resk, np.where(rough, resasc * np.minimum(1.0, ratio ** 1.5), raw)


def integrate(f, lo: float, hi: float, tol: float = DEFAULT_TOL,
              breakpoints: tuple[float, ...] = ()) -> QuadResult:
    """Integrate f over [lo, hi], splitting initially at the given breakpoints.

    Refines until the summed panel error estimate is at most tol, then on to
    tol/10 from the same panels, and returns the finer value with error the
    finer estimate plus |fine - coarse| (see the module docstring).

    Each round halves, in one call of f, the fewest worst panels (stable order
    by error) whose errors add up to more than the total error minus the
    target: the panels a worst-first heap would split next.  A panel narrower
    than 1e-15 (hi - lo) is never split; its error stays in the total.  A round
    is cut down to the splits that fit in _MAX_EVALS evaluations.  Raises
    QuadratureBudgetExceeded when not even one split fits and the summed panel
    error estimate still exceeds the target, and ValueError unless
    0 <= tol < inf.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    pts = np.array(sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)}), dtype=float)
    val, err = _panels(f, pts[:-1], pts[1:])
    evals = 15 * len(val)
    width_floor = 1e-15 * (hi - lo)

    values = []
    for target in (tol, tol / 10):
        while (err_total := err.sum()) > target:
            live = np.flatnonzero(np.diff(pts) >= width_floor)
            if not live.size:
                break
            worst = live[np.argsort(-err[live], kind="stable")]
            count = 1 + np.count_nonzero(np.cumsum(err[worst]) <= err_total - target)
            fits = (_MAX_EVALS - evals) // 30
            if fits < 1:
                raise QuadratureBudgetExceeded(
                    f"quadrature budget of {_MAX_EVALS} evaluations exhausted "
                    f"(error estimate {err_total:.3e} > {target:.3e})",
                    value=sum(val.tolist()),
                    error=float(err_total),
                )
            split = np.sort(worst[:min(count, fits)])
            mid = 0.5 * (pts[split] + pts[split + 1])
            v, e = _panels(f, np.concatenate([pts[split], mid]),
                           np.concatenate([mid, pts[split + 1]]))
            evals += 15 * len(v)
            val[split], err[split] = v[:len(split)], e[:len(split)]
            val = np.insert(val, split + 1, v[len(split):])
            err = np.insert(err, split + 1, e[len(split):])
            pts = np.insert(pts, split + 1, mid)
        values.append(sum(val.tolist()))

    coarse, value = values
    return QuadResult(value=value, error=sum(err.tolist()) + abs(value - coarse),
                      evals=evals, panels=len(val))

import dataclasses
import heapq
import inspect
import math

import numpy as np
import pytest

from trinotool import mahler, quadrature
from trinotool.errors import QuadratureBudgetExceeded
from trinotool.polycore import TrinomialSpec
from trinotool.quadrature import integrate


def _heap_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes, wk, wgfull = quadrature._rule()
    x = mid + half * nodes
    y = np.asarray(f(x))
    resk = half * np.sum(wk * y)
    resg = half * np.sum(wgfull * y)
    resasc = abs(half) * float(np.sum(wk * np.abs(y - resk / (b - a))))
    raw = abs(resk - resg)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return resk, err


def heap_integrate(f, lo, hi, tol=quadrature.DEFAULT_TOL, breakpoints=()):
    """Reference: integrate as it was before it refined in rounds, one panel at
    a time, worst first from a heap.  Returns (value, evals, panels)."""
    pts = sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)})
    panels = []  # (-err, tie, a, b, value, err)
    tie = 0
    evals = 0
    err_total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, err = _heap_panel(f, a, b)
        evals += 15
        err_total += err
        heapq.heappush(panels, (-err, tie, a, b, val, err))
        tie += 1

    frozen = []  # (a, b, val, err)
    width_floor = 1e-15 * (hi - lo)

    while panels and err_total > tol:
        if evals + 30 > quadrature._MAX_EVALS:
            raise QuadratureBudgetExceeded("reference budget", value=None, error=err_total)
        _, _, a, b, val, err = heapq.heappop(panels)
        if b - a < width_floor:
            frozen.append((a, b, val, err))
            continue
        mid = 0.5 * (a + b)
        v1, e1 = _heap_panel(f, a, mid)
        v2, e2 = _heap_panel(f, mid, b)
        evals += 30
        err_total += e1 + e2 - err
        heapq.heappush(panels, (-e1, tie, a, mid, v1, e1))
        tie += 1
        heapq.heappush(panels, (-e2, tie, mid, b, v2, e2))
        tie += 1

    pieces = [(p[2], p[4]) for p in panels] + [(a, v) for a, b, v, e in frozen]
    pieces.sort(key=lambda t: t[0])
    return sum(p[1] for p in pieces), evals, len(pieces)


def assert_same_work(f, lo, hi, tol=quadrature.DEFAULT_TOL, breakpoints=()):
    # integrate refines to tol and on to tol/10: it ends where the heap does
    # from scratch at tol/10, having spent the same evaluations
    r = integrate(f, lo, hi, tol, breakpoints)
    value, evals, panels = heap_integrate(f, lo, hi, tol / 10, breakpoints)
    assert (r.evals, r.panels) == (evals, panels)
    assert abs(r.value - value) <= 1e-14 * max(1.0, abs(value))
    return r


def test_polynomial_exact():
    r = integrate(lambda x: x**2, 0.0, 1.0)
    assert r.value == pytest.approx(1 / 3, abs=1e-14)
    assert r.error < 1e-12


def test_endpoint_log_singularity():
    # integral_0^1 log x dx = -1
    r = integrate(np.log, 0.0, 1.0)
    assert r.value == pytest.approx(-1.0, abs=1e-9)


def test_interior_log_zero_via_breakpoint():
    # integral_0^{2pi} log|e^it - 1| dt = 0 (mean of log|z - 1| on the circle)
    f = lambda t: np.log(np.maximum(np.abs(np.exp(1j * t) - 1.0), 1e-300))
    r = integrate(f, 0.0, 2 * math.pi, breakpoints=(math.pi,))
    assert r.value == pytest.approx(0.0, abs=1e-8)


def test_oscillatory():
    r = integrate(lambda x: np.cos(40 * x), 0.0, 2 * math.pi,
                  breakpoints=tuple(np.linspace(0, 2 * math.pi, 33)[1:-1]))
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_one_integrand_call_per_round():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.cos(40 * x)

    integrate(f, 0.0, 2 * math.pi, breakpoints=tuple(np.linspace(0, 2 * math.pi, 33)[1:-1]))
    # the 32 breakpoint panels in one call, then one call per refinement round
    assert calls[0] == (32 * 15,)
    assert len(calls) <= 3


def test_scalar_integrand_is_broadcast():
    r = integrate(lambda x: 2.0, 0.0, 3.0)
    assert r.value == pytest.approx(6.0, abs=1e-14)
    assert r.evals == 15


def test_complex_integrand():
    r = integrate(lambda t: np.exp(1j * t), 0.0, 2 * math.pi,
                  breakpoints=(1.0, 2.0, 4.0))
    assert abs(r.value) < 1e-12


def test_budget_exceeded_carries_partial(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 300)
    points = []

    def f(x):
        points.append(x.size)
        return np.log(x)

    with pytest.raises(QuadratureBudgetExceeded) as err:
        integrate(f, 0.0, 1.0, tol=0.0)
    assert err.value.value is not None
    assert err.value.error > 0
    assert sum(points) <= 300


def test_reduction_order_fixed():
    f = lambda x: np.sin(7 * x) ** 2
    a = integrate(f, 0.0, 5.0, breakpoints=(1.0, 2.0))
    b = integrate(f, 0.0, 5.0, breakpoints=(2.0, 1.0))
    assert a.value == b.value


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate(np.log, 1.0, 0.0)


@pytest.mark.parametrize("case", [
    (lambda x: x**2, 0.0, 1.0, ()),
    (np.log, 0.0, 1.0, ()),
    (lambda t: np.log(np.maximum(np.abs(np.exp(1j * t) - 1.0), 1e-300)), 0.0, 2 * math.pi,
     (math.pi,)),
    (lambda x: np.cos(40 * x), 0.0, 2 * math.pi, tuple(np.linspace(0, 2 * math.pi, 33)[1:-1])),
    (lambda t: np.exp(1j * t), 0.0, 2 * math.pi, (1.0, 2.0, 4.0)),
    (lambda x: np.sin(7 * x) ** 2, 0.0, 5.0, (1.0, 2.0)),
])
def test_rounds_match_the_heap_on_every_integrand(case):
    f, lo, hi, bps = case
    assert_same_work(f, lo, hi, breakpoints=bps)


@pytest.mark.parametrize("call", [
    lambda: mahler.measure_jensen(TrinomialSpec(3, 1, -3, 2)),
    lambda: mahler.measure_jensen(TrinomialSpec(6, 2, -3, 2)),
    lambda: mahler.measure_jensen(TrinomialSpec(120, 77, 6, -5)),
    lambda: mahler.measure_jensen(TrinomialSpec(240, 151, -1.827, -0.827)),
])
def test_rounds_match_the_heap_on_the_measure_integrands(call, monkeypatch):
    seen = []

    def spy(f, lo, hi, tol=quadrature.DEFAULT_TOL, breakpoints=()):
        seen.append(tol)
        return assert_same_work(f, lo, hi, tol, breakpoints)

    monkeypatch.setattr(mahler, "integrate", spy)
    call()
    assert seen == [quadrature.DEFAULT_TOL]


def test_error_covers_the_gap_between_the_two_decades(monkeypatch):
    # on the sharp dip of z^120 + 6 z^77 - 5 without a zero the panel estimate
    # alone understated the error: it adds the gap between the tol and tol/10 values
    seen = []

    def spy(f, lo, hi, tol, breakpoints=()):
        seen.append((f, lo, hi, tol, breakpoints))
        return integrate(f, lo, hi, tol, breakpoints)

    monkeypatch.setattr(mahler, "integrate", spy)
    mahler.measure_jensen(TrinomialSpec(120, 77, 6, -5))
    (f, lo, hi, tol, bps), = seen
    r = integrate(f, lo, hi, tol, bps)
    coarse, fine = (heap_integrate(f, lo, hi, t, bps)[0] for t in (tol, tol / 10))
    assert r.error >= abs(fine - coarse) > 0


def test_oscillatory_limit_calls_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("limit_measure called integrate")

    monkeypatch.setattr(mahler, "integrate", refuse)
    monkeypatch.setattr(quadrature, "integrate", refuse)
    r = mahler.limit_measure(0.8, 0.7j)
    assert mahler.limit_case(0.8, 0.7j).case is mahler.LimitRegime.OSCILLATORY
    assert r.method == "closed-form" and r.error_bound < 1e-14 * r.value


def test_budget_counts_both_decades(monkeypatch):
    total = integrate(np.log, 0.0, 1.0, 1e-8)
    monkeypatch.setattr(quadrature, "_MAX_EVALS", total.evals - 30)
    with pytest.raises(QuadratureBudgetExceeded, match="> 1.000e-09"):
        integrate(np.log, 0.0, 1.0, 1e-8)
    monkeypatch.setattr(quadrature, "_MAX_EVALS", total.evals)
    assert integrate(np.log, 0.0, 1.0, 1e-8) == total


def test_result_has_exactly_value_error_evals_and_panels():
    assert [f.name for f in dataclasses.fields(quadrature.QuadResult)] == [
        "value", "error", "evals", "panels"]
    assert list(inspect.signature(integrate).parameters) == [
        "f", "lo", "hi", "tol", "breakpoints"]

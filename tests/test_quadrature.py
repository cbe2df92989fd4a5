import math

import numpy as np
import pytest

from trinotool import quadrature
from trinotool.errors import QuadratureBudgetExceeded
from trinotool.quadrature import integrate


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


def test_complex_integrand():
    r = integrate(lambda t: np.exp(1j * t), 0.0, 2 * math.pi,
                  breakpoints=(1.0, 2.0, 4.0))
    assert abs(r.value) < 1e-12


def test_budget_exceeded_carries_partial(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 300)
    with pytest.raises(QuadratureBudgetExceeded) as err:
        integrate(np.log, 0.0, 1.0, tol=0.0)
    assert err.value.value is not None
    assert err.value.error > 0


def test_reduction_order_fixed():
    f = lambda x: np.sin(7 * x) ** 2
    a = integrate(f, 0.0, 5.0, breakpoints=(1.0, 2.0))
    b = integrate(f, 0.0, 5.0, breakpoints=(2.0, 1.0))
    assert a.value == b.value


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate(np.log, 1.0, 0.0)

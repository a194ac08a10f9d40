"""Integrator and finite-difference conventions."""

import math

import numpy as np
import pytest

from isorkhs import funcspace, quad
from isorkhs.errors import ConvergenceError, DomainError, EvaluationError, InputError

HALF_PI = 0.5 * math.pi


def test_constant_integral():
    assert abs(quad.integrate(lambda x: np.ones_like(x)) - math.pi) <= 1e-13


def test_kinked_integral():
    # int sin|x| over [-pi/2, pi/2] = 2
    val = quad.integrate(lambda x: np.sin(np.abs(x)), breakpoints=[0.0])
    assert abs(val - 2.0) <= 1e-12


def test_tolerance_floors_at_the_rounding_of_each_panel():
    # cos 63t against cos 61t: the integrands reach about 3800 while the
    # inner product is -2.1e-4, so the default absolute tolerance lies below
    # the rounding floor of the panel sums; without a floor the panels double
    # until memory runs out
    f = funcspace.trig_poly([0.0] * 63 + [1.0])
    g = funcspace.trig_poly([0.0] * 61 + [1.0])
    exact = funcspace.inner_product_iso(f, g, method="exact")
    assert abs(exact + 2.1092101721e-4) <= 1e-14
    assert abs(funcspace.inner_product_iso(f, g, method="quadrature") - exact) <= 1e-9


@pytest.mark.parametrize("y", [-1.0, -0.3, 0.0, 0.7, 1.5])
def test_kernel_profile_integral(y):
    # int (2 - (pi/2) sin|x - y|) = pi for any y in the domain
    val = quad.integrate(
        lambda x: 2.0 - HALF_PI * np.sin(np.abs(x - y)), breakpoints=[y]
    )
    assert abs(val - math.pi) <= 1e-11


def test_linearity():
    f = np.cos
    g = lambda x: np.sin(2.0 * x)
    for a, b in [(1.0, 1.0), (-2.5, 0.3), (1e3, -1e3)]:
        lhs = quad.integrate(lambda x: a * f(x) + b * g(x))
        rhs = a * quad.integrate(f) + b * quad.integrate(g)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(a) + abs(b))


@pytest.mark.parametrize("points", [2, 5, 8])
def test_gauss_polynomial_exactness(points):
    # an n-point rule is exact through degree 2n - 1
    for k in range(2 * points):
        exact = 0.0 if k % 2 else 2.0 * HALF_PI ** (k + 1) / (k + 1)
        got = quad.integrate_fixed(lambda x, k=k: x**k, points=points)
        assert abs(got - exact) <= 1e-13 * (1.0 + abs(exact))


def test_fixed_rule_convergence_rate():
    # Gauss-2 panels converge at fourth order on a kink-free segment; the
    # registered breakpoint keeps the kinked integrand piecewise analytic.
    f = lambda x: np.sin(np.abs(x - 0.3))
    exact = 2.0 - np.sin(HALF_PI + 0.3) - np.sin(HALF_PI - 0.3) + 2.0 * np.sin(0.0)
    exact = quad.integrate(f, breakpoints=[0.3])
    errs = [
        abs(quad.integrate_fixed(f, breakpoints=[0.3], points=2, levels=lv) - exact)
        for lv in range(1, 5)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        if coarse < 5e-14:
            break
        assert coarse / fine >= 12.0


def test_breakpoints_outside_interval_ignored():
    a = quad.integrate(np.cos, (0.0, 1.0), breakpoints=[-5.0, 7.0])
    b = quad.integrate(np.cos, (0.0, 1.0))
    assert a == b
    assert abs(a - math.sin(1.0)) <= 1e-13


def test_interval_validation():
    with pytest.raises(InputError):
        quad.Interval(1.0, 1.0)
    with pytest.raises(InputError):
        quad.Interval(2.0, -1.0)
    with pytest.raises(InputError):
        quad.integrate(np.cos, interval=(0.0, math.inf))


def test_nonfinite_integrand():
    with np.errstate(invalid="ignore"), pytest.raises(EvaluationError):
        quad.integrate(np.log)  # log of negative abscissae


def test_convergence_failure_carries_estimate():
    spec = quad.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_depth=1, base_points=2)
    with pytest.raises(ConvergenceError) as err:
        quad.integrate(lambda x: np.sin(50.0 * x) * np.exp(x), spec=spec)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound >= 0.0


def test_convergence_error_bound_counts_each_panel_once():
    # one level: the smooth left segment is accepted, the oscillating right
    # one is not, so the bound is each segment's parent-children gap once
    spec = quad.QuadratureSpec(abs_tol=1e-2, rel_tol=1e-2, max_depth=1, base_points=2)

    def f(x):
        return np.where(x < 0.5, x**4, np.sin(40.0 * x))

    nodes, weights = np.polynomial.legendre.leggauss(2)

    def gauss(lo, hi):
        return 0.5 * (hi - lo) * float(weights @ f(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes))

    gaps = [
        abs(gauss(lo, hi) - (gauss(lo, 0.5 * (lo + hi)) + gauss(0.5 * (lo + hi), hi)))
        for lo, hi in ((0.0, 0.5), (0.5, 1.0))
    ]
    assert 0.0 < gaps[0] <= 1e-2 * 0.5 < gaps[1]
    with pytest.raises(ConvergenceError) as err:
        quad.integrate(f, (0.0, 1.0), breakpoints=[0.5], spec=spec)
    assert math.isclose(err.value.error_bound, gaps[0] + gaps[1], rel_tol=1e-12)


def test_spec_validation():
    with pytest.raises(InputError):
        quad.QuadratureSpec(abs_tol=0.0)
    with pytest.raises(InputError):
        quad.QuadratureSpec(max_depth=0)


def test_derivative_central():
    d = quad.derivative_at(np.sin, 0.3)
    assert abs(d - math.cos(0.3)) <= 1e-9
    d2 = quad.derivative_at(np.sin, 0.3, richardson=True)
    assert abs(d2 - math.cos(0.3)) <= 1e-9


def test_derivative_right_hand_at_kink():
    f = lambda x: np.sin(np.abs(x))
    assert abs(quad.derivative_at(f, 0.0, kinks=[0.0]) - 1.0) <= 1e-8


def test_derivative_at_endpoints():
    # one-sided stencils: right-hand at the left endpoint, left-hand at the right
    assert abs(quad.derivative_at(np.sin, -HALF_PI) - math.cos(-HALF_PI)) <= 1e-8
    assert abs(quad.derivative_at(np.cos, HALF_PI) + 1.0) <= 1e-8


def test_derivative_constant():
    assert abs(quad.derivative_at(lambda x: np.full_like(x, 3.25), 0.1)) <= 1e-12


def test_derivative_domain():
    with pytest.raises(DomainError):
        quad.derivative_at(np.sin, 2.0)
    with pytest.raises(InputError):
        quad.derivative_at(np.sin, 0.0, step=-1.0)

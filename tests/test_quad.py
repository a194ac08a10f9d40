"""Integrator and finite-difference conventions."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import isorkhs
from isorkhs import funcspace, kernel, quad
from isorkhs.errors import ConvergenceError, DomainError, EvaluationError, InputError

HALF_PI = 0.5 * math.pi


def _integrate_fixed(f, breakpoints=(), points=16, levels=0) -> float:
    """Non-adaptive composite rule over the domain: ``2**levels`` equal panels per segment.

    The convergence-rate and polynomial-exactness checks control the panel
    layout instead of adapting it.
    """
    edges = quad._segment_edges(quad.DELTA, breakpoints)
    sub = [np.linspace(lo, hi, (1 << levels) + 1) for lo, hi in zip(edges[:-1], edges[1:])]
    los = np.concatenate([s[:-1] for s in sub])
    his = np.concatenate([s[1:] for s in sub])
    return float(quad._panel_integrals(f, los, his, points)[0].sum())


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


@pytest.mark.parametrize("edge", [5e-324, 1e-320, 2.2250738585e-313])
def test_a_panel_of_subnormal_width_converges(edge):
    # a breakpoint a few subnormal steps from an edge leaves a panel whose sums round in steps of
    # 5e-324, below its share of the tolerance; the subnormal floor accepts it, so a few levels do
    calls = []
    val = quad.integrate(lambda x: calls.append(x.size) or np.cos(x), (0.0, 1.0), [edge])
    assert abs(val - math.sin(1.0)) <= 1e-14 and len(calls) <= 4
    assert kernel.classical_reproducing_residual((np.cos, lambda x: -np.sin(x)), edge) == 0.0


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
        got = _integrate_fixed(lambda x, k=k: x**k, points=points)
        assert abs(got - exact) <= 1e-13 * (1.0 + abs(exact))


def test_fixed_rule_convergence_rate():
    # Gauss-2 panels converge at fourth order on a kink-free segment; the
    # registered breakpoint keeps the kinked integrand piecewise analytic.
    f = lambda x: np.sin(np.abs(x - 0.3))
    exact = 2.0 - np.sin(HALF_PI + 0.3) - np.sin(HALF_PI - 0.3) + 2.0 * np.sin(0.0)
    exact = quad.integrate(f, breakpoints=[0.3])
    errs = [
        abs(_integrate_fixed(f, breakpoints=[0.3], points=2, levels=lv) - exact)
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


_BAD_INTERVALS = [5, None, (1.0,), (0.0, 1.0, 2.0), ("a", "b")]


@pytest.mark.parametrize("interval", _BAD_INTERVALS, ids=["int", "none", "one-end", "three-ends", "strings"])
@pytest.mark.parametrize(
    "call",
    [
        lambda iv: quad.integrate(np.cos, iv),
        lambda iv: quad.derivative_at(np.cos, 0.5, interval=iv),
        lambda iv: funcspace.inner_product_classical(np.cos, np.cos, interval=iv),
    ],
    ids=["integrate", "derivative_at", "inner_product_classical"],
)
def test_malformed_intervals_raise_input_error(call, interval):
    with pytest.raises(InputError):
        call(interval)


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


# ---------------------------------------------------------------------------
# the vectorized stencil against the scalar reference


def _reference_scalar_eval(f, x):
    y = f(np.asarray([x], dtype=float))
    try:
        v = float(np.asarray(y, dtype=float).reshape(-1)[0])
    except (TypeError, ValueError):
        v = float(f(x))
    if not math.isfinite(v):
        raise EvaluationError(f"function evaluated to a non-finite value at x={x!r}")
    return v


def _reference_derivative_at(f, x, step=1e-6, interval=quad.DELTA, kinks=()):
    """The scalar finite difference before vectorization (its unused Richardson option dropped)."""
    iv = quad._coerce_interval(interval)
    x = float(x)
    if step <= 0 or not math.isfinite(step):
        raise InputError("step must be positive and finite")
    tiny = 1e-12 * (1.0 + abs(x))
    if x < iv.lo - tiny or x > iv.hi + tiny:
        raise DomainError(f"x={x!r} lies outside [{iv.lo}, {iv.hi}]")
    x = min(max(x, iv.lo), iv.hi)

    ks = sorted(float(k) for k in kinks)
    at_kink = any(abs(x - k) <= tiny for k in ks)

    def nearest_gap(side):
        gaps = []
        for k in ks:
            if abs(x - k) <= tiny:
                continue
            if side == "right" and k > x:
                gaps.append(k - x)
            elif side == "left" and k < x:
                gaps.append(x - k)
            elif side == "both":
                gaps.append(abs(k - x))
        return min(gaps) if gaps else math.inf

    ev = _reference_scalar_eval
    if at_kink or x <= iv.lo + tiny:
        h = min(step, 0.5 * (iv.hi - x), 0.5 * nearest_gap("right"))
        if h <= 0:
            raise DomainError("no room for a right-hand difference stencil")
        return (-3.0 * ev(f, x) + 4.0 * ev(f, x + h) - ev(f, x + 2.0 * h)) / (2.0 * h)
    if x >= iv.hi - tiny:
        h = min(step, 0.5 * (x - iv.lo), 0.5 * nearest_gap("left"))
        if h <= 0:
            raise DomainError("no room for a left-hand difference stencil")
        return (3.0 * ev(f, x) - 4.0 * ev(f, x - h) + ev(f, x - 2.0 * h)) / (2.0 * h)
    h = min(step, iv.hi - x, x - iv.lo, 0.5 * nearest_gap("both"))
    return (ev(f, x + h) - ev(f, x - h)) / (2.0 * h)


def _outcome(call):
    try:
        return call()
    except (DomainError, InputError, EvaluationError) as exc:
        return type(exc)


@st.composite
def _stencil_cases(draw):
    lo, hi = draw(st.sampled_from([(-HALF_PI, HALF_PI), (0.0, 1.0), (-2.0, 3.0)]))
    inner = st.floats(lo, hi, allow_nan=False)
    kinks = draw(st.lists(st.one_of(inner, st.sampled_from([lo, hi])), max_size=3))
    anchors = st.sampled_from([lo, hi, *kinks])
    offset = st.tuples(st.floats(1e-9, 2e-6), st.sampled_from([-1.0, 1.0]))
    point = st.one_of(
        inner,
        anchors,
        st.tuples(anchors, offset).map(lambda t: t[0] + t[1][0] * t[1][1]),
        st.sampled_from([lo - 1e-3, hi + 1e-3, lo - 1e-13, hi + 1e-13]),
    )
    xs = draw(st.lists(point, min_size=1, max_size=12))
    step = draw(st.sampled_from([1e-6] * 20 + [1e-3, 0.5, 0.0, -1e-6, math.inf, math.nan]))
    return (lo, hi), kinks, xs, step


@seed(20219)
@settings(max_examples=300, deadline=None)
@given(case=_stencil_cases())
def test_derivative_at_matches_scalar_reference(case):
    interval, kinks, xs, step = case
    f = lambda x: np.sin(3.0 * x) + np.abs(np.sin(x - 0.3)) + np.exp(0.5 * x)
    kw = dict(step=step, interval=interval, kinks=kinks)
    want = [_outcome(lambda: _reference_derivative_at(f, x, **kw)) for x in xs]
    for x, w in zip(xs, want):
        got = _outcome(lambda: quad.derivative_at(f, x, **kw))
        assert got == w and type(got) is type(w)
    got = _outcome(lambda: quad.derivative_at(f, np.array(xs), **kw))
    errors = {w for w in want if isinstance(w, type)}
    if errors:
        assert got in errors
    else:
        assert got.tolist() == want


# ---------------------------------------------------------------------------
# stacked integrands: k rows, one set of panels


@st.composite
def _stacked_cases(draw):
    kink, hidden = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
    w = draw(st.floats(40.0, 90.0))
    c = draw(st.floats(0.5, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    big = draw(st.sampled_from([1.0, 1e8]))
    return kink, hidden, w, c, big


@seed(20231)
@settings(max_examples=60, deadline=None)
@given(case=_stacked_cases())
def test_stacked_rows_each_meet_their_closed_form(case):
    # Row 0 is a line: alone, it is accepted on the first level (two integrand
    # calls).  cos(w x) needs more levels, and |x - hidden|^3, whose kink is
    # not registered, converges only algebraically, so its accuracy follows
    # its own tolerance and floor: accepting panels on row 0 alone, or
    # tolerances or floors shared with a row 1e8 times larger, would stop
    # these rows far too early.
    kink, hidden, w, c, big = case
    lo, hi = -HALF_PI, HALF_PI
    exact = [
        big * ((hi - lo) + 0.5 * (hi * hi - lo * lo)),
        (1.0 - math.cos(kink - lo)) + (1.0 - math.cos(hi - kink)),
        (math.sin(w * hi) - math.sin(w * lo)) / w,
        (math.exp(c * hi) - math.exp(c * lo)) / c,
        0.25 * ((hi - hidden) ** 4 + (hidden - lo) ** 4),
    ]
    calls = []

    def line(x):
        calls.append(x.size)
        return big * (1.0 + x)

    def rows(x):
        return np.stack(
            (line(x), np.sin(np.abs(x - kink)), np.cos(w * x), np.exp(c * x), np.abs(x - hidden) ** 3)
        )

    assert abs(quad.integrate(line, breakpoints=[kink]) - exact[0]) <= 1e-10 * (1.0 + exact[0])
    assert len(calls) == 2
    got = quad.integrate(rows, breakpoints=[kink])
    assert len(calls) > 4
    assert isinstance(got, np.ndarray) and got.shape == (5,)
    for g, e in zip(got, exact):
        assert abs(g - e) <= 1e-10 * (1.0 + abs(e))


def test_scalar_results_are_bit_identical_to_the_single_row_integrator():
    # captured before stacked integrands existed; compared with ==
    f63 = funcspace.trig_poly([0.0] * 63 + [1.0])
    f61 = funcspace.trig_poly([0.0] * 61 + [1.0])
    kinked = funcspace.trig_poly([1.0, 0.5], [0.0, 0.25])
    profile = lambda x: 2.0 - HALF_PI * np.sin(np.abs(x - 0.3))
    cases = [
        (quad.integrate(np.cos), 2.0),
        (quad.integrate(lambda x: np.sin(np.abs(x)), breakpoints=[0.0]), 1.9999999999999996),
        (quad.integrate(lambda x: np.sin(50.0 * x) * np.exp(x), (0.0, 1.0)), -0.032733182652374446),
        # the floor-limited pair: cos 63t against cos 61t, values and derivatives
        (quad.integrate(lambda x: f63.value(x) * f61.value(x)), 7.771561172376096e-16),
        (quad.integrate(lambda x: f63.derivative(x) * f61.derivative(x)), -7.958078640513122e-13),
        (quad.integrate(profile, breakpoints=[0.3, -0.7, 0.3]), math.pi),
        (quad.integrate(lambda t: math.exp(math.sin(3.0 * t)), (-1.0, 2.0), [0.5]), 3.1074071463842836),
        (funcspace.inner_product_classical(funcspace.diangle(0.2), kinked, (-1.0, 1.2)), 0.8850114121941999),
    ]
    for got, want in cases:
        assert type(got) is float and got == want
    # Bare callables: their slopes are finite differences of NumPy's sin and exp, whose
    # bits depend on the CPU's SIMD dispatch, so the reference integrates, on this CPU,
    # the integrand the call builds: values times values plus derivative_at slopes.
    iv = quad.Interval(0.0, 1.0)

    def integrand(x):
        slopes = quad.derivative_at(np.sin, x, interval=iv) * quad.derivative_at(np.exp, x, interval=iv)
        return np.sin(x) * np.exp(x) + slopes

    got = funcspace.inner_product_classical(np.sin, np.exp)
    assert type(got) is float and got == _reference_integrate(integrand, (0.0, 1.0), (), quad.DEFAULT_SPEC)
    # int_0^1 (sin x e^x + cos x e^x) = e sin 1; the differences leave about 2.5e-11
    assert abs(got - math.e * math.sin(1.0)) <= 1e-10


_RUNAWAY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from isorkhs import funcspace
f = funcspace.trig_poly([1.0, 0.5], [0.0, 0.2])
g = funcspace.diangle_span(0.2, [(0.7, -0.5)])
fd, gd = (funcspace.sampled(h.value, kinks=h.kinks) for h in (f, g))
try:
    funcspace.inner_product_iso(fd, gd, method="quadrature")
except BaseException as exc:
    print(type(exc).__name__)
"""


def test_refinement_stops_at_the_panel_cap_before_memory_runs_out():
    # Finite-difference derivatives carry rounding of about eps |f| / step,
    # above the default tolerance, so the refused panels grow about 1.6x per
    # level and depth 40 is never reached.  Under 1 GB of address space the
    # panel cap has to stop them first.
    # one BLAS thread, so the limit is spent on the arrays and not on thread buffers
    env = {**os.environ, "PYTHONPATH": str(Path(isorkhs.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _RUNAWAY], capture_output=True, text=True, env=env, timeout=300)
    assert proc.stdout.strip() == "ConvergenceError", proc.stderr[-2000:]


def test_stacked_integrand_shapes():
    # for n abscissae: (n + 1,), (2, n + 1) and (2, 2, n)
    for extra, lead in ((1, ()), (1, (2,)), (0, (2, 2))):
        with pytest.raises(InputError):
            quad.integrate(lambda x: np.ones((*lead, x.size + extra)), breakpoints=[0.0])
    calls = []

    def shifting(x):  # two rows, then three
        calls.append(x.size)
        return np.ones((2 + (len(calls) > 1), x.size))

    with pytest.raises(InputError):
        quad.integrate(shifting)
    got = quad.integrate(lambda x: np.ones((1, x.size)))
    assert got.shape == (1,) and abs(got[0] - math.pi) <= 1e-13
    assert abs(quad.integrate(lambda x: 1.0) - math.pi) <= 1e-14  # a scalar result is broadcast
    # a callable that rejects arrays is called point by point
    got = quad.integrate(lambda t: math.cos(t))
    assert type(got) is float and abs(got - 2.0) <= 1e-13


def test_nonfinite_value_in_any_row():
    def rows(x):
        return np.stack((np.cos(x), np.where(x > 0.5, np.inf, 1.0)))

    with pytest.raises(EvaluationError, match="near x="):
        quad.integrate(rows)


def test_stacked_convergence_failure_carries_arrays():
    # One level on [0, 1] with a breakpoint at 0.5: every row is x^3 on the
    # left, exact for the 2-point rule up to rounding, so that segment is
    # accepted; on the right the third row is sin(40 x), which is not.
    # Twice a row has exactly twice its sums.
    spec = quad.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_depth=1, base_points=2)

    def rows(x):
        right = np.where(x < 0.5, x**3, np.sin(40.0 * x))
        return np.stack((x**3, np.where(x < 0.5, x**3, x), right, 2.0 * right))

    with pytest.raises(ConvergenceError) as err:
        quad.integrate(rows, (0.0, 1.0), breakpoints=[0.5], spec=spec)
    estimate, bound = err.value.estimate, err.value.error_bound
    assert estimate.shape == bound.shape == (4,)
    assert np.all(np.isfinite(estimate)) and np.all(bound >= 0.0)
    # the accepted left segment is in every estimate; the refused right one
    # only as its children's sum
    assert abs(estimate[0] - 0.25) <= 1e-15 and abs(estimate[1] - (0.5**4 / 4.0 + 0.375)) <= 1e-15
    assert max(bound[0], bound[1]) <= 1e-15 and bound[2] > 1e-3
    assert estimate[3] == 2.0 * estimate[2] and bound[3] == 2.0 * bound[2]
    with pytest.raises(ConvergenceError) as err:
        quad.integrate(lambda x: np.sin(50.0 * x) * np.exp(x), spec=spec)
    assert type(err.value.estimate) is float and type(err.value.error_bound) is float


# the single-row integrator as it stood before stacked integrands, kept to
# hold scalar calls bit for bit


def _reference_integrate(f, interval, breakpoints, spec):
    iv = quad._coerce_interval(interval)
    inner = [float(b) for b in breakpoints if iv.lo < b < iv.hi]
    edges = np.unique(np.array([iv.lo, *inner, iv.hi], dtype=float))
    nodes, weights = np.polynomial.legendre.leggauss(spec.base_points)

    def panels(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * nodes[None, :]
        y = quad.sample(f, x.reshape(-1)).reshape(x.shape)
        return half * (y @ weights), half * (np.abs(y) @ weights)

    los, his = edges[:-1], edges[1:]
    parent, _ = panels(los, his)
    accepted = accepted_err = 0.0
    for _ in range(spec.max_depth):
        mids = 0.5 * (los + his)
        child, child_abs = panels(np.concatenate([los, mids]), np.concatenate([mids, his]))
        k = los.size
        pair_sum = child[:k] + child[k:]
        diff = np.abs(parent - pair_sum)
        running = accepted + float(pair_sum.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(running))
        floor = 64 * np.finfo(float).eps * (child_abs[:k] + child_abs[k:])
        done = diff <= np.maximum(tol * (his - los) / iv.length, floor)
        accepted += float(pair_sum[done].sum())
        accepted_err += float(diff[done].sum())
        if bool(done.all()):
            return accepted
        keep = ~done
        los = np.concatenate([los[keep], mids[keep]])
        his = np.concatenate([mids[keep], his[keep]])
        parent = np.concatenate([child[:k][keep], child[k:][keep]])
    return ("no convergence", accepted + float(parent.sum()), accepted_err + float(diff[~done].sum()))


@st.composite
def _scalar_cases(draw):
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.01, 3.0))
    kinks = draw(st.lists(st.floats(lo - 0.5, hi + 0.5), max_size=4))
    a, b = draw(st.floats(-60.0, 60.0)), draw(st.floats(-3.0, 3.0))
    tol = draw(st.sampled_from([1e-13, 1e-11, 1e-8, 1e-4]))
    spec = quad.QuadratureSpec(abs_tol=tol, rel_tol=tol, max_depth=draw(st.integers(1, 8)))
    return (lo, hi), kinks, a, b, spec


@seed(20232)
@settings(max_examples=200, deadline=None)
@given(case=_scalar_cases())
def test_scalar_integrate_matches_the_single_row_reference(case):
    interval, kinks, a, b, spec = case

    def f(x):
        return np.sin(a * x) * np.exp(b * x) + sum(np.abs(x - k) for k in kinks)

    want = _reference_integrate(f, interval, kinks, spec)
    try:
        got = quad.integrate(f, interval, kinks, spec)
    except ConvergenceError as exc:
        got = ("no convergence", exc.estimate, exc.error_bound)
    assert got == want

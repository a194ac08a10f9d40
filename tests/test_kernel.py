"""Kernel family, Gram systems, interpolation, and the power function."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from isorkhs import funcspace, kernel, quad, serialization, verify
from isorkhs.errors import DomainError, InputError, SingularSystemError
from isorkhs.rng import SplitMix64

HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi


def test_kernel_eval_examples():
    assert kernel.kernel_eval(0.3, 0.3) == 2.0
    assert math.isclose(kernel.kernel_eval(-QUARTER_PI, QUARTER_PI), 2.0 - HALF_PI, rel_tol=1e-15)
    assert math.isclose(kernel.kernel_eval(0.0, HALF_PI, theta=1.0), 1.0 - HALF_PI, rel_tol=1e-15)


def test_kernel_symmetry_and_broadcast():
    xs = np.linspace(-HALF_PI, HALF_PI, 9)
    mat = kernel.kernel_eval(xs[:, None], xs[None, :])
    assert mat.shape == (9, 9)
    np.testing.assert_allclose(mat, mat.T, atol=0.0)


@st.composite
def _node_stacks(draw, lo, hi):
    """An ``(m, n)`` stack of node sets in ``[lo, hi]``, ``n`` from 1 to 32, the ends among the draws."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 32))
    point = st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
    return np.array(draw(st.lists(st.lists(point, min_size=n, max_size=n), min_size=m, max_size=m)))


def _assert_stack_is_each_sets_own_call(gram, x):
    stack = gram(x[:, :, None], x[:, None, :])
    assert stack.shape == x.shape + x.shape[-1:]
    for nodes, mat in zip(x, stack):
        assert mat.tobytes() == gram(nodes[:, None], nodes[None, :]).tobytes()


# the gram-psd and classical-kernel suites read their spectra off such stacks
# (``verify._min_eigenvalue_ratio``), so each matrix must keep its own call's bytes
@settings(max_examples=150, deadline=None)
@given(x=_node_stacks(-HALF_PI, HALF_PI), theta=st.sampled_from([1.0, 1.5, 2.0, 5.0]))
def test_kernel_eval_on_a_stack_of_node_sets_is_each_sets_own_call_byte_for_byte(x, theta):
    _assert_stack_is_each_sets_own_call(lambda u, v: kernel.kernel_eval(u, v, theta), x)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), interval=st.sampled_from([(0.0, 1.0), (-0.5, 1.2)]))
def test_classical_kernel_eval_on_a_stack_of_node_sets_is_each_sets_own_call_byte_for_byte(data, interval):
    x = data.draw(_node_stacks(*interval))
    _assert_stack_is_each_sets_own_call(lambda u, v: kernel.classical_kernel_eval(*interval, u, v), x)


def test_theta_domain():
    with pytest.raises(DomainError):
        kernel.kernel_eval(0.0, 0.0, theta=0.5)
    with pytest.raises(InputError):
        kernel.kernel_eval(0.0, 0.0, theta=math.inf)
    with pytest.raises(DomainError):
        kernel.kernel_function(2.0, 2.0)


def test_section_matches_eval():
    k = kernel.kernel_function(2.0, 0.7)
    grid = np.linspace(-HALF_PI, HALF_PI, 33)
    np.testing.assert_allclose(k.value(grid), kernel.kernel_eval(grid, 0.7), atol=1e-15)


def test_reproducing_members():
    members = [
        funcspace.constant(1.0),
        funcspace.trig_poly([0.0, 1.0]),
        funcspace.diangle(0.4),
        kernel.kernel_function(2.0, -0.2),
        funcspace.diangle_span(0.5, [(-1.0, 0.7), (0.3, -0.2), (1.2, 1.0)]),
    ]
    ys = np.linspace(-HALF_PI, HALF_PI, 21)
    for f in members:
        worst = max(abs(kernel.reproducing_residual(f, float(y), method="exact")) for y in ys)
        assert worst <= 1e-10


def test_off_reproducing_residual_is_mean_scaled():
    # sections at parameter theta differ from the reproducing one by
    # (theta - 2) times the constant, so the residual is (theta - 2) * mean(f)
    f = funcspace.trig_poly([0.0, 1.0])
    for theta in (1.0, 1.5, 3.0):
        r = kernel.reproducing_residual(f, 0.3, theta=theta, method="exact")
        assert abs(r - (theta - 2.0) * (2.0 / math.pi)) <= 1e-12


@st.composite
def _members(draw):
    """A span (a kernel section, terms at +-pi/2 or 1e-15 apart) or a series of up to 6 terms."""
    kind = draw(st.sampled_from(["span", "section", "series"]))
    angle = st.one_of(st.sampled_from([-HALF_PI, HALF_PI, 0.0]), st.floats(-HALF_PI, HALF_PI))
    if kind == "section":
        return kernel.kernel_function(2.0, draw(angle))
    if kind == "span":
        terms = draw(st.lists(st.tuples(angle, st.floats(-1.0, 1.0)), max_size=6))
        if terms and draw(st.booleans()):
            terms.append((terms[0][0] + 1e-15, draw(st.floats(-1.0, 1.0))))
        return funcspace.diangle_span(draw(st.floats(-1.0, 1.0)), terms)
    cos, sin = [0.0] * 40, [0.0] * 40
    for k, c in draw(st.lists(st.tuples(st.integers(0, 39), st.floats(-1.0, 1.0)), min_size=1, max_size=3)):
        cos[k] += c
    for k, c in draw(st.lists(st.tuples(st.integers(0, 39), st.floats(-1.0, 1.0)), max_size=3)):
        sin[k] += c
    return funcspace.trig_poly(*funcspace.project_endpoints(cos, sin))


def _value_rounding(f):
    """How far a series' value may move with the number of points evaluated together.

    ``sum_k c_k b_k(x)`` summed in two orders differs by at most ``k eps sum|c|``
    for ``|b_k| <= 1``, and an ulp in each basis value adds ``eps sum|c|``; a span's
    values are elementwise, so its bound is 0.
    """
    if isinstance(f, funcspace.DiangleSpan):
        return 0.0
    _, c, _ = f._terms
    return 2.0 * (c.size + 1) * np.finfo(float).eps * float(np.abs(c).sum())


def _sweep_points(data, lo, hi, special=()):
    """A scalar, or an empty, flat or 2-D array of points in ``[lo, hi]``: ends, repeats and ``special`` drawn often."""
    shape = data.draw(st.sampled_from([(), (0,), (1,), (7,), (2, 3)]))
    size = math.prod(shape)
    within = st.floats(lo, hi)
    pool = data.draw(st.lists(within, min_size=1, max_size=3))  # repeated points
    point = st.one_of(st.sampled_from([lo, hi, *pool, *special]), within)
    pts = data.draw(st.lists(point, min_size=size, max_size=size))
    return pts[0] if shape == () else np.array(pts).reshape(shape)


@seed(20241)
@settings(max_examples=120, deadline=None)
@given(f=_members(), data=st.data())
def test_reproducing_sweep_is_the_scalar_calls(f, data):
    # the exact route: a span's residuals are the scalar calls' bits, a series' within its value rounding
    kinks = f.expansion.angles if isinstance(f, funcspace.DiangleSpan) else ()
    y = _sweep_points(data, -HALF_PI, HALF_PI, kinks)
    got = kernel.reproducing_residual(f, y, method="exact")
    if np.ndim(y) == 0:
        assert type(got) is float
        return
    want = np.array([kernel.reproducing_residual(f, float(t), method="exact") for t in y.ravel()]).reshape(y.shape)
    assert isinstance(got, np.ndarray) and got.shape == y.shape
    bound = _value_rounding(f)
    assert np.array_equal(got, want) if bound == 0.0 else np.all(np.abs(got - want) <= bound)


def test_quadrature_reproducing_sweep_is_the_scalar_calls():
    f = funcspace.trig_poly([0.0, 0.0, 1.0], [0.0, 0.3])
    ys = np.array([-HALF_PI, -0.8, 0.0, 0.0, 0.4, HALF_PI])
    got = kernel.reproducing_residual(f, ys, method="quadrature")
    want = [kernel.reproducing_residual(f, float(y), method="quadrature") for y in ys]
    assert np.abs(got - want).max() <= _value_rounding(f) and np.abs(got).max() <= 1e-7


def test_a_reproducing_sweep_reads_the_member_once(monkeypatch):
    calls = []
    value = funcspace.DiangleSpan.value
    monkeypatch.setattr(funcspace.DiangleSpan, "value", lambda self, x: calls.append(np.shape(x)) or value(self, x))
    f = funcspace.diangle_span(0.3, [(-0.9, 0.5), (0.4, -1.0)])
    kernel.reproducing_residual(f, np.linspace(-HALF_PI, HALF_PI, 101), method="exact")
    assert calls == [(101,)]


_CLASSICAL_MEMBERS = [
    (np.cos, lambda x: -np.sin(x)),
    (lambda x: np.asarray(x) ** 3 - np.asarray(x), lambda x: 3.0 * np.asarray(x) ** 2 - 1.0),
    (math.exp, math.exp),  # rejects arrays, so it is sampled point by point
    funcspace.diangle_span(0.2, [(0.3, 1.0), (-0.4, -0.5)]),  # kinks at 0.3 and -0.4
]


def _single_member_residual(f, y, a, b, spec=quad.DEFAULT_SPEC):
    """The one-member residual as it stood before members were stacked, kept as the reference of its bits."""
    a, b = float(a), float(b)
    ya = np.asarray(y, dtype=float)
    pts = ya.ravel()
    iv = quad.Interval(a, b)
    fv, f_both, kinks = funcspace._as_rule(f, iv)
    k_value, k_slope = kernel._classical_sections(a, b, ya if ya.ndim == 0 else pts[:, None])

    def rows(x):
        f0, f1 = f_both(x)
        return f0 * k_value(x) + f1 * k_slope(x)

    inner = quad.integrate(rows, iv, (*kinks, *pts.tolist()), spec)
    out = np.reshape(inner, ya.shape) - quad.sample(fv, ya)
    return float(out) if ya.ndim == 0 else out


@seed(20242)
@settings(max_examples=60, deadline=None)
@given(f=st.sampled_from(_CLASSICAL_MEMBERS), interval=st.sampled_from([(0.0, 1.0), (-0.5, 1.2)]), data=st.data())
def test_classical_sweep_matches_the_single_rows(f, interval, data):
    # one stacked quadrature, one row per point, against one single-row quadrature per point
    a, b = interval
    y = _sweep_points(data, a, b, [k for k in (0.3, -0.4) if a <= k <= b])
    got = kernel.classical_reproducing_residual(f, y, a, b)
    # the call and its one-member stack are the single-member code's bits
    ref = _single_member_residual(f, y, a, b)
    assert type(got) is type(ref) and np.array_equal(got, ref)
    assert np.array_equal(kernel._classical_residuals([f], y, a, b), [ref])
    if np.ndim(y) == 0:
        assert type(got) is float
        return
    want = np.array([kernel.classical_reproducing_residual(f, float(t), a, b) for t in y.ravel()]).reshape(y.shape)
    assert isinstance(got, np.ndarray) and got.shape == y.shape
    assert np.all(np.abs(got - want) <= 1e-12)


@seed(20243)
@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(st.sampled_from(_CLASSICAL_MEMBERS), min_size=2, max_size=4),
    interval=st.sampled_from([(0.0, 1.0), (-0.5, 1.2)]),
    data=st.data(),
)
def test_stacked_members_agree_with_their_own_calls_within_each_rows_tolerance(members, interval, data):
    # a panel refines until every row passes and takes every member's kinks, so a row
    # can differ from its own call, each within its tolerance max(abs_tol, rel_tol |inner|)
    a, b = interval
    y = _sweep_points(data, a, b, [k for k in (0.3, -0.4) if a <= k <= b])
    got = kernel._classical_residuals(members, y, a, b)
    assert got.shape == (len(members), *np.shape(y))
    spec, iv = quad.DEFAULT_SPEC, quad.Interval(a, b)
    for f, row in zip(members, got):
        want = kernel.classical_reproducing_residual(f, y, a, b)
        inner = want + quad.sample(funcspace._as_rule(f, iv)[0], np.asarray(y, dtype=float))
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(inner))
        assert np.all(np.abs(row - want) <= 2.0 * tol)


def test_the_classical_suites_stack_is_its_members_own_calls_bit_for_bit():
    got = kernel._classical_residuals(verify._CLASSICAL_MEMBERS, verify._CLASSICAL_POINTS, 0.0, 1.0)
    for f, row in zip(verify._CLASSICAL_MEMBERS, got, strict=True):
        assert np.array_equal(row, kernel.classical_reproducing_residual(f, verify._CLASSICAL_POINTS, 0.0, 1.0))
        assert np.array_equal(row, _single_member_residual(f, verify._CLASSICAL_POINTS, 0.0, 1.0))


def test_a_classical_sweep_reads_the_member_once_per_level(monkeypatch):
    calls = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(quad, "_panel_integrals", counted("levels", quad._panel_integrals))
    monkeypatch.setattr(quad, "integrate", counted("integrals", quad.integrate))
    cos = (counted("value0", np.cos), counted("derivative0", lambda x: -np.sin(x)))
    exp = (counted("value1", np.exp), counted("derivative1", np.exp))
    ys = np.array([0.0, 0.3, 0.7, 1.0])
    for k in (1, 2):  # the one-member call, then a two-member stack
        calls.update(dict.fromkeys(["value0", "derivative0", "value1", "derivative1", "levels", "integrals"], 0))
        r = kernel.classical_reproducing_residual(cos, ys) if k == 1 else kernel._classical_residuals([cos, exp], ys)
        assert np.abs(r).max() <= 1e-12
        # one quadrature; per member one value and one derivative call per level, and one value call at the points
        levels = calls["levels"]
        want = {"levels": levels, "integrals": 1, "value1": 0, "derivative1": 0}
        want |= {f"value{i}": levels + 1 for i in range(k)} | {f"derivative{i}": levels for i in range(k)}
        assert levels >= 2 and calls == want


_BAD_SWEEPS = [
    (lambda y: kernel.reproducing_residual(funcspace.diangle(0.3), y), [0.1, 1.7, -2.0]),
    (lambda y: kernel.reproducing_residual(funcspace.diangle(0.3), y), [0.1, math.nan, 2.0]),
    (lambda y: kernel.classical_reproducing_residual(np.cos, y), [0.5, 1.0 + 2e-12, -1.0]),
    (lambda y: kernel.classical_reproducing_residual(np.cos, y), [0.5, -2e-12, math.nan]),
    (lambda y: kernel.classical_reproducing_residual(np.cos, y), [0.5, math.nan, 2.0]),
]


@pytest.mark.parametrize(
    "call, points", _BAD_SWEEPS, ids=["iso-out", "iso-nan", "classical-above", "classical-below", "classical-nan"]
)
def test_a_sweep_raises_what_the_scalar_call_at_its_first_bad_point_raises(call, points):
    with pytest.raises(DomainError) as scalar:
        call(points[1])
    for shape in ((3,), (3, 1)):
        with pytest.raises(DomainError) as sweep:
            call(np.array(points).reshape(shape))
        assert type(sweep.value) is DomainError and str(sweep.value) == str(scalar.value)


def test_classical_sections_reject_a_nan_point():
    # as the isoperimetric section does; the residual used to reach the quadrature's breakpoint check
    with pytest.raises(DomainError, match="section point outside"):
        kernel.classical_kernel_function(0.0, 1.0, math.nan)
    with pytest.raises(DomainError, match="section point outside"):
        kernel.kernel_function(2.0, math.nan)


@pytest.mark.parametrize("ends", [("a", 1.0), (0.0, "b"), (None, 1.0), (0.0, [1.0])], ids=["a", "b", "none", "list"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: kernel.classical_kernel_eval(a, b, 0.5, 0.5),
        lambda a, b: kernel.classical_kernel_function(a, b, 0.5),
        lambda a, b: kernel.classical_reproducing_residual(np.cos, 0.5, a, b),
    ],
    ids=["eval", "function", "residual"],
)
def test_classical_kernel_endpoints_that_are_not_numbers_raise_input_error(call, ends):
    with pytest.raises(InputError):
        call(*ends)


def test_classical_kernel_eval():
    assert math.isclose(kernel.classical_kernel_eval(0.0, 1.0, 0.0, 1.0), 1.0 / math.sinh(1.0), rel_tol=1e-15)
    grid = np.linspace(0.0, 1.0, 9)
    mat = kernel.classical_kernel_eval(0.0, 1.0, grid[:, None], grid[None, :])
    np.testing.assert_allclose(mat, mat.T, atol=0.0)
    with pytest.raises(DomainError):
        kernel.classical_kernel_eval(0.0, 1.0, -0.5, 0.5)
    with pytest.raises(InputError):
        kernel.classical_kernel_eval(1.0, 0.0, 0.5, 0.5)


@pytest.mark.parametrize("y", [0.0, 0.25, 0.8, 1.0])
def test_classical_reproduction(y):
    members = [
        (np.cos, lambda x: -np.sin(x)),
        (lambda x: np.asarray(x, dtype=float) ** 2, lambda x: 2.0 * np.asarray(x, dtype=float)),
    ]
    for f in members:
        assert abs(kernel.classical_reproducing_residual(f, y, 0.0, 1.0)) <= 1e-9


_OUT_OF_RANGE = [
    (arg, side, form)
    for arg in ("x", "y")
    for side in ("below", "above")
    for form in ("scalar", "broadcast")
]


@pytest.mark.parametrize("arg, side, form", _OUT_OF_RANGE, ids=["-".join(c) for c in _OUT_OF_RANGE])
def test_classical_kernel_rejects_any_one_argument_out_of_range(arg, side, form):
    point = -2e-12 if side == "below" else 1.0 + 2e-12
    if form == "scalar":
        out, inside = point, 0.4
    else:  # one bad entry of a column, broadcast against a row
        out, inside = np.array([[0.2], [point], [0.9]]), np.array([0.0, 0.5, 1.0])
    x, y = (out, inside) if arg == "x" else (inside, out)
    with pytest.raises(DomainError, match="must lie in"):
        kernel.classical_kernel_eval(0.0, 1.0, x, y)


def test_classical_kernel_takes_points_within_its_slack_and_keeps_nan():
    ends = np.array([-1e-12, 0.0, 1.0, 1.0 + 1e-12])
    mat = kernel.classical_kernel_eval(0.0, 1.0, ends[:, None], ends[None, :])
    assert mat.shape == (4, 4) and np.all(np.isfinite(mat))
    assert np.array_equal(kernel.classical_kernel_eval(0.0, 1.0, -1e-12, 1.0 + 1e-12), mat[0, 3])
    # a NaN argument gives NaN at its point and is no domain error, unless a point is out of range
    assert math.isnan(kernel.classical_kernel_eval(0.0, 1.0, math.nan, 0.5))
    got = kernel.classical_kernel_eval(0.0, 1.0, np.array([math.nan, 0.2]), 0.5)
    assert math.isnan(got[0]) and got[1] == kernel.classical_kernel_eval(0.0, 1.0, 0.2, 0.5)
    # min(x, y) and max(x, y) are NaN where either is: the out-of-range point sits under a NaN
    for x, y in ((math.nan, 5.0), (np.array([math.nan, 5.0]), 0.5), (np.array([0.5, math.nan]), np.array([0.5, -1.0]))):
        with pytest.raises(DomainError):
            kernel.classical_kernel_eval(0.0, 1.0, x, y)
    assert kernel.classical_kernel_eval(0.0, 1.0, np.zeros(0), 0.5).shape == (0,)


def test_classical_kernel_checks_the_range_before_shapes_that_do_not_broadcast():
    inside, three = np.array([0.1, 0.5]), np.array([0.2, 0.4, 0.6])
    for x, y in ((np.array([0.2, 1.5, 0.6]), inside), (inside, np.array([-0.5, 0.4, 0.6]))):
        with pytest.raises(DomainError, match="must lie in"):
            kernel.classical_kernel_eval(0.0, 1.0, x, y)
    with pytest.raises(ValueError, match="broadcast"):
        kernel.classical_kernel_eval(0.0, 1.0, three, inside)


def test_gram_examples():
    g = kernel.gram_system([-QUARTER_PI, QUARTER_PI])
    expected = np.array([[2.0, 2.0 - HALF_PI], [2.0 - HALF_PI, 2.0]])
    np.testing.assert_allclose(g.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(g.eigenvalues, [HALF_PI, 4.0 - HALF_PI], atol=1e-14)
    assert g.chol_ok
    assert math.isclose(g.cond_estimate, (4.0 - HALF_PI) / HALF_PI, rel_tol=1e-13)

    single = kernel.gram_system([0.1], theta=5.0)
    np.testing.assert_allclose(single.matrix, [[5.0]], atol=0.0)

    # antipodal endpoints at theta = 1: the all-ones matrix, spectrum {0, 2}
    flat = kernel.gram_system([-HALF_PI, HALF_PI], theta=1.0)
    np.testing.assert_allclose(flat.matrix, np.ones((2, 2)), atol=1e-15)
    np.testing.assert_allclose(flat.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_gram_validation():
    with pytest.raises(InputError):
        kernel.gram_system([0.0, 0.0])
    with pytest.raises(InputError):
        kernel.gram_system([0.0, 3.0])
    with pytest.raises(DomainError):
        kernel.gram_system([0.0], theta=0.0)
    with pytest.raises(InputError):
        kernel.gram_system([0.0], ridge=-1.0)
    # separation is measured on the circle: 3.3e-16 apart through pi/2, these
    # are one point, while the exact pair -pi/2, pi/2 is one merged point
    with pytest.raises(InputError, match="distinct"):
        kernel.gram_system([-1.5707963267948963, HALF_PI])
    with pytest.raises(InputError, match="distinct"):
        kernel.gram_system([-HALF_PI, 0.2, HALF_PI - 1e-13])
    assert kernel.gram_system([-HALF_PI, HALF_PI]).chol_ok
    assert kernel.gram_system([-HALF_PI - 5e-13, 0.2, HALF_PI]).chol_ok


_NODE_ERRORS = [
    ([0.1, math.nan, -0.3], "nodes must be finite and lie in [-pi/2, pi/2]"),
    ([[0.1], [0.2]], "nodes must be a flat sequence"),
    ([0.1, -1.6], "nodes must be finite and lie in [-pi/2, pi/2]"),
    # 3.3e-16 apart through pi/2: the gap that wraps around the circle
    ([0.2, HALF_PI, -1.5707963267948963], "nodes must be pairwise distinct on the circle"),
]


@pytest.mark.parametrize("nodes, message", _NODE_ERRORS, ids=["nan", "nested", "outside", "wrapped-gap"])
@pytest.mark.parametrize("entry", ["gram_system", "interpolate", "GramSystem"])
def test_node_checks_keep_their_errors(entry, nodes, message):
    build = {
        "gram_system": kernel.gram_system,
        "interpolate": lambda n: kernel.interpolate(n, [0.0] * len(n)),
        "GramSystem": lambda n: kernel.GramSystem(2.0, n),
    }[entry]
    with pytest.raises(InputError) as info:
        build(nodes)
    assert type(info.value) is InputError and str(info.value) == message


def test_gram_psd_randomized():
    rng = SplitMix64(2)
    thetas = (1.0, 1.5, 2.0, 5.0)
    for i in range(40):
        n = 2 + rng.below(15)
        nodes = sorted(set(round(rng.uniform(-HALF_PI, HALF_PI), 6) for _ in range(n)))
        g = kernel.gram_system(nodes, theta=thetas[i % 4])
        assert g.min_eig >= -1e-9 * max(1.0, g.max_eig)


def test_interpolate_single_node():
    itp = kernel.interpolate([0.0], [3.0])
    assert math.isclose(itp.coeffs[0], 1.5, rel_tol=1e-12)
    assert math.isclose(itp.value(0.0), 3.0, rel_tol=1e-12)
    assert "fallback" not in serialization.write_interpolant(itp)


def test_interpolate_pair():
    itp = kernel.interpolate([-QUARTER_PI, QUARTER_PI], [1.0, 1.0])
    c = 1.0 / (4.0 - HALF_PI)
    for got in itp.coeffs:
        assert math.isclose(got, c, rel_tol=1e-12)
    nodes = np.asarray(itp.nodes)
    np.testing.assert_allclose(itp.value(nodes), [1.0, 1.0], atol=1e-12)


def test_interpolant_expansion_reproduces_values():
    nodes = [-1.1, -0.2, 0.4, 1.3]
    values = [0.5, -1.0, 2.0, 0.1]
    itp = kernel.interpolate(nodes, values)
    assert isinstance(itp, funcspace.DiangleSpan)
    f = funcspace.DiangleSpan(itp.expansion)
    np.testing.assert_allclose(f.value(np.asarray(nodes)), values, atol=1e-9)
    # the expansion and the kernel-coefficient table are the same function
    grid = np.linspace(-HALF_PI, HALF_PI, 17)
    np.testing.assert_allclose(f.value(grid), itp.value(grid), atol=1e-12)
    np.testing.assert_allclose(f.derivative(grid), itp.derivative(grid), atol=1e-12)


def test_interpolating_a_section_recovers_it():
    # data sampled from K(., 0.3) is interpolated by K(., 0.3) itself,
    # which is also the norm-minimal solution
    nodes = [-0.5, 0.3, 0.9]
    target = kernel.kernel_function(2.0, 0.3)
    itp = kernel.interpolate(nodes, [float(target.value(y)) for y in nodes])
    np.testing.assert_allclose(itp.coeffs, [0.0, 1.0, 0.0], atol=1e-12)
    assert funcspace.norm_iso(itp, method="exact") <= funcspace.norm_iso(target, method="exact") + 1e-8


def test_interpolate_with_ridge_biases_toward_zero():
    nodes = [-0.8, 0.0, 0.8]
    values = [1.0, 1.0, 1.0]
    plain = kernel.interpolate(nodes, values)
    ridged = kernel.interpolate(nodes, values, ridge=0.5)
    assert ridged.ridge == 0.5
    assert sum(abs(c) for c in ridged.coeffs) < sum(abs(c) for c in plain.coeffs)


def test_interpolate_validation():
    with pytest.raises(InputError):
        kernel.interpolate([0.0, 0.5], [1.0])
    with pytest.raises(InputError):
        kernel.interpolate([0.0], [math.nan])


def test_interpolate_too_clustered_raises_singular_system():
    # three nodes 1.1e-12 apart: even the correctly rounded coefficients miss
    # the 1e-8 node residual, so the data are valid and the solve is what fails
    nodes = [0.3, 0.3000000000011, 0.3000000000022]
    with pytest.raises(SingularSystemError, match="residual .* positive ridge"):
        kernel.interpolate(nodes, [1.0, 1.1, 1.2])
    assert kernel.interpolate(nodes, [1.0, 1.1, 1.2], ridge=1e-6).ridge == 1e-6


@pytest.mark.parametrize("theta", [1e12, 1e16])
def test_ridge_fit_that_misses_its_node_residual_raises_singular_system(theta):
    # at these theta |value(nodes) + ridge c - values| reads 1.2e-4 and 0.099,
    # far above the 1e-8 (1 + max|v|) tolerance
    with pytest.raises(SingularSystemError, match=r"residual .* ridge 0\.5"):
        kernel.interpolate([0.1, 0.5, 1.0], [1.0, 2.0, 0.5], theta=theta, ridge=0.5)


def test_ridge_fit_within_its_residual_keeps_its_coefficients():
    nodes, values = [0.1, 0.5, 1.0], [1.0, 2.0, 0.5]
    # the guard reads the fit and leaves it alone: the coefficients are the solve's bits
    itp = kernel.interpolate(nodes, values, theta=2.0, ridge=0.5)
    g = kernel.gram_system(nodes, theta=2.0, ridge=0.5)
    assert [c.hex() for c in itp.coeffs] == [c.hex() for c in g.solve(values).tolist()]
    fitted = itp.value(np.array(nodes)) + 0.5 * np.array(itp.coeffs)
    assert np.abs(fitted - values).max() <= 1e-8 * 3.0


def test_interpolate_endpoints_are_one_point():
    # members take equal values at -pi/2 and pi/2, so data there must agree
    with pytest.raises(InputError, match="one point"):
        kernel.interpolate([-HALF_PI, HALF_PI], [1.0, 2.0])
    with pytest.raises(InputError, match="one point"):
        kernel.interpolate([-HALF_PI, 0.2, HALF_PI], [1.0, 0.0, 1.0 + 1e-9])
    itp = kernel.interpolate([-HALF_PI, 0.2, HALF_PI], [1.0, 0.0, 1.0 + 1e-13])
    np.testing.assert_allclose(itp.value(np.asarray(itp.nodes)), [1.0, 0.0, 1.0], atol=2e-8)
    # nodes 3.3e-16 apart through pi/2 are rejected as one point, not solved
    with pytest.raises(InputError, match="distinct"):
        kernel.interpolate([-1.5707963267948963, 0.2, HALF_PI], [1.0, 0.5, 2.0])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double")
def test_clustered_triples_interpolate():
    # 1600 nodes in triples 1e-6 apart: the coefficients cancel to about 1e9 in
    # sum, and the prefix-sum residual stays within guarantee 11; the true
    # residual of the returned coefficients is read with long-double sums
    rng = np.random.default_rng(11)
    centres = -1.5 + (np.arange(534) + rng.uniform(0.1, 0.9, 534)) * (3.0 / 534)
    nodes = (centres[:, None] + 1e-6 * np.arange(3)).ravel()[:1600]
    values = rng.uniform(-2.0, 2.0, nodes.size)
    itp = kernel.interpolate(nodes.tolist(), values.tolist())
    x, c = nodes.astype(np.longdouble), np.asarray(itp.coeffs, dtype=np.longdouble)
    half_pi = np.longdouble(math.pi) / 2
    residual = max(
        float(np.max(np.abs((2 - half_pi * np.sin(np.abs(x[i : i + 400, None] - x))) @ c - values[i : i + 400])))
        for i in range(0, x.size, 400)
    )
    assert residual <= 1e-8 * (1.0 + np.max(np.abs(values)))


def test_interpolate_empty():
    itp = kernel.interpolate([], [])
    assert itp.nodes == ()
    assert itp.coeffs == ()


def test_power_function_empty_nodes():
    g = kernel.gram_system([])
    assert kernel.power_function(g, 0.3) == math.sqrt(2.0)
    out = kernel.power_function(g, np.asarray([0.0, 1.0]))
    np.testing.assert_allclose(out, math.sqrt(2.0), atol=0.0)


def test_power_function_single_node():
    g = kernel.gram_system([0.0])
    # sqrt(theta - K(x,0)^2 / theta) at the far endpoint
    expected = math.sqrt(2.0 - (2.0 - HALF_PI) ** 2 / 2.0)
    assert math.isclose(kernel.power_function(g, HALF_PI), expected, rel_tol=1e-13)
    assert math.isclose(kernel.power_function(g, HALF_PI), 1.3812646753803643, rel_tol=1e-12)
    assert kernel.power_function(g, 0.0) <= 1e-7


def test_power_function_vanishes_at_nodes():
    nodes = [-1.2, -0.3, 0.1, 0.9]
    g = kernel.gram_system(nodes)
    np.testing.assert_allclose(kernel.power_function(g, np.asarray(nodes)), 0.0, atol=1e-7)


def test_power_function_monotone_under_refinement():
    grid = np.linspace(-HALF_PI, HALF_PI, 101)
    small = kernel.gram_system([-0.7, 0.2])
    big = kernel.gram_system([-0.7, 0.2, 0.8])
    p_small = kernel.power_function(small, grid)
    p_big = kernel.power_function(big, grid)
    assert np.all(p_big <= p_small + 1e-9)
    assert np.all(p_small >= 0.0)


def test_power_function_domain():
    g = kernel.gram_system([0.0])
    for bad in (2.0, math.nan):
        with pytest.raises(DomainError):
            kernel.power_function(g, bad)
    # a hair past an end is read at that end, with a ridge as without
    for ridge in (0.0, 0.1):
        g = kernel.gram_system([-1.0, 0.2, 0.9], ridge=ridge)
        for end in (-HALF_PI, HALF_PI):
            assert kernel.power_function(g, end + math.copysign(5e-13, end)) == kernel.power_function(g, end)


# ---------------------------------------------------------------------------
# the NumPy Gram path against independent dense algebra


def _dense_kernel(theta, x, y):
    return theta - HALF_PI * np.sin(np.abs(np.subtract.outer(x, y)))


@st.composite
def _gram_cases(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 129, 300]), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # triples 1e-6 apart around jittered centres (cond about 2.5e8 at n = 200)
        cells = -(-n // 3)
        centres = -1.5 + (np.arange(cells) + rng.uniform(0.1, 0.9, cells)) * (3.0 / cells)
        nodes = (centres[:, None] + 1e-6 * np.arange(3)).ravel()[:n]
    else:
        nodes = np.sort(rng.uniform(-HALF_PI, HALF_PI, n))
    theta = draw(st.sampled_from([1.0, 1.5, 2.0, 5.0]))
    ridge = draw(st.sampled_from([0.0, 1e-3]))
    return kernel.gram_system(nodes.tolist(), theta=theta, ridge=ridge), rng.standard_normal(n)


@seed(20217)
@settings(max_examples=40, deadline=None)
@given(case=_gram_cases())
def test_gram_path_matches_dense_algebra(case):
    g, b = case
    assert np.array_equal(g.matrix, _dense_kernel(g.theta, g.node_array, g.node_array))
    a = g.matrix + g.ridge * np.eye(g.size)
    assert g.chol_ok
    x, ref = g.solve(b), np.linalg.solve(a, b)
    # normwise backward errors; a Cholesky solve keeps them at a few n u
    scale = np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(a @ x - b) <= 1e-13 * scale
    assert np.linalg.norm(a @ (x - ref)) <= 1e-13 * scale

    pts = np.linspace(-HALF_PI, HALF_PI, 41)
    cols = _dense_kernel(g.theta, pts, g.node_array)
    p2_ref = np.maximum(0.0, g.theta - np.einsum("ij,ji->i", cols, np.linalg.solve(a, cols.T)))
    assert np.max(np.abs(kernel.power_function(g, pts) ** 2 - p2_ref)) <= 1e-10 * g.theta
    if g.ridge == 0.0:
        assert g.min_eig >= -1e-9 * max(1.0, g.max_eig)


def test_gram_solves_without_factors_and_reads_the_spectrum_lazily(monkeypatch):
    calls = {"cholesky": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    nodes = [-1.1, -0.2, 0.4, 1.3]
    for ridge in (0.0, 1e-3):
        g = kernel.gram_system(nodes, ridge=ridge)
        g.solve(np.ones(4))
        kernel.power_function(g, np.linspace(-HALF_PI, HALF_PI, 9))
        kernel.interpolate(nodes, [0.5, -1.0, 2.0, 0.1], ridge=ridge)
        assert g.chol_ok and "matrix" not in g.__dict__
    assert calls == {"cholesky": 0, "eigvalsh": 0}
    assert g.min_eig > 0.0 and g.cond_estimate > 1.0 and g.max_eig > 0.0
    assert calls == {"cholesky": 0, "eigvalsh": 1}


def test_failed_certificate_is_singular_without_reading_the_spectrum(monkeypatch):
    # no admissible node set fails the gap certificate in double precision,
    # so zero half-gap tangents stand in for one; the gaps alone decide the error
    monkeypatch.setattr(kernel, "_half_tan", lambda d, wrapped: np.zeros_like(d))
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or eigvalsh(a))
    nodes = [-1.1, -0.2, 0.4, 1.3]
    for ridge in (0.0, 0.5):
        g = kernel.gram_system(nodes, ridge=ridge)
        assert not g.chol_ok
        with pytest.raises(SingularSystemError, match="certify"):
            g.solve(np.ones(4))
        with pytest.raises(SingularSystemError, match="certify"):
            kernel.power_function(g, 0.0)
        with pytest.raises(SingularSystemError, match="certify"):
            kernel.interpolate(nodes, [0.5, -1.0, 2.0, 0.1], ridge=ridge)
    assert spectra == []
    assert g.min_eig > 0.0 and len(spectra) == 1  # the spectrum is still there when read


def _dense_power_squared(theta, nodes, pts, ridge=0.0):
    nodes = np.asarray(nodes, dtype=float)
    cols = _dense_kernel(theta, pts, nodes)
    a = _dense_kernel(theta, nodes, nodes) + ridge * np.eye(nodes.size)
    return np.maximum(0.0, theta - np.einsum("ij,ji->i", cols, np.linalg.solve(a, cols.T)))


@pytest.mark.parametrize("theta", [1.0, 1.5, 2.0, 5.0])
def test_closed_form_power_matches_dense(theta):
    rng = np.random.default_rng(7)
    grid = np.linspace(-HALF_PI, HALF_PI, 41)
    plain = np.sort(rng.uniform(-1.5, 1.5, 9))
    triples = (np.array([-1.2, -0.1, 0.8])[:, None] + 1e-6 * np.arange(3)).ravel()
    cases = [
        (plain, plain),
        ([0.4], [0.4]),
        ([-0.3, -0.3 + 1e-6], [-0.3, -0.3 + 1e-6]),  # one gap is nearly pi
        (triples, triples),
        # -pi/2 and pi/2 are one point, so the dense reference keeps one of them
        ([-HALF_PI, -0.5, 0.7, HALF_PI], [-HALF_PI, -0.5, 0.7]),
        ([HALF_PI, 0.2], [HALF_PI, 0.2]),
    ]
    for nodes, distinct in cases:
        near = np.concatenate([np.asarray(nodes) + d for d in (1e-15, -1e-12, 1e-9)])
        pts = np.concatenate((grid, np.clip(near, -HALF_PI, HALF_PI)))
        got = kernel.power_function(kernel.gram_system(list(nodes), theta=theta), pts) ** 2
        gap = np.max(np.abs(got - _dense_power_squared(theta, distinct, pts)))
        assert gap <= 1e-10 * theta, (nodes, gap)
        assert np.all(kernel.power_function(kernel.gram_system(list(nodes), theta=theta), np.asarray(nodes)) == 0.0)


def test_structured_solve_edge_cases_match_dense():
    ends = [-HALF_PI, 0.3, HALF_PI]
    # the two endpoint sections are one function: their coefficients split evenly
    itp = kernel.interpolate([-HALF_PI, HALF_PI], [1.0, 1.0])
    assert itp.coeffs == (0.25, 0.25)
    itp = kernel.interpolate(ends, [1.0, -0.5, 1.0])
    assert itp.coeffs[0] == itp.coeffs[2]
    np.testing.assert_allclose(itp.value(np.asarray(ends)), [1.0, -0.5, 1.0], atol=1e-12)
    # with a ridge the endpoint rows are independent and the dense system is definite
    rng = np.random.default_rng(3)
    for nodes in (ends, [-HALF_PI, HALF_PI], [0.2], [-0.3, -0.3 + 1e-6], [-1.0, 0.1, 0.1 + 1e-6, 1.4]):
        for theta, ridge in ((1.0, 1e-3), (2.0, 0.5), (5.0, 1e-6)):
            g = kernel.gram_system(nodes, theta=theta, ridge=ridge)
            b = rng.standard_normal((len(nodes), 2))
            a = _dense_kernel(theta, np.asarray(nodes), np.asarray(nodes)) + ridge * np.eye(len(nodes))
            x = g.solve(b)
            scale = np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b)
            assert np.linalg.norm(a @ x - b) <= 1e-13 * scale, (nodes, theta, ridge)
            pts = np.linspace(-HALF_PI, HALF_PI, 13)
            gap = np.max(np.abs(kernel.power_function(g, pts) ** 2 - _dense_power_squared(theta, nodes, pts, ridge)))
            assert gap <= 1e-10 * theta


def _shuffled_cases():
    """(nodes, values, theta, ridge): uniform sets, clustered triples, the merged ends, a node at pi/2, a ridge."""
    rng = np.random.default_rng(22)
    uniform = [-HALF_PI + (np.arange(n) + rng.uniform(0.1, 0.9, n)) * (math.pi / n) for n in (2, 8, 50)]
    triples = (np.array([-1.2, -0.1, 0.8])[:, None] + 1e-6 * np.arange(3)).ravel()
    cases = [(x, 2.0, 0.0) for x in uniform] + [(triples, 1.0, 0.0), (triples, 5.0, 0.0)]
    cases += [(np.array([-HALF_PI, -0.4, 0.3, HALF_PI]), 2.0, 0.0), (np.array([-1.0, 0.2, HALF_PI]), 1.5, 0.0)]
    cases += [(uniform[1], 2.0, 1e-3), (np.array([-HALF_PI, -0.4, 0.3, HALF_PI]), 1.5, 0.5)]
    out = []
    for x, theta, ridge in cases:
        values = rng.uniform(-2.0, 2.0, x.size)
        values[np.abs(x) == HALF_PI] = 0.7  # -pi/2 and pi/2 are one point
        out.append((x, values, theta, ridge))
    return out


@pytest.mark.parametrize("case", _shuffled_cases(), ids=lambda case: f"n{case[0].size}-t{case[2]}-r{case[3]}")
def test_a_shuffled_node_set_permutes_the_solution_bit_for_bit(case):
    # a node set is sorted once, stably, so its input order never reaches the
    # structured arithmetic: coefficients and solutions permute with the nodes,
    # and the power function (the ridge one sums its quadratic form k_x^T c
    # over the sorted nodes) and the certificate do not move.  The spectrum,
    # LAPACK on the permuted matrix, reduces over the nodes in input order
    # and agrees to rounding
    x, values, theta, ridge = case
    rng = np.random.default_rng(x.size)
    g = kernel.gram_system(x.tolist(), theta, ridge)
    itp = kernel.interpolate(x.tolist(), values.tolist(), theta, ridge)
    b = rng.standard_normal((x.size, 2))
    solution, coeffs = g.solve(b), np.array(itp.coeffs)
    grid = np.linspace(-HALF_PI, HALF_PI, 41)
    power, fitted = kernel.power_function(g, grid), itp.value(grid)
    # an interpolant read back from its record sorts its own nodes, to the same table
    assert np.array_equal(kernel.Interpolant(theta, ridge, itp.nodes, itp.coeffs).value(grid), fitted)
    for _ in range(3):
        p = rng.permutation(x.size)
        h = kernel.gram_system(x[p].tolist(), theta, ridge)
        assert np.array_equal(h.solve(b[p]), solution[p])
        shuffled = kernel.interpolate(x[p].tolist(), values[p].tolist(), theta, ridge)
        assert np.array_equal(np.array(shuffled.coeffs), coeffs[p])
        assert np.array_equal(shuffled.value(grid), fitted)
        assert h.chol_ok == g.chol_ok
        assert np.array_equal(kernel.power_function(h, grid), power)
        tol = 8 * x.size * np.finfo(float).eps * g.max_eig
        assert abs(h.min_eig - g.min_eig) <= tol and abs(h.max_eig - g.max_eig) <= tol


@pytest.mark.parametrize(
    "case", [c for c in _shuffled_cases() if not c[3]], ids=lambda case: f"n{case[0].size}-t{case[2]}"
)
def test_the_residual_guard_reads_the_bits_value_gives(case, monkeypatch):
    # the guard reads node values off the table rows, in one call for every node set; a record read back
    # evaluates them through value, and the residual both give is printed with the error, so it must be
    # the same bits: each node reads the row value's search finds there (the merged pair shares one)
    x, values, theta, _ = case
    p = np.random.default_rng(x.size).permutation(x.size)
    x, values = x[p], values[p]
    coeffs = kernel.gram_system(x.tolist(), theta).solve(values)
    record = kernel.Interpolant(theta, 0.0, tuple(x.tolist()), tuple(coeffs.tolist()))
    residual = float(np.abs(record.value(x) - values).max())
    calls, at_nodes = [], kernel._profile_table_at_nodes

    def spy(a, c):
        calls.append((a, *at_nodes(a, c)))
        return calls[-1][1:]

    monkeypatch.setattr(kernel, "_profile_table_at_nodes", spy)
    monkeypatch.setattr(kernel, "_RESIDUAL_TOL", -1.0)  # every residual fails, so the message shows it
    with pytest.raises(SingularSystemError, match=f"residual {residual!r} exceeds"):
        kernel.interpolate(x.tolist(), values.tolist(), theta)
    [(a, table, profile)] = calls
    rows = np.searchsorted(a, a, side="right")
    assert np.array_equal(profile, np.sin(a) * table[0, rows] - np.cos(a) * table[1, rows])


@st.composite
def _interpolants(draw):
    """Interpolants from ``interpolate`` on shuffled nodes (plain, with a node at pi/2, with the merged pair
    -pi/2, pi/2, triples 1e-6 apart, with a ridge) or read back from their records."""
    kind = draw(st.sampled_from(["plain", "half-pi", "merged", "triples", "ridge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    nodes = -HALF_PI + (np.arange(n) + rng.uniform(0.1, 0.9, n)) * (math.pi / n)
    if kind == "triples":
        nodes = (nodes[:, None] * 0.95 + 1e-6 * np.arange(3)).ravel()
    elif kind == "half-pi":
        nodes[-1] = HALF_PI
    elif kind == "merged":
        nodes = np.concatenate(([-HALF_PI], nodes, [HALF_PI]))
    values = rng.uniform(-2.0, 2.0, nodes.size)
    if kind == "merged":
        values[-1] = values[0]  # -pi/2 and pi/2 are one point
    p = rng.permutation(nodes.size)
    itp = kernel.interpolate(
        nodes[p].tolist(), values[p].tolist(), draw(st.sampled_from([1.0, 2.0, 5.0])),
        1e-3 if kind == "ridge" else 0.0,
    )
    if draw(st.booleans()):
        itp = serialization.read_interpolant(json.loads(json.dumps(serialization.write_interpolant(itp))))
    return itp


@seed(20234)
@settings(max_examples=150, deadline=None)
@given(itp=_interpolants(), data=st.data())
def test_interpolant_value_and_derivative_match_the_two_calls_bit_for_bit(itp, data):
    # points on the nodes and at +-pi/2, which every reading reduces modulo pi
    point = st.one_of(st.sampled_from([-HALF_PI, HALF_PI, 0.0, *itp.nodes]), st.floats(-HALF_PI, HALF_PI))
    shape = data.draw(st.sampled_from([(), (7,), (2, 3)]))
    pts = data.draw(st.lists(point, min_size=math.prod(shape), max_size=math.prod(shape)))
    x = pts[0] if shape == () else np.array(pts).reshape(shape)
    value, slope = itp.value_and_derivative(x)
    for got, want in ((value, itp.value(x)), (slope, itp.derivative(x))):
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@seed(20251)
@settings(max_examples=150, deadline=None)
@given(itp=_interpolants())
def test_an_interpolant_reads_both_ends_alike(itp):
    # -pi/2 and pi/2 are one point of the circle: every reading gives both the same bits
    ends = np.array([-HALF_PI, HALF_PI])
    both = itp.value_and_derivative(ends)
    for read, pair in ((itp.value, both[0]), (itp.derivative, both[1])):
        lo, hi = read(-HALF_PI), read(HALF_PI)
        assert type(lo) is float and np.float64(lo).tobytes() == np.float64(hi).tobytes()
        assert read(ends).tobytes() == pair.tobytes() == np.array([lo, lo]).tobytes()


def test_gram_scales_to_many_nodes():
    rng = np.random.default_rng(5)
    n = 100_000
    nodes = -HALF_PI + (np.arange(n) + rng.uniform(0.1, 0.9, n)) * (math.pi / n)
    pts = np.linspace(-HALF_PI, HALF_PI, 101)
    start = time.perf_counter()
    g = kernel.gram_system(nodes.tolist())
    p = kernel.power_function(g, pts)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0 and "matrix" not in g.__dict__
    # far from every node the power function is of the size of one gap
    assert np.all(p >= 0.0) and np.max(p) <= math.sqrt(2.0 * math.pi / n)
    # interpolation, its guarantee-11 node residual and 1001 values, with no n x n array
    values = np.cos(3.0 * nodes) + rng.uniform(-0.1, 0.1, n)
    grid = np.linspace(-HALF_PI, HALF_PI, 1001)
    start = time.perf_counter()
    itp = kernel.interpolate(nodes.tolist(), values.tolist())
    fitted = itp.value(grid)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert np.max(np.abs(fitted - np.cos(3.0 * grid))) <= 0.2


def test_gram_commands_never_load_scipy(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"nodes": [-0.5, 0.1, 0.9], "values": [1.0, 0.0, 2.0]}))
    script = f"""
import contextlib, io, sys
from isorkhs import cli
path = {str(path)!r}
for argv in (["gram", "--input", path], ["interp", "--input", path],
             ["power", "--input", path, "--at", "0,0.7"],
             ["verify", "--suite", "gram-psd"], ["verify", "--suite", "classical-kernel"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

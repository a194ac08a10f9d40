import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from isorkhs import funcspace, seqmodel
from isorkhs.errors import DomainError, InputError

HALF_PI = 0.5 * math.pi

angles = st.floats(min_value=-HALF_PI, max_value=HALF_PI)
coeffs = st.floats(min_value=-2.0, max_value=2.0)


def test_normalize_angle():
    assert seqmodel.normalize_angle(HALF_PI) == -HALF_PI
    assert seqmodel.normalize_angle(-HALF_PI) == -HALF_PI
    assert abs(seqmodel.normalize_angle(0.3 + math.pi) - 0.3) <= 1e-15
    assert abs(seqmodel.normalize_angle(-4.0 * math.pi + 0.1) - 0.1) <= 1e-12
    for a in np.linspace(-10.0, 10.0, 101):
        r = seqmodel.normalize_angle(float(a))
        assert -HALF_PI <= r < HALF_PI
    with pytest.raises(InputError):
        seqmodel.normalize_angle(math.nan)


def _reduce_by_formula(a):
    n = math.floor((a + HALF_PI) / math.pi)
    r = a - n * math.pi
    if r >= HALF_PI:
        r -= math.pi
    elif r < -HALF_PI:
        r += math.pi
    return r


def test_normalize_angle_returns_in_range_angles_as_the_formula_does():
    # the 60 floats nearest each end inside [-pi/2, pi/2), both zeros, the
    # smallest subnormals and random angles: returning them unchanged gives the
    # reduction's bits, sign of zero included
    ends = [-HALF_PI, math.nextafter(HALF_PI, 0.0)]
    for _ in range(59):
        ends += [math.nextafter(ends[-2], 1.0), math.nextafter(ends[-1], -1.0)]
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
    rand = np.random.default_rng(7).uniform(-HALF_PI, HALF_PI, 5000).tolist()
    values = ends + tiny + rand
    assert all(-HALF_PI <= a < HALF_PI for a in values) and len(set(ends)) == 120
    got = [seqmodel.normalize_angle(a).hex() for a in values]
    assert got == [_reduce_by_formula(a).hex() for a in values]
    # outside the range, the formula itself runs
    outside = [HALF_PI, math.nextafter(-HALF_PI, -2.0), 2.0, -7.5, 1e6]
    assert [seqmodel.normalize_angle(a).hex() for a in outside] == [_reduce_by_formula(a).hex() for a in outside]


def test_duplicate_angles_merge():
    # normalization folds the opposite representative back to ~0.4, but only
    # bit-identical angles are merged into one term
    assert math.isclose(seqmodel.normalize_angle(0.4 + math.pi), 0.4, abs_tol=1e-12)
    e = seqmodel.diangle_expansion(0.0, [(0.4, 1.0), (0.4, 2.0)])
    assert e.terms == ((0.4, 3.0),)
    split = seqmodel.diangle_expansion(0.0, [(0.4, 1.0)])
    grid = np.linspace(-HALF_PI, HALF_PI, 17)
    np.testing.assert_allclose(
        seqmodel.expansion_value(e, grid),
        3.0 * seqmodel.expansion_value(split, grid),
        atol=1e-15,
    )


def test_zero_coefficients_dropped():
    e = seqmodel.diangle_expansion(1.0, [(0.2, 0.0), (-0.5, 1.0), (-0.5, -1.0)])
    assert e.terms == ()
    assert e.x0 == 1.0


def test_inner_product_table():
    one = seqmodel.diangle_expansion(1.0)
    assert seqmodel.seq_inner(one, one) == 1.0
    prof = seqmodel.diangle_expansion(0.0, [(0.7, 1.0)])
    assert math.isclose(seqmodel.seq_inner(one, prof), 2.0 / math.pi, rel_tol=1e-15)
    a, b = 0.7, -0.2
    pa = seqmodel.diangle_expansion(0.0, [(a, 1.0)])
    pb = seqmodel.diangle_expansion(0.0, [(b, 1.0)])
    expected = (4.0 / math.pi**2) * (2.0 - HALF_PI * math.sin(abs(a - b)))
    assert math.isclose(seqmodel.seq_inner(pa, pb), expected, rel_tol=1e-15)
    assert seqmodel.seq_inner(pa, pb) == seqmodel.seq_inner(pb, pa)


def test_norm_examples():
    assert seqmodel.seq_norm_squared(seqmodel.diangle_expansion(1.0)) == 1.0
    prof = seqmodel.diangle_expansion(0.0, [(0.0, 1.0)])
    assert math.isclose(seqmodel.seq_norm_squared(prof), 8.0 / math.pi**2, rel_tol=1e-15)
    mixed = seqmodel.diangle_expansion(1.0, [(0.5, 1.0)])
    expected = 1.0 + 4.0 / math.pi + 8.0 / math.pi**2
    assert math.isclose(seqmodel.seq_norm_squared(mixed), expected, rel_tol=1e-14)


def test_gap_examples():
    # rhombus directions pi/2 apart, unit coefficients
    sq = seqmodel.diangle_expansion(0.0, [(-math.pi / 4, 1.0), (math.pi / 4, 1.0)])
    assert math.isclose(
        seqmodel.polygon_isoperimetric_gap(sq), 16.0 / math.pi - 2.0, rel_tol=1e-14
    )
    # sign-mixed coefficients stay admissible for the reduced gap
    mixed = seqmodel.diangle_expansion(0.0, [(-math.pi / 4, 1.0), (math.pi / 4, -1.0)])
    assert math.isclose(seqmodel.polygon_isoperimetric_gap(mixed), 2.0, rel_tol=1e-14)
    single = seqmodel.diangle_expansion(0.0, [(0.9, 1.7)])
    assert math.isclose(
        seqmodel.polygon_isoperimetric_gap(single), (4.0 / math.pi) * 1.7**2, rel_tol=1e-14
    )


def test_gap_is_scaled_norm():
    for e in (
        seqmodel.diangle_expansion(0.4, [(-1.2, 0.3), (0.2, -0.8), (1.0, 1.1)]),
        seqmodel.diangle_expansion(-1.0, [(0.0, 2.0)]),
        seqmodel.diangle_expansion(2.0),
    ):
        gap = seqmodel.sequence_isoperimetric_gap(e)
        n2 = seqmodel.seq_norm_squared(e)
        assert math.isclose(gap, (math.pi**2 / 4.0) * n2, rel_tol=1e-12, abs_tol=1e-12)
        assert gap >= -1e-9


def test_polygon_readings():
    e = seqmodel.diangle_expansion(0.0, [(-math.pi / 4, 1.0), (math.pi / 4, 1.0)])
    assert seqmodel.polygon_perimeter(e) == 8.0
    assert math.isclose(seqmodel.polygon_area(e), 4.0, rel_tol=1e-15)
    # area reading agrees with the shoelace area of the generated zonotope
    from isorkhs import convexgeo

    zono = convexgeo.zonotope_from_generators([(a, 2.0 * c) for a, c in e.terms])
    assert math.isclose(convexgeo.area(zono), seqmodel.polygon_area(e), rel_tol=1e-12)


def test_polygon_readings_reject_nonpolygons():
    with_const = seqmodel.diangle_expansion(1.0, [(0.0, 1.0)])
    with pytest.raises(DomainError):
        seqmodel.polygon_perimeter(with_const)
    with pytest.raises(DomainError):
        seqmodel.polygon_isoperimetric_gap(with_const)
    signed = seqmodel.diangle_expansion(0.0, [(0.0, 1.0), (0.5, -1.0)])
    with pytest.raises(DomainError):
        seqmodel.polygon_area(signed)
    # ... but the reduced gap itself allows signs
    assert seqmodel.polygon_isoperimetric_gap(signed) >= -1e-9


def test_area_calibration():
    assert abs(seqmodel.calibrate_area_constant() - seqmodel.AREA_CONSTANT) <= 1e-9


def test_diangle_span_matches_expansion():
    e = seqmodel.diangle_expansion(0.3, [(-0.7, 1.2), (0.4, -0.5)])
    f = funcspace.DiangleSpan(e)
    grid = np.linspace(-HALF_PI, HALF_PI, 33)
    np.testing.assert_allclose(f.value(grid), seqmodel.expansion_value(e, grid), atol=1e-15)
    np.testing.assert_allclose(
        f.derivative(grid), seqmodel.expansion_derivative(e, grid), atol=1e-15
    )


@seed(20212)
@settings(max_examples=75, deadline=None)
@given(
    x0=coeffs,
    terms=st.lists(
        st.tuples(st.one_of(st.sampled_from([-HALF_PI, HALF_PI]), angles), coeffs),
        min_size=1,
        max_size=6,
    ),
)
def test_profile_endpoints_agree_exactly(x0, terms):
    e = seqmodel.diangle_expansion(x0, terms)
    ends = np.array([-HALF_PI, HALF_PI])
    lo, hi = seqmodel.expansion_value(e, ends)
    assert lo == hi
    dlo, dhi = seqmodel.expansion_derivative(e, ends)
    assert dlo == dhi


@seed(20210)
@settings(max_examples=75, deadline=None)
@given(
    x0=coeffs,
    terms=st.lists(st.tuples(angles, coeffs), min_size=0, max_size=6),
)
def test_norm_nonnegative_and_gap_identity(x0, terms):
    e = seqmodel.diangle_expansion(x0, terms)
    n2 = seqmodel.seq_norm_squared(e)
    assert n2 >= -1e-9
    gap = seqmodel.sequence_isoperimetric_gap(e)
    assert abs(gap - (math.pi**2 / 4.0) * n2) <= 1e-9 * (1.0 + abs(gap))


@seed(20211)
@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.tuples(angles, coeffs), min_size=1, max_size=4),
    ys=st.lists(st.tuples(angles, coeffs), min_size=1, max_size=4),
    a=coeffs,
)
def test_inner_symmetric_and_bilinear(xs, ys, a):
    ex = seqmodel.diangle_expansion(0.1, xs)
    ey = seqmodel.diangle_expansion(-0.2, ys)
    assert math.isclose(
        seqmodel.seq_inner(ex, ey), seqmodel.seq_inner(ey, ex), rel_tol=1e-13, abs_tol=1e-13
    )
    scaled = seqmodel.diangle_expansion(a * 0.1, [(ang, a * c) for ang, c in ex.terms])
    lhs = seqmodel.seq_inner(scaled, ey)
    rhs = a * seqmodel.seq_inner(ex, ey)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@st.composite
def _profile_cases(draw):
    """Sorted angles (some 1e-15 apart, some at +-pi/2) and coefficient columns."""
    base = draw(st.lists(st.one_of(st.sampled_from([-HALF_PI, HALF_PI]), angles), min_size=0, max_size=8))
    a, c = [], []
    for ang in base:
        w = draw(st.floats(-1e3, 1e3))
        a.append(ang)
        c.append([w] * 3)
        if draw(st.booleans()):  # a cancelling neighbour 1e-15 away
            a.append(min(ang + 1e-15, HALF_PI))
            c.append([-w, -w * (1.0 + 1e-9), draw(coeffs)])
    order = np.argsort(a, kind="stable")
    a = np.asarray(a, dtype=float)[order]
    c = np.asarray(c, dtype=float).reshape(-1, 3)[order]
    c[:, 2] = draw(st.lists(coeffs, min_size=len(a), max_size=len(a)))  # a plain column
    x = np.concatenate((a, [-HALF_PI, HALF_PI], np.linspace(-HALF_PI, HALF_PI, 7)))
    return a, c, x


def _terms(a, c, x):
    d = np.subtract.outer(x, a)
    return np.sin(np.abs(d)) @ c, (np.where(d >= 0.0, 1.0, -1.0) * np.cos(d)) @ c


@seed(20218)
@settings(max_examples=150, deadline=None)
@given(case=_profile_cases())
def test_profile_sum_matches_term_by_term(case):
    a, c, x = case
    value, slope = _terms(a, c, x)
    bound = 1e-13 * (1.0 + np.abs(c).sum(axis=0))
    for dtype in (float, np.longdouble):  # interpolants evaluate in long double
        at, ct = a.astype(dtype), c.astype(dtype)
        table = seqmodel._profile_table(at, ct)
        assert np.all(np.abs(seqmodel._profile_sum(at, table, x) - value) <= bound)
        assert np.all(np.abs(seqmodel._profile_sum(at, table, x, derivative=True) - slope) <= bound)
    # one column at a time, and through an expansion at points reduced modulo pi
    col = seqmodel._profile_table(a, c[:, 2])
    assert np.all(np.abs(seqmodel._profile_sum(a, col, x) - value[:, 2]) <= bound[2])
    e = seqmodel.diangle_expansion(0.5, zip(a, c[:, 0]))
    ea, ec = np.asarray(e.angles), np.asarray(e.coefficients)
    value, slope = _terms(ea, ec, seqmodel._reduce_angles(x))
    bound = 1e-13 * (1.0 + np.abs(ec).sum())
    assert np.all(np.abs(seqmodel.expansion_value(e, x) - 0.5 - value) <= bound)
    assert np.all(np.abs(seqmodel.expansion_derivative(e, x) - slope) <= bound)

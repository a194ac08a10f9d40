"""Function-space membership, functionals, and the two inner-product paths.

Closed-form oracle values used below, all derivable by hand:

* int cos = 2, int cos^2 = int sin^2 = pi/2 on the domain, so
  <cos, cos> = (2*2*2 - pi*(pi/2 - pi/2)) / pi^2 = 8/pi^2, the energy
  deficit of cos is 4 and its Wirtinger deficit 4/pi.
* int sin|t - psi| = 2 for every psi in the domain, so the profile mean
  is 2/pi and the kernel section integral is theta*pi - pi.
* A difference of profiles at angles x and x+h has squared norm
  (4/pi) sin|h|.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from isorkhs import funcspace, kernel, quad
from isorkhs.errors import DomainError, InputError, InvariantViolationError
from isorkhs.rng import SplitMix64

HALF_PI = 0.5 * math.pi
PI_SQ = math.pi * math.pi


# ---------------------------------------------------------------------------
# membership


def test_trig_membership_endpoint_rule():
    with pytest.raises(DomainError):
        funcspace.trig_poly([0.0], [1.0])  # sin t: endpoints differ by 2
    funcspace.trig_poly([0.0], [0.0, 1.0])  # sin 2t is fine
    funcspace.trig_poly([0.0], [1.0, 0.0, 1.0])  # sin t + sin 3t cancels
    with pytest.raises(InputError):
        funcspace.trig_poly([math.nan])


def _ref_trig(cos, sin):
    """The series constructor's checks and nonzero terms, coefficient by coefficient."""
    cc = tuple(float(c) for c in cos) or (0.0,)
    sc = tuple(float(c) for c in sin)
    for c in (*cc, *sc):
        if not math.isfinite(c):
            raise InputError("trig coefficients must be finite")
    gap = 2.0 * sum(b * (0.0, 1.0, 0.0, -1.0)[k % 4] for k, b in enumerate(sc, start=1))
    if abs(gap) > 1e-12 * (1.0 + max(abs(c) for c in (*cc, *sc))):
        raise DomainError(f"endpoint values differ by {gap!r}: not a member of the space; see project_endpoints()")
    c = np.array((*cc, *sc))
    i = np.flatnonzero(c)
    is_cos = i < len(cc)
    return cc, sc, (np.where(is_cos, i, i - len(cc) + 1), c[i], np.where(is_cos, 1.0, -1.0))


def _trig_outcome(build, cos, sin):
    try:
        out = build(cos, sin)
    except (InputError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, funcspace.TrigPoly):
        out = out.cos_coeffs, out.sin_coeffs, out._terms
    cc, sc, terms = out
    return [c.hex() for c in cc], [c.hex() for c in sc], [(t.dtype.str, t.shape, t.tobytes()) for t in terms]


_trig_coeffs = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-300, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
)


@seed(20227)
@settings(max_examples=400, deadline=None)
@given(
    cos=st.lists(_trig_coeffs, max_size=6),
    sin=st.lists(_trig_coeffs, max_size=6),
    match=st.booleans(),
)
def test_trig_poly_construction_matches_coefficient_by_coefficient_reference(cos, sin, match):
    if match and sin and all(isinstance(b, float) and math.isfinite(b) for b in sin):
        sin[0] -= sum(b * (0.0, 1.0, 0.0, -1.0)[k % 4] for k, b in enumerate(sin, start=1))
    assert _trig_outcome(funcspace.TrigPoly, cos, sin) == _trig_outcome(_ref_trig, cos, sin)


def _ref_trig_energy(f, g):
    """``int (f g - f' g')`` with ``J`` evaluated on the two outer frequency tables."""

    def J(p):
        p = np.abs(p)
        out = 2.0 * np.array([0.0, 1.0, 0.0, -1.0])[p % 4] / np.maximum(p, 1)
        out[p == 0] = math.pi
        return out

    m, a, s = f._terms
    n, b, t = g._terms
    mn = np.multiply.outer(m, n)
    table = (1 - mn) * J(np.subtract.outer(m, n)) + s[:, None] * (1 + mn) * J(np.add.outer(m, n))
    table *= np.equal.outer(s, t)
    return 0.5 * float(a @ table @ b)


def test_trig_energy_gathers_the_outer_table_bits():
    rng = np.random.default_rng(3)
    members = [funcspace.constant(0.0), funcspace.constant(2.5), funcspace.trig_poly([0.0], [0.0, 1.0])]
    for d in (1, 5, 20, 80):
        cos, sin = rng.uniform(-1, 1, d + 1), rng.uniform(-1, 1, d)
        members.append(funcspace.trig_poly(*funcspace.project_endpoints(cos, sin)))
    sparse = [0.0] * 151
    sparse[150] = sparse[3] = 0.5
    members.append(funcspace.trig_poly(*funcspace.project_endpoints(sparse, sparse[1:])))
    for f in members:
        for g in members:
            assert funcspace._trig_energy(f, g).hex() == _ref_trig_energy(f, g).hex()


def _series(draw, cos_freqs, sin_freqs):
    """A member with nonzero terms at the given frequencies; ``b_1`` is then adjusted, so a
    series without it takes even sine frequencies only."""
    cos = [0.0] * (max(cos_freqs, default=0) + 1)
    sin = [0.0] * max(sin_freqs, default=0)
    for k in cos_freqs:
        cos[k] = draw(st.floats(-1.0, 1.0).filter(bool))
    for k in sin_freqs:
        sin[k - 1] = draw(st.floats(-1.0, 1.0).filter(bool))
    return funcspace.trig_poly(*funcspace.project_endpoints(cos, sin))


@st.composite
def _patterned_series(draw):
    """Dense series up to degree 40, sparse ones reaching frequency 150, cosine-only and sine-only ones."""
    kind = draw(st.sampled_from(["dense", "sparse", "f150", "cos", "sin"]))
    if kind == "dense":
        d = draw(st.integers(0, 40))
        return _series(draw, range(d + 1), range(1, d + 1))
    if kind == "sparse":
        freqs = st.lists(st.integers(1, 150), max_size=4, unique=True)
        return _series(draw, [0, *draw(freqs)], [1, *draw(freqs)])
    if kind == "f150":
        return _series(draw, [0, 1, 149, 150], [1, 2, 147, 150])
    if kind == "cos":
        return _series(draw, draw(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True)), [])
    return _series(draw, [], draw(st.lists(st.integers(2, 30).filter(lambda k: k % 2 == 0), min_size=1, max_size=5, unique=True)))


@seed(20228)
@settings(max_examples=150, deadline=None)
@given(f=_patterned_series(), g=_patterned_series())
# a cosine-only series against a sine-only one: every entry of their table is a
# signed zero, so the energy's zero must keep the sign the per-call table gives
@example(f=funcspace.trig_poly([0.0, -1.0, 0.0, 2.0]), g=funcspace.trig_poly([0.0], [0.0, 1.0, 0.0, -0.5]))
def test_kept_energy_tables_give_the_bits_of_a_table_built_per_call(f, g):
    want = [_ref_trig_energy(f, g).hex(), _ref_trig_energy(g, f).hex()]
    funcspace._kept_energy_table.cache_clear()
    assert [funcspace._trig_energy(f, g).hex(), funcspace._trig_energy(g, f).hex()] == want
    assert [funcspace._trig_energy(f, g).hex(), funcspace._trig_energy(g, f).hex()] == want


def test_kept_energy_tables_are_read_only_and_bounded():
    funcspace._kept_energy_table.cache_clear()
    info = funcspace._kept_energy_table.cache_info()
    assert info.maxsize == funcspace._TABLE_CACHE_SIZE == 32
    f = funcspace.trig_poly([1.0, 0.5], [0.0, 0.25])
    funcspace._trig_energy(f, f)
    m, _, s = f._terms
    table = funcspace._kept_energy_table(m.tobytes(), s.tobytes(), m.tobytes(), s.tobytes())
    assert funcspace._kept_energy_table.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # more ordered pattern pairs than the cache keeps: it stays at its bound
    members = [funcspace.trig_poly([0.0] * k + [1.0]) for k in range(10)]
    for x in members:
        for y in members:
            funcspace._trig_energy(x, y)
    assert funcspace._kept_energy_table.cache_info().currsize == 32
    # a series past the term cap builds its table per call and keeps none
    funcspace._kept_energy_table.cache_clear()
    wide = funcspace.trig_poly([1.0] * (funcspace._TABLE_MAX_TERMS + 1))
    assert funcspace._trig_energy(wide, f).hex() == _ref_trig_energy(wide, f).hex()
    assert funcspace._trig_energy(f, wide).hex() == _ref_trig_energy(f, wide).hex()
    assert funcspace._kept_energy_table.cache_info().currsize == 0
    edge = funcspace.trig_poly([1.0] * funcspace._TABLE_MAX_TERMS)
    funcspace._trig_energy(edge, edge)
    assert funcspace._kept_energy_table.cache_info().currsize == 1


def test_project_endpoints():
    cc, sc = funcspace.project_endpoints([0.5, 1.0], [0.7, 0.2, -0.3])
    f = funcspace.trig_poly(cc, sc)
    assert abs(f.value(HALF_PI) - f.value(-HALF_PI)) <= 1e-14
    # only b_1 moves
    assert sc[1:] == (0.2, -0.3)


def test_sampled_membership_and_fd_derivative():
    with pytest.raises(DomainError):
        funcspace.sampled(np.sin)
    f = funcspace.sampled(np.cos)
    grid = np.linspace(-1.4, 1.4, 11)
    np.testing.assert_allclose(f.derivative(grid), -np.sin(grid), atol=1e-5)


def test_sampled_fd_derivative_keeps_off_kinks():
    # 1e-7 right of the kink a central stencil of step 1e-6 straddles it and
    # reads the average of both branches (-1.029); the right branch is -0.129
    f = funcspace.sampled(lambda x: np.abs(np.sin(x - 0.3)) + np.cos(2 * x), kinks=[0.3])
    x = 0.3 + 1e-7
    assert abs(f.derivative(x) - (math.cos(1e-7) - 2.0 * math.sin(2.0 * x))) <= 1e-8


def test_sampled_fd_derivative_samples_inside_the_domain():
    # an fn undefined outside the domain: the stencils at -pi/2 and pi/2 stay inside it
    g = funcspace.sampled(lambda x: np.where(np.abs(x) <= HALF_PI, np.cos(x), np.nan))
    np.testing.assert_allclose(g.derivative(np.array([-HALF_PI, HALF_PI])), [1.0, -1.0], atol=1e-8)
    assert abs(g.derivative(-HALF_PI) - 1.0) <= 1e-8


def test_evaluate_domain_check():
    f = funcspace.constant(1.0)
    for bad in (2.0, math.nan, [0.0, math.nan]):
        with pytest.raises(DomainError):
            funcspace.evaluate(f, bad)
    # a hair past the endpoint is clipped, not rejected
    assert funcspace.evaluate(f, HALF_PI + 5e-13) == 1.0


# ---------------------------------------------------------------------------
# functionals


def test_unit_inner_product_exact():
    one = funcspace.constant(1.0)
    assert funcspace.inner_product_iso(one, one, method="exact") == 1.0


def test_unit_inner_product_quadrature():
    one = funcspace.constant(1.0)
    v = funcspace.inner_product_iso(one, one, method="quadrature")
    assert abs(v - 1.0) <= 1e-11


def test_cos_oracles():
    c = funcspace.trig_poly([0.0, 1.0])
    assert math.isclose(funcspace.inner_product_iso(c, c, method="exact"), 8.0 / PI_SQ, rel_tol=1e-15)
    assert math.isclose(funcspace.mean_value(c), 2.0 / math.pi, rel_tol=1e-15)
    assert math.isclose(funcspace.perimeter_functional(c), 2.0, rel_tol=1e-15)
    assert math.isclose(funcspace.energy_deficit(c), 4.0, rel_tol=1e-14)
    assert math.isclose(funcspace.wirtinger_deficit(c), 4.0 / math.pi, rel_tol=1e-14)


def test_second_harmonic_oracles():
    c2 = funcspace.trig_poly([0.0, 0.0, 1.0])
    s2 = funcspace.trig_poly([0.0], [0.0, 1.0])
    assert math.isclose(funcspace.norm_iso_squared(c2, method="exact"), 1.5, rel_tol=1e-14)
    assert math.isclose(funcspace.norm_iso_squared(s2, method="exact"), 1.5, rel_tol=1e-14)
    assert math.isclose(funcspace.wirtinger_deficit(c2), 1.5 * math.pi, rel_tol=1e-13)
    # cross terms of distinct frequencies vanish
    assert abs(funcspace.inner_product_iso(c2, s2, method="exact")) <= 1e-15


@pytest.mark.parametrize("psi", [-0.8, 0.0, 1.1])
def test_profile_oracles(psi):
    p = funcspace.diangle(psi)
    assert math.isclose(funcspace.perimeter_functional(p), 2.0, rel_tol=1e-13)
    assert math.isclose(funcspace.mean_value(p), 2.0 / math.pi, rel_tol=1e-13)
    one = funcspace.constant(1.0)
    assert math.isclose(
        funcspace.inner_product_iso(one, p, method="exact"), 2.0 / math.pi, rel_tol=1e-14
    )


def test_profile_norm():
    p = funcspace.diangle(0.0)
    assert math.isclose(funcspace.norm_iso_squared(p, method="exact"), 8.0 / PI_SQ, rel_tol=1e-15)


@pytest.mark.parametrize("theta", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("y", [0.0, 0.7])
def test_kernel_section_perimeter(theta, y):
    k = funcspace.diangle_span(theta, [(y, -HALF_PI)])
    assert math.isclose(
        funcspace.perimeter_functional(k), (theta - 1.0) * math.pi, rel_tol=1e-13, abs_tol=1e-13
    )


def test_profile_difference_norm():
    rng = SplitMix64(13)
    for _ in range(25):
        x = rng.uniform(-HALF_PI, HALF_PI)
        h = rng.uniform(-HALF_PI, HALF_PI) - x
        if abs(h) < 1e-6:
            continue
        d = funcspace.diangle_span(0.0, [(x + h, 1.0), (x, -1.0)])
        n2 = funcspace.norm_iso_squared(d, method="exact")
        assert abs(n2 - (4.0 / math.pi) * math.sin(abs(h))) <= 1e-12


def test_exact_path_matches_quadrature():
    members = [
        funcspace.trig_poly(*funcspace.project_endpoints([0.2, 1.0, -0.4], [0.5, 0.3])),
        funcspace.diangle_span(0.7, [(-1.1, 0.6), (0.2, -1.3), (0.9, 0.4)]),
        funcspace.diangle(0.5),
        funcspace.constant(-2.0),
    ]
    for i, f in enumerate(members):
        for g in members[i:]:
            exact = funcspace.inner_product_iso(f, g, method="exact")
            quadr = funcspace.inner_product_iso(f, g, method="quadrature")
            assert abs(exact - quadr) <= 1e-9 * (1.0 + abs(exact))


def test_exact_route_rejects_sampled_members():
    # int f of a sampled member has no closed form, even against a span
    f = funcspace.sampled(np.cos)
    g = funcspace.diangle_span(0.3, [(0.2, 1.0)])
    with pytest.raises(InputError):
        funcspace.inner_product_iso(f, g, method="exact")
    with pytest.raises(InputError):
        funcspace.inner_product_iso(g, f, method="exact")


def test_inner_product_rejects_unknown_method():
    one = funcspace.constant(1.0)
    with pytest.raises(InputError):
        funcspace.inner_product_iso(one, one, method="magic")


def test_energy_integral_consistency():
    f = funcspace.diangle_span(0.0, [(-0.4, 1.0), (0.8, 0.5)])
    direct = quad.integrate(
        lambda x: f.value(x) ** 2 - f.derivative(x) ** 2, breakpoints=f.kinks
    )
    assert abs(funcspace.energy_integral(f) - direct) <= 1e-10


def test_positivity_on_random_members():
    rng = SplitMix64(5)
    for _ in range(50):
        n = 2 + rng.below(4)
        cos = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        sin = [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]
        f = funcspace.trig_poly(*funcspace.project_endpoints(cos, sin))
        e = funcspace.energy_deficit(f)
        w = funcspace.wirtinger_deficit(f)
        assert e >= -1e-9
        assert funcspace.norm_iso_squared(f, method="exact") >= -1e-9
        assert abs(e - math.pi * w) <= 1e-9


# ---------------------------------------------------------------------------
# exact route against forced quadrature on hostile members
#
# The exact route pairs a member with a profile through the identity
# int (f P_a - f' P_a') = 2 f(a); quadrature knows nothing of it, so it is the
# independent check.  Members reach frequency 150, and spans put terms at
# +-pi/2 and 1e-15 apart.

_frequency_terms = st.lists(
    st.tuples(st.integers(0, 150), st.floats(-1.0, 1.0)), min_size=1, max_size=4
)
_span_angle = st.one_of(st.sampled_from([-HALF_PI, HALF_PI]), st.floats(-HALF_PI, HALF_PI))


@st.composite
def _trig_members(draw):
    cos = [0.0] * 151
    sin = [0.0] * 150
    for k, c in draw(_frequency_terms):
        cos[k] += c
    for k, c in draw(_frequency_terms):
        sin[max(k, 1) - 1] += c
    return funcspace.trig_poly(*funcspace.project_endpoints(cos, sin))


@st.composite
def _span_members(draw):
    terms = draw(st.lists(st.tuples(_span_angle, st.floats(-1.0, 1.0)), min_size=1, max_size=5))
    if draw(st.booleans()):
        a, c = terms[0]
        terms.append((a + 1e-15, draw(st.floats(-1.0, 1.0))))
    return funcspace.diangle_span(draw(st.floats(-1.0, 1.0)), terms)


def _scale(f):
    """A bound on ``max |f| + max |f'|``, the size the closed forms round against."""
    if isinstance(f, funcspace.DiangleSpan):
        return abs(f.expansion.x0) + 2.0 * sum(abs(c) for c in f.expansion.coefficients)
    cos = sum(abs(a) * (1 + k) for k, a in enumerate(f.cos_coeffs))
    return cos + sum(abs(b) * (1 + k) for k, b in enumerate(f.sin_coeffs, start=1))


def _quadrature_spec(scale):
    # An absolute tolerance below the integrands' rounding floor (about
    # 1e-16 * scale) is never met: quadrature would refine to its depth limit.
    return quad.QuadratureSpec(abs_tol=1e-12 * (1.0 + scale), rel_tol=1e-11, max_depth=12)


@seed(20215)
@settings(max_examples=40, deadline=None)
@given(f=_trig_members(), g=st.one_of(_trig_members(), _span_members()))
def test_exact_pairs_match_quadrature(f, g):
    scale = _scale(f) * _scale(g)
    spec = _quadrature_spec(scale)
    for a, b in ((f, g), (g, f)):
        exact = funcspace.inner_product_iso(a, b, method="exact")
        quadr = funcspace.inner_product_iso(a, b, method="quadrature", spec=spec)
        assert abs(exact - quadr) <= 1e-10 * (1.0 + scale)


@seed(20216)
@settings(max_examples=40, deadline=None)
@given(f=st.one_of(_trig_members(), _span_members()))
def test_exact_functionals_match_quadrature(f):
    scale = _scale(f) ** 2
    spec = _quadrature_spec(scale)
    sampled = funcspace.sampled(f.value, f.derivative, f.kinks)  # forces quadrature
    # rules that reject arrays, so quadrature calls them point by point
    scalar_only = funcspace.sampled(lambda t: float(f.value(t)), lambda t: float(f.derivative(t)), f.kinks)
    for functional in (
        funcspace.energy_integral,
        funcspace.energy_deficit,
        funcspace.perimeter_functional,
    ):
        for member in (sampled, scalar_only):
            assert abs(functional(f) - functional(member, spec)) <= 1e-10 * (1.0 + scale)
    exact = funcspace.inner_product_iso(f, f, method="exact")
    for a, b in ((sampled, sampled), (sampled, scalar_only)):
        quadr = funcspace.inner_product_iso(a, b, method="quadrature", spec=spec)
        assert abs(exact - quadr) <= 1e-10 * (1.0 + scale)


@pytest.mark.parametrize(
    "f",
    [
        funcspace.trig_poly([1.0, 0.5], [0.0, 0.2]),
        funcspace.diangle_span(0.5, [(-0.9, 1.0), (0.4, -0.6), (1.2, 0.3)]),
    ],
)
def test_functionals_of_sampled_members_without_a_derivative_rule(f):
    # derivatives by quad.derivative_at; its rounding, about eps |f| / step =
    # 1e-10 |f| at each point, is above the default tolerance, so quadrature
    # asks for 1e-9
    spec = quad.QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    g = funcspace.diangle_span(0.2, [(0.7, -0.5)])
    fd, gd = funcspace.sampled(f.value, kinks=f.kinks), funcspace.sampled(g.value, kinks=g.kinks)
    scale = _scale(f) ** 2
    for functional in (funcspace.energy_integral, funcspace.energy_deficit, funcspace.perimeter_functional):
        assert abs(functional(f) - functional(fd, spec)) <= 1e-10 * (1.0 + scale)
    quadr = funcspace.inner_product_iso(fd, fd, method="quadrature", spec=spec)
    assert abs(funcspace.inner_product_iso(f, f, method="exact") - quadr) <= 1e-10 * (1.0 + scale)
    scale = _scale(f) * _scale(g)
    quadr = funcspace.inner_product_iso(fd, gd, method="quadrature", spec=spec)
    assert abs(funcspace.inner_product_iso(f, g, method="exact") - quadr) <= 1e-10 * (1.0 + scale)


# ---------------------------------------------------------------------------
# one sampling entry: value and derivative together


def assert_same_bits(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


def draw_points(data, special=()):
    """A scalar, a flat array or a 2-D array of points; ends, zero and ``special`` points drawn often."""
    point = st.one_of(st.sampled_from([-HALF_PI, HALF_PI, 0.0, -0.0, *special]), st.floats(-HALF_PI, HALF_PI))
    shape = data.draw(st.sampled_from([(), (7,), (2, 3)]))
    size = math.prod(shape)
    pts = data.draw(st.lists(point, min_size=size, max_size=size))
    return pts[0] if shape == () else np.array(pts).reshape(shape)


def assert_value_and_derivative_are_the_two_calls(f, x):
    value, slope = f.value_and_derivative(x)
    assert_same_bits(value, f.value(x))
    assert_same_bits(slope, f.derivative(x))


@seed(20231)
@settings(max_examples=150, deadline=None)
@given(f=_trig_members(), data=st.data())
def test_trig_value_and_derivative_match_the_two_calls_bit_for_bit(f, data):
    assert_value_and_derivative_are_the_two_calls(f, draw_points(data))


_spans_and_empty = st.one_of(
    _span_members(), st.floats(-1.0, 1.0).map(lambda x0: funcspace.diangle_span(x0, []))
)


@seed(20232)
@settings(max_examples=200, deadline=None)
@given(f=_spans_and_empty, data=st.data())
def test_span_value_and_derivative_match_the_two_calls_bit_for_bit(f, data):
    # the drawn spans have terms at -pi/2 (from +-pi/2) and angles 1e-15 apart; points sit on their kinks
    assert_value_and_derivative_are_the_two_calls(f, draw_points(data, f.expansion.angles))


def test_sampled_value_and_derivative_are_the_two_calls():
    f = funcspace.sampled(np.cos, kinks=[0.3])
    x = np.array([-HALF_PI, 0.0, 0.3, HALF_PI])
    assert_value_and_derivative_are_the_two_calls(f, x)


def test_quadrature_searches_each_member_once_per_level(monkeypatch):
    calls = {"searchsorted": 0, "levels": 0}

    def counted_search(*args, **kwargs):
        calls["searchsorted"] += 1
        return search(*args, **kwargs)

    def counted_level(*args, **kwargs):
        calls["levels"] += 1
        return level(*args, **kwargs)

    search, level = np.searchsorted, quad._panel_integrals
    monkeypatch.setattr(np, "searchsorted", counted_search)
    monkeypatch.setattr(quad, "_panel_integrals", counted_level)
    f = funcspace.diangle_span(0.4, [(-1.1, 0.8), (0.2, -0.5), (0.9, 0.3)])
    g = funcspace.diangle_span(-0.2, [(-0.3, 1.2), (1.3, 0.6)])
    for pair, members in (((f, g), 2), ((f, f), 1)):
        calls.update(searchsorted=0, levels=0)
        funcspace.inner_product_iso(*pair, method="quadrature")
        assert calls["levels"] >= 2 and calls["searchsorted"] == members * calls["levels"]


@seed(20233)
@settings(max_examples=30, deadline=None)
@given(f=st.one_of(_trig_members(), _span_members()), g=st.one_of(_trig_members(), _span_members()))
def test_classical_product_of_members_reads_the_rules_bits(f, g):
    # members sample value and derivative together; their separate rules give the same integral bits
    for interval in ((-HALF_PI, HALF_PI), (-1.0, 0.5)):
        got = funcspace.inner_product_classical(f, g, interval=interval)
        want = funcspace.inner_product_classical(
            (f.value, f.derivative, f.kinks), (g.value, g.derivative, g.kinks), interval=interval
        )
        assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# classical Sobolev product


def test_classical_inner_products():
    one = funcspace.constant(1.0)
    assert abs(funcspace.inner_product_classical(one, one) - 1.0) <= 1e-12
    ident = (lambda x: np.asarray(x), lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert abs(funcspace.inner_product_classical(ident, ident) - 4.0 / 3.0) <= 1e-12
    cos_pair = (np.cos, lambda x: -np.sin(x))
    got = funcspace.inner_product_classical(cos_pair, cos_pair, interval=(-HALF_PI, HALF_PI))
    assert abs(got - math.pi) <= 1e-12


def test_classical_accepts_bare_callables():
    got = funcspace.inner_product_classical(np.exp, np.exp)
    exact = math.expm1(2.0)  # int (e^2x + e^2x) over [0, 1]
    assert abs(got - exact) <= 1e-6  # finite-difference derivative fallback


def test_classical_rejects_junk():
    with pytest.raises(InputError):
        funcspace.inner_product_classical(42.0, np.cos)
    with pytest.raises(InputError):
        funcspace.inner_product_classical((np.cos,), np.cos)


# ---------------------------------------------------------------------------
# continuity ratio


def test_holder_ratio_profile_example():
    p = funcspace.diangle(0.0)
    got = funcspace.holder_ratio(p, 0.0, 0.5)
    exact = math.sin(0.5) / (math.sqrt(math.pi) * math.sqrt(8.0 / PI_SQ) * math.sqrt(0.5))
    assert math.isclose(got, exact, rel_tol=1e-12)
    assert abs(got - 0.425) <= 1e-3


def test_holder_ratio_periodic_null():
    k0 = funcspace.diangle_span(2.0, [(0.0, -HALF_PI)])
    assert funcspace.holder_ratio(k0, -HALF_PI, math.pi) == 0.0


def test_holder_ratio_constant_is_zero():
    one = funcspace.constant(1.0)
    grid = np.linspace(-1.5, 1.4, 7)
    assert np.max(funcspace.holder_ratio(one, grid, 0.1)) == 0.0


def test_holder_ratio_bound_on_grid():
    f = funcspace.trig_poly(*funcspace.project_endpoints([0.1, 1.0, 0.0, -0.2], [0.3, 0.4]))
    n = funcspace.norm_iso(f, method="exact")
    xs = np.linspace(-HALF_PI, HALF_PI, 41)
    px, py = np.meshgrid(xs, xs, indexing="ij")
    mask = py > px
    ratios = funcspace.holder_ratio(f, px[mask], (py - px)[mask], norm=n)
    assert float(np.max(ratios)) <= 1.0 + 1e-9


def test_holder_ratio_near_extremal():
    h = 1e-3
    g = funcspace.diangle_span(0.0, [(0.2 + h, -HALF_PI), (0.2, HALF_PI)])
    r = funcspace.holder_ratio(g, 0.2, h, norm=funcspace.norm_iso(g, method="exact"))
    assert math.isclose(float(r), 0.9999999166666422, rel_tol=1e-10)
    assert float(r) <= 1.0 + 1e-9


def _value_rounding(f):
    """How far a series' value may move with the number of points evaluated together: two
    summation orders of ``sum c_k b_k(x)`` and an ulp in each basis value; 0 for a span."""
    if isinstance(f, funcspace.DiangleSpan):
        return 0.0
    _, c, _ = f._terms
    return 2.0 * (c.size + 1) * np.finfo(float).eps * float(np.abs(c).sum())


@seed(20243)
@settings(max_examples=100, deadline=None)
@given(f=st.one_of(_trig_members(), _span_members()), data=st.data())
def test_holder_sweep_matches_the_direct_formula(f, data):
    # pairs drawn from a few points, so that the sweep shares them, ends and kinks among them
    pool = [-HALF_PI, HALF_PI, 0.0, *f.kinks]
    pool += data.draw(st.lists(st.floats(-HALF_PI, HALF_PI), min_size=1, max_size=4))
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda p: p[0] != p[1])
    pairs = data.draw(st.lists(pair, min_size=1, max_size=12))
    x = np.array([p for p, _ in pairs])
    h = np.array([q for _, q in pairs]) - x
    n = funcspace.norm_iso(f, method="exact")
    if n == 0.0:
        return
    got = funcspace.holder_ratio(f, x, h, norm=n)
    lo, hi = np.clip(x, -HALF_PI, HALF_PI), np.clip(x + h, -HALF_PI, HALF_PI)
    scale = math.sqrt(math.pi) * n * np.sqrt(np.abs(h))
    want = np.abs(f.value(hi) - f.value(lo)) / scale
    bound = _value_rounding(f)
    assert np.array_equal(got, want) if bound == 0.0 else np.all(np.abs(got - want) <= 2.0 * bound / scale)
    one = funcspace.holder_ratio(f, float(x[0]), float(h[0]), norm=n)
    assert type(one) is float and abs(one - want[0]) <= 2.0 * bound / scale[0]


def test_holder_ratio_reads_the_member_once_at_the_distinct_points():
    calls, reads = [], []
    f = funcspace.sampled(lambda t: calls.append(np.size(t)) or np.cos(2.0 * t))
    g = funcspace.sampled(lambda t: reads.append(np.size(t)) or np.cos(4.0 * t))
    calls.clear()  # the constructors sample the rules
    reads.clear()
    grid = np.linspace(-HALF_PI, HALF_PI, 21)
    px, py = np.meshgrid(grid, grid, indexing="ij")
    mask = py > px
    funcspace.holder_ratio(f, px[mask], (py - px)[mask], norm=1.0)
    assert calls == [21]
    # members swept over one plan are each read once, at its distinct points
    calls.clear()
    plan = funcspace._holder_pairs(px[mask], (py - px)[mask])
    for member in (f, g):
        funcspace._holder_sweep(member, plan, 1.0)
    assert calls == [21] and reads == [21]


_NODE_POOL = tuple(float(t) for t in np.linspace(-1.5, 1.5, 13))


@st.composite
def _interpolant_members(draw):
    nodes = draw(st.lists(st.sampled_from(_NODE_POOL), min_size=1, max_size=5, unique=True))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(nodes), max_size=len(nodes)))
    return kernel.interpolate(nodes, values, theta=draw(st.sampled_from([1.0, 2.0])))


# ends, points up to 1e-12 past them (read at the end they overshoot) and points between
_holder_point = st.one_of(
    st.sampled_from([-HALF_PI, HALF_PI, 0.0, -HALF_PI - 1e-12, HALF_PI + 5e-13]),
    st.floats(0.0, 1e-12).map(lambda d: HALF_PI + d),
    st.floats(-HALF_PI, HALF_PI),
)


@st.composite
def _pair_arrays(draw):
    """``x`` and ``h`` as two scalars, empty arrays, 1-D arrays or a column against a 2-D block."""
    form = draw(st.sampled_from(["scalar", "empty", "1-D", "2-D"]))
    if form == "empty":
        return np.empty(0), draw(st.sampled_from([np.empty(0), 0.3, -0.3]))
    ps = draw(st.lists(_holder_point, min_size=1, max_size=1 if form == "scalar" else 6))
    qs = draw(st.lists(_holder_point, min_size=1, max_size=1 if form != "2-D" else 4))
    x = np.array(ps)[:, None]
    h = np.array(qs)[None, :] - x  # negative where q < p
    assume(np.all(h != 0.0) and np.all(np.abs(x + h) <= HALF_PI + 1e-12))
    if form == "scalar":
        return float(x[0, 0]), float(h[0, 0])
    return (x, h) if form == "2-D" else (x[:, 0], h[:, 0])


def _ratio_outcome(call):
    try:
        return call()
    except InvariantViolationError as exc:
        return str(exc)


@seed(20301)
@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(st.one_of(_trig_members(), _span_members(), _interpolant_members()), min_size=1, max_size=3),
    pairs=_pair_arrays(),
)
def test_holder_sweep_over_a_shared_plan_is_holder_ratio_bit_for_bit(members, pairs):
    x, h = pairs
    plan = funcspace._holder_pairs(x, h)
    # the zero member and a constant take the zero-norm branch's 0; with norm 0 the others raise
    for f in (*members, funcspace.diangle_span(0.0, []), funcspace.constant(0.7)):
        for n in (funcspace.norm_iso(f, method="exact"), 0.0):
            got = _ratio_outcome(lambda: funcspace._holder_sweep(f, plan, n))
            want = _ratio_outcome(lambda: funcspace.holder_ratio(f, x, h, norm=n))
            assert type(got) is type(want)
            assert got == want if isinstance(want, str) else np.array_equal(got, want)


def test_holder_ratio_checks_the_pairs_before_it_takes_the_norm(monkeypatch):
    taken = []
    monkeypatch.setattr(funcspace, "norm_iso", lambda f, spec: taken.append(f) or 1.0)
    p = funcspace.diangle(0.0)
    for x, h in ((1.6, 0.1), (0.1, 1.5), (0.0, 0.0), (math.nan, 0.1), ([0.1, 0.2], [0.3, 1.5])):
        with pytest.raises(DomainError):
            funcspace.holder_ratio(p, x, h)
    assert taken == []
    funcspace.holder_ratio(p, 0.1, 0.2)
    assert taken == [p]


def test_holder_sweep_raises_what_the_scalar_call_at_its_bad_pair_raises():
    p = funcspace.diangle(0.0)
    for x, h in (([0.1, 1.5, 0.0], [0.2, 0.5, 0.1]), ([0.1, math.nan, 0.0], [0.2, 0.5, 0.1]), ([0.1, 0.2], [0.3, 0.0])):
        with pytest.raises(DomainError) as scalar:
            funcspace.holder_ratio(p, x[1], h[1])
        with pytest.raises(DomainError) as sweep:
            funcspace.holder_ratio(p, np.array(x), np.array(h))
        assert str(sweep.value) == str(scalar.value)


def test_holder_ratio_validation():
    p = funcspace.diangle(0.0)
    with pytest.raises(DomainError):
        funcspace.holder_ratio(p, 0.0, 0.0)
    for x, h in ((1.5, 0.5), (math.nan, 0.5), (0.0, math.nan)):
        with pytest.raises(DomainError):
            funcspace.holder_ratio(p, x, h)
    zero = funcspace.diangle_span(0.0, [])
    assert funcspace.holder_ratio(zero, 0.0, 0.5) == 0.0

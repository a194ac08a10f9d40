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
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from isorkhs import funcspace, quad
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


def test_holder_ratio_validation():
    p = funcspace.diangle(0.0)
    with pytest.raises(DomainError):
        funcspace.holder_ratio(p, 0.0, 0.0)
    for x, h in ((1.5, 0.5), (math.nan, 0.5), (0.0, math.nan)):
        with pytest.raises(DomainError):
            funcspace.holder_ratio(p, x, h)
    zero = funcspace.diangle_span(0.0, [])
    assert funcspace.holder_ratio(zero, 0.0, 0.5) == 0.0

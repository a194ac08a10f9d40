import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from isorkhs import convexgeo, funcspace, seqmodel, serialization
from isorkhs.errors import InputError
from isorkhs.rng import SplitMix64

HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi


def vertex_set(u):
    return sorted(tuple(round(c, 12) for c in v) for v in u.vertices)


def random_zonotope(rng, max_gens=6):
    gens = [
        (rng.uniform(-HALF_PI, HALF_PI), rng.uniform(0.1, 1.5))
        for _ in range(1 + rng.below(max_gens))
    ]
    return convexgeo.zonotope_from_generators(gens)


def _float_edges(u):
    """A body's edges as the generator formula gives them in floats: ``c / WIDTH_SCALE`` long at angle ``a``."""
    lengths = [(a, c / convexgeo.WIDTH_SCALE) for a, c in u.expansion.terms]
    return [(ln * math.cos(a), ln * math.sin(a)) for a, ln in lengths]


def _exact_area(u):
    """Exact shoelace area, in Fractions, of the walk of a body's float edges in angle
    order from minus half their sum, then the negated half: the zonogon those edges span."""
    edges = [(Fraction(x), Fraction(y)) for x, y in _float_edges(u)]
    x, y = -sum(e[0] for e in edges) / 2, -sum(e[1] for e in edges) / 2
    ring = []
    for ex, ey in edges:
        ring.append((x, y))
        x, y = x + ex, y + ey
    ring += [(-px, -py) for px, py in ring]
    return sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1])) / 2


# ---------------------------------------------------------------------------
# construction


def test_single_generator_is_segment():
    u = convexgeo.zonotope_from_generators([(0.0, 2.0)])
    assert u.is_segment
    assert vertex_set(u) == [(-1.0, 0.0), (1.0, 0.0)]


def test_two_perpendicular_generators_make_square():
    u = convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)])
    assert vertex_set(u) == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    assert math.isclose(convexgeo.area(u), 4.0, rel_tol=1e-12)
    assert math.isclose(convexgeo.perimeter(u), 8.0, rel_tol=1e-12)


def test_ring_body_reads_edges_by_hypot_and_atan2():
    """A vertex body's terms are its edges from the lex-min vertex to its antipode: angle
    ``math.atan2`` and length ``WIDTH_SCALE * np.hypot``, bit for bit."""
    rng = SplitMix64(21)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        gens = [(rng.uniform(-HALF_PI, HALF_PI), scale * rng.uniform(0.01, 2.0)) for _ in range(1 + rng.below(11))]
        u = convexgeo.symmetric_polygon(convexgeo.zonotope_from_generators(gens).vertices)
        ring = u.ring
        m = len(ring) // 2
        edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(ring[:m], ring[1 : m + 1])]
        terms = [(math.atan2(dy, dx), convexgeo.WIDTH_SCALE * float(np.hypot(dx, dy))) for dx, dy in edges]
        assert u.expansion == seqmodel.diangle_expansion(0.0, terms)


def test_parallelogram_area():
    u = convexgeo.zonotope_from_generators([(-QUARTER_PI, 1.0), (QUARTER_PI, 1.0)])
    assert math.isclose(convexgeo.area(u), 1.0, rel_tol=1e-12)


def test_generator_merge_and_validation():
    # exact duplicates merge; 0.3 + pi reduces to 0.2999999999999998, so it stays a
    # term of its own: the body is a parallelogram whose area is the exact shoelace
    # over its float edges, and whose widths and perimeter are those of b
    b = convexgeo.zonotope_from_generators([(0.3, 3.0)])
    assert convexgeo.zonotope_from_generators([(0.3, 1.0), (0.3, 2.0)]) == b
    assert b.expansion.terms == ((0.3, 1.5),)
    a = convexgeo.zonotope_from_generators([(0.3, 1.0), (0.3 + math.pi, 2.0)])
    assert a.expansion.terms == ((seqmodel.normalize_angle(0.3 + math.pi), 1.0), (0.3, 0.5))
    assert convexgeo.perimeter(a) == convexgeo.perimeter(b) == 6.0
    assert abs(convexgeo.area(a) - float(_exact_area(a))) <= 1e-15 * 3.0**2
    grid = np.linspace(-HALF_PI, HALF_PI, 61)
    assert np.max(np.abs(convexgeo.width(a, grid) - convexgeo.width(b, grid))) <= 1e-15 * 3.0
    assert convexgeo.zonotope_from_generators([]).is_point
    assert convexgeo.zonotope_from_generators([(0.1, 0.0)]).is_point
    with pytest.raises(InputError):
        convexgeo.zonotope_from_generators([(0.0, -1.0)])


def test_symmetric_polygon_canonicalization():
    shuffled = [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]
    u = convexgeo.symmetric_polygon(shuffled)
    assert vertex_set(u) == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_symmetric_polygon_rejects_asymmetry():
    with pytest.raises(InputError):
        convexgeo.symmetric_polygon([(1.0, 0.0), (-1.0, 0.0), (0.5, 0.5)])
    with pytest.raises(InputError):
        convexgeo.symmetric_polygon([(1.0, 0.0), (-1.0, 0.1)])


def test_symmetric_polygon_rejects_interior_points():
    square_plus_center = [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (0.0, 0.0)]
    with pytest.raises(InputError):
        convexgeo.symmetric_polygon(square_plus_center)


def test_regular_polygon_validation():
    with pytest.raises(InputError):
        convexgeo.regular_polygon(5)
    with pytest.raises(InputError):
        convexgeo.regular_polygon(2)
    with pytest.raises(InputError):
        convexgeo.regular_polygon(8, radius=0.0)


def test_segment_validation():
    assert convexgeo.segment(0.7, 0.0).is_point
    with pytest.raises(InputError):
        convexgeo.segment(0.0, -2.0)


# ---------------------------------------------------------------------------
# Minkowski structure


def test_minkowski_point_is_identity():
    rng = SplitMix64(11)
    for _ in range(5):
        u = random_zonotope(rng)
        s = convexgeo.minkowski_sum(u, convexgeo.point())
        assert vertex_set(s) == vertex_set(u)


def test_minkowski_segments_make_rectangle():
    s = convexgeo.minkowski_sum(convexgeo.segment(0.0, 2.0), convexgeo.segment(HALF_PI, 4.0))
    assert vertex_set(s) == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]


def test_minkowski_sum_drops_collinear_vertices():
    square = convexgeo.zonotope_from_generators([(0.0, 2.0), (HALF_PI, 2.0)])
    assert len(convexgeo.minkowski_sum(square, square).vertices) == 4
    # the hull oracle over all pairwise sums, whose lex-min point is an edge midpoint
    sums = (square.vertex_array[:, None, :] + square.vertex_array[None, :, :]).reshape(-1, 2)
    assert len(convexgeo._canonicalize(sums.tolist())[1]) == 4


def test_vertical_segment_with_sideways_noise():
    # generators 1.2e-15 apart across the wrap at +-pi/2 keep both terms: the body
    # is a needle whose x coordinates are rounding noise, with the width of a
    # vertical segment 1.4 long, and the exact shoelace area of its float edges
    gens = [(-HALF_PI, 1.38), (HALF_PI - 1.2e-15, 0.02)]
    u = convexgeo.zonotope_from_generators(gens)
    s = convexgeo.minkowski_sum(*(convexgeo.segment(a, ln) for a, ln in gens))
    assert s == u and s.vertices == u.vertices
    assert u.expansion.terms == ((-HALF_PI, 0.69), (HALF_PI - 1.2e-15, 0.01))
    assert math.isclose(convexgeo.width(u, 0.0), 1.4, rel_tol=1e-12)
    assert convexgeo.width(u, HALF_PI) <= 1e-15 * 1.4
    assert max(abs(x) for x, _ in u.vertices) <= 1e-15 * 1.4
    assert abs(convexgeo.area(u) - float(_exact_area(u))) <= 1e-15 * 1.4**2


def test_minkowski_doubling_scales_area_by_four():
    rng = SplitMix64(12)
    u = random_zonotope(rng)
    s = convexgeo.minkowski_sum(u, u)
    assert math.isclose(convexgeo.area(s), 4.0 * convexgeo.area(u), rel_tol=1e-11)
    assert math.isclose(convexgeo.perimeter(s), 2.0 * convexgeo.perimeter(u), rel_tol=1e-11)


# ---------------------------------------------------------------------------
# widths


def test_degenerate_conventions():
    pt = convexgeo.point()
    assert convexgeo.area(pt) == 0.0
    assert convexgeo.perimeter(pt) == 0.0
    assert convexgeo.width(pt, 0.3) == 0.0
    seg = convexgeo.segment(0.7, 3.0)
    assert convexgeo.area(seg) == 0.0
    # doubly-walked boundary of a segment
    assert math.isclose(convexgeo.perimeter(seg), 6.0, rel_tol=1e-12)


def test_square_width():
    sq = convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)])
    assert math.isclose(convexgeo.width(sq, 0.0), 2.0, rel_tol=1e-12)
    assert math.isclose(convexgeo.width(sq, QUARTER_PI), 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    grid = np.linspace(-HALF_PI, HALF_PI, 41)
    np.testing.assert_allclose(
        convexgeo.width(sq, grid),
        2.0 * (np.abs(np.cos(grid)) + np.abs(np.sin(grid))),
        atol=1e-12,
    )
    exact = convexgeo.symmetric_polygon([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    assert convexgeo.width_kinks(exact) == (-HALF_PI, 0.0)


def test_segment_width_profile():
    psi, length = 0.3, 2.0
    seg = convexgeo.segment(psi, length)
    grid = np.linspace(-HALF_PI, HALF_PI, 81)
    np.testing.assert_allclose(
        convexgeo.width(seg, grid), length * np.abs(np.sin(grid - psi)), atol=1e-12
    )


def test_width_derivative_right_hand():
    seg = convexgeo.segment(0.0, 2.0)
    # width is 2|sin phi|, so the right-hand slope at the kink is +2
    assert math.isclose(convexgeo.width_derivative(seg, 0.0), 2.0, rel_tol=1e-12)
    assert math.isclose(convexgeo.width_derivative(seg, -0.3), -2.0 * math.cos(0.3), rel_tol=1e-11)
    sq = convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)])
    assert math.isclose(convexgeo.width_derivative(sq, 0.0), 2.0, rel_tol=1e-11)


def test_width_additivity_under_minkowski_sum():
    rng = SplitMix64(21)
    grid = np.linspace(-HALF_PI, HALF_PI, 61)
    u, v = random_zonotope(rng), random_zonotope(rng)
    s = convexgeo.minkowski_sum(u, v)
    np.testing.assert_allclose(
        convexgeo.width(s, grid),
        convexgeo.width(u, grid) + convexgeo.width(v, grid),
        atol=1e-11,
    )


@pytest.mark.parametrize(
    "body",
    [
        convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)]),
        convexgeo.segment(0.4, 3.0),
        convexgeo.point(),
        convexgeo.regular_polygon(8),
    ],
)
def test_cauchy_width_integral(body):
    assert convexgeo.cauchy_check(body) <= 1e-8 * (1.0 + convexgeo.perimeter(body))


# ---------------------------------------------------------------------------
# pairs


def test_self_pair_is_null():
    rng = SplitMix64(31)
    u = random_zonotope(rng)
    pair = convexgeo.body_pair(u, u)
    assert convexgeo.pair_perimeter(pair) == 0.0
    assert abs(convexgeo.pair_measure(pair)) <= 1e-9 * (1.0 + u.scale) ** 2
    assert abs(convexgeo.convex_norm_squared(pair)) <= 1e-9 * (1.0 + u.scale) ** 2


def test_square_point_pair():
    sq = convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)])
    pair = convexgeo.body_pair(sq, convexgeo.point())
    assert math.isclose(convexgeo.pair_perimeter(pair), 8.0, rel_tol=1e-12)
    assert math.isclose(convexgeo.pair_measure(pair), 4.0, rel_tol=1e-12)
    assert math.isclose(convexgeo.pair_deficit(pair), 64.0 - 16.0 * math.pi, rel_tol=1e-12)
    n2 = convexgeo.convex_norm_squared(pair)
    assert math.isclose(n2, (128.0 - 16.0 * math.pi) / (4.0 * math.pi**2), rel_tol=1e-13)
    assert math.isclose(n2, 1.9690383318196463, rel_tol=1e-12)
    assert math.isclose(convexgeo.convex_norm(pair), math.sqrt(n2), rel_tol=1e-15)


def test_segment_pair_matches_profile_difference():
    x, h = -0.4, 0.9
    pair = convexgeo.body_pair(convexgeo.segment(x + h, 2.0), convexgeo.segment(x, 2.0))
    assert math.isclose(convexgeo.pair_measure(pair), -4.0 * math.sin(abs(h)), rel_tol=1e-12)
    assert math.isclose(
        convexgeo.convex_norm_squared(pair), (4.0 / math.pi) * math.sin(abs(h)), rel_tol=1e-12
    )
    f = convexgeo.pair_to_function(pair)
    grid = np.linspace(-HALF_PI, HALF_PI, 101)
    target = np.sin(np.abs(grid - (x + h))) - np.sin(np.abs(grid - x))
    np.testing.assert_allclose(f.value(grid), target, atol=1e-12)


def test_square_pair_function_is_support_sum():
    sq = convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)])
    pair = convexgeo.body_pair(sq, convexgeo.point())
    f = convexgeo.pair_to_function(pair)
    grid = np.linspace(-HALF_PI, HALF_PI, 101)
    np.testing.assert_allclose(
        f.value(grid), np.abs(np.cos(grid)) + np.abs(np.sin(grid)), atol=1e-12
    )
    # half the perimeter shows up as the integral, the area as the measure
    assert abs(funcspace.perimeter_functional(f) - 4.0) <= 1e-9
    assert abs(funcspace.energy_integral(f) - 4.0) <= 1e-7
    assert abs(funcspace.energy_integral(f) - convexgeo.pair_measure(pair)) <= 1e-7


def test_pair_norm_matches_function_norm():
    rng = SplitMix64(41)
    for i in range(10):
        u = random_zonotope(rng)
        v = convexgeo.point() if i % 3 == 0 else random_zonotope(rng)
        pair = convexgeo.body_pair(u, v)
        assert convexgeo.pair_deficit(pair) >= -1e-9
        n2 = convexgeo.convex_norm_squared(pair)
        assert convexgeo.pair_norm_agreement(pair) <= 1e-7 * (1.0 + n2)


def test_disc_surrogate():
    pair = convexgeo.body_pair(convexgeo.regular_polygon(64), convexgeo.point())
    n2 = convexgeo.convex_norm_squared(pair)
    assert math.isclose(n2, 0.9999997420428441, rel_tol=1e-12)
    f = convexgeo.pair_to_function(pair)
    grid = np.linspace(-HALF_PI, HALF_PI, 721)
    assert float(np.max(np.abs(f.value(grid) - 1.0))) <= 0.01


def test_pair_equivalence():
    rng = SplitMix64(51)
    u, v = random_zonotope(rng, 4), random_zonotope(rng, 4)
    w = convexgeo.segment(0.9, 1.3)
    base = convexgeo.body_pair(u, v)
    shifted = convexgeo.body_pair(convexgeo.minkowski_sum(u, w), convexgeo.minkowski_sum(v, w))
    assert convexgeo.pair_equivalent(base, base)
    assert convexgeo.pair_equivalent(base, shifted)
    assert convexgeo.pair_equivalent(shifted, base)
    lopsided = convexgeo.body_pair(convexgeo.minkowski_sum(u, w), v)
    assert not convexgeo.pair_equivalent(base, lopsided)


def test_pair_equivalence_is_oriented():
    sq = convexgeo.zonotope_from_generators([(0.0, 2.0), (-HALF_PI, 2.0)])
    fwd = convexgeo.body_pair(sq, convexgeo.point())
    rev = convexgeo.body_pair(convexgeo.point(), sq)
    assert not convexgeo.pair_equivalent(fwd, rev)


def test_pair_equivalence_of_near_parallel_segments():
    # tolerance 1e-9 times the largest coordinate of the sums (5 here); the
    # width gap of two length-10 segments at angle t apart is 10 sin(t)
    pt = convexgeo.point()
    base = convexgeo.body_pair(convexgeo.segment(0.0, 10.0), pt)
    assert convexgeo.pair_equivalent(base, convexgeo.body_pair(convexgeo.segment(4e-10, 10.0), pt))
    assert not convexgeo.pair_equivalent(base, convexgeo.body_pair(convexgeo.segment(7e-10, 10.0), pt))
    # across the wrap at +-pi/2
    top = convexgeo.body_pair(convexgeo.segment(HALF_PI - 1e-10, 10.0), pt)
    assert convexgeo.pair_equivalent(top, convexgeo.body_pair(convexgeo.segment(-HALF_PI, 10.0), pt))


def test_pair_equivalence_tolerance_scale():
    # bodies of scale below 1 are compared to an absolute 1e-9
    pts = convexgeo.body_pair(convexgeo.point(), convexgeo.point())
    tiny = convexgeo.body_pair(convexgeo.segment(0.3, 0.5e-9), convexgeo.point())
    small = convexgeo.body_pair(convexgeo.segment(0.3, 1.5e-9), convexgeo.point())
    assert convexgeo.pair_equivalent(tiny, pts)
    assert not convexgeo.pair_equivalent(small, pts)


def test_width_scale_calibration():
    assert convexgeo.calibrate_width_scale() == convexgeo.WIDTH_SCALE == 0.5


# ---------------------------------------------------------------------------
# expansion readings against the vertex oracles

_angle = st.one_of(st.sampled_from([-HALF_PI, 0.0, HALF_PI]), st.floats(-HALF_PI, HALF_PI))
_generators = st.lists(st.tuples(_angle, st.floats(0.05, 3.0)), min_size=0, max_size=7)


def _body(gens, twin):
    # twin: a second generator 1e-15 away from the first
    if twin and gens:
        gens = [*gens, (gens[0][0] + 1e-15, 0.5)]
    return convexgeo.zonotope_from_generators(gens)


def _walk_perimeter(v):
    return float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T))) if len(v) > 1 else 0.0


@seed(20213)
@settings(max_examples=60, deadline=None)
@given(gu=_generators, gv=_generators, twin=st.booleans())
def test_expansion_matches_vertex_oracles(gu, gv, twin):
    u, v = _body(gu, twin), _body(gv, False)
    scale = max(1.0, u.scale + v.scale)
    tol = 1e-12 * scale * scale
    grid = np.linspace(-HALF_PI, HALF_PI, 241)
    for body in (u, v):
        verts = body.vertex_array
        assert abs(convexgeo.area(body) - convexgeo._shoelace_area(verts)) <= tol
        assert abs(convexgeo.perimeter(body) - _walk_perimeter(verts)) <= 1e-12 * scale
        gap = np.max(np.abs(convexgeo.width(body, grid) - convexgeo._support_width(verts, grid)))
        assert gap <= 1e-12 * scale
    s = convexgeo.minkowski_sum(u, v)
    gap = np.max(
        np.abs(
            convexgeo._support_width(s.vertex_array, grid)
            - convexgeo._support_width(u.vertex_array, grid)
            - convexgeo._support_width(v.vertex_array, grid)
        )
    )
    assert gap <= 1e-12 * scale
    # pair norm from vertex walks and shoelace areas, the sum taken by the hull oracle
    sums = (u.vertex_array[:, None, :] + v.vertex_array[None, :, :]).reshape(-1, 2)
    hull_sum = np.asarray(convexgeo._canonicalize(sums.tolist())[1])
    p = _walk_perimeter(u.vertex_array) - _walk_perimeter(v.vertex_array)
    m = (
        2.0 * convexgeo._shoelace_area(u.vertex_array)
        + 2.0 * convexgeo._shoelace_area(v.vertex_array)
        - convexgeo._shoelace_area(hull_sum)
    )
    oracle = (2.0 * p * p - 4.0 * math.pi * m) / (4.0 * math.pi**2)
    assert abs(convexgeo.convex_norm_squared(convexgeo.body_pair(u, v)) - oracle) <= tol


@seed(20214)
@settings(max_examples=60, deadline=None)
@given(gens=_generators, shift=st.sampled_from([1e-15, 1e-11, 1e-10, 4e-10, 1e-9, 1e-8]))
def test_equivalence_of_rotated_twins(gens, shift):
    # rotating every generator by `shift` moves the width by at most shift * sum of lengths
    u = convexgeo.zonotope_from_generators(gens)
    w = convexgeo.zonotope_from_generators([(a + shift, ln) for a, ln in gens])
    pt = convexgeo.point()
    verdict = convexgeo.pair_equivalent(convexgeo.body_pair(u, pt), convexgeo.body_pair(w, pt))
    if shift * sum(ln for _, ln in gens) <= 1e-9:
        assert verdict


# ---------------------------------------------------------------------------
# canonicalization against the NumPy-row reference


def _reference_scale(pts):
    return float(np.max(np.abs(pts)))


def _reference_turn(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _reference_chain(points, eps):
    chain = []
    for p in points:
        while len(chain) >= 2 and _reference_turn(chain[-2], chain[-1], p) <= eps:
            chain.pop()
        chain.append(p)
    return chain


def _reference_tidy_ring(ring):
    """The ring pass before the hull moved to Python floats: NumPy rows and scalars."""
    ring = np.asarray(ring)
    if len(ring) <= 2:
        return ring
    eps = convexgeo._GEOM_TOL * _reference_scale(ring) ** 2
    chain = _reference_chain([*ring, ring[0]], eps)[:-1]
    while len(chain) >= 3 and _reference_turn(chain[-1], chain[0], chain[1]) <= eps:
        chain.pop(0)
    if len(chain) >= 3:
        return np.asarray(chain)
    axis = int(np.argmax(np.ptp(ring, axis=0)))
    return ring[[np.argmin(ring[:, axis]), np.argmax(ring[:, axis])]]


def _reference_convex_hull(pts):
    scale = _reference_scale(pts)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = [0]
    for i in range(1, len(pts)):
        if np.max(np.abs(pts[i] - pts[keep[-1]])) > convexgeo._GEOM_TOL * scale:
            keep.append(i)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts
    return _reference_tidy_ring(_reference_chain(pts, 0.0)[:-1] + _reference_chain(pts[::-1], 0.0)[:-1])


def _reference_symmetrize(hull):
    tol = convexgeo._GEOM_TOL * _reference_scale(hull)
    if len(hull) == 1:
        if np.max(np.abs(hull[0])) > tol:
            raise InputError("a one-point body must sit at the origin")
        return ((0.0, 0.0),)
    m = len(hull) // 2
    if len(hull) % 2 != 0 or np.max(np.abs(hull[:m] + hull[m:])) > tol:
        raise InputError("vertex set is not centrally symmetric")
    u = 0.5 * (hull[:m] - hull[m:])
    upper = (u[:, 1] > 0.0) | ((u[:, 1] == 0.0) & (u[:, 0] > 0.0))
    u = np.where(upper[:, None], u, -u)
    u = u[np.argsort(np.arctan2(u[:, 1], u[:, 0]), kind="stable")]
    ring = np.vstack([u, -u])
    start = int(np.lexsort((ring[:, 1], ring[:, 0]))[0])
    return tuple(map(tuple, np.roll(ring, -start, axis=0).tolist()))


def _reference_canonicalize(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise InputError("expected a nonempty array of planar points")
    if not np.all(np.isfinite(pts)):
        raise InputError("vertices must be finite")
    return _reference_symmetrize(_reference_convex_hull(pts))


def _reference_symmetric_polygon(points):
    """Every input point tested against the whole canonical ring, one NumPy call each."""
    pts = np.asarray(list(points), dtype=float)
    canon = _reference_canonicalize(pts)
    hull = np.asarray(canon, dtype=float)
    scale = _reference_scale(pts)
    for p in pts:
        if float(np.min(np.max(np.abs(hull - p), axis=1))) > 1e-9 * scale:
            raise InputError("vertices are not in convex position")
    return SimpleNamespace(vertices=canon)


def _bits(fn, *args):
    """A body's vertices as hex floats, so that signed zeros count, or the error raised."""
    try:
        return [(x.hex(), y.hex()) for x, y in fn(*args).vertices]
    except InputError as exc:
        return str(exc)


def _walk(gens):
    """The zonogon ring of ``(angle, length)`` generators, walked in angle order mod pi."""
    merged = {}
    for a, ln in gens:
        a = seqmodel.normalize_angle(a)
        merged[a] = merged.get(a, 0.0) + ln
    edges = [(ln * math.cos(a), ln * math.sin(a)) for a, ln in sorted(merged.items())]
    x, y = -0.5 * sum(e[0] for e in edges), -0.5 * sum(e[1] for e in edges)
    walk = []
    for ex, ey in edges:
        walk.append([x, y])
        x, y = x + ex, y + ey
    return walk + [[-px, -py] for px, py in walk]


@st.composite
def _hostile_bodies(draw):
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    angles = draw(st.lists(_angle, min_size=1, max_size=8))
    if draw(st.sampled_from([False, False, True])):
        angles.append(angles[-1] + draw(st.sampled_from([1e-15, -1e-15, 2e-15])))
    gens = [(a, scale * draw(st.floats(0.05, 3.0))) for a in angles]
    pts = _walk(gens)
    extras = ["near", "near", "near", "mid", "interior", "asym"]
    for kind in draw(st.lists(st.sampled_from(extras), max_size=3)):
        i = draw(st.integers(0, len(pts) - 1))
        p, q = pts[i], pts[(i + 1) % len(pts)]
        if kind == "near":
            d = scale * 10.0 ** draw(st.floats(-13.0, -10.0))
            pts.append([p[0] + d, p[1] - d * draw(st.sampled_from([0.0, 0.5, 1.0]))])
        elif kind == "mid":
            t = draw(st.sampled_from([0.5, 0.25]))
            pts.append([t * p[0] + (1.0 - t) * q[0], t * p[1] + (1.0 - t) * q[1]])
        elif kind == "interior":
            pts.append([0.5 * p[0], 0.5 * p[1]])
        else:
            pts[i] = [p[0] * (1.0 + 10.0 ** draw(st.floats(-12.0, -6.0))), p[1]]
    # 1- and 2-point bodies: the origin, a segment, or one end of it
    size = draw(st.sampled_from([None] * 7 + [1, 2]))
    if size is not None:
        pts = [[0.0, 0.0]] if draw(st.booleans()) else pts[:size]
    return gens, draw(st.permutations(pts))


@seed(20215)
@settings(max_examples=300, deadline=None)
@given(case=_hostile_bodies(), other=_generators)
def test_canonicalization_matches_numpy_row_reference(case, other):
    gens, pts = case
    assert _bits(convexgeo.symmetric_polygon, pts) == _bits(_reference_symmetric_polygon, pts)
    # generator bodies and their sums against the exact references: the generator
    # formula's terms and the exact shoelace over their float edges; a sum is the
    # same bits in either order
    u, v = convexgeo.zonotope_from_generators(gens), convexgeo.zonotope_from_generators(other)
    assert u.expansion == seqmodel.diangle_expansion(0.0, [(a, 0.5 * ln) for a, ln in gens])
    s = convexgeo.minkowski_sum(u, v)
    assert s == convexgeo.minkowski_sum(v, u)
    assert _bits(lambda: s) == _bits(convexgeo.minkowski_sum, v, u)
    for body in (u, v, s):
        _assert_exact_area(body)


def _assert_exact_area(body):
    """The expansion's area against the exact shoelace over the body's float edges,
    and the vertex walk's own exact shoelace against both."""
    size = body.expansion.coefficient_sum / convexgeo.WIDTH_SCALE  # the lengths' sum
    exact = _exact_area(body)
    assert abs(convexgeo.area(body) - float(exact)) <= 1e-14 * size * size
    walked = sum(
        Fraction(ax) * Fraction(by) - Fraction(bx) * Fraction(ay)
        for (ax, ay), (bx, by) in zip(body.vertices, body.vertices[1:] + body.vertices[:1])
    ) / 2
    assert abs(float(walked - exact)) <= 1e-14 * size * size


@st.composite
def _thin_bodies(draw):
    """Generators of a thin zonogon: a long one, its twins 1e-15 to 1e-13 rad away,
    whose walk vertices lie that close as seen from the origin, and a short one across."""
    a = draw(_angle)
    gens = [(a, 1.0)]
    gens += [(a + draw(st.sampled_from([1e-15, -1e-15, 1e-13])), draw(st.floats(0.01, 1.0))) for _ in range(2)]
    gens.append((a + draw(st.floats(0.5, 2.5)), 10.0 ** draw(st.floats(-9.0, -3.0))))
    return gens


def _built(fn, *args):
    """A body, or None where its construction raised ``InputError``."""
    try:
        return fn(*args)
    except InputError:
        return None


def _ring_bits(fn, ring):
    try:
        return [(x.hex(), y.hex()) for x, y in fn(ring)]
    except InputError as exc:
        return str(exc)


@seed(20216)
@settings(max_examples=300, deadline=None)
@given(case=_hostile_bodies(), thin=_thin_bodies(), other=_generators)
def test_symmetrize_matches_the_sorting_reference(case, thin, other):
    # _symmetrize takes the ring's own order, where the reference sorts the half
    # ring by atan2; both must give the same bits on every ring the hull or the
    # linear pass hands it: vertex lists, and the vertex walks of generator
    # bodies and of their Minkowski sums read back.  The thin walks hold vertices
    # 1e-15 rad apart as seen from the origin; the ring pass merges them, and the
    # closest adjacent vertices these rings keep are about 1.7e-12 rad apart.
    # The generator bodies themselves, thin ones included, keep every term and
    # meet the exact shoelace over their float edges.
    gens, pts = case
    built = [_built(convexgeo.zonotope_from_generators, g) for g in (gens, thin, other)]
    bodies = [u for u in built if u is not None]
    sums = [convexgeo.minkowski_sum(u, v) for u in bodies for v in bodies]
    for body in bodies + sums:
        _assert_exact_area(body)
    walks = [pts, _walk(thin), *(u.vertices for u in bodies + sums)]
    symmetrize = convexgeo._symmetrize
    rings = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexgeo, "_symmetrize", lambda ring: symmetrize(rings.append(ring) or ring))
        for walk in walks:
            _built(convexgeo.symmetric_polygon, walk)
    assert len(rings) == len(walks)
    for ring in rings:
        assert _ring_bits(symmetrize, ring) == _ring_bits(_reference_symmetrize, np.asarray(ring, dtype=float))


def test_reading_a_large_zonogon_is_near_linear():
    # 10000 generators 1/10000 long at evenly spaced angles: a 20000-gon, whose
    # reading is quadratic if every vertex is tested against the whole ring
    n = 10_000
    gens = [(-HALF_PI + (i + 0.5) * math.pi / n, 1.0 / n) for i in range(n)]
    body = convexgeo.zonotope_from_generators(gens)
    verts = [list(v) for v in body.vertices]
    start = time.perf_counter()
    read = convexgeo.symmetric_polygon(verts)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(read.vertices) == 2 * n and read.vertices == body.vertices


# ---------------------------------------------------------------------------
# the linear pass, term merges and relative tolerances


@st.composite
def _vertex_rings(draw):
    """Zonogon walks as a reader hands them on: float-pair lists, rotated, maybe
    clockwise, and some shuffled, padded with a collinear point, given a point
    1e-13 of the scale from a vertex, or given a generator's twin 1e-15 away."""
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    angles = draw(st.lists(_angle, min_size=1, max_size=8))
    kind = draw(st.sampled_from(["plain", "plain", "plain", "shuffled", "padded", "near", "twin"]))
    if kind == "twin":
        angles.append(angles[0] + draw(st.sampled_from([1e-15, -1e-15])))
    gens = [(a, scale * draw(st.floats(0.05, 3.0))) for a in angles]
    pts = _walk(gens)
    i = draw(st.integers(0, len(pts) - 1))
    p, q = pts[i], pts[(i + 1) % len(pts)]
    if kind == "padded":
        pts.insert(i + 1, [0.5 * p[0] + 0.5 * q[0], 0.5 * p[1] + 0.5 * q[1]])
    elif kind == "near":
        pts.insert(i + 1, [p[0] + 1e-13 * scale, p[1]])
    k = draw(st.integers(0, len(pts) - 1))
    pts = pts[k:] + pts[:k]
    if draw(st.booleans()):
        pts.reverse()
    if kind == "shuffled":
        pts = draw(st.permutations(pts))
    return gens, kind, pts


def _polygon_bits(fn, pts):
    """A body's vertices and terms as hex floats, or the error raised."""
    try:
        u = fn(pts)
    except InputError as exc:
        return str(exc)
    return [(x.hex(), y.hex()) for x, y in u.vertices], [(a.hex(), c.hex()) for a, c in u.expansion.terms]


def _well_separated(gens, gap=1e-3):
    """Whether the distinct angles mod pi are at least ``gap`` apart, around the wrap too."""
    angles = sorted({seqmodel.normalize_angle(a) for a, _ in gens})
    gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + math.pi - angles[-1]] if angles else []
    return min(gaps, default=math.inf) >= gap


@seed(20217)
@settings(max_examples=400, deadline=None)
@given(case=_vertex_rings())
def test_linear_pass_matches_the_hull(case):
    # the linear pass must hand _symmetrize the ring the hull would, bit for bit,
    # or decline; a plain walk of well-separated generators is taken by it
    gens, kind, pts = case
    tuples = [tuple(p) for p in pts]
    want = _polygon_bits(convexgeo._hull_polygon, pts)
    assert _polygon_bits(convexgeo._from_floats, pts) == want
    assert _polygon_bits(convexgeo.symmetric_polygon, tuples) == want
    if kind == "plain" and len(pts) >= 4 and _well_separated(gens):
        assert convexgeo._convex_ring(pts, convexgeo._scale_of(pts)) is not None
        assert convexgeo._convex_ring(tuples, convexgeo._scale_of(tuples)) is not None


def test_linear_pass_declines_rings_that_wind_twice():
    # a regular 10-gon visited three vertices at a time turns left at every vertex
    # and is centrally symmetric, but winds three times: the hull reorders it
    ring = [[math.cos(0.6 * math.pi * k), math.sin(0.6 * math.pi * k)] for k in range(10)]
    assert convexgeo._convex_ring(ring, 1.0) is None
    body = convexgeo._from_floats(ring)
    assert len(body.vertices) == 10 and body.vertices == convexgeo._hull_polygon(ring).vertices


def test_linear_pass_declines_vertices_within_the_duplicate_tolerance():
    # a needle along the diagonal whose two blunt vertices are 6.4e-13 apart, inside
    # the hull's duplicate tolerance 1e-12 * 0.707, while each turns by 9e-13, past
    # the ring pass's 5e-13: the hull merges them and finds an odd ring, so the
    # linear pass must decline (a turn is at most 4 scale times a vertex's distance
    # to any other, hence its margin of 8)
    r, d = math.sqrt(0.5), 0.45e-12
    ring = [[-r, -r], [d * r, -d * r], [r, r], [-d * r, d * r]]
    assert convexgeo._convex_ring(ring, convexgeo._scale_of(ring)) is None
    with pytest.raises(InputError, match="not centrally symmetric"):
        convexgeo._from_floats(ring)


@seed(20218)
@settings(max_examples=200, deadline=None)
@given(gu=_generators, gv=_generators, twin=st.booleans())
def test_minkowski_sum_is_a_term_merge(gu, gv, twin):
    # generator input and sums build no hull and run no ring pass; a sum is the
    # merge of both term lists, the same bits in either order
    def refuse(*args):
        raise AssertionError("the hull path ran")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_convex_hull", "_tidy_ring", "_chain", "_symmetrize", "_canonicalize"):
            mp.setattr(convexgeo, name, refuse)
        u, v = _body(gu, twin), _body(gv, False)
        s, t = convexgeo.minkowski_sum(u, v), convexgeo.minkowski_sum(v, u)
    assert s.expansion == seqmodel.diangle_expansion(0.0, [*u.expansion.terms, *v.expansion.terms])
    assert _bits(lambda: s) == _bits(lambda: t)
    assert [(a.hex(), c.hex()) for a, c in s.expansion.terms] == [(a.hex(), c.hex()) for a, c in t.expansion.terms]
    _assert_exact_area(s)


@seed(20219)
@settings(max_examples=150, deadline=None)
@given(gu=_generators, gv=_generators, twin=st.booleans(), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_sum_vertices_read_back_as_the_same_expansion(gu, gv, twin, scale):
    # the vertices `geom sum` prints read back as the same ring, bit for bit: the
    # walk leaves out each vertex the ring pass would drop (turn within 1e-12
    # scale^2).  Where no two edges are that nearly parallel, none is left out
    # and the ring gives the sum's terms to 1e-12 of the scale
    if twin and gu:
        gu = [*gu, (gu[0][0] + 1e-15, 0.5)]
    gens = [(a, scale * ln) for a, ln in gu + gv]
    u = convexgeo.zonotope_from_generators([(a, scale * ln) for a, ln in gu])
    v = convexgeo.zonotope_from_generators([(a, scale * ln) for a, ln in gv])
    s = convexgeo.minkowski_sum(u, v)
    again = serialization.read_body(serialization.loads(serialization.dumps(serialization.write_body(s))))
    assert _bits(lambda: again) == [(x.hex(), y.hex()) for x, y in convexgeo.vertex_list(s)]
    if not _well_separated(gens, 1e-6):
        return
    size = s.expansion.coefficient_sum
    assert len(again.expansion.terms) == len(s.expansion.terms)
    for (a, c), (b, d) in zip(s.expansion.terms, again.expansion.terms):
        assert abs(c - d) <= 1e-12 * size and abs(a - b) * c <= 1e-12 * size
    grid = np.union1d(np.linspace(-HALF_PI, HALF_PI, 181), s.expansion.angles)
    assert np.max(np.abs(convexgeo.width(again, grid) - convexgeo.width(s, grid))) <= 1e-12 * size


@pytest.mark.parametrize("shrink", [2.0**-20, 2.0**-60, 2.0**-200])
def test_vertex_tolerances_are_relative_to_the_body(shrink):
    # a body below unit size keeps its shape: scaled by a power of two, the
    # canonical ring scales exactly, near-duplicate and collinear points included
    base = [[1.0, 2.0], [-1.0, 2.0], [-1.0 + 1e-13, 2.0], [-2.0, 0.0], [-1.0, -2.0], [1.0, -2.0], [2.0, 0.0]]
    small = convexgeo.symmetric_polygon([[shrink * x, shrink * y] for x, y in base])
    big = convexgeo.symmetric_polygon(base)
    assert small.vertices == tuple((shrink * x, shrink * y) for x, y in big.vertices)
    assert len(small.vertices) == 6
    assert math.isclose(convexgeo.area(small), shrink * shrink * convexgeo.area(big), rel_tol=1e-14)
    # the 1e-6 x 5e-7 box, in both forms: 5e-13 where 0 or an error came back
    box = convexgeo.symmetric_polygon([[2.5e-07, 5e-07], [-2.5e-07, 5e-07], [-2.5e-07, -5e-07], [2.5e-07, -5e-07]])
    gens = convexgeo.zonotope_from_generators([(-HALF_PI, 1e-06), (0.0, 5e-07)])
    for body in (box, gens):
        assert math.isclose(convexgeo.area(body), 5e-13, rel_tol=1e-15)


def test_vertex_list_of_a_nearly_flat_zonogon_reads_back_as_a_segment():
    # two generators 1e-86 apart: the raw walk of `vertices` has four points, two
    # of them on the segment between the others, and is not in convex position;
    # `vertex_list` is the form that `symmetric_polygon` and `write_body` read back
    u = convexgeo.zonotope_from_generators([(0.0, 1.0), (9.98e-87, 1.0)])
    assert len(u.vertices) == 4
    listed = convexgeo.vertex_list(u)
    assert listed == ((-1.0, -4.99e-87), (1.0, 4.99e-87))
    for again in (
        convexgeo.symmetric_polygon(listed),
        serialization.read_body(serialization.loads(serialization.dumps(serialization.write_body(u)))),
    ):
        assert again.is_segment and again.vertices == listed
        grid = np.linspace(-HALF_PI, HALF_PI, 37)
        assert np.max(np.abs(convexgeo.width(again, grid) - convexgeo.width(u, grid))) <= 1e-15


def test_scale_zero_is_the_one_point_body():
    # every tolerance is relative to the largest coordinate, so at scale 0 they
    # are all 0: only points at the origin, signed zeros alike, are the point
    assert convexgeo.symmetric_polygon([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]).is_point
    for far in ([(1e-300, 0.0)], [(5e-324, 0.0)]):
        with pytest.raises(InputError, match="must sit at the origin"):
            convexgeo.symmetric_polygon(far)
    seg = convexgeo.symmetric_polygon([(1e-300, 0.0), (-1e-300, 0.0)])
    assert seg.is_segment and seg.vertices == ((-1e-300, 0.0), (1e-300, 0.0))


_LARGE_AREA = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from isorkhs import convexgeo
print(repr(convexgeo.area(convexgeo.regular_polygon(20000))))
"""


def test_area_of_a_20000_gon_fits_in_1_gb():
    # 10000 terms: a dense sine matrix and its temporaries need about 1.6 GB; the
    # sorted pass needs a few MB.  One BLAS thread, so the limit is spent on arrays.
    env = {**os.environ, "PYTHONPATH": str(Path(convexgeo.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _LARGE_AREA], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    n = 20000
    assert math.isclose(float(proc.stdout), 0.5 * n * math.sin(2.0 * math.pi / n), rel_tol=1e-12, abs_tol=0.0)


_ONE = 1 << 120  # fixed point for the exact sines below


def _exact_sine(x: int) -> int:
    """``sin(x / 2**120)`` in units of ``2**-120`` by its Taylor series, for ``|x| <= pi 2**120``."""
    term, total, k = x, 0, 1
    while term:
        total += term
        term = -term * x // _ONE * x // _ONE // ((k + 1) * (k + 2))
        k += 2
    return total


def test_pair_measure_of_nearly_equal_bodies_is_accurate_relative_to_itself():
    # U against its own vertex form, or against itself turned by 1e-12: the pair's terms
    # nearly cancel two by two, and the measure must hold its relative accuracy, not
    # only eps (sum|c|)^2, against the sine sum in exact rationals
    rng = np.random.default_rng(5)
    for i in range(40):
        k = int(rng.integers(1, 7))
        gens = list(zip(rng.uniform(-HALF_PI, HALF_PI, k).tolist(), rng.uniform(0.1, 2.0, k).tolist()))
        u = convexgeo.zonotope_from_generators(gens)
        if i % 2:
            v = convexgeo.zonotope_from_generators([(a + 1e-12, ln) for a, ln in gens])
        else:
            v = convexgeo.symmetric_polygon(u.vertices)
        pair = convexgeo.body_pair(u, v)
        terms = [(Fraction(a), Fraction(c)) for a, c in pair.expansion.terms]
        exact = sum(
            ci * cj * Fraction(abs(_exact_sine(round((ai - aj) * _ONE))), _ONE) for ai, ci in terms for aj, cj in terms
        )
        assert abs(Fraction(convexgeo.pair_measure(pair)) - 2 * exact) <= 2e-12 * abs(exact)


# ---------------------------------------------------------------------------
# a pair's function: its energies are the pair's readings, bit for bit


def _assert_energies_are_the_pair_readings(pair):
    f = convexgeo.pair_to_function(pair)
    m = convexgeo.pair_measure(pair)
    assert funcspace.energy_integral(f) == m
    # (int f)^2 - pi m scaled by 4 is p^2 - 4 pi m bit for bit unless a term is subnormal
    int_f = funcspace.perimeter_functional(f)
    if all(t == 0.0 or abs(t) >= sys.float_info.min for t in (int_f * int_f, math.pi * m)):
        assert 4.0 * funcspace.energy_deficit(f) == convexgeo.pair_deficit(pair)


def test_energies_of_the_golden_pairs_are_their_measure_and_deficit():
    # v8+g8 is a body against its own generator form: its measure, -3.6e-17, is
    # all cancellation, and the energy must read the same sine pass to print it
    golden = json.loads((Path(__file__).parent / "geom_golden.json").read_text())
    pairs = {c["id"].split(":")[1]: c["input"] for c in golden if "U" in c["input"]}
    assert len(pairs) == 6
    for doc in pairs.values():
        _assert_energies_are_the_pair_readings(serialization.read_pair(doc))


@seed(20261)
@settings(max_examples=150, deadline=None)
@given(gens=_generators, other=_generators, turn=st.sampled_from([None, 0.0, 1e-12, -1e-15]))
def test_energies_of_nearly_equal_pairs_are_their_measure_and_deficit(gens, other, turn):
    # U against its own vertex record (turn None) or its generators turned a little, whose
    # terms nearly cancel two by two, and U against an unrelated body; _angle puts edges at +-pi/2
    u = convexgeo.zonotope_from_generators(gens)
    if turn is None:
        v = serialization.read_body(serialization.write_body(u))
    else:
        v = convexgeo.zonotope_from_generators([(a + turn, ln) for a, ln in gens])
    for pair in (convexgeo.body_pair(u, v), convexgeo.body_pair(u, convexgeo.zonotope_from_generators(other))):
        _assert_energies_are_the_pair_readings(pair)

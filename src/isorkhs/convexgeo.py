"""Origin-symmetric convex bodies in the plane and the width-pair isometry.

Bodies are convex polygons, symmetric about the origin, kept as a canonical
vertex ring (counterclockwise, antipodal pairs exactly negated, starting at
the lexicographically smallest vertex); the ring is the input/output form.
Points and segments are first-class degenerate bodies.  Every such polygon
is a zonogon, so its scaled width is a nonnegative diangle expansion (see
``seqmodel``) with one term per antipodal edge pair ``e``:

    WIDTH_SCALE * width(phi) = sum_e WIDTH_SCALE |e| |sin(phi - angle(e))|

Every reading is taken from that expansion in closed form.  A pair
``[U, V]`` stands for the formal difference ``U - V``; its half-width
difference ``f = WIDTH_SCALE (width_U - width_V)`` is a member of the
function space on ``[-pi/2, pi/2]`` with ``int f`` half the pair perimeter
``perim(U) - perim(V)`` and ``int (f^2 - f'^2)`` the pair measure
``2 area(U) + 2 area(V) - area(U + V)``.  Both, and the squared pair norm
``(2 p^2 - 4 pi m) / (4 pi^2)``, are read off the difference expansion,
which a ``BodyPair`` builds once.

Canonicalization runs on Python floats (their IEEE arithmetic gives the
same bits as NumPy scalars) from the point list to the canonical tuple: one
sort, the monotone-chain hull, and a ring pass that keeps the hull's angle
order, so antipodal halves are symmetrized without another sort.  Convex
position is tested only at the points the hull dropped.  Bodies whose
squared coordinates overflow are rejected before any arithmetic overflows.
The support width and the shoelace area stay as independent oracles, read by
``cauchy_check``, ``pair_equivalent`` and the two scale calibrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import funcspace, quad, seqmodel
from .errors import InputError, InvariantViolationError
from .quad import DEFAULT_SPEC, DELTA, QuadratureSpec

__all__ = [
    "WIDTH_SCALE",
    "SymmetricPolygon",
    "symmetric_polygon",
    "point",
    "segment",
    "regular_polygon",
    "zonotope_from_generators",
    "minkowski_sum",
    "area",
    "perimeter",
    "width",
    "width_derivative",
    "width_kinks",
    "BodyPair",
    "body_pair",
    "pair_measure",
    "pair_perimeter",
    "pair_deficit",
    "convex_norm_squared",
    "convex_norm",
    "pair_to_function",
    "pair_equivalent",
    "cauchy_check",
    "calibrate_width_scale",
    "pair_norm_agreement",
]

_HALF_PI = 0.5 * math.pi

# Scale applied to a width difference to land in the function space; fixed by
# calibrate_width_scale() against reference bodies with known profiles.
WIDTH_SCALE = 0.5

_GEOM_TOL = 1e-12


def _scale_of(pts) -> float:
    return max(1.0, max(map(abs, chain.from_iterable(pts))))


def _square_of(scale: float) -> float:
    """``scale ** 2``, which turn tolerances and areas scale with; it must be finite."""
    try:
        return scale**2
    except OverflowError:
        raise InputError("body is too large: its squared coordinates overflow") from None


# ---------------------------------------------------------------------------
# canonical construction


def _turn(a, b, p) -> float:
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _chain(points: list, eps: float) -> list:
    """Monotone-chain pass: keep only points where the path turns strictly left."""
    kept: list = []
    for p in points:
        x, y = p
        while len(kept) >= 2:
            (ax, ay), (bx, by) = kept[-2], kept[-1]
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > eps:  # _turn(a, b, p)
                break
            kept.pop()
        kept.append(p)
    return kept


def _tidy_ring(ring: list) -> list:
    """The vertices of a closed counterclockwise ring that turn strictly left.

    A collinear ring gives its two extremes along its wider axis, as rounding
    noise can swamp the other one (a vertical segment's x coordinates).
    """
    if len(ring) <= 2:
        return ring
    eps = _GEOM_TOL * _square_of(_scale_of(ring))
    kept = _chain([*ring, ring[0]], eps)[:-1]
    # the chain never tests its first point against its predecessor
    while len(kept) >= 3 and _turn(kept[-1], kept[0], kept[1]) <= eps:
        kept.pop(0)
    if len(kept) >= 3:
        return kept
    xs, ys = zip(*ring)
    c = ys if max(ys) - min(ys) > max(xs) - min(xs) else xs
    return [ring[c.index(min(c))], ring[c.index(max(c))]]


def _convex_hull(pts: list) -> list:
    """CCW monotone-chain hull from the lex-min point, strictly convex vertices only, as input points."""
    tol = _GEOM_TOL * _scale_of(pts)
    rows = sorted(pts)
    kept = rows[:1]
    for p in rows[1:]:
        q = kept[-1]
        if max(abs(p[0] - q[0]), abs(p[1] - q[1])) > tol:
            kept.append(p)
    if len(kept) <= 2:
        return kept
    # Rounding can make the sort order disagree with the geometry, so the chains
    # take exact turns and the ring pass alone drops nearly collinear points.
    return _tidy_ring(_chain(kept, 0.0)[:-1] + _chain(kept[::-1], 0.0)[:-1])


def _symmetrize(ring: list) -> tuple[tuple[float, float], ...]:
    """Canonical ring of a CCW ring whose vertex ``i + m`` is the antipode of vertex ``i``:
    ``[s, -s]`` with ``s_i = (h_i - h_{i+m}) / 2``, in the ring's order, from its lex-min vertex."""
    tol = _GEOM_TOL * _scale_of(ring)
    if len(ring) == 1:
        if max(map(abs, ring[0])) > tol:
            raise InputError("a one-point body must sit at the origin")
        return ((0.0, 0.0),)
    m = len(ring) // 2
    pairs = list(zip(ring, ring[m:]))
    if len(ring) % 2 != 0 or any(abs(x + u) > tol or abs(y + v) > tol for (x, y), (u, v) in pairs):
        raise InputError("vertex set is not centrally symmetric")
    half = [(0.5 * (x - u), 0.5 * (y - v)) for (x, y), (u, v) in pairs]
    out = half + [(-x, -y) for x, y in half]
    start = out.index(min(out))
    return tuple(out[start:] + out[:start])


def _canonicalize(points: list) -> tuple[list, tuple[tuple[float, float], ...]]:
    """The hull of finite points, as input points, and its canonical ring."""
    _square_of(_scale_of(points))
    hull = _convex_hull(points)
    return hull, _symmetrize(hull)


@dataclass(frozen=True)
class SymmetricPolygon:
    """Canonical origin-symmetric convex polygon (possibly a segment or point).

    Build through the factory functions; ``vertices`` is trusted to be in
    canonical form.
    """

    vertices: tuple[tuple[float, float], ...]

    @cached_property
    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    @cached_property
    def expansion(self) -> seqmodel.DiangleExpansion:
        """The scaled width: per antipodal edge pair, its angle mod pi and ``WIDTH_SCALE * |e|``."""
        e = _half_edges(self.vertex_array)
        lengths = WIDTH_SCALE * np.hypot(e[:, 0], e[:, 1])
        return seqmodel.diangle_expansion(0.0, zip(np.arctan2(e[:, 1], e[:, 0]).tolist(), lengths.tolist()))

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2

    @property
    def scale(self) -> float:
        return _scale_of(self.vertices)


def _half_edges(ring: np.ndarray) -> np.ndarray:
    """Edges from a canonical ring's lex-min vertex to its antipode, all pointing right or up."""
    m = len(ring) // 2
    return ring[1 : m + 1] - ring[:m]


def symmetric_polygon(points: Iterable[Sequence[float]]) -> SymmetricPolygon:
    """Validate and canonicalize a vertex set.

    Rejects vertex sets that are not centrally symmetric or contain points
    interior to their own hull (the vertices must be in convex position).
    The points become float pairs, canonicalized in a sort plus Python work
    linear in their count.  An array is built only of the points the hull
    dropped, tested against the canonical ring at a cost proportional to
    their number times the ring's.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError, OverflowError):
        pts = []
    if not pts or not all(map(math.isfinite, chain.from_iterable(pts))):
        raise InputError("expected a nonempty list of finite planar points")
    hull, canon = _canonicalize(pts)
    body = SymmetricPolygon(canon)
    # Each hull vertex lies within half the symmetry tolerance of a canonical
    # vertex, so only the input points the hull dropped can fail the test.  The
    # hull's points are input points: as many distinct ones as inputs drop none.
    kept = set(hull)
    if len(kept) == len(pts):
        return body
    dropped = np.asarray([p for p in pts if p not in kept])
    step = max(1, (1 << 18) // len(canon))  # at most 2**19 doubles per broadcast
    for i in range(0, len(dropped), step):
        gaps = np.abs(dropped[i : i + step, None, :] - body.vertex_array).max(axis=2).min(axis=1)
        if np.max(gaps) > 1e-9 * _scale_of(pts):
            raise InputError("vertices are not in convex position")
    return body


def point() -> SymmetricPolygon:
    return SymmetricPolygon(((0.0, 0.0),))


def segment(angle: float, length: float) -> SymmetricPolygon:
    """Origin-centered segment with direction ``angle`` and total ``length``."""
    return zonotope_from_generators([(angle, length)])


def regular_polygon(n: int, radius: float = 1.0, phase: float = 0.0) -> SymmetricPolygon:
    """Regular ``n``-gon (``n`` even, at least 4) with circumradius ``radius``."""
    n = int(n)
    if n < 4 or n % 2 != 0:
        raise InputError("central symmetry requires an even vertex count >= 4")
    radius = float(radius)
    if not math.isfinite(radius) or radius <= 0.0:
        raise InputError("radius must be positive")
    ang = phase + 2.0 * math.pi * np.arange(n) / n
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return SymmetricPolygon(_canonicalize(pts.tolist())[1])


def zonotope_from_generators(generators: Iterable[tuple[float, float]]) -> SymmetricPolygon:
    """Minkowski sum of origin-centered segments ``(angle, length)``.

    Angles are identified modulo pi; exact duplicates merge by adding
    lengths.  An empty generator list gives the point.
    """
    merged: dict[float, float] = {}
    for raw_angle, raw_len in generators:
        a = seqmodel.normalize_angle(float(raw_angle))
        ln = float(raw_len)
        if not math.isfinite(ln) or ln < 0.0:
            raise InputError(f"generator length must be nonnegative, got {raw_len!r}")
        if ln == 0.0:
            continue
        merged[a] = merged.get(a, 0.0) + ln
    if not merged:
        return point()
    # the walk stays finite when the lengths' sum does; when the sum overflows,
    # the largest coordinate, at least a quarter of it, has an infinite square
    if not math.isfinite(sum(merged.values())):
        raise InputError("body is too large: its squared coordinates overflow")
    angles = sorted(merged)
    edges = np.asarray([[merged[a] * math.cos(a), merged[a] * math.sin(a)] for a in angles])
    start = -0.5 * edges.sum(axis=0)
    walk = start + np.vstack([np.zeros(2), np.cumsum(edges, axis=0)[:-1]])
    return SymmetricPolygon(_canonicalize(np.vstack([walk, -walk]).tolist())[1])


def minkowski_sum(u: SymmetricPolygon, v: SymmetricPolygon) -> SymmetricPolygon:
    """Minkowski sum ``{a + b : a in U, b in V}``.

    The canonical rings start at their lex-min vertices, whose sum is the
    sum's; walking both edge sequences merged by direction visits its
    vertices ``u_i + v_j`` in order.
    """
    a, b = u.vertex_array, v.vertex_array
    ka, kb = (np.arctan2(e[:, 1], e[:, 0]) for e in (_half_edges(a), _half_edges(b)))
    steps = np.argsort(np.concatenate([ka, ka + math.pi, kb, kb + math.pi]), kind="stable")
    from_a = steps[:-1] < 2 * len(ka)
    i = np.concatenate([[0], np.cumsum(from_a)]) % len(a)
    j = np.concatenate([[0], np.cumsum(~from_a)]) % len(b)
    return SymmetricPolygon(_symmetrize(_tidy_ring((a[i] + b[j]).tolist())))


# ---------------------------------------------------------------------------
# vertex oracles


def _support_width(vertices: np.ndarray, phi) -> np.ndarray:
    """Width oracle ``2 max_v <v, n(phi)>``, normal ``n = (-sin phi, cos phi)``."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return 2.0 * (vertices @ np.stack([-np.sin(phi), np.cos(phi)], axis=0)).max(axis=0)


def _shoelace_area(vertices: np.ndarray) -> float:
    """Vertex oracle for the area of a counterclockwise ring."""
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


# ---------------------------------------------------------------------------
# metric quantities


def area(u: SymmetricPolygon) -> float:
    return seqmodel.polygon_area(u.expansion)


def perimeter(u: SymmetricPolygon) -> float:
    """Cyclic boundary length; a segment's doubly-walked boundary counts twice."""
    return seqmodel.polygon_perimeter(u.expansion)


def width(u: SymmetricPolygon, phi):
    """Extent of ``U`` in the direction at angle ``phi``; pi-periodic."""
    pa = np.asarray(phi, dtype=float)
    out = 2.0 * seqmodel.expansion_value(u.expansion, pa)
    return float(out) if pa.ndim == 0 else out


def width_kinks(u: SymmetricPolygon) -> tuple[float, ...]:
    """Edge directions modulo pi, in ``[-pi/2, pi/2)``, where the width is not smooth."""
    return u.expansion.angles


def width_derivative(u: SymmetricPolygon, phi):
    """Derivative of the width profile, right-hand branch at kinks."""
    pa = np.asarray(phi, dtype=float)
    out = 2.0 * seqmodel.expansion_derivative(u.expansion, pa)
    return float(out) if pa.ndim == 0 else out


def cauchy_check(u: SymmetricPolygon, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``| int width - perimeter |`` with the vertex support width; zero for convex bodies."""
    total = quad.integrate(lambda p: _support_width(u.vertex_array, p), DELTA, width_kinks(u), spec)
    return abs(total - perimeter(u))


# ---------------------------------------------------------------------------
# body pairs


@dataclass(frozen=True)
class BodyPair:
    """Formal difference ``U - V`` of two symmetric bodies."""

    U: SymmetricPolygon
    V: SymmetricPolygon

    @cached_property
    def expansion(self) -> seqmodel.DiangleExpansion:
        """The difference expansion of ``U - V``: U's terms and V's terms negated."""
        negated = ((a, -c) for a, c in self.V.expansion.terms)
        return seqmodel.diangle_expansion(0.0, [*self.U.expansion.terms, *negated])


def body_pair(u: SymmetricPolygon, v: SymmetricPolygon) -> BodyPair:
    return BodyPair(u, v)


def pair_perimeter(pair: BodyPair) -> float:
    return 4.0 * pair.expansion.coefficient_sum


def pair_measure(pair: BodyPair) -> float:
    """Signed mixed-area combination ``2 m(U) + 2 m(V) - m(U + V)``."""
    return seqmodel.AREA_CONSTANT * seqmodel.sin_quadratic(pair.expansion)


def pair_deficit(pair: BodyPair) -> float:
    """Isoperimetric deficit ``p^2 - 4 pi m`` of the pair; nonnegative."""
    p = pair_perimeter(pair)
    return p * p - 4.0 * math.pi * pair_measure(pair)


def convex_norm_squared(pair: BodyPair) -> float:
    p = pair_perimeter(pair)
    m = pair_measure(pair)
    n2 = (2.0 * p * p - 4.0 * math.pi * m) / (4.0 * math.pi * math.pi)
    if n2 < -1e-9 * max(1.0, abs(m), p * p):
        raise InvariantViolationError(f"squared pair norm is negative: {n2!r}")
    return n2


def convex_norm(pair: BodyPair) -> float:
    return math.sqrt(max(0.0, convex_norm_squared(pair)))


def pair_to_function(pair: BodyPair) -> funcspace.DiangleSpan:
    """The scaled width difference of the pair as a function-space member."""
    return funcspace.DiangleSpan(pair.expansion)


def _sum_scale(u: SymmetricPolygon, v: SymmetricPolygon) -> float:
    """Largest vertex coordinate of ``U + V`` in absolute value, without forming the sum."""
    return float(np.max(np.abs(u.vertex_array).max(axis=0) + np.abs(v.vertex_array).max(axis=0)))


def pair_equivalent(a: BodyPair, b: BodyPair) -> bool:
    """Whether two pairs represent the same difference: ``U + Q = V + P``.

    Decided by the width gap of ``(a.U + b.V) - (b.U + a.V)``, twice the
    value of its difference expansion, on a 721-point grid and the
    expansion's kinks.  The four bodies' vertex support widths on the same
    points cross-check the gap; a disagreement beyond rounding is an
    invariant violation.
    """
    negated = ((t, -c) for t, c in b.expansion.terms)
    diff = seqmodel.diangle_expansion(0.0, [*a.expansion.terms, *negated])
    scale = max(1.0, _sum_scale(a.U, b.V), _sum_scale(b.U, a.V))
    pts = np.union1d(np.linspace(-_HALF_PI, _HALF_PI, 721), diff.angles)
    gap = 2.0 * float(np.max(np.abs(seqmodel.expansion_value(diff, pts))))
    left = _support_width(a.U.vertex_array, pts) + _support_width(b.V.vertex_array, pts)
    right = _support_width(b.U.vertex_array, pts) + _support_width(a.V.vertex_array, pts)
    vertex_gap = float(np.max(np.abs(left - right)))
    if abs(gap - vertex_gap) > 1e-10 * scale:
        raise InvariantViolationError(f"expansion and vertex width gaps disagree: {gap!r}, {vertex_gap!r}")
    return gap <= 1e-9 * scale


# ---------------------------------------------------------------------------
# calibration


def calibrate_width_scale() -> float:
    """Recover the width-to-function scale from reference bodies.

    A unit-direction segment of length 2 paired with a point must produce the
    diangle profile ``sin|phi - psi|``, and a fine regular polygon paired with
    a point must produce (nearly) the constant 1.  The candidate scale
    matching both, with widths read off the vertices, is returned; the stored
    ``WIDTH_SCALE`` must agree.
    """
    grid = np.linspace(-_HALF_PI, _HALF_PI, 181)
    psi = 0.3
    pt = _support_width(point().vertex_array, grid)
    seg = _support_width(segment(psi, 2.0).vertex_array, grid) - pt
    disc = _support_width(regular_polygon(64).vertex_array, grid) - pt
    errors = {
        c: float(max(np.max(np.abs(c * seg - np.sin(np.abs(grid - psi)))), np.max(np.abs(c * disc - 1.0))))
        for c in (1.0, 0.5)
    }
    best_c = min(errors, key=errors.get)
    if best_c != WIDTH_SCALE or errors[best_c] > 0.01:
        raise InvariantViolationError(
            f"width-scale calibration found {best_c!r} (error {errors[best_c]!r})"
        )
    return best_c


def pair_norm_agreement(pair: BodyPair, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``| pair norm^2 - function norm^2 |``, the function norm by quadrature."""
    f = pair_to_function(pair)
    return abs(convex_norm_squared(pair) - funcspace.norm_iso_squared(f, method="quadrature", spec=spec))

"""Origin-symmetric convex bodies in the plane and the width-pair isometry.

A body is its expansion.  Every convex polygon symmetric about the origin is
a zonogon, so its scaled width is a nonnegative diangle expansion (see
``seqmodel``) with no constant and one term per antipodal edge pair ``e``:

    WIDTH_SCALE * width(phi) = sum_e WIDTH_SCALE |e| |sin(phi - angle(e))|

``SymmetricPolygon`` holds that expansion, and every reading is taken from it
in closed form.  Points and segments are the expansions with no term and with
one.  Generators are kept as edges: the generator ``(angle, length)`` is the
term ``(angle, WIDTH_SCALE * length)``, so a zonotope builds no hull, and a
Minkowski sum merges two term lists, because support functions add.  A pair
``[U, V]`` stands for the formal difference ``U - V``; its half-width
difference ``f = WIDTH_SCALE (width_U - width_V)`` is a member of the
function space on ``[-pi/2, pi/2]`` with ``int f`` half the pair perimeter
``perim(U) - perim(V)`` and ``int (f^2 - f'^2)`` the pair measure
``2 area(U) + 2 area(V) - area(U + V)``.  Both, and the squared pair norm
``(2 p^2 - 4 pi m) / (4 pi^2)``, are read off the difference expansion,
which a ``BodyPair`` builds once.

Vertices are data derived from the expansion, built when an op reads them
(the vertex oracles, the calibrations): the canonical ring,
counterclockwise from the lexicographically smallest vertex, with antipodal
pairs exactly negated.  A body read from vertices keeps the ring its input
was canonicalized to; any other body walks its edges in angle order, and
``vertex_list``, what ``geom sum`` prints, leaves out the vertices of that
walk the ring pass below would drop, so the printed ring reads back as
itself.  Canonicalization runs on Python floats (their IEEE arithmetic
gives the same bits as NumPy scalars).  A vertex list that is already a
ring in convex position, as a printed ring mostly is, is checked in one
linear pass; any other list goes through the monotone-chain hull and a ring
pass that drops nearly collinear vertices, which is also the oracle the
linear pass is tested against.  Convex position is tested only at the
points the hull dropped.

Vertex tolerances are relative to the body's own scale, its largest absolute
coordinate: ``1e-12 scale`` for duplicates and antipodes, ``1e-12 scale^2``
for turns, ``1e-9 scale`` for convex position.  At scale 0 they are all 0,
and the only body of scale 0 is the one point at the origin.  Bodies whose
squared coordinates overflow are rejected before any arithmetic overflows,
generator bodies at the same largest coordinate as vertex bodies.  The
support width and the shoelace area stay as independent oracles, read by
``cauchy_check``, ``pair_equivalent`` and the two scale calibrations.

Building a body from generators or from vertices, and every reading of a body
or a pair (area, perimeter, measure, deficit, norm), runs on Python floats
and the C library's ``math`` and ``cmath``, so these load neither NumPy nor
``quad``.  NumPy is imported where arrays are computed on: the vertex oracles
and ``vertex_array``, ``regular_polygon``, the hull's dropped-point check,
``width`` and ``pair_equivalent``; ``quad`` only by the two quadrature checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import gt, lt
from typing import TYPE_CHECKING, Iterable, Sequence

import isorkhs  # for isorkhs.funcspace, which the package loads on first use (pair_to_function)

from . import seqmodel
from .errors import InputError, InvariantViolationError

if TYPE_CHECKING:
    import numpy as np

    from .quad import QuadratureSpec

__all__ = [
    "WIDTH_SCALE",
    "SymmetricPolygon",
    "symmetric_polygon",
    "point",
    "segment",
    "regular_polygon",
    "zonotope_from_generators",
    "minkowski_sum",
    "vertex_list",
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
    """The largest absolute coordinate: the scale vertex tolerances are relative to."""
    return max(map(abs, chain.from_iterable(pts)))


def _square_of(scale: float, what: str = "its squared coordinates overflow") -> float:
    """``scale ** 2``, which turn tolerances and areas scale with; it must be finite."""
    try:
        square = scale**2
    except OverflowError:
        square = math.inf
    if square == math.inf:
        raise InputError(f"body is too large: {what}")
    return square


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


def _convex_ring(pts: list, scale: float) -> list | None:
    """``pts`` as the hull gives them back, counterclockwise from the lex-min point, when one
    linear pass shows they are a closed ring in convex position, in either orientation; else ``None``.

    Every turn must exceed eight times ``_tidy_ring``'s tolerance: a turn is at
    most ``4 scale`` times the distance from its vertex to any other, so no two
    points are then as close as the hull's duplicate tolerance, and the ring pass
    keeps every point.  The points must rise lexicographically to one point and
    fall back, so the ring winds once and its two runs are the hull's two chains.
    """
    if len(pts) < 4:
        return None
    start = pts.index(min(pts))
    ring = pts[start:] + pts[:start]
    if _turn(ring[-1], ring[0], ring[1]) < 0.0:
        ring = ring[:1] + ring[:0:-1]
    eps = 8.0 * _GEOM_TOL * scale * scale
    for (ax, ay), (bx, by), (x, y) in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1]):
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) <= eps:  # _turn(a, b, p)
            return None
    top = ring.index(max(ring))
    if all(map(lt, ring[:top], ring[1 : top + 1])) and all(map(gt, ring[top:], ring[top + 1 :] + ring[:1])):
        return ring
    return None


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
    """The hull of finite points whose squares are finite, as input points, and its canonical ring."""
    hull = _convex_hull(points)
    return hull, _symmetrize(hull)


def _walk(e: seqmodel.DiangleExpansion) -> tuple[tuple[float, float], ...]:
    """The canonical ring of an expansion's zonogon: its edges ``c / WIDTH_SCALE`` long at
    their angles, summed in angle order from minus half their sum, then the negated half,
    from the lex-min vertex.  ``math.fsum`` rounds that sum the same on every Python,
    where the built-in ``sum`` of floats changed in 3.12."""
    if not e.terms:
        return ((0.0, 0.0),)
    xs = [c / WIDTH_SCALE * math.cos(a) for a, c in e.terms]
    ys = [c / WIDTH_SCALE * math.sin(a) for a, c in e.terms]
    x0, y0 = -0.5 * math.fsum(xs), -0.5 * math.fsum(ys)
    half = list(zip(accumulate(xs[:-1], initial=x0), accumulate(ys[:-1], initial=y0)))
    ring = half + [(-x, -y) for x, y in half]
    _square_of(_scale_of(ring))
    start = ring.index(min(ring))
    return tuple(ring[start:] + ring[:start])


@dataclass(frozen=True)
class SymmetricPolygon:
    """Origin-symmetric convex polygon (possibly a segment or point): its scaled width.

    Build through the factory functions; ``expansion`` is trusted to be
    canonical, nonnegative and constant-free.  ``ring`` is the canonical ring a
    vertex input was canonicalized to, which ``vertices`` gives back; a body
    without one walks its edges when its vertices are first read.
    """

    expansion: seqmodel.DiangleExpansion
    ring: tuple[tuple[float, float], ...] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """The ring a vertex input was canonicalized to, else the raw walk of the edges.

        A walk keeps every edge, so two edges whose angles differ in their last
        bits leave a vertex with no turn, and ``symmetric_polygon`` may reject
        the walk as not in convex position.  ``vertex_list(u)`` is the form that
        ``symmetric_polygon`` and ``write_body`` read back.
        """
        return _walk(self.expansion) if self.ring is None else self.ring

    @cached_property
    def vertex_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.vertices, dtype=float)

    @property
    def is_point(self) -> bool:
        return not self.expansion.terms

    @property
    def is_segment(self) -> bool:
        return len(self.expansion.terms) == 1

    @property
    def scale(self) -> float:
        return _scale_of(self.vertices)


def _ring_body(canon: tuple[tuple[float, float], ...]) -> SymmetricPolygon:
    """The body of a canonical ring: per antipodal edge pair, its angle mod pi and ``WIDTH_SCALE * |e|``.

    ``cmath.polar`` reads each edge by the C library's ``hypot`` and ``atan2``, which
    give the same bits on every CPU, where NumPy's ``arctan2`` dispatches to kernels
    of its own on some (AVX-512) and rounds differently there.
    """
    m = len(canon) // 2
    # from the lex-min vertex to its antipode, all pointing right or up
    edges = [cmath.polar(complex(bx - ax, by - ay)) for (ax, ay), (bx, by) in zip(canon[:m], canon[1 : m + 1])]
    return SymmetricPolygon(seqmodel.diangle_expansion(0.0, [(phi, WIDTH_SCALE * r) for r, phi in edges]), canon)


def _hull_polygon(pts: list) -> SymmetricPolygon:
    """``_from_floats`` through the hull, the general path, for points it has checked."""
    pts = list(map(tuple, pts))
    hull, canon = _canonicalize(pts)
    body = _ring_body(canon)
    # Each hull vertex lies within half the symmetry tolerance of a canonical
    # vertex, so only the input points the hull dropped can fail the test.  The
    # hull's points are input points: as many distinct ones as inputs drop none.
    kept = set(hull)
    if len(kept) == len(pts):
        return body
    import numpy as np

    dropped = np.asarray([p for p in pts if p not in kept])
    step = max(1, (1 << 18) // len(canon))  # at most 2**19 doubles per broadcast
    for i in range(0, len(dropped), step):
        gaps = np.abs(dropped[i : i + step, None, :] - body.vertex_array).max(axis=2).min(axis=1)
        if np.max(gaps) > 1e-9 * _scale_of(pts):
            raise InputError("vertices are not in convex position")
    return body


def _from_floats(pts: list) -> SymmetricPolygon:
    """``symmetric_polygon`` of a nonempty list of finite float pairs, lists or tuples.

    The one entry for checked pairs (``symmetric_polygon``, ``regular_polygon``
    and ``serialization.read_body``), and the one place their squares are checked.
    """
    scale = _scale_of(pts)
    _square_of(scale)
    ring = _convex_ring(pts, scale)
    return _hull_polygon(pts) if ring is None else _ring_body(_symmetrize(ring))


def vertex_list(u: SymmetricPolygon) -> tuple[tuple[float, float], ...]:
    """The vertices to print for ``U``: a list that reads back as a body with this ring.

    A body read from vertices gives its ring.  A walk leaves out each vertex whose
    turn is within ``_tidy_ring``'s tolerance, as between two edges whose angles
    differ in their last bits, which the ring pass would drop.  Its antipode turns
    by the same bits and goes with it; a walk left with no vertex is a segment,
    its two extremes along its wider axis.
    """
    ring = u.vertices
    if u.ring is not None or len(ring) <= 2:
        return ring
    m = len(ring) // 2
    eps = _GEOM_TOL * _square_of(_scale_of(ring))
    turns = zip(ring[-1:] + ring[: m - 1], ring[:m], ring[1 : m + 1])
    half = [b for (ax, ay), b, (x, y) in turns if (b[0] - ax) * (y - ay) - (b[1] - ay) * (x - ax) > eps]
    if len(half) == m:
        return ring
    if not half:
        xs, ys = zip(*ring)
        c = ys if max(ys) - min(ys) > max(xs) - min(xs) else xs
        half = [ring[c.index(max(c))]]
    kept = half + [(-x, -y) for x, y in half]
    start = kept.index(min(kept))
    return tuple(kept[start:] + kept[:start])


def symmetric_polygon(points: Iterable[Sequence[float]]) -> SymmetricPolygon:
    """Validate and canonicalize a vertex set.

    Rejects vertex sets that are not centrally symmetric or contain points
    interior to their own hull (the vertices must be in convex position).
    The points become float pairs.  A ring already in convex position is
    checked in one linear pass (``_convex_ring``); any other set is
    canonicalized in a sort plus Python work linear in its size, and an array
    is built only of the points the hull dropped, tested against the canonical
    ring at a cost proportional to their number times the ring's.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError, OverflowError):
        pts = []
    if not pts or not all(map(math.isfinite, chain.from_iterable(pts))):
        raise InputError("expected a nonempty list of finite planar points")
    return _from_floats(pts)


def point() -> SymmetricPolygon:
    return SymmetricPolygon(seqmodel.diangle_expansion(0.0))


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
    import numpy as np

    ang = phase + 2.0 * math.pi * np.arange(n) / n
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return _from_floats(pts.tolist())


def zonotope_from_generators(generators: Iterable[tuple[float, float]]) -> SymmetricPolygon:
    """Minkowski sum of origin-centered segments ``(angle, length)``: the terms
    ``(angle, WIDTH_SCALE * length)``, with no hull.

    Angles are identified modulo pi; exact duplicates merge by adding
    lengths.  An empty generator list gives the point.  The largest
    coordinate must stay finite when squared, as for a vertex body: half the
    lengths' sum bounds it, and only where that bound's square overflows is
    the coordinate itself taken, the larger of the half widths at ``pi/2`` and 0.
    """
    gens = list(generators)
    lengths = [float(ln) for _, ln in gens]
    total = sum(lengths)
    if not math.isfinite(total) or min(lengths, default=0.0) < 0.0:
        for (_, raw_len), ln in zip(gens, lengths):
            if not math.isfinite(ln) or ln < 0.0:
                raise InputError(f"generator length must be nonnegative, got {raw_len!r}")
    e = seqmodel.diangle_expansion(0.0, [(a, WIDTH_SCALE * ln) for (a, _), ln in zip(gens, lengths)])
    bound = WIDTH_SCALE * total
    if bound * bound == math.inf:  # half the widths at pi/2 and 0: the largest |x| and |y|
        bound = max(sum(c * math.cos(a) for a, c in e.terms), sum(c * abs(math.sin(a)) for a, c in e.terms))
    _square_of(bound)
    return SymmetricPolygon(e)


def minkowski_sum(u: SymmetricPolygon, v: SymmetricPolygon) -> SymmetricPolygon:
    """Minkowski sum ``{a + b : a in U, b in V}``.

    Support functions add, so the sum's terms are both bodies' terms, merged
    where their angles agree; the result is the same bits in either order.
    """
    return SymmetricPolygon(seqmodel.diangle_expansion(0.0, u.expansion.terms + v.expansion.terms))


# ---------------------------------------------------------------------------
# vertex oracles


def _support_width(vertices: np.ndarray, phi) -> np.ndarray:
    """Width oracle ``2 max_v <v, n(phi)>``, normal ``n = (-sin phi, cos phi)``."""
    import numpy as np

    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return 2.0 * (vertices @ np.stack([-np.sin(phi), np.cos(phi)], axis=0)).max(axis=0)


def _shoelace_area(vertices: np.ndarray) -> float:
    """Vertex oracle for the area of a counterclockwise ring."""
    if len(vertices) < 3:
        return 0.0
    import numpy as np

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
    import numpy as np

    pa = np.asarray(phi, dtype=float)
    out = 2.0 * seqmodel.expansion_value(u.expansion, pa)
    return float(out) if pa.ndim == 0 else out


def width_kinks(u: SymmetricPolygon) -> tuple[float, ...]:
    """Edge directions modulo pi, in ``[-pi/2, pi/2)``, where the width is not smooth."""
    return u.expansion.angles


def width_derivative(u: SymmetricPolygon, phi):
    """Derivative of the width profile, right-hand branch at kinks."""
    import numpy as np

    pa = np.asarray(phi, dtype=float)
    out = 2.0 * seqmodel.expansion_derivative(u.expansion, pa)
    return float(out) if pa.ndim == 0 else out


def cauchy_check(u: SymmetricPolygon, spec: QuadratureSpec | None = None) -> float:
    """``| int width - perimeter |`` with the vertex support width; zero for convex bodies.

    The integral is taken by quadrature, to ``spec`` (``quad.DEFAULT_SPEC`` when ``None``).
    """
    from . import quad

    spec = quad.DEFAULT_SPEC if spec is None else spec
    total = quad.integrate(lambda p: _support_width(u.vertex_array, p), quad.DELTA, width_kinks(u), spec)
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
        """The difference expansion of ``U - V``."""
        return _difference(self.U.expansion, self.V.expansion)


def _difference(p: seqmodel.DiangleExpansion, q: seqmodel.DiangleExpansion) -> seqmodel.DiangleExpansion:
    """The terms of ``p - q`` with constant 0: p's terms, then q's terms negated."""
    negated = ((a, -c) for a, c in q.terms)
    return seqmodel.diangle_expansion(0.0, [*p.terms, *negated])


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


def pair_to_function(pair: BodyPair) -> isorkhs.funcspace.DiangleSpan:
    """The scaled width difference of the pair as a function-space member."""
    return isorkhs.funcspace.DiangleSpan(pair.expansion)


def _sum_scale(u: SymmetricPolygon, v: SymmetricPolygon) -> float:
    """Largest vertex coordinate of ``U + V`` in absolute value, without forming the sum."""
    import numpy as np

    return float(np.max(np.abs(u.vertex_array).max(axis=0) + np.abs(v.vertex_array).max(axis=0)))


def pair_equivalent(a: BodyPair, b: BodyPair) -> bool:
    """Whether two pairs represent the same difference: ``U + Q = V + P``.

    Decided by the width gap of ``(a.U + b.V) - (b.U + a.V)``, twice the
    value of its difference expansion, on a 721-point grid and the
    expansion's kinks.  The four bodies' vertex support widths on the same
    points cross-check the gap; a disagreement beyond rounding is an
    invariant violation.
    """
    import numpy as np

    diff = _difference(a.expansion, b.expansion)
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
    import numpy as np

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


def pair_norm_agreement(pair: BodyPair, spec: QuadratureSpec | None = None) -> float:
    """``| pair norm^2 - function norm^2 |``, the function norm by quadrature to ``spec``
    (``quad.DEFAULT_SPEC`` when ``None``)."""
    from . import quad

    spec = quad.DEFAULT_SPEC if spec is None else spec
    f = pair_to_function(pair)
    return abs(convex_norm_squared(pair) - isorkhs.funcspace.norm_iso_squared(f, method="quadrature", spec=spec))

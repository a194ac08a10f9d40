"""Reproducing kernels, Gram systems, interpolation, and power functions.

The isoperimetric kernel family on ``[-pi/2, pi/2]`` is

    K_theta(x, y) = theta - (pi/2) sin|x - y|,    theta >= 1.

Every member is positive semidefinite; ``theta = 2`` is the reproducing
choice for the isoperimetric inner product, where ``<f, K_2(., y)> = f(y)``
for all members of the space.  The sections ``K_theta(., y)`` are diangle
spans, so exact inner products apply.

The norm is ``(1/pi) int (f'^2 - f^2) + c_theta (int f)^2`` with
``c_theta = theta / ((theta - 1) pi^2)``: local apart from one rank-one
term.  So the inverse of every Gram matrix is explicit, cyclic tridiagonal
in the node gaps plus rank one.  A :class:`GramSystem` sorts its nodes once,
when built; its checks, solves and power function and the residual guard of
its interpolant read that one order, so each is O(n) with no factor.  An
:class:`Interpolant` is a diangle span like the sections, so ``eval``,
``norm`` and ``inner`` take it as it is, and it is read through
``DiangleSpan``'s methods like every span: only its evaluation state
differs, prefix sums over its kernel coefficients in long double, which
give values and derivatives at m points in O(n + m).  A kernel expansion at
its own nodes (the residual guard, the ridge refinement of a solve) is one
``seqmodel._profile_table_at_nodes`` call.  Dense ``numpy.linalg`` and
``kernel_eval`` matrices serve only the spectrum (computed when read, and
never to decide an error: a node set whose gaps fail the certificate is a
singular system) and the independent oracles in ``verify`` and the tests.

A classical comparison kernel on an arbitrary interval ``[a, b]`` is also
provided: ``cosh(min(x,y) - a) cosh(b - max(x,y)) / sinh(b - a)``, which
reproduces the first-order Sobolev product ``int (f g + f' g')`` with no
boundary condition.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import add
from typing import Sequence

import numpy as np

from . import funcspace, quad
from .errors import DomainError, InputError, SingularSystemError
from .funcspace import DiangleSpan, _maybe_scalar, diangle_span
from .quad import DEFAULT_SPEC, QuadratureSpec
from .seqmodel import DiangleExpansion, _profile_table_at_nodes, _reduce_angles, diangle_expansion

__all__ = [
    "REPRODUCING_THETA",
    "kernel_eval",
    "kernel_function",
    "reproducing_residual",
    "classical_kernel_eval",
    "classical_kernel_function",
    "classical_reproducing_residual",
    "GramSystem",
    "gram_system",
    "Interpolant",
    "interpolate",
    "power_function",
]

_HALF_PI = 0.5 * math.pi

REPRODUCING_THETA = 2.0
_NODE_SEP = 1e-12
_RESIDUAL_TOL = 1e-8


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise InputError("theta must be finite")
    if theta < 1.0:
        raise DomainError(f"theta must be at least 1 (got {theta!r})")
    return theta


def kernel_eval(x, y, theta: float = REPRODUCING_THETA):
    """``K_theta(x, y)``, broadcasting over array arguments."""
    theta = _check_theta(theta)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    out = theta - _HALF_PI * np.sin(np.abs(xa - ya))
    return float(out) if xa.ndim == 0 and ya.ndim == 0 else out


def kernel_function(theta: float, y: float) -> DiangleSpan:
    """The section ``K_theta(., y)`` as a function-space member."""
    theta = _check_theta(theta)
    y = float(y)
    if not math.isfinite(y) or abs(y) > _HALF_PI + 1e-12:
        raise DomainError(f"section point outside the domain: {y!r}")
    return diangle_span(theta, [(y, -_HALF_PI)])


def reproducing_residual(
    f: H1Function,
    y,
    theta: float = REPRODUCING_THETA,
    method: str = "auto",
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """``<f, K_theta(., y)> - f(y)``; zero at ``theta = 2`` for members.

    ``y`` is a point or an array of points, and the result a float or an
    array of ``y``'s shape.  A sweep reads ``f`` once for its values, by one
    ``f.value`` call at all the points; the sections and their inner
    products are formed point by point.  A span's values are elementwise, so
    each entry is the scalar call's bits.  The first point outside the
    domain, or NaN, raises the scalar call's :class:`DomainError`.
    """
    theta = _check_theta(theta)
    ya = np.asarray(y, dtype=float)
    sections = [kernel_function(theta, t) for t in ya.ravel().tolist()]
    inner = [funcspace.inner_product_iso(f, s, method=method, spec=spec) for s in sections]
    out = np.reshape(inner, ya.shape) - f.value(ya)
    return float(out) if ya.ndim == 0 else out


# ---------------------------------------------------------------------------
# classical comparison kernel


def _check_classical_interval(a: float, b: float) -> tuple[float, float]:
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError) as exc:
        raise InputError(f"interval endpoints must be numbers, got ({a!r}, {b!r})") from exc
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise InputError(f"expected a finite interval a < b, got ({a!r}, {b!r})")
    return a, b


def _check_classical_range(a: float, b: float, *args: np.ndarray) -> None:
    """Raise :class:`DomainError` if an argument has a point below ``a - 1e-12`` or above ``b + 1e-12``."""
    if any(np.any(v < a - 1e-12) or np.any(v > b + 1e-12) for v in args):
        raise DomainError("kernel arguments must lie in [a, b]")


def classical_kernel_eval(a: float, b: float, x, y):
    """Sobolev kernel on ``[a, b]``: ``cosh(min - a) cosh(b - max) / sinh(b - a)``.

    An argument below ``a - 1e-12`` or above ``b + 1e-12`` raises
    :class:`DomainError`; a NaN argument does not, and gives NaN.  The range
    test is one pass over ``min(x, y)`` and one over ``max(x, y)``; only where
    it fails (an argument out of range, or a NaN, which ``min`` and ``max``
    spread to the other argument at its point) are ``x`` and ``y`` read one by one,
    as they are before NumPy's error when the two shapes do not broadcast.
    """
    a, b = _check_classical_interval(a, b)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    try:
        lo = np.minimum(xa, ya)
        hi = np.maximum(xa, ya)
    except ValueError:
        _check_classical_range(a, b, xa, ya)
        raise
    if not (a - 1e-12 <= lo.min(initial=math.inf) and hi.max(initial=-math.inf) <= b + 1e-12):
        _check_classical_range(a, b, xa, ya)
    out = np.cosh(lo - a) * np.cosh(b - hi) / math.sinh(b - a)
    return float(out) if scalar else out


def _check_section_points(a: float, b: float, y: np.ndarray) -> None:
    """Raise :class:`DomainError` at the first point of ``y`` that is NaN or more than ``1e-12`` outside ``[a, b]``."""
    inside = (y >= a - 1e-12) & (y <= b + 1e-12)
    if not inside.all():
        raise DomainError(f"section point outside [a, b]: {float(y[~inside][0])!r}")


def _classical_sections(a: float, b: float, y):
    """Value and right-hand derivative rules of the sections at ``y``, broadcast against the points.

    A column ``y`` of ``k`` points gives ``(k, n)`` rows at ``n`` points.
    """
    s = math.sinh(b - a)
    cosh_a, cosh_b = np.cosh(y - a), np.cosh(b - y)

    def value(x):
        return classical_kernel_eval(a, b, x, y)

    def derivative(x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa < y, np.sinh(xa - a) * cosh_b, -cosh_a * np.sinh(b - xa)) / s
        return _maybe_scalar(out, out.ndim == 0)

    return value, derivative


def classical_kernel_function(a: float, b: float, y: float):
    """The section as a ``(value, derivative, kinks)`` triple on ``[a, b]``.

    The derivative takes the right-hand branch at the kink ``x = y``.  A
    section point that is NaN or outside ``[a, b]`` by more than ``1e-12``
    raises :class:`DomainError`.
    """
    a, b = _check_classical_interval(a, b)
    y = float(y)
    _check_section_points(a, b, np.asarray(y))
    return (*_classical_sections(a, b, y), (y,))


def classical_reproducing_residual(
    f,
    y,
    a: float = 0.0,
    b: float = 1.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """``int (f k_y + f' k_y') - f(y)`` over ``[a, b]``; zero for H^1 members.

    ``y`` is a point or an array of points, and the result a float or an
    array of ``y``'s shape.  The inner products of a sweep are one stacked
    :func:`quad.integrate`, one row per point, each row to its own tolerance,
    on panels broken at every interior point and at ``f``'s kinks, so ``f``
    is read once per level; its values at the points come from one more
    call.  The first point that is NaN or outside ``[a, b]`` by more than
    ``1e-12`` raises the scalar call's :class:`DomainError`.
    """
    a, b = _check_classical_interval(a, b)
    ya = np.asarray(y, dtype=float)
    pts = ya.ravel()
    _check_section_points(a, b, pts)
    iv = quad.Interval(a, b)
    fv, f_both, kinks = funcspace._as_rule(f, iv)
    k_value, k_slope = _classical_sections(a, b, ya if ya.ndim == 0 else pts[:, None])

    def rows(x):
        f0, f1 = f_both(x)
        return f0 * k_value(x) + f1 * k_slope(x)

    inner = quad.integrate(rows, iv, (*kinks, *pts.tolist()), spec)
    out = np.reshape(inner, ya.shape) - quad.sample(fv, ya)
    return float(out) if ya.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gram systems


def _check_ridge(ridge: float) -> float:
    out = float(ridge)
    if not math.isfinite(out) or out < 0.0:
        raise InputError(f"ridge must be a nonnegative float, got {ridge!r}")
    return out


def _check_domain(lo: float, hi: float) -> None:
    """The node range rule, on the least node ``lo`` and the greatest ``hi``; a NaN end fails it."""
    if not (-_HALF_PI - 1e-12 <= lo and hi <= _HALF_PI + 1e-12):
        raise InputError("nodes must be finite and lie in [-pi/2, pi/2]")


def _on_circle(s: np.ndarray) -> np.ndarray:
    """Sorted nodes clipped to ``[-pi/2, pi/2]``, as points of the circle."""
    return s if -_HALF_PI <= s[0] and s[-1] <= _HALF_PI else np.clip(s, -_HALF_PI, _HALF_PI)


def _check_nodes(nodes: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes as an array, their stable sort order and the sorted nodes, which the checks read."""
    arr = np.asarray(list(nodes), dtype=float)
    if arr.ndim != 1:
        raise InputError("nodes must be a flat sequence")
    order = arr.argsort(kind="stable")
    s = arr[order]
    if s.size:  # the sorted ends bound the rest; NaN sorts last
        _check_domain(s[0], s[-1])
    if s.size > 1:  # on the circle, where only the exact pair -pi/2, pi/2 (after clipping) is one point
        c = _on_circle(s)
        if (c[1:] - c[:-1]).min() < _NODE_SEP or 0.0 < c[0] + math.pi - c[-1] < _NODE_SEP:
            raise InputError("nodes must be pairwise distinct on the circle")
    return arr, order, s


_COT_HALF_PI = 1.0 / math.tan(_HALF_PI)  # 6.1e-17: cot(pi/2) as rounding leaves it


def _half_tan(d: np.ndarray, wrapped) -> np.ndarray:
    """``tan(g/2)`` for circle arcs ``g`` read off signed differences ``d``.

    An arc is ``g = d``, or ``g = pi + d`` where ``wrapped`` (an index or a
    mask) marks it as running through ``pi/2``.  A wrapped arc is read as
    ``cot(-d/2)``, which keeps its precision when ``g`` is close to ``pi``;
    ``d = 0`` there is the whole circle, whose ``tan(pi/2)`` is finite.
    """
    t = np.tan(0.5 * d)
    if isinstance(wrapped, np.ndarray):
        return np.where(wrapped, -1.0 / np.minimum(t, -_COT_HALF_PI), t)
    t[wrapped] = -1.0 / min(t[wrapped], -_COT_HALF_PI)
    return t


def _ldl(diag, sub, corner, gamma, u):
    """``LDL^T`` in O(n) of a symmetric positive definite ``B + gamma u u^T``.

    ``B`` is tridiagonal, with ``diag`` and ``sub[j]`` at ``(j, j - 1)``
    (``sub[0] = 0``), plus ``corner`` at ``(n - 1, 0)``.  The strictly lower
    part is ``p_i . q_j`` plus the band, with generators
    ``p_i = (gamma u_i, corner [i = n-1])`` and ``q_j = (u_j, [j = 0])``; the
    unit lower factor is ``L[i, j] = p_i . g_j`` plus ``sub[j] / d[j-1]`` on
    its band, and ``s = sum_k d_k g_k g_k^T`` runs over the rows done.
    Pivots are those of dense Cholesky, so ``d > 0``.  The recurrence is
    sequential, so it runs on Python floats.
    """
    n = len(diag)
    p = [(gamma * uj, corner if j == n - 1 else 0.0) for j, uj in enumerate(u)]
    d, g = [], []
    s00 = s01 = s11 = g0 = g1 = 0.0
    d_prev = 1.0
    for j, (dj, b, (p0, p1), q0) in enumerate(zip(diag, sub, p, u)):
        r0 = q0 - s00 * p0 - s01 * p1 - b * g0  # q_j - s p_j - b g_{j-1}
        r1 = (1.0 if j == 0 else 0.0) - s01 * p0 - s11 * p1 - b * g1
        d_prev = dj + p0 * (r0 - b * g0) + p1 * (r1 - b * g1) - b * b / d_prev
        g0, g1 = r0 / d_prev, r1 / d_prev
        s00, s01, s11 = s00 + d_prev * g0 * g0, s01 + d_prev * g0 * g1, s11 + d_prev * g1 * g1
        d.append(d_prev)
        g.append((g0, g1))
    band = [b / dk for b, dk in zip(sub[1:], d)] + [0.0]  # band[j] = L[j + 1, j]
    return d, g, p, band


def _ldl_solve(factor, y: np.ndarray) -> np.ndarray:
    """Solve ``L D L^T x = y`` by forward and back substitution over the generators.

    Rows of ``y`` are scalars or vectors of right-hand sides alike.
    """
    d, g, p, band = factor
    z, f0, f1, prev = [], 0.0, 0.0, 0.0
    for yj, (p0, p1), (g0, g1), e in zip(y, p, g, [0.0] + band):
        prev = yj - p0 * f0 - p1 * f1 - e * prev
        f0, f1 = f0 + g0 * prev, f1 + g1 * prev
        z.append(prev)
    x, h0, h1, nxt = z, 0.0, 0.0, 0.0
    for j in range(len(d) - 1, -1, -1):
        (p0, p1), (g0, g1) = p[j], g[j]
        x[j] = nxt = z[j] / d[j] - band[j] * nxt - g0 * h0 - g1 * h1
        h0, h1 = h0 + p0 * nxt, h1 + p1 * nxt
    return np.array(x)


class _Cycle:
    """A node set as sorted distinct points of the circle of length ``pi``.

    ``-pi/2`` and ``pi/2`` are one point: when both are nodes they merge into
    the first point.  With the cyclic gaps ``h_i`` from point ``i`` to point
    ``i + 1`` (the last runs through ``pi/2``) and ``t_i = tan(h_i / 2)``, the
    inverse Gram matrix is ``P = T + beta w w^T``: ``T`` is cyclic tridiagonal
    with ``T_ii = (cot h_{i-1} + cot h_i)/pi`` and
    ``T_{i,i+1} = -1/(pi sin h_i)``, where ``cot h = 1/(2t) - t/2`` and
    ``1/sin h = 1/(2t) + t/2``; ``w_i = t_{i-1} + t_i`` is the integral of the
    spline hat at point ``i``; and ``beta = theta / (pi (theta S - pi))`` with
    ``S = 2 sum t_i`` is ``c a / (a + c D^2)`` for ``c = theta/((theta-1) pi^2)``,
    ``a = (S - pi)/pi`` and ``D = pi - S``, which minimizes the norm
    ``(1/pi) int (f'^2 - f^2) + c (int f)^2`` over the interpolant's mean.
    """

    def __init__(self, sorted_nodes: np.ndarray, theta: float, ridge: float):
        self.theta, self.ridge, self.sorted = theta, ridge, sorted_nodes
        s = _on_circle(sorted_nodes)
        self.merged = s.size > 1 and s[0] == -_HALF_PI and s[-1] == _HALF_PI
        self.points = s[:-1] if self.merged else s
        t = self.t = _half_tan(np.concatenate((self.points[1:], self.points[:1])) - self.points, -1)
        self.span = 2.0 * float(t.sum())  # S
        self.certified = math.pi < self.span < math.inf and float(t.min()) > 0.0
        # S/2 - t_g for each gap g; the widest gap, the only one that can have
        # t > 1, is summed without t_g rather than having it subtracted
        self.widest = int(t.argmax())
        self.others = 0.5 * self.span - t
        self.others[self.widest] = t[: self.widest].sum() + t[self.widest + 1 :].sum()

    @cached_property
    def beta(self) -> float:
        return self.theta / (math.pi * (self.theta * self.span - math.pi))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``P v`` in O(m) from per-gap terms.

        Gap ``g`` adds ``-+ (v_{g+1} - v_g) / (2 pi t_g)`` to its two ends (the
        ``1/(2t)`` part of ``T``) and ``beta t_g (E_g + pi a_g / (2 theta))``
        to both, with ``a_g = v_g + v_{g+1}`` and
        ``E_g = sum_{i != g} t_i (a_i - a_g)``: this is the ``-t/2`` part of
        ``T`` together with ``beta w w^T``.  ``E_g = sum_i t_i a_i - a_g S/2``
        except at the widest gap ``k``, where ``t_k`` is left out of both sums,
        so that a large ``t_k`` never cancels against ``beta w_k^2``.
        """
        t, k = self.t, self.widest
        if v.ndim > 1:
            t = t[:, None]
        ahead = np.concatenate((v[1:], v[:1]))
        a = ahead + v
        lap = (ahead - v) / (2.0 * math.pi * t)
        ta = t * a
        rest = ta[:k].sum(axis=0) + ta[k + 1 :].sum(axis=0)  # over i != k
        e = rest + ta[k] - 0.5 * self.span * a
        e[k] = rest - self.others[k] * a[k]
        mean = self.beta * t * (e + (0.5 * math.pi / self.theta) * a)
        return mean - lap + np.concatenate((mean[-1:] + lap[-1:], mean[:-1] + lap[:-1]))

    @cached_property
    def _scale(self) -> np.ndarray:
        """``sqrt`` of each point's multiplicity weight: ``1/2`` for the merged endpoints."""
        e = np.ones(self.t.size)
        if self.merged:
            e[0] = math.sqrt(0.5)
        return e

    @cached_property
    def _ridge_factor(self):
        """``LDL^T`` of ``I + r E P E``, ``E`` the multiplicity scale."""
        r, t, e = self.ridge, self.t, self._scale
        if t.size == 1:
            return _ldl([1.0 + r * e[0] ** 2 / self.theta], [0.0], 0.0, 0.0, [0.0])
        half = 0.5 / t
        cot, csc = half - 0.5 * t, half + 0.5 * t
        ahead = np.concatenate((e[1:], e[:1]))
        diag = 1.0 + (r / math.pi) * e * e * (cot + np.concatenate((cot[-1:], cot[:-1])))
        couple = -(r / math.pi) * e * ahead * csc  # across gap g, between points g and g + 1
        sub = np.concatenate(([0.0], couple[:-1]))
        corner = couple[-1]
        if t.size == 2:
            sub[1], corner = sub[1] + corner, 0.0
        w = t + np.concatenate((t[-1:], t[:-1]))
        return _ldl(diag.tolist(), sub.tolist(), float(corner), r * self.beta, (e * w).tolist())

    def _solve_step(self, y: np.ndarray) -> np.ndarray:
        """One solve in sorted node order; merged endpoints give the mean of their right-hand sides.

        Their coefficient splits evenly at zero ridge (the least-norm split); a
        ridge ``r`` adds ``+-(y_- - y_+)/(2r)``, which the two endpoint rows of
        ``(K + r I) c = y`` require.
        """
        v = np.concatenate((0.5 * (y[:1] + y[-1:]), y[1:-1])) if self.merged else y
        if self.ridge:
            e = self._scale.reshape(self._scale.shape + (1,) * (v.ndim - 1))
            v = e * _ldl_solve(self._ridge_factor, v / e)
        c = self.apply(v)
        if self.merged:
            split = 0.5 * (y[0] - y[-1]) / self.ridge if self.ridge else 0.0
            c = np.concatenate(((0.5 * c[0] + split)[None], c[1:], (0.5 * c[0] - split)[None]))
        return c

    def solve_sorted(self, y: np.ndarray) -> np.ndarray:
        """``c = P v`` at zero ridge, ``c = P (I + r P)^{-1} v`` for ridge ``r``, rows in sorted node order.

        ``I + r P`` has entries of size ``r / gap``, so its solve loses the
        smooth directions to rounding when nodes cluster; one step of
        refinement against ``(K + r I) c``, whose ``K c`` is one O(n)
        ``_profile_table_at_nodes`` call over the columns, restores them.
        """
        c = self._solve_step(y)
        if self.ridge:
            kc = self.theta * c.sum(axis=0) - _HALF_PI * _profile_table_at_nodes(self.sorted, c)[1]
            c += self._solve_step(y - kc - self.ridge * c)
        return c

    def power_squared(self, x: np.ndarray) -> np.ndarray:
        """``p(x)^2 = 1 / P_aug[x, x]`` at zero ridge, O(1) per point of ``[-pi/2, pi/2]`` after one search.

        ``x`` splits its gap ``h_k`` into ``h_a`` and ``h_b``.  With their
        half-tangents ``t_a``, ``t_b``, ``1 - t_a t_b = (t_a + t_b)/t_k`` and
        ``S_aug = S - 2 t_k + 2 t_a + 2 t_b``,
        ``P_aug[x, x] = (cot h_a + cot h_b)/pi + beta_aug (t_a + t_b)^2``
        ``= (t_a + t_b)^2 (1/t_k + 2 pi beta_aug t_a t_b) / (2 pi t_a t_b)``.
        ``p`` is 0 exactly where a sub-gap is 0.
        """
        s, m, th = self.points, self.points.size, self.theta
        i = np.searchsorted(s, x, side="right")
        k = (i - 1) % m
        da, db = x - s[k], s[i % m] - x
        ta, tb = _half_tan(da, i == 0), _half_tan(db, i == m)
        s_aug = 2.0 * (self.others[k] + ta + tb)
        ab, sab = ta * tb, ta + tb
        p2 = 2.0 * math.pi * ab / (sab * sab * (1.0 / self.t[k] + 2.0 * th * ab / (th * s_aug - math.pi)))
        p2[np.minimum(da, db) == -math.pi] = 0.0  # x at -pi/2 or pi/2 with a node at the other
        return p2


class GramSystem:
    """Kernel Gram system at a node set, solved through its explicit inverse.

    On distinct points of the circle of length ``pi`` (``-pi/2`` and ``pi/2``
    are one point) ``K_theta`` is strictly positive definite for every
    ``theta >= 1``: its Mercer coefficients ``2/(4k^2 - 1)`` are all positive.
    The inverse is explicit, ``K^{-1} = T + beta w w^T`` (see ``_Cycle``), so
    the node gaps alone certify the PSD invariant: every ``t_i`` finite and
    positive and ``S > pi``, whence ``beta > 0``.  The nodes are sorted once,
    stably, when the system is built (``_order``, ``_sorted``): the checks,
    the cycle and ``interpolate`` read the sorted nodes, and ``solve`` alone
    takes its right-hand side into that order and its solution back.
    ``chol_ok`` reports the certificate, computed when first needed and
    cached.  ``solve`` is O(n): the product ``P v`` at zero ridge, and
    ``P (I + r P)^{-1} v`` through an O(n) ``LDL^T`` for a ridge ``r``.
    Where the certificate fails, ``solve``, ``interpolate`` and
    ``power_function`` raise :class:`SingularSystemError`, decided by the
    gaps alone.  Nothing forms ``matrix`` or factors it; dense
    ``numpy.linalg.eigvalsh`` computes the spectrum only when
    ``eigenvalues``, ``min_eig``, ``max_eig`` or ``cond_estimate`` is read.
    """

    def __init__(self, theta: float, nodes: Sequence[float], ridge: float = 0.0):
        self.theta = _check_theta(theta)
        self.node_array, self._order, self._sorted = _check_nodes(nodes)
        self.nodes = tuple(self.node_array.tolist())
        self.ridge = _check_ridge(ridge)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.node_array
        return kernel_eval(n[:, None], n[None, :], self.theta)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0]) if self.size else 0.0

    @property
    def max_eig(self) -> float:
        return float(self.eigenvalues[-1]) if self.size else 0.0

    @cached_property
    def cond_estimate(self) -> float:
        if not self.size:
            return 1.0
        return math.inf if self.min_eig <= 0.0 else self.max_eig / self.min_eig

    @cached_property
    def _cycle(self) -> _Cycle:
        return _Cycle(self._sorted, self.theta, self.ridge)

    @property
    def chol_ok(self) -> bool:
        return self.size == 0 or self._cycle.certified

    def _certified_cycle(self) -> _Cycle:
        """The cycle, once its certificate holds; a failed one is a singular system, read off the gaps alone."""
        if not self.chol_ok:
            raise SingularSystemError(
                "node gaps do not certify the Gram system (a half-gap tangent is "
                "not finite and positive, or S <= pi)"
            )
        return self._cycle

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``G c = rhs``, solved in sorted node order and returned in node order."""
        if not self.size:
            return np.zeros(0)
        c = self._certified_cycle().solve_sorted(np.asarray(rhs, dtype=float)[self._order])
        out = np.empty_like(c)
        out[self._order] = c
        return out

    def kernel_column(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        return kernel_eval(xa[..., None], self.node_array, self.theta)


def gram_system(nodes: Sequence[float], theta: float = REPRODUCING_THETA, ridge: float = 0.0) -> GramSystem:
    return GramSystem(theta, nodes, ridge)


# ---------------------------------------------------------------------------
# interpolation


def _interpolant_sums(theta: float, a: np.ndarray, order: np.ndarray, s: np.ndarray, coeffs: np.ndarray):
    """An interpolant's ``_sums`` in long double, its values at its sorted nodes, and their order.

    The nodes ``a`` are read modulo pi, where a node at ``pi/2`` is the kink
    at ``-pi/2``, and sorted stably; ``order`` and ``s``, ``a``'s own stable
    sort, are kept as they are where no node needs reducing.
    """
    if s.size and not (-_HALF_PI <= s[0] and s[-1] < _HALF_PI):
        a = _reduce_angles(a)
        order = np.argsort(a, kind="stable")
        s = a[order]
    a, c = s.astype(np.longdouble), coeffs[order].astype(np.longdouble)
    table, profile = _profile_table_at_nodes(a, c)
    constant, scale = theta * c.sum(), -_HALF_PI
    return (a, table, constant, scale), (constant + scale * profile).astype(float), order


class Interpolant(DiangleSpan):
    """Kernel interpolant ``sum_j c_j K_theta(., y_j)``: the span ``theta sum c - (pi/2) sum c_j P_{y_j}``.

    The record is ``theta``, ``ridge``, ``nodes`` and ``coeffs``.  It is read
    as every span is, through ``DiangleSpan``'s methods; only its ``_sums``
    differs: the nodes reduced modulo pi and sorted, their kernel-coefficient
    table in long double (where wider than double), constant ``theta sum c``
    and scale ``-pi/2``.  Its rounding is ``eps sum|c_j|``, and on clustered
    nodes ``sum|c_j|`` nears ``1e9``, too much for a double to resolve
    guarantee 11.  ``interpolate`` fills ``_sums`` as its residual guard
    reads it; a record read back builds it when first read, through the same
    ``_interpolant_sums``, to the same bits.  Points are read modulo pi, so
    ``-pi/2`` and ``pi/2`` give one value and one slope, right-handed at each
    kink.  The ``expansion``, in double and built when first read, serves the
    exact engine only.
    """

    # not a field: no solve falls back any more, but perfbench's trace still
    # reads this attribute (ROADMAP item 1 drops it with the next benchmark change)
    fallback = None

    def __init__(self, theta: float, ridge: float, nodes: tuple[float, ...], coeffs: tuple[float, ...]):
        # the record alone: ``expansion``, the span's one field, is built when first read
        vars(self).update(theta=theta, ridge=ridge, nodes=nodes, coeffs=coeffs)

    @cached_property
    def expansion(self) -> DiangleExpansion:
        total = self.theta * reduce(add, self.coeffs, 0.0)  # left to right, as coefficient_sum
        return diangle_expansion(total, [(y, -_HALF_PI * c) for y, c in zip(self.nodes, self.coeffs)])

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray, np.longdouble, float]:
        a = np.array(self.nodes, dtype=float)
        order = np.argsort(a, kind="stable")
        return _interpolant_sums(self.theta, a, order, a[order], np.array(self.coeffs, dtype=float))[0]


def interpolate(
    nodes: Sequence[float],
    values: Sequence[float],
    theta: float = REPRODUCING_THETA,
    ridge: float = 0.0,
) -> Interpolant:
    """Solve the Gram system for the minimum-norm kernel interpolant.

    The coefficients are ``GramSystem.solve``'s, O(n) and with no factor.
    ``-pi/2`` and ``pi/2`` are one point, so values there must agree to
    ``1e-12`` relative, and the two coefficients there share their sum
    evenly at zero ridge.  A node residual ``|value(nodes) + ridge c - values|``
    above ``1e-8 (1 + max|values|)`` (nodes too clustered, or ``theta`` too
    large, for double precision) raises :class:`SingularSystemError` naming
    the ridge: exit 3 in the CLI.  ``value(nodes)`` is read in long double
    off the interpolant's own table, by one ``_profile_table_at_nodes`` call
    over its nodes sorted modulo pi, in the Gram system's order where no
    node needs reducing: each node reads the row and the ``cos`` and ``sin``
    that ``value`` reads there, so the residual is the bits ``value`` gives.
    """
    gram = gram_system(nodes, theta, ridge)
    vals = np.asarray(list(values), dtype=float)
    if vals.shape != (gram.size,):
        raise InputError(f"expected {gram.size} values for {gram.size} nodes, got shape {vals.shape}")
    if not gram.size:
        return Interpolant(gram.theta, gram.ridge, (), ())
    scale = 1.0 + float(np.abs(vals).max())
    if not math.isfinite(scale):  # NaN too
        raise InputError("values must be finite")
    order, s = gram._order, gram._sorted
    gap = abs(float(vals[order[0]]) - float(vals[order[-1]]))  # at -pi/2 and pi/2 if both are nodes
    if gram._cycle.merged and gap > funcspace._ENDPOINT_TOL * scale:
        raise InputError(f"values at -pi/2 and pi/2 (one point) differ by {gap!r}")

    coeffs = gram.solve(vals)
    result = Interpolant(gram.theta, gram.ridge, gram.nodes, tuple(coeffs.tolist()))
    vars(result)["_sums"], fitted, order = _interpolant_sums(gram.theta, gram.node_array, order, s, coeffs)
    if gram.ridge:
        fitted += gram.ridge * coeffs[order]
    residual = float(np.abs(fitted - vals[order]).max())
    tol = _RESIDUAL_TOL * scale
    if residual > tol:
        where = f"ridge {gram.ridge!r}" if gram.ridge else "zero ridge; pass a positive ridge"
        raise SingularSystemError(
            f"interpolation residual {residual!r} exceeds tolerance {tol!r}: the "
            f"Gram system is too ill-conditioned at {where}"
        )
    return result


def power_function(gram: GramSystem, x):
    """Worst-case pointwise interpolation error ``sqrt(K(x,x) - k_x^T G^{-1} k_x)``.

    Vanishes at the nodes and equals ``sqrt(theta)`` for an empty node set.
    Vectorizes over ``x``.  At zero ridge ``p(x)^2 = 1 / P_aug[x, x]``, read
    in O(1) per point from the two gaps ``x`` splits (the quadratic form
    would leave ``p`` near ``1e-7`` at the nodes); with a ridge it is the
    quadratic form over the Gram system's solve, summed over the nodes in
    the system's sorted order, so the node order given does not reach it.
    A point within ``1e-12`` past an end is read at that end.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    pts = funcspace._domain_points(xa[None] if scalar else xa, "power function arguments must lie in [-pi/2, pi/2]")
    if not gram.size:
        out = np.full(pts.shape, math.sqrt(gram.theta))
    elif not gram.ridge:
        out = np.sqrt(gram._certified_cycle().power_squared(pts))
    else:
        cols = kernel_eval(pts[..., None], gram._sorted, gram.theta)  # (n_pts, n_nodes), nodes sorted
        solved = gram._certified_cycle().solve_sorted(np.ascontiguousarray(cols.T))
        quad_form = np.einsum("ij,ji->i", cols, solved)
        out = np.sqrt(np.maximum(0.0, gram.theta - quad_form))
    return float(out[0]) if scalar else out

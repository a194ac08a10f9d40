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
in the node gaps plus rank one, and a :class:`GramSystem` solves,
interpolates and evaluates the power function in O(n) with no factor.  An
interpolant is evaluated at m points in O(n + m) by ``seqmodel``'s prefix
sums, in long double.  Dense ``numpy.linalg`` and ``kernel_eval`` matrices
serve only the spectrum (computed when read) and the independent oracles in
``verify`` and the tests.

A classical comparison kernel on an arbitrary interval ``[a, b]`` is also
provided: ``cosh(min(x,y) - a) cosh(b - max(x,y)) / sinh(b - a)``, which
reproduces the first-order Sobolev product ``int (f g + f' g')`` with no
boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import funcspace
from .errors import DomainError, InputError, InvariantViolationError, SingularSystemError
from .funcspace import DiangleSpan, H1Function, diangle_span
from .quad import DEFAULT_SPEC, QuadratureSpec
from .seqmodel import _profile_sum, _profile_table

__all__ = [
    "REPRODUCING_THETA",
    "IsoKernel",
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
_PSD_SLACK = 1e-9
_NODE_SEP = 1e-12
_RESIDUAL_TOL = 1e-8


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise InputError("theta must be finite")
    if theta < 1.0:
        raise DomainError(f"theta must be at least 1 (got {theta!r})")
    return theta


@dataclass(frozen=True)
class IsoKernel:
    """The kernel ``K_theta`` as a callable of two (broadcastable) arguments."""

    theta: float = REPRODUCING_THETA

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))

    def __call__(self, x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        scalar = xa.ndim == 0 and ya.ndim == 0
        out = self.theta - _HALF_PI * np.sin(np.abs(xa - ya))
        return float(out) if scalar else out

    def section(self, y: float) -> DiangleSpan:
        return kernel_function(self.theta, y)


def kernel_eval(x, y, theta: float = REPRODUCING_THETA):
    """``K_theta(x, y)``, broadcasting over array arguments."""
    return IsoKernel(theta)(x, y)


def kernel_function(theta: float, y: float) -> DiangleSpan:
    """The section ``K_theta(., y)`` as a function-space member."""
    theta = _check_theta(theta)
    y = float(y)
    if not math.isfinite(y) or abs(y) > _HALF_PI + 1e-12:
        raise DomainError(f"section point outside the domain: {y!r}")
    return diangle_span(theta, [(y, -_HALF_PI)])


def reproducing_residual(
    f: H1Function,
    y: float,
    theta: float = REPRODUCING_THETA,
    method: str = "auto",
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """``<f, K_theta(., y)> - f(y)``; zero at ``theta = 2`` for members."""
    section = kernel_function(theta, y)
    inner = funcspace.inner_product_iso(f, section, method=method, spec=spec)
    return inner - float(f.value(float(y)))


# ---------------------------------------------------------------------------
# classical comparison kernel


def _check_classical_interval(a: float, b: float) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise InputError(f"expected a finite interval a < b, got ({a!r}, {b!r})")
    return a, b


def classical_kernel_eval(a: float, b: float, x, y):
    """Sobolev kernel on ``[a, b]``: ``cosh(min - a) cosh(b - max) / sinh(b - a)``."""
    a, b = _check_classical_interval(a, b)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    if np.any(xa < a - 1e-12) or np.any(xa > b + 1e-12) or np.any(ya < a - 1e-12) or np.any(ya > b + 1e-12):
        raise DomainError("kernel arguments must lie in [a, b]")
    lo = np.minimum(xa, ya)
    hi = np.maximum(xa, ya)
    out = np.cosh(lo - a) * np.cosh(b - hi) / math.sinh(b - a)
    return float(out) if scalar else out


def classical_kernel_function(a: float, b: float, y: float):
    """The section as a ``(value, derivative, kinks)`` triple on ``[a, b]``.

    The derivative takes the right-hand branch at the kink ``x = y``.
    """
    a, b = _check_classical_interval(a, b)
    y = float(y)
    if y < a - 1e-12 or y > b + 1e-12:
        raise DomainError(f"section point outside [a, b]: {y!r}")
    s = math.sinh(b - a)

    def value(x):
        return classical_kernel_eval(a, b, x, y)

    def derivative(x):
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        left = xa < y
        out = np.where(
            left,
            np.sinh(xa - a) * math.cosh(b - y),
            -math.cosh(y - a) * np.sinh(b - xa),
        ) / s
        return float(out) if scalar else out

    return value, derivative, (y,)


def classical_reproducing_residual(
    f,
    y: float,
    a: float = 0.0,
    b: float = 1.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """``int (f k_y + f' k_y') - f(y)`` over ``[a, b]``; zero for H^1 members."""
    a, b = _check_classical_interval(a, b)
    section = classical_kernel_function(a, b, y)
    inner = funcspace.inner_product_classical(f, section, interval=(a, b), spec=spec)
    fv, _, _ = funcspace._as_rule(f)
    return inner - float(np.asarray(fv(np.asarray(float(y))), dtype=float))


# ---------------------------------------------------------------------------
# Gram systems


def _check_nodes(nodes: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(nodes), dtype=float)
    if arr.ndim != 1:
        raise InputError("nodes must be a flat sequence")
    if arr.size and not np.abs(arr).max() <= _HALF_PI + 1e-12:  # NaN fails too
        raise InputError("nodes must be finite and lie in [-pi/2, pi/2]")
    if arr.size > 1:
        # on the circle, where only the exact pair -pi/2, pi/2 (after clipping) is one point
        s = np.sort(arr)
        s[0], s[-1] = max(s[0], -_HALF_PI), min(s[-1], _HALF_PI)
        if (s[1:] - s[:-1]).min() < _NODE_SEP or 0.0 < s[0] + math.pi - s[-1] < _NODE_SEP:
            raise InputError("nodes must be pairwise distinct on the circle")
    return arr


_COT_HALF_PI = 1.0 / math.tan(_HALF_PI)  # 6.1e-17: cot(pi/2) as rounding leaves it


def _half_tan(d: np.ndarray, wrapped) -> np.ndarray:
    """``tan(g/2)`` for circle arcs ``g`` read off signed differences ``d``.

    An arc is ``g = d``, or ``g = pi + d`` where ``wrapped`` (an index or a
    mask) marks it as running through ``pi/2``.  A wrapped arc is read as
    ``cot(-d/2)``, which keeps its precision when ``g`` is close to ``pi``;
    ``d = 0`` there is the whole circle, whose ``tan(pi/2)`` is finite.
    """
    t = np.tan(0.5 * d)
    if np.ndim(wrapped):
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

    def __init__(self, nodes: np.ndarray, theta: float, ridge: float):
        self.theta, self.ridge = theta, ridge
        self.order = np.argsort(nodes, kind="stable")
        self.sorted = nodes[self.order]
        lo, hi = float(self.sorted[0]), float(self.sorted[-1])
        s = self.sorted if -_HALF_PI <= lo and hi <= _HALF_PI else np.clip(self.sorted, -_HALF_PI, _HALF_PI)
        self.merged = s.size > 1 and lo <= -_HALF_PI and hi >= _HALF_PI
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

    def gather(self, y: np.ndarray) -> np.ndarray:
        """Right-hand sides in point order; the merged endpoints give their mean."""
        y = y[self.order]
        return np.concatenate((0.5 * (y[:1] + y[-1:]), y[1:-1])) if self.merged else y

    def scatter(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coefficients back in node order.

        Merged endpoints split their coefficient evenly at zero ridge (the
        least-norm split); a ridge ``r`` adds ``+-(y_- - y_+)/(2r)``, which
        the two endpoint rows of ``(K + r I) c = y`` require.
        """
        if self.merged:
            y = y[self.order]
            split = 0.5 * (y[0] - y[-1]) / self.ridge if self.ridge else 0.0
            c = np.concatenate(((0.5 * c[0] + split)[None], c[1:], (0.5 * c[0] - split)[None]))
        out = np.empty_like(c)
        out[self.order] = c
        return out

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

    def _solve_once(self, y: np.ndarray) -> np.ndarray:
        v = self.gather(y)
        if self.ridge:
            e = self._scale.reshape(self._scale.shape + (1,) * (v.ndim - 1))
            v = e * _ldl_solve(self._ridge_factor, v / e)
        return self.scatter(self.apply(v), y)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """``c = P v`` at zero ridge, ``c = P (I + r P)^{-1} v`` for ridge ``r``.

        ``I + r P`` has entries of size ``r / gap``, so its solve loses the
        smooth directions to rounding when nodes cluster; one step of
        refinement against ``(K + r I) c``, applied in O(n), restores them.
        """
        c = self._solve_once(y)
        if self.ridge:
            x, co = self.sorted, c[self.order]
            kc = self.theta * co.sum(axis=0) - _HALF_PI * _profile_sum(x, _profile_table(x, co), x)
            residual = np.empty_like(c)
            residual[self.order] = y[self.order] - kc - self.ridge * co
            c += self._solve_once(residual)
        return c

    def power_squared(self, x: np.ndarray) -> np.ndarray:
        """``p(x)^2 = 1 / P_aug[x, x]`` at zero ridge, O(1) per point after one search.

        ``x`` splits its gap ``h_k`` into ``h_a`` and ``h_b``.  With their
        half-tangents ``t_a``, ``t_b``, ``1 - t_a t_b = (t_a + t_b)/t_k`` and
        ``S_aug = S - 2 t_k + 2 t_a + 2 t_b``,
        ``P_aug[x, x] = (cot h_a + cot h_b)/pi + beta_aug (t_a + t_b)^2``
        ``= (t_a + t_b)^2 (1/t_k + 2 pi beta_aug t_a t_b) / (2 pi t_a t_b)``.
        ``p`` is 0 exactly where a sub-gap is 0.
        """
        s, m, th = self.points, self.points.size, self.theta
        x = np.minimum(np.maximum(x, -_HALF_PI), _HALF_PI)
        i = np.searchsorted(s, x, side="right")
        k = (i - 1) % m
        da, db = x - s[k], s[i % m] - x
        ta, tb = _half_tan(da, i == 0), _half_tan(db, i == m)
        s_aug = 2.0 * (self.others[k] + ta + tb)
        ab, sab = ta * tb, ta + tb
        p2 = 2.0 * math.pi * ab / (sab * sab * (1.0 / self.t[k] + 2.0 * th * ab / (th * s_aug - math.pi)))
        p2[np.minimum(da, db) == -math.pi] = 0.0  # x at -pi/2 or pi/2 with a node at the other
        return p2


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Kernel Gram system at a node set, solved through its explicit inverse.

    On distinct points of the circle of length ``pi`` (``-pi/2`` and ``pi/2``
    are one point) ``K_theta`` is strictly positive definite for every
    ``theta >= 1``: its Mercer coefficients ``2/(4k^2 - 1)`` are all positive.
    The inverse is explicit, ``K^{-1} = T + beta w w^T`` (see ``_Cycle``), so
    the node gaps alone certify the PSD invariant: every ``t_i`` finite and
    positive and ``S > pi``, whence ``beta > 0``.  ``chol_ok`` reports that
    certificate, computed when first needed and cached.  ``solve`` is O(n):
    the product ``P v`` at zero ridge, and ``P (I + r P)^{-1} v`` through an
    O(n) ``LDL^T`` for a ridge ``r``.  Nothing forms ``matrix`` or factors
    it; dense ``numpy.linalg.eigvalsh`` computes the spectrum only when
    ``eigenvalues``, ``min_eig``, ``max_eig`` or ``cond_estimate`` is read,
    or when a solve finds the certificate failed: that raises
    :class:`InvariantViolationError` if the least eigenvalue is below
    ``-1e-9`` relative to the largest, :class:`SingularSystemError` if not.
    """

    theta: float
    nodes: tuple[float, ...]
    ridge: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        arr = _check_nodes(self.nodes)
        object.__setattr__(self, "nodes", tuple(arr.tolist()))
        object.__setattr__(self, "node_array", arr)
        ridge = float(self.ridge)
        if not math.isfinite(ridge) or ridge < 0.0:
            raise InputError(f"ridge must be a nonnegative float, got {self.ridge!r}")
        object.__setattr__(self, "ridge", ridge)

    @property
    def size(self) -> int:
        return len(self.nodes)

    node_array: np.ndarray = field(init=False, repr=False)

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
        lo, hi = self.min_eig, self.max_eig
        if lo <= 0.0:
            return math.inf
        return hi / lo

    @cached_property
    def _cycle(self) -> _Cycle:
        return _Cycle(self.node_array, self.theta, self.ridge)

    @property
    def chol_ok(self) -> bool:
        return self.size == 0 or self._cycle.certified

    def _certified_cycle(self) -> _Cycle:
        """The cycle, once its certificate holds; otherwise the spectrum decides the error."""
        if not self.chol_ok:
            if self.min_eig < -_PSD_SLACK * max(1.0, self.max_eig):
                raise InvariantViolationError(
                    f"Gram matrix is not positive semidefinite: min eigenvalue {self.min_eig!r}"
                )
            raise SingularSystemError(
                "node gaps do not certify the Gram system (a half-gap tangent is "
                "not finite and positive, or S <= pi)"
            )
        return self._cycle

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if not self.size:
            return np.zeros(0)
        return self._certified_cycle().solve(np.array(rhs, dtype=float))

    def kernel_column(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        return kernel_eval(xa[..., None], self.node_array, self.theta)


def gram_system(nodes: Sequence[float], theta: float = REPRODUCING_THETA, ridge: float = 0.0) -> GramSystem:
    return GramSystem(theta, tuple(float(v) for v in nodes), ridge)


# ---------------------------------------------------------------------------
# interpolation


@dataclass(frozen=True)
class Interpolant:
    """Kernel interpolant ``sum_j c_j K_theta(., y_j)``."""

    theta: float
    ridge: float
    nodes: tuple[float, ...]
    coeffs: tuple[float, ...]
    # not a field: no solve falls back any more, but perfbench's trace still
    # reads this attribute (ROADMAP item 4 drops it with the next benchmark change)
    fallback = None

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Sorted nodes, their ``_profile_table`` and ``theta sum c`` in long double (where
        wider than double): rounding is ``eps sum|c_j|``, and on clustered nodes
        ``sum|c_j|`` nears ``1e9``, too much for a double to resolve guarantee 11."""
        a, c = np.array(self.nodes, dtype=float), np.array(self.coeffs, dtype=float)
        order = np.argsort(a, kind="stable")
        a, c = a[order].astype(np.longdouble), c[order].astype(np.longdouble)
        return a, _profile_table(a, c), self.theta * c.sum()

    def value(self, x):
        """``theta sum c_j - (pi/2) sum c_j sin|x - y_j|``, in O(log n) per point."""
        xa = np.asarray(x, dtype=float)
        a, table, total = self._sums
        out = (total - _HALF_PI * _profile_sum(a, table, xa)).astype(float)
        return float(out) if xa.ndim == 0 else out

    def __call__(self, x):
        return self.value(x)

    def to_function(self) -> DiangleSpan:
        total = self.theta * sum(self.coeffs)
        return diangle_span(total, [(y, -_HALF_PI * c) for y, c in zip(self.nodes, self.coeffs)])


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
    evenly at zero ridge.  With ``ridge == 0``, a node residual above
    ``1e-8 (1 + max|values|)``, read in long double by ``Interpolant.value``
    (nodes too clustered for double precision), raises
    :class:`SingularSystemError`, which the CLI reports as exit 3.
    """
    gram = gram_system(nodes, theta, ridge)
    vals = np.asarray(list(values), dtype=float)
    if vals.shape != (gram.size,):
        raise InputError(
            f"expected {gram.size} values for {gram.size} nodes, got shape {vals.shape}"
        )
    if vals.size and not np.all(np.isfinite(vals)):
        raise InputError("values must be finite")
    if not gram.size:
        return Interpolant(gram.theta, gram.ridge, (), ())
    scale = 1.0 + float(np.max(np.abs(vals)))
    ends = vals[np.abs(gram.node_array) >= _HALF_PI]
    if ends.size > 1 and float(np.ptp(ends)) > funcspace._ENDPOINT_TOL * scale:
        raise InputError(f"values at -pi/2 and pi/2 (one point) differ by {float(np.ptp(ends))!r}")

    coeffs = gram.solve(vals)
    result = Interpolant(gram.theta, gram.ridge, gram.nodes, tuple(float(c) for c in coeffs))
    if gram.ridge == 0.0:
        residual = float(np.max(np.abs(result.value(gram.node_array) - vals)))
        tol = _RESIDUAL_TOL * scale
        if residual > tol:
            raise SingularSystemError(
                f"interpolation residual {residual!r} exceeds tolerance {tol!r}: the "
                "Gram system is too ill-conditioned at zero ridge; pass a positive ridge"
            )
    return result


def power_function(gram: GramSystem, x):
    """Worst-case pointwise interpolation error ``sqrt(K(x,x) - k_x^T G^{-1} k_x)``.

    Vanishes at the nodes and equals ``sqrt(theta)`` for an empty node set.
    Vectorizes over ``x``.  At zero ridge ``p(x)^2 = 1 / P_aug[x, x]``, read
    in O(1) per point from the two gaps ``x`` splits (the quadratic form
    would leave ``p`` near ``1e-7`` at the nodes); with a ridge it is the
    quadratic form over ``GramSystem.solve``.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    pts = np.atleast_1d(xa).astype(float)
    if np.any(np.abs(pts) > _HALF_PI + 1e-12):
        raise DomainError("power function arguments must lie in [-pi/2, pi/2]")
    if not gram.size:
        out = np.full(pts.shape, math.sqrt(gram.theta))
    elif not gram.ridge:
        out = np.sqrt(gram._certified_cycle().power_squared(pts))
    else:
        cols = gram.kernel_column(pts)  # (n_pts, n_nodes)
        quad_form = np.einsum("ij,ji->i", cols, gram.solve(cols.T))
        out = np.sqrt(np.maximum(0.0, gram.theta - quad_form))
    return float(out[0]) if scalar else out

"""Reproducing kernels, Gram systems, interpolation, and power functions.

The isoperimetric kernel family on ``[-pi/2, pi/2]`` is

    K_theta(x, y) = theta - (pi/2) sin|x - y|,    theta >= 1.

Every member is positive semidefinite; ``theta = 2`` is the reproducing
choice for the isoperimetric inner product, where ``<f, K_2(., y)> = f(y)``
for all members of the space.  The sections ``K_theta(., y)`` are diangle
spans, so exact inner products apply.  A :class:`GramSystem` solves over one
NumPy Cholesky factor and computes its spectrum lazily.

A classical comparison kernel on an arbitrary interval ``[a, b]`` is also
provided: ``cosh(min(x,y) - a) cosh(b - max(x,y)) / sinh(b - a)``, which
reproduces the first-order Sobolev product ``int (f g + f' g')`` with no
boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import funcspace
from .errors import DomainError, InputError, InvariantViolationError, SingularSystemError
from .funcspace import DiangleSpan, H1Function, diangle_span
from .quad import DEFAULT_SPEC, QuadratureSpec

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
_BLOCK = 64


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
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > _HALF_PI + 1e-12)):
        raise InputError("nodes must be finite and lie in [-pi/2, pi/2]")
    if arr.size > 1:
        s = np.sort(arr)
        if np.min(np.diff(s)) < _NODE_SEP:
            raise InputError("nodes must be pairwise distinct")
    return arr


def _cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or ``None`` if ``m`` is not numerically definite."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def _cho_solve(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve ``L L^T x = rhs``: blocked forward, then back substitution."""
    x = np.array(rhs, dtype=float)
    starts = range(0, factor.shape[0], _BLOCK)
    for i in starts:
        b = slice(i, i + _BLOCK)
        x[b] = np.linalg.solve(factor[b, b], x[b] - factor[b, :i] @ x[:i])
    for i in reversed(starts):
        b, j = slice(i, i + _BLOCK), i + _BLOCK
        x[b] = np.linalg.solve(factor[b, b].T, x[b] - factor[j:, b].T @ x[j:])
    return x


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Kernel Gram matrix at a node set, with its Cholesky factor and spectrum.

    Construction factors ``matrix + ridge I`` once and validates the PSD
    invariant: the least eigenvalue must exceed ``-1e-9`` relative to the
    largest.  At zero ridge a successful factor certifies it, as Cholesky
    succeeds only when that ratio is above ``-O(n u)``.  The spectrum is
    computed at construction only if the factor fails or ``ridge > 0``;
    otherwise when first read.
    """

    theta: float
    nodes: tuple[float, ...]
    ridge: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        arr = _check_nodes(self.nodes)
        object.__setattr__(self, "nodes", tuple(float(v) for v in arr))
        ridge = float(self.ridge)
        if not math.isfinite(ridge) or ridge < 0.0:
            raise InputError(f"ridge must be a nonnegative float, got {self.ridge!r}")
        object.__setattr__(self, "ridge", ridge)
        certified = self._factor is not None and not ridge
        if self.size and not certified and self.min_eig < -_PSD_SLACK * max(1.0, self.max_eig):
            raise InvariantViolationError(
                f"Gram matrix is not positive semidefinite: min eigenvalue {self.min_eig!r}"
            )

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float)

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
    def _factor(self) -> np.ndarray | None:
        return _cholesky(self.matrix + self.ridge * np.eye(self.size) if self.ridge else self.matrix)

    @property
    def chol_ok(self) -> bool:
        return self.size == 0 or self._factor is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if not self.size:
            return np.zeros(0)
        if self._factor is None:
            raise SingularSystemError(
                "Gram matrix is numerically singular; pass a positive ridge"
            )
        return _cho_solve(self._factor, rhs)

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
    fallback: str | None = None

    def value(self, x):
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        n = np.asarray(self.nodes, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        k = kernel_eval(np.atleast_1d(xa)[..., None], n, self.theta)
        out = k @ c
        return float(out[0]) if scalar else out

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

    Solves via Cholesky; if the matrix is numerically singular at zero ridge,
    retries with a trace-scaled jitter (reported as ``fallback="jitter"``) and
    finally falls back to a least-squares pseudo-solve
    (``fallback="least_squares"``).  With ``ridge == 0`` and no fallback, a
    node residual above ``1e-8 (1 + max|values|)`` (nodes too clustered for
    double precision) raises :class:`SingularSystemError`.  ``-pi/2`` and
    ``pi/2`` are one point, so values there must agree to ``1e-12`` relative.
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

    fallback = None
    if gram.chol_ok:
        coeffs = gram.solve(vals)
    else:
        jitter = 1e-12 * float(np.trace(gram.matrix)) / gram.size
        factor = _cholesky(gram.matrix + (gram.ridge + jitter) * np.eye(gram.size))
        if factor is not None:
            coeffs, fallback = _cho_solve(factor, vals), "jitter"
        else:
            m = gram.matrix + gram.ridge * np.eye(gram.size)
            coeffs, fallback = np.linalg.lstsq(m, vals, rcond=None)[0], "least_squares"

    result = Interpolant(
        gram.theta,
        gram.ridge,
        gram.nodes,
        tuple(float(c) for c in coeffs),
        fallback,
    )
    if gram.ridge == 0.0 and fallback is None:
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
    Vectorizes over ``x``.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    pts = np.atleast_1d(xa).astype(float)
    if np.any(np.abs(pts) > _HALF_PI + 1e-12):
        raise DomainError("power function arguments must lie in [-pi/2, pi/2]")
    if not gram.size:
        out = np.full(pts.shape, math.sqrt(gram.theta))
        return float(out[0]) if scalar else out
    cols = gram.kernel_column(pts)  # (n_pts, n_nodes)
    solved = gram.solve(cols.T)  # (n_nodes, n_pts)
    quad_form = np.einsum("ij,ji->i", cols, solved)
    radicand = gram.theta - quad_form
    out = np.sqrt(np.maximum(0.0, radicand))
    return float(out[0]) if scalar else out

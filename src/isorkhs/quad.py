"""Adaptive composite Gauss-Legendre quadrature and finite differences.

Every call of a user-supplied callable goes through :func:`sample`, every
numeric derivative of one through :func:`derivative_at`, and every numeric
integral through :func:`integrate`.  The integrands this library cares about
are smooth except for absolute-value kinks at known angles, so the central
design rule is: callers pass the kink locations as breakpoints and panels
never straddle them.  On each kink-free segment the integrand is analytic
and a 16-point Gauss panel converges essentially to machine precision within
a couple of bisection levels.

Refinement is dyadic and level-synchronous: all active panels are bisected
together and the parent-versus-children difference is used as the error
estimate, which lets each level evaluate the integrand on a single stacked
array instead of point by point.  A panel's tolerance never drops below
``64 eps`` times its ``int |f|``, the rounding floor of its own sum.

:func:`derivative_at` holds the finite-difference conventions: central
differences whose stencil stays inside the interval and off the nearest
kink, a right-hand one-sided difference at a registered kink (the
convention the symbolic derivatives use) or at the left endpoint, and a
left-hand one at the right endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DomainError, EvaluationError, InputError

__all__ = [
    "Interval",
    "QuadratureSpec",
    "DELTA",
    "DEFAULT_SPEC",
    "integrate",
    "sample",
    "derivative_at",
]


@dataclass(frozen=True)
class Interval:
    """A nonempty compact interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InputError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise InputError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


#: The domain the function space lives on.
DELTA = Interval(-0.5 * math.pi, 0.5 * math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and refinement limits for :func:`integrate`."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_depth: int = 40
    base_points: int = 16

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise InputError("abs_tol must be positive and finite")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise InputError("rel_tol must be positive and finite")
        if self.max_depth < 1:
            raise InputError("max_depth must be at least 1")
        if self.base_points < 2:
            raise InputError("base_points must be at least 2")


DEFAULT_SPEC = QuadratureSpec()
_ROUNDING_FLOOR = 64 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(n)
    return nodes, weights


def _coerce_interval(interval) -> Interval:
    if isinstance(interval, Interval):
        return interval
    try:
        lo, hi = interval
    except (TypeError, ValueError) as exc:
        raise InputError(f"not an interval: {interval!r}") from exc
    return Interval(float(lo), float(hi))


def sample(f: Callable, x: np.ndarray, what: str = "function") -> np.ndarray:
    """``f`` on the array ``x``, as a float array of ``x``'s shape.

    A callable that rejects arrays is called point by point, and a scalar
    result is broadcast; any other shape raises :class:`InputError` naming
    ``what``.
    """
    try:
        y = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        y = np.fromiter((float(f(t)) for t in x.flat), dtype=float, count=x.size).reshape(x.shape)
    if y.shape != x.shape:
        if y.ndim:
            raise InputError(f"{what} returned shape {y.shape} for input shape {x.shape}")
        y = np.full(x.shape, float(y))
    return y


def _sample_finite(f: Callable, x: np.ndarray, what: str) -> np.ndarray:
    y = sample(f, x, what)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)]
        raise EvaluationError(f"{what} evaluated to a non-finite value near x={bad.flat[0]!r}")
    return y


def _panel_integrals(f, lo: np.ndarray, hi: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss panel integrals of ``f`` and ``|f|`` for a batch of panels, one integrand call."""
    nodes, weights = _gauss_rule(points)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    y = _sample_finite(f, x.reshape(-1), "integrand").reshape(x.shape)
    return half * (y @ weights), half * (np.abs(y) @ weights)


def _segment_edges(iv: Interval, breakpoints: Iterable[float]) -> np.ndarray:
    pts = []
    for b in breakpoints:
        b = float(b)
        if not math.isfinite(b):
            raise InputError("breakpoints must be finite")
        # Breakpoints on or outside the boundary are already panel edges.
        if iv.lo < b < iv.hi:
            pts.append(b)
    return np.unique(np.array([iv.lo, *pts, iv.hi], dtype=float))


def integrate(
    f: Callable,
    interval=DELTA,
    breakpoints: Sequence[float] = (),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Integrate ``f`` over ``interval`` with kink-aware adaptive panels.

    Parameters
    ----------
    f : callable
        Integrand; preferably accepts an ndarray and returns one of the same
        shape (scalar-only callables are wrapped, at a cost).
    interval : Interval or (lo, hi)
    breakpoints : sequence of float
        Abscissae where ``f`` loses smoothness.  Panels never straddle them.
        Points outside the open interval are ignored.
    spec : QuadratureSpec

    Raises
    ------
    ConvergenceError
        If the refinement depth limit is reached; the exception carries the
        best estimate and its error bound.
    EvaluationError
        If ``f`` produces a non-finite value.
    """
    iv = _coerce_interval(interval)
    edges = _segment_edges(iv, breakpoints)
    los, his = edges[:-1], edges[1:]
    parent, _ = _panel_integrals(f, los, his, spec.base_points)
    total_len = iv.length

    accepted = 0.0
    accepted_err = 0.0
    for _depth in range(spec.max_depth):
        mids = 0.5 * (los + his)
        child_lo = np.concatenate([los, mids])
        child_hi = np.concatenate([mids, his])
        child, child_abs = _panel_integrals(f, child_lo, child_hi, spec.base_points)
        k = los.size
        pair_sum = child[:k] + child[k:]
        diff = np.abs(parent - pair_sum)

        running = accepted + float(pair_sum.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(running))
        floor = _ROUNDING_FLOOR * (child_abs[:k] + child_abs[k:])
        local = np.maximum(tol * (his - los) / total_len, floor)
        done = diff <= local

        accepted += float(pair_sum[done].sum())
        accepted_err += float(diff[done].sum())
        if bool(done.all()):
            return accepted

        keep = ~done
        los = np.concatenate([los[keep], mids[keep]])
        his = np.concatenate([mids[keep], his[keep]])
        parent = np.concatenate([child[:k][keep], child[k:][keep]])

    estimate = accepted + float(parent.sum())
    bound = accepted_err + float(diff[~done].sum())
    raise ConvergenceError(
        f"quadrature did not converge within depth {spec.max_depth}",
        estimate=estimate,
        error_bound=bound,
    )


def derivative_at(
    f: Callable,
    x,
    step: float = 1e-6,
    interval=DELTA,
    kinks: Sequence[float] = (),
):
    """Finite-difference derivative with the package's kink conventions, vectorized over ``x``.

    Central in the smooth interior, with the step shrunk to
    ``min(step, x - lo, hi - x, gap / 2)`` for the distance ``gap`` to the
    nearest kink.  At a registered kink (within ``1e-12 (1 + |x|)``) or at
    the left endpoint, the second-order right-hand one-sided difference; at
    the right endpoint the mirrored left-hand one; their step is at most half
    the room to the endpoint and to the next kink on their side.  ``f`` is
    called once, on all stencil points.  A point (NaN too) outside the
    interval by more than ``1e-12 (1 + |x|)`` raises :class:`DomainError`.
    """
    iv = _coerce_interval(interval)
    if step <= 0 or not math.isfinite(step):
        raise InputError("step must be positive and finite")
    xa = np.asarray(x, dtype=float)
    pts = xa.reshape(-1)
    tiny = 1e-12 * (1.0 + np.abs(pts))
    inside = (pts >= iv.lo - tiny) & (pts <= iv.hi + tiny)
    if not inside.all():
        raise DomainError(f"x={float(pts[~inside][0])!r} lies outside [{iv.lo}, {iv.hi}]")
    pts = np.minimum(np.maximum(pts, iv.lo), iv.hi)

    d = np.fromiter(kinks, dtype=float)[None, :] - pts[:, None]  # kink minus point
    at = np.abs(d) <= tiny[:, None]
    right_gap = np.where((d > 0) & ~at, d, math.inf).min(axis=1, initial=math.inf)
    left_gap = np.where((d < 0) & ~at, -d, math.inf).min(axis=1, initial=math.inf)
    right = at.any(axis=1) | (pts <= iv.lo + tiny)
    left = ~right & (pts >= iv.hi - tiny)
    central = ~(right | left)
    room = np.select(
        [right, left],
        [0.5 * np.minimum(iv.hi - pts, right_gap), 0.5 * np.minimum(pts - iv.lo, left_gap)],
        np.minimum(np.minimum(iv.hi - pts, pts - iv.lo), 0.5 * np.minimum(right_gap, left_gap)),
    )
    h = np.minimum(step, room)
    if np.any(h[right] <= 0):  # a kink at the right endpoint; left-hand stencils always have room
        raise DomainError("no room for a right-hand difference stencil")

    # one-sided stencils x, x + s, x + 2s with s = -h on the left-hand side
    s = np.where(left, -h, h)
    xc, hc, xo, so = pts[central], h[central], pts[~central], s[~central]
    stencil = np.concatenate([xc + hc, xc - hc, xo, xo + so, xo + 2.0 * so])
    y = _sample_finite(f, stencil, "function")
    n = xc.size
    f0, f1, f2 = y[2 * n :].reshape(3, -1)
    out = np.empty(pts.shape)
    out[central] = (y[:n] - y[n : 2 * n]) / (2.0 * hc)
    out[~central] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * so)
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)

"""Adaptive composite Gauss-Legendre quadrature and finite differences.

Every numeric integral in the package flows through :func:`integrate`.  The
integrands this library cares about are smooth except for absolute-value
kinks at known angles, so the central design rule is: callers pass the kink
locations as breakpoints and panels never straddle them.  On each kink-free
segment the integrand is analytic and a 16-point Gauss panel converges
essentially to machine precision within a couple of bisection levels.

Refinement is dyadic and level-synchronous: all active panels are bisected
together and the parent-versus-children difference is used as the error
estimate, which lets each level evaluate the integrand on a single stacked
array instead of point by point.  A panel's tolerance never drops below
``64 eps`` times its ``int |f|``, the rounding floor of its own sum.

:func:`derivative_at` provides the package-wide finite-difference
conventions: second-order central differences away from kinks, and a
second-order right-hand one-sided difference at a registered kink (the same
right-hand convention the symbolic derivatives use).
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
    "integrate_fixed",
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


def _call_integrand(f: Callable, x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        # Scalar-only callable: evaluate point by point.
        y = np.fromiter((float(f(t)) for t in x), dtype=float, count=x.size)
    if y.shape != x.shape:
        if y.ndim == 0:
            y = np.full(x.shape, float(y))
        else:
            raise InputError(
                f"integrand returned shape {y.shape} for input shape {x.shape}"
            )
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)]
        raise EvaluationError(
            f"integrand evaluated to a non-finite value near x={bad.flat[0]!r}"
        )
    return y


def _panel_integrals(f, lo: np.ndarray, hi: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss panel integrals of ``f`` and ``|f|`` for a batch of panels, one integrand call."""
    nodes, weights = _gauss_rule(points)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    y = _call_integrand(f, x.reshape(-1)).reshape(x.shape)
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


def integrate_fixed(
    f: Callable,
    interval=DELTA,
    breakpoints: Sequence[float] = (),
    points: int = 16,
    levels: int = 0,
) -> float:
    """Non-adaptive composite rule: ``2**levels`` equal panels per segment.

    Used by the convergence-rate and polynomial-exactness checks, where the
    panel layout has to be controlled instead of adapted.
    """
    iv = _coerce_interval(interval)
    if points < 1:
        raise InputError("points must be positive")
    if levels < 0:
        raise InputError("levels must be nonnegative")
    edges = _segment_edges(iv, breakpoints)
    m = 1 << levels
    los = []
    his = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sub = np.linspace(lo, hi, m + 1)
        los.append(sub[:-1])
        his.append(sub[1:])
    vals, _ = _panel_integrals(f, np.concatenate(los), np.concatenate(his), points)
    return float(vals.sum())


def _scalar_eval(f: Callable, x: float) -> float:
    y = f(np.asarray([x], dtype=float))
    try:
        v = float(np.asarray(y, dtype=float).reshape(-1)[0])
    except (TypeError, ValueError):
        v = float(f(x))
    if not math.isfinite(v):
        raise EvaluationError(f"function evaluated to a non-finite value at x={x!r}")
    return v


def derivative_at(
    f: Callable,
    x: float,
    step: float = 1e-6,
    interval=DELTA,
    kinks: Sequence[float] = (),
    richardson: bool = False,
) -> float:
    """Finite-difference derivative with the package's kink conventions.

    Central second-order differences in the smooth interior; at a registered
    kink (or at the left endpoint) a second-order right-hand one-sided
    difference; at the right endpoint the mirrored left-hand one.  The step
    shrinks so samples stay inside the interval and on one smooth piece.
    Optional one-level Richardson extrapolation.
    """
    iv = _coerce_interval(interval)
    x = float(x)
    if step <= 0 or not math.isfinite(step):
        raise InputError("step must be positive and finite")
    tiny = 1e-12 * (1.0 + abs(x))
    if x < iv.lo - tiny or x > iv.hi + tiny:
        raise DomainError(f"x={x!r} lies outside [{iv.lo}, {iv.hi}]")
    x = min(max(x, iv.lo), iv.hi)

    ks = sorted(float(k) for k in kinks)
    at_kink = any(abs(x - k) <= tiny for k in ks)

    def nearest_gap(side: str) -> float:
        gaps = []
        for k in ks:
            if abs(x - k) <= tiny:
                continue
            if side == "right" and k > x:
                gaps.append(k - x)
            elif side == "left" and k < x:
                gaps.append(x - k)
            elif side == "both":
                gaps.append(abs(k - x))
        return min(gaps) if gaps else math.inf

    if at_kink or x <= iv.lo + tiny:
        h = min(step, 0.5 * (iv.hi - x), 0.5 * nearest_gap("right"))
        if h <= 0:
            raise DomainError("no room for a right-hand difference stencil")

        def diff(h):
            return (
                -3.0 * _scalar_eval(f, x)
                + 4.0 * _scalar_eval(f, x + h)
                - _scalar_eval(f, x + 2.0 * h)
            ) / (2.0 * h)

    elif x >= iv.hi - tiny:
        h = min(step, 0.5 * (x - iv.lo), 0.5 * nearest_gap("left"))
        if h <= 0:
            raise DomainError("no room for a left-hand difference stencil")

        def diff(h):
            return (
                3.0 * _scalar_eval(f, x)
                - 4.0 * _scalar_eval(f, x - h)
                + _scalar_eval(f, x - 2.0 * h)
            ) / (2.0 * h)

    else:
        h = min(step, iv.hi - x, x - iv.lo, 0.5 * nearest_gap("both"))

        def diff(h):
            return (_scalar_eval(f, x + h) - _scalar_eval(f, x - h)) / (2.0 * h)

    if richardson:
        return (4.0 * diff(0.5 * h) - diff(h)) / 3.0
    return diff(h)

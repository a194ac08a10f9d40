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
``64 eps`` times its ``int |f|``, the rounding floor of its own sum, nor
below 64 steps of the smallest subnormal, in which the sums of a panel of
subnormal width round.  A stacked integrand returns ``(k, n)`` for ``n``
abscissae, one row per integral; the rows share the panels and the
integrand calls.  Each row keeps its own tolerance and rounding floor, and a
panel is accepted only when every row passes on it.

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
# The least acceptance threshold of a panel: one of subnormal width has sums
# that round in steps of the smallest subnormal, and a tolerance below them.
_SUBNORMAL_FLOOR = 64 * np.finfo(float).smallest_subnormal
# Panels a level may leave to the next, which samples 2 * base_points abscissae
# on each: 8 MB of doubles per row at the default rule.
_MAX_PANELS = 1 << 15


@lru_cache(maxsize=None)
def _gauss_rule(points: int):
    """(nodes, weights) of the ``points``-point Gauss-Legendre rule.

    ``numpy.polynomial`` loads with the first rule, so a caller that never
    integrates never loads it."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(points)


def _coerce_interval(interval) -> Interval:
    if isinstance(interval, Interval):
        return interval
    try:
        lo, hi = interval
    except (TypeError, ValueError) as exc:
        raise InputError(f"not an interval: {interval!r}") from exc
    return Interval(float(lo), float(hi))


def _values(f: Callable, x: np.ndarray) -> np.ndarray:
    """``f(x)`` as floats, a scalar broadcast to ``x``'s shape; point by point if ``f`` rejects arrays."""
    try:
        y = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        return np.fromiter((float(f(t)) for t in x.flat), dtype=float, count=x.size).reshape(x.shape)
    return y if y.ndim else np.full(x.shape, float(y))


def sample(f: Callable, x: np.ndarray, what: str = "function") -> np.ndarray:
    """``f`` on the array ``x``, as a float array of ``x``'s shape.

    A callable that rejects arrays is called point by point, and a scalar
    result is broadcast; any other shape raises :class:`InputError` naming
    ``what``.
    """
    y = _values(f, x)
    if y.shape != x.shape:
        raise InputError(f"{what} returned shape {y.shape} for input shape {x.shape}")
    return y


def _check_finite(y: np.ndarray, x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(y).all():
        at = x[~np.isfinite(y).reshape(-1, x.size).all(0)][0]
        raise EvaluationError(f"{what} evaluated to a non-finite value near x={at!r}")
    return y


def _panel_integrals(f, lo: np.ndarray, hi: np.ndarray, points: int, rows=None):
    """Gauss panel integrals of ``f`` and ``|f|`` on ``m`` panels as ``(k, m)`` arrays, from one call,
    and the row shape ``f`` returned (``()`` if scalar, ``k = 1``); it must be ``rows`` if that is given."""
    nodes, weights = _gauss_rule(points)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    y = _values(f, x)
    if y.ndim > 2 or y.shape[-1] != x.size or rows not in (None, y.shape[:-1]):
        raise InputError(f"integrand returned shape {y.shape} for {x.size} abscissae")
    y2 = _check_finite(y, x, "integrand").reshape(-1, points)  # a row of y on a panel in each line
    shape = (-1, lo.size)
    return half * (y2 @ weights).reshape(shape), half * (np.abs(y2) @ weights).reshape(shape), y.shape[:-1]


def _segment_edges(iv: Interval, breakpoints: Iterable[float]) -> np.ndarray:
    pts = {iv.lo, iv.hi}
    for b in breakpoints:
        b = float(b)
        if not math.isfinite(b):
            raise InputError("breakpoints must be finite")
        # Breakpoints on or outside the boundary are already panel edges.
        if iv.lo < b < iv.hi:
            pts.add(b)
    return np.array(sorted(pts))


def integrate(
    f: Callable,
    interval=DELTA,
    breakpoints: Sequence[float] = (),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float | np.ndarray:
    """Integrate ``f`` over ``interval`` with kink-aware adaptive panels.

    Parameters
    ----------
    f : callable
        Integrand; preferably accepts an ndarray of ``n`` abscissae and
        returns ``n`` values (scalar-only callables are wrapped, at a cost).
        A stacked one returns ``(k, n)``, one row per integral, and the call
        returns ``k`` values.  Each row meets its own tolerance,
        ``max(abs_tol, rel_tol |its running sum|)``, or its own rounding
        floor; a panel is accepted once every row passes on it.
    interval : Interval or (lo, hi)
    breakpoints : sequence of float
        Abscissae where ``f`` loses smoothness.  Panels never straddle them.
        Points outside the open interval are ignored.
    spec : QuadratureSpec

    Raises
    ------
    ConvergenceError
        If the refinement depth limit is reached, or a level leaves more than
        ``_MAX_PANELS`` panels to refine (a tolerance below the integrand's
        own noise, such as a finite-difference derivative's, never stops
        refining, and memory would run out first); the exception carries the
        best estimate and its error bound, floats for a scalar integrand and
        arrays of ``k`` (one entry per row) for a stacked one.
    EvaluationError
        If ``f`` produces a non-finite value in any row.
    InputError
        If ``f`` returns any other shape.
    """
    iv = _coerce_interval(interval)
    edges = _segment_edges(iv, breakpoints)
    los, his = edges[:-1], edges[1:]
    parent, _, rows = _panel_integrals(f, los, his, spec.base_points)
    total_len = iv.length

    def result(v: np.ndarray):
        return v if rows else float(v[0])

    accepted = accepted_err = 0.0  # per row, over accepted panels; arrays below are (rows, panels)
    for _depth in range(spec.max_depth):
        mids = 0.5 * (los + his)
        child_lo, child_hi = np.concatenate((los, mids)), np.concatenate((mids, his))
        child, child_abs, _ = _panel_integrals(f, child_lo, child_hi, spec.base_points, rows)
        m = los.size
        pair_sum = child[:, :m] + child[:, m:]
        diff = np.abs(parent - pair_sum)

        running = accepted + pair_sum.sum(1)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(running))
        floor = np.maximum(_ROUNDING_FLOOR * (child_abs[:, :m] + child_abs[:, m:]), _SUBNORMAL_FLOOR)
        done = (diff <= np.maximum(tol[:, None] * (his - los) / total_len, floor)).all(0)
        if done.all():
            return result(running)

        accepted = accepted + pair_sum.compress(done, 1).sum(1)
        accepted_err = accepted_err + diff.compress(done, 1).sum(1)
        # the children of the refused panels, left halves first
        keep = np.concatenate((~done, ~done))
        los, his, parent = child_lo[keep], child_hi[keep], child.compress(keep, 1)
        if los.size > _MAX_PANELS:
            break

    raise ConvergenceError(
        f"quadrature did not converge within depth {spec.max_depth} and {_MAX_PANELS} panels per level",
        estimate=result(accepted + parent.sum(1)),
        error_bound=result(accepted_err + diff.compress(~done, 1).sum(1)),
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
    y = _check_finite(sample(f, stencil, "function"), stencil, "function")
    n = xc.size
    f0, f1, f2 = y[2 * n :].reshape(3, -1)
    out = np.empty(pts.shape)
    out[central] = (y[:n] - y[n : 2 * n]) / (2.0 * hc)
    out[~central] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * so)
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)

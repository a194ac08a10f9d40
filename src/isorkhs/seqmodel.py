"""Finite expansions over the constant function and diangle profiles.

A diangle profile at angle ``a`` is the width-type map ``t -> sin|t - a|``
on ``[-pi/2, pi/2]``; an expansion is ``x0*1 + sum_i x_i * profile(a_i)``.
This module carries the closed-form inner product of two expansions, the
induced squared norm, the isoperimetric gap of an expansion, and the
perimeter/area readings of a nonnegative constant-free expansion as a planar
zonotope.

Angles are normalized modulo pi into ``[-pi/2, pi/2)``; the profile is
pi-periodic in its angle, so this loses nothing, and duplicate angles are
merged by summing coefficients at construction.

Expansions, kernel sections, interpolants and body widths are all evaluated
by ``_profile_sum``: running sums over the sorted angles, built once per
expansion, give values and right derivatives at ``p`` points in O(m + p log m).
An expansion is a member of the function space as ``funcspace.DiangleSpan``;
a kernel interpolant is one too, whose table holds its kernel coefficients in
long double (see ``kernel.Interpolant``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InputError, InvariantViolationError

__all__ = [
    "DiangleExpansion",
    "diangle_expansion",
    "normalize_angle",
    "expansion_value",
    "expansion_derivative",
    "seq_inner",
    "seq_norm_squared",
    "sequence_isoperimetric_gap",
    "polygon_isoperimetric_gap",
    "polygon_perimeter",
    "polygon_area",
    "sin_quadratic",
    "AREA_CONSTANT",
    "calibrate_area_constant",
]

_HALF_PI = 0.5 * math.pi
_PI_SQ = math.pi * math.pi
_ANGLE = itemgetter(0)

#: Scale between the double sum ``sum_ij sin|a_i - a_j| x_i x_j`` and the
#: shoelace area of the zonotope spanned by segments of length ``2 x_i``.
#: Pinned by :func:`calibrate_area_constant` against the geometry oracle.
AREA_CONSTANT = 2.0


def normalize_angle(a: float) -> float:
    """Reduce an angle modulo pi into ``[-pi/2, pi/2)``; an angle already there comes back as it is,
    which is what the reduction gives it, bit for bit and with the sign of zero."""
    a = float(a)
    if -_HALF_PI <= a < _HALF_PI:
        return a
    if not math.isfinite(a):
        raise InputError("angles must be finite")
    n = math.floor((a + _HALF_PI) / math.pi)
    r = a - n * math.pi
    if r >= _HALF_PI:
        r -= math.pi
    elif r < -_HALF_PI:
        r += math.pi
    return r


def _reduce_angles(x) -> np.ndarray:
    """Array form of :func:`normalize_angle`, bit for bit; numpy is ~50x slower per scalar."""
    x = np.asarray(x, dtype=float)
    r = x - math.pi * np.floor((x + _HALF_PI) / math.pi)
    r = np.where(r >= _HALF_PI, r - math.pi, r)
    return np.where(r < -_HALF_PI, r + math.pi, r)


@dataclass(frozen=True)
class DiangleExpansion:
    """Canonical expansion: normalized, sorted, distinct, nonzero terms."""

    x0: float
    terms: tuple[tuple[float, float], ...]

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.terms)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.terms)

    @property
    def coefficient_sum(self) -> float:
        return float(sum(c for _, c in self.terms))

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array(self.angles, dtype=float)
        return a, _profile_table(a, np.array(self.coefficients, dtype=float))


def diangle_expansion(x0: float, terms: Iterable[tuple[float, float]] = ()) -> DiangleExpansion:
    """Build a canonical :class:`DiangleExpansion`.

    Angles are normalized modulo pi, exact duplicates merged by summing
    coefficients in order, zero coefficients dropped, terms sorted by angle.
    """
    x0 = float(x0)
    if not math.isfinite(x0):
        raise InputError("constant coefficient must be finite")
    merged: dict[float, float] = {}
    get = merged.get
    for item in terms:
        try:
            a, c = item
        except (TypeError, ValueError) as exc:
            raise InputError(f"not an (angle, coefficient) pair: {item!r}") from exc
        c = float(c)
        if not math.isfinite(c):
            raise InputError("coefficients must be finite")
        an = normalize_angle(a)
        merged[an] = get(an, 0.0) + c
    # the nonzero terms (a float is false only at +-0.0), sorted by their distinct angles
    return DiangleExpansion(x0, tuple(sorted(compress(merged.items(), merged.values()), key=_ANGLE)))


def _profile_table(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sum_{j<k} - sum_{j>=k}`` of ``c_j cos a_j`` and of ``c_j sin a_j``, for ``k = 0..m``.

    ``a`` is sorted; trailing axes of ``c`` are columns of coefficients.
    """
    table = np.zeros((2, a.size + 1) + c.shape[1:], dtype=c.dtype)
    trig = np.array((np.cos(a), np.sin(a))).reshape((2,) + a.shape + (1,) * (c.ndim - 1))
    np.cumsum(trig * c, axis=1, out=table[:, 1:])  # the sums below each k
    return 2.0 * table - table[:, -1:]


def _profile_sum(a: np.ndarray, table: np.ndarray, x, derivative: bool = False) -> np.ndarray:
    """``sum_j c_j sin|x - a_j|`` at points ``x``, or its right derivative, from ``_profile_table``.

    ``sin|x - a_j|`` is ``sin x cos a_j - cos x sin a_j`` for ``a_j <= x`` and its
    negative above, so row ``k = #{a_j <= x}`` gives ``sin x D_c - cos x D_s``, and
    ``cos x D_c + sin x D_s`` for the derivative.  Rounding is ``eps sum|c_j|``.
    """
    x = np.asarray(x, dtype=table.dtype)
    dc, ds = np.take(table, np.searchsorted(a, x, side="right"), axis=1)
    shape = x.shape + (1,) * (table.ndim - 2)
    sin, cos = np.sin(x).reshape(shape), np.cos(x).reshape(shape)
    return cos * dc + sin * ds if derivative else sin * dc - cos * ds


def expansion_value(e: DiangleExpansion, x) -> np.ndarray:
    """Value at ``x`` reduced modulo pi, so both endpoints evaluate exactly alike."""
    return e.x0 + _profile_sum(*e._sums, _reduce_angles(x))


def expansion_derivative(e: DiangleExpansion, x) -> np.ndarray:
    """Derivative at ``x`` reduced modulo pi; the right-hand branch is taken at each kink."""
    return _profile_sum(*e._sums, _reduce_angles(x), derivative=True)


def _cross_gram(x: DiangleExpansion, y: DiangleExpansion) -> float:
    """``sum_ij cx_i cy_j (2 - (pi/2) sin|a_i - b_j|)``; ``InputError`` if ``2 sum|cx| sum|cy|`` overflows."""
    if not x.terms or not y.terms:
        return 0.0
    cx, cy = x.coefficients, y.coefficients
    bound = 2.0 * sum(map(abs, cx)) * sum(map(abs, cy))
    if not math.isfinite(bound):
        raise InputError(f"expansions are too large: their Gram bound 2 sum|cx| sum|cy| is {bound!r}")
    ax, ay = np.array(x.angles), np.array(y.angles)
    s = np.sin(np.abs(ax[:, None] - ay[None, :]))
    return float(np.array(cx) @ (2.0 - _HALF_PI * s) @ np.array(cy))


def seq_inner(x: DiangleExpansion, y: DiangleExpansion) -> float:
    """Closed-form inner product of two expansions.

    The Gram coefficients are 1 for the constant against itself, ``2/pi``
    between the constant and any profile, and
    ``(4/pi^2) * (2 - (pi/2) sin|a - b|)`` between two profiles.
    """
    v = x.x0 * y.x0
    v += (2.0 / math.pi) * (x.coefficient_sum * y.x0 + x.x0 * y.coefficient_sum)
    v += (4.0 / _PI_SQ) * _cross_gram(x, y)
    return v


def sin_quadratic(x: DiangleExpansion) -> float:
    """The double sum ``sum_ij sin|a_i - a_j| x_i x_j``.

    Its partial sums are at most ``(sum_i |x_i|)^2`` in absolute value; an
    expansion for which that bound overflows raises ``InputError`` before the
    sum is formed (the area of a square with corners at +-1e154, say).
    """
    if not x.terms:
        return 0.0
    bound = sum(map(abs, x.coefficients))
    if not math.isfinite(bound * bound):
        raise InputError(f"expansion is too large: its absolute coefficient sum {bound!r} squared overflows")
    a = np.array(x.angles)
    c = np.array(x.coefficients)
    s = np.sin(np.abs(a[:, None] - a[None, :]))
    return float(c @ s @ c)


def seq_norm_squared(x: DiangleExpansion) -> float:
    """Squared norm of an expansion, ``seq_inner(x, x)``; raises if it is negative.

    Its rearrangements (the completed-square and sine double-sum forms) are
    checked against it by the ``sequence`` verify suite and the acceptance
    tests, not here: their rounding grows with ``(sum |x_i|)^2``, so a check
    relative to the value fails on valid expansions whose coefficients
    nearly cancel.
    """
    n2 = seq_inner(x, x)
    if n2 < -1e-9:
        raise InvariantViolationError(f"squared norm is negative: {n2!r}")
    return n2


def sequence_isoperimetric_gap(x: DiangleExpansion) -> float:
    """Slack in the sequence isoperimetric inequality.

    Returns ``((pi/2) x0 + S)^2 + 2 S^2 - S^2 - (pi/2) sum_ij sin|a_i-a_j| x_i x_j``
    with ``S = sum_i x_i``, which equals ``(pi^2/4)`` times the squared norm,
    hence is nonnegative up to rounding.
    """
    s = x.coefficient_sum
    half = _HALF_PI * x.x0 + s
    lhs = half * half + 2.0 * s * s
    rhs = s * s + _HALF_PI * sin_quadratic(x)
    return lhs - rhs


def polygon_isoperimetric_gap(x: DiangleExpansion) -> float:
    """The constant-free reduced gap ``(4/pi) S^2 - sum_ij sin|a_i-a_j| x_i x_j``.

    This is the ``2/pi``-scaled reading of :func:`sequence_isoperimetric_gap`
    for expansions with no constant part; it is the form in which the polygon
    inequality ``area <= perimeter^2 / (4 pi)`` is usually quoted.
    """
    if x.x0 != 0.0:
        raise DomainError("reduced gap requires a zero constant coefficient")
    s = x.coefficient_sum
    return (4.0 / math.pi) * s * s - sin_quadratic(x)


def _require_polygon(x: DiangleExpansion) -> None:
    if x.x0 != 0.0:
        raise DomainError("polygon readings require a zero constant coefficient")
    for a, c in x.terms:
        if c < 0.0:
            raise DomainError(f"polygon readings require nonnegative coefficients, got {c!r} at angle {a!r}")


def polygon_perimeter(x: DiangleExpansion) -> float:
    """Perimeter of the zonotope spanned by segments of length ``2 x_i``."""
    _require_polygon(x)
    return 4.0 * x.coefficient_sum


def polygon_area(x: DiangleExpansion) -> float:
    """Area of the zonotope spanned by segments of length ``2 x_i``.

    Equals ``AREA_CONSTANT * sum_ij sin|a_i - a_j| x_i x_j``, which is also
    the energy functional ``int (f^2 - f'^2)`` of the expansion's function.
    """
    _require_polygon(x)
    return AREA_CONSTANT * sin_quadratic(x)


def calibrate_area_constant() -> float:
    """Measure the area constant against the shoelace oracle.

    Builds a few reference zonotopes from expansions (generator lengths
    ``2 x_i``), compares their shoelace areas to the sine double sum, and
    returns the common ratio.  Raises if the references disagree.
    """
    from . import convexgeo  # deferred: convexgeo imports this module

    references = [
        diangle_expansion(0.0, [(-math.pi / 4, 1.0), (math.pi / 4, 1.0)]),
        diangle_expansion(0.0, [(-1.2, 0.7), (0.3, 1.1), (1.0, 0.4)]),
        diangle_expansion(0.0, [(-1.5, 0.25), (-0.4, 0.9), (0.2, 0.6), (1.1, 1.3)]),
    ]
    ratios = []
    for e in references:
        body = convexgeo.zonotope_from_generators([(a, 2.0 * c) for a, c in e.terms])
        denom = sin_quadratic(e)
        if denom <= 0:
            raise InvariantViolationError("degenerate calibration reference")
        ratios.append(convexgeo._shoelace_area(body.vertex_array) / denom)
    spread = max(ratios) - min(ratios)
    if spread > 1e-9:
        raise InvariantViolationError(f"area calibration references disagree: {ratios!r}")
    return float(np.mean(ratios))

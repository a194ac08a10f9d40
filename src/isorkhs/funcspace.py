"""Members of the periodic Sobolev space on ``[-pi/2, pi/2]`` and its functionals.

The space consists of absolutely continuous functions with square-integrable
derivative whose values at the two endpoints agree.  Its isoperimetric inner
product is

    <f, g> = (1/pi^2) * [ 2 (int f)(int g) - pi * int (f g - f' g') ]

with all integrals over ``[-pi/2, pi/2]``.  Three representations are
supported:

* ``TrigPoly``      -- finite cosine/sine series,
* ``DiangleSpan``   -- a constant plus diangle profiles (see ``seqmodel``),
* ``Sampled``       -- arbitrary callables with registered kink angles.

Inner products and the derived functionals take an exact closed-form path
whenever every argument is symbolic (trig or diangle) and an adaptive
quadrature path otherwise; the two paths are independent and the test suite
holds them against each other.  Quadrature registers the union of both
arguments' kinks as breakpoints and makes one stacked pass per functional:
rows ``f, g, f g, f' g'`` for an inner product and ``f, f^2, f'^2`` for a
single member's integral and energy, each row to its own tolerance.  It
samples each member once per level, through ``value_and_derivative``: a
span takes one angle reduction, one table search and one ``sin``/``cos`` of
the points for the value and the derivative together; other members make
the two calls.

The exact path is built on two quantities.  ``int f`` is ``sum a_k J(k)``
for a series (``J(p) = int cos(p t)``) and ``pi x0 + 2 S`` for a span with
coefficient sum ``S``.  The energy pairing ``E(f, g) = int (f g - f' g')``
against a span ``g = x0 + sum c_j P_{a_j}`` is ``x0 int f + 2 sum c_j f(a_j)``:
on the circle of length pi the profile ``P_a(t) = sin|t - a|`` satisfies
``P_a'' + P_a = 2 delta_a``, so ``E(f, P_a) = 2 f(a)`` for every ``f`` whose
endpoint values agree (the identity's boundary term is ``sin(a)`` times
their gap).  Two series pair through a table of ``J(m -+ n)`` over their
nonzero frequencies.  The inner product is ``(2 int f int g - pi E) / pi^2``;
two spans go through ``seqmodel.seq_inner`` instead, which keeps the exact
reproducing checks on spans independent of the identity, so the profile
identity serves a series against a span only.  A span's own energy
``E(f, f) = x0 int f + 2 (x0 S + sum_ij c_i c_j sin|a_i - a_j|)`` takes its
double sum from the sorted sine pass (``seqmodel.sin_quadratic``) that
``seq_inner``, ``polygon_area`` and ``convexgeo.pair_measure`` read, so the
energy functionals of a pair's function are the pair's measure and deficit
bit for bit; an interpolant's energy is its expansion's.  For a series the
exact route against a kernel section *is* the reproducing property, so that
property is checked for non-constant series by quadrature only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, cycle
from operator import add, mul
from typing import Callable, Iterable, Sequence

import numpy as np

from . import quad, seqmodel
from .errors import DomainError, InputError, InvariantViolationError
from .quad import DEFAULT_SPEC, DELTA, Interval, QuadratureSpec
from .seqmodel import DiangleExpansion, diangle_expansion

__all__ = [
    "H1Function",
    "TrigPoly",
    "DiangleSpan",
    "Sampled",
    "trig_poly",
    "constant",
    "diangle",
    "diangle_span",
    "sampled",
    "project_endpoints",
    "evaluate",
    "mean_value",
    "perimeter_functional",
    "wirtinger_deficit",
    "energy_deficit",
    "energy_integral",
    "inner_product_iso",
    "norm_iso",
    "norm_iso_squared",
    "inner_product_classical",
    "holder_ratio",
]

_PI = math.pi
_HALF_PI = 0.5 * math.pi
_PI_SQ = math.pi * math.pi
_SQRT_PI = math.sqrt(math.pi)

_ENDPOINT_TOL = 1e-12
_NEGATIVE_NORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# representations


class H1Function:
    """Abstract member of the space; concrete variants implement the rules."""

    @property
    def kinks(self) -> tuple[float, ...]:
        return ()

    def value(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def value_and_derivative(self, x):
        """``(value(x), derivative(x))``, bit for bit; a variant that can share work between them overrides it."""
        return self.value(x), self.derivative(x)

    def __call__(self, x):
        return self.value(x)


def _maybe_scalar(result: np.ndarray, scalar: bool):
    return float(result) if scalar else result


_HALF_PI_SINES = (0.0, 1.0, 0.0, -1.0)
_ODD_SINES = (1.0, 0.0, -1.0, 0.0)  # sin(k pi/2) for k = 1, 2, 3, 4
_KINDS = np.array((1.0, -1.0))


def _odd_sine_sum(sin_coeffs: Sequence[float]) -> float:
    """``sum_k b_k sin(k pi/2)``, left to right as ``coefficient_sum``: half the gap ``f(pi/2) - f(-pi/2)``."""
    return reduce(add, map(mul, sin_coeffs, cycle(_ODD_SINES)), 0.0)


@dataclass(frozen=True)
class TrigPoly(H1Function):
    """Finite series ``a0 + sum a_k cos(k t) + sum b_k sin(k t)``.

    ``cos_coeffs`` starts at the constant term; ``sin_coeffs`` starts at
    frequency 1.  Membership requires equal endpoint values, which for this
    representation reduces to the alternating sum of odd-frequency sine
    coefficients vanishing; that is checked structurally at construction.
    The constructor makes one C-level pass per coefficient tuple: the
    coefficients are converted by ``map(float, ...)`` and tested finite by
    their sum (entry by entry only when that sum is not finite), and the
    nonzero terms that every evaluation and the exact engine read
    (``_terms``: frequencies, coefficients and kinds, +1 cosine and -1 sine,
    cosines first) are gathered there too.
    """

    cos_coeffs: tuple[float, ...]
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        cc = tuple(map(float, self.cos_coeffs)) or (0.0,)
        sc = tuple(map(float, self.sin_coeffs))
        if not math.isfinite(sum(cc) + sum(sc)) and not all(map(math.isfinite, cc + sc)):
            raise InputError("trig coefficients must be finite")
        object.__setattr__(self, "cos_coeffs", cc)
        object.__setattr__(self, "sin_coeffs", sc)
        gap = 2.0 * _odd_sine_sum(sc)
        if abs(gap) > _ENDPOINT_TOL * (1.0 + max(map(abs, cc + sc))):
            raise DomainError(
                "endpoint values differ by "
                f"{gap!r}: not a member of the space; see project_endpoints()"
            )
        m = [*compress(range(len(cc)), cc)]
        ncos = len(m)
        m += compress(range(1, len(sc) + 1), sc)
        c = np.array([*compress(cc, cc), *compress(sc, sc)])
        object.__setattr__(self, "_terms", (np.array(m, dtype=np.intp), c, np.repeat(_KINDS, (ncos, len(m) - ncos))))

    def _basis(self, x, swap: bool) -> np.ndarray:
        """One row per nonzero term at the flattened points ``x``: ``cos(m x)`` for a cosine
        term, ``sin(m x)`` for a sine term; ``swap`` exchanges ``cos`` and ``sin``."""
        m, _, s = self._terms
        rows = np.multiply.outer(m, np.ravel(np.asarray(x, dtype=float)))
        k = np.count_nonzero(s > 0)
        first, second = (np.sin, np.cos) if swap else (np.cos, np.sin)
        first(rows[:k], out=rows[:k])
        second(rows[k:], out=rows[k:])
        return rows

    def value(self, x):
        _, c, _ = self._terms
        return _maybe_scalar((c @ self._basis(x, False)).reshape(np.shape(x)), np.ndim(x) == 0)

    def derivative(self, x):
        m, c, s = self._terms
        out = (-s * m * c) @ self._basis(x, True)
        return _maybe_scalar(out.reshape(np.shape(x)), np.ndim(x) == 0)


@dataclass(frozen=True)
class DiangleSpan(H1Function):
    """A diangle expansion viewed as a function; see ``seqmodel``."""

    expansion: DiangleExpansion

    @property
    def kinks(self) -> tuple[float, ...]:
        # An angle normalized to exactly -pi/2 sits on the boundary: the
        # profile there is cos(t), smooth in the interior.
        return tuple(a for a in self.expansion.angles if a > -_HALF_PI)

    @property
    def _sums(self):
        """The evaluation state ``seqmodel._span_read`` reads; an interpolant keeps its own, in long double."""
        return self.expansion._sums

    def value(self, x):
        return _maybe_scalar(seqmodel._span_read(self._sums, x, slope=False)[0], np.ndim(x) == 0)

    def derivative(self, x):
        return _maybe_scalar(seqmodel._span_read(self._sums, x, value=False)[1], np.ndim(x) == 0)

    def value_and_derivative(self, x):
        """Both from one angle reduction, one search of the table and one ``sin``/``cos`` of ``x``."""
        value, slope = seqmodel._span_read(self._sums, x)
        scalar = np.ndim(x) == 0
        return _maybe_scalar(value, scalar), _maybe_scalar(slope, scalar)


@dataclass(frozen=True)
class Sampled(H1Function):
    """A callable member with an optional derivative rule and known kinks.

    Without a derivative rule, derivatives are finite differences with
    :func:`quad.derivative_at`'s conventions on the domain: central in the
    smooth interior, right-hand at a kink and at ``-pi/2``, left-hand at
    ``pi/2``, never sampling outside the domain or across a kink.  Supply the
    rule whenever high-accuracy derivative integrals are needed.
    """

    fn: Callable
    derivative_fn: Callable | None = None
    kink_angles: tuple[float, ...] = ()

    def __post_init__(self):
        ks = tuple(sorted(float(k) for k in self.kink_angles if -_HALF_PI < float(k) < _HALF_PI))
        object.__setattr__(self, "kink_angles", ks)
        vals = quad.sample(self.fn, np.linspace(-_HALF_PI, _HALF_PI, 33), "sampled rule")
        if not np.all(np.isfinite(vals)):
            raise InputError("sampled function is non-finite on the domain")
        tol = _ENDPOINT_TOL * (1.0 + float(np.max(np.abs(vals))))
        gap = abs(float(vals[0]) - float(vals[-1]))
        if gap > tol:
            raise DomainError(
                f"endpoint values differ by {gap!r}: not a member of the space"
            )

    @property
    def kinks(self) -> tuple[float, ...]:
        return self.kink_angles

    @staticmethod
    def _call(rule: Callable, x, what: str):
        arr = np.asarray(x, dtype=float)
        out = quad.sample(rule, np.atleast_1d(arr), what)
        return _maybe_scalar(out[0] if arr.ndim == 0 else out, arr.ndim == 0)

    def value(self, x):
        return self._call(self.fn, x, "sampled rule")

    def derivative(self, x):
        if self.derivative_fn is None:
            return quad.derivative_at(self.fn, x, kinks=self.kink_angles)
        return self._call(self.derivative_fn, x, "derivative rule")


# ---------------------------------------------------------------------------
# constructors


def trig_poly(cos_coeffs: Sequence[float], sin_coeffs: Sequence[float] = ()) -> TrigPoly:
    return TrigPoly(tuple(cos_coeffs), tuple(sin_coeffs))


def constant(c: float = 1.0) -> TrigPoly:
    return TrigPoly((float(c),))


def diangle(psi: float) -> DiangleSpan:
    """The profile ``t -> sin|t - psi|`` as a function-space member."""
    return DiangleSpan(diangle_expansion(0.0, [(psi, 1.0)]))


def diangle_span(x0: float, terms: Iterable[tuple[float, float]] = ()) -> DiangleSpan:
    return DiangleSpan(diangle_expansion(x0, terms))


def sampled(fn: Callable, derivative: Callable | None = None, kinks: Sequence[float] = ()) -> Sampled:
    return Sampled(fn, derivative, tuple(kinks))


def project_endpoints(
    cos_coeffs: Sequence[float], sin_coeffs: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Minimal sine-coefficient adjustment that makes the endpoints agree.

    Subtracts the alternating odd-frequency sum from ``b_1``; handy for
    generating random members.
    """
    cc = tuple(float(c) for c in cos_coeffs)
    sc = [float(c) for c in sin_coeffs]
    if sc:
        sc[0] -= _odd_sine_sum(sc)
    return cc, tuple(sc)


# ---------------------------------------------------------------------------
# exact engine (symbolic variants)


_TWICE_HALF_PI_SINES = 2.0 * np.array(_HALF_PI_SINES)


@lru_cache(maxsize=128)
def _cos_integrals(n: int) -> np.ndarray:
    """``J(k) = int cos(k t) dt`` over the domain for ``k = 0, ..., n - 1``, exactly:
    ``2 sin(k pi/2) / k``, and ``pi`` at ``k = 0``."""
    k = np.arange(n)
    out = _TWICE_HALF_PI_SINES[k % 4] / np.maximum(k, 1)
    out[:1] = _PI
    return out


def _is_symbolic(f) -> bool:
    return isinstance(f, (TrigPoly, DiangleSpan))


def _exact_integral(f) -> float:
    """``int f`` for a symbolic member: ``pi x0 + 2 S`` for a span, ``sum a_k J(k)`` for a series."""
    if isinstance(f, DiangleSpan):
        e = f.expansion
        return e.x0 * _PI + 2.0 * e.coefficient_sum
    return float(_cos_integrals(len(f.cos_coeffs)) @ f.cos_coeffs)


def _trig_energy(f: TrigPoly, g: TrigPoly) -> float:
    """``int (f g - f' g')`` of two series by product-to-sum.

    ``cos(m t) cos(n t)`` pairs give ``((1 - mn) J(m - n) + (1 + mn) J(m + n)) / 2``,
    ``sin x sin`` pairs the same with ``J(m + n)`` negated, and ``cos x sin``
    pairs vanish by parity over the symmetric domain.  ``J(|m - n|)`` and
    ``J(m + n)`` are gathered from one ``_cos_integrals`` vector.
    """
    m, a, s = f._terms
    n, b, t = g._terms
    J = _cos_integrals(int(m.max(initial=0)) + int(n.max(initial=0)) + 1)
    mn = np.multiply.outer(m, n)
    table = (1 - mn) * J[np.abs(np.subtract.outer(m, n))] + s[:, None] * (1 + mn) * J[np.add.outer(m, n)]
    table *= np.equal.outer(s, t)
    return 0.5 * float(a @ table @ b)


def _energy_pairing(f, g) -> float:
    """``E(f, g) = int (f g - f' g')`` of a series against a span or against a series.

    Against a span ``g = x0 + sum c_j P_{a_j}`` this is
    ``x0 int f + 2 sum c_j f(a_j)`` by the profile identity
    ``E(f, P_a) = 2 f(a)``, which needs ``f`` to take equal values at both
    endpoints (see the module docstring).  Two spans pair through
    ``seq_inner`` and a span's own energy through ``_integral_and_energy``.
    """
    if isinstance(f, DiangleSpan):
        f, g = g, f
    if isinstance(g, DiangleSpan):
        e = g.expansion
        pairing = e.x0 * _exact_integral(f)
        if e.terms:
            pairing += 2.0 * float(np.asarray(e.coefficients) @ f.value(np.asarray(e.angles)))
        return pairing
    return _trig_energy(f, g)


# ---------------------------------------------------------------------------
# quadrature path, and the choice between the two paths


def _integral(f, spec: QuadratureSpec) -> float:
    """``int f``: the closed form for a symbolic member, quadrature otherwise."""
    if _is_symbolic(f):
        return _exact_integral(f)
    return quad.integrate(f.value, DELTA, f.kinks, spec)


def _quad_functionals(f, g, spec: QuadratureSpec) -> tuple[float, float, float]:
    """``(int f, int g, int (f g - f' g'))`` by one quadrature on both members' kinks, with
    stacked rows ``f, g, f g, f' g'``, or ``f, f^2, f'^2`` when ``g is f``."""

    def rows(x):
        fv, fd = f.value_and_derivative(x)
        if g is f:
            return np.stack((fv, fv * fv, fd * fd))
        gv, gd = g.value_and_derivative(x)
        return np.stack((fv, gv, fv * gv, fd * gd))

    out = quad.integrate(rows, DELTA, (*f.kinks, *g.kinks), spec).tolist()
    int_f, int_g, int_fg, int_dd = out if g is not f else (out[0], *out)
    return int_f, int_g, int_fg - int_dd


def _integral_and_energy(f, spec: QuadratureSpec) -> tuple[float, float]:
    """``(int f, int (f^2 - f'^2))``: closed forms for a symbolic member, quadrature otherwise.

    A span's energy is ``x0 int f + 2 (x0 S + Q)`` with ``Q`` from
    ``seqmodel.sin_quadratic``, the pass ``pair_measure`` reads (see the
    module docstring); its rounding is ``eps (|x0| + sum|c|)^2``.
    """
    if isinstance(f, DiangleSpan):
        e, int_f = f.expansion, _exact_integral(f)
        return int_f, e.x0 * int_f + 2.0 * (e.x0 * e.coefficient_sum + seqmodel.sin_quadratic(e))
    if isinstance(f, TrigPoly):
        return _exact_integral(f), _trig_energy(f, f)
    int_f, _, energy = _quad_functionals(f, f, spec)
    return int_f, energy


def _combine_inner(int_f: float, int_g: float, energy: float) -> float:
    return (2.0 * int_f * int_g - _PI * energy) / _PI_SQ


# ---------------------------------------------------------------------------
# functionals


def evaluate(f: H1Function, x):
    """Evaluate a member at ``x`` (scalar or array) with a domain check."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= _HALF_PI + 1e-12):  # NaN fails too
        raise DomainError(f"argument outside [-pi/2, pi/2]: {x!r}")
    return f.value(np.clip(arr, -_HALF_PI, _HALF_PI))


def mean_value(f: H1Function, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``(1/pi) int f``."""
    return _integral(f, spec) / _PI


def perimeter_functional(f: H1Function, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``int f``; reads the generalized perimeter off a width-type profile."""
    return _integral(f, spec)


def wirtinger_deficit(f: H1Function, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``int f'^2 - int (f - mean)^2``; nonnegative on the space."""
    int_f, energy = _integral_and_energy(f, spec)
    return int_f * int_f / _PI - energy


def energy_deficit(f: H1Function, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``(int f)^2 - pi int (f^2 - f'^2)``; pi times the Wirtinger deficit."""
    int_f, energy = _integral_and_energy(f, spec)
    return int_f * int_f - _PI * energy


def energy_integral(f: H1Function, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """``int (f^2 - f'^2)``; the pair measure of the body pair a width profile encodes."""
    return _integral_and_energy(f, spec)[1]


def inner_product_iso(
    f: H1Function,
    g: H1Function,
    method: str = "auto",
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """The isoperimetric inner product of two members.

    ``method`` selects the evaluation path: ``"exact"`` (closed form, both
    arguments symbolic), ``"quadrature"``, or ``"auto"`` (exact when
    available).
    """
    if method == "auto":
        method = "exact" if (_is_symbolic(f) and _is_symbolic(g)) else "quadrature"
    if method == "exact":
        if not (_is_symbolic(f) and _is_symbolic(g)):
            raise InputError("exact path requires symbolic representations on both sides")
        if isinstance(f, DiangleSpan) and isinstance(g, DiangleSpan):
            return seqmodel.seq_inner(f.expansion, g.expansion)
        return _combine_inner(_exact_integral(f), _exact_integral(g), _energy_pairing(f, g))
    if method != "quadrature":
        raise InputError(f"unknown inner-product method {method!r}")
    return _combine_inner(*_quad_functionals(f, g, spec))


def norm_iso_squared(
    f: H1Function, method: str = "auto", spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    n2 = inner_product_iso(f, f, method=method, spec=spec)
    if n2 < -_NEGATIVE_NORM_TOL:
        raise InvariantViolationError(f"squared norm is negative: {n2!r}")
    return n2


def norm_iso(f: H1Function, method: str = "auto", spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    return math.sqrt(max(0.0, norm_iso_squared(f, method=method, spec=spec)))


# ---------------------------------------------------------------------------
# classical Sobolev inner product on an arbitrary interval


def _as_rule(f, interval: Interval) -> tuple[Callable, Callable, tuple[float, ...]]:
    """Normalize ``f`` to ``(value, both, kinks)`` on ``interval``: ``both(x)`` samples the
    value and the derivative at the points ``x``, a member's through ``value_and_derivative``.

    Accepts a member, a ``(value, derivative)`` or ``(value, derivative,
    kinks)`` tuple, or a bare callable, whose derivative is then
    :func:`quad.derivative_at` on ``interval`` (adequate for smooth callables
    only).
    """
    if isinstance(f, H1Function):
        return f.value, f.value_and_derivative, f.kinks
    if isinstance(f, (tuple, list)):
        if len(f) == 2:
            (v, d), ks = f, ()
        elif len(f) == 3:
            v, d, ks = f
            ks = tuple(float(k) for k in ks)
        else:
            raise InputError("expected (value, derivative[, kinks])")
    elif callable(f):
        v, d, ks = f, (lambda x: quad.derivative_at(f, x, interval=interval)), ()
    else:
        raise InputError(f"not a function-like object: {f!r}")
    return v, (lambda x: (quad.sample(v, x, "rule"), quad.sample(d, x, "rule"))), ks


def inner_product_classical(
    f,
    g,
    interval=(0.0, 1.0),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """First-order Sobolev inner product ``int_a^b (f g + f' g')``.

    Unlike the isoperimetric product this imposes no endpoint condition, so
    besides members it accepts plain callables or ``(value, derivative)``
    pairs; kinks outside the interval are ignored.
    """
    iv = quad._coerce_interval(interval)
    _, f_both, fk = _as_rule(f, iv)
    _, g_both, gk = _as_rule(g, iv)

    def integrand(x):
        (f0, f1), (g0, g1) = f_both(x), g_both(x)
        return f0 * g0 + f1 * g1

    return quad.integrate(integrand, iv, (*fk, *gk), spec)


# ---------------------------------------------------------------------------
# Hoelder ratio


def holder_ratio(
    f: H1Function,
    x,
    h,
    norm: float | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """``|f(x+h) - f(x)| / (sqrt(pi) ||f|| sqrt(|h|))``; at most 1 on the space.

    Vectorizes over broadcastable ``x`` and ``h``.  A sweep reads ``f`` once,
    by one ``f.value`` call at the distinct points of ``x`` and ``x + h``
    (a grid of pairs shares its points).  Pass a precomputed ``norm`` when
    sweeping grids.
    """
    xa = np.asarray(x, dtype=float)
    ha = np.asarray(h, dtype=float)
    scalar = xa.ndim == 0 and ha.ndim == 0
    xa, ha = np.broadcast_arrays(np.atleast_1d(xa), np.atleast_1d(ha))
    if np.any(ha == 0.0):
        raise DomainError("increment h must be nonzero")
    if not (np.all(np.abs(xa) <= _HALF_PI + 1e-12) and np.all(np.abs(xa + ha) <= _HALF_PI + 1e-12)):
        raise DomainError("x and x + h must both lie in [-pi/2, pi/2]")
    if norm is None:
        norm = norm_iso(f, spec=spec)
    lo = np.clip(xa, -_HALF_PI, _HALF_PI)
    hi = np.clip(xa + ha, -_HALF_PI, _HALF_PI)
    points, where = np.unique(np.concatenate((lo.ravel(), hi.ravel())), return_inverse=True)
    values = f.value(points)[where]
    num = np.abs(values[lo.size :] - values[: lo.size]).reshape(lo.shape)
    if norm == 0.0:
        if float(np.max(num, initial=0.0)) > 1e-12:
            raise InvariantViolationError("zero-norm member with a nonzero increment")
        out = np.zeros(num.shape)
        return _maybe_scalar(out[0] if scalar else out, scalar)
    out = num / (_SQRT_PI * norm * np.sqrt(np.abs(ha)))
    return _maybe_scalar(out[0] if scalar else out, scalar)

"""Seeded verification suites behind the ``verify`` CLI command.

Each suite turns one family of claimed identities or inequalities into a
deterministic battery of numeric checks.  All randomness flows from a
SplitMix64 stream seeded on the command line, so a report is reproducible
byte for byte (apart from its wall-clock duration).  A check records the
extremal value it observed, the tolerance it was held to, and the direction
of the comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import convexgeo, funcspace, kernel, seqmodel
from .errors import InputError
from .funcspace import DiangleSpan, TrigPoly, constant, diangle_span, trig_poly
from .rng import SplitMix64

__all__ = ["Check", "VerifyReport", "SUITES", "run_suite", "dense_sine_sum"]

_HALF_PI = 0.5 * math.pi
_PI = math.pi
_MAX_EXTRA_FREQ = 5  # a random series has 2 to 6 cosine terms


@dataclass(frozen=True)
class Check:
    """One verification measurement compared against a tolerance."""

    check_id: str
    value: float
    tolerance: float
    op: str  # "<=" or ">="
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise InputError(f"unknown comparison {self.op!r}")
        v = float(self.value)
        ok = (v <= self.tolerance) if self.op == "<=" else (v >= self.tolerance)
        if not math.isfinite(v):
            ok = False
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "passed", bool(ok))

    def document(self) -> dict:
        value = self.value if math.isfinite(self.value) else repr(self.value)
        return {
            "id": self.check_id,
            "op": self.op,
            "status": "pass" if self.passed else "fail",
            "tolerance": float(self.tolerance),
            "value": value,
        }


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    checks: tuple[Check, ...]
    duration_sec: float

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def document(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.check_id)
        return {
            "suite": self.suite,
            "seed": self.seed,
            "overall": "pass" if self.overall else "fail",
            "counts": {
                "pass": sum(c.passed for c in self.checks),
                "fail": sum(not c.passed for c in self.checks),
            },
            "checks": [c.document() for c in ordered],
            "duration_sec": self.duration_sec,
        }


# ---------------------------------------------------------------------------
# random members


def dense_sine_sum(x: seqmodel.DiangleExpansion, y: seqmodel.DiangleExpansion) -> float:
    """``sum_ij cx_i cy_j sin|a_i - b_j|`` by the dense sine matrix, the oracle for ``seqmodel._sine_pass``."""
    return float(np.asarray(x.coefficients) @ np.sin(np.abs(np.subtract.outer(x.angles, y.angles))) @ y.coefficients)


def _random_trig(rng: SplitMix64) -> TrigPoly:
    n_cos = 2 + rng.below(_MAX_EXTRA_FREQ)
    cos = [rng.uniform(-1.0, 1.0) for _ in range(n_cos)]
    sin = [rng.uniform(-1.0, 1.0) for _ in range(n_cos - 1)]
    cc, sc = funcspace.project_endpoints(cos, sin)
    return trig_poly(cc, sc)


def _random_span(rng: SplitMix64, max_terms: int = 6) -> DiangleSpan:
    """The count first, then the constant, then a coefficient before its angle: not ``_random_expansion``'s order."""
    m = 1 + rng.below(max_terms)
    base = rng.uniform(-1.0, 1.0)
    terms = []
    for _ in range(m):
        c = rng.uniform(-1.0, 1.0)
        terms.append((rng.uniform(-_HALF_PI, _HALF_PI), c))
    return diangle_span(base, terms)


def _random_expansion(
    rng: SplitMix64, x0: tuple[float, float] | None, coeff: tuple[float, float], max_terms: int
) -> seqmodel.DiangleExpansion:
    """A constant drawn from the range ``x0`` (0 without a draw when ``None``), then ``1 + below(max_terms)``
    terms, each an angle in ``[-pi/2, pi/2)`` and then a coefficient from the range ``coeff``."""
    base = rng.uniform(*x0) if x0 else 0.0
    terms = [(rng.uniform(-_HALF_PI, _HALF_PI), rng.uniform(*coeff)) for _ in range(1 + rng.below(max_terms))]
    return seqmodel.diangle_expansion(base, terms)


def _random_nodes(rng: SplitMix64, lo: float, hi: float, digits: int, k: int) -> list[float]:
    """``2 + below(k)`` draws from ``[lo, hi)`` rounded to ``digits`` places, sorted, duplicates dropped."""
    return sorted(set(round(rng.uniform(lo, hi), digits) for _ in range(2 + rng.below(k))))


def _random_member(rng: SplitMix64):
    return _random_trig(rng) if rng.below(2) == 0 else _random_span(rng)


def _trig_combo(a: float, f: TrigPoly, b: float, g: TrigPoly) -> TrigPoly:
    n_cos = max(len(f.cos_coeffs), len(g.cos_coeffs))
    n_sin = max(len(f.sin_coeffs), len(g.sin_coeffs))

    def at(seq, i):
        return seq[i] if i < len(seq) else 0.0

    cos = [a * at(f.cos_coeffs, i) + b * at(g.cos_coeffs, i) for i in range(n_cos)]
    sin = [a * at(f.sin_coeffs, i) + b * at(g.sin_coeffs, i) for i in range(n_sin)]
    return TrigPoly(tuple(cos), tuple(sin))


def _span_combo(a: float, f: DiangleSpan, b: float, g: DiangleSpan) -> DiangleSpan:
    ef, eg = f.expansion, g.expansion
    terms = [(ang, a * c) for ang, c in ef.terms] + [(ang, b * c) for ang, c in eg.terms]
    return diangle_span(a * ef.x0 + b * eg.x0, terms)


def _fixed_members() -> list:
    return [
        constant(1.0),
        trig_poly([0.0, 1.0]),
        trig_poly([0.0, 0.0, 1.0]),
        trig_poly([0.0], [0.0, 1.0]),
        diangle_span(0.0, [(0.7, 1.0), (-0.3, -1.0)]),
        kernel.kernel_function(2.0, 0.2),
    ]


# ---------------------------------------------------------------------------
# suites


def _suite_positivity(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []
    members = [_random_trig(rng) for _ in range(500)]
    members += [_random_span(rng) for _ in range(100)]

    norms, energies, wirtingers, ew_gaps = [], [], [], []
    for f in members:
        n2 = funcspace.inner_product_iso(f, f, method="exact")
        e = funcspace.energy_deficit(f)
        w = funcspace.wirtinger_deficit(f)
        norms.append(n2)
        energies.append(e)
        wirtingers.append(w)
        ew_gaps.append(abs(e - _PI * w))
    checks.append(Check("positivity/min-norm2", min(norms), -1e-9, ">="))
    checks.append(Check("positivity/min-energy-deficit", min(energies), -1e-9, ">="))
    checks.append(Check("positivity/min-wirtinger-deficit", min(wirtingers), -1e-9, ">="))
    checks.append(Check("positivity/energy-wirtinger-gap", max(ew_gaps), 1e-9, "<="))

    floor = min(funcspace.norm_iso_squared(f, method="exact") for f in _fixed_members())
    checks.append(Check("positivity/definiteness-floor", floor, 1e-6, ">="))

    sym_gap = 0.0
    bil_gap = 0.0
    for _ in range(50):
        kind = rng.below(2)
        if kind == 0:
            f, g, h = (_random_trig(rng) for _ in range(3))
            combo = _trig_combo
        else:
            f, g, h = (_random_span(rng) for _ in range(3))
            combo = _span_combo
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        ip = funcspace.inner_product_iso
        sym_gap = max(sym_gap, abs(ip(f, g, method="exact") - ip(g, f, method="exact")))
        lhs = ip(combo(a, f, b, g), h, method="exact")
        rhs = a * ip(f, h, method="exact") + b * ip(g, h, method="exact")
        bil_gap = max(bil_gap, abs(lhs - rhs))
    checks.append(Check("positivity/symmetry-gap", sym_gap, 1e-10, "<="))
    checks.append(Check("positivity/bilinearity-gap", bil_gap, 1e-10, "<="))

    xq_gap = 0.0
    for _ in range(30):
        f = _random_member(rng)
        g = _random_member(rng)
        exact = funcspace.inner_product_iso(f, g, method="exact")
        quadr = funcspace.inner_product_iso(f, g, method="quadrature")
        xq_gap = max(xq_gap, abs(exact - quadr))
    checks.append(Check("positivity/exact-quadrature-gap", xq_gap, 1e-9, "<="))
    return checks


def _suite_reproducing(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []
    members = [constant(1.0)]
    members += [funcspace.diangle(p) for p in (-1.2, -0.5, 0.0, 0.7, 1.3)]
    members += [kernel.kernel_function(2.0, x) for x in (-1.4, -0.6, 0.2, 0.9, 1.5)]
    members += [
        diangle_span(
            rng.uniform(-1.0, 1.0),
            [(rng.uniform(-_HALF_PI, _HALF_PI), rng.uniform(-1.0, 1.0)) for _ in range(10)],
        )
        for _ in range(20)
    ]
    ys = np.linspace(-_HALF_PI, _HALF_PI, 101)

    exact_res = 0.0
    for f in members:
        r = kernel.reproducing_residual(f, ys, method="exact")
        exact_res = max(exact_res, float(np.max(np.abs(r))))
    checks.append(Check("reproducing/exact-residual", exact_res, 1e-10, "<="))

    quad_res = 0.0
    smooth = [trig_poly([0.0, 1.0]), trig_poly([0.0, 0.0, 1.0], [0.0, 0.3])]
    quad_ys = np.array([-1.3, -0.8, -0.2, 0.0, 0.4, 1.0, 1.5])
    for f in smooth:
        r = kernel.reproducing_residual(f, quad_ys, method="quadrature")
        quad_res = max(quad_res, float(np.max(np.abs(r))))
    checks.append(Check("reproducing/quadrature-residual", quad_res, 1e-7, "<="))

    grid = np.linspace(-_HALF_PI, _HALF_PI, 21)
    gram_gap = 0.0
    for x in grid:
        kx = kernel.kernel_function(2.0, float(x))
        for y in grid:
            ky = kernel.kernel_function(2.0, float(y))
            ip = funcspace.inner_product_iso(kx, ky, method="exact")
            gram_gap = max(gram_gap, abs(ip - kernel.kernel_eval(float(x), float(y))))
    checks.append(Check("reproducing/kernel-gram-gap", gram_gap, 1e-10, "<="))

    # negative control: away from the reproducing parameter, sections with a
    # mean-one test function must show the predicted first-order residual
    off = abs(kernel.reproducing_residual(constant(1.0), 0.3, theta=1.5, method="exact"))
    checks.append(Check("reproducing/off-theta-control", off, 0.1, ">="))
    return checks


def _suite_gram_psd(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []
    thetas = (1.0, 1.5, 2.0, 5.0)
    eig_ratio = math.inf
    for i in range(200):
        nodes = _random_nodes(rng, -_HALF_PI, _HALF_PI, 6, 31)
        g = kernel.gram_system(nodes, theta=thetas[i % 4])
        eig_ratio = min(eig_ratio, g.min_eig / max(1.0, g.max_eig))
    checks.append(Check("gram-psd/min-eigenvalue-ratio", eig_ratio, -1e-9, ">="))

    interp_res = 0.0
    power_nodes = 0.0
    for _ in range(30):
        nodes = _random_nodes(rng, -1.5, 1.5, 5, 9)
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        itp = kernel.interpolate(nodes, values)
        arr = np.asarray(nodes)
        dense = kernel.kernel_eval(arr[:, None], arr[None, :]) @ np.asarray(itp.coeffs)
        interp_res = max(interp_res, float(np.max(np.abs(dense - np.asarray(values)))))
        g = kernel.gram_system(nodes)
        power_nodes = max(power_nodes, float(np.max(kernel.power_function(g, arr))))
    checks.append(Check("gram-psd/interpolation-residual", interp_res, 1e-8, "<="))
    checks.append(Check("gram-psd/power-at-nodes", power_nodes, 1e-7, "<="))

    mono_gap = -math.inf
    grid = np.linspace(-_HALF_PI, _HALF_PI, 41)
    for _ in range(20):
        nodes = _random_nodes(rng, -1.5, 1.5, 5, 9)
        extra = round(rng.uniform(-1.5, 1.5), 5)
        if any(abs(extra - y) < 1e-6 for y in nodes):
            continue
        small = kernel.gram_system(nodes)
        big = kernel.gram_system(sorted([*nodes, extra]))
        diff = kernel.power_function(big, grid) - kernel.power_function(small, grid)
        mono_gap = max(mono_gap, float(np.max(diff)))
    checks.append(Check("gram-psd/power-monotonicity-gap", mono_gap, 1e-9, "<="))

    # minimality of the interpolant's norm: perturbing by any kernel
    # combination that vanishes on the nodes can only increase the norm, and
    # the perturbation's own norm must reproduce the power function
    min_norm_gap = math.inf
    power_norm_gap = 0.0
    for _ in range(15):
        nodes = _random_nodes(rng, -1.4, 1.4, 4, 5)
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        itp = kernel.interpolate(nodes, values)
        g = kernel.gram_system(nodes)
        z = rng.uniform(-1.5, 1.5)
        if any(abs(z - y) < 1e-3 for y in nodes):
            z += 0.01
        coef = g.solve(g.kernel_column(np.asarray(z)))
        bump = diangle_span(
            2.0 * (1.0 - float(np.sum(coef))),
            [(z, -_HALF_PI)] + [(y, _HALF_PI * float(a)) for y, a in zip(nodes, coef)],
        )
        bump_n2 = funcspace.norm_iso_squared(bump, method="exact")
        pw = float(kernel.power_function(g, z))
        power_norm_gap = max(power_norm_gap, abs(bump_n2 - pw * pw))
        s_n2 = funcspace.norm_iso_squared(itp, method="exact")
        for c in (-2.0, -0.5, 0.5, 2.0):
            h = _span_combo(1.0, itp, c, bump)
            min_norm_gap = min(
                min_norm_gap, funcspace.norm_iso_squared(h, method="exact") - s_n2
            )
    checks.append(Check("gram-psd/power-norm-gap", power_norm_gap, 1e-9, "<="))
    checks.append(Check("gram-psd/min-norm-gap", min_norm_gap, -1e-9, ">="))

    # the structured solve and closed-form power function against dense
    # numpy.linalg, on plain sets and on triples 1e-6 apart (a lone triple
    # leaves one gap within 2e-6 of pi): the worst normwise backward error
    # (infinity norms) over 1e-13 and the worst |p^2 - dense| over
    # 1e-10 theta, as one ratio
    worst = 0.0
    at = grid[::8]
    for i in range(20):
        cells = 1 + rng.below(4) if i % 2 else 2 + rng.below(8)
        step = 3.0 / cells
        centres = [-1.5 + (j + 0.1 + 0.8 * rng.uniform()) * step for j in range(cells)]
        nodes = [c + 1e-6 * k for c in centres for k in range(3)] if i % 2 else centres
        g = kernel.gram_system(nodes, theta=thetas[i % 4])
        b = np.asarray([rng.uniform(-1.0, 1.0) for _ in nodes])
        x, k = g.solve(b), g.matrix
        scale = np.abs(k).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        cols = g.kernel_column(at)
        dense_p2 = g.theta - np.einsum("ij,ji->i", cols, np.linalg.solve(k, cols.T))
        p2_gap = np.abs(kernel.power_function(g, at) ** 2 - np.maximum(0.0, dense_p2)).max()
        worst = max(worst, np.abs(k @ x - b).max() / scale / 1e-13, p2_gap / (1e-10 * g.theta))
    checks.append(Check("gram-psd/structured-vs-dense", worst, 1.0, "<="))
    return checks


def _suite_sequence(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []

    agree = 0.0
    for _ in range(300):
        x = _random_expansion(rng, (-1.0, 1.0), (-1.0, 1.0), 5)
        y = _random_expansion(rng, (-1.0, 1.0), (-1.0, 1.0), 5)
        model = seqmodel.seq_inner(x, y)
        quadr = funcspace.inner_product_iso(
            DiangleSpan(x), DiangleSpan(y), method="quadrature"
        )
        agree = max(agree, abs(model - quadr))
    checks.append(Check("sequence/model-agreement", agree, 1e-9, "<="))

    rearr = 0.0
    gap_identity = 0.0
    gap_min = math.inf
    for _ in range(200):
        x = _random_expansion(rng, (-2.0, 2.0), (-2.0, 2.0), 6)
        n2 = seqmodel.seq_norm_squared(x)
        s = x.coefficient_sum
        half = _HALF_PI * x.x0 + s
        # seq_inner's sorted pass against the sine double sum read as sum_i c_i f(a_i)
        # through the prefix-sum evaluator, by sin_quadratic and by the dense oracle
        profiles = seqmodel.expansion_value(x, np.asarray(x.angles)) - x.x0
        gram = 2.0 * s * s - _HALF_PI * float(np.asarray(x.coefficients) @ profiles)
        form3 = (4.0 / (_PI * _PI)) * (half * half - s * s + gram)
        form4 = (4.0 / (_PI * _PI)) * (half * half + s * s - _HALF_PI * seqmodel.sin_quadratic(x))
        form5 = (4.0 / (_PI * _PI)) * (half * half + s * s - _HALF_PI * dense_sine_sum(x, x))
        scale = 1.0 + abs(n2)
        rearr = max(rearr, *(abs(form - n2) / scale for form in (form3, form4, form5)))
        gap = seqmodel.sequence_isoperimetric_gap(x)
        gap_min = min(gap_min, gap)
        gap_identity = max(
            gap_identity, abs(gap - (_PI * _PI / 4.0) * n2) / (1.0 + abs(gap))
        )
    checks.append(Check("sequence/rearrangement-gap", rearr, 1e-12, "<="))
    checks.append(Check("sequence/gap-identity-gap", gap_identity, 1e-12, "<="))
    checks.append(Check("sequence/gap-min", gap_min, -1e-9, ">="))

    poly_gap_min = math.inf
    for _ in range(200):
        x = _random_expansion(rng, None, (0.01, 2.0), 7)
        poly_gap_min = min(poly_gap_min, seqmodel.polygon_isoperimetric_gap(x))
    checks.append(Check("sequence/polygon-gap-min", poly_gap_min, -1e-9, ">="))

    cal = seqmodel.calibrate_area_constant()
    checks.append(
        Check("sequence/area-calibration-gap", abs(cal - seqmodel.AREA_CONSTANT), 1e-9, "<=")
    )

    # the prefix-sum evaluator against the term-by-term sum, over 1 + sum|c|: angles
    # 1e-15 apart and at -pi/2, cancelling coefficients, points on kinks and at +-pi/2
    worst = 0.0
    for _ in range(10):
        a, e = rng.uniform(-1.5, 1.5), _random_span(rng).expansion
        e = seqmodel.diangle_expansion(e.x0, [*e.terms, (a, 1e3), (a + 1e-15, -1e3), (_HALF_PI, 0.5)])
        angs, coeffs = np.asarray(e.angles), np.asarray(e.coefficients)
        pts = np.concatenate((np.linspace(-_HALF_PI, _HALF_PI, 9), angs))
        d = seqmodel._reduce_angles(pts)[:, None] - angs
        value = seqmodel.expansion_value(e, pts) - e.x0 - np.sin(np.abs(d)) @ coeffs
        slope = seqmodel.expansion_derivative(e, pts) - np.where(d >= 0.0, 1.0, -1.0) * np.cos(d) @ coeffs
        worst = max(worst, float(np.abs(np.concatenate((value, slope))).max()) / (1.0 + np.abs(coeffs).sum()))
    checks.append(Check("sequence/evaluator-vs-terms", worst, 1e-13, "<="))
    return checks


def _random_zonotope(rng: SplitMix64, max_gens: int = 8) -> convexgeo.SymmetricPolygon:
    gens = [
        (rng.uniform(-_HALF_PI, _HALF_PI), rng.uniform(0.1, 1.5))
        for _ in range(1 + rng.below(max_gens))
    ]
    return convexgeo.zonotope_from_generators(gens)


def _suite_geometry(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []

    iso_gap = 0.0
    deficit_min = math.inf
    energy_gap = 0.0
    measure_gap = 0.0
    for i in range(100):
        u = _random_zonotope(rng)
        v = convexgeo.point() if i % 5 == 0 else _random_zonotope(rng)
        pair = convexgeo.body_pair(u, v)
        n2 = convexgeo.convex_norm_squared(pair)
        iso_gap = max(iso_gap, convexgeo.pair_norm_agreement(pair) / (1.0 + n2))
        deficit = convexgeo.pair_deficit(pair)
        deficit_min = min(deficit_min, deficit)
        if i % 10 == 0:
            # sampled, so the integrals run by quadrature rather than the closed forms
            profile = convexgeo.pair_to_function(pair)
            f = funcspace.sampled(profile.value, profile.derivative, profile.kinks)
            energy_gap = max(energy_gap, abs(deficit - 4.0 * funcspace.energy_deficit(f)))
            measure_gap = max(
                measure_gap,
                abs(funcspace.energy_integral(f) - convexgeo.pair_measure(pair)),
            )
    checks.append(Check("geometry/isometry-gap", iso_gap, 1e-7, "<="))
    checks.append(Check("geometry/deficit-min", deficit_min, -1e-9, ">="))
    checks.append(Check("geometry/energy-deficit-gap", energy_gap, 1e-7, "<="))
    checks.append(Check("geometry/measure-gap", measure_gap, 1e-7, "<="))

    cauchy_rel = 0.0
    width_add = 0.0
    vertex_gap = 0.0
    grid = np.linspace(-_HALF_PI, _HALF_PI, 181)
    for _ in range(10):
        u = _random_zonotope(rng)
        v = _random_zonotope(rng)
        cauchy_rel = max(
            cauchy_rel, convexgeo.cauchy_check(u) / (1.0 + convexgeo.perimeter(u))
        )
        s = convexgeo.minkowski_sum(u, v)
        wu, wv, ws = (convexgeo.width(body, grid) for body in (u, v, s))
        width_add = max(width_add, float(np.max(np.abs(ws - wu - wv))) / max(1.0, s.scale))
        for body, w in ((u, wu), (v, wv), (s, ws)):
            gap = np.max(np.abs(w - convexgeo._support_width(body.vertex_array, grid)))
            vertex_gap = max(vertex_gap, float(gap) / max(1.0, body.scale))
    checks.append(Check("geometry/cauchy-gap", cauchy_rel, 1e-8, "<="))
    checks.append(Check("geometry/width-additivity-gap", width_add, 1e-10, "<="))
    checks.append(Check("geometry/profile-vertex-gap", vertex_gap, 1e-10, "<="))

    # equivalence must survive adding a common body to both sides and must
    # reject a one-sided addition
    equiv_ok = 1.0
    for _ in range(5):
        u, v = _random_zonotope(rng, 4), _random_zonotope(rng, 4)
        q = convexgeo.segment(rng.uniform(-1.0, 1.0), 1.0 + rng.uniform(0.0, 1.0))
        a = convexgeo.body_pair(u, v)
        b = convexgeo.body_pair(convexgeo.minkowski_sum(u, q), convexgeo.minkowski_sum(v, q))
        c = convexgeo.body_pair(convexgeo.minkowski_sum(u, q), v)
        if not (
            convexgeo.pair_equivalent(a, a)
            and convexgeo.pair_equivalent(a, b)
            and convexgeo.pair_equivalent(b, a)
            and not convexgeo.pair_equivalent(a, c)
        ):
            equiv_ok = 0.0
    checks.append(Check("geometry/equivalence-relation", equiv_ok, 1.0, ">="))

    disc = convexgeo.body_pair(convexgeo.regular_polygon(64), convexgeo.point())
    disc_n2 = convexgeo.convex_norm_squared(disc)
    checks.append(Check("geometry/disc-norm-gap", abs(disc_n2 - 1.0), 0.01, "<="))
    f_disc = convexgeo.pair_to_function(disc)
    prof_gap = float(np.max(np.abs(f_disc.value(grid) - 1.0)))
    checks.append(Check("geometry/disc-profile-gap", prof_gap, 0.01, "<="))

    bridge = 0.0
    for _ in range(50):
        x = _random_expansion(rng, None, (0.05, 1.0), 6)
        zono = convexgeo.zonotope_from_generators([(a, 2.0 * c) for a, c in x.terms])
        pair = convexgeo.body_pair(zono, convexgeo.point())
        bridge = max(
            bridge,
            abs(seqmodel.seq_norm_squared(x) - convexgeo.convex_norm_squared(pair)),
        )
    checks.append(Check("geometry/bridge-gap", bridge, 1e-9, "<="))

    cal = convexgeo.calibrate_width_scale()
    checks.append(
        Check("geometry/width-scale-gap", abs(cal - convexgeo.WIDTH_SCALE), 1e-15, "<=")
    )
    return checks


def _suite_holder(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []
    members = [
        trig_poly([0.0, 1.0]),
        funcspace.diangle(0.0),
        kernel.kernel_function(2.0, 0.4),
        _random_span(rng, max_terms=8),
        _random_trig(rng),
    ]
    grid = np.linspace(-_HALF_PI, _HALF_PI, 101)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    mask = np.triu(np.ones_like(xs, dtype=bool), k=1)
    x_flat = xs[mask]
    h_flat = (ys - xs)[mask]

    # one plan of the grid for every member: each is read at the same points
    # in the same batch as holder_ratio reads it
    plan = funcspace._holder_pairs(x_flat, h_flat)
    worst = 0.0
    for f in members:
        n = funcspace.norm_iso(f, method="exact")
        r = funcspace._holder_sweep(f, plan, n)
        worst = max(worst, float(np.max(r)))
    checks.append(Check("holder/max-ratio", worst, 1.0 + 1e-9, "<="))

    # near-extremal member: a difference of close kernel sections approaches
    # the constant from below
    h = 1e-3
    g = diangle_span(0.0, [(0.2 + h, -_HALF_PI), (0.2, _HALF_PI)])
    ratio = funcspace.holder_ratio(g, 0.2, h, norm=funcspace.norm_iso(g, method="exact"))
    checks.append(Check("holder/near-extremal-ratio", float(ratio), 0.9999, ">="))

    # rough negative control: a cube-root cusp has no square-integrable
    # derivative, and its raw quotient |f(h) - f(0)| / sqrt(h) blows up
    hh = 1e-8
    quotient = abs(hh ** (1.0 / 3.0)) / math.sqrt(hh)
    checks.append(Check("holder/rough-control", quotient, 20.0, ">="))
    return checks


def _suite_classical(rng: SplitMix64) -> list[Check]:
    checks: list[Check] = []
    members = [
        (np.cos, lambda x: -np.sin(x)),
        (lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x)),
        (lambda x: np.asarray(x) ** 3 - np.asarray(x), lambda x: 3.0 * np.asarray(x) ** 2 - 1.0),
        (np.exp, np.exp),
    ]
    res = 0.0
    ys = np.array([0.0, 0.3, 0.7, 1.0])
    for f in members:
        r = kernel.classical_reproducing_residual(f, ys, 0.0, 1.0)
        res = max(res, float(np.max(np.abs(r))))
    checks.append(Check("classical/reproduction-residual", res, 1e-7, "<="))

    grid = np.linspace(0.0, 1.0, 17)
    xs, ys = np.meshgrid(grid, grid)
    sym = float(
        np.max(
            np.abs(
                kernel.classical_kernel_eval(0.0, 1.0, xs, ys)
                - kernel.classical_kernel_eval(0.0, 1.0, ys, xs)
            )
        )
    )
    checks.append(Check("classical/symmetry-gap", sym, 1e-14, "<="))

    eig_min = math.inf
    for _ in range(25):
        nodes = np.asarray(_random_nodes(rng, 0.0, 1.0, 5, 9))
        mat = kernel.classical_kernel_eval(0.0, 1.0, nodes[:, None], nodes[None, :])
        w = np.linalg.eigvalsh(mat)
        eig_min = min(eig_min, float(w[0]) / max(1.0, float(w[-1])))
    checks.append(Check("classical/min-eigenvalue-ratio", eig_min, -1e-9, ">="))
    return checks


SUITES = {
    "positivity": _suite_positivity,
    "reproducing": _suite_reproducing,
    "gram-psd": _suite_gram_psd,
    "sequence": _suite_sequence,
    "geometry": _suite_geometry,
    "holder": _suite_holder,
    "classical-kernel": _suite_classical,
}


def run_suite(name: str, seed: int = 0) -> VerifyReport:
    """Run one named suite (or ``"all"``) from the given seed."""
    if name != "all" and name not in SUITES:
        known = ", ".join(sorted([*SUITES, "all"]))
        raise InputError(f"unknown suite {name!r}; expected one of: {known}")
    start = time.perf_counter()
    checks: list[Check] = []
    if name == "all":
        for suite_name in sorted(SUITES):
            checks.extend(SUITES[suite_name](SplitMix64(seed)))
    else:
        checks = SUITES[name](SplitMix64(seed))
    duration = time.perf_counter() - start
    return VerifyReport(name, int(seed), tuple(checks), duration)

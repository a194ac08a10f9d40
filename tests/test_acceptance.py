"""Acceptance gate for the package.

Each test below checks one shipped guarantee end to end and prints a single
``ACCEPTANCE NN name: PASS/FAIL`` line with the measured quantity next to its
bound, so a ``pytest -v`` run of this module reads as a checklist.  The final
test enforces the runtime budget for the whole module.
"""

import math
import time

import numpy as np

from isorkhs import convexgeo, funcspace, kernel, seqmodel, verify
from isorkhs.rng import SplitMix64

_T0 = time.perf_counter()

HALF_PI = 0.5 * math.pi


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _random_span(rng, n_terms):
    return funcspace.diangle_span(
        rng.uniform(-1.0, 1.0),
        [(rng.uniform(-HALF_PI, HALF_PI), rng.uniform(-1.0, 1.0)) for _ in range(n_terms)],
    )


def _random_trig(rng):
    cos = [rng.uniform(-1.0, 1.0) for _ in range(5)]
    sin = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    return funcspace.trig_poly(*funcspace.project_endpoints(cos, sin))


def _random_expansion(rng):
    terms = [
        (rng.uniform(-HALF_PI, HALF_PI), rng.uniform(-1.0, 1.0))
        for _ in range(1 + rng.below(5))
    ]
    return seqmodel.diangle_expansion(rng.uniform(-1.0, 1.0), terms)


def _random_zonotope(rng, max_gens=4):
    gens = [
        (rng.uniform(-HALF_PI, HALF_PI), rng.uniform(0.1, 1.2))
        for _ in range(1 + rng.below(max_gens))
    ]
    return convexgeo.zonotope_from_generators(gens)


def _distinct_nodes(rng, size):
    while True:
        nodes = sorted(rng.uniform(-HALF_PI, HALF_PI) for _ in range(size))
        if size < 2 or min(b - a for a, b in zip(nodes, nodes[1:])) > 1e-6:
            return nodes


def test_criterion_01_unit_inner_product():
    one = funcspace.constant()
    exact = funcspace.inner_product_iso(one, one, method="exact")
    quad_gap = abs(funcspace.inner_product_iso(one, one, method="quadrature") - 1.0)
    ok = exact == 1.0 and quad_gap <= 1e-11
    assert _verdict(
        1, "unit-inner-product", ok, f"exact {exact!r} == 1.0, quadrature gap {quad_gap:.3e} <= 1e-11"
    )


def test_criterion_02_reproducing_property():
    rng = SplitMix64(2)
    ys = np.linspace(-HALF_PI, HALF_PI, 101)
    exact_members = [funcspace.constant()]
    exact_members += [funcspace.diangle(rng.uniform(-HALF_PI, HALF_PI)) for _ in range(5)]
    exact_members += [kernel.kernel_function(2.0, rng.uniform(-HALF_PI, HALF_PI)) for _ in range(5)]
    exact_members += [_random_span(rng, 10) for _ in range(20)]
    worst_exact = max(float(np.max(np.abs(kernel.reproducing_residual(f, ys, method="exact")))) for f in exact_members)
    # the scalar call is the one-point sweep
    worst_exact = max(worst_exact, abs(kernel.reproducing_residual(exact_members[-1], float(ys[37]), method="exact")))
    quad_members = [
        funcspace.trig_poly((0.0, 1.0)),
        funcspace.trig_poly((0.0, 0.0, 1.0), (0.0, 0.3)),
    ]
    worst_quad = max(
        float(np.max(np.abs(kernel.reproducing_residual(f, ys, method="quadrature")))) for f in quad_members
    )
    ok = worst_exact <= 1e-10 and worst_quad <= 1e-7
    assert _verdict(
        2,
        "reproducing-property",
        ok,
        f"exact residual {worst_exact:.3e} <= 1e-10, quadrature residual {worst_quad:.3e} <= 1e-7",
    )


def test_criterion_03_profile_difference_norm():
    rng = SplitMix64(3)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-HALF_PI, HALF_PI)
        xh = rng.uniform(-HALF_PI, HALF_PI)
        f = funcspace.diangle_span(0.0, [(xh, 1.0), (x, -1.0)])
        n2 = funcspace.norm_iso_squared(f, method="exact")
        worst = max(worst, abs(n2 - (4.0 / math.pi) * math.sin(abs(xh - x))))
    assert _verdict(3, "profile-difference-norm", worst <= 1e-10, f"gap {worst:.3e} <= 1e-10")


def test_criterion_04_positivity():
    rng = SplitMix64(4)
    min_deficit = math.inf
    min_norm2 = math.inf
    worst_identity = 0.0
    for _ in range(500):
        f = _random_trig(rng)
        e = funcspace.energy_deficit(f)
        min_deficit = min(min_deficit, e)
        min_norm2 = min(min_norm2, funcspace.norm_iso_squared(f, method="exact"))
        worst_identity = max(
            worst_identity, abs(e - math.pi * funcspace.wirtinger_deficit(f))
        )
    ok = min_deficit >= -1e-9 and min_norm2 >= -1e-9 and worst_identity <= 1e-9
    assert _verdict(
        4,
        "positivity",
        ok,
        f"min deficit {min_deficit:.3e} >= -1e-9, min norm2 {min_norm2:.3e} >= -1e-9, "
        f"identity gap {worst_identity:.3e} <= 1e-9",
    )


def test_criterion_05_gram_positive_semidefinite():
    rng = SplitMix64(5)
    thetas = (1.0, 1.5, 2.0, 5.0)
    worst_ratio = math.inf
    for i in range(200):
        nodes = _distinct_nodes(rng, 2 + rng.below(31))
        g = kernel.gram_system(nodes, theta=thetas[i % len(thetas)])
        worst_ratio = min(worst_ratio, g.min_eig / g.max_eig)
    assert _verdict(
        5,
        "gram-positive-semidefinite",
        worst_ratio >= -1e-9,
        f"min normalized eigenvalue {worst_ratio:.3e} >= -1e-9",
    )


def test_criterion_06_sequence_model_agreement():
    rng = SplitMix64(6)
    worst_pair = 0.0
    worst_forms = 0.0
    min_gap = math.inf
    for _ in range(300):
        x = _random_expansion(rng)
        y = _random_expansion(rng)
        quad = funcspace.inner_product_iso(
            funcspace.DiangleSpan(x), funcspace.DiangleSpan(y), method="quadrature"
        )
        worst_pair = max(worst_pair, abs(seqmodel.seq_inner(x, y) - quad))
        s = x.coefficient_sum
        half = HALF_PI * x.x0 + s
        cross_gram = 2.0 * s * s - HALF_PI * verify.dense_sine_sum(x, x)
        forms = (
            seqmodel.seq_inner(x, x),
            seqmodel.seq_norm_squared(x),
            (4.0 / math.pi**2) * seqmodel.sequence_isoperimetric_gap(x),
            (4.0 / math.pi**2) * (half * half - s * s + cross_gram),
        )
        worst_forms = max(worst_forms, max(forms) - min(forms))
        min_gap = min(min_gap, seqmodel.sequence_isoperimetric_gap(x))
    ok = worst_pair <= 1e-9 and worst_forms <= 1e-12 and min_gap >= -1e-9
    assert _verdict(
        6,
        "sequence-model-agreement",
        ok,
        f"inner product gap {worst_pair:.3e} <= 1e-9, rearrangement spread {worst_forms:.3e} "
        f"<= 1e-12, min gap {min_gap:.3e} >= -1e-9",
    )


def test_criterion_07_convex_isometry():
    rng = SplitMix64(7)
    min_deficit = math.inf
    worst_iso = 0.0
    worst_cauchy = 0.0
    worst_measure = 0.0
    for i in range(100):
        u = _random_zonotope(rng)
        v = convexgeo.point() if i % 4 == 0 else _random_zonotope(rng)
        pair = convexgeo.body_pair(u, v)
        min_deficit = min(min_deficit, convexgeo.pair_deficit(pair))
        f = convexgeo.pair_to_function(pair)
        # both cross-checks integrate the profile by quadrature, not by its closed forms
        worst_iso = max(
            worst_iso,
            abs(
                convexgeo.convex_norm_squared(pair)
                - funcspace.norm_iso_squared(f, method="quadrature")
            ),
        )
        sampled = funcspace.sampled(f.value, f.derivative, f.kinks)
        worst_measure = max(
            worst_measure, abs(funcspace.energy_integral(sampled) - convexgeo.pair_measure(pair))
        )
        for body in (u, v):
            worst_cauchy = max(
                worst_cauchy,
                convexgeo.cauchy_check(body) / (1.0 + convexgeo.perimeter(body)),
            )
    ok = (
        min_deficit >= -1e-9
        and worst_iso <= 1e-7
        and worst_cauchy <= 1e-8
        and worst_measure <= 1e-7
    )
    assert _verdict(
        7,
        "convex-isometry",
        ok,
        f"min deficit {min_deficit:.3e} >= -1e-9, isometry gap {worst_iso:.3e} <= 1e-7, "
        f"cauchy {worst_cauchy:.3e} <= 1e-8, measure gap {worst_measure:.3e} <= 1e-7",
    )


def test_criterion_08_disc_surrogate():
    pair = convexgeo.body_pair(convexgeo.regular_polygon(64), convexgeo.point())
    n2 = convexgeo.convex_norm_squared(pair)
    f = convexgeo.pair_to_function(pair)
    grid = np.linspace(-HALF_PI, HALF_PI, 1001)
    deviation = float(np.max(np.abs(f.value(grid) - 1.0)))
    ok = 0.99 <= n2 <= 1.01 and deviation <= 0.01
    assert _verdict(
        8,
        "disc-surrogate",
        ok,
        f"norm2 {n2:.6f} in [0.99, 1.01], uniform deviation {deviation:.3e} <= 0.01",
    )


def test_criterion_09_holder_bound():
    rng = SplitMix64(9)
    xs = np.linspace(-HALF_PI, HALF_PI, 101)
    hs = np.linspace(-math.pi, math.pi, 51)
    grid_x, grid_h = np.meshgrid(xs, hs, indexing="ij")
    mask = (np.abs(grid_h) > 0.0) & (np.abs(grid_x + grid_h) <= HALF_PI)
    members = [
        funcspace.trig_poly((0.0, 1.0)),
        funcspace.diangle(0.0),
        kernel.kernel_function(2.0, 0.4),
        _random_span(rng, 10),
        _random_trig(rng),
    ]
    worst = 0.0
    for f in members:
        ratios = funcspace.holder_ratio(f, grid_x[mask], grid_h[mask], norm=funcspace.norm_iso(f))
        worst = max(worst, float(np.max(ratios)))
    # the scalar call is the one-pair sweep
    worst = max(worst, funcspace.holder_ratio(members[3], float(grid_x[mask][100]), float(grid_h[mask][100])))

    # A cube-root cusp is continuous but falls outside the space; its raw
    # square-root quotient must blow past any fixed constant.
    h = 1e-8
    rough = abs(h ** (1.0 / 3.0)) / math.sqrt(h)
    ok = worst <= 1.0 + 1e-9 and rough > 20.0
    assert _verdict(
        9,
        "holder-bound",
        ok,
        f"max ratio {worst:.12f} <= 1 + 1e-9, rough quotient {rough:.2f} > 20",
    )


def test_criterion_10_classical_kernel():
    members = [
        (math.cos, lambda t: -math.sin(t)),
        (lambda t: t * t, lambda t: 2.0 * t),
        (lambda t: t**3 - t, lambda t: 3.0 * t * t - 1.0),
        (lambda t: 1.0, lambda t: 0.0),
    ]
    ys = np.linspace(0.0, 1.0, 9)
    worst = max(float(np.max(np.abs(kernel.classical_reproducing_residual(f, ys)))) for f in members)
    # the scalar call is the one-point sweep
    worst = max(worst, abs(kernel.classical_reproducing_residual(members[0], float(ys[3]))))
    assert _verdict(10, "classical-kernel", worst <= 1e-7, f"residual {worst:.3e} <= 1e-7")


def test_criterion_11_interpolation_and_power():
    rng = SplitMix64(11)
    grid = np.linspace(-HALF_PI, HALF_PI, 101)
    worst_resid = 0.0
    worst_at_nodes = 0.0
    min_power = math.inf
    worst_growth = -math.inf
    for _ in range(20):
        nodes = _distinct_nodes(rng, 1 + rng.below(8))
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        itp = kernel.interpolate(nodes, values)
        worst_resid = max(
            worst_resid, max(abs(itp.value(n) - v) for n, v in zip(nodes, values))
        )
        g = kernel.gram_system(nodes)
        p = kernel.power_function(g, grid)
        min_power = min(min_power, float(np.min(p)))
        worst_at_nodes = max(worst_at_nodes, float(np.max(kernel.power_function(g, np.asarray(nodes)))))
        extra = _distinct_nodes(rng, 1)[0]
        if min(abs(extra - n) for n in nodes) > 1e-6:
            p2 = kernel.power_function(kernel.gram_system(sorted([*nodes, extra])), grid)
            worst_growth = max(worst_growth, float(np.max(p2 - p)))
    ok = (
        worst_resid <= 1e-8
        and worst_at_nodes <= 1e-7
        and min_power >= 0.0
        and worst_growth <= 1e-9
    )
    assert _verdict(
        11,
        "interpolation-and-power",
        ok,
        f"node residual {worst_resid:.3e} <= 1e-8, power at nodes {worst_at_nodes:.3e} <= 1e-7, "
        f"min power {min_power:.3e} >= 0, refinement growth {worst_growth:.3e} <= 1e-9",
    )


def test_acceptance_runtime_budget():
    elapsed = time.perf_counter() - _T0
    assert _verdict(12, "runtime-budget", elapsed < 60.0, f"{elapsed:.1f}s < 60s")

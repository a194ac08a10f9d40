"""The verify suites' random draws, the holder suite's one grid plan, and the stacked spectra.

The gram-psd and classical-kernel suites read their least eigenvalue ratio
through one helper, ``verify._min_eigenvalue_ratio``: one kernel call per
parameter and one ``eigvalsh`` per node-set size.  The per-matrix loops
each suite ran before are kept here as the references for its bits.
"""

import math

import numpy as np
import pytest

from isorkhs import funcspace, kernel, seqmodel, verify
from isorkhs.rng import SplitMix64

HALF_PI = 0.5 * math.pi


def _inline_draw(rng, x0, coeff, max_terms):
    """The comprehension the sequence and geometry suites wrote out at each draw."""
    return seqmodel.diangle_expansion(
        rng.uniform(*x0) if x0 else 0.0,
        [(rng.uniform(-HALF_PI, HALF_PI), rng.uniform(*coeff)) for _ in range(1 + rng.below(max_terms))],
    )


@pytest.mark.parametrize(
    "x0, coeff, max_terms",
    [((-1.0, 1.0), (-1.0, 1.0), 5), ((-2.0, 2.0), (-2.0, 2.0), 6), (None, (0.01, 2.0), 7), (None, (0.05, 1.0), 6)],
    ids=["model-agreement", "rearrangement", "polygon-gap", "bridge"],
)
def test_random_expansion_draws_what_the_inline_comprehensions_drew(x0, coeff, max_terms):
    # the same expansions and the same stream position after each, so every later draw is unmoved
    for seed in range(21):
        ours, theirs = SplitMix64(seed), SplitMix64(seed)
        for _ in range(5):
            assert verify._random_expansion(ours, x0, coeff, max_terms) == _inline_draw(theirs, x0, coeff, max_terms)
            assert ours.next_u64() == theirs.next_u64()


def _inline_nodes(rng, lo, hi, digits, k):
    """The node-set draw the gram-psd and classical-kernel suites wrote out at each draw."""
    n = 2 + rng.below(k)
    return sorted(set(round(rng.uniform(lo, hi), digits) for _ in range(n)))


@pytest.mark.parametrize(
    "lo, hi, digits, k",
    [(-HALF_PI, HALF_PI, 6, 31), (-1.5, 1.5, 5, 9), (-1.4, 1.4, 4, 5), (0.0, 1.0, 5, 9)],
    ids=["eigenvalues", "interpolation", "minimality", "classical"],
)
def test_random_nodes_draws_what_the_inline_comprehensions_drew(lo, hi, digits, k):
    # the same node sets and the same stream position after each, so every later draw is unmoved
    for seed in range(21):
        ours, theirs = SplitMix64(seed), SplitMix64(seed)
        for _ in range(5):
            assert verify._random_nodes(ours, lo, hi, digits, k) == _inline_nodes(theirs, lo, hi, digits, k)
            assert ours.next_u64() == theirs.next_u64()


def test_holder_suite_plans_its_grid_once_and_reports_what_holder_ratio_reports(monkeypatch):
    plan, sweep = funcspace._holder_pairs, funcspace._holder_sweep
    plans, swept = [], []

    def counted_plan(x, h):
        plans.append((x, h, plan(x, h)))
        return plans[-1][2]

    def recorded_sweep(f, p, n):
        swept.append((f, p))
        return sweep(f, p, n)

    monkeypatch.setattr(funcspace, "_holder_pairs", counted_plan)
    monkeypatch.setattr(funcspace, "_holder_sweep", recorded_sweep)
    for seed in range(21):
        plans.clear()
        swept.clear()
        report = verify.run_suite("holder", seed)
        assert len(plans) == 2  # the grid, then the scalar near-extremal pair
        (x, h, grid), _ = plans
        members = [f for f, p in swept if p is grid]
        assert len(members) == 5 and x.shape == h.shape == (5050,)
        want = max(
            float(np.max(funcspace.holder_ratio(f, x, h, norm=funcspace.norm_iso(f, method="exact"))))
            for f in members
        )
        assert {c.check_id: c.value for c in report.checks}["holder/max-ratio"] == want


def test_holder_suites_triu_pairs_are_the_meshgrid_mask_pairs_bit_for_bit(monkeypatch):
    plan, grids = funcspace._holder_pairs, []
    monkeypatch.setattr(funcspace, "_holder_pairs", lambda x, h: grids.append((x, h)) or plan(x, h))
    verify.run_suite("holder", 0)
    x, h = grids[0]
    grid = np.linspace(-HALF_PI, HALF_PI, 101)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    mask = np.triu(np.ones_like(xs, dtype=bool), k=1)
    for got, want in ((x, xs[mask]), (h, (ys - xs)[mask])):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _per_matrix_min_ratio(node_sets):
    """The classical suite's spectrum loop as it read one matrix at a time."""
    eig_min = math.inf
    for s in node_sets:
        nodes = np.asarray(s)
        w = np.linalg.eigvalsh(kernel.classical_kernel_eval(0.0, 1.0, nodes[:, None], nodes[None, :]))
        eig_min = min(eig_min, float(w[0]) / max(1.0, float(w[-1])))
    return eig_min


def test_classical_spectra_stacked_by_size_give_the_per_matrix_min_ratio_bit_for_bit():
    sizes = set()
    for seed in range(200):
        rng = SplitMix64(seed)
        node_sets = [verify._random_nodes(rng, 0.0, 1.0, 5, 9) for _ in range(25)]
        sizes |= {len(s) for s in node_sets}
        classical = lambda x, y, _: kernel.classical_kernel_eval(0.0, 1.0, x, y)
        got, want = verify._min_eigenvalue_ratio(node_sets, classical, [None] * 25), _per_matrix_min_ratio(node_sets)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        # the suite draws nothing before its node sets, so it reports this ratio
        report = verify.run_suite("classical-kernel", seed)
        assert {c.check_id: c.value for c in report.checks}["classical/min-eigenvalue-ratio"] == want
    assert sizes == set(range(2, 11))


GRAM_THETAS = (1.0, 1.5, 2.0, 5.0)


def _per_system_min_ratio(node_sets):
    """The gram-psd suite's spectrum loop as it read one ``GramSystem`` at a time."""
    eig_min = math.inf
    for i, nodes in enumerate(node_sets):
        g = kernel.gram_system(nodes, theta=GRAM_THETAS[i % 4])
        eig_min = min(eig_min, g.min_eig / max(1.0, g.max_eig))
    return eig_min


def test_gram_psd_spectra_stacked_by_size_give_the_per_system_min_ratio_bit_for_bit():
    sizes = set()
    for seed in range(200):
        rng = SplitMix64(seed)
        node_sets = [verify._random_nodes(rng, -HALF_PI, HALF_PI, 6, 31) for _ in range(200)]
        sizes |= {len(s) for s in node_sets}
        got = verify._min_eigenvalue_ratio(node_sets, kernel.kernel_eval, [GRAM_THETAS[i % 4] for i in range(200)])
        want = _per_system_min_ratio(node_sets)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        # the suite draws nothing before its node sets, so it reports this ratio; a whole
        # run takes about 25 ms, so every tenth seed shows it
        if seed % 10 == 0:
            report = verify.run_suite("gram-psd", seed)
            assert {c.check_id: c.value for c in report.checks}["gram-psd/min-eigenvalue-ratio"] == want
    assert sizes == set(range(2, 33))

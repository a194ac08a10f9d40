"""The verify suites' random draws and the holder suite's one grid plan."""

import math

import numpy as np
import pytest

from isorkhs import funcspace, seqmodel, verify
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

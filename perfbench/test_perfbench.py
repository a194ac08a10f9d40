"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench

The smoke tests run deck 0 of every workload and one short end-to-end run,
so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent, op=0, key=None):
    return [name, key, start, end, parent, op, False, None]


def test_percentile_interpolates_between_order_statistics():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert spans.percentile(xs, 0.5) == 3.0
    assert spans.percentile(xs, 0.9) == pytest.approx(4.6)
    assert spans.percentile(xs, 0.0) == 1.0
    assert spans.percentile(xs, 1.0) == 5.0
    assert spans.percentile([7.0], 0.9) == 7.0


def test_self_time_subtracts_only_direct_children():
    tree = [
        _span("funcspace.inner_product_iso", 0.0, 10.0, -1),  # 0
        _span("seqmodel.seq_inner", 1.0, 4.0, 0),  # 1
        _span("quad.integrate", 2.0, 3.0, 1),  # 2, grandchild of 0
        _span("quad.integrate", 5.0, 6.5, 0),  # 3
        _span("serialization.dumps", 12.0, 13.0, -1),  # 4, another root
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("kernel.interpolate", 0.0, 10.0, -1),
        _span("kernel.gram_system", 1.0, 5.0, 0),
        _span("kernel.gram_system", 4.0, 12.0, 0),  # overlaps its sibling and the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_sum_self_time_per_layer():
    tracer = spans.Tracer()
    tracer.spans += [
        _span("kernel.interpolate", 0.0, 10.0, -1, key=8),
        _span("kernel.gram_system", 1.0, 5.0, 0, key=8),
        _span("serialization.dumps", 10.0, 11.0, -1),
    ]
    tracer.spans[2][7] = 300  # bytes written
    m = spans.layer_metrics(tracer, ops=2)
    assert m["kernel.calls"] == (1.0, "1/op")
    assert m["kernel.self_s"][0] == pytest.approx(5.0)
    assert m["serialization.self_s"][0] == pytest.approx(0.5)
    assert m["kernel.interpolate.n8.ms"][0] == pytest.approx(1e4)
    assert m["serialization.bytes_out"][0] == pytest.approx(150.0)
    assert m["kernel.interpolate.n1600.ms"][0] == 0.0


def test_tracer_wraps_module_functions_and_restores_them():
    from isorkhs import funcspace, quad, seqmodel

    tracer = spans.Tracer()
    original = quad.integrate
    names = tracer.install([funcspace, quad, seqmodel])
    try:
        assert "quad.integrate" in names and "seqmodel.normalize_angle" not in names
        f = funcspace.trig_poly([1.0, 0.5])
        tracer.op = 0
        n2 = funcspace.norm_iso_squared(f, method="quadrature")
        tracer.op = None
    finally:
        tracer.uninstall()
    assert quad.integrate is original
    assert n2 == pytest.approx(funcspace.norm_iso_squared(f, method="exact"), rel=1e-9)
    by_name = [s[0] for s in tracer.spans]
    assert by_name[0] == "funcspace.norm_iso_squared"
    assert "funcspace.inner_product_iso" in by_name and by_name.count("quad.integrate") == 4
    assert tracer.points > 0 and tracer.points % 16 == 0  # whole 16-point panels


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deck_zero_passes_its_oracles_and_repeats_exactly(name):
    wl = workloads.WORKLOADS[name]
    first = harness.play_deck(wl, 1, 0, check=True)
    again = harness.play_deck(wl, 1, 0, check=False)
    harness.check_deck(wl, first)
    assert first.failures == []
    assert first.checked == wl.deck_size
    assert first.digest == again.digest
    assert sorted(first.classes) == sorted(c for c, n in wl.deck for _ in range(n))


@pytest.mark.parametrize("n", [8, 200])
def test_power_oracle_rejects_wrong_values(n):
    wl = workloads.INTERP
    op = wl.make(workloads.deck_rng(1, 0), f"power.n{n}", 0)
    out = json.loads(wl.run(op))
    assert wl.check(op, json.dumps(out), []) is None
    p = out["power"]
    for bad in ([0.0] * len(p), [1.01 * x for x in p], p[:-1] + [1e-3]):
        assert wl.check(op, json.dumps(dict(out, power=bad)), []) is not None


def test_seed_changes_the_records():
    wl = workloads.INNER
    a = [op.text for op in workloads.deck_ops(wl, 1, 0)]
    b = [op.text for op in workloads.deck_ops(wl, 2, 0)]
    assert a != b and a == [op.text for op in workloads.deck_ops(wl, 1, 0)]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_prints_every_metric_of_the_benchmark(trace):
    proc = _run(ROOT, "--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_a_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "inner", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""

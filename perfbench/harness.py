"""The closed loop: set-up timing, warm-up, timed decks, oracle checks, trace.

One client in one process sends one op at a time.  An op's latency is the
wall time of the op alone; record generation and digesting happen between
ops and are not timed.  Oracle checks run after the last op and after peak
memory is read, so the oracles' dense reference solves do not set
``peak_rss_mb``.  Throughput is ops completed over the summed latency of the
timed ops.

Op times are scaled to a reference CPU speed.  On a shared two-vCPU Xeon
host the speed a process gets swung by up to 2x within seconds, which moved
raw wall times of a workload by 20-50% between runs.  So a calibration
probe, a fixed piece of interpreter work that uses no package code, runs
every ``PROBE_INTERVAL_S`` while ops are timed (see ``Pacer``); each op's
wall time is multiplied by ``PROBE_REF_S`` over the mean probe time during
the op.  Raw wall-clock figures go to the detail record.

Set-up time is scaled the same way with another reference: each cold CLI
call alternates with a cold interpreter that imports only numpy and
scipy.linalg, and the call's wall time is multiplied by ``SETUP_REF_S``
over that reference's wall time.  The probe does not track process start-up
(scaling by it widened the spread), but the reference spawn does: over 150
alternating pairs, medians of ten raw CLI times ranged over -15% to +17% of
their median, and medians of ten ratios over -7% to +7%.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import spans
import workloads

MIN_TIMED_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_PAIRS = 10
SETUP_REF_ARGV = ("-c", "import numpy, scipy.linalg")
SETUP_REF_S = 0.45  # the reference spawn's wall time at the reference speed
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.4e-3  # the probe's time at the reference speed


def _probe_work() -> int:
    """Interpreter loops, sorting, small numpy calls and float formatting,
    the mix the package's ops are made of."""
    pts = [((i * 7919) % 101 / 101.0, (i * 104729) % 97 / 97.0) for i in range(120)]
    pts.sort(key=lambda p: math.atan2(p[1] - 0.5, p[0] - 0.5))
    arr = np.asarray(pts)
    acc = 0.0
    for row in arr[:60]:
        acc += float(np.max(np.abs(arr - row)))
    return len(",".join("%.17g" % v for v in arr[:40, 0])) + int(acc)


class Pacer:
    """Calibration probes on an interval timer, taken inside long ops too.

    Python runs the SIGALRM handler between bytecodes of the main thread, so
    a probe lands inside any op longer than the interval (after the native
    call it interrupted returns); the probe's own time is then taken out of
    that op's latency.  Use as a context manager around the timed ops.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
        self.starts.append(start)
        self.samples.append(best)
        self.ends.append(time.perf_counter())

    def latency(self, t0: float, t1: float) -> tuple[float, float]:
        """An op's wall time without probes, raw and at the reference speed.

        The speed is the mean of the probes inside the op and the nearest
        one on each side of it.
        """
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo + 1, hi))
        raw = t1 - t0 - inside
        return raw, raw * PROBE_REF_S / statistics.fmean(self.samples[lo:hi + 1])


@dataclass
class DeckRun:
    deck: int
    windows: list[tuple[float, float]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    unchecked: list[tuple[workloads.Op, str]] = field(default_factory=list)
    attempted: int = 0
    checked: int = 0
    digest: str = ""


def play_deck(wl: workloads.Workload, seed: int, deck: int, check: bool, tracer=None) -> DeckRun:
    """Run one deck op by op; keep each output for ``check_deck`` when asked.

    ``windows`` holds each completed op's start and end; ``scale_latencies``
    turns them into latencies once the pacer has its last probe.
    """
    result = DeckRun(deck)
    h = hashlib.sha256()
    clock = time.perf_counter
    for i, op in enumerate(workloads.deck_ops(wl, seed, deck)):
        result.attempted += 1
        if tracer is not None:
            tracer.op = deck * wl.deck_size + i
        t0 = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = None
            reason = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.op = None
        if out is None:
            result.failures.append(f"{op.cls}: raised {reason}")
            h.update(b"\0raised\0")
            continue
        result.windows.append((t0, t1))
        result.classes.append(op.cls)
        data = workloads.digest_bytes(wl.name, out)
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
        if check:
            result.unchecked.append((op, out))
    result.digest = h.hexdigest()
    return result


def check_deck(wl: workloads.Workload, run: DeckRun) -> None:
    """Check the outputs ``play_deck`` kept against the workload's oracle."""
    for op, out in run.unchecked:
        run.checked += 1
        try:
            reason = wl.check(op, out, run.notes)
        except Exception as exc:  # a malformed output fails its check
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            run.failures.append(f"{op.cls}: {reason}")
    run.unchecked.clear()


def scale_latencies(runs: list[DeckRun], pacer: Pacer) -> None:
    for r in runs:
        r.latencies, r.scaled = map(list, zip(*(pacer.latency(t0, t1) for t0, t1 in r.windows)))


def timed_decks(wl: workloads.Workload, seed: int, seconds: float) -> list[DeckRun]:
    """Whole decks until the timed ops add up to ``seconds`` and enough ops ran."""
    runs: list[DeckRun] = []
    busy, ops, deck = 0.0, 0, 0
    with Pacer() as pacer:
        while busy < seconds or ops < MIN_TIMED_OPS:
            run = play_deck(wl, seed, deck, check=0 < deck < wl.checked_decks)
            runs.append(run)
            busy += sum(t1 - t0 for t0, t1 in run.windows)
            ops += len(run.windows)
            deck += 1
    scale_latencies(runs, pacer)
    return runs


def _spawn(argv: tuple[str, ...], stdin: str, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=60)
    return time.perf_counter() - t0, proc


def measure_setup(wl: workloads.Workload, src: str) -> tuple[list[float], list[float], list[str]]:
    """Wall times of a fresh ``python -m isorkhs`` on a trivial input, each
    followed by the reference spawn; returns both lists and any failures."""
    env = dict(os.environ, PYTHONPATH=src)
    times, refs, failures = [], [], []
    for _ in range(SETUP_PAIRS):
        wall, proc = _spawn(("-m", "isorkhs", *wl.setup.argv), wl.setup.stdin, env)
        times.append(wall)
        try:
            ok = proc.returncode == 0 and wl.setup.check(json.loads(proc.stdout))
        except (ValueError, KeyError):
            ok = False
        if not ok:
            failures.append(f"setup command failed: exit {proc.returncode}: {proc.stdout[-200:]}{proc.stderr[-200:]}")
        wall, proc = _spawn(SETUP_REF_ARGV, "", env)
        refs.append(wall)
        if proc.returncode != 0:
            failures.append(f"reference spawn failed: exit {proc.returncode}: {proc.stderr[-200:]}")
    return times, refs, failures


def environment(blas_cap: int) -> dict:
    import isorkhs
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "isorkhs": isorkhs.__version__,
        "blas_threads_cap": blas_cap,
    }


def _shares(runs: list[DeckRun]) -> dict[str, float]:
    counts: dict[str, int] = {}
    for r in runs:
        for c in r.classes:
            counts[c] = counts.get(c, 0) + 1
    total = sum(counts.values())
    return {c: round(n / total, 6) for c, n in sorted(counts.items())}


def _percentile_classes(runs: list[DeckRun]) -> dict[str, list[str]]:
    """The op classes at and around each reported percentile's rank."""
    ranked = [c for _, c in sorted((x, c) for r in runs for x, c in zip(r.scaled, r.classes))]
    out = {}
    for q in (0.5, 0.9):
        i = round(q * (len(ranked) - 1))
        out[f"p{round(100 * q)}"] = ranked[max(0, i - 2): i + 3]
    return out


def _latency_metrics(latencies: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * spans.percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * spans.percentile(latencies, 0.9), "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, src: str, blas_cap: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    wl = workloads.WORKLOADS[workload]
    failures: list[str] = []  # ops that raised or failed their oracle
    problems: list[str] = []  # run-level faults: set-up command, determinism
    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "environment": environment(blas_cap)}

    if not trace:
        setup_times, setup_refs, setup_failures = measure_setup(wl, src)
        problems += setup_failures

    # Warm-up: deck 0, untimed and fully checked; the timed loop replays it.
    warm = play_deck(wl, seed, 0, check=True)
    runs = timed_decks(wl, seed, seconds)
    if runs[0].digest != warm.digest:
        problems.append("deck 0 output differs between warm-up and timed replay")

    played = [warm, *runs]
    scaled = [x for r in runs for x in r.scaled]
    raw = [x for r in runs for x in r.latencies]
    detail.update({
        "ops_timed": len(raw),
        "decks_timed": len(runs),
        "deck_size": wl.deck_size,
        "warmup_ops": warm.attempted,
        "class_shares": _shares(runs),
        "digest": warm.digest,
        "timed_wall_s": sum(raw),
        "raw_wall": {k: v for k, (v, _) in _latency_metrics(raw).items()},
        "percentile_classes": _percentile_classes(runs),
    })

    if trace:
        tracer = spans.Tracer()
        modules = [importlib.import_module(f"isorkhs.{layer}") for layer in spans.LAYERS]
        detail["wrapped"] = tracer.install(modules)
        try:
            with Pacer() as pacer:
                traced = [play_deck(wl, seed, r.deck, check=False, tracer=tracer) for r in runs]
        finally:
            tracer.uninstall()
        scale_latencies(traced, pacer)
        for r, t in zip(runs, traced):
            if t.digest != r.digest:
                problems.append(f"deck {r.deck} output differs under tracing")
        played += traced
        traced_scaled = [x for t in traced for x in t.scaled]
        metrics = spans.layer_metrics(tracer, len(traced_scaled))
        overhead = (len(traced_scaled) / sum(traced_scaled)) / (len(scaled) / sum(scaled))
        metrics["trace.overhead"] = (overhead, "ratio")
        detail["spans"] = len(tracer.spans)
        detail["integrand_points"] = tracer.points
    else:
        metrics = _latency_metrics(scaled)
        ratios = [t / r for t, r in zip(setup_times, setup_refs)]
        metrics["setup_s"] = (SETUP_REF_S * statistics.median(ratios), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        detail["setup_wall_s"] = setup_times
        detail["setup_reference_wall_s"] = setup_refs

    # Checks come last: see the module docstring.
    for r in played:
        check_deck(wl, r)
        failures += r.failures
    detail["ops_checked"] = sum(r.checked for r in played)
    notes = [n for r in played for n in r.notes]
    detail["oracle_notes"] = {"count": len(notes), "first": notes[:5]}
    detail["failures"] = failures[:20]
    detail["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": sum(r.attempted for r in played),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail

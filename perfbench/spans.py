"""Span tracing around the package's public functions, and per-layer metrics.

``Tracer.install`` replaces each public function on a layer's module with a
wrapper that records a span: name, start, end, parent span and op id.  A
module attribute is the module's global namespace, so the wrapper sees calls
made through the attribute from anywhere (``funcspace`` calling
``quad.integrate``) and unqualified calls inside the same module
(``kernel.interpolate`` calling ``gram_system``).  Calls through a name
bound by ``from ... import`` elsewhere bypass it and stay in the caller's
self time.  Spans are kept in memory and summarized when the run ends.
A span that a calibration probe interrupts (see ``harness.Pacer``) includes
the probe's time, about 2% of the wall time.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from typing import Callable

import numpy as np

LAYERS = ("funcspace", "kernel", "seqmodel", "convexgeo", "quad", "serialization", "verify")

# Per-element helpers called inside other public functions' inner loops; a
# span on each would cost more than the work it times.
_UNWRAPPED = {"serialization.format_float", "serialization.as_float", "seqmodel.normalize_angle"}

_READERS = {"loads", "read_function", "read_expansion", "read_body", "read_pair", "read_interpolant", "as_float_list"}

_NAME, _KEY, _START, _END, _PARENT, _OP, _ERROR, _NOTE = range(8)


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics at rank ``q (n - 1)``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[_PARENT] >= 0:
            children[s[_PARENT]].append((s[_START], s[_END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s[_START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, edge), min(hi, s[_END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s[_END] - s[_START] - covered)
    return out


def _size_bucket(size: int, buckets: tuple[int, ...]) -> int | None:
    return size if size in buckets else None


def _member_size(f) -> tuple[str, int]:
    cos = getattr(f, "cos_coeffs", None)
    if cos is not None:
        return "t", len(cos) - 1
    expansion = getattr(f, "expansion", None)
    if expansion is not None:
        return "s", len(expansion.terms)
    return "q", 0


def _inner_key(args, kwargs):
    f, g = args[0], args[1]
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    (kf, nf), (kg, ng) = _member_size(f), _member_size(g)
    symbolic = "q" not in (kf, kg)
    if method == "quadrature" or (method == "auto" and not symbolic):
        return ("quad",)
    # A trig x span pair is one class in either order; size is the larger side.
    pair = "".join(sorted(kf + kg))
    size = max(nf, ng)
    bucket = 5 if size <= 10 else 20 if size <= 40 else 80 if size <= 100 else None
    return ("exact", pair, bucket)


def _node_count(args, kwargs):
    return _size_bucket(len(args[0]), (8, 50, 200, 800, 1600))


def _power_count(args, kwargs):
    return _size_bucket(args[0].size, (8, 50, 200, 800, 1600))


def _vertex_count(*bodies) -> int:
    return max(len(b.vertices) for b in bodies)


KEYS: dict[str, Callable] = {
    "funcspace.inner_product_iso": _inner_key,
    "kernel.gram_system": _node_count,
    "kernel.interpolate": _node_count,
    "kernel.power_function": _power_count,
    "convexgeo.symmetric_polygon": lambda a, k: len(a[0]),
    "convexgeo.zonotope_from_generators": lambda a, k: len(a[0]),
    "convexgeo.minkowski_sum": lambda a, k: _vertex_count(a[0], a[1]),
    "convexgeo.pair_equivalent": lambda a, k: _vertex_count(a[0].U, a[0].V, a[1].U, a[1].V),
    "verify.run_suite": lambda a, k: a[0],
}

# What a span keeps from its call's result.
NOTES: dict[str, Callable] = {
    "kernel.interpolate": lambda out: out.fallback is not None,
    "serialization.dumps": len,
}


class Tracer:
    """Records spans while an op is current; does nothing between ops."""

    def __init__(self):
        self.spans: list[list] = []
        self.points = 0
        self.op: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def install(self, modules) -> list[str]:
        """Wrap every public function of ``modules``; return their names."""
        names = []
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in _UNWRAPPED:
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
                names.append(name)
        return names

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        key = KEYS.get(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counting = name == "quad.integrate"

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if counting and args:
                args = (self._counted(args[0]), *args[1:])
            try:
                label = key(args, kwargs) if key else None
            except (IndexError, TypeError, AttributeError):  # an unusual call shape
                label = None
            span = [name, label, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if note:
                span[_NOTE] = note(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _counted(self, f: Callable) -> Callable:
        """The integrand, counting each abscissa it returns a value for."""

        def counted(x):
            y = f(x)
            self.points += int(np.size(x))
            return y

        return counted


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run of ``ops`` ops.

    Counts and self time are per op; ``.ms`` and ``.s`` entries are medians
    per call, 0 when the run made no such call.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    by_key: dict[tuple, list[float]] = defaultdict(list)
    for s in spans:
        by_name[s[_NAME]].append(s[_END] - s[_START])
        by_key[s[_NAME], s[_KEY]].append(s[_END] - s[_START])

    def median_ms(name: str, *key) -> float:
        ds = by_key.get((name, *key)) if key else by_name.get(name)
        return 1e3 * statistics.median(ds) if ds else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[_NAME].startswith(layer + ".")]
        out[f"{layer}.calls"] = (len(mine) / ops, "1/op")
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in mine) / ops, "s/op")
        out[f"{layer}.errors"] = (sum(spans[i][_ERROR] for i in mine) / ops, "1/op")
    for pair in ("tt", "st", "ss"):
        for d in (5, 20, 80):
            label = "ts" if pair == "st" else pair
            out[f"funcspace.inner_exact.{label}.d{d}.ms"] = (
                median_ms("funcspace.inner_product_iso", ("exact", pair, d)), "ms")
    out["funcspace.inner_quad.ms"] = (median_ms("funcspace.inner_product_iso", ("quad",)), "ms")
    out["quad.integrate.ms"] = (median_ms("quad.integrate"), "ms")
    out["quad.integrate.points"] = (tracer.points / ops, "1/op")
    for name in ("seq_inner", "seq_norm_squared"):
        out[f"seqmodel.{name}.ms"] = (median_ms(f"seqmodel.{name}"), "ms")
    for name in ("gram_system", "interpolate", "power_function"):
        for n in (8, 50, 200, 800, 1600):
            out[f"kernel.{name}.n{n}.ms"] = (median_ms(f"kernel.{name}", n), "ms")
    fallbacks = sum(1 for s in spans if s[_NAME] == "kernel.interpolate" and s[_NOTE])
    out["kernel.interpolate.fallbacks"] = (fallbacks / ops, "1/op")
    for v in (8, 60, 240):
        out[f"convexgeo.symmetric_polygon.v{v}.ms"] = (median_ms("convexgeo.symmetric_polygon", v), "ms")
        for name in ("minkowski_sum", "pair_equivalent"):
            out[f"convexgeo.{name}.v{v}.ms"] = (median_ms(f"convexgeo.{name}", v), "ms")
    for g in (4, 30, 120):
        out[f"convexgeo.zonotope_from_generators.g{g}.ms"] = (
            median_ms("convexgeo.zonotope_from_generators", g), "ms")
    out["convexgeo.pair_to_function.ms"] = (median_ms("convexgeo.pair_to_function"), "ms")

    # Reading is every outermost reader span of an op, summed per op.
    reads: dict[int, float] = defaultdict(float)
    for s in spans:
        layer, _, fn = s[_NAME].partition(".")
        top = s[_PARENT] < 0 or not spans[s[_PARENT]][_NAME].startswith("serialization.")
        if layer == "serialization" and fn in _READERS and top:
            reads[s[_OP]] += s[_END] - s[_START]
    out["serialization.read.ms"] = (1e3 * statistics.median(reads.values()) if reads else 0.0, "ms")
    out["serialization.dumps.ms"] = (median_ms("serialization.dumps"), "ms")
    dumped = sum(s[_NOTE] for s in spans if s[_NAME] == "serialization.dumps" and s[_PARENT] < 0)
    out["serialization.bytes_out"] = (dumped / ops, "B/op")
    for suite in ("positivity", "reproducing", "gram-psd", "sequence", "geometry", "holder", "classical-kernel"):
        out[f"verify.{suite}.s"] = (median_ms("verify.run_suite", suite) / 1e3, "s")
    return out

"""The four workloads: seeded record generators, ops and independent oracles.

An op reads its input record with ``isorkhs.serialization``, calls the
layer's public functions the way the matching CLI handler does, and returns
the CLI-shaped result as text from ``serialization.dumps``.  Every call goes
through a module attribute (``kernel.interpolate``, not an imported name) so
that the traced run sees it.

Records come from SplitMix64 streams derived from the run seed and the deck
index, so any deck can be regenerated on its own.  A deck is a fixed multiset
of op classes in seeded order; the benchmark only ever runs whole decks, so
the share of each class is exact in every run.  The class counts are chosen
so that the median and the 90th percentile each fall inside a band of ops of
similar cost, well away from a band edge (see the comment on each deck).

An oracle returns ``None`` when the output is right and a reason otherwise;
it appends to ``notes`` when it had to switch to a fallback reference.
Oracles use formulas and dense linear algebra of their own, or the package's
quadrature route where the op took the exact one.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from isorkhs import convexgeo, funcspace, kernel, seqmodel, serialization, verify
from isorkhs.errors import ConvergenceError
from isorkhs.rng import SplitMix64

HALF_PI = 0.5 * math.pi
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Op:
    """One generated request: its class, input record and oracle facts."""

    cls: str
    text: str
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Setup:
    """The workload's smallest CLI command, run in a fresh interpreter."""

    argv: tuple[str, ...]
    stdin: str
    check: Callable[[dict], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    deck: tuple[tuple[str, int], ...]
    make: Callable[[SplitMix64, str, int], Op]
    run: Callable[[Op], str]
    check: Callable[[Op, str, list], "str | None"]  # notes: reference routes switched
    setup: Setup
    checked_decks: int

    @property
    def deck_size(self) -> int:
        return sum(n for _, n in self.deck)


def deck_rng(seed: int, deck: int) -> SplitMix64:
    """Independent stream for one deck of one run."""
    mixed = SplitMix64(seed).next_u64() ^ ((deck + 1) * 0xD1B54A32D192ED03 & _MASK64)
    return SplitMix64(mixed)


def _shuffle(rng: SplitMix64, items: list) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def deck_ops(wl: Workload, seed: int, deck: int) -> list[Op]:
    """The ops of one deck, in seeded order."""
    rng = deck_rng(seed, deck)
    classes = _shuffle(rng, [cls for cls, n in wl.deck for _ in range(n)])
    base = seed * 1_000_000 + deck * wl.deck_size
    return [wl.make(rng, cls, base + i) for i, cls in enumerate(classes)]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# inner: exact inner products and norms of symbolic members


def _trig_record(rng: SplitMix64, degree: int) -> dict:
    cos = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
    sin = [rng.uniform(-1.0, 1.0) for _ in range(degree)]
    return _endpoint_matched(cos, sin)


def _endpoint_matched(cos: list[float], sin: list[float]) -> dict:
    if sin:
        sin[0] -= sum(b * (0.0, 1.0, 0.0, -1.0)[k % 4] for k, b in enumerate(sin, start=1))
    return {"type": "trigpoly", "cos": cos, "sin": sin}


def _hostile_trig(rng: SplitMix64) -> dict:
    """Sparse series reaching frequency 150."""
    cos = [0.0] * 151
    sin = [0.0] * 150
    cos[0] = rng.uniform(-1.0, 1.0)
    for k in (1, 149, 150):
        cos[k] = rng.uniform(-1.0, 1.0)
    for k in (2, 147, 150):
        sin[k - 1] = rng.uniform(-1.0, 1.0)
    return _endpoint_matched(cos, sin)


def _span_record(rng: SplitMix64, terms: int) -> dict:
    return {
        "type": "dianglespan",
        "x0": rng.uniform(-1.0, 1.0),
        "terms": [
            {"angle": rng.uniform(-HALF_PI, HALF_PI), "coeff": rng.uniform(-1.0, 1.0)}
            for _ in range(terms)
        ],
    }


def _hostile_span(rng: SplitMix64) -> dict:
    """Angles 1e-15 apart and angles at both ends of the domain."""
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(-1.0, 1.0)
    pairs = [(a, 1.0), (a + 1e-15, -0.5), (b, 0.3), (b - 1e-15, 0.2), (HALF_PI, 0.7), (-HALF_PI, -0.4)]
    return {
        "type": "dianglespan",
        "x0": rng.uniform(-1.0, 1.0),
        "terms": [{"angle": ang, "coeff": c * rng.uniform(0.5, 1.5)} for ang, c in pairs],
    }


def _interpolant_record(rng: SplitMix64, n: int) -> dict:
    return {
        "type": "interpolant",
        "theta": 2.0,
        "ridge": 0.0,
        "nodes": [rng.uniform(-HALF_PI, HALF_PI) for _ in range(n)],
        "coeffs": [rng.uniform(-1.0, 1.0) for _ in range(n)],
    }


def _member(rng: SplitMix64, kind: str, d: int) -> dict:
    if kind == "t":
        return _trig_record(rng, d)
    if kind == "T":
        return _hostile_trig(rng)
    if kind == "S":
        return _hostile_span(rng)
    if kind == "i" or (kind == "s" and rng.below(3) == 0):
        return _interpolant_record(rng, d)
    return _span_record(rng, d)


def _make_inner(rng: SplitMix64, cls: str, index: int) -> Op:
    # cls is "<inner|norm>.<member kinds>.d<size>": t trig, s span or
    # interpolant, i interpolant, T and S the hostile members.
    kind, members, size = cls.split(".")
    d = int(size[1:])
    recs = [_member(rng, m, d) for m in members]
    if kind == "inner":
        return Op(cls, _dumps({"f": recs[0], "g": recs[1]}))
    return Op(cls, _dumps(recs[0]))


def _run_inner(op: Op) -> str:
    doc = serialization.loads(op.text)
    if op.cls.startswith("inner"):
        f = serialization.read_function(doc["f"])
        g = serialization.read_function(doc["g"])
        return serialization.dumps({"inner": funcspace.inner_product_iso(f, g, method="auto")})
    f = serialization.read_function(doc)
    n2 = funcspace.norm_iso_squared(f, method="auto")
    return serialization.dumps({"norm2": n2, "norm": math.sqrt(max(0.0, n2))})


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def fixed_rule_inner(f, g) -> float:
    """The inner product by a fixed 32-point Gauss rule on panels of width
    at most 0.05 that never straddle a kink; a fallback reference for pairs
    on which the package's adaptive quadrature does not converge."""
    edges = sorted({-HALF_PI, HALF_PI, *(k for k in (*f.kinks, *g.kinks) if abs(k) < HALF_PI)})
    los, his = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(a, b, 1 + math.ceil((b - a) / 0.05))
        los.extend(cuts[:-1])
        his.extend(cuts[1:])
    lo, hi = np.asarray(los), np.asarray(his)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
    w = (half[:, None] * _GL_WEIGHTS).ravel()
    x = x.ravel()
    fv, gv, fd, gd = f.value(x), g.value(x), f.derivative(x), g.derivative(x)
    int_f, int_g, int_fg, int_dd = w @ fv, w @ gv, w @ (fv * gv), w @ (fd * gd)
    return float((2.0 * int_f * int_g - math.pi * (int_fg - int_dd)) / math.pi**2)


def _check_inner(op: Op, out: str, notes: list[str]):
    doc = json.loads(op.text)
    res = json.loads(out)
    if op.cls.startswith("inner"):
        f = serialization.read_function(doc["f"])
        g = serialization.read_function(doc["g"])
        got = res["inner"]
    else:
        f = g = serialization.read_function(doc)
        got = res["norm2"]
        if not _close(res["norm"], math.sqrt(max(0.0, got)), 1e-15):
            return "norm is not the root of norm2"
    try:
        ref = funcspace.inner_product_iso(f, g, method="quadrature")
    except ConvergenceError:
        notes.append(f"{op.cls}: adaptive quadrature did not converge; fixed rule used")
        ref = fixed_rule_inner(f, g)
    if not _close(got, ref, 1e-9):
        return f"exact {got!r} vs quadrature {ref!r}"
    return None


# Bands by cost at the seed commit: d5 trig x span (about 0.65 ms) spans
# ranks 42-69% and holds the median, with the cheaper d5 pairs and norms
# below it; d20 trig x span (about 8 ms) spans ranks 81-96% and holds p90;
# the two d80 trig pairs (30 and 130 ms) sit above it.
_INNER_DECK = (
    ("norm.i.d5", 2),
    ("norm.s.d5", 2),
    ("inner.SS.d5", 1),
    ("inner.ss.d5", 5),
    ("norm.t.d5", 2),
    ("inner.tt.d5", 5),
    ("inner.ss.d20", 1),
    ("norm.i.d80", 1),
    ("norm.T.d5", 1),
    ("inner.ts.d5", 7),
    ("inner.st.d5", 6),
    ("inner.ss.d80", 1),
    ("inner.TS.d5", 1),
    ("norm.t.d20", 2),
    ("inner.tt.d20", 2),
    ("inner.ts.d20", 4),
    ("inner.st.d20", 3),
    ("inner.tt.d80", 1),
    ("inner.ts.d80", 1),
)

INNER = Workload(
    name="inner",
    deck=_INNER_DECK,
    make=_make_inner,
    run=_run_inner,
    check=_check_inner,
    setup=Setup(
        ("norm", "--input", "-"),
        _dumps({"type": "trigpoly", "cos": [1.0]}),
        lambda doc: _close(doc["norm2"], 1.0, 1e-12),
    ),
    checked_decks=4,
)


# ---------------------------------------------------------------------------
# interp: Gram systems, interpolation and the power function


# A power op evaluates at 101 points: a uniform grid and up to eight nodes,
# where the power function vanishes.
_POWER_NODES = 8
_POWER_GRID = [float(x) for x in np.linspace(-HALF_PI, HALF_PI, 101 - _POWER_NODES)]


def _node_set(rng: SplitMix64, n: int, clustered: bool) -> list[float]:
    """Jittered-grid nodes, one per cell of width pi/n.

    A clustered set replaces each node with a triple 1e-6 apart (cond about
    2.5e8 at n=200).  Clustered sets feed ``interp`` only up to n=200: at
    n=800 and above, and for independent uniform nodes at n=1600 (some pairs
    1e-7 apart), ``kernel.interpolate`` raises ``InvariantViolationError``
    when its Cholesky solve misses the 1e-8 node residual instead of falling
    back to its jittered or least-squares solve.  Those inputs wait until
    that fault is fixed; clustered power ops go up to n=800.
    """
    cells = -(-n // 3) if clustered else n
    lo, hi = (-1.5, 1.5) if clustered else (-HALF_PI, HALF_PI)
    step = (hi - lo) / cells
    centers = [lo + (i + 0.1 + 0.8 * rng.uniform()) * step for i in range(cells)]
    if not clustered:
        return centers
    return [c + j * 1e-6 for c in centers for j in range(3)][:n]


def _make_interp(rng: SplitMix64, cls: str, index: int) -> Op:
    # cls is "<interp|power|gram>.n<size>" with ".c" for a clustered set.
    parts = cls.split(".")
    n = int(parts[1][1:])
    nodes = _node_set(rng, n, clustered=len(parts) == 3)
    doc: dict = {"nodes": nodes, "theta": 2.0}
    if parts[0] == "interp":
        doc["values"] = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    elif parts[0] == "power":
        doc["at"] = _POWER_GRID + nodes[:: max(1, n // _POWER_NODES)][:_POWER_NODES]
    return Op(cls, _dumps(doc))


def _run_interp(op: Op) -> str:
    doc = serialization.loads(op.text)
    nodes = serialization.as_float_list(doc["nodes"], "nodes")
    theta = serialization.as_float(doc["theta"], "theta")
    kind = op.cls.split(".")[0]
    if kind == "interp":
        values = serialization.as_float_list(doc["values"], "values")
        out = serialization.write_interpolant(kernel.interpolate(nodes, values, theta=theta))
        out["type"] = "interpolant"
        return serialization.dumps(out)
    g = kernel.gram_system(nodes, theta=theta)
    if kind == "power":
        pts = np.asarray(serialization.as_float_list(doc["at"], "at"))
        return serialization.dumps({"at": list(pts), "power": list(kernel.power_function(g, pts))})
    cond = g.cond_estimate
    return serialization.dumps(
        {
            "theta": g.theta,
            "ridge": g.ridge,
            "nodes": list(g.nodes),
            "matrix": [list(row) for row in g.matrix],
            "min_eig": g.min_eig,
            "max_eig": g.max_eig,
            "cond": cond if math.isfinite(cond) else None,
            "chol_ok": g.chol_ok,
        }
    )


def _kernel_matrix(theta: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return theta - HALF_PI * np.sin(np.abs(x[:, None] - y[None, :]))


def _check_interp(op: Op, out: str, notes: list[str]):
    doc = json.loads(op.text)
    res = json.loads(out)
    theta = doc["theta"]
    nodes = np.asarray(doc["nodes"])
    kind = op.cls.split(".")[0]
    if kind == "interp":
        values = np.asarray(doc["values"])
        if res["nodes"] != doc["nodes"]:
            return "interpolant nodes differ from the input nodes"
        resid = float(np.max(np.abs(_kernel_matrix(theta, nodes, nodes) @ np.asarray(res["coeffs"]) - values)))
        tol = 1e-8 * (1.0 + float(np.max(np.abs(values))))
        return None if resid <= tol else f"node residual {resid:.3e} > {tol:.3e}"
    if kind == "power":
        # Squares are compared so that rounding near 0 is not magnified; at
        # the seed commit |p^2 - ref| stays below 1e-14 and p at the nodes
        # below 1e-7, while ref on the grid exceeds 6e-6 up to n=1600.
        at = np.asarray(doc["at"])
        p = np.asarray(res["power"])
        if p.shape != at.shape or not np.all(p >= 0.0):
            return "power function is negative or has the wrong shape"
        cols = _kernel_matrix(theta, nodes, at)
        solved = np.linalg.solve(_kernel_matrix(theta, nodes, nodes), cols)
        ref = np.maximum(0.0, theta - np.einsum("ij,ij->j", cols, solved))
        gap = float(np.max(np.abs(p * p - ref)))
        if gap > 1e-10 * theta:
            return f"power squared differs from the dense solve by {gap:.3e}"
        at_nodes = float(np.max(p[len(_POWER_GRID):]))
        return None if at_nodes <= 1e-6 else f"power function at a node is {at_nodes:.3e}"
    matrix = np.asarray(res["matrix"])
    ref = _kernel_matrix(theta, nodes, nodes)
    if matrix.shape != ref.shape or float(np.max(np.abs(matrix - ref))) > 1e-14 * theta:
        return "Gram matrix differs from the kernel"
    eig = np.linalg.eigvalsh(ref)
    if not _close(res["min_eig"], float(eig[0]), 1e-9 * max(1.0, float(eig[-1]))):
        return f"min eigenvalue {res['min_eig']!r} vs numpy {float(eig[0])!r}"
    return None


# Bands by scaled cost at the seed commit: n=8 power and n=50 interp (about
# 0.65 ms) span ranks 40-74% and hold the median; the n=50 Gram report
# (about 5 ms, mostly writing 2500 floats) spans ranks 83-95% and holds
# p90, between n=200 interp (4 ms) and n=200 power (6 ms); the n=200 Gram
# report and the n=800 (plain and clustered) and n=1600 solves (50-300 ms)
# sit above it.
_INTERP_DECK = (
    ("interp.n8", 27),
    ("gram.n8", 25),
    ("interp.n50.c", 4),
    ("power.n8", 14),
    ("interp.n50", 33),
    ("power.n50", 6),
    ("power.n50.c", 1),
    ("interp.n200", 5),
    ("interp.n200.c", 1),
    ("gram.n50", 16),
    ("gram.n50.c", 1),
    ("power.n200", 1),
    ("power.n200.c", 1),
    ("gram.n200", 1),
    ("interp.n800", 1),
    ("power.n800", 1),
    ("power.n800.c", 1),
    ("interp.n1600", 1),
    ("power.n1600", 1),
)

INTERP = Workload(
    name="interp",
    deck=_INTERP_DECK,
    make=_make_interp,
    run=_run_interp,
    check=_check_interp,
    setup=Setup(
        ("interp", "--input", "-"),
        _dumps({"nodes": [0.0], "values": [1.0]}),
        lambda doc: _close(doc["coeffs"][0], 0.5, 1e-12),
    ),
    checked_decks=2,
)


# ---------------------------------------------------------------------------
# geometry: symmetric polygons, built as zonotopes so every oracle has a
# closed form in the generators


def _slotted_generators(rng: SplitMix64, count: int, groups: int) -> list[list[tuple[float, float]]]:
    """``groups`` generator lists of ``count`` each, with well-separated angles.

    All angles of all groups sit in distinct slots of width ``pi / (count *
    groups)``, so no two edges of any Minkowski sum are nearly parallel.
    """
    slots = _shuffle(rng, list(range(count * groups)))
    width = math.pi / len(slots)
    scale = 1.0 / count
    out = []
    for g in range(groups):
        gens = []
        for s in slots[g * count : (g + 1) * count]:
            angle = -HALF_PI + (s + 0.2 + 0.6 * rng.uniform()) * width
            gens.append((angle, scale * rng.uniform(0.5, 1.5)))
        out.append(gens)
    return out


def _zonotope_vertices(gens: list[tuple[float, float]]) -> list[list[float]]:
    edges = [(ln * math.cos(a), ln * math.sin(a)) for a, ln in sorted(gens)]
    x = -0.5 * sum(e[0] for e in edges)
    y = -0.5 * sum(e[1] for e in edges)
    walk = []
    for ex, ey in edges:
        walk.append([x, y])
        x, y = x + ex, y + ey
    return walk + [[-px, -py] for px, py in walk]


def _body(gens: list[tuple[float, float]], as_generators: bool) -> dict:
    if as_generators:
        return {"generators": [{"angle": a, "length": ln} for a, ln in gens]}
    return {"vertices": _zonotope_vertices(gens)}


def _zono_width(gens, phi: np.ndarray) -> np.ndarray:
    a = np.asarray([g[0] for g in gens])
    ln = np.asarray([g[1] for g in gens])
    return np.abs(np.sin(a[None, :] - phi[:, None])) @ ln


def _zono_area(gens) -> float:
    a = np.asarray([g[0] for g in gens])
    ln = np.asarray([g[1] for g in gens])
    return 0.5 * float(ln @ np.abs(np.sin(a[:, None] - a[None, :])) @ ln)


def _zono_perimeter(gens) -> float:
    return 2.0 * sum(ln for _, ln in gens)


def _pair_perimeter_measure(u, v) -> tuple[float, float]:
    p = _zono_perimeter(u) - _zono_perimeter(v)
    m = 2.0 * _zono_area(u) + 2.0 * _zono_area(v) - _zono_area(u + v)
    return p, m


_GEN_COUNT = {"v8": 4, "v60": 30, "v240": 120}
_BODY_OPS = ("area", "perimeter", "width")


def _make_geometry(rng: SplitMix64, cls: str, index: int) -> Op:
    # cls is "<op>.v<vertices>" with ".g" when bodies are sent as generators.
    parts = cls.split(".")
    kind, k, as_gens = parts[0], _GEN_COUNT[parts[1]], len(parts) == 3
    if kind in _BODY_OPS:
        (gens,) = _slotted_generators(rng, k, 1)
        doc = _body(gens, as_gens)
        if kind == "width":
            doc["angle"] = rng.uniform(-HALF_PI, HALF_PI)
        return Op(cls, _dumps(doc), {"U": gens})
    if kind == "equiv":
        # (a+c, b+c) and (a+d, b+d) are equivalent; stretching one generator
        # on one side breaks it.
        a, b, c, d = _slotted_generators(rng, k // 2, 4)
        same = rng.below(2) == 0
        dv = d if same else [(d[0][0], 1.1 * d[0][1])] + d[1:]
        doc = {
            "A": {"U": _body(a + c, True), "V": _body(b + c, True)},
            "B": {"U": _body(a + d, True), "V": _body(b + dv, True)},
        }
        return Op(cls, _dumps(doc), {"equivalent": same})
    u, v = _slotted_generators(rng, k, 2)
    return Op(cls, _dumps({"U": _body(u, as_gens), "V": _body(v, as_gens)}), {"U": u, "V": v})


def _run_geometry(op: Op) -> str:
    doc = serialization.loads(op.text)
    kind = op.cls.split(".")[0]
    if kind in _BODY_OPS:
        body = serialization.read_body(doc)
        if kind == "area":
            return serialization.dumps({"area": convexgeo.area(body)})
        if kind == "perimeter":
            return serialization.dumps({"perimeter": convexgeo.perimeter(body)})
        angle = serialization.as_float(doc["angle"], "angle")
        return serialization.dumps(
            {
                "angle": angle,
                "width": convexgeo.width(body, angle),
                "derivative": convexgeo.width_derivative(body, angle),
            }
        )
    if kind == "equiv":
        a = serialization.read_pair(doc["A"])
        b = serialization.read_pair(doc["B"])
        return serialization.dumps({"equivalent": convexgeo.pair_equivalent(a, b)})
    pair = serialization.read_pair(doc)
    if kind == "sum":
        return serialization.dumps(serialization.write_body(convexgeo.minkowski_sum(pair.U, pair.V)))
    if kind == "norm":
        n2 = convexgeo.convex_norm_squared(pair)
        return serialization.dumps({"norm2": n2, "norm": math.sqrt(max(0.0, n2))})
    if kind == "deficit":
        return serialization.dumps(
            {
                "deficit": convexgeo.pair_deficit(pair),
                "measure": convexgeo.pair_measure(pair),
                "perimeter": convexgeo.pair_perimeter(pair),
            }
        )
    if kind == "tofunction":
        f = convexgeo.pair_to_function(pair)
        xs = np.linspace(-HALF_PI, HALF_PI, 101)
        return serialization.dumps({"x": list(xs), "f": list(f.value(xs)), "fprime": list(f.derivative(xs))})
    n2 = funcspace.norm_iso_squared(convexgeo.pair_to_function(pair))
    return serialization.dumps({"norm2": n2, "norm": math.sqrt(max(0.0, n2))})


def _check_geometry(op: Op, out: str, notes: list[str]):
    res = json.loads(out)
    kind = op.cls.split(".")[0]
    facts = op.facts
    if kind == "equiv":
        return None if res["equivalent"] is facts["equivalent"] else "wrong equivalence verdict"
    u = facts["U"]
    if kind == "area":
        if op.cls.endswith(".g"):
            ref = seqmodel.polygon_area(seqmodel.diangle_expansion(0.0, [(a, 0.5 * ln) for a, ln in u]))
        else:
            ref = _zono_area(u)
        return None if _close(res["area"], ref, 1e-10) else f"area {res['area']!r} vs {ref!r}"
    if kind == "perimeter":
        ref = _zono_perimeter(u)
        return None if _close(res["perimeter"], ref, 1e-10) else f"perimeter {res['perimeter']!r} vs {ref!r}"
    if kind == "width":
        ref = float(_zono_width(u, np.asarray([res["angle"]]))[0])
        ok = _close(res["width"], ref, 1e-10) and math.isfinite(res["derivative"])
        return None if ok else f"width {res['width']!r} vs {ref!r}"
    v = facts["V"]
    if kind == "sum":
        grid = np.linspace(-HALF_PI, HALF_PI, 181)
        normals = np.stack([-np.sin(grid), np.cos(grid)])
        out_w, u_w, v_w = (
            2.0 * np.max(np.asarray(vs) @ normals, axis=0)
            for vs in (res["vertices"], _zonotope_vertices(u), _zonotope_vertices(v))
        )
        gap = float(np.max(np.abs(out_w - u_w - v_w)))
        return None if gap <= 1e-10 else f"Minkowski width additivity gap {gap:.3e}"
    if kind == "norm":
        pair = serialization.read_pair(json.loads(op.text))
        ref = funcspace.norm_iso_squared(convexgeo.pair_to_function(pair), method="quadrature")
        gap = abs(res["norm2"] - ref) / (1.0 + abs(ref))
        return None if gap <= 1e-7 else f"pair norm vs profile quadrature gap {gap:.3e}"
    p, m = _pair_perimeter_measure(u, v)
    if kind == "deficit":
        ok = (
            _close(res["perimeter"], p, 1e-10)
            and _close(res["measure"], m, 1e-10)
            and _close(res["deficit"], p * p - 4.0 * math.pi * m, 1e-9)
        )
        return None if ok else "deficit, measure or perimeter disagrees with the generator formulas"
    if kind == "tofunction":
        xs = np.asarray(res["x"])
        ref = 0.5 * (_zono_width(u, xs) - _zono_width(v, xs))
        gap = float(np.max(np.abs(np.asarray(res["f"]) - ref)))
        return None if gap <= 1e-10 else f"profile gap {gap:.3e}"
    ref = (2.0 * p * p - 4.0 * math.pi * m) / (4.0 * math.pi * math.pi)
    gap = abs(res["norm2"] - ref) / (1.0 + abs(ref))
    return None if gap <= 1e-7 else f"profile norm vs pair formula gap {gap:.3e}"


# Bands by scaled cost at the seed commit: the 8-vertex pair norm (about
# 1.5 ms) spans ranks 43-57% and holds the median, between the 8-vertex
# Minkowski sum (1.4 ms) and profile norm (1.7 ms); the 60-vertex Minkowski
# sums and pair norms (about 50 ms) span ranks 84-97% and hold p90; the
# 60-vertex deficit and equivalence and the 240-vertex sum and equivalence
# (0.1-2 s) sit above it.
_GEOMETRY_DECK = (
    ("area.v8", 8),
    ("area.v8.g", 8),
    ("perimeter.v8", 8),
    ("width.v8", 8),
    ("tofunction.v8", 8),
    ("sum.v8", 10),
    ("norm.v8", 16),
    ("profnorm.v8", 10),
    ("deficit.v8", 8),
    ("equiv.v8", 8),
    ("area.v60", 1),
    ("width.v60", 1),
    ("area.v60.g", 1),
    ("perimeter.v60.g", 1),
    ("tofunction.v60", 1),
    ("profnorm.v60", 1),
    ("sum.v60", 7),
    ("norm.v60", 7),
    ("deficit.v60", 1),
    ("equiv.v60", 1),
    ("sum.v240", 1),
    ("equiv.v240", 1),
)

GEOMETRY = Workload(
    name="geometry",
    deck=_GEOMETRY_DECK,
    make=_make_geometry,
    run=_run_geometry,
    check=_check_geometry,
    setup=Setup(
        ("geom", "area", "--input", "-"),
        _dumps({"vertices": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]}),
        lambda doc: _close(doc["area"], 4.0, 1e-12),
    ),
    checked_decks=2,
)


# ---------------------------------------------------------------------------
# verify: the seeded suites, one suite run per op


def _make_verify(rng: SplitMix64, cls: str, index: int) -> Op:
    return Op(cls, _dumps({"suite": cls, "seed": index}))


def _run_verify(op: Op) -> str:
    doc = serialization.loads(op.text)
    report = verify.run_suite(doc["suite"], seed=doc["seed"])
    return serialization.dumps(report.document())


_DURATION_LINE = re.compile(r'^\s*"duration_sec": .*\n', re.MULTILINE)


def digest_bytes(workload: str, out: str) -> bytes:
    """The bytes an op contributes to the digest; wall time is dropped."""
    if workload == "verify":
        out = _DURATION_LINE.sub("", out)
    return out.encode()


def _check_verify(op: Op, out: str, notes: list[str]):
    res = json.loads(out)
    if res["suite"] != op.cls:
        return f"report is for suite {res['suite']!r}"
    return None if res["overall"] == "pass" else f"suite {op.cls} reported {res['counts']}"


# Bands by cost at the seed commit: holder (about 5 ms) and classical-kernel
# (about 12 ms) are repeated so that the median falls inside the
# classical-kernel band and p90 inside the gram-psd band (about 100 ms); the
# four slowest suites run once a deck.
_VERIFY_DECK = (
    ("holder", 24),
    ("classical-kernel", 28),
    ("gram-psd", 8),
    ("positivity", 1),
    ("reproducing", 1),
    ("sequence", 1),
    ("geometry", 1),
)

VERIFY = Workload(
    name="verify",
    deck=_VERIFY_DECK,
    make=_make_verify,
    run=_run_verify,
    check=_check_verify,
    setup=Setup(
        ("verify", "--suite", "holder"),
        "",
        lambda doc: doc["overall"] == "pass",
    ),
    checked_decks=1 << 30,
)

WORKLOADS = {wl.name: wl for wl in (INNER, INTERP, GEOMETRY, VERIFY)}

"""Deterministic serialization for CLI input and output.

Output JSON comes from a small writer of its own so byte determinism stays
under this package's control: keys are emitted sorted, floats carry 17
significant digits (round-trip exact for doubles) and always include a
decimal point or exponent so they read back as floats.  A list or tuple of
floats only, and each CSV row, is written by one C-level ``%`` call over a
template of per-value specifiers (``_float_run``); JSON mode writes integral
values below ``1e17`` with ``"%.1f"``, which is byte for byte ``"%.17g"``
plus the ``".0"`` marker.  Input documents are parsed with the standard
library and validated here; malformed input always surfaces as
``InputError``.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .funcspace import DiangleSpan, H1Function, TrigPoly, trig_poly
from .kernel import Interpolant

__all__ = [
    "format_float",
    "dumps",
    "dumps_csv",
    "loads",
    "read_function",
    "write_function",
    "read_expansion",
    "read_body",
    "write_body",
    "read_pair",
    "read_interpolant",
    "write_interpolant",
    "as_float",
    "as_float_list",
]


def format_float(x: float, bare: bool = False) -> str:
    """17-significant-digit decimal form; JSON mode keeps a float marker."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite value {x!r}")
    s = "%.17g" % x
    if not bare and "." not in s and "e" not in s:
        s += ".0"
    return s


_FLOATS = {float, np.float64}


def _float_run(values, sep: str, bare: bool) -> str:
    """``sep.join(format_float(v, bare) for v in values)`` for floats, in one ``%`` call.

    ``"%.1f"`` of an integral value below ``1e17`` is its ``"%.17g"`` form plus
    ``".0"``; larger ones print with an exponent.  ``inf`` and ``nan`` are the
    only text with an ``"n"``: ``format_float`` then raises at the first one.
    """
    if bare or not any(map(float.is_integer, values)):
        specs = ["%.17g"] * len(values)
    else:
        specs = ["%.1f" if v.is_integer() and -1e17 < v < 1e17 else "%.17g" for v in values]
    text = sep.join(specs) % tuple(values)
    if "n" in text:
        for v in values:
            format_float(v, bare)
    return text


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}" for k, v in sorted(obj.items())
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        if set(map(type, obj)) <= _FLOATS:
            return "[\n" + pad + "  " + _float_run(obj, ",\n  " + pad, False) + "\n" + pad + "]"
        inner = ",\n".join(f"{pad}  {_emit(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _emit(obj, 0)


def dumps_csv(rows: Iterable[Sequence[float]], header: Sequence[str] = ("x", "f", "fprime")) -> str:
    lines = [",".join(header)]
    lines.extend(_float_run(list(map(float, row)), ",", True) for row in rows)
    return "\n".join(lines) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# validated readers


def as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise InputError(f"{what} must be finite, got {value!r}")
    return out


def as_float_list(value, what: str) -> list[float]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array")
    return [as_float(v, f"{what} entry") for v in value]


def _as_dict(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    return doc


def read_expansion(doc):
    """``{"x0": r, "terms": [{"angle": a, "coeff": c}, ...]}`` to an expansion."""
    from .seqmodel import diangle_expansion

    doc = _as_dict(doc, "expansion record")
    x0 = as_float(doc.get("x0", 0.0), "x0")
    raw_terms = doc.get("terms", [])
    if not isinstance(raw_terms, list):
        raise InputError("terms must be an array")
    terms = []
    for t in raw_terms:
        t = _as_dict(t, "term")
        terms.append((as_float(t.get("angle"), "angle"), as_float(t.get("coeff"), "coeff")))
    return diangle_expansion(x0, terms)


def read_function(doc) -> H1Function:
    doc = _as_dict(doc, "function record")
    kind = doc.get("type")
    if kind == "trigpoly":
        cos = as_float_list(doc.get("cos", [0.0]), "cos")
        sin = as_float_list(doc.get("sin", []), "sin")
        return trig_poly(cos, sin)
    if kind == "dianglespan":
        return DiangleSpan(read_expansion(doc))
    if kind == "interpolant":
        return read_interpolant(doc).to_function()
    raise InputError(f"unknown function type {kind!r}")


def write_function(f: H1Function) -> dict:
    if isinstance(f, TrigPoly):
        return {"type": "trigpoly", "cos": list(f.cos_coeffs), "sin": list(f.sin_coeffs)}
    if isinstance(f, DiangleSpan):
        e = f.expansion
        return {
            "type": "dianglespan",
            "x0": e.x0,
            "terms": [{"angle": a, "coeff": c} for a, c in e.terms],
        }
    raise InputError("only trig and diangle-span functions have a serial form")


def read_body(doc):
    """A body record: ``{"vertices": [[x, y], ...]}`` or ``{"generators": [...]}.``"""
    from . import convexgeo

    doc = _as_dict(doc, "body record")
    has_v = "vertices" in doc
    has_g = "generators" in doc
    if has_v == has_g:
        raise InputError("body record needs exactly one of 'vertices' or 'generators'")
    if has_v:
        verts = doc["vertices"]
        if not isinstance(verts, list) or not verts:
            raise InputError("vertices must be a nonempty array of [x, y] pairs")
        pts = []
        for v in verts:
            if not isinstance(v, list) or len(v) != 2:
                raise InputError("each vertex must be an [x, y] pair")
            pts.append((as_float(v[0], "vertex x"), as_float(v[1], "vertex y")))
        return convexgeo.symmetric_polygon(pts)
    gens = doc["generators"]
    if not isinstance(gens, list):
        raise InputError("generators must be an array")
    parsed = []
    for g in gens:
        g = _as_dict(g, "generator")
        parsed.append((as_float(g.get("angle"), "angle"), as_float(g.get("length"), "length")))
    return convexgeo.zonotope_from_generators(parsed)


def write_body(u) -> dict:
    return {"vertices": [[x, y] for x, y in u.vertices]}


def read_pair(doc):
    from . import convexgeo

    doc = _as_dict(doc, "pair record")
    if "U" not in doc or "V" not in doc:
        raise InputError("pair record needs 'U' and 'V' bodies")
    return convexgeo.body_pair(read_body(doc["U"]), read_body(doc["V"]))


def read_interpolant(doc) -> Interpolant:
    doc = _as_dict(doc, "interpolant record")
    nodes = as_float_list(doc.get("nodes"), "nodes")
    coeffs = as_float_list(doc.get("coeffs"), "coeffs")
    if len(nodes) != len(coeffs):
        raise InputError("nodes and coeffs must have equal length")
    theta = as_float(doc.get("theta", 2.0), "theta")
    ridge = as_float(doc.get("ridge", 0.0), "ridge")
    # records from before the fallback solves were deleted may still name one
    if doc.get("fallback") not in (None, "jitter", "least_squares"):
        raise InputError(f"unknown fallback {doc['fallback']!r}")
    return Interpolant(theta, ridge, tuple(nodes), tuple(coeffs))


def write_interpolant(itp: Interpolant) -> dict:
    return {
        "theta": itp.theta,
        "ridge": itp.ridge,
        "nodes": list(itp.nodes),
        "coeffs": list(itp.coeffs),
    }

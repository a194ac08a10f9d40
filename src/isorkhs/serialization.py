"""Deterministic serialization for CLI input and output.

Output JSON comes from a small writer of its own so byte determinism stays
under this package's control: keys are emitted sorted, floats carry 17
significant digits (round-trip exact for doubles) and always include a
decimal point or exponent so they read back as floats.  A list or tuple of
floats only, and each CSV row, is written by one C-level ``%`` call over a
template of per-value specifiers (``_float_run``); JSON mode writes integral
values below ``1e17`` with ``"%.1f"``, which is byte for byte ``"%.17g"``
plus the ``".0"`` marker.  A list of equally long rows of finite floats (a
Gram matrix, a vertex list) is written as one block (``_float_block``): each
distinct value, by bit pattern, is formatted once by ``_float_run`` and its
text copied to every cell that holds it, so a symmetric n x n matrix costs
about n(n+1)/2 conversions.  The writer appends its pieces to one list that
``dumps`` joins once.  Input documents are parsed with the standard library
and validated here; malformed input, nesting too deep for the parser
included, always surfaces as ``InputError``.  A list of numbers (series
coefficients, nodes, vertex coordinates, the two columns of a term or
generator list) is read in one C-level pass when every entry is a Python
float and their sum is finite (``_finite_floats``); any other list goes
entry by entry, which converts integers and names the first bad entry, so
the messages are those of the entry-by-entry reader.

Only the codecs of functions, interpolants and bodies need ``funcspace``,
``kernel`` and ``convexgeo``.  They reach each as an attribute of the package,
which imports it on first use, so reading an expansion loads none of them and
reading a body loads no kernel; an import statement in a codec would instead
cost about half a microsecond per call.  ``write_function`` writes every kind
``read_function`` reads, an interpolant as its ``interpolant`` record; it
looks for ``kernel`` in ``sys.modules``, as ``_emit`` does for NumPy, since
no interpolant exists before ``kernel`` is loaded.

NumPy is imported only by the block writer, so writing builtin values and
reading expansions and bodies never load it; the interpolant reader checks
its nodes' range on their least and greatest, with no array.  The writer
tests builtin types first; a list of NumPy ``float64`` values (a
``float`` subclass) takes the one-call path, a block of them the block path,
and any other NumPy scalar or array is written as the Python value it converts to.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain, repeat
from typing import Iterable, Sequence

import isorkhs

from .errors import InputError
from .seqmodel import diangle_expansion

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


_FLOAT = {float}
_DICT = {dict}
_PAIR = {list, tuple}


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


def _floats(types) -> bool:
    """Whether ``types`` are all ``float`` or its subclasses, as NumPy's ``float64`` is."""
    return all(map(issubclass, types, repeat(float)))


def _float_block(rows):
    """The texts of ``rows`` row by row, or ``None`` when ``rows`` is not a float block.

    A block is a list of equally long nonempty lists or tuples of finite floats,
    such as a Gram matrix or a vertex list.  Its distinct values, told apart by
    bit pattern so ``0.0`` and ``-0.0`` stay apart, are formatted by one
    ``_float_run``, and each cell takes its text back by one index.
    """
    k = len(rows[0]) if isinstance(rows[0], (list, tuple)) else 0
    if not k or not all(isinstance(r, (list, tuple)) and len(r) == k for r in rows):
        return None
    if not _floats(set(map(type, chain.from_iterable(rows)))):
        return None
    import numpy as np

    block = np.array(rows, dtype=np.float64)
    if not np.isfinite(block).all():
        return None
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    texts = np.array(_float_run(bits.view(np.float64).tolist(), ",", False).split(","), dtype=object)
    return texts[inverse.reshape(block.shape)].tolist()


def _emit(obj, indent: int, out: list) -> None:
    """Append the JSON text of ``obj`` to ``out`` in pieces.

    Builtin types are tested first.  A NumPy scalar or array can exist only once
    NumPy is loaded, and is written as the Python value it converts to.
    """
    if obj is None:
        return out.append("null")
    if isinstance(obj, bool):
        return out.append("true" if obj else "false")
    if isinstance(obj, str):
        return out.append(json.dumps(obj))
    if isinstance(obj, int):
        return out.append(str(int(obj)))
    if isinstance(obj, float):  # NumPy's float64 is a float
        return out.append(format_float(obj))
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return out.append("{}")
        lead = "{\n"
        for k, v in sorted(obj.items()):
            out.append(f"{lead}{pad}  {json.dumps(str(k))}: ")
            _emit(v, indent + 1, out)
            lead = ",\n"
        return out.append("\n" + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return out.append("[]")
        types = set(map(type, obj))
        if types <= _FLOAT or _floats(types):
            return out.append("[\n" + pad + "  " + _float_run(obj, ",\n  " + pad, False) + "\n" + pad + "]")
        lead = "[\n"
        rows = _float_block(obj)
        if rows is not None:
            cell = ",\n" + pad + "    "
            for row in rows:
                out.append(f"{lead}{pad}  [\n{pad}    {cell.join(row)}\n{pad}  ]")
                lead = ",\n"
        else:
            for v in obj:
                out.append(lead + pad + "  ")
                _emit(v, indent + 1, out)
                lead = ",\n"
        return out.append("\n" + pad + "]")
    np = sys.modules.get("numpy")
    if np is not None:
        numpy_types = ((np.bool_, bool), (np.integer, int), (np.floating, float), (np.ndarray, np.ndarray.tolist))
        for kind, convert in numpy_types:
            if isinstance(obj, kind):
                return _emit(convert(obj), indent, out)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out)


def dumps_csv(rows: Iterable[Sequence[float]], header: Sequence[str] = ("x", "f", "fprime")) -> str:
    lines = [",".join(header)]
    lines.extend(_float_run(list(map(float, row)), ",", True) for row in rows)
    return "\n".join(lines) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None


# ---------------------------------------------------------------------------
# validated readers


def as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the largest double
        out = math.inf
    if not math.isfinite(out):
        raise InputError(f"{what} must be finite, got {value!r}")
    return out


def _finite_floats(values: list):
    """``values`` itself when every entry is a Python ``float`` and their sum is finite, else ``None``.

    A finite sum rules out NaN and infinities in two C-level passes; a list
    that fails (an integer, a bool, a non-number, a non-finite entry, or finite
    entries whose sum overflows) goes back to its reader's entry-by-entry loop,
    which converts what it can and names the first bad entry.
    """
    if set(map(type, values)) <= _FLOAT and math.isfinite(sum(values)):
        return values
    return None


def as_float_list(value, what: str) -> list[float]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array")
    out = _finite_floats(value)
    if out is None:
        out = [as_float(v, f"{what} entry") for v in value]
    return out


def _as_dict(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    return doc


def _float_pairs(items, what: str, first: str, second: str) -> list[tuple[float, float]]:
    """The numbers ``first`` and ``second`` of each ``what`` object in the array ``items``."""
    if not isinstance(items, list):
        raise InputError(f"{what}s must be an array")
    if set(map(type, items)) <= _DICT:
        xs = _finite_floats(list(map(dict.get, items, repeat(first))))
        ys = _finite_floats(list(map(dict.get, items, repeat(second))))
        if xs is not None and ys is not None:
            return list(zip(xs, ys))
    out = []  # entry by entry: converts integers, names the first bad entry
    for t in items:
        r = _as_dict(t, what)
        out.append((as_float(r.get(first), first), as_float(r.get(second), second)))
    return out


def read_expansion(doc):
    """``{"x0": r, "terms": [{"angle": a, "coeff": c}, ...]}`` to an expansion."""
    doc = _as_dict(doc, "expansion record")
    x0 = as_float(doc.get("x0", 0.0), "x0")
    return diangle_expansion(x0, _float_pairs(doc.get("terms", []), "term", "angle", "coeff"))


def read_function(doc) -> isorkhs.funcspace.H1Function:
    doc = _as_dict(doc, "function record")
    kind = doc.get("type")
    if kind == "trigpoly":
        cos = as_float_list(doc.get("cos", [0.0]), "cos")
        sin = as_float_list(doc.get("sin", []), "sin")
        return isorkhs.funcspace.trig_poly(cos, sin)
    if kind == "dianglespan":
        return isorkhs.funcspace.DiangleSpan(read_expansion(doc))
    if kind == "interpolant":
        return read_interpolant(doc)
    raise InputError(f"unknown function type {kind!r}")


def write_function(f: isorkhs.funcspace.H1Function) -> dict:
    """The record of a series, a span or an interpolant, every kind ``read_function`` reads.

    An interpolant gets its own record, not its span's expansion, so it reads
    back as an interpolant, with its theta, ridge, nodes and coefficients.
    """
    funcspace = isorkhs.funcspace
    kernel = sys.modules.get("isorkhs.kernel")
    if kernel is not None and isinstance(f, kernel.Interpolant):
        return {"type": "interpolant", **write_interpolant(f)}
    if isinstance(f, funcspace.TrigPoly):
        return {"type": "trigpoly", "cos": list(f.cos_coeffs), "sin": list(f.sin_coeffs)}
    if isinstance(f, funcspace.DiangleSpan):
        e = f.expansion
        return {
            "type": "dianglespan",
            "x0": e.x0,
            "terms": [{"angle": a, "coeff": c} for a, c in e.terms],
        }
    raise InputError("only trig, diangle-span and interpolant functions have a serial form")


def read_body(doc):
    """A body record: ``{"vertices": [[x, y], ...]}`` or ``{"generators": [...]}.``"""
    doc = _as_dict(doc, "body record")
    has_v = "vertices" in doc
    has_g = "generators" in doc
    if has_v == has_g:
        raise InputError("body record needs exactly one of 'vertices' or 'generators'")
    if has_v:
        verts = doc["vertices"]
        if not isinstance(verts, list) or not verts:
            raise InputError("vertices must be a nonempty array of [x, y] pairs")
        pairs = set(map(type, verts)) <= _PAIR and set(map(len, verts)) == {2}
        if not pairs or _finite_floats(list(chain.from_iterable(verts))) is None:
            pts = []  # entry by entry: converts integers, names the first bad entry
            for v in verts:
                if not isinstance(v, list) or len(v) != 2:
                    raise InputError("each vertex must be an [x, y] pair")
                pts.append((as_float(v[0], "vertex x"), as_float(v[1], "vertex y")))
            verts = pts
        return isorkhs.convexgeo._from_floats(verts)  # checked float pairs, converted and checked once
    return isorkhs.convexgeo.zonotope_from_generators(_float_pairs(doc["generators"], "generator", "angle", "length"))


def write_body(u) -> dict:
    return {"vertices": [[x, y] for x, y in isorkhs.convexgeo.vertex_list(u)]}


def read_pair(doc):
    doc = _as_dict(doc, "pair record")
    if "U" not in doc or "V" not in doc:
        raise InputError("pair record needs 'U' and 'V' bodies")
    return isorkhs.convexgeo.body_pair(read_body(doc["U"]), read_body(doc["V"]))


def read_interpolant(doc) -> isorkhs.kernel.Interpolant:
    doc = _as_dict(doc, "interpolant record")
    nodes = as_float_list(doc.get("nodes"), "nodes")
    coeffs = as_float_list(doc.get("coeffs"), "coeffs")
    if len(nodes) != len(coeffs):
        raise InputError("nodes and coeffs must have equal length")
    # a Gram system's rules except distinct nodes, as duplicates still define one
    # function; a node outside the domain is malformed, as no Gram system holds one
    kernel = isorkhs.kernel
    theta = kernel._check_theta(as_float(doc.get("theta", 2.0), "theta"))
    ridge = kernel._check_ridge(as_float(doc.get("ridge", 0.0), "ridge"))
    kernel._check_domain(min(nodes, default=0.0), max(nodes, default=0.0))  # finite nodes: the ends bound the rest
    # records from before the fallback solves were deleted may still name one
    if doc.get("fallback") not in (None, "jitter", "least_squares"):
        raise InputError(f"unknown fallback {doc['fallback']!r}")
    return kernel.Interpolant(theta, ridge, tuple(nodes), tuple(coeffs))


def write_interpolant(itp: isorkhs.kernel.Interpolant) -> dict:
    return {
        "theta": itp.theta,
        "ridge": itp.ridge,
        "nodes": list(itp.nodes),
        "coeffs": list(itp.coeffs),
    }

"""Command-line verification harness.

Commands read JSON documents (``--input FILE``, ``-`` for stdin), emit one
deterministic JSON or CSV document on stdout, and signal failure through the
exit code: 0 success, 1 invariant violation (including a failed verify run),
2 malformed input, 3 numerical failure.  Errors are reported as
``{"error": {"kind": ..., "detail": ...}}`` on stdout.  Each command, and each
``geom`` operation, accepts only the flags its handler reads; any other flag is
a usage error, reported as malformed input.  Only ``serialization`` (with
``seqmodel``, which every command runs) and the error classes load with this
module; each handler imports the layers it calls, so a command compiles and
runs only those.  NumPy loads with the layers that compute on arrays, and here
only for the ``--at`` points and the sample grids, so ``seq`` and ``geom
area|perimeter|norm|deficit`` run without it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from . import serialization
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    InputError,
    InvariantViolationError,
    SingularSystemError,
)

if TYPE_CHECKING:
    import numpy as np

_HALF_PI = 0.5 * math.pi

_EXIT_INVARIANT = 1
_EXIT_MALFORMED = 2
_EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are malformed input: ``main`` reports them
    as the error document on stdout and exits 2, with the usage line on stderr.  Its
    subcommand parsers are of this class too; ``--help`` still prints and exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        if message.startswith("argument --at:"):
            # argparse reads a list that starts with a minus sign as an option
            message += " (write a list that starts with a minus sign as --at=-0.5,0.5)"
        raise InputError(f"{self.prog}: {message}")


def _read_input(path: str) -> object:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    return serialization.loads(text)


def _spec(args):
    """The quadrature spec of ``--tol``.  Only quadrature reads a tolerance, so ``inner``
    and ``norm`` take the flag with ``--method quadrature`` only; ``geom cauchy`` has no
    ``--method`` and always integrates."""
    from .quad import DEFAULT_SPEC, QuadratureSpec

    if args.tol is None:
        return DEFAULT_SPEC
    method = getattr(args, "method", "quadrature")
    if method != "quadrature":
        raise InputError(f"--tol needs --method quadrature; --method {method} takes the exact route, with no tolerance")
    return QuadratureSpec(abs_tol=args.tol, rel_tol=args.tol)


def _kernel_params(args, doc: dict) -> dict:
    """``theta`` and ``ridge`` for a kernel command: the flag, else the document's key, else 2 and 0."""
    params = {}
    for name, default in (("theta", 2.0), ("ridge", 0.0)):
        value = getattr(args, name)
        if value is None:
            value = serialization.as_float(doc[name], name) if name in doc else default
        params[name] = value
    return params


def _parse_points(text: str) -> np.ndarray:
    import numpy as np

    try:
        pts = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse point list {text!r}") from exc
    if not pts:
        raise InputError("empty point list")
    return np.asarray(pts)


def _grid(n: int) -> np.ndarray:
    if n < 2:
        raise InputError("need at least 2 sample points")
    import numpy as np

    return np.linspace(-_HALF_PI, _HALF_PI, int(n))


def _lists(doc, command: str, *keys: str) -> list[list[float]]:
    """The float lists ``keys`` of ``command``'s input object, read in that order."""
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise InputError(f"{command} needs an object with {' and '.join(map(repr, keys))}")
    return [serialization.as_float_list(doc[k], k) for k in keys]


def _table(args, columns: dict, header: tuple[str, ...]):
    """``columns`` as a JSON object of lists, or with ``--output csv`` as CSV rows under ``header``."""
    if args.output == "csv":
        return serialization.dumps_csv(zip(*columns.values()), header)
    return {name: list(column) for name, column in columns.items()}


def _function_from(doc):
    if isinstance(doc, dict) and "type" not in doc and "f" in doc:
        return serialization.read_function(doc["f"])
    return serialization.read_function(doc)


# ---------------------------------------------------------------------------
# handlers: each takes the parsed flags and the input document


def _cmd_eval(args, doc):
    from . import funcspace

    f = _function_from(doc)
    pts = _parse_points(args.at)
    columns = {"at": pts, "values": funcspace.evaluate(f, pts), "derivatives": f.derivative(pts)}
    return _table(args, columns, ("x", "f", "fprime"))


def _cmd_inner(args, doc):
    from . import funcspace

    if not isinstance(doc, dict) or "f" not in doc or "g" not in doc:
        raise InputError("inner needs an object with 'f' and 'g' function records")
    f = serialization.read_function(doc["f"])
    g = serialization.read_function(doc["g"])
    return {"inner": funcspace.inner_product_iso(f, g, method=args.method, spec=_spec(args))}


def _cmd_norm(args, doc):
    from . import funcspace

    n2 = funcspace.norm_iso_squared(_function_from(doc), method=args.method, spec=_spec(args))
    return {"norm2": n2, "norm": math.sqrt(max(0.0, n2))}


def _cmd_gram(args, doc):
    from . import kernel

    (nodes,) = _lists(doc, "gram", "nodes")
    g = kernel.gram_system(nodes, **_kernel_params(args, doc))
    return {
        "theta": g.theta,
        "ridge": g.ridge,
        "nodes": list(g.nodes),
        "matrix": [list(row) for row in g.matrix],
        "min_eig": g.min_eig,
        "max_eig": g.max_eig,
        "cond": g.cond_estimate if math.isfinite(g.cond_estimate) else None,
        "chol_ok": g.chol_ok,
    }


def _cmd_interp(args, doc):
    from . import kernel

    nodes, values = _lists(doc, "interp", "nodes", "values")
    return serialization.write_function(kernel.interpolate(nodes, values, **_kernel_params(args, doc)))


def _cmd_power(args, doc):
    from . import kernel

    (nodes,) = _lists(doc, "power", "nodes")
    g = kernel.gram_system(nodes, **_kernel_params(args, doc))
    pts = _parse_points(args.at)
    return _table(args, {"at": pts, "power": kernel.power_function(g, pts)}, ("x", "power"))


def _cmd_seq(args, doc):
    from . import seqmodel

    x = serialization.read_expansion(doc)
    out = {
        "norm2": seqmodel.seq_norm_squared(x),
        "gap": seqmodel.sequence_isoperimetric_gap(x),
        "polygon_gap": None,
        "perimeter": None,
        "area": None,
    }
    try:
        out["polygon_gap"] = seqmodel.polygon_isoperimetric_gap(x)
        out["perimeter"] = seqmodel.polygon_perimeter(x)
        out["area"] = seqmodel.polygon_area(x)
    except DomainError:
        pass
    for name, value in out.items():
        if value is not None and not math.isfinite(value):
            raise InputError(f"expansion is too large: its {name} overflows to {value!r}")
    return out


def _geom_sum(args, doc):
    from . import convexgeo

    pair = serialization.read_pair(doc)
    return serialization.write_body(convexgeo.minkowski_sum(pair.U, pair.V))


def _geom_area(args, doc):
    from . import convexgeo

    return {"area": convexgeo.area(serialization.read_body(doc))}


def _geom_perimeter(args, doc):
    from . import convexgeo

    return {"perimeter": convexgeo.perimeter(serialization.read_body(doc))}


def _geom_width(args, doc):
    from . import convexgeo

    body = serialization.read_body(doc)
    return {
        "angle": args.angle,
        "width": convexgeo.width(body, args.angle),
        "derivative": convexgeo.width_derivative(body, args.angle),
    }


def _geom_cauchy(args, doc):
    from . import convexgeo

    body = serialization.read_body(doc)
    return {"cauchy_gap": convexgeo.cauchy_check(body, _spec(args)), "perimeter": convexgeo.perimeter(body)}


def _geom_norm(args, doc):
    from . import convexgeo

    n2 = convexgeo.convex_norm_squared(serialization.read_pair(doc))
    return {"norm2": n2, "norm": math.sqrt(max(0.0, n2))}


def _geom_deficit(args, doc):
    from . import convexgeo

    pair = serialization.read_pair(doc)
    return {
        "deficit": convexgeo.pair_deficit(pair),
        "measure": convexgeo.pair_measure(pair),
        "perimeter": convexgeo.pair_perimeter(pair),
    }


def _geom_tofunction(args, doc):
    from . import convexgeo

    f = convexgeo.pair_to_function(serialization.read_pair(doc))
    xs = _grid(args.points)
    fs, ds = f.value_and_derivative(xs)
    return _table(args, {"x": xs, "f": fs, "fprime": ds}, ("x", "f", "fprime"))


def _geom_equiv(args, doc):
    from . import convexgeo

    if not isinstance(doc, dict) or "A" not in doc or "B" not in doc:
        raise InputError("equiv needs an object with pairs 'A' and 'B'")
    a = serialization.read_pair(doc["A"])
    b = serialization.read_pair(doc["B"])
    return {"equivalent": convexgeo.pair_equivalent(a, b)}


def _cmd_verify(args, doc):
    from . import verify

    report = verify.run_suite(args.suite, seed=args.seed)
    return report.document(), (0 if report.overall else _EXIT_INVARIANT)


def _cmd_export(args, doc):
    f = _function_from(doc)
    xs = _grid(args.points)
    return serialization.dumps_csv(zip(xs, *f.value_and_derivative(xs)))


# ---------------------------------------------------------------------------
# the parser: each command, and each geom operation, takes exactly the flags its handler reads


def _flag(name, **kwargs):
    return name, kwargs


_INPUT = _flag("--input", required=True, help="JSON input file, or - for stdin")
_AT = _flag("--at", required=True, help="comma-separated evaluation points")
_OUTPUT = _flag("--output", choices=("json", "csv"), default="json", help="output format")
_METHOD = _flag("--method", choices=("auto", "exact", "quadrature"), default="auto")
_TOL = _flag("--tol", type=float, help="quadrature tolerance")
_THETA = _flag("--theta", type=float, help="kernel parameter (default: the document's theta, else 2)")
_RIDGE = _flag("--ridge", type=float, help="Gram regularizer (default: the document's ridge, else 0)")
_POINTS = _flag("--points", type=int, default=101, help="sample count (default 101)")

#: name -> (help, handler, flags); a table in place of a handler is a level of subcommands
_COMMANDS = {
    "eval": ("evaluate a function record on a grid", _cmd_eval, [_INPUT, _AT, _OUTPUT]),
    "inner": ("isoperimetric inner product of f and g", _cmd_inner, [_INPUT, _METHOD, _TOL]),
    "norm": ("isoperimetric norm of a function record", _cmd_norm, [_INPUT, _METHOD, _TOL]),
    "gram": ("kernel Gram matrix and spectrum at nodes", _cmd_gram, [_INPUT, _THETA, _RIDGE]),
    "interp": ("minimum-norm kernel interpolation", _cmd_interp, [_INPUT, _THETA, _RIDGE]),
    "power": ("power function of a node set", _cmd_power, [_INPUT, _AT, _THETA, _RIDGE, _OUTPUT]),
    "seq": ("sequence-model norm, gap, perimeter, area", _cmd_seq, [_INPUT]),
    "geom": (
        "convex-geometry operations",
        {
            "sum": ("Minkowski sum of a pair's bodies", _geom_sum, [_INPUT]),
            "area": ("area of a body", _geom_area, [_INPUT]),
            "perimeter": ("perimeter of a body", _geom_perimeter, [_INPUT]),
            "width": (
                "width of a body and its derivative in one direction",
                _geom_width,
                [_INPUT, _flag("--angle", type=float, required=True, help="direction")],
            ),
            "norm": ("isoperimetric norm of a pair", _geom_norm, [_INPUT]),
            "deficit": ("isoperimetric deficit, measure and perimeter of a pair", _geom_deficit, [_INPUT]),
            "tofunction": ("sample the width profile of a pair", _geom_tofunction, [_INPUT, _POINTS, _OUTPUT]),
            "equiv": ("whether pairs A and B are one function", _geom_equiv, [_INPUT]),
            "cauchy": ("Cauchy's perimeter formula against quadrature", _geom_cauchy, [_INPUT, _TOL]),
        },
        [],
    ),
    "verify": (
        "run a named verification suite",
        _cmd_verify,
        [
            _flag("--suite", default="all", help="suite name, or all (the default); an unknown name lists the suites"),
            _flag("--seed", type=int, default=0, help="RNG seed (default 0)"),
        ],
    ),
    "export": ("sample a function record to CSV", _cmd_export, [_INPUT, _POINTS]),
}


def _add_commands(sub, table, words) -> None:
    for name, (text, handler, flags) in table.items():
        p = sub.add_parser(name, help=text)
        if words is not None and words[:1] != [name]:
            continue  # a name and its help are all that a usage line or a choice error reads
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        if isinstance(handler, dict):
            rest = None if words is None else words[1:]
            _add_commands(p.add_subparsers(dest="operation", required=True), handler, rest)
        else:
            p.set_defaults(handler=handler)


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The whole command tree; given ``argv``, only the command and ``geom`` operation it names get flags.

    No level takes a flag before its subcommand, so the words of ``argv`` that
    do not start with a minus sign name the subcommands first.  A word that
    names none is an invalid choice, which needs only the names.
    """
    words = None if argv is None else [a for a in argv if not a.startswith("-")]
    parser = _Parser(prog="isorkhs", description="Verification harness for the isoperimetric function space.")
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS, words)
    return parser


def _emit_error(kind: str, exc: BaseException) -> None:
    doc = {"error": {"kind": kind, "detail": str(exc)}}
    sys.stdout.write(serialization.dumps(doc) + "\n")


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser(argv).parse_args(argv)
        result = args.handler(args, _read_input(args.input) if "input" in args else None)
        result, code = result if isinstance(result, tuple) else (result, 0)  # verify adds its exit code
        if not isinstance(result, str):
            result = serialization.dumps(result) + "\n"
    except InvariantViolationError as exc:
        _emit_error("invariant-violation", exc)
        return _EXIT_INVARIANT
    except (InputError, ValueError) as exc:
        _emit_error("malformed-input", exc)
        return _EXIT_MALFORMED
    except (ConvergenceError, EvaluationError, SingularSystemError, ArithmeticError, MemoryError) as exc:
        # an array too large to allocate is a numerical failure too, as the quadrature panel cap is
        _emit_error("numerical-failure", exc)
        return _EXIT_NUMERICAL

    sys.stdout.write(result)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line verification harness.

Commands read JSON documents (``--input FILE``, ``-`` for stdin), emit one
deterministic JSON or CSV document on stdout, and signal failure through the
exit code: 0 success, 1 invariant violation (including a failed verify run),
2 malformed input, 3 numerical failure.  Errors are reported as
``{"error": {"kind": ..., "detail": ...}}`` on stdout.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import convexgeo, funcspace, kernel, seqmodel, serialization, verify
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    InputError,
    InvariantViolationError,
    SingularSystemError,
)
from .quad import DEFAULT_SPEC, QuadratureSpec

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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isorkhs",
        description="Verification harness for the isoperimetric function space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="JSON input file, or - for stdin")
        p.add_argument("--theta", type=float, default=None, help="kernel parameter (default 2)")
        p.add_argument("--ridge", type=float, default=None, help="Gram regularizer (default 0)")
        p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument(
            "--output", choices=("json", "csv"), default="json", help="output format"
        )
        return p

    p = common(sub.add_parser("eval", help="evaluate a function record on a grid"))
    p.add_argument("--at", required=True, help="comma-separated evaluation points")

    p = common(sub.add_parser("inner", help="isoperimetric inner product of f and g"))
    p.add_argument("--method", choices=("auto", "exact", "quadrature"), default="auto")

    p = common(sub.add_parser("norm", help="isoperimetric norm of a function record"))
    p.add_argument("--method", choices=("auto", "exact", "quadrature"), default="auto")

    common(sub.add_parser("gram", help="kernel Gram matrix and spectrum at nodes"))

    common(sub.add_parser("interp", help="minimum-norm kernel interpolation"))

    p = common(sub.add_parser("power", help="power function of a node set"))
    p.add_argument("--at", required=True, help="comma-separated evaluation points")

    common(sub.add_parser("seq", help="sequence-model norm, gap, perimeter, area"))

    p = common(sub.add_parser("geom", help="convex-geometry operations"))
    p.add_argument(
        "operation",
        choices=(
            "sum",
            "area",
            "perimeter",
            "width",
            "norm",
            "deficit",
            "tofunction",
            "equiv",
            "cauchy",
        ),
    )
    p.add_argument("--angle", type=float, default=None, help="direction for width")
    p.add_argument("--points", type=int, default=101, help="sample count for tofunction")

    p = common(sub.add_parser("verify", help="run a named verification suite"), needs_input=False)
    p.add_argument(
        "--suite",
        default="all",
        help="suite name: " + ", ".join(sorted([*verify.SUITES, "all"])),
    )

    p = common(sub.add_parser("export", help="sample a function record to CSV"))
    p.add_argument("--points", type=int, default=101, help="sample count (default 101)")

    return parser


def _read_input(args) -> object:
    path = args.input
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    return serialization.loads(text)


def _spec(args) -> QuadratureSpec:
    if args.tol is None:
        return DEFAULT_SPEC
    tol = float(args.tol)
    return QuadratureSpec(abs_tol=tol, rel_tol=tol)


def _theta(args, doc, default=2.0) -> float:
    if args.theta is not None:
        return float(args.theta)
    if isinstance(doc, dict) and "theta" in doc:
        return serialization.as_float(doc["theta"], "theta")
    return default


def _ridge(args, doc, default=0.0) -> float:
    if args.ridge is not None:
        return float(args.ridge)
    if isinstance(doc, dict) and "ridge" in doc:
        return serialization.as_float(doc["ridge"], "ridge")
    return default


def _parse_points(text: str) -> list[float]:
    try:
        pts = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse point list {text!r}") from exc
    if not pts:
        raise InputError("empty point list")
    return pts


def _grid(n: int) -> np.ndarray:
    if n < 2:
        raise InputError("need at least 2 sample points")
    return np.linspace(-_HALF_PI, _HALF_PI, int(n))


def _function_from(doc):
    if isinstance(doc, dict) and "type" not in doc and "f" in doc:
        return serialization.read_function(doc["f"])
    return serialization.read_function(doc)


def _no_csv(args):
    if args.output == "csv":
        raise InputError(f"command {args.command!r} has no CSV form")


# ---------------------------------------------------------------------------
# handlers


def _cmd_eval(args):
    f = _function_from(_read_input(args))
    pts = np.asarray(_parse_points(args.at))
    values = funcspace.evaluate(f, pts)
    derivs = f.derivative(pts)
    if args.output == "csv":
        return serialization.dumps_csv(zip(pts, values, derivs))
    return {"at": list(pts), "values": list(values), "derivatives": list(derivs)}


def _cmd_inner(args):
    _no_csv(args)
    doc = _read_input(args)
    if not isinstance(doc, dict) or "f" not in doc or "g" not in doc:
        raise InputError("inner needs an object with 'f' and 'g' function records")
    f = serialization.read_function(doc["f"])
    g = serialization.read_function(doc["g"])
    value = funcspace.inner_product_iso(f, g, method=args.method, spec=_spec(args))
    return {"inner": value}


def _cmd_norm(args):
    _no_csv(args)
    f = _function_from(_read_input(args))
    n2 = funcspace.norm_iso_squared(f, method=args.method, spec=_spec(args))
    return {"norm2": n2, "norm": math.sqrt(max(0.0, n2))}


def _cmd_gram(args):
    _no_csv(args)
    doc = _read_input(args)
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise InputError("gram needs an object with 'nodes'")
    nodes = serialization.as_float_list(doc["nodes"], "nodes")
    g = kernel.gram_system(nodes, theta=_theta(args, doc), ridge=_ridge(args, doc))
    cond = g.cond_estimate
    return {
        "theta": g.theta,
        "ridge": g.ridge,
        "nodes": list(g.nodes),
        "matrix": [list(row) for row in g.matrix],
        "min_eig": g.min_eig,
        "max_eig": g.max_eig,
        "cond": cond if math.isfinite(cond) else None,
        "chol_ok": g.chol_ok,
    }


def _cmd_interp(args):
    _no_csv(args)
    doc = _read_input(args)
    if not isinstance(doc, dict) or "nodes" not in doc or "values" not in doc:
        raise InputError("interp needs an object with 'nodes' and 'values'")
    nodes = serialization.as_float_list(doc["nodes"], "nodes")
    values = serialization.as_float_list(doc["values"], "values")
    itp = kernel.interpolate(nodes, values, theta=_theta(args, doc), ridge=_ridge(args, doc))
    out = serialization.write_interpolant(itp)
    out["type"] = "interpolant"
    return out


def _cmd_power(args):
    doc = _read_input(args)
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise InputError("power needs an object with 'nodes'")
    nodes = serialization.as_float_list(doc["nodes"], "nodes")
    g = kernel.gram_system(nodes, theta=_theta(args, doc), ridge=_ridge(args, doc))
    pts = np.asarray(_parse_points(args.at))
    vals = kernel.power_function(g, pts)
    if args.output == "csv":
        return serialization.dumps_csv(zip(pts, vals), header=("x", "power"))
    return {"at": list(pts), "power": list(vals)}


def _cmd_seq(args):
    _no_csv(args)
    x = serialization.read_expansion(_read_input(args))
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


def _cmd_geom(args):
    doc = _read_input(args)
    op = args.operation
    if op == "sum":
        _no_csv(args)
        pair = serialization.read_pair(doc)
        return serialization.write_body(convexgeo.minkowski_sum(pair.U, pair.V))
    if op in ("area", "perimeter", "cauchy", "width"):
        _no_csv(args)
        body = serialization.read_body(doc)
        if op == "area":
            return {"area": convexgeo.area(body)}
        if op == "perimeter":
            return {"perimeter": convexgeo.perimeter(body)}
        if op == "cauchy":
            return {
                "cauchy_gap": convexgeo.cauchy_check(body, _spec(args)),
                "perimeter": convexgeo.perimeter(body),
            }
        if args.angle is None:
            raise InputError("width needs --angle")
        return {
            "angle": float(args.angle),
            "width": convexgeo.width(body, float(args.angle)),
            "derivative": convexgeo.width_derivative(body, float(args.angle)),
        }
    if op in ("norm", "deficit"):
        _no_csv(args)
        pair = serialization.read_pair(doc)
        if op == "norm":
            n2 = convexgeo.convex_norm_squared(pair)
            return {"norm2": n2, "norm": math.sqrt(max(0.0, n2))}
        return {
            "deficit": convexgeo.pair_deficit(pair),
            "measure": convexgeo.pair_measure(pair),
            "perimeter": convexgeo.pair_perimeter(pair),
        }
    if op == "tofunction":
        pair = serialization.read_pair(doc)
        f = convexgeo.pair_to_function(pair)
        xs = _grid(args.points)
        rows = zip(xs, f.value(xs), f.derivative(xs))
        if args.output == "csv":
            return serialization.dumps_csv(rows)
        xs_l, fs_l, ds_l = zip(*rows)
        return {"x": list(xs_l), "f": list(fs_l), "fprime": list(ds_l)}
    if op == "equiv":
        _no_csv(args)
        if not isinstance(doc, dict) or "A" not in doc or "B" not in doc:
            raise InputError("equiv needs an object with pairs 'A' and 'B'")
        a = serialization.read_pair(doc["A"])
        b = serialization.read_pair(doc["B"])
        return {"equivalent": convexgeo.pair_equivalent(a, b)}
    raise InputError(f"unknown geom operation {op!r}")


def _cmd_verify(args):
    _no_csv(args)
    report = verify.run_suite(args.suite, seed=args.seed)
    return report.document(), (0 if report.overall else _EXIT_INVARIANT)


def _cmd_export(args):
    f = _function_from(_read_input(args))
    xs = _grid(args.points)
    return serialization.dumps_csv(zip(xs, f.value(xs), f.derivative(xs)))


_HANDLERS = {
    "eval": _cmd_eval,
    "inner": _cmd_inner,
    "norm": _cmd_norm,
    "gram": _cmd_gram,
    "interp": _cmd_interp,
    "power": _cmd_power,
    "seq": _cmd_seq,
    "geom": _cmd_geom,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def _emit_error(kind: str, exc: BaseException) -> None:
    doc = {"error": {"kind": kind, "detail": str(exc)}}
    sys.stdout.write(serialization.dumps(doc) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        result = _HANDLERS[args.command](args)
        code = 0
        if isinstance(result, tuple):
            result, code = result
        if not isinstance(result, str):
            result = serialization.dumps(result) + "\n"
    except InvariantViolationError as exc:
        _emit_error("invariant-violation", exc)
        return _EXIT_INVARIANT
    except (InputError, ValueError) as exc:
        _emit_error("malformed-input", exc)
        return _EXIT_MALFORMED
    except (ConvergenceError, EvaluationError, SingularSystemError, ArithmeticError) as exc:
        _emit_error("numerical-failure", exc)
        return _EXIT_NUMERICAL

    sys.stdout.write(result)
    return code


if __name__ == "__main__":
    sys.exit(main())

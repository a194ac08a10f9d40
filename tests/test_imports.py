"""The import graph: ``import isorkhs`` loads only the error classes, and each
command loads only the layers it runs, and NumPy only if one of them computes
on arrays.  Every case spawns a fresh interpreter, so the module sets are those
of one cold call."""

import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isorkhs

SRC = str(Path(isorkhs.__file__).parents[1])

# the names the package exported when its __init__ imported every layer
EXPORTS = {
    "errors": ["ConvergenceError", "DomainError", "EvaluationError", "InputError", "InvariantViolationError",
               "IsorkhsError", "SingularSystemError"],
    "funcspace": ["DiangleSpan", "H1Function", "Sampled", "TrigPoly", "constant", "diangle", "diangle_span",
                  "energy_deficit", "evaluate", "holder_ratio", "inner_product_classical", "inner_product_iso",
                  "mean_value", "norm_iso", "norm_iso_squared", "perimeter_functional", "project_endpoints",
                  "sampled", "trig_poly", "wirtinger_deficit"],
    "kernel": ["GramSystem", "Interpolant", "classical_kernel_eval", "classical_kernel_function",
               "classical_reproducing_residual", "gram_system", "interpolate", "kernel_eval", "kernel_function",
               "power_function", "reproducing_residual"],
    "quad": ["DEFAULT_SPEC", "DELTA", "Interval", "QuadratureSpec", "derivative_at", "integrate"],
    "rng": ["SplitMix64"],
    "seqmodel": ["DiangleExpansion", "diangle_expansion", "polygon_area", "polygon_isoperimetric_gap",
                 "polygon_perimeter", "seq_inner", "seq_norm_squared", "sequence_isoperimetric_gap"],
    "convexgeo": ["BodyPair", "SymmetricPolygon", "body_pair", "convex_norm", "convex_norm_squared",
                  "minkowski_sum", "pair_deficit", "pair_equivalent", "pair_measure", "pair_perimeter",
                  "pair_to_function", "point", "regular_polygon", "segment", "symmetric_polygon", "width",
                  "zonotope_from_generators"],
}

# Runs each argv of the JSON list in sys.argv[1] through cli.main (or, for an
# empty list, only imports the package), then prints the loaded modules.
_PROBE = """
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
import isorkhs
codes = []
if argvs:
    from isorkhs import cli
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
print(json.dumps({
    "codes": codes,
    "modules": sorted(m for m in sys.modules if m.startswith("isorkhs")),
    "numpy": "numpy" in sys.modules,
    "polynomial": "numpy.polynomial" in sys.modules,
    "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
}))
"""


def _run(*args):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def probe(*argvs):
    return _run("-c", _PROBE, json.dumps(argvs))


@functools.cache
def polynomial_with_numpy() -> bool:
    """Whether ``import numpy`` alone loads ``numpy.polynomial``, as NumPy 1 does and NumPy 2 does not."""
    return _run("-c", "import json, sys, numpy; print(json.dumps('numpy.polynomial' in sys.modules))")


def _modules(*layers):
    return sorted(["isorkhs", "isorkhs.cli", "isorkhs.errors", "isorkhs.serialization", "isorkhs.seqmodel",
                   *(f"isorkhs.{layer}" for layer in layers)])


def test_import_loads_only_the_errors():
    out = probe()
    assert out["modules"] == ["isorkhs", "isorkhs.errors"]
    assert not out["numpy"]


_TRIG = {"type": "trigpoly", "cos": [1.0, 0.5]}
_NODES = {"nodes": [-1.0, 0.0, 0.5], "values": [1.0, -0.5, 2.0]}
_BODY = {"vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}
_GENERATORS = {"generators": [{"angle": 0.3, "length": 1.0}, {"angle": -1.2, "length": 0.5}]}
_EXPANSION = {"x0": 0.0, "terms": [{"angle": -0.4, "coeff": 1.0}, {"angle": 0.7, "coeff": 0.5}]}
_EVERY_LAYER = ("funcspace", "kernel", "quad", "convexgeo", "rng", "verify")
_KERNEL = ("funcspace", "kernel", "quad")


@pytest.mark.parametrize(
    "argv, doc, layers, numpy, quadrature",
    [
        (["interp"], _NODES, _KERNEL, True, False),
        (["gram"], _NODES, _KERNEL, True, False),
        (["norm"], _TRIG, ("funcspace", "quad"), True, False),
        (["norm", "--method", "quadrature"], _TRIG, ("funcspace", "quad"), True, True),
        (["verify", "--suite", "holder"], None, _EVERY_LAYER, True, False),
        (["seq"], _EXPANSION, (), False, False),
        (["geom", "area"], _BODY, ("convexgeo",), False, False),
        (["geom", "area"], _GENERATORS, ("convexgeo",), False, False),
        (["geom", "perimeter"], _BODY, ("convexgeo",), False, False),
        (["geom", "perimeter"], _GENERATORS, ("convexgeo",), False, False),
        (["geom", "norm"], {"U": _BODY, "V": _GENERATORS}, ("convexgeo",), False, False),
        (["geom", "norm"], {"U": _GENERATORS, "V": _GENERATORS}, ("convexgeo",), False, False),
        (["geom", "deficit"], {"U": _GENERATORS, "V": _BODY}, ("convexgeo",), False, False),
        (["geom", "deficit"], {"U": _BODY, "V": _BODY}, ("convexgeo",), False, False),
    ],
    ids=["interp", "gram", "norm", "norm-quadrature", "verify-holder", "seq", "geom-area", "geom-area-generators",
         "geom-perimeter", "geom-perimeter-generators", "geom-norm", "geom-norm-generators", "geom-deficit",
         "geom-deficit-vertices"],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, argv, doc, layers, numpy, quadrature):
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--input", str(path)]
    out = probe(argv)
    assert out["codes"] == [0]
    assert out["modules"] == _modules(*layers)
    assert out["numpy"] == numpy
    assert not out["scipy"]  # the package needs NumPy only; verify-holder loads every layer
    if not polynomial_with_numpy():  # NumPy 2 loads numpy.polynomial on first use only
        assert out["polynomial"] == quadrature


def test_help_exits_0_and_loads_no_layer():
    leaves = [["eval"], ["inner"], ["norm"], ["gram"], ["interp"], ["power"], ["seq"], ["verify"], ["export"]]
    leaves += [["geom", op] for op in ("sum", "area", "perimeter", "width", "norm", "deficit", "tofunction",
                                       "equiv", "cauchy")]
    argvs = [["--help"], ["geom", "--help"], *([*leaf, "--help"] for leaf in leaves)]
    out = probe(*argvs)
    assert out["codes"] == [0] * len(argvs)
    assert out["modules"] == _modules()
    assert not out["numpy"]


def test_every_exported_name_resolves_to_its_layers_object():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(isorkhs.__all__) == sorted([*names, *EXPORTS])
    assert set(isorkhs.__all__) <= set(dir(isorkhs))
    for layer, layer_names in EXPORTS.items():
        module = importlib.import_module(f"isorkhs.{layer}")
        assert getattr(isorkhs, layer) is module
        for name in layer_names:
            assert getattr(isorkhs, name) is getattr(module, name), name
    from isorkhs import gram_system, kernel

    assert gram_system is kernel.gram_system
    assert not hasattr(isorkhs, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        isorkhs.no_such_name


def test_writing_a_series_or_a_span_loads_no_kernel():
    # write_function looks for kernel in sys.modules: an interpolant exists only once it is loaded
    out = _run("-c", "import json, sys; from isorkhs import funcspace, serialization as s; "
                     "s.write_function(funcspace.trig_poly([1.0])); s.write_function(funcspace.diangle(0.3)); "
                     "print(json.dumps('isorkhs.kernel' in sys.modules))")
    assert out is False

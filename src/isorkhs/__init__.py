"""Isoperimetric function space on [-pi/2, pi/2]: kernels, sequences, bodies.

The package bundles four coupled models of one quadratic form (an inner
product on endpoint-matched Sobolev functions, a reproducing kernel family, a
finite sequence model over diangle profiles, and pairs of origin-symmetric
convex bodies) together with a CLI harness that cross-checks them
numerically.

Only the error classes load with the package.  Every other name below, and
each layer module, loads its module on first use (PEP 562), so a caller, the
CLI included, compiles and runs only the layers it reaches.
"""

from importlib import import_module as _import_module

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    InputError,
    InvariantViolationError,
    IsorkhsError,
    SingularSystemError,
)

__version__ = "0.1.0"

#: layer module -> the names the package exports from it
_LAYERS = {
    "funcspace": (
        "DiangleSpan",
        "H1Function",
        "Sampled",
        "TrigPoly",
        "constant",
        "diangle",
        "diangle_span",
        "energy_deficit",
        "evaluate",
        "holder_ratio",
        "inner_product_classical",
        "inner_product_iso",
        "mean_value",
        "norm_iso",
        "norm_iso_squared",
        "perimeter_functional",
        "project_endpoints",
        "sampled",
        "trig_poly",
        "wirtinger_deficit",
    ),
    "kernel": (
        "GramSystem",
        "Interpolant",
        "classical_kernel_eval",
        "classical_kernel_function",
        "classical_reproducing_residual",
        "gram_system",
        "interpolate",
        "kernel_eval",
        "kernel_function",
        "power_function",
        "reproducing_residual",
    ),
    "quad": ("DEFAULT_SPEC", "DELTA", "Interval", "QuadratureSpec", "derivative_at", "integrate"),
    "rng": ("SplitMix64",),
    "seqmodel": (
        "DiangleExpansion",
        "diangle_expansion",
        "polygon_area",
        "polygon_isoperimetric_gap",
        "polygon_perimeter",
        "seq_inner",
        "seq_norm_squared",
        "sequence_isoperimetric_gap",
    ),
    "convexgeo": (
        "BodyPair",
        "SymmetricPolygon",
        "body_pair",
        "convex_norm",
        "convex_norm_squared",
        "minkowski_sum",
        "pair_deficit",
        "pair_equivalent",
        "pair_measure",
        "pair_perimeter",
        "pair_to_function",
        "point",
        "regular_polygon",
        "segment",
        "symmetric_polygon",
        "width",
        "zonotope_from_generators",
    ),
}
#: name -> the layer module that defines it; a layer's own name maps to itself
_MODULE_OF = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names)}

#: the public names: the error classes, ``errors``, each layer module and the names it exports
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_MODULE_OF})


def __getattr__(name):
    layer = _MODULE_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{layer}")  # binds the module here as an attribute
    if name == layer:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

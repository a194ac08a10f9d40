"""Isoperimetric function space on [-pi/2, pi/2]: kernels, sequences, bodies.

The package bundles four coupled models of one quadratic form (an inner
product on endpoint-matched Sobolev functions, a reproducing kernel family, a
finite sequence model over diangle profiles, and pairs of origin-symmetric
convex bodies) together with a CLI harness that cross-checks them
numerically.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    InputError,
    InvariantViolationError,
    IsorkhsError,
    SingularSystemError,
)
from .funcspace import (
    DiangleSpan,
    H1Function,
    Sampled,
    TrigPoly,
    constant,
    diangle,
    diangle_span,
    energy_deficit,
    evaluate,
    holder_ratio,
    inner_product_classical,
    inner_product_iso,
    mean_value,
    norm_iso,
    norm_iso_squared,
    perimeter_functional,
    project_endpoints,
    sampled,
    trig_poly,
    wirtinger_deficit,
)
from .kernel import (
    GramSystem,
    Interpolant,
    classical_kernel_eval,
    classical_kernel_function,
    classical_reproducing_residual,
    gram_system,
    interpolate,
    kernel_eval,
    kernel_function,
    power_function,
    reproducing_residual,
)
from .quad import DEFAULT_SPEC, DELTA, Interval, QuadratureSpec, derivative_at, integrate
from .rng import SplitMix64
from .seqmodel import (
    DiangleExpansion,
    diangle_expansion,
    polygon_area,
    polygon_isoperimetric_gap,
    polygon_perimeter,
    seq_inner,
    seq_norm_squared,
    sequence_isoperimetric_gap,
)
from .convexgeo import (
    BodyPair,
    SymmetricPolygon,
    body_pair,
    convex_norm,
    convex_norm_squared,
    minkowski_sum,
    pair_deficit,
    pair_equivalent,
    pair_measure,
    pair_perimeter,
    pair_to_function,
    point,
    regular_polygon,
    segment,
    symmetric_polygon,
    width,
    zonotope_from_generators,
)

__version__ = "0.1.0"

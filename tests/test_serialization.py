import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isorkhs import serialization as ser
from isorkhs.errors import DomainError, InputError
from isorkhs.funcspace import DiangleSpan, TrigPoly, diangle_span


def test_format_float_basic():
    assert ser.format_float(1.0) == "1.0"
    assert ser.format_float(1.0, bare=True) == "1"
    assert ser.format_float(0.5) == "0.5"
    assert ser.format_float(-0.0) == "-0.0"
    assert "e" in ser.format_float(1e300)
    with pytest.raises(InputError):
        ser.format_float(float("nan"))
    with pytest.raises(InputError):
        ser.format_float(float("inf"))


@pytest.mark.parametrize("x", [math.pi, 1.0 / 3.0, 1e300, -2.5e-17, 4.0])
def test_format_float_round_trips(x):
    assert float(ser.format_float(x)) == x
    assert float(ser.format_float(x, bare=True)) == x


def test_dumps_is_deterministic_and_sorted():
    doc = {"b": 1.5, "a": [1.0, 2.0], "c": {"z": True, "y": None}}
    text = ser.dumps(doc)
    assert text == ser.dumps(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = ser.loads(text)
    assert parsed == {"a": [1.0, 2.0], "b": 1.5, "c": {"y": None, "z": True}}


def test_dumps_accepts_numpy_scalars_and_arrays():
    doc = {"v": np.array([1.0, 0.25]), "n": np.float64(2.0), "k": np.int64(3), "b": np.bool_(True)}
    parsed = ser.loads(ser.dumps(doc))
    assert parsed == {"b": True, "k": 3, "n": 2.0, "v": [1.0, 0.25]}


def test_dumps_csv_layout():
    text = ser.dumps_csv([(0.0, 1.0, 0.5)])
    assert text == "x,f,fprime\n0,1,0.5\n"
    assert ser.dumps_csv([(1.0, 2.0)], header=("a", "b")) == "a,b\n1,2\n"


def test_loads_rejects_malformed_text():
    with pytest.raises(InputError):
        ser.loads("{")
    with pytest.raises(InputError):
        ser.loads("")


def test_as_float_guards():
    assert ser.as_float(2, "x") == 2.0
    with pytest.raises(InputError):
        ser.as_float(True, "x")
    with pytest.raises(InputError):
        ser.as_float("1", "x")
    with pytest.raises(InputError):
        ser.as_float(float("inf"), "x")
    with pytest.raises(InputError):
        ser.as_float_list([1.0, "2"], "xs")


def test_trig_poly_round_trip():
    f = TrigPoly((1.0, 0.5, -0.25), (0.0, 0.125))
    record = ser.write_function(f)
    assert record["type"] == "trigpoly"
    g = ser.read_function(record)
    assert isinstance(g, TrigPoly)
    assert g.cos_coeffs == f.cos_coeffs
    assert g.sin_coeffs == f.sin_coeffs


def test_diangle_span_round_trip():
    f = diangle_span(0.5, [(-0.8, 1.0), (0.3, -2.0)])
    record = ser.loads(ser.dumps(ser.write_function(f)))
    assert record["type"] == "dianglespan"
    g = ser.read_function(record)
    assert isinstance(g, DiangleSpan)
    grid = np.linspace(-1.5, 1.5, 31)
    np.testing.assert_allclose(g.value(grid), f.value(grid), atol=0.0)


def test_read_function_interpolant_record():
    record = {
        "type": "interpolant",
        "theta": 2.0,
        "ridge": 0.0,
        "nodes": [-0.25 * math.pi, 0.25 * math.pi],
        "coeffs": [0.5, 0.5],
        "fallback": None,
    }
    f = ser.read_function(record)
    assert isinstance(f, DiangleSpan)
    expected = 2.0 - 0.5 * math.pi * math.sin(0.25 * math.pi)
    assert math.isclose(f.value(0.0), expected, rel_tol=1e-14)


def test_read_function_errors():
    with pytest.raises(InputError):
        ser.read_function({"cos": [1.0]})
    with pytest.raises(InputError):
        ser.read_function({"type": "mystery"})
    with pytest.raises(InputError):
        ser.read_function({"type": "trigpoly", "cos": "nope"})
    with pytest.raises(DomainError):
        ser.read_function({"type": "trigpoly", "sin": [1.0]})


def test_read_expansion():
    exp = ser.read_expansion(
        {"x0": 0.0, "terms": [{"angle": 0.5, "coeff": 2.0}, {"angle": -0.5, "coeff": 1.0}]}
    )
    assert exp.x0 == 0.0
    assert exp.terms == ((-0.5, 1.0), (0.5, 2.0))
    # both fields are optional; a bare record is the zero expansion
    empty = ser.read_expansion({})
    assert empty.x0 == 0.0 and empty.terms == ()
    with pytest.raises(InputError):
        ser.read_expansion({"terms": 3})
    with pytest.raises(InputError):
        ser.read_expansion({"x0": 0.0, "terms": [{"angle": 0.5}]})


def test_body_round_trip_from_vertices():
    record = {"vertices": [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]}
    body = ser.read_body(record)
    again = ser.read_body(ser.write_body(body))
    assert again.vertices == body.vertices


def test_body_from_generators():
    body = ser.read_body({"generators": [{"angle": 0.0, "length": 2.0}]})
    assert body.is_segment


@pytest.mark.parametrize(
    "record",
    [
        {},
        {"vertices": [[1.0, 0.0]], "generators": []},
        {"vertices": [[1.0]]},
        {"vertices": "square"},
        {"generators": [{"angle": 0.0}]},
    ],
)
def test_read_body_rejects_bad_records(record):
    with pytest.raises(InputError):
        ser.read_body(record)


def test_read_pair():
    pair = ser.read_pair(
        {
            "U": {"generators": [{"angle": 0.0, "length": 2.0}]},
            "V": {"vertices": [[0.0, 0.0]]},
        }
    )
    assert pair.U.is_segment
    assert pair.V.is_point
    with pytest.raises(InputError):
        ser.read_pair({"U": {"vertices": [[0.0, 0.0]]}})


def test_interpolant_record_validation():
    with pytest.raises(InputError):
        ser.read_interpolant({"nodes": [0.0, 1.0], "coeffs": [1.0]})
    with pytest.raises(InputError):
        ser.read_interpolant({"nodes": [0.0], "coeffs": [1.0], "fallback": "retry"})
    # records written while a jitter fallback existed still read, and write back without it
    itp = ser.read_interpolant({"nodes": [0.0], "coeffs": [1.0], "fallback": "jitter"})
    assert ser.write_interpolant(itp) == {"theta": 2.0, "ridge": 0.0, "nodes": [0.0], "coeffs": [1.0]}


# ---------------------------------------------------------------------------
# the run writer against a per-value reference


def _reference_emit(obj, indent: int) -> str:
    """The writer before float runs: one ``format_float`` call per value."""
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
        return ser.format_float(float(obj))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_reference_emit(v, indent + 1)}" for k, v in sorted(obj.items())
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        inner = ",\n".join(f"{pad}  {_reference_emit(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


def _reference_csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(ser.format_float(float(v), bare=True) for v in row))
    return "\n".join(lines) + "\n"


def _outcome(write, *args):
    try:
        return write(*args)
    except InputError as exc:
        return ("InputError", str(exc))


_EDGE_FLOATS = [
    0.0, -0.0, 1.0, -2.0, 5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e15, 1e16, 9.999999999999998e16, 1e17,
    -1e17, 1e18, 2.0**53, 2.0**53 + 2.0, 123456789012345.5, 0.1, 1e-5, 1e21,
]
_NON_FINITE = [math.inf, -math.inf, math.nan]


def _floats(finite: bool):
    """Python floats near the ``%.1f`` switch, subnormals and extremes, as float or float64."""
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(10**18), 10**18).map(float),
        st.integers(-60, 60).map(lambda k: float(10**17 + k * 8)),
        st.sampled_from(_EDGE_FLOATS),
    )
    if not finite:
        values = st.one_of(values, st.sampled_from(_NON_FINITE))
    return st.one_of(values, values.map(np.float64))


_float32s = st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)


def _documents(finite: bool):
    floats = _floats(finite)
    scalars = st.one_of(
        floats,
        _float32s,
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.integers(-(10**20), 10**20),
        st.booleans(),
        st.none(),
        st.text(max_size=4),
    )
    arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), elements=floats)
    leaves = st.one_of(scalars, st.lists(floats, max_size=6), arrays)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=4),
        ),
        max_leaves=12,
    )


@seed(20218)
@settings(max_examples=300, deadline=None)
@given(doc=_documents(finite=True))
def test_dumps_matches_per_value_reference(doc):
    assert ser.dumps(doc) == _reference_emit(doc, 0)


@seed(20219)
@settings(max_examples=200, deadline=None)
@given(doc=_documents(finite=False))
def test_dumps_non_finite_raises_as_the_reference(doc):
    assert _outcome(ser.dumps, doc) == _outcome(_reference_emit, doc, 0)


_cells = st.one_of(
    _floats(finite=False), _float32s, st.integers(-(10**18), 10**18), st.booleans()
)


@seed(20220)
@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(_cells, max_size=4), max_size=5),
    header=st.sampled_from([("x", "f", "fprime"), ("x",)]),
)
def test_dumps_csv_matches_per_value_reference(rows, header):
    assert _outcome(ser.dumps_csv, rows, header) == _outcome(_reference_csv, rows, header)

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isorkhs import convexgeo, kernel
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


@pytest.mark.parametrize("kind", ["plain", "merged", "ridge", "triples"])
def test_write_function_round_trips_an_interpolant(kind):
    # an interpolant is written as its own record, not as its double expansion, so it
    # reads back as an interpolant with its record and its long-double evaluation
    rng = np.random.default_rng(7)
    nodes = -0.5 * math.pi + (np.arange(12) + rng.uniform(0.1, 0.9, 12)) * (math.pi / 12)
    if kind == "triples":  # sum|c| is about 2e7
        nodes = (nodes[:, None] * 0.95 + 1e-6 * np.arange(3)).ravel()
    elif kind == "merged":  # -pi/2 and pi/2, one point of the circle
        nodes = np.concatenate(([-0.5 * math.pi], nodes, [0.5 * math.pi]))
    values = rng.uniform(-2.0, 2.0, nodes.size)
    if kind == "merged":
        values[-1] = values[0]
    itp = kernel.interpolate(nodes.tolist(), values.tolist(), 2.0, 1e-3 if kind == "ridge" else 0.0)
    back = ser.read_function(ser.loads(ser.dumps(ser.write_function(itp))))
    assert type(back) is kernel.Interpolant
    assert (back.theta, back.ridge, back.nodes, back.coeffs) == (itp.theta, itp.ridge, itp.nodes, itp.coeffs)
    x = np.concatenate((np.linspace(-0.5 * math.pi, 0.5 * math.pi, 41), nodes))
    assert np.array_equal(back.value(x), itp.value(x))
    assert np.array_equal(back.derivative(x), itp.derivative(x))


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('[[1.0, 1.0], [-1.0, true]]', "vertex y must be a number, got True"),
        ('[[1.0, 1.0], ["a", 1.0]]', "vertex x must be a number, got 'a'"),
        ('[["x", 1.0], [NaN, 1.0]]', "vertex x must be a number, got 'x'"),
        ('[[NaN, 1.0], ["x", 1.0]]', "vertex x must be finite, got nan"),
        ('[[1.0, Infinity], [1.0, -Infinity]]', "vertex y must be finite, got inf"),
        ("[[1" + "0" * 400 + ", 1.0]]", "vertex x must be finite, got 1" + "0" * 400),
        ('[[1.0, 1.0], [[1.0], 2.0]]', "vertex x must be a number, got [1.0]"),
        ('[[1.0, 1.0], [-1.0, -1.0, 3.0]]', "each vertex must be an [x, y] pair"),
        ('[[1.0, 1.0], {"a": 1, "b": 2}]', "each vertex must be an [x, y] pair"),
        ('[[1.0, 1.0], "ab"]', "each vertex must be an [x, y] pair"),
        ('[[1.0, 1.0], 3.0]', "each vertex must be an [x, y] pair"),
        # finite coordinates whose sum overflows pass the reader, and the body is too large
        ('[[1e308, 1e308], [-1e308, -1e308]]', "body is too large: its squared coordinates overflow"),
    ],
)
def test_read_body_names_the_first_bad_coordinate(text, message):
    with pytest.raises(InputError) as err:
        ser.read_body({"vertices": json.loads(text)})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (ser.read_body, {"generators": [{"angle": "x", "length": 1.0}, 3.0]}, "angle must be a number, got 'x'"),
        (ser.read_body, {"generators": "g"}, "generators must be an array"),
        (ser.read_expansion, {"terms": [{"angle": 0.1, "coeff": None}, []]}, "coeff must be a number, got None"),
        (ser.read_expansion, {"terms": {}}, "terms must be an array"),
    ],
)
def test_record_lists_name_their_first_bad_entry(read, doc, message):
    with pytest.raises(InputError) as err:
        read(doc)
    assert str(err.value) == message


def test_read_body_takes_integer_coordinates():
    ints = ser.read_body({"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})
    assert ints.vertices == ser.read_body({"vertices": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]}).vertices
    assert all(type(c) is float for v in ints.vertices for c in v)


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
    # nodes outside the domain are malformed, not read mod pi
    for bad in ({"nodes": [2.0]}, {"nodes": [-1.5708]}, {"theta": 0.5}, {"ridge": -1e-3}):
        with pytest.raises((InputError, DomainError)):
            ser.read_interpolant({"nodes": [0.0], "coeffs": [1.0], **bad})
    # duplicate nodes still define one function
    itp = ser.read_interpolant({"nodes": [0.3, 0.3, math.pi / 2], "coeffs": [1.0, -0.5, 0.25]})
    assert abs(itp.value(-1.0) - DiangleSpan(itp.expansion).value(-1.0)) <= 1e-14
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

# values a block's cells should hold together: signed zeros, and integral
# values on both sides of the "%.1f" switch
_TOGETHER = [(), (0.0, -0.0), (99999999999999984.0, 1e17, 100000000000000016.0)]


@st.composite
def _blocks(draw, values):
    """Equally long rows, lists or tuples, of cells drawn from a few values, so cells repeat."""
    pool = draw(st.lists(values, min_size=1, max_size=5)) + list(draw(st.sampled_from(_TOGETHER)))
    k = draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from(pool)) for _ in range(k)] for _ in range(draw(st.integers(1, 5)))]
    return [tuple(r) if draw(st.booleans()) else r for r in rows]


@st.composite
def _near_blocks(draw, values):
    """A block with one row lengthened or shortened, or one cell an ``int``, ``bool`` or ``np.float32``."""
    rows = [list(r) for r in draw(_blocks(values))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    kind = draw(st.sampled_from(["ragged", "int", "bool", "float32"]))
    if kind == "ragged":
        if len(row) > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0])
    else:
        cell = {"int": st.integers(-(10**18), 10**18), "bool": st.booleans(), "float32": _float32s}[kind]
        row[draw(st.integers(0, len(row) - 1))] = draw(cell)
    return rows


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
    leaves = st.one_of(scalars, st.lists(floats, max_size=6), arrays, _blocks(floats), _near_blocks(floats))
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


@st.composite
def _long_runs(draw):
    """A long run of non-integral floats holding one integral value, one value of
    at least 1e17 (so integral, and past the ``%.1f`` switch) and ``-0.0``, each
    at a drawn place; ``-0.0`` and the first are left out at times."""
    size = draw(st.integers(30, 400))
    fill = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: not v.is_integer())
    values = draw(st.lists(fill, min_size=size, max_size=size))
    big = draw(st.one_of(st.sampled_from([1e17, 1e18, 2.0**60]), st.floats(min_value=1e17, allow_infinity=False)))
    integral = draw(st.sampled_from([0.0, 1.0, -3.0, 2.0**53, 99999999999999984.0, 123456.0]))
    extras = [integral, big if draw(st.booleans()) else -big, -0.0]
    for v in extras[draw(st.integers(0, 1)) : 3 - draw(st.integers(0, 1))]:
        values.insert(draw(st.integers(0, len(values))), v)
    return values if draw(st.booleans()) else tuple(values)


@seed(20221)
@settings(max_examples=100, deadline=None)
@given(values=_long_runs(), bare=st.booleans())
def test_long_runs_switch_to_percent_1f_at_their_integral_entries_only(values, bare):
    assert ser._float_run(values, ",", bare) == ",".join(ser.format_float(v, bare) for v in values)
    assert ser.dumps({"v": values}) == _reference_emit({"v": values}, 0)


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, -0.0], [-0.0, 0.0]],
        [[2.0, 1.0], [1.0, 2.0], (2.0, np.float64(1.0))],
        [[9.999999999999998e16, 1e17, -1e17, 1e18]],
        [[np.float64(0.5)], [0.5], [-0.5]],
    ],
)
def test_float_blocks_take_the_block_path(rows):
    assert ser._float_block(rows) is not None
    assert ser.dumps({"m": rows}) == _reference_emit({"m": rows}, 0)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 2.0], [3.0]],
        [[1.0, 2], [3.0, 4.0]],
        [[1.0, True]],
        [[1.0, np.float32(2.0)]],
        [[]],
        [[1.0], 2.0],
        [[1.0, math.inf], [math.nan, 1.0]],
    ],
)
def test_other_lists_take_the_generic_path(rows):
    assert ser._float_block(rows) is None
    assert _outcome(ser.dumps, rows) == _outcome(_reference_emit, rows, 0)


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


# ---------------------------------------------------------------------------
# one-pass readers against entry-by-entry references


def _ref_float_list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array")
    return [ser.as_float(v, f"{what} entry") for v in value]


def _ref_float_pairs(items, what, first, second):
    if not isinstance(items, list):
        raise InputError(f"{what}s must be an array")
    out = []
    for t in items:
        if not isinstance(t, dict):
            raise InputError(f"{what} must be an object")
        out.append((ser.as_float(t.get(first), first), ser.as_float(t.get(second), second)))
    return out


def _ref_vertices(verts):
    if not isinstance(verts, list) or not verts:
        raise InputError("vertices must be a nonempty array of [x, y] pairs")
    pts = []
    for v in verts:
        if not isinstance(v, list) or len(v) != 2:
            raise InputError("each vertex must be an [x, y] pair")
        pts.append((ser.as_float(v[0], "vertex x"), ser.as_float(v[1], "vertex y")))
    return pts


def _bits(obj):
    """``obj`` with every float replaced by its hex text, so ``-0.0`` and ``0.0`` differ."""
    if type(obj) is float:
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__, [_bits(v) for v in obj]
    return repr(obj)


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except InputError as exc:
        return "error", str(exc)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_entries = st.one_of(
    _finite,
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**400, -(10**400), True, False, None, "1.0", [], [1.0], {"a": 1.0}]),
)
# mostly lists of finite floats, the one-pass case; the rest mix in every other entry
_float_lists = st.one_of(
    st.lists(_finite, max_size=8),
    st.lists(_entries, max_size=6),
    st.sampled_from([[1e308, 1e308], [-1e308, -1e308, 1.0], [1e308, -1e308, 1e308, 1e308]]),
)
_not_lists = st.sampled_from([None, "xs", 3.0, {"a": [1.0]}])


@st.composite
def _pair_records(draw, first, second):
    """An object with the two keys (either may be missing or hold any entry), or a non-object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, 1.0, "r", [1.0, 2.0], []]))
    record = {}
    for key in (first, second):
        if draw(st.integers(0, 11)):
            record[key] = draw(st.one_of(_finite, _finite, _entries))
    return record


@st.composite
def _vertex_lists(draw):
    def vertex():
        return st.one_of(
            st.lists(_finite, min_size=2, max_size=2),
            st.lists(_entries, min_size=2, max_size=2),
            st.lists(_finite, max_size=3),
            st.sampled_from([None, 1.0, "xy", {"x": 1.0, "y": 2.0}]),
        )

    if draw(st.booleans()):
        return draw(st.lists(st.lists(_finite, min_size=2, max_size=2), min_size=1, max_size=6))
    return draw(st.one_of(st.lists(vertex(), max_size=5), st.just([[1e308, 1e308], [1e308, 1.0]]), _not_lists))


@seed(20223)
@settings(max_examples=400, deadline=None)
@given(value=st.one_of(_float_lists, _not_lists))
def test_as_float_list_matches_entry_by_entry_reference(value):
    assert _outcome(ser.as_float_list, value, "xs") == _outcome(_ref_float_list, value, "xs")


@seed(20224)
@settings(max_examples=400, deadline=None)
@given(items=st.one_of(st.lists(_pair_records("angle", "coeff"), max_size=6), _not_lists))
def test_float_pairs_match_entry_by_entry_reference(items):
    args = (items, "term", "angle", "coeff")
    assert _outcome(ser._float_pairs, *args) == _outcome(_ref_float_pairs, *args)


@seed(20225)
@settings(max_examples=400, deadline=None)
@given(verts=_vertex_lists())
def test_read_body_vertices_match_entry_by_entry_reference(verts):
    # the points that reach the polygon constructor, as pairs, or the reader's error
    with mock.patch.object(convexgeo, "_from_floats", lambda pts: [tuple(p) for p in pts]):
        got = _outcome(ser.read_body, {"vertices": verts})
    assert got == _outcome(_ref_vertices, verts)


@seed(20226)
@settings(max_examples=200, deadline=None)
@given(items=st.one_of(st.lists(_pair_records("angle", "length"), max_size=6), _not_lists))
def test_read_body_generators_match_entry_by_entry_reference(items):
    with mock.patch.object(convexgeo, "zonotope_from_generators", lambda gens: gens):
        got = _outcome(ser.read_body, {"generators": items})
    assert got == _outcome(_ref_float_pairs, items, "generator", "angle", "length")

"""End-to-end tests that drive the command-line harness through ``cli.main``."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from isorkhs import cli, funcspace, kernel, serialization
from isorkhs.quad import QuadratureSpec

HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi

CONST = {"type": "trigpoly", "cos": [1.0]}
DIANGLE0 = {"type": "dianglespan", "x0": 0.0, "terms": [{"angle": 0.0, "coeff": 1.0}]}
K0 = {"type": "dianglespan", "x0": 2.0, "terms": [{"angle": 0.0, "coeff": -HALF_PI}]}
SQUARE = {"generators": [{"angle": 0.0, "length": 2.0}, {"angle": -HALF_PI, "length": 2.0}]}
POINT = {"vertices": [[0.0, 0.0]]}


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def jfile(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_norm_constant(tmp_path, capsys):
    code, out = run(capsys, "norm", "--input", jfile(tmp_path, "f.json", CONST))
    assert code == 0
    assert json.loads(out) == {"norm": 1.0, "norm2": 1.0}


def test_inner_methods_agree(tmp_path, capsys):
    path = jfile(tmp_path, "fg.json", {"f": CONST, "g": DIANGLE0})
    code, out = run(capsys, "inner", "--input", path)
    assert code == 0
    exact = json.loads(out)["inner"]
    assert math.isclose(exact, 2.0 / math.pi, rel_tol=1e-13)
    code, out = run(capsys, "inner", "--input", path, "--method", "quadrature")
    assert code == 0
    assert abs(json.loads(out)["inner"] - exact) <= 1e-9


def test_eval_json_and_csv(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", DIANGLE0)
    code, out = run(capsys, "eval", "--input", path, "--at", "0,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["at"] == [0.0, 0.5]
    np.testing.assert_allclose(doc["values"], [0.0, math.sin(0.5)], atol=1e-15)
    np.testing.assert_allclose(doc["derivatives"], [1.0, math.cos(0.5)], atol=1e-15)

    code, out = run(capsys, "eval", "--input", path, "--at", "0,0.5", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,f,fprime"
    assert lines[1] == "0,0,1"


def test_export_diangle_grid(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", DIANGLE0)
    code, out = run(capsys, "export", "--input", path, "--points", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "x,f,fprime"
    assert lines[3] == "0,0,1"
    first = lines[1].split(",")
    assert float(first[0]) == -HALF_PI
    assert float(first[1]) == 1.0


def test_export_constant_exact_text(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", CONST)
    code, out = run(capsys, "export", "--input", path, "--points", "3")
    assert code == 0
    assert out == "x,f,fprime\n-1.5707963267948966,1,0\n0,1,0\n1.5707963267948966,1,0\n"


def test_export_kernel_section_endpoints(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", K0)
    code, out = run(capsys, "export", "--input", path, "--points", "2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for row in rows:
        assert float(row[1]) == 2.0 - HALF_PI
        assert abs(float(row[2])) < 1e-15


def test_export_of_an_interpolant_record_prints_both_ends_alike(tmp_path, capsys):
    # -pi/2 and pi/2 are one point: the first and last rows of the grid print the same f and fprime
    code, out = run(capsys, "interp", "--input", jfile(tmp_path, "iv.json", {
        "nodes": [-1.0, -0.2, 0.4, 1.1], "values": [1.0, 2.0, -0.5, 0.3]}))
    assert code == 0
    code, out = run(capsys, "export", "--input", jfile(tmp_path, "itp.json", json.loads(out)))
    assert code == 0
    first, last = out.splitlines()[1], out.splitlines()[-1]
    assert first.split(",")[1:] == last.split(",")[1:]
    assert float(first.split(",")[0]) == -HALF_PI and float(last.split(",")[0]) == HALF_PI


def test_export_is_deterministic(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", K0)
    _, first = run(capsys, "export", "--input", path)
    _, second = run(capsys, "export", "--input", path)
    assert first == second


def test_gram_report(tmp_path, capsys):
    path = jfile(tmp_path, "g.json", {"nodes": [-QUARTER_PI, QUARTER_PI]})
    code, out = run(capsys, "gram", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == 2.0 and doc["ridge"] == 0.0
    assert doc["chol_ok"] is True
    assert math.isclose(doc["min_eig"], HALF_PI, rel_tol=1e-12)
    assert math.isclose(doc["max_eig"], 4.0 - HALF_PI, rel_tol=1e-12)
    assert math.isclose(doc["cond"], (4.0 - HALF_PI) / HALF_PI, rel_tol=1e-10)
    assert math.isclose(doc["matrix"][0][1], 2.0 - HALF_PI, rel_tol=1e-14)
    assert doc["matrix"][0][0] == 2.0


GRAM3_GOLDEN = """{
  "chol_ok": true,
  "cond": 5.0121301917170804,
  "matrix": [
    [
      2.0,
      0.67822046795927204,
      0.43313853904602673
    ],
    [
      0.67822046795927204,
      2.0,
      1.2469201249888531
    ],
    [
      0.43313853904602673,
      1.2469201249888531,
      2.0
    ]
  ],
  "max_eig": 3.6285709807305673,
  "min_eig": 0.72395784665112095,
  "nodes": [
    -1.0,
    0.0,
    0.5
  ],
  "ridge": 0.0,
  "theta": 2.0
}
"""

POWER3_CSV_GOLDEN = """x,power
-1.2,0.75273796052450148
0.25,0.63214410526785181
1.5,1.1412518857187561
"""


def test_gram_and_power_csv_golden_bytes(tmp_path, capsys):
    # the whole layout is pinned: key order, indentation, the ".0" marker on
    # integral floats (the diagonal is exactly theta) and bare CSV numbers
    path = jfile(tmp_path, "g.json", {"nodes": [-1.0, 0.0, 0.5]})
    assert run(capsys, "gram", "--input", path) == (0, GRAM3_GOLDEN)
    power = run(capsys, "power", "--input", path, "--at=-1.2,0.25,1.5", "--output", "csv")
    assert power == (0, POWER3_CSV_GOLDEN)


GRAM3_SYMMETRIC_GOLDEN = """{
  "chol_ok": true,
  "cond": 7.609342291924694,
  "matrix": [
    [
      2.0,
      1.2469201249888531,
      0.67822046795927204
    ],
    [
      1.2469201249888531,
      2.0,
      1.2469201249888531
    ],
    [
      0.67822046795927204,
      1.2469201249888531,
      2.0
    ]
  ],
  "max_eig": 4.1348316341400704,
  "min_eig": 0.543388833819199,
  "nodes": [
    -0.5,
    0.0,
    0.5
  ],
  "ridge": 0.0,
  "theta": 2.0
}
"""


def test_gram_golden_bytes_with_repeated_entries(tmp_path, capsys):
    # nodes symmetric about 0: nine cells hold three distinct values, each
    # written once and copied back to every cell that holds it
    path = jfile(tmp_path, "g.json", {"nodes": [-0.5, 0.0, 0.5]})
    assert run(capsys, "gram", "--input", path) == (0, GRAM3_SYMMETRIC_GOLDEN)


def test_gram_duplicate_nodes(tmp_path, capsys):
    path = jfile(tmp_path, "g.json", {"nodes": [0.3, 0.3]})
    code, out = run(capsys, "gram", "--input", path)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def test_interp_then_eval(tmp_path, capsys):
    path = jfile(tmp_path, "data.json", {"nodes": [-QUARTER_PI, QUARTER_PI], "values": [1.0, 1.0]})
    code, out = run(capsys, "interp", "--input", path)
    assert code == 0
    record = json.loads(out)
    assert record["type"] == "interpolant"
    expected_coeff = 1.0 / (4.0 - HALF_PI)
    for c in record["coeffs"]:
        assert math.isclose(c, expected_coeff, rel_tol=1e-12)

    itp = kernel.interpolate([-QUARTER_PI, QUARTER_PI], [1.0, 1.0])
    code, out = run(capsys, "eval", "--input", jfile(tmp_path, "itp.json", record), "--at", "0")
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["values"][0], itp.value(0.0), rel_tol=1e-12)


def test_interp_too_clustered_exits_3(tmp_path, capsys):
    data = {"nodes": [0.3, 0.3000000000011, 0.3000000000022], "values": [1.0, 1.1, 1.2]}
    code, out = run(capsys, "interp", "--input", jfile(tmp_path, "data.json", data))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "numerical-failure"
    assert "residual" in error["detail"] and "positive ridge" in error["detail"]


@pytest.mark.parametrize("theta", [1e12, 1e16])
def test_interp_ridge_fit_that_misses_its_residual_exits_3(tmp_path, capsys, theta):
    data = {"nodes": [0.1, 0.5, 1.0], "values": [1.0, 2.0, 0.5], "theta": theta, "ridge": 0.5}
    code, out = run(capsys, "interp", "--input", jfile(tmp_path, "data.json", data))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "numerical-failure"
    assert "residual" in error["detail"] and "ridge 0.5" in error["detail"]


def test_interp_endpoint_values_must_agree(tmp_path, capsys):
    data = {"nodes": [-HALF_PI, HALF_PI], "values": [1.0, 2.0]}
    code, out = run(capsys, "interp", "--input", jfile(tmp_path, "data.json", data))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"
    # two nodes 3.3e-16 apart on the circle (through pi/2) are one point too
    data = {"nodes": [-1.5707963267948963, 0.2, 1.5707963267948966], "values": [1.0, 0.5, 2.0]}
    code, out = run(capsys, "interp", "--input", jfile(tmp_path, "near.json", data))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def _clustered_set(n, gap, seed):
    """Sorted jittered centres on [-1.5, 1.5], each a triple at -gap, 0, +gap; values on [-2, 2]."""
    rng = np.random.default_rng(seed)
    k = -(-n // 3)
    centres = np.sort(np.linspace(-1.5, 1.5, k) + rng.uniform(-0.02, 0.02, k))
    nodes = (centres[:, None] + gap * np.array([-1.0, 0.0, 1.0])).ravel()[:n]
    return nodes, rng.uniform(-2.0, 2.0, nodes.size)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double")
@pytest.mark.parametrize("n, gap, seed", [(51, 1e-8, 5), (600, 1e-7, 7)])
def test_interp_then_eval_meets_guarantee_11_at_the_nodes(tmp_path, capsys, n, gap, seed):
    # the coefficients cancel to about 3e9 in sum; read back through a span
    # rebuilt in double, these sets missed the bound by 6.1e-8 and 6.0e-8
    nodes, values = _clustered_set(n, gap, seed)
    data = {"nodes": nodes.tolist(), "values": values.tolist()}
    code, out = run(capsys, "interp", "--input", jfile(tmp_path, "data.json", data))
    assert code == 0
    at = "--at=" + ",".join(map(repr, nodes.tolist()))
    code, out = run(capsys, "eval", "--input", jfile(tmp_path, "itp.json", json.loads(out)), at)
    assert code == 0
    residual = np.max(np.abs(np.array(json.loads(out)["values"]) - values))
    assert residual <= 1e-8 * (1.0 + np.max(np.abs(values)))


@pytest.mark.parametrize("coeffs", [None, [0.7, -0.4, 0.2]])
def test_eval_of_an_interpolant_with_nodes_at_both_ends_is_its_span(tmp_path, capsys, coeffs):
    # -pi/2 and pi/2 are one kink: values and right-hand derivatives read there
    # and at the nodes agree with the expansion's, whose angles are reduced mod pi
    nodes = [-HALF_PI, 0.3, HALF_PI]
    record = {"type": "interpolant", "nodes": nodes, "coeffs": coeffs}
    if coeffs is None:
        data = {"nodes": nodes, "values": [1.0, -0.5, 1.0]}
        code, out = run(capsys, "interp", "--input", jfile(tmp_path, "data.json", data))
        assert code == 0
        record = json.loads(out)
    at = "--at=" + ",".join(map(repr, nodes))
    code, out = run(capsys, "eval", "--input", jfile(tmp_path, "itp.json", record), at)
    assert code == 0
    doc = json.loads(out)
    span = funcspace.DiangleSpan(serialization.read_interpolant(record).expansion)
    pts = np.array(nodes)
    np.testing.assert_allclose(doc["values"], span.value(pts), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(doc["derivatives"], span.derivative(pts), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "record, end",
    [
        ({"type": "dianglespan", "x0": 0.2, "terms": [{"angle": 0.4, "coeff": 1.0}, {"angle": -HALF_PI, "coeff": 0.5}]},
         -HALF_PI),
        ({"type": "trigpoly", "cos": [0.3, 1.0, -0.5], "sin": [0.0, 0.7]}, HALF_PI),
    ],
    ids=["span", "series"],
)
def test_eval_reads_a_point_past_an_end_at_that_end(tmp_path, capsys, record, end):
    # a point within the 1e-12 tolerance past an end gets the value and the slope
    # there, not the slope of the branch beyond the kink at -pi/2 = pi/2
    path = jfile(tmp_path, "f.json", record)
    past = end + math.copysign(5e-13, end)
    code, out = run(capsys, "eval", "--input", path, f"--at={past!r}")
    assert code == 0
    code, at_end = run(capsys, "eval", "--input", path, f"--at={end!r}")
    assert code == 0
    doc, end_doc = json.loads(out), json.loads(at_end)
    assert (doc["values"], doc["derivatives"]) == (end_doc["values"], end_doc["derivatives"])


# ``norm`` and ``inner`` (auto and exact) on interpolant records against trig,
# span and interpolant partners, and the ``interp`` runs that wrote the records,
# with the bytes each printed while an interpolant record was read through a
# span rebuilt from it: the exact engine reads the same expansion now.  The
# ``norm`` rows of spans and interpolant records were printed by the sine pass
# over one copy of the terms (``seq_inner`` with ``y is x``), each change checked
# against a 50-digit reference.
_INTERP_GOLDEN = json.loads((Path(__file__).parent / "interp_golden.json").read_text())


@pytest.mark.parametrize("case", _INTERP_GOLDEN, ids=[c["id"] for c in _INTERP_GOLDEN])
def test_interpolant_golden_bytes(tmp_path, capsys, case):
    path = jfile(tmp_path, "in.json", case["input"])
    assert run(capsys, *case["argv"], "--input", path) == (0, case["stdout"])


# ``norm`` and ``inner`` (auto and exact) through the exact engine: trig series
# at degrees 5, 20 and 80, sparse series reaching frequency 150, integer
# coefficients, spans with angles 1e-15 apart and terms at +-pi/2, spans with
# angles outside [-pi/2, pi/2), and interpolant records (theta 2 and 3).  The
# bytes were printed by the engine that built ``J(m -+ n)`` as two outer tables
# and read records entry by entry; the rows whose span x span sine sum went
# from the dense sine matrix to ``seqmodel``'s one sorted pass were printed by
# that pass, and the span ``norm`` rows by the pass over one copy of the terms,
# each change checked against a 50-digit reference.
_INNER_GOLDEN = json.loads((Path(__file__).parent / "inner_golden.json").read_text())


@pytest.mark.parametrize("case", _INNER_GOLDEN, ids=[c["id"] for c in _INNER_GOLDEN])
def test_inner_golden_bytes(tmp_path, capsys, case):
    path = jfile(tmp_path, "in.json", case["input"])
    assert run(capsys, *case["argv"], "--input", path) == (0, case["stdout"])


def _holds_trig(doc) -> bool:
    return doc.get("type") == "trigpoly" or any(isinstance(v, dict) and _holds_trig(v) for v in doc.values())


_TRIG_GOLDEN = [c for c in _INNER_GOLDEN if _holds_trig(c["input"])]


@pytest.mark.parametrize("case", _TRIG_GOLDEN, ids=[c["id"] for c in _TRIG_GOLDEN])
def test_inner_golden_bytes_with_energy_tables_cold_and_kept(tmp_path, capsys, case):
    # the first run builds the case's energy tables, the second reads the kept ones
    funcspace._kept_energy_table.cache_clear()
    path = jfile(tmp_path, "in.json", case["input"])
    assert run(capsys, *case["argv"], "--input", path) == (0, case["stdout"])
    assert run(capsys, *case["argv"], "--input", path) == (0, case["stdout"])


def test_power_outputs(tmp_path, capsys):
    path = jfile(tmp_path, "nodes.json", {"nodes": [0.0]})
    code, out = run(capsys, "power", "--input", path, "--at", "0", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,power"
    x, p = (float(tok) for tok in lines[1].split(","))
    assert x == 0.0 and 0.0 <= p <= 1e-7

    code, out = run(capsys, "power", "--input", path, "--at", f"0,{HALF_PI}")
    assert code == 0
    doc = json.loads(out)
    assert doc["power"][0] <= 1e-7
    assert math.isclose(doc["power"][1], 1.3812646753803643, rel_tol=1e-12)


def test_seq_polygon_expansion(tmp_path, capsys):
    doc_in = {
        "x0": 0.0,
        "terms": [
            {"angle": -QUARTER_PI, "coeff": 1.0},
            {"angle": QUARTER_PI, "coeff": 1.0},
        ],
    }
    code, out = run(capsys, "seq", "--input", jfile(tmp_path, "x.json", doc_in))
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["norm2"], 4.0 * (8.0 - math.pi) / math.pi**2, rel_tol=1e-12)
    assert math.isclose(doc["gap"], 8.0 - math.pi, rel_tol=1e-12)
    assert math.isclose(doc["polygon_gap"], 16.0 / math.pi - 2.0, rel_tol=1e-12)
    assert doc["perimeter"] == 8.0
    assert math.isclose(doc["area"], 4.0, rel_tol=1e-12)


def test_seq_signed_expansion_hides_polygon_readings(tmp_path, capsys):
    doc_in = {"x0": 1.0, "terms": [{"angle": 0.0, "coeff": -1.0}]}
    code, out = run(capsys, "seq", "--input", jfile(tmp_path, "x.json", doc_in))
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["norm2"], 1.0 - 4.0 / math.pi + 8.0 / math.pi**2, rel_tol=1e-13)
    assert math.isclose(doc["gap"], 0.25 * math.pi**2 * doc["norm2"], rel_tol=1e-12)
    assert doc["polygon_gap"] is None
    assert doc["perimeter"] is None
    assert doc["area"] is None


def test_seq_near_cancelling_expansion(tmp_path, capsys):
    # the rounding of the rearranged forms scales with (sum |c|)^2, not with norm2
    terms = [(0.3, 1000.0), (0.3000000001, -1000.0), (-1.0, 1500.0), (-1.0000000001, -1500.0)]
    doc_in = {"x0": 0.0, "terms": [{"angle": a, "coeff": c} for a, c in terms]}
    code, out = run(capsys, "seq", "--input", jfile(tmp_path, "x.json", doc_in))
    assert code == 0
    n2 = json.loads(out)["norm2"]
    path = jfile(tmp_path, "f.json", {"type": "dianglespan", **doc_in})
    code, out = run(capsys, "norm", "--input", path, "--method", "quadrature")
    assert code == 0
    assert abs(n2 - json.loads(out)["norm2"]) <= 1e-9


def test_geom_norm_and_deficit(tmp_path, capsys):
    path = jfile(tmp_path, "pair.json", {"U": SQUARE, "V": POINT})
    code, out = run(capsys, "geom", "norm", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["norm2"], (128.0 - 16.0 * math.pi) / (4.0 * math.pi**2), rel_tol=1e-12)
    assert math.isclose(doc["norm"], math.sqrt(doc["norm2"]), rel_tol=1e-15)

    code, out = run(capsys, "geom", "deficit", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["deficit"], 64.0 - 16.0 * math.pi, rel_tol=1e-12)
    assert math.isclose(doc["measure"], 4.0, rel_tol=1e-12)
    assert doc["perimeter"] == 8.0


def test_geom_width_and_cauchy(tmp_path, capsys):
    path = jfile(tmp_path, "body.json", SQUARE)
    code, out = run(capsys, "geom", "width", "--input", path, "--angle", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 2.0 and doc["derivative"] == 2.0

    code, out = run(capsys, "geom", "cauchy", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["cauchy_gap"] <= 1e-10
    assert doc["perimeter"] == 8.0
    # the quadrature tolerance is read: 0 is not one
    code, out = run(capsys, "geom", "cauchy", "--input", path, "--tol", "1e-6")
    assert code == 0 and json.loads(out)["cauchy_gap"] <= 1e-6
    code, out = run(capsys, "geom", "cauchy", "--input", path, "--tol", "0")
    assert code == 2 and json.loads(out)["error"]["kind"] == "malformed-input"


def test_geom_sum_rectangle(tmp_path, capsys):
    pair = {
        "U": {"generators": [{"angle": 0.0, "length": 2.0}]},
        "V": {"generators": [{"angle": -HALF_PI, "length": 4.0}]},
    }
    code, out = run(capsys, "geom", "sum", "--input", jfile(tmp_path, "pair.json", pair))
    assert code == 0
    body = json.loads(out)
    verts = sorted(body["vertices"], key=lambda v: (round(v[0], 9), round(v[1], 9)))
    np.testing.assert_allclose(
        verts,
        [[-1.0, -2.0], [-1.0, 2.0], [1.0, -2.0], [1.0, 2.0]],
        atol=1e-12,
    )
    code, out = run(capsys, "geom", "perimeter", "--input", jfile(tmp_path, "sum.json", body))
    assert code == 0
    assert math.isclose(json.loads(out)["perimeter"], 12.0, rel_tol=1e-12)


def test_geom_equiv(tmp_path, capsys):
    same = {"A": {"U": SQUARE, "V": POINT}, "B": {"U": SQUARE, "V": POINT}}
    code, out = run(capsys, "geom", "equiv", "--input", jfile(tmp_path, "same.json", same))
    assert code == 0
    assert json.loads(out) == {"equivalent": True}

    flipped = {"A": {"U": SQUARE, "V": POINT}, "B": {"U": POINT, "V": SQUARE}}
    code, out = run(capsys, "geom", "equiv", "--input", jfile(tmp_path, "flip.json", flipped))
    assert code == 0
    assert json.loads(out) == {"equivalent": False}


def test_geom_sum_of_squares_feeds_equiv(tmp_path, capsys):
    # the lex-min point of the sum is an edge midpoint; it must not survive as a vertex
    square = {"generators": [{"angle": 0.0, "length": 2.0}, {"angle": HALF_PI, "length": 2.0}]}
    code, out = run(capsys, "geom", "sum", "--input", jfile(tmp_path, "sq.json", {"U": square, "V": square}))
    assert code == 0
    body = json.loads(out)
    assert len(body["vertices"]) == 4
    big = {"generators": [{"angle": 0.0, "length": 4.0}, {"angle": HALF_PI, "length": 4.0}]}
    doc = {"A": {"U": body, "V": POINT}, "B": {"U": big, "V": POINT}}
    code, out = run(capsys, "geom", "equiv", "--input", jfile(tmp_path, "eq.json", doc))
    assert code == 0
    assert json.loads(out) == {"equivalent": True}


def test_geom_tofunction(tmp_path, capsys):
    path = jfile(tmp_path, "pair.json", {"U": SQUARE, "V": POINT})
    code, out = run(capsys, "geom", "tofunction", "--input", path, "--points", "3", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,f,fprime"
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 1.0

    code, out = run(capsys, "geom", "tofunction", "--input", path, "--points", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["x"]) == len(doc["f"]) == len(doc["fprime"]) == 3
    # the square has an edge at -pi/2: both endpoints take the right-hand derivative
    assert doc["fprime"][0] == doc["fprime"][2]
    assert abs(doc["fprime"][2] - 1.0) <= 1e-15

    body = jfile(tmp_path, "body.json", SQUARE)
    code, out = run(capsys, "geom", "width", "--input", body, "--angle", repr(HALF_PI))
    assert code == 0
    assert json.loads(out)["derivative"] == 2.0 * doc["fprime"][2]


# Every geom op on vertex and generator input, bodies with an edge at +-pi/2
# (vertex and generator forms), segments and the point.  Vertex input keeps the
# bytes each printed before canonicalization moved from NumPy rows to Python
# floats; generator input and `sum` print what their expansions give, each
# change checked against a 50-digit generator-formula reference.
_GEOM_GOLDEN = json.loads((Path(__file__).parent / "geom_golden.json").read_text())


@pytest.mark.parametrize("case", _GEOM_GOLDEN, ids=[c["id"] for c in _GEOM_GOLDEN])
def test_geom_golden_bytes(tmp_path, capsys, case):
    path = jfile(tmp_path, "in.json", case["input"])
    assert run(capsys, "geom", *case["argv"], "--input", path) == (0, case["stdout"])


_BUILTIN_SUM = sum


def _compensated_sum(values, start=0):
    """Python 3.12's built-in ``sum`` of floats, Neumaier's compensated sum; anything else as before."""
    values = list(values)
    if not values or type(start) is not int or any(type(v) is not float for v in values):
        return _BUILTIN_SUM(values, start)
    total, comp = start + values[0], 0.0
    for v in values[1:]:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_golden_bytes_do_not_depend_on_the_builtin_sum(tmp_path, capsys, monkeypatch):
    # CI runs Python 3.12 too, whose ``sum`` of floats is compensated; every
    # golden case must print its bytes under that algorithm as well
    assert _compensated_sum([0.55, 0.3, 0.4, 0.65]) == 1.9000000000000001 != sum([0.55, 0.3, 0.4, 0.65])
    odd_sines = [0.55, 0.0, -0.3, 0.0, 0.4, 0.0, -0.65]  # b_1 takes off 0.55 + 0.3 + 0.4 + 0.65
    projected = funcspace.project_endpoints([1.0], odd_sines)
    monkeypatch.setattr("builtins.sum", _compensated_sum)
    assert funcspace.project_endpoints([1.0], odd_sines) == projected
    cases = [(["geom"], c) for c in _GEOM_GOLDEN] + [([], c) for c in _INNER_GOLDEN + _INTERP_GOLDEN]
    moved = []
    for prefix, case in cases:
        path = jfile(tmp_path, "in.json", case["input"])
        if run(capsys, *prefix, *case["argv"], "--input", path) != (0, case["stdout"]):
            moved.append(case["id"])
    assert moved == []


# the seven suites at seeds 0-10, so the quadrature-route and point-sweep checks see
# more than one draw; at 11-20 too the geometry suite, the independent oracle for bodies
# kept as expansions (vertex walks, support widths, the hull and quadrature), and the
# holder, classical-kernel and gram-psd suites, which read all their members or
# matrices in stacked calls
@pytest.mark.parametrize(
    "suite, seed",
    [
        *(("all", seed) for seed in range(11)),
        *(
            (suite, seed)
            for suite in ("geometry", "holder", "classical-kernel", "gram-psd")
            for seed in range(11, 21)
        ),
    ],
)
def test_verify_suite_passes(capsys, suite, seed):
    code, out = run(capsys, "verify", "--suite", suite, "--seed", str(seed))
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == suite and doc["seed"] == seed
    assert doc["overall"] == "pass"
    assert doc["counts"]["fail"] == 0


def test_verify_unknown_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def test_verify_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--suite", "sequence")
    _, second = run(capsys, "verify", "--suite", "sequence")
    a, b = json.loads(first), json.loads(second)
    a.pop("duration_sec"), b.pop("duration_sec")
    assert a == b


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CONST)))
    code, out = run(capsys, "norm", "--input", "-")
    assert code == 0
    assert json.loads(out)["norm2"] == 1.0


def test_missing_file(capsys):
    code, out = run(capsys, "norm", "--input", "/no/such/file.json")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out = run(capsys, "norm", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def test_out_of_domain_point(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", DIANGLE0)
    code, out = run(capsys, "eval", "--input", path, "--at", "9")
    assert code == 2


@pytest.mark.parametrize(
    "doc, argv",
    [
        (DIANGLE0, ("eval", "--at", "0,nan")),
        (DIANGLE0, ("eval", "--at", "nan", "--output", "csv")),
        ({"nodes": [0.0, 0.5]}, ("power", "--at", "nan")),
        ({"nodes": [0.0, 0.5]}, ("power", "--at", "nan", "--output", "csv")),
        (SQUARE, ("geom", "width", "--angle", "nan")),
    ],
)
def test_nan_points_are_malformed_input(tmp_path, capsys, doc, argv):
    code, out = run(capsys, argv[0], "--input", jfile(tmp_path, "in.json", doc), *argv[1:])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


@pytest.mark.parametrize("bad", [{"nodes": [2.0]}, {"theta": 0.5}, {"ridge": -1.0}])
def test_invalid_interpolant_record_exits_2(tmp_path, capsys, bad):
    # a node outside the domain is malformed: nodes [2.0] read as given and read
    # mod pi are two functions (2.551 and 1.449 at -1.5)
    doc = {"type": "interpolant", "theta": 2.0, "nodes": [0.0], "coeffs": [1.0], **bad}
    code, out = run(capsys, "eval", "--input", jfile(tmp_path, "itp.json", doc), "--at", "-1.5")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def _square(c):
    return {"vertices": [[c, c], [-c, c], [-c, -c], [c, -c]]}


@pytest.mark.parametrize(
    "op, doc",
    [
        ("area", _square(1e155)),
        ("area", {"generators": [{"angle": 0.0, "length": 1e308}, {"angle": 0.1, "length": 1e308}]}),
        ("perimeter", {"generators": [{"angle": 0.5, "length": 1e308}]}),
        ("sum", {"U": _square(1e154), "V": _square(1e154)}),
        ("area", _square(1e154)),
        ("norm", {"U": _square(1e154), "V": POINT}),
        ("deficit", {"U": POINT, "V": _square(1e154)}),
    ],
)
def test_overflowing_bodies_are_malformed_input(tmp_path, capsys, op, doc):
    # squared coordinates beyond the largest double: a body's turn tolerance
    # and area scale with them, so it is rejected before either overflows; at
    # +-1e154 the squares are finite but the area is not.  The suite turns a
    # RuntimeWarning into an error, so an overflow inside NumPy fails here too.
    code, out = run(capsys, "geom", op, "--input", jfile(tmp_path, "body.json", doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "malformed-input" and "too large" in err["detail"]


def test_generator_bodies_are_too_large_where_their_vertex_form_is(tmp_path, capsys):
    # the guard reads a generator body's largest coordinate, 7.5e153 here, whose
    # square is finite, not half the lengths' sum, whose square is not
    gens = {"generators": [{"angle": 0.0, "length": 1.5e154}, {"angle": HALF_PI, "length": 1.5e154}]}
    for doc in (gens, _square(7.5e153)):
        code, out = run(capsys, "geom", "perimeter", "--input", jfile(tmp_path, "body.json", doc))
        assert code == 0 and math.isclose(json.loads(out)["perimeter"], 6e154, rel_tol=1e-15)
    code, out = run(capsys, "geom", "perimeter", "--input", jfile(tmp_path, "body.json", _square(1.5e154)))
    assert code == 2 and "too large" in json.loads(out)["error"]["detail"]
    gens["generators"][1]["length"] = 3e154
    code, out = run(capsys, "geom", "perimeter", "--input", jfile(tmp_path, "body.json", gens))
    assert code == 2 and "too large" in json.loads(out)["error"]["detail"]


# Two bodies whose Minkowski sum used to depend on argument order: a 1e-7 edge
# beside edges 1.2e-15 rad apart, at scale 500.
_ORDERED_U = {
    "generators": [
        {"angle": -1.5707963267948966, "length": 1.0},
        {"angle": -1.5707963267948954, "length": 0.09375},
        {"angle": -0.5707963267948966, "length": 1e-07},
    ]
}
_ORDERED_V = {"generators": [{"angle": -1.5707963267948966, "length": 1000.0}]}


def test_geom_sum_prints_the_same_bytes_in_either_order(tmp_path, capsys):
    uv = run(capsys, "geom", "sum", "--input", jfile(tmp_path, "uv.json", {"U": _ORDERED_U, "V": _ORDERED_V}))
    vu = run(capsys, "geom", "sum", "--input", jfile(tmp_path, "vu.json", {"U": _ORDERED_V, "V": _ORDERED_U}))
    assert uv == vu and uv[0] == 0
    # the 1e-7 edge survives the merge, but the body is 1e-10 of its scale thick, and
    # the printed ring is the segment a vertex list of it reads back as
    assert len(json.loads(uv[1])["vertices"]) == 2
    assert run(capsys, "geom", "area", "--input", jfile(tmp_path, "s.json", json.loads(uv[1]))) == (0, '{\n  "area": 0.0\n}\n')


@pytest.mark.parametrize("case", [c for c in _GEOM_GOLDEN if c["argv"] == ["sum"]], ids=lambda c: c["id"])
def test_geom_sum_output_reads_back(tmp_path, capsys, case):
    # in either order the printed ring is the same bytes, and read back as a
    # vertex body it is a body, with that ring
    uv, vu = ({"U": case["input"][a], "V": case["input"][b]} for a, b in (("U", "V"), ("V", "U")))
    code, out = run(capsys, "geom", "sum", "--input", jfile(tmp_path, "uv.json", uv))
    assert code == 0 and run(capsys, "geom", "sum", "--input", jfile(tmp_path, "vu.json", vu)) == (0, out)
    body = json.loads(out)
    assert run(capsys, "geom", "area", "--input", jfile(tmp_path, "again.json", body))[0] == 0
    assert serialization.read_body(body).vertices == tuple(map(tuple, body["vertices"]))


@pytest.mark.parametrize(
    "body, area",
    [
        ({"generators": [{"angle": -HALF_PI, "length": 1e-06}, {"angle": 0.0, "length": 5e-07}]}, 5e-13),
        ({"vertices": [[2.5e-07, 5e-07], [-2.5e-07, 5e-07], [-2.5e-07, -5e-07], [2.5e-07, -5e-07]]}, 5e-13),
        ({"generators": [{"angle": 0.3, "length": 1e-06}, {"angle": 1.0, "length": 5e-07}]}, 5e-13 * math.sin(0.7)),
    ],
    ids=["generators", "vertices", "oblique"],
)
def test_bodies_below_unit_size_print_their_area(tmp_path, capsys, body, area):
    # tolerances are relative to the body's own scale: a body 1e-6 across keeps its shape
    code, out = run(capsys, "geom", "area", "--input", jfile(tmp_path, "body.json", body))
    assert code == 0
    assert math.isclose(json.loads(out)["area"], area, rel_tol=1e-14)


_BIG_SPAN = {
    "type": "dianglespan",
    "x0": 0.0,
    "terms": [{"angle": 0.0, "coeff": 1e154}, {"angle": 1.0, "coeff": 1e154}],
}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["seq"], {"terms": _BIG_SPAN["terms"]}),
        (["norm"], _BIG_SPAN),
        (["inner"], {"f": _BIG_SPAN, "g": _BIG_SPAN}),
        (
            ["inner"],
            {"f": {**_BIG_SPAN, "x0": 1.0, "terms": [{"angle": -0.5, "coeff": -1e154}]}, "g": _BIG_SPAN},
        ),
    ],
)
def test_overflowing_expansions_are_malformed_input(tmp_path, capsys, argv, doc):
    # twice the product of the absolute coefficient sums bounds the profile
    # Gram sum; at 1e154 it overflows, so the sum is never formed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, *argv, "--input", jfile(tmp_path, "x.json", doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "malformed-input" and "too large" in err["detail"]


def test_seq_reading_that_overflows_is_malformed_input(tmp_path, capsys):
    # the Gram bound 2 (sum |c|)^2 = 1.6e308 is finite, but the gap's square of
    # (pi/2) x0 + S overflows; the error names it before the writer sees inf
    terms = [{"angle": 0.0, "coeff": 4.5e153}, {"angle": 1.0, "coeff": 4.5e153}]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, "seq", "--input", jfile(tmp_path, "x.json", {"x0": 1e153, "terms": terms}))
    assert code == 2
    assert json.loads(out)["error"] == {
        "detail": "expansion is too large: its gap overflows to inf",
        "kind": "malformed-input",
    }
    # without x0 every reading is finite, however large
    terms = [{"angle": 0.0, "coeff": 1e153}, {"angle": 1.0, "coeff": 1e153}]
    code, out = run(capsys, "seq", "--input", jfile(tmp_path, "y.json", {"terms": terms}))
    assert (code, out) == (
        0,
        """{
  "area": 3.365883939231586e+306,
  "gap": 5.356440935918545e+306,
  "norm2": 2.1708837429501537e+306,
  "perimeter": 8e+153,
  "polygon_gap": 3.4100162093248582e+306
}
""",
    )


def test_quadrature_route_that_does_not_converge_exits_3(tmp_path, capsys):
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_depth=1, base_points=2)
    path = jfile(tmp_path, "fg.json", {"f": {"type": "trigpoly", "cos": [0.0] * 40 + [1.0]}, "g": DIANGLE0})
    with mock.patch.object(cli, "_spec", lambda args: spec):
        code, out = run(capsys, "inner", "--input", path, "--method", "quadrature")
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "numerical-failure" and "did not converge" in err["detail"]


# ---------------------------------------------------------------------------
# hostile JSON against every reader


TRIG = {"type": "trigpoly", "cos": [1.0, 0.5]}
ITP = {"type": "interpolant", "theta": 2.0, "ridge": 0.0, "nodes": [0.0, 0.5], "coeffs": [1.0, -0.5]}
PAIR = {"U": SQUARE, "V": {"vertices": [[1.0, 0.5], [-1.0, -0.5]]}}

# every key in these documents is read; the ones listed here have no default
_REQUIRED = {"type", "f", "g", "nodes", "values", "coeffs", "angle", "coeff", "length"}
_REQUIRED |= {"vertices", "generators", "U", "V", "A", "B"}
_VALID = [
    (("eval", "--at", "0.1"), TRIG),
    (("eval", "--at", "0.1", "--output", "csv"), {"f": DIANGLE0}),
    (("norm",), ITP),
    (("export", "--points", "5"), K0),
    (("inner",), {"f": TRIG, "g": ITP}),
    (("gram",), {"nodes": [-0.5, 0.5], "theta": 2.0, "ridge": 0.0}),
    (("interp",), {"nodes": [-0.5, 0.5], "values": [1.0, 2.0], "theta": 2.0}),
    (("power", "--at", "0.1"), {"nodes": [-0.5, 0.5]}),
    (("seq",), {"x0": 0.0, "terms": [{"angle": 0.3, "coeff": 1.0}]}),
    (("geom", "area"), SQUARE),
    (("geom", "width", "--angle", "0.3"), PAIR["V"]),
    (("geom", "cauchy"), SQUARE),
    (("geom", "sum"), PAIR),
    (("geom", "norm"), PAIR),
    (("geom", "deficit"), PAIR),
    (("geom", "tofunction", "--points", "5"), PAIR),
    (("geom", "equiv"), {"A": PAIR, "B": PAIR}),
]
# JSON text spliced in for a placeholder: values that are wrong even where a
# number belongs (non-finite literals, an integer beyond the double range),
# and arrays nested deeper than json.dumps can write
_LITERALS = ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "[" * 30 + "]" * 30, "[" * 5000 + "]" * 5000]
_WRONG = ["x", True, None, [], [1.0], {}, {"a": 1.0}, 1.0, *(f"<{i}>" for i in range(len(_LITERALS)))]


def _paths(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _kind(value):
    return "literal" if isinstance(value, str) and value.startswith("<") else type(value)


def _with_literals(text: str) -> str:
    for i, literal in enumerate(_LITERALS):
        text = text.replace(f'"<{i}>"', literal)
    return text


@st.composite
def _hostile(draw):
    """A valid command and document, with one required key deleted or one part of the wrong kind."""
    argv, doc = draw(st.sampled_from(_VALID))
    doc = json.loads(json.dumps(doc))
    path, value = draw(st.sampled_from(list(_paths(doc))))
    wrong = draw(st.sampled_from([w for w in _WRONG if _kind(w) != _kind(value)]))
    if not path:
        return argv, _with_literals(json.dumps(wrong))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path[-1] in _REQUIRED and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = wrong
    return argv, _with_literals(json.dumps(doc))


@seed(20221)
@settings(max_examples=300, deadline=None)
@given(case=_hostile())
def test_hostile_json_is_malformed_input(case):
    argv, text = case
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = cli.main([argv[0], "--input", "-", *argv[1:]])
    doc = json.loads(out.getvalue())
    assert (code, doc["error"]["kind"]) == (2, "malformed-input"), text[:200]
    assert list(doc) == ["error"] and list(doc["error"]) == ["detail", "kind"]
    assert isinstance(doc["error"]["detail"], str)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--input", "{f}", "--at", "-0.5,0.5"],  # a comma list that argparse reads as an option
        ["frobnicate", "--input", "{f}"],
        [],
        ["norm"],
        ["gram", "--input", "{f}", "--theta", "abc"],
        ["norm", "--input", "{f}", "--method", "bogus"],
        ["norm", "--input", "{f}", "--frobnicate"],
        ["geom", "bogus", "--input", "{f}"],
        ["geom", "--input", "{f}", "area"],  # a geom operation's flags follow it
        ["geom", "width", "--input", "{f}"],
        ["verify", "--seed", "1.5"],
    ],
    ids=["negative-at", "unknown-command", "no-command", "no-input", "bad-theta", "bad-method",
         "unknown-flag", "bad-geom-op", "geom-flags-before-op", "width-without-angle", "bad-seed"],
)
def test_command_line_errors_are_malformed_input(tmp_path, capsys, argv):
    path = jfile(tmp_path, "f.json", CONST)
    code = cli.main([a.replace("{f}", path) for a in argv])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert (code, doc["error"]["kind"]) == (2, "malformed-input")
    assert list(doc) == ["error"] and doc["error"]["detail"].startswith("isorkhs")
    assert captured.err.startswith("usage: isorkhs")


@pytest.mark.parametrize("command, doc", [("eval", CONST), ("power", {"nodes": [-0.5, 0.5]})])
def test_a_negative_at_list_names_the_equals_form(tmp_path, capsys, command, doc):
    path = jfile(tmp_path, "f.json", doc)
    code = cli.main([command, "--input", path, "--at", "-0.5,0.5"])
    detail = json.loads(capsys.readouterr().out)["error"]["detail"]
    assert code == 2 and detail.startswith(f"isorkhs {command}: argument --at:")
    assert "--at=-0.5,0.5" in detail
    # the form the message names reads the same points
    assert run(capsys, command, "--input", path, "--at=-0.5,0.5")[0] == 0


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["norm", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: isorkhs norm")


def test_norm_has_no_csv_form(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", CONST)
    code, out = run(capsys, "norm", "--input", path, "--output", "csv")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


# argparse words its messages differently from version to version; on each, a usage
# error must exit 2 with the malformed-input document on stdout: an unknown command, a
# flag the command does not read, a CSV request to a command with no CSV form and a
# tolerance without --method quadrature among them
@pytest.mark.parametrize(
    "argv, code",
    [
        ("norm --input {path}", 0),
        ("eval --input - --at -0.5,0.5", 2),
        ("frobnicate --input -", 2),
        ("seq --input - --seed 3", 2),
        ("norm --input - --output csv", 2),
        ("norm --input - --tol 0.5", 2),
    ],
    ids=["norm", "eval-dash-points", "unknown-command", "unread-flag", "no-csv-form", "tol-without-quadrature"],
)
def test_module_entry_point(tmp_path, argv, code):
    path = jfile(tmp_path, "f.json", CONST)
    proc = subprocess.run(
        [sys.executable, "-m", "isorkhs", *(path if a == "{path}" else a for a in argv.split())],
        input=json.dumps(CONST),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    doc = json.loads(proc.stdout)
    if code:
        assert doc["error"]["kind"] == "malformed-input"
    else:
        assert doc["norm2"] == 1.0


def test_readme_examples_print_the_bytes_shown():
    # the examples users copy (seq, geom norm and eval of an interpolant record) guard
    # the byte-determinism claim; a command may carry flags such as --at=-0.5,0,0.5
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("### Example", 1)[1].split("\n### ", 1)[0].split("```")[1::2]
    assert len(blocks) == 3, f"expected the seq, geom norm and eval examples, found {len(blocks)}"
    pattern = r"\n\$ echo '(.*)' \\\n *\| isorkhs ([a-z][-a-z0-9=., ]*) --input -\n(.*)"
    for block in blocks:
        doc, command, shown = re.fullmatch(pattern, block, re.S).groups()
        proc = subprocess.run(
            [sys.executable, "-m", "isorkhs", *command.split(), "--input", "-"],
            input=doc + "\n",
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, shown), command


def _random_ring(rng, edges):
    """A vertex ring in convex position with ``edges`` antipodal edge pairs, exactly symmetric:
    edges at stratified angles in one half turn, walked from minus half their sum."""
    turn = rng.uniform(0.0, math.pi)
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    steps = []
    for i in range(edges):
        angle, length = turn + math.pi * (i + rng.uniform(0.1, 0.9)) / edges, scale * rng.uniform(0.1, 2.0)
        steps.append((length * math.cos(angle), length * math.sin(angle)))
    x, y = -0.5 * math.fsum(dx for dx, _ in steps), -0.5 * math.fsum(dy for _, dy in steps)
    half = []
    for dx, dy in steps:
        half.append([x, y])
        x, y = x + dx, y + dy
    return half + [[-x, -y] for x, y in half]


# For each [body, pair] of the JSON list on stdin, the documents geom area and
# perimeter print for the body and geom norm and deficit for the pair (the handlers
# and the writer main runs; the parser is left out, as it dominates 1600 calls).
_BODY_BYTES = """
import json, sys
from isorkhs import cli, serialization
out = []
for body, pair in json.load(sys.stdin):
    for handler, doc in ((cli._geom_area, body), (cli._geom_perimeter, body), (cli._geom_norm, pair),
                         (cli._geom_deficit, pair)):
        out.append(serialization.dumps(handler(None, doc)))
json.dump(out, sys.stdout)
"""


def test_body_bytes_do_not_depend_on_numpys_cpu_dispatch():
    """Seeded vertex rings print the same bytes with NumPy's AVX-512 and AVX2 kernels
    switched off: an edge's angle is libm's ``atan2``, never NumPy's SIMD ``arctan2``,
    whose AVX-512 kernel rounds some edges differently from libm."""
    from isorkhs.rng import SplitMix64

    rng = SplitMix64(2101)
    bodies = [{"vertices": _random_ring(rng, 2 + rng.below(10))} for _ in range(400)]
    docs = json.dumps([[u, {"U": u, "V": v}] for u, v in zip(bodies, bodies[1:] + bodies[:1])])
    src = str(Path(cli.__file__).parents[1])
    outs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"}):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", **disabled}
        proc = subprocess.run([sys.executable, "-c", _BODY_BYTES], input=docs, capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(json.loads(proc.stdout))
    assert len(outs[0]) == 1600
    differ = sorted({i // 4 for i, (a, b) in enumerate(zip(*outs)) if a != b})
    assert not differ, f"{len(differ)} of 400 rings print other bytes without AVX-512: {differ[:10]}"


# ---------------------------------------------------------------------------
# flags: each command, and each geom operation, takes only the flags it reads

_GEOM_OPS = ("sum", "area", "perimeter", "width", "norm", "deficit", "tofunction", "equiv", "cauchy")
_COMMANDS = [(c,) for c in ("eval", "inner", "norm", "gram", "interp", "power", "seq", "verify", "export")]
_COMMANDS += [("geom", op) for op in _GEOM_OPS]
# besides --input and --help
_READS = {
    ("eval",): {"--at", "--output"},
    ("inner",): {"--method", "--tol"},
    ("norm",): {"--method", "--tol"},
    ("gram",): {"--theta", "--ridge"},
    ("interp",): {"--theta", "--ridge"},
    ("power",): {"--at", "--theta", "--ridge", "--output"},
    ("geom", "width"): {"--angle"},
    ("geom", "tofunction"): {"--points", "--output"},
    ("geom", "cauchy"): {"--tol"},
    ("verify",): {"--suite", "--seed"},
    ("export",): {"--points"},
}
# 114 (command, flag) pairs: five flags offered to every command and geom operation, and
# each other flag to the command that reads it or, for geom, to every operation; the 93
# whose handler does not read the flag are usage errors
_OFFERED = [(c, f) for c in _COMMANDS for f in ("--theta", "--ridge", "--tol", "--seed", "--output")]
_OFFERED += [(("eval",), "--at"), (("inner",), "--method"), (("norm",), "--method"), (("power",), "--at")]
_OFFERED += [(("verify",), "--suite"), (("export",), "--points")]
_OFFERED += [(("geom", op), f) for op in _GEOM_OPS for f in ("--angle", "--points")]
_UNREAD = [(c, f) for c, f in _OFFERED if f not in _READS.get(c, set())]
_VALUES = {"--theta": "5", "--ridge": "0.1", "--tol": "1e-6", "--seed": "3", "--output": "json"}
_VALUES.update({"--at": "0.1", "--method": "exact", "--suite": "holder", "--points": "5", "--angle": "0.3"})


def _leaves(parser, path=()):
    """``(command path, option strings)`` of each parser that runs a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*path, name))
            return
    yield path, {s for a in parser._actions for s in a.option_strings} - {"-h", "--help", "--input"}


def test_the_parser_takes_exactly_the_flags_each_handler_reads():
    leaves = dict(_leaves(cli._build_parser()))
    assert sorted(leaves) == sorted(_COMMANDS)
    assert {c: flags for c, flags in leaves.items() if flags} == _READS
    assert sum(map(len, _READS.values())) == 21 and len(_OFFERED) == 114 and len(_UNREAD) == 93


@pytest.mark.parametrize("argv", [["interp", "--input", "-"], ["geom", "width", "--input", "-", "--angle", "0.3"],
                                  ["--input", "-", "power"], ["geom", "--help"], []])
def test_a_call_gives_flags_to_the_command_it_names_only(argv):
    # every command keeps its name and help for the usage line and choice errors
    leaves = dict(_leaves(cli._build_parser(argv)))
    named = [c for c in _COMMANDS if c == tuple(a for a in argv if not a.startswith("-"))[: len(c)]]
    assert {c: flags for c, flags in leaves.items() if flags} == {c: _READS[c] for c in named if c in _READS}
    assert {c[0] for c in leaves} == {c[0] for c in _COMMANDS}


@pytest.mark.parametrize("command, flag", _UNREAD, ids=[" ".join((*c, f)) for c, f in _UNREAD])
def test_a_flag_the_command_does_not_read_is_malformed_input(tmp_path, capsys, command, flag):
    required = {("eval",): ["--at=0.1"], ("power",): ["--at=0.1"], ("geom", "width"): ["--angle", "0.3"]}
    inputs = [] if command == ("verify",) else ["--input", jfile(tmp_path, "f.json", CONST)]
    code = cli.main([*command, *inputs, *required.get(command, []), flag, _VALUES[flag]])
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (code, error["kind"]) == (2, "malformed-input") and error["detail"].startswith("isorkhs")
    assert f"unrecognized arguments: {flag} {_VALUES[flag]}" in error["detail"]
    assert captured.err.startswith("usage: isorkhs")


_KERNEL_DATA = {"nodes": [-1.0, 0.0, 0.5], "values": [1.0, -0.5, 2.0]}


@pytest.mark.parametrize(
    "flags, keys, theta, ridge",
    [
        ((), {}, 2.0, 0.0),
        ((), {"theta": 3.0, "ridge": 0.25}, 3.0, 0.25),
        (("--theta", "5", "--ridge", "0.5"), {"theta": 3.0, "ridge": 0.25}, 5.0, 0.5),
        (("--theta", "5"), {"ridge": 0.25}, 5.0, 0.25),
        (("--ridge", "0.5"), {"theta": 3.0}, 3.0, 0.5),
    ],
    ids=["defaults", "document", "flags-win", "theta-flag", "ridge-flag"],
)
def test_kernel_commands_take_theta_and_ridge_from_flag_then_document(tmp_path, capsys, flags, keys, theta, ridge):
    path = jfile(tmp_path, "in.json", {**_KERNEL_DATA, **keys})
    nodes, values = _KERNEL_DATA["nodes"], _KERNEL_DATA["values"]
    g = kernel.gram_system(nodes, theta=theta, ridge=ridge)
    code, out = run(capsys, "gram", "--input", path, *flags)
    doc = json.loads(out)
    assert code == 0 and (doc["theta"], doc["ridge"]) == (theta, ridge)
    assert doc["matrix"] == g.matrix.tolist() and doc["min_eig"] == g.min_eig

    record = serialization.write_interpolant(kernel.interpolate(nodes, values, theta=theta, ridge=ridge))
    assert run(capsys, "interp", "--input", path, *flags) == (0, serialization.dumps({**record, "type": "interpolant"}) + "\n")

    at = np.array([-1.2, 0.25, 1.5])
    power = {"at": list(at), "power": list(kernel.power_function(g, at))}
    assert run(capsys, "power", "--input", path, "--at=-1.2,0.25,1.5", *flags) == (0, serialization.dumps(power) + "\n")


@pytest.mark.parametrize("command, doc", [("norm", K0), ("inner", {"f": {"type": "trigpoly", "cos": [1.0, 0.5]}, "g": K0})])
def test_quadrature_tolerance_flag(tmp_path, capsys, command, doc):
    path = jfile(tmp_path, "in.json", doc)
    code, out = run(capsys, command, "--input", path, "--method", "exact")
    exact = json.loads(out)
    code, out = run(capsys, command, "--input", path, "--method", "quadrature", "--tol", "1e-6")
    assert code == 0
    quadrature = json.loads(out)
    assert quadrature.keys() == exact.keys()
    assert all(abs(quadrature[k] - exact[k]) <= 1e-6 for k in exact)
    code, out = run(capsys, command, "--input", path, "--method", "quadrature", "--tol", "-1")
    assert code == 2 and json.loads(out)["error"]["kind"] == "malformed-input"


_TRIG = {"type": "trigpoly", "cos": [1.0, 0.5]}


@pytest.mark.parametrize(
    "command, doc, quadrature_bytes",
    [
        ("norm", _TRIG, '{\n  "norm": 1.3561939904203439,\n  "norm2": 1.8392621396522562\n}\n'),
        ("inner", {"f": _TRIG, "g": K0}, '{\n  "inner": 1.5000000000000004\n}\n'),
    ],
    ids=["norm", "inner"],
)
def test_tolerance_needs_the_quadrature_method(tmp_path, capsys, command, doc, quadrature_bytes):
    # every CLI record is symbolic, so exact and auto both take the exact route, which reads no tolerance
    path = jfile(tmp_path, "in.json", doc)
    for method in (["--method", "exact"], ["--method", "auto"], []):
        code, out = run(capsys, command, "--input", path, *method, "--tol", "0.5")
        error = json.loads(out)["error"]
        assert (code, error["kind"]) == (2, "malformed-input")
        assert "--method quadrature" in error["detail"]
    assert run(capsys, command, "--input", path, "--method", "quadrature", "--tol", "1e-9") == (0, quadrature_bytes)


_OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from isorkhs import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, doc", [(["export"], K0), (["geom", "tofunction"], {"U": SQUARE, "V": POINT})])
def test_running_out_of_memory_is_a_numerical_failure(tmp_path, command, doc):
    # a 4 GB sample grid under 1 GB of address space: the error document and exit 3,
    # not a traceback; one BLAS thread, so the limit is not spent on thread buffers
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    argv = [*command, "--input", jfile(tmp_path, "in.json", doc), "--points", "500000000"]
    proc = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["error"]["kind"] == "numerical-failure"

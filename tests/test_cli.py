"""End-to-end tests that drive the command-line harness through ``cli.main``."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from isorkhs import cli, kernel

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


def test_verify_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "holder")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "holder"
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


def test_norm_has_no_csv_form(tmp_path, capsys):
    path = jfile(tmp_path, "f.json", CONST)
    code, out = run(capsys, "norm", "--input", path, "--output", "csv")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def test_module_entry_point(tmp_path):
    path = jfile(tmp_path, "f.json", CONST)
    proc = subprocess.run(
        [sys.executable, "-m", "isorkhs", "norm", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["norm2"] == 1.0

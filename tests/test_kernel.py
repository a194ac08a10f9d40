"""Kernel family, Gram systems, interpolation, and the power function."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from isorkhs import funcspace, kernel, serialization
from isorkhs.errors import DomainError, InputError, SingularSystemError
from isorkhs.rng import SplitMix64

HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi


def test_kernel_eval_examples():
    assert kernel.kernel_eval(0.3, 0.3) == 2.0
    assert math.isclose(kernel.kernel_eval(-QUARTER_PI, QUARTER_PI), 2.0 - HALF_PI, rel_tol=1e-15)
    assert math.isclose(kernel.kernel_eval(0.0, HALF_PI, theta=1.0), 1.0 - HALF_PI, rel_tol=1e-15)


def test_kernel_symmetry_and_broadcast():
    xs = np.linspace(-HALF_PI, HALF_PI, 9)
    mat = kernel.kernel_eval(xs[:, None], xs[None, :])
    assert mat.shape == (9, 9)
    np.testing.assert_allclose(mat, mat.T, atol=0.0)


def test_theta_domain():
    with pytest.raises(DomainError):
        kernel.kernel_eval(0.0, 0.0, theta=0.5)
    with pytest.raises(InputError):
        kernel.IsoKernel(math.inf)
    with pytest.raises(DomainError):
        kernel.kernel_function(2.0, 2.0)


def test_section_matches_eval():
    k = kernel.kernel_function(2.0, 0.7)
    grid = np.linspace(-HALF_PI, HALF_PI, 33)
    np.testing.assert_allclose(k.value(grid), kernel.kernel_eval(grid, 0.7), atol=1e-15)
    assert kernel.IsoKernel(2.0).section(0.7).expansion == k.expansion


def test_reproducing_members():
    members = [
        funcspace.constant(1.0),
        funcspace.trig_poly([0.0, 1.0]),
        funcspace.diangle(0.4),
        kernel.kernel_function(2.0, -0.2),
        funcspace.diangle_span(0.5, [(-1.0, 0.7), (0.3, -0.2), (1.2, 1.0)]),
    ]
    ys = np.linspace(-HALF_PI, HALF_PI, 21)
    for f in members:
        worst = max(abs(kernel.reproducing_residual(f, float(y), method="exact")) for y in ys)
        assert worst <= 1e-10


def test_off_reproducing_residual_is_mean_scaled():
    # sections at parameter theta differ from the reproducing one by
    # (theta - 2) times the constant, so the residual is (theta - 2) * mean(f)
    f = funcspace.trig_poly([0.0, 1.0])
    for theta in (1.0, 1.5, 3.0):
        r = kernel.reproducing_residual(f, 0.3, theta=theta, method="exact")
        assert abs(r - (theta - 2.0) * (2.0 / math.pi)) <= 1e-12


def test_classical_kernel_eval():
    assert math.isclose(kernel.classical_kernel_eval(0.0, 1.0, 0.0, 1.0), 1.0 / math.sinh(1.0), rel_tol=1e-15)
    grid = np.linspace(0.0, 1.0, 9)
    mat = kernel.classical_kernel_eval(0.0, 1.0, grid[:, None], grid[None, :])
    np.testing.assert_allclose(mat, mat.T, atol=0.0)
    with pytest.raises(DomainError):
        kernel.classical_kernel_eval(0.0, 1.0, -0.5, 0.5)
    with pytest.raises(InputError):
        kernel.classical_kernel_eval(1.0, 0.0, 0.5, 0.5)


@pytest.mark.parametrize("y", [0.0, 0.25, 0.8, 1.0])
def test_classical_reproduction(y):
    members = [
        (np.cos, lambda x: -np.sin(x)),
        (lambda x: np.asarray(x, dtype=float) ** 2, lambda x: 2.0 * np.asarray(x, dtype=float)),
    ]
    for f in members:
        assert abs(kernel.classical_reproducing_residual(f, y, 0.0, 1.0)) <= 1e-9


def test_gram_examples():
    g = kernel.gram_system([-QUARTER_PI, QUARTER_PI])
    expected = np.array([[2.0, 2.0 - HALF_PI], [2.0 - HALF_PI, 2.0]])
    np.testing.assert_allclose(g.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(g.eigenvalues, [HALF_PI, 4.0 - HALF_PI], atol=1e-14)
    assert g.chol_ok
    assert math.isclose(g.cond_estimate, (4.0 - HALF_PI) / HALF_PI, rel_tol=1e-13)

    single = kernel.gram_system([0.1], theta=5.0)
    np.testing.assert_allclose(single.matrix, [[5.0]], atol=0.0)

    # antipodal endpoints at theta = 1: the all-ones matrix, spectrum {0, 2}
    flat = kernel.gram_system([-HALF_PI, HALF_PI], theta=1.0)
    np.testing.assert_allclose(flat.matrix, np.ones((2, 2)), atol=1e-15)
    np.testing.assert_allclose(flat.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_gram_validation():
    with pytest.raises(InputError):
        kernel.gram_system([0.0, 0.0])
    with pytest.raises(InputError):
        kernel.gram_system([0.0, 3.0])
    with pytest.raises(DomainError):
        kernel.gram_system([0.0], theta=0.0)
    with pytest.raises(InputError):
        kernel.gram_system([0.0], ridge=-1.0)
    # separation is measured on the circle: 3.3e-16 apart through pi/2, these
    # are one point, while the exact pair -pi/2, pi/2 is one merged point
    with pytest.raises(InputError, match="distinct"):
        kernel.gram_system([-1.5707963267948963, HALF_PI])
    with pytest.raises(InputError, match="distinct"):
        kernel.gram_system([-HALF_PI, 0.2, HALF_PI - 1e-13])
    assert kernel.gram_system([-HALF_PI, HALF_PI]).chol_ok
    assert kernel.gram_system([-HALF_PI - 5e-13, 0.2, HALF_PI]).chol_ok


def test_gram_psd_randomized():
    rng = SplitMix64(2)
    thetas = (1.0, 1.5, 2.0, 5.0)
    for i in range(40):
        n = 2 + rng.below(15)
        nodes = sorted(set(round(rng.uniform(-HALF_PI, HALF_PI), 6) for _ in range(n)))
        g = kernel.gram_system(nodes, theta=thetas[i % 4])
        assert g.min_eig >= -1e-9 * max(1.0, g.max_eig)


def test_interpolate_single_node():
    itp = kernel.interpolate([0.0], [3.0])
    assert math.isclose(itp.coeffs[0], 1.5, rel_tol=1e-12)
    assert math.isclose(itp.value(0.0), 3.0, rel_tol=1e-12)
    assert "fallback" not in serialization.write_interpolant(itp)


def test_interpolate_pair():
    itp = kernel.interpolate([-QUARTER_PI, QUARTER_PI], [1.0, 1.0])
    c = 1.0 / (4.0 - HALF_PI)
    for got in itp.coeffs:
        assert math.isclose(got, c, rel_tol=1e-12)
    nodes = np.asarray(itp.nodes)
    np.testing.assert_allclose(itp.value(nodes), [1.0, 1.0], atol=1e-12)


def test_interpolant_to_function_reproduces_values():
    nodes = [-1.1, -0.2, 0.4, 1.3]
    values = [0.5, -1.0, 2.0, 0.1]
    itp = kernel.interpolate(nodes, values)
    f = itp.to_function()
    np.testing.assert_allclose(f.value(np.asarray(nodes)), values, atol=1e-9)
    # the span and the kernel-column evaluation are the same function
    grid = np.linspace(-HALF_PI, HALF_PI, 17)
    np.testing.assert_allclose(f.value(grid), itp.value(grid), atol=1e-12)


def test_interpolating_a_section_recovers_it():
    # data sampled from K(., 0.3) is interpolated by K(., 0.3) itself,
    # which is also the norm-minimal solution
    nodes = [-0.5, 0.3, 0.9]
    target = kernel.kernel_function(2.0, 0.3)
    itp = kernel.interpolate(nodes, [float(target.value(y)) for y in nodes])
    np.testing.assert_allclose(itp.coeffs, [0.0, 1.0, 0.0], atol=1e-12)
    s = itp.to_function()
    assert funcspace.norm_iso(s, method="exact") <= funcspace.norm_iso(target, method="exact") + 1e-8


def test_interpolate_with_ridge_biases_toward_zero():
    nodes = [-0.8, 0.0, 0.8]
    values = [1.0, 1.0, 1.0]
    plain = kernel.interpolate(nodes, values)
    ridged = kernel.interpolate(nodes, values, ridge=0.5)
    assert ridged.ridge == 0.5
    assert sum(abs(c) for c in ridged.coeffs) < sum(abs(c) for c in plain.coeffs)


def test_interpolate_validation():
    with pytest.raises(InputError):
        kernel.interpolate([0.0, 0.5], [1.0])
    with pytest.raises(InputError):
        kernel.interpolate([0.0], [math.nan])


def test_interpolate_too_clustered_raises_singular_system():
    # three nodes 1.1e-12 apart: even the correctly rounded coefficients miss
    # the 1e-8 node residual, so the data are valid and the solve is what fails
    nodes = [0.3, 0.3000000000011, 0.3000000000022]
    with pytest.raises(SingularSystemError, match="residual .* positive ridge"):
        kernel.interpolate(nodes, [1.0, 1.1, 1.2])
    assert kernel.interpolate(nodes, [1.0, 1.1, 1.2], ridge=1e-6).ridge == 1e-6


def test_interpolate_endpoints_are_one_point():
    # members take equal values at -pi/2 and pi/2, so data there must agree
    with pytest.raises(InputError, match="one point"):
        kernel.interpolate([-HALF_PI, HALF_PI], [1.0, 2.0])
    with pytest.raises(InputError, match="one point"):
        kernel.interpolate([-HALF_PI, 0.2, HALF_PI], [1.0, 0.0, 1.0 + 1e-9])
    itp = kernel.interpolate([-HALF_PI, 0.2, HALF_PI], [1.0, 0.0, 1.0 + 1e-13])
    np.testing.assert_allclose(itp.value(np.asarray(itp.nodes)), [1.0, 0.0, 1.0], atol=2e-8)
    # nodes 3.3e-16 apart through pi/2 are rejected as one point, not solved
    with pytest.raises(InputError, match="distinct"):
        kernel.interpolate([-1.5707963267948963, 0.2, HALF_PI], [1.0, 0.5, 2.0])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double")
def test_clustered_triples_interpolate():
    # 1600 nodes in triples 1e-6 apart: the coefficients cancel to about 1e9 in
    # sum, and the prefix-sum residual stays within guarantee 11; the true
    # residual of the returned coefficients is read with long-double sums
    rng = np.random.default_rng(11)
    centres = -1.5 + (np.arange(534) + rng.uniform(0.1, 0.9, 534)) * (3.0 / 534)
    nodes = (centres[:, None] + 1e-6 * np.arange(3)).ravel()[:1600]
    values = rng.uniform(-2.0, 2.0, nodes.size)
    itp = kernel.interpolate(nodes.tolist(), values.tolist())
    x, c = nodes.astype(np.longdouble), np.asarray(itp.coeffs, dtype=np.longdouble)
    half_pi = np.longdouble(math.pi) / 2
    residual = max(
        float(np.max(np.abs((2 - half_pi * np.sin(np.abs(x[i : i + 400, None] - x))) @ c - values[i : i + 400])))
        for i in range(0, x.size, 400)
    )
    assert residual <= 1e-8 * (1.0 + np.max(np.abs(values)))


def test_interpolate_empty():
    itp = kernel.interpolate([], [])
    assert itp.nodes == ()
    assert itp.coeffs == ()


def test_power_function_empty_nodes():
    g = kernel.gram_system([])
    assert kernel.power_function(g, 0.3) == math.sqrt(2.0)
    out = kernel.power_function(g, np.asarray([0.0, 1.0]))
    np.testing.assert_allclose(out, math.sqrt(2.0), atol=0.0)


def test_power_function_single_node():
    g = kernel.gram_system([0.0])
    # sqrt(theta - K(x,0)^2 / theta) at the far endpoint
    expected = math.sqrt(2.0 - (2.0 - HALF_PI) ** 2 / 2.0)
    assert math.isclose(kernel.power_function(g, HALF_PI), expected, rel_tol=1e-13)
    assert math.isclose(kernel.power_function(g, HALF_PI), 1.3812646753803643, rel_tol=1e-12)
    assert kernel.power_function(g, 0.0) <= 1e-7


def test_power_function_vanishes_at_nodes():
    nodes = [-1.2, -0.3, 0.1, 0.9]
    g = kernel.gram_system(nodes)
    np.testing.assert_allclose(kernel.power_function(g, np.asarray(nodes)), 0.0, atol=1e-7)


def test_power_function_monotone_under_refinement():
    grid = np.linspace(-HALF_PI, HALF_PI, 101)
    small = kernel.gram_system([-0.7, 0.2])
    big = kernel.gram_system([-0.7, 0.2, 0.8])
    p_small = kernel.power_function(small, grid)
    p_big = kernel.power_function(big, grid)
    assert np.all(p_big <= p_small + 1e-9)
    assert np.all(p_small >= 0.0)


def test_power_function_domain():
    g = kernel.gram_system([0.0])
    with pytest.raises(DomainError):
        kernel.power_function(g, 2.0)


# ---------------------------------------------------------------------------
# the NumPy Gram path against independent dense algebra


def _dense_kernel(theta, x, y):
    return theta - HALF_PI * np.sin(np.abs(np.subtract.outer(x, y)))


@st.composite
def _gram_cases(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 129, 300]), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # triples 1e-6 apart around jittered centres (cond about 2.5e8 at n = 200)
        cells = -(-n // 3)
        centres = -1.5 + (np.arange(cells) + rng.uniform(0.1, 0.9, cells)) * (3.0 / cells)
        nodes = (centres[:, None] + 1e-6 * np.arange(3)).ravel()[:n]
    else:
        nodes = np.sort(rng.uniform(-HALF_PI, HALF_PI, n))
    theta = draw(st.sampled_from([1.0, 1.5, 2.0, 5.0]))
    ridge = draw(st.sampled_from([0.0, 1e-3]))
    return kernel.gram_system(nodes.tolist(), theta=theta, ridge=ridge), rng.standard_normal(n)


@seed(20217)
@settings(max_examples=40, deadline=None)
@given(case=_gram_cases())
def test_gram_path_matches_dense_algebra(case):
    g, b = case
    assert np.array_equal(g.matrix, _dense_kernel(g.theta, g.node_array, g.node_array))
    a = g.matrix + g.ridge * np.eye(g.size)
    assert g.chol_ok
    x, ref = g.solve(b), np.linalg.solve(a, b)
    # normwise backward errors; a Cholesky solve keeps them at a few n u
    scale = np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(a @ x - b) <= 1e-13 * scale
    assert np.linalg.norm(a @ (x - ref)) <= 1e-13 * scale

    pts = np.linspace(-HALF_PI, HALF_PI, 41)
    cols = _dense_kernel(g.theta, pts, g.node_array)
    p2_ref = np.maximum(0.0, g.theta - np.einsum("ij,ji->i", cols, np.linalg.solve(a, cols.T)))
    assert np.max(np.abs(kernel.power_function(g, pts) ** 2 - p2_ref)) <= 1e-10 * g.theta
    if g.ridge == 0.0:
        assert g.min_eig >= -1e-9 * max(1.0, g.max_eig)


def test_gram_solves_without_factors_and_reads_the_spectrum_lazily(monkeypatch):
    calls = {"cholesky": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    nodes = [-1.1, -0.2, 0.4, 1.3]
    for ridge in (0.0, 1e-3):
        g = kernel.gram_system(nodes, ridge=ridge)
        g.solve(np.ones(4))
        kernel.power_function(g, np.linspace(-HALF_PI, HALF_PI, 9))
        kernel.interpolate(nodes, [0.5, -1.0, 2.0, 0.1], ridge=ridge)
        assert g.chol_ok and "matrix" not in g.__dict__
    assert calls == {"cholesky": 0, "eigvalsh": 0}
    assert g.min_eig > 0.0 and g.cond_estimate > 1.0 and g.max_eig > 0.0
    assert calls == {"cholesky": 0, "eigvalsh": 1}


def test_failed_certificate_defers_to_the_spectrum(monkeypatch):
    # no admissible node set fails the gap certificate in double precision,
    # so zero half-gap tangents stand in for one
    monkeypatch.setattr(kernel, "_half_tan", lambda d, wrapped: np.zeros_like(d))
    g = kernel.gram_system([-1.1, -0.2, 0.4, 1.3])
    assert not g.chol_ok
    with pytest.raises(SingularSystemError, match="certify"):
        g.solve(np.ones(4))
    with pytest.raises(SingularSystemError, match="certify"):
        kernel.power_function(g, 0.0)
    assert g.min_eig > 0.0


def _dense_power_squared(theta, nodes, pts, ridge=0.0):
    nodes = np.asarray(nodes, dtype=float)
    cols = _dense_kernel(theta, pts, nodes)
    a = _dense_kernel(theta, nodes, nodes) + ridge * np.eye(nodes.size)
    return np.maximum(0.0, theta - np.einsum("ij,ji->i", cols, np.linalg.solve(a, cols.T)))


@pytest.mark.parametrize("theta", [1.0, 1.5, 2.0, 5.0])
def test_closed_form_power_matches_dense(theta):
    rng = np.random.default_rng(7)
    grid = np.linspace(-HALF_PI, HALF_PI, 41)
    plain = np.sort(rng.uniform(-1.5, 1.5, 9))
    triples = (np.array([-1.2, -0.1, 0.8])[:, None] + 1e-6 * np.arange(3)).ravel()
    cases = [
        (plain, plain),
        ([0.4], [0.4]),
        ([-0.3, -0.3 + 1e-6], [-0.3, -0.3 + 1e-6]),  # one gap is nearly pi
        (triples, triples),
        # -pi/2 and pi/2 are one point, so the dense reference keeps one of them
        ([-HALF_PI, -0.5, 0.7, HALF_PI], [-HALF_PI, -0.5, 0.7]),
        ([HALF_PI, 0.2], [HALF_PI, 0.2]),
    ]
    for nodes, distinct in cases:
        near = np.concatenate([np.asarray(nodes) + d for d in (1e-15, -1e-12, 1e-9)])
        pts = np.concatenate((grid, np.clip(near, -HALF_PI, HALF_PI)))
        got = kernel.power_function(kernel.gram_system(list(nodes), theta=theta), pts) ** 2
        gap = np.max(np.abs(got - _dense_power_squared(theta, distinct, pts)))
        assert gap <= 1e-10 * theta, (nodes, gap)
        assert np.all(kernel.power_function(kernel.gram_system(list(nodes), theta=theta), np.asarray(nodes)) == 0.0)


def test_structured_solve_edge_cases_match_dense():
    ends = [-HALF_PI, 0.3, HALF_PI]
    # the two endpoint sections are one function: their coefficients split evenly
    itp = kernel.interpolate([-HALF_PI, HALF_PI], [1.0, 1.0])
    assert itp.coeffs == (0.25, 0.25)
    itp = kernel.interpolate(ends, [1.0, -0.5, 1.0])
    assert itp.coeffs[0] == itp.coeffs[2]
    np.testing.assert_allclose(itp.value(np.asarray(ends)), [1.0, -0.5, 1.0], atol=1e-12)
    # with a ridge the endpoint rows are independent and the dense system is definite
    rng = np.random.default_rng(3)
    for nodes in (ends, [-HALF_PI, HALF_PI], [0.2], [-0.3, -0.3 + 1e-6], [-1.0, 0.1, 0.1 + 1e-6, 1.4]):
        for theta, ridge in ((1.0, 1e-3), (2.0, 0.5), (5.0, 1e-6)):
            g = kernel.gram_system(nodes, theta=theta, ridge=ridge)
            b = rng.standard_normal((len(nodes), 2))
            a = _dense_kernel(theta, np.asarray(nodes), np.asarray(nodes)) + ridge * np.eye(len(nodes))
            x = g.solve(b)
            scale = np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b)
            assert np.linalg.norm(a @ x - b) <= 1e-13 * scale, (nodes, theta, ridge)
            pts = np.linspace(-HALF_PI, HALF_PI, 13)
            gap = np.max(np.abs(kernel.power_function(g, pts) ** 2 - _dense_power_squared(theta, nodes, pts, ridge)))
            assert gap <= 1e-10 * theta


def test_gram_scales_to_many_nodes():
    rng = np.random.default_rng(5)
    n = 100_000
    nodes = -HALF_PI + (np.arange(n) + rng.uniform(0.1, 0.9, n)) * (math.pi / n)
    pts = np.linspace(-HALF_PI, HALF_PI, 101)
    start = time.perf_counter()
    g = kernel.gram_system(nodes.tolist())
    p = kernel.power_function(g, pts)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0 and "matrix" not in g.__dict__
    # far from every node the power function is of the size of one gap
    assert np.all(p >= 0.0) and np.max(p) <= math.sqrt(2.0 * math.pi / n)
    # interpolation, its guarantee-11 node residual and 1001 values, with no n x n array
    values = np.cos(3.0 * nodes) + rng.uniform(-0.1, 0.1, n)
    grid = np.linspace(-HALF_PI, HALF_PI, 1001)
    start = time.perf_counter()
    itp = kernel.interpolate(nodes.tolist(), values.tolist())
    fitted = itp.value(grid)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert np.max(np.abs(fitted - np.cos(3.0 * grid))) <= 0.2


def test_gram_commands_never_load_scipy(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"nodes": [-0.5, 0.1, 0.9], "values": [1.0, 0.0, 2.0]}))
    script = f"""
import contextlib, io, sys
from isorkhs import cli
path = {str(path)!r}
for argv in (["gram", "--input", path], ["interp", "--input", path],
             ["power", "--input", path, "--at", "0,0.7"],
             ["verify", "--suite", "gram-psd"], ["verify", "--suite", "classical-kernel"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

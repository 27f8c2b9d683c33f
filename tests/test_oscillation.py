import math

import numpy as np
import pytest

from minkbill.errors import (
    DimensionMismatch,
    FieldError,
    InputError,
    StallError,
)
from minkbill.geometry import (
    Ball,
    Gauge,
    VPolytope,
    diff_gauge,
    euclidean_gauge,
    min_homothet_cover,
)
from minkbill.oscillation import (
    EmbeddedGraph,
    PolynomialField,
    field_from_dict,
    flow_trace,
    graph_cover_check,
    merge_cover,
    min_dual_grad,
    oscillation,
    verify_oscillation_bound,
)

X1 = PolynomialField({(1, 0): 1.0})
HALF_SQ = PolynomialField({(2, 0): 0.5, (0, 2): 0.5})


# --- polynomial fields ---------------------------------------------------------

def test_field_eval_and_grad_by_hand():
    # F = 2x + 3xy^2
    F = PolynomialField({(1, 0): 2.0, (1, 2): 3.0})
    p = np.array([0.7, -1.3])
    assert F.eval(p) == pytest.approx(2 * 0.7 + 3 * 0.7 * 1.69)
    np.testing.assert_allclose(F.grad(p), [2 + 3 * 1.69, 3 * 0.7 * 2 * (-1.3)], atol=1e-12)
    np.testing.assert_allclose(F.hess(p), [[0.0, 6 * (-1.3)], [6 * (-1.3), 6 * 0.7]],
                               atol=1e-12)


def test_field_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1)]
    F = PolynomialField({e: c for e, c in zip(exps, rng.normal(size=len(exps)))})
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        num = [(F.eval(x + h * e) - F.eval(x - h * e)) / (2 * h)
               for e in np.eye(2)]
        np.testing.assert_allclose(F.grad(x), num, rtol=1e-6, atol=1e-6)


def test_field_vectorized_paths():
    F = PolynomialField({(2, 1): 1.5, (0, 3): -0.5})
    X = np.random.default_rng(8).normal(size=(32, 2))
    np.testing.assert_allclose(F.eval_many(X), [F.eval(x) for x in X], atol=1e-12)
    np.testing.assert_allclose(F.grad_many(X), [F.grad(x) for x in X], atol=1e-12)


def test_field_serialization_round_trip():
    F = PolynomialField({(1, 0): 2.0, (0, 2): -1.25})
    F2 = field_from_dict(F.to_dict())
    x = np.array([0.3, -2.0])
    assert F2.eval(x) == pytest.approx(F.eval(x))
    assert F2.dim == 2


def test_field_rejects_bad_input():
    with pytest.raises(FieldError):
        PolynomialField({})
    with pytest.raises(FieldError):
        PolynomialField({(-1, 0): 1.0})
    with pytest.raises(FieldError):
        PolynomialField({(1, 0): 1.0, (1, 0, 0): 1.0})
    with pytest.raises(InputError):
        field_from_dict({"poly": {"what": 1.0}})
    with pytest.raises(InputError):
        field_from_dict({"nope": {}})


# --- extrema ---------------------------------------------------------------------

def test_oscillation_linear_on_disk(disk):
    assert oscillation(X1, disk, 2048) == pytest.approx(2.0, abs=1e-9)


def test_oscillation_linear_on_triangle(triangle):
    assert oscillation(X1, triangle, 2048) == pytest.approx(1.0, abs=1e-9)


def test_oscillation_quadratic_on_disk(disk):
    assert oscillation(HALF_SQ, disk, 2048) == pytest.approx(0.5, abs=1e-6)


def test_min_dual_grad_constant_gradient(disk):
    F = PolynomialField({(1, 0): 2.0})
    assert min_dual_grad(F, disk, Gauge(disk), 1024) == pytest.approx(2.0, abs=1e-9)


def test_min_dual_grad_triangle_support(triangle):
    g = diff_gauge(triangle)
    hexagon = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0],
                        [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]])
    assert float((hexagon @ np.array([1.0, 0.0])).max()) == 1.0
    assert min_dual_grad(X1, triangle, g, 1024) == pytest.approx(1.0, abs=1e-9)


def test_min_dual_grad_vanishes_at_interior_critical_point(disk):
    assert min_dual_grad(HALF_SQ, disk, Gauge(disk), 1024) == pytest.approx(0.0, abs=1e-6)


# --- ascent traces ------------------------------------------------------------------

def test_flow_linear_euclidean():
    trace = flow_trace(X1, euclidean_gauge(2), np.zeros(2), 1.0, 0.01)
    np.testing.assert_allclose(trace[-1], [1.0, 0.0], atol=0.011)
    assert len(trace) == 101


def test_flow_square_gauge_rate(sym_square):
    F = PolynomialField({(1, 0): 1.0, (0, 1): 1.0})
    trace = flow_trace(F, Gauge(sym_square), np.zeros(2), 1.0, 0.01)
    np.testing.assert_allclose(trace[-1], [1.0, 1.0], atol=1e-9)
    rate = (F.eval(trace[-1]) - F.eval(trace[0])) / 1.0
    assert rate == pytest.approx(2.0, abs=1e-9)  # dual l1 value of (1,1)


def test_flow_monotone_random_quadratic():
    rng = np.random.default_rng(15)
    A = rng.normal(size=(2, 2))
    A = A @ A.T + 0.5 * np.eye(2)
    F = PolynomialField({(2, 0): A[0, 0], (1, 1): 2 * A[0, 1], (0, 2): A[1, 1]})
    trace = flow_trace(F, euclidean_gauge(2), np.array([0.4, -0.3]), 2.0, 0.005)
    vals = F.eval_many(trace)
    assert (np.diff(vals) >= -0.005 * 1e-3).all()


def test_flow_rate_identity():
    g = euclidean_gauge(2)
    F = PolynomialField({(1, 0): 1.0, (0, 2): 0.5})
    dt = 1e-3
    trace = flow_trace(F, g, np.array([0.2, 0.1]), 0.2, dt)
    for k in range(0, len(trace) - 1, 37):
        lhs = (F.eval(trace[k + 1]) - F.eval(trace[k])) / dt
        rhs = g.dual(F.grad(trace[k]))
        assert lhs == pytest.approx(rhs, abs=50 * dt)


def test_flow_stalls_at_critical_point():
    with pytest.raises(StallError):
        flow_trace(HALF_SQ, euclidean_gauge(2), np.zeros(2), 1.0, 0.01)


def test_flow_rejects_bad_steps():
    with pytest.raises(InputError):
        flow_trace(X1, euclidean_gauge(2), np.zeros(2), 1.0, -0.01)
    with pytest.raises(DimensionMismatch):
        flow_trace(X1, euclidean_gauge(2), np.zeros(3), 1.0, 0.01)


# --- the inequalities ------------------------------------------------------------------

def test_bound_linear_on_ball_is_tight(disk):
    F = PolynomialField({(1, 0): 0.8, (0, 1): -0.6})
    lhs, rhs, ok = verify_oscillation_bound(F, disk, "ball2x", samples=1024)
    assert ok
    assert lhs == pytest.approx(2.0, abs=1e-6)
    assert rhs == pytest.approx(2.0, abs=1e-6)


def test_bound_linear_on_triangle_diff_is_tight(triangle):
    lhs, rhs, ok = verify_oscillation_bound(X1, triangle, "diff1x", samples=1024)
    assert ok
    assert lhs == pytest.approx(1.0, abs=1e-6)
    assert rhs == pytest.approx(1.0, abs=1e-6)


def test_bound_billiard_variant_random_cubics(triangle):
    rng = np.random.default_rng(16)
    exps = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    for _ in range(25):
        F = PolynomialField({e: c for e, c in zip(exps, rng.normal(size=len(exps)))},
                            check=False)
        lhs, rhs, ok = verify_oscillation_bound(F, triangle, "billiard",
                                                samples=512, xi=1.5)
        assert ok, (lhs, rhs)


def test_bound_chaining(triangle):
    # with the same gauge, the diff variant bound dominates the billiard one
    # whenever the trajectory length stays below 2
    rng = np.random.default_rng(17)
    F = PolynomialField({(1, 0): 0.4, (0, 1): rng.uniform(0.2, 0.8), (1, 1): 0.3},
                        check=False)
    _, rhs_diff, _ = verify_oscillation_bound(F, triangle, "diff1x", samples=512)
    _, rhs_bill, _ = verify_oscillation_bound(F, triangle, "billiard",
                                              samples=512, xi=1.5)
    assert rhs_diff >= rhs_bill - 1e-9


def test_bound_ball2x_requires_symmetric_ball():
    K = VPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(InputError):
        verify_oscillation_bound(X1, K, "ball2x", samples=256)


def test_bound_rejects_mismatched_gauge(triangle, disk):
    with pytest.raises(InputError):
        verify_oscillation_bound(X1, disk, "ball2x", g=Gauge(Ball(np.zeros(2), 2.0)),
                                 samples=256)
    with pytest.raises(InputError):
        verify_oscillation_bound(X1, triangle, "diff1x", g=euclidean_gauge(2), samples=256)
    with pytest.raises(InputError):
        verify_oscillation_bound(X1, triangle, "nope", samples=256)


# --- connected graphs ---------------------------------------------------------------------

def test_graph_single_segment_exact(triangle):
    G = EmbeddedGraph(np.array([[0.0, 0.0], [0.3, 0.1]]), [(0, 1)])
    h, lam, ok = graph_cover_check(G, triangle)
    assert ok
    assert lam == pytest.approx(h, abs=1e-9)
    assert h == pytest.approx(diff_gauge(triangle).value(np.array([0.3, 0.1])))


def test_graph_y_shape(triangle):
    G = EmbeddedGraph(np.array([[0.0, 0.0], [0.2, 0.0], [-0.2, 0.0], [0.0, 0.2]]),
                      [(0, 1), (0, 2), (0, 3)])
    h, lam, ok = graph_cover_check(G, triangle)
    assert h == pytest.approx(0.6, abs=1e-12)
    assert lam <= 0.6 + 1e-9
    assert ok


def test_graph_path(triangle):
    G = EmbeddedGraph(np.array([[0.0, 0.0], [0.3, 0.0], [0.7, 0.0]]),
                      [(0, 1), (1, 2)])
    h, lam, ok = graph_cover_check(G, triangle)
    assert h == pytest.approx(0.7, abs=1e-12)
    assert lam <= 0.7 + 1e-9
    assert ok


def test_graph_long_edges_fit_the_nodes_alone(triangle):
    # edges far longer than the body: the covering homothet of the nodes
    # also covers every edge, so the nodes alone give lambda
    nodes = np.array([[0.0, 0.0], [9.0, 1.0], [-4.0, 7.0], [3.0, -6.0]])
    G = EmbeddedGraph(nodes, [(0, 1), (1, 2), (0, 3)])
    h, lam, ok = graph_cover_check(G, triangle)
    assert lam == pytest.approx(min_homothet_cover(triangle, nodes).lam, abs=1e-12)
    t = np.linspace(0.0, 1.0, 101)[:, None]
    dense = np.vstack([nodes[i] + t * (nodes[j] - nodes[i]) for i, j in G.edges])
    assert lam == pytest.approx(min_homothet_cover(triangle, dense).lam, abs=1e-9)
    assert ok and lam <= h


def test_graph_merge_certificate(triangle):
    G = EmbeddedGraph(np.array([[0.0, 0.0], [0.2, 0.0], [-0.2, 0.0], [0.0, 0.2]]),
                      [(0, 1), (0, 2), (0, 3)])
    h, _, _ = graph_cover_check(G, triangle)
    delta, t = merge_cover(G, triangle)
    assert delta == pytest.approx(h, abs=1e-9)
    cover = triangle.scale(delta).translate(t)
    for p in G.nodes:
        assert cover.contains(p, tol=1e-7)


def test_graph_rejects_bad_input():
    with pytest.raises(InputError):
        EmbeddedGraph(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), [(0, 1)])
    with pytest.raises(InputError):
        EmbeddedGraph(np.array([[0.0, 0.0], [0.0, 0.0]]), [(0, 1)])
    with pytest.raises(InputError):
        EmbeddedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]), [])
    with pytest.raises(InputError):
        EmbeddedGraph(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 5)])


def test_graph_dimension_mismatch(simplex3):
    G = EmbeddedGraph(np.array([[0.0, 0.0], [0.3, 0.1]]), [(0, 1)])
    with pytest.raises(DimensionMismatch):
        graph_cover_check(G, simplex3)

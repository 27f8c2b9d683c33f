import math
import time

import numpy as np
import pytest

from minkbill.errors import BodyError, GaugeError, InputError
from minkbill.geometry import (
    Ball,
    Gauge,
    HomothetLambda,
    HPolytope,
    VPolytope,
    body_from_dict,
    body_to_dict,
    body_gauge,
    diff_gauge,
    difference_body,
    euclidean_gauge,
    is_noncoverable,
    min_homothet_cover,
    polar,
    polygonize,
    smallest_enclosing_ball,
    volume,
)

HEX_DIFF = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0],
                     [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]])
HEX_POLAR = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0]])


def ray_gauge_oracle(vertices, x):
    """Gauge value by shooting the ray s*x against the polygon edges."""
    V = np.asarray(vertices, float)
    x = np.asarray(x, float)
    best = 0.0
    for i in range(len(V)):
        a, b = V[i], V[(i + 1) % len(V)]
        M = np.column_stack([x, a - b])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        s, u = np.linalg.solve(M, a)
        if -1e-9 <= u <= 1 + 1e-9 and s > 1e-12:
            best = max(best, s)
    return 1.0 / best


def shoelace(V):
    x, y = V[:, 0], V[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def same_body(K, vertices, trials=200):
    """Support functions agree in many random directions."""
    rng = np.random.default_rng(11)
    V = np.asarray(vertices, float)
    for _ in range(trials):
        y = rng.normal(size=V.shape[1])
        if abs(K.support(y) - float((V @ y).max())) > 1e-9:
            return False
    return True


# --- support --------------------------------------------------------------

def test_support_square(sym_square):
    assert sym_square.support(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert sym_square.support(np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_support_triangle(triangle):
    assert triangle.support(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_support_sublinear():
    rng = np.random.default_rng(0)
    K = VPolytope(rng.normal(size=(7, 2)))
    for _ in range(100):
        y1, y2 = rng.normal(size=2), rng.normal(size=2)
        a = rng.uniform(0.1, 5.0)
        assert K.support(y1 + y2) <= K.support(y1) + K.support(y2) + 1e-9
        assert K.support(a * y1) == pytest.approx(a * K.support(y1))


# --- gauge evaluation -------------------------------------------------------

def test_gauge_euclidean():
    g = euclidean_gauge(2)
    assert g.value(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_gauge_square(sym_square):
    assert Gauge(sym_square).value(np.array([2.0, 1.0])) == pytest.approx(2.0)


def test_gauge_asymmetric_matches_ray_oracle():
    V = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    g = Gauge(VPolytope(V))
    assert g.value(np.array([2.0, 0.0])) == pytest.approx(2.0)
    assert g.value(np.array([-2.0, 0.0])) == pytest.approx(4.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(size=2)
        assert g.value(x) == pytest.approx(ray_gauge_oracle(V, x), abs=1e-9)


def test_gauge_vectorized_matches_scalar():
    g = Gauge(VPolytope(np.array([[1.0, 0.2], [-0.4, 1.0], [-1.0, -0.7], [0.8, -1.0]])))
    X = np.random.default_rng(5).normal(size=(64, 2))
    np.testing.assert_allclose(g.values(X), [g.value(x) for x in X], atol=1e-12)


BATCH_GAUGES = [
    Gauge(Ball(np.zeros(2), 1.0)),
    Gauge(Ball(np.zeros(3), 2.5)),
    Gauge(Ball(np.array([0.3, -0.2]), 1.1)),
    Gauge(VPolytope(np.array([[1.0, 0.2], [-0.4, 1.0], [-1.0, -0.7], [0.8, -1.0]]))),
    Gauge(HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                    np.array([1.0, 0.5, 2.0]))),
    Gauge(VPolytope(np.array([[1.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 0.9],
                              [-0.7, -0.6, -0.8]]))),
]


@pytest.mark.parametrize("g", BATCH_GAUGES, ids=lambda g: repr(g.unit_ball))
def test_gauge_batches_match_single_point_forms(g):
    X = np.random.default_rng(11).normal(size=(40, g.dim))
    X[0] = 0.0
    np.testing.assert_allclose(g.values(X), [g.value(x) for x in X], atol=1e-12)
    np.testing.assert_allclose(g.duals(X), [g.dual(x) for x in X], atol=1e-12)
    P = g.support_points(X)
    # each support point lies on the unit ball and attains the dual value
    np.testing.assert_allclose(np.einsum("ij,ij->i", P, X), g.duals(X), atol=1e-12)
    np.testing.assert_allclose(g.values(P[1:]), 1.0, atol=1e-9)
    for x, p in zip(X, P):
        np.testing.assert_allclose(p, g.support_point(x), atol=1e-12)


def test_gauge_batches_accept_a_single_row(sym_square):
    g = Gauge(sym_square)
    y = np.array([1.0, -2.0])
    assert g.duals(y).shape == (1,)
    assert g.duals(y)[0] == pytest.approx(g.dual(y))
    np.testing.assert_allclose(g.support_points(y)[0], g.support_point(y))


def test_gauge_requires_origin_interior():
    with pytest.raises(GaugeError):
        Gauge(VPolytope(np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])))
    with pytest.raises(GaugeError):
        Gauge(Ball(np.array([2.0, 0.0]), 1.0))


# --- dual gauge -------------------------------------------------------------

def test_dual_disk_self_dual(disk):
    assert Gauge(disk).dual(np.array([0.0, 2.0])) == pytest.approx(2.0)


def test_dual_square_is_l1(sym_square):
    assert Gauge(sym_square).dual(np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_dual_hexagon_vertex_max(triangle):
    g = diff_gauge(triangle)
    y = np.array([1.0, 0.0])
    assert g.dual(y) == pytest.approx(float((HEX_DIFF @ y).max()))
    assert g.dual(y) == pytest.approx(1.0)


def test_bipolar_identity():
    rng = np.random.default_rng(9)
    B = VPolytope(np.array([[1.0, 0.1], [-0.2, 1.1], [-1.0, -0.3], [0.5, -0.9]]))
    g = Gauge(B)
    gp = Gauge(polar(B))
    for _ in range(100):
        x = rng.normal(size=2)
        assert g.value(x) == pytest.approx(gp.dual(x), abs=1e-9)


# --- difference body --------------------------------------------------------

def test_difference_body_triangle_is_hexagon(triangle):
    D = difference_body(triangle)
    V = triangle.vertices
    brute = np.array([p - q for p in V for q in V])
    assert same_body(D, HEX_DIFF)
    assert same_body(D, brute)


def test_difference_body_unit_square(square):
    assert same_body(difference_body(square),
                     np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))


def test_difference_body_ball():
    D = difference_body(Ball(np.array([0.3, -0.2]), 1.5))
    assert isinstance(D, Ball)
    assert np.linalg.norm(D.center) == pytest.approx(0.0)
    assert D.radius == pytest.approx(3.0)


def test_difference_body_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        D = difference_body(VPolytope(rng.normal(size=(6, 2))))
        y = rng.normal(size=2)
        assert D.support(y) == pytest.approx(D.support(-y), abs=1e-9)


# --- polar ------------------------------------------------------------------

def test_polar_square_is_cross(sym_square):
    assert same_body(polar(sym_square), np.array([[1.0, 0.0], [0.0, 1.0],
                                                  [-1.0, 0.0], [0.0, -1.0]]))


def test_polar_ball():
    P = polar(Ball(np.zeros(2), 4.0))
    assert isinstance(P, Ball)
    assert P.radius == pytest.approx(0.25)


def test_polar_hexagon(triangle):
    # facet-to-vertex duality: each facet <u,x> <= b maps to the vertex u/b
    D = difference_body(triangle)
    U, b = D.facet_data()
    assert same_body(polar(D), U / b[:, None])
    assert same_body(polar(D), HEX_POLAR)


def test_polar_involution():
    rng = np.random.default_rng(4)
    for _ in range(10):
        K = VPolytope(rng.normal(size=(7, 2)) + np.array([0.1, -0.1]))
        if not K.contains(np.zeros(2)):
            continue
        KK = polar(polar(K))
        y = rng.normal(size=2)
        assert KK.support(y) == pytest.approx(K.support(y), abs=1e-9)


def test_polar_requires_origin_interior(triangle):
    with pytest.raises(GaugeError):
        polar(triangle.translate(np.array([5.0, 5.0])))


# --- covering homothets ------------------------------------------------------

def grid_homothet_oracle(U, b, S, lo=-0.6, hi=0.6, steps=61):
    """Smallest covering ratio by brute force over a translation grid."""
    best = math.inf
    for t1 in np.linspace(lo, hi, steps):
        for t2 in np.linspace(lo, hi, steps):
            vals = (S - np.array([t1, t2])) @ U.T
            lam_t, feasible = 0.0, True
            for j in range(len(b)):
                col = vals[:, j].max()
                if b[j] <= 1e-12:
                    if col > 1e-9:
                        feasible = False
                        break
                else:
                    lam_t = max(lam_t, col / b[j])
            if feasible:
                best = min(best, lam_t)
    return best


def test_homothet_two_point_identity(triangle):
    fit = min_homothet_cover(triangle, np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert fit.lam == pytest.approx(0.5, abs=1e-9)


def test_homothet_single_point(triangle):
    assert min_homothet_cover(triangle, np.array([[0.3, 0.2]])).lam == pytest.approx(0.0, abs=1e-9)


def test_homothet_midpoint_set_matches_grid_oracle(triangle):
    # the midpoint triangle is an inverted half-size copy; covering it by a
    # positive homothet of the triangle still needs the full ratio 1
    mid = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    U = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    oracle = grid_homothet_oracle(U, b, mid)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    assert min_homothet_cover(triangle, mid).lam == pytest.approx(oracle, abs=1e-9)


def test_homothet_pairwise_identity_random(triangle):
    g = diff_gauge(triangle)
    rng = np.random.default_rng(12)
    for _ in range(100):
        p, q = rng.uniform(-1, 1, size=(2, 2))
        fit = min_homothet_cover(triangle, np.stack([p, q]))
        assert fit.lam == pytest.approx(g.value(p - q), abs=1e-9)


def test_homothet_translation_invariant(triangle):
    rng = np.random.default_rng(13)
    S = rng.uniform(0, 1, size=(5, 2))
    shift = np.array([3.0, -2.0])
    f1 = min_homothet_cover(triangle, S)
    f2 = min_homothet_cover(triangle, S + shift)
    assert f2.lam == pytest.approx(f1.lam, abs=1e-9)
    np.testing.assert_allclose(f2.translation, f1.translation + shift, atol=1e-7)


def test_homothet_fit_covers(triangle):
    rng = np.random.default_rng(14)
    S = rng.uniform(-1, 2, size=(6, 2))
    fit = min_homothet_cover(triangle, S)
    scaled = triangle.scale(fit.lam).translate(fit.translation)
    for s in S:
        assert scaled.contains(s, tol=1e-7)


def test_is_noncoverable(triangle):
    assert not is_noncoverable(np.array([[0.1, 0.1]]), triangle)
    assert is_noncoverable(triangle.vertices, triangle)
    assert is_noncoverable(1.2 * triangle.vertices, triangle)


def test_homothet_lambda_fast_path(triangle, sym_square):
    for K in (triangle, sym_square):
        fast = HomothetLambda(K)
        rng = np.random.default_rng(21)
        for _ in range(250):
            S = rng.uniform(-1, 1, size=(rng.integers(1, 7), 2))
            assert fast(S) == pytest.approx(min_homothet_cover(K, S).lam, abs=1e-9)


def test_homothet_lambda_refuses_huge_facet_count():
    # C(720, 3) facet triples would need gigabytes of working arrays
    K = polygonize(Ball(np.zeros(2), 1.0), 720)
    t0 = time.perf_counter()
    with pytest.raises(InputError):
        HomothetLambda(K)
    assert time.perf_counter() - t0 < 5.0


def test_homothet_lambda_ball_path(disk):
    fast = HomothetLambda(disk)
    rng = np.random.default_rng(22)
    for _ in range(50):
        S = rng.uniform(-1, 1, size=(rng.integers(2, 7), 2))
        assert fast(S) == pytest.approx(min_homothet_cover(disk, S).lam, abs=1e-7)


# --- volume -------------------------------------------------------------------

def test_volume_fixtures(triangle, sym_square):
    assert volume(triangle) == pytest.approx(0.5)
    assert volume(sym_square) == pytest.approx(4.0)
    assert volume(VPolytope(HEX_POLAR)) == pytest.approx(shoelace(HEX_POLAR))
    assert volume(VPolytope(HEX_POLAR)) == pytest.approx(3.0)


def test_volume_ball_and_simplex(disk, simplex3):
    assert volume(disk) == pytest.approx(math.pi)
    assert volume(simplex3) == pytest.approx(1.0 / 6.0)


def test_volume_random_matches_shoelace():
    rng = np.random.default_rng(8)
    for _ in range(20):
        K = VPolytope(rng.normal(size=(8, 2)))
        assert volume(K) == pytest.approx(shoelace(K.vertices), abs=1e-9)


# --- smallest enclosing ball ---------------------------------------------------

def test_smallest_enclosing_ball_fixtures():
    c, r = smallest_enclosing_ball(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert r == pytest.approx(1.0)
    np.testing.assert_allclose(c, [0.0, 0.0], atol=1e-12)
    c, r = smallest_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2]]))
    assert r == pytest.approx(1.0)


def test_smallest_enclosing_ball_vs_minimizer():
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    for _ in range(15):
        pts = rng.normal(size=(int(rng.integers(2, 9)), 2))
        c, r = smallest_enclosing_ball(pts)
        assert np.linalg.norm(pts - c, axis=1).max() <= r + 1e-9
        res = minimize(lambda x: np.linalg.norm(pts - x, axis=1).max(),
                       pts.mean(axis=0), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        assert r <= res.fun + 1e-7


# --- serialization --------------------------------------------------------------

def test_body_round_trip(triangle, disk):
    for K in (triangle, disk, HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                        [1.0, 1.0, 1.0, 1.0])):
        K2 = body_from_dict(body_to_dict(K))
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.normal(size=2)
            assert K2.support(y) == pytest.approx(K.support(y), abs=1e-12)


def test_body_from_dict_rejects_bad_input():
    with pytest.raises(InputError):
        body_from_dict({"type": "vpolytope", "vertices": [[0.0, float("nan")], [1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(InputError):
        body_from_dict({"type": "mystery"})
    with pytest.raises(InputError):
        body_from_dict([1, 2, 3])


def test_ball_requires_positive_radius():
    with pytest.raises(BodyError):
        Ball(np.zeros(2), -1.0)


def test_gauge_labels(triangle, sym_square):
    assert euclidean_gauge(2).label == "euclidean"
    assert body_gauge(sym_square).label == "body"
    assert diff_gauge(triangle).label == "diff"
    assert diff_gauge(triangle).symmetric
    assert not body_gauge(VPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])).symmetric

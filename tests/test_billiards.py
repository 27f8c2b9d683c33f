import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog
from scipy.spatial import ConvexHull

from minkbill import billiards
from minkbill.billiards import (
    Trajectory,
    shortest_trajectory,
    trajectory_length,
    verify_reflection,
)
from minkbill.errors import BodyError, DimensionMismatch, LPError
from minkbill.geometry import (
    Ball,
    Gauge,
    HomothetLambda,
    VPolytope,
    body_gauge,
    diff_gauge,
    euclidean_gauge,
    min_homothet_cover,
    polar,
)
from minkbill.sampling import (
    random_body_origin_interior,
    random_polytope,
    random_symmetric_polytope,
    rng_from,
)

MIDPOINTS = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])


@pytest.fixture
def equilateral():
    # unit width: height 1, side 2/sqrt(3)
    s = 2.0 / math.sqrt(3.0)
    return VPolytope([[0.0, 0.0], [s, 0.0], [s / 2.0, 1.0]])


# --- trajectory length -------------------------------------------------------

def test_length_midpoint_triangle_relative(triangle):
    assert trajectory_length(MIDPOINTS, diff_gauge(triangle)) == pytest.approx(1.5)


def test_length_midpoint_equilateral_euclidean(equilateral):
    V = equilateral.vertices
    mids = 0.5 * (V + np.roll(V, -1, axis=0))
    assert trajectory_length(mids, euclidean_gauge(2)) == pytest.approx(math.sqrt(3.0))


def test_length_two_point_path_symmetric(sym_square):
    g = Gauge(sym_square)
    x = np.array([1.0, 0.0])
    assert g.value(x) == pytest.approx(1.0)
    assert trajectory_length(np.stack([x, -x]), g) == pytest.approx(4.0)


def test_length_dimension_mismatch(triangle):
    with pytest.raises(DimensionMismatch):
        trajectory_length(MIDPOINTS, euclidean_gauge(3))


# --- solver fixtures ----------------------------------------------------------

def test_triangle_relative_length(triangle):
    traj = shortest_trajectory(triangle, diff_gauge(triangle), starts=16, seed=0)
    assert traj.gauge_length == pytest.approx(1.5, abs=1e-9)
    assert traj.lam == pytest.approx(1.0, abs=1e-6)
    assert traj.converged
    assert 2 <= traj.bounces <= 3


def test_equilateral_euclidean_length(equilateral):
    traj = shortest_trajectory(equilateral, euclidean_gauge(2), starts=8, seed=0)
    assert traj.gauge_length == pytest.approx(math.sqrt(3.0), abs=1e-3)


def test_disk_self_gauge_diameter(disk):
    traj = shortest_trajectory(disk, Gauge(disk), starts=8, seed=0)
    assert traj.gauge_length == pytest.approx(4.0, abs=1e-3)
    assert traj.bounces == 2


def test_simplex_relative_length(simplex3):
    traj = shortest_trajectory(simplex3, diff_gauge(simplex3), starts=8, seed=0,
                               stall_limit=6)
    assert traj.gauge_length == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_scaling_covariance(triangle):
    alpha = 2.5
    big = triangle.scale(alpha)
    traj = shortest_trajectory(big, diff_gauge(big), starts=8, seed=0)
    assert traj.gauge_length == pytest.approx(1.5, abs=1e-9)  # gauge scales too
    mixed = shortest_trajectory(big, diff_gauge(triangle), starts=8, seed=0)
    assert mixed.gauge_length == pytest.approx(alpha * 1.5, abs=1e-9)


def test_solver_deterministic(triangle):
    a = shortest_trajectory(triangle, diff_gauge(triangle), starts=6, seed=3)
    b = shortest_trajectory(triangle, diff_gauge(triangle), starts=6, seed=3)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.gauge_length == b.gauge_length


def test_segment_bound_after_edge_drop(triangle):
    # dropping one edge of the optimal cycle leaves an open path of relative
    # length >= 1 when the constraint ratio is 1
    g = diff_gauge(triangle)
    traj = shortest_trajectory(triangle, g, starts=16, seed=0)
    pts = traj.points
    m = len(pts)
    for drop in range(m):
        path = np.roll(pts, -drop - 1, axis=0)
        open_len = sum(g.value(path[i + 1] - path[i]) for i in range(m - 2))
        # remaining length plus the two edges at the dropped corner
        total = traj.gauge_length - g.value(pts[(drop + 1) % m] - pts[drop])
        assert total >= 1.0 - 1e-6
        assert open_len <= total + 1e-9


def test_disk_asymmetric_gauge_keeps_orientation(disk):
    # reversing a polygon changes its length under an asymmetric gauge, so
    # the solver must not report the longer orientation. By the swap the
    # value is the Euclidean one of the polar triangle, its Fagnano orbit:
    # 2 area / circumradius = 16 sqrt(2) / 5 (Nelder-Mead with 64 starts
    # reached 4.525483399593929)
    g = Gauge(VPolytope([[-0.5, -0.5], [1.5, -0.5], [-0.5, 1.5]]))
    traj = shortest_trajectory(disk, g, starts=2, seed=0, stall_limit=2)
    assert traj.gauge_length == pytest.approx(16.0 * math.sqrt(2.0) / 5.0, abs=1e-12)
    assert traj.gauge_length <= trajectory_length(traj.points[::-1], g) + 1e-9
    assert verify_reflection(traj, disk, g).max_violation <= 1e-6


def test_search_keeps_the_shortest_of_near_ties(equilateral):
    # with this seed, three starts reach sqrt(3) to within 3.5e-12; the
    # shortest obeys the reflection law, the longest misses it by 2.9e-6
    g = euclidean_gauge(2)
    traj = shortest_trajectory(equilateral, g, starts=4, seed=840333869, stall_limit=6)
    assert traj.gauge_length == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert verify_reflection(traj, equilateral, g).max_violation <= 1e-6


# --- ball inputs: closed forms ---------------------------------------------------

def _closed_form_cases():
    s = 2.0 / math.sqrt(3.0)
    equilateral = VPolytope([[0.0, 0.0], [s, 0.0], [s / 2.0, 1.0]])
    right = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    simplex = VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0]])
    return [
        # the Fagnano orbit, half the perimeter
        pytest.param(equilateral, euclidean_gauge(2), math.sqrt(3.0), id="equilateral"),
        # twice the altitude onto the hypotenuse
        pytest.param(right, euclidean_gauge(2), math.sqrt(2.0), id="right-triangle"),
        pytest.param(Ball([0.5, -0.25], 1.5), Gauge(Ball(np.zeros(2), 0.6)), 4.0 * 1.5 / 0.6,
                     id="disk-R-over-r"),
        # twice the distance from the right corner to the opposite facet
        pytest.param(simplex, euclidean_gauge(3), 2.0 / math.sqrt(3.0), id="simplex3"),
        # the diameter across the gauge ball's offset c: 4 R / sqrt(r^2 - |c|^2)
        pytest.param(Ball([0.2, 0.0, -0.1], 1.3), Gauge(Ball([0.1, -0.2, 0.3], 0.9)),
                     4.0 * 1.3 / math.sqrt(0.81 - 0.14), id="ball3-off-centre-gauge"),
    ]


@pytest.mark.parametrize("K, g, expected", _closed_form_cases())
def test_ball_input_closed_forms(K, g, expected):
    traj = shortest_trajectory(K, g)
    assert traj.gauge_length == pytest.approx(expected, abs=1e-12)
    assert traj.lam == pytest.approx(1.0, abs=1e-12)
    assert verify_reflection(traj, K, g).max_violation <= 1e-9


@pytest.mark.parametrize("dim", [1, 4])
def test_ball_table_outside_2d_and_3d_rejected(dim):
    with pytest.raises(BodyError, match="dimensions 2 and 3"):
        shortest_trajectory(Ball(np.zeros(dim), 1.0), euclidean_gauge(dim))


# --- metamorphic identities ------------------------------------------------------

def _negated(K):
    return VPolytope(-K.vertices)


def test_swap_symmetry_polytope_pairs():
    # (q, p) -> (p, -q) maps K x T° onto T° x (-K): xi_T(K) = xi_{(-K)°}(T°)
    for i in range(12):
        dim = 2 if i < 10 else 3
        K = random_body_origin_interior(rng_from(0, 60, i), dim=dim, points=6)
        T = random_body_origin_interior(rng_from(0, 61, i), dim=dim, points=6)
        lhs = shortest_trajectory(K, Gauge(T)).gauge_length
        rhs = shortest_trajectory(polar(T), Gauge(polar(_negated(K)))).gauge_length
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_swap_symmetry_ball_polytope_pairs():
    # the swapped side of a ball table under a polytope gauge is a polytope
    # table under a centred ball gauge, and the other way round
    for i in range(6):
        dim = 2 if i < 4 else 3
        T = random_body_origin_interior(rng_from(0, 62, i), dim=dim, points=6)
        R = 0.5 + i / 4.0
        table = Ball(rng_from(0, 63, i).normal(size=dim) * 0.3, R)
        lhs = shortest_trajectory(table, Gauge(T)).gauge_length
        rhs = shortest_trajectory(polar(T), Gauge(Ball(np.zeros(dim), 1.0 / R)))
        assert lhs == pytest.approx(rhs.gauge_length, rel=1e-9)
        rhs = shortest_trajectory(Ball(np.zeros(dim), 1.0 / R), Gauge(polar(_negated(T))))
        lhs = shortest_trajectory(T, Gauge(Ball(np.zeros(dim), R)))
        assert lhs.gauge_length == pytest.approx(rhs.gauge_length, rel=1e-9)


def _inradius(K, g):
    # the largest s with s times the gauge ball inside K, both centred at 0
    B = g.unit_ball
    if isinstance(K, Ball):
        reach = B.radius if isinstance(B, Ball) else np.linalg.norm(B.vertices, axis=1).max()
        return K.radius / reach
    U, b = K.facet_data()
    return (b / g.duals(U)).min()


def test_symmetric_pairs_four_inradius():
    # Artstein-Avidan, Karasev and Ostrover: xi = 4 inradius for centrally
    # symmetric table and gauge ball
    cases = []
    for i in range(6):
        dim = 2 if i < 4 else 3
        K = random_symmetric_polytope(rng_from(0, 64, i), dim=dim, points=4)
        T = random_symmetric_polytope(rng_from(0, 65, i), dim=dim, points=4)
        r = 0.5 + i / 5.0
        cases += [(K, Gauge(T)), (K, Gauge(Ball(np.zeros(dim), r))),
                  (Ball(np.zeros(dim), r), Gauge(T)),
                  (Ball(np.zeros(dim), r), Gauge(Ball(np.zeros(dim), 1.0 + i / 3.0)))]
    for K, g in cases:
        traj = shortest_trajectory(K, g)
        assert traj.gauge_length == pytest.approx(4.0 * _inradius(K, g), abs=1e-9)
        assert verify_reflection(traj, K, g).max_violation <= 1e-9


# --- exact path (polytope table, polyhedral gauge) ------------------------------

def _exact_cases():
    cases = []
    for i in range(4):
        K = random_symmetric_polytope(rng_from(0, 31, i), dim=2 if i < 3 else 3,
                                      points=4)
        cases.append((K, body_gauge(K), 4.0))
        cases.append((K, diff_gauge(K), 2.0))
    for i in range(4):
        K = random_body_origin_interior(rng_from(0, 32, i), dim=2)
        cases.append((K, body_gauge(K), None))
    for i in range(3):
        K = random_polytope(rng_from(0, 33, i), dim=2, points=6)
        cases.append((K, diff_gauge(K), None))
    return cases


def test_exact_f1_repro():
    K = random_body_origin_interior(rng_from(0, 5, 2), 2)
    g = body_gauge(K)
    traj = shortest_trajectory(K, g)
    assert traj.gauge_length == pytest.approx(3.5656358, abs=1e-7)
    assert verify_reflection(traj, K, g).max_violation <= 1e-9


def test_exact_theorem_values_and_certificates():
    for K, g, expected in _exact_cases():
        traj = shortest_trajectory(K, g)
        if expected is not None:
            # symmetric K: 4 under its own gauge, 2 under the difference body
            assert traj.gauge_length == pytest.approx(expected, abs=1e-9)
        elif g.label == "body":
            assert traj.gauge_length >= 3.0 - 1e-9
        assert min_homothet_cover(K, traj.points).lam == pytest.approx(1.0, abs=1e-9)
        assert verify_reflection(traj, K, g).max_violation <= 1e-6


def _facet_polygons(K, m):
    # polygons tied to the facial structure of K: for m = 2, a support point
    # and its projection onto the opposite facet; otherwise cycles through m
    # consecutive facet midpoints (2d) or facet-triangle centroids (3d)
    U, b = K.facet_data()
    V = K.vertices
    if m == 2:
        out = []
        for u, off in zip(U, b):
            q1 = K.support_point(-u)
            out.append(np.stack([q1, q1 + (off - u @ q1) * u]))
        return out
    if K.dim == 2:
        vals = V @ U.T - b
        mids = [V[np.abs(vals[:, j]) <= 1e-9 * (1.0 + abs(b[j]))].mean(axis=0)
                for j in range(len(U))]
    else:
        mids = [V[s].mean(axis=0) for s in ConvexHull(V).simplices]
    mids = np.asarray(mids)
    return [mids[[(j + k) % len(mids) for k in range(m)]] for j in range(len(mids))]


def test_exact_beats_every_facet_seed():
    for K, g, _ in _exact_cases():
        length = shortest_trajectory(K, g).gauge_length
        for m in range(2, K.dim + 2):
            for seed in _facet_polygons(K, m):
                lam = min_homothet_cover(K, seed).lam
                if lam > 1e-9:
                    assert length <= trajectory_length(seed, g) / lam + 1e-9


def _dual_formula_length(K, g):
    # LP duality: the cycle LP of (y, order) has the value 1 / (covering
    # ratio, by the polar of the gauge ball, of the partial sums of
    # y_j u_j taken in that order); every order counts, reversed ones too
    lam = HomothetLambda(K)
    gauge_polar = polar(g.unit_ball)
    best = math.inf
    for y in lam._W:
        S = np.flatnonzero(y > 1e-12)
        for rest in itertools.permutations(S[1:]):
            order = [S[0], *rest]
            sums = np.cumsum(y[order, None] * lam._U[order], axis=0)
            best = min(best, 1.0 / min_homothet_cover(gauge_polar, sums).lam)
    return best


def test_exact_matches_dual_formula():
    cases = []
    for i in range(4):
        K = random_body_origin_interior(rng_from(0, 32, i), dim=2)
        other = random_body_origin_interior(rng_from(0, 34, i), dim=2)
        cases += [(K, body_gauge(K)), (K, body_gauge(other))]
    K3 = random_symmetric_polytope(rng_from(0, 31, 3), dim=3, points=4)
    cases.append((K3, diff_gauge(K3)))
    for K, g in cases:
        assert shortest_trajectory(K, g).gauge_length == pytest.approx(
            _dual_formula_length(K, g), abs=1e-9)


def test_exact_ignores_search_budget(triangle, disk):
    tri_gauge = Gauge(VPolytope([[-0.5, -0.5], [1.5, -0.5], [-0.5, 1.5]]))
    for K, g in ((triangle, diff_gauge(triangle)), (triangle, euclidean_gauge(2)),
                 (disk, tri_gauge)):
        a = shortest_trajectory(K, g, starts=1, seed=5, stall_limit=1)
        b = shortest_trajectory(K, g, starts=64, seed=0)
        np.testing.assert_array_equal(a.points, b.points)


def test_exact_raises_when_lp_fails(triangle, monkeypatch):
    def failing(*args, **kwargs):
        return OptimizeResult(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(billiards, "linprog", failing)
    with pytest.raises(LPError):
        shortest_trajectory(triangle, diff_gauge(triangle))


def _cycle_lp_counter(monkeypatch):
    # each cycle LP block of a batched call has one -1 entry in b_ub
    solved = []

    def counting(*args, **kwargs):
        solved.append(int((kwargs["b_ub"] < 0).sum()))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(billiards, "linprog", counting)
    return solved


def _ellipse_ngon(n, a, b, center=(0.0, 0.0), jitter=None):
    ang = 2.0 * np.pi * (np.arange(n) + (0.0 if jitter is None else jitter)) / n
    return VPolytope(np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)
                     + np.asarray(center))


def test_cycle_lower_bounds_are_sound():
    cases = []
    for i in range(2):
        K = random_polytope(rng_from(0, 35, i), dim=2, points=7)
        S = random_symmetric_polytope(rng_from(0, 36, i), dim=2, points=4)
        other = random_body_origin_interior(rng_from(0, 37, i), dim=2)
        cases += [(K, diff_gauge(K)), (K, body_gauge(other)), (S, diff_gauge(S))]
    K3 = random_polytope(rng_from(0, 35, 9), dim=3, points=6)
    S3 = random_symmetric_polytope(rng_from(0, 36, 9), dim=3, points=4)
    other3 = random_body_origin_interior(rng_from(0, 37, 9), dim=3)
    cases += [(K3, diff_gauge(K3)), (K3, body_gauge(other3)), (S3, diff_gauge(S3))]
    pairs = 0
    for K, g in cases:
        d = K.dim
        Ug, bg = g.unit_ball.facet_data()
        M = Ug / bg[:, None]
        for s, coefs in billiards._cycle_candidates(HomothetLambda(K), g).items():
            lower = billiards._cycle_lower_bounds(g, coefs, s, d)
            for row, bound in zip(coefs, lower):
                val, _ = billiards._cycle_lps_best(M, s, d, row[None], [-math.inf], None)
                assert bound <= val * (1.0 + 1e-9)
                if s == 2 and g.symmetric:
                    pairs += 1
                    assert bound == pytest.approx(val, rel=1e-9)
    assert pairs > 0


def test_cycle_lps_stop_only_when_no_lp_can_win():
    # exact values are the tightest valid lower bounds
    K = random_polytope(rng_from(0, 35, 0), dim=2, points=7)
    g = body_gauge(random_body_origin_interior(rng_from(0, 37, 0), dim=2))
    Ug, bg = g.unit_ball.facet_data()
    M = Ug / bg[:, None]
    coefs = billiards._cycle_candidates(HomothetLambda(K), g)[3]
    vals = np.array([billiards._cycle_lps_best(M, 3, 2, row[None], [-math.inf], None)[0]
                     for row in coefs])
    order = np.argsort(vals)
    coefs, vals = coefs[order], vals[order]
    best = vals[0]
    assert billiards._cycle_lps_best(M, 3, 2, coefs, vals, None)[0] == pytest.approx(best)
    # an incumbent beaten by more than the tie tolerance is beaten
    found = billiards._cycle_lps_best(M, 3, 2, coefs, vals, best * (1.0 + 1e-9))
    assert found[0] == pytest.approx(best, rel=1e-12)
    # a tie within the tolerance keeps the incumbent
    assert billiards._cycle_lps_best(M, 3, 2, coefs, vals, best * (1.0 + 1e-14)) is None


@pytest.mark.parametrize("K", [_ellipse_ngon(32, 1.0, 1.0), _ellipse_ngon(32, 1.0, 0.6)],
                         ids=["regular", "ellipse"])
def test_exact_prunes_many_facet_polygons(K, monkeypatch):
    solved = _cycle_lp_counter(monkeypatch)
    traj = shortest_trajectory(K, diff_gauge(K))
    assert traj.gauge_length == pytest.approx(2.0, abs=1e-9)
    assert traj.bounces == 2
    assert 0 < sum(solved) < 100


def test_exact_pruned_asymmetric_matches_dual_formula(monkeypatch):
    jitter = 0.5 * rng_from(0, 38).uniform(size=12)
    K = _ellipse_ngon(12, 1.0, 0.7, center=(0.3, 0.1), jitter=jitter)
    g = body_gauge(K)
    assert not g.symmetric
    solved = _cycle_lp_counter(monkeypatch)
    length = shortest_trajectory(K, g).gauge_length
    assert length == pytest.approx(_dual_formula_length(K, g), abs=1e-9)
    assert sum(solved) < sum(len(c) for c in
                             billiards._cycle_candidates(HomothetLambda(K), g).values())


def test_exact_bounds_memory_stays_bounded():
    # 24 facets: a dense (candidates x translations x s x gauge vertices)
    # bound array would take about 24 MB on its own
    K = random_symmetric_polytope(rng_from(0, 40, 0), dim=3, points=10)
    g = diff_gauge(K)
    tracemalloc.start()
    try:
        traj = shortest_trajectory(K, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.gauge_length == pytest.approx(2.0, abs=1e-9)
    assert peak < 16e6


def test_ball_gauge_memory_stays_bounded():
    # 26 facets, 5,382 cycle candidates: enclosing balls for all of them at
    # once would take about 21 MB; batches keep the peak near 6 MB
    K = random_polytope(rng_from(0, 41, 0), dim=3, points=30)
    g = euclidean_gauge(3)
    tracemalloc.start()
    try:
        traj = shortest_trajectory(K, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert traj.lam == pytest.approx(1.0, abs=1e-9)
    assert verify_reflection(traj, K, g).max_violation <= 1e-9


# --- reflection certificates ----------------------------------------------------

def test_reflection_disk_diameter(disk):
    cert = verify_reflection(np.array([[1.0, 0.0], [-1.0, 0.0]]), disk,
                             euclidean_gauge(2))
    assert cert.max_violation <= 1e-9
    np.testing.assert_allclose(np.sort(cert.multipliers), [2.0, 2.0], atol=1e-9)


def test_reflection_midpoint_triangle(triangle):
    cert = verify_reflection(MIDPOINTS, triangle, diff_gauge(triangle))
    assert cert.max_violation <= 1e-6
    np.testing.assert_allclose(np.sort(cert.multipliers),
                               [1.5, 1.5, 1.5 * math.sqrt(2.0)], atol=1e-6)
    assert len(cert.momenta) == 3


def test_reflection_rejects_non_billiard(triangle):
    bad = np.array([[0.2, 0.0], [0.0, 0.7], [0.3, 0.7]])
    cert = verify_reflection(bad, triangle, diff_gauge(triangle))
    assert cert.max_violation > 0.1


def test_reflection_requires_boundary_points(triangle):
    with pytest.raises(BodyError):
        verify_reflection(np.array([[0.2, 0.2], [0.4, 0.1]]), triangle,
                          diff_gauge(triangle))


def test_reflection_rejects_degenerate_edge(triangle):
    with pytest.raises(BodyError):
        verify_reflection(np.array([[0.5, 0.0], [0.5, 0.0]]), triangle,
                          diff_gauge(triangle))


def test_solver_output_passes_reflection(triangle, disk):
    for K, g in ((triangle, diff_gauge(triangle)), (disk, euclidean_gauge(2))):
        traj = shortest_trajectory(K, g, starts=8, seed=1)
        cert = verify_reflection(traj, K, g, tol=1e-6)
        assert cert.max_violation <= 1e-4


# --- serialization ----------------------------------------------------------------

def test_trajectory_to_dict(triangle):
    traj = Trajectory(MIDPOINTS, 1.5, "diff", 1.0)
    d = traj.to_dict(violation=2.5e-9)
    assert d["length"] == 1.5
    assert d["lambda"] == 1.0
    assert d["violation"] == 2.5e-9
    assert d["points"] == [[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
    assert "violation" not in traj.to_dict()


def test_solver_rejects_dimension_mismatch(triangle):
    with pytest.raises(DimensionMismatch):
        shortest_trajectory(triangle, euclidean_gauge(3), starts=2, seed=0)

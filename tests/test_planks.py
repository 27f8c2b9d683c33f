import math

import numpy as np
import pytest

from minkbill.errors import DimensionMismatch, InputError
from minkbill.geometry import Ball, Gauge, VPolytope, diff_gauge, euclidean_gauge
from minkbill.planks import (
    Plank,
    almost_parallel_check,
    bang_report,
    covering_check,
    plank_from_dict,
    plank_width,
    two_directions_probe,
)
from minkbill.sampling import random_plank_cover, random_polytope, rng_from

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def slab(n, lo, hi, weight=1.0):
    return Plank(np.asarray(n, float), lo, hi, weight)


def grid_multiplicity_oracle(K, planks, per_axis=100):
    """Dense-grid weighted multiplicity minimum over K."""
    lo, hi = K.bounding_box()
    axes = [np.linspace(lo[d], hi[d], per_axis) for d in range(K.dim)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1)
    inside = np.array([K.contains(p, tol=1e-9) for p in mesh])
    pts = mesh[inside]
    mult = np.zeros(len(pts))
    for p in planks:
        vals = pts @ p.normal
        mult += p.weight * ((vals >= p.lo - 1e-12) & (vals <= p.hi + 1e-12))
    return float(mult.min())


# --- widths -------------------------------------------------------------------

def test_width_relative_triangle(triangle):
    assert plank_width(slab(E1, 0.0, 0.5), diff_gauge(triangle)) == pytest.approx(0.5)


def test_width_euclidean():
    assert plank_width(slab(E1, 0.0, 1.0), euclidean_gauge(2)) == pytest.approx(1.0)
    assert plank_width(slab([1.0, 1.0], 0.0, 1.0), euclidean_gauge(2)) == pytest.approx(1.0 / math.sqrt(2.0))


def test_width_gauge_scaling_covariance(triangle):
    from minkbill.geometry import Gauge, difference_body

    D = difference_body(triangle)
    g1 = Gauge(D)
    g2 = Gauge(D.scale(2.0))
    p = slab([0.3, -0.7], -0.2, 0.9)
    # doubling the unit ball doubles the dual support, halving the width
    assert plank_width(p, g2) == pytest.approx(0.5 * plank_width(p, g1))


def test_width_rejects_zero_normal():
    with pytest.raises(InputError):
        slab([0.0, 0.0], 0.0, 1.0)


def test_plank_serialization_round_trip():
    p = plank_from_dict({"normal": [1.0, -2.0], "lo": -0.5, "hi": 1.5, "weight": 2.0})
    d = p.to_dict()
    q = plank_from_dict(d)
    np.testing.assert_array_equal(q.normal, p.normal)
    assert (q.lo, q.hi, q.weight) == (p.lo, p.hi, p.weight)
    with pytest.raises(InputError):
        plank_from_dict({"normal": [1.0, 0.0], "lo": 2.0, "hi": 1.0})


# --- covering verdicts -----------------------------------------------------------

def test_cover_two_overlapping_slabs(square):
    rep = covering_check(square, [slab(E1, 0.0, 0.6), slab(E1, 0.5, 1.0)])
    assert rep.covered
    assert rep.min_multiplicity == pytest.approx(1.0)
    assert rep.witness is None


def test_cover_single_slab_gap(square):
    rep = covering_check(square, [slab(E1, 0.0, 0.9)])
    assert not rep.covered
    assert rep.witness is not None
    assert rep.witness[0] > 0.9
    assert square.contains(rep.witness, tol=1e-6)


def test_cover_double_multiplicity(square):
    planks = [slab(E1, 0.0, 0.7), slab(E1, 0.3, 1.0), slab(E2, 0.0, 1.0)]
    rep = covering_check(square, planks, threshold=2.0)
    assert rep.covered
    assert rep.min_multiplicity == pytest.approx(2.0)
    assert rep.min_multiplicity == pytest.approx(grid_multiplicity_oracle(square, planks))


def test_cover_weighted_scaling(square):
    planks = [slab(E1, 0.0, 0.6, 1.0), slab(E1, 0.5, 1.0, 2.0)]
    r1 = covering_check(square, planks, threshold=0.5)
    r3 = covering_check(square, [Plank(p.normal, p.lo, p.hi, 3.0 * p.weight) for p in planks],
                        threshold=0.5)
    assert r3.min_multiplicity == pytest.approx(3.0 * r1.min_multiplicity)


def test_cover_matches_grid_oracle_random():
    rng = rng_from(0, 777)
    for trial in range(25):
        K = random_polytope(rng, dim=2, points=7)
        m = int(rng.integers(1, 9))
        planks = []
        for _ in range(m):
            n = rng.normal(size=2)
            n /= np.linalg.norm(n)
            vals = [K.support(n), -K.support(-n)]
            lo = float(min(vals) + rng.uniform(0.0, 0.4) * (max(vals) - min(vals)))
            planks.append(slab(n, lo, lo + rng.uniform(0.1, 1.0)))
        rep = covering_check(K, planks)
        oracle_min = grid_multiplicity_oracle(K, planks, per_axis=60)
        # grids only see interior points, so they can miss thin uncovered
        # slivers; agreement is checked with a one-sided tolerance
        if rep.covered:
            assert oracle_min >= 1.0 - 1e-9
        else:
            vals = [float(rep.witness @ p.normal) for p in planks]
            assert all(not (p.lo - 1e-9 <= v <= p.hi + 1e-9)
                       for v, p in zip(vals, planks))
            assert K.contains(rep.witness, tol=1e-6)


def test_cover_grid_fallback_warning(square):
    planks = [slab(E1, i / 13.0, (i + 1) / 13.0) for i in range(13)]
    rep = covering_check(square, planks)
    assert rep.covered
    assert rep.warning is not None


def test_cover_hard_limit(square):
    with pytest.raises(InputError):
        covering_check(square, [slab(E1, 0.0, 1.0)] * 21)


def test_cover_dimension_mismatch(square):
    with pytest.raises(DimensionMismatch):
        covering_check(square, [slab([1.0, 0.0, 0.0], 0.0, 1.0)])


# --- width-sum reports --------------------------------------------------------------

def test_bang_square_tight(square):
    rep = bang_report(square, [slab(E1, 0.0, 0.5), slab(E1, 0.5, 1.0)])
    assert rep.covered
    assert rep.relative_width_sum == pytest.approx(1.0)
    assert not rep.alarm


def test_bang_triangle_tight(triangle):
    # dual support of e1 against the difference hexagon is exactly 1
    hexagon = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0],
                        [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]])
    assert float((hexagon @ E1).max()) == pytest.approx(1.0)
    rep = bang_report(triangle, [slab(E1, 0.0, 0.5), slab(E1, 0.5, 1.0)])
    assert rep.covered
    assert rep.relative_width_sum == pytest.approx(1.0)
    assert not rep.alarm


def test_bang_short_sum_cannot_cover(square):
    rep = bang_report(square, [slab(E1, 0.0, 0.45), slab(E1, 0.45, 0.9)])
    assert rep.relative_width_sum == pytest.approx(0.9)
    assert not rep.covered
    assert rep.witness is not None
    assert rep.witness[0] > 0.9


def test_bang_random_covers_never_alarm():
    rng = rng_from(0, 778)
    checked = 0
    while checked < 60:
        K = random_polytope(rng, dim=2, points=7)
        planks = random_plank_cover(K, rng, max_planks=6)
        rep = bang_report(K, planks)
        if not rep.covered:
            continue
        checked += 1
        assert not rep.alarm
        assert rep.relative_width_sum >= 1.0 - 1e-6


def test_bang_unit_weights(square):
    # the report ignores input weights: the width-sum statement is unweighted
    rep = bang_report(square, [slab(E1, 0.0, 0.5, 7.0), slab(E1, 0.5, 1.0, 0.25)])
    assert rep.covered
    assert rep.min_multiplicity >= 1.0


# --- direction families ---------------------------------------------------------------

def test_almost_parallel_orthogonal_pair():
    assert almost_parallel_check([E1, E2], euclidean_gauge(2))


def test_almost_parallel_opposite_pair():
    assert not almost_parallel_check([E1, -E1], euclidean_gauge(2))


def test_almost_parallel_single():
    assert almost_parallel_check([E1], euclidean_gauge(2))


def test_almost_parallel_nonneg_dots():
    rng = rng_from(0, 779)
    g = euclidean_gauge(3)
    for _ in range(10):
        while True:
            vs = rng.normal(size=(4, 3))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            G = vs @ vs.T
            if G[~np.eye(4, dtype=bool)].min() >= 0.0:
                break
        assert almost_parallel_check(list(vs), g)


def test_almost_parallel_polytope_gauge(sym_square):
    # the square's dual gauge is the l1 norm: c1 e1 + c2 e2 has dual value
    # c1 + c2 >= 1, while e1 and -e1 cancel
    g = Gauge(sym_square)
    assert almost_parallel_check([E1, E2], g)
    assert not almost_parallel_check([E1, -E1], g)


def test_almost_parallel_requires_normalized():
    with pytest.raises(InputError):
        almost_parallel_check([2.0 * E1], euclidean_gauge(2))


# --- axis-parallel probes ----------------------------------------------------------------

def test_two_directions_square(square):
    assert two_directions_probe(square, trials=1000, seed=0) == pytest.approx(1.0, abs=1e-6)


def test_two_directions_inscribed_disk():
    K = Ball(np.array([0.5, 0.5]), 0.5)
    assert two_directions_probe(K, trials=1000, seed=0) >= 1.0 - 1e-6


def test_two_directions_inscribed_triangle():
    K = VPolytope([[0.3, 0.0], [1.0, 0.8], [0.0, 1.0]])
    assert two_directions_probe(K, trials=1000, seed=0) >= 1.0 - 1e-6


def test_two_directions_requires_inscribed():
    with pytest.raises(InputError):
        two_directions_probe(VPolytope([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
                             trials=10, seed=0)

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from minkbill.errors import DimensionMismatch, InputError
from minkbill.fractional import (
    W_constant,
    cylinder_bound,
    cylinder_conjecture_target,
    fractional_bang_bound,
    mahler_product,
    plank_multiplicity_probe,
    pushforward_check,
    rho_density,
    sphere_samples,
    sphere_surface_area,
    sum_norm_lower,
    unit_ball_volume,
)
from minkbill.geometry import Ball, VPolytope


def W_quadrature(n):
    """Gauss-Legendre value of the width integral via the angle substitution."""
    x, w = leggauss(200)
    th = 0.5 * math.pi * x
    return float(np.sum(w * 0.5 * math.pi * np.cos(th) ** (n - 2)))


# --- ball volumes and sphere areas ----------------------------------------------

def test_unit_volumes():
    assert unit_ball_volume(0) == pytest.approx(1.0)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi)


# --- the width constant -----------------------------------------------------------

def test_W_known_values():
    assert W_constant(3) == pytest.approx(2.0, abs=1e-12)
    assert W_constant(2) == pytest.approx(math.pi, abs=1e-12)
    assert W_constant(4) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_W_matches_quadrature():
    for n in range(2, 31):
        assert abs(W_constant(n) - W_quadrature(n)) <= 1e-10


def test_W_strictly_decreasing():
    vals = [W_constant(n) for n in range(3, 31)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_W_rejects_small_n():
    with pytest.raises(InputError):
        W_constant(1)


# --- projected densities -------------------------------------------------------------

def test_rho_constant_for_m2():
    for x in ([0.0, 0.0], [0.3, -0.4], [0.9, 0.1]):
        assert rho_density(2, np.array(x)) == pytest.approx(2.0 * math.pi)


def test_rho_at_origin_m4():
    assert rho_density(4, np.zeros(2)) == pytest.approx(2.0 * math.pi ** 2)


def test_rho_known_point_m3():
    x = np.array([math.sqrt(3.0) / 2.0, 0.0])
    assert rho_density(3, x) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_rho_rejects_bad_input():
    with pytest.raises(InputError):
        rho_density(1, np.zeros(2))
    with pytest.raises(InputError):
        rho_density(3, np.array([1.2, 0.0]))


def test_rho_integrates_to_sphere_area():
    # Monte-Carlo mean over the landing ball times its volume
    for n, m, seed in ((4, 2, 1), (5, 2, 1), (5, 3, 1)):
        d = n - m
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(200000, d))
        pts = pts[(pts ** 2).sum(axis=1) <= 1.0][:50000]
        integral = np.mean([rho_density(m, p) for p in pts]) * unit_ball_volume(d)
        target = sphere_surface_area(n)
        assert abs(integral - target) / target <= 0.01


def test_pushforward_density_profile():
    assert pushforward_check(4, 2, samples=200000, seed=0) <= 0.03


# --- cylinder bounds --------------------------------------------------------------------

def test_cylinder_known_values():
    assert cylinder_bound(4, 2) == pytest.approx(math.pi, abs=1e-12)
    assert cylinder_bound(5, 2) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert cylinder_bound(5, 3) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_cylinder_m2_equals_ball_volume():
    for n in range(3, 12):
        assert cylinder_bound(n, 2) == pytest.approx(unit_ball_volume(n - 2), abs=1e-12)


def test_cylinder_gap_to_target():
    assert cylinder_conjecture_target(5, 3) == pytest.approx(math.pi)
    assert cylinder_bound(5, 3) < cylinder_conjecture_target(5, 3)
    assert cylinder_conjecture_target(4, 2) == pytest.approx(cylinder_bound(4, 2))


def test_cylinder_rejects_bad_params():
    with pytest.raises(InputError):
        cylinder_bound(3, 3)
    with pytest.raises(InputError):
        cylinder_bound(4, 1)


# --- covering-multiplicity bounds ----------------------------------------------------------

def test_bound_fixture_values():
    assert fractional_bang_bound(1, 0.0) == pytest.approx(2.0)
    assert fractional_bang_bound(3, 0.5) == pytest.approx(2.0 * math.sqrt(6.0))


def test_bound_endpoints_exact():
    for k in range(1, 12):
        assert fractional_bang_bound(k, 0.0) == 2.0 * math.sqrt(k)
        assert fractional_bang_bound(k, 1.0) == 2.0 * k


def test_bound_rejects_bad_params():
    with pytest.raises(InputError):
        fractional_bang_bound(0, 0.5)
    with pytest.raises(InputError):
        fractional_bang_bound(2, 1.5)


# --- vector sums ------------------------------------------------------------------------------

def test_sum_norm_orthonormal():
    lhs, rhs, ok = sum_norm_lower(np.eye(4), 0.0)
    assert ok
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(2.0)


def test_sum_norm_parallel_copies():
    V = np.tile(np.array([1.0, 0.0]), (5, 1))
    lhs, rhs, ok = sum_norm_lower(V, 1.0)
    assert ok
    assert lhs == pytest.approx(5.0)
    assert rhs == pytest.approx(5.0)


def test_sum_norm_random_correlated():
    rng = np.random.default_rng(19)
    done = 0
    while done < 100:
        V = rng.normal(size=(3, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        G = V @ V.T
        if G[~np.eye(3, dtype=bool)].min() < 0.2:
            continue
        lhs, rhs, ok = sum_norm_lower(V, 0.2)
        assert ok, (lhs, rhs)
        done += 1


def test_sum_norm_rejects_bad_input():
    with pytest.raises(InputError):
        sum_norm_lower(np.array([[2.0, 0.0]]), 0.0)
    with pytest.raises(InputError):
        sum_norm_lower(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.5)


# --- volume products ----------------------------------------------------------------------------

def test_mahler_triangle(triangle):
    product, bound, ok = mahler_product(triangle)
    assert product == pytest.approx(1.5, abs=1e-9)
    assert bound == pytest.approx(9.0 / 8.0)
    assert ok


def test_mahler_square(square):
    product, _, ok = mahler_product(square)
    assert product == pytest.approx(2.0, abs=1e-9)
    assert ok


def test_mahler_disk(disk):
    product, _, ok = mahler_product(disk)
    assert product == pytest.approx(math.pi ** 2 / 4.0, abs=1e-9)
    assert ok


def test_mahler_rejects_high_dimension():
    with pytest.raises(DimensionMismatch):
        mahler_product(Ball(np.zeros(4), 1.0))


# --- seeded statistics ----------------------------------------------------------------------------

def test_sphere_samples_are_unit():
    pts = sphere_samples(3, 1000, np.random.default_rng(0))
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_plank_multiplicity_probe_brackets_average():
    min_mult, expected = plank_multiplicity_probe()
    assert expected == pytest.approx(10.0)
    # the bracket endpoints are exact in reals (0.8 * 10 = 8); allow for the
    # gamma-function dust in the computed average
    assert min_mult >= 0.8 * expected - 1e-9
    assert min_mult <= expected + 1e-9

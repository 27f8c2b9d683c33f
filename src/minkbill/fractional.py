"""Closed-form constants for fractional and multiple plank coverings.

Everything here is an explicit Gamma-function expression: the width constant
W_n of the sphere-projection argument, the pushforward density rho_m, the
cylinder cross-section bound, and the fractional covering bound
2*sqrt((c(k-1)+1)k). Gamma and log-gamma come from the standard library's
``math.gamma`` and ``math.lgamma``.

The Mahler-type product of the covering chapter is included as a probe: a
counterexample would be significant, so a failure warns loudly instead of
passing silently.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionMismatch, InputError
from .geometry import ConvexBody, difference_body, polar, volume


def unit_ball_volume(d: int) -> float:
    if d < 0:
        raise InputError("dimension must be nonnegative")
    if d == 0:
        return 1.0
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise InputError("n must be at least 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def W_constant(n: int) -> float:
    """Average-width constant: Gamma((n-1)/2) Gamma(1/2) / Gamma(n/2)."""
    n = int(n)
    if n < 2:
        raise InputError("W_constant needs n >= 2")
    return math.exp(math.lgamma((n - 1) / 2.0) + math.lgamma(0.5)
                    - math.lgamma(n / 2.0))


def rho_density(m: int, x) -> float:
    """Pushforward density of the sphere's surface measure under projection.

    Dropping m coordinates of S^{n-1} lands in a unit ball with density
    (2 pi^{m/2} / Gamma(m/2)) (1 - |x|^2)^{m/2 - 1}; it integrates to the
    full surface area of S^{n-1} over the ball it lands in.
    """
    m = int(m)
    if m < 2:
        raise InputError("rho_density needs m >= 2")
    x = np.atleast_1d(np.asarray(x, float))
    r2 = float(x @ x)
    if r2 > 1.0 + 1e-12:
        raise InputError("point lies outside the unit ball")
    r2 = min(r2, 1.0)
    coef = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    return coef * (1.0 - r2) ** (m / 2.0 - 1.0)


def cylinder_bound(n: int, m: int) -> float:
    """Lower bound on the weighted cross-sections of covering cylinders."""
    n, m = int(n), int(m)
    if not 2 <= m < n:
        raise InputError("cylinder_bound needs 2 <= m < n")
    return math.exp((n - m) / 2.0 * math.log(math.pi)
                    + math.lgamma(m / 2.0) - math.lgamma(n / 2.0))


def cylinder_conjecture_target(n: int, m: int) -> float:
    """The conjectured optimal value: the volume of the unit ball B^{n-m}."""
    n, m = int(n), int(m)
    if not 2 <= m < n:
        raise InputError("needs 2 <= m < n")
    return unit_ball_volume(n - m)


def fractional_bang_bound(k: int, c: float) -> float:
    """Total width needed to cover a unit ball k-fold with c-correlated planks."""
    k = int(k)
    c = float(c)
    if k < 1:
        raise InputError("k must be at least 1")
    if not 0.0 <= c <= 1.0:
        raise InputError("c must lie in [0, 1]")
    return 2.0 * math.sqrt((c * (k - 1) + 1.0) * k)


def sum_norm_lower(vectors, c: float, tol: float = 1e-9):
    """|sum of k unit vectors| >= sqrt(k + c k(k-1)) when pairwise dots >= c.

    Returns (lhs, rhs, ok). Precondition violations raise instead of passing.
    """
    V = np.atleast_2d(np.asarray(vectors, float))
    c = float(c)
    k = len(V)
    if k < 1:
        raise InputError("need at least one vector")
    norms = np.linalg.norm(V, axis=1)
    if np.abs(norms - 1.0).max() > tol:
        raise InputError("vectors must be Euclidean unit")
    G = V @ V.T
    off = G[~np.eye(k, dtype=bool)]
    if k > 1 and off.min() < c - tol:
        raise InputError("pairwise inner products fall below c")
    lhs = float(np.linalg.norm(V.sum(axis=0)))
    rhs = math.sqrt(k + c * k * (k - 1))
    return lhs, rhs, bool(lhs >= rhs - tol)


def mahler_product(K: ConvexBody, tol: float = 1e-9):
    """vol(K) * vol((K-K)^polar) against the bound (1+1/n)^n / n!.

    Returns (product, bound, ok). ok=false would contradict the inequality,
    so it is reported with a loud warning rather than silently.
    """
    n = K.dim
    if n not in (2, 3):
        raise DimensionMismatch("mahler_product supports dimensions 2 and 3")
    product = volume(K) * volume(polar(difference_body(K)))
    bound = (1.0 + 1.0 / n) ** n / math.factorial(n)
    ok = bool(product >= bound - tol)
    if not ok:
        warnings.warn(
            f"Mahler-type product {product:.12g} fell below bound {bound:.12g}; "
            "this would be a genuine counterexample, please report the body",
            RuntimeWarning, stacklevel=2)
    return float(product), float(bound), ok


# ---------------------------------------------------------------------------
# Monte-Carlo consistency probes (seed-pinned by callers)

def sphere_samples(n: int, count: int, rng) -> np.ndarray:
    """Uniform points on S^{n-1} from normalized Gaussian vectors."""
    g = rng.normal(size=(count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def pushforward_check(n: int, m: int, samples: int = 1_000_000, seed: int = 0,
                      shells: int = 8, r_min: float = 0.15, r_max: float = 0.85):
    """Compare the empirical projected density against rho_density.

    Projects uniform sphere points to their first n-m coordinates, bins them
    radially, and reports the max relative error of the shell density against
    the closed form (evaluated as the shell average). Boundary shells are
    excluded: the innermost ones hold too few points for a stable estimate
    and the density vanishes or blows up at radius 1 depending on m.
    """
    n, m = int(n), int(m)
    if not 2 <= m < n:
        raise InputError("needs 2 <= m < n")
    rng = np.random.default_rng(seed)
    pts = sphere_samples(n, samples, rng)[:, : n - m]
    r = np.linalg.norm(pts, axis=1)
    d = n - m
    edges = np.linspace(r_min, r_max, shells + 1)
    total = sphere_surface_area(n)
    worst = 0.0
    coef = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        frac = float(((r >= lo) & (r < hi)).mean())
        shell_vol = unit_ball_volume(d) * (hi ** d - lo ** d)
        empirical = frac * total / shell_vol
        # shell average of the closed form via midpoint on a fine subgrid
        rr = np.linspace(lo, hi, 64)
        rho = coef * (1.0 - rr ** 2) ** (m / 2.0 - 1.0)
        w = rr ** (d - 1)
        reference = float((rho * w).sum() / w.sum())
        worst = max(worst, abs(empirical - reference) / reference)
    return worst


def plank_multiplicity_probe(count: int = 2000, width: float = 0.01,
                             seed: int = 45, probes: int = 12):
    """Random central planks on S^2: min multiplicity vs the W_3 average.

    Each plank {|<u, x>| <= width/2} covers a sphere point with probability
    width/2 (uniform projection), so the expected multiplicity is
    count*width/W_3. The probe set is kept small: per-point counts have
    relative spread 1/sqrt(count*width/2), so the minimum over a large probe
    set drifts far below the mean even though the average is dead on.
    Returns (min multiplicity, expected average).
    """
    rng = np.random.default_rng(seed)
    normals = sphere_samples(3, count, rng)
    # deterministic probe points: Fibonacci sphere
    i = np.arange(probes) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / probes)
    theta = math.pi * (1.0 + math.sqrt(5.0)) * i
    pts = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                    np.cos(phi)], axis=1)
    mult = (np.abs(pts @ normals.T) <= width / 2.0).sum(axis=1)
    expected = count * width / W_constant(3)
    return int(mult.min()), float(expected)

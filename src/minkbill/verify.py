"""Acceptance suite: one check per contract criterion, with timings.

Each check returns its verdict plus a short deterministic detail string, so
a fixed seed reproduces the report byte for byte (wall-clock timings are
reported separately and never enter the JSON payload). Random-suite checks
derive every trial's stream from (seed, check number, trial) and therefore
do not depend on execution order.

Every billiard is solved exactly, ball inputs included (criterion 2's
Euclidean gauge and criterion 3's disk), so no check passes a search
budget and the billiard checks do not depend on the seed's search streams.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ballcut, fractional, planks
from .billiards import shortest_trajectory, verify_reflection
from .geometry import (
    Ball,
    VPolytope,
    body_gauge,
    diff_gauge,
    euclidean_gauge,
)
from .oscillation import (
    EmbeddedGraph,
    PolynomialField,
    graph_cover_check,
    verify_oscillation_bound,
)
from .planks import Plank, bang_report, covering_check
from .sampling import (
    random_body_origin_interior,
    random_connected_graph,
    random_plank_cover,
    random_polytope,
    random_symmetric_polytope,
    rng_from,
)
from .util import canonical_json_dumps

TRIANGLE = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
SIMPLEX3 = VPolytope(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_dict(self) -> dict:
        # timings stay out: the JSON report is byte-deterministic per seed
        return {"index": self.index, "name": self.name,
                "passed": self.passed, "detail": self.detail}


def _fmt(v: float, places: int = 9) -> str:
    return f"{v:.{places}f}"


# --- criterion 1 -----------------------------------------------------------

def _check_triangle_relative(seed: int):
    t0 = time.perf_counter()
    traj = shortest_trajectory(TRIANGLE, diff_gauge(TRIANGLE))
    took = time.perf_counter() - t0
    err = abs(traj.gauge_length - 1.5)
    ok = err <= 1e-3 and took < 10.0
    return ok, (f"length={_fmt(traj.gauge_length)} err={err:.2e} "
                f"runtime_under_10s={'yes' if took < 10.0 else 'no'}")


# --- criterion 2 -----------------------------------------------------------

def _check_equilateral(seed: int):
    s = 2.0 / math.sqrt(3.0)
    K = VPolytope(np.array([[0.0, 0.0], [s, 0.0], [s / 2.0, 1.0]]))
    traj = shortest_trajectory(K, euclidean_gauge(2))
    err = abs(traj.gauge_length - math.sqrt(3.0))
    return err <= 1e-3, f"length={_fmt(traj.gauge_length)} err={err:.2e}"


# --- criterion 3 -----------------------------------------------------------

def _check_disk_and_symmetric(seed: int):
    disk = Ball(np.zeros(2), 1.0)
    traj = shortest_trajectory(disk, body_gauge(disk))
    err = abs(traj.gauge_length - 4.0)
    if err > 1e-3:
        return False, f"disk length={_fmt(traj.gauge_length)} err={err:.2e}"
    low = math.inf
    for i in range(20):
        rng = rng_from(seed, 3, i)
        dim = 2 if i % 5 != 4 else 3
        K = random_symmetric_polytope(rng, dim=dim, points=4)
        t = shortest_trajectory(K, body_gauge(K))
        low = min(low, t.gauge_length)
        if t.gauge_length < 4.0 - 1e-2:
            return False, f"instance {i} ({dim}D) length={_fmt(t.gauge_length)}"
    return True, f"disk err={err:.2e}; 20 symmetric gauges min={_fmt(low)}"


# --- criterion 4 -----------------------------------------------------------

def _check_simplex_and_planar(seed: int):
    traj = shortest_trajectory(SIMPLEX3, diff_gauge(SIMPLEX3))
    err = abs(traj.gauge_length - 4.0 / 3.0)
    if err > 1e-2:
        return False, f"simplex length={_fmt(traj.gauge_length)} err={err:.2e}"
    low = math.inf
    for i in range(20):
        rng = rng_from(seed, 4, i)
        K = random_polytope(rng, dim=2, points=int(rng.integers(4, 9)))
        t = shortest_trajectory(K, diff_gauge(K))
        low = min(low, t.gauge_length)
        if t.gauge_length < 1.5 - 1e-2:
            return False, f"instance {i} length={_fmt(t.gauge_length)}"
    return True, f"simplex err={err:.2e}; 20 planar diff gauges min={_fmt(low)}"


# --- criterion 5 -----------------------------------------------------------

def _check_nonsymmetric_bound(seed: int):
    low = math.inf
    for i in range(30):
        rng = rng_from(seed, 5, i)
        K = random_body_origin_interior(rng, dim=2)
        t = shortest_trajectory(K, body_gauge(K))
        low = min(low, t.gauge_length)
        if t.gauge_length < 3.0 - 1e-2:
            return False, f"instance {i} length={_fmt(t.gauge_length)}"
    return True, f"30 self-gauge bodies min={_fmt(low)}"


# --- criterion 6 -----------------------------------------------------------

def _check_bang_probe(seed: int):
    sqr = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    tight = [Plank(np.array([1.0, 0.0]), 0.0, 0.3),
             Plank(np.array([1.0, 0.0]), 0.3, 0.7),
             Plank(np.array([1.0, 0.0]), 0.7, 1.0)]
    rep = bang_report(sqr, tight)
    if not rep.covered or rep.relative_width_sum != 1.0 or rep.alarm:
        return False, f"square fixture sum={rep.relative_width_sum!r}"
    low = math.inf
    for i in range(500):
        rng = rng_from(seed, 6, i)
        K = random_polytope(rng, dim=2, points=int(rng.integers(4, 8)))
        cover = random_plank_cover(K, rng, max_planks=6)
        rep = bang_report(K, cover)
        if not rep.covered:
            return False, f"instance {i}: generated cover not verified"
        low = min(low, rep.relative_width_sum)
        if rep.relative_width_sum < 1.0 - 1e-6 or rep.alarm:
            return False, f"instance {i}: sum={_fmt(rep.relative_width_sum, 12)}"
    return True, f"square=1.0 exact; 500 covers min sum={_fmt(low, 12)}"


# --- criterion 7 -----------------------------------------------------------

def _check_almost_parallel(seed: int):
    g2 = euclidean_gauge(2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    fixtures = [(np.stack([e1, e2]), True), (np.stack([e1, -e1]), False),
                (e1[None, :], True)]
    for i, (normals, expect) in enumerate(fixtures):
        got = planks.almost_parallel_check(normals, g2)
        if got != expect:
            return False, f"fixture {i} returned {got}"
    for i in range(200):
        rng = rng_from(seed, 7, i)
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 4))
        N = np.abs(rng.normal(size=(k, dim)))
        N /= np.linalg.norm(N, axis=1, keepdims=True)
        if not planks.almost_parallel_check(N, euclidean_gauge(dim),
                                            starts=4, iters=96):
            return False, f"random set {i} (k={k}, dim={dim}) returned false"
    return True, "3 fixtures + 200 nonnegative-dot sets all as expected"


# --- criterion 8 -----------------------------------------------------------

def _random_field(rng, dim: int = 2, degree: int = 3) -> PolynomialField:
    coeffs = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if i + j > 0:
                coeffs[(i, j)] = float(rng.normal())
    return PolynomialField(coeffs, check=False)


def _check_oscillation_suite(seed: int):
    disk = Ball(np.zeros(2), 1.0)
    lin = PolynomialField({(1, 0): 0.7, (0, 1): -0.4})
    lhs, rhs, ok = verify_oscillation_bound(lin, disk, "ball2x")
    if not ok or abs(lhs - rhs) > 1e-9:
        return False, f"ball2x equality gap={lhs - rhs:.2e}"
    x1 = PolynomialField({(1, 0): 1.0})
    lhs, rhs, ok = verify_oscillation_bound(x1, TRIANGLE, "diff1x")
    if not ok or abs(lhs - rhs) > 1e-9:
        return False, f"diff1x equality gap={lhs - rhs:.2e}"
    pool = []
    for b in range(10):
        rng = rng_from(seed, 8, b)
        K = random_body_origin_interior(rng, dim=2)
        xi = shortest_trajectory(K, diff_gauge(K)).gauge_length
        Ks = random_symmetric_polytope(rng_from(seed, 8, 500 + b), dim=2)
        pool.append((K, xi, Ks))
    worst = math.inf
    for i in range(500):
        F = _random_field(rng_from(seed, 8, 1000 + i))
        K, xi, Ks = pool[i % 10]
        for variant in ("ball2x", "diff1x", "billiard"):
            body = Ks if variant == "ball2x" else K
            lhs, rhs, ok = verify_oscillation_bound(F, body, variant, xi=xi,
                                                    samples=512)
            worst = min(worst, lhs - rhs)
            if not ok:
                return False, f"trial {i} {variant}: lhs-rhs={lhs - rhs:.2e}"
    return True, f"equalities to 1e-9; 1500 checks worst gap={worst:.3e}"


# --- criterion 9 -----------------------------------------------------------

def _check_graph_suite(seed: int):
    seg = EmbeddedGraph(np.array([[0.0, 0.0], [0.7, 0.2]]), [(0, 1)])
    h, lam, ok = graph_cover_check(seg, TRIANGLE)
    if not ok or abs(lam - h) > 1e-9:
        return False, f"segment equality |lambda-h|={abs(lam - h):.2e}"
    worst = math.inf
    for i in range(500):
        rng = rng_from(seed, 9, i)
        G = random_connected_graph(rng, max_edges=6)
        K = random_polytope(rng, dim=2, points=int(rng.integers(4, 8)))
        h, lam, ok = graph_cover_check(G, K)
        worst = min(worst, h - lam)
        if not ok:
            return False, f"graph {i}: lambda-h={lam - h:.2e}"
    return True, f"segment exact; 500 graphs worst h-lambda={worst:.3e}"


# --- criterion 10 ----------------------------------------------------------

def _check_constants(seed: int):
    if abs(fractional.W_constant(3) - 2.0) > 1e-12:
        return False, "W_3 != 2 at 1e-12"
    from numpy.polynomial.legendre import leggauss
    xs, ws = leggauss(200)
    th = xs * (math.pi / 2.0)
    worst_q = 0.0
    for n in range(2, 31):
        quad = float((np.cos(th) ** (n - 2) @ ws) * (math.pi / 2.0))
        worst_q = max(worst_q, abs(quad - fractional.W_constant(n)))
    if worst_q > 1e-10:
        return False, f"quadrature gap {worst_q:.2e}"
    if abs(fractional.cylinder_bound(4, 2) - math.pi) > 1e-12:
        return False, "cylinder_bound(4,2) != pi"
    worst_r = max(abs(fractional.rho_density(2, [r, 0.0]) - 2.0 * math.pi)
                  for r in np.linspace(0.0, 0.99, 34))
    if worst_r > 1e-12:
        return False, f"rho_2 not constant 2pi ({worst_r:.2e})"
    worst_p = max(fractional.pushforward_check(n, m, seed=seed)
                  for (n, m) in ((4, 2), (5, 2), (5, 3)))
    if worst_p > 0.03:
        return False, f"pushforward error {worst_p:.4f}"
    return True, (f"W_3 exact; quad gap={worst_q:.2e}; rho_2 const; "
                  f"pushforward max err={worst_p:.4f}")


# --- criterion 11 ----------------------------------------------------------

def _check_fractional_bound(seed: int):
    for k in range(1, 11):
        if abs(fractional.fractional_bang_bound(k, 0.0) - 2.0 * math.sqrt(k)) > 0:
            return False, f"endpoint c=0 inexact at k={k}"
        if abs(fractional.fractional_bang_bound(k, 1.0) - 2.0 * k) > 0:
            return False, f"endpoint c=1 inexact at k={k}"
    for i in range(500):
        rng = rng_from(seed, 11, i)
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 5))
        V = np.abs(rng.normal(size=(k, dim)))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        G = V @ V.T
        c = float(max(0.0, min(1.0, G[~np.eye(k, dtype=bool)].min())))
        lhs, rhs, ok = fractional.sum_norm_lower(V, c)
        if not ok:
            return False, f"trial {i}: lhs-rhs={lhs - rhs:.2e}"
    return True, "endpoints exact for k=1..10; 500 random trials ok"


# --- criterion 12 ----------------------------------------------------------

def _arc_integrator(p: ballcut.BallCutParams, steps: int = 10000) -> float:
    """Trapezoid p dq along the actual (k, m, rho) orbit in C^2.

    m arc+chord loops for the cut coordinate; the transverse circle advances
    only during arcs (angle tracks arc time), closing after k full turns.
    """
    k, m, rho, tau = p.k, p.m, p.rho, p.tau
    r2 = math.sqrt(max(0.0, 1.0 - rho ** 2))
    z1_parts, z2_parts = [], []
    phase = 0.0
    for _ in range(m):
        ts = np.linspace(-tau, tau, steps, endpoint=False)
        z1_parts.append(rho * np.exp(1j * ts))
        z2_parts.append(r2 * np.exp(1j * (phase + ts + tau)))
        phase += 2.0 * tau
        ss = np.linspace(0.0, 1.0, steps, endpoint=False)
        top = rho * np.exp(1j * tau)
        bot = rho * np.exp(-1j * tau)
        z1_parts.append(top + (bot - top) * ss)
        z2_parts.append(np.full(steps, r2 * np.exp(1j * phase)))
    total = 0.0
    for z in (np.concatenate(z1_parts), np.concatenate(z2_parts)):
        x, y = z.real, z.imag
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        total += 0.5 * float(np.sum(x * (yn - y) - y * (xn - x)))
    return total


def _check_ballcut(seed: int):
    worst_add = 0.0
    worst_min = math.inf
    for i in range(1, 98):
        tau0 = math.pi * i / 98.0
        c1, c2, total, ok = ballcut.verify_cut_additivity(tau0)
        worst_add = max(worst_add, abs(total - math.pi))
        if not ok:
            return False, f"additivity fails at grid point {i}"
        base = ballcut.principal_action(tau0)
        for p in ballcut.admissible_family(tau0, 40, 40):
            worst_min = min(worst_min, ballcut.cap_action(p) - base)
    if worst_min < -1e-12:
        return False, f"principal minimality violated by {worst_min:.2e}"
    if not ballcut.verify_key_inequalities(100):
        return False, "key inequality grid violation"
    cases = [(1, 3, 0.40 * math.pi), (1, 4, 0.45 * math.pi),
             (2, 3, 0.55 * math.pi), (3, 4, 0.70 * math.pi),
             (2, 5, 0.46 * math.pi)]
    worst_int = 0.0
    for k, m, tau0 in cases:
        p = ballcut.BallCutParams.from_tau0(tau0, k, m)
        worst_int = max(worst_int,
                        abs(ballcut.orbit_action(p) - _arc_integrator(p)))
    if worst_int > 1e-6:
        return False, f"integrator gap {worst_int:.2e}"
    return True, (f"additivity worst={worst_add:.2e}; principal min gap="
                  f"{worst_min:.2e}; key grid ok; integrator gap={worst_int:.2e}")


# --- criterion 13 ----------------------------------------------------------

def _check_mahler(seed: int):
    product, bound, ok = fractional.mahler_product(TRIANGLE)
    if not ok or abs(product - 1.5) > 1e-9 or abs(bound - 1.125) > 1e-15:
        return False, f"triangle product={product!r}"
    low = math.inf
    for i in range(100):
        rng = rng_from(seed, 13, i)
        K = random_polytope(rng, dim=2, points=int(rng.integers(3, 9)))
        product, bound, ok = fractional.mahler_product(K)
        low = min(low, product / bound)
        if not ok:
            return False, f"instance {i}: product={product!r} < bound"
    return True, f"triangle=1.5; 100 bodies min product/bound={_fmt(low, 6)}"


# --- criterion 14 ----------------------------------------------------------

def _determinism_probe(seed: int) -> str:
    """Canonical JSON of a few cheap cross-module runs, for byte comparison."""
    rng = rng_from(seed, 14, 0)
    K = random_polytope(rng, dim=2, points=6)
    traj = shortest_trajectory(K, diff_gauge(K))
    cert = verify_reflection(traj, K, diff_gauge(K))
    rng = rng_from(seed, 14, 1)
    K2 = random_polytope(rng, dim=2, points=5)
    cover = random_plank_cover(K2, rng, max_planks=5)
    rep = covering_check(K2, cover)
    F = _random_field(rng_from(seed, 14, 2))
    lhs, rhs, ok = verify_oscillation_bound(F, K2, "diff1x", samples=256)
    payload = {
        "trajectory": traj.to_dict(),
        "reflection_max_violation": cert.max_violation,
        "covering": rep.to_dict(),
        "oscillation": {"lhs": lhs, "rhs": rhs, "ok": ok},
    }
    return canonical_json_dumps(payload)


def _check_meta(seed: int, elapsed: float):
    a = _determinism_probe(seed)
    b = _determinism_probe(seed)
    deterministic = a == b
    under = elapsed < 300.0
    ok = deterministic and under
    return ok, (f"suite_under_5min={'yes' if under else 'no'} "
                f"repeat_probe_identical={'yes' if deterministic else 'no'}")


_CHECKS = [
    (1, "triangle-relative-billiard", _check_triangle_relative),
    (2, "equilateral-euclidean", _check_equilateral),
    (3, "disk-and-symmetric-gauges", _check_disk_and_symmetric),
    (4, "simplex-and-planar-diff-bound", _check_simplex_and_planar),
    (5, "nonsymmetric-gauge-bound", _check_nonsymmetric_bound),
    (6, "bang-probe", _check_bang_probe),
    (7, "almost-parallel-checker", _check_almost_parallel),
    (8, "oscillation-suite", _check_oscillation_suite),
    (9, "graph-cover-suite", _check_graph_suite),
    (10, "constants", _check_constants),
    (11, "fractional-bound", _check_fractional_bound),
    (12, "ball-cut", _check_ballcut),
    (13, "mahler-probe", _check_mahler),
]


def run_all(seed: int = 0):
    """Run the full acceptance suite; returns a list of CheckResult."""
    results = []
    suite_t0 = time.perf_counter()
    for index, name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(index, name, passed, detail,
                                   time.perf_counter() - t0))
    t0 = time.perf_counter()
    elapsed = time.perf_counter() - suite_t0
    passed, detail = _check_meta(seed, elapsed)
    results.append(CheckResult(14, "determinism-and-runtime", passed, detail,
                               time.perf_counter() - t0))
    return results


def format_table(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.index:>2}  {r.name:<{width}}  {mark}  "
                     f"{r.seconds:7.2f}s  {r.detail}")
    total = sum(r.seconds for r in results)
    ok = sum(r.passed for r in results)
    lines.append(f"{ok}/{len(results)} passed in {total:.1f}s")
    return "\n".join(lines)

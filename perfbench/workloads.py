"""The three benchmark workloads: seeded inputs, the library calls one item
makes, and the untimed oracles that judge each item's output.

An item is the set of library calls one CLI subcommand (or one sweep check)
makes for its input. Inputs come from ``rng_from(seed, workload key, round,
slot)``, so a seed fixes every input and no input depends on how many items
ran before it. A round runs the workload's schedule once, slot by slot; the
schedule fixes the mix of item kinds, so every round costs about the same.

Each run function returns an ``Output``: the canonical JSON text the CLI
would print (hashed for the determinism checks), the objects the oracle
needs, and the item's contribution to the deterministic result sums.

Each oracle returns ``(value_ok, cert_ok, reason)``:

- ``value_ok`` is false when a reported value is wrong: a fixture outside
  its tolerance, a polygon an independent LP can cover, a cover verdict or
  witness that a direct check refutes, a failed inequality or a covering
  ratio that disagrees with the node-only LP.
- ``cert_ok`` is false when a billiard output fails the reflection law. The
  reported polygon and length are still consistent, but the output is no
  billiard trajectory (defect F1 in ROADMAP.md shows here).

An item fails when it raises or when either flag is false.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from minkbill import ballcut, billiards, fractional, oscillation, planks
from minkbill.geometry import (
    Ball,
    VPolytope,
    body_gauge,
    diff_gauge,
    euclidean_gauge,
    min_homothet_cover,
)
from minkbill.sampling import (
    grid_points,
    random_body_origin_interior,
    random_connected_graph,
    random_plank_cover,
    random_polytope,
    random_symmetric_polytope,
    rng_from,
)
from minkbill.util import canonical_json_dumps

TRIANGLE = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
SIMPLEX3 = VPolytope(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
_S = 2.0 / math.sqrt(3.0)
EQUILATERAL = VPolytope(np.array([[0.0, 0.0], [_S, 0.0], [_S / 2.0, 1.0]]))
DISK = Ball(np.zeros(2), 1.0)

# the acceptance sweep's billiard budgets (criteria 3-5; 3D bodies in 3)
BUDGET_2D = {"starts": 4, "stall_limit": 6}
BUDGET_3D = {"starts": 3, "stall_limit": 4}
OSC_SAMPLES = 512  # criterion 8's sample count

REFLECTION_TOL = 1e-6
LAMBDA_TOL = 1e-6
EQUALITY_TOL = 1e-9


@dataclass
class Output:
    text: str
    data: object
    sums: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Kind:
    make: object   # rng -> inputs dict
    run: object    # (inputs, tracer) -> Output
    check: object  # (inputs, Output) -> (value_ok, cert_ok, reason)


@dataclass(frozen=True)
class Workload:
    key: int
    schedule: tuple    # kind names, one per slot of a round
    det_rounds: int    # rounds whose items form the deterministic set
    kinds: dict


def _check_flag(inp, out):
    """Oracle for probes that report their own verdict as a bool."""
    return (True, True, "") if out.data else (False, True, "probe returned not ok")


# ---------------------------------------------------------------------------
# billiard: shortest_trajectory + verify_reflection (CLI `billiard`)

_GAUGES = {"diff": diff_gauge, "body": body_gauge,
           "euclidean": lambda K: euclidean_gauge(K.dim)}


def _ellipse_polygon(rng, n):
    """n points on a random ellipse, so all n are vertices (n facets)."""
    ang = 2.0 * np.pi * (np.arange(n) + 0.5 * rng.uniform(size=n)) / n
    a, b = 1.0, rng.uniform(0.5, 1.0)
    rot = rng.uniform(0.0, np.pi)
    c, s = math.cos(rot), math.sin(rot)
    pts = np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)
    return VPolytope(pts @ np.array([[c, s], [-s, c]]))


def _billiard_kind(body, gauge, budget=BUDGET_2D, ref=None, tol=None):
    def make(rng):
        K = body(rng) if callable(body) else body
        return {"K": K, "gauge": gauge, "budget": budget, "ref": ref,
                "tol": tol, "seed": int(rng.integers(2 ** 31))}
    return Kind(make, _run_billiard, _check_billiard)


def _run_billiard(inp, tr):
    K = inp["K"]
    g = _GAUGES[inp["gauge"]](K)
    with tr.span("billiards.solve"):
        traj = billiards.shortest_trajectory(K, g, seed=inp["seed"],
                                             **inp["budget"])
    with tr.span("billiards.reflect"):
        cert = billiards.verify_reflection(traj, K, g)
    text = canonical_json_dumps(traj.to_dict(violation=cert.max_violation))
    return Output(text, (traj, cert), {"length": traj.gauge_length})


def _check_billiard(inp, out):
    traj, cert = out.data
    if inp["ref"] is not None and abs(traj.gauge_length - inp["ref"]) > inp["tol"]:
        return False, True, f"fixture length {traj.gauge_length!r} != {inp['ref']!r}"
    lam = min_homothet_cover(inp["K"], traj.points).lam
    if abs(lam - 1.0) > LAMBDA_TOL:
        return False, True, f"independent LP lambda {lam!r} != 1"
    if cert.max_violation > REFLECTION_TOL:
        return True, False, f"reflection residual {cert.max_violation:.3g}"
    return True, True, ""


BILLIARD = Workload(
    key=1,
    # mostly random 2D bodies in the three gauge families of criteria 3-5,
    # between the exact fixtures and two many-facet polygons, then 3D bodies
    schedule=("diff2d", "asym2d", "sym2d", "triangle",
              "diff2d", "asym2d", "sym2d", "equilateral",
              "diff2d", "asym2d", "sym2d", "disk",
              "diff2d", "asym2d", "sym2d", "simplex3",
              "diff2d", "asym2d", "sym2d", "ngon24",
              "diff2d", "asym2d", "sym2d", "ngon32",
              "sym3d", "sym3d"),
    det_rounds=1,
    kinds={
        "diff2d": _billiard_kind(
            lambda rng: random_polytope(rng, dim=2, points=int(rng.integers(4, 9))),
            "diff"),
        "asym2d": _billiard_kind(
            lambda rng: random_body_origin_interior(rng, dim=2), "body"),
        "sym2d": _billiard_kind(
            lambda rng: random_symmetric_polytope(rng, dim=2, points=4), "body"),
        "sym3d": _billiard_kind(
            lambda rng: random_symmetric_polytope(rng, dim=3, points=4), "body",
            budget=BUDGET_3D),
        "ngon24": _billiard_kind(lambda rng: _ellipse_polygon(rng, 24), "diff"),
        "ngon32": _billiard_kind(lambda rng: _ellipse_polygon(rng, 32), "diff"),
        "triangle": _billiard_kind(TRIANGLE, "diff", ref=1.5, tol=1e-3),
        "equilateral": _billiard_kind(EQUILATERAL, "euclidean",
                                      ref=math.sqrt(3.0), tol=1e-3),
        "disk": _billiard_kind(DISK, "body", ref=4.0, tol=1e-3),
        "simplex3": _billiard_kind(SIMPLEX3, "diff", ref=4.0 / 3.0, tol=1e-2),
    },
)


# ---------------------------------------------------------------------------
# planks: bang_report on constructed covers (CLI `cover-check`) and
# almost_parallel_check (criterion 7)

def _bang_kind(dim, drop):
    def make(rng):
        points = int(rng.integers(4, 8)) if dim == 2 else int(rng.integers(5, 9))
        K = random_polytope(rng, dim=dim, points=points)
        cover = random_plank_cover(K, rng, max_planks=6)
        dropped = drop and len(cover) > 1
        if dropped:
            del cover[int(rng.integers(len(cover)))]
        return {"K": K, "planks": cover, "dropped": dropped}
    return Kind(make, _run_bang, _check_bang)


def _run_bang(inp, tr):
    rep = planks.bang_report(inp["K"], inp["planks"])
    return Output(canonical_json_dumps(rep.to_dict()), rep)


def _multiplicity(points, cover):
    vals = np.stack([points @ p.normal for p in cover], axis=1)
    lo = np.array([p.lo for p in cover])
    hi = np.array([p.hi for p in cover])
    return ((vals >= lo) & (vals <= hi)).sum(axis=1)


def _check_bang(inp, out):
    rep, K, cover = out.data, inp["K"], inp["planks"]
    if not inp["dropped"] and (not rep.covered or rep.alarm):
        return False, True, "constructed cover not reported covered without alarm"
    if not rep.covered:
        w = rep.witness
        if w is None or not K.contains(w):
            return False, True, "witness missing or outside K"
        if _multiplicity(w[None, :], cover)[0] >= 1:
            return False, True, "witness lies in a plank"
    elif inp["dropped"]:
        grid = grid_points(K)
        slack = [type(p)(p.normal, p.lo - 1e-9, p.hi + 1e-9) for p in cover]
        if (_multiplicity(grid, slack) < 1).any():
            return False, True, "reported covered, grid point uncovered"
    return True, True, ""


def _make_parallel(rng):
    k = int(rng.integers(1, 5))
    dim = int(rng.integers(2, 4))
    N = np.abs(rng.normal(size=(k, dim)))
    return {"normals": N / np.linalg.norm(N, axis=1, keepdims=True)}


def _run_parallel(inp, tr):
    N = inp["normals"]
    with tr.span("planks.parallel"):
        ok = planks.almost_parallel_check(N, euclidean_gauge(N.shape[1]),
                                          starts=4, iters=96)
    return Output(canonical_json_dumps({"ok": ok}), ok)


PLANKS = Workload(
    key=2,
    schedule=("bang2d", "bang2d_drop", "bang3d", "bang3d_drop") * 3 + ("parallel",),
    det_rounds=300,
    kinds={
        "bang2d": _bang_kind(2, False),
        "bang2d_drop": _bang_kind(2, True),
        "bang3d": _bang_kind(3, False),
        "bang3d_drop": _bang_kind(3, True),
        "parallel": Kind(_make_parallel, _run_parallel, _check_flag),
    },
)


# ---------------------------------------------------------------------------
# oscillation: verify_oscillation_bound (CLI `oscillation`), graph covers
# (criterion 9), and a light share of mahler_product and cut additivity

def _cubic_coeffs(rng):
    return {(i, j): float(rng.normal())
            for i in range(4) for j in range(4 - i) if i + j > 0}


def _osc_kind(body, variant, xi=None, coeffs=None, equality=False):
    def make(rng):
        K = body(rng) if callable(body) else body
        return {"K": K, "variant": variant, "xi": xi, "equality": equality,
                "coeffs": coeffs if coeffs is not None else _cubic_coeffs(rng)}
    return Kind(make, _run_osc, _check_osc)


def _run_osc(inp, tr):
    F = oscillation.PolynomialField(inp["coeffs"])
    with tr.span("oscillation.check"):
        lhs, rhs, ok = oscillation.verify_oscillation_bound(
            F, inp["K"], inp["variant"], samples=OSC_SAMPLES, xi=inp["xi"])
    text = canonical_json_dumps({"lhs": lhs, "rhs": rhs, "ok": ok,
                                 "variant": inp["variant"]})
    return Output(text, (lhs, rhs, ok), {"osc_lhs": lhs, "osc_rhs": rhs})


def _check_osc(inp, out):
    lhs, rhs, ok = out.data
    if not ok:
        return False, True, f"{inp['variant']}: lhs {lhs!r} < rhs {rhs!r}"
    if inp["equality"] and abs(lhs - rhs) > EQUALITY_TOL:
        return False, True, f"{inp['variant']} equality gap {lhs - rhs:.3g}"
    return True, True, ""


def _make_graph(rng):
    G = random_connected_graph(rng, max_edges=6)
    K = random_polytope(rng, dim=2, points=int(rng.integers(4, 8)))
    return {"G": G, "K": K}


def _run_graph(inp, tr):
    with tr.span("oscillation.graph"):
        h, lam, ok = oscillation.graph_cover_check(inp["G"], inp["K"])
    return Output(canonical_json_dumps({"h": h, "lambda": lam, "ok": ok}),
                  (h, lam, ok))


def _check_graph(inp, out):
    h, lam, ok = out.data
    if not ok:
        return False, True, f"lambda {lam!r} > h {h!r}"
    # a homothet covers a segment exactly when it covers both endpoints
    ref = min_homothet_cover(inp["K"], inp["G"].nodes).lam
    if abs(lam - ref) > EQUALITY_TOL * (1.0 + ref):
        return False, True, f"lambda {lam!r} != node-only {ref!r}"
    return True, True, ""


def _run_mahler(inp, tr):
    with tr.span("fractional.mahler"):
        product, bound, ok = fractional.mahler_product(inp["K"])
    return Output(canonical_json_dumps({"value": product, "bound": bound, "ok": ok}),
                  ok)


def _run_additivity(inp, tr):
    with tr.span("ballcut.additivity"):
        c1, c2, total, ok = ballcut.verify_cut_additivity(inp["tau0"])
    return Output(canonical_json_dumps({"c1": c1, "c2": c2, "sum": total, "ok": ok}),
                  ok)


OSCILLATION = Workload(
    key=3,
    schedule=("ball2x", "graph", "diff1x", "graph", "billiard", "graph",
              "ball2x", "graph", "diff1x", "graph", "billiard", "graph",
              "eq_ball2x", "graph", "eq_diff1x", "graph",
              "graph", "graph", "mahler", "additivity"),
    det_rounds=150,
    kinds={
        "ball2x": _osc_kind(lambda rng: random_symmetric_polytope(rng, dim=2),
                            "ball2x"),
        "diff1x": _osc_kind(lambda rng: random_body_origin_interior(rng, dim=2),
                            "diff1x"),
        # xi = 2 is exact for a symmetric body under its difference-body
        # gauge, so the billiard solver is bypassed
        "billiard": _osc_kind(lambda rng: random_symmetric_polytope(rng, dim=2),
                              "billiard", xi=2.0),
        "eq_ball2x": _osc_kind(DISK, "ball2x", coeffs={(1, 0): 0.7, (0, 1): -0.4},
                               equality=True),
        "eq_diff1x": _osc_kind(TRIANGLE, "diff1x", coeffs={(1, 0): 1.0},
                               equality=True),
        "graph": Kind(_make_graph, _run_graph, _check_graph),
        "mahler": Kind(
            lambda rng: {"K": random_polytope(rng, dim=2,
                                              points=int(rng.integers(3, 9)))},
            _run_mahler, _check_flag),
        "additivity": Kind(
            lambda rng: {"tau0": math.pi * int(rng.integers(1, 98)) / 98.0},
            _run_additivity, _check_flag),
    },
)

WORKLOADS = {"billiard": BILLIARD, "planks": PLANKS, "oscillation": OSCILLATION}


def make_inputs(workload: Workload, seed: int, rnd: int, slot: int):
    kind = workload.kinds[workload.schedule[slot]]
    return kind.make(rng_from(seed, workload.key, rnd, slot))

"""Planks, covering verification, and width-sum probes.

A plank is the closed region between two parallel hyperplanes. Its width
under a gauge is the gap divided by the dual gauge of the normal; with the
difference-body gauge of K this is the classical relative width.

`covering_check` decides coverage exactly: each point of K is classified by
a sign pattern (below / inside / above per plank), every pattern cuts out a
convex cell, and branch-and-bound over patterns finds the cell of minimal
covered weight. Complement cells are shrunk by a tiny margin so that planks
behave as closed sets: a covering that works up to the boundary counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BodyError, DimensionMismatch, InputError
from .geometry import Ball, ConvexBody, Gauge, diff_gauge, polygonize
from .lp import max_margin_point
from .sampling import grid_points, rng_from

_EPS_OPEN = 1e-9
_EXACT_LIMIT = 12
_HARD_LIMIT = 20


@dataclass
class Plank:
    normal: np.ndarray
    lo: float
    hi: float
    weight: float = 1.0

    def __post_init__(self):
        self.normal = np.asarray(self.normal, float)
        self.lo = float(self.lo)
        self.hi = float(self.hi)
        self.weight = float(self.weight)
        if self.normal.ndim != 1 or np.linalg.norm(self.normal) < 1e-14:
            raise InputError("plank normal must be a nonzero vector")
        if not (self.lo <= self.hi):
            raise InputError("plank needs lo <= hi")
        if self.weight < 0:
            raise InputError("plank weight must be nonnegative")

    def contains_value(self, v: float, tol: float = 1e-12) -> bool:
        return self.lo - tol <= v <= self.hi + tol

    def to_dict(self) -> dict:
        return {"normal": self.normal.tolist(), "lo": self.lo, "hi": self.hi,
                "weight": self.weight}


def plank_from_dict(obj) -> Plank:
    if not isinstance(obj, dict):
        raise InputError("plank JSON must be an object")
    try:
        return Plank(obj["normal"], obj["lo"], obj["hi"], obj.get("weight", 1.0))
    except KeyError as exc:
        raise InputError(f"plank JSON missing field {exc}") from exc


@dataclass
class CoveringReport:
    covered: bool
    min_multiplicity: float
    witness: Optional[np.ndarray]
    width_sum: float
    relative_width_sum: float
    alarm: bool = False
    warning: Optional[str] = None

    def to_dict(self) -> dict:
        out = {
            "covered": bool(self.covered),
            "min_multiplicity": float(self.min_multiplicity),
            "width_sum": float(self.width_sum),
            "relative_width_sum": float(self.relative_width_sum),
            "alarm": bool(self.alarm),
        }
        if self.witness is not None:
            out["witness"] = [float(v) for v in self.witness]
        if self.warning is not None:
            out["warning"] = self.warning
        return out


def plank_width(P: Plank, g: Gauge) -> float:
    """Plank gap measured against the dual gauge of its normal."""
    denom = g.dual(P.normal)
    if denom <= 1e-15:
        raise BodyError("normal has zero dual gauge")
    return (P.hi - P.lo) / denom


def _body_rows(K: ConvexBody):
    if isinstance(K, Ball):
        if K.dim != 2:
            raise BodyError("covering verification over balls is planar only")
        K = polygonize(K)
    U, b = K.facet_data()
    return K, U, b


def clip_halfplane(poly: np.ndarray, a, c: float) -> np.ndarray:
    """Clip a convex polygon (vertex rows) by the halfplane a.x <= c."""
    if len(poly) == 0:
        return poly
    vals = poly @ a - c
    nxt = np.roll(np.arange(len(poly)), -1)
    out = []
    for i, j in zip(range(len(poly)), nxt):
        vi, vj = vals[i], vals[j]
        if vi <= 0.0:
            out.append(poly[i])
        if (vi < 0.0 < vj) or (vj < 0.0 < vi):
            t = vi / (vi - vj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out) if out else np.empty((0, poly.shape[1]))


def _poly_area_centroid(poly: np.ndarray):
    x, y = poly[:, 0], poly[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    cross = x * yr - xr * y
    area2 = cross.sum()
    if abs(area2) < 1e-14:
        return 0.0, None
    cx = ((x + xr) * cross).sum() / (3.0 * area2)
    cy = ((y + yr) * cross).sum() / (3.0 * area2)
    return abs(area2) / 2.0, np.array([cx, cy])


def _pattern_weight_min_2d(body, planks):
    """Planar branch-and-bound with incremental polygon clipping."""
    m = len(planks)
    from .geometry import _as_vertex_body
    cell0 = _as_vertex_body(body).vertices
    best = [math.inf, None]

    def recurse(i, cell, weight):
        if weight >= best[0]:
            return
        if i == m:
            area, center = _poly_area_centroid(cell)
            if area > 1e-18 and center is not None:
                best[0] = weight
                best[1] = center
            return
        p = planks[i]
        s = np.linalg.norm(p.normal)
        n_unit = p.normal / s
        lo_u, hi_u = p.lo / s, p.hi / s
        gap = _EPS_OPEN * (1.0 + abs(lo_u) + abs(hi_u))
        # complements first; all three clips start from the parent cell
        for rows, dw in ((((n_unit, lo_u - gap),), 0.0),
                         (((-n_unit, -hi_u - gap),), 0.0),
                         (((n_unit, hi_u), (-n_unit, -lo_u)), p.weight)):
            if weight + dw >= best[0]:
                continue
            sub = cell
            for a, c in rows:
                sub = clip_halfplane(sub, np.asarray(a), c)
                if len(sub) < 3:
                    sub = None
                    break
            if sub is not None and _poly_area_centroid(sub)[0] > 1e-18:
                recurse(i + 1, sub, weight + dw)

    recurse(0, cell0, 0.0)
    return best[0], best[1]


def _pattern_weight_min(U, b, planks):
    """Branch-and-bound over sign patterns; returns (min weight, witness)."""
    m = len(planks)
    norms = [p.normal / np.linalg.norm(p.normal) for p in planks]
    scale = [np.linalg.norm(p.normal) for p in planks]
    best = [math.inf, None, None]

    # rows carried as (matrix rows, offsets); body rows are already unit
    def recurse(i, rows_a, rows_b, weight, point, margin):
        if weight >= best[0]:
            return
        if i == m:
            best[0] = weight
            best[1] = np.asarray(point)
            best[2] = (rows_a, rows_b)
            return
        p, n_unit, s = planks[i], norms[i], scale[i]
        lo_u, hi_u = p.lo / s, p.hi / s
        gap = _EPS_OPEN * (1.0 + abs(lo_u) + abs(hi_u))
        # complements first: they add no weight, deepest cuts come free
        branches = (
            ((n_unit, lo_u - gap), 0.0),            # strictly below
            ((-n_unit, -hi_u - gap), 0.0),          # strictly above
            (None, p.weight),                       # inside (two rows)
        )
        for rowspec, dw in branches:
            if weight + dw >= best[0]:
                continue
            if rowspec is None:
                new_a = [n_unit, -n_unit]
                new_b = [hi_u, -lo_u]
            else:
                new_a = [rowspec[0]]
                new_b = [rowspec[1]]
            vals = [a @ point - bb for a, bb in zip(new_a, new_b)]
            worst = max(vals)
            if worst <= -1e-12 and margin > 1e-12:
                # the parent's interior point already satisfies the new rows
                recurse(i + 1, rows_a + new_a, rows_b + new_b, weight + dw,
                        point, min(margin, -worst))
                continue
            A = np.asarray(rows_a + new_a)
            B = np.asarray(rows_b + new_b)
            x, marg = max_margin_point(A, B)
            if marg <= 1e-12:
                continue  # empty (or boundary-only) cell
            recurse(i + 1, rows_a + new_a, rows_b + new_b, weight + dw, x, marg)

    x0, m0 = max_margin_point(U, b)
    if m0 <= 1e-12:
        raise BodyError("body has empty interior")
    recurse(0, list(U), list(b), 0.0, x0, m0)
    witness = best[1]
    if best[2] is not None:
        # the stored point may be inherited from a parent cell; re-center it
        rows_a, rows_b = best[2]
        witness, _ = max_margin_point(np.asarray(rows_a), np.asarray(rows_b))
    return best[0], witness


def covering_check(K: ConvexBody, planks, threshold: float = 1.0) -> CoveringReport:
    """Exact (pattern enumeration) or sampled coverage verdict for K.

    Exact up to 12 planks; beyond that a deterministic dense grid takes over
    and the report carries a warning. More than 20 planks is refused.
    """
    planks = list(planks)
    if len(planks) > _HARD_LIMIT:
        raise InputError(f"at most {_HARD_LIMIT} planks are supported")
    for p in planks:
        if p.normal.shape != (K.dim,):
            raise DimensionMismatch("plank normal dimension differs from body")
    body, U, b = _body_rows(K)
    euclid = sum((p.hi - p.lo) / np.linalg.norm(p.normal) for p in planks)
    gd = diff_gauge(K)
    rel = sum(plank_width(p, gd) for p in planks)

    warning = None
    if len(planks) > _EXACT_LIMIT:
        warning = "plank count above exact enumeration budget; grid sampling used"
        pts = grid_points(body, per_axis=max(8, int(10000 ** (1.0 / K.dim))))
        vals = np.stack([pts @ p.normal for p in planks], axis=1)
        inside = np.stack([(p.lo - 1e-12 <= vals[:, i]) & (vals[:, i] <= p.hi + 1e-12)
                           for i, p in enumerate(planks)], axis=1)
        weights = np.asarray([p.weight for p in planks])
        mult = inside @ weights
        k = int(np.argmin(mult))
        min_mult = float(mult[k])
        witness = pts[k] if min_mult < threshold - 1e-9 else None
    elif K.dim == 2:
        min_mult, witness = _pattern_weight_min_2d(body, planks)
        if min_mult == math.inf:
            min_mult = 0.0
    else:
        min_mult, witness = _pattern_weight_min(U, b, planks)
        if min_mult == math.inf:
            min_mult = 0.0

    covered = min_mult >= threshold - 1e-9
    return CoveringReport(
        covered=covered,
        min_multiplicity=float(min_mult),
        witness=None if covered else witness,
        width_sum=float(euclid),
        relative_width_sum=float(rel),
        warning=warning,
    )


def bang_report(K: ConvexBody, planks, tol: float = 1e-6) -> CoveringReport:
    """Coverage verdict plus the relative-width-sum probe.

    When the planks do cover K, the sum of their relative widths is expected
    to be at least 1; a covered instance with a smaller sum raises the alarm
    flag instead of failing silently.
    """
    unit = [Plank(p.normal, p.lo, p.hi, 1.0) for p in planks]
    report = covering_check(K, unit, threshold=1.0)
    report.alarm = bool(report.covered and report.relative_width_sum < 1.0 - tol)
    return report


# ---------------------------------------------------------------------------
# almost-parallel families

def almost_parallel_check(normals, g: Gauge, tol: float = 1e-6,
                          starts: int = 8, iters: int = 256) -> bool:
    """Test the defining inequality of an almost parallel family of normals.

    For each index j the dual gauge of sum(c_i n_i) is brought down over
    nonnegative weights with c_j fixed to 1; the family passes when every
    minimum stays above 1 - tol. Minimization is projected subgradient
    descent with deterministic multi-starts. Descent only ever evaluates
    true values of the objective, so a passing family can not be failed by
    a small iteration budget; the budget only affects how hard a genuine
    violation is hunted.
    """
    N = np.atleast_2d(np.asarray(normals, float))
    m = len(N)
    if N.shape[1] != g.dim:
        raise DimensionMismatch("normal dimension differs from gauge")
    if (np.abs(g.duals(N) - 1.0) > 1e-6).any():
        raise InputError("normals must be dual-unit for this check")

    rng = rng_from(0, 777)
    for j in range(m):
        # all starts for this j descend together, one row of C each
        randoms = rng.uniform(0.0, 1.5, size=(max(0, int(starts) - 1), m))
        C = np.vstack([np.eye(m)[j], randoms])
        C[:, j] = 1.0
        val = g.duals(C @ N)
        for t in range(int(iters)):
            sub = g.support_points(C @ N) @ N.T
            step = 0.25 / math.sqrt(t + 1.0)
            C = C - step * sub
            C[C < 0.0] = 0.0
            C[:, j] = 1.0
            val = np.minimum(val, g.duals(C @ N))
        if val.min() < 1.0 - tol:
            return False
    return True


# ---------------------------------------------------------------------------
# axis-parallel two-direction probe

def _axis_strip(axis: int, dim: int, lo: float, hi: float) -> Plank:
    e = np.zeros(dim)
    e[axis] = 1.0
    return Plank(e, lo, hi)


def _partitions(splits, overlap=0.0):
    """Closed intervals covering [0,1] with the given interior breakpoints."""
    cuts = [0.0] + sorted(splits) + [1.0]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        out.append((max(0.0, a - overlap), min(1.0, b + overlap)))
    return out


def two_directions_probe(K2: ConvexBody, trials: int = 1000, seed: int = 0) -> float:
    """Minimal width sum found over random axis-parallel coverings of K2.

    K2 must touch all four sides of the unit square. The claim being
    probed says no covering by horizontal and vertical planks has width sum
    below 1, so the return value is expected to be >= 1 up to tolerance;
    anything smaller is a counterexample candidate worth manual inspection.
    """
    if K2.dim != 2:
        raise DimensionMismatch("probe requires a planar body")
    sup = [K2.support(np.array(d, float)) for d in
           [(1, 0), (-1, 0), (0, 1), (0, -1)]]
    if max(abs(sup[0] - 1.0), abs(sup[1]), abs(sup[2] - 1.0), abs(sup[3])) > 1e-7:
        raise InputError("body must be inscribed in the unit square [0,1]^2")

    poly = polygonize(K2) if isinstance(K2, Ball) else K2
    verts = poly.vertices
    rng = rng_from(seed, 6262)
    best = math.inf

    def try_cover(planks):
        nonlocal best
        total = sum(p.hi - p.lo for p in planks)
        if total >= best:
            return
        if covering_check(K2, planks, threshold=1.0).covered:
            best = total

    # deterministic baselines: single full strips and half/half splits
    try_cover([_axis_strip(0, 2, 0.0, 1.0)])
    try_cover([_axis_strip(1, 2, 0.0, 1.0)])
    for s in (0.25, 0.5, 0.75):
        try_cover([_axis_strip(0, 2, 0.0, s), _axis_strip(0, 2, s, 1.0)])
        try_cover([_axis_strip(1, 2, 0.0, s), _axis_strip(1, 2, s, 1.0)])

    proj = [np.sort(verts[:, 0]), np.sort(verts[:, 1])]
    for _ in range(int(trials)):
        planks = []
        for axis in (0, 1):
            k = int(rng.integers(0, 5))
            if k == 0:
                continue
            if k > 1:
                base = rng.choice(proj[axis], size=k - 1)
                jitter = rng.normal(scale=0.02, size=k - 1)
                splits = np.clip(base + jitter, 0.0, 1.0)
            else:
                splits = []
            shrink = rng.uniform(0.0, 0.12)
            for lo, hi in _partitions(list(splits)):
                lo2, hi2 = lo, hi
                if rng.uniform() < 0.5:
                    lo2 = min(hi, lo + shrink * rng.uniform())
                if rng.uniform() < 0.5:
                    hi2 = max(lo2, hi - shrink * rng.uniform())
                planks.append(_axis_strip(axis, 2, lo2, hi2))
        if not planks or len(planks) > 8:
            continue
        try_cover(planks)
    return float(best)

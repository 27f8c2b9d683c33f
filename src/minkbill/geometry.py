"""Convex bodies, gauges, and smallest-covering-homothet machinery.

Bodies come in three representations: vertex polytopes, facet polytopes, and
balls. Polytopes are supported in dimensions 2 and 3; balls in any dimension.
Facet data is always stored with unit outward normals, ``<u, x> <= b``.

The central nonstandard primitive is ``min_homothet_cover``: the smallest
``lambda`` such that ``lambda * K + t`` covers a finite point set, together
with a covering translation. For a facet body this is the linear program

    min lambda  s.t.  <u_j, s - t> <= lambda * b_j  for all s, j,

which collapses to one constraint per facet after taking the per-facet max
over the points. ``HomothetLambda`` precomputes the dual basic solutions of
that LP once per body, after which each evaluation is a matrix-vector product
and a max; this is what the billiard solver calls in its inner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from .errors import BodyError, DimensionMismatch, GaugeError, InputError, LPError
from .lp import max_margin_point, solve_lp
from .util import as_float_array


def _dedupe_rows(rows, decimals=9):
    rounded = np.round(rows, decimals)
    _, keep = np.unique(rounded, axis=0, return_index=True)
    return rows[np.sort(keep)]


def _hull(points):
    try:
        return ConvexHull(points)
    except QhullError as exc:
        raise BodyError(f"degenerate point set (no full-dimensional hull): {exc}") from exc


class ConvexBody:
    dim: int

    def support(self, y) -> float:
        raise NotImplementedError

    def support_point(self, y) -> np.ndarray:
        raise NotImplementedError

    def facet_data(self):
        """(unit normals, offsets) with <u, x> <= b describing the body."""
        raise NotImplementedError

    def contains(self, x, tol=1e-9) -> bool:
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def translate(self, t) -> "ConvexBody":
        raise NotImplementedError

    def scale(self, a: float) -> "ConvexBody":
        """Homothety about the origin with ratio a > 0."""
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError


class VPolytope(ConvexBody):
    """Convex hull of finitely many points in dimension 2 or 3."""

    def __init__(self, vertices):
        pts = as_float_array(vertices, "vertices")
        if pts.ndim != 2:
            raise BodyError("vertices must be a 2d array")
        if pts.shape[1] not in (2, 3):
            raise BodyError("polytopes are supported in dimensions 2 and 3")
        if pts.shape[0] < pts.shape[1] + 1:
            raise BodyError("too few vertices for a full-dimensional body")
        self.dim = pts.shape[1]
        hull = _hull(pts)
        if self.dim == 2:
            self._vertices = pts[hull.vertices]  # counterclockwise
        else:
            self._vertices = pts[np.sort(hull.vertices)]
        eqs = _dedupe_rows(hull.equations)
        self._normals = eqs[:, :-1]
        self._offsets = -eqs[:, -1]

    @property
    def vertices(self):
        return self._vertices

    def facet_data(self):
        return self._normals, self._offsets

    def support(self, y):
        y = np.asarray(y, float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("direction has wrong dimension")
        return float((self._vertices @ y).max())

    def support_point(self, y):
        y = np.asarray(y, float)
        vals = self._vertices @ y
        return self._vertices[int(np.argmax(vals))].copy()

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, float)
        return bool((self._normals @ x - self._offsets <= tol).all())

    def interior_point(self):
        return self._vertices.mean(axis=0)

    def translate(self, t):
        return VPolytope(self._vertices + np.asarray(t, float))

    def scale(self, a):
        if a <= 0:
            raise BodyError("scale ratio must be positive")
        return VPolytope(self._vertices * float(a))

    def bounding_box(self):
        return self._vertices.min(axis=0), self._vertices.max(axis=0)

    def __repr__(self):
        return f"VPolytope({len(self._vertices)} vertices, dim {self.dim})"


class HPolytope(ConvexBody):
    """Bounded intersection of halfspaces <n_i, x> <= c_i in dimension 2 or 3."""

    def __init__(self, normals, offsets):
        normals = as_float_array(normals, "normals")
        offsets = as_float_array(offsets, "offsets")
        if normals.ndim != 2 or normals.shape[1] not in (2, 3):
            raise BodyError("normals must be rows of dimension 2 or 3")
        if offsets.shape != (normals.shape[0],):
            raise BodyError("offsets length must match normals")
        lengths = np.linalg.norm(normals, axis=1)
        if (lengths < 1e-12).any():
            raise BodyError("zero normal vector")
        self.dim = normals.shape[1]
        self._normals = normals / lengths[:, None]
        self._offsets = offsets / lengths
        self._vertex_cache = None
        self._interior_cache = None

    def facet_data(self):
        return self._normals, self._offsets

    def interior_point(self):
        if self._interior_cache is None:
            x, margin = max_margin_point(self._normals, self._offsets)
            if margin <= 1e-12:
                raise BodyError("halfspace body has empty interior")
            self._interior_cache = x
        return self._interior_cache

    @property
    def vertices(self):
        # vertex enumeration through the polar of the recentered body
        if self._vertex_cache is None:
            c = self.interior_point()
            b = self._offsets - self._normals @ c
            duals = self._normals / b[:, None]
            hull = _hull(duals)
            eqs = hull.equations
            if (eqs[:, -1] > -1e-12).any():
                raise BodyError("halfspace body is unbounded")
            eqs = _dedupe_rows(eqs)
            verts = eqs[:, :-1] / (-eqs[:, -1][:, None]) + c
            self._vertex_cache = _dedupe_rows(verts)
        return self._vertex_cache

    def support(self, y):
        y = np.asarray(y, float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("direction has wrong dimension")
        return float((self.vertices @ y).max())

    def support_point(self, y):
        vals = self.vertices @ np.asarray(y, float)
        return self.vertices[int(np.argmax(vals))].copy()

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, float)
        return bool((self._normals @ x - self._offsets <= tol).all())

    def translate(self, t):
        t = np.asarray(t, float)
        return HPolytope(self._normals, self._offsets + self._normals @ t)

    def scale(self, a):
        if a <= 0:
            raise BodyError("scale ratio must be positive")
        return HPolytope(self._normals, self._offsets * float(a))

    def bounding_box(self):
        v = self.vertices
        return v.min(axis=0), v.max(axis=0)

    def __repr__(self):
        return f"HPolytope({len(self._normals)} facets, dim {self.dim})"


class Ball(ConvexBody):
    def __init__(self, center, radius):
        center = np.atleast_1d(as_float_array(center, "center"))
        radius = float(radius)
        if center.ndim != 1:
            raise BodyError("center must be a vector")
        if not np.isfinite(radius) or radius <= 0:
            raise BodyError("radius must be positive and finite")
        self.center = center
        self.radius = radius
        self.dim = center.size

    def support(self, y):
        y = np.asarray(y, float)
        if y.shape != (self.dim,):
            raise DimensionMismatch("direction has wrong dimension")
        return float(self.center @ y + self.radius * np.linalg.norm(y))

    def support_point(self, y):
        y = np.asarray(y, float)
        ny = np.linalg.norm(y)
        if ny < 1e-15:
            return self.center.copy()
        return self.center + self.radius * y / ny

    def facet_data(self):
        raise BodyError("a ball has no facet representation; polygonize first")

    def contains(self, x, tol=1e-9):
        return bool(np.linalg.norm(np.asarray(x, float) - self.center) <= self.radius + tol)

    def interior_point(self):
        return self.center.copy()

    def translate(self, t):
        return Ball(self.center + np.asarray(t, float), self.radius)

    def scale(self, a):
        if a <= 0:
            raise BodyError("scale ratio must be positive")
        return Ball(self.center * float(a), self.radius * float(a))

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def __repr__(self):
        return f"Ball(r={self.radius:g}, dim {self.dim})"


def polygonize(body, n=720):
    """Inscribed n-gon replacement for a 2d ball; polytopes pass through.

    n is kept divisible by 4 so the polygon touches the ball's axis-aligned
    bounding box exactly.
    """
    if isinstance(body, (VPolytope, HPolytope)):
        return body
    if not isinstance(body, Ball):
        raise BodyError(f"unsupported body {body!r}")
    if body.dim != 2:
        raise BodyError("polygonize handles 2d balls only")
    n = int(n)
    if n % 4:
        n += 4 - n % 4
    ang = 2.0 * np.pi * np.arange(n) / n
    pts = body.center + body.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return VPolytope(pts)


# ---------------------------------------------------------------------------
# gauges

class Gauge:
    """Minkowski functional of a convex unit ball with the origin interior.

    Not assumed symmetric: gauge(x) != gauge(-x) in general. The dual value
    of y is the support function of the unit ball at y. ``values``,
    ``duals`` and ``support_points`` evaluate many rows at once; ``value``,
    ``dual`` and ``support_point`` are their single-point forms.
    """

    def __init__(self, unit_ball: ConvexBody, label: str = "custom"):
        self.unit_ball = unit_ball
        self.dim = unit_ball.dim
        self.label = label
        if isinstance(unit_ball, Ball):
            gap = unit_ball.radius - np.linalg.norm(unit_ball.center)
            if gap <= 1e-12 * unit_ball.radius:
                raise GaugeError("origin is not interior to the unit ball")
            self._mode = "ball"
            self._centred = not unit_ball.center.any()
        else:
            normals, offsets = unit_ball.facet_data()
            if (offsets <= 1e-12).any():
                raise GaugeError("origin is not interior to the unit ball")
            self._mode = "poly"
            self._U = normals
            self._b = offsets
        self._symmetric = None

    def value(self, x) -> float:
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise DimensionMismatch("point has wrong dimension")
        if self._mode == "poly":
            return float(max((self._U @ x / self._b).max(), 0.0))
        c, r = self.unit_ball.center, self.unit_ball.radius
        a = r * r - c @ c
        s = x @ c
        q = x @ x
        return float((math.sqrt(s * s + a * q) - s) / a)

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, float)
        if X.ndim == 1:
            X = X[None, :]
        if self._mode == "poly":
            vals = (self._U @ X.T) / self._b[:, None]
            return np.maximum(vals.max(axis=0), 0.0)
        c, r = self.unit_ball.center, self.unit_ball.radius
        q = (X * X).sum(axis=1)
        if self._centred:
            # the billiard search evaluates a few edges at a time, so the
            # per-call cost matters more here than anywhere else
            return np.sqrt(q) / r
        a = r * r - c @ c
        s = X @ c
        return (np.sqrt(s * s + a * q) - s) / a

    def dual(self, y) -> float:
        return self.unit_ball.support(y)

    def duals(self, Y) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, float))
        if self._mode == "poly":
            # both polytope classes keep their vertex table
            return (Y @ self.unit_ball.vertices.T).max(axis=1)
        B = self.unit_ball
        return B.radius * np.linalg.norm(Y, axis=1) + Y @ B.center

    def support_point(self, y) -> np.ndarray:
        return self.unit_ball.support_point(y)

    def support_points(self, Y) -> np.ndarray:
        """Rows of unit-ball points attaining ``duals(Y)``."""
        Y = np.atleast_2d(np.asarray(Y, float))
        if self._mode == "poly":
            V = self.unit_ball.vertices
            return V[np.argmax(Y @ V.T, axis=1)]
        B = self.unit_ball
        n = np.linalg.norm(Y, axis=1)
        # rows of zero length map to the centre, as in support_point
        return B.center + B.radius * Y / np.where(n < 1e-15, 1.0, n)[:, None]

    @property
    def symmetric(self) -> bool:
        if self._symmetric is None:
            if self._mode == "ball":
                self._symmetric = bool(
                    np.linalg.norm(self.unit_ball.center) <= 1e-9 * self.unit_ball.radius)
            else:
                h, hneg = self.duals(self._U), self.duals(-self._U)
                scale = np.abs(h).max() + 1.0
                self._symmetric = bool(np.abs(h - hneg).max() <= 1e-9 * scale)
        return self._symmetric


def euclidean_gauge(dim: int) -> Gauge:
    return Gauge(Ball(np.zeros(dim), 1.0), label="euclidean")


def body_gauge(body: ConvexBody) -> Gauge:
    return Gauge(body, label="body")


def diff_gauge(body: ConvexBody) -> Gauge:
    return Gauge(difference_body(body), label="diff")


# ---------------------------------------------------------------------------
# body algebra

def _as_vertex_body(K) -> VPolytope:
    if isinstance(K, VPolytope):
        return K
    if isinstance(K, HPolytope):
        return VPolytope(K.vertices)
    raise BodyError("vertex representation required")


def difference_body(K: ConvexBody) -> ConvexBody:
    """K + (-K), the centrally symmetric difference body."""
    if isinstance(K, Ball):
        return Ball(np.zeros(K.dim), 2.0 * K.radius)
    V = _as_vertex_body(K).vertices
    diffs = (V[:, None, :] - V[None, :, :]).reshape(-1, K.dim)
    return VPolytope(_dedupe_rows(diffs))


def polar(B: ConvexBody) -> ConvexBody:
    """Polar body {y : <y, x> <= 1 for all x in B}; origin must be interior."""
    if isinstance(B, Ball):
        if np.linalg.norm(B.center) <= 1e-12 * B.radius:
            return Ball(np.zeros(B.dim), 1.0 / B.radius)
        if B.dim == 2:
            return polar(polygonize(B))
        raise BodyError("polar of an off-center ball is not representable here")
    normals, offsets = B.facet_data()
    if (offsets <= 1e-12).any():
        raise GaugeError("origin is not interior to the body")
    if isinstance(B, VPolytope):
        return HPolytope(B.vertices, np.ones(len(B.vertices)))
    return VPolytope(normals / offsets[:, None])


def volume(K: ConvexBody) -> float:
    if isinstance(K, Ball):
        d = K.dim
        return float(math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * K.radius ** d)
    V = _as_vertex_body(K).vertices
    d = V.shape[1]
    if d == 2:
        x, y = V[:, 0], V[:, 1]
        return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)) / 2.0)
    hull = _hull(V)
    c = V.mean(axis=0)
    total = 0.0
    for simplex in hull.simplices:
        a, b2, c2 = V[simplex] - c
        total += abs(np.linalg.det(np.stack([a, b2, c2]))) / 6.0
    return float(total)


# ---------------------------------------------------------------------------
# smallest covering homothet

@dataclass
class HomothetFit:
    lam: float
    translation: np.ndarray


def _recenter_facets(K):
    normals, offsets = K.facet_data()
    c = K.interior_point()
    b = offsets - normals @ c
    if (b <= 1e-12).any():
        raise BodyError("interior point is not strictly interior")
    return normals, b, c


def min_homothet_cover(K: ConvexBody, points, tol=1e-9) -> HomothetFit:
    pts = np.atleast_2d(as_float_array(points, "points"))
    if pts.shape[1] != K.dim:
        raise DimensionMismatch("points and body dimensions differ")
    if isinstance(K, Ball):
        center, radius = smallest_enclosing_ball(pts)
        lam = radius / K.radius
        return HomothetFit(float(lam), center - lam * K.center)
    U, b, c = _recenter_facets(K)
    h = (U @ pts.T).max(axis=1)
    d = K.dim
    # variables (lambda, t): min lambda s.t. U t + lambda b >= h
    cost = np.zeros(d + 1)
    cost[0] = 1.0
    a_ub = np.hstack([-b[:, None], -U])
    nonneg = np.zeros(d + 1, bool)
    nonneg[0] = True
    res = solve_lp(cost, a_ub=a_ub, b_ub=-h, nonneg=nonneg, tol=tol)
    if not res.ok:
        raise LPError(f"homothet LP failed: {res.status}")
    lam = res.x[0]
    t = res.x[1:] - lam * c
    return HomothetFit(float(lam), t)


def is_noncoverable(points, K: ConvexBody, tol=1e-9) -> bool:
    """True iff no homothet lambda*K + t with lambda < 1 covers the points."""
    return min_homothet_cover(K, points, tol=tol).lam >= 1.0 - tol


class HomothetLambda:
    """Fast exact evaluator of min_homothet_cover(K, .).lam for a fixed body.

    Enumerates the basic feasible solutions of the dual program
    max h.y s.t. U^T y = 0, b.y = 1, y >= 0 once; each later evaluation is
    max over candidates of y.h, a single matvec.
    """

    def __init__(self, K: ConvexBody):
        self.dim = K.dim
        if isinstance(K, Ball):
            self._ball = (K.center, K.radius)
            self._W = None
            return
        self._ball = None
        U, b, _ = _recenter_facets(K)
        self._U = U
        self._W = _dual_candidates(U, b)

    def __call__(self, pts) -> float:
        pts = np.atleast_2d(np.asarray(pts, float))
        if self._ball is not None:
            if len(pts) == 2:
                radius = 0.5 * float(np.linalg.norm(pts[0] - pts[1]))
            else:
                _, radius = smallest_enclosing_ball(pts)
            return float(radius / self._ball[1])
        h = (self._U @ pts.T).max(axis=1)
        return float(max((self._W @ h).max(), 0.0))


# facet subsets of size d+1 that _dual_candidates may enumerate; the dense
# working arrays grow with this count (720 facets in 2D would need 4.5 GB)
_MAX_DUAL_SUBSETS = 100_000


def _dual_candidates(U, b):
    F, d = U.shape
    subsets = math.comb(F, d + 1)
    if subsets > _MAX_DUAL_SUBSETS:
        raise InputError(f"{F} facets in dimension {d} give {subsets} facet subsets; "
                         f"the covering-ratio table allows at most {_MAX_DUAL_SUBSETS}")
    rows = []

    # support pairs: antiparallel normals
    G = U @ U.T
    for i, j in zip(*np.where(np.triu(G < -1.0 + 1e-10, k=1))):
        yi, yj = 1.0, 1.0
        s = yi * b[i] + yj * b[j]
        row = np.zeros(F)
        row[i] = yi / s
        row[j] = yj / s
        rows.append(row)

    if d == 3 and F >= 3:
        # support triples whose normals are linearly dependent with the offsets
        idx = np.array(list(combinations(range(F), 3)))
        M = np.empty((len(idx), 4, 3))
        M[:, :3, :] = np.swapaxes(U[idx], 1, 2)
        M[:, 3, :] = b[idx]
        e = np.zeros(4)
        e[3] = 1.0
        pinv = np.linalg.pinv(M)
        ys = pinv @ e
        resid = np.linalg.norm(M @ ys[..., None] - e[:, None], axis=(1, 2))
        good = (resid < 1e-9) & (ys > -1e-10).all(axis=1) & (np.abs(ys).max(axis=1) < 1e9)
        for k in np.where(good)[0]:
            row = np.zeros(F)
            row[idx[k]] = np.clip(ys[k], 0.0, None)
            rows.append(row)

    if F >= d + 1:
        idx = np.array(list(combinations(range(F), d + 1)))
        M = np.empty((len(idx), d + 1, d + 1))
        M[:, :d, :] = np.swapaxes(U[idx], 1, 2)
        M[:, d, :] = b[idx]
        dets = np.linalg.det(M)
        solvable = np.abs(dets) > 1e-12
        e = np.zeros(d + 1)
        e[d] = 1.0
        if solvable.any():
            rhs = np.broadcast_to(e[:, None], (int(solvable.sum()), d + 1, 1)).copy()
            ys = np.linalg.solve(M[solvable], rhs)[..., 0]
            keep = (ys > -1e-10).all(axis=1) & (np.abs(ys).max(axis=1) < 1e9)
            sub = idx[solvable][keep]
            for row_idx, y in zip(sub, ys[keep]):
                row = np.zeros(F)
                row[row_idx] = np.clip(y, 0.0, None)
                rows.append(row)

    if not rows:
        raise BodyError("no dual basis found; body looks unbounded or degenerate")
    return np.asarray(rows)


# ---------------------------------------------------------------------------
# smallest enclosing ball (dimensions 2 and 3)

def _seb_small(P):
    """Smallest enclosing balls of a batch of point sets of up to ~5 points
    each, by support-set enumeration.

    P has shape (sets, points, d). Every candidate ball is the circumball of
    a subset of 2..d+1 points; the smallest covering candidate is the
    answer. Returns the centres (sets, d) and the radii (sets,).
    """
    n, k, d = P.shape
    I, J = np.triu_indices(k, 1)
    centers = [0.5 * (P[:, I] + P[:, J])]
    subset_sizes = [3] if d == 2 else [3, 4]
    for size in subset_sizes:
        if k < size:
            break
        idx = np.array(list(combinations(range(k), size)))
        base = P[:, idx[:, 0]]
        V = P[:, idx[:, 1:]] - base[:, :, None, :]
        G = 2.0 * V @ np.swapaxes(V, -1, -2)
        rhs = np.einsum("...jk,...jk->...j", V, V)
        dets = np.linalg.det(G)
        ok = np.abs(dets) > 1e-13 * (1.0 + np.abs(G).max(axis=(1, 2, 3)))[:, None]
        # singular systems get the identity and then an infinite radius
        lam = np.linalg.solve(np.where(ok[..., None, None], G, np.eye(size - 1)),
                              rhs[..., None])[..., 0]
        c = base + np.einsum("...j,...jk->...k", lam, V)
        c[~ok] = np.inf
        centers.append(c)
    C = np.concatenate(centers, axis=1)
    # covering radius of each candidate center; the smallest one is the
    # exact optimum because the true center appears among the candidates
    R = np.linalg.norm(C[:, :, None, :] - P[:, None, :, :], axis=-1).max(axis=-1)
    best = np.argmin(R, axis=1)
    rows = np.arange(n)
    return C[rows, best], R[rows, best]


def _circumball(boundary):
    if not boundary:
        return np.zeros(0), -1.0
    pts = np.asarray(boundary, float)
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), 0.0
    V = pts[1:] - p0
    G = 2.0 * V @ V.T
    rhs = np.einsum("ij,ij->i", V, V)
    lam, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    center = p0 + lam @ V
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    return center, radius


def _seb_with_boundary(pts, order, boundary, dim):
    center, radius = _circumball(boundary)
    if len(boundary) == dim + 1:
        return center, radius
    for i, k in enumerate(order):
        p = pts[k]
        if radius < 0 or np.linalg.norm(p - center) > radius * (1 + 1e-12) + 1e-12:
            center, radius = _seb_with_boundary(pts, order[:i], boundary + [p], dim)
    return center, radius


def smallest_enclosing_ball(points, seed=0):
    """Exact smallest enclosing ball (Welzl; subset enumeration when tiny)."""
    pts = np.atleast_2d(np.asarray(points, float))
    n, d = pts.shape
    if d > 3 and n > d + 2:
        raise BodyError("smallest enclosing ball implemented for d <= 3")
    if n == 1:
        return pts[0].copy(), 0.0
    if n <= 5:
        center, radius = _seb_small(pts[None])
        return center[0], float(radius[0])
    order = np.random.default_rng(seed).permutation(n)
    center, radius = _seb_with_boundary(pts, list(order), [], d)
    return center, float(radius)


# ---------------------------------------------------------------------------
# JSON representation

def body_to_dict(K: ConvexBody) -> dict:
    if isinstance(K, VPolytope):
        return {"type": "vpolytope", "vertices": K.vertices.tolist()}
    if isinstance(K, HPolytope):
        normals, offsets = K.facet_data()
        return {"type": "hpolytope", "normals": normals.tolist(),
                "offsets": offsets.tolist()}
    if isinstance(K, Ball):
        return {"type": "ball", "center": K.center.tolist(), "radius": K.radius}
    raise BodyError(f"unsupported body {K!r}")


def body_from_dict(obj) -> ConvexBody:
    if not isinstance(obj, dict):
        raise InputError("body JSON must be an object")
    kind = obj.get("type")
    try:
        if kind == "vpolytope":
            return VPolytope(obj["vertices"])
        if kind == "hpolytope":
            return HPolytope(obj["normals"], obj["offsets"])
        if kind == "ball":
            return Ball(obj["center"], obj["radius"])
    except KeyError as exc:
        raise InputError(f"body JSON missing field {exc}") from exc
    raise InputError(f"unknown body type {kind!r}")

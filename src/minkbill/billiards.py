"""Shortest closed billiard trajectories in a convex body under a gauge.

``shortest_trajectory`` solves every input exactly, by the program that
fits its kind. Its length xi equals the Hofer-Zehnder capacity of the
product of the table with the polar of the gauge ball.

- **Polytope table, polytope gauge ball.** Noncoverability is lambda(Q) >= 1,
  and lambda(Q) is the largest value of sum_j y_j h_Q(u_j) over the dual
  vertices y of the covering program. For one y and one cyclic order of its
  support facets, the shortest polygon that meets the linear row
  sum_i y_i <u_i, q_i> >= 1 is a small LP. The shortest length is the
  smallest optimum over every dual vertex and every cyclic order. By weak
  duality each LP's value is at least 1 / max_k h_B(P_k - t) for every
  translation t, where P_k = -(y_1 u_1 + ... + y_k u_k) over the facets in
  cycle order and h_B is the support function of the gauge ball. The LPs
  are solved in ascending order of this bound, and those whose bound cannot
  beat the incumbent by more than the tie tolerance are skipped, which
  leaves the optimum unchanged.
- **Polytope table, ball gauge.** The same candidates, but LP duality makes
  each value 1 / (covering ratio of the P_k by the polar ellipsoid B°),
  which a linear map turns into a smallest-enclosing-ball radius. The
  polygon is read off that ball's centre and boundary points; no LP is
  solved.
- **Ball table, polytope gauge.** The symplectic swap (q, p) -> (p, -q)
  gives xi_B(K) = xi_{(-K)°}(B°) (Artstein-Avidan and Ostrover): the polytope
  table B° under a centred ball gauge, solved as above. The bounce points
  are the negated momenta of the swapped billiard.
- **Ball table, ball gauge.** After the swap and a linear map both bodies
  are centrally symmetric, so xi = 4 inradius (Artstein-Avidan, Karasev and
  Ostrover), attained by a diameter of the table.

Nothing is random: ``starts``, ``seed`` and ``stall_limit`` have no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, nnls

from .errors import BodyError, DimensionMismatch, GaugeError, LPError
from .geometry import (
    Ball,
    ConvexBody,
    Gauge,
    HomothetLambda,
    _as_vertex_body,
    _seb_small,
    min_homothet_cover,
    polar,
)
from .lp import solve_lp

_SUPPORT_TOL = 1e-12  # dual weights at or below this are outside the support
_LP_BATCH_ROWS = 512  # constraint rows per block-diagonal batch of cycle LPs
_BOUND_CHUNK = 64  # cycle candidates per vectorized lower-bound evaluation
_BALL_CHUNK = 1024  # cycle candidates per batch of enclosing balls (~4 KB each)


@dataclass
class Trajectory:
    points: np.ndarray
    gauge_length: float
    gauge_id: str
    lam: float
    converged: bool = True

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, float))

    @property
    def bounces(self) -> int:
        return len(self.points)

    def to_dict(self, violation=None) -> dict:
        out = {
            "points": [[float(v) for v in p] for p in self.points],
            "length": float(self.gauge_length),
            "lambda": float(self.lam),
        }
        if violation is not None:
            out["violation"] = float(violation)
        return out


@dataclass
class ReflectionCertificate:
    momenta: np.ndarray
    multipliers: np.ndarray
    max_violation: float


def trajectory_length(traj, g: Gauge) -> float:
    """Cyclic gauge length of a closed polygon (Trajectory or point array)."""
    pts = traj.points if isinstance(traj, Trajectory) else np.atleast_2d(np.asarray(traj, float))
    if len(pts) < 2:
        raise BodyError("a trajectory needs at least 2 points")
    if pts.shape[1] != g.dim:
        raise DimensionMismatch("trajectory and gauge dimensions differ")
    edges = np.roll(pts, -1, axis=0) - pts
    return float(g.values(edges).sum())


# ---------------------------------------------------------------------------
# solver

def _beats(val: float, best) -> bool:
    """True when ``val`` is shorter than ``best`` (None for no incumbent) by
    more than the tie tolerance."""
    return best is None or val < best - 1e-12 * (1.0 + best)


def _suffix_sums(coefs: np.ndarray, s: int, d: int) -> np.ndarray:
    """The points P_1..P_s of every cycle candidate (one per row of
    ``coefs``), as an array (candidates, s, d): P_k = c_{k+1} + ... + c_s,
    so P_s = 0, over the coefficient rows c_2..c_s."""
    c = coefs.reshape(-1, s - 1, d)
    return np.concatenate([np.cumsum(c[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((len(c), 1, d))], axis=1)


def _cycle_lower_bounds(g: Gauge, coefs: np.ndarray, s: int, d: int) -> np.ndarray:
    """Weak-duality lower bound on the value of every cycle LP of support
    size s (one per row of ``coefs``, as in ``_cycle_lps_best``).

    With q_1 = 0 and edges e_k = q_{k+1} - q_k, the LP's row reads
    sum_k <P_k, e_k> >= 1, where P_k = c_{k+1} + ... + c_s (so P_s = 0) are
    the suffix sums of the coefficient rows c_2..c_s. The edges close up,
    so any translation t may be subtracted from every P_k, and
    <P_k - t, e_k> <= h_B(P_k - t) g(e_k) for the gauge ball B. Hence the
    LP value is at least 1 / max_k h_B(P_k - t), with equality at the best
    t (LP duality). The bound takes the best t among the centroids of every
    nonempty subset of the P_k. These include the P_k themselves, their
    mean, and their pairwise midpoints, which make the bound exact for
    2-point cycles under a symmetric gauge. Candidates go through
    ``g.duals`` ``_BOUND_CHUNK`` at a time, so memory stays bounded however
    many there are.
    """
    # row r: the weights of the centroid of the r-th nonempty subset
    masks = (np.arange(1, 2 ** s)[:, None] >> np.arange(s)) & 1
    centroids = masks / masks.sum(axis=1, keepdims=True)
    out = np.empty(len(coefs))
    for first in range(0, len(coefs), _BOUND_CHUNK):
        P = _suffix_sums(coefs[first:first + _BOUND_CHUNK], s, d)
        n = len(P)
        T = centroids @ P
        h = g.duals((P[:, None] - T[:, :, None]).reshape(-1, d))
        out[first:first + n] = 1.0 / h.reshape(n, -1, s).max(axis=2).min(axis=1)
    return out


def _cycle_lps_best(M, s, d, coefs, lower, incumbent):
    """Smallest optimum, and its points, over the cycle LPs of support size s
    that can beat ``incumbent`` (None when there is none yet).

    One LP per row of ``coefs``: points q_1..q_s with q_1 = 0 and edge
    lengths t_1..t_s >= 0; min sum t subject to M (q_{i+1} - q_i) <= t_i
    and coefs . (q_2..q_s) >= 1. The rows come sorted by their ``lower``
    bounds, and solving stops before the first batch whose bound does
    not beat the best value so far, because no LP left can. Returns None
    when nothing was solved. The LPs are solved a few at a time as one
    block-diagonal program of at most ``_LP_BATCH_ROWS`` rows (larger
    programs raise HiGHS's peak memory); the blocks share no variable, so
    every block of the joint optimum is optimal for its own LP.
    """
    nf = len(M)
    nq = (s - 1) * d
    n = nq + s
    block = np.zeros((s * nf, n))
    for i in range(s):
        rows = slice(i * nf, (i + 1) * nf)
        for j, sign in (((i + 1) % s, 1.0), (i, -1.0)):
            if j:  # q_1 is pinned at the origin and has no column
                block[rows, (j - 1) * d:j * d] += sign * M
        block[rows, nq + i] = -1.0
    block = sparse.csr_matrix(block)
    cost = np.r_[np.zeros(nq), np.ones(s)]
    bounds = np.column_stack([np.r_[np.full(nq, -np.inf), np.zeros(s)],
                              np.full(n, np.inf)])

    def batch(k):
        # k copies of the edge rows, then one coefficient row per block whose
        # entries are the last k * nq stored values of the CSR matrix
        coef_rows = sparse.csr_matrix(
            (np.ones(k * nq), (np.arange(k)[:, None] * n + np.arange(nq)).ravel(),
             np.arange(k + 1) * nq), shape=(k, k * n))
        a_ub = sparse.vstack([sparse.kron(sparse.identity(k), block), coef_rows],
                             format="csr")
        b_ub = np.r_[np.zeros(k * s * nf), -np.ones(k)]
        return np.tile(cost, k), a_ub, b_ub, np.tile(bounds, (k, 1))

    best = None
    limit = incumbent  # the value a remaining LP must beat
    programs = {}  # batch size -> (cost, a_ub, b_ub, bounds)
    per_batch = max(1, _LP_BATCH_ROWS // (s * nf + 1))
    for first in range(0, len(coefs), per_batch):
        if not _beats(lower[first], limit):
            break
        chunk = coefs[first:first + per_batch]
        k = len(chunk)
        if k not in programs:
            programs[k] = batch(k)
        c, a_ub, b_ub, bnds = programs[k]
        a_ub.data[-k * nq:] = -chunk.ravel()
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bnds, method="highs",
                      options={"presolve": False})
        if res.status != 0:
            raise LPError(f"billiard cycle LP failed: {res.message}")
        x = res.x.reshape(k, n)
        vals = x @ cost
        i = int(np.argmin(vals))
        if best is None or vals[i] < best[0]:
            best = (vals[i], x[i, :nq])
        limit = vals[i] if limit is None else min(limit, vals[i])
    if best is None:
        return None
    return best[0], np.vstack([np.zeros(d), best[1].reshape(s - 1, d)])


def _cycle_candidates(lam_of: HomothetLambda, g: Gauge) -> dict:
    """Cycle LP coefficient rows (on q_2..q_s) by support size s: one per
    dual vertex y that ``lam_of`` holds and cyclic order of y's support,
    up to rotation, and up to reversal under a symmetric gauge."""
    U, W = lam_of._U, lam_of._W
    groups = {}
    seen = set()
    for y in W:
        S = tuple(np.flatnonzero(y > _SUPPORT_TOL))
        if S in seen:
            continue
        seen.add(S)
        for rest in permutations(S[1:]):
            if g.symmetric and len(rest) > 1 and rest[0] > rest[-1]:
                continue
            idx = list(rest)
            groups.setdefault(len(S), []).append((y[idx, None] * U[idx]).ravel())
    return {s: np.asarray(rows) for s, rows in sorted(groups.items())}


def _exact_polygon(lam_of: HomothetLambda, g: Gauge) -> np.ndarray:
    """Shortest noncoverable polygon for a polytope table and a polyhedral
    gauge, as the best of one LP per dual vertex and cyclic support order.

    lambda(Q) = max_y sum_j y_j h_Q(u_j) over the dual vertices y that
    ``lam_of`` holds, so lambda(Q) >= 1 exactly when some y and some choice
    of one polygon point per support facet meet sum_i y_i <u_i, q_i> >= 1.
    Each support facet may take its own point, because points may coincide,
    and U^T y = 0 makes that row translation invariant, so q_1 can be pinned.

    Support sizes go in increasing order, and a larger one must beat the
    incumbent by more than the tie tolerance, so fewer bounces win ties.
    Within one size the LPs are solved in ascending order of their
    weak-duality lower bounds 1 / max_k h_B(P_k - t) (see
    ``_cycle_lower_bounds``), and solving stops once the next bound does not
    beat the incumbent: the LPs left cannot, so the result is unchanged.
    """
    d = lam_of._U.shape[1]
    Ug, bg = g.unit_ball.facet_data()
    M = Ug / bg[:, None]
    best = None
    for s, coefs in _cycle_candidates(lam_of, g).items():
        lower = _cycle_lower_bounds(g, coefs, s, d)
        order = np.argsort(lower, kind="stable")
        incumbent = None if best is None else best[0]
        found = _cycle_lps_best(M, s, d, coefs[order], lower[order], incumbent)
        # on a tie the polygon with fewer bounces stays
        if found is not None and _beats(found[0], incumbent):
            best = found
    pts = best[1]
    return pts / lam_of(pts)


def _polar_ball_map(B: Ball) -> np.ndarray:
    """Symmetric matrix A that maps the polar of the gauge ball B = c + rD
    onto a translate of the unit ball.

    B° = {y : r|y| + <c, y> <= 1} is an ellipsoid when |c| < r. With
    a = r^2 - |c|^2 its semi-axes are r/a along c and 1/sqrt(a) across c,
    and A = sqrt(a) (I - c c^T / (r (r + sqrt(a)))) has the eigenvalues a/r
    and sqrt(a) there. A centred ball gives A = r I.
    """
    c, r = B.center, B.radius
    s = math.sqrt(r * r - c @ c)
    return s * (np.eye(len(c)) - np.outer(c, c) / (r * (r + s)))


def _ball_gauge_edges(lam_of: HomothetLambda, g: Gauge) -> np.ndarray:
    """Edges e_1..e_s of the shortest noncoverable polygon for a polytope
    table under a ball gauge, one per point P_k of the winning cycle
    candidate (zero rows where the polygon does not move).

    The cycle LP of a candidate has the value 1 / min_t max_k h_B(P_k - t)
    (see ``_cycle_lower_bounds``). h_B is the gauge of the polar B°, so the
    minimax is the covering ratio of the P_k by B°, and covering ratios are
    linear invariants: it is the radius R of the smallest ball enclosing the
    points A P_k, with A from ``_polar_ball_map``. So the shortest length is
    1 / R over the candidate with the largest R, and no LP is solved.

    The primal polygon comes from that ball. Its centre t is a convex
    combination sum_k w_k A P_k of the points on its boundary, and
    e_k = w_k A (A P_k - t) / R^2 closes up, meets the LP's row with
    equality and has the length 1 / R. Support sizes go in increasing order
    and fewer bounces win ties, as in ``_exact_polygon``.
    """
    d = lam_of.dim
    A = _polar_ball_map(g.unit_ball)
    best = None  # (radius, centre, mapped points)
    for s, coefs in _cycle_candidates(lam_of, g).items():
        P = _suffix_sums(coefs, s, d) @ A
        balls = [_seb_small(P[k:k + _BALL_CHUNK]) for k in range(0, len(P), _BALL_CHUNK)]
        centres = np.concatenate([c for c, _ in balls])
        radii = np.concatenate([r for _, r in balls])
        i = int(np.argmax(radii))
        if best is None or _beats(1.0 / radii[i], 1.0 / best[0]):
            best = (radii[i], centres[i], P[i])
    R, t, P = best
    on = np.linalg.norm(P - t, axis=1) >= R * (1.0 - 1e-9)
    w = np.zeros(len(P))
    w[on] = nnls(np.vstack([P[on].T, np.ones(on.sum())]), np.r_[t, 1.0])[0]
    return (w / w.sum())[:, None] * (P - t) @ A / (R * R)


def _ball_table_points(K: Ball, g: Gauge) -> np.ndarray:
    """Bounce points for a ball table of radius R under a polytope gauge,
    through the symplectic swap.

    (q, p) -> (p, -q) maps K x B° onto B° x (-K). With K centred at the
    origin, which leaves the length unchanged, this gives
    xi_B(K) = xi_{(-K)°}(B°): the polytope table B° under the centred ball
    gauge (-K)° = D / R, solved by ``_ball_gauge_edges``. Along its edge
    e'_k the swapped billiard has the momentum p'_k = R e'_k / |e'_k|, the
    point of -K that attains the edge's length, and the original billiard
    bounces at the negated momenta -p'_k.
    """
    swapped = Gauge(Ball(np.zeros(K.dim), 1.0 / K.radius))
    edges = _ball_gauge_edges(HomothetLambda(polar(g.unit_ball)), swapped)
    edges = edges[(edges != 0.0).any(axis=1)]
    return K.center - K.radius * edges / np.linalg.norm(edges, axis=1)[:, None]


def _ball_ball_points(K: Ball, B: Ball) -> np.ndarray:
    """The two bounce points for a ball table K = c_K + R D under the ball
    gauge B = c + rD.

    The swap turns the pair into the table B° under the gauge D / R, and
    translating B° to its centre and applying ``_polar_ball_map`` makes both
    centrally symmetric: the unit ball under the gauge ball A D / R. There
    xi = 4 inradius (Artstein-Avidan, Karasev and Ostrover), the largest
    s with s A D / R inside D, which is 4 R / sqrt(r^2 - |c|^2). The
    diameter of K across c attains it.
    """
    c = B.center
    u = np.eye(K.dim)[int(np.argmin(np.abs(c)))]
    if c.any():
        u = u - (u @ c) / (c @ c) * c
    u /= np.linalg.norm(u)
    return np.stack([K.center + K.radius * u, K.center - K.radius * u])


def _finish(K: ConvexBody, g: Gauge, lam_of: HomothetLambda, pts: np.ndarray,
            tol: float) -> Trajectory:
    """Trajectory from a polygon with lambda = 1: drop duplicate and
    removable points, then position the polygon so the covering homothet of
    ratio 1 is the body itself."""
    length = trajectory_length(pts, g)
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-9:
            keep.append(i)
    if len(keep) >= 2 and np.linalg.norm(pts[keep[-1]] - pts[keep[0]]) <= 1e-9:
        keep.pop()
    pts = pts[keep] if len(keep) >= 2 else pts
    # remove points that change neither the length nor feasibility (interior
    # collinear points left over from a higher bounce count)
    changed = True
    while changed and len(pts) > 2:
        changed = False
        for i in range(len(pts)):
            cand = np.delete(pts, i, axis=0)
            if (abs(trajectory_length(cand, g) - length) <= 1e-9
                    and lam_of(cand) >= 1.0 - 1e-9):
                pts = cand
                changed = True
                break
    fit = min_homothet_cover(K, pts, tol=tol)
    pts = pts - fit.translation
    length = trajectory_length(pts, g)
    lam = lam_of(pts)
    return Trajectory(points=pts, gauge_length=length, gauge_id=g.label,
                      lam=float(lam), converged=abs(lam - 1.0) <= 1e-6)


def shortest_trajectory(K: ConvexBody, g: Gauge, starts: int = 64, seed: int = 0,
                        tol: float = 1e-9, stall_limit: int = 24) -> Trajectory:
    """Shortest closed billiard polygon of K under g, by the exact program
    that fits the kind of input (see the module docstring).

    ``starts``, ``seed`` and ``stall_limit`` have no effect; they stay in
    the signature for callers that still pass them. ``tol`` is the
    tolerance of the final covering fit. A ``Ball`` table must have
    dimension 2 or 3, as every polytope has.
    """
    if g.dim != K.dim:
        raise DimensionMismatch("body and gauge dimensions differ")
    if isinstance(K, Ball) and K.dim not in (2, 3):
        raise BodyError("billiard tables are supported in dimensions 2 and 3")
    lam_of = HomothetLambda(K)
    ball_gauge = isinstance(g.unit_ball, Ball)
    if isinstance(K, Ball):
        if ball_gauge:
            pts = _ball_ball_points(K, g.unit_ball)
        else:
            pts = _ball_table_points(K, g)
    elif ball_gauge:
        edges = _ball_gauge_edges(lam_of, g)
        pts = np.vstack([np.zeros(K.dim), np.cumsum(edges[:-1], axis=0)])
        pts = pts / lam_of(pts)
    else:
        pts = _exact_polygon(lam_of, g)
    return _finish(K, g, lam_of, pts, tol)


# ---------------------------------------------------------------------------
# reflection-law verification

_BAND = 1e-7


def _momentum_faces(g: Gauge, edges):
    """Per edge: either a fixed momentum vector or the vertices of the
    attaining face of the polar unit ball."""
    B = g.unit_ball
    faces = []
    if isinstance(B, Ball):
        c, r = B.center, B.radius
        a = r * r - c @ c
        for e in edges:
            s = e @ c
            root = math.sqrt(s * s + a * (e @ e))
            p = ((s * c + a * e) / root - c) / a
            faces.append(("fixed", p))
        return faces
    W = _as_vertex_body(polar(B)).vertices
    for e in edges:
        vals = W @ e
        top = vals.max()
        scale = max(abs(top), 1.0)
        tied = W[vals >= top - _BAND * scale]
        if len(tied) == 1:
            faces.append(("fixed", tied[0]))
        else:
            faces.append(("face", tied))
    return faces


def _normal_cone(K: ConvexBody, q, band):
    if isinstance(K, Ball):
        r = np.linalg.norm(q - K.center)
        if abs(r - K.radius) > band * (1.0 + K.radius):
            return None
        return ((q - K.center) / r)[None, :]
    U, b = K.facet_data()
    slack = b - U @ q
    active = slack <= band * (1.0 + np.abs(b))
    if (slack < -band * (1.0 + np.abs(b))).any():
        return None
    if not active.any():
        return None
    return U[active]


def verify_reflection(traj, K: ConvexBody, g: Gauge, tol: float = 1e-6) -> ReflectionCertificate:
    """Check the gauge reflection law at every bounce of a closed polygon.

    Builds momenta on the boundary of the polar gauge ball attaining the
    length of each edge, then solves one feasibility program for the face
    coefficients and the normal multipliers: at each bounce the incoming
    minus outgoing momentum must lie in the cone of outward normals. The
    reported violation is the smallest uniform bound on the residual.
    """
    pts = traj.points if isinstance(traj, Trajectory) else np.atleast_2d(np.asarray(traj, float))
    m, d = pts.shape
    if d != K.dim or d != g.dim:
        raise DimensionMismatch("trajectory, body, and gauge dimensions differ")
    edges = np.roll(pts, -1, axis=0) - pts
    lengths = g.values(edges)
    if (lengths <= 1e-12).any():
        raise BodyError("degenerate edge in trajectory")

    faces = _momentum_faces(g, edges)
    cones = []
    band = max(_BAND, tol)
    for i in range(m):
        cone = _normal_cone(K, pts[i], band)
        if cone is None:
            raise BodyError(f"bounce point {i} is not on the body boundary")
        cones.append(cone)

    # variables: theta blocks (face coefficients), beta blocks (cone
    # multipliers), v (uniform violation bound); min v
    th_off, nvar = [], 0
    for kind, data in faces:
        th_off.append(nvar)
        if kind == "face":
            nvar += len(data)
    beta_off = []
    for cone in cones:
        beta_off.append(nvar)
        nvar += len(cone)
    v_idx = nvar
    nvar += 1

    a_ub, b_ub, a_eq, b_eq = [], [], [], []

    for i in range(m):
        prev = (i - 1) % m
        cone = cones[i]
        for k in range(d):
            row = np.zeros(nvar)
            const = 0.0
            # + p_prev component k
            kindp, datap = faces[prev]
            if kindp == "fixed":
                const += datap[k]
            else:
                row[th_off[prev]:th_off[prev] + len(datap)] += datap[:, k]
            # - p_i component k
            kindi, datai = faces[i]
            if kindi == "fixed":
                const -= datai[k]
            else:
                row[th_off[i]:th_off[i] + len(datai)] -= datai[:, k]
            # - sum beta_j u_j component k
            row[beta_off[i]:beta_off[i] + len(cone)] -= cone[:, k]
            # |expr| <= v  ->  expr - v <= -const and -expr - v <= const
            up = row.copy()
            up[v_idx] = -1.0
            a_ub.append(up)
            b_ub.append(-const)
            dn = -row
            dn[v_idx] = -1.0
            a_ub.append(dn)
            b_ub.append(const)

    for i, (kind, data) in enumerate(faces):
        if kind == "face":
            row = np.zeros(nvar)
            row[th_off[i]:th_off[i] + len(data)] = 1.0
            a_eq.append(row)
            b_eq.append(1.0)

    cost = np.zeros(nvar)
    cost[v_idx] = 1.0
    res = solve_lp(cost, a_ub=np.asarray(a_ub), b_ub=np.asarray(b_ub),
                   a_eq=np.asarray(a_eq) if a_eq else None,
                   b_eq=np.asarray(b_eq) if b_eq else None,
                   nonneg=np.ones(nvar, bool))
    if not res.ok:
        raise GaugeError(f"reflection feasibility program failed: {res.status}")

    momenta = np.empty((m, d))
    for i, (kind, data) in enumerate(faces):
        if kind == "fixed":
            momenta[i] = data
        else:
            theta = res.x[th_off[i]:th_off[i] + len(data)]
            momenta[i] = theta @ data
    multipliers = np.array([res.x[beta_off[i]:beta_off[i] + len(cones[i])].sum()
                            for i in range(m)])
    return ReflectionCertificate(momenta=momenta, multipliers=multipliers,
                                 max_violation=float(res.x[v_idx]))

"""Oscillation inequalities for smooth functions on convex bodies.

The quantitative statement being verified: the oscillation of F over a body
is at least a constant times the minimum dual-gauge norm of its gradient,
where the constant depends on the variant (2 on the gauge's own unit ball,
1 with the difference-body gauge, half the shortest billiard length in
general). Scalar fields are multivariate polynomials so gradients and
Hessians are exact and every run is reproducible.

Verification is honest about direction: the oscillation is approached from
below (sampling plus ascent refinement) while the gradient minimum is
approached from above, so the refinement of the latter is what keeps the
checked inequality from false alarms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .billiards import shortest_trajectory
from .errors import DimensionMismatch, FieldError, InputError, StallError
from .geometry import (
    Ball,
    ConvexBody,
    Gauge,
    _as_vertex_body,
    diff_gauge,
    difference_body,
    min_homothet_cover,
)


class PolynomialField:
    """Multivariate polynomial with exact gradient and Hessian.

    Terms are a map from exponent tuples to coefficients, e.g.
    {(1, 0): 2.0} is 2*x1 in two variables.
    """

    def __init__(self, coeffs, check: bool = True):
        terms = {}
        dim = None
        for exps, c in dict(coeffs).items():
            key = tuple(int(e) for e in exps)
            if any(e < 0 for e in key):
                raise FieldError("negative exponent in polynomial")
            if dim is None:
                dim = len(key)
            elif len(key) != dim:
                raise FieldError("inconsistent exponent lengths")
            c = float(c)
            if c != 0.0:
                terms[key] = terms.get(key, 0.0) + c
        if dim is None:
            raise FieldError("empty polynomial")
        self.dim = dim
        self._exps = np.array(sorted(terms), dtype=int).reshape(len(terms), dim)
        self._coef = np.array([terms[tuple(e)] for e in self._exps])
        self._grad_tab = []
        for k in range(dim):
            e = self._exps[:, k]
            mask = e > 0
            dropped = self._exps[mask].copy()
            dropped[:, k] -= 1
            self._grad_tab.append((self._coef[mask] * e[mask], dropped))
        self._hess_tab = None
        if check:
            self._check_gradient()

    def eval(self, x) -> float:
        x = np.asarray(x, float)
        return float((self._coef * np.prod(x ** self._exps, axis=1)).sum())

    def eval_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, float))
        return np.prod(X[:, None, :] ** self._exps[None, :, :], axis=2) @ self._coef

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        out = np.zeros(self.dim)
        for k, (coefs, exps) in enumerate(self._grad_tab):
            if len(coefs):
                out[k] = coefs @ np.prod(x ** exps, axis=1)
        return out

    def grad_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, float))
        out = np.zeros((len(X), self.dim))
        for k, (coefs, exps) in enumerate(self._grad_tab):
            if len(coefs):
                out[:, k] = np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ coefs
        return out

    def hess(self, x) -> np.ndarray:
        if self._hess_tab is None:
            tab = []
            for k, (coefs, exps) in enumerate(self._grad_tab):
                for l in range(self.dim):
                    e = exps[:, l] if len(coefs) else np.zeros(0, int)
                    mask = e > 0
                    if not mask.any():
                        tab.append((k, l, np.zeros(0), np.zeros((0, self.dim), int)))
                        continue
                    dropped = exps[mask].copy()
                    dropped[:, l] -= 1
                    tab.append((k, l, coefs[mask] * e[mask], dropped))
            self._hess_tab = tab
        x = np.asarray(x, float)
        H = np.zeros((self.dim, self.dim))
        for k, l, coefs, exps in self._hess_tab:
            if len(coefs):
                H[k, l] = coefs @ np.prod(x ** exps, axis=1)
        return H

    def _check_gradient(self, h: float = 1e-4, rtol: float = 1e-5):
        rng = np.random.default_rng(12345)
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0, size=self.dim)
            g = self.grad(x)
            fd = np.empty(self.dim)
            for k in range(self.dim):
                e = np.zeros(self.dim)
                e[k] = h
                fd[k] = (self.eval(x + e) - self.eval(x - e)) / (2.0 * h)
            scale = 1.0 + np.abs(g).max() + np.abs(fd).max()
            if np.abs(g - fd).max() > rtol * scale:
                raise FieldError("gradient disagrees with finite differences")

    def to_dict(self) -> dict:
        poly = {}
        for e, c in zip(self._exps, self._coef):
            key = json.dumps([int(v) for v in e], separators=(",", ":"))
            poly[key] = float(c)
        return {"poly": poly}


def field_from_dict(obj) -> PolynomialField:
    if not isinstance(obj, dict) or "poly" not in obj:
        raise InputError("field JSON must be an object with a 'poly' map")
    raw = obj["poly"]
    if not isinstance(raw, dict) or not raw:
        raise InputError("'poly' must be a nonempty map")
    coeffs = {}
    for key, c in raw.items():
        try:
            exps = json.loads(key)
            coeffs[tuple(int(e) for e in exps)] = float(c)
        except (ValueError, TypeError) as exc:
            raise InputError(f"bad exponent key {key!r}") from exc
    try:
        return PolynomialField(coeffs)
    except FieldError as exc:
        raise InputError(str(exc)) from exc


@dataclass
class EmbeddedGraph:
    nodes: np.ndarray
    edges: list

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, float))
        self.edges = [(int(i), int(j)) for i, j in self.edges]
        n = len(self.nodes)
        if not self.edges:
            raise InputError("graph needs at least one edge")
        adj = {k: set() for k in range(n)}
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError("edge index out of range")
            if np.linalg.norm(self.nodes[i] - self.nodes[j]) < 1e-12:
                raise InputError("degenerate edge")
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n:
            raise InputError("graph is not connected")


# ---------------------------------------------------------------------------
# sampling and refinement

def _halton_in_body(K: ConvexBody, samples: int) -> np.ndarray:
    # scipy.stats costs more to import than the rest of the CLI; only this
    # sampler needs it
    from scipy.stats import qmc

    lo, hi = K.bounding_box()
    eng = qmc.Halton(d=K.dim, scramble=False)
    pts = []
    need = max(int(samples), 16)
    while sum(len(p) for p in pts) < need:
        raw = lo + (hi - lo) * eng.random(4 * need)
        if isinstance(K, Ball):
            keep = np.linalg.norm(raw - K.center, axis=1) <= K.radius
        else:
            U, b = K.facet_data()
            keep = ((U @ raw.T) - b[:, None] <= 1e-12).all(axis=0)
        got = raw[keep]
        if len(got) == 0:
            raise FieldError("could not sample the body (degenerate?)")
        pts.append(got)
    return np.vstack(pts)[:need]


def _boundary_ring(K: Ball, count: int = 720) -> np.ndarray:
    if K.dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return K.center + K.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + math.sqrt(5.0)) * i
    dirs = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)
    return K.center + K.radius * dirs


def _sample_points(K: ConvexBody, samples: int) -> np.ndarray:
    pts = [_halton_in_body(K, samples)]
    if isinstance(K, Ball):
        pts.append(_boundary_ring(K))
        pts.append(K.center[None, :])
    else:
        pts.append(_as_vertex_body(K).vertices)
    return np.vstack(pts)


def _project(K: ConvexBody, x):
    if isinstance(K, Ball):
        v = x - K.center
        r = np.linalg.norm(v)
        if r <= K.radius:
            return x
        return K.center + v * (K.radius / r)
    return None  # polytopes use support-point steps instead


def _refine_extremum(K: ConvexBody, x0, value_of, ascent_dir, maximize: bool,
                     iters: int = 160):
    """Push a candidate extremum further using exact first-order data.

    Balls use projected gradient steps (projection is closed form); general
    bodies move toward the support point of the step direction, which keeps
    iterates inside by convexity.
    """
    x = np.asarray(x0, float).copy()
    best = value_of(x)
    sign = 1.0 if maximize else -1.0
    if isinstance(K, Ball):
        step = 0.5 * K.radius
        for _ in range(iters):
            d = ascent_dir(x)
            nd = np.linalg.norm(d)
            if nd < 1e-14:
                break
            cand = _project(K, x + sign * step * d / nd)
            v = value_of(cand)
            if sign * (v - best) > 0.0:
                x, best = cand, v
            else:
                step *= 0.5
                if step < 1e-13:
                    break
    else:
        stale = 0
        for t in range(iters):
            d = ascent_dir(x)
            if np.linalg.norm(d) < 1e-14:
                break
            s = K.support_point(sign * d)
            gamma = 2.0 / (t + 2.0)
            cand = x + gamma * (s - x)
            v = value_of(cand)
            if sign * (v - best) > 1e-15 * (1.0 + abs(best)):
                x, best = cand, v
                stale = 0
            else:
                stale += 1
                if stale >= 24:
                    break
    return best, x


def oscillation(F: PolynomialField, K: ConvexBody, samples: int = 4096) -> float:
    """max F - min F over K from low-discrepancy samples plus refinement."""
    if F.dim != K.dim:
        raise DimensionMismatch("field and body dimensions differ")
    pts = _sample_points(K, samples)
    vals = F.eval_many(pts)
    hi_val, hi_x = _refine_extremum(K, pts[int(np.argmax(vals))], F.eval, F.grad, True)
    lo_val, lo_x = _refine_extremum(K, pts[int(np.argmin(vals))], F.eval, F.grad, False)
    return float(hi_val - lo_val)


def min_dual_grad(F: PolynomialField, K: ConvexBody, g: Gauge,
                  samples: int = 4096) -> float:
    """min over K of the dual gauge of grad F, refined downward.

    This is the quantity that must not be overestimated when checking the
    oscillation inequality, so it gets subgradient refinement from the best
    few sample points (chain rule through the exact Hessian).
    """
    if F.dim != K.dim or g.dim != K.dim:
        raise DimensionMismatch("field, body, and gauge dimensions differ")
    pts = _sample_points(K, samples)
    grads = F.grad_many(pts)
    vals = g.duals(grads)

    def value_of(x):
        return g.dual(F.grad(x))

    def descent_dir(x):
        # subgradient of x -> h_B(grad F(x)); support point is a subgradient
        return F.hess(x).T @ g.support_point(F.grad(x))

    best = math.inf
    order = np.argsort(vals)
    for idx in order[:4]:
        v, _ = _refine_extremum(K, pts[idx], value_of, descent_dir, False)
        best = min(best, v)
    return float(best)


# ---------------------------------------------------------------------------
# gradient flow

def flow_trace(F: PolynomialField, g: Gauge, x0, horizon: float, dt: float):
    """Explicit Euler steepest-ascent trace; F must not decrease along it."""
    if dt <= 0 or horizon <= 0:
        raise InputError("horizon and dt must be positive")
    x = np.asarray(x0, float).copy()
    if x.shape != (g.dim,):
        raise DimensionMismatch("start point dimension differs from gauge")
    steps = int(round(horizon / dt))
    trace = [x.copy()]
    f_prev = F.eval(x)
    for _ in range(steps):
        d = F.grad(x)
        if np.linalg.norm(d) < 1e-12:
            raise StallError("gradient vanished along the trace")
        y = g.support_point(d)
        x = x + dt * y
        if not np.isfinite(x).all() or np.abs(x).max() > 1e12:
            raise FieldError("trace left the numeric domain")
        f_new = F.eval(x)
        if f_new < f_prev - dt * 1e-3:
            raise FieldError("function decreased along the ascent trace")
        f_prev = f_new
        trace.append(x.copy())
    return np.asarray(trace)


# ---------------------------------------------------------------------------
# the inequalities

_VARIANTS = ("ball2x", "diff1x", "billiard")


def verify_oscillation_bound(F: PolynomialField, K: ConvexBody, variant: str,
                             g: Gauge = None, samples: int = 4096,
                             tol: float = 1e-6, xi: float = None,
                             seed: int = 0):
    """Check oscillation(F) >= factor * min_dual_grad(F) on K.

    variant 'ball2x': K is the gauge's unit ball, factor 2. 'diff1x': the
    difference-body gauge, factor 1. 'billiard': factor is half the shortest
    billiard length in K under g (pass xi to reuse a known length). The
    billiard is exact, so ``seed`` has no effect; it stays for callers.
    Returns (lhs, rhs, ok).
    """
    if variant not in _VARIANTS:
        raise InputError(f"variant must be one of {_VARIANTS}")
    if variant == "ball2x":
        if g is None:
            g = Gauge(K)
        elif g.unit_ball is not K:
            raise InputError("ball2x requires the body to be the gauge ball")
        if not g.symmetric:
            raise InputError("ball2x requires a norm (symmetric unit ball)")
        factor = 2.0
    elif variant == "diff1x":
        if g is None:
            g = diff_gauge(K)
        elif not _is_difference_gauge(g, K):
            raise InputError("diff1x requires the difference-body gauge of K")
        factor = 1.0
    else:
        if g is None:
            g = diff_gauge(K)
        if xi is None:
            xi = shortest_trajectory(K, g).gauge_length
        factor = 0.5 * float(xi)
    lhs = oscillation(F, K, samples)
    rhs = factor * min_dual_grad(F, K, g, samples)
    return float(lhs), float(rhs), bool(lhs >= rhs - tol)


def _is_difference_gauge(g: Gauge, K: ConvexBody) -> bool:
    D = difference_body(K)
    rng = np.random.default_rng(3)
    for _ in range(8):
        y = rng.normal(size=K.dim)
        if abs(g.dual(y) - D.support(y)) > 1e-8 * (1.0 + abs(D.support(y))):
            return False
    return True


# ---------------------------------------------------------------------------
# connected graphs and covering homothets

def graph_cover_check(G: EmbeddedGraph, K: ConvexBody, tol: float = 1e-9):
    """Total edge length h (difference-body gauge) vs the covering ratio.

    The claim being checked: a connected graph of total relative length h
    fits inside a homothet h*K + t. Returns (h, lambda, ok). A homothet of
    K covers a segment iff it covers both endpoints, so lambda is the
    covering ratio of the nodes alone.
    """
    if G.nodes.shape[1] != K.dim:
        raise DimensionMismatch("graph and body dimensions differ")
    I, J = np.array(G.edges).T
    h = float(diff_gauge(K).values(G.nodes[J] - G.nodes[I]).sum())
    lam = min_homothet_cover(K, G.nodes).lam
    return h, float(lam), bool(lam <= h + tol)


def merge_cover(G: EmbeddedGraph, K: ConvexBody):
    """Constructive covering homothet from merging per-edge fits.

    Each edge alone fits in a homothet with ratio equal to its relative
    length; merging covers C1 = d1*K + t1 and C2 = d2*K + t2 that share a
    graph node w gives (d1 + d2)*K + (t1 + t2 - w) covering the union. The
    merge runs along a spanning tree, so the final ratio is exactly h.
    Returns (delta, translation).
    """
    fits = {}
    for e, (i, j) in enumerate(G.edges):
        seg = np.stack([G.nodes[i], G.nodes[j]])
        fit = min_homothet_cover(K, seg)
        fits[e] = (fit.lam, fit.translation)

    # merge edge covers along a BFS tree over shared nodes
    node_edges = {}
    for e, (i, j) in enumerate(G.edges):
        node_edges.setdefault(i, []).append(e)
        node_edges.setdefault(j, []).append(e)
    merged = {0}
    delta, t = fits[0]
    frontier = list(G.edges[0])
    seen_nodes = set(G.edges[0])
    while len(merged) < len(G.edges):
        progressed = False
        for w in list(frontier):
            for e in node_edges.get(w, []):
                if e in merged:
                    continue
                d2, t2 = fits[e]
                t = t + t2 - G.nodes[w]
                delta += d2
                merged.add(e)
                progressed = True
                for v in G.edges[e]:
                    if v not in seen_nodes:
                        seen_nodes.add(v)
                        frontier.append(v)
        if not progressed:
            raise InputError("graph is not connected")
    return float(delta), t

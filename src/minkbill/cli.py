"""Command-line front end.

Subcommands mirror the library modules: billiard, cover-check, oscillation,
fractional, ball-cut, verify-all. Reports are canonical JSON (sorted keys,
two-space indent) so identical inputs and seeds produce identical bytes.

Exit codes: 0 success/verified; 2 input problem (bad file, bad JSON, bad
parameters); 3 mathematical probe failed (not covered, inequality violated)
with the witness in the report; 4 optimizer did not converge (for billiard:
covering ratio not 1, or reflection residual above the ``converged``
tolerance).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import ballcut, fractional
from .billiards import shortest_trajectory, verify_reflection
from .errors import MinkbillError, InputError
from .geometry import (
    ConvexBody,
    Gauge,
    body_from_dict,
    body_gauge,
    diff_gauge,
    euclidean_gauge,
)
from .oscillation import field_from_dict, verify_oscillation_bound
from .planks import covering_check, plank_from_dict
from .svgout import render_scene
from .util import canonical_json_dumps, strict_json_loads
from .verify import format_table, run_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROBE = 3
EXIT_NO_CONVERGENCE = 4


@dataclass
class RunConfig:
    command: str
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    out: str = None
    svg: str = None

    def __post_init__(self):
        for name, value in self.tolerances.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise InputError(f"tolerance {name!r} must be positive")

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


def _default_seed() -> int:
    raw = os.environ.get("MINKBILL_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"MINKBILL_SEED must be an integer, got {raw!r}")


def _number(inputs: dict, key: str, default, kind=float):
    """``kind(inputs[key])``, or of ``default`` when the key is absent. Config
    and params files may hold any JSON value, so one that does not convert
    to a finite number is an input problem."""
    value = inputs.get(key, default)
    try:
        out = kind(value)
        finite = np.isfinite(np.asarray(out, float)).all()
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise InputError(f"{key!r} must be numeric and finite, got {value!r}")
    return out


def _floats(value) -> np.ndarray:
    return np.asarray(value, float)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return strict_json_loads(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_body(path: str) -> ConvexBody:
    return body_from_dict(_read_json(path))


def _make_gauge(spec: str, K: ConvexBody) -> Gauge:
    if spec == "euclidean":
        return euclidean_gauge(K.dim)
    if spec == "diff":
        return diff_gauge(K)
    if spec == "body":
        return body_gauge(K)
    if spec.startswith("body:"):
        B = _load_body(spec[5:])
        if B.dim != K.dim:
            raise InputError("gauge body dimension differs from the body")
        return body_gauge(B)
    raise InputError(f"unknown gauge {spec!r} "
                     "(expected euclidean, diff, body, or body:FILE)")


def _emit(config: RunConfig, payload: dict):
    text = canonical_json_dumps(payload)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_svg(config: RunConfig, K: ConvexBody, **scene):
    if config.svg:
        with open(config.svg, "w", encoding="utf-8") as fh:
            fh.write(render_scene(K, **scene))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_billiard(config: RunConfig) -> int:
    K = _load_body(config.inputs["body"])
    g = _make_gauge(config.inputs.get("gauge", "diff"), K)
    starts = _number(config.inputs, "starts", 64, int)
    traj = shortest_trajectory(K, g, starts=starts, seed=config.seed)
    cert = verify_reflection(traj, K, g)
    _emit(config, traj.to_dict(violation=cert.max_violation))
    _write_svg(config, K, trajectory=traj.points)
    tol = config.tol("converged", 1e-6)
    if (not traj.converged or abs(traj.lam - 1.0) > tol
            or cert.max_violation > tol):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_cover_check(config: RunConfig) -> int:
    K = _load_body(config.inputs["body"])
    raw = _read_json(config.inputs["planks"])
    if not isinstance(raw, list) or not raw:
        raise InputError("planks JSON must be a nonempty array")
    cover = [plank_from_dict(p) for p in raw]
    if not config.inputs.get("fractional", False):
        cover = [type(p)(p.normal, p.lo, p.hi, 1.0) for p in cover]
    threshold = _number(config.inputs, "threshold", 1.0)
    report = covering_check(K, cover, threshold=threshold)
    _emit(config, report.to_dict())
    _write_svg(config, K, planks=cover,
               witness=None if report.covered else report.witness)
    return EXIT_OK if report.covered else EXIT_PROBE


def _cmd_oscillation(config: RunConfig) -> int:
    K = _load_body(config.inputs["body"])
    F = field_from_dict(_read_json(config.inputs["field"]))
    variant = config.inputs.get("variant", "diff1x")
    samples = _number(config.inputs, "samples", 4096, int)
    lhs, rhs, ok = verify_oscillation_bound(
        F, K, variant, samples=samples, tol=config.tol("bound", 1e-6),
        seed=config.seed)
    _emit(config, {"lhs": lhs, "rhs": rhs, "ok": ok, "variant": variant})
    return EXIT_OK if ok else EXIT_PROBE


def _cmd_fractional(config: RunConfig) -> int:
    op = config.inputs["op"]
    params = _read_json(config.inputs["params"]) if config.inputs.get("params") \
        else {}
    if not isinstance(params, dict):
        raise InputError("params JSON must be an object")
    value = bound = None
    ok = True
    if op == "W":
        value = fractional.W_constant(_number(params, "n", 3, int))
    elif op == "rho":
        value = fractional.rho_density(_number(params, "m", 2, int),
                                       _number(params, "x", [0.0], _floats))
    elif op == "cyl":
        n, m = _number(params, "n", 4, int), _number(params, "m", 2, int)
        value = fractional.cylinder_bound(n, m)
        bound = fractional.cylinder_conjecture_target(n, m)
        ok = bool(value <= bound + 1e-12)
    elif op == "bound":
        value = fractional.fractional_bang_bound(_number(params, "k", 1, int),
                                                 _number(params, "c", 0.0))
    elif op == "mahler":
        if "body" in params:
            K = body_from_dict(params["body"])
        elif "body_path" in params:
            K = _load_body(params["body_path"])
        else:
            raise InputError("mahler params need 'body' or 'body_path'")
        value, bound, ok = fractional.mahler_product(K)
    elif op == "sumnorm":
        if "vectors" not in params:
            raise InputError("sumnorm params need 'vectors'")
        value, bound, ok = fractional.sum_norm_lower(
            _number(params, "vectors", None, _floats), _number(params, "c", 0.0))
    else:
        raise InputError(f"unknown op {op!r}")
    _emit(config, {"op": op, "value": value, "bound": bound, "ok": bool(ok)})
    return EXIT_OK if ok else EXIT_PROBE


def _cmd_ball_cut(config: RunConfig) -> int:
    tol = config.tol("additivity", 1e-9)
    sweep = config.inputs.get("sweep")
    if sweep is not None:
        n = _number(config.inputs, "sweep", None, int)
        if n < 1:
            raise InputError("sweep must be positive")
        worst = 0.0
        all_ok = True
        for i in range(1, n + 1):
            tau0 = math.pi * i / (n + 1)
            _, _, total, _ = ballcut.verify_cut_additivity(tau0)
            worst = max(worst, abs(total - math.pi))
            all_ok = all_ok and abs(total - math.pi) <= tol
        _emit(config, {"sweep": n, "worst": worst, "ok": all_ok})
        return EXIT_OK if all_ok else EXIT_PROBE
    if config.inputs.get("tau0") is None:
        raise InputError("ball-cut needs --tau0 or --sweep")
    tau0 = _number(config.inputs, "tau0", None)
    c1, c2, total, _ = ballcut.verify_cut_additivity(tau0)
    ok = abs(total - math.pi) <= tol
    _emit(config, {"c1": c1, "c2": c2, "sum": total, "ok": ok})
    return EXIT_OK if ok else EXIT_PROBE


def _cmd_verify_all(config: RunConfig) -> int:
    results = run_all(seed=config.seed)
    sys.stdout.write(format_table(results) + "\n")
    payload = {"seed": config.seed,
               "results": [r.to_dict() for r in results],
               "all_passed": all(r.passed for r in results)}
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json_dumps(payload))
    return EXIT_OK if payload["all_passed"] else EXIT_PROBE


_DISPATCH = {
    "billiard": _cmd_billiard,
    "cover-check": _cmd_cover_check,
    "oscillation": _cmd_oscillation,
    "fractional": _cmd_fractional,
    "ball-cut": _cmd_ball_cut,
    "verify-all": _cmd_verify_all,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if config.command not in _DISPATCH:
        raise InputError(f"unknown command {config.command!r}")
    return _DISPATCH[config.command](config)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="minkbill",
        description="Billiard, plank, oscillation, and cut-ball computations")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override these flags")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE")

    p = sub.add_parser("billiard")
    p.add_argument("--body", required=True)
    p.add_argument("--gauge", default="diff")
    p.add_argument("--starts", type=int, default=64,
                   help="no effect: every billiard is solved exactly "
                        "(kept for old scripts)")
    p.add_argument("--svg", default=None)
    common(p)

    p = sub.add_parser("cover-check")
    p.add_argument("--body", required=True)
    p.add_argument("--planks", required=True)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--fractional", action="store_true")
    p.add_argument("--svg", default=None)
    common(p)

    p = sub.add_parser("oscillation")
    p.add_argument("--body", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--variant", choices=("ball2x", "diff1x", "billiard"),
                   default="diff1x")
    p.add_argument("--samples", type=int, default=4096)
    common(p)

    p = sub.add_parser("fractional")
    p.add_argument("--op", required=True,
                   choices=("W", "rho", "cyl", "bound", "mahler", "sumnorm"))
    p.add_argument("--params", default=None)
    common(p)

    p = sub.add_parser("ball-cut")
    p.add_argument("--tau0", type=float, default=None)
    p.add_argument("--sweep", type=int, default=None)
    common(p)

    p = sub.add_parser("verify-all")
    common(p)
    return top


_INPUT_KEYS = ("body", "gauge", "starts", "planks", "threshold", "fractional",
               "field", "variant", "samples", "op", "params", "tau0", "sweep")


def _config_from_args(args) -> RunConfig:
    ns = vars(args)
    if args.config:
        overrides = _read_json(args.config)
        if not isinstance(overrides, dict):
            raise InputError("--config must hold a JSON object")
        for key, value in overrides.items():
            ns[key.replace("-", "_")] = value
    tolerances = {}
    for item in ns.get("tol") or []:
        if isinstance(item, str):
            name, _, raw = item.partition("=")
            if not _ or not name:
                raise InputError(f"bad --tol {item!r}, expected NAME=VALUE")
            try:
                tolerances[name] = float(raw)
            except ValueError:
                raise InputError(f"bad --tol value {raw!r}")
    if isinstance(ns.get("tolerances"), dict):  # config-file form
        tolerances.update(ns["tolerances"])
    seed = _default_seed() if ns.get("seed") is None else _number(ns, "seed", None, int)
    inputs = {k: ns[k] for k in _INPUT_KEYS if ns.get(k) is not None}
    return RunConfig(command=ns["command"], inputs=inputs, seed=seed,
                     tolerances=tolerances, out=ns.get("out"),
                     svg=ns.get("svg"))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args)
        return run(config)
    except MinkbillError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

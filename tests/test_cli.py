import json
import math
import os
import subprocess
import sys

import pytest

TRIANGLE = {"type": "vpolytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
SQUARE = {"type": "vpolytope",
          "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("MINKBILL_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "minkbill.cli", *args],
        capture_output=True, text=True, env=env, timeout=300)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is the slowest import; only the oscillation sampler uses it
    code = "import sys, minkbill.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fractional_w(tmp_path):
    params = write_json(tmp_path / "p.json", {"n": 3})
    proc = run_cli("fractional", "--op", "W", "--params", params)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["op"] == "W"
    assert payload["value"] == pytest.approx(2.0, abs=1e-12)
    assert payload["ok"] is True


def test_ball_cut_single(tmp_path):
    out = tmp_path / "cut.json"
    proc = run_cli("ball-cut", "--tau0", repr(math.pi / 2.0), "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["sum"] == pytest.approx(math.pi, abs=1e-9)
    assert payload["c1"] == pytest.approx(math.pi / 2.0)
    assert payload["ok"] is True


def test_ball_cut_sweep():
    proc = run_cli("ball-cut", "--sweep", "9")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sweep"] == 9
    assert payload["ok"] is True
    assert payload["worst"] <= 1e-9


def test_cover_check_covered(tmp_path):
    body = write_json(tmp_path / "body.json", SQUARE)
    planks = write_json(tmp_path / "planks.json",
                        [{"normal": [1.0, 0.0], "lo": -0.5, "hi": 1.5}])
    proc = run_cli("cover-check", "--body", body, "--planks", planks)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["covered"] is True
    assert "witness" not in payload


def test_cover_check_uncovered_reports_witness(tmp_path):
    body = write_json(tmp_path / "body.json", SQUARE)
    planks = write_json(tmp_path / "planks.json",
                        [{"normal": [1.0, 0.0], "lo": -0.5, "hi": 0.4}])
    proc = run_cli("cover-check", "--body", body, "--planks", planks)
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["covered"] is False
    witness = payload["witness"]
    assert len(witness) == 2
    assert witness[0] > 0.4  # sits in the square but outside the slab
    assert 0.0 <= witness[1] <= 1.0


def test_billiard_triangle(tmp_path):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    svg = tmp_path / "scene.svg"
    proc = run_cli("billiard", "--body", body, "--gauge", "diff",
                   "--starts", "4", "--seed", "0", "--svg", str(svg))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["length"] == pytest.approx(1.5, abs=1e-3)
    assert payload["lambda"] == pytest.approx(1.0, abs=1e-6)
    assert payload["violation"] <= 1e-4
    text = svg.read_text()
    assert text.lstrip().startswith("<svg")
    assert "polygon" in text or "polyline" in text


def test_billiard_ball_outside_2d_and_3d_is_input_error(tmp_path):
    body = write_json(tmp_path / "ball4.json",
                      {"type": "ball", "center": [0.0] * 4, "radius": 1.0})
    proc = run_cli("billiard", "--body", body, "--gauge", "euclidean")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "dimensions 2 and 3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oscillation_diff1x(tmp_path):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    field = write_json(tmp_path / "field.json", {"poly": {"[1, 0]": 1.0}})
    proc = run_cli("oscillation", "--body", body, "--field", field,
                   "--variant", "diff1x", "--samples", "256", "--seed", "0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["lhs"] <= payload["rhs"] + 1e-6
    assert payload["variant"] == "diff1x"


def test_malformed_body_json_is_input_error(tmp_path):
    body = tmp_path / "body.json"
    body.write_text("{not valid json")
    proc = run_cli("billiard", "--body", str(body))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_unknown_body_type_is_input_error(tmp_path):
    body = write_json(tmp_path / "body.json", {"type": "blob", "size": 3})
    proc = run_cli("billiard", "--body", str(body))
    assert proc.returncode == 2


def test_negative_tolerance_rejected(tmp_path):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    proc = run_cli("billiard", "--body", body, "--tol", "converged=-1")
    assert proc.returncode == 2
    assert "positive" in proc.stderr


def test_bad_tolerance_syntax_rejected():
    proc = run_cli("ball-cut", "--sweep", "3", "--tol", "oops")
    assert proc.returncode == 2


def test_output_bytes_deterministic(tmp_path):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli("billiard", "--body", body, "--starts", "4",
                       "--seed", "3", "--out", str(out))
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, flag, entry", [
    ("fractional", "--params", {"n": "x"}),
    ("billiard", "--config", {"starts": "many"}),
    ("ball-cut", "--config", {"sweep": "lots"}),
    ("ball-cut", "--config", {"tau0": [1.0]}),
    ("ball-cut", "--config", {"tau0": "nan"}),
])
def test_non_numeric_file_value_is_input_error(tmp_path, command, flag, entry):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    args = {"fractional": ["--op", "W"], "billiard": ["--body", body],
            "ball-cut": []}[command]
    path = write_json(tmp_path / "values.json", entry)
    proc = run_cli(command, *args, flag, path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert repr(next(iter(entry))) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_file_overrides_flags(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"tau0": math.pi / 2.0})
    proc = run_cli("ball-cut", "--tau0", "1.0", "--config", cfg)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["c1"] == pytest.approx(math.pi / 2.0)  # config value won


def test_seed_env_matches_flag(tmp_path):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    proc = run_cli("billiard", "--body", body, "--starts", "2",
                   "--out", str(out_env), env_extra={"MINKBILL_SEED": "7"})
    assert proc.returncode == 0
    proc = run_cli("billiard", "--body", body, "--starts", "2",
                   "--seed", "7", "--out", str(out_flag))
    assert proc.returncode == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_bad_seed_env_rejected(tmp_path):
    body = write_json(tmp_path / "body.json", TRIANGLE)
    proc = run_cli("billiard", "--body", body,
                   env_extra={"MINKBILL_SEED": "lots"})
    assert proc.returncode == 2


def test_billiard_reflection_residual_exits_4(tmp_path, monkeypatch, capsys):
    from minkbill import cli
    from minkbill.billiards import ReflectionCertificate

    def bad_certificate(traj, K, g):
        return ReflectionCertificate(momenta=traj.points, multipliers=traj.points[:, 0],
                                     max_violation=0.5)

    monkeypatch.setattr(cli, "verify_reflection", bad_certificate)
    body = write_json(tmp_path / "body.json", TRIANGLE)
    assert cli.main(["billiard", "--body", body]) == cli.EXIT_NO_CONVERGENCE
    assert json.loads(capsys.readouterr().out)["violation"] == 0.5
    # the residual is judged against --tol converged
    assert cli.main(["billiard", "--body", body, "--tol", "converged=1"]) == cli.EXIT_OK

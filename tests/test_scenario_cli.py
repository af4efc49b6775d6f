"""Scenario loading, the published schema, artifact writing, CLI exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delaynet import __version__
from delaynet.cli import main
from delaynet.dynamics import NodeDynamics
from delaynet.scenario import (
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

BUNDLED = sorted(SCENARIOS.glob("*.json"))


def minimal_doc(**overrides):
    doc = {
        "model": {
            "node": {"type": "linear", "matrix": [[-1.0]]},
            "coupling": {"matrix": [[-1.0, 1.0], [1.0, -1.0]]},
        },
        "history": {"type": "constant", "value": [0.5, -0.5]},
        "integrator": {"step": 0.01, "horizon": 0.1},
    }
    doc.update(overrides)
    return doc


def test_bundle_is_present():
    assert len(BUNDLED) >= 4


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_scenarios_load(path):
    scenario = load_scenario(path)
    assert scenario.model.m >= 2
    assert scenario.config.horizon > 0


@pytest.mark.parametrize("name, fragment", [
    ("missing_integrator", "'integrator' is a required property"),
    ("bad_gamma", "model.gamma"),
    ("negative_tau", "minimum of 0"),
    ("unknown_node", "'duffing' is not one of"),
    ("unknown_kernel", "'gamma_density' is not one of"),
    ("history_mismatch", "history.value"),
    ("bad_json", "invalid JSON at line"),
    ("partial_step", "integrator: horizon 1.0 is not a whole number of steps"),
])
def test_invalid_fixture_is_rejected_with_located_error(name, fragment):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(FIXTURES / f"{name}.json")
    assert any(fragment in line for line in exc.value.errors)


def test_negative_tau_error_points_at_the_tau_key():
    with pytest.raises(ScenarioError) as exc:
        load_scenario(FIXTURES / "negative_tau.json")
    assert any("$.model.delays.tau" in line for line in exc.value.errors)


def test_declared_node_count_must_match_coupling():
    doc = minimal_doc()
    doc["model"]["m"] = 5
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert any("model.m" in line for line in exc.value.errors)


def test_run_without_certificate_writes_trajectory_and_sync_only(tmp_path):
    scenario = load_scenario(FIXTURES.parent.parent / "scenarios" / "chua_uncoupled.json")
    summary, code = run_scenario(scenario, out_dir=tmp_path)
    assert code == 0
    assert sorted(summary["artifacts"]) == ["sync", "trajectory"]
    assert summary["certificate"] is None
    assert summary["envelope"] is None
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "sync.csv").exists()


def test_run_with_certificate_writes_four_artifacts(tmp_path):
    scenario = load_scenario(SCENARIOS / "linear_network.json")
    summary, code = run_scenario(scenario, out_dir=tmp_path)
    assert code == 0
    assert sorted(summary["artifacts"]) == [
        "certificate", "envelope", "sync", "trajectory"]
    assert summary["certificate"]["passed"] is True
    assert summary["envelope"]["verdict"] is True
    report = (tmp_path / "certificate.txt").read_text(encoding="utf-8")
    assert "PASS" in report


def test_single_node_scenario_skips_the_sync_report(tmp_path):
    doc = minimal_doc()
    doc["model"]["coupling"] = {"matrix": [[0.0]]}
    doc["history"]["value"] = [0.5]
    scenario = scenario_from_dict(doc)
    summary, code = run_scenario(scenario, out_dir=tmp_path)
    assert code == 0
    assert summary["sync"] is None
    assert "sync" not in summary["artifacts"]


def test_rerun_is_byte_identical(tmp_path):
    scenario = load_scenario(FIXTURES / "failing_certificate.json")
    run_scenario(scenario, out_dir=tmp_path / "a")
    run_scenario(scenario, out_dir=tmp_path / "b")
    for name in ("trajectory.csv", "certificate.txt", "envelope.csv", "sync.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name


def test_output_stride_thins_the_trajectory_rows(tmp_path):
    doc = minimal_doc(output={"stride": 5})
    scenario = scenario_from_dict(doc)
    summary, _ = run_scenario(scenario, out_dir=tmp_path)
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 3  # samples 0, 5, 10 of the 11-sample run
    assert summary["samples"] == 11


def test_cli_version_prints_the_package_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_cli_validate_accepts_every_bundled_scenario(capsys):
    for path in BUNDLED:
        assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "valid scenario" in out


def test_cli_validate_rejects_with_exit_2(capsys):
    code = main(["validate", str(FIXTURES / "unknown_node.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_is_an_io_error(capsys):
    code = main(["validate", str(FIXTURES / "no_such_file.json")])
    assert code == 5
    assert "cannot read" in capsys.readouterr().err


def test_cli_run_failing_certificate_exits_3(tmp_path, capsys):
    code = main(["run", str(FIXTURES / "failing_certificate.json"),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 3
    assert "certificate" in capsys.readouterr().err


def test_cli_run_blowup_exits_4_and_keeps_partial_artifacts(tmp_path, capsys):
    doc = minimal_doc()
    doc["model"]["node"] = {"type": "linear", "matrix": [[6.0]]}
    doc["model"]["coupling"] = {"matrix": [[0.0]]}
    doc["history"]["value"] = [1.0]
    doc["integrator"] = {"step": 0.01, "horizon": 10.0}
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 4
    assert "blow-up" in capsys.readouterr().err
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) > 10


def test_cli_run_quiet_suppresses_the_summary(tmp_path, capsys):
    code = main(["run", str(SCENARIOS / "linear_network.json"),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_check_quad_pass_and_fail(tmp_path, capsys):
    assert main(["check-quad", str(SCENARIOS / "linear_network.json"),
                 "--quiet"]) == 0
    assert main(["check-quad", str(FIXTURES / "failing_certificate.json"),
                 "--quiet"]) == 3
    code = main(["check-quad", str(SCENARIOS / "chua_uncoupled.json")])
    assert code == 2
    assert "no certificate section" in capsys.readouterr().err


def test_cli_check_quad_report_mentions_the_witness(capsys):
    assert main(["check-quad", str(FIXTURES / "failing_certificate.json")]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness" in out


def test_cli_seed_override_changes_the_probe_seed(tmp_path):
    base = json.loads((FIXTURES / "failing_certificate.json").read_text())
    scenario = scenario_from_dict(base)
    summary_a, _ = run_scenario(scenario, out_dir=tmp_path / "a", seed=1)
    summary_b, _ = run_scenario(scenario, out_dir=tmp_path / "b", seed=2)
    assert summary_a["certificate"]["seed"] == 1
    assert summary_b["certificate"]["seed"] == 2


@pytest.mark.parametrize("probe, fragment", [
    ({"box": [[1.0], [0.0]]}, "certificate.box: coordinate 0 has hi <= lo"),
    ({"box": [[-1e308], [1e308]]}, "certificate.box: coordinate 0 has a non-finite extent"),
    ({"t_range": [1.0, 0.0]}, "certificate.t_range: start 1 is after end 0"),
], ids=["inverted-box", "overflowing-box", "reversed-t-range"])
def test_invalid_probe_domain_exits_2_from_every_command(tmp_path, capsys, probe, fragment):
    doc = minimal_doc(certificate=dict(
        {"type": "explicit", "P": [[1.0]], "Delta": [0.0], "epsilon": 0.5}, **probe))
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert any(line.startswith(fragment) for line in exc.value.errors)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "run", "check-quad"):
        assert main([command, str(path)]) == 2, command
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("keys, value, literal, where", [
    (("model", "gamma"), [["X", 0.0], [0.0, 1.0]], "NaN", "$.model.gamma[0][0]"),
    (("history", "value"), [[0.5, 0.0], [-0.3, "X"], [0.1, -0.4]], "NaN",
     "$.history.value[1][1]"),
    (("model", "delays"), {"type": "constant", "tau": "X"}, "NaN", "$.model.delays.tau"),
    (("model", "delays"), {"type": "constant", "tau": "X"}, "Infinity", "$.model.delays.tau"),
    (("model", "delays"), {"type": "constant", "tau": "X"}, "1e400", "$.model.delays.tau"),
    (("model", "coupling"), {"matrix": [[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, "X", -1.0]]},
     "NaN", "$.model.coupling.matrix[2][1]"),
    (("certificate", "epsilon"), "X", "NaN", "$.certificate.epsilon"),
    (("model", "node", "matrix"), [[0.0, 1.0], ["X", -0.5]], "NaN", "$.model.node.matrix[1][0]"),
    (("integrator", "step"), "X", "1" + "0" * 400, "$.integrator.step"),
], ids=["gamma-nan", "history-nan", "tau-nan", "tau-infinity", "tau-1e400", "coupling-nan",
        "epsilon-nan", "node-nan", "step-400-digits"])
def test_non_finite_numbers_exit_2_with_their_path(tmp_path, capsys, keys, value, literal, where):
    # json.loads admits NaN and Infinity, reads 1e400 as inf and keeps a
    # 400-digit integer as an int that no double holds; "X" marks the spot
    doc = json.loads((SCENARIOS / "linear_network.json").read_text(encoding="utf-8"))
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc).replace('"X"', literal), encoding="utf-8")
    parsed = json.loads(literal)
    got = repr(parsed) if isinstance(parsed, float) else "an integer beyond the range of a double"
    message = f"error: {where}: number must be finite, got {got}"
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")],
                 ["check-quad", str(path)]):
        assert main(argv) == 2, argv[0]
        assert message in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["run", "check-quad"])
def test_cli_negative_seed_exits_2_with_a_message(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(FIXTURES / "failing_certificate.json"),
              "--out", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be a nonnegative integer, got '-1'" in capsys.readouterr().err


def test_cli_check_quad_fails_on_a_non_finite_field(monkeypatch, capsys):
    nan_node = NodeDynamics(dim=1, fn=lambda t, u: np.full_like(u, np.nan))
    monkeypatch.setattr("delaynet.scenario.make_node", lambda spec: nan_node)
    assert main(["check-quad", str(FIXTURES / "failing_certificate.json")]) == 3
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "probes: 1\n" in out
    assert "lhs=nan" in out


def test_console_entry_point_is_installed():
    proc = subprocess.run([sys.executable, "-m", "delaynet", "version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__

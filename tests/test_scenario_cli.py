"""Scenario loading, the published schema, artifact writing, CLI exit codes."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaynet
from delaynet import __version__
from delaynet.cli import main
from delaynet.dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    OutputFunction,
    chua_node,
    identity_output,
    linear_node,
    linear_output,
)
from delaynet.history import HistoryFunction
from delaynet.integrator import IntegratorConfig, integrate
from delaynet.kernels import dirac
from delaynet.scenario import (
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_schema,
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


def test_a_scenario_loads_with_the_package_imported_under_another_name(monkeypatch):
    # None in sys.modules makes `import delaynet` fail, so nothing can reach
    # the schema through the name "delaynet"
    init = Path(delaynet.__file__)
    spec = importlib.util.spec_from_file_location(
        "delaynet_renamed", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    with monkeypatch.context() as patch:
        patch.setitem(sys.modules, "delaynet", None)
        patch.setitem(sys.modules, "delaynet_renamed", package)
        try:
            spec.loader.exec_module(package)
            scenario = package.load_scenario(SCENARIOS / "linear_network.json")
            schema = package.scenario_schema()
        finally:
            for key in [k for k in sys.modules if k.startswith("delaynet_renamed.")]:
                del sys.modules[key]
    assert schema == delaynet.scenario_schema()
    want = load_scenario(SCENARIOS / "linear_network.json")
    assert scenario.model.m == want.model.m and scenario.config.steps == want.config.steps


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


def model_of(n=1, **model):
    """The model of ``minimal_doc`` with ``model`` merged into its model
    section, for nodes of ``n`` states at zero history."""
    doc = minimal_doc(history={"type": "constant", "value": [0.0] * (2 * n)})
    doc["model"].update(model)
    return scenario_from_dict(doc).model


def validate_errors(tmp_path, capsys, doc):
    """The error lines of ``delaynet validate`` on ``doc``, which must exit 2."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    return capsys.readouterr().err.splitlines()


def test_every_kernel_form_builds_from_a_scenario(tmp_path, capsys):
    def kernel(spec):
        return model_of(kernels=spec).kernels[0][1]

    assert kernel({"type": "dirac", "location": 0.25, "weight": 2.0}).atoms == ((0.25, 2.0),)
    ker = kernel({"type": "exponential", "rate": 2.0, "weight": 0.5})
    assert (ker.density.rate, ker.density.weight) == (2.0, 0.5)
    ker = kernel({"type": "uniform", "a": 0.1, "b": 0.9})
    assert (ker.density.a, ker.density.b, ker.total_variation()) == (0.1, 0.9, 1.0)
    mix = kernel({"type": "mixture", "components": [
        {"type": "dirac", "location": 0.0},
        {"type": "exponential", "rate": 1.0, "weight": -0.5},
    ]})
    assert mix.atoms == ((0.0, 1.0),) and mix.density.weight == -0.5
    assert mix.total_variation() == 1.5
    for spec, message in [
        ({"type": "gaussian", "sigma": 1.0}, "$.model.kernels.type: 'gaussian' is not one of "
                                             "['dirac', 'exponential', 'uniform', 'mixture']"),
        ({"rate": 1.0}, "$.model.kernels: 'type' is a required property"),
        ({"type": "uniform", "a": 0.1}, "$.model.kernels: 'b' is a required property"),
    ]:
        doc = minimal_doc()
        doc["model"]["kernels"] = spec
        assert f"error: {message}" in validate_errors(tmp_path, capsys, doc)


def test_every_node_form_builds_from_a_scenario(tmp_path, capsys):
    node = model_of(3, node={"type": "chua"}).node
    assert node.name == "chua" and node.lipschitz_hint == chua_node().lipschitz_hint
    node = model_of(3, node={"type": "chua", "alpha": 3.0, "m1": -0.5}).node
    assert node.lipschitz_hint == chua_node(alpha=3.0, m1=-0.5).lipschitz_hint
    node = model_of(2, node={"type": "linear", "matrix": [[0.0, 1.0], [-1.0, 0.0]]}).node
    assert (node.name, node.dim) == ("linear", 2)
    np.testing.assert_array_equal(node.eval(0.0, np.array([1.0, 2.0])), [2.0, -1.0])
    node = model_of(1, node={"type": "tanh_hopfield", "weights": [[0.5]], "bias": [0.25]}).node
    assert (node.name, node.dim) == ("tanh_hopfield", 1)
    np.testing.assert_array_equal(node.eval(0.0, np.zeros(1)), [0.25])
    for spec, message in [
        ({"type": "lorenz"},
         "$.model.node.type: 'lorenz' is not one of ['linear', 'chua', 'tanh_hopfield']"),
        ({"type": "linear"}, "$.model.node: 'matrix' is a required property"),
    ]:
        doc = minimal_doc()
        doc["model"]["node"] = spec
        assert f"error: {message}" in validate_errors(tmp_path, capsys, doc)


@pytest.mark.parametrize("keys, value, message", [
    (("model", "kernels"), {"type": "dirac", "locaton": 0.5},
     "$.model.kernels: Additional properties are not allowed ('locaton' was unexpected)"),
    (("model", "node"), {"type": "chua", "alpah": 3.0},
     "$.model.node: Additional properties are not allowed ('alpah' was unexpected)"),
    (("model", "kernels"), {"type": "exponential", "rate": 2.0, "location": 0.1},
     "$.model.kernels: Additional properties are not allowed ('location' was unexpected)"),
    (("model", "kernels"), {"type": "mixture", "weight": 2.0, "components": [
        {"type": "dirac"}, {"type": "exponential", "rate": 2.0}]},
     "$.model.kernels: Additional properties are not allowed ('weight' was unexpected)"),
    (("model", "kernels"), {"type": "mixture", "components": [
        {"type": "dirac"}, {"type": "exponential", "rate": 2.0, "wieght": 0.5}]},
     "$.model.kernels.components[1]: Additional properties are not allowed "
     "('wieght' was unexpected)"),
    (("model", "kernels"), {"offdiagonal": {"type": "exponential"}},
     "$.model.kernels.offdiagonal: 'rate' is a required property"),
], ids=["dirac-locaton", "chua-alpah", "exponential-location", "mixture-weight",
        "mixture-component-wieght", "exponential-without-rate"])
def test_a_misspelled_or_missing_node_or_kernel_key_exits_2_at_its_path(
        tmp_path, capsys, keys, value, message):
    doc = json.loads((SCENARIOS / "linear_network.json").read_text(encoding="utf-8"))
    doc["model"][keys[1]] = value
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")],
                 ["check-quad", str(path)]):
        assert main(argv) == 2, argv[0]
        assert f"error: {message}" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "out").exists()


def test_the_schema_gives_each_node_and_kernel_tag_exactly_its_factorys_arguments():
    schema = scenario_schema()
    for tagged, factories in [(schema["properties"]["model"]["properties"]["node"],
                               delaynet.scenario._NODES),
                              (schema["$defs"]["kernel"], delaynet.scenario._KERNELS)]:
        assert tagged["properties"]["type"]["enum"] == list(factories)
        rules = {rule["if"]["properties"]["type"]["const"]: rule["then"]
                 for rule in tagged["allOf"]}
        assert list(rules) == list(factories)
        for tag, rule in rules.items():
            params = inspect.signature(factories[tag]).parameters.values()
            assert rule["additionalProperties"] is False, tag
            assert set(rule["properties"]) == {"type"} | {p.name for p in params}, tag
            assert set(rule.get("required", ())) == {p.name for p in params
                                                     if p.default is p.empty}, tag


def two_state_doc(**model):
    """Two linear nodes of two states each, with ``model`` merged into the
    model section."""
    doc = minimal_doc(history={"type": "constant", "value": [[0.5, 0.0], [-0.3, 0.2]]})
    doc["model"] = {"node": {"type": "linear", "matrix": [[0.0, 1.0], [-1.0, -0.5]]},
                    "coupling": {"matrix": [[-1.0, 1.0], [1.0, -1.0]]}, **model}
    return doc


def test_every_failing_section_is_reported_at_its_key():
    # a bad gamma used to stop validation before the history, integrator
    # and certificate were read
    doc = two_state_doc(gamma=[[1.0]])
    doc["history"]["value"] = [0.5]
    doc["integrator"] = {"step": 0.3, "horizon": 1.0}
    doc["certificate"] = {"type": "explicit", "P": [[1.0]], "Delta": [0.0, 0.0],
                          "epsilon": 0.5, "t_range": [1, 0]}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.errors == [
        "model.gamma: shape (1, 1) does not match the node dimension 2",
        "history.value: expected 4 numbers (2 nodes x 2 states), got 1",
        "integrator: horizon 1.0 is not a whole number of steps of 0.3",
        "certificate.P: shape (1, 1) does not match the node dimension 2",
        "certificate.t_range: start 1 is after end 0",
    ]


def library_run(doc, output, delays):
    """The run of ``doc`` with the model built from library calls."""
    model = NetworkModel(m=2, node=linear_node(doc["model"]["node"]["matrix"]),
                         output=output,
                         coupling=CouplingSchedule.constant(doc["model"]["coupling"]["matrix"]),
                         delays=delays, kernels=dirac())
    return integrate(model, HistoryFunction.constant(np.ravel(doc["history"]["value"])),
                     IntegratorConfig(h=doc["integrator"]["step"],
                                      horizon=doc["integrator"]["horizon"]))


def scenario_run(doc):
    scenario = scenario_from_dict(doc)
    return integrate(scenario.model, scenario.history, scenario.config)


def test_model_gamma_runs_as_the_library_linear_output():
    gamma = [[1.0, 0.2], [0.0, 0.5]]
    doc = two_state_doc(gamma=gamma)
    got = scenario_run(doc)
    want = library_run(doc, linear_output(np.array(gamma)), DelaySchedule.zero())
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.states, want.states)
    # gamma is read: without it the output is the identity, another run
    assert not np.array_equal(got.states, scenario_run(two_state_doc()).states)


def test_matrix_delays_run_as_the_library_constant_delay_matrix():
    values = [[0.0, 0.03], [0.05, 0.0]]
    doc = two_state_doc(delays={"type": "matrix", "values": values})
    np.testing.assert_array_equal(scenario_from_dict(doc).model.delays.table_for(2)(0.0),
                                  values)
    got = scenario_run(doc)
    want = library_run(doc, identity_output(2), DelaySchedule.constant(np.array(values)))
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.states, want.states)


def test_an_unmet_sync_threshold_fails_the_run_only_when_given(tmp_path):
    # two uncoupled nodes held at 0.5 and -0.5 stay a distance 1 apart
    doc = minimal_doc()
    doc["model"] = {"node": {"type": "linear", "matrix": [[0.0]]},
                    "coupling": {"matrix": [[0.0, 0.0], [0.0, 0.0]]}}
    summary, code = run_scenario(scenario_from_dict(doc), out_dir=tmp_path / "default")
    assert code == 0 and summary["failures"] == []
    assert summary["sync"]["synchronized"] is False
    doc["diagnostics"] = {"sync_threshold": 1e-3}
    summary, code = run_scenario(scenario_from_dict(doc), out_dir=tmp_path / "given")
    assert code == 3
    assert summary["failures"] == ["sync"]
    assert summary["sync"]["threshold"] == 1e-3


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


@pytest.mark.parametrize("command", ["run", "check-quad"])
def test_cli_unwritable_output_exits_5(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code = main([command, str(FIXTURES / "failing_certificate.json"),
                 "--out", str(blocker / "out"), "--quiet"])
    assert code == 5
    assert "error: cannot write artifacts" in capsys.readouterr().err


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


def test_cli_run_prints_a_json_summary(tmp_path, capsys):
    code = main(["run", str(FIXTURES / "failing_certificate.json"), "--out", str(tmp_path)])
    assert code == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["name"] == "failing-certificate"
    assert summary["exit_code"] == 3 and summary["failures"] == ["certificate"]
    assert summary["artifacts"]["certificate"] == str(tmp_path / "certificate.txt")


def test_cli_seed_reaches_the_summary(tmp_path, capsys):
    assert main(["run", str(FIXTURES / "failing_certificate.json"),
                 "--out", str(tmp_path), "--seed", "7"]) == 3
    assert json.loads(capsys.readouterr().out)["certificate"]["seed"] == 7


def test_cli_check_quad_writes_the_certificate_the_run_writes(tmp_path):
    fixture = str(FIXTURES / "failing_certificate.json")
    for seed in ("0", "7"):
        run_dir, quad_dir = tmp_path / f"run{seed}", tmp_path / f"quad{seed}"
        assert main(["run", fixture, "--out", str(run_dir), "--seed", seed, "--quiet"]) == 3
        assert main(["check-quad", fixture, "--out", str(quad_dir), "--seed", seed,
                     "--quiet"]) == 3
        assert sorted(p.name for p in quad_dir.iterdir()) == ["certificate.txt"]
        assert ((quad_dir / "certificate.txt").read_bytes()
                == (run_dir / "certificate.txt").read_bytes())
    assert ((tmp_path / "quad0" / "certificate.txt").read_bytes()
            != (tmp_path / "quad7" / "certificate.txt").read_bytes())


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


@pytest.mark.parametrize("keys, value, message", [
    (("model", "coupling"), {"matrix": [[-1.0, 0.5, 0.5], [0.5, -0.5], [0.5, 0.5, -1.0]]},
     "$.model.coupling.matrix: rows differ in length, row 0 has length 3 and row 1 has length 2"),
    (("model", "gamma"), [[1.0, 0.0], [0.0]],
     "$.model.gamma: rows differ in length, row 0 has length 2 and row 1 has length 1"),
    (("history", "value"), [[0.5, 0.0], [-0.3, 0.2], [0.1]],
     "$.history.value: rows differ in length, row 0 has length 2 and row 2 has length 1"),
    (("certificate", "P"), [[1.0, 0.0], [0.0]],
     "$.certificate.P: rows differ in length, row 0 has length 2 and row 1 has length 1"),
    (("model", "delays"), {"type": "matrix", "values": [[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1]]},
     "$.model.delays.values: rows differ in length, row 0 has length 3 and row 2 has length 1"),
    (("model", "node", "matrix"), [[0.0, 1.0], -1.0],
     "$.model.node.matrix[1]: -1.0 is not of type 'array'"),
    (("model", "delays"), {"type": "matrix", "values": [[0.0, 0.1], [0.1, 0.0]]},
     "model.delays.values: shape (2, 2) does not match the node count 3"),
    (("model", "coupling"), {"matrix": [[0.0, 1.0]]},
     "model.coupling.matrix: must be square, got shape (1, 2)"),
    (("history", "value"), [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1]],
     "history.value: nested form must be 3 nodes x 2 states, got shape (2, 3)"),
    (("certificate", "Delta"), [1.0, 1.0, 1.0],
     "certificate.Delta: 3 entries, node dimension is 2"),
], ids=["coupling", "gamma", "history", "certificate-P", "delays", "node", "delays-size",
        "coupling-not-square", "history-shape", "certificate-Delta"])
def test_ragged_or_missized_matrices_exit_2_with_their_key(tmp_path, capsys, keys, value,
                                                          message):
    doc = json.loads((SCENARIOS / "linear_network.json").read_text(encoding="utf-8"))
    doc["certificate"] = {"type": "explicit", "P": [[1.0, 0.0], [0.0, 1.0]],
                          "Delta": [1.0, 1.0], "epsilon": 0.5}
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")],
                 ["check-quad", str(path)]):
        assert main(argv) == 2, argv[0]
        assert f"error: {message}" in capsys.readouterr().err.splitlines()


def test_oversized_quadrature_plan_exits_2_from_every_command(tmp_path, capsys):
    # 1.1e13 trapezoid nodes: refused by count, where allocating them failed
    doc = json.loads((SCENARIOS / "distributed_delay.json").read_text(encoding="utf-8"))
    doc["model"]["quadrature"]["node_spacing"] = 1e-12
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")],
                 ["check-quad", str(path)]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "error: model: node_spacing 1e-12 gives 1.117e+13 quadrature nodes" in err


@pytest.mark.parametrize("command", ["run", "check-quad"])
def test_cli_negative_seed_exits_2_with_a_message(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(FIXTURES / "failing_certificate.json"),
              "--out", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be a nonnegative integer, got '-1'" in capsys.readouterr().err


def test_cli_check_quad_fails_on_a_non_finite_field(monkeypatch, capsys):
    nan_node = NodeDynamics(dim=1, fn=lambda t, u: np.full_like(u, np.nan))
    monkeypatch.setattr("delaynet.scenario._build_node", lambda spec: nan_node)
    assert main(["check-quad", str(FIXTURES / "failing_certificate.json")]) == 3
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "probes: 1\n" in out
    assert "lhs=nan" in out


def test_cli_check_quad_names_a_non_finite_derivative_instead_of_gamma(monkeypatch, capsys):
    # the field is NaN at x0, so no gamma bounds the frozen derivative; the
    # report used to print gamma: 0 and a finite eta
    nan_node = NodeDynamics(dim=1, fn=lambda t, u: np.full_like(u, np.nan))
    monkeypatch.setattr("delaynet.scenario._build_node", lambda spec: nan_node)
    assert main(["check-quad", str(FIXTURES / "failing_certificate.json")]) == 3
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "gamma:" not in out
    assert "eta:" not in out
    assert out.endswith("  constants: non-finite derivative at node index 0, t=0.0\n")


def nan_output_doc(tmp_path, monkeypatch):
    """An uncoupled network with a passing certificate whose output is NaN:
    the run never reads g, but the frozen derivative multiplies it by 0."""
    monkeypatch.setattr("delaynet.scenario.identity_output", lambda dim: OutputFunction(
        dim=dim, fn=lambda t, u: np.full_like(u, np.nan), kappa=1.0))
    doc = minimal_doc(certificate={"type": "lipschitz", "epsilon": 0.1, "budget": 50})
    doc["model"]["coupling"] = {"matrix": [[0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "nan-output.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_check_quad_fails_on_missing_constants_after_a_pass(tmp_path, monkeypatch, capsys):
    path = nan_output_doc(tmp_path, monkeypatch)
    assert main(["check-quad", str(path)]) == 3
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "gamma:" not in out
    assert "  constants: non-finite derivative at node index 0, t=0.0\n" in out


def test_run_with_missing_constants_skips_the_envelope_and_exits_3(tmp_path, monkeypatch):
    scenario = load_scenario(nan_output_doc(tmp_path, monkeypatch))
    summary, code = run_scenario(scenario, out_dir=tmp_path / "out")
    assert code == 3
    assert summary["failures"] == ["constants"]
    assert summary["certificate"]["passed"] is True
    assert summary["certificate"]["eta"] is None
    assert summary["envelope"] is None
    assert sorted(summary["artifacts"]) == ["certificate", "sync", "trajectory"]
    assert not (tmp_path / "out" / "envelope.csv").exists()
    report = (tmp_path / "out" / "certificate.txt").read_text(encoding="utf-8")
    assert "constants: non-finite derivative at node index 0, t=0.0" in report


def test_run_with_a_non_finite_field_blows_up_first_and_exits_4(tmp_path, monkeypatch):
    nan_node = NodeDynamics(dim=1, fn=lambda t, u: np.full_like(u, np.nan))
    monkeypatch.setattr("delaynet.scenario._build_node", lambda spec: nan_node)
    scenario = load_scenario(FIXTURES / "failing_certificate.json")
    summary, code = run_scenario(scenario, out_dir=tmp_path)
    assert code == 4
    assert summary["blowup"]["time"] == 0.0
    assert summary["failures"] == ["certificate", "constants"]
    assert summary["envelope"] is None


def test_console_entry_point_is_installed():
    # the subprocess imports delaynet from where this process found it, so
    # the test also passes from a checkout that installs nothing
    src = str(Path(delaynet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "delaynet", "version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_omitted_probe_budget_and_envelope_tolerance_are_the_functions_defaults(
        tmp_path, monkeypatch):
    import inspect

    from delaynet import scenario as scenario_module
    from delaynet.certificates import check_quad
    from delaynet.diagnostics import check_envelope

    tolerances = []

    def spy(*args, **kwargs):
        report = check_envelope(*args, **kwargs)
        tolerances.append(report.rel_tol)
        return report

    monkeypatch.setattr(scenario_module, "check_envelope", spy)
    doc = minimal_doc(certificate={"type": "lipschitz", "epsilon": 0.1})
    summary, code = run_scenario(scenario_from_dict(doc), out_dir=tmp_path / "defaults")
    assert code == 0
    assert summary["certificate"]["probes"] == 2000
    assert inspect.signature(check_quad).parameters["budget"].default == 2000
    assert tolerances == [inspect.signature(check_envelope).parameters["rel_tol"].default]
    doc["certificate"]["budget"] = 30
    doc["diagnostics"] = {"envelope_rel_tol": 1e-3}
    summary, code = run_scenario(scenario_from_dict(doc), out_dir=tmp_path / "given")
    assert summary["certificate"]["probes"] == 30
    assert tolerances[-1] == 1e-3

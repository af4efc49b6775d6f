"""Scenario files: load, validate, build, run.

A scenario is a JSON document matching the published schema, packaged at
``src/delaynet/schemas/scenario.json``.  The schema names every key a
section takes; the keys of a node or kernel record are the keyword arguments
of the factory its tag names.  Loading checks it against the
schema, then for numbers that are not finite and for ragged matrices, then
builds each section with one builder that returns its object or raises
``ValueError``.  Every failing section is reported at its key, all together
and before any computation starts.  Running integrates the network and
writes the requested artifact files into an output directory; artifacts
are plain CSV or text and contain no timestamps, so identical scenario +
seed reproduce them byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from .certificates import (
    ProofConstants,
    QuadCertificate,
    check_quad,
    format_certificate_report,
    lipschitz_certificate,
    probe_domain,
)
from .diagnostics import (
    check_envelope,
    sync_report,
    write_envelope_csv,
    write_sync_csv,
)
from .dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    NonFiniteDerivative,
    OutputFunction,
    chua_node,
    identity_output,
    linear_node,
    linear_output,
    named_topology,
    tanh_hopfield_node,
)
from .history import HistoryFunction, write_trajectory_csv
from .integrator import BlowUpError, IntegratorConfig, integrate
from .kernels import dirac, exponential, mixture, uniform

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "scenario_from_dict",
    "run_scenario",
    "certify",
    "scenario_schema",
]

_DEFAULT_SYNC_THRESHOLD = 1e-3
_DEFAULT_PROBE_BOX = 5.0


class ScenarioError(ValueError):
    """Scenario document rejected; ``errors`` lists every located problem."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


def scenario_schema() -> dict:
    """The published JSON schema, as packaged."""
    text = resources.files(__package__).joinpath("schemas/scenario.json").read_text("utf-8")
    return json.loads(text)


@cache  # a process that loads many scenarios reads and compiles the schema once
def _validator() -> Draft202012Validator:
    return Draft202012Validator(scenario_schema())


@dataclass
class Scenario:
    """A validated scenario, fully built and ready to run."""

    name: str
    model: NetworkModel
    history: HistoryFunction
    config: IntegratorConfig
    certificate: QuadCertificate | None
    cert_params: dict
    envelope_params: dict
    sync_threshold: float | None
    sync_window: float | None
    output_dir: str
    output_stride: int


def load_scenario(path) -> Scenario:
    """Read, validate, and build a scenario file.

    Raises ``ScenarioError`` for malformed JSON, schema violations, or
    dimension mismatches; ``OSError`` propagates for unreadable paths.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            [f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"]
        ) from None
    return scenario_from_dict(doc, default_name=path.stem)


def scenario_from_dict(doc, default_name: str = "scenario") -> Scenario:
    """Validate a parsed document and build the runnable pieces.

    Every failing section is reported at its key in one ``ScenarioError``;
    a section built from a failed one is left out.
    """
    schema_errors = sorted(_validator().iter_errors(doc),
                           key=lambda e: list(e.absolute_path))
    if schema_errors:
        raise ScenarioError([_locate(err) for err in schema_errors])
    malformed = [*_non_finite(doc, "$"), *_ragged(doc, "$")]
    if malformed:
        raise ScenarioError(malformed)

    errs: list[str] = []

    def build(key, make, *args, **kwargs):
        # make's result, or None with its ValueError reported at key; a
        # builder names a key below its section as the error's second argument
        try:
            return make(*args, **kwargs)
        except ValueError as err:
            message, *below = err.args
            errs.append(f"{'.'.join([key, *below])}: {message}")
            return None

    msec = doc["model"]
    node = build("model.node", _build_node, msec["node"])
    coupling = build("model.coupling", _build_coupling, msec["coupling"])
    output = delays = kernels = model = history = None
    if node is not None:
        output = build("model.gamma", _build_output, msec.get("gamma"), node.dim)
    if coupling is not None:
        m, dsec = coupling.m, msec.get("delays", {"type": "zero"})
        build("model.m", _check_node_count, msec, m)
        delays = build(f"model.delays{'.values' if 'values' in dsec else ''}",
                       _build_delays, dsec, m)
        kernels = build("model.kernels", _build_kernels, msec.get("kernels", {"type": "dirac"}), m)
    if all(part is not None for part in (output, delays, kernels)):
        model = build("model", NetworkModel, m=m, node=node, output=output, coupling=coupling,
                      delays=delays, kernels=kernels, **msec.get("quadrature", {}))
    if node is not None and coupling is not None:
        history = build("history.value", _build_history, doc["history"]["value"], m, node.dim)

    isec = doc["integrator"]
    config = build("integrator", IntegratorConfig, h=float(isec["step"]),
                   horizon=float(isec["horizon"]), **_given(isec, "method"))

    certificate, cert_params = None, {}
    if "certificate" in doc and node is not None:
        certificate = build("certificate", _build_certificate, doc["certificate"], node)
        cert_params = build("certificate", _build_probe_domain, doc["certificate"], node.dim)

    if errs:
        raise ScenarioError(errs)

    dsec = doc.get("diagnostics", {})
    osec = doc.get("output", {})
    return Scenario(
        name=doc.get("name", default_name),
        model=model,
        history=history,
        config=config,
        certificate=certificate,
        cert_params=cert_params,
        envelope_params=({"rel_tol": float(dsec["envelope_rel_tol"])}
                         if "envelope_rel_tol" in dsec else {}),
        sync_threshold=(float(dsec["sync_threshold"])
                        if "sync_threshold" in dsec else None),
        sync_window=(float(dsec["sync_window"]) if "sync_window" in dsec else None),
        output_dir=osec.get("directory", "out"),
        output_stride=int(osec.get("stride", 1)),
    )


_SHALLOW_VALIDATORS = ("type", "const", "required", "additionalProperties")


def _locate(err) -> str:
    # For combinator failures (oneOf/anyOf) the useful message sits in a
    # sub-error.  The branch that matched deepest is the one the author
    # meant; structural complaints lose ties to value-level ones.
    while err.context:
        err = max(err.context,
                  key=lambda e: (len(list(e.absolute_path)),
                                 e.validator not in _SHALLOW_VALIDATORS))
    path = err.json_path if err.json_path != "$" else "$ (document root)"
    return f"{path}: {err.message}"


def _non_finite(value, path: str):
    # json.loads admits NaN and Infinity, turns 1e400 into inf and keeps a
    # 400-digit integer as an int no double holds; the schema's "number"
    # accepts all of them
    if isinstance(value, float) and not math.isfinite(value):
        yield f"{path}: number must be finite, got {value!r}"
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        yield f"{path}: number must be finite, got an integer beyond the range of a double"
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{k}]")


def _ragged(value, path: str):
    # the schema takes a matrix as a list of vectors of any lengths, which
    # numpy cannot make an array of
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _ragged(item, f"{path}.{key}")
    elif isinstance(value, list):
        rows = [f"has length {len(item)}" if isinstance(item, list) else "is not a list"
                for item in value]
        k = next((k for k, row in enumerate(rows) if row != rows[0]), None)
        if k is not None:
            yield f"{path}: rows differ in length, row 0 {rows[0]} and row {k} {rows[k]}"
            return
        for k, item in enumerate(value):
            yield from _ragged(item, f"{path}[{k}]")


def _given(spec: dict, *keys: str) -> dict:
    """The entries of ``spec`` among ``keys``; an omitted one keeps its default."""
    return {k: spec[k] for k in keys if k in spec}


# a node or kernel record is its tag and its factory's keyword arguments,
# the keys the schema allows that tag
_NODES = {"linear": linear_node, "chua": chua_node, "tanh_hopfield": tanh_hopfield_node}
_KERNELS = {"dirac": dirac, "exponential": exponential, "uniform": uniform,
            "mixture": lambda components: mixture(*(_tagged(_KERNELS, c) for c in components))}


def _tagged(factories: dict, spec: dict):
    params = dict(spec)
    return factories[params.pop("type")](**params)


def _build_node(spec: dict) -> NodeDynamics:
    return _tagged(_NODES, spec)


def _build_coupling(spec: dict) -> CouplingSchedule:
    if "matrix" in spec:
        A = np.asarray(spec["matrix"], dtype=float)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"must be square, got shape {A.shape}", "matrix")
    else:
        A = float(spec["strength"]) * named_topology(spec["topology"], int(spec["m"]))
    return CouplingSchedule.constant(A)


def _check_node_count(spec: dict, m: int) -> None:
    if "m" in spec and int(spec["m"]) != m:
        raise ValueError(f"declares {spec['m']} nodes but the coupling section implies {m}")


def _build_output(gamma, n: int) -> OutputFunction:
    if gamma is None:
        return identity_output(n)
    G = np.asarray(gamma, dtype=float)
    if G.shape != (n, n):
        raise ValueError(f"shape {G.shape} does not match the node dimension {n}")
    return linear_output(G)


def _build_delays(spec: dict, m: int) -> DelaySchedule:
    kind = spec["type"]
    if kind == "zero":
        return DelaySchedule.zero()
    if kind == "constant":
        return DelaySchedule.constant(spec["tau"])
    if kind == "offdiagonal":
        return DelaySchedule.offdiagonal(spec["tau"])
    values = np.asarray(spec["values"], dtype=float)
    if values.shape != (m, m):
        raise ValueError(f"shape {values.shape} does not match the node count {m}")
    return DelaySchedule.constant(values)


def _build_kernels(spec: dict, m: int):
    if "type" in spec:
        return _tagged(_KERNELS, spec)
    off = _tagged(_KERNELS, spec["offdiagonal"])
    diag = _tagged(_KERNELS, spec["diagonal"]) if "diagonal" in spec else off
    return [[diag if i == j else off for j in range(m)] for i in range(m)]


def _build_history(value, m: int, n: int) -> HistoryFunction:
    value = np.asarray(value, dtype=float)
    if value.ndim == 2 and value.shape != (m, n):
        raise ValueError(f"nested form must be {m} nodes x {n} states, got shape {value.shape}")
    if value.size != m * n:
        raise ValueError(f"expected {m * n} numbers ({m} nodes x {n} states), got {value.size}")
    return HistoryFunction.constant(value.ravel())


def _build_certificate(spec: dict, node) -> QuadCertificate:
    if spec["type"] == "lipschitz":
        L = spec.get("lipschitz", node.lipschitz_hint)
        return lipschitz_certificate(float(L), node.dim, **_given(spec, "epsilon"))
    P = np.asarray(spec["P"], dtype=float)
    if P.shape != (node.dim, node.dim):
        raise ValueError(f"shape {P.shape} does not match the node dimension {node.dim}", "P")
    if len(spec["Delta"]) != node.dim:
        raise ValueError(f"{len(spec['Delta'])} entries, node dimension is {node.dim}", "Delta")
    return QuadCertificate(P, spec["Delta"], spec["epsilon"])


def _build_probe_domain(spec: dict, n: int) -> dict:
    params = {"box": spec.get("box", _DEFAULT_PROBE_BOX), "seed": int(spec.get("seed", 0)),
              **_given(spec, "t_range", "budget")}
    try:
        # an omitted t_range is [0, horizon], which every horizon makes valid
        probe_domain(params["box"], params.get("t_range", (0.0, 0.0)), n)
    except ValueError as err:
        below, message = str(err).split(": ", 1)
        raise ValueError(message, below) from None
    return params


def certify(scenario: Scenario, seed: int | None = None):
    """Probe the scenario's certificate and derive its proof constants.

    ``seed``, when given, overrides the scenario's probe seed.  The constants
    are taken at the initial state x(0) over the configured horizon.
    Returns (check result, proof constants, probe seed used); when the
    derivative frozen at x(0) is not finite the constants are missing, and
    the ``NonFiniteDerivative`` naming the time and node stands in for them.
    """
    p = scenario.cert_params
    probe_seed = p["seed"] if seed is None else int(seed)
    result = check_quad(scenario.model.node, scenario.certificate, p["box"],
                        t_range=p.get("t_range", (0.0, scenario.config.horizon)),
                        seed=probe_seed, **_given(p, "budget"))
    try:
        constants = ProofConstants.derive(scenario.certificate, scenario.model,
                                          scenario.history.eval(0.0), scenario.config.horizon)
    except NonFiniteDerivative as err:
        constants = err
    return result, constants, probe_seed


def run_scenario(scenario: Scenario, out_dir=None, seed: int | None = None):
    """Integrate, diagnose, and write artifacts; returns (summary, exit code).

    Artifacts: ``trajectory.csv`` always; ``certificate.txt`` and
    ``envelope.csv`` when a certificate is given; ``sync.csv`` when the
    network has at least two nodes.  A blow-up still writes everything that
    can be computed from the partial trajectory.  Missing proof constants
    are a ``constants`` failure, and the envelope is then skipped.  Exit
    codes: 0 all checks pass, 3 a requested check failed, 4 the state
    escaped.  The sync verdict gates the exit code only when the scenario
    sets an explicit threshold.
    """
    outdir = Path(out_dir) if out_dir is not None else Path(scenario.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    blowup = None
    try:
        traj = integrate(scenario.model, scenario.history, scenario.config)
    except BlowUpError as err:
        traj = err.trajectory
        blowup = {"time": err.time, "reason": err.reason}

    artifacts: dict[str, str] = {}
    tpath = outdir / "trajectory.csv"
    write_trajectory_csv(traj, tpath, stride=scenario.output_stride)
    artifacts["trajectory"] = str(tpath)

    failures: list[str] = []
    cert_info = env_info = sync_info = None

    if scenario.certificate is not None:
        result, constants, probe_seed = certify(scenario, seed)
        cpath = outdir / "certificate.txt"
        cpath.write_text(
            format_certificate_report(result, scenario.certificate, constants) + "\n",
            encoding="utf-8")
        artifacts["certificate"] = str(cpath)
        missing = isinstance(constants, NonFiniteDerivative)
        cert_info = {"passed": bool(result.passed), "probes": result.probes,
                     "delta": scenario.certificate.delta,
                     "eta": None if missing else constants.eta, "seed": probe_seed}
        if not result.passed:
            failures.append("certificate")
        if missing:
            failures.append("constants")
        else:
            envelope = check_envelope(traj, constants.eta, scenario.certificate.P,
                                      **scenario.envelope_params)
            epath = outdir / "envelope.csv"
            write_envelope_csv(envelope, epath)
            artifacts["envelope"] = str(epath)
            env_info = envelope.summary()
            env_info["state_bound_ok"] = bool(envelope.state_bound_ok)
            if not envelope.verdict:
                failures.append("envelope")

    if scenario.model.m >= 2 and traj.last_time > 0:
        window = (scenario.sync_window if scenario.sync_window is not None
                  else 0.2 * scenario.config.horizon)
        window = min(window, traj.last_time)
        threshold = (scenario.sync_threshold
                     if scenario.sync_threshold is not None
                     else _DEFAULT_SYNC_THRESHOLD)
        sync = sync_report(traj, threshold, window)
        spath = outdir / "sync.csv"
        write_sync_csv(sync, spath)
        artifacts["sync"] = str(spath)
        sync_info = sync.summary()
        if scenario.sync_threshold is not None and not sync.synchronized:
            failures.append("sync")

    if blowup is not None:
        exit_code = 4
    elif failures:
        exit_code = 3
    else:
        exit_code = 0

    summary = {
        "name": scenario.name,
        "method": scenario.config.method,
        "step": scenario.config.h,
        "horizon": scenario.config.horizon,
        "samples": len(traj),
        "final_time": traj.last_time,
        "blowup": blowup,
        "certificate": cert_info,
        "envelope": env_info,
        "sync": sync_info,
        "failures": failures,
        "artifacts": artifacts,
        "exit_code": exit_code,
    }
    return summary, exit_code

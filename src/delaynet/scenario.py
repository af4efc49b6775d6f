"""Scenario files: load, validate, build, run.

A scenario is a JSON document matching the published schema, packaged at
``src/delaynet/schemas/scenario.json``.
Loading validates three times: against the schema, then for numbers that
are not finite, then structurally, so that every such number and every
dimension mismatch between sections is reported with the offending key
before any computation starts.  Running integrates the network and writes the
requested artifact files into an output directory; artifacts are plain CSV or
text and contain no timestamps, so identical scenario + seed reproduce them
byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from .certificates import (
    ProofConstants,
    QuadCertificate,
    check_quad,
    delta_from_cert,
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
    NonFiniteDerivative,
    identity_output,
    linear_output,
    make_node,
    named_topology,
)
from .history import HistoryFunction, write_trajectory_csv
from .integrator import BlowUpError, IntegratorConfig, integrate
from .kernels import _given, dirac, make_kernel

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
    """Validate a parsed document and build the runnable pieces."""
    validator = Draft202012Validator(scenario_schema())
    schema_errors = sorted(validator.iter_errors(doc),
                           key=lambda e: list(e.absolute_path))
    if schema_errors:
        raise ScenarioError([_locate(err) for err in schema_errors])
    malformed = [*_non_finite(doc, "$"), *_ragged(doc, "$")]
    if malformed:
        raise ScenarioError(malformed)

    errs: list[str] = []
    msec = doc["model"]

    node = None
    try:
        node = make_node(msec["node"])
    except ValueError as err:
        errs.append(f"model.node: {err}")

    coupling = None
    m = None
    csec = msec["coupling"]
    if "matrix" in csec:
        A = np.asarray(csec["matrix"], dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            errs.append(
                f"model.coupling.matrix: must be square, got shape {A.shape}")
        else:
            m = A.shape[0]
            coupling = CouplingSchedule.constant(A)
    else:
        m = int(csec["m"])
        A = float(csec["strength"]) * named_topology(csec["topology"], m)
        coupling = CouplingSchedule.constant(A)
    if m is not None and "m" in msec and int(msec["m"]) != m:
        errs.append(f"model.m: declares {msec['m']} nodes but the coupling "
                    f"section implies {m}")
    if node is None or m is None:
        raise ScenarioError(errs)

    if "gamma" in msec:
        G = np.asarray(msec["gamma"], dtype=float)
        if G.shape != (node.dim, node.dim):
            errs.append(f"model.gamma: shape {G.shape} does not match the "
                        f"node dimension {node.dim}")
            raise ScenarioError(errs)
        output = linear_output(G)
    else:
        output = identity_output(node.dim)

    dsec = msec.get("delays", {"type": "zero"})
    try:
        delays = _build_delays(dsec, m)
    except ValueError as err:
        errs.append(f"model.delays{'.values' if 'values' in dsec else ''}: {err}")
        raise ScenarioError(errs)

    try:
        kernels = _build_kernels(msec.get("kernels"), m)
    except ValueError as err:
        errs.append(f"model.kernels: {err}")
        raise ScenarioError(errs)

    qsec = msec.get("quadrature", {})
    try:
        model = NetworkModel(
            m=m, node=node, output=output, coupling=coupling, delays=delays,
            kernels=kernels, **_given(qsec, "tail_tol", "node_spacing"))
    except ValueError as err:
        errs.append(f"model: {err}")
        raise ScenarioError(errs)

    history = _build_history(doc["history"], m, node.dim, errs)

    isec = doc["integrator"]
    config = None
    try:
        config = IntegratorConfig(h=float(isec["step"]), horizon=float(isec["horizon"]),
                                  **_given(isec, "method"))
    except ValueError as err:
        errs.append(f"integrator: {err}")

    certificate = None
    cert_params: dict = {}
    if "certificate" in doc and config is not None:
        certificate, cert_params = _build_certificate(
            doc["certificate"], node, config.horizon, errs)

    if errs or config is None or history is None:
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


def _build_kernels(spec, m: int):
    if spec is None:
        return dirac()
    if "type" in spec:
        return make_kernel(spec)
    off = make_kernel(spec["offdiagonal"])
    diag = make_kernel(spec["diagonal"]) if "diagonal" in spec else off
    return [[diag if i == j else off for j in range(m)] for i in range(m)]


def _build_history(spec: dict, m: int, n: int, errs: list) -> HistoryFunction | None:
    value = np.asarray(spec["value"], dtype=float)
    if value.ndim == 2:
        if value.shape != (m, n):
            errs.append(f"history.value: nested form must be {m} nodes x "
                        f"{n} states, got shape {value.shape}")
            return None
        value = value.ravel()
    if value.shape != (m * n,):
        errs.append(f"history.value: expected {m * n} numbers "
                    f"({m} nodes x {n} states), got {value.size}")
        return None
    return HistoryFunction.constant(value)


def _build_certificate(spec: dict, node, horizon: float, errs: list):
    cert = None
    if spec["type"] == "lipschitz":
        L = spec.get("lipschitz", node.lipschitz_hint)
        if L is None:
            errs.append("certificate.lipschitz: the node type carries no "
                        "Lipschitz constant; state one explicitly")
        else:
            cert = lipschitz_certificate(float(L), node.dim, **_given(spec, "epsilon"))
    else:
        P = np.asarray(spec["P"], dtype=float)
        if P.shape != (node.dim, node.dim):
            errs.append(f"certificate.P: shape {P.shape} does not match the "
                        f"node dimension {node.dim}")
        elif len(spec["Delta"]) != node.dim:
            errs.append(f"certificate.Delta: {len(spec['Delta'])} entries, "
                        f"node dimension is {node.dim}")
        else:
            try:
                cert = QuadCertificate.from_spec(spec)
            except ValueError as err:
                errs.append(f"certificate: {err}")

    box = spec.get("box", _DEFAULT_PROBE_BOX)
    if isinstance(box, list):
        lo = np.asarray(box[0], dtype=float)
        hi = np.asarray(box[1], dtype=float)
        if lo.shape != (node.dim,) or hi.shape != (node.dim,):
            errs.append(f"certificate.box: bound vectors must have "
                        f"{node.dim} entries")
            box = _DEFAULT_PROBE_BOX
        else:
            box = (lo, hi)
    t_range = tuple(spec.get("t_range", (0.0, horizon)))
    try:
        probe_domain(box, t_range, node.dim)
    except ValueError as err:
        errs.append(f"certificate.{err}")
    params = {
        "box": box,
        "t_range": t_range,
        "seed": int(spec.get("seed", 0)),
        **_given(spec, "budget"),
    }
    return cert, params


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
                        t_range=p["t_range"], seed=probe_seed, **_given(p, "budget"))
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
                     "delta": delta_from_cert(scenario.certificate),
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

"""Workloads: generated inputs, the operations each round runs, and their checks.

An operation is one ``delaynet`` command-line invocation (``run`` or
``check-quad``) together with the checks of its outputs.  A round runs every
operation of its workload once; a measured run repeats whole rounds.  All
inputs follow from the workload seed, and ``scale`` (1.0 when measuring)
shortens horizons and probe budgets for the self-tests.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

BUNDLED = ("chua_synchronization", "linear_network", "distributed_delay", "chua_uncoupled")
# Synchronization threshold on the final-window pairwise distance.
SYNC_THRESHOLD = 1e-3
# Relative agreement between artifacts computed from the same states.
CONSISTENCY = 1e-9

RING_NODES = 30
RING_STRENGTH = 10.0
RING_TAU = 0.01
RING_STEP = 2e-3
RING_HORIZON = 0.4
RING_HISTORY_AMPLITUDE = 1.0

CHECK_QUAD_BUDGET = 20000
CHECK_QUAD_NODES = 3


@dataclass
class OpResult:
    """What one invocation returned: exit code, captured streams, output directory."""

    rc: int
    stdout: str
    stderr: str
    outdir: Path


@dataclass
class Op:
    name: str
    argv: list[str]
    expect_exit: int
    outdir: Path
    check: Callable[[OpResult], list[str]]


@dataclass
class Workload:
    """Operations of one round; ``prepare`` fills ``references`` (by
    operation name) before the first round."""

    name: str
    ops: list[Op]
    prepare: Callable[[], None] = field(default=lambda: None)
    references: dict = field(default_factory=dict)


def make_workload(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    """Write the workload's input files under ``workdir`` and return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "bundled":
        return _bundled(seed, workdir, scale)
    if name == "ring-30":
        return _ring(seed, workdir, scale)
    if name == "check-quad":
        return _check_quad(seed, workdir, scale)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# generators

def _write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _shorten(doc: dict, scale: float) -> dict:
    """Same scenario over a horizon cut by ``scale``, kept a whole number of
    output strides of steps."""
    if scale >= 1.0:
        return doc
    doc = json.loads(json.dumps(doc))
    isec = doc["integrator"]
    h = float(isec["step"])
    stride = int(doc.get("output", {}).get("stride", 1))
    steps = max(stride, int(round(float(isec["horizon"]) * scale / h)) // stride * stride)
    isec["horizon"] = steps * h
    if "sync_window" in doc.get("diagnostics", {}):
        doc["diagnostics"]["sync_window"] = min(doc["diagnostics"]["sync_window"],
                                                 0.2 * steps * h)
    if "certificate" in doc:
        doc["certificate"]["budget"] = max(10, int(doc["certificate"].get("budget", 2000) * scale))
    return doc


def _bundled(seed: int, workdir: Path, scale: float) -> Workload:
    rng = np.random.default_rng(seed)
    ops, refs = [], {}
    for stem in BUNDLED:
        path = SCENARIOS / f"{stem}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        if scale < 1.0:
            doc = _shorten(doc, scale)
            path = _write(doc, workdir / f"{stem}.json")
        name = doc["name"]
        outdir = workdir / "out" / name
        argv = ["run", str(path), "--out", str(outdir)]
        if "certificate" in doc:
            argv += ["--seed", str(int(rng.integers(0, 2**31 - 1)))]
        ops.append(Op(name, argv, 0, outdir, _run_checker(doc, refs, name)))

    def prepare():
        for stem in BUNDLED:
            doc = json.loads((SCENARIOS / f"{stem}.json").read_text(encoding="utf-8"))
            doc = _shorten(doc, scale)
            if stem == "linear_network":
                refs[doc["name"]] = ref.linear_reference(doc)
            elif stem == "chua_uncoupled":
                refs[doc["name"]] = ref.uncoupled_reference(doc)
            elif stem == "distributed_delay":
                refs[doc["name"]] = ref.network_reference(doc)

    return Workload("bundled", ops, prepare, refs)


def ring_document(seed: int, scale: float = 1.0) -> dict:
    """30 Chua nodes on a ring, strength 10, off-diagonal delay 0.01, Dirac
    kernels, RK4 at 2e-3, Lipschitz certificate, random constant history."""
    rng = np.random.default_rng(seed)
    history = rng.uniform(-RING_HISTORY_AMPLITUDE, RING_HISTORY_AMPLITUDE,
                          size=(RING_NODES, 3))
    steps = max(10, int(round(RING_HORIZON * scale / RING_STEP)))
    return {
        "name": "ring-30",
        "model": {
            "node": {"type": "chua"},
            "coupling": {"topology": "ring", "strength": RING_STRENGTH, "m": RING_NODES},
            "delays": {"type": "offdiagonal", "tau": RING_TAU},
            "kernels": {"type": "dirac", "location": 0.0, "weight": 1.0},
        },
        "history": {"type": "constant", "value": history.tolist()},
        "integrator": {"method": "rk4", "step": RING_STEP, "horizon": steps * RING_STEP},
        "certificate": {"type": "lipschitz", "epsilon": 0.1,
                        "seed": int(rng.integers(0, 2**31 - 1))},
    }


def _ring(seed: int, workdir: Path, scale: float) -> Workload:
    doc = ring_document(seed, scale)
    path = _write(doc, workdir / "ring-30.json")
    outdir = workdir / "out" / "ring-30"
    refs: dict = {}
    op = Op("ring-30", ["run", str(path), "--out", str(outdir)], 0, outdir,
            _run_checker(doc, refs, "ring-30"))

    def prepare():
        refs["ring-30"] = ref.network_reference(doc)

    return Workload("ring-30", [op], prepare, refs)


def check_quad_documents(seed: int, scale: float = 1.0) -> tuple[dict, dict]:
    """A Chua network with a Lipschitz certificate at a large probe budget,
    and the same network with a false certificate (P = I, Delta = 0), which
    no Chua field satisfies."""
    rng = np.random.default_rng(seed)
    history = rng.uniform(-1.0, 1.0, size=(CHECK_QUAD_NODES, 3))
    budget = max(10, int(CHECK_QUAD_BUDGET * scale))
    base = {
        "model": {
            "node": {"type": "chua"},
            "coupling": {"topology": "all-to-all", "strength": 10.0, "m": CHECK_QUAD_NODES},
            "delays": {"type": "offdiagonal", "tau": 0.01},
        },
        "history": {"type": "constant", "value": history.tolist()},
        "integrator": {"method": "rk4", "step": 0.002, "horizon": 10.0},
    }
    holds = dict(base, name="check-quad-pass",
                 certificate={"type": "lipschitz", "epsilon": 0.1, "budget": budget,
                              "seed": int(rng.integers(0, 2**31 - 1))})
    fails = dict(base, name="check-quad-fail",
                 certificate={"type": "explicit", "P": np.eye(3).tolist(),
                              "Delta": [0.0, 0.0, 0.0], "epsilon": 0.1, "budget": budget,
                              "seed": int(rng.integers(0, 2**31 - 1))})
    return holds, fails


def _check_quad(seed: int, workdir: Path, scale: float) -> Workload:
    holds, fails = check_quad_documents(seed, scale)
    ops = []
    for doc, expect in ((holds, 0), (fails, 3)):
        path = _write(doc, workdir / f"{doc['name']}.json")
        outdir = workdir / "out" / doc["name"]
        ops.append(Op(doc["name"], ["check-quad", str(path)], expect, outdir,
                      _quad_checker(doc, expect == 0)))
    return Workload("check-quad", ops)


# ---------------------------------------------------------------------------
# checks

def _expect_exit(result: OpResult, expect: int) -> list[str]:
    if result.rc != expect:
        return [f"exit code {result.rc}, expected {expect}"]
    return []


def _read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def _run_checker(doc: dict, refs: dict, key: str):
    """Checks of a ``delaynet run`` invocation on the scenario ``doc``."""
    msec = doc["model"]
    h, steps = ref.step_grid(doc)
    stride = int(doc.get("output", {}).get("stride", doc["integrator"].get("output_stride", 1)))
    _, node_dim = ref.node_field(msec["node"])
    has_cert = "certificate" in doc
    budget = int(doc.get("certificate", {}).get("budget", 2000))
    P = np.asarray(doc["certificate"]["P"], float) \
        if doc.get("certificate", {}).get("type") == "explicit" else None

    def check(result: OpResult) -> list[str]:
        problems = _expect_exit(result, 0)
        try:
            summary = json.loads(result.stdout)
        except json.JSONDecodeError:
            return problems + ["summary is not JSON"]
        if summary.get("exit_code") != 0 or summary.get("failures"):
            problems.append(f"summary reports exit {summary.get('exit_code')}, "
                            f"failures {summary.get('failures')}")
        if summary.get("blowup") is not None:
            problems.append("summary reports a blow-up")
        if summary.get("samples") != steps + 1:
            problems.append(f"{summary.get('samples')} samples, expected {steps + 1}")
        times, states = _read_csv(result.outdir / "trajectory.csv")
        want_rows = np.arange(0, steps + 1, stride)
        if times.shape != want_rows.shape or np.max(np.abs(times - want_rows * h)) > 1e-9:
            return problems + ["trajectory.csv rows are not the expected sample times"]
        if has_cert:
            cert = summary.get("certificate") or {}
            env = summary.get("envelope") or {}
            if not cert.get("passed") or cert.get("probes") != budget:
                problems.append(f"certificate {cert.get('passed')} after "
                                f"{cert.get('probes')} probes, expected a pass at {budget}")
            if not env.get("verdict"):
                problems.append("envelope verdict fails")
            text = (result.outdir / "certificate.txt").read_text(encoding="utf-8")
            if "verdict: PASS" not in text:
                problems.append("certificate.txt has no PASS verdict")
            V = ref.energy(states, P, node_dim)
            excess = ref.envelope_violation(times, V, float(cert.get("eta", 0.0)))
            if not excess <= 1e-6:
                problems.append(f"M(t) exceeds M(0) e^(eta t) by {excess:.3g} (relative)")
            # envelope.csv holds every sample; its V must be that of the states
            env_V = _read_csv(result.outdir / "envelope.csv")[1][::stride, 0]
            if env_V.shape != V.shape or \
                    np.max(np.abs(env_V - V) / np.maximum(1.0, V)) > CONSISTENCY:
                problems.append("envelope.csv V does not match trajectory.csv")
        m = states.shape[1] // node_dim
        if m >= 2:
            dist = ref.pairwise_distance(states, m, node_dim)
            sync_d = _read_csv(result.outdir / "sync.csv")[1][::stride, 0]
            if sync_d.shape != dist.shape or \
                    np.max(np.abs(sync_d - dist) / np.maximum(1.0, dist)) > CONSISTENCY:
                problems.append("sync.csv distances do not match trajectory.csv")
        if key == "chua-synchronization":
            window = float(doc["diagnostics"]["sync_window"])
            mean = ref.sync_window_mean(times, states, m, node_dim, window)
            if not mean < SYNC_THRESHOLD:
                problems.append(f"final-window distance {mean:.3g} >= {SYNC_THRESHOLD}")
            if not (summary.get("sync") or {}).get("synchronized"):
                problems.append("summary does not report synchronization")
        if key in refs:
            r = refs[key]
            err = float(np.max(np.abs(states - r["states"][::stride])))
            if not err <= r["tol"]:
                problems.append(f"states differ from the reference by {err:.3g} "
                                f"> tolerance {r['tol']:.3g}")
        return problems

    return check


_WITNESS = re.compile(r"witness: t=\S+\s+u1=(?P<u1>\[.*?\])\s+u2=(?P<u2>\[.*?\])\s+"
                      r"lhs=(?P<lhs>\S+) rhs=(?P<rhs>\S+)")


def _report_field(text: str, key: str) -> str | None:
    m = re.search(rf"^\s*{key}: (.*)$", text, re.MULTILINE)
    return m.group(1).strip() if m else None


def _quad_checker(doc: dict, holds: bool):
    """Checks of a ``delaynet check-quad`` invocation: a pass after the full
    budget when the certificate holds, otherwise a witness that violates
    the inequality when re-evaluated here."""
    cert = doc["certificate"]
    budget = int(cert["budget"])
    f, _ = ref.node_field(doc["model"]["node"])
    P = np.asarray(cert.get("P", 0.0), float)
    Delta = np.asarray(cert.get("Delta", 0.0), float)
    eps = float(cert["epsilon"])

    def check(result: OpResult) -> list[str]:
        problems = _expect_exit(result, 0 if holds else 3)
        text = result.stdout
        verdict = _report_field(text, "verdict")
        probes = _report_field(text, "probes")
        if holds:
            if verdict != "PASS" or probes != str(budget):
                problems.append(f"verdict {verdict} after {probes} probes, "
                                f"expected PASS after {budget}")
            return problems
        if verdict != "FAIL":
            return problems + [f"verdict {verdict}, expected FAIL"]
        w = _WITNESS.search(text)
        if w is None:
            return problems + ["no witness in the report"]
        u1, u2 = json.loads(w["u1"]), json.loads(w["u2"])
        lhs, rhs = ref.quad_sides(f, P, Delta, eps, u1, u2)
        if not lhs > rhs:
            problems.append(f"witness does not violate the inequality: lhs {lhs} <= rhs {rhs}")
        for name, mine in (("lhs", lhs), ("rhs", rhs)):
            theirs = float(w[name])
            if abs(theirs - mine) > 1e-7 * max(1.0, abs(mine)):
                problems.append(f"reported {name} {theirs} differs from {mine}")
        if not (probes or "").isdigit() or not 1 <= int(probes) <= budget:
            problems.append(f"{probes} probes for a budget of {budget}")
        return problems

    return check


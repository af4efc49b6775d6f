"""Spans around delaynet's public functions, and the per-layer metrics made from them.

The wrappers live in the benchmark and patch the names where delaynet's
callers look them up: module attributes imported by name (``integrate``,
``rhs``, ``check_quad``, ...) and class attributes (``Trajectory``,
``QuadraturePlan``, ``NodeDynamics``, ``OutputFunction``, ``DelaySchedule``,
``ProofConstants``).  Each call opens a span with a name, start, end and
parent; spans are kept in flat arrays in memory and written out when the
run ends.  A layer's self time is its span minus the part its child spans
cover.  ``DelaySchedule.value`` runs once per nonzero coupling per stage and
only its count is reported, so it is counted without a span.

A patch target that no longer exists is skipped, and the metrics that need
it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory span store: name, start, end and parent of every span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def name_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def span(self, fn, name: str, counter=None):
        """``fn`` wrapped in a span; ``counter(tracer, args, result)`` runs
        after the span closes, so its work lands in the caller's self time."""
        nid = self.name_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _clock()
                self._stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = (int(np.count_nonzero(sel)), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# ---------------------------------------------------------------------------
# counters that run after a span closes

def _count_steps(tr, args, traj):
    tr.count("integrator.steps", len(traj) - 1)
    # reading the delays must not count as the program's own lookups
    calls = tr.counts.get("dynamics.delay_value")
    tr.count("kernels.nodes_per_rhs", _tap_nodes(args[0]))
    if calls is not None:
        tr.counts["dynamics.delay_value"] = calls
    else:
        tr.counts.pop("dynamics.delay_value", None)


def _tap_nodes(model) -> int:
    """Sum of plan lengths over the model's distinct (source, delay, plan)
    taps at t = 0: the quadrature nodes one right-hand side evaluates."""
    try:
        A = model.coupling.matrix(0.0)
        taps = {}
        for i in range(model.m):
            for j in range(model.m):
                if A[i, j] != 0.0:
                    plan = model.plans[i][j]
                    taps[(j, model.delays.value(i, j, 0.0), id(plan))] = len(plan)
        return sum(taps.values())
    except AttributeError:
        return 0


def _count_points(tr, args, _):
    tr.count("history.lookup_points", int(np.size(args[1])))


def _count_probes(tr, args, result):
    tr.count("certificates.probes", int(result.probes))


# (module, attribute path, span name, counter); every listed attribute of a
# module is patched, so names imported into several modules are all covered
SPANS = [
    ("delaynet.cli", "load_scenario", "scenario.load", None),
    ("delaynet.scenario", "integrate", "integrator.integrate", _count_steps),
    ("delaynet.integrator", "rhs", "dynamics.rhs", None),
    ("delaynet.dynamics", "NodeDynamics.eval", "dynamics.node_f", None),
    ("delaynet.dynamics", "OutputFunction.eval_rows", "dynamics.output_g", None),
    ("delaynet.history", "Trajectory.eval_many", "history.eval_many", _count_points),
    ("delaynet.history", "Trajectory.append", "history.append", None),
    ("delaynet.kernels", "QuadraturePlan.apply", "kernels.apply", None),
    ("delaynet.scenario", "check_quad", "certificates.check_quad", _count_probes),
    ("delaynet.cli", "check_quad", "certificates.check_quad", _count_probes),
    ("delaynet.certificates", "ProofConstants.derive", "certificates.derive", None),
    ("delaynet.scenario", "check_envelope", "diagnostics.envelope", None),
    ("delaynet.scenario", "sync_report", "diagnostics.sync", None),
    ("delaynet.scenario", "write_trajectory_csv", "io.csv", None),
    ("delaynet.scenario", "write_envelope_csv", "io.csv", None),
    ("delaynet.scenario", "write_sync_csv", "io.csv", None),
]
COUNTS = [("delaynet.dynamics", "DelaySchedule.value", "dynamics.delay_value")]


def install(tracer: Tracer):
    """Patch every target that exists; returns (undo, names of wrapped spans)."""
    undo, wrapped = [], set()

    def patch(module, path, make):
        mod = importlib.import_module(module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None:
            return False
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
        return True

    for module, path, name, counter in SPANS:
        if patch(module, path, lambda fn, n=name, c=counter: tracer.span(fn, n, c)):
            wrapped.add(name)
    for module, path, key in COUNTS:
        if patch(module, path, lambda fn, k=key: tracer.counted(fn, k)):
            wrapped.add(key)

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore, wrapped


# metric -> (wrapped name it needs, how its value is read): the "calls",
# "total" or "self" seconds of that span, ("count", counter), or
# ("per", counter) for microseconds of the span's total per counted unit
LAYERS = {
    "integrator.integrate_s": ("integrator.integrate", "total"),
    "integrator.us_per_step": ("integrator.integrate", ("per", "integrator.steps")),
    "dynamics.rhs_calls": ("dynamics.rhs", "calls"),
    "dynamics.rhs_self_s": ("dynamics.rhs", "self"),
    "dynamics.delay_value_calls": ("dynamics.delay_value", ("count", "dynamics.delay_value")),
    "dynamics.node_f_calls": ("dynamics.node_f", "calls"),
    "dynamics.node_f_s": ("dynamics.node_f", "total"),
    "dynamics.output_g_s": ("dynamics.output_g", "total"),
    "history.eval_many_calls": ("history.eval_many", "calls"),
    "history.eval_many_s": ("history.eval_many", "total"),
    "history.lookup_points": ("history.eval_many", ("count", "history.lookup_points")),
    "history.append_s": ("history.append", "total"),
    "kernels.apply_calls": ("kernels.apply", "calls"),
    "kernels.apply_s": ("kernels.apply", "total"),
    "kernels.nodes_per_rhs": ("integrator.integrate", ("count", "kernels.nodes_per_rhs")),
    "certificates.check_quad_s": ("certificates.check_quad", "total"),
    "certificates.us_per_probe": ("certificates.check_quad", ("per", "certificates.probes")),
    "certificates.derive_s": ("certificates.derive", "total"),
    "diagnostics.envelope_s": ("diagnostics.envelope", "total"),
    "diagnostics.sync_s": ("diagnostics.sync", "total"),
    "io.csv_s": ("io.csv", "total"),
    "scenario.load_s": ("scenario.load", "total"),
}


def layer_metrics(tracer: Tracer, wrapped: set[str], run_names) -> dict[str, float]:
    """Per-layer metrics of one traced round, by the names in BENCHMARK.json.

    ``run_names`` are the scenario names whose ``delaynet run`` call gets a
    ``run.<name>_s`` metric.  Metrics that need an unwrapped name are absent.
    """
    spans = tracer.summary()
    out = {}
    for metric, (name, how) in LAYERS.items():
        if name not in wrapped:
            continue
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        if how in ("calls", "total", "self"):
            out[metric] = float({"calls": calls, "total": total, "self": own}[how])
        elif how[0] == "count":
            out[metric] = float(tracer.counts.get(how[1], 0))
        else:
            n = tracer.counts.get(how[1], 0)
            out[metric] = total / n * 1e6 if n else 0.0
    for name in run_names:
        out[f"run.{name}_s"] = spans.get(f"run.{name}", (0, 0.0, 0.0))[1]
    return out

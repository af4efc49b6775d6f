"""Fixed-step explicit integration of delay-coupled networks.

Each step evaluates the network derivative through an evaluator over the
whole past: committed samples come from the trajectory, the time at the
current Runge-Kutta stage returns the stage vector itself (so the undelayed
part of the coupling sees classical RK4), and the rare lookup strictly
between the last committed sample and the stage time falls back to
first-order extrapolation and is counted on the returned trajectory as
``stage_extrapolation_count``.  Such lookups occur only when some effective
delay is positive but smaller than the step.

Integration halts with ``BlowUpError`` as soon as a state component leaves
[-1e12, 1e12] or turns non-finite.  A run is strictly sequential; independent
runs may share the immutable model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import NetworkModel, NonFiniteDerivative, rhs
from .history import HistoryFunction, Trajectory

__all__ = ["IntegratorConfig", "integrate", "BlowUpError"]

BLOWUP_THRESHOLD = 1e12


class BlowUpError(RuntimeError):
    """State escaped the admissible range before the horizon."""

    def __init__(self, time: float, trajectory: Trajectory, reason: str):
        super().__init__(f"blow-up at t={time:.9g}: {reason}")
        self.time = time
        self.trajectory = trajectory
        self.reason = reason


@dataclass(frozen=True)
class IntegratorConfig:
    """Method, step, horizon, and the stride used when writing output files."""

    method: str = "rk4"
    h: float = 1e-3
    horizon: float = 1.0
    output_stride: int = 1

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown method {self.method!r}; use 'euler' or 'rk4'")
        if not self.h > 0:
            raise ValueError("step h must be positive")
        if not self.horizon >= self.h:
            raise ValueError("horizon must be at least one step")
        if abs(self.steps * self.h - self.horizon) > 1e-9 * self.horizon:
            raise ValueError(
                f"horizon {self.horizon!r} is not a whole number of steps of {self.h!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.h)


class _StagePast:
    """Past evaluator used inside one RK stage.

    Lookup rules, in order: the stage time itself returns the stage vector;
    times at or before the last committed sample go to the trajectory; times
    in between are extrapolated linearly from the committed state and
    counted.  Times past the stage are a contract violation.  ``eval_many``
    holds these rules; a scalar call other than at the stage time delegates
    to it.
    """

    def __init__(self, traj: Trajectory, t_base: float, x_base: np.ndarray,
                 t_stage: float, x_stage: np.ndarray, slope: np.ndarray | None):
        self.traj = traj
        self.t_base = t_base
        self.x_base = x_base
        self.t_stage = t_stage
        self.x_stage = x_stage
        self.slope = slope
        self.extrapolations = 0

    def __call__(self, t: float) -> np.ndarray:
        if t == self.t_stage:
            return self.x_stage
        return self.eval_many([t])[0]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).ravel()
        if np.any(ts > self.t_stage):
            raise AssertionError("stage lookup past the stage time")
        out = np.empty((ts.size, self.x_stage.size))
        at_stage = ts == self.t_stage
        committed = ts <= self.t_base
        between = ~(at_stage | committed)
        if at_stage.any():
            out[at_stage] = self.x_stage
        if committed.any():
            out[committed] = self.traj.eval_many(ts[committed])
        if between.any():
            self.extrapolations += int(np.count_nonzero(between))
            out[between] = self.x_base + (ts[between, None] - self.t_base) * self.slope
        return out


def integrate(model: NetworkModel, initial: HistoryFunction, config: IntegratorConfig) -> Trajectory:
    """March the model from its initial history to the horizon.

    Returns the trajectory sampled at every step (output striding is left to
    the writers).  Raises ``BlowUpError`` with the partial trajectory
    attached when the state escapes.
    """
    traj = Trajectory(initial, node_count=model.m, node_dim=model.node.dim)
    traj.stage_extrapolation_count = 0
    h = config.h
    x = traj.states[0].copy()
    _guard_state(0.0, x, traj)
    for k in range(config.steps):
        t = k * h
        try:
            if config.method == "euler":
                k1 = rhs(model, t, _StagePast(traj, t, x, t, x, None))
                x_next = x + h * k1
            else:
                stages = []
                p1 = _StagePast(traj, t, x, t, x, None)
                k1 = rhs(model, t, p1)
                stages.append(p1)
                p2 = _StagePast(traj, t, x, t + h / 2.0, x + (h / 2.0) * k1, k1)
                k2 = rhs(model, t + h / 2.0, p2)
                stages.append(p2)
                p3 = _StagePast(traj, t, x, t + h / 2.0, x + (h / 2.0) * k2, k1)
                k3 = rhs(model, t + h / 2.0, p3)
                stages.append(p3)
                p4 = _StagePast(traj, t, x, t + h, x + h * k3, k1)
                k4 = rhs(model, t + h, p4)
                stages.append(p4)
                traj.stage_extrapolation_count += sum(p.extrapolations for p in stages)
                x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except NonFiniteDerivative as exc:
            raise BlowUpError(t, traj, str(exc)) from exc
        t_next = (k + 1) * h
        _guard_state(t_next, x_next, traj)
        traj.append(t_next, x_next)
        x = x_next
    return traj


def _guard_state(t: float, x: np.ndarray, traj: Trajectory) -> None:
    if not np.all(np.isfinite(x)):
        raise BlowUpError(t, traj, "non-finite state component")
    peak = float(np.max(np.abs(x)))
    if peak > BLOWUP_THRESHOLD:
        raise BlowUpError(t, traj, f"state magnitude {peak:.3e} exceeds {BLOWUP_THRESHOLD:.0e}")

"""Fixed-step explicit integration of delay-coupled networks.

Each stage evaluates the network derivative through one past evaluator per
run, which serves the right-hand side's lookups in three classes: a lag of
zero returns the stage vector itself (so the undelayed part of the coupling
sees classical RK4); a lag landing on committed samples blends two of them,
or reads the initial history before t = 0; and the rare lag strictly
between the last committed sample and the stage time falls back to
first-order extrapolation and is counted on the returned trajectory as
``stage_extrapolation_count``.  Such lookups occur only when some effective
delay is positive but smaller than the step.  With a fixed step, a lag seen
from stage offset c always lands at the same sample offset and weight, so
each (lags, c) is resolved once into a plan that every later step reuses.

Quadrature nodes that land before the initial history's first knot, where
it is constant, are folded into one weighted row per tap (see
``_StagePast``); ``Trajectory.lagged`` serves the unfolded lookup and stays
the oracle of the fold.

Integration halts with ``BlowUpError`` as soon as a state component leaves
[-1e12, 1e12] or turns non-finite.  A run is strictly sequential; independent
runs may share the immutable model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import NetworkModel, NonFiniteDerivative, rhs
from .history import HistoryFunction, Trajectory
from .kernels import QuadraturePlan

__all__ = ["IntegratorConfig", "integrate", "BlowUpError"]

BLOWUP_THRESHOLD = 1e12

# explicit methods, one (c, a, b) row per stage: the stage runs at t + c*h
# from the state x + (a*h) * (previous stage's k), and the step is
# x + (h / divisor) * sum of b*k over the stages
_TABLEAUS = {
    "euler": (((0.0, 0.0, 1.0),), 1.0),
    "rk4": (((0.0, 0.0, 1.0), (0.5, 0.5, 2.0), (0.5, 0.5, 2.0), (1.0, 1.0, 1.0)), 6.0),
}


class BlowUpError(RuntimeError):
    """State escaped the admissible range before the horizon."""

    def __init__(self, time: float, trajectory: Trajectory, reason: str):
        super().__init__(f"blow-up at t={time:.9g}: {reason}")
        self.time = time
        self.trajectory = trajectory
        self.reason = reason


@dataclass(frozen=True)
class IntegratorConfig:
    """Method, step and horizon of a fixed-step run."""

    method: str = "rk4"
    h: float = 1e-3
    horizon: float = 1.0

    def __post_init__(self):
        if self.method not in _TABLEAUS:
            raise ValueError(f"unknown method {self.method!r}; use 'euler' or 'rk4'")
        if not self.h > 0:
            raise ValueError("step h must be positive")
        if not self.horizon >= self.h:
            raise ValueError("horizon must be at least one step")
        if abs(self.steps * self.h - self.horizon) > 1e-9 * self.horizon:
            raise ValueError(
                f"horizon {self.horizon!r} is not a whole number of steps of {self.h!r}")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.h)


class _LookupPlan:
    """The lookups of a tap table's nodes at one stage offset c, resolved
    into the three classes of ``_StagePast``, and their current fold.

    The nodes are laid out in plan order: at-stage ones up to
    ``at_stage_end``, sub-step ones up to ``sub_step_end``, then committed
    ones by decreasing lag, so that their lookup times t - lag increase and
    at step k the ones still before t = 0 (offset < -k) form a prefix of
    them, and the ones at or before the history's first knot a prefix of
    that; ``position[q]`` is node q's place in that order.  ``cols``
    holds, for each at-stage and sub-step node, the n flat indices of its
    source block in a state vector, and ``initial_cols`` the same for
    committed ones read from the initial history, row by row.  ``lo`` and
    ``hi`` are the flat indices, relative to sample k, of the two samples a
    committed node blends; ``hi`` equals ``lo`` at offset 0, where theta is
    0, so no row after the last committed sample is read.

    The plan keeps one fold, of its first ``folded`` committed nodes; lags
    increase along a tap, so those are a suffix of each tap.  The rows
    handed to g are, tap by tap, the live nodes and then, for a tap with
    folded nodes, one row of the history's first state.  ``rows`` picks
    them from the lookup buffer, which holds the at-stage and sub-step
    rows, then the folded taps' rows (``fold_cols`` in the first state),
    then the live committed rows.  ``quadrature`` holds the rows' weights,
    a folded row weighing ``taps.tails`` at its tap's first folded node,
    and ``starts`` the first row of each tap.
    """

    def __init__(self, taps, lags: np.ndarray, c: float, h: float, node_dim: int, dim: int):
        if not np.all(np.isfinite(lags) & (lags >= 0.0)):
            raise ValueError("lookup lags must be finite and nonnegative")
        r = c - lags / h
        at_stage = lags == 0.0
        sub_step = ~at_stage & (r > 0.0)
        committed = np.flatnonzero(~(at_stage | sub_step))
        order = np.concatenate([np.flatnonzero(at_stage), np.flatnonzero(sub_step),
                                committed[np.argsort(-lags[committed], kind="stable")]])
        self.position = np.argsort(order)
        a = self.at_stage_end = int(np.count_nonzero(at_stage))
        b = self.sub_step_end = a + int(np.count_nonzero(sub_step))
        lags, r = lags[order], r[order]
        cols = taps.sources[order, None] * node_dim + np.arange(node_dim)
        self.cols = cols[:b]
        self.sub_step_dt = (c * h - lags[a:b])[:, None]
        offsets = np.floor(r[b:])
        theta = (r[b:] - offsets)[:, None]
        self.offsets = offsets.astype(np.intp)
        self.neg_lags = -lags[b:]
        self.initial_cols = np.arange(offsets.size)[:, None] * dim + cols[b:]
        self.lo = self.offsets[:, None] * dim + cols[b:]
        self.hi = self.lo + np.where(self.offsets < 0, dim, 0)[:, None]
        self.w_lo = 1.0 - theta
        self.w_hi = theta
        self.taps = taps
        self.node_dim = node_dim
        self.committed_taps = np.repeat(np.arange(taps.sizes.size), taps.sizes)[order[b:]]
        self.folded = None

    def fold_count(self, t: float, t_first: float, p: int) -> int:
        """How many of the first p committed nodes look up at or before
        ``t_first`` from stage time t."""
        neg = self.neg_lags
        f = int(neg[:p].searchsorted(t_first - t, side="right"))
        # t_first - t is rounded; settle the count on the lookup times
        while f and t + neg[f - 1] > t_first:
            f -= 1
        while f < p and t + neg[f] <= t_first:
            f += 1
        return f

    def fold(self, f: int) -> None:
        """Lay out the rows with the first f committed nodes folded."""
        taps, b = self.taps, self.sub_step_end
        folded = np.bincount(self.committed_taps[:f], minlength=taps.sizes.size)
        live = taps.sizes - folded
        lengths = live + (folded > 0)
        starts = np.cumsum(lengths) - lengths
        # row j of tap i is its node j; a folded tap's last row stands at its
        # first folded node
        kept = np.arange(int(lengths.sum())) + np.repeat(taps.starts - starts, lengths)
        fold_rows = (starts + live)[folded > 0]
        firsts = kept[fold_rows]
        rows = self.position[kept]
        rows += np.where(rows >= b, fold_rows.size - f, 0)
        rows[fold_rows] = b + np.arange(fold_rows.size)
        weights = taps.plan.weights[kept]
        weights[fold_rows] = taps.tails[firsts]
        self.fold_cols = taps.sources[firsts, None] * self.node_dim + np.arange(self.node_dim)
        self.fold_end = b + fold_rows.size
        self.buffer_rows = self.fold_end + self.offsets.size - f
        self.quadrature = QuadraturePlan(taps.plan.locations[kept], weights,
                                         taps.plan.truncation_horizon, taps.plan.tail_mass_bound)
        self.rows, self.starts, self.folded = rows, starts, f


class _StagePast:
    """The past the right-hand side sees inside the RK stages of one run.

    One instance serves the whole run and is moved from stage to stage.
    ``past(t)`` at the stage time is the stage vector.  ``lagged(t, taps)``
    looks up every node of the tap table, splitting it by its lag, with
    r = c - lag/h for the stage offset c:

    - at-stage, lag = 0: read from the stage vector;
    - sub-step, 0 < lag < c*h (r > 0), only when a delay is below the step:
      extrapolated linearly from the committed state at the step start with
      the step's first slope, and counted;
    - committed, the rest: from stage time (k + c)h the lookup lands at
      (k + r)h, between samples k + floor(r) and the next one, with weight
      theta = r - floor(r).  Lookups still before t = 0 go to the initial
      history, which stays exact on tables; the rest blend two samples.

    Before the history's first knot t_0 (t_0 = 0 for a constant history)
    every history holds its first state, so the committed nodes landing at
    or before t_0 all read one row.  They are folded: each tap's folded
    nodes become one row of the first state, weighted by their weights
    summed from the tap's far end, and g and the segment sum see the live
    nodes plus at most one row per tap.  ``lagged`` returns those rows, the
    ``QuadraturePlan`` of their weights and the first row of each tap.

    The split, offsets and weights are resolved once into a ``_LookupPlan``
    per stage offset, which keeps one fold and lays it out again only when
    a node crosses t_0.  The cache is keyed on the lags array, one array
    for a model's life under constant delays, and is replaced whole when
    the lags take other values, as under a delay table whenever the stage
    time moves.
    """

    def __init__(self, traj: Trajectory, h: float):
        self.traj = traj
        self.h = h
        self.extrapolations = 0
        self.t_first = float(traj.initial.knots.times[0])
        self.first_state = traj.initial.knots.values[0]
        self._lags = None
        self._plans: dict[float, _LookupPlan] = {}

    def move(self, k: int, c: float, t_stage: float, x_stage: np.ndarray,
             x_base: np.ndarray, slope: np.ndarray | None) -> None:
        """Enter the stage at offset c of step k, whose start state is x_base."""
        self.k = k
        self.c = c
        self.t_stage = t_stage
        self.x_stage = x_stage
        self.x_base = x_base
        self.slope = slope

    def __call__(self, t: float) -> np.ndarray:
        if t != self.t_stage:
            raise AssertionError("stage past read away from the stage time")
        return self.x_stage

    def lagged(self, t: float, taps):
        if t != self.t_stage:
            raise AssertionError("stage lookup away from the stage time")
        lags = taps.lags_at(t)
        if lags is not self._lags and not np.array_equal(lags, self._lags):
            self._lags, self._plans = lags, {}
        traj = self.traj
        plan = self._plans.get(self.c)
        if plan is None:
            plan = self._plans[self.c] = _LookupPlan(
                taps, lags, self.c, self.h, traj.node_dim, traj.dim)
        a, b = plan.at_stage_end, plan.sub_step_end
        p = int(plan.offsets.searchsorted(-self.k))
        f = plan.fold_count(t, self.t_first, p) if p else 0
        if f != plan.folded:
            plan.fold(f)
        e = plan.fold_end
        out = np.empty((plan.buffer_rows, traj.node_dim))
        if a:
            out[:a] = self.x_stage.take(plan.cols[:a])
        if b > a:
            self.extrapolations += b - a
            out[a:b] = (self.x_base.take(plan.cols[a:b])
                        + plan.sub_step_dt * self.slope.take(plan.cols[a:b]))
        if e > b:
            out[b:e] = self.first_state.take(plan.fold_cols)
        if p > f:
            # the offset puts these before t = 0; the clamp only absorbs rounding
            rows = traj.initial.eval_many(np.minimum(t + plan.neg_lags[f:p], 0.0))
            out[e:e + p - f] = rows.take(plan.initial_cols[f:p] - f * traj.dim)
        if p < plan.offsets.size:
            states = traj.states
            base = self.k * traj.dim
            out[e + p - f:] = (plan.w_lo[p:] * states.take(plan.lo[p:] + base)
                               + plan.w_hi[p:] * states.take(plan.hi[p:] + base))
        return out.take(plan.rows, axis=0), plan.quadrature, plan.starts


def integrate(model: NetworkModel, initial: HistoryFunction, config: IntegratorConfig) -> Trajectory:
    """March the model from its initial history to the horizon.

    Returns the trajectory sampled at every step (output striding is left to
    the writers).  Raises ``BlowUpError`` with the partial trajectory
    attached when the state escapes.
    """
    traj = Trajectory(initial, node_count=model.m, node_dim=model.node.dim)
    traj.stage_extrapolation_count = 0
    stages, divisor = _TABLEAUS[config.method]
    h = config.h
    past = _StagePast(traj, h)
    x = traj.states[0].copy()
    _guard_state(0.0, x, traj)
    for k in range(config.steps):
        t = k * h
        ks: list[np.ndarray] = []
        try:
            for c, a, _ in stages:
                if ks:
                    past.move(k, c, t + c * h, x + (a * h) * ks[-1], x, ks[0])
                else:
                    past.move(k, 0.0, t, x, x, None)
                ks.append(rhs(model, past.t_stage, past))
        except NonFiniteDerivative as exc:
            raise BlowUpError(t, traj, str(exc)) from exc
        traj.stage_extrapolation_count = past.extrapolations
        incr = stages[0][2] * ks[0]
        for (_, _, b), k_stage in zip(stages[1:], ks[1:]):
            incr = incr + b * k_stage
        x_next = x + (h / divisor) * incr
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

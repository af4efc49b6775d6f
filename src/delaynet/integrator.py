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

Work is done once per run, step or (step, offset), not once per stage.
Quadrature nodes that land before the initial history's first knot, where
it is constant, are folded into one weighted row per tap, and plans with
the same node order share the layouts of their folds (see ``_StagePast``);
``Trajectory.lagged`` serves the unfolded lookup and stays the oracle of
the fold.  Two stages at the same offset of one step, as RK4's second and
third, start from the same state with the same first slope, so they share
every lookup but the at-stage ones.  Once every committed lookup lands at
or after t = 0, a stage only blends samples.

Each step makes one magnitude test of the new state, which also catches
NaN and inf, and one unchecked write into a record sized for the whole
run.  Integration halts with ``BlowUpError`` as soon as a state component
leaves [-1e12, 1e12] or turns non-finite.  A run is strictly sequential;
independent runs may share the immutable model.
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


# fold layouts one run keeps, shared by its plans of one node order: the
# stage offsets of neighbouring steps revisit the same few fold counts
_LAYOUTS_KEPT = 8


class _LookupPlan:
    """The lookups of a tap table's nodes at one stage offset c, resolved
    into the three classes of ``_StagePast``, and their current fold.

    The nodes are laid out in plan order: at-stage ones up to
    ``at_stage_end``, sub-step ones up to ``sub_step_end``, then committed
    ones by decreasing lag, so that their lookup times t - lag increase and
    at step k the ones still before t = 0 (offset < -k) form a prefix of
    them, and the ones at or before the history's first knot a prefix of
    that; ``position[q]`` is node q's place in that order.  From step
    ``steady`` on that prefix is empty.  ``at_cols`` and ``sub_cols`` hold,
    for each at-stage and sub-step node, the n flat indices of its source
    block in a state vector, and ``initial_cols`` the same for committed
    ones read from the initial history, row by row.  ``blend_cols`` holds
    the flat indices, relative to sample k, of the two samples a committed
    node blends, and ``blend_weights`` their weights (1 - theta, theta);
    the second sample is the first at offset 0, where theta is 0, so no row
    after the last committed sample is read.

    The plan keeps one fold, of its first ``folded`` committed nodes; lags
    increase along a tap, so those are a suffix of each tap.  The rows
    handed to g are, tap by tap, the live nodes and then, for a tap with
    folded nodes, one row of the history's first state.  ``rows`` picks
    them from the lookup buffer, which holds the at-stage and sub-step
    rows, then the folded taps' rows (``fold_cols`` in the first state),
    then the live committed rows.  ``quadrature`` holds the rows' weights,
    a folded row weighing ``taps.tails`` at its tap's first folded node,
    and ``starts`` the first row of each tap.  A layout depends only on the
    node order and the fold count, so plans of one order share it.
    ``buffer`` is the last lookup buffer, filled for ``buffer_tag``, the
    (step, fold count) it was filled at.
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
        self.at_cols, self.sub_cols = cols[:a], cols[a:b]
        self.sub_step_dt = (c * h - lags[a:b])[:, None]
        offsets = np.floor(r[b:])
        theta = (r[b:] - offsets)[:, None]
        self.offsets = offsets.astype(np.intp)
        self.steady = max(0, -int(self.offsets[0])) if self.offsets.size else 0
        self.neg_lags = -lags[b:]
        self.initial_cols = np.arange(offsets.size)[:, None] * dim + cols[b:]
        lo = self.offsets[:, None] * dim + cols[b:]
        self.blend_cols = np.stack([lo, lo + np.where(self.offsets < 0, dim, 0)[:, None]])
        self.blend_weights = np.stack([1.0 - theta, theta])
        self.taps = taps
        self.node_dim = node_dim
        self.committed_taps = np.repeat(np.arange(taps.sizes.size), taps.sizes)[order[b:]]
        self.layout_key = (b, order.tobytes())
        self.folded = None
        self.buffer = self.buffer_tag = None

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

    def fold(self, f: int, layouts: dict) -> None:
        """Take the layout with the first f committed nodes folded, from
        ``layouts`` when a plan of the same node order laid it out lately."""
        key = (self.layout_key, f)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = self._layout(f)
            if len(layouts) > _LAYOUTS_KEPT:
                del layouts[next(iter(layouts))]
        (self.rows, self.starts, self.quadrature, self.fold_cols, self.fold_end,
         self.buffer_rows) = layout
        self.folded = f

    def _layout(self, f: int) -> tuple:
        """The rows, starts, quadrature, fold columns, fold end and buffer
        length with the first f committed nodes folded."""
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
        fold_cols = taps.sources[firsts, None] * self.node_dim + np.arange(self.node_dim)
        fold_end = b + fold_rows.size
        quadrature = QuadraturePlan(taps.plan.locations[kept], weights,
                                    taps.plan.truncation_horizon, taps.plan.tail_mass_bound)
        return rows, starts, quadrature, fold_cols, fold_end, fold_end + self.offsets.size - f


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
    per stage offset, which keeps one fold and takes another layout only
    when a node crosses t_0; the last few layouts are shared across the
    plans of one node order, as the stage offsets of neighbouring steps
    reach the same fold counts.  The cache is keyed on the lags array, one
    array for a model's life under constant delays, and is replaced whole
    when the lags take other values, as under a delay table whenever the
    stage time moves.

    Every stage of one step starts from the step's start state with the
    step's first slope, so a second stage at the same offset, as RK4's
    third, makes the same sub-step, history and committed lookups as the
    first: it keeps the plan's buffer and rewrites only its at-stage rows,
    still counting its sub-step ones.
    """

    def __init__(self, traj: Trajectory, h: float):
        self.traj = traj
        self.h = h
        self.extrapolations = 0
        self.t_first = float(traj.initial.knots.times[0])
        self.first_state = traj.initial.knots.values[0]
        self._lags = None
        self._plans: dict[float, _LookupPlan] = {}
        self._layouts: dict = {}

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
        k = self.k
        if k >= plan.steady:
            p = f = 0
        else:
            p = int(plan.offsets.searchsorted(-k))
            f = plan.fold_count(t, self.t_first, p) if p else 0
        if f != plan.folded:
            plan.fold(f, self._layouts)
        a, b, e = plan.at_stage_end, plan.sub_step_end, plan.fold_end
        out = plan.buffer
        # a second stage at this step and offset keeps all but the at-stage rows
        if plan.buffer_tag != (k, f):
            if out is None or len(out) != plan.buffer_rows:
                out = plan.buffer = np.empty((plan.buffer_rows, traj.node_dim))
            plan.buffer_tag = (k, f)
            if b > a:
                out[a:b] = (self.x_base.take(plan.sub_cols)
                            + plan.sub_step_dt * self.slope.take(plan.sub_cols))
            if e > b:
                out[b:e] = self.first_state.take(plan.fold_cols)
            if p > f:
                # the offset puts these before t = 0; the clamp only absorbs rounding
                rows = traj.initial.eval_many(np.minimum(t + plan.neg_lags[f:p], 0.0))
                out[e:e + p - f] = rows.take(plan.initial_cols[f:p] - f * traj.dim)
            if p < plan.offsets.size:
                base = k * traj.dim
                if p:
                    terms = plan.blend_weights[:, p:] * traj._states.take(
                        plan.blend_cols[:, p:] + base)
                else:
                    terms = plan.blend_weights * traj._states.take(plan.blend_cols + base)
                np.add(terms[0], terms[1], out=out[e + p - f:])
        if a:
            out[:a] = self.x_stage.take(plan.at_cols)
        self.extrapolations += b - a
        return out.take(plan.rows, axis=0), plan.quadrature, plan.starts


def integrate(model: NetworkModel, initial: HistoryFunction, config: IntegratorConfig) -> Trajectory:
    """March the model from its initial history to the horizon.

    Returns the trajectory sampled at every step (output striding is left to
    the writers).  Raises ``BlowUpError`` with the partial trajectory
    attached when the state escapes.
    """
    traj = Trajectory(initial, node_count=model.m, node_dim=model.node.dim)
    traj._reserve(config.steps + 1)
    traj.stage_extrapolation_count = 0
    stages, divisor = _TABLEAUS[config.method]
    h = config.h
    shifts = [(c, c * h, a * h) for c, a, _ in stages]
    weights = [b for _, _, b in stages]
    scale = h / divisor
    past = _StagePast(traj, h)
    x = traj.states[0].copy()
    _guard_state(0.0, x, traj)
    for k in range(config.steps):
        t = k * h
        ks: list[np.ndarray] = []
        try:
            for c, ch, ah in shifts:
                if ks:
                    past.move(k, c, t + ch, x + ah * ks[-1], x, ks[0])
                else:
                    past.move(k, 0.0, t, x, x, None)
                ks.append(rhs(model, past.t_stage, past))
        except NonFiniteDerivative as exc:
            raise BlowUpError(t, traj, str(exc)) from exc
        traj.stage_extrapolation_count = past.extrapolations
        incr = None
        for b, k_stage in zip(weights, ks):
            term = k_stage if b == 1.0 else b * k_stage
            incr = term if incr is None else incr + term
        x_next = x + scale * incr
        t_next = (k + 1) * h
        if not np.abs(x_next).max() <= BLOWUP_THRESHOLD:
            _guard_state(t_next, x_next, traj)
        traj._push(t_next, x_next)
        x = x_next
    return traj


def _guard_state(t: float, x: np.ndarray, traj: Trajectory) -> None:
    if not np.all(np.isfinite(x)):
        raise BlowUpError(t, traj, "non-finite state component")
    peak = float(np.max(np.abs(x)))
    if peak > BLOWUP_THRESHOLD:
        raise BlowUpError(t, traj, f"state magnitude {peak:.3e} exceeds {BLOWUP_THRESHOLD:.0e}")

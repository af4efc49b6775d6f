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

For an output linear in u, the tap table turns each density that spans a
few steps into auxiliary states, exponential filters and running integrals
of the states they follow (``_TapTable.chain``), read by a few exact nodes.
The auxiliary states extend every stage vector and record row and advance
by the same RK4 stages as the state; their history follows exactly from
the initial one (``HistoryFunction.auxiliary``).  They stay out of
``Trajectory.states`` and the blow-up guard.  A custom output reads every
quadrature node.

Two stages at the same offset of one step, as RK4's second and third,
start from the same state with the same first slope, so they share every
lookup but the at-stage ones.  Once every committed lookup lands at or
after t = 0, a stage only blends samples.

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

__all__ = ["IntegratorConfig", "integrate", "BlowUpError", "BLOWUP_THRESHOLD"]

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
    """The lookups of a node set at one stage offset c, resolved into the
    three classes of ``_StagePast``.

    The nodes are laid out in plan order: at-stage ones up to
    ``at_stage_end``, sub-step ones up to ``sub_step_end``, then committed
    ones by decreasing lag, so that their lookup times increase and at step
    k the ones still before t = 0 (offset < -k) form a prefix of them, empty
    from step ``steady`` on; ``position[q]`` is node q's place in that
    order, None when it is the node order, as for single-node taps in
    lookup order (``_TapTable``) with no lag below the step.  ``at_cols``
    and ``sub_cols`` hold, for each at-stage and sub-step node, the n flat
    indices of its source block in a record row, and ``initial_cols`` the
    same for committed ones read from the initial history, row by row.
    ``blend_cols`` holds the flat indices, relative to sample k, of the two
    samples a committed node blends, with weights ``blend_weights`` (1 -
    theta, theta); the second is the first at offset 0, where theta is 0,
    so no row after the last committed one is read.  When every theta is 0,
    a node reads one sample, ``blend_cols[0]``, and ``blend_weights`` is
    None.  ``buffer`` holds the lookups in plan order,
    filled at step ``buffer_step``, and ``rows`` is a read-only view of it."""

    def __init__(self, lags: np.ndarray, sources: np.ndarray, c: float, h: float,
                 node_dim: int, dim: int):
        if not np.all(np.isfinite(lags) & (lags >= 0.0)):
            raise ValueError("lookup lags must be finite and nonnegative")
        r = c - lags / h
        at_stage = lags == 0.0
        sub_step = ~at_stage & (r > 0.0)
        committed = np.flatnonzero(~(at_stage | sub_step))
        order = np.concatenate([np.flatnonzero(at_stage), np.flatnonzero(sub_step),
                                committed[np.argsort(-lags[committed], kind="stable")]])
        self.position = None if np.array_equal(order, np.arange(order.size)) else np.argsort(order)
        a = self.at_stage_end = int(np.count_nonzero(at_stage))
        b = self.sub_step_end = a + int(np.count_nonzero(sub_step))
        lags, r = lags[order], r[order]
        cols = sources[order, None] * node_dim + np.arange(node_dim)
        self.at_cols, self.sub_cols = cols[:a], cols[a:b]
        self.sub_step_dt = (c * h - lags[a:b])[:, None]
        offsets = np.floor(r[b:])
        theta = (r[b:] - offsets)[:, None]
        self.offsets = offsets.astype(np.intp)
        self.steady = max(0, -int(self.offsets[0])) if self.offsets.size else 0
        self.neg_lags = -lags[b:]
        self.initial_cols = np.arange(offsets.size)[:, None] * dim + cols[b:]
        lo = self.offsets[:, None] * dim + cols[b:]
        self.blend_cols, self.blend_weights = lo[None], None
        if theta.any():
            self.blend_cols = np.stack([lo, lo + np.where(self.offsets < 0, dim, 0)[:, None]])
            self.blend_weights = np.stack([1.0 - theta, theta])
        self.buffer = np.empty((lags.size, node_dim))
        self.rows = self.buffer.view()
        self.rows.flags.writeable = False
        self.buffer_step = None


class _StagePast:
    """The past the right-hand side sees inside the RK stages of one run.

    One instance serves the whole run; ``integrate`` sets its step k, start
    row x_base, first slope, stage offset c, t_stage and x_stage.
    Stage vectors and record rows carry the auxiliary columns after the
    state; ``past(t)`` at the stage time is the stage vector's state part.
    ``lagged(t, taps)`` looks up every node of ``nodes``, the tap table's
    nodes at step h, splitting it by its lag, with r = c - lag/h for the
    stage offset c:

    - at-stage, lag = 0: read from the stage vector;
    - sub-step, 0 < lag < c*h (r > 0), only when a delay is below the step:
      extrapolated linearly from the committed row at the step start with
      the step's first slope, and counted;
    - committed, the rest: from stage time (k + c)h the lookup lands at
      (k + r)h, between samples k + floor(r) and the next one, with weight
      theta = r - floor(r).  Lookups still before t = 0 read ``initial``,
      the initial history with its auxiliary states, exact on tables; the
      rest blend two samples.

    ``lagged`` returns the rows in node order, the plan's read-only
    ``rows`` themselves when no permutation is needed, and the nodes'
    ``plan`` and ``starts``.  The split, offsets and weights are resolved
    once into a ``_LookupPlan`` per stage offset, in a cache keyed on the
    lags array: one array for a model's life under constant delays,
    replaced whole when the lags change, as under a delay table at every
    stage time.  A
    second stage at one step and offset, as RK4's third, rewrites only the
    at-stage rows of the plan's buffer, still counting its sub-step ones.
    """

    def __init__(self, traj: Trajectory, h: float, initial, nodes):
        self.traj, self.h, self.initial, self.nodes = traj, h, initial, nodes
        self.extrapolations = 0
        self.dim, self.record_dim = traj.dim, traj._record.shape[1]
        self._lags, self._plans = None, {}

    def __call__(self, t: float) -> np.ndarray:
        if t != self.t_stage:
            raise AssertionError("stage past read away from the stage time")
        return self.x_stage[:self.dim]

    def lagged(self, t: float, taps):
        if t != self.t_stage:
            raise AssertionError("stage lookup away from the stage time")
        nodes = self.nodes
        lags = nodes.lags if nodes.delays is None else nodes.lags_at(t)
        if lags is not self._lags and not np.array_equal(lags, self._lags):
            self._lags, self._plans = lags, {}
        plan = self._plans.get(self.c)
        if plan is None:
            plan = self._plans[self.c] = _LookupPlan(
                lags, nodes.sources, self.c, self.h, self.traj.node_dim, self.record_dim)
        k, a, b, out = self.k, plan.at_stage_end, plan.sub_step_end, plan.buffer
        # a second stage at this step and offset keeps all but the at-stage rows
        if plan.buffer_step != k:
            plan.buffer_step = k
            if b > a:
                out[a:b] = (self.x_base.take(plan.sub_cols)
                            + plan.sub_step_dt * self.slope.take(plan.sub_cols))
            p = int(plan.offsets.searchsorted(-k)) if k < plan.steady else 0
            if p:
                # the offset puts these before t = 0; the clamp only absorbs rounding
                rows = self.initial(np.minimum(t + plan.neg_lags[:p], 0.0))
                out[b:b + p] = rows.take(plan.initial_cols[:p])
            if p < plan.offsets.size:
                rows = self.traj._record.take(
                    (plan.blend_cols[:, p:] if p else plan.blend_cols) + k * self.record_dim)
                if plan.blend_weights is None:
                    out[b + p:] = rows[0]
                else:
                    terms = (plan.blend_weights[:, p:] if p else plan.blend_weights) * rows
                    np.add(terms[0], terms[1], out=out[b + p:])
        if a:
            out[:a] = self.x_stage.take(plan.at_cols)
        self.extrapolations += b - a
        rows = plan.rows if plan.position is None else out.take(plan.position, axis=0)
        return rows, nodes.plan, nodes.starts


def integrate(model: NetworkModel, initial: HistoryFunction, config: IntegratorConfig) -> Trajectory:
    """March the model from its initial history to the horizon.

    Returns the trajectory sampled at every step (output striding is left to
    the writers).  Raises ``BlowUpError`` with the partial trajectory
    attached when the state escapes.
    """
    traj = Trajectory(initial, node_count=model.m, node_dim=model.node.dim)
    nodes, cols, rates = model.taps.chain(config.h)
    dim = traj.dim
    traj._reserve(config.steps + 1, hidden=cols.size)
    extended = initial.auxiliary(cols, rates)
    traj._record[0] = extended([0.0])[0]
    # z' = r (x - z) for a filter, G' = x for a running integral
    gain, keep = np.where(rates > 0.0, rates, 1.0), (rates > 0.0).astype(float)
    stages, divisor = _TABLEAUS[config.method]
    h = config.h
    shifts = [(c, c * h, a * h) for c, a, _ in stages]
    weights = [b for _, _, b in stages]
    scale = h / divisor
    past = _StagePast(traj, h, extended, nodes)
    x = traj._record[0].copy()
    try:
        _guard_state(0.0, x[:dim], traj)
        for k in range(config.steps):
            t = k * h
            ks: list[np.ndarray] = []
            past.k, past.x_base, past.slope = k, x, None
            try:
                for c, ch, ah in shifts:
                    past.c, past.t_stage = c, t + ch
                    y = past.x_stage = x + ah * ks[-1] if ks else x
                    slope = rhs(model, past.t_stage, past)
                    if cols.size:
                        slope = np.concatenate((slope, gain * (y.take(cols) - keep * y[dim:])))
                    ks.append(slope)
                    past.slope = ks[0]
            except NonFiniteDerivative as exc:
                raise BlowUpError(t, traj, str(exc)) from exc
            incr = None
            for b, k_stage in zip(weights, ks):
                term = k_stage if b == 1.0 else b * k_stage
                incr = term if incr is None else incr + term
            x_next = x + scale * incr
            t_next = (k + 1) * h
            if not np.abs(x_next[:dim]).max() <= BLOWUP_THRESHOLD:
                _guard_state(t_next, x_next[:dim], traj)
            traj._push(t_next, x_next)
            x = x_next
    finally:
        traj.stage_extrapolation_count = past.extrapolations
    return traj


def _guard_state(t: float, x: np.ndarray, traj: Trajectory) -> None:
    if not np.all(np.isfinite(x)):
        raise BlowUpError(t, traj, "non-finite state component")
    peak = float(np.max(np.abs(x)))
    if peak > BLOWUP_THRESHOLD:
        raise BlowUpError(t, traj, f"state magnitude {peak:.3e} exceeds {BLOWUP_THRESHOLD:.0e}")

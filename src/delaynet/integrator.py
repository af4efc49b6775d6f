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

Under a constant A and constant delays the coupling follows the method of
steps (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, 2003, ch. 3): a lookup whose lag is at least the largest stage
offset times h reads, over the next steps, only samples already recorded.
Once none of them reads before t = 0, each row's leading run of pairs made
of such lookups is summed in blocks (``_Block``), each of the steps the
lookups allow and ``_BLOCK_BUDGET`` keeps in cache.  Per block: one gather
and one blend of the samples, one g call, one segment sum and one
``np.bincount``, for every step and stage offset of the block.  Per (step,
offset): one row of those sums.  Per stage: the lookups, g call, segment
sum and scatter of the other pairs only, and one addition.  The result is that of summing every pair at every
stage, bit for bit.  g may thus be called on committed rows up to a block
before the stage that uses them, and a g that raises does so at the
block's first step; ``NonFiniteDerivative`` still names the stage whose
derivative is not finite.

Each stage's slope joins the step's sum as it returns, and the new state
is computed straight into its row of a record sized for the whole run.
Every scalar operand of a stage's arithmetic is a 0-d array bound once per
run, and a block resolves each stage offset's column and plan when made.
Each step makes one magnitude test of that state, which also catches NaN
and inf.  Integration halts with ``BlowUpError`` as soon as a state
component leaves [-1e12, 1e12] or turns non-finite.  A run is strictly
sequential; independent runs may share the immutable model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NetworkModel, NonFiniteDerivative, rhs
from .history import HistoryFunction, Trajectory

__all__ = ["IntegratorConfig", "integrate", "BlowUpError", "BLOWUP_THRESHOLD"]

BLOWUP_THRESHOLD = 1e12

# the most elements of a block's largest operand (``_Block``), 2 MiB of
# float64: one core's L2 on a 2-core x86 box, past which the block's cost per
# term nearly doubles (all-to-all m = 100 at 4 steps or more).  Below 1 no
# block is made
_BLOCK_BUDGET = 1 << 18

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
        if not (math.isfinite(self.h) and math.isfinite(self.horizon)):
            raise ValueError("step h and horizon must be finite")
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
    order.  ``at_cols`` and ``sub_cols`` hold, for each at-stage and
    sub-step node, the n flat indices of its source block in a record row,
    and ``initial_cols`` the same for committed ones read from the initial
    history, row by row.  ``blend_cols`` holds the flat indices, relative
    to sample k, of the two samples a committed node blends, with weights
    ``blend_weights`` (1 - theta, theta); the second is the first at offset
    0, where theta is 0, so no row after the last committed one is read.
    When every theta is 0, a node reads one sample, ``blend_cols[0]``, and
    ``blend_weights`` is None.  ``buffer`` holds the lookups in plan order,
    filled at step ``buffer_step``."""

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
        self.position = np.argsort(order)
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
        self.buffer_step = None


class _StagePairs:
    """The pairs a stage still sums once a block runs, as ``rhs`` reads
    them: ``coef``, read-only (pairs, n); ``pair_tap`` into the stage's
    taps, None when it is 0, 1, 2, ...; ``cells``, None when it is 0, 1,
    ..., dim - 1, so that the gather or the scatter is the identity; and
    ``prefix``, the block's sums at the stage's step and offset."""

    def __init__(self, pair_tap: np.ndarray, coef: np.ndarray, cells: np.ndarray, dim: int):
        identity = np.array_equal(cells, np.arange(dim))
        self.pair_tap = None if np.array_equal(pair_tap, np.arange(pair_tap.size)) else pair_tap
        coef.flags.writeable = False
        self.coef, self.cells, self.prefix = coef, None if identity else cells, None


class _Block:
    """The method of steps on the coupling: each row's leading committed
    pairs summed for up to ``length`` steps at every stage offset at once.

    Under a constant A and constant delays, over the next steps every
    committed lookup reads samples already recorded.  A pair is committed
    when every node of its tap is committed at every stage offset, that is
    lags at least max(c)·h; a row takes the block when its leading run of
    committed pairs is not empty and at most one pair follows it.  From
    step ``start``, the largest ``_LookupPlan.steady``, at the first step
    k0 of each block ``make`` gets, for steps k0 ... k0 + L - 1 and every
    stage offset c, each cell's sum of a_ij times the integral of the
    row's run pairs, added pair by pair in order from 0.0 as ``rhs`` adds
    them, into ``sums`` (step, offset, cell): one gather of the samples,
    one blend, one g call with t a column of the rows' stage times, one
    segment sum, none with no ``sum_plan``, and one ``np.bincount``.  L is
    the least of the steps before some lookup would read a sample not yet
    recorded, the steps left, and the most steps, one at least, whose
    largest operand keeps within ``_BLOCK_BUDGET`` elements: per step
    2·nodes·C·n blend terms, pairs·C·n products and bins, or C·m·n sums.
    A stage then reads its step and offset's row of ``sums`` as the prefix
    of ``pairs``, the other pairs, whose taps ``stage`` holds.

    The block's lookups are the stage's own blends: a plan that blends
    weighs all its nodes (1 - theta, theta), and one that does not reads
    one sample, here blended with weights (1, 0) on that same sample,
    which every recorded value passes unchanged, as each row passed the
    blow-up guard and is finite.  A lone row can round differently in a
    matrix product from the same row among several, so the block is not
    used where a g call would change from several rows to one.
    """

    def __init__(self, output, plans, nodes, taps, block, h: float, n: int, dim: int,
                 record_dim: int):
        C = len(plans)
        self.output, self.h, self.n, self.dim, self.record_dim = output, h, n, dim, record_dim
        self.times = np.array([c * h for c in plans])
        parts = []
        for sel in (block, ~block):
            tapped = np.zeros(nodes.sizes.size, dtype=bool)
            tapped[taps.pair_tap[sel]] = True
            parts.append((nodes.select(tapped), (np.cumsum(tapped) - 1).take(taps.pair_tap[sel])))
        (self.nodes, self.pair_tap), (self.stage, stage_tap) = parts
        cells = taps.cells.reshape(-1, n)
        self.coef = taps.coef[block, :1]
        self.pairs = _StagePairs(stage_tap, taps.coef[~block], cells[~block].ravel(), dim)
        # per stage offset: its column of ``sums`` and the plan of the other
        # pairs' lookups, None when there is no other pair
        stage = self.stage
        self.by_offset = {c: (i, _LookupPlan(stage.lags, stage.sources, c, h, n, record_dim)
                              if stage.lags.size else None) for i, c in enumerate(plans)}
        self.start = max(plan.steady for plan in plans.values())
        cols, weights, offsets = [], [], []
        for plan in plans.values():
            q = plan.position[self.nodes.index] - plan.sub_step_end
            offsets.append(plan.offsets[q])
            if plan.blend_weights is None:
                cols.append(plan.blend_cols[[0, 0]][:, q])
                weights.append(np.stack([np.ones((q.size, 1)), np.zeros((q.size, 1))]))
            else:
                cols.append(plan.blend_cols[:, q])
                weights.append(plan.blend_weights[:, q])
                # the second sample is the next one except at offset 0
                offsets.append(plan.offsets[q] + (plan.offsets[q] < 0))
        offsets = np.concatenate(offsets)
        per_step = C * max(2 * self.nodes.index.size * n, self.pair_tap.size * n, dim)
        L = self.length = min(1 - int(offsets.max()), max(1, _BLOCK_BUDGET // per_step))
        # rows are read from row k - back, so that every index is nonnegative
        self.back = -int(offsets.min())
        # (blend, node, step, offset, component), then (pair, step, offset, component)
        shape = (2, self.nodes.index.size, L, C, n)
        self.cols = (np.stack(cols, axis=2)[:, :, None]
                     + ((np.arange(L) + self.back) * record_dim)[:, None, None])
        self.weights = np.ascontiguousarray(
            np.broadcast_to(np.stack(weights, axis=2)[:, :, None], shape))
        self.steps = np.arange(L)
        self.time_of_row = np.broadcast_to(np.arange(L * C).reshape(L, C), shape[1:4]).copy()
        self.bins = ((np.arange(L * C) * dim)[:, None]
                     + cells[block][:, None, :]).reshape(-1, L * C * n)
        self.first = self.end = self.start
        self.sums = None

    def make(self, record: np.ndarray, k: int) -> None:
        """The block of steps k, k + 1, ...: the record holds the run's
        steps + 1 rows, and rows up to k are written."""
        size = min(self.length, len(record) - 1 - k)
        nodes, n, C = self.nodes, self.n, len(self.by_offset)
        terms = self.weights[:, :, :size] * record.reshape(-1)[
            (k - self.back) * self.record_dim:].take(self.cols[:, :, :size])
        rows = terms[0] + terms[1]
        t = (((k + self.steps[:size]) * self.h)[:, None] + self.times).take(
            self.time_of_row[:, :size].reshape(-1, 1))
        conv = self.output.eval_rows(t, rows.reshape(-1, n)).reshape(len(nodes.index), -1, n)
        if nodes.sum_plan is not None:
            conv = nodes.sum_plan.apply(conv, nodes.starts)
        terms = self.coef * conv.reshape(len(conv), -1).take(self.pair_tap, axis=0)
        self.sums = np.bincount(self.bins[:, :size * C * n].ravel(), terms.ravel(),
                                size * C * self.dim).reshape(size, C, self.dim)
        self.first, self.end = k, k + size


def _block(model: NetworkModel, nodes, plans, h: float, dim: int, record: np.ndarray):
    """The block of a run under a constant A and constant delays, given
    its lookup plans at every stage offset and its record; None when no
    row takes one, when it would hand g one row where the stage handed it
    several, when the run ends before it starts, or with ``_BLOCK_BUDGET``
    below 1."""
    taps, n = model.taps, model.n
    if _BLOCK_BUDGET < 1 or max(plan.steady for plan in plans.values()) >= len(record) - 1:
        return None
    committed = np.ones(nodes.lags.size, dtype=bool)
    for plan in plans.values():
        committed &= plan.position >= plan.sub_step_end
    bad = ~np.logical_and.reduceat(committed, nodes.starts)[taps.pair_tap]
    # pairs come row by row: a pair leads when no pair from its row's first to it is bad
    rows = taps.cells[::n] // n
    first = np.searchsorted(rows, rows)
    seen = np.cumsum(bad)
    lead = seen - seen[first] + bad[first] == 0
    count, leading = (np.bincount(rows, w, model.m) for w in (None, lead))
    block = lead & ((leading >= 1) & (count - leading <= 1))[rows]
    sizes = [int(nodes.sizes[np.unique(taps.pair_tap[sel])].sum()) for sel in (block, ~block)]
    if not block.any() or committed.size < 2 or sizes[0] * len(plans) < 2 or sizes[1] == 1:
        return None
    return _Block(model.output, plans, nodes, taps, block, h, n, dim, record.shape[1])


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

    ``lagged`` returns the rows, gathered class by class and handed over
    as a new array in node order, the nodes' ``sum_plan`` and ``starts``, and
    the tap table as the pairs that read them.  The split, offsets and
    weights are resolved once into a ``_LookupPlan`` per stage offset, in a
    cache keyed on the lags array: one array for a model's life under
    constant delays, replaced whole when the lags change, as under a delay
    table at every stage time.  A second stage at one step and offset, as
    RK4's third, rewrites only the at-stage rows of the plan's buffer,
    still counting its sub-step ones.

    Under a constant A and constant delays the plans of every offset are
    made at once, and a ``_Block`` may take each row's leading committed
    pairs.  From its start, ``lagged`` looks up only the taps of the other
    pairs, ``block.stage``, through plans of their own, and returns those
    pairs with the block's sums at the step and offset as their prefix,
    and no rows when there is no other pair.  A plan of at-stage nodes
    alone hands over the gathered stage rows, with no buffer.
    """

    def __init__(self, traj: Trajectory, h: float, initial, nodes, model: NetworkModel, offsets):
        self.traj, self.h, self.initial, self.nodes = traj, h, initial, nodes
        self.extrapolations = 0
        self.dim, self.record_dim = traj.dim, traj._record.shape[1]
        self.whole = self.record_dim == self.dim  # no auxiliary column
        self._lags, self._plans, self.block = None, {}, None
        if nodes.delays is None and model.taps.coef is not None and model.taps.pairs.size:
            self._lags = nodes.lags
            self._plans = {c: _LookupPlan(nodes.lags, nodes.sources, c, h, traj.node_dim,
                                          self.record_dim) for c in offsets}
            self.block = _block(model, nodes, self._plans, h, self.dim, traj._record)

    def __call__(self, t: float) -> np.ndarray:
        if t != self.t_stage:
            raise AssertionError("stage past read away from the stage time")
        return self.x_stage if self.whole else self.x_stage[:self.dim]

    def lagged(self, t: float, taps):
        if t != self.t_stage:
            raise AssertionError("stage lookup away from the stage time")
        k, block = self.k, self.block
        if block is not None and k >= block.start:
            if k >= block.end:
                block.make(self.traj._record, k)
            column, plan = block.by_offset[self.c]
            nodes, pairs = block.stage, block.pairs
            pairs.prefix = block.sums[k - block.first, column]
            if plan is None:
                return None, None, None, pairs
        else:
            nodes, pairs = self.nodes, taps
            lags = nodes.lags if nodes.delays is None else nodes.lags_at(t)
            if lags is not self._lags and not np.array_equal(lags, self._lags):
                self._lags, self._plans = lags, {}
            plan = self._plans.get(self.c)
            if plan is None:
                plan = self._plans[self.c] = _LookupPlan(
                    lags, nodes.sources, self.c, self.h, self.traj.node_dim, self.record_dim)
        a, b, out = plan.at_stage_end, plan.sub_step_end, plan.buffer
        if a == len(out):
            return self.x_stage.take(plan.at_cols), nodes.sum_plan, nodes.starts, pairs
        # a second stage at this step and offset keeps all but the at-stage rows
        # (for runs with no block: delay or coupling tables, long custom tails, lone rows)
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
                # one sample, no blend (kept for the same runs as the reuse above)
                if plan.blend_weights is None:
                    out[b + p:] = rows[0]
                else:
                    terms = (plan.blend_weights[:, p:] if p else plan.blend_weights) * rows
                    np.add(terms[0], terms[1], out=out[b + p:])
        if a:
            out[:a] = self.x_stage.take(plan.at_cols)
        self.extrapolations += b - a
        return out.take(plan.position, axis=0), nodes.sum_plan, nodes.starts, pairs


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
    record, times, states = traj._record, traj._times, traj._states
    # one slope vector per stage, rewritten at every step; the auxiliary
    # slopes go into its tail
    slopes = np.empty((len(stages), record.shape[1]))
    # every scalar operand of a stage's ufuncs is a 0-d array, bound once:
    # numpy converts a Python float at each call, and the product is the same
    shifts = [(c, c * h, np.array(a * h), b == 1.0, np.array(b), s, s[dim:])
              for (c, a, b), s in zip(stages, slopes)]
    scale = np.array(h / divisor)
    past = _StagePast(traj, h, extended, nodes, model, dict.fromkeys(c for c, _, _ in stages))
    x = record[0]
    try:
        _guard_state(0.0, states[0], traj)
        for k in range(config.steps):
            t = k * h
            past.k, past.x_base, past.slope = k, x, None
            incr = None
            try:
                for c, ch, ah, unit, b, ext, aux in shifts:
                    y = past.x_stage = x if incr is None else x + ah * slope
                    past.c, past.t_stage = c, t + ch
                    slope = rhs(model, past.t_stage, past)
                    if cols.size:
                        ext[:dim] = slope
                        np.multiply(gain, y.take(cols) - keep * y[dim:], out=aux)
                        slope = ext
                    # each slope joins the sum as it returns, in stage order:
                    # ((k1 + 2 k2) + 2 k3) + k4 for RK4; another order changes bits
                    term = slope if unit else b * slope
                    if incr is None:
                        past.slope, incr = slope, term
                    else:
                        incr = incr + term
            except NonFiniteDerivative as exc:
                raise BlowUpError(t, traj, str(exc)) from exc
            t_next = (k + 1) * h
            x = np.add(x, scale * incr, out=record[k + 1])
            if not np.abs(states[k + 1]).max() <= BLOWUP_THRESHOLD:
                _guard_state(t_next, states[k + 1], traj)
            times[k + 1] = t_next
            traj._n = k + 2
    finally:
        traj.stage_extrapolation_count = past.extrapolations
    return traj


def _guard_state(t: float, x: np.ndarray, traj: Trajectory) -> None:
    if not np.all(np.isfinite(x)):
        raise BlowUpError(t, traj, "non-finite state component")
    peak = float(np.max(np.abs(x)))
    if peak > BLOWUP_THRESHOLD:
        raise BlowUpError(t, traj, f"state magnitude {peak:.3e} exceeds {BLOWUP_THRESHOLD:.0e}")

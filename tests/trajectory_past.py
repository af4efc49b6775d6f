"""A recorded trajectory served as the past that ``rhs`` reads."""

import numpy as np


class TrajectoryPast:
    """A ``Trajectory`` with the lookup ``rhs`` makes for the quadrature
    nodes of a tap table, every node read from the record itself."""

    def __init__(self, traj):
        self.traj = traj

    def __call__(self, t):
        return self.traj(t)

    def lagged(self, t, taps):
        """The (N, node_dim) block whose row q is node taps.sources[q]'s
        state at t - lag_q, with the table's plan and segment starts."""
        traj, lags = self.traj, taps.lags_at(t)
        rows = traj.eval_many(t - lags)
        rows = rows.reshape(lags.size, traj.node_count, traj.node_dim)[
            np.arange(lags.size), taps.sources]
        return rows, taps.plan, taps.starts

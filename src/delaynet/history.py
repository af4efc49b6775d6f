"""Piecewise-linear tables of time, initial functions on (-inf, 0] and the
growing solution record.

Every input that depends on time (the coupling matrix, the delays, a linear
output matrix and the initial function) is one ``PiecewiseLinear`` table:
values at knots t_0 < ... < t_K, linear between them, exact at them and
held constant outside them.  A constant is one knot at t = 0.  A table is
affine in t on each piece, so a convex function of its value (the modulus of
an entry, a spectral norm, a squared distance) has its supremum over all t
at a knot, and the bounds taken from tables are maxima over their knots.

A Trajectory anchors its first sample to the initial function at t = 0 and
can be evaluated at any time up to its last sample; extrapolation is
refused.  A trajectory is mutated by exactly one integration run;
concurrent readers between appends are fine.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PiecewiseLinear",
    "HistoryFunction",
    "Trajectory",
    "spd_weight",
    "sup_history_deviation",
    "write_trajectory_csv",
]


class PiecewiseLinear:
    """Values at knots t_0 < ... < t_K, linear between them, constant outside.

    ``values`` holds one entry per knot along its first axis: a number, a
    vector or a matrix.  Knot times and values must be finite; both arrays
    are stored read-only.
    """

    def __init__(self, times, values):
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("knot times must be a nonempty 1-D sequence")
        if values.shape[:1] != times.shape:
            raise ValueError(f"{times.size} knot times need as many values, "
                             f"got an array of shape {values.shape}")
        if not np.all(np.isfinite(times)):
            raise ValueError("knot times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("knot times must be strictly increasing")
        bad = ~np.isfinite(values.reshape(times.size, -1)).all(axis=1)
        if bad.any():
            raise ValueError(f"value at knot t={times[np.argmax(bad)]:.6g} is not finite")
        times.flags.writeable = False
        values.flags.writeable = False
        self.times = times
        self.values = values

    @classmethod
    def constant(cls, value) -> "PiecewiseLinear":
        """One knot at t = 0."""
        return cls([0.0], [value])

    def __call__(self, t: float) -> np.ndarray:
        """The value at a float time t; with one knot, the stored read-only
        array.  An array of times is refused: ``eval_many`` reads them."""
        if not isinstance(t, float) and np.ndim(t) > 0:
            raise ValueError(f"a table is called at one float time, got an array of "
                             f"shape {np.shape(t)}; use eval_many for many times")
        if self.times.size == 1:
            return self.values[0]
        return self.eval_many([t])[0]

    def eval_many(self, ts) -> np.ndarray:
        """Values at an array of times, one entry each along the first axis."""
        ts = np.asarray(ts, dtype=float).ravel()
        if self.times.size == 1:
            return np.repeat(self.values, ts.size, axis=0)
        # piece k runs from knot k-1 to knot k; a time on knot k-1 gets
        # w = 0, and w is clipped to [0, 1] outside the knots
        k = np.clip(np.searchsorted(self.times, ts, side="right"), 1, self.times.size - 1)
        t0, t1 = self.times[k - 1], self.times[k]
        w = np.clip((ts - t0) / (t1 - t0), 0.0, 1.0)
        w = w.reshape(w.shape + (1,) * (self.values.ndim - 1))
        return (1.0 - w) * self.values[k - 1] + w * self.values[k]


class HistoryFunction:
    """State history for t <= 0: a table of states at knots t_0 < ... < t_K <= 0.

    Before t_0 the history holds the first state, which realizes the limit
    at -inf exactly; after t_K it holds the last one up to 0.
    ``constant(x)`` is the history identically equal to ``x``, one knot at
    t = 0; ``table(times, states)`` takes one state row per knot.
    """

    def __init__(self, knots: PiecewiseLinear):
        if knots.values.ndim != 2 or knots.values.shape[1] == 0:
            raise ValueError("history states must be nonempty vectors, one per knot")
        if knots.times[-1] > 0.0:
            raise ValueError(f"history knots must be at t <= 0, got t={knots.times[-1]:.6g}")
        self.knots = knots
        self.dim = knots.values.shape[1]

    @classmethod
    def constant(cls, x) -> "HistoryFunction":
        return cls(PiecewiseLinear.constant(np.asarray(x, dtype=float).ravel()))

    @classmethod
    def table(cls, times, states) -> "HistoryFunction":
        return cls(PiecewiseLinear(times, states))

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many([t])[0]

    __call__ = eval

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """States at an array of times (all <= 0), one row each."""
        ts = np.asarray(ts, dtype=float).ravel()
        if np.any(ts > 0.0):
            raise ValueError(f"history is only defined for t <= 0, got t={np.max(ts)}")
        return self.knots.eval_many(ts)

    def auxiliary(self, cols: np.ndarray, rates: np.ndarray):
        """The extended history: the function of times ts <= 0 whose row
        holds the state, as ``eval_many`` gives it, then per state column
        ``cols[c]`` its filter z(u) = integral over s >= 0 of r e^{-rs}
        x(u - s) ds for r = ``rates[c]`` > 0, or its running integral G(u) =
        -integral from u to 0 of x for r = 0, exactly: on a piece from v of
        slope beta, z(u) = x(u) - beta/r + (z(v) - x(v) + beta/r) e^{-r(u - v)}
        and G(u) = G(v) + (u - v)(x(v) + x(u))/2; a constant x0 gives z = x0
        and G(u) = u x0.  With no columns it is ``eval_many`` itself."""
        if not cols.size:
            return self.eval_many
        times, X = self.knots.times, self.knots.values[:, cols]
        r = np.where(rates > 0.0, rates, 1.0)
        # piece k starts at knot k - 1; pieces 0 (up to the first knot) and
        # K + 1 (from the last knot to 0) are flat
        starts, x0 = np.append(times[:1], times), np.vstack([X[:1], X])
        flat = np.zeros((1, X.shape[1]))
        beta = np.vstack([flat, np.diff(X, axis=0) / np.diff(times)[:, None], flat])
        z, G = [X[0], X[0]], [flat[0], flat[0]]
        for k in range(1, times.size):
            dt = times[k] - times[k - 1]
            z.append(X[k] - beta[k] / r + (z[-1] - X[k - 1] + beta[k] / r) * np.exp(-r * dt))
            G.append(G[-1] + dt * (X[k - 1] + X[k]) / 2.0)
        z, G = np.array(z), np.array(G) - (G[-1] - times[-1] * X[-1])
        # on piece k a column is p0 + p1 du + p2 du^2 + p3 e^{-r du}, du = u - starts[k]
        p = np.where(rates > 0.0, [x0 - beta / r, beta, 0.0 * beta, z - x0 + beta / r],
                     [G, x0, beta / 2.0, 0.0 * beta])
        neg_r = -r

        def rows(ts) -> np.ndarray:
            ts = np.ravel(ts)
            k = times.searchsorted(ts)
            du = (ts - starts[k])[:, None]
            p0, p1, p2, p3 = p[:, k]
            aux = p0 + du * (p1 + du * p2) + p3 * np.exp(neg_r * np.maximum(du, 0.0))
            return np.hstack([self.eval_many(ts), aux])

        return rows


class Trajectory:
    """Computed solution samples on [0, T] in front of an initial history.

    Sample times are strictly increasing starting at 0; the first sample is
    pinned to ``initial(0)`` so evaluation is continuous across t = 0.
    Evaluation interpolates linearly between samples, is exact at stored
    sample times, and refuses times past the last sample.  Storage is dense
    and append-only: distributed kernels may look arbitrarily far back.
    """

    def __init__(self, initial: HistoryFunction, node_count: int, node_dim: int):
        dim = node_count * node_dim
        if initial.dim != dim:
            raise ValueError(
                f"history dimension {initial.dim} != node_count*node_dim = {dim}")
        self.initial = initial
        self.node_count = node_count
        self.node_dim = node_dim
        self._times = np.empty(1024)
        self._states = self._record = np.empty((1024, dim))
        self._n = 1
        self._times[0] = 0.0
        self._states[0] = initial.eval(0.0)

    @property
    def dim(self) -> int:
        return self.node_count * self.node_dim

    @property
    def times(self) -> np.ndarray:
        return self._times[: self._n]

    @property
    def states(self) -> np.ndarray:
        return self._states[: self._n]

    @property
    def last_time(self) -> float:
        return float(self._times[self._n - 1])

    def __len__(self) -> int:
        return self._n

    def append(self, t: float, x: np.ndarray) -> None:
        """Record a sample; t must advance and x must be finite."""
        t = float(t)
        if t <= self.last_time:
            raise ValueError(
                f"sample times must be strictly increasing: {t} after {self.last_time}")
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.dim,):
            raise ValueError(f"state must have shape ({self.dim},), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"non-finite state at t={t}")
        if self._n == self._times.size:
            self._reserve(2 * self._n, self._record.shape[1] - self.dim)
        self._times[self._n] = t
        self._states[self._n] = x
        self._n += 1

    def _reserve(self, size: int, hidden: int = 0) -> None:
        """Hold room for exactly ``size`` samples (at least those recorded),
        so a writer that knows its sample count never grows the record; the
        rows of ``_record`` get ``hidden`` columns after the state, at least
        as many as they have, which ``integrate`` writes and ``states``
        leaves out; recorded rows keep theirs, and new ones are unset."""
        size = max(size, self._n)
        times, record = np.empty(size), np.empty((size, self.dim + hidden))
        times[: self._n] = self.times
        record[: self._n, : self._record.shape[1]] = self._record[: self._n]
        self._times, self._record, self._states = times, record, record[:, : self.dim]

    def eval(self, t: float) -> np.ndarray:
        """State at time t <= last sample; exact at samples, initial for t <= 0."""
        return self.eval_many([t])[0]

    __call__ = eval

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """States at an array of times (all <= last sample), one row each."""
        ts = np.asarray(ts, dtype=float).ravel()
        out = np.empty((ts.size, self.dim))
        past = ts <= 0.0
        if past.any():
            out[past] = self.initial.eval_many(ts[past])
        fwd = ~past
        if fwd.any():
            tf = ts[fwd]
            last = self.last_time
            if np.any(tf > last):
                raise ValueError(
                    f"cannot extrapolate: t={np.max(tf)} is past the last sample {last}")
            times = self.times
            idx = np.searchsorted(times, tf)
            exact = times[np.minimum(idx, self._n - 1)] == tf
            lo = idx - 1
            t0 = times[lo]
            t1 = times[idx]
            w = ((tf - t0) / (t1 - t0))[:, None]
            vals = (1.0 - w) * self._states[lo] + w * self._states[idx]
            if exact.any():
                vals[exact] = self._states[idx[exact]]
            out[fwd] = vals
        return out


def sup_history_deviation(traj_or_history, x0: np.ndarray, P: np.ndarray) -> float:
    """Sup over (-inf, 0] of half the squared P-weighted distance to ``x0``.

    Exact: the history is linear between its knots and constant outside
    them, and the squared distance is convex along each piece, so the sup
    is the maximum over the knots.  ``P`` must be symmetric positive
    definite and applies blockwise when the history dimension is a multiple
    of its size.
    """
    history = traj_or_history.initial if isinstance(traj_or_history, Trajectory) else traj_or_history
    P, _, _ = spd_weight(P)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != history.dim or x0.size % P.shape[0] != 0:
        raise ValueError("x0 must match the history dimension and be a multiple of P's size")
    return float(np.max(0.5 * _block_quad(history.knots.values - x0, P)))


def _block_quad(diffs: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Sum of per-node quadratic forms, one value per row of ``diffs``."""
    blocks = diffs.reshape(diffs.shape[0], -1, P.shape[0])
    return np.einsum("tij,jk,tik->t", blocks, P, blocks)


def spd_weight(P) -> tuple[np.ndarray, float, float]:
    """Validate a weight matrix; return (sym P, lambda_min, |P|_2).

    P must be finite, square, symmetric to 1e-12 and positive definite.
    """
    P = np.asarray(P, dtype=float)
    if not np.isfinite(P).all():
        raise ValueError("P must be finite")
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be a square matrix")
    if not np.allclose(P, P.T, atol=1e-12, rtol=0.0):
        raise ValueError("P must be symmetric to 1e-12")
    P = 0.5 * (P + P.T)
    eigs = np.linalg.eigvalsh(P)
    lam_min = float(np.min(eigs))
    if lam_min <= 0.0:
        raise ValueError("P must be positive definite")
    return P, lam_min, float(np.max(np.abs(eigs)))


def write_trajectory_csv(traj: Trajectory, path, stride: int = 1) -> None:
    """Write ``t, x1_1..x1_n, ..., xm_1..xm_n`` rows at full precision."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    m, n = traj.node_count, traj.node_dim
    header = ["t"] + [f"x{i + 1}_{k + 1}" for i in range(m) for k in range(n)]
    _write_csv(path, ",".join(header), np.column_stack([traj.times, traj.states])[::stride])


def _write_csv(path, header: str, rows: np.ndarray) -> None:
    """A header line, then one line per row with every number at full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())) + "\n")

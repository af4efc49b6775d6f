"""Initial functions on (-inf, 0] and the growing solution record.

The infinite past is represented as an optional analytic segment on
``[segment_start, 0]`` glued to a constant tail, which realizes the required
limit at -inf exactly and keeps the sup of the deviation computable.  A
Trajectory anchors its first sample to the initial function at t = 0 and can
be evaluated at any time up to its last sample; extrapolation is refused.

A trajectory is mutated by exactly one integration run; concurrent readers
between appends are fine.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "HistoryFunction",
    "Trajectory",
    "spd_weight",
    "sup_history_deviation",
    "write_trajectory_csv",
]

_SEGMENT_SUP_SAMPLES = 4097


class HistoryFunction:
    """State history for t <= 0: constant tail, optionally an analytic segment.

    ``constant(x)`` is the history identically equal to ``x``.  ``segment``
    attaches a callable on ``[start, 0]``; before ``start`` the history is the
    constant ``tail``.  The segment is batch-shaped: it maps a 1-D array of k
    times to a (k, dim) array of states.  It should meet the tail at
    ``start`` if a continuous history is wanted; this is not enforced.
    """

    def __init__(self, tail: np.ndarray,
                 segment: Callable[[np.ndarray], np.ndarray] | None = None,
                 segment_start: float = 0.0):
        tail = np.asarray(tail, dtype=float).ravel()
        if tail.size == 0 or not np.all(np.isfinite(tail)):
            raise ValueError("history tail must be a nonempty finite vector")
        if segment is not None and not segment_start < 0:
            raise ValueError("segment_start must be negative")
        self.tail = tail
        self.segment = segment
        self.segment_start = float(segment_start) if segment is not None else 0.0
        self.dim = tail.size

    @classmethod
    def constant(cls, x) -> "HistoryFunction":
        return cls(tail=np.asarray(x, dtype=float))

    @classmethod
    def with_segment(cls, fn: Callable[[np.ndarray], np.ndarray], start: float,
                     tail=None) -> "HistoryFunction":
        """Analytic segment on [start, 0]; tail defaults to the segment at start."""
        if tail is None:
            tail = np.asarray(fn(np.array([float(start)])), dtype=float)[0]
        return cls(tail=np.asarray(tail, dtype=float), segment=fn, segment_start=start)

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many([t])[0]

    __call__ = eval

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """States at an array of times (all <= 0), one row each."""
        ts = np.asarray(ts, dtype=float).ravel()
        if np.any(ts > 0.0):
            raise ValueError(f"history is only defined for t <= 0, got t={np.max(ts)}")
        out = np.empty((ts.size, self.dim))
        out[:] = self.tail
        if self.segment is not None:
            on_seg = ts >= self.segment_start
            if on_seg.any():
                expected = (int(np.count_nonzero(on_seg)), self.dim)
                vals = np.asarray(self.segment(ts[on_seg]), dtype=float)
                if vals.shape != expected:
                    raise ValueError(
                        f"history segment returned shape {vals.shape}, expected {expected}")
                out[on_seg] = vals
        return out


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
        self._states = np.empty((1024, dim))
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
            self._times = np.concatenate([self._times, np.empty(self._times.size)])
            self._states = np.vstack([self._states, np.empty_like(self._states)])
        self._times[self._n] = t
        self._states[self._n] = x
        self._n += 1

    def eval(self, t: float) -> np.ndarray:
        """State at time t <= last sample; exact at samples, initial for t <= 0."""
        return self.eval_many([t])[0]

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

    Exact on the constant tail; the compact segment is covered by dense
    sampling (endpoints included).  ``P`` must be symmetric positive definite
    and applies blockwise when the history dimension is a multiple of its
    size.
    """
    history = traj_or_history.initial if isinstance(traj_or_history, Trajectory) else traj_or_history
    P, _, _ = spd_weight(P)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != history.dim or x0.size % P.shape[0] != 0:
        raise ValueError("x0 must match the history dimension and be a multiple of P's size")

    def energy(values: np.ndarray) -> np.ndarray:
        diff = (values - x0).reshape(values.shape[0], -1, P.shape[0])
        return 0.5 * np.einsum("ijk,kl,ijl->i", diff, P, diff)

    sup = float(energy(history.tail[None, :])[0])
    if history.segment is not None:
        ts = np.linspace(history.segment_start, 0.0, _SEGMENT_SUP_SAMPLES)
        sup = max(sup, float(np.max(energy(history.eval_many(ts)))))
    return sup


def spd_weight(P) -> tuple[np.ndarray, float, float]:
    """Validate a weight matrix; return (sym P, lambda_min, |P|_2).

    P must be square, symmetric to 1e-12 and positive definite.
    """
    P = np.asarray(P, dtype=float)
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
    rows = range(0, len(traj), stride)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        times, states = traj.times, traj.states
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in (times[r], *states[r])) + "\n")

"""Trajectory diagnostics: weighted norms, growth envelope, synchronization.

The envelope quantities follow the growth bound proved for the model: with a
positive definite block weight P,

    V(t) = half the squared P-distance of x(t) from x(0),
    M(t) = max(1/2, sup of V over all times up to t, history included),

and the claim M(t) <= M(0) e^{eta t}.  Realistic eta values reach the
hundreds, where e^{eta t} overflows doubles; every comparison here is done
on logarithms, and the exported bound columns may legitimately hold inf.

M is evaluated on the sample grid, which loses nothing: trajectories
interpolate linearly between samples, and the P-distance along a segment is
convex, so its supremum over the segment sits at a sample point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .history import Trajectory, _block_quad, _write_csv, spd_weight, sup_history_deviation

__all__ = [
    "EnvelopeReport",
    "SyncReport",
    "p_norm",
    "check_envelope",
    "sync_report",
    "write_envelope_csv",
    "write_sync_csv",
]


def p_norm(x, P) -> float:
    """Block norm sqrt(sum_i x_i' P x_i) over the stacked node states."""
    P, _, _ = spd_weight(P)
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0 or x.size % P.shape[0] != 0:
        raise ValueError("state length must be a positive multiple of the size of P")
    return float(np.sqrt(_block_quad(x[None, :], P)[0]))


@dataclass
class EnvelopeReport:
    """Per-sample envelope data plus the state-norm bound chain.

    ``envelope_bound`` and ``state_bound`` are exp of the log columns and may
    overflow to inf; all verdicts are computed from the log columns.  The
    state bound uses e^{eta t} per sample; ``log_state_bound_horizon`` is the
    weaker constant variant with t frozen at the horizon.
    """

    times: np.ndarray
    V: np.ndarray
    M: np.ndarray
    log_envelope_bound: np.ndarray
    envelope_bound: np.ndarray
    state_norm: np.ndarray
    log_state_bound: np.ndarray
    state_bound: np.ndarray
    log_state_bound_horizon: float
    eta: float
    M0: float
    rel_tol: float
    max_rel_violation: float
    state_bound_ok: bool
    max_state_rel_violation: float

    @property
    def verdict(self) -> bool:
        return self.max_rel_violation <= self.rel_tol

    def summary(self) -> dict:
        return {"eta": self.eta, "M0": self.M0,
                "max_violation": self.max_rel_violation,
                "verdict": bool(self.verdict)}


def check_envelope(traj: Trajectory, eta: float, P, rel_tol: float = 1e-6) -> EnvelopeReport:
    """Verify M(t) <= M(0) e^{eta t} (1 + rel_tol) at every sample.

    eta = 0 is accepted so a vacuous exponent can be fed on purpose; the
    report then fails for any growing trajectory.
    """
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    P, lam_min, _ = spd_weight(P)
    times = traj.times.copy()
    x0 = traj.states[0]
    V = 0.5 * _block_quad(traj.states - x0, P)
    hist_sup = sup_history_deviation(traj.initial, x0, P)
    M = np.maximum(np.maximum.accumulate(V), max(0.5, hist_sup))
    M0 = float(M[0])

    log_env = math.log(M0) + eta * times
    with np.errstate(over="ignore"):
        env = np.exp(log_env)
    rel_violation = np.expm1(np.log(M) - log_env)
    max_rel = float(np.max(rel_violation))

    norm_x0_P = p_norm(x0, P)
    # log of (|x(0)|_P + sqrt(2 M0 e^{eta t})) - log sqrt(lam_min)
    half_logs = 0.5 * (math.log(2.0 * M0) + eta * times)
    if norm_x0_P > 0.0:
        log_bound = np.logaddexp(math.log(norm_x0_P), half_logs) - 0.5 * math.log(lam_min)
    else:
        log_bound = half_logs - 0.5 * math.log(lam_min)
    with np.errstate(over="ignore"):
        bound = np.exp(log_bound)
    state_norm = np.linalg.norm(traj.states, axis=1)
    with np.errstate(divide="ignore"):
        log_state = np.log(state_norm)
    state_rel = np.expm1(log_state - log_bound)
    max_state_rel = float(np.max(state_rel))
    log_bound_horizon = float(log_bound[-1])

    return EnvelopeReport(
        times=times, V=V, M=M,
        log_envelope_bound=log_env, envelope_bound=env,
        state_norm=state_norm, log_state_bound=log_bound, state_bound=bound,
        log_state_bound_horizon=log_bound_horizon,
        eta=float(eta), M0=M0, rel_tol=float(rel_tol),
        max_rel_violation=max_rel,
        state_bound_ok=bool(max_state_rel <= rel_tol),
        max_state_rel_violation=max_state_rel)


@dataclass
class SyncReport:
    """Largest pairwise node distance per sample and a final-window verdict."""

    times: np.ndarray
    distance: np.ndarray
    threshold: float
    window: float
    final_window_mean: float

    @property
    def synchronized(self) -> bool:
        return self.final_window_mean < self.threshold

    def summary(self) -> dict:
        return {"threshold": self.threshold, "window": self.window,
                "final_window_mean": self.final_window_mean,
                "synchronized": bool(self.synchronized)}


def sync_report(traj: Trajectory, threshold: float, window: float) -> SyncReport:
    """Max pairwise Euclidean node distance; synchronized when its mean over
    the final window stays under the threshold."""
    if traj.node_count < 2:
        raise ValueError("synchronization needs at least two nodes")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if not 0 < window <= traj.last_time:
        raise ValueError("window must lie within the trajectory span")
    times = traj.times.copy()
    X = np.ascontiguousarray(traj.states.reshape(len(traj), traj.node_count, traj.node_dim).T)
    squared = np.zeros(len(traj))
    for i in range(traj.node_count - 1):  # node i against each j > i: (n, m - 1 - i, T)
        gaps = np.square(X[:, i:i + 1] - X[:, i + 1:])
        np.maximum(squared, gaps.sum(axis=0).max(axis=0), out=squared)
    dist = np.sqrt(squared)  # sqrt is monotone: the root of the largest square
    mask = times >= times[-1] - window
    mean = float(np.mean(dist[mask]))
    return SyncReport(times=times, distance=dist, threshold=float(threshold),
                      window=float(window), final_window_mean=mean)


def write_envelope_csv(report: EnvelopeReport, path) -> None:
    header = "t,V,M,envelope_bound,state_norm,state_bound"
    cols = np.column_stack([report.times, report.V, report.M, report.envelope_bound,
                            report.state_norm, report.state_bound])
    _write_csv(path, header, cols)


def write_sync_csv(report: SyncReport, path) -> None:
    _write_csv(path, "t,max_pairwise_distance",
               np.column_stack([report.times, report.distance]))


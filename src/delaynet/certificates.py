"""Random falsifiers of the paper's hypotheses, and the growth-exponent constants.

Each falsifier returns a ``ProbeResult``: a verdict, the probe count and,
on a failure, a concrete witness, its lowest-indexed failing probe.  A pass
only means no violation was found.  A probe passes only if lhs <= rhs
(``_first_violation``), so equality passes and a NaN side fails.

- ``check_quad`` probes a certificate (P, Delta, epsilon) for the node
  field f, for all t and all pairs:

      (u1-u2)' P { [f(t,u1) - f(t,u2)] - Delta (u1-u2) } <= -epsilon |u1-u2|^2

- ``check_assumptions`` probes the node field's Lipschitz hint and its
  continuity, and the output's declared Lipschitz bound kappa.  The
  coupling flags and the delay signs need no probe: they are decided
  exactly over the knots at construction.

From a certificate and a model the proof constants (delta, alpha, beta,
gamma, K, lambda_min, |P|) and the growth exponent eta are derived; the
trajectory envelope V, M and the eta-exponential bound live in the
diagnostics module.

A certificate computes its delta once, as lambda_max(sym(P Delta)) -
epsilon clamped below at 1e-12: the certificate inequality gives
(u1-u2)' P [f(t,u1)-f(t,u2)] <= (u1-u2)' sym(P Delta) (u1-u2) - epsilon
|u1-u2|^2, and the growth argument only needs some positive upper bound,
the smaller the tighter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NetworkModel, NodeDynamics, NonFiniteDerivative
from .history import spd_weight
from .kernels import DelayKernel

__all__ = [
    "QuadCertificate",
    "ProbeResult",
    "ProofConstants",
    "check_quad",
    "check_assumptions",
    "probe_domain",
    "estimate_envelope_constants",
    "compute_eta",
    "lipschitz_certificate",
    "format_certificate_report",
]

_DELTA_FLOOR = 1e-12
_PROBE_CHUNK = 1024
# even sample times of [0, horizon] at which gamma is taken
_GAMMA_SAMPLES = 201


class QuadCertificate:
    """Certificate data (P, Delta, epsilon) and its ``delta``; P must be
    finite and symmetric positive definite to 1e-12, Delta finite and
    diagonal (or the vector of its diagonal), epsilon finite and positive."""

    def __init__(self, P, Delta, epsilon: float):
        self.P, self.lambda_min, self.norm_P = spd_weight(P)
        D = np.asarray(Delta, dtype=float)
        if D.ndim == 1:
            D = np.diag(D)
        if D.shape != self.P.shape:
            raise ValueError("Delta must match the shape of P")
        if not np.isfinite(D).all():
            raise ValueError("Delta must be finite")
        if np.any(D != np.diag(np.diag(D))):
            raise ValueError("Delta must be diagonal")
        epsilon = float(epsilon)
        if not math.isfinite(epsilon):
            raise ValueError("epsilon must be finite")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.Delta = D
        self.epsilon = epsilon
        S = self.P @ D
        lam = float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))
        self.delta = max(lam - epsilon, _DELTA_FLOOR)

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass
class ProbeResult:
    """The verdict of one falsifier after ``probes`` probes; a failure
    carries its witness and, from ``check_assumptions``, a one-line
    ``detail``."""

    passed: bool
    probes: int
    witness: dict | None = None
    detail: str = ""


def probe_domain(box, t_range, n: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(lo, hi, t0, t1) of a probe box and time range, validated.

    ``box`` is a positive radius r (the cube [-r, r]^n) or a pair (lo, hi)
    of n-vectors.  Raises ``ValueError`` naming ``box`` or ``t_range`` for a
    bound of another length, hi <= lo, a non-finite extent, or t0 > t1.
    """
    if np.isscalar(box):
        r = float(box)
        if not r > 0:
            raise ValueError("box: radius must be positive")
        lo, hi = -r * np.ones(n), r * np.ones(n)
    else:
        lo, hi = (np.asarray(bound, dtype=float) for bound in box)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError(f"box: bound vectors must have {n} entries")
    with np.errstate(over="ignore", invalid="ignore"):
        extent = hi - lo
    for i, e in enumerate(extent):
        if not math.isfinite(e):
            raise ValueError(f"box: coordinate {i} has a non-finite extent "
                             f"[{lo[i]:.6g}, {hi[i]:.6g}]")
        if not e > 0:
            raise ValueError(f"box: coordinate {i} has hi <= lo")
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not math.isfinite(t1 - t0):
        raise ValueError(f"t_range: [{t0:.6g}, {t1:.6g}] has a non-finite extent")
    if t0 > t1:
        raise ValueError(f"t_range: start {t0:.6g} is after end {t1:.6g}")
    return lo, hi, t0, t1


def check_quad(f: NodeDynamics, cert: QuadCertificate, box, t_range=(0.0, 10.0),
               budget: int = 2000, seed: int = 0) -> ProbeResult:
    """Probe the certificate inequality at random (t, u1, u2) triples.

    Each probe is t = uniform(t0, t1), u1 = uniform(lo, hi), u2 =
    uniform(lo, hi), drawn in that order from ``default_rng(seed)``.
    Probes are tested in chunks of ``_PROBE_CHUNK``: one draw of (k, 1 + 2n)
    uniforms per chunk of k probes gives exactly the doubles of the
    probe-by-probe draws, and f is called once on the (2k, n) block of all
    u1 and u2 rows with t as a (2k, 1) column, each row at its own time.
    The verdict, probe count and witness therefore do not depend on the
    chunk size, and a larger budget only appends probes.

    Returns the lowest-indexed violation with both sides evaluated, or a
    pass with the probe count.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if cert.n != f.dim:
        raise ValueError("certificate dimension does not match the node dimension")
    n = f.dim
    lo, hi, t0, t1 = probe_domain(box, t_range, n)
    low, span = np.tile(lo, 2), np.tile(hi - lo, 2)
    rng = np.random.default_rng(seed)
    P, Delta, eps = cert.P, np.diag(cert.Delta), cert.epsilon
    for start in range(0, budget, _PROBE_CHUNK):
        k = min(_PROBE_CHUNK, budget - start)
        r = rng.random((k, 1 + 2 * n))
        t = t0 + (t1 - t0) * r[:, :1]
        u = low + span * r[:, 1:]
        fu = f.eval(np.repeat(t, 2, axis=0), u.reshape(2 * k, n)).reshape(k, 2 * n)
        d = u[:, :n] - u[:, n:]
        with np.errstate(invalid="ignore", over="ignore"):
            w = (fu[:, :n] - fu[:, n:] - Delta * d) @ P.T
            lhs = np.einsum("ij,ij->i", d, w)
            rhs = -eps * np.einsum("ij,ij->i", d, d)
        i = _first_violation(lhs, rhs)
        if i is not None:
            return ProbeResult(False, start + i + 1, witness={
                "index": start + i, "t": float(t[i, 0]), "u1": u[i, :n].tolist(),
                "u2": u[i, n:].tolist(), "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    return ProbeResult(True, budget)


def check_assumptions(model: NetworkModel, horizon: float, sample_budget: int = 2000,
                      seed: int = 0) -> dict[str, ProbeResult]:
    """Try to falsify the node and output assumptions by random probing.

    Returns one ``ProbeResult`` per check, keyed "node-dynamics-regularity"
    and "output-lipschitz-bound".  A pass is evidence, not proof: continuity
    and Lipschitz bounds cannot be established from finitely many samples.
    f or g is called once per probe block on its stacked rows, with t a
    column of per-row times.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    per = max(50, sample_budget // 4)
    node = _check_node_regularity(model.node, horizon, per, rng)
    g = model.output
    output = _lipschitz_probe(g.eval_rows, g.kappa, ("g", "kappa"),
                              *_sample_points(rng, horizon, g.dim, per), rng)
    return {"node-dynamics-regularity": node, "output-lipschitz-bound": output}


def _first_violation(lhs, rhs) -> int | None:
    """The first probe where lhs <= rhs fails, or None: the pass rule of every
    falsifier.  Any comparison with NaN is False, so a NaN side fails."""
    bad = np.flatnonzero(~(lhs <= rhs))
    return int(bad[0]) if bad.size else None


def _sample_points(rng, horizon, n, count):
    # states mix moderate and large magnitudes so superlinear growth is caught
    ts = rng.uniform(0.0, horizon, size=count)
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=count)
    return ts, rng.uniform(-1.0, 1.0, size=(count, n)) * scales[:, None]


def _distances(a, b) -> np.ndarray:
    # |a - b| per row by stacked (1, n) @ (n, 1) products, bit for bit the
    # norm of each row alone (a sum along axis 1 is not); inf - inf is NaN
    with np.errstate(invalid="ignore", over="ignore"):
        d = a - b
        return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _lipschitz_probe(evaluate, bound, symbols, ts, u1, rng) -> ProbeResult:
    """Test |h(t,u1) - h(t,u2)| <= bound |u1 - u2| with u2 = u1 plus a random
    step, evaluating h once on the stacked u1 and u2 rows."""
    k = ts.size
    u2 = u1 + rng.standard_normal(u1.shape) * rng.uniform(1e-3, 2.0, size=(k, 1))
    h = evaluate(np.tile(ts[:, None], (2, 1)), np.concatenate([u1, u2]))
    gap = _distances(h[:k], h[k:])
    allowed = bound * _distances(u1, u2) * (1.0 + 1e-9) + 1e-12
    i = _first_violation(gap, allowed)
    if i is None:
        return ProbeResult(True, k)
    t, (fn, const) = float(ts[i]), symbols
    return ProbeResult(False, k, witness={
        "t": t, "u1": u1[i].tolist(), "u2": u2[i].tolist(), "gap": float(gap[i]),
        "allowed": float(allowed[i])},
        detail=f"|{fn}(t,u1)-{fn}(t,u2)| = {gap[i]:.6g} exceeds {const}|u1-u2| = "
               f"{allowed[i]:.6g} at t={t:.6g}")


def _check_node_regularity(node: NodeDynamics, horizon, budget, rng) -> ProbeResult:
    ts, u1 = _sample_points(rng, horizon, node.dim, budget)
    if node.lipschitz_hint is not None:
        check = _lipschitz_probe(node.eval, node.lipschitz_hint, ("f", "L"), ts, u1, rng)
        if not check.passed:
            return check
    # continuity probe: the increment must die out with the step, so it must
    # be at most 1e-3 over a step of 1e-6 or halve by a step of 1e-9
    q = budget // 4
    u, v = u1[:q], rng.standard_normal((q, node.dim))
    v /= _distances(v, 0.0)[:, None]
    f0, f6, f9 = node.eval(np.tile(ts[:q, None], (3, 1)),
                           np.concatenate([u, u + 1e-6 * v, u + 1e-9 * v])).reshape(3, q, -1)
    g6, g9 = _distances(f6, f0), _distances(f9, f0)
    i = _first_violation(g9, np.where(g6 <= 1e-3, np.inf, 0.5 * g6))
    if i is None:
        return ProbeResult(True, budget)
    return ProbeResult(False, budget, witness={
        "t": float(ts[i]), "u": u[i].tolist(), "direction": v[i].tolist(),
        "gaps": [float(g6[i]), float(g9[i])]},
        detail=f"f(t, .) looks discontinuous near u={u[i].tolist()} at t={ts[i]:.6g}")


def estimate_envelope_constants(model: NetworkModel, x0,
                                horizon: float) -> tuple[float, float, float]:
    """The three growth-bound ingredients on [0, horizon].

    alpha is the output's uniform Lipschitz bound kappa and beta the largest
    |a_ij| over the knots of A; both are exact for all t, since a table is
    affine between knots and constant outside them.  gamma bounds, per node,
    the norm of the derivative expression frozen at the initial state, using
    the signed kernel masses.  f and g are callables of t, so gamma is a
    maximum over 201 even points of [0, horizon] together with the knots of
    A inside it: a sample, exact only when f and g do not depend on t.

    All T sample times are evaluated at once: f and g are each called once
    on the (T*m, n) block of the initial state repeated T times, with t the
    (T*m, 1) column that holds each block's time, and a table of A is read
    at every time in one lookup.  A non-finite expression raises
    ``NonFiniteDerivative`` naming the earliest such time and its first
    node, since no finite gamma bounds it.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    x0 = np.asarray(x0, dtype=float).ravel()
    m, n = model.m, model.node.dim
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    masses = model.per_kernel(DelayKernel.signed_mass)
    knots = model.coupling.knots
    alpha = float(model.output.kappa)
    beta = float(np.max(np.abs(knots.values)))
    ts = np.concatenate([np.linspace(0.0, horizon, _GAMMA_SAMPLES),
                         knots.times[(knots.times >= 0.0) & (knots.times <= horizon)]])
    t = np.repeat(ts, m)[:, None]
    X = np.tile(x0.reshape(m, n), (ts.size, 1))
    # a constant A broadcasts over the times instead of being stacked T times;
    # a table's fresh (T, m, m) stack is scaled in place
    if knots.times.size == 1:
        A = knots.values[0] * masses
    else:
        A = knots.eval_many(ts)
        A *= masses
    expr = A @ model.output.eval_rows(t, X).reshape(ts.size, m, n)
    expr += model.node.eval(t, X).reshape(ts.size, m, n)
    bad = ~np.isfinite(expr).all(axis=-1)
    if bad.any():
        i = int(np.argmin(np.where(bad.any(axis=1), ts, np.inf)))
        raise NonFiniteDerivative(float(ts[i]), int(np.argmax(bad[i])))
    gamma = float(np.max(np.linalg.norm(expr, axis=-1)))
    return alpha, beta, gamma


def compute_eta(delta: float, alpha: float, beta: float, gamma: float,
                m: int, P, K: float) -> float:
    """Growth exponent (2 delta + 2 alpha beta |P| K) / lambda_min
    + 2 m gamma |P| / sqrt(lambda_min)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if K < 0:
        raise ValueError("K must be nonnegative")
    _, lam_min, norm_P = spd_weight(P)
    eta = (2.0 * delta + 2.0 * alpha * beta * norm_P * K) / lam_min \
        + 2.0 * m * gamma * norm_P / math.sqrt(lam_min)
    if not eta > 0:
        raise ValueError(f"eta = {eta} is not positive; delta must be clamped positive")
    return eta


@dataclass(frozen=True)
class ProofConstants:
    """All ingredients of the growth bound for one model + certificate."""

    delta: float
    alpha: float
    beta: float
    gamma: float
    K: float
    lambda_min: float
    norm_P: float
    eta: float

    @classmethod
    def derive(cls, cert: QuadCertificate, model: NetworkModel, x0,
               horizon: float) -> "ProofConstants":
        alpha, beta, gamma = estimate_envelope_constants(model, x0, horizon)
        # a float sum pair by pair in row-major order, not numpy's pairwise sum
        K = sum(model.per_kernel(DelayKernel.total_variation).ravel().tolist())
        eta = compute_eta(cert.delta, alpha, beta, gamma, model.m, cert.P, K)
        return cls(delta=cert.delta, alpha=alpha, beta=beta, gamma=gamma, K=K,
                   lambda_min=cert.lambda_min, norm_P=cert.norm_P, eta=eta)


def lipschitz_certificate(L: float, dim: int, epsilon: float = 0.1) -> QuadCertificate:
    """Certificate that passes for any f with global Lipschitz constant L.

    With P = I and Delta = (L + epsilon) I the inequality reduces to
    (u1-u2)'(f(u1)-f(u2)) - (L+epsilon)|u1-u2|^2 <= -epsilon |u1-u2|^2 by
    Cauchy-Schwarz.
    """
    if not L >= 0:
        raise ValueError("L must be nonnegative")
    return QuadCertificate(np.eye(dim), (L + epsilon) * np.ones(dim), epsilon)


def format_certificate_report(result: ProbeResult, cert: QuadCertificate,
                              constants: ProofConstants | NonFiniteDerivative | None = None
                              ) -> str:
    """Structured text block: verdict, probes, witness, delta, constants, eta.

    ``constants`` may be the ``NonFiniteDerivative`` that left them
    undefined; it is reported on one ``constants:`` line.
    """
    lines = ["certificate check"]
    lines.append(f"  verdict: {'PASS' if result.passed else 'FAIL'}")
    lines.append(f"  probes: {result.probes}")
    lines.append(f"  epsilon: {cert.epsilon:.6g}")
    lines.append(f"  delta: {cert.delta:.6g}")
    if result.witness is not None:
        w = result.witness
        lines.append(f"  witness: t={w['t']:.9g}")
        lines.append(f"    u1={w['u1']}")
        lines.append(f"    u2={w['u2']}")
        lines.append(f"    lhs={w['lhs']:.9g} rhs={w['rhs']:.9g}")
    if isinstance(constants, NonFiniteDerivative):
        lines.append(f"  constants: {constants}")
    elif constants is not None:
        lines.append(f"  alpha: {constants.alpha:.6g}")
        lines.append(f"  beta: {constants.beta:.6g}")
        lines.append(f"  gamma: {constants.gamma:.6g}")
        lines.append(f"  K: {constants.K:.6g}")
        lines.append(f"  lambda_min: {constants.lambda_min:.6g}")
        lines.append(f"  norm_P: {constants.norm_P:.6g}")
        lines.append(f"  eta: {constants.eta:.6g}")
    return "\n".join(lines)

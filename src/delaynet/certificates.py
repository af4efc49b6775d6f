"""Quadratic one-sided certificates and the growth-exponent constants.

A certificate (P, Delta, epsilon) asserts, for the node field f,

    (u1-u2)' P { [f(t,u1) - f(t,u2)] - Delta (u1-u2) } <= -epsilon |u1-u2|^2

for all t and all pairs.  The checker is a randomized falsifier: it can
exhibit a concrete counterexample but a pass only means no violation was
found.  From a certificate and a model the proof constants (delta, alpha,
beta, gamma, K, lambda_min, |P|) and the growth exponent eta are derived;
the trajectory envelope V, M and the eta-exponential bound live in the
diagnostics module.

delta is taken as lambda_max(sym(P Delta)) - epsilon, clamped below at
1e-12: the certificate inequality gives (u1-u2)' P [f(t,u1)-f(t,u2)] <=
(u1-u2)' sym(P Delta) (u1-u2) - epsilon |u1-u2|^2, and the growth argument
only needs some positive upper bound, the smaller the tighter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NetworkModel, NodeDynamics
from .history import spd_weight

__all__ = [
    "QuadCertificate",
    "QuadCheckResult",
    "ProofConstants",
    "check_quad",
    "delta_from_cert",
    "estimate_envelope_constants",
    "compute_eta",
    "lipschitz_certificate",
    "format_certificate_report",
]

_DELTA_FLOOR = 1e-12


class QuadCertificate:
    """Certificate data (P, Delta, epsilon); P must be symmetric positive
    definite to 1e-12 and Delta diagonal.  ``Delta`` may be given as the
    vector of diagonal entries."""

    def __init__(self, P, Delta, epsilon: float):
        self.P, self.lambda_min, self.norm_P = spd_weight(P)
        D = np.asarray(Delta, dtype=float)
        if D.ndim == 1:
            D = np.diag(D)
        if D.shape != self.P.shape:
            raise ValueError("Delta must match the shape of P")
        if np.any(D != np.diag(np.diag(D))):
            raise ValueError("Delta must be diagonal")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.Delta = D
        self.epsilon = float(epsilon)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @classmethod
    def from_spec(cls, spec: dict) -> "QuadCertificate":
        """Scenario-file form: {"P": rows, "Delta": diagonal entries, "epsilon": e}."""
        try:
            return cls(spec["P"], spec["Delta"], spec["epsilon"])
        except KeyError as missing:
            raise ValueError(f"certificate spec is missing {missing}") from None


@dataclass
class QuadCheckResult:
    passed: bool
    probes: int
    witness: dict | None = None

    def summary(self) -> str:
        if self.passed:
            return f"quad check: pass ({self.probes} probes, no violation found)"
        w = self.witness
        return (f"quad check: FAIL at probe {w['index']}: t={w['t']:.6g}, "
                f"lhs={w['lhs']:.6g} > rhs={w['rhs']:.6g}")


def _as_box(box, n: int) -> tuple[np.ndarray, np.ndarray]:
    if np.isscalar(box):
        r = float(box)
        if not r > 0:
            raise ValueError("box radius must be positive")
        return -r * np.ones(n), r * np.ones(n)
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    if not np.all(hi > lo):
        raise ValueError("box must have positive extent in every coordinate")
    return lo, hi


def check_quad(f: NodeDynamics, cert: QuadCertificate, box, t_range=(0.0, 10.0),
               budget: int = 1000, seed: int = 0) -> QuadCheckResult:
    """Probe the certificate inequality at random (t, u1, u2) triples.

    Returns the lowest-indexed violation with both sides evaluated, or a
    pass with the probe count.  The comparison is exact (<=): the equality
    case of the inequality is admissible.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if cert.n != f.dim:
        raise ValueError("certificate dimension does not match the node dimension")
    lo, hi = _as_box(box, f.dim)
    t0, t1 = float(t_range[0]), float(t_range[1])
    rng = np.random.default_rng(seed)
    P, D, eps = cert.P, cert.Delta, cert.epsilon
    for idx in range(budget):
        t = rng.uniform(t0, t1)
        u1 = rng.uniform(lo, hi)
        u2 = rng.uniform(lo, hi)
        d = u1 - u2
        lhs = float(d @ (P @ (f.eval(t, u1) - f.eval(t, u2) - D @ d)))
        rhs = float(-eps * (d @ d))
        if lhs > rhs:
            return QuadCheckResult(False, idx + 1, witness={
                "index": idx, "t": float(t), "u1": u1.tolist(), "u2": u2.tolist(),
                "lhs": lhs, "rhs": rhs})
    return QuadCheckResult(True, budget)


def delta_from_cert(cert: QuadCertificate) -> float:
    """Positive constant bounding (u1-u2)' P [f(u1)-f(u2)] <= delta |u1-u2|^2.

    The certificate gives lambda_max(sym(P Delta)) - epsilon; when that is
    not positive it is clamped to 1e-12, which still upper-bounds the form.
    """
    S = cert.P @ cert.Delta
    lam = float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))
    return max(lam - cert.epsilon, _DELTA_FLOOR)


def estimate_envelope_constants(model: NetworkModel, x0, horizon: float,
                                grid: int = 201) -> tuple[float, float, float]:
    """Grid maxima of the three growth-bound ingredients on [0, horizon].

    alpha bounds the output's Lipschitz modulus kappa(t); beta bounds
    |a_ij(t)|; gamma bounds, per node, the norm of the derivative expression
    frozen at the initial state, using the signed kernel masses.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    x0 = np.asarray(x0, dtype=float).ravel()
    m, n = model.m, model.node.dim
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    X0 = x0.reshape(m, n)
    masses = np.array([[model.kernels[i][j].signed_mass() for j in range(m)]
                       for i in range(m)])
    ts = np.linspace(0.0, horizon, grid)
    alpha = 0.0
    beta = 0.0
    gamma = 0.0
    for t in ts:
        alpha = max(alpha, float(model.output.kappa(float(t))))
        A = model.coupling.matrix(float(t))
        beta = max(beta, float(np.max(np.abs(A))))
        g0 = model.output.eval_rows(float(t), X0)
        for i in range(m):
            expr = model.node.eval(float(t), X0[i]) + (A[i] * masses[i]) @ g0
            gamma = max(gamma, float(np.linalg.norm(expr)))
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
               horizon: float, grid: int = 201) -> "ProofConstants":
        alpha, beta, gamma = estimate_envelope_constants(model, x0, horizon, grid)
        K = sum(model.kernels[i][j].total_variation()
                for i in range(model.m) for j in range(model.m))
        delta = delta_from_cert(cert)
        eta = compute_eta(delta, alpha, beta, gamma, model.m, cert.P, K)
        return cls(delta=delta, alpha=alpha, beta=beta, gamma=gamma, K=K,
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


def format_certificate_report(result: QuadCheckResult, cert: QuadCertificate,
                              constants: ProofConstants | None = None) -> str:
    """Structured text block: verdict, probes, witness, delta, constants, eta."""
    lines = ["certificate check"]
    lines.append(f"  verdict: {'PASS' if result.passed else 'FAIL'}")
    lines.append(f"  probes: {result.probes}")
    lines.append(f"  epsilon: {cert.epsilon:.6g}")
    lines.append(f"  delta: {delta_from_cert(cert):.6g}")
    if result.witness is not None:
        w = result.witness
        lines.append(f"  witness: t={w['t']:.9g}")
        lines.append(f"    u1={w['u1']}")
        lines.append(f"    u2={w['u2']}")
        lines.append(f"    lhs={w['lhs']:.9g} rhs={w['rhs']:.9g}")
    if constants is not None:
        lines.append(f"  alpha: {constants.alpha:.6g}")
        lines.append(f"  beta: {constants.beta:.6g}")
        lines.append(f"  gamma: {constants.gamma:.6g}")
        lines.append(f"  K: {constants.K:.6g}")
        lines.append(f"  lambda_min: {constants.lambda_min:.6g}")
        lines.append(f"  norm_P: {constants.norm_P:.6g}")
        lines.append(f"  eta: {constants.eta:.6g}")
    return "\n".join(lines)

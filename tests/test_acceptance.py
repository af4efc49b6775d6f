"""Acceptance suite: ten gate criteria, one test and one printed line each.

Each test prints ``criterion N: PASS/FAIL (detail)``; the assertions carry
the same numbers so a failure is self-describing.  Oracles are closed-form
solutions, brute-force quadrature, and hand-coded reduced right-hand sides
written independently of the library internals.
"""

import math
import time

import numpy as np
import pytest

from delaynet.certificates import (
    ProofConstants,
    QuadCertificate,
    check_quad,
    lipschitz_certificate,
)
from delaynet.cli import main
from delaynet.diagnostics import check_envelope, p_norm, sync_report
from delaynet.dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    chua_node,
    identity_output,
    linear_node,
    make_example,
    rhs,
    tanh_hopfield_node,
)
from delaynet.history import HistoryFunction
from delaynet.integrator import IntegratorConfig, integrate
from delaynet.kernels import build_quadrature, dirac, exponential

from test_scenario_cli import BUNDLED


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def single_node_model(node_matrix, a=0.0, tau=0.0):
    """One node, optional self-coupling a * x(t - tau) through a point mass."""
    return NetworkModel(
        m=1, node=linear_node(np.asarray(node_matrix, dtype=float)),
        output=identity_output(len(node_matrix)),
        coupling=CouplingSchedule.constant(np.array([[a]])),
        delays=DelaySchedule.constant(tau), kernels=dirac())


def decay_error(method: str, h: float) -> float:
    """Global error at t = 1 for x' = -x, x(0) = 1."""
    model = single_node_model([[-1.0]])
    traj = integrate(model, HistoryFunction.constant([1.0]),
                     IntegratorConfig(method=method, h=h, horizon=1.0))
    return abs(float(traj.eval(1.0)[0]) - math.exp(-1.0))


def test_criterion_01_ode_oracle():
    start = time.perf_counter()
    rk4_err = decay_error("rk4", 1e-3)
    euler_err = decay_error("euler", 1e-3)
    elapsed = time.perf_counter() - start
    ok = rk4_err < 1e-9 and euler_err < 1e-3 and elapsed < 1.0
    _report(1, ok, f"rk4 err={rk4_err:.3e} < 1e-9, euler err={euler_err:.3e}"
                   f" < 1e-3, {elapsed:.2f}s < 1s")


def test_criterion_02_dde_oracle():
    # x'(t) = -x(t-1), x ==1 on (-inf, 0]: x(1) = 0 and x(2) = -1/2 by
    # integrating interval after interval.
    start = time.perf_counter()
    model = single_node_model([[0.0]], a=-1.0, tau=1.0)
    traj = integrate(model, HistoryFunction.constant([1.0]),
                     IntegratorConfig(method="rk4", h=1e-3, horizon=2.0))
    elapsed = time.perf_counter() - start
    e1 = abs(float(traj.eval(1.0)[0]) - 0.0)
    e2 = abs(float(traj.eval(2.0)[0]) - (-0.5))
    ok = e1 < 1e-6 and e2 < 1e-6 and elapsed < 1.0
    _report(2, ok, f"|x(1)|={e1:.3e} < 1e-6, |x(2)+0.5|={e2:.3e} < 1e-6, "
                   f"{elapsed:.2f}s < 1s")


def test_criterion_03_convergence_order():
    # Steps large enough that roundoff stays far below truncation error.
    rk4_ratio = decay_error("rk4", 0.05) / decay_error("rk4", 0.025)
    euler_ratio = decay_error("euler", 0.01) / decay_error("euler", 0.005)
    ok = 12.0 <= rk4_ratio <= 20.0 and 1.8 <= euler_ratio <= 2.2
    _report(3, ok, f"rk4 halving ratio={rk4_ratio:.2f} in [12, 20], "
                   f"euler ratio={euler_ratio:.3f} in [1.8, 2.2]")


def test_criterion_04_quadrature_oracle():
    plan = build_quadrature(exponential(rate=1.0, weight=1.0),
                            tail_tol=1e-10, node_spacing=1e-3)
    approx = float(plan.apply(np.sin(5.0 - plan.locations)))

    # Brute force: 1e7-point midpoint Riemann sum of sin(5 - s) e^{-s} over
    # [0, 45]; the discarded tail is below e^{-45}.
    count = 10_000_000
    width = 45.0 / count
    s = (np.arange(count, dtype=float) + 0.5) * width
    brute = float(np.sum(np.sin(5.0 - s) * np.exp(-s)) * width)

    rel = abs(approx - brute) / abs(brute)
    _report(4, rel < 1e-6, f"plan={approx:.12f}, brute={brute:.12f}, "
                           f"rel err={rel:.3e} < 1e-6")


class _AnalyticPast:
    """Smooth vector profile sin(omega t + phase), queryable at any time."""

    def __init__(self, node_count: int, node_dim: int, rng: np.random.Generator):
        self.node_count = node_count
        self.node_dim = node_dim
        self.omega = rng.uniform(0.5, 2.0, size=node_count * node_dim)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=node_count * node_dim)

    def eval(self, t: float) -> np.ndarray:
        return np.sin(self.omega * float(t) + self.phase)

    def lagged(self, t: float, taps):
        """Row q is node taps.sources[q]'s block of the profile at t - lag_q,
        with the tap table's plan and segment starts."""
        lags = taps.lags_at(t)
        rows = np.sin(np.outer(t - lags, self.omega) + self.phase)
        rows = rows.reshape(lags.size, self.node_count, self.node_dim)[
            np.arange(lags.size), taps.sources]
        return rows, taps.plan, taps.starts

    __call__ = eval


def test_criterion_05_reduction_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0

    # Undelayed constant-matrix reduction, hand-coded from its plain form
    # dx_i = f(x_i) + sum_j a_ij Gamma x_j.
    m, n = 3, 2
    W = rng.normal(size=(n, n))
    node = tanh_hopfield_node(W)
    off = rng.uniform(0.2, 1.0, size=(m, m))
    A1 = off.copy()
    np.fill_diagonal(A1, 0.0)
    np.fill_diagonal(A1, -A1.sum(axis=1))
    Gamma1 = rng.normal(size=(n, n))
    model1 = make_example(1, node=node, A=A1, Gamma=Gamma1)
    for _ in range(100):
        t = float(rng.uniform(0.0, 10.0))
        past = _AnalyticPast(m, n, rng)
        x = past.eval(t).reshape(m, n)
        hand = np.empty((m, n))
        for i in range(m):
            hand[i] = -x[i] + W @ np.tanh(x[i])
            for j in range(m):
                hand[i] += A1[i, j] * (Gamma1 @ x[j])
        worst = max(worst, float(np.max(np.abs(rhs(model1, t, past) - hand.ravel()))))

    # Shared-delay reduction, hand-coded as
    # dx_i = f(x_i) + sum_{j != i} a_ij Gamma (x_j(t - tau) - x_i(t)).
    tau = 0.3
    c = 2.0
    off = rng.uniform(0.2, 1.0, size=(m, m))
    np.fill_diagonal(off, 0.0)
    A3 = off * (c / off.sum(axis=1, keepdims=True))
    np.fill_diagonal(A3, -c)
    gdiag = rng.uniform(0.5, 2.0, size=3)
    node3 = chua_node()
    model3 = make_example(3, node=node3, Gamma=np.diag(gdiag), tau=tau, A=A3)
    for _ in range(100):
        t = float(rng.uniform(1.0, 10.0))
        past = _AnalyticPast(3, 3, rng)
        x_now = past.eval(t).reshape(3, 3)
        x_del = past.eval(t - tau).reshape(3, 3)
        hand = np.empty((3, 3))
        for i in range(3):
            hand[i] = node3.eval(t, x_now[i])
            for j in range(3):
                if j != i:
                    hand[i] += A3[i, j] * (gdiag * (x_del[j] - x_now[i]))
        worst = max(worst, float(np.max(np.abs(rhs(model3, t, past) - hand.ravel()))))

    _report(5, worst < 1e-12, f"max |general rhs - hand-coded rhs| = "
                              f"{worst:.3e} < 1e-12 over 2x100 probes")


def test_criterion_06_quad_checker_soundness():
    expanding = NodeDynamics(dim=2, fn=lambda t, u: u, name="identity-field")
    cert = QuadCertificate(np.eye(2), np.zeros(2), epsilon=1.0)
    res = check_quad(expanding, cert, box=5.0, budget=1000, seed=0)
    found = (not res.passed and res.witness is not None
             and res.witness["lhs"] > res.witness["rhs"]
             and res.probes <= 1000)

    contracting = NodeDynamics(dim=2, fn=lambda t, u: -u, name="negated-field")
    res2 = check_quad(contracting, cert, box=5.0, budget=100_000, seed=1)
    ok = found and res2.passed and res2.probes == 100_000
    _report(6, ok, f"expanding field falsified at probe {res.probes} with a "
                   f"witness, contracting field passed {res2.probes} probes")


@pytest.fixture(scope="module")
def chua_envelope_run():
    """Three all-to-all Chua circuits, c = 10, tau = 0.01: the shared run
    behind the envelope, state-bound, and invariant criteria."""
    start = time.perf_counter()
    model = make_example(3, node=chua_node(), Gamma=np.eye(3), tau=0.01,
                         topology="all-to-all", c=10.0, m=3)
    cert = lipschitz_certificate(model.node.lipschitz_hint, 3, epsilon=0.1)
    quad = check_quad(model.node, cert, box=5.0, budget=2000, seed=0)
    history = HistoryFunction.constant(
        [0.1, -0.1, 0.05, 0.2, 0.15, -0.1, -0.15, 0.05, 0.2])
    traj = integrate(model, history,
                     IntegratorConfig(method="rk4", h=1e-3, horizon=10.0))
    constants = ProofConstants.derive(cert, model, traj.states[0], 10.0)
    report = check_envelope(traj, constants.eta, cert.P, rel_tol=1e-6)
    elapsed = time.perf_counter() - start
    return {"traj": traj, "cert": cert, "quad": quad,
            "constants": constants, "report": report, "elapsed": elapsed}


def test_criterion_07_growth_envelope(chua_envelope_run):
    run = chua_envelope_run
    report = run["report"]
    ok = (run["quad"].passed and report.verdict
          and report.max_rel_violation <= 1e-6 and run["elapsed"] < 30.0)
    _report(7, ok, f"certificate passed {run['quad'].probes} probes, "
                   f"eta={report.eta:.1f}, max envelope violation="
                   f"{report.max_rel_violation:.3e} <= 1e-6, "
                   f"{run['elapsed']:.1f}s < 30s")


def test_criterion_08_state_bound(chua_envelope_run):
    report = chua_envelope_run["report"]
    with np.errstate(divide="ignore"):
        log_norm = np.log(report.state_norm)
    horizon_margin = float(np.max(log_norm) - report.log_state_bound_horizon)
    per_sample = report.state_bound_ok
    ok = per_sample and horizon_margin <= 0.0
    _report(8, ok, f"per-sample bound holds (max rel violation "
                   f"{report.max_state_rel_violation:.3e}), horizon-frozen "
                   f"bound holds with log margin {horizon_margin:.1f}")


def _chua_sync_run(c: float) -> float:
    model = make_example(3, node=chua_node(), Gamma=np.eye(3), tau=0.01,
                         topology="all-to-all", c=c, m=3)
    history = HistoryFunction.constant(
        [0.1, -0.1, 0.05, 0.2, 0.15, -0.1, -0.15, 0.05, 0.2])
    traj = integrate(model, history,
                     IntegratorConfig(method="rk4", h=4e-3, horizon=50.0))
    return sync_report(traj, threshold=1e-3, window=10.0).final_window_mean


def test_criterion_09_synchronization_thresholds():
    coupled = _chua_sync_run(10.0)
    uncoupled = _chua_sync_run(0.0)
    ok = coupled < 1e-3 and uncoupled > 0.1
    _report(9, ok, f"c=10 final-window mean={coupled:.3e} < 1e-3, "
                   f"c=0 mean={uncoupled:.3f} > 0.1")


def test_criterion_10_invariant_suites(chua_envelope_run, tmp_path):
    report = chua_envelope_run["report"]
    m_nondecreasing = bool(np.all(np.diff(report.M) >= 0.0))
    m_floor = bool(np.all(report.M >= 0.5))
    v_below_m = bool(np.all(report.V <= report.M))

    rng = np.random.default_rng(3)
    B = rng.normal(size=(4, 4))
    P = B @ B.T + 0.1 * np.eye(4)
    lam = np.linalg.eigvalsh(P)
    norms_ok = True
    for _ in range(100):
        u = rng.normal(size=8)  # two stacked 4-dim nodes
        pn = p_norm(u, P)
        eu = float(np.linalg.norm(u))
        norms_ok &= (math.sqrt(lam[0]) * eu * (1 - 1e-12) <= pn
                     <= math.sqrt(lam[-1]) * eu * (1 + 1e-12))

    model = make_example(3, node=chua_node(), Gamma=np.eye(3), tau=0.01,
                         topology="all-to-all", c=10.0, m=3)
    history = HistoryFunction.constant(
        [0.1, -0.1, 0.05, 0.2, 0.15, -0.1, -0.15, 0.05, 0.2])
    config = IntegratorConfig(method="rk4", h=1e-3, horizon=1.0)
    first = integrate(model, history, config)
    second = integrate(model, history, config)
    deterministic = (np.array_equal(first.states, second.states)
                     and np.array_equal(first.times, second.times))

    scenarios_ok = True
    for path in BUNDLED:
        ok_validate = main(["validate", str(path), "--quiet"]) == 0
        ok_run = main(["run", str(path), "--out",
                       str(tmp_path / path.stem), "--quiet"]) == 0
        scenarios_ok &= ok_validate and ok_run

    ok = (m_nondecreasing and m_floor and v_below_m and norms_ok
          and deterministic and scenarios_ok)
    _report(10, ok, f"M nondecreasing={m_nondecreasing}, M>=1/2={m_floor}, "
                    f"V<=M={v_below_m}, norm equivalence={norms_ok}, "
                    f"bitwise determinism={deterministic}, "
                    f"{len(BUNDLED)} bundled scenarios exit 0={scenarios_ok}")

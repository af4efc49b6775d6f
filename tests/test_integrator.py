"""Fixed-step integration: reductions with known solutions, order, blow-up."""

import math
from pathlib import Path

import numpy as np
import pytest

from delaynet import integrator
from delaynet.dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    OutputFunction,
    identity_output,
    linear_node,
    linear_output,
    named_topology,
    rhs,
)
from delaynet.history import HistoryFunction, Trajectory
from delaynet.integrator import BlowUpError, IntegratorConfig, integrate
from delaynet.kernels import build_quadrature, dirac, exponential, mixture, uniform
from delaynet.scenario import load_scenario


def scalar_delay_model(a=-1.0, tau=1.0, kernel=None, **kw):
    """Single node, f identically zero, coupling a * x(t - tau) through the kernel."""
    return NetworkModel(m=1, node=linear_node(np.zeros((1, 1))),
                        output=identity_output(1),
                        coupling=CouplingSchedule.constant(np.array([[a]])),
                        delays=DelaySchedule.constant(tau),
                        kernels=kernel if kernel is not None else dirac(), **kw)


def decaying_node_model():
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    return NetworkModel(m=1, node=node, output=identity_output(1),
                        coupling=CouplingSchedule.constant(np.zeros((1, 1))),
                        delays=DelaySchedule.zero(), kernels=dirac())


def test_config_validation():
    IntegratorConfig(method="euler", h=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk2", h=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.5, horizon=0.1)
    # the run must end exactly at the horizon: 1.0 is 2.5 steps of 0.4 and
    # 1.67 steps of 0.6, which used to end at 0.8 and at 1.2
    for h in (0.4, 0.6):
        with pytest.raises(ValueError, match="whole number of steps"):
            IntegratorConfig(h=h, horizon=1.0)
    assert IntegratorConfig(h=0.1, horizon=0.3).steps == 3


def test_ode_reduction_matches_exponential_decay():
    model = decaying_node_model()
    init = HistoryFunction.constant([1.0])
    traj = integrate(model, init, IntegratorConfig(method="rk4", h=1e-3, horizon=1.0))
    assert abs(traj.eval(1.0)[0] - math.exp(-1.0)) < 1e-9
    traj_e = integrate(model, init, IntegratorConfig(method="euler", h=1e-3, horizon=1.0))
    assert abs(traj_e.eval(1.0)[0] - math.exp(-1.0)) < 1e-3


def test_pure_delay_matches_hand_stepped_solution():
    # x' = -x(t-1), history 1: x(t) = 1-t on [0,1], then
    # x(t) = t^2/2 - 2t + 3/2 on [1,2]
    model = scalar_delay_model(a=-1.0, tau=1.0)
    traj = integrate(model, HistoryFunction.constant([1.0]),
                     IntegratorConfig(method="rk4", h=1e-3, horizon=2.0))
    assert abs(traj.eval(1.0)[0] - 0.0) < 1e-6
    assert abs(traj.eval(2.0)[0] - (-0.5)) < 1e-6
    assert abs(traj.eval(0.5)[0] - 0.5) < 1e-9
    assert abs(traj.eval(1.5)[0] - (1.125 - 3.0 + 1.5)) < 1e-6


def test_distributed_delay_rhs_at_zero():
    # x' = -integral of x(t-s) e^{-s} ds with constant history c: slope -c
    c = 3.0
    model = scalar_delay_model(a=-1.0, tau=0.0, kernel=exponential(1.0))
    past = Trajectory(HistoryFunction.constant([c]), node_count=1, node_dim=1)
    got = rhs(model, 0.0, past)
    assert abs(got[0] - (-c)) < 1e-9


def test_global_error_order_euler_and_rk4():
    model = decaying_node_model()
    init = HistoryFunction.constant([1.0])
    exact = math.exp(-1.0)

    def err(method, h):
        traj = integrate(model, init, IntegratorConfig(method=method, h=h, horizon=1.0))
        return abs(traj.eval(1.0)[0] - exact)

    ratio_euler = err("euler", 0.1) / err("euler", 0.05)
    assert 1.8 <= ratio_euler <= 2.2, ratio_euler
    ratio_rk4 = err("rk4", 0.1) / err("rk4", 0.05)
    assert 12.0 <= ratio_rk4 <= 20.0, ratio_rk4


def test_runs_are_bitwise_deterministic():
    model = scalar_delay_model(a=-0.8, tau=0.3)
    cfg = IntegratorConfig(method="rk4", h=1e-2, horizon=3.0)
    t1 = integrate(model, HistoryFunction.constant([1.0]), cfg)
    t2 = integrate(model, HistoryFunction.constant([1.0]), cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.states, t2.states)


def test_step_halving_consistency_on_pure_delay():
    model = scalar_delay_model(a=-1.0, tau=1.0)
    init = HistoryFunction.constant([1.0])
    h = 0.05
    xa = integrate(model, init, IntegratorConfig(method="rk4", h=h, horizon=2.0)).eval(2.0)
    xb = integrate(model, init, IntegratorConfig(method="rk4", h=h / 2, horizon=2.0)).eval(2.0)
    assert abs(xa[0] - xb[0]) < h**4


def test_blow_up_detected_with_partial_trajectory():
    node = NodeDynamics(dim=1, fn=lambda t, u: u * u)
    model = NetworkModel(m=1, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.zeros((1, 1))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    with pytest.raises(BlowUpError) as info:
        integrate(model, HistoryFunction.constant([2.0]),
                  IntegratorConfig(method="rk4", h=0.01, horizon=1.0))
    err = info.value
    assert 0.0 < err.time <= 1.0
    assert err.trajectory.last_time < 1.0
    assert np.all(np.isfinite(err.trajectory.states))


def burst_model(burst):
    """Single uncoupled node whose field is 0 before t = 0.0085 and
    ``burst(u)`` from then on: with h = 0.002 the first four steps stay
    put and the fifth starts at 0 and bursts at its last three stages."""
    node = NodeDynamics(dim=1, fn=lambda t, u: np.where(t < 0.0085, 0.0 * u, burst(u)))
    return NetworkModel(m=1, node=node, output=identity_output(1),
                        coupling=CouplingSchedule.constant(np.zeros((1, 1))),
                        delays=DelaySchedule.zero(), kernels=dirac())


@pytest.mark.parametrize("burst, reason", [
    # k2 = 1e308, k3 = -1e308: 2 k2 = inf and 2 k3 = -inf sum to NaN
    (lambda u: np.where(u < 1e300, 1e308, -1e308), "non-finite state component"),
    (lambda u: np.full_like(u, 1e308), "non-finite state component"),
    # 0.5 + (0.002 / 6) * 6 * 1.2e15, finite
    (lambda u: np.full_like(u, 1.2e15), "state magnitude 2.000e+12 exceeds 1e+12"),
], ids=["nan", "inf", "magnitude"])
def test_each_escape_halts_with_its_reason_after_the_last_good_sample(burst, reason):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        integrate(burst_model(burst), HistoryFunction.constant([0.5]),
                  IntegratorConfig(method="rk4", h=0.002, horizon=0.02))
    err = info.value
    assert err.reason == reason
    assert err.time == 5 * 0.002
    np.testing.assert_array_equal(err.trajectory.times, np.arange(5) * 0.002)
    np.testing.assert_array_equal(err.trajectory.states, np.full((5, 1), 0.5))


def test_a_run_record_still_checks_and_grows_on_append():
    traj = integrate(decaying_node_model(), HistoryFunction.constant([1.0]),
                     IntegratorConfig(method="rk4", h=0.1, horizon=0.5))
    assert len(traj) == 6
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite state"):
            traj.append(0.6, np.array([bad]))
    with pytest.raises(ValueError, match="strictly increasing"):
        traj.append(0.5, np.array([0.0]))
    traj.append(0.6, np.array([0.25]))
    traj.append(0.7, np.array([0.125]))
    assert len(traj) == 8
    assert traj.eval(0.65)[0] == pytest.approx(0.1875)
    assert traj.eval(0.5)[0] == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_stage_lookups_inside_step_are_counted():
    h = 0.002
    fast = scalar_delay_model(a=-1.0, tau=0.0005)
    traj = integrate(fast, HistoryFunction.constant([1.0]),
                     IntegratorConfig(method="rk4", h=h, horizon=0.1))
    assert traj.stage_extrapolation_count > 0
    undelayed = scalar_delay_model(a=-1.0, tau=0.0)
    traj0 = integrate(undelayed, HistoryFunction.constant([1.0]),
                      IntegratorConfig(method="rk4", h=h, horizon=0.1))
    assert traj0.stage_extrapolation_count == 0
    # a lag of exactly h/2 lands on the committed sample at the two midpoint
    # stages and inside the step only at the last one
    half = scalar_delay_model(a=-1.0, tau=h / 2)
    traj_half = integrate(half, HistoryFunction.constant([1.0]),
                          IntegratorConfig(method="rk4", h=h, horizon=0.1))
    assert traj_half.stage_extrapolation_count == 50


def test_tiny_delay_run_stays_close_to_undelayed_limit():
    # the extrapolation fallback must not wreck accuracy for tau << h
    cfg = IntegratorConfig(method="rk4", h=0.002, horizon=1.0)
    fast = scalar_delay_model(a=-1.0, tau=1e-6)
    val = integrate(fast, HistoryFunction.constant([1.0]), cfg).eval(1.0)[0]
    assert abs(val - math.exp(-1.0)) < 1e-4


class OracleStagePast:
    """The stage lookup rule written out on lookup times: the stage vector
    at the stage time, ``Trajectory.eval_many`` at or before the step start,
    and a counted first-order extrapolation in between."""

    def __init__(self, traj, t_base, x_base, t_stage, x_stage, slope):
        self.traj, self.t_base, self.x_base = traj, t_base, x_base
        self.t_stage, self.x_stage, self.slope = t_stage, x_stage, slope
        self.extrapolations = 0

    def __call__(self, t):
        assert t == self.t_stage
        return self.x_stage

    def lagged(self, t, taps):
        ts = t - taps.lags_at(t)
        rows = np.empty((ts.size, self.x_stage.size))
        at_stage, committed = ts == self.t_stage, ts <= self.t_base
        between = ~(at_stage | committed)
        rows[at_stage] = self.x_stage
        if committed.any():
            rows[committed] = self.traj.eval_many(ts[committed])
        rows[between] = self.x_base + (ts[between, None] - self.t_base) * self.slope
        self.extrapolations += int(between.sum())
        n = self.traj.node_dim
        rows = rows.reshape(ts.size, -1, n)[np.arange(ts.size), taps.sources]
        return rows, taps.plan, taps.starts


def oracle_rk4(model, initial, h, steps):
    """Classical RK4 over ``OracleStagePast``; returns (trajectory, count)."""
    traj = Trajectory(initial, node_count=model.m, node_dim=model.n)
    x, count = traj.states[0].copy(), 0
    for k in range(steps):
        t, ks = k * h, []
        for c, a in ((0.0, 0.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0)):
            x_stage = x + (a * h) * ks[-1] if ks else x
            past = OracleStagePast(traj, t, x, t + c * h, x_stage, ks[0] if ks else None)
            ks.append(rhs(model, t + c * h, past))
            count += past.extrapolations
        x = x + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        traj.append((k + 1) * h, x)
    return traj, count


def oracle_network(m=2, coupling=None, delays=None, kernels=None, node_spacing=1e-3):
    node = linear_node([[-0.5, 1.0], [-1.0, -0.5]])
    if coupling is None:
        coupling = CouplingSchedule.constant(0.8 * named_topology("ring", m))
    return NetworkModel(m=m, node=node, output=linear_output([[1.0, 0.2], [0.0, 0.5]]),
                        coupling=coupling, delays=delays or DelaySchedule.offdiagonal(0.3),
                        kernels=kernels or dirac(), node_spacing=node_spacing)


def oracle_cases():
    # at m = 3 the ring is all-to-all; at m = 4 the table's support grows
    ring, full = 0.8 * named_topology("ring", 4), 0.8 * named_topology("all-to-all", 4)
    history = HistoryFunction.table([-3.3, -1.2345, -0.517, -0.0123],
                                    [[0.2, -0.4, 1.0, 0.3], [0.7, 0.1, -0.2, 0.5],
                                     [-0.3, 0.6, 0.4, -0.1], [0.5, -0.5, 0.25, 0.0]])
    constant = HistoryFunction.constant([0.5, -0.5, 0.25, 0.0])
    yield "on-grid", oracle_network(delays=DelaySchedule.offdiagonal(0.3)), constant, 0.01, 100
    yield "off-grid", oracle_network(delays=DelaySchedule.constant(0.373)), constant, 0.01, 100
    yield "below-h", oracle_network(delays=DelaySchedule.constant(0.0007)), constant, 0.002, 100
    yield "mixture-over-table", oracle_network(
        delays=DelaySchedule.constant(np.array([[0.0, 0.05], [0.137, 0.0]])),
        kernels=mixture(dirac(0.0, 0.5), exponential(3.0, 0.5)), node_spacing=1e-2), \
        history, 0.01, 60
    yield "support-changes", oracle_network(
        m=4, coupling=CouplingSchedule.table([0.3, 0.5], [ring, full]),
        delays=DelaySchedule.offdiagonal(0.05)), \
        HistoryFunction.constant([0.5, -0.5, 0.25, 0.0, -0.1, 0.3, 0.2, -0.6]), 0.01, 80
    yield "delay-table", oracle_network(
        delays=DelaySchedule.table([0.0, 0.61], [np.full((2, 2), 0.1), [[0.0, 0.25], [0.4, 0.0]]]),
        kernels=mixture(dirac(0.0, 0.5), dirac(0.07, 0.5))), history, 0.01, 80
    yield "uncoupled", oracle_network(coupling=CouplingSchedule.constant(np.zeros((2, 2)))), \
        history, 0.01, 50
    # folds: a density tail that stays before t = 0 for the whole run; a
    # density starting at a > 0, so that each tap is only its history row
    # until t passes tau + a; a table history whose first knot the density
    # reaches past
    yield "tail-before-0", oracle_network(
        delays=DelaySchedule.constant(0.05), kernels=exponential(2.0), node_spacing=1e-2), \
        constant, 0.01, 60
    yield "late-uniform", oracle_network(
        delays=DelaySchedule.offdiagonal(0.05), kernels=uniform(0.2, 0.5), node_spacing=1e-2), \
        constant, 0.01, 80
    yield "density-past-first-knot", oracle_network(
        delays=DelaySchedule.constant(0.05), kernels=uniform(0.0, 4.0, 0.7), node_spacing=1e-2), \
        history, 0.01, 60


@pytest.mark.parametrize("name, model, initial, h, steps", oracle_cases(),
                         ids=[case[0] for case in oracle_cases()])
def test_integrate_matches_the_lookup_oracle(name, model, initial, h, steps):
    traj = integrate(model, initial, IntegratorConfig(method="rk4", h=h, horizon=steps * h))
    want, count = oracle_rk4(model, initial, h, steps)
    np.testing.assert_array_equal(traj.times, want.times)
    assert np.max(np.abs(traj.states - want.states)) <= 1e-12
    assert traj.stage_extrapolation_count == count
    # a delay below h, the density's first nodes and a diagonal delay
    # shrinking to 0 land inside the step; no lag is exactly c*h for a stage
    assert (count > 0) == (name in ("below-h", "mixture-over-table", "delay-table"))


def test_distributed_delay_hands_g_the_live_nodes_and_one_row_per_tap(monkeypatch):
    # 4,474 quadrature nodes per right-hand side; those before t = 0 fold
    # into one history row per tap, so g sees 4 rows at t = 0 and 768 at
    # t = 2.  Each stage offset builds its lookup plan once and lays its
    # fold out again only as nodes cross t = 0
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                             / "distributed_delay.json")
    assert int(scenario.model.taps.sizes.sum()) == 4474
    rows, plans, layouts = [], [], []
    eval_rows, build = OutputFunction.eval_rows, integrator._LookupPlan.__init__
    lay_out = integrator._LookupPlan._layout
    monkeypatch.setattr(OutputFunction, "eval_rows",
                        lambda self, t, u: rows.append(len(u)) or eval_rows(self, t, u))
    monkeypatch.setattr(integrator._LookupPlan, "__init__",
                        lambda self, *args: plans.append(args[2]) or build(self, *args))
    monkeypatch.setattr(integrator._LookupPlan, "_layout",
                        lambda self, f: layouts.append(f) or lay_out(self, f))
    integrate(scenario.model, scenario.history, scenario.config)
    assert len(rows) == 4 * scenario.config.steps
    assert rows[0] <= 6
    assert max(rows) < 800
    assert sorted(plans) == [0.0, 0.5, 1.0]
    # the three offsets share one node order and step through the same fold
    # counts, so each layout is built about once, not once per offset (1,145)
    assert len(layouts) <= 400


def convolution(plan, traj, t, tau):
    """The lookup-and-weigh composition ``rhs`` applies for an identity output."""
    return plan.apply(traj.eval_many(t - tau - plan.locations))


def test_convolve_dirac_plan_is_exact_lookup():
    traj = Trajectory(HistoryFunction.constant([2.0]), node_count=1, node_dim=1)
    traj.append(1.0, np.array([4.0]))
    plan = build_quadrature(dirac(0.0), 1e-12, 1e-2)
    out = convolution(plan, traj, t=1.0, tau=0.5)
    # linear interpolation between 2 (at t=0) and 4 (at t=1) gives 3 at t=0.5
    assert out == pytest.approx([3.0])


def test_convolve_two_atom_average_of_constant_history():
    ker = mixture(dirac(0.0, 0.5), dirac(1.0, 0.5))
    plan = build_quadrature(ker, 1e-12, 1e-2)
    traj = Trajectory(HistoryFunction.constant([7.0]), node_count=1, node_dim=1)
    traj.append(0.5, np.array([7.0]))
    out = convolution(plan, traj, t=0.5, tau=0.0)
    assert out == pytest.approx([7.0])


def test_convolve_exponential_plan_matches_riemann_oracle():
    # trajectory carrying sin: a history table and samples after 0, both at
    # the plan's 1e-3 node spacing
    knots = np.arange(-30000, 1) * 1e-3
    hist = HistoryFunction.table(knots, np.sin(knots)[:, None])
    traj = Trajectory(hist, node_count=1, node_dim=1)
    grid = np.arange(1, 5001) * 1e-3
    for t in grid:
        traj.append(t, np.array([np.sin(t)]))
    plan = build_quadrature(exponential(1.0), tail_tol=1e-10, node_spacing=1e-3)
    got = convolution(plan, traj, t=5.0, tau=0.0)[0]
    n = 10**7
    h = 30.0 / n
    s = (np.arange(n) + 0.5) * h
    oracle = float(np.sum(np.sin(5.0 - s) * np.exp(-s)) * h)
    assert abs(got - oracle) / abs(oracle) < 1e-6


def test_convolve_reports_lookup_past_trajectory():
    traj = Trajectory(HistoryFunction.constant([1.0]), node_count=1, node_dim=1)
    traj.append(1.0, np.array([1.0]))
    plan = build_quadrature(dirac(0.0), 1e-12, 1e-2)
    with pytest.raises(ValueError, match="past the last sample"):
        convolution(plan, traj, t=2.0, tau=0.0)

"""Fixed-step integration: reductions with known solutions, order, blow-up."""

import math

import numpy as np
import pytest

from delaynet.dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    identity_output,
    linear_node,
    rhs,
)
from delaynet.history import HistoryFunction, Trajectory
from delaynet.integrator import BlowUpError, IntegratorConfig, integrate
from delaynet.kernels import build_quadrature, dirac, exponential, mixture


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
    got = rhs(model, 0.0, HistoryFunction.constant([c]))
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


def test_tiny_delay_run_stays_close_to_undelayed_limit():
    # the extrapolation fallback must not wreck accuracy for tau << h
    cfg = IntegratorConfig(method="rk4", h=0.002, horizon=1.0)
    fast = scalar_delay_model(a=-1.0, tau=1e-6)
    val = integrate(fast, HistoryFunction.constant([1.0]), cfg).eval(1.0)[0]
    assert abs(val - math.exp(-1.0)) < 1e-4


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

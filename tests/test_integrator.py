"""Fixed-step integration: reductions with known solutions, order, blow-up."""

import math
from fractions import Fraction
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
    chua_node,
    identity_output,
    linear_node,
    linear_output,
    make_example,
    named_topology,
    rhs,
    tanh_hopfield_node,
)
from delaynet.history import HistoryFunction, PiecewiseLinear, Trajectory
from delaynet.integrator import BlowUpError, IntegratorConfig, integrate
from delaynet.kernels import (
    ExponentialDensity,
    build_quadrature,
    dirac,
    exponential,
    mixture,
    uniform,
)
from delaynet.scenario import load_scenario

from trajectory_past import TrajectoryPast


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
    # an infinite horizon used to raise OverflowError from round in steps
    for h, horizon in ((1e-3, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="step h and horizon must be finite"):
            IntegratorConfig(h=h, horizon=horizon)
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
    past = TrajectoryPast(Trajectory(HistoryFunction.constant([c]), node_count=1, node_dim=1))
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


def test_runs_with_auxiliary_states_are_bitwise_deterministic():
    # a filter off the diagonal and a running integral on it: the hidden
    # columns after the state repeat bit for bit too
    model = oracle_network(delays=DelaySchedule.offdiagonal(0.05),
                           kernels=[[uniform(0.05, 0.3), exponential(2.0)],
                                    [exponential(2.0), uniform(0.05, 0.3)]])
    rates = model.taps.chain(1e-3)[2]
    assert np.any(rates > 0.0) and np.any(rates == 0.0)
    cfg = IntegratorConfig(method="rk4", h=1e-3, horizon=0.5)
    t1, t2 = (integrate(model, TABLE_HISTORY, cfg) for _ in range(2))
    assert len(t1) == len(t2) == 501
    assert t1._record.shape == (501, t1.dim + rates.size)
    assert t1.times.tobytes() == t2.times.tobytes()
    assert t1._record.tobytes() == t2._record.tobytes()


def hand_march(model, history, method, h, steps):
    """Euler or RK4 written out on an A = 0 network, whose derivative is f
    plus an empty coupling sum, 0.0; RK4 sums ((k1 + 2 k2) + 2 k3) + k4."""
    m, n = model.m, model.node.dim

    def f(t, x):
        return model.node.eval(t, x.reshape(m, n)).ravel() + 0.0

    x = history.eval_many([0.0])[0]
    states = [x]
    for k in range(steps):
        t = k * h
        if method == "euler":
            x = x + h * f(t, x)
        else:
            k1 = f(t, x)
            k2 = f(t + 0.5 * h, x + (0.5 * h) * k1)
            k3 = f(t + 0.5 * h, x + (0.5 * h) * k2)
            k4 = f(t + h, x + h * k3)
            x = x + (h / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        states.append(x)
    return np.array([k * h for k in range(steps + 1)]), np.array(states)


def uncoupled_cases():
    def uncoupled(node):
        return NetworkModel(m=2, node=node, output=identity_output(node.dim),
                            coupling=CouplingSchedule.constant(np.zeros((2, 2))),
                            delays=DelaySchedule.zero(), kernels=dirac())

    yield "chua", uncoupled(chua_node()), \
        HistoryFunction.constant([0.1, -0.1, 0.05, 0.12, -0.08, 0.04]), 0.002, 1000
    yield "tanh_hopfield", uncoupled(tanh_hopfield_node([[2.0, -1.0], [1.0, 0.5]], [0.1, -0.2])), \
        HistoryFunction.constant([0.3, -0.2, -0.1, 0.4]), 0.01, 500
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                             / "chua_uncoupled.json")
    config = scenario.config
    yield "chua-uncoupled", scenario.model, scenario.history, config.h, config.steps


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("name, model, history, h, steps", uncoupled_cases(),
                         ids=[case[0] for case in uncoupled_cases()])
def test_uncoupled_runs_are_the_written_out_method_bit_for_bit(name, model, history, h, steps,
                                                               method):
    assert not model.taps.pairs.size
    traj = integrate(model, history, IntegratorConfig(method=method, h=h, horizon=steps * h))
    times, states = hand_march(model, history, method, h, steps)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


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


@pytest.mark.parametrize("burst, count", [
    # the guard halts the run after its fifth step
    (lambda u: np.full_like(u, 1.2e15), 5),
    # a non-finite derivative halts it at the fifth step's second stage
    (lambda u: np.full_like(u, np.inf), 4),
], ids=["magnitude", "non-finite-derivative"])
def test_a_blown_up_trajectory_carries_its_stage_extrapolation_count(burst, count):
    # a lag of h/2 falls inside the step at RK4's last stage only: one
    # extrapolated lookup per completed step
    h = 0.002
    node = NodeDynamics(dim=1, fn=lambda t, u: np.where(t < 0.0085, 0.0 * u, burst(u)))
    model = NetworkModel(m=1, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.array([[-1.0]])),
                         delays=DelaySchedule.constant(h / 2), kernels=dirac())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        integrate(model, HistoryFunction.constant([0.5]),
                  IntegratorConfig(method="rk4", h=h, horizon=0.02))
    assert info.value.trajectory.stage_extrapolation_count == count


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
    # a run with an exponential density holds a filter column after the
    # state; appends past the reserved rows keep it and the run's rows
    chained = integrate(scalar_delay_model(a=-1.0, tau=0.1, kernel=exponential(2.0)),
                        HistoryFunction.constant([1.0]),
                        IntegratorConfig(method="rk4", h=0.1, horizon=1.0))
    run = chained._record[:len(chained)].copy()
    assert run.shape == (11, 2)
    chained.append(1.1, np.array([0.5]))
    chained.append(1.2, np.array([0.25]))
    assert chained._record.shape == (22, 2)
    assert chained._record[:11].tobytes() == run.tobytes()
    np.testing.assert_array_equal(chained.states[11:], [[0.5], [0.25]])


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
    """The stage lookup rule written out on step offsets: at stage offset c
    a lookup of lag ``l`` reads the stage vector when l = 0, a counted
    first-order extrapolation from the step start when 0 < l < c*h, and
    ``Trajectory.eval_many`` at t - l otherwise.  The comparisons are made
    on l and c*h, which is exact for RK4's c in {0, 1/2, 1}, and not on the
    rounded lookup time t - l, which can land one ulp past the step start
    when l = c*h."""

    def __init__(self, traj, t_base, x_base, c, h, x_stage, slope):
        assert Fraction(c * h) == Fraction(c) * Fraction(h)
        self.traj, self.t_base, self.x_base, self.reach = traj, t_base, x_base, c * h
        self.t_stage, self.x_stage, self.slope = t_base + c * h, x_stage, slope
        self.extrapolations = 0

    def __call__(self, t):
        assert t == self.t_stage
        return self.x_stage

    def lagged(self, t, taps):
        lags = taps.lags_at(t)
        ts = t - lags
        rows = np.empty((ts.size, self.x_stage.size))
        at_stage, between = lags == 0.0, (lags > 0.0) & (lags < self.reach)
        committed = ~(at_stage | between)
        rows[at_stage] = self.x_stage
        if committed.any():
            rows[committed] = self.traj.eval_many(np.minimum(ts[committed], self.t_base))
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
            past = OracleStagePast(traj, t, x, c, h, x_stage, ks[0] if ks else None)
            ks.append(rhs(model, t + c * h, past))
            count += past.extrapolations
        x = x + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        traj.append((k + 1) * h, x)
    return traj, count


def oracle_network(m=2, coupling=None, delays=None, kernels=None, node_spacing=1e-3,
                   output=None):
    node = linear_node([[-0.5, 1.0], [-1.0, -0.5]])
    if coupling is None:
        coupling = CouplingSchedule.constant(0.8 * named_topology("ring", m))
    return NetworkModel(m=m, node=node, output=output or linear_output([[1.0, 0.2], [0.0, 0.5]]),
                        coupling=coupling, delays=delays or DelaySchedule.offdiagonal(0.3),
                        kernels=kernels or dirac(), node_spacing=node_spacing)


# a g that is not linear keeps the integrator on the quadrature nodes
CURVED = OutputFunction(dim=2, fn=lambda t, u: np.tanh(u) + 0.2 * u, kappa=1.2)
TABLE_HISTORY = HistoryFunction.table([-3.3, -1.2345, -0.517, -0.0123],
                                      [[0.2, -0.4, 1.0, 0.3], [0.7, 0.1, -0.2, 0.5],
                                       [-0.3, 0.6, 0.4, -0.1], [0.5, -0.5, 0.25, 0.0]])


def oracle_cases():
    # at m = 3 the ring is all-to-all; at m = 4 the table's support grows
    ring, full = 0.8 * named_topology("ring", 4), 0.8 * named_topology("all-to-all", 4)
    history = TABLE_HISTORY
    constant = HistoryFunction.constant([0.5, -0.5, 0.25, 0.0])
    yield "on-grid", oracle_network(delays=DelaySchedule.offdiagonal(0.3)), constant, 0.01, 100
    yield "off-grid", oracle_network(delays=DelaySchedule.constant(0.373)), constant, 0.01, 100
    yield "below-h", oracle_network(delays=DelaySchedule.constant(0.0007)), constant, 0.002, 100
    # lags of exactly h and h/2: the stages at c*h = lag read the step start
    yield "lag-is-h", oracle_network(delays=DelaySchedule.offdiagonal(0.01)), constant, 0.01, 60
    yield "lag-is-half-h", oracle_network(delays=DelaySchedule.offdiagonal(0.005)), \
        constant, 0.01, 60
    yield "mixture-over-table", oracle_network(
        delays=DelaySchedule.constant(np.array([[0.0, 0.05], [0.137, 0.0]])),
        kernels=mixture(dirac(0.0, 0.5), exponential(3.0, 0.5)), node_spacing=1e-2,
        output=CURVED), history, 0.01, 60
    yield "support-changes", oracle_network(
        m=4, coupling=CouplingSchedule.table([0.3, 0.5], [ring, full]),
        delays=DelaySchedule.offdiagonal(0.05)), \
        HistoryFunction.constant([0.5, -0.5, 0.25, 0.0, -0.1, 0.3, 0.2, -0.6]), 0.01, 80
    yield "delay-table", oracle_network(
        delays=DelaySchedule.table([0.0, 0.61], [np.full((2, 2), 0.1), [[0.0, 0.25], [0.4, 0.0]]]),
        kernels=mixture(dirac(0.0, 0.5), dirac(0.07, 0.5))), history, 0.01, 80
    yield "uncoupled", oracle_network(coupling=CouplingSchedule.constant(np.zeros((2, 2)))), \
        history, 0.01, 50
    # quadrature nodes under a custom g: a density tail that stays before
    # t = 0 for the whole run; a density starting at a > 0, read from the
    # history alone until t passes tau + a; a table history whose first knot
    # the density reaches past
    yield "tail-before-0", oracle_network(
        delays=DelaySchedule.constant(0.05), kernels=exponential(2.0), node_spacing=1e-2,
        output=CURVED), constant, 0.01, 60
    yield "late-uniform", oracle_network(
        delays=DelaySchedule.offdiagonal(0.05), kernels=uniform(0.2, 0.5), node_spacing=1e-2,
        output=CURVED), constant, 0.01, 80
    yield "density-past-first-knot", oracle_network(
        delays=DelaySchedule.constant(0.05), kernels=uniform(0.0, 4.0, 0.7), node_spacing=1e-2,
        output=CURVED), history, 0.01, 60


@pytest.mark.parametrize("name, model, initial, h, steps", oracle_cases(),
                         ids=[case[0] for case in oracle_cases()])
def test_integrate_matches_the_lookup_oracle(name, model, initial, h, steps):
    traj = integrate(model, initial, IntegratorConfig(method="rk4", h=h, horizon=steps * h))
    want, count = oracle_rk4(model, initial, h, steps)
    np.testing.assert_array_equal(traj.times, want.times)
    assert np.max(np.abs(traj.states - want.states)) <= 1e-12
    assert traj.stage_extrapolation_count == count
    # a delay below h, the density's first nodes, a diagonal delay
    # shrinking to 0 and a lag of h/2 at the last stage land inside the step;
    # a lag of exactly c*h lands on the step start
    assert (count > 0) == (name in ("below-h", "lag-is-half-h", "mixture-over-table",
                                    "delay-table"))


def history_aux(history, key, u):
    """The auxiliary state of the whole history at u <= 0: for key
    ("filter", r), integral over v <= u of r e^{-r(u - v)} x(v) dv, summed
    piece by piece with the antiderivative e^{-r(u - v)} (x(v) - beta/r)
    on a piece of slope beta; for ("integral", 0), -integral from u to 0
    of x by the trapezoid rule on the knots, exact for a piecewise-linear x."""
    times = np.append(history.knots.times, 0.0)
    X = np.vstack([history.knots.values, history.knots.values[-1:]])
    kind, r = key
    if kind == "integral":
        pts = np.concatenate([[u], times[times > u]])
        x = history.eval_many(pts)
        return -(np.diff(pts)[:, None] * (x[1:] + x[:-1]) / 2.0).sum(axis=0)
    z = X[0] * math.exp(-r * (u - min(u, times[0])))
    for v0, v1, x0, x1 in zip(times[:-1], times[1:], X[:-1], X[1:]):
        if v0 >= u:
            break
        beta = (x1 - x0) / (v1 - v0) if v1 > v0 else 0.0 * x0
        e = min(v1, u)
        z = (z + math.exp(-r * (u - e)) * (x0 + beta * (e - v0) - beta / r)
             - math.exp(-r * (u - v0)) * (x0 - beta / r))
    return z


def spans_steps(density, h):
    """Whether a density is read through an auxiliary state at step h: an
    exponential's mean 1/r spans a step, a uniform's width 16 steps."""
    if isinstance(density, ExponentialDensity):
        return 1.0 / density.rate >= h
    return density.b - density.a >= 16.0 * h


def chain_oracle(model, initial, h, steps):
    """Classical RK4 of the network extended by one auxiliary block per
    density kind on every node: the filter z' = r (x - z) of each rate and
    the running integral G' = x.  A pair reads its atoms from x, an
    exponential density as w g(z_j(t - tau)) and a uniform one as
    w/(b - a) (g(G_j(t - tau - a)) - g(G_j(t - tau - b))); a density too
    short for ``spans_steps`` reads the pair's quadrature nodes from x.
    Lookups are made by lag and follow the stage rule of ``OracleStagePast``
    on the extended record, with the extended history before t = 0.
    Returns (states, extrapolation count)."""
    m, n = model.m, model.n
    dim = m * n
    keys = sorted({("filter", k.density.rate) if isinstance(k.density, ExponentialDensity)
                   else ("integral", 0.0) for row in model.kernels for k in row
                   if k.density and spans_steps(k.density, h)})
    block = {key: dim * (1 + b) for b, key in enumerate(keys)}
    record = [np.concatenate([initial.eval(0.0)] + [history_aux(initial, key, 0.0)
                                                    for key in keys])]
    count = 0

    def derivative(t, look):
        y = look(0.0)
        X, A = y[:dim].reshape(m, n), model.coupling.matrix(t)
        out = model.node.fn(t, X)
        for i in range(m):
            for j in range(m):
                if A[i, j] == 0.0:
                    continue
                tau, kernel = model.delays.value(i, j, t), model.kernels[i][j]
                d, plan = kernel.density, model.plans[i][j]
                chained = d is None or spans_steps(d, h)
                nodes = kernel.atoms if chained else zip(plan.locations, plan.weights)
                acc = sum(w * model.output.fn(t, look(tau + loc)[j * n:(j + 1) * n])
                          for loc, w in nodes)
                if chained and isinstance(d, ExponentialDensity):
                    c = block["filter", d.rate] + j * n
                    acc = acc + d.weight * model.output.fn(t, look(tau)[c:c + n])
                elif chained and d is not None:
                    c = block["integral", 0.0] + j * n
                    G = look(tau + d.a)[c:c + n] - look(tau + d.b)[c:c + n]
                    acc = acc + d.weight / (d.b - d.a) * model.output.fn(t, G)
                out[i] = out[i] + A[i, j] * acc
        aux = [key[1] * (y[:dim] - y[block[key]:block[key] + dim]) if key[0] == "filter"
               else y[:dim] for key in keys]
        return np.concatenate([out.ravel()] + aux)

    for k in range(steps):
        t, y, ks = k * h, record[-1], []
        for c, a in ((0.0, 0.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0)):
            y_stage = y + (a * h) * ks[-1] if ks else y

            # a lag is compared with c*h, which is exact for RK4's c, and
            # not through the rounded time t + c*h - lag; a committed time
            # is clamped to the step start, whose sample is read as is
            def look(lag, t_stage=t + c * h, y_stage=y_stage, reach=c * h):
                nonlocal count
                if lag == 0.0:
                    return y_stage
                u = t_stage - lag
                if lag < reach:
                    count += 1
                    return y + (u - t) * ks[0]
                if u >= t:
                    return y
                if u <= 0.0:
                    return np.concatenate([initial.eval(u)]
                                          + [history_aux(initial, key, u) for key in keys])
                q = u / h
                lo = min(int(math.floor(q)), k)
                w = q - lo
                return record[lo] if w == 0.0 else (1.0 - w) * record[lo] + w * record[lo + 1]

            ks.append(derivative(t + c * h, look))
        record.append(y + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3]))
    return np.array(record)[:, :dim], count


def chain_cases():
    constant = HistoryFunction.constant([0.5, -0.5, 0.25, 0.0])
    gamma_table = linear_output(PiecewiseLinear([0.0, 0.4], [[[1.0, 0.2], [0.0, 0.5]],
                                                             [[0.5, 0.0], [0.3, 1.0]]]))
    yield "table-history", oracle_network(
        delays=DelaySchedule.constant(np.array([[0.0, 0.05], [0.137, 0.0]])),
        kernels=mixture(dirac(0.0, 0.5), exponential(3.0, 0.5))), TABLE_HISTORY, 0.01, 60
    yield "delay-table", oracle_network(
        delays=DelaySchedule.table([0.0, 0.61], [np.full((2, 2), 0.1), [[0.0, 0.25], [0.4, 0.0]]]),
        kernels=mixture(dirac(0.07, 0.5), exponential(2.0, 0.5)), output=gamma_table), \
        TABLE_HISTORY, 0.01, 80
    yield "late-uniform", oracle_network(
        delays=DelaySchedule.offdiagonal(0.05), kernels=uniform(0.2, 0.5)), TABLE_HISTORY, 0.01, 80
    # lags of exactly h and h/2 on the filter: the stages at c*h = lag
    # read the step start
    tie = mixture(dirac(0.0, 0.5), exponential(3.0, 0.5))
    yield "lag-is-h", oracle_network(delays=DelaySchedule.offdiagonal(0.01), kernels=tie), \
        TABLE_HISTORY, 0.01, 60
    yield "lag-is-half-h", oracle_network(delays=DelaySchedule.offdiagonal(0.005), kernels=tie), \
        TABLE_HISTORY, 0.01, 60
    yield "below-h", oracle_network(
        delays=DelaySchedule.constant(0.0007),
        kernels=mixture(dirac(0.0, 0.3), exponential(5.0, 0.7))), constant, 0.002, 100
    yield "filters-and-integral", oracle_network(
        delays=DelaySchedule.constant(np.array([[0.0, 0.03], [0.02, 0.0]])),
        kernels=[[exponential(3.0), uniform(0.1, 0.3, 0.8)],
                 [uniform(0.0, 0.2), exponential(1.5, 0.6)]]), TABLE_HISTORY, 0.01, 60
    # a filter faster than the step (r h = 1.5) and a uniform 7 steps wide
    # keep their quadrature nodes beside a filter and an integral
    yield "too-fast-or-narrow", oracle_network(
        delays=DelaySchedule.constant(np.array([[0.0, 0.03], [0.02, 0.0]])),
        kernels=[[exponential(3.0), mixture(dirac(0.02, 0.4), exponential(150.0, 0.6))],
                 [uniform(0.05, 0.12, 0.8), uniform(0.0, 0.3)]], node_spacing=1e-2), \
        TABLE_HISTORY, 0.01, 60


@pytest.mark.parametrize("name, model, initial, h, steps", chain_cases(),
                         ids=[case[0] for case in chain_cases()])
def test_linear_output_densities_match_the_extended_rk4_oracle(name, model, initial, h, steps):
    assert model.taps.chain(h)[0] is not model.taps
    traj = integrate(model, initial, IntegratorConfig(method="rk4", h=h, horizon=steps * h))
    want, count = chain_oracle(model, initial, h, steps)
    assert traj.states.shape == want.shape
    assert np.max(np.abs(traj.states - want)) <= 1e-12
    # the filter read at a lag below h, the diagonal delay shrinking to 0,
    # and a lag of h/2 at the last stage land inside the step
    inside = name in ("below-h", "delay-table", "lag-is-half-h")
    assert (count > 0) == (traj.stage_extrapolation_count > 0) == inside


def test_exponential_chain_converges_at_second_order_to_the_closed_form():
    # x' = -integral of 40 e^{-40 s} x(t - 1 - s) ds, history 1: x = 1 - t on
    # [0, 1], then x(2) = -(1/2 + 1/40 - (1 - e^{-40})/1600).  The lookups at
    # half steps interpolate linearly, so the error falls 4x per halving
    exact = -(0.5 + 1.0 / 40.0 - (1.0 - math.exp(-40.0)) / 1600.0)
    model = scalar_delay_model(a=-1.0, tau=1.0, kernel=exponential(40.0))
    errors = [abs(integrate(model, HistoryFunction.constant([1.0]),
                            IntegratorConfig(h=h, horizon=2.0)).states[-1, 0] - exact)
              for h in (4e-3, 2e-3, 1e-3)]
    assert errors[2] <= 2e-7
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errors


def test_uniform_running_integral_converges_at_second_order_to_the_closed_form():
    # x' = -integral over [0.25, 1.25] of x(t - 0.25 - s) ds, history 1: the
    # lags run over [0.5, 1.5], so x = 1 - t on [0, 0.5]; on [0.5, 1] the
    # integral is 1 - (t - 1/2)^2/2, and x(1) = 1/48
    model = scalar_delay_model(a=-1.0, tau=0.25, kernel=uniform(0.25, 1.25))
    errors = [abs(integrate(model, HistoryFunction.constant([1.0]),
                            IntegratorConfig(h=h, horizon=1.0)).states[-1, 0] - 1.0 / 48.0)
              for h in (4e-3, 2e-3, 1e-3)]
    assert errors[2] <= 2e-7
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errors


@pytest.mark.parametrize("rate, chained, bound", [(1000.0, True, 2e-7), (5000.0, False, 2.5e-4)])
def test_a_filter_serves_rates_up_to_one_over_h_and_quadrature_the_faster(rate, chained, bound):
    # the model above at rate r: x(2) = -(1/2 + 1/r - (1 - e^{-r})/r^2).  RK4
    # is unstable on a filter once r h > 2.79, so at h = 1e-3 an exponential
    # of rate 5,000 keeps its 6 trapezoid nodes and their error
    exact = -(0.5 + 1.0 / rate - (1.0 - math.exp(-rate)) / rate ** 2)
    model = scalar_delay_model(a=-1.0, tau=1.0, kernel=exponential(rate))
    assert (model.taps.chain(1e-3)[0] is not model.taps) == chained
    x = integrate(model, HistoryFunction.constant([1.0]), IntegratorConfig(h=1e-3, horizon=2.0))
    assert abs(x.states[-1, 0] - exact) <= bound


@pytest.mark.parametrize("steps, chained, bound", [(1.5, False, 1e-7), (16.5, True, 1e-6)])
def test_a_running_integral_serves_uniforms_16_steps_wide_and_quadrature_the_narrower(
        steps, chained, bound):
    # x' = -(1/W) integral over [0, W] of x(t - 1/4 - s) ds, history 1: x = 1 - t
    # on [0, 1/4]; the window integral is 1 - v^2/(2W) for v = t - 1/4 in
    # [0, W], then 1 - v + W/2, so x(1/2) = 3/4 - W + W^2/6 - (1 + W/2)(1/4 - W)
    # + (1/16 - W^2)/2.  Read through G, whose two lookups err by up to
    # h^2/8 |x'| each, the window would err by 7e-6 at W = 1.5h
    h = 1e-3
    W = steps * h
    exact = 0.75 - W + W * W / 6.0 - (1.0 + W / 2.0) * (0.25 - W) + (0.0625 - W * W) / 2.0
    model = scalar_delay_model(a=-1.0, tau=0.25, kernel=uniform(0.0, W))
    assert (model.taps.chain(h)[0] is not model.taps) == chained
    x = integrate(model, HistoryFunction.constant([1.0]), IntegratorConfig(h=h, horizon=0.5))
    assert abs(x.states[-1, 0] - exact) <= bound


def test_distributed_delay_hands_g_the_same_few_rows_at_every_stage(monkeypatch):
    # 4,474 quadrature nodes per right-hand side; with its linear output the
    # model reads each exponential density through one filtered state, so
    # g sees 6 rows at every stage: per ring pair the atom at 0 and the
    # filter, per self pair its atom.  Each stage offset builds its lookup
    # plan once
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                             / "distributed_delay.json")
    assert int(scenario.model.taps.sizes.sum()) == 4474
    rows, plans = [], []
    eval_rows, build = OutputFunction.eval_rows, integrator._LookupPlan.__init__
    monkeypatch.setattr(OutputFunction, "eval_rows",
                        lambda self, t, u: rows.append(len(u)) or eval_rows(self, t, u))
    monkeypatch.setattr(integrator._LookupPlan, "__init__",
                        lambda self, *args: plans.append(args[2]) or build(self, *args))
    traj = integrate(scenario.model, scenario.history, scenario.config)
    assert rows == [6] * (4 * scenario.config.steps)
    assert sorted(plans) == [0.0, 0.5, 1.0]
    # the two filters ride in the record, out of the states
    assert traj.states.shape == (scenario.config.steps + 1, 4)
    assert traj._record.shape == (scenario.config.steps + 1, 8)


def test_distributed_delay_filter_agrees_with_a_fine_trapezoid():
    # the scenario's g as a custom output reads the trapezoid nodes of each
    # density, here at a 2e-3 spacing, where the filter reads one exact node
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                             / "distributed_delay.json")
    model = scenario.model
    config = IntegratorConfig(method="rk4", h=1e-3, horizon=0.5)
    custom = OutputFunction(dim=model.n, fn=model.output.fn, kappa=model.output.kappa)
    trapezoid = NetworkModel(model.m, model.node, custom, model.coupling, model.delays,
                             model.kernels, node_spacing=2e-3)
    assert trapezoid.taps.chain(config.h)[0] is trapezoid.taps
    exact = integrate(model, scenario.history, config).states
    quadrature = integrate(trapezoid, scenario.history, config).states
    assert 0.0 < np.max(np.abs(exact - quadrature)) <= 1e-6


@pytest.mark.parametrize("c", [0.05, 10.0])
@pytest.mark.parametrize("tau", [0.0, 0.01])
@pytest.mark.parametrize("topology, m", [("all-to-all", 3), ("all-to-all", 5), ("ring", 5)])
def test_synchronized_nodes_stay_bitwise_synchronized(topology, m, tau, c):
    # every row adds its off-diagonal couplings in j order and its self pair
    # last, so on the manifold each row computes the same sum of the same
    # terms and no rounding difference seeds a transverse perturbation
    model = make_example(3, node=chua_node(), Gamma=np.eye(3), tau=tau, topology=topology,
                         c=c, m=m)
    traj = integrate(model, HistoryFunction.constant(np.tile([0.7, -0.1, -0.6], m)),
                     IntegratorConfig(method="rk4", h=2e-3, horizon=2.0))
    nodes = traj.states.reshape(len(traj), m, 3)
    assert np.all(np.abs(nodes).max(axis=(1, 2)) > 0.1)
    assert np.array_equal(nodes, np.broadcast_to(nodes[:, :1], nodes.shape))


def spy_lookup_plans(monkeypatch, force_permutation=False):
    """Record (stage offset, permutation kept) for every lookup plan built;
    with ``force_permutation`` a plan in node order takes an explicit
    ``arange`` in place of no permutation."""
    seen, build = [], integrator._LookupPlan.__init__

    def spy(self, lags, *args):
        build(self, lags, *args)
        if force_permutation and self.position is None:
            self.position = np.arange(lags.size)
        seen.append((args[1], self.position is not None))

    monkeypatch.setattr(integrator._LookupPlan, "__init__", spy)
    return seen


def dirac_only_models():
    # one atom per kernel, every delay 0 or at least the step
    yield make_example(3, node=chua_node(), Gamma=np.eye(3), tau=0.01, topology="all-to-all",
                       c=1.0, m=4)
    yield make_example(1, node=linear_node([[0.0, 1.0], [-1.0, -0.5]]),
                       A=named_topology("all-to-all", 3), Gamma=np.eye(2))
    yield oracle_network(m=3, delays=DelaySchedule.constant(
        np.array([[0.0, 0.05, 0.02], [0.03, 0.0, 0.05], [0.02, 0.04, 0.01]])),
        kernels=dirac(0.015))


@pytest.mark.parametrize("model", dirac_only_models())
def test_taps_in_lookup_order_build_no_permutation(monkeypatch, model):
    seen = spy_lookup_plans(monkeypatch)
    initial = HistoryFunction.constant(np.tile([0.7, -0.1, -0.6, 0.2][:model.n], model.m))
    integrate(model, initial, IntegratorConfig(method="rk4", h=0.01, horizon=0.2))
    assert sorted(c for c, _ in seen) == [0.0, 0.5, 1.0]
    assert not any(kept for _, kept in seen)


def permuted_models():
    """Models whose lookup plans still need a permutation: a delay below the
    step beside a longer one, a custom g on a density's quadrature nodes
    (by increasing lag within the tap), and a delay table whose off-diagonal
    lags swap order at t = 0.305."""
    yield "below-h", oracle_network(delays=DelaySchedule.constant(
        np.array([[0.0, 0.005], [0.05, 0.0]])))
    yield "custom-density", oracle_network(
        delays=DelaySchedule.offdiagonal(0.05), kernels=exponential(2.0), node_spacing=1e-2,
        output=CURVED)
    yield "lags-swap", oracle_network(delays=DelaySchedule.table(
        [0.0, 0.61], [[[0.0, 0.1], [0.25, 0.0]], [[0.0, 0.25], [0.1, 0.0]]]))


@pytest.mark.parametrize("name, model", permuted_models(),
                         ids=[case[0] for case in permuted_models()])
def test_lookup_plans_keep_a_permutation_where_the_order_needs_one(monkeypatch, name, model):
    seen = spy_lookup_plans(monkeypatch)
    integrate(model, TABLE_HISTORY, IntegratorConfig(method="rk4", h=0.01, horizon=0.5))
    assert any(kept for _, kept in seen)
    if name == "lags-swap":
        # in lookup order at the first knot, permuted once the lags cross
        assert not seen[0][1] and seen[-1][1]


def integrate_cases():
    yield "dirac", next(dirac_only_models()), HistoryFunction.constant(
        np.tile([0.7, -0.1, -0.6], 4)), IntegratorConfig(h=2e-3, horizon=0.2)
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                             / "distributed_delay.json")
    yield "distributed-delay", scenario.model, scenario.history, IntegratorConfig(
        h=scenario.config.h, horizon=200 * scenario.config.h)
    for name, model in permuted_models():
        yield name, model, TABLE_HISTORY, IntegratorConfig(h=0.01, horizon=0.5)


@pytest.mark.parametrize("name, model, initial, config", integrate_cases(),
                         ids=[case[0] for case in integrate_cases()])
def test_skipping_the_identity_permutation_keeps_every_bit(monkeypatch, name, model, initial,
                                                           config):
    plain = integrate(model, initial, config)
    seen = spy_lookup_plans(monkeypatch, force_permutation=True)
    forced = integrate(model, initial, config)
    assert all(kept for _, kept in seen)
    assert forced._record.tobytes() == plain._record.tobytes()
    assert forced.stage_extrapolation_count == plain.stage_extrapolation_count


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

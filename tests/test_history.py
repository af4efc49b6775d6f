"""Initial history functions, trajectory storage, and the past-deviation sup."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from delaynet.history import (
    HistoryFunction,
    PiecewiseLinear,
    Trajectory,
    sup_history_deviation,
    write_trajectory_csv,
)

from trajectory_past import TrajectoryPast


def make_traj(samples, node_count=1, node_dim=1):
    hist = HistoryFunction.constant(np.asarray(samples[0][1], dtype=float))
    traj = Trajectory(hist, node_count=node_count, node_dim=node_dim)
    for t, x in samples[1:]:
        traj.append(t, np.asarray(x, dtype=float))
    return traj


def test_constant_history_evaluates_everywhere_in_the_past():
    hist = HistoryFunction.constant([1.0])
    for t in (0.0, -5.0, -1e9):
        assert hist.eval(t) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        hist.eval(0.1)


def test_segment_history_switches_to_tail_before_start():
    # sin tabulated at knots on [-2, -0.5]: exact at the knots, linear
    # between them, the first state before -2 and the last one up to 0
    times = np.array([-2.0, -1.0, -0.75, -0.5])
    hist = HistoryFunction.table(times, np.sin(times)[:, None])
    for t in times:
        assert hist.eval(t)[0] == np.sin(t)
    assert hist.eval(-10.0)[0] == np.sin(-2.0)
    assert hist.eval(-0.25)[0] == hist.eval(0.0)[0] == np.sin(-0.5)
    assert hist.eval(-1.5)[0] == pytest.approx(0.5 * (np.sin(-2.0) + np.sin(-1.0)), rel=1e-15)
    assert hist.eval(-0.9)[0] == pytest.approx(0.6 * np.sin(-1.0) + 0.4 * np.sin(-0.75),
                                               rel=1e-14)
    # one batch call mixes times before, between and after the knots, one row each
    ts = [-10.0, -1.5, -1.0, -0.9, 0.0]
    np.testing.assert_array_equal(hist.eval_many(ts), [hist.eval(t) for t in ts])


def test_segment_of_the_wrong_shape_is_rejected():
    # one state row per knot, knots at t <= 0, strictly increasing and finite
    with pytest.raises(ValueError, match=r"2 knot times need as many values, got an array of shape \(1, 2\)"):
        HistoryFunction.table([-1.0, 0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="history knots must be at t <= 0, got t=0.5"):
        HistoryFunction.table([-1.0, 0.5], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="knot times must be strictly increasing"):
        HistoryFunction.table([-1.0, -2.0], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="knot times must be finite"):
        HistoryFunction.table([-np.inf, 0.0], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="value at knot t=-1 is not finite"):
        HistoryFunction.table([-2.0, -1.0, 0.0], [[1.0], [np.nan], [2.0]])
    with pytest.raises(ValueError, match="nonempty vectors"):
        HistoryFunction.constant([])


def test_linear_interpolation_between_samples():
    traj = make_traj([(0.0, [0.0]), (1.0, [2.0])])
    assert traj.eval(0.5) == pytest.approx([1.0])


def test_eval_exact_at_stored_samples():
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.05, 0.3, size=20))
    traj = make_traj([(0.0, rng.standard_normal(3))], node_dim=3)
    stored = [traj.states[0].copy()]
    for t in times:
        x = rng.standard_normal(3)
        traj.append(t, x)
        stored.append(x)
    for t, x in zip([0.0, *times], stored):
        got = traj.eval(t)
        assert np.array_equal(got, x), f"eval({t}) not bitwise equal to stored sample"


def test_eval_refuses_extrapolation():
    traj = make_traj([(0.0, [1.0]), (1.0, [1.5])])
    with pytest.raises(ValueError):
        traj.eval(1.1)


def test_append_rejects_non_monotone_and_non_finite():
    traj = make_traj([(0.0, [1.0]), (1.0, [2.0])])
    with pytest.raises(ValueError):
        traj.append(0.9, np.array([0.0]))
    with pytest.raises(ValueError):
        traj.append(1.1, np.array([np.nan]))
    traj.append(1.1, np.array([3.0]))
    assert traj.eval(1.1) == pytest.approx([3.0])


def test_eval_continuous_across_time_zero():
    line = HistoryFunction.table([-1.0, 0.0], [[0.0], [1.0]])
    traj = Trajectory(line, node_count=1, node_dim=1)
    traj.append(0.25, np.array([1.25]))
    for h in (1e-3, 1e-6, 1e-9):
        gap = abs(traj.eval(h)[0] - traj.eval(-h)[0])
        assert gap <= 2.5 * h


def test_eval_many_matches_scalar_eval_and_handles_past():
    rng = np.random.default_rng(11)
    traj = make_traj([(0.0, rng.standard_normal(2))], node_dim=2)
    for k in range(1, 30):
        traj.append(0.1 * k, rng.standard_normal(2))
    ts = rng.uniform(-1.0, traj.last_time, size=64)
    batch = traj.eval_many(ts)
    for t, row in zip(ts, batch):
        np.testing.assert_array_equal(row, traj.eval(t))


def test_lagged_reads_each_source_block_at_its_own_lag():
    rng = np.random.default_rng(12)
    hist = HistoryFunction.table([-2.0, -0.5], rng.standard_normal((2, 6)))
    traj = Trajectory(hist, node_count=3, node_dim=2)
    for k in range(1, 20):
        traj.append(0.1 * k, rng.standard_normal(6))
    lags = np.array([0.0, 0.05, 0.3, 1.9, 3.0, 0.3])
    sources = np.array([2, 0, 1, 2, 0, 0])
    taps = SimpleNamespace(lags_at=lambda t: lags, sources=sources, plan=object(),
                           starts=np.array([0, 2]))
    got, plan, starts, pairs = TrajectoryPast(traj).lagged(1.9, taps)
    # the unfolded lookup: every node, with the table's own plan and starts,
    # and the table as the pairs that read them
    assert plan is taps.plan and starts is taps.starts and pairs is taps
    for row, lag, j in zip(got, lags, sources):
        np.testing.assert_array_equal(row, traj(1.9 - lag)[2 * j:2 * j + 2])


def test_sup_deviation_zero_for_history_at_reference():
    hist = HistoryFunction.constant([2.0, -1.0])
    traj = Trajectory(hist, node_count=1, node_dim=2)
    assert sup_history_deviation(traj, np.array([2.0, -1.0]), np.eye(2)) == 0.0


def test_sup_deviation_constant_history_gives_half_squared_distance():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.3, -0.7])
    tail = np.array([1.1, 0.4])
    hist = HistoryFunction.constant(tail)
    d2 = float((tail - x0) @ P @ (tail - x0))
    got = sup_history_deviation(hist, x0, P)
    assert got == pytest.approx(0.5 * d2, rel=1e-14)


def test_sup_deviation_linear_segment_peaks_at_left_endpoint():
    # history x0 + s*e1 on [-1, 0]: half the squared distance is s^2/2,
    # maximized at s = -1
    x0 = np.array([0.5, 2.0])
    line = HistoryFunction.table([-1.0, 0.0], [x0 - [1.0, 0.0], x0])
    assert sup_history_deviation(line, x0, np.eye(2)) == 0.5


def test_sup_deviation_is_exact_at_a_knot_between_sample_points():
    # a narrow spike at a knot halfway between two points of a 4,097-point
    # grid on [-1, 0]: the grid misses it entirely, the knots do not
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.3, -0.7])
    spike = np.array([1.1, 0.4])
    peak = -0.5 - 0.5 / 4096
    hist = HistoryFunction.table([-1.0, peak - 1e-5, peak, peak + 1e-5, 0.0],
                                 [x0, x0, spike, x0, x0])
    d = spike - x0
    assert sup_history_deviation(hist, x0, P) == pytest.approx(0.5 * float(d @ P @ d), rel=1e-15)
    grid = np.linspace(-1.0, 0.0, 4097)
    np.testing.assert_allclose(hist.eval_many(grid), np.tile(x0, (grid.size, 1)),
                               rtol=0, atol=1e-15)


def test_table_values_are_exact_at_knots_and_held_outside():
    rng = np.random.default_rng(17)
    times = np.sort(rng.uniform(-3.0, 3.0, size=9))
    values = rng.standard_normal((9, 2, 2))
    table = PiecewiseLinear(times, values)
    for t, v in zip(times, values):
        np.testing.assert_array_equal(table(t), v)
    np.testing.assert_array_equal(table(times[0] - 1.0), values[0])
    np.testing.assert_array_equal(table(times[-1] + 1.0), values[-1])
    for k in range(8):
        w = rng.uniform()
        t = times[k] + w * (times[k + 1] - times[k])
        want = values[k] + (t - times[k]) / (times[k + 1] - times[k]) * (values[k + 1] - values[k])
        np.testing.assert_allclose(table(t), want, rtol=0, atol=1e-14)
    # one knot is a constant: the stored array, read-only, at every time
    single = PiecewiseLinear.constant(values[0])
    assert np.shares_memory(single(-5.0), single.values)
    assert not single(0.0).flags.writeable
    np.testing.assert_array_equal(single.eval_many([-1.0, 0.0, 2.0]), values[[0, 0, 0]])
    # a call takes one float time; an array of times goes to eval_many
    for tab in (table, single):
        with pytest.raises(ValueError, match="eval_many"):
            tab(np.array([[0.0], [1.0]]))


def test_sup_deviation_scales_quadratically():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(2)
    offset = rng.standard_normal(2)
    base = HistoryFunction.constant(x0 + offset)
    scaled = HistoryFunction.constant(x0 + 3.0 * offset)
    P = np.eye(2)
    assert sup_history_deviation(scaled, x0, P) == pytest.approx(
        9.0 * sup_history_deviation(base, x0, P), rel=1e-12)


def test_sup_deviation_rejects_bad_weight_matrix():
    hist = HistoryFunction.constant([1.0, 2.0])
    with pytest.raises(ValueError):
        sup_history_deviation(hist, np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        sup_history_deviation(hist, np.zeros(2), -np.eye(2))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="P must be finite"):
            sup_history_deviation(hist, np.zeros(2), np.array([[bad]]))


def test_sup_deviation_applies_weight_blockwise_per_node():
    # two 1-d nodes, P = [[4]]: energy is 2*sum of squared offsets
    hist = HistoryFunction.constant([1.0, 3.0])
    got = sup_history_deviation(hist, np.array([0.0, 0.0]), np.array([[4.0]]))
    assert got == pytest.approx(0.5 * 4.0 * (1.0 + 9.0), rel=1e-14)


def test_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(5)
    traj = make_traj([(0.0, rng.standard_normal(4))], node_count=2, node_dim=2)
    for k in range(1, 9):
        traj.append(k / 7.0, rng.standard_normal(4))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1_1", "x1_2", "x2_1", "x2_2"]
    assert len(rows) == 1 + len(traj)
    for row, t, x in zip(rows[1:], traj.times, traj.states):
        assert float(row[0]) == t
        np.testing.assert_array_equal(np.array(row[1:], dtype=float), x)


def test_csv_stride_keeps_every_kth_row(tmp_path):
    traj = make_traj([(0.0, [0.0])])
    for k in range(1, 10):
        traj.append(0.1 * k, np.array([float(k)]))
    path = tmp_path / "strided.csv"
    write_trajectory_csv(traj, path, stride=3)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.0, 0.3, 0.6, 0.9])

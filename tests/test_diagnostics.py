"""Weighted norms, growth envelope checks, synchronization measurements."""

import csv
import math

import numpy as np
import pytest

from delaynet.diagnostics import (
    check_envelope,
    p_norm,
    sync_report,
    write_envelope_csv,
    write_sync_csv,
)
from delaynet.dynamics import (
    NodeDynamics,
    chua_node,
    linear_node,
    make_example,
)
from delaynet.history import HistoryFunction, Trajectory
from delaynet.integrator import IntegratorConfig, integrate


def manual_traj(states, dt=0.5, node_count=None, node_dim=None):
    states = [np.asarray(s, dtype=float) for s in states]
    dim = states[0].size
    if node_count is None:
        node_count, node_dim = 1, dim
    traj = Trajectory(HistoryFunction.constant(states[0]),
                      node_count=node_count, node_dim=node_dim)
    for k, s in enumerate(states[1:], start=1):
        traj.append(k * dt, s)
    return traj


def test_p_norm_examples():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    assert p_norm(x, np.eye(2)) == pytest.approx(np.linalg.norm(x))
    assert p_norm(np.array([1.0, 0.0, 0.0, 1.0]), np.diag([2.0, 1.0])) == pytest.approx(math.sqrt(3.0))
    assert p_norm(np.zeros(4), np.diag([2.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        p_norm(x, np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        p_norm(np.zeros(3), np.eye(2))


def test_p_norm_equivalence_bounds():
    rng = np.random.default_rng(2)
    P = np.array([[2.0, 0.4], [0.4, 1.0]])
    eigs = np.linalg.eigvalsh(P)
    lam_min, lam_max = eigs[0], eigs[-1]
    for _ in range(1000):
        x = rng.standard_normal(6)
        sq = p_norm(x, P) ** 2
        nx = float(x @ x)
        assert sq >= lam_min * nx * (1.0 - 1e-9)
        assert sq <= lam_max * nx * (1.0 + 1e-9)


def envelope_columns(traj, P):
    """V and M at every sample, as check_envelope reports them."""
    report = check_envelope(traj, eta=0.0, P=P)
    return report.V, report.M


def test_V_examples():
    traj = manual_traj([[1.0, 2.0], [1.0, 2.0], [4.0, 2.0]])
    V, _ = envelope_columns(traj, np.eye(2))
    assert V[0] == 0.0
    assert V[1] == 0.0
    assert V[2] == pytest.approx(0.5 * 9.0)


def test_M_floor_and_history_domination():
    x0 = np.array([1.0, -1.0])
    traj = manual_traj([x0, x0, x0])
    assert envelope_columns(traj, np.eye(2))[1][-1] == 0.5

    # history at P-distance 2 from x(0)
    hist = HistoryFunction.table([-4.0, 0.0], [x0 - np.array([2.0, 0.0]), x0])
    traj2 = Trajectory(hist, node_count=1, node_dim=2)
    traj2.append(1.0, x0 + np.array([0.5, 0.0]))
    assert envelope_columns(traj2, np.eye(2))[1][-1] == pytest.approx(2.0)


def test_M_tracks_running_sup_of_V():
    traj = manual_traj([[0.0], [1.0], [3.0], [2.0], [5.0]], dt=1.0)
    vals = list(envelope_columns(traj, np.eye(1))[1])
    assert vals == [0.5, 0.5, pytest.approx(4.5), pytest.approx(4.5), pytest.approx(12.5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_M_nondecreasing_and_dominates_V_on_random_trajectory():
    rng = np.random.default_rng(7)
    traj = manual_traj([rng.standard_normal(4) for _ in range(40)], dt=0.25,
                       node_count=2, node_dim=2)
    P = np.array([[1.5, 0.2], [0.2, 1.0]])
    V, Ms = envelope_columns(traj, P)
    assert all(m >= 0.5 for m in Ms)
    assert all(a <= b + 1e-15 for a, b in zip(Ms, Ms[1:]))
    for v, m in zip(V, Ms):
        assert v <= m + 1e-15


def test_envelope_passes_for_contracting_node():
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    model = make_example(1, node=node, A=np.zeros((1, 1)), Gamma=np.eye(1))
    traj = integrate(model, HistoryFunction.constant([1.0]),
                     IntegratorConfig(method="rk4", h=1e-2, horizon=5.0))
    report = check_envelope(traj, eta=0.5, P=np.eye(1), rel_tol=1e-6)
    assert report.verdict
    # V never exceeds 1/2, so M stays at the floor and the violation is zero at t=0
    np.testing.assert_allclose(report.M, 0.5)
    assert report.max_rel_violation == pytest.approx(0.0, abs=1e-15)
    assert report.state_bound_ok
    assert np.all(report.state_norm <= report.state_bound + 1e-12)


def test_envelope_constant_trajectory_zero_violation():
    traj = manual_traj([[2.0], [2.0], [2.0]])
    report = check_envelope(traj, eta=1.0, P=np.eye(1))
    assert report.verdict
    assert report.max_rel_violation == pytest.approx(0.0, abs=1e-15)


def test_envelope_rejects_vacuous_exponent_on_growth():
    traj = manual_traj([[0.0], [1.0], [2.0], [4.0]], dt=1.0)
    report = check_envelope(traj, eta=0.0, P=np.eye(1))
    assert not report.verdict
    assert report.max_rel_violation > 1.0
    with pytest.raises(ValueError):
        check_envelope(traj, eta=-0.1, P=np.eye(1))


def test_envelope_survives_huge_exponents():
    traj = manual_traj([[0.0], [1.0], [2.0]], dt=5.0)
    report = check_envelope(traj, eta=500.0, P=np.eye(1))
    assert report.verdict
    assert np.isinf(report.envelope_bound[-1])
    assert np.isfinite(report.log_envelope_bound[-1])
    assert report.state_bound_ok


def test_envelope_report_arrays_aligned():
    traj = manual_traj([[0.0], [0.5], [0.25]])
    report = check_envelope(traj, eta=1.0, P=np.eye(1))
    n = report.times.size
    for arr in (report.V, report.M, report.envelope_bound, report.state_norm,
                report.state_bound, report.log_envelope_bound, report.log_state_bound):
        assert arr.shape == (n,)
    s = report.summary()
    assert set(s) == {"eta", "M0", "max_violation", "verdict"}


def test_sync_zero_distance_on_the_synchronization_manifold():
    # identical nodes, identical histories, zero-row-sum coupling: the
    # coupling cancels exactly and all nodes stay bitwise equal
    node = chua_node()
    model = make_example(3, node=node, Gamma=np.diag([1.0, 1.0, 1.0]), tau=0.0,
                         topology="all-to-all", c=2.0, m=3)
    hist = HistoryFunction.constant(np.tile([0.1, -0.2, 0.15], 3))
    traj = integrate(model, hist, IntegratorConfig(method="rk4", h=1e-2, horizon=2.0))
    report = sync_report(traj, threshold=1e-12, window=1.0)
    assert np.all(report.distance == 0.0)
    assert report.synchronized


def test_sync_detects_desynchronized_nodes():
    # uncoupled expanding nodes from distinct starts drift apart
    node = linear_node(np.array([[0.5]]))
    model = make_example(1, node=node, A=np.zeros((2, 2)), Gamma=np.eye(1))
    hist = HistoryFunction.constant([0.1, -0.1])
    traj = integrate(model, hist, IntegratorConfig(method="rk4", h=1e-2, horizon=8.0))
    report = sync_report(traj, threshold=0.1, window=2.0)
    assert not report.synchronized
    assert report.final_window_mean > 0.1


def test_sync_contracting_coupling_synchronizes():
    node = linear_node(np.array([[0.0]]))
    A = 5.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=node, A=A, Gamma=np.eye(1))
    hist = HistoryFunction.constant([1.0, -1.0])
    traj = integrate(model, hist, IntegratorConfig(method="rk4", h=1e-3, horizon=3.0))
    report = sync_report(traj, threshold=1e-3, window=0.5)
    assert report.synchronized


def test_sync_distance_permutation_invariant():
    rng = np.random.default_rng(31)
    states = [rng.standard_normal(6) for _ in range(10)]
    perm = [2, 0, 1]
    permuted = [s.reshape(3, 2)[perm].ravel() for s in states]
    r1 = sync_report(manual_traj(states, node_count=3, node_dim=2),
                     threshold=1.0, window=1.0)
    r2 = sync_report(manual_traj(permuted, node_count=3, node_dim=2),
                     threshold=1.0, window=1.0)
    np.testing.assert_array_equal(r1.distance, r2.distance)


@pytest.mark.parametrize("m, n", [(2, 1), (5, 3), (30, 3), (4, 9)])
def test_sync_distance_is_the_pair_by_pair_maximum(m, n):
    rng = np.random.default_rng(m)
    states = [rng.standard_normal(m * n) * 10.0 ** rng.integers(-3, 4) for _ in range(40)]
    report = sync_report(manual_traj(states, node_count=m, node_dim=n),
                         threshold=1.0, window=1.0)
    blocks = np.array(states).reshape(len(states), m, n)
    want = np.zeros(len(states))
    for i in range(m):
        for j in range(i + 1, m):
            want = np.maximum(want, np.linalg.norm(blocks[:, i] - blocks[:, j], axis=1))
    if n < 8:
        # np.linalg.norm adds fewer than 8 squares in order, as sync_report does
        assert report.distance.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(report.distance, want, rtol=1e-14, atol=0.0)


def test_sync_requires_two_nodes_and_valid_window():
    traj = manual_traj([[1.0], [2.0]])
    with pytest.raises(ValueError):
        sync_report(traj, threshold=0.1, window=0.5)
    traj2 = manual_traj([[1.0, 2.0], [1.0, 2.0]], node_count=2, node_dim=1)
    with pytest.raises(ValueError):
        sync_report(traj2, threshold=0.1, window=10.0)


def test_report_csv_writers(tmp_path):
    traj = manual_traj([[0.0, 1.0], [0.5, 1.0], [0.25, 0.75]], node_count=2, node_dim=1)
    env = check_envelope(traj, eta=1.0, P=np.eye(1))
    env_path = tmp_path / "envelope.csv"
    write_envelope_csv(env, env_path)
    with open(env_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "V", "M", "envelope_bound", "state_norm", "state_bound"]
    assert len(rows) == 1 + env.times.size
    assert float(rows[1][2]) == env.M[0]

    sr = sync_report(traj, threshold=0.5, window=0.5)
    sync_path = tmp_path / "sync.csv"
    write_sync_csv(sr, sync_path)
    with open(sync_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "max_pairwise_distance"]
    assert float(rows[-1][1]) == sr.distance[-1]

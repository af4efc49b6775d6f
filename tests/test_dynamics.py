"""Network right-hand side assembly, example reductions, assumption probes."""

import sys
import threading

import numpy as np
import pytest

from delaynet.dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    NonFiniteDerivative,
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
from delaynet.certificates import check_assumptions
from delaynet.history import PiecewiseLinear
from delaynet.kernels import dirac, exponential, mixture, uniform


class Past:
    """A past given pointwise by ``fn``, the stacked state of nodes of
    dimension ``n``, with the lookup ``rhs`` makes.

    ``points`` counts the lagged lookups.
    """

    def __init__(self, fn, n):
        self.fn = fn
        self.n = n
        self.points = 0

    def __call__(self, t):
        return self.fn(t)

    def lagged(self, t, taps):
        lags = taps.lags_at(t)
        self.points += len(lags)
        rows = np.array([self.fn(t - lag)[j * self.n:(j + 1) * self.n]
                         for lag, j in zip(lags, taps.sources)])
        return rows, taps.plan, taps.starts, taps


def pairwise_rhs(model, t, past):
    """Oracle: the network derivative summed pair by pair, node by node."""
    m, n = model.m, model.n
    X = past(t).reshape(m, n)
    A = model.coupling.matrix(t)
    out = np.empty((m, n))
    for i in range(m):
        out[i] = model.node.fn(t, X[i])
        for j in range(m):
            if A[i, j] == 0.0:
                continue
            tau = model.delays.value(i, j, t)
            plan = model.plans[i][j]
            for loc, w in zip(plan.locations, plan.weights):
                lagged = past.fn(t - tau - loc).reshape(m, n)[j]
                out[i] += A[i, j] * w * model.output.fn(t, lagged)
    return out.ravel()


def lerp(times, values, t):
    """Oracle: the table's value at t, linear between knots, held outside."""
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    k = next(k for k in range(1, len(times)) if t <= times[k])
    w = (t - times[k - 1]) / (times[k] - times[k - 1])
    return values[k - 1] + w * (values[k] - values[k - 1])


def random_zero_row_sum_matrix(rng, m):
    A = rng.uniform(0.0, 2.0, size=(m, m))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def test_uncoupled_linear_node_rhs():
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    model = NetworkModel(m=1, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.zeros((1, 1))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    out = rhs(model, 0.7, Past(lambda t: np.array([1.0]), 1))
    assert out == pytest.approx([-1.0], abs=0.0)


def test_example_1_matches_hand_coded_reduction():
    rng = np.random.default_rng(101)
    m, n = 4, 2
    B = rng.standard_normal((n, n))
    A = random_zero_row_sum_matrix(rng, m)
    Gamma = rng.standard_normal((n, n))
    model = make_example(1, node=linear_node(B), A=A, Gamma=Gamma)
    for _ in range(100):
        t = rng.uniform(0.0, 10.0)
        x = rng.standard_normal(m * n)
        got = rhs(model, t, Past(lambda s: x, n))
        X = x.reshape(m, n)
        want = np.stack([B @ X[i] + sum(A[i, j] * (Gamma @ X[j]) for j in range(m))
                         for i in range(m)]).ravel()
        assert np.max(np.abs(got - want)) < 1e-12


def test_example_2_time_varying_coupling_and_output():
    # sinusoidal A and Gamma tabulated at uneven knots on [0, 20]; times
    # before and after the knots see the end values
    rng = np.random.default_rng(202)
    m, n = 3, 2
    B = rng.standard_normal((n, n))
    A0 = random_zero_row_sum_matrix(rng, m)
    G0 = rng.standard_normal((n, n))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 20.0, size=38)), [20.0]])
    As = [(1.0 + 0.5 * np.sin(t)) * A0 for t in times]
    Gs = [(2.0 + np.cos(t)) * G0 for t in times]

    model = make_example(2, node=linear_node(B), A=PiecewiseLinear(times, As),
                         Gamma=PiecewiseLinear(times, Gs))
    for t in [*rng.uniform(-2.0, 22.0, size=100), *times[::7]]:
        x = rng.standard_normal(m * n)
        got = rhs(model, t, Past(lambda s: x, n))
        X = x.reshape(m, n)
        At, Gt = lerp(times, As, t), lerp(times, Gs, t)
        want = np.stack([B @ X[i] + sum(At[i, j] * (Gt @ X[j]) for j in range(m))
                         for i in range(m)]).ravel()
        assert np.max(np.abs(got - want)) < 1e-12


def test_example_3_matches_difference_coupling_both_conventions():
    rng = np.random.default_rng(303)
    m, n, tau, c = 3, 3, 0.4, 2.5
    node = chua_node()
    gamma = np.diag(rng.uniform(0.0, 2.0, size=n))
    base = named_topology("all-to-all", m)
    A_direct = c * base

    for model in (make_example(3, node=node, Gamma=gamma, tau=tau, base=base, c=c),
                  make_example(3, node=node, Gamma=gamma, tau=tau, A=A_direct)):
        for _ in range(100):
            t = rng.uniform(1.0, 5.0)
            p0 = rng.standard_normal(m * n)
            p1 = rng.standard_normal(m * n)
            past = Past(lambda s, p0=p0, p1=p1: p0 + s * p1, n)
            got = rhs(model, t, past)
            now = past(t).reshape(m, n)
            lagged = past(t - tau).reshape(m, n)
            want = np.stack([
                node.eval(t, now[i])
                + sum(A_direct[i, j] * (gamma @ (lagged[j] - now[i]))
                      for j in range(m) if j != i)
                for i in range(m)]).ravel()
            assert np.max(np.abs(got - want)) < 1e-12


def test_example_3_zero_strength_decouples():
    node = chua_node()
    model = make_example(3, node=node, Gamma=np.eye(3), tau=0.1,
                         topology="ring", c=0.0, m=4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(12)
    got = rhs(model, 2.0, Past(lambda s: x, 3))
    want = np.concatenate([node.eval(2.0, x[3 * i:3 * i + 3]) for i in range(4)])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_coupling_term_is_linear_in_matrix_entries():
    rng = np.random.default_rng(404)
    m, n = 3, 2
    node = linear_node(rng.standard_normal((n, n)))
    A = random_zero_row_sum_matrix(rng, m)
    Gamma = rng.standard_normal((n, n))
    m1 = make_example(1, node=node, A=A, Gamma=Gamma)
    m2 = make_example(1, node=node, A=2.0 * A, Gamma=Gamma)
    x = rng.standard_normal(m * n)
    f_only = np.concatenate([node.eval(0.0, x[n * i:n * i + n]) for i in range(m)])
    c1 = rhs(m1, 0.0, Past(lambda s: x, n)) - f_only
    c2 = rhs(m2, 0.0, Past(lambda s: x, n)) - f_only
    np.testing.assert_allclose(c2, 2.0 * c1, atol=1e-12)


def test_batched_and_scalar_past_agree_with_distributed_kernels():
    rng = np.random.default_rng(55)
    m, n = 2, 2
    node = linear_node(rng.standard_normal((n, n)))
    A = random_zero_row_sum_matrix(rng, m)
    ker = mixture(dirac(0.3, weight=0.5), uniform(0.0, 1.0, weight=0.5))
    model = NetworkModel(m=m, node=node, output=linear_output(rng.standard_normal((n, n))),
                         coupling=CouplingSchedule.constant(A),
                         delays=DelaySchedule.constant(np.array([[0.0, 0.2], [0.5, 0.0]])),
                         kernels=ker, node_spacing=1e-2)

    p0 = rng.standard_normal(m * n)
    p1 = rng.standard_normal(m * n)
    past = Past(lambda s: p0 + np.sin(s) * p1, n)
    t = 3.0
    np.testing.assert_allclose(rhs(model, t, past), pairwise_rhs(model, t, past),
                               rtol=0, atol=1e-12)


def smooth_past(rng, m, n):
    dim = m * n
    p0 = rng.standard_normal(dim)
    p1 = rng.standard_normal(dim)
    omega = rng.uniform(0.5, 2.0, size=dim)
    return Past(lambda s: p0 + np.sin(omega * s) * p1, n)


def test_rhs_matches_pairwise_oracle_on_sparse_rows_and_a_kernel_grid():
    # row 2 has no coupling at all; rows differ in degree; the diagonal, the
    # upper and the lower triangle use different plans, some with many nodes
    rng = np.random.default_rng(61)
    m, n = 4, 2
    A = np.array([[-1.0, 0.5, 0.0, 0.5],
                  [0.3, -0.3, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [0.2, 0.7, 0.1, -1.0]])
    diag = dirac(0.0)
    upper = mixture(dirac(0.1, weight=0.5), uniform(0.0, 0.4, weight=0.5))
    lower = mixture(dirac(0.0, weight=-0.5), dirac(0.3, weight=1.5))
    grid = [[diag if i == j else upper if i < j else lower for j in range(m)]
            for i in range(m)]
    grid[3][2] = exponential(1.0, weight=0.0)  # a plan without nodes adds nothing
    delays = rng.uniform(0.0, 0.6, size=(m, m))
    model = NetworkModel(m=m, node=linear_node(rng.standard_normal((n, n))),
                         output=linear_output(rng.standard_normal((n, n))),
                         coupling=CouplingSchedule.constant(A),
                         delays=DelaySchedule.constant(delays), kernels=grid,
                         node_spacing=1e-2)
    past = smooth_past(rng, m, n)
    for t in (0.5, 2.0, 3.25):
        np.testing.assert_allclose(rhs(model, t, past), pairwise_rhs(model, t, past),
                                   rtol=0, atol=1e-12)
    # the uncoupled row is its node term alone
    x = past(3.25).reshape(m, n)
    np.testing.assert_array_equal(rhs(model, 3.25, past).reshape(m, n)[2],
                                  model.node.eval(3.25, x)[2])


def test_shared_lookups_are_made_once():
    # all-to-all with one delay and one kernel: m pairs read each source,
    # but each source is looked up once per quadrature node
    rng = np.random.default_rng(62)
    m, n = 5, 3
    A = 2.0 * named_topology("all-to-all", m)
    ker = mixture(dirac(0.0, weight=0.5), uniform(0.1, 0.3, weight=0.5))
    model = NetworkModel(m=m, node=chua_node(), output=linear_output(np.eye(n)),
                         coupling=CouplingSchedule.constant(A),
                         delays=DelaySchedule.constant(0.2), kernels=ker, node_spacing=1e-2)
    past = smooth_past(rng, m, n)
    got = rhs(model, 1.0, past)
    assert past.points == m * len(model.plans[0][0])
    np.testing.assert_allclose(got, pairwise_rhs(model, 1.0, past), rtol=0, atol=1e-12)


def test_rhs_sums_each_row_pair_by_pair_in_j_order_bitwise():
    # an asymmetric A whose rows take three to five couplings of unequal
    # sizes, so the order of a row's sum shows in its last bits; pairs
    # (0, 1) and (3, 1) share one tap, whose integral feeds two rows.  A row
    # adds its off-diagonal pairs in j order, then its self pair
    m, n, w = 5, 2, 0.7
    rng = np.random.default_rng(5)
    A = rng.uniform(-2.0, 2.0, (m, m)) * (rng.random((m, m)) < 0.8)
    D = rng.uniform(0.0, 0.5, (m, m))
    D[3, 1] = D[0, 1]
    A[0, 1] = A[3, 1] = 0.4
    node = NodeDynamics(dim=n, fn=lambda t, u: -0.5 * u + u * u * u)
    output = OutputFunction(dim=n, fn=lambda t, u: u - 0.1 * u * u * u, kappa=1.0)
    past = Past(lambda t: np.sin(np.arange(m * n) + 0.3 * t), n)
    t = 1.25
    X = past(t).reshape(m, n)
    want = np.empty((m, n))
    for i in range(m):
        acc = np.zeros(n)
        for j in [j for j in range(m) if j != i] + [i]:
            if A[i, j] != 0.0:
                lagged = past.fn(t - D[i, j]).reshape(m, n)[j]
                acc = acc + A[i, j] * (w * output.fn(t, lagged))
        want[i] = node.fn(t, X[i]) + acc
    for coupling in (CouplingSchedule.constant(A), CouplingSchedule.table([t, t + 1.0], [A, A])):
        model = NetworkModel(m, node, output, coupling, DelaySchedule.constant(D),
                             dirac(0.0, weight=w))
        assert (model.taps.coef is None) == (coupling.knots.times.size > 1)
        assert model.taps.sizes.size == np.count_nonzero(A) - 1
        assert rhs(model, t, past).tobytes() == want.tobytes()


def test_rhs_follows_a_coupling_whose_support_changes():
    # a ring up to t = 1, then a ramp to all-to-all at t = 1.5: each support
    # gives the oracle's result, and returning to the first one gives the
    # first result again
    rng = np.random.default_rng(63)
    m, n = 4, 3
    ring = 1.5 * named_topology("ring", m)
    full = 1.5 * named_topology("all-to-all", m)
    coupling = CouplingSchedule.table([0.0, 1.0, 1.5], [ring, ring, full])
    model = NetworkModel(m=m, node=chua_node(), output=identity_output(n),
                         coupling=coupling, delays=DelaySchedule.offdiagonal(0.3),
                         kernels=dirac())
    past = smooth_past(rng, m, n)
    first = rhs(model, 0.5, past)
    np.testing.assert_array_equal(np.flatnonzero(model.coupling.matrix(0.5)),
                                  np.flatnonzero(ring))
    np.testing.assert_allclose(first, pairwise_rhs(model, 0.5, past), rtol=0, atol=1e-12)
    for t in (1.25, 1.5):
        np.testing.assert_array_equal(np.flatnonzero(model.coupling.matrix(t)),
                                      np.flatnonzero(full))
        np.testing.assert_allclose(rhs(model, t, past), pairwise_rhs(model, t, past),
                                   rtol=0, atol=1e-12)
    np.testing.assert_array_equal(rhs(model, 0.5, past), first)


def test_pairs_zero_at_t_leave_the_rhs_bitwise_unchanged():
    # the table's pairs are the all-to-all ones; where A(t) is the ring, the
    # pairs off the ring add exact zeros, so the result is the ring model's
    rng = np.random.default_rng(67)
    m, n = 4, 3
    ring = 1.5 * named_topology("ring", m)
    full = 1.5 * named_topology("all-to-all", m)
    ker = mixture(dirac(0.0, weight=0.5), uniform(0.1, 0.3, weight=0.5))

    def model(coupling):
        return NetworkModel(m=m, node=chua_node(), output=linear_output(np.diag([1.0, 0.5, 0.2])),
                            coupling=coupling, delays=DelaySchedule.offdiagonal(0.3),
                            kernels=ker, node_spacing=1e-2)

    table = model(CouplingSchedule.table([0.0, 1.0, 1.5], [ring, ring, full]))
    constant = model(CouplingSchedule.constant(ring))
    assert table.taps.pairs.size == m * m
    past = smooth_past(rng, m, n)
    for t in (0.25, 0.5, 1.0):
        np.testing.assert_array_equal(rhs(table, t, past), rhs(constant, t, past))


def test_rhs_with_a_delay_table_matches_oracle():
    rng = np.random.default_rng(64)
    m, n = 3, 2
    times = np.linspace(0.0, 5.0, 11)
    Ds = [np.array([[0.1 * (1 + i + 2 * j) * (1.0 + np.sin(t)) ** 2 for j in range(m)]
                    for i in range(m)]) for t in times]
    model = NetworkModel(m=m, node=linear_node(rng.standard_normal((n, n))),
                         output=linear_output(rng.standard_normal((n, n))),
                         coupling=CouplingSchedule.constant(random_zero_row_sum_matrix(rng, m)),
                         delays=DelaySchedule.table(times, Ds),
                         kernels=mixture(dirac(0.0, 0.5), dirac(0.2, 0.5)))
    past = smooth_past(rng, m, n)
    for t in (0.3, 1.7, 2.0, 4.0, 6.0):
        np.testing.assert_allclose(model.delays.table_for(m)(t), lerp(times, Ds, t),
                                   rtol=0, atol=1e-15)
        assert model.delays.value(1, 2, t) == model.delays.table_for(m)(t)[1, 2]
        np.testing.assert_allclose(rhs(model, t, past), pairwise_rhs(model, t, past),
                                   rtol=0, atol=1e-12)


def test_single_node_network_matches_oracle():
    rng = np.random.default_rng(65)
    model = NetworkModel(m=1, node=linear_node([[-0.5, 1.0], [-1.0, -0.5]]),
                         output=linear_output([[1.0, 0.2], [0.0, 0.5]]),
                         coupling=CouplingSchedule.constant([[0.8]]),
                         delays=DelaySchedule.constant(0.25),
                         kernels=mixture(dirac(0.0, 0.3), uniform(0.0, 0.5, weight=0.7)),
                         node_spacing=1e-2)
    past = smooth_past(rng, 1, 2)
    np.testing.assert_allclose(rhs(model, 2.0, past), pairwise_rhs(model, 2.0, past),
                               rtol=0, atol=1e-12)


def test_negative_delay_names_its_pair():
    # a table negative at one interior knot is rejected when it is built,
    # whatever the coupling; the error names the first such knot and pair
    ok = np.full((3, 3), 0.1)
    bad = ok.copy()
    bad[1, 2] = bad[2, 0] = -0.5
    with pytest.raises(ValueError, match=r"negative delay -0.5 for pair \(1, 2\) at knot t=0.75"):
        DelaySchedule.table([0.0, 0.75, 2.0], [ok, bad, ok])
    with pytest.raises(ValueError, match=r"negative delay -0.5 for pair \(1, 2\) at knot t=0"):
        DelaySchedule.constant(bad)
    for tau in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="delay must be finite and nonnegative"):
            DelaySchedule.offdiagonal(tau)
        with pytest.raises(ValueError, match="delay must be finite and nonnegative"):
            DelaySchedule.constant(tau)
    with pytest.raises(ValueError, match="value at knot t=0.75 is not finite"):
        DelaySchedule.table([0.0, 0.75], [ok, np.full((3, 3), np.nan)])


def test_rows_without_a_coupling_never_read_a_tap():
    # node 2 alone reads an infinite past; the other rows have no pairs and
    # must stay finite, so the error names node 2
    A = np.zeros((3, 3))
    A[2, 2] = 1.0
    model = NetworkModel(m=3, node=linear_node(-np.eye(1)), output=identity_output(1),
                         coupling=CouplingSchedule.constant(A),
                         delays=DelaySchedule.constant(0.5), kernels=dirac())
    past = Past(lambda s: np.array([0.0, 0.0, np.inf if s < 1.0 else 0.0]), 1)
    with pytest.raises(NonFiniteDerivative) as exc:
        rhs(model, 1.0, past)
    assert exc.value.node == 2


def test_threads_sharing_a_model_get_the_single_thread_results():
    # the support flips between neighbouring times; the model is read-only
    # after it is built, so threads interleaving their calls on it get the
    # single-thread results
    rng = np.random.default_rng(66)
    m, n = 4, 3
    ring = 1.5 * named_topology("ring", m)
    full = 1.5 * named_topology("all-to-all", m)
    ts = np.linspace(0.5, 2.5, 41)
    # every other time is a knot, ring and all-to-all in turn; between two
    # knots the support is the all-to-all one
    knots = ts[::2]
    coupling = CouplingSchedule.table(knots, [ring if k % 2 else full for k in range(knots.size)])
    model = NetworkModel(m=m, node=chua_node(), output=identity_output(n),
                         coupling=coupling, delays=DelaySchedule.offdiagonal(0.3),
                         kernels=dirac())
    past = smooth_past(rng, m, n)
    want = [rhs(model, t, past) for t in ts]
    results, errors = {}, []

    def work(k):
        try:
            order = ts if k % 2 else ts[::-1]
            got = {float(t): rhs(model, t, past) for _ in range(5) for t in order}
            results[k] = [got[float(t)] for t in ts]
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    for k in range(4):
        for got, expected in zip(results[k], want):
            np.testing.assert_array_equal(got, expected)


def test_delay_matrix_of_another_size_is_rejected():
    node = linear_node(-np.eye(1))
    with pytest.raises(ValueError, match="delay matrix is 2x2, model has m=3"):
        NetworkModel(m=3, node=node, output=identity_output(1),
                     coupling=CouplingSchedule.constant(np.zeros((3, 3))),
                     delays=DelaySchedule.constant(np.zeros((2, 2))), kernels=dirac())


def test_rhs_reports_non_finite_with_node_index():
    def bad(t, u):
        return np.full_like(u, np.inf)

    node = NodeDynamics(dim=1, fn=bad)
    model = NetworkModel(m=2, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.zeros((2, 2))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    with pytest.raises(NonFiniteDerivative, match="node index 0") as exc:
        rhs(model, 1.5, Past(lambda s: np.zeros(2), 1))
    assert exc.value.t == 1.5
    assert exc.value.node == 0

    # f runs once on the block; the error names the first bad row, not row 0
    def bad_at_two(t, u):
        return np.where(u > 1.5, np.nan, -u)

    node = NodeDynamics(dim=2, fn=bad_at_two)
    model = NetworkModel(m=3, node=node, output=identity_output(2),
                         coupling=CouplingSchedule.constant(np.zeros((3, 3))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    with pytest.raises(NonFiniteDerivative, match="node index 2") as exc:
        rhs(model, 0.5, Past(lambda s: np.array([0.0, 1.0, 1.0, 0.0, 0.0, 2.0]), 2))
    assert exc.value.node == 2


def test_rhs_leaves_the_stage_vector_unchanged():
    # f returns its input, the stage block itself; the coupling is added to
    # a new array, so the caller's vector keeps its values
    node = NodeDynamics(dim=2, fn=lambda t, u: u)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=node, A=A, Gamma=np.eye(2))
    x = np.array([1.0, 2.0, 3.0, 5.0])
    kept = x.copy()
    got = rhs(model, 0.0, Past(lambda s: x, 2))
    np.testing.assert_array_equal(x, kept)
    np.testing.assert_array_equal(got, [3.0, 5.0, 1.0, 2.0])


def test_callables_of_the_wrong_shape_are_rejected():
    # a per-node field that collapses the block names the expected shape
    node = NodeDynamics(dim=2, fn=lambda t, u: np.array([-u[0], -u[1]]))
    model = make_example(1, node=node, A=np.zeros((3, 3)), Gamma=np.eye(2))
    with pytest.raises(ValueError, match=r"node field f returned shape \(2, 2\), expected \(3, 2\)"):
        rhs(model, 0.0, Past(lambda s: np.zeros(6), 2))
    output = OutputFunction(dim=2, fn=lambda t, u: u.sum(axis=-1), kappa=2.0)
    with pytest.raises(ValueError, match=r"output g returned shape \(3,\), expected \(3, 2\)"):
        output.eval_rows(0.0, np.zeros((3, 2)))


def test_factory_validation_errors():
    node = linear_node(np.eye(2))
    good_A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError):
        make_example(1, node=node, A=np.array([[-1.0, 2.0], [1.0, -1.0]]), Gamma=np.eye(2))
    with pytest.raises(ValueError):
        make_example(1, node=node, A=np.array([[1.0, -1.0], [-1.0, 1.0]]), Gamma=np.eye(2))
    with pytest.raises(ValueError):
        make_example(3, node=node, Gamma=np.array([[1.0, 0.2], [0.0, 1.0]]), tau=0.1, A=-good_A)
    with pytest.raises(ValueError):
        make_example(3, node=node, Gamma=np.eye(2), tau=-0.1, A=-good_A)
    with pytest.raises(ValueError):
        make_example(3, node=node, Gamma=np.eye(2), tau=0.1,
                     base=np.array([[-1.0, 0.5], [0.5, -1.0]]), c=1.0)
    with pytest.raises(ValueError):
        make_example(4, node=node, A=good_A, Gamma=np.eye(2))
    with pytest.raises(ValueError, match="kappa must be nonnegative"):
        OutputFunction(dim=2, fn=lambda t, u: u, kappa=-1.0)


def test_named_topologies_are_normalized():
    for name, m in (("ring", 5), ("ring", 2), ("all-to-all", 4)):
        base = named_topology(name, m)
        np.testing.assert_allclose(np.diag(base), -1.0)
        off = base - np.diag(np.diag(base))
        np.testing.assert_allclose(off.sum(axis=1), 1.0, atol=1e-15)
        assert np.min(off) >= 0.0
    with pytest.raises(ValueError):
        named_topology("star", 4)
    with pytest.raises(ValueError):
        named_topology("ring", 1)


def test_chua_vector_field_hand_value_and_lipschitz_hint():
    node = chua_node()
    got = node.eval(0.0, np.array([2.0, 0.5, -1.0]))
    np.testing.assert_allclose(got, [45.0 / 14.0, 0.5, -50.0 / 7.0], rtol=1e-14)
    # the declared constant must dominate sampled difference quotients
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(-3.0, 3.0, size=3)
        b = rng.uniform(-3.0, 3.0, size=3)
        num = np.linalg.norm(node.eval(0.0, a) - node.eval(0.0, b))
        den = np.linalg.norm(a - b)
        if den > 0:
            worst = max(worst, num / den)
    assert worst <= node.lipschitz_hint * (1.0 + 1e-12)
    assert worst > 0.5 * node.lipschitz_hint
    # a block of states is evaluated row by row
    for shape in [(5, 3), (2, 4, 3)]:
        U = rng.uniform(-3.0, 3.0, size=shape)
        rows = np.array([node.eval(0.0, u) for u in U.reshape(-1, 3)])
        assert np.array_equal(node.eval(0.0, U), rows.reshape(shape))


CHUA = dict(alpha=9.0, beta=100.0 / 7.0, m0=-8.0 / 7.0, m1=-5.0 / 7.0)


def chua_by_the_diode_formula(u, alpha, beta, m0, m1):
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    diode = m1 * x + 0.5 * (m0 - m1) * (np.abs(x + 1.0) - np.abs(x - 1.0))
    return np.stack([alpha * (y - x - diode), x - y + z, -beta * y], axis=-1)


def chua_region_jacobian(alpha, beta, slope):
    return np.array([[-alpha * (1.0 + slope), alpha, 0.0],
                     [1.0, -1.0, 1.0],
                     [0.0, -beta, 0.0]])


@pytest.mark.parametrize("rows", [3, 30, 2048])
@pytest.mark.parametrize("params", [CHUA, dict(alpha=15.6, beta=28.0, m0=-1.143, m1=-0.714)],
                         ids=["default", "double-scroll"])
def test_chua_field_matches_the_diode_formula(rows, params):
    # x on the diode's corners, just inside and outside them, and deep in
    # both regions; a (3, 3) block takes them three at a time
    corners = np.array([-1.0, 1.0, -0.5, 0.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                        np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), -3.0, 2.5])
    rng = np.random.default_rng(rows)
    node = chua_node(**params)
    a, b, m0, m1 = params["alpha"], params["beta"], params["m0"], params["m1"]
    for start in range(len(corners)):
        U = rng.uniform(-4.0, 4.0, size=(rows, 3))
        k = min(rows, len(corners))
        U[:k, 0] = np.roll(corners, -start)[:k]
        got = node.eval(0.0, U)
        want = chua_by_the_diode_formula(U, **params)
        # each component is accurate relative to the size of its terms
        x, y = np.abs(U[:, 0]), np.abs(U[:, 1])
        scale = np.stack([a * (y + (1.0 + abs(m1)) * x + abs(m0 - m1)),
                          np.abs(U).sum(axis=1), b * y], axis=-1)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_chua_region_jacobians_match_central_differences():
    node = chua_node()
    h = 1e-4
    rng = np.random.default_rng(5)
    for slope, xs in ((CHUA["m0"], [-0.6, 0.0, 0.4]), (CHUA["m1"], [-2.5, 1.7, 4.0])):
        J = chua_region_jacobian(CHUA["alpha"], CHUA["beta"], slope)
        for x in xs:
            u = np.array([x, *rng.uniform(-2.0, 2.0, size=2)])
            steps = h * np.eye(3)
            fd = (node.eval(0.0, u + steps) - node.eval(0.0, u - steps)).T / (2.0 * h)
            np.testing.assert_allclose(fd, J, rtol=1e-9, atol=1e-9)


def test_chua_lipschitz_hint_is_the_larger_region_norm():
    hint = max(float(np.linalg.norm(chua_region_jacobian(CHUA["alpha"], CHUA["beta"], s), 2))
               for s in (CHUA["m0"], CHUA["m1"]))
    assert chua_node().lipschitz_hint == hint == 16.97537500135668


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("component", [0, 1, 2])
def test_a_non_finite_chua_state_gives_a_non_finite_row_and_names_its_node(bad, component):
    node = chua_node()
    rng = np.random.default_rng(8)
    U = rng.uniform(-3.0, 3.0, size=(4, 3))
    U[2, component] = bad
    with np.errstate(invalid="ignore"):
        got = node.eval(0.0, U)
    assert not np.isfinite(got[2]).all()
    assert np.array_equal(got[[0, 1, 3]], node.eval(0.0, U[[0, 1, 3]]))
    model = NetworkModel(m=4, node=node, output=identity_output(3),
                         coupling=CouplingSchedule.constant(np.zeros((4, 4))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteDerivative) as exc:
        rhs(model, 0.0, Past(lambda s: U.ravel(), 3))
    assert exc.value.node == 2


def test_linear_output_table_reads_each_row_at_its_own_time():
    rng = np.random.default_rng(79)
    times = [0.0, 0.4, 1.3]
    Gs = [rng.standard_normal((3, 3)) for _ in times]
    output = linear_output(PiecewiseLinear(times, Gs))
    t = rng.uniform(-0.5, 2.0, size=(40, 1))
    U = rng.standard_normal((40, 3))
    got = output.eval_rows(t, U)
    for r in range(40):
        assert np.array_equal(got[r], output.eval_rows(float(t[r, 0]), U[r]))
        Gt = lerp(times, Gs, float(t[r, 0]))
        np.testing.assert_allclose(got[r], Gt @ U[r], rtol=1e-12, atol=1e-14)
    G = rng.standard_normal((3, 3))
    assert np.array_equal(linear_output(G).eval_rows(t, U), U @ G.T)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_built_in_linear_maps_round_a_row_alone_as_in_a_block(n):
    # u @ M with a C-ordered M rounds each row of a block as that row alone,
    # up to n = 3 with the BLAS this was written against; with a strided
    # M.T about 1,300 of these 2,081 rows differ in their last bits at n = 2
    # and 3
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    U = 10.0 * rng.standard_normal((2081, n))
    for fn in (linear_node(M).eval, tanh_hopfield_node(M).eval, linear_output(M).eval_rows):
        block = fn(0.0, U)
        assert np.array_equal(block, np.array([fn(0.0, u) for u in U]))
        assert np.array_equal(block, np.concatenate([fn(0.0, U[r:r + 1]) for r in range(len(U))]))


def test_tanh_hopfield_node_bound():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((3, 3))
    node = tanh_hopfield_node(W, bias=[0.1, -0.2, 0.0])
    assert node.lipschitz_hint == pytest.approx(1.0 + np.linalg.norm(W, 2))
    u = rng.standard_normal(3)
    np.testing.assert_allclose(node.eval(0.0, u),
                               -u + W @ np.tanh(u) + np.array([0.1, -0.2, 0.0]))


def test_assumption_checks_pass_for_well_posed_model():
    node = NodeDynamics(dim=2, fn=lambda t, u: -u, lipschitz_hint=1.0)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=node, A=A, Gamma=np.eye(2))
    report = check_assumptions(model, horizon=10.0, sample_budget=800, seed=1)
    assert all(r.passed for r in report.values()), report


def test_assumption_check_finds_output_bound_violation():
    def square(t, u):
        return u * u

    bad_output = OutputFunction(dim=1, fn=square, kappa=1.0)
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    model = NetworkModel(m=2, node=node, output=bad_output,
                         coupling=CouplingSchedule.constant(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                         delays=DelaySchedule.zero(), kernels=dirac())
    report = check_assumptions(model, horizon=5.0, sample_budget=2000, seed=2)
    check = report["output-lipschitz-bound"]
    assert not check.passed
    w = check.witness
    u1, u2 = np.array(w["u1"]), np.array(w["u2"])
    # the witness really violates the declared bound
    assert np.linalg.norm(u1 * u1 - u2 * u2) > 1.0 * np.linalg.norm(u1 - u2)


def test_assumption_check_finds_negative_delay():
    # the delay sin(t) tabulated over the horizon goes negative, so the model
    # cannot be built and no probe is needed; the knot in the error is one
    # where sin really is negative
    times = np.linspace(0.0, 10.0, 41)
    with pytest.raises(ValueError, match=r"negative delay .* at knot t=") as info:
        DelaySchedule.table(times, [np.full((2, 2), np.sin(t)) for t in times])
    t_bad = float(str(info.value).rsplit("t=", 1)[1])
    assert np.sin(t_bad) < 0
    # the nonnegative part of the same schedule builds, and the probes that
    # remain find nothing wrong with the model
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    model = NetworkModel(m=2, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                         delays=DelaySchedule.table(times, [np.full((2, 2), max(np.sin(t), 0.0))
                                                            for t in times]),
                         kernels=dirac())
    report = check_assumptions(model, horizon=10.0, sample_budget=400, seed=3)
    assert all(r.passed for r in report.values()), report


def _pair(node, output):
    return NetworkModel(m=2, node=node, output=output,
                        coupling=CouplingSchedule.constant(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                        delays=DelaySchedule.zero(), kernels=dirac())


def test_assumption_check_fails_a_nan_node_field():
    # every comparison with NaN is False, so a NaN gap must fail, not pass
    nan_field = NodeDynamics(dim=2, fn=lambda t, u: np.full(np.shape(u), np.nan),
                             lipschitz_hint=1.0)
    for node in (nan_field, NodeDynamics(dim=2, fn=nan_field.fn)):
        check = check_assumptions(_pair(node, identity_output(2)), horizon=5.0, seed=0)[
            "node-dynamics-regularity"]
        assert not check.passed
        assert check.witness is not None and check.detail


def test_assumption_check_fails_an_infinite_output():
    inf_output = OutputFunction(dim=2, fn=lambda t, u: np.full(np.shape(u), np.inf), kappa=1.0)
    node = NodeDynamics(dim=2, fn=lambda t, u: -u, lipschitz_hint=1.0)
    report = check_assumptions(_pair(node, inf_output), horizon=5.0, seed=0)
    assert report["node-dynamics-regularity"].passed
    check = report["output-lipschitz-bound"]
    assert not check.passed
    assert check.witness["u1"] != check.witness["u2"]
    assert not np.isfinite(check.witness["gap"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assumption_check_finds_a_discontinuous_field(seed):
    # a sign flip at a 1e-10 scale: the increment over a step of 1e-9 does
    # not shrink below half the one over 1e-6, so the continuity probe fails
    def jumpy(t, u):
        return np.where(np.sin(1e10 * u) > 0, 1.0, -1.0)

    model = _pair(NodeDynamics(dim=1, fn=jumpy), identity_output(1))
    check = check_assumptions(model, horizon=5.0, seed=seed)["node-dynamics-regularity"]
    assert not check.passed
    assert "looks discontinuous" in check.detail
    g6, g9 = check.witness["gaps"]
    assert g6 > 1e-3 and g9 > 0.5 * g6
    u, v = np.array(check.witness["u"]), np.array(check.witness["direction"])
    f0 = jumpy(check.witness["t"], u)
    assert np.linalg.norm(jumpy(0.0, u + 1e-6 * v) - f0) == g6


def test_assumption_check_call_counts_do_not_grow_with_the_budget():
    def counts(budget):
        calls = {"f": 0, "g": 0}

        def f(t, u):
            calls["f"] += 1
            return -u

        def g(t, u):
            calls["g"] += 1
            return u

        model = _pair(NodeDynamics(dim=3, fn=f, lipschitz_hint=1.0),
                      OutputFunction(dim=3, fn=g, kappa=1.0))
        report = check_assumptions(model, horizon=5.0, sample_budget=budget, seed=0)
        assert all(r.passed for r in report.values())
        return calls

    assert counts(400) == counts(4000) == {"f": 2, "g": 1}


def _probe_by_probe(model, horizon, budget, seed):
    # check_assumptions one probe at a time, f and g called on one state at
    # a float t: (name, ok, witness, detail) per check
    rng = np.random.default_rng(seed)
    per = max(50, budget // 4)

    def points(n):
        ts = rng.uniform(0.0, horizon, size=per)
        scales = 10.0 ** rng.uniform(-1.0, 2.0, size=per)
        return ts, rng.uniform(-1.0, 1.0, size=(per, n)) * scales[:, None]

    def lipschitz(name, h, bound, fn, const, ts, u1):
        u2 = u1 + rng.standard_normal(u1.shape) * rng.uniform(1e-3, 2.0, size=(per, 1))
        for t, a, b in zip(ts, u1, u2):
            gap = float(np.linalg.norm(h(t, a) - h(t, b)))
            allowed = bound * float(np.linalg.norm(a - b)) * (1.0 + 1e-9) + 1e-12
            if not gap <= allowed:
                return (name, False, {"t": float(t), "u1": a.tolist(), "u2": b.tolist(),
                                      "gap": gap, "allowed": allowed},
                        f"|{fn}(t,u1)-{fn}(t,u2)| = {gap:.6g} exceeds {const}|u1-u2| = "
                        f"{allowed:.6g} at t={t:.6g}")
        return (name, True, None, "")

    def node_check():
        node, name = model.node, "node-dynamics-regularity"
        ts, u1 = points(node.dim)
        if node.lipschitz_hint is not None:
            check = lipschitz(name, node.eval, node.lipschitz_hint, "f", "L", ts, u1)
            if not check[1]:
                return check
        directions = rng.standard_normal((per // 4, node.dim))
        for t, a, v in zip(ts, u1, directions):
            v = v / np.linalg.norm(v)
            f0 = node.eval(t, a)
            gaps = [float(np.linalg.norm(node.eval(t, a + d * v) - f0)) for d in (1e-6, 1e-9)]
            if not (gaps[0] <= 1e-3 or gaps[1] <= 0.5 * gaps[0]):
                return (name, False, {"t": float(t), "u": a.tolist(),
                                      "direction": v.tolist(), "gaps": gaps},
                        f"f(t, .) looks discontinuous near u={a.tolist()} at t={t:.6g}")
        return (name, True, None, "")

    node = node_check()
    g = model.output
    return [node, lipschitz("output-lipschitz-bound", g.eval_rows, g.kappa, "g", "kappa",
                            *points(g.dim))]


def _jumpy(t, u):
    return np.where(np.sin(1e10 * u) > 0, 1.0, -1.0)


@pytest.mark.parametrize("node, output", [
    (chua_node(), identity_output(3)),
    (NodeDynamics(dim=3, fn=chua_node().fn, lipschitz_hint=5.0), identity_output(3)),
    (chua_node(), OutputFunction(dim=3, fn=lambda t, u: u * np.abs(u), kappa=1.0)),
    (NodeDynamics(dim=3, fn=_jumpy), OutputFunction(dim=3, fn=lambda t, u: 3.0 * u, kappa=2.9)),
], ids=["chua", "chua-small-L", "square-output", "jumpy-node"])
def test_assumption_checks_match_probe_by_probe_testing(node, output):
    # elementwise fields, so batching leaves every value bit for bit as is
    model = _pair(node, output)
    for seed in (0, 1):
        report = check_assumptions(model, horizon=5.0, sample_budget=1000, seed=seed)
        assert [(name, c.passed, c.witness, c.detail) for name, c in report.items()] == \
            _probe_by_probe(model, 5.0, 1000, seed)


def test_coupling_table_breaking_a_demanded_flag_is_rejected():
    # row sums and off-diagonal entries are affine between knots, so the
    # flags are decided at the knots; one bad interior knot is enough
    good = np.array([[-1.0, 1.0], [1.0, -1.0]])
    drift = np.array([[-1.0, 1.1], [1.0, -1.0]])
    negative = np.array([[0.5, -0.5], [1.0, -1.0]])
    times = [0.0, 2.5, 5.0]
    with pytest.raises(ValueError, match="zero row sums demanded but row 0 breaks it at knot t=2.5"):
        CouplingSchedule.table(times, [good, drift, good], zero_row_sums=True)
    with pytest.raises(ValueError, match=r"nonnegative off-diagonal demanded but entry \(0, 1\) "
                                         r"breaks it at knot t=2.5"):
        CouplingSchedule.table(times, [good, negative, good], nonneg_off_diagonal=True)
    with pytest.raises(ValueError, match="zero row sums demanded"):
        make_example(2, node=linear_node(-np.eye(1)), A=PiecewiseLinear(times, [good, drift, good]),
                     Gamma=np.eye(1))
    # undemanded flags are what every knot satisfies
    flags = CouplingSchedule.table(times, [good, drift, good])
    assert not flags.zero_row_sums and flags.nonneg_off_diagonal
    flags = CouplingSchedule.table(times, [good, 2.0 * good, good])
    assert flags.zero_row_sums and flags.nonneg_off_diagonal
    # knots must be strictly increasing and finite
    for bad_times in ([0.0, 5.0, 2.5], [0.0, 2.5, 2.5], [0.0, np.nan, 5.0], [0.0, 2.5, np.inf]):
        with pytest.raises(ValueError, match="knot times must be"):
            CouplingSchedule.table(bad_times, [good, good, good])

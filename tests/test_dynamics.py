"""Network right-hand side assembly, example reductions, assumption probes."""

import numpy as np
import pytest

from delaynet.dynamics import (
    CouplingSchedule,
    DelaySchedule,
    NetworkModel,
    NodeDynamics,
    NonFiniteDerivative,
    OutputFunction,
    check_assumptions,
    chua_node,
    identity_output,
    linear_node,
    linear_output,
    make_example,
    make_node,
    named_topology,
    rhs,
    tanh_hopfield_node,
)
from delaynet.kernels import dirac, mixture, uniform


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
    out = rhs(model, 0.7, lambda t: np.array([1.0]))
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
        got = rhs(model, t, lambda s: x)
        X = x.reshape(m, n)
        want = np.stack([B @ X[i] + sum(A[i, j] * (Gamma @ X[j]) for j in range(m))
                         for i in range(m)]).ravel()
        assert np.max(np.abs(got - want)) < 1e-12


def test_example_2_time_varying_coupling_and_output():
    rng = np.random.default_rng(202)
    m, n = 3, 2
    B = rng.standard_normal((n, n))
    A0 = random_zero_row_sum_matrix(rng, m)
    G0 = rng.standard_normal((n, n))

    def A(t):
        return (1.0 + 0.5 * np.sin(t)) * A0

    def Gamma(t):
        return (2.0 + np.cos(t)) * G0

    model = make_example(2, node=linear_node(B), A=A, Gamma=Gamma, m=m)
    for _ in range(100):
        t = rng.uniform(0.0, 20.0)
        x = rng.standard_normal(m * n)
        got = rhs(model, t, lambda s: x)
        X = x.reshape(m, n)
        At, Gt = A(t), Gamma(t)
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
            past = lambda s, p0=p0, p1=p1: p0 + s * p1
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
    got = rhs(model, 2.0, lambda s: x)
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
    c1 = rhs(m1, 0.0, lambda s: x) - f_only
    c2 = rhs(m2, 0.0, lambda s: x) - f_only
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

    def value(s):
        return p0 + np.sin(s) * p1

    class BatchedPast:
        def __call__(self, s):
            return value(s)

        def eval_many(self, ts):
            ts = np.asarray(ts, dtype=float)
            return p0[None, :] + np.sin(ts)[:, None] * p1[None, :]

    t = 3.0
    np.testing.assert_allclose(rhs(model, t, BatchedPast()), rhs(model, t, value),
                               rtol=0, atol=1e-12)


def test_rhs_reports_non_finite_with_node_index():
    def bad(t, u):
        return np.full_like(u, np.inf)

    node = NodeDynamics(dim=1, fn=bad)
    model = NetworkModel(m=2, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.zeros((2, 2))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    with pytest.raises(NonFiniteDerivative, match="node index 0") as exc:
        rhs(model, 1.5, lambda s: np.zeros(2))
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
        rhs(model, 0.5, lambda s: np.array([0.0, 1.0, 1.0, 0.0, 0.0, 2.0]))
    assert exc.value.node == 2


def test_rhs_leaves_the_stage_vector_unchanged():
    # f returns its input, the stage block itself; the coupling is added to
    # a new array, so the caller's vector keeps its values
    node = NodeDynamics(dim=2, fn=lambda t, u: u)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=node, A=A, Gamma=np.eye(2))
    x = np.array([1.0, 2.0, 3.0, 5.0])
    kept = x.copy()
    got = rhs(model, 0.0, lambda s: x)
    np.testing.assert_array_equal(x, kept)
    np.testing.assert_array_equal(got, [3.0, 5.0, 1.0, 2.0])


def test_callables_of_the_wrong_shape_are_rejected():
    # a per-node field that collapses the block names the expected shape
    node = NodeDynamics(dim=2, fn=lambda t, u: np.array([-u[0], -u[1]]))
    model = make_example(1, node=node, A=np.zeros((3, 3)), Gamma=np.eye(2))
    with pytest.raises(ValueError, match=r"node field f returned shape \(2, 2\), expected \(3, 2\)"):
        rhs(model, 0.0, lambda s: np.zeros(6))
    output = OutputFunction(dim=2, fn=lambda t, u: u.sum(axis=-1), kappa=lambda t: 2.0)
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


def test_tanh_hopfield_node_bound():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((3, 3))
    node = tanh_hopfield_node(W, bias=[0.1, -0.2, 0.0])
    assert node.lipschitz_hint == pytest.approx(1.0 + np.linalg.norm(W, 2))
    u = rng.standard_normal(3)
    np.testing.assert_allclose(node.eval(0.0, u),
                               -u + W @ np.tanh(u) + np.array([0.1, -0.2, 0.0]))


def test_make_node_from_specs():
    assert make_node({"type": "chua"}).name == "chua"
    assert make_node({"type": "linear", "matrix": [[0.0, 1.0], [-1.0, 0.0]]}).dim == 2
    assert make_node({"type": "tanh_hopfield", "weights": [[0.5]]}).dim == 1
    with pytest.raises(ValueError):
        make_node({"type": "lorenz"})
    with pytest.raises(ValueError):
        make_node({"type": "linear"})


def test_assumption_checks_pass_for_well_posed_model():
    node = NodeDynamics(dim=2, fn=lambda t, u: -u, lipschitz_hint=1.0)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=node, A=A, Gamma=np.eye(2))
    report = check_assumptions(model, horizon=10.0, sample_budget=800, seed=1)
    assert report.ok, report.summary()
    assert "no violation" in report.summary()


def test_assumption_check_finds_output_bound_violation():
    def square(t, u):
        return u * u

    bad_output = OutputFunction(dim=1, fn=square, kappa=lambda t: 1.0)
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    model = NetworkModel(m=2, node=node, output=bad_output,
                         coupling=CouplingSchedule.constant(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                         delays=DelaySchedule.zero(), kernels=dirac())
    report = check_assumptions(model, horizon=5.0, sample_budget=2000, seed=2)
    check = report["output-lipschitz-bound"]
    assert not check.ok
    w = check.witness
    u1, u2 = np.array(w["u1"]), np.array(w["u2"])
    # the witness really violates the declared bound
    assert np.linalg.norm(u1 * u1 - u2 * u2) > 1.0 * np.linalg.norm(u1 - u2)


def test_assumption_check_finds_negative_delay():
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    model = NetworkModel(m=2, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                         delays=DelaySchedule(lambda i, j, t: np.sin(t)),
                         kernels=dirac())
    report = check_assumptions(model, horizon=10.0, sample_budget=400, seed=3)
    check = report["delay-nonnegative"]
    assert not check.ok
    assert np.sin(check.witness["t"]) < 0


def test_assumption_check_flags_row_sum_drift():
    node = NodeDynamics(dim=1, fn=lambda t, u: -u, lipschitz_hint=1.0)
    drifting = CouplingSchedule(2, lambda t: np.array([[-1.0, 1.0 + 0.1 * t], [1.0, -1.0]]),
                                zero_row_sums=True, nonneg_off_diagonal=True)
    model = NetworkModel(m=2, node=node, output=identity_output(1),
                         coupling=drifting, delays=DelaySchedule.zero(), kernels=dirac())
    report = check_assumptions(model, horizon=5.0, sample_budget=400, seed=4)
    assert not report["coupling-schedule"].ok
    assert report["coupling-schedule"].witness["row"] == 0

"""Certificate falsification, the delta clamp, and the growth exponent."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from delaynet.certificates import (
    _PROBE_CHUNK,
    ProofConstants,
    QuadCertificate,
    check_quad,
    compute_eta,
    delta_from_cert,
    estimate_envelope_constants,
    format_certificate_report,
    lipschitz_certificate,
)
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
    tanh_hopfield_node,
)
from delaynet.history import PiecewiseLinear
from delaynet.kernels import dirac, exponential, mixture
from delaynet.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def contracting_node(dim=2):
    return NodeDynamics(dim=dim, fn=lambda t, u: -u, lipschitz_hint=1.0)


def expanding_node(dim=2):
    return NodeDynamics(dim=dim, fn=lambda t, u: u, lipschitz_hint=1.0)


def test_certificate_validation():
    QuadCertificate(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        QuadCertificate(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        QuadCertificate(-np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        QuadCertificate(np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        QuadCertificate(np.eye(2), np.zeros(2), 0.0)
    # NaN used to read as "Delta must be diagonal", and inf passed
    for Delta in ([np.nan], [np.inf]):
        with pytest.raises(ValueError, match="Delta must be finite"):
            QuadCertificate([[1.0]], Delta, 0.1)


def test_contraction_passes_at_the_equality_margin():
    # f(u) = -u with Delta = 0, P = I, eps = 1: both sides equal exactly
    cert = QuadCertificate(np.eye(2), np.zeros(2), 1.0)
    result = check_quad(contracting_node(), cert, box=3.0, budget=100000, seed=1)
    assert result.passed
    assert result.probes == 100000


def test_expansion_is_falsified_with_verifiable_witness():
    cert = QuadCertificate(np.eye(2), np.zeros(2), 0.5)
    result = check_quad(expanding_node(), cert, box=3.0, budget=1000, seed=2)
    assert not result.passed
    w = result.witness
    d = np.array(w["u1"]) - np.array(w["u2"])
    assert w["lhs"] == pytest.approx(float(d @ d), rel=1e-12)
    assert w["lhs"] > w["rhs"]


def test_lipschitz_rule_passes_for_tanh_and_chua():
    tanh_node = NodeDynamics(dim=3, fn=lambda t, u: np.tanh(u), lipschitz_hint=1.0)
    cert = lipschitz_certificate(1.0, 3, epsilon=0.1)
    assert check_quad(tanh_node, cert, box=5.0, budget=5000, seed=3).passed

    node = chua_node()
    cert = lipschitz_certificate(node.lipschitz_hint, 3, epsilon=0.1)
    assert check_quad(node, cert, box=10.0, budget=5000, seed=4).passed


def test_check_quad_determinism_and_lowest_index_witness():
    cert = QuadCertificate(np.eye(2), np.zeros(2), 0.5)
    r1 = check_quad(expanding_node(), cert, box=2.0, budget=500, seed=9)
    r2 = check_quad(expanding_node(), cert, box=2.0, budget=500, seed=9)
    assert r1.witness == r2.witness
    # enlarging the budget cannot move the first witness later
    r3 = check_quad(expanding_node(), cert, box=2.0, budget=5000, seed=9)
    assert r3.witness["index"] == r1.witness["index"]


def test_quad_verdict_invariant_under_joint_scaling():
    # P -> cP with epsilon -> c epsilon rescales both sides identically
    for node, epsilon in ((contracting_node(), 1.0), (expanding_node(), 0.25)):
        base = QuadCertificate(np.eye(2), np.zeros(2), epsilon)
        scaled = QuadCertificate(2.0 * np.eye(2), np.zeros(2), 2.0 * epsilon)
        rb = check_quad(node, base, box=3.0, budget=2000, seed=11)
        rs = check_quad(node, scaled, box=3.0, budget=2000, seed=11)
        assert rb.passed == rs.passed
        if not rb.passed:
            assert rb.witness["index"] == rs.witness["index"]


def oracle_check_quad(fn, P, Delta, eps, lo, hi, t_range, budget, seed):
    """The falsifier by its definition: one probe at a time, in draw order."""
    rng = np.random.default_rng(seed)
    D = np.diag(Delta)
    for idx in range(budget):
        t = rng.uniform(t_range[0], t_range[1])
        u1 = rng.uniform(lo, hi)
        u2 = rng.uniform(lo, hi)
        d = u1 - u2
        lhs = float(d @ (P @ (fn(t, u1) - fn(t, u2) - D @ d)))
        rhs = float(-eps * (d @ d))
        if not lhs <= rhs:
            return False, idx + 1, {"index": idx, "t": t, "u1": u1.tolist(),
                                    "u2": u2.tolist(), "lhs": lhs, "rhs": rhs}
    return True, budget, None


def assert_matches_oracle(result, expected):
    passed, probes, witness = expected
    assert (result.passed, result.probes) == (passed, probes)
    if witness is None:
        assert result.witness is None
        return
    got = result.witness
    for key in ("index", "t", "u1", "u2"):
        assert got[key] == witness[key], key
    assert got["lhs"] == pytest.approx(witness["lhs"], rel=1e-12)
    assert got["rhs"] == pytest.approx(witness["rhs"], rel=1e-12)


ORACLE_SEEDS = (0, 7, 123)


def _oracle_cases():
    """(name, node, certificate, box) with passing and failing certificates;
    the failing ones violate at the first probe, rarely, or in between."""
    W = np.array([[2.0, -0.5, 0.0], [0.3, 1.5, 0.4], [0.0, 0.2, 2.5]])
    B = np.array([[-1.0, 2.0], [0.0, -0.5]])
    lam = float(np.max(np.linalg.eigvalsh(0.5 * (B + B.T))))
    switch = NodeDynamics(dim=2, fn=lambda t, u: np.where(t > 9.995, u, -u))
    cases = []
    for name, node, fails in (
            ("chua", chua_node(), QuadCertificate(np.eye(3), np.zeros(3), 0.1)),
            ("tanh_hopfield", tanh_hopfield_node(W), QuadCertificate(np.eye(3), np.zeros(3), 0.1)),
            ("linear", linear_node(B),
             QuadCertificate(np.eye(2), (lam - 0.02) * np.ones(2), 0.01)),
            ("contracting", contracting_node(), QuadCertificate(np.eye(2), np.zeros(2), 1.5)),
            ("expanding", expanding_node(), QuadCertificate(np.eye(2), np.zeros(2), 0.5)),
            ("rare-switch", switch, QuadCertificate(np.eye(2), np.zeros(2), 0.5))):
        L = 1.0 if node.lipschitz_hint is None else node.lipschitz_hint
        P = np.diag(np.arange(1.0, node.dim + 1.0))
        holds = QuadCertificate(P, (L * node.dim + 0.2) * np.ones(node.dim), 0.2)
        box = 4.0 if name != "linear" else (-np.ones(2), np.array([3.0, 0.5]))
        cases.append((f"{name}-holds", node, holds, box))
        cases.append((f"{name}-fails", node, fails, box))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name, node, cert, box", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_chunked_falsifier_matches_the_probe_by_probe_oracle(name, node, cert, box):
    C = _PROBE_CHUNK
    lo, hi = (-box * np.ones(node.dim), box * np.ones(node.dim)) \
        if np.isscalar(box) else box
    for seed in ORACLE_SEEDS:
        longest = 3 * C + 5
        passed, probes, witness = oracle_check_quad(
            node.fn, cert.P, np.diag(cert.Delta), cert.epsilon, lo, hi,
            (0.0, 10.0), longest, seed)
        for budget in (1, C - 1, C, C + 1, longest):
            # a smaller budget is a prefix of the same probe sequence
            if witness is not None and witness["index"] < budget:
                expected = (False, probes, witness)
            else:
                expected = (True, budget, None)
            result = check_quad(node, cert, box, t_range=(0.0, 10.0),
                                budget=budget, seed=seed)
            assert_matches_oracle(result, expected)


def test_oracle_cases_fail_inside_and_across_chunks():
    # the failing cases must exercise witnesses beyond the first chunk
    indices = []
    for name, node, cert, box in ORACLE_CASES:
        if not name.endswith("-fails"):
            continue
        for seed in ORACLE_SEEDS:
            r = check_quad(node, cert, box, t_range=(0.0, 10.0),
                           budget=3 * _PROBE_CHUNK + 5, seed=seed)
            assert not r.passed, name
            indices.append(r.witness["index"])
    assert min(indices) == 0
    assert any(0 < i < _PROBE_CHUNK for i in indices)
    assert any(i > _PROBE_CHUNK for i in indices)


def test_each_probe_reaches_f_at_its_own_time():
    node = NodeDynamics(dim=2, fn=lambda t, u: np.where(t > 5.0, u, -u))
    cert = QuadCertificate(np.eye(2), np.zeros(2), 0.5)
    for seed in range(5):
        result = check_quad(node, cert, box=2.0, t_range=(0.0, 10.0),
                            budget=2000, seed=seed)
        expected = oracle_check_quad(node.fn, cert.P, np.zeros(2), 0.5,
                                     -2.0 * np.ones(2), 2.0 * np.ones(2),
                                     (0.0, 10.0), 2000, seed)
        assert_matches_oracle(result, expected)
        assert result.witness["t"] > 5.0


def test_f_is_called_once_per_chunk():
    calls = []

    def fn(t, u):
        calls.append(u.shape)
        return -u

    cert = QuadCertificate(np.eye(2), np.zeros(2), 1.0)
    C = _PROBE_CHUNK
    assert check_quad(NodeDynamics(dim=2, fn=fn), cert, box=1.0,
                      budget=3 * C + 5, seed=0).passed
    assert calls == [(2 * C, 2)] * 3 + [(10, 2)]


def test_non_finite_field_fails_at_the_first_probe():
    node = NodeDynamics(dim=2, fn=lambda t, u: np.full_like(u, np.nan))
    cert = QuadCertificate(np.eye(2), np.zeros(2), 1.0)
    result = check_quad(node, cert, box=1.0, budget=5000, seed=3)
    assert not result.passed
    assert result.probes == 1
    assert result.witness["index"] == 0
    assert math.isnan(result.witness["lhs"])


@pytest.mark.parametrize("box, t_range, fragment", [
    (([0.0, 1.0], [1.0, 1.0]), (0.0, 1.0), "box: coordinate 1 has hi <= lo"),
    (([-1e308, 0.0], [1e308, 1.0]), (0.0, 1.0), "box: coordinate 0 has a non-finite extent"),
    (([0.0, 0.0], [1.0, np.inf]), (0.0, 1.0), "box: coordinate 1 has a non-finite extent"),
    (([0.0], [1.0, 1.0]), (0.0, 1.0), "box: bound vectors must have 2 entries"),
    (1.0, (10.0, 0.0), "t_range: start 10 is after end 0"),
    (1.0, (-1e308, 1e308), "t_range: [-1e+308, 1e+308] has a non-finite extent"),
], ids=["inverted-box", "overflowing-box", "infinite-box", "short-bound", "reversed-t-range",
        "overflowing-t-range"])
def test_invalid_probe_domain_is_rejected(box, t_range, fragment):
    cert = QuadCertificate(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        check_quad(contracting_node(), cert, box, t_range=t_range, budget=10)


def test_a_single_time_probe_range_is_allowed():
    cert = QuadCertificate(np.eye(2), np.zeros(2), 0.5)
    result = check_quad(expanding_node(), cert, box=1.0, t_range=(3.0, 3.0), budget=10)
    assert result.witness["t"] == 3.0


def test_delta_from_cert_examples():
    assert delta_from_cert(QuadCertificate(np.eye(2), 2.0 * np.ones(2), 1.0)) == pytest.approx(1.0)
    cert = QuadCertificate(np.diag([2.0, 1.0]), np.array([1.0, 3.0]), 0.5)
    assert delta_from_cert(cert) == pytest.approx(2.5, rel=1e-12)
    clamped = delta_from_cert(QuadCertificate(np.eye(2), np.zeros(2), 1.0))
    assert clamped == 1e-12


def test_delta_bounds_the_quadratic_form_on_probes():
    node = chua_node()
    cert = lipschitz_certificate(node.lipschitz_hint, 3, epsilon=0.1)
    delta = delta_from_cert(cert)
    rng = np.random.default_rng(21)
    for _ in range(2000):
        u1 = rng.uniform(-5.0, 5.0, size=3)
        u2 = rng.uniform(-5.0, 5.0, size=3)
        d = u1 - u2
        form = float(d @ (cert.P @ (node.eval(0.0, u1) - node.eval(0.0, u2))))
        assert form <= delta * float(d @ d) + 1e-9


def test_envelope_constants_for_linear_coupling():
    gamma_mat = np.array([[2.0, 0.0], [0.0, 0.5]])
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=contracting_node(), A=A, Gamma=gamma_mat)
    alpha, beta, gamma = estimate_envelope_constants(model, np.zeros(4), horizon=5.0)
    assert alpha == pytest.approx(2.0)       # spectral norm of the output matrix
    assert beta == pytest.approx(1.0)
    assert gamma == pytest.approx(0.0, abs=0.0)   # the origin is an equilibrium


def test_envelope_constants_refuse_a_non_finite_derivative():
    # f is NaN from t = 1.5 on, at the node whose state is positive: no
    # gamma bounds the frozen derivative, and the earliest such sample time
    # and that node are named
    node = NodeDynamics(dim=1, fn=lambda t, u: np.where((t >= 1.5) & (u > 0.0), np.nan, -u))
    model = NetworkModel(m=2, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.zeros((2, 2))),
                         delays=DelaySchedule.zero(), kernels=dirac())
    with pytest.raises(NonFiniteDerivative) as info:
        estimate_envelope_constants(model, np.array([-1.0, 1.0]), horizon=3.0)
    ts = np.linspace(0.0, 3.0, 201)
    assert (info.value.t, info.value.node) == (ts[ts >= 1.5][0], 1)


def test_envelope_gamma_hand_computed_with_signed_mass():
    # one node: f(u) = -u + 1, coupling 2 x(t) through a kernel of signed mass 0.7
    node = NodeDynamics(dim=1, fn=lambda t, u: -u + 1.0, lipschitz_hint=1.0)
    ker = mixture(dirac(0.0, 1.2), dirac(0.4, -0.5))
    model = NetworkModel(m=1, node=node, output=identity_output(1),
                         coupling=CouplingSchedule.constant(np.array([[2.0]])),
                         delays=DelaySchedule.zero(), kernels=ker)
    x0 = np.array([0.5])
    alpha, beta, gamma = estimate_envelope_constants(model, x0, horizon=3.0)
    assert alpha == pytest.approx(1.0)
    assert beta == pytest.approx(2.0)
    # f(x0) + a * x0 * signed mass = 0.5 + 2 * 0.5 * 0.7
    assert gamma == pytest.approx(abs(0.5 + 2.0 * 0.5 * 0.7), rel=1e-12)


def test_envelope_alpha_tracks_time_varying_output():
    # the largest |Gamma_k|_2 sits at a knot between two grid points
    rng = np.random.default_rng(31)
    times = np.array([0.0, 0.6, 2.0 * np.pi / 3.0 + 1e-3, 4.0])
    Gs = [rng.standard_normal((2, 2)) for _ in times]
    Gs[2] = 5.0 * Gs[2] / np.linalg.norm(Gs[2], 2)
    A0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(2, node=contracting_node(), A=A0,
                         Gamma=PiecewiseLinear(times, Gs))
    alpha, beta, _ = estimate_envelope_constants(model, np.zeros(4), horizon=2 * np.pi,
                                                 grid=7)
    assert alpha == max(float(np.linalg.norm(G, 2)) for G in Gs)
    assert beta == 1.0


def test_envelope_beta_and_gamma_take_every_knot_of_A():
    # one entry of A peaks at a knot off the grid; f = 0 and g = identity,
    # so node i's gamma term is |sum_j a_ij(t) x0_j|, largest at that knot
    times = np.array([0.0, 0.1234, 0.3, 5.0])
    calm = np.array([[0.0, 1.0], [0.5, 0.0]])
    peak = np.array([[0.0, -7.5], [0.5, 0.0]])
    model = NetworkModel(m=2, node=NodeDynamics(dim=1, fn=lambda t, u: 0.0 * u),
                         output=identity_output(1),
                         coupling=CouplingSchedule.table(times, [calm, peak, calm, calm]),
                         delays=DelaySchedule.zero(), kernels=dirac())
    x0 = np.array([1.0, 2.0])
    alpha, beta, gamma = estimate_envelope_constants(model, x0, horizon=1.0)
    assert alpha == 1.0
    assert beta == 7.5
    assert gamma == 15.0


def test_envelope_gamma_reads_a_gamma_table_at_each_time():
    # f = 0 and A = [[-1, 1], [1, -1]], so node i's term is Gamma(t) (x0_j - x0_i)
    # with Gamma(t) = s(t) I; s peaks at 4 on t = 1, between the grid points
    # 0.99 and 1.005 of linspace(0, 3, 201), where it is 3.97 and 3.9925
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    Gamma = PiecewiseLinear([0.0, 1.0, 3.0], [np.eye(3), 4.0 * np.eye(3), np.eye(3)])
    model = make_example(2, node=linear_node(np.zeros((3, 3))), A=A, Gamma=Gamma)
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, 6)
    _, _, gamma = estimate_envelope_constants(model, x0, horizon=3.0)
    assert gamma == pytest.approx(3.9925 * np.linalg.norm(x0[3:] - x0[:3]), rel=1e-12)
    assert gamma == oracle_envelope_constants(model, x0, 3.0)[2]


def test_derive_refuses_a_custom_output_that_reads_a_table_at_one_time():
    # table(t) on the column of times would return the value at the first
    # time only and so too small a gamma; it raises instead
    Gamma = PiecewiseLinear([0.0, 1.0, 3.0], [np.eye(3), 4.0 * np.eye(3), np.eye(3)])
    output = OutputFunction(dim=3, fn=lambda t, u: u @ Gamma(t).T, kappa=4.0)
    model = NetworkModel(m=2, node=linear_node(np.zeros((3, 3))), output=output,
                         coupling=CouplingSchedule.constant([[-1.0, 1.0], [1.0, -1.0]]),
                         delays=DelaySchedule.zero(), kernels=dirac(0.0))
    with pytest.raises(ValueError, match="eval_many"):
        ProofConstants.derive(lipschitz_certificate(1.0, 3), model, np.arange(6.0), 3.0)


def oracle_envelope_constants(model, x0, horizon, grid=201):
    """(alpha, beta, gamma, K) by their definitions: one time at a time over
    the grid and the knots of A, one kernel per pair."""
    m, n = model.m, model.n
    X0 = np.asarray(x0, dtype=float).reshape(m, n)
    knot_times = model.coupling.knots.times
    masses = np.array([[model.kernels[i][j].signed_mass() for j in range(m)]
                       for i in range(m)])
    gamma = 0.0
    for t in [*np.linspace(0.0, horizon, grid),
              *knot_times[(knot_times >= 0.0) & (knot_times <= horizon)]]:
        t = float(t)
        coupled = (model.coupling.matrix(t) * masses) @ model.output.fn(t, X0)
        expr = model.node.fn(t, X0) + coupled
        gamma = max(gamma, float(np.max(np.linalg.norm(expr, axis=1))))
    K = sum(model.kernels[i][j].total_variation() for i in range(m) for j in range(m))
    return (model.output.kappa, float(np.max(np.abs(model.coupling.knots.values))),
            gamma, K)


def _counted(obj, calls, name):
    def fn(t, u):
        calls.append((name, np.shape(t), u.shape))
        return obj.fn(t, u)
    if isinstance(obj, NodeDynamics):
        return NodeDynamics(dim=obj.dim, fn=fn, lipschitz_hint=obj.lipschitz_hint)
    return OutputFunction(dim=obj.dim, fn=fn, kappa=obj.kappa)


def _envelope_oracle_cases():
    """(name, model, x0, horizon) for the batched-versus-per-time oracle."""
    rng = np.random.default_rng(41)
    cases = []
    for stem in ("chua_synchronization", "linear_network", "distributed_delay"):
        sc = load_scenario(SCENARIOS / f"{stem}.json")
        cases.append((stem, sc.model, sc.history.eval(0.0), sc.config.horizon))
    ring = 10.0 * np.array([[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]])
    off_grid = CouplingSchedule.table([0.0, 0.1234, 0.7771, 2.0],
                                      [ring, 3.0 * ring, -0.5 * ring, ring])
    cases.append(("coupling-table", NetworkModel(
        m=3, node=chua_node(), output=linear_output(np.diag([1.0, 0.5, 0.2])),
        coupling=off_grid, delays=DelaySchedule.offdiagonal(0.01),
        kernels=mixture(dirac(0.0, 0.8), exponential(2.0, weight=-0.3))),
        rng.uniform(-2.0, 2.0, 9), 1.5))
    times = [0.0, 0.37, 1.1, 2.5]
    Gamma = PiecewiseLinear(times, [rng.standard_normal((2, 2)) for _ in times])
    cases.append(("gamma-table", make_example(
        2, node=linear_node(rng.standard_normal((2, 2))), A=ring, Gamma=Gamma),
        rng.uniform(-1.0, 1.0, 6), 2.0))
    switch = NodeDynamics(dim=2, fn=lambda t, u: np.where(t > 1.0, u, -u))
    cases.append(("t-dependent-f", make_example(1, node=switch, A=ring, Gamma=np.eye(2)),
                  np.array([0.3, -1.2, 0.8, 0.1, -0.4, 2.0]), 2.0))
    cases.append(("single-node-signed-masses", NetworkModel(
        m=1, node=NodeDynamics(dim=1, fn=lambda t, u: -u + 1.0),
        output=identity_output(1), coupling=CouplingSchedule.constant([[2.0]]),
        delays=DelaySchedule.zero(), kernels=mixture(dirac(0.0, 1.2), dirac(0.4, -0.5))),
        np.array([0.5]), 3.0))
    return cases


ENVELOPE_CASES = _envelope_oracle_cases()


@pytest.mark.parametrize("name, model, x0, horizon", ENVELOPE_CASES,
                         ids=[case[0] for case in ENVELOPE_CASES])
def test_envelope_constants_match_the_per_time_oracle(name, model, x0, horizon):
    alpha, beta, gamma, K = oracle_envelope_constants(model, x0, horizon)
    assert estimate_envelope_constants(model, x0, horizon) == (alpha, beta, gamma)
    consts = ProofConstants.derive(lipschitz_certificate(1.0, model.n), model, x0, horizon)
    assert (consts.gamma, consts.K) == (gamma, K)

    calls = []
    counted = NetworkModel(m=model.m, node=_counted(model.node, calls, "f"),
                           output=_counted(model.output, calls, "g"),
                           coupling=model.coupling, delays=model.delays,
                           kernels=model.kernels)
    assert estimate_envelope_constants(counted, x0, horizon)[2] == gamma
    rows = int(201 + np.count_nonzero(model.coupling.knots.times <= horizon)) * model.m
    assert sorted(calls) == [("f", (rows, 1), (rows, model.n)),
                             ("g", (rows, 1), (rows, model.n))]


def test_compute_eta_arithmetic():
    assert compute_eta(1.0, 1.0, 1.0, 0.0, 2, np.eye(2), 1.0) == pytest.approx(4.0)
    got = compute_eta(1.0, 1.0, 1.0, 1.0, 2, 2.0 * np.eye(2), 1.0)
    want = (2.0 + 2.0 * 2.0) / 2.0 + 2.0 * 2.0 * 2.0 / math.sqrt(2.0)
    assert got == pytest.approx(want, rel=1e-14)
    assert compute_eta(0.7, 5.0, 5.0, 0.0, 3, np.eye(2), 0.0) == pytest.approx(1.4)


def test_compute_eta_monotone_in_each_argument():
    base = dict(delta=0.5, alpha=1.2, beta=0.8, gamma=0.3, m=2, K=1.5)
    P = np.diag([1.0, 2.0])
    ref = compute_eta(base["delta"], base["alpha"], base["beta"], base["gamma"],
                      base["m"], P, base["K"])
    for key in ("delta", "alpha", "beta", "gamma", "K"):
        bumped = dict(base)
        bumped[key] = base[key] + 0.5
        got = compute_eta(bumped["delta"], bumped["alpha"], bumped["beta"],
                          bumped["gamma"], bumped["m"], P, bumped["K"])
        assert got >= ref, key
    got = compute_eta(base["delta"], base["alpha"], base["beta"], base["gamma"],
                      base["m"] + 1, P, base["K"])
    assert got >= ref


def test_proof_constants_derive_counts_total_variation():
    node = contracting_node()
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = NetworkModel(m=2, node=node, output=identity_output(2),
                         coupling=CouplingSchedule.constant(A),
                         delays=DelaySchedule.zero(),
                         kernels=exponential(1.0, weight=0.5))
    cert = lipschitz_certificate(1.0, 2, epsilon=0.1)
    consts = ProofConstants.derive(cert, model, np.zeros(4), horizon=2.0)
    assert consts.K == pytest.approx(4 * 0.5)
    assert consts.lambda_min == pytest.approx(1.0)
    assert consts.norm_P == pytest.approx(1.0)
    assert consts.delta == pytest.approx(1.0)   # lambda_max((1.1) I) - 0.1
    assert consts.eta == pytest.approx(compute_eta(1.0, consts.alpha, consts.beta,
                                                   consts.gamma, 2, np.eye(2), 2.0))


def test_report_text_contains_verdict_and_constants():
    node = contracting_node()
    cert = QuadCertificate(np.eye(2), np.zeros(2), 1.0)
    result = check_quad(node, cert, box=2.0, budget=100, seed=5)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    model = make_example(1, node=node, A=A, Gamma=np.eye(2))
    consts = ProofConstants.derive(cert, model, np.zeros(4), horizon=1.0)
    text = format_certificate_report(result, cert, consts)
    for token in ("PASS", "probes: 100", "delta:", "eta:", "alpha:", "K:"):
        assert token in text
    bad = check_quad(expanding_node(), cert, box=2.0, budget=100, seed=5)
    text = format_certificate_report(bad, cert)
    assert "FAIL" in text and "witness" in text

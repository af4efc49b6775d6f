"""Network right-hand side assembly and model factories.

A network couples m copies of one node system through a time-varying matrix,
an output map applied to delayed states, and one delay measure per node pair:

    d/dt x_i(t) = f(t, x_i(t)) + sum_j a_ij(t) * I_ij(t),
    I_ij(t) = integral over s >= 0 of g(t, x_j(t - tau_ij(t) - s)) dK_ij(s).

The integral is evaluated through the pair's quadrature plan, so the right
hand side only ever queries the past at finitely many shifted times.  Model
objects are immutable after construction; ``rhs`` is a pure function of
(t, past) and may be shared across concurrent integrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import DelayKernel, QuadraturePlan, build_quadrature, dirac

__all__ = [
    "NodeDynamics",
    "OutputFunction",
    "CouplingSchedule",
    "DelaySchedule",
    "NetworkModel",
    "NonFiniteDerivative",
    "rhs",
    "make_example",
    "make_node",
    "named_topology",
    "linear_node",
    "chua_node",
    "tanh_hopfield_node",
    "linear_output",
    "identity_output",
    "check_assumptions",
    "AssumptionReport",
    "AssumptionCheck",
]

_FLAG_TOL = 1e-12


class NonFiniteDerivative(ValueError):
    """The network derivative at node ``node`` and time ``t`` is not finite."""

    def __init__(self, t: float, node: int):
        super().__init__(f"non-finite derivative at node index {node}, t={t}")
        self.t = t
        self.node = node


@dataclass(frozen=True)
class NodeDynamics:
    """Isolated node vector field f(t, u) with an optional Lipschitz hint.

    ``vectorized`` evaluators must accept ``u`` of shape (..., dim) and keep
    the leading axes.  The hint, when given, is a constant L with
    |f(t,u1) - f(t,u2)| <= L |u1 - u2| on the region of interest; it is used
    by assumption checks and certificate construction, not by integration.
    """

    dim: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    lipschitz_hint: float | None = None
    vectorized: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("node dimension must be >= 1")
        if self.lipschitz_hint is not None and not self.lipschitz_hint >= 0:
            raise ValueError("lipschitz_hint must be nonnegative")

    def eval(self, t: float, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, u), dtype=float)


@dataclass(frozen=True)
class OutputFunction:
    """Coupling output g(t, u) together with its declared Lipschitz bound.

    ``kappa(t)`` bounds |g(t,u1) - g(t,u2)| / |u1 - u2| uniformly in u at
    time t.  The bound is declared, not derived; ``check_assumptions`` tries
    to falsify it.
    """

    dim: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    kappa: Callable[[float], float]
    vectorized: bool = False
    name: str = "custom"

    def eval(self, t: float, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, u), dtype=float)

    def eval_rows(self, t: float, rows: np.ndarray) -> np.ndarray:
        """Apply g(t, .) to each row of a (k, dim) block."""
        if self.vectorized:
            return np.asarray(self.fn(t, rows), dtype=float)
        return np.stack([np.asarray(self.fn(t, row), dtype=float) for row in rows])


class CouplingSchedule:
    """Time-varying coupling matrix A(t) plus structural flags.

    Flags record what the schedule promises (zero row sums, nonnegative
    off-diagonal entries); constant matrices are validated against demanded
    flags at construction, time-varying ones are spot checked by
    ``check_assumptions``.
    """

    def __init__(self, m: int, fn: Callable[[float], np.ndarray],
                 zero_row_sums: bool = False, nonneg_off_diagonal: bool = False):
        if m < 1:
            raise ValueError("node count must be >= 1")
        self.m = m
        self._fn = fn
        self.zero_row_sums = zero_row_sums
        self.nonneg_off_diagonal = nonneg_off_diagonal

    @classmethod
    def constant(cls, A, zero_row_sums: bool | None = None,
                 nonneg_off_diagonal: bool | None = None) -> "CouplingSchedule":
        """Wrap a constant matrix; flags default to what the matrix satisfies.

        Passing True for a flag demands it and raises if the matrix violates
        it by more than 1e-12.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("coupling matrix must be square")
        sums_ok, offdiag_ok = _structural_flags(A)
        if zero_row_sums is None:
            zero_row_sums = sums_ok
        elif zero_row_sums and not sums_ok:
            raise ValueError(
                f"zero row sums demanded but max |row sum| = {np.max(np.abs(A.sum(axis=1)))}")
        if nonneg_off_diagonal is None:
            nonneg_off_diagonal = offdiag_ok
        elif nonneg_off_diagonal and not offdiag_ok:
            raise ValueError("nonnegative off-diagonal demanded but a negative entry exists")
        A = A.copy()
        return cls(A.shape[0], lambda t, _A=A: _A,
                   zero_row_sums=zero_row_sums, nonneg_off_diagonal=nonneg_off_diagonal)

    def matrix(self, t: float) -> np.ndarray:
        A = np.asarray(self._fn(t), dtype=float)
        if A.shape != (self.m, self.m):
            raise ValueError(f"coupling schedule returned shape {A.shape}, expected {(self.m, self.m)}")
        return A


def _structural_flags(A: np.ndarray) -> tuple[bool, bool]:
    sums_ok = bool(np.max(np.abs(A.sum(axis=1))) <= _FLAG_TOL)
    off = A - np.diag(np.diag(A))
    offdiag_ok = bool(np.min(off) >= -_FLAG_TOL)
    return sums_ok, offdiag_ok


class DelaySchedule:
    """Per-pair discrete delay tau_ij(t) >= 0 ahead of the kernel shift."""

    def __init__(self, fn: Callable[[int, int, float], float]):
        self._fn = fn

    @classmethod
    def zero(cls) -> "DelaySchedule":
        return cls(lambda i, j, t: 0.0)

    @classmethod
    def constant(cls, tau) -> "DelaySchedule":
        """Scalar: same delay everywhere; matrix: per-pair delays."""
        arr = np.asarray(tau, dtype=float)
        if arr.ndim == 0:
            v = float(arr)
            if v < 0:
                raise ValueError("delay must be nonnegative")
            return cls(lambda i, j, t: v)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("delay matrix must be square")
        if np.min(arr) < 0:
            raise ValueError("delays must be nonnegative")
        arr = arr.copy()
        return cls(lambda i, j, t: float(arr[i, j]))

    @classmethod
    def offdiagonal(cls, tau: float) -> "DelaySchedule":
        """tau between distinct nodes, zero on the diagonal."""
        tau = float(tau)
        if tau < 0:
            raise ValueError("delay must be nonnegative")
        return cls(lambda i, j, t: 0.0 if i == j else tau)

    def value(self, i: int, j: int, t: float) -> float:
        return float(self._fn(i, j, t))


class NetworkModel:
    """m coupled copies of a node system with delayed, measure-weighted links.

    ``kernels`` may be a single DelayKernel (shared by every pair) or an
    m x m nested sequence.  Quadrature plans are built once per distinct
    kernel object at construction.
    """

    def __init__(self, m: int, node: NodeDynamics, output: OutputFunction,
                 coupling: CouplingSchedule, delays: DelaySchedule,
                 kernels, tail_tol: float = 1e-10, node_spacing: float = 1e-3):
        if m < 1:
            raise ValueError("node count must be >= 1")
        if output.dim != node.dim:
            raise ValueError("output dimension must match node dimension")
        if coupling.m != m:
            raise ValueError(f"coupling schedule is {coupling.m}x{coupling.m}, model has m={m}")
        self.m = m
        self.node = node
        self.output = output
        self.coupling = coupling
        self.delays = delays
        self.kernels = _kernel_grid(kernels, m)
        plan_cache: dict[int, QuadraturePlan] = {}
        self.plans = tuple(
            tuple(plan_cache.setdefault(id(k), build_quadrature(k, tail_tol, node_spacing))
                  for k in row)
            for row in self.kernels)
        self.tail_tol = float(tail_tol)
        self.node_spacing = float(node_spacing)

    @property
    def n(self) -> int:
        return self.node.dim

    @property
    def dim(self) -> int:
        return self.m * self.node.dim

    def rhs(self, t: float, past) -> np.ndarray:
        return rhs(self, t, past)


def _kernel_grid(kernels, m: int):
    if isinstance(kernels, DelayKernel):
        return tuple((kernels,) * m for _ in range(m))
    grid = tuple(tuple(row) for row in kernels)
    if len(grid) != m or any(len(row) != m for row in grid):
        raise ValueError(f"kernel grid must be {m}x{m}")
    for row in grid:
        for k in row:
            if not isinstance(k, DelayKernel):
                raise ValueError("kernel grid entries must be DelayKernel instances")
    return grid


def _eval_many(past, ts: np.ndarray) -> np.ndarray:
    fn = getattr(past, "eval_many", None)
    if fn is not None:
        return np.asarray(fn(ts), dtype=float)
    return np.stack([np.asarray(past(float(t)), dtype=float).ravel() for t in ts])


def rhs(model: NetworkModel, t: float, past) -> np.ndarray:
    """Full network derivative at time t given an evaluator for the past.

    ``past`` maps a time <= t to the stacked state vector; a vectorized
    ``eval_many`` attribute is used when present.  All delayed lookups from
    the same source node, delay value, and quadrature plan are shared.
    Raises ``NonFiniteDerivative`` naming the first node whose derivative is
    not finite.
    """
    m, n = model.m, model.node.dim
    x_now = np.asarray(past(t), dtype=float).ravel()
    if x_now.shape != (model.dim,):
        raise ValueError(f"past evaluator returned shape {x_now.shape}, expected ({model.dim},)")
    X = x_now.reshape(m, n)
    A = model.coupling.matrix(t)

    # collect the distinct (source node, delay, plan) lookups and batch them
    keys: dict[tuple[int, float, int], tuple[int, QuadraturePlan, float]] = {}
    pair_key: dict[tuple[int, int], tuple[int, float, int]] = {}
    for i in range(m):
        for j in range(m):
            if A[i, j] == 0.0:
                continue
            tau = model.delays.value(i, j, t)
            if tau < 0:
                raise ValueError(f"negative delay {tau} for pair ({i}, {j}) at t={t}")
            plan = model.plans[i][j]
            key = (j, tau, id(plan))
            keys.setdefault(key, (j, plan, tau))
            pair_key[(i, j)] = key
    conv: dict[tuple[int, float, int], np.ndarray] = {}
    if keys:
        offsets = []
        stops = [0]
        for (j, plan, tau) in keys.values():
            offsets.append(t - tau - plan.locations)
            stops.append(stops[-1] + len(plan))
        values = _eval_many(past, np.concatenate(offsets))
        for idx, (key, (j, plan, tau)) in enumerate(keys.items()):
            block = values[stops[idx]:stops[idx + 1], j * n:(j + 1) * n]
            conv[key] = plan.apply(model.output.eval_rows(t, block))

    out = np.empty((m, n))
    for i in range(m):
        # couplings are summed on their own so that symmetric contributions
        # cancel exactly before the node term is added
        coupled = np.zeros(n)
        for j in range(m):
            k = pair_key.get((i, j))
            if k is not None:
                coupled = coupled + A[i, j] * conv[k]
        acc = model.node.eval(t, X[i]) + coupled
        if not np.all(np.isfinite(acc)):
            raise NonFiniteDerivative(t, i)
        out[i] = acc
    return out.ravel()


# ---------------------------------------------------------------------------
# built-in node systems and outputs

def linear_node(B) -> NodeDynamics:
    """f(t, u) = B u."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("linear node matrix must be square")
    L = float(np.linalg.norm(B, 2))
    return NodeDynamics(dim=B.shape[0], fn=lambda t, u: u @ B.T,
                        lipschitz_hint=L, vectorized=True, name="linear")


def chua_node(alpha: float = 9.0, beta: float = 100.0 / 7.0,
              m0: float = -8.0 / 7.0, m1: float = -5.0 / 7.0) -> NodeDynamics:
    """Chua circuit with the piecewise-linear diode characteristic.

    The vector field is globally Lipschitz: it is affine on each of the three
    slope regions and the overall constant is the larger spectral norm of the
    two region Jacobians.
    """
    alpha, beta, m0, m1 = float(alpha), float(beta), float(m0), float(m1)

    def fn(t, u):
        u = np.asarray(u, dtype=float)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        diode = m1 * x + 0.5 * (m0 - m1) * (np.abs(x + 1.0) - np.abs(x - 1.0))
        return np.stack([alpha * (y - x - diode), x - y + z, -beta * y], axis=-1)

    L = 0.0
    for slope in (m0, m1):
        J = np.array([[-alpha * (1.0 + slope), alpha, 0.0],
                      [1.0, -1.0, 1.0],
                      [0.0, -beta, 0.0]])
        L = max(L, float(np.linalg.norm(J, 2)))
    return NodeDynamics(dim=3, fn=fn, lipschitz_hint=L, vectorized=True, name="chua")


def tanh_hopfield_node(W, bias=None) -> NodeDynamics:
    """f(t, u) = -u + W tanh(u) + bias."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    b = np.zeros(W.shape[0]) if bias is None else np.asarray(bias, dtype=float).ravel()
    if b.shape != (W.shape[0],):
        raise ValueError("bias length must match the weight matrix")
    L = 1.0 + float(np.linalg.norm(W, 2))
    return NodeDynamics(dim=W.shape[0], fn=lambda t, u: -u + np.tanh(u) @ W.T + b,
                        lipschitz_hint=L, vectorized=True, name="tanh_hopfield")


def make_node(spec: dict) -> NodeDynamics:
    """Node system from a tagged record, as found in scenario files."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("node spec must be a dict with a 'type' tag")
    kind = spec["type"]
    if kind == "linear":
        if "matrix" not in spec:
            raise ValueError("linear node spec needs 'matrix'")
        return linear_node(spec["matrix"])
    if kind == "chua":
        return chua_node(alpha=spec.get("alpha", 9.0),
                         beta=spec.get("beta", 100.0 / 7.0),
                         m0=spec.get("m0", -8.0 / 7.0),
                         m1=spec.get("m1", -5.0 / 7.0))
    if kind == "tanh_hopfield":
        if "weights" not in spec:
            raise ValueError("tanh_hopfield node spec needs 'weights'")
        return tanh_hopfield_node(spec["weights"], bias=spec.get("bias"))
    raise ValueError(f"unknown node type {kind!r}")


def linear_output(Gamma) -> OutputFunction:
    """g(t, u) = Gamma u with the exact Lipschitz bound |Gamma|_2."""
    G = np.asarray(Gamma, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("output matrix must be square")
    kap = float(np.linalg.norm(G, 2))
    return OutputFunction(dim=G.shape[0], fn=lambda t, u: u @ G.T,
                          kappa=lambda t: kap, vectorized=True, name="linear")


def identity_output(dim: int) -> OutputFunction:
    return OutputFunction(dim=dim, fn=lambda t, u: u, kappa=lambda t: 1.0,
                          vectorized=True, name="identity")


def time_varying_linear_output(dim: int, Gamma_fn: Callable[[float], np.ndarray]) -> OutputFunction:
    """g(t, u) = Gamma(t) u; the Lipschitz bound is |Gamma(t)|_2 per call."""
    def fn(t, u):
        G = np.asarray(Gamma_fn(t), dtype=float)
        return u @ G.T

    def kappa(t):
        return float(np.linalg.norm(np.asarray(Gamma_fn(t), dtype=float), 2))

    return OutputFunction(dim=dim, fn=fn, kappa=kappa, vectorized=True,
                          name="time_varying_linear")


def named_topology(name: str, m: int) -> np.ndarray:
    """Normalized coupling template: off-diagonal rows sum to 1, diagonal -1.

    Multiply by a strength c to obtain a matrix with diagonal entries -c and
    zero row sums.
    """
    if m < 2:
        raise ValueError("a coupled topology needs m >= 2")
    if name == "all-to-all":
        A = np.full((m, m), 1.0 / (m - 1))
    elif name == "ring":
        A = np.zeros((m, m))
        if m == 2:
            A[0, 1] = A[1, 0] = 1.0
        else:
            for i in range(m):
                A[i, (i - 1) % m] = 0.5
                A[i, (i + 1) % m] = 0.5
    else:
        raise ValueError(f"unknown topology {name!r}")
    np.fill_diagonal(A, -1.0)
    return A


# ---------------------------------------------------------------------------
# reduced-model factories

def make_example(which: int, **params) -> NetworkModel:
    """Classic reduced couplings as instances of the general model.

    1: constant matrix with zero row sums, linear undelayed output.
       params: node, A, Gamma.
    2: time-varying matrix and output, still undelayed.
       params: node, A (callable t -> matrix or constant), Gamma (callable
       t -> matrix or constant), m (required when A is callable), plus
       optional flags zero_row_sums / nonneg_off_diagonal (default True).
    3: constant matrix with diagonal -c, one shared delay off the diagonal,
       diagonal nonnegative output matrix.  The coupling term reduces to
       sum over j != i of a_ij * Gamma * (x_j(t - tau) - x_i(t)).
       params: node, Gamma, tau, and one of A (diagonal entries -c,
       "direct" convention) or base + c (rows of base sum to 1 off the
       diagonal with -1 on it, "normalized" convention) or topology + c + m.
    """
    if which == 1:
        return _example_1(**params)
    if which == 2:
        return _example_2(**params)
    if which == 3:
        return _example_3(**params)
    raise ValueError(f"unknown example {which!r}; supported: 1, 2, 3")


def _example_1(node: NodeDynamics, A, Gamma) -> NetworkModel:
    coupling = CouplingSchedule.constant(A, zero_row_sums=True, nonneg_off_diagonal=True)
    return NetworkModel(m=coupling.m, node=node, output=linear_output(Gamma),
                        coupling=coupling, delays=DelaySchedule.zero(), kernels=dirac())


def _example_2(node: NodeDynamics, A, Gamma, m: int | None = None,
               zero_row_sums: bool = True, nonneg_off_diagonal: bool = True) -> NetworkModel:
    if callable(A):
        if m is None:
            m = int(np.asarray(A(0.0)).shape[0])
        coupling = CouplingSchedule(m, A, zero_row_sums=zero_row_sums,
                                    nonneg_off_diagonal=nonneg_off_diagonal)
    else:
        coupling = CouplingSchedule.constant(A, zero_row_sums=zero_row_sums or None,
                                             nonneg_off_diagonal=nonneg_off_diagonal or None)
    if callable(Gamma):
        output = time_varying_linear_output(node.dim, Gamma)
    else:
        output = linear_output(Gamma)
    return NetworkModel(m=coupling.m, node=node, output=output,
                        coupling=coupling, delays=DelaySchedule.zero(), kernels=dirac())


def _example_3(node: NodeDynamics, Gamma, tau: float, A=None, base=None,
               c: float | None = None, topology: str | None = None,
               m: int | None = None) -> NetworkModel:
    G = np.asarray(Gamma, dtype=float)
    if G.ndim != 2 or G.shape != (node.dim, node.dim):
        raise ValueError("Gamma must be square and match the node dimension")
    if np.any(G != np.diag(np.diag(G))) or np.min(np.diag(G)) < 0:
        raise ValueError("Gamma must be diagonal with nonnegative entries")
    tau = float(tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative")

    if A is not None:
        A = np.asarray(A, dtype=float)
        diag = np.diag(A)
        if np.max(np.abs(diag - diag[0])) > _FLAG_TOL:
            raise ValueError("direct convention needs a constant diagonal (every a_ii = -c)")
        if diag[0] > 0:
            raise ValueError("diagonal entries must be -c with c >= 0")
    else:
        if c is None or c < 0:
            raise ValueError("normalized convention needs a strength c >= 0")
        if base is None:
            if topology is None or m is None:
                raise ValueError("give base or (topology, m) with the strength c")
            base = named_topology(topology, m)
        base = np.asarray(base, dtype=float)
        off_sums = base.sum(axis=1) - np.diag(base)
        if np.max(np.abs(off_sums - 1.0)) > 1e-9 or np.max(np.abs(np.diag(base) + 1.0)) > 1e-9:
            raise ValueError("normalized base needs off-diagonal row sums 1 and diagonal -1")
        A = c * base
    coupling = CouplingSchedule.constant(A, zero_row_sums=True, nonneg_off_diagonal=True)
    return NetworkModel(m=coupling.m, node=node, output=linear_output(G),
                        coupling=coupling, delays=DelaySchedule.offdiagonal(tau),
                        kernels=dirac())


# ---------------------------------------------------------------------------
# assumption falsification

@dataclass
class AssumptionCheck:
    name: str
    ok: bool
    samples: int
    witness: dict | None = None
    detail: str = ""

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: no violation found in {self.samples} samples"
        return f"{self.name}: VIOLATED - {self.detail}"


@dataclass
class AssumptionReport:
    checks: list[AssumptionCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        return "\n".join(c.summary() for c in self.checks)


def check_assumptions(model: NetworkModel, horizon: float, sample_budget: int = 2000,
                      seed: int = 0) -> AssumptionReport:
    """Try to falsify the standing model assumptions by random probing.

    A passing check is evidence, not proof: continuity and Lipschitz bounds
    cannot be established from finitely many samples.  A failing check comes
    with a concrete witness.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    per = max(50, sample_budget // 4)
    report = AssumptionReport()
    report.checks.append(_check_node_regularity(model.node, horizon, per, rng))
    report.checks.append(_check_coupling(model.coupling, horizon, per, rng))
    report.checks.append(_check_output_bound(model.output, horizon, per, rng))
    report.checks.append(_check_delays(model, horizon, per, rng))
    return report


def _sample_points(rng, n, count):
    # mix of moderate and large magnitudes so superlinear growth is caught
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=count)
    return rng.uniform(-1.0, 1.0, size=(count, n)) * scales[:, None]


def _check_node_regularity(node: NodeDynamics, horizon, budget, rng) -> AssumptionCheck:
    name = "node-dynamics-regularity"
    ts = rng.uniform(0.0, horizon, size=budget)
    u1 = _sample_points(rng, node.dim, budget)
    if node.lipschitz_hint is not None:
        L = node.lipschitz_hint
        u2 = u1 + rng.standard_normal((budget, node.dim)) * rng.uniform(1e-3, 2.0, size=(budget, 1))
        for t, a, b in zip(ts, u1, u2):
            gap = float(np.linalg.norm(node.eval(t, a) - node.eval(t, b)))
            allowed = L * float(np.linalg.norm(a - b)) * (1.0 + 1e-9) + 1e-12
            if gap > allowed:
                return AssumptionCheck(
                    name, False, budget,
                    witness={"t": float(t), "u1": a.tolist(), "u2": b.tolist(),
                             "gap": gap, "allowed": allowed},
                    detail=f"|f(t,u1)-f(t,u2)| = {gap:.6g} exceeds L|u1-u2| = {allowed:.6g} at t={t:.6g}")
    # continuity probe: the increment must die out with the step
    for t, a in zip(ts[: budget // 4], u1[: budget // 4]):
        v = rng.standard_normal(node.dim)
        v /= np.linalg.norm(v)
        f0 = node.eval(t, a)
        gaps = [float(np.linalg.norm(node.eval(t, a + d * v) - f0)) for d in (1e-6, 1e-9)]
        if gaps[0] > 1e-3 and gaps[1] > 0.5 * gaps[0]:
            return AssumptionCheck(
                name, False, budget,
                witness={"t": float(t), "u": a.tolist(), "direction": v.tolist(),
                         "gaps": gaps},
                detail=f"f(t, .) looks discontinuous near u={a.tolist()} at t={t:.6g}")
    return AssumptionCheck(name, True, budget)


def _check_coupling(coupling: CouplingSchedule, horizon, budget, rng) -> AssumptionCheck:
    name = "coupling-schedule"
    ts = np.concatenate([np.linspace(0.0, horizon, min(budget, 200)),
                         rng.uniform(0.0, horizon, size=budget)])
    for t in ts:
        A = coupling.matrix(float(t))
        if coupling.zero_row_sums:
            sums = A.sum(axis=1)
            i = int(np.argmax(np.abs(sums)))
            if abs(sums[i]) > _FLAG_TOL:
                return AssumptionCheck(
                    name, False, ts.size,
                    witness={"t": float(t), "row": i, "row_sum": float(sums[i])},
                    detail=f"row {i} of A({t:.6g}) sums to {sums[i]:.3g}, zero row sums promised")
        if coupling.nonneg_off_diagonal:
            off = A - np.diag(np.diag(A))
            if np.min(off) < -_FLAG_TOL:
                i, j = np.unravel_index(int(np.argmin(off)), off.shape)
                return AssumptionCheck(
                    name, False, ts.size,
                    witness={"t": float(t), "entry": [int(i), int(j)], "value": float(A[i, j])},
                    detail=f"A({t:.6g})[{i},{j}] = {A[i, j]:.3g} < 0, nonnegative off-diagonal promised")
        gap = float(np.max(np.abs(coupling.matrix(float(t) + 1e-9) - A)))
        if gap > 1e-3:
            return AssumptionCheck(
                name, False, ts.size, witness={"t": float(t), "jump": gap},
                detail=f"A jumps by {gap:.3g} across t={t:.6g}")
    return AssumptionCheck(name, True, int(ts.size))


def _check_output_bound(output: OutputFunction, horizon, budget, rng) -> AssumptionCheck:
    name = "output-lipschitz-bound"
    ts = rng.uniform(0.0, horizon, size=budget)
    u1 = _sample_points(rng, output.dim, budget)
    u2 = u1 + rng.standard_normal((budget, output.dim)) * rng.uniform(1e-3, 2.0, size=(budget, 1))
    for t, a, b in zip(ts, u1, u2):
        kap = float(output.kappa(float(t)))
        if kap < 0:
            return AssumptionCheck(name, False, budget, witness={"t": float(t), "kappa": kap},
                                   detail=f"declared bound is negative at t={t:.6g}")
        gap = float(np.linalg.norm(output.eval(t, a) - output.eval(t, b)))
        allowed = kap * float(np.linalg.norm(a - b)) * (1.0 + 1e-9) + 1e-12
        if gap > allowed:
            return AssumptionCheck(
                name, False, budget,
                witness={"t": float(t), "u1": a.tolist(), "u2": b.tolist(),
                         "gap": gap, "allowed": allowed},
                detail=f"|g(t,u1)-g(t,u2)| = {gap:.6g} exceeds kappa|u1-u2| = {allowed:.6g} at t={t:.6g}")
    return AssumptionCheck(name, True, budget)


def _check_delays(model: NetworkModel, horizon, budget, rng) -> AssumptionCheck:
    name = "delay-nonnegative"
    ts = np.concatenate([np.linspace(0.0, horizon, 50), rng.uniform(0.0, horizon, size=budget)])
    for t in ts:
        for i in range(model.m):
            for j in range(model.m):
                tau = model.delays.value(i, j, float(t))
                if tau < 0:
                    return AssumptionCheck(
                        name, False, int(ts.size) * model.m * model.m,
                        witness={"t": float(t), "pair": [i, j], "tau": tau},
                        detail=f"tau[{i},{j}]({t:.6g}) = {tau:.6g} < 0")
    return AssumptionCheck(name, True, int(ts.size) * model.m * model.m)

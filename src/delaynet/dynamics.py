"""Network right-hand side assembly and model factories.

A network couples m copies of one node system through a time-varying matrix,
an output map applied to delayed states, and one delay measure per node pair:

    d/dt x_i(t) = f(t, x_i(t)) + sum_j a_ij(t) * I_ij(t),
    I_ij(t) = integral over s >= 0 of g(t, x_j(t - tau_ij(t) - s)) dK_ij(s).

The integral is evaluated through the pair's quadrature plan, so the right
hand side only ever queries the past at finitely many shifted times.

A(t), tau(t) and a linear output's Gamma(t) are piecewise-linear tables
(``history.PiecewiseLinear``), a constant being one knot.  A table is affine
between knots, so the structural flags of A, the signs of the delays and the
bound |Gamma(t)|_2 are decided exactly over the knots at construction.

A model's parameters are fixed at construction.  Its one piece of state is
the tap table ``rhs`` compiled last, the coupling resolved into flat arrays
for one support and set of delays; it is replaced whole, by one attribute
assignment, when either changes.  ``rhs`` is a pure function of (t, past),
and a model may be shared across concurrent integrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .history import PiecewiseLinear
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

    ``fn(t, u)`` is batch-shaped: ``u`` has shape (..., dim), each row is one
    node state, and the result has the shape of ``u``.  The network right
    hand side calls it once on the (m, dim) block of all nodes at a float
    ``t``.  ``check_quad`` calls it on a (k, dim) block with ``t`` a (k, 1)
    column that gives each row its own time, so a field that depends on t
    must broadcast t against u.  The hint,
    when given, is a constant L with |f(t,u1) - f(t,u2)| <= L |u1 - u2| on
    the region of interest; it is used by assumption checks and certificate
    construction, not by integration.
    """

    dim: int
    fn: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    lipschitz_hint: float | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("node dimension must be >= 1")
        if self.lipschitz_hint is not None and not self.lipschitz_hint >= 0:
            raise ValueError("lipschitz_hint must be nonnegative")

    def eval(self, t, u: np.ndarray) -> np.ndarray:
        """f(t, .) on a (..., dim) block of node states; ``t`` is a float or
        a column of per-row times."""
        return _apply_batch(self.fn, t, u, "node field f")


@dataclass(frozen=True)
class OutputFunction:
    """Coupling output g(t, u) together with its declared Lipschitz bound.

    ``fn(t, u)`` is batch-shaped like the node field: ``u`` has shape
    (..., dim) and the result has the same shape.  ``kappa`` bounds
    |g(t,u1) - g(t,u2)| / |u1 - u2| uniformly in u and t, the one bound the
    growth estimate uses.  It is declared, not derived;
    ``check_assumptions`` tries to falsify it.
    """

    dim: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    kappa: float
    name: str = "custom"

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")

    def eval_rows(self, t: float, rows: np.ndarray) -> np.ndarray:
        """g(t, .) on a (..., dim) block, every row in one call."""
        return _apply_batch(self.fn, t, rows, "output g")


def _apply_batch(fn, t, u: np.ndarray, what: str) -> np.ndarray:
    out = np.asarray(fn(t, u), dtype=float)
    if out.shape != np.shape(u):
        raise ValueError(f"{what} returned shape {out.shape}, expected {np.shape(u)}")
    return out


class CouplingSchedule:
    """Coupling matrix A(t), a table of m x m matrices, plus structural flags.

    The flags are zero row sums and nonnegative off-diagonal entries.  Row
    sums and entries are affine in t between knots, so a flag that holds at
    every knot (to 1e-12) holds for all t.  Each flag defaults to whether it
    holds; True demands it and raises, naming a knot, if it does not.
    """

    def __init__(self, knots: PiecewiseLinear, zero_row_sums: bool | None = None,
                 nonneg_off_diagonal: bool | None = None):
        A = knots.values
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError("coupling matrix must be square")
        self.m = A.shape[1]
        self.knots = knots
        self.zero_row_sums = _flag(zero_row_sums, np.abs(A.sum(axis=2)) > _FLAG_TOL,
                                   knots.times, "zero row sums", "row")
        self.nonneg_off_diagonal = _flag(nonneg_off_diagonal,
                                         A - A * np.eye(self.m) < -_FLAG_TOL,
                                         knots.times, "nonnegative off-diagonal", "entry")

    @classmethod
    def constant(cls, A, zero_row_sums: bool | None = None,
                 nonneg_off_diagonal: bool | None = None) -> "CouplingSchedule":
        return cls(PiecewiseLinear.constant(A), zero_row_sums, nonneg_off_diagonal)

    @classmethod
    def table(cls, times, matrices, zero_row_sums: bool | None = None,
              nonneg_off_diagonal: bool | None = None) -> "CouplingSchedule":
        return cls(PiecewiseLinear(times, matrices), zero_row_sums, nonneg_off_diagonal)

    def matrix(self, t: float) -> np.ndarray:
        """A(t); with one knot, the stored read-only matrix."""
        return self.knots(t)


def _flag(demanded: bool | None, broken: np.ndarray, times, what: str, where: str) -> bool:
    """A flag given ``broken``, the (knot, ...) mask of its violations."""
    if demanded is None:
        return not broken.any()
    if demanded and broken.any():
        k, *at = (int(i) for i in np.unravel_index(int(np.argmax(broken)), broken.shape))
        place = at[0] if len(at) == 1 else tuple(at)
        raise ValueError(f"{what} demanded but {where} {place} breaks it "
                         f"at knot t={times[k]:.6g}")
    return bool(demanded)


class DelaySchedule:
    """Per-pair discrete delays tau_ij(t) >= 0 ahead of the kernel shift.

    ``table`` and ``constant`` of a matrix hold a table of m x m delay
    matrices.  ``zero``, ``constant`` of a scalar and ``offdiagonal`` hold
    one delay for the diagonal and one off it, fit every m, and store their
    m x m matrix once per m.  A negative or non-finite delay is rejected at
    construction, naming the pair and the knot.
    """

    def __init__(self, knots: PiecewiseLinear | None, diagonal: float = 0.0,
                 off_diagonal: float = 0.0):
        if knots is None:
            if not all(0.0 <= v < np.inf for v in (diagonal, off_diagonal)):
                raise ValueError("delay must be finite and nonnegative")
        else:
            D = knots.values
            if D.ndim != 3 or D.shape[1] != D.shape[2]:
                raise ValueError("delay matrix must be square")
            negative = D < 0.0
            if negative.any():
                k, i, j = (int(a) for a in np.unravel_index(int(np.argmax(negative)), D.shape))
                raise ValueError(f"negative delay {D[k, i, j]:.6g} for pair ({i}, {j}) "
                                 f"at knot t={knots.times[k]:.6g}")
        self.knots = knots
        self._pair = (float(diagonal), float(off_diagonal))
        self._stored: dict[int, np.ndarray] = {}

    @classmethod
    def zero(cls) -> "DelaySchedule":
        return cls(None)

    @classmethod
    def constant(cls, tau) -> "DelaySchedule":
        """Scalar: same delay everywhere; matrix: per-pair delays."""
        arr = np.asarray(tau, dtype=float)
        if arr.ndim == 0:
            return cls(None, float(arr), float(arr))
        return cls(PiecewiseLinear.constant(arr))

    @classmethod
    def offdiagonal(cls, tau: float) -> "DelaySchedule":
        """tau between distinct nodes, zero on the diagonal."""
        return cls(None, 0.0, float(tau))

    @classmethod
    def table(cls, times, matrices) -> "DelaySchedule":
        """m x m delay matrices at knot times."""
        return cls(PiecewiseLinear(times, matrices))

    def value(self, i: int, j: int, t: float) -> float:
        if self.knots is None:
            return self._pair[i != j]
        return float(self.knots(t)[i, j])

    def matrix(self, t: float, m: int) -> np.ndarray:
        """The m x m matrix of delays at time t, read-only when constant."""
        if self.knots is not None:
            size = self.knots.values.shape[1]
            if size != m:
                raise ValueError(f"delay matrix is {size}x{size}, model has m={m}")
            return self.knots(t)
        D = self._stored.get(m)
        if D is None:
            D = np.full((m, m), self._pair[1])
            np.fill_diagonal(D, self._pair[0])
            D.flags.writeable = False
            self._stored[m] = D
        return D


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
        delays.matrix(0.0, m)  # a delay table must be m x m
        self._taps: _TapTable | None = None

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


class _TapTable:
    """The coupling resolved for one support and its delays, as flat arrays.

    A tap is one distinct (source j, delay, plan) lookup; pairs that share
    one share its quadrature nodes.  Per node: its delay, location and
    source (``plan`` holds the locations and weights, ``starts`` the first
    node of each tap).  ``slot[k, i]`` is the tap of row i's k-th coupling in
    j order, and ``coef_at`` where that coupling's a_ij goes in the flat
    (degree, m) coefficient array.  Slots past a row's last coupling point
    at the zero row appended after the taps, with coefficient 0.0.  A pair
    whose plan has no nodes contributes nothing and gets no slot.
    """

    def __init__(self, model: "NetworkModel", key, support: np.ndarray, taus: np.ndarray):
        m = model.m
        taps: dict[tuple[int, float, int], int] = {}
        sources, delays, plans = [], [], []
        pairs, rows, pair_tap = [], [], []
        for a, tau in zip(support.tolist(), taus.tolist()):
            i, j = divmod(a, m)
            plan = model.plans[i][j]
            if not len(plan):
                continue
            lookup = (j, tau, id(plan))
            if lookup not in taps:
                taps[lookup] = len(plans)
                sources.append(j)
                delays.append(tau)
                plans.append(plan)
            pairs.append(a)
            rows.append(i)
            pair_tap.append(taps[lookup])
        sizes = np.array([len(p) for p in plans], dtype=np.intp)
        self.key = key
        self.node_tau = np.repeat(np.array(delays, dtype=float), sizes)
        self.plan = QuadraturePlan(
            locations=np.concatenate([p.locations for p in plans] or [np.zeros(0)]),
            weights=np.concatenate([p.weights for p in plans] or [np.zeros(0)]),
            truncation_horizon=max((p.truncation_horizon for p in plans), default=0.0),
            tail_mass_bound=max((p.tail_mass_bound for p in plans), default=0.0))
        self.starts = np.cumsum(sizes) - sizes
        # row q*m + j of the lookups viewed as (nodes*m, n) is node q's source block
        self.gather = np.arange(int(sizes.sum())) * m + np.repeat(
            np.array(sources, dtype=np.intp), sizes)
        self.pad = np.zeros((1, model.n))
        # the k-th coupling of row i goes to slot k; rows are sorted
        rows = np.array(rows, dtype=np.intp)
        cols = np.arange(rows.size) - np.searchsorted(rows, rows)
        self.degree = int(cols.max()) + 1 if rows.size else 0
        self.pairs = np.array(pairs, dtype=np.intp)
        self.coef_at = cols * m + rows
        self.slot = np.full((self.degree, m), len(plans), dtype=np.intp)
        self.slot[cols, rows] = pair_tap


def rhs(model: NetworkModel, t: float, past) -> np.ndarray:
    """Full network derivative at time t given an evaluator for the past.

    ``past(t)`` is the stacked state vector at t and ``past.eval_many(ts)``
    the states at an array of times, one row each.  The coupling is compiled
    into a tap table, kept on the model until its support or delays change;
    each call then makes one batch lookup, one g call and one segment sum,
    and f is evaluated once on the (m, n) block of node states.  Raises
    ``NonFiniteDerivative`` naming the first node whose derivative is not
    finite.
    """
    m, n = model.m, model.node.dim
    x_now = np.asarray(past(t), dtype=float).ravel()
    if x_now.shape != (model.dim,):
        raise ValueError(f"past evaluator returned shape {x_now.shape}, expected ({model.dim},)")
    X = x_now.reshape(m, n)
    A = model.coupling.matrix(t)
    support = np.flatnonzero(A)
    taus = model.delays.matrix(t, m).take(support)
    key = (support.tobytes(), taus.tobytes())
    table = model._taps
    if table is None or table.key != key:
        table = model._taps = _TapTable(model, key, support, taus)

    # each row's couplings are summed on their own, in j order, so that
    # symmetric contributions cancel exactly before the node term is added
    coupled = np.zeros((m, n))
    if table.degree:
        values = past.eval_many((t - table.node_tau) - table.plan.locations)
        rows = model.output.eval_rows(t, values.reshape(-1, n).take(table.gather, axis=0))
        conv = np.concatenate((table.plan.apply(rows, table.starts), table.pad))
        coef = np.zeros(table.degree * m)
        coef.put(table.coef_at, A.take(table.pairs))
        coef = coef.reshape(table.degree, m, 1)
        for k in range(table.degree):
            coupled = coupled + coef[k] * conv.take(table.slot[k], axis=0)
    out = model.node.eval(t, X) + coupled
    finite = np.isfinite(out)
    if not finite.all():
        raise NonFiniteDerivative(t, int(np.argmin(finite.all(axis=1))))
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
                        lipschitz_hint=L, name="linear")


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
    return NodeDynamics(dim=3, fn=fn, lipschitz_hint=L, name="chua")


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
                        lipschitz_hint=L, name="tanh_hopfield")


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
    """g(t, u) = Gamma(t) u for a matrix or a ``PiecewiseLinear`` table of
    matrices.  kappa = max over knots of |Gamma_k|_2, which bounds every t
    exactly because the norm is convex along each piece."""
    table = Gamma if isinstance(Gamma, PiecewiseLinear) else PiecewiseLinear.constant(Gamma)
    G = table.values
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise ValueError("output matrix must be square")
    kappa = max(float(np.linalg.norm(Gk, 2)) for Gk in G)
    return OutputFunction(dim=G.shape[1], fn=lambda t, u: u @ table(t).T,
                          kappa=kappa, name="linear")


def identity_output(dim: int) -> OutputFunction:
    return OutputFunction(dim=dim, fn=lambda t, u: u, kappa=1.0, name="identity")


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
       params: node, A and Gamma (each a matrix or a ``PiecewiseLinear``
       table of matrices), plus optional flags zero_row_sums /
       nonneg_off_diagonal (default True: demanded at every knot; False
       leaves the flag to what the knots satisfy).
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


def _example_2(node: NodeDynamics, A, Gamma, zero_row_sums: bool = True,
               nonneg_off_diagonal: bool = True) -> NetworkModel:
    table = A if isinstance(A, PiecewiseLinear) else PiecewiseLinear.constant(A)
    coupling = CouplingSchedule(table, zero_row_sums=zero_row_sums or None,
                                nonneg_off_diagonal=nonneg_off_diagonal or None)
    return NetworkModel(m=coupling.m, node=node, output=linear_output(Gamma),
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
    """Try to falsify the node and output assumptions by random probing.

    A passing check is evidence, not proof: continuity and Lipschitz bounds
    cannot be established from finitely many samples.  A failing check comes
    with a concrete witness.  The coupling flags and the delay signs need no
    probe: they are decided exactly over the knots at construction.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    per = max(50, sample_budget // 4)
    report = AssumptionReport()
    report.checks.append(_check_node_regularity(model.node, horizon, per, rng))
    report.checks.append(_check_output_bound(model.output, horizon, per, rng))
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


def _check_output_bound(output: OutputFunction, horizon, budget, rng) -> AssumptionCheck:
    name = "output-lipschitz-bound"
    ts = rng.uniform(0.0, horizon, size=budget)
    u1 = _sample_points(rng, output.dim, budget)
    u2 = u1 + rng.standard_normal((budget, output.dim)) * rng.uniform(1e-3, 2.0, size=(budget, 1))
    for t, a, b in zip(ts, u1, u2):
        gap = float(np.linalg.norm(output.eval_rows(t, a) - output.eval_rows(t, b)))
        allowed = output.kappa * float(np.linalg.norm(a - b)) * (1.0 + 1e-9) + 1e-12
        if gap > allowed:
            return AssumptionCheck(
                name, False, budget,
                witness={"t": float(t), "u1": a.tolist(), "u2": b.tolist(),
                         "gap": gap, "allowed": allowed},
                detail=f"|g(t,u1)-g(t,u2)| = {gap:.6g} exceeds kappa|u1-u2| = {allowed:.6g} at t={t:.6g}")
    return AssumptionCheck(name, True, budget)

"""Network right-hand side assembly and model factories.

A network couples m copies of one node system through a time-varying matrix,
an output map applied to delayed states, and one delay measure per node pair:

    d/dt x_i(t) = f(t, x_i(t)) + sum_j a_ij(t) * I_ij(t),
    I_ij(t) = integral over s >= 0 of g(t, x_j(t - tau_ij(t) - s)) dK_ij(s).

The integral is a weighted sum over the pair's nodes, so the right hand side
only queries the past at finitely many shifted times: quadrature nodes, or
for a linear output exact nodes on auxiliary states (``_TapTable``).

A(t), tau(t) and a linear output's Gamma(t) are piecewise-linear tables
(``history.PiecewiseLinear``), a constant being one knot.  A table is affine
between knots, so the structural flags of A, the signs of the delays and the
bound |Gamma(t)|_2 are decided exactly over the knots at construction.

A model is read-only once built.  Its constructor compiles the coupling into
a tap table, flat arrays over every pair nonzero at some knot of A, which
``rhs`` reads at each call without changing it; ``rhs`` is a pure function
of (t, past), and a model may be shared across concurrent integrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .history import PiecewiseLinear
from .kernels import (DelayKernel, ExponentialDensity, QuadraturePlan, _floats,
                      build_quadrature, dirac)

__all__ = [
    "NodeDynamics",
    "OutputFunction",
    "CouplingSchedule",
    "DelaySchedule",
    "NetworkModel",
    "NonFiniteDerivative",
    "rhs",
    "make_example",
    "named_topology",
    "linear_node",
    "chua_node",
    "tanh_hopfield_node",
    "linear_output",
    "identity_output",
]

_FLAG_TOL = 1e-12

# the fewest steps a density must span to be read through an auxiliary
# state, or else it keeps its quadrature nodes: an exponential's mean 1/r,
# as RK4 is stable on its filter only up to r h = 2.79 (Euler up to 2); a
# uniform's width b - a, as the two lookups of its running integral each
# err by up to h^2 |x'| / 8 and their difference is divided by b - a
_FILTER_STEPS, _INTEGRAL_STEPS = 1.0, 16.0


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
    node state, and the result has the shape of ``u``.  ``t`` is a float or
    a column of per-row times, so a field that depends on t must broadcast t
    against u; the README's batch contract lists the callers.  The hint,
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

    ``fn(t, u)`` is batch-shaped like the node field, ``t`` included; a
    ``PiecewiseLinear`` is read at a column of times with ``eval_many``.
    ``kappa`` bounds |g(t,u1) - g(t,u2)| / |u1 - u2| uniformly in u and t,
    the one bound the growth estimate uses.  It is declared, not derived;
    ``check_assumptions`` tries to falsify it.
    """

    dim: int
    fn: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    kappa: float
    name: str = "custom"
    # set by the built-in outputs alone, which are linear in u: the
    # integrator may read their densities through auxiliary states
    _linear: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")

    def eval_rows(self, t, rows: np.ndarray) -> np.ndarray:
        """g(t, .) on a (..., dim) block, every row in one call; ``t`` is a
        float or a column of per-row times."""
        return _apply_batch(self.fn, t, rows, "output g")

    def _as_linear(self) -> "OutputFunction":
        object.__setattr__(self, "_linear", True)
        return self


def _apply_batch(fn, t, u: np.ndarray, what: str) -> np.ndarray:
    out = _floats(fn(t, u))
    shape = u.shape if isinstance(u, np.ndarray) else np.shape(u)
    if out.shape != shape:
        raise ValueError(f"{what} returned shape {out.shape}, expected {shape}")
    return out


class CouplingSchedule:
    """Coupling matrix A(t), a table of m x m matrices, plus structural flags.

    The flags are zero row sums and nonnegative off-diagonal entries.  Row
    sums and entries are affine in t between knots, so a flag that holds at
    every knot (to 1e-12) holds for all t.  Each flag is whether it holds;
    True demands it and raises, naming a knot, if it does not.
    """

    def __init__(self, knots: PiecewiseLinear, zero_row_sums: bool = False,
                 nonneg_off_diagonal: bool = False):
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
    def constant(cls, A, zero_row_sums: bool = False,
                 nonneg_off_diagonal: bool = False) -> "CouplingSchedule":
        return cls(PiecewiseLinear.constant(A), zero_row_sums, nonneg_off_diagonal)

    @classmethod
    def table(cls, times, matrices, zero_row_sums: bool = False,
              nonneg_off_diagonal: bool = False) -> "CouplingSchedule":
        return cls(PiecewiseLinear(times, matrices), zero_row_sums, nonneg_off_diagonal)

    def matrix(self, t: float) -> np.ndarray:
        """A(t); with one knot, the stored read-only matrix."""
        return self.knots(t)


def _flag(demanded: bool, broken: np.ndarray, times, what: str, where: str) -> bool:
    """A flag given ``broken``, the (knot, ...) mask of its violations."""
    if demanded and broken.any():
        k, *at = (int(i) for i in np.unravel_index(int(np.argmax(broken)), broken.shape))
        place = at[0] if len(at) == 1 else tuple(at)
        raise ValueError(f"{what} demanded but {where} {place} breaks it "
                         f"at knot t={times[k]:.6g}")
    return not broken.any()


class DelaySchedule:
    """Per-pair discrete delays tau_ij(t) >= 0 ahead of the kernel shift.

    ``table`` and ``constant`` of a matrix hold a table of m x m delay
    matrices.  ``zero``, ``constant`` of a scalar and ``offdiagonal`` hold
    one delay for the diagonal and one off it and fit every m.  A negative
    or non-finite delay is rejected at construction, naming the pair and the
    knot.
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

    def table_for(self, m: int) -> PiecewiseLinear:
        """The delays as a table of m x m matrices."""
        if self.knots is None:
            D = np.full((m, m), self._pair[1])
            np.fill_diagonal(D, self._pair[0])
            return PiecewiseLinear.constant(D)
        size = self.knots.values.shape[1]
        if size != m:
            raise ValueError(f"delay matrix is {size}x{size}, model has m={m}")
        return self.knots


class NetworkModel:
    """m coupled copies of a node system with delayed, measure-weighted links.

    ``kernels`` may be a single DelayKernel (shared by every pair) or an
    m x m nested sequence.  Quadrature plans are built once per distinct
    kernel object, and the coupling is compiled into ``taps``, at construction.
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
        self.tail_tol = float(tail_tol)
        self.node_spacing = float(node_spacing)
        slot: dict[int, int] = {}
        self._kernel_index = np.array([[slot.setdefault(id(k), len(slot)) for k in row]
                                       for row in self.kernels])
        self._distinct = tuple({id(k): k for row in self.kernels for k in row}.values())
        plans = [build_quadrature(k, self.tail_tol, self.node_spacing) for k in self._distinct]
        self.plans = tuple(tuple(plans[s] for s in row) for row in self._kernel_index.tolist())
        self.taps = _TapTable(self)
        # what every ``rhs`` call reads, resolved once: the size and (m, n)
        # shape of the state, and with no pair a read-only zero coupling
        self.dim, self._shape = m * node.dim, (m, node.dim)
        self._uncoupled = None
        if not self.taps.pairs.size:
            self._uncoupled = np.zeros(self.dim)
            self._uncoupled.flags.writeable = False

    @property
    def n(self) -> int:
        return self.node.dim

    def per_kernel(self, fn) -> np.ndarray:
        """The number ``fn(kernel)`` for every pair, as an m x m array; fn is
        called once per distinct kernel object."""
        return np.array([fn(k) for k in self._distinct], dtype=float)[self._kernel_index]


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


class _Nodes:
    """Lookup nodes, tap by tap: node q reads block ``sources[q]`` of a state
    vector at lag tau + ``plan.locations[q]``, tau its tap's delay, weighing
    ``plan.weights[q]``; ``starts`` holds each tap's first node.  Under
    constant delays the lags are one read-only array, ``lags``; under a
    delay table ``lags_at`` interpolates each tap's ``delays``."""

    def __init__(self, plans, sources, delays: np.ndarray, times: np.ndarray):
        self.sizes = np.array([len(p) for p in plans], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.plan = QuadraturePlan(
            locations=np.concatenate([p.locations for p in plans] or [np.zeros(0)]),
            weights=np.concatenate([p.weights for p in plans] or [np.zeros(0)]),
            truncation_horizon=max((p.truncation_horizon for p in plans), default=0.0),
            tail_mass_bound=max((p.tail_mass_bound for p in plans), default=0.0))
        self.sources = np.array(sources, dtype=np.intp)
        self.sources.flags.writeable = False
        if times.size > 1 and plans:
            self.delays, self.lags = PiecewiseLinear(times, delays.T), None
        else:
            self.delays = None
            self.lags = np.repeat(delays[:, 0], self.sizes) + self.plan.locations
            self.lags.flags.writeable = False

    def lags_at(self, t: float) -> np.ndarray:
        """Every node's lag at time t; under constant delays, ``lags``."""
        if self.delays is None:
            return self.lags
        return np.repeat(self.delays(t), self.sizes) + self.plan.locations

    def select(self, taps: np.ndarray) -> "_Nodes":
        """The nodes of the taps ``taps`` marks, as nodes of their own under
        constant delays; ``index`` holds their places here."""
        part = object.__new__(_Nodes)
        part.index = np.flatnonzero(np.repeat(taps, self.sizes))
        part.sizes = self.sizes[taps]
        part.starts = np.cumsum(part.sizes) - part.sizes
        plan = self.plan
        part.plan = QuadraturePlan(plan.locations[part.index], plan.weights[part.index],
                                   plan.truncation_horizon, plan.tail_mass_bound)
        part.sources, part.delays, part.lags = self.sources[part.index], None, self.lags[part.index]
        return part


class _TapTable(_Nodes):
    """The coupling of a model resolved into flat arrays, once.

    The pairs, ``pairs`` with their ``pair_tap``, are every (i, j) nonzero
    at some knot of A whose plan has nodes, row by row, each row's self
    pair after its other pairs in j order; ``cells`` holds, pair by pair,
    the flat indices of row i in an (m, n) block.  A tap is one distinct
    (source j, the pair's delays at every delay knot, plan) lookup; pairs
    that share one share its nodes.  Taps are in build order, that of the
    first pair to read each.  As ``_Nodes`` the table holds every tap's
    quadrature nodes, each reading block j of the state.  Under a
    constant A, ``coef`` holds each pair's a_ij as a read-only column;
    under a coupling table it is None and ``rhs`` reads A(t).  ``chain(h)``
    gives the nodes the integrator reads at step h.  As the pairs ``rhs``
    sums, the table has no ``prefix``.
    """

    prefix = None

    def __init__(self, model: "NetworkModel"):
        m, n = model.m, model.n
        support = np.flatnonzero((model.coupling.knots.values != 0.0).any(axis=0))
        row, col = np.divmod(support, m)
        support = support[np.lexsort((row == col, row))]
        table = model.delays.table_for(m)
        taus = table.values.reshape(table.times.size, m * m)[:, support].T.tolist()
        index: dict[tuple[int, tuple[float, ...], int], int] = {}
        taps, pairs, rows, pair_tap = [], [], [], []
        for a, tau in zip(support.tolist(), taus):
            i, j = divmod(a, m)
            plan = model.plans[i][j]
            if not len(plan):
                continue
            lookup = (j, tuple(tau), id(plan))
            if lookup not in index:
                index[lookup] = len(taps)
                taps.append((j, tau, plan, model.kernels[i][j]))
            pairs.append(a)
            rows.append(i)
            pair_tap.append(index[lookup])
        sources, delays, plans, kernels = ([tap[f] for tap in taps] for f in range(4))
        delays = np.array(delays, dtype=float).reshape(len(plans), table.times.size)
        super().__init__(plans, np.repeat(sources, [len(p) for p in plans]), delays, table.times)
        self.pairs = np.array(pairs, dtype=np.intp)
        self.cells = (np.array(rows, dtype=np.intp)[:, None] * n + np.arange(n)).ravel()
        self.pair_tap = np.array(pair_tap, dtype=np.intp)
        self.coef = None
        if model.coupling.knots.times.size == 1:
            self.coef = model.coupling.knots.values[0].take(self.pairs)[:, None]
            self.coef.flags.writeable = False
        self._chain = (model.output._linear, m, n, list(zip(sources, kernels, plans)),
                       delays, table.times)

    def chain(self, h: float):
        """The nodes the integrator reads at step h, the state column each
        auxiliary column follows, and its rate r, 0 for a running integral.

        For a linear output each density that spans enough steps, an
        exponential's mean 1/r ``_FILTER_STEPS`` or a uniform's width b - a
        ``_INTEGRAL_STEPS``, becomes n auxiliary state columns following
        block j.  An exponential density (rate r, weight w) is the filter
        z' = r (x_j - z), z(t) = integral over s >= 0 of r e^{-rs}
        x_j(t - s) ds, read by one node of weight w at the tap's delay; a
        uniform one on [a, b] is the running integral G' = x_j, read by
        nodes at tau + a and tau + b weighing +-w/(b - a).  Taps of one
        source share each filter rate and the integral; auxiliary block c
        is block m + c of the extended state.  As g is linear, g of a
        filtered state is the filtered g, so these nodes are exact, also
        under a delay table.  Every other tap reads its quadrature nodes,
        and with no auxiliary column the nodes are the table itself."""
        linear, m, n, taps, delays, times = self._chain
        blocks: dict[tuple[int, float], int] = {}
        plans, sources = [], []
        for j, k, p in taps:
            d, filtered = k.density, isinstance(k.density, ExponentialDensity)
            # a density whose whole mass is below tail_tol has no nodes, as in its plan
            if not linear or len(p) == len(k.atoms) or (1.0 / d.rate if filtered else d.b - d.a) < (
                    _FILTER_STEPS if filtered else _INTEGRAL_STEPS) * h:
                plans.append(p)
                sources += [j] * len(p)
                continue
            c = blocks.setdefault((j, getattr(d, "rate", 0.0)), m + len(blocks))
            nodes = [(loc, w, j) for loc, w in k.atoms] + (
                [(0.0, d.weight, c)] if filtered else
                [(d.a, d.weight / (d.b - d.a), c), (d.b, -d.weight / (d.b - d.a), c)])
            locations, weights, node_sources = zip(*nodes)
            plans.append(QuadraturePlan(locations, weights, max(locations), 0.0))
            sources += node_sources
        if not blocks:
            return self, np.zeros(0, np.intp), np.zeros(0)
        j, rate = np.array(list(blocks)).T
        return (_Nodes(plans, sources, delays, times),
                (j.astype(np.intp)[:, None] * n + np.arange(n)).ravel(), np.repeat(rate, n))


def rhs(model: NetworkModel, t: float, past) -> np.ndarray:
    """Full network derivative at time t given an evaluator for the past.

    ``past(t)`` is the stacked state vector at t, and
    ``past.lagged(t, taps)`` the lookup of the model's tap table: the rows
    to hand to g, the ``QuadraturePlan`` of their weights, the first row
    of each tap, and the pairs that read those taps.  A past that reads
    the table itself serves row q as x_{sources[q]}(t - lag_q), a
    quadrature node, with the table's plan and starts and the table as its
    pairs.  The integrator's past serves the nodes of ``taps.chain(h)``,
    which g must not write into, and once a block of steps runs it serves
    only the taps the block does not sum, with pairs that hold the rest of
    each row and the block's ``prefix``: per cell, the a_ij-weighted sum of
    the row's leading pairs, in the order below.  Each call makes one
    ``lagged`` lookup, one g call on its rows, one segment sum through the
    plan and one in-order ``np.bincount`` of a_ij times each pair's
    integral into row i, skipped when every cell has one pair in order,
    adds the prefix, and calls f once on the (m, n) block.  Under a
    constant A the a_ij are the tap table's ``coef``, read once at
    construction.  Under a coupling table A(t) is read at each call, and g
    is evaluated for every pair nonzero at some knot; one zero at t adds an
    exact zero.  Returns a new flat vector, tested for finiteness with one
    count; raises ``NonFiniteDerivative`` naming the first node whose
    derivative is not finite.
    """
    shape, size, taps = model._shape, model.dim, model.taps
    x_now = _floats(past(t)).ravel()
    if x_now.size != size:
        raise ValueError(f"past evaluator returned shape {x_now.shape}, expected ({size},)")
    X = x_now.reshape(shape)
    coupled = model._uncoupled
    if coupled is None:
        rows, plan, starts, pairs = past.lagged(t, taps)
        coupled = pairs.prefix
        if rows is not None:
            conv = plan.apply(model.output.eval_rows(t, rows), starts)
            coef = pairs.coef
            if coef is None:
                coef = model.coupling.matrix(t).take(pairs.pairs)[:, None]
            if pairs.pair_tap is not None:
                conv = conv.take(pairs.pair_tap, axis=0)
            terms = (coef * conv).ravel()
            # bincount adds pair by pair in order, from 0.0: each row sums its
            # couplings, the self pair last, so symmetric contributions cancel
            # before the node term is added
            if pairs.cells is not None:
                terms = np.bincount(pairs.cells, terms, size)
            # a prefix is such a sum of each row's leading pairs, so never
            # -0.0: adding it to 0.0 + p is adding it to p
            coupled = terms if coupled is None else coupled + terms
    out = model.node.eval(t, X).ravel() + coupled
    finite = np.isfinite(out)
    if np.count_nonzero(finite) != size:
        raise NonFiniteDerivative(t, int(np.argmin(finite.reshape(shape).all(axis=1))))
    return out


# ---------------------------------------------------------------------------
# built-in node systems and outputs

def linear_node(matrix) -> NodeDynamics:
    """f(t, u) = B u, with B the given ``matrix``."""
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("linear node matrix must be square")
    L = float(np.linalg.norm(B, 2))
    B_T = np.ascontiguousarray(B.T)
    return NodeDynamics(dim=B.shape[0], fn=lambda t, u: u @ B_T,
                        lipschitz_hint=L, name="linear")


def chua_node(alpha: float = 9.0, beta: float = 100.0 / 7.0,
              m0: float = -8.0 / 7.0, m1: float = -5.0 / 7.0) -> NodeDynamics:
    """Chua circuit with the piecewise-linear diode characteristic.

    As ½(|x+1| - |x-1|) = clip(x, -1, 1), f is the outer region's affine map
    J1 u less alpha (m0 - m1) clip(x, -1, 1) in its first component.  Its
    Lipschitz constant is the larger spectral norm of the region Jacobians.
    """
    alpha, beta, m0, m1 = float(alpha), float(beta), float(m0), float(m1)

    L = 0.0
    for slope in (m0, m1):
        J = np.array([[-alpha * (1.0 + slope), alpha, 0.0],
                      [1.0, -1.0, 1.0],
                      [0.0, -beta, 0.0]])
        L = max(L, float(np.linalg.norm(J, 2)))
    # C order: with the strided J.T, one row rounds unlike that row in a block
    outer_T = np.ascontiguousarray(J.T)
    # 0-d operands: numpy converts a Python float at each call
    bend, lo, hi = np.array(alpha * (m0 - m1)), np.array(-1.0), np.array(1.0)

    def fn(t, u):
        u = _floats(u)
        out = u @ outer_T
        first = out[..., 0]  # a view, changed in place
        first -= bend * np.minimum(np.maximum(u[..., 0], lo), hi)  # np.clip, faster
        return out

    return NodeDynamics(dim=3, fn=fn, lipschitz_hint=L, name="chua")


def tanh_hopfield_node(weights, bias=None) -> NodeDynamics:
    """f(t, u) = -u + W tanh(u) + bias, with W the given ``weights``."""
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    b = np.zeros(W.shape[0]) if bias is None else np.asarray(bias, dtype=float).ravel()
    if b.shape != (W.shape[0],):
        raise ValueError("bias length must match the weight matrix")
    L = 1.0 + float(np.linalg.norm(W, 2))
    W_T = np.ascontiguousarray(W.T)
    # tanh(u) W' - u rounds as -u + tanh(u) W'
    return NodeDynamics(dim=W.shape[0], fn=lambda t, u: np.tanh(u) @ W_T - u + b,
                        lipschitz_hint=L, name="tanh_hopfield")


def linear_output(Gamma) -> OutputFunction:
    """g(t, u) = Gamma(t) u for a matrix or a ``PiecewiseLinear`` table of
    matrices.  kappa = max over knots of |Gamma_k|_2, which bounds every t
    exactly because the norm is convex along each piece.  A table is read at
    each row's time and each row summed on its own, so a row's value is the
    same for a float t and a column; a constant Gamma is ``u @ Gamma.T``."""
    table = Gamma if isinstance(Gamma, PiecewiseLinear) else PiecewiseLinear.constant(Gamma)
    G = table.values
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise ValueError("output matrix must be square")
    kappa = max(float(np.linalg.norm(Gk, 2)) for Gk in G)
    if table.times.size == 1:
        G_T = np.ascontiguousarray(G[0].T)
        return OutputFunction(dim=G.shape[1], fn=lambda t, u: u @ G_T,
                              kappa=kappa, name="linear")._as_linear()

    def fn(t, u):
        Gt = table.eval_many(t).reshape(np.shape(t)[:-1] + G.shape[1:])
        return (Gt * u[..., None, :]).sum(axis=-1)

    return OutputFunction(dim=G.shape[1], fn=fn, kappa=kappa, name="linear")._as_linear()


def identity_output(dim: int) -> OutputFunction:
    return OutputFunction(dim=dim, fn=lambda t, u: u, kappa=1.0, name="identity")._as_linear()


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
       params: node, A, Gamma.  Built by the same code as 2, which reads a
       matrix as a constant table.
    2: time-varying matrix and output, still undelayed.
       params: node, A and Gamma (each a matrix or a ``PiecewiseLinear``
       table of matrices); zero row sums and nonnegative off-diagonal
       entries are demanded at every knot.
    3: constant matrix with diagonal -c, one shared delay off the diagonal,
       diagonal nonnegative output matrix.  The coupling term reduces to
       sum over j != i of a_ij * Gamma * (x_j(t - tau) - x_i(t)).
       params: node, Gamma, tau, and one of A (diagonal entries -c,
       "direct" convention) or base + c (rows of base sum to 1 off the
       diagonal with -1 on it, "normalized" convention) or topology + c + m.
    """
    if which in (1, 2):
        return _example_2(**params)
    if which == 3:
        return _example_3(**params)
    raise ValueError(f"unknown example {which!r}; supported: 1, 2, 3")


def _example_2(node: NodeDynamics, A, Gamma) -> NetworkModel:
    table = A if isinstance(A, PiecewiseLinear) else PiecewiseLinear.constant(A)
    coupling = CouplingSchedule(table, zero_row_sums=True, nonneg_off_diagonal=True)
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

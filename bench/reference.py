"""Reference computations made apart from delaynet, used to check its outputs.

Nothing here imports delaynet.  The models are re-derived from the scenario
documents, and each solver is plain numpy:

* ``expm``: matrix exponential by scaling and squaring of a Taylor series;
* ``rk4_ode``: classical RK4 for an ODE;
* ``solve_dde``: RK4 by the method of steps for constant-delay systems, with
  either linear interpolation of the past (second order, the least accurate
  admissible interpolant) or cubic Hermite interpolation on the stored
  derivatives (fourth order).

Tolerances are made from the method's own error at the workload's step.
The same solver, run at the workload's step with linear interpolation (and,
for distributed kernels, trapezoid quadrature at the scenario's node
spacing), is compared with a fine run at 1/``FINE_FACTOR`` of the step with Hermite
interpolation (and, for exponential kernels, the exact linear-chain form).
The tolerance is ``SAFETY`` times that difference plus a rounding floor, so
a second-order interpolant and a corrected fourth-order one both pass.
"""

from __future__ import annotations

import math

import numpy as np

SAFETY = 4.0
# The fine reference run takes this many steps per step of the workload.
FINE_FACTOR = 2
EPS = np.finfo(float).eps
# Rounding allowance per step and per unit of state, in units of eps: a few
# dozen floating-point operations feed every component each step.
ROUNDING_OPS = 64.0
# A check that cannot see the 1e-3 perturbation of the self-tests sees nothing.
MAX_USEFUL_TOL = 2.5e-4


# ---------------------------------------------------------------------------
# models re-derived from scenario documents

def chua_field(alpha=9.0, beta=100.0 / 7.0, m0=-8.0 / 7.0, m1=-5.0 / 7.0):
    """Chua circuit with the piecewise-linear diode, on (..., 3) arrays."""

    def f(u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        diode = m1 * x + 0.5 * (m0 - m1) * (np.abs(x + 1.0) - np.abs(x - 1.0))
        return np.stack([alpha * (y - x - diode), x - y + z, -beta * y], axis=-1)

    return f


def node_field(spec: dict):
    """Vectorized node field f(u) on (..., n) arrays and its dimension."""
    kind = spec["type"]
    if kind == "chua":
        return chua_field(spec.get("alpha", 9.0), spec.get("beta", 100.0 / 7.0),
                          spec.get("m0", -8.0 / 7.0), spec.get("m1", -5.0 / 7.0)), 3
    if kind == "linear":
        B = np.asarray(spec["matrix"], dtype=float)
        return (lambda u: u @ B.T), B.shape[0]
    if kind == "tanh_hopfield":
        W = np.asarray(spec["weights"], dtype=float)
        b = np.zeros(W.shape[0]) if spec.get("bias") is None else np.asarray(spec["bias"], float)
        return (lambda u: -u + np.tanh(u) @ W.T + b), W.shape[0]
    raise ValueError(f"no reference for node type {kind!r}")


def coupling_matrix(spec: dict) -> np.ndarray:
    """Coupling matrix: explicit, or strength times the normalized template
    (off-diagonal rows summing to 1, diagonal -1)."""
    if "matrix" in spec:
        return np.asarray(spec["matrix"], dtype=float)
    m = int(spec["m"])
    T = np.zeros((m, m))
    if spec["topology"] == "all-to-all":
        T[:] = 1.0 / (m - 1)
    elif m == 2:
        T[0, 1] = T[1, 0] = 1.0
    else:
        for i in range(m):
            T[i, (i - 1) % m] += 0.5
            T[i, (i + 1) % m] += 0.5
    np.fill_diagonal(T, -1.0)
    return float(spec["strength"]) * T


def delay_matrix(spec: dict, m: int) -> np.ndarray:
    kind = spec["type"]
    if kind == "zero":
        return np.zeros((m, m))
    if kind == "constant":
        return np.full((m, m), float(spec["tau"]))
    if kind == "offdiagonal":
        D = np.full((m, m), float(spec["tau"]))
        np.fill_diagonal(D, 0.0)
        return D
    return np.asarray(spec["values"], dtype=float)


# ---------------------------------------------------------------------------
# solvers

def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential: Taylor series of degree 24 after scaling to norm <= 1/2."""
    M = np.asarray(M, dtype=float)
    norm = float(np.max(np.sum(np.abs(M), axis=1)))
    s = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    A = M / (2.0 ** s)
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 25):
        term = term @ A / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def rk4_ode(f, x0, h: float, steps: int) -> np.ndarray:
    """Classical RK4 for x' = f(x); returns the states at every step."""
    x = np.array(x0, dtype=float)
    out = np.empty((steps + 1,) + x.shape)
    out[0] = x
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + (h / 2.0) * k1)
        k3 = f(x + (h / 2.0) * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return out


class _Past:
    """Solution record on the uniform grid t_k = k h, constant before 0."""

    def __init__(self, y0, history, h, steps, hermite):
        self.h = h
        self.hermite = hermite
        self.history = np.asarray(history, dtype=float)
        # rows not yet written are zero, so the zero weight an on-grid time
        # puts on its right neighbour adds nothing
        self.Y = np.zeros((steps + 1, y0.size))
        self.F = np.zeros((steps + 1, y0.size))
        self.Y[0] = y0
        self.n = 1

    def at(self, t: float) -> np.ndarray:
        """The state at one time, the history for t <= 0."""
        if t <= 0.0:
            return self.history
        return self(np.array([t]))[0]

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        """Rows of the state at times in (0, last sample]."""
        u = ts / self.h
        k = np.floor(u + 1e-9).astype(int)
        th = np.maximum(u - k, 0.0)[:, None]
        k1 = np.minimum(k + 1, self.n - 1)
        if self.hermite:
            return ((1 + 2 * th) * (1 - th) ** 2 * self.Y[k]
                    + th * (1 - th) ** 2 * self.h * self.F[k]
                    + th ** 2 * (3 - 2 * th) * self.Y[k1]
                    + th ** 2 * (th - 1) * self.h * self.F[k1])
        return (1 - th) * self.Y[k] + th * self.Y[k1]


def solve_dde(field, y0, history, h: float, steps: int, hermite: bool) -> np.ndarray:
    """RK4 by the method of steps for y' = field(t, y, past).

    ``past.at(t)`` returns y at a time at least one step behind the stage
    time (every delay here is >= h), and ``history`` for t <= 0;
    ``past(ts)`` returns rows of y at an array of such times, all > 0.
    Returns y at every step.
    """
    y = np.asarray(y0, dtype=float).ravel().copy()
    past = _Past(y, history, h, steps, hermite)
    for k in range(steps):
        t = k * h
        k1 = field(t, y, past)
        past.F[k] = k1
        k2 = field(t + h / 2.0, y + (h / 2.0) * k1, past)
        k3 = field(t + h / 2.0, y + (h / 2.0) * k2, past)
        k4 = field(t + h, y + h * k3, past)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        past.Y[k + 1] = y
        past.n = k + 2
    past.F[steps] = field(steps * h, y, past)
    return past.Y


def rounding_floor(steps: int, scale: float, growth: float) -> float:
    """Allowance for rounding: ROUNDING_OPS eps per step, grown by the
    measured sensitivity of the solution to its initial state."""
    return ROUNDING_OPS * EPS * steps * max(1.0, scale) * max(1.0, growth)


def tolerance(method_error: float, floor: float) -> float:
    tol = SAFETY * method_error + floor
    if not tol <= MAX_USEFUL_TOL:
        raise ValueError(f"tolerance {tol:.3g} is too wide to check anything")
    return tol


# ---------------------------------------------------------------------------
# network references

def step_grid(doc: dict) -> tuple[float, int]:
    """(step, number of steps) of a scenario whose horizon is a whole number of steps."""
    isec = doc["integrator"]
    h = float(isec["step"])
    steps = float(isec["horizon"]) / h
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ValueError("reference needs a horizon of a whole number of steps")
    return h, int(round(steps))


def _kernel_parts(spec):
    """(atom weight at 0, exponential (rate, weight) or None) of a kernel spec."""
    if spec is None:
        return 1.0, None
    parts = spec["components"] if spec["type"] == "mixture" else [spec]
    atom, expo = 0.0, None
    for p in parts:
        if p["type"] == "dirac":
            if float(p.get("location", 0.0)) != 0.0:
                raise ValueError("reference supports atoms at 0 only")
            atom += float(p.get("weight", 1.0))
        elif p["type"] == "exponential":
            expo = (float(p["rate"]), float(p.get("weight", 1.0)))
        else:
            raise ValueError(f"no reference for kernel {p['type']!r}")
    return atom, expo


def _kernel_grid(msec: dict, m: int):
    spec = msec.get("kernels")
    if spec is None or "type" in spec:
        k = _kernel_parts(spec)
        return [[k] * m for _ in range(m)]
    off = _kernel_parts(spec["offdiagonal"])
    diag = _kernel_parts(spec["diagonal"]) if "diagonal" in spec else off
    return [[diag if i == j else off for j in range(m)] for i in range(m)]


def network_reference(doc: dict) -> dict:
    """Reference states on the workload's step grid and the check tolerance.

    Handles constant-history networks whose kernels are atoms at 0 plus at
    most one exponential density per pair, and whose positive delays share
    one value that is a multiple of the step.  The fine run replaces each
    exponential density by its linear chain z' = rate (g(x_j(t - tau)) - z);
    the coarse run uses the trapezoid rule at the scenario's node spacing.
    Returns {"states": (steps+1, m n), "tol", "method_error"}.
    """
    msec = doc["model"]
    f, n = node_field(msec["node"])
    A = coupling_matrix(msec["coupling"])
    m = A.shape[0]
    D = delay_matrix(msec.get("delays", {"type": "zero"}), m)
    G = np.asarray(msec["gamma"], float) if "gamma" in msec else np.eye(n)
    x0 = np.asarray(doc["history"]["value"], dtype=float).reshape(m * n)
    h, steps = step_grid(doc)
    kern = _kernel_grid(msec, m)
    taus = np.unique(D[D > 0])
    tau = float(taus[0]) if taus.size else 0.0
    if taus.size > 1 or (tau > 0 and (tau < h or abs(tau / h - round(tau / h)) > 1e-9)):
        raise ValueError("reference needs one positive delay, a multiple of the step")
    atom = np.array([[A[i, j] * kern[i][j][0] for j in range(m)] for i in range(m)])
    lag = D > 0
    expo = [(i, j, A[i, j] * kern[i][j][1][1], kern[i][j][1][0])
            for i in range(m) for j in range(m)
            if A[i, j] != 0.0 and kern[i][j][1] is not None]
    srcs = sorted({j for _, j, _, _ in expo})
    rates = {j: r for _, j, _, r in expo}
    if any(rates[j] != r or D[i, j] != tau for i, j, _, r in expo):
        raise ValueError("reference needs one exponential rate per source, at the delay")
    lag_now = np.where(lag, 0.0, atom)
    lag_tau = np.where(lag, atom, 0.0)
    X0 = x0.reshape(m, n)
    qsec = msec.get("quadrature", {})
    tail_tol = float(qsec.get("tail_tol", 1e-10))
    spacing = float(qsec.get("node_spacing", 1e-3))

    def out(X):
        return X @ G.T

    def lagged(t, X, past):
        return past.at(t - tau)[: m * n].reshape(m, n) if tau > 0 else X

    src_idx = np.array(srcs, dtype=int)
    src_rate = np.array([rates[j] for j in srcs])[:, None]
    W_exp = np.zeros((m, len(srcs)))
    for i, j, w, _ in expo:
        W_exp[i, srcs.index(j)] += w

    def field_fine(t, y, past):
        X = y[: m * n].reshape(m, n)
        Z = y[m * n:].reshape(len(srcs), n)
        g_lag = out(lagged(t, X, past))
        d = f(X) + lag_now @ out(X) + lag_tau @ g_lag + W_exp @ Z
        dz = src_rate * (g_lag[src_idx] - Z)
        return np.concatenate([d.ravel(), dz.ravel()])

    nodes = {}
    for i, j, _, r in expo:
        # trapezoid nodes up to the horizon where the density's tail mass
        # falls to tail_tol, weights rescaled to the truncated mass; the
        # weights of nodes that reach back before 0 are summed from the end
        # so the constant history is applied in one product
        weight = abs(kern[i][j][1][1])
        horizon = max(math.log(weight / tail_tol) / r, spacing)
        cells = max(1, math.ceil(horizon / spacing - 1e-12))
        s = np.linspace(0.0, horizon, cells + 1)
        w = np.full(s.shape, horizon / cells)
        w[0] = w[-1] = horizon / cells / 2.0
        w = w * r * np.exp(-r * s)
        w *= (1.0 - math.exp(-r * horizon)) / w.sum()
        nodes[j] = (s, w, np.append(np.cumsum(w[::-1])[::-1], 0.0))

    def field_coarse(t, y, past):
        X = y.reshape(m, n)
        d = f(X) + lag_now @ out(X) + lag_tau @ out(lagged(t, X, past))
        for i, j, wt, _ in expo:
            s, w, tail = nodes[j]
            cnt = int(np.searchsorted(s, t - tau, side="left"))
            conv = tail[cnt] * out(X0[j])
            if cnt:
                conv = conv + w[:cnt] @ out(past(t - tau - s[:cnt])[:, j * n:(j + 1) * n])
            d[i] = d[i] + wt * conv
        return d.ravel()

    z0 = np.concatenate([out(X0[j]) for j in srcs]) if srcs else np.empty(0)
    y0 = np.concatenate([x0, z0])
    fine = solve_dde(field_fine, y0, y0, h / FINE_FACTOR, steps * FINE_FACTOR, hermite=True)
    fine = fine[::FINE_FACTOR, : m * n]
    coarse = solve_dde(field_coarse, x0, x0, h, steps, hermite=False)
    # sensitivity of the exact solution to its initial state, for the floor
    bump = 1e-7 * np.random.default_rng(0).standard_normal(y0.size)
    base = solve_dde(field_fine, y0, y0, h, steps, hermite=True)
    bumped = solve_dde(field_fine, y0 + bump, y0 + bump, h, steps, hermite=True)
    growth = float(np.max(np.abs(bumped - base)) / np.max(np.abs(bump)))
    method_error = float(np.max(np.abs(coarse - fine)))
    floor = rounding_floor(steps, float(np.max(np.abs(fine))), growth)
    return {"states": fine, "tol": tolerance(method_error, floor),
            "method_error": method_error}


def linear_reference(doc: dict) -> dict:
    """Exact states of an undelayed linear network from the matrix exponential.

    x' = (I (x) B + A (x) Gamma) x, assembled with Kronecker products; the
    method error is that of RK4's stability polynomial at the step.
    """
    msec = doc["model"]
    B = np.asarray(msec["node"]["matrix"], dtype=float)
    n = B.shape[0]
    A = coupling_matrix(msec["coupling"])
    m = A.shape[0]
    if np.any(delay_matrix(msec.get("delays", {"type": "zero"}), m) != 0):
        raise ValueError("linear reference needs zero delays")
    G = np.asarray(msec["gamma"], float) if "gamma" in msec else np.eye(n)
    M = np.kron(np.eye(m), B) + np.kron(A, G)
    x0 = np.asarray(doc["history"]["value"], dtype=float).reshape(m * n)
    h, steps = step_grid(doc)
    E = expm(h * M)
    hM = h * M
    R = np.eye(M.shape[0]) + hM + hM @ hM / 2 + hM @ hM @ hM / 6 + hM @ hM @ hM @ hM / 24
    exact = np.empty((steps + 1, m * n))
    rk = np.empty((steps + 1, m * n))
    exact[0] = rk[0] = x0
    for k in range(steps):
        exact[k + 1] = E @ exact[k]
        rk[k + 1] = R @ rk[k]
    method_error = float(np.max(np.abs(rk - exact)))
    growth = float(max(1.0, np.max(np.abs(np.linalg.matrix_power(E, steps)))))
    floor = rounding_floor(steps, float(np.max(np.abs(exact))), growth)
    return {"states": exact, "tol": tolerance(method_error, floor),
            "method_error": method_error}


def uncoupled_reference(doc: dict) -> dict:
    """Each node of an uncoupled network by RK4 of the single node at the
    workload's step; the method errors cancel, leaving rounding grown by the
    measured sensitivity of the orbit to its initial state."""
    msec = doc["model"]
    f, n = node_field(msec["node"])
    A = coupling_matrix(msec["coupling"])
    if np.any(A != 0):
        raise ValueError("uncoupled reference needs a zero coupling matrix")
    m = A.shape[0]
    X0 = np.asarray(doc["history"]["value"], dtype=float).reshape(m, n)
    h, steps = step_grid(doc)
    # the nodes are independent, so one RK4 over the (m, n) block is RK4 of
    # each node on its own, element for element
    orbit = rk4_ode(f, X0, h, steps)
    bump = 1e-7 * np.random.default_rng(0).standard_normal(X0.shape)
    bumped = rk4_ode(f, X0 + bump, h, steps)
    growth = float(np.max(np.abs(bumped - orbit)) / np.max(np.abs(bump)))
    states = orbit.reshape(steps + 1, m * n)
    floor = rounding_floor(steps, float(np.max(np.abs(states))), growth)
    return {"states": states, "tol": tolerance(0.0, floor),
            "method_error": 0.0}


# ---------------------------------------------------------------------------
# properties checked on program outputs

def energy(states, P=None, n: int = 1) -> np.ndarray:
    """V = 1/2 |x - x(0)|_P^2 per row, P applied to each node block (I if None)."""
    diffs = states - states[0]
    if P is None:
        return 0.5 * np.sum(diffs * diffs, axis=1)
    blocks = diffs.reshape(diffs.shape[0], -1, n)
    return 0.5 * np.einsum("tij,jk,tik->t", blocks, P, blocks)


def envelope_violation(times, V, eta: float) -> float:
    """Largest relative excess of M(t) over M(0) e^{eta t} on the given rows,
    with M the running max of max(1/2, V); the history is constant, so it
    adds nothing beyond V(0) = 0."""
    M = np.maximum.accumulate(np.maximum(V, 0.5))
    log_excess = np.log(M) - (math.log(M[0]) + eta * np.asarray(times))
    return float(np.max(np.expm1(log_excess)))


def pairwise_distance(states, m: int, n: int) -> np.ndarray:
    """Largest Euclidean distance between two node blocks, per row."""
    blocks = states.reshape(states.shape[0], m, n)
    dist = np.zeros(states.shape[0])
    for i in range(m):
        for j in range(i + 1, m):
            dist = np.maximum(dist, np.linalg.norm(blocks[:, i] - blocks[:, j], axis=1))
    return dist


def sync_window_mean(times, states, m: int, n: int, window: float) -> float:
    """Mean over the final window of the largest pairwise node distance."""
    mask = np.asarray(times) >= times[-1] - window
    return float(np.mean(pairwise_distance(states, m, n)[mask]))


def quad_sides(f, P, Delta, epsilon, u1, u2) -> tuple[float, float]:
    """Both sides of (u1-u2)' P [f(u1) - f(u2) - Delta (u1-u2)] <= -eps |u1-u2|^2."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    d = u1 - u2
    lhs = float(d @ (np.asarray(P, float) @ (f(u1) - f(u2) - np.diag(Delta) @ d)))
    return lhs, float(-epsilon * (d @ d))

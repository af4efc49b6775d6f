"""Delay measures on [0, inf) and quadrature plans for convolving against them.

A delay kernel is a finite-total-variation measure built from point masses
(atoms) plus an optional absolutely continuous part.  An atom at 0 models
undelayed coupling, an atom at tau > 0 a discrete delay, and a density a
distributed delay.  A quadrature plan discretizes the integral of a function
against the measure: atoms become exact nodes, the density is truncated at an
analytically bounded tail and discretized with the composite trapezoid rule.

Kernels and plans are immutable after construction and safe to share across
concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DelayKernel",
    "QuadraturePlan",
    "ExponentialDensity",
    "UniformDensity",
    "dirac",
    "exponential",
    "uniform",
    "mixture",
    "make_kernel",
    "build_quadrature",
]


# a density plan larger than this is refused before it is allocated; the
# bundled scenarios use 2,236 nodes per plan
_MAX_DENSITY_NODES = 1_000_000

_FLOAT = np.dtype(float)


def _floats(a) -> np.ndarray:
    """``a`` as a float64 array: a float64 ndarray itself, anything else converted."""
    return a if type(a) is np.ndarray and a.dtype is _FLOAT else np.asarray(a, dtype=float)


@dataclass(frozen=True)
class ExponentialDensity:
    """Density ``weight * rate * exp(-rate*s)`` on [0, inf); signed mass = weight."""

    rate: float
    weight: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"exponential rate must be positive, got {self.rate}")
        if not math.isfinite(self.weight):
            raise ValueError("density weight must be finite")

    @property
    def support(self) -> tuple[float, float | None]:
        return (0.0, None)

    def values(self, s):
        return self.weight * self.rate * np.exp(-self.rate * np.asarray(s, dtype=float))

    def mass_up_to(self, horizon: float) -> float:
        return self.weight * (1.0 - math.exp(-self.rate * horizon))

    def truncation(self, tail_tol: float) -> tuple[float, float]:
        """Smallest horizon with absolute tail mass <= tail_tol, and that tail."""
        mass = abs(self.weight)
        if mass <= tail_tol:
            return 0.0, mass
        horizon = math.log(mass / tail_tol) / self.rate
        return horizon, tail_tol


@dataclass(frozen=True)
class UniformDensity:
    """Density ``weight / (b - a)`` on [a, b]; signed mass = weight."""

    a: float
    b: float
    weight: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"uniform support needs 0 <= a < b, got a={self.a}, b={self.b}")
        if not math.isfinite(self.weight):
            raise ValueError("density weight must be finite")

    @property
    def support(self) -> tuple[float, float | None]:
        return (self.a, self.b)

    def values(self, s):
        s = np.asarray(s, dtype=float)
        inside = (s >= self.a) & (s <= self.b)
        return np.where(inside, self.weight / (self.b - self.a), 0.0)

    def mass_up_to(self, horizon: float) -> float:
        covered = min(max(horizon, self.a), self.b)
        return self.weight * (covered - self.a) / (self.b - self.a)

    def truncation(self, tail_tol: float) -> tuple[float, float]:
        # Bounded support: keep it whole, the tail past b is exactly zero.
        return self.b, 0.0


@dataclass(frozen=True)
class DelayKernel:
    """Finite-variation delay measure: atoms ``(location, weight)`` + optional density.

    Weights may be signed; the total variation sums absolute weights and is
    always finite for the supported shapes.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density: ExponentialDensity | UniformDensity | None = None

    def __post_init__(self):
        clean = []
        for loc, w in self.atoms:
            loc = float(loc)
            w = float(w)
            if not (math.isfinite(loc) and loc >= 0.0):
                raise ValueError(f"atom location must be nonnegative, got {loc}")
            if not math.isfinite(w):
                raise ValueError("atom weight must be finite")
            clean.append((loc, w))
        object.__setattr__(self, "atoms", tuple(clean))
        if self.density is None and not self.atoms:
            raise ValueError("kernel needs at least one atom or a density part")

    def total_variation(self) -> float:
        """Sum of absolute atom weights plus absolute density weight."""
        tv = sum(abs(w) for _, w in self.atoms)
        if self.density is not None:
            tv += abs(self.density.weight)
        return tv

    def signed_mass(self) -> float:
        """Integral of the measure over [0, inf), signs kept."""
        mass = sum(w for _, w in self.atoms)
        if self.density is not None:
            mass += self.density.weight
        return mass


def dirac(location: float = 0.0, weight: float = 1.0) -> DelayKernel:
    """Point mass at ``location``; location 0 is undelayed coupling."""
    return DelayKernel(atoms=((location, weight),))


def exponential(rate: float, weight: float = 1.0) -> DelayKernel:
    return DelayKernel(density=ExponentialDensity(rate=rate, weight=weight))


def uniform(a: float, b: float, weight: float = 1.0) -> DelayKernel:
    return DelayKernel(density=UniformDensity(a=a, b=b, weight=weight))


def mixture(*parts: DelayKernel) -> DelayKernel:
    """Merge kernels into one; at most one part may carry a density."""
    atoms: list[tuple[float, float]] = []
    density = None
    for part in parts:
        atoms.extend(part.atoms)
        if part.density is not None:
            if density is not None:
                raise ValueError("mixture supports at most one density component")
            density = part.density
    return DelayKernel(atoms=tuple(atoms), density=density)


def _given(spec: dict, *keys: str) -> dict:
    """The entries of ``spec`` among ``keys``; an omitted one keeps its default."""
    return {k: spec[k] for k in keys if k in spec}


def make_kernel(spec: dict) -> DelayKernel:
    """Build a kernel from a tagged record, the form used in scenario files.

    Supported tags: ``dirac`` (location, weight), ``exponential`` (rate,
    weight), ``uniform`` (a, b, weight), ``mixture`` (components: list of the
    former).  Weights default to 1.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("kernel spec must be a dict with a 'type' tag")
    kind = spec["type"]
    if kind == "dirac":
        return dirac(**_given(spec, "location", "weight"))
    if kind == "exponential":
        if "rate" not in spec:
            raise ValueError("exponential kernel spec needs 'rate'")
        return exponential(rate=spec["rate"], **_given(spec, "weight"))
    if kind == "uniform":
        if "a" not in spec or "b" not in spec:
            raise ValueError("uniform kernel spec needs 'a' and 'b'")
        return uniform(a=spec["a"], b=spec["b"], **_given(spec, "weight"))
    if kind == "mixture":
        components = spec.get("components")
        if not components:
            raise ValueError("mixture kernel spec needs nonempty 'components'")
        return mixture(*(make_kernel(c) for c in components))
    raise ValueError(f"unknown kernel type {kind!r}")


@dataclass(frozen=True)
class QuadraturePlan:
    """Discretization of a kernel: nodes ``(location, weight)`` + tail bookkeeping.

    The sum of absolute node weights never exceeds the source kernel's total
    variation, and ``tail_mass_bound`` never exceeds the tolerance the plan
    was built with.
    """

    locations: np.ndarray
    weights: np.ndarray
    truncation_horizon: float
    tail_mass_bound: float
    _column: np.ndarray = field(init=False, repr=False, compare=False)
    _unit: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        locations = np.asarray(self.locations, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if locations.shape != weights.shape or locations.ndim != 1:
            raise ValueError("plan locations and weights must be matching 1-d arrays")
        locations.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_column", weights[:, None])
        object.__setattr__(self, "_unit", bool(np.all(weights == 1.0)))

    def __len__(self) -> int:
        return self.locations.size

    def apply(self, values: np.ndarray, starts=None) -> np.ndarray:
        """Weighted sums of per-node values; ``values`` has nodes on axis 0.

        The nodes form consecutive segments that begin at the strictly
        increasing indices ``starts``, the first 0 and all below
        ``len(self)``, and the result holds one weighted sum per segment on
        axis 0.  Without ``starts`` the whole plan is one segment and that
        axis is dropped.  With every weight 1.0 the product is skipped, as
        1.0 * x is x bit for bit (-0.0, inf and quiet NaN too), and segments
        of one node each, as in a Dirac-only model, return ``values`` itself.
        """
        values = _floats(values)
        if len(values) != self.weights.size:
            raise ValueError(f"{len(values)} node values for a plan of {len(self)} nodes")
        if self._unit:
            terms = values
        elif values.ndim == 2:
            terms = self._column * values
        else:
            terms = self.weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values
        if starts is not None:
            # a segment of one node is its own sum
            if len(starts) == len(terms):
                return terms
            return np.add.reduceat(terms, starts, axis=0)
        if not len(self):
            return np.zeros(values.shape[1:])
        return np.add.reduceat(terms, [0], axis=0)[0]


def build_quadrature(kernel: DelayKernel, tail_tol: float, node_spacing: float) -> QuadraturePlan:
    """Discretize ``kernel``: exact atom nodes + trapezoid nodes for the density.

    The density is truncated at the smallest horizon whose analytic tail mass
    is <= ``tail_tol`` (bounded supports are kept whole), then sampled on a
    grid no coarser than ``node_spacing``.  A grid of more than
    ``_MAX_DENSITY_NODES`` nodes is refused, before anything is allocated,
    with a ``ValueError`` naming ``node_spacing``.  Trapezoid weights are
    rescaled so their sum equals the exact truncated mass, which keeps the
    plan's absolute weight sum within the kernel's total variation.
    """
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    if not node_spacing > 0:
        raise ValueError("node_spacing must be positive")

    locations = [loc for loc, _ in kernel.atoms]
    weights = [w for _, w in kernel.atoms]
    horizon = max(locations, default=0.0)
    tail = 0.0

    density = kernel.density
    if density is not None and density.weight != 0.0:
        start = density.support[0]
        end, tail = density.truncation(tail_tol)
        horizon = max(horizon, end)
        if end > start:
            intervals = (end - start) / node_spacing
            if not intervals <= _MAX_DENSITY_NODES - 1:
                raise ValueError(
                    f"node_spacing {node_spacing!r} gives {intervals + 1:.4g} quadrature nodes "
                    f"on the density over [{start:.6g}, {end:.6g}], more than the "
                    f"{_MAX_DENSITY_NODES:,} allowed")
            n_intervals = max(1, math.ceil(intervals - 1e-12))
            grid = np.linspace(start, end, n_intervals + 1)
            step = (end - start) / n_intervals
            coeff = np.full(grid.shape, step)
            coeff[0] = coeff[-1] = step / 2.0
            node_weights = coeff * density.values(grid)
            target = density.mass_up_to(end)
            raw = node_weights.sum()
            if raw != 0.0:
                node_weights *= target / raw
            locations.extend(grid.tolist())
            weights.extend(node_weights.tolist())

    loc_arr = np.asarray(locations, dtype=float)
    w_arr = np.asarray(weights, dtype=float)
    order = np.argsort(loc_arr, kind="stable")
    return QuadraturePlan(
        locations=loc_arr[order],
        weights=w_arr[order],
        truncation_horizon=horizon,
        tail_mass_bound=tail,
    )

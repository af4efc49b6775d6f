"""Delay kernel construction, total variation, and quadrature plans."""

import math
import re

import numpy as np
import pytest

from delaynet.kernels import (
    DelayKernel,
    QuadraturePlan,
    build_quadrature,
    dirac,
    exponential,
    mixture,
    uniform,
)


def test_dirac_at_origin_is_unit_mass_single_atom():
    ker = dirac(0.0, weight=1.0)
    assert ker.atoms == ((0.0, 1.0),)
    assert ker.density is None
    assert ker.total_variation() == 1.0
    assert ker.signed_mass() == 1.0


def test_exponential_unit_kernel_total_variation():
    # |weight| * integral of rate*e^{-rate s} over [0, inf) = |weight|
    assert exponential(rate=1.0, weight=1.0).total_variation() == 1.0
    assert exponential(rate=3.7, weight=-2.5).total_variation() == 2.5


def test_uniform_kernel_total_variation_and_mass():
    ker = uniform(0.5, 1.5, weight=-0.75)
    assert ker.total_variation() == 0.75
    assert ker.signed_mass() == -0.75


def test_mixture_total_variation_adds_absolute_weights():
    ker = mixture(dirac(0.5, weight=-2.0), exponential(rate=1.5, weight=0.3))
    assert ker.total_variation() == pytest.approx(2.3, abs=0.0)
    assert ker.signed_mass() == pytest.approx(-1.7, abs=0.0)


def test_kernel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dirac(-0.1)
    with pytest.raises(ValueError):
        exponential(rate=0.0)
    with pytest.raises(ValueError):
        uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        DelayKernel()
    with pytest.raises(ValueError):
        mixture(exponential(1.0), uniform(0.0, 1.0))


def test_exponential_truncation_horizon_matches_analytic_tail():
    # mass beyond S is e^{-S}; S solving e^{-S} = 1e-10 is -ln 1e-10
    plan = build_quadrature(exponential(1.0), tail_tol=1e-10, node_spacing=1e-3)
    assert plan.truncation_horizon == pytest.approx(-math.log(1e-10), rel=1e-14)
    assert plan.tail_mass_bound <= 1e-10
    # independent check: numeric integral of the tail really is below tol
    s = np.linspace(plan.truncation_horizon, plan.truncation_horizon + 60.0, 200001)
    tail = np.trapezoid(np.exp(-s), s)
    assert tail <= 1e-10 * (1.0 + 1e-6)


def test_atoms_become_exact_nodes_regardless_of_spacing():
    plan = build_quadrature(dirac(0.7, weight=2.5), tail_tol=1e-12, node_spacing=0.3)
    assert len(plan) == 1
    assert plan.locations[0] == 0.7
    assert plan.weights[0] == 2.5
    assert plan.tail_mass_bound == 0.0


@pytest.mark.parametrize("kernel, spacing, nodes", [
    (exponential(2.0), 1e-12, "1.151e+13"),
    (uniform(0.0, 1.0), 1e-12, "1e+12"),
    (mixture(dirac(0.3), uniform(0.5, 1.5)), 5e-324, "inf"),
])
def test_oversized_density_plan_is_refused(kernel, spacing, nodes):
    # refused before the grid is allocated; an atom-only kernel never sees
    # the spacing
    message = re.escape(f"node_spacing {spacing!r} gives {nodes} quadrature nodes")
    with pytest.raises(ValueError, match=message + ".* more than the 1,000,000 allowed"):
        build_quadrature(kernel, tail_tol=1e-10, node_spacing=spacing)
    assert len(build_quadrature(dirac(0.7), tail_tol=1e-10, node_spacing=spacing)) == 1


def test_plan_weight_sum_bounded_by_total_variation():
    rng = np.random.default_rng(20240811)
    for _ in range(40):
        parts = [dirac(rng.uniform(0, 2), weight=rng.uniform(-2, 2))
                 for _ in range(rng.integers(0, 3))]
        shape = rng.integers(0, 3)
        if shape == 1:
            parts.append(exponential(rate=rng.uniform(0.2, 5.0), weight=rng.uniform(-2, 2)))
        elif shape == 2:
            a = rng.uniform(0, 1)
            parts.append(uniform(a, a + rng.uniform(0.1, 2.0), weight=rng.uniform(-2, 2)))
        if not parts:
            parts = [dirac(0.0)]
        ker = mixture(*parts)
        tol = 10.0 ** rng.uniform(-12, -4)
        plan = build_quadrature(ker, tail_tol=tol, node_spacing=10.0 ** rng.uniform(-3, -1))
        assert np.sum(np.abs(plan.weights)) <= ker.total_variation() + tol + 1e-12
        assert np.all(plan.locations >= 0.0)
        assert np.all(np.diff(plan.locations) >= 0.0)


def test_tail_mass_bound_monotone_in_tolerance():
    for ker in (exponential(rate=0.8, weight=1.3),
                mixture(dirac(0.2), exponential(rate=2.0, weight=-0.4)),
                uniform(0.0, 2.0)):
        tols = [1e-12, 1e-9, 1e-6, 1e-3]
        bounds = [build_quadrature(ker, t, 1e-2).tail_mass_bound for t in tols]
        for lo, hi in zip(bounds, bounds[1:]):
            assert lo <= hi


def test_quadrature_converges_to_riemann_oracle():
    # smooth integrand e^{-s^2} against the unit exponential kernel; oracle is
    # a 1e7-point midpoint Riemann sum far past the truncation horizon
    ker = exponential(1.0)
    n = 10**7
    h = 30.0 / n
    s = (np.arange(n) + 0.5) * h
    oracle = float(np.sum(np.exp(-s * s) * np.exp(-s)) * h)
    plan = build_quadrature(ker, tail_tol=1e-10, node_spacing=1e-3)
    val = float(plan.apply(np.exp(-plan.locations**2)))
    assert abs(val - oracle) / abs(oracle) < 1e-6
    # and the error shrinks when the spacing does
    coarse = build_quadrature(ker, tail_tol=1e-10, node_spacing=1e-1)
    coarse_val = float(coarse.apply(np.exp(-coarse.locations**2)))
    assert abs(val - oracle) < abs(coarse_val - oracle)


def test_uniform_quadrature_against_closed_form():
    # integral of cos(s) * (1/(b-a)) ds over [a, b], weight 2
    ker = uniform(0.5, 1.5, weight=2.0)
    plan = build_quadrature(ker, tail_tol=1e-12, node_spacing=1e-4)
    val = float(plan.apply(np.cos(plan.locations)))
    exact = 2.0 * (math.sin(1.5) - math.sin(0.5))
    assert val == pytest.approx(exact, rel=1e-7)


def test_plan_apply_handles_vector_valued_integrands():
    plan = build_quadrature(mixture(dirac(0.0, 1.0), dirac(1.0, -2.0)), 1e-12, 1e-2)
    vals = np.array([[1.0, 10.0], [3.0, 5.0]])
    out = plan.apply(vals)
    assert out.shape == (2,)
    np.testing.assert_allclose(out, [1.0 - 6.0, 10.0 - 10.0])


def test_plan_apply_sums_each_segment():
    # segments [0, 2), [2, 3) and [3, 5)
    plan = QuadraturePlan(locations=np.arange(5.0), weights=[1.0, -2.0, 0.5, 3.0, 0.25],
                          truncation_horizon=4.0, tail_mass_bound=0.0)
    vals = np.array([[1.0, 2.0], [3.0, -1.0], [4.0, 8.0], [-1.0, 0.5], [8.0, 4.0]])
    out = plan.apply(vals, [0, 2, 3])
    np.testing.assert_array_equal(out, [[1.0 - 6.0, 2.0 + 2.0], [2.0, 4.0],
                                        [-3.0 + 2.0, 1.5 + 1.0]])
    # one segment is the whole plan, with the segment axis dropped
    np.testing.assert_array_equal(plan.apply(vals), plan.apply(vals, [0])[0])
    empty = QuadraturePlan(locations=np.zeros(0), weights=np.zeros(0),
                           truncation_horizon=0.0, tail_mass_bound=0.0)
    np.testing.assert_array_equal(empty.apply(np.zeros((0, 2))), [0.0, 0.0])


def test_signed_density_weights_integrate_signed():
    ker = exponential(rate=1.0, weight=-1.0)
    plan = build_quadrature(ker, tail_tol=1e-10, node_spacing=1e-3)
    val = float(plan.apply(np.ones(len(plan))))
    assert val == pytest.approx(-1.0, abs=1e-9)


def test_single_node_segments_apply_as_reduceat_bitwise():
    rng = np.random.default_rng(3)
    plan = QuadraturePlan(np.arange(5.0), rng.standard_normal(5), 4.0, 0.0)
    values = rng.standard_normal((5, 3))
    values[2, 1] = -0.0
    starts = np.arange(5)
    got = plan.apply(values, starts)
    want = np.add.reduceat(plan.weights[:, None] * values, starts, axis=0)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_unit_weight_plans_apply_as_the_product_bitwise():
    # with every weight 1.0 the product is skipped: 1.0 * x is x bit for
    # bit, -0.0, inf and NaN included, and the caller's rows stay as they were
    plan = QuadraturePlan(np.arange(4.0), np.ones(4), 3.0, 0.0)
    values = np.array([[-0.0, np.inf, 1.5], [-0.0, 2.0, np.nan],
                       [-np.inf, -0.0, 3.0], [np.nan, 0.5, -0.0]])
    values.flags.writeable = False
    before = values.tobytes()
    product = 1.0 * values
    assert product.tobytes() == before
    for starts in (None, [0], [0, 2], np.arange(4)):
        got = plan.apply(values, starts)
        if starts is None:
            want = np.add.reduceat(product, [0], axis=0)[0]
        else:
            want = np.add.reduceat(product, starts, axis=0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert values.tobytes() == before
    # no product is left to refuse a row count that is not the node count
    with pytest.raises(ValueError, match="5 node values for a plan of 4 nodes"):
        plan.apply(np.zeros((5, 3)), np.arange(4))


def test_plan_apply_refuses_values_for_another_node_count():
    # one row would broadcast against every weight
    plan = QuadraturePlan(np.arange(3.0), [1.0, 2.0, 3.0], 2.0, 0.0)
    with pytest.raises(ValueError, match="1 node values for a plan of 3 nodes"):
        plan.apply(np.ones((1, 2)))

"""Delay kernels and their quadrature plans.

A coupling link weights past outputs by a finite-variation measure on
[0, inf): point masses give discrete delays, densities give distributed
ones, and mixtures combine both.  A quadrature plan turns the measure into
locations and weights so the convolution becomes a dot product.
"""

import numpy as np

from delaynet import (
    build_quadrature,
    dirac,
    exponential,
    mixture,
    uniform,
)


def main():
    print("== kernels ==")
    point = dirac(location=0.5, weight=1.0)
    tail = exponential(rate=2.0, weight=0.7)
    box = uniform(a=0.0, b=1.0, weight=-0.3)
    mixed = mixture(point, tail)
    for name, k in [("point mass at 0.5", point), ("exponential tail", tail),
                    ("uniform block, negative weight", box), ("mixture", mixed)]:
        print(f"  {name:32s} total variation={k.total_variation():.4f} "
              f"signed mass={k.signed_mass():+.4f}")

    print("\n== quadrature oracle checks ==")
    # Point mass: the plan must reproduce the shifted value exactly.
    plan = build_quadrature(point, tail_tol=1e-10, node_spacing=1e-3)
    exact = np.sin(3.0 - 0.5)
    approx = float(plan.apply(np.sin(3.0 - plan.locations)))
    print(f"  point mass: plan={approx:.12f} exact={exact:.12f} "
          f"err={abs(approx - exact):.2e}")

    # Exponential density against the closed form
    # int_0^inf sin(t - s) w r e^{-r s} ds evaluated with t = 3, w = 0.7, r = 2:
    # w r (r sin t - cos t + e^{..} -> 0) / (1 + r^2).
    t, w, r = 3.0, 0.7, 2.0
    exact = w * r * (r * np.sin(t) - np.cos(t)) / (1.0 + r * r)
    plan = build_quadrature(tail, tail_tol=1e-12, node_spacing=5e-4)
    approx = float(plan.apply(np.sin(t - plan.locations)))
    print(f"  exponential: plan={approx:.12f} exact={exact:.12f} "
          f"rel err={abs(approx - exact) / abs(exact):.2e}")
    print(f"  plan size={plan.locations.size} nodes, truncated at "
          f"s={plan.truncation_horizon:.2f}, tail mass bound="
          f"{plan.tail_mass_bound:.1e}")

    # The plan never exceeds the measure's total variation, truncation or not.
    for k in (point, tail, box, mixed):
        p = build_quadrature(k, tail_tol=1e-8, node_spacing=1e-2)
        assert np.abs(p.weights).sum() <= k.total_variation() + 1e-12
    print("  |weights| sums stay within each kernel's total variation")


if __name__ == "__main__":
    main()

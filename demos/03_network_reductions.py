"""The general coupled model and its classic reduced forms.

The full right-hand side per node is f(t, x_i) plus a sum over sources j of
a_ij(t) times the kernel-weighted history of g(t, x_j).  Undelayed constant
coupling, time-varying coupling, and a shared off-diagonal delay are all
special cases; ``make_example`` builds them directly.  A time-varying matrix
is a piecewise-linear table of its values at knot times.
"""

import numpy as np

from delaynet import (
    HistoryFunction,
    IntegratorConfig,
    PiecewiseLinear,
    check_assumptions,
    chua_node,
    integrate,
    linear_node,
    make_example,
    named_topology,
)


def main():
    print("== reduced couplings as instances of the general model ==")
    node = linear_node([[0.0, 1.0], [-1.0, -0.5]])
    A = named_topology("ring", 4)  # off-diagonal rows sum to 1, diagonal -1
    model1 = make_example(1, node=node, A=2.0 * A, Gamma=np.eye(2))
    print(f"  undelayed constant coupling: m={model1.m}, n={model1.n}")

    knots = np.linspace(0.0, 5.0, 51)
    model2 = make_example(
        2, node=node,
        A=PiecewiseLinear(knots, [(2.0 + np.sin(t)) * A for t in knots]),
        Gamma=PiecewiseLinear(knots, [(1.0 + 0.5 * np.cos(t)) * np.eye(2) for t in knots]))
    print(f"  time-varying coupling and output, tabulated at {knots.size} knots: "
          f"m={model2.m}, kappa={model2.output.kappa:.3g}")

    model3 = make_example(3, node=chua_node(), Gamma=np.eye(3), tau=0.05,
                          topology="all-to-all", c=5.0, m=3)
    print(f"  shared delay off the diagonal: m={model3.m}, tau=0.05")

    print("\n== structural assumption checks ==")
    report = check_assumptions(model3, horizon=5.0, seed=0)
    for name, check in report.items():
        verdict = (f"no violation found in {check.probes} samples" if check.passed
                   else f"VIOLATED - {check.detail}")
        print(f"  {name}: {verdict}")
    print(f"  all satisfied: {all(check.passed for check in report.values())}")

    print("\n== a short run of each ==")
    rng = np.random.default_rng(7)
    for tag, model, horizon in [("constant", model1, 5.0),
                                ("time-varying", model2, 5.0),
                                ("delayed", model3, 2.0)]:
        x0 = 0.3 * rng.standard_normal(model.dim)
        traj = integrate(model, HistoryFunction.constant(x0),
                         IntegratorConfig(method="rk4", h=2e-3, horizon=horizon))
        spread = np.linalg.norm(
            traj.states[-1].reshape(model.m, model.n)
            - traj.states[-1].reshape(model.m, model.n).mean(axis=0), axis=1).max()
        print(f"  {tag:12s} final node spread from the mean: {spread:.3e}")


if __name__ == "__main__":
    main()

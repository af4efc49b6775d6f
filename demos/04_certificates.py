"""Quadratic contraction certificates: falsification and acceptance.

A certificate (P, Delta, epsilon) claims that along any two states u1, u2
the weighted pairing of f(t,u1) - f(t,u2) against u1 - u2, after removing
the Delta part, is at most -epsilon |u1 - u2|^2.  The checker samples the
claim; it can only falsify, never prove, but a falsification comes with an
explicit witness.
"""

import numpy as np

from delaynet import (
    NodeDynamics,
    QuadCertificate,
    check_quad,
    chua_node,
    format_certificate_report,
    lipschitz_certificate,
)


def main():
    print("== an expanding field is rejected with a witness ==")
    expanding = NodeDynamics(dim=2, fn=lambda t, u: u)
    cert = QuadCertificate(P=np.eye(2), Delta=np.zeros(2), epsilon=1.0)
    res = check_quad(expanding, cert, box=5.0, budget=1000, seed=0)
    print(f"  passed={res.passed} after {res.probes} probes")
    w = res.witness
    print(f"  witness: lhs={w['lhs']:.4f} > rhs={w['rhs']:.4f} at t={w['t']:.3f}")

    print("\n== a contracting field passes the same certificate ==")
    contracting = NodeDynamics(dim=2, fn=lambda t, u: -u)
    res = check_quad(contracting, cert, box=5.0, budget=100_000, seed=0)
    print(f"  passed={res.passed} after {res.probes} probes")

    print("\n== the Lipschitz rule covers any globally Lipschitz field ==")
    node = chua_node()
    print(f"  node Lipschitz constant L = {node.lipschitz_hint:.4f}")
    cert = lipschitz_certificate(node.lipschitz_hint, node.dim, epsilon=0.1)
    res = check_quad(node, cert, box=5.0, budget=5000, seed=1)
    print(f"  passed={res.passed}, growth constant delta = {cert.delta:.4f}")

    print("\n== full report block ==")
    print(format_certificate_report(res, cert))


if __name__ == "__main__":
    main()

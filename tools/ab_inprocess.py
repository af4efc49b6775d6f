"""Interleaved in-process A/B timing of ``integrate`` in two delaynet checkouts.

    python tools/ab_inprocess.py A B [--rounds N] [--scale S] [--scenario STEM ...]

A and B are checkout roots; each one's ``src/delaynet`` is loaded into this
process under its own package name, so both sides share one interpreter, one
numpy and one host phase.  A checkout whose scenario reader finds its schema
by the fixed name ``delaynet`` needs a ``delaynet`` on ``PYTHONPATH``.  The
scenarios are the four bundled ones and ``ring_30``, the benchmark's ring-30
document as ``bench/workloads.py`` writes it for seed 1.  Cases off the
benchmark, built in code, run only when named with ``--scenario``:

- ``mixture_{table,constant}_{linear,custom}``: three all-to-all Chua
  nodes at c = 1, every pair's kernel a Dirac mass 0.5 at 0 plus a uniform
  density 0.5 on [0, 7.45], quadrature nodes 0.005 apart, h = 2e-3 and
  horizon 0.2.  The off-diagonal delay rises from 0.01 to 0.03 over the
  run under ``table`` and stays 0.01 under ``constant``; the output is g =
  u, linear, or the custom g = u + 0.0, which reads every quadrature node.
- ``below_h_beside_longer``: three all-to-all Chua nodes at c = 1, each
  reading the next node 0.001 back, below the step h = 2e-3, and the
  previous one 0.05 back; horizon 1.
- ``all_to_all_100``: 100 all-to-all Chua nodes, ``make_example(3)`` with
  c = 1, tau = 0.01 and Gamma = I, from a constant history 0.1 times
  standard normals (seed 100), h = 2e-3 and 200 steps; the largest model
  of the m = 3 ... 100 scaling runs in ROADMAP.md.

Each round integrates every chosen scenario once with each side, the side
that goes first alternating by round, and compares the two trajectories.
Per scenario and in total it prints the median time of each side, each next
to the microseconds per right-hand side it makes (the median over the
right-hand sides of a run: steps times stages), the median of the paired
ratios B/A and the number of rounds B was faster; then, per scenario, the
largest absolute state difference over all rounds.  It exits 1
when any scenario's trajectories are not bitwise equal, after timing every
round: times, states, the count of sub-step lookups, and any auxiliary
columns of the record, matched by the (state column, rate) that each side's
``model.taps.chain(h)`` gives them, as their order follows the order of the
taps.  ``--scale`` shortens every horizon, for a quick check.

A shared host can change speed by tens of percent over minutes, so
processes run minutes apart can differ by more than the change under test;
pairs taken seconds apart inside one process share the host's phase.  Import
and compile time are outside what this script times.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("chua_synchronization", "linear_network", "distributed_delay", "chua_uncoupled")
RING = "ring_30"
STAGES = {"euler": 1, "rk4": 4}


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/delaynet`` as the top-level package ``name``."""
    init = Path(checkout).resolve() / "src" / "delaynet" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


OFF_BENCHMARK = tuple(f"mixture_{delays}_{output}" for delays in ("table", "constant")
                      for output in ("linear", "custom")) + ("below_h_beside_longer",
                                                             "all_to_all_100")


def off_benchmark_case(package, stem: str):
    """The model, history and config of a case off the benchmark."""
    p, off = package, 1.0 - np.eye(3)
    if stem == "all_to_all_100":
        model = p.make_example(3, node=p.chua_node(), Gamma=np.eye(3), tau=0.01,
                               topology="all-to-all", c=1.0, m=100)
        history = p.HistoryFunction.constant(
            0.1 * np.random.default_rng(100).standard_normal(300))
        return model, history, p.IntegratorConfig(h=2e-3, horizon=200 * 2e-3)
    output = p.linear_output(np.eye(3))
    if stem == "below_h_beside_longer":
        D = 0.001 * np.roll(np.eye(3), 1, axis=1) + 0.05 * np.roll(np.eye(3), -1, axis=1)
        delays, kernel, spacing, horizon = p.DelaySchedule.constant(D), p.dirac(), 1e-3, 1.0
    else:
        _, schedule, g = stem.split("_")
        delays = (p.DelaySchedule.table([0.0, 0.2], [0.01 * off, 0.03 * off])
                  if schedule == "table" else p.DelaySchedule.offdiagonal(0.01))
        if g == "custom":
            output = p.OutputFunction(dim=3, fn=lambda t, u: u + 0.0, kappa=1.0)
        kernel = p.mixture(p.dirac(0.0, 0.5), p.uniform(0.0, 7.45, 0.5))
        spacing, horizon = 0.005, 0.2
    model = p.NetworkModel(
        m=3, node=p.chua_node(), output=output,
        coupling=p.CouplingSchedule.constant(p.named_topology("all-to-all", 3)),
        delays=delays, kernels=kernel, node_spacing=spacing)
    history = p.HistoryFunction.constant([0.7, -0.1, -0.6, 0.72, -0.12, -0.58, 0.68, -0.08, -0.62])
    return model, history, p.IntegratorConfig(h=2e-3, horizon=horizon)


def load_case(package, stem: str, scale: float):
    """The scenario's model, history and config, the horizon cut by ``scale``
    to a whole number of steps."""
    if stem in OFF_BENCHMARK:
        model, history, config = off_benchmark_case(package, stem)
    else:
        if stem == RING:
            sys.path.insert(0, str(ROOT / "bench"))
            try:
                import workloads
            finally:
                sys.path.remove(str(ROOT / "bench"))
            scenario = package.scenario_from_dict(workloads.ring_document(1))
        else:
            scenario = package.load_scenario(ROOT / "scenarios" / f"{stem}.json")
        model, history, config = scenario.model, scenario.history, scenario.config
    if scale < 1.0:
        steps = max(1, round(config.steps * scale))
        config = dataclasses.replace(config, horizon=steps * config.h)
    return model, history, config


def _bitwise(a, b) -> bool:
    """Same shape and same bytes: -0.0 differs from 0.0, and NaN equals itself."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _hidden(traj, model, h):
    """The record's auxiliary columns in (state column, rate) order, and
    those keys."""
    _, cols, rates = model.taps.chain(h)
    order = np.lexsort((rates, cols))
    return (traj._record[:len(traj), traj.dim + order],
            list(zip(cols[order].tolist(), rates[order].tolist())))


def _same(ta, tb, case_a, case_b) -> bool:
    """Bitwise equal times, states, auxiliary columns and sub-step counts."""
    (ha, keys_a), (hb, keys_b) = (_hidden(traj, case[0], case[2].h)
                                  for traj, case in ((ta, case_a), (tb, case_b)))
    return (_bitwise(ta.times, tb.times) and _bitwise(ta.states, tb.states)
            and keys_a == keys_b and _bitwise(ha, hb)
            and ta.stage_extrapolation_count == tb.stage_extrapolation_count)


def _largest_gap(a, b) -> float:
    """max |b - a| over the states; inf when the records differ in length."""
    if a.states.shape != b.states.shape:
        return float("inf")
    return float(np.max(np.abs(b.states - a.states), initial=0.0))


def timed(package, case):
    start = time.perf_counter()
    traj = package.integrate(*case)
    return time.perf_counter() - start, traj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout root of side A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout root of side B (the change)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each scenario's horizon to integrate")
    parser.add_argument("--scenario", action="append",
                        choices=BUNDLED + (RING,) + OFF_BENCHMARK,
                        help="a scenario stem or a case off the benchmark; repeat for "
                             "several (default: the bundled ones and ring_30)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or not 0.0 < args.scale <= 1.0:
        parser.error("--rounds must be >= 1 and --scale in (0, 1]")
    stems = args.scenario or list(BUNDLED) + [RING]
    sides = (load_package(args.a, "delaynet_ab_a"), load_package(args.b, "delaynet_ab_b"))
    cases = {stem: [load_case(p, stem, args.scale) for p in sides] for stem in stems}

    times = {stem: ([], []) for stem in stems}
    gaps = dict.fromkeys(stems, 0.0)
    equal = dict.fromkeys(stems, True)
    for r in range(args.rounds):
        for stem in stems:
            order = (0, 1) if r % 2 == 0 else (1, 0)
            trajs = [None, None]
            for s in order:
                dt, trajs[s] = timed(sides[s], cases[stem][s])
                times[stem][s].append(dt)
            ta, tb = trajs
            equal[stem] &= _same(ta, tb, *cases[stem])
            gaps[stem] = max(gaps[stem], _largest_gap(ta, tb))

    calls = {stem: cases[stem][0][2].steps * STAGES[cases[stem][0][2].method] for stem in stems}
    rows = [(stem, *times[stem], calls[stem]) for stem in stems]
    rows.append(("total", [sum(t) for t in zip(*(times[s][0] for s in stems))],
                 [sum(t) for t in zip(*(times[s][1] for s in stems))], sum(calls.values())))
    print(f"{'scenario':<22}{'A median s':>12}{'A us/rhs':>10}{'B median s':>12}{'B us/rhs':>10}"
          f"{'B/A':>8}  B faster")
    for name, ta, tb, n in rows:
        ratio = statistics.median(b / a for a, b in zip(ta, tb))
        wins = sum(b < a for a, b in zip(ta, tb))
        ma, mb = statistics.median(ta), statistics.median(tb)
        print(f"{name:<22}{ma:>12.4f}{1e6 * ma / n:>10.2f}{mb:>12.4f}{1e6 * mb / n:>10.2f}"
              f"{ratio:>8.3f}  {wins}/{len(ta)}")
    print(f"{'scenario':<22}{'max |B-A|':>12}  bitwise")
    for stem in stems:
        print(f"{stem:<22}{gaps[stem]:>12.3g}  {'yes' if equal[stem] else 'no'}")
    same = all(equal.values())
    print(f"bitwise equal: {'yes' if same else 'no'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

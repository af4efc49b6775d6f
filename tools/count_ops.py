"""Deterministic cost counts of ``integrate`` in one delaynet checkout.

    python tools/count_ops.py [CHECKOUT] [--steps N] [--scenario STEM ...]

CHECKOUT is a checkout root, this one by default; its ``src/delaynet`` is
loaded as in ``tools/ab_inprocess.py``, whose case names ``--scenario``
takes: the four bundled scenarios and ``ring_30`` by default, and the cases
off the benchmark when named.  Each case runs its first ``--steps`` steps
(400 by default, or all of a shorter run) once untraced, so that every
cache and lazy import is warm, and then once more under ``sys.settrace``
with ``f_trace_opcodes``, which counts the bytecodes each Python frame
executes, and ``sys.setprofile``, whose ``c_call`` events count the calls
into C functions: numpy's ufuncs are not C functions to the profiler and
show only as the opcodes that call them.

Per case it prints the opcodes and C calls, as counted and per right-hand
side (steps times stages), in total and for every function that counted
one, keyed by its file's stem and ``co_qualname``, the largest first; the
functions' counts sum to the total.  The counts depend on the code and the
Python and numpy versions, not on the host's speed, so two runs print the
same numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import BUNDLED, OFF_BENCHMARK, RING, STAGES, load_case, load_package  # noqa: E402

sys.path.pop(0)


def _key(code) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def count(package, case):
    """(opcodes, C calls) of one ``integrate`` call, each a Counter by function."""
    opcodes, c_calls = Counter(), Counter()
    here = sys._getframe()

    def on_opcode(frame, event, arg):
        if event == "opcode":
            opcodes[_key(frame.f_code)] += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return on_opcode

    def on_profile(frame, event, arg):
        if event == "c_call" and frame is not here:
            c_calls[_key(frame.f_code)] += 1

    sys.settrace(on_call)
    sys.setprofile(on_profile)
    try:
        package.integrate(*case)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return opcodes, c_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1],
                        help="checkout root (default: this one)")
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--scenario", action="append",
                        choices=BUNDLED + (RING,) + OFF_BENCHMARK,
                        help="a case of tools/ab_inprocess.py; repeat for several "
                             "(default: the bundled ones and ring_30)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    package = load_package(args.checkout, "delaynet_counted")
    for stem in args.scenario or list(BUNDLED) + [RING]:
        model, history, config = load_case(package, stem, 1.0)
        steps = min(args.steps, config.steps)
        case = (model, history, dataclasses.replace(config, horizon=steps * config.h))
        calls = steps * STAGES[config.method]
        package.integrate(*case)
        opcodes, c_calls = count(package, case)
        print(f"{stem}: {steps} steps, {calls} right-hand sides")
        print(f"{'opcodes':>10}{'C calls':>10}{'opcodes/rhs':>13}{'C calls/rhs':>13}  function")
        rows = sorted(set(opcodes) | set(c_calls), key=lambda k: (-opcodes[k], -c_calls[k], k))
        for name, ops, cs in [("total", sum(opcodes.values()), sum(c_calls.values()))] + [
                (k, opcodes[k], c_calls[k]) for k in rows]:
            print(f"{ops:>10}{cs:>10}{ops / calls:>13.1f}{cs / calls:>13.1f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

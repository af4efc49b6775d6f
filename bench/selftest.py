"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

For every workload, at a reduced size, one round goes through delaynet and
every check must accept the real outputs and reject each perturbation of
them: a final state moved by 1e-3, a flipped verdict, a wrong exit code.
The tracing wrappers and the host-speed sampler must leave the outputs bit
for bit unchanged, the wrappers must find every name they patch, and the
span and speed-scaling arithmetic is checked on a fake clock.
Prints one line per workload and exits 0 when everything passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import delaynet.cli as cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import digest, invoke  # noqa: E402

SCALE = 0.1
SEED = 7
MOVE = 1e-3


def _copy(res, where: Path):
    dst = where / f"{res.outdir.name}-{len(list(where.iterdir())) if where.exists() else 0}"
    shutil.copytree(res.outdir, dst)
    return dataclasses.replace(res, outdir=dst)


def _edit_file(res, where: Path, name: str, edit):
    bad = _copy(res, where)
    path = bad.outdir / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return bad


def _move_final_state(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + MOVE)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _split_final_window(text: str) -> str:
    """Move the first node's first state by 2 MOVE in the last fifth of the rows."""
    lines = text.rstrip("\n").split("\n")
    for k in range(len(lines) - (len(lines) - 1) // 5, len(lines)):
        cells = lines[k].split(",")
        cells[1] = repr(float(cells[1]) + 2 * MOVE)
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _edit_summary(res, edit):
    summary = json.loads(res.stdout)
    edit(summary)
    return dataclasses.replace(res, stdout=json.dumps(summary, indent=2))


def _flip(section: str, key: str):
    def edit(summary):
        summary[section][key] = not summary[section][key]
    return edit


def perturbations(op, res, where: Path, has_reference: bool):
    """(label, perturbed result, words of the problem the check must report)."""
    yield "wrong exit code", dataclasses.replace(res, rc=res.rc + 1), "exit code"
    if op.argv[0] == "run":
        summary = json.loads(res.stdout)
        yield ("final state moved",
               _edit_file(res, where, "trajectory.csv", _move_final_state),
               "from the reference" if has_reference else "envelope.csv V")
        yield "run verdict flipped", _edit_summary(
            res, lambda s: s.update(exit_code=3, failures=["certificate"])), "summary reports exit"
        if summary.get("certificate"):
            yield ("certificate verdict flipped",
                   _edit_summary(res, _flip("certificate", "passed")), "expected a pass")
            yield ("envelope verdict flipped",
                   _edit_summary(res, _flip("envelope", "verdict")), "envelope verdict")
            yield "certificate.txt verdict flipped", _edit_file(
                res, where, "certificate.txt",
                lambda t: t.replace("verdict: PASS", "verdict: FAIL")), "certificate.txt"
        if op.name == "chua-synchronization":
            yield ("sync verdict flipped", _edit_summary(res, _flip("sync", "synchronized")),
                   "synchronization")
            yield ("nodes apart in the final window",
                   _edit_file(res, where, "trajectory.csv", _split_final_window),
                   "final-window distance")
        return
    flipped = res.stdout.replace("verdict: PASS", "verdict: X").replace(
        "verdict: FAIL", "verdict: PASS").replace("verdict: X", "verdict: FAIL")
    yield "verdict flipped", dataclasses.replace(res, stdout=flipped), "expected"
    if "witness" in res.stdout:
        u1 = res.stdout.split("u1=[", 1)[1].split(",", 1)[0]
        moved = res.stdout.replace(f"u1=[{u1},", f"u1=[{float(u1) + MOVE!r},", 1)
        yield "witness state moved", dataclasses.replace(res, stdout=moved), "differs from"
        u1_list = res.stdout.split("u1=", 1)[1].split("\n", 1)[0]
        u2_list = res.stdout.split("u2=", 1)[1].split("\n", 1)[0]
        same = res.stdout.replace(f"u2={u2_list}", f"u2={u1_list}", 1)
        yield "witness without a violation", dataclasses.replace(res, stdout=same), "does not violate"


def check_workload(name: str, tmp: Path, failures: list[str]) -> None:
    workload = workloads.make_workload(name, SEED, tmp / name, SCALE)
    workload.prepare()
    results = [invoke(cli, op) for op in workload.ops]
    for op, res in zip(workload.ops, results):
        where = tmp / "perturbed" / name
        where.mkdir(parents=True, exist_ok=True)
        if res.rc != op.expect_exit:
            failures.append(f"{name}/{op.name}: exit {res.rc}: {res.stderr[-300:]}")
            continue
        problems = op.check(res)
        if problems:
            failures.append(f"{name}/{op.name}: real outputs rejected: {problems}")
        has_reference = op.name in workload.references
        for label, bad, words in perturbations(op, res, where, has_reference):
            if not any(words in p for p in op.check(bad)):
                failures.append(f"{name}/{op.name}: {label} was not reported as {words!r}")
    before = [digest(r) for r in results]
    tracer = tracing.Tracer()
    restore, wrapped = tracing.install(tracer)
    try:
        after = [digest(invoke(cli, op)) for op in workload.ops]
    finally:
        restore()
    if before != after:
        failures.append(f"{name}: traced outputs differ from untraced ones")
    with speed.SpeedSampler() as sampler:
        sampled = [digest(sampler.timed(invoke, cli, op)[0]) for op in workload.ops]
    if before != sampled:
        failures.append(f"{name}: outputs under the speed sampler differ")
    expected = {n for _, _, n, _ in tracing.SPANS} | {k for _, _, k in tracing.COUNTS}
    if wrapped != expected:
        failures.append(f"{name}: not wrapped: {sorted(expected - wrapped)}")
    layers = tracing.layer_metrics(tracer, wrapped, [])
    busy = {"bundled": "kernels.apply_s", "ring-30": "dynamics.rhs_self_s",
            "check-quad": "certificates.check_quad_s"}[name]
    if not layers.get(busy, 0.0) > 0.0:
        failures.append(f"{name}: traced run reports no {busy}")


def check_span_arithmetic(failures: list[str]) -> None:
    ticks = iter(range(100))
    saved = tracing._clock
    tracing._clock = lambda: float(next(ticks))
    try:
        tracer = tracing.Tracer()
        inner = tracer.span(lambda: None, "inner")
        outer = tracer.span(lambda: (inner(), inner()), "outer")
        outer()
    finally:
        tracing._clock = saved
    spans = tracer.summary()
    # outer 0..5, inner 1..2 and 3..4: self time 5 - 2
    if spans != {"inner": (2, 2.0, 2.0), "outer": (1, 5.0, 3.0)}:
        failures.append(f"span arithmetic: {spans}")


def check_speed_arithmetic(failures: list[str]) -> None:
    """A call of 10 s wall that held samples of REF_S and 2 REF_S ran at
    3/4 of the reference speed on average; a call with no sample inside
    takes the speed of the last sample before it."""
    ref = speed.REF_S
    sampler = speed.SpeedSampler()
    sampler.times.append(2 * ref)
    saved = speed.clock
    try:
        speed.clock = iter([0.0, 10.0, 20.0, 20.5]).__next__
        got = [sampler.timed(sampler.times.extend, [ref, 2 * ref])[1:],
               sampler.timed(lambda: None)[1:]]
    finally:
        speed.clock = saved
    want = [(10.0, (10.0 - 3 * ref) * 0.75), (0.5, 0.25)]
    if any(abs(g[0] - w[0]) > 1e-12 or abs(g[1] - w[1]) > 1e-12 for g, w in zip(got, want)):
        failures.append(f"speed arithmetic: {got}, expected {want}")


def main() -> int:
    failures: list[str] = []
    check_span_arithmetic(failures)
    check_speed_arithmetic(failures)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name in ("bundled", "ring-30", "check-quad"):
            start = time.perf_counter()
            count = len(failures)
            check_workload(name, Path(tmp), failures)
            status = "ok" if len(failures) == count else "FAIL"
            print(f"{name}: {status} ({time.perf_counter() - start:.1f} s)")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

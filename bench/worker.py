"""One measured process: import delaynet, generate the inputs, run whole rounds.

``run.py`` starts one fresh process of this script per run, with the BLAS
thread counts set to 1:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --result FILE [--setup-only]

Set-up is the import of delaynet plus the generation of the workload's input
files.  With ``--setup-only`` the process then measures the import speed
(``speed.import_sample``) and reports ``setup_s``, the set-up time scaled by
it, and exits.  Then the references are computed (untimed) and whole rounds run, at
least one, as long as another round of median length still ends within
``--seconds``.  A round times each of its invocations of
``delaynet.cli.main`` and checks their outputs afterwards.  Untraced rounds
run under ``speed.SpeedSampler``, which also gives each invocation's time at
a fixed host speed.  With ``--trace 1`` one untraced round runs first; the
traced rounds that follow must reproduce its outputs bit for bit.  The
result is one JSON object written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
clock = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def invoke(cli, op):
    """One timed call into delaynet; streams are captured, errors recorded."""
    from workloads import OpResult

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else -1
    except Exception:  # a failed operation is counted, the run goes on
        rc = -1
        err.write(traceback.format_exc())
    return OpResult(rc, out.getvalue(), err.getvalue(), op.outdir)


def digest(result) -> str:
    """Hash of everything an invocation produced: exit code, streams, files."""
    h = hashlib.sha256()
    h.update(f"{result.rc}\0{result.stdout}\0{result.stderr}\0".encode())
    if result.outdir.is_dir():
        for path in sorted(result.outdir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Rounds:
    """Runs rounds of a workload and keeps the tallies of its operations."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.ops = workload.ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.walls: list[float] = []
        self.norm_walls: list[float] = []
        self.durations: list[float] = []
        self.op_times: dict[str, list[float]] = {op.name: [] for op in self.ops}
        self.correct = True

    def run(self, sampler=None, tracer=None) -> None:
        """One round: every operation timed, under ``sampler`` if given,
        then every output checked."""
        begin = clock()
        gc.collect()
        call = invoke
        results, wall, norm_wall = [], 0.0, 0.0
        for op in self.ops:
            if tracer is not None:
                call = tracer.span(invoke, f"run.{op.name}")
            if sampler is not None:
                res, t, norm = sampler.timed(call, self.cli, op)
                norm_wall += norm
            else:
                start = clock()
                res = call(self.cli, op)
                t = clock() - start
            wall += t
            self.op_times[op.name].append(t)
            results.append(res)
        self.walls.append(wall)
        if sampler is not None:
            self.norm_walls.append(norm_wall)
        for op, res in zip(self.ops, results):
            self.attempted += 1
            if res.rc != op.expect_exit:
                self.failed += 1
                self.note(f"{op.name}: exit {res.rc}, expected {op.expect_exit}: "
                          f"{res.stderr.strip()[-300:]}", wrong=False)
                continue
            try:
                problems = op.check(res)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"outputs cannot be checked: {exc!r}"]
            for problem in problems:
                self.note(f"{op.name}: {problem}")
            d = digest(res)
            if self.digests.setdefault(op.name, d) != d:
                self.note(f"{op.name}: outputs differ from the first round's")
        self.durations.append(clock() - begin)

    def note(self, problem: str, wrong: bool = True) -> None:
        """Record a problem; ``wrong`` marks output of an operation that did
        not fail, which makes the run incorrect."""
        if len(self.problems) < 20:
            self.problems.append(problem)
        self.correct = self.correct and not wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import delaynet
    import delaynet.cli as cli
    import_s = clock() - t0
    source = Path(delaynet.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        raise SystemExit(f"delaynet was imported from {source}, not from this checkout")

    import numpy

    import speed
    import workloads

    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t1 = clock()
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        generate_s = clock() - t1
        setup_wall_s = import_s + generate_s
        result = {"import_s": import_s, "generate_s": generate_s, "setup_wall_s": setup_wall_s,
                  "python": sys.version.split()[0], "numpy": numpy.__version__}
        if args.setup_only:
            # the module copies would raise the measured process's peak RSS
            sample = speed.import_sample()
            result.update(import_sample_s=sample,
                          setup_s=setup_wall_s * speed.IMPORT_REF_S / sample)
        else:
            result.update(measure(cli, workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def another_round(start: float, durations: list[float], seconds: float) -> bool:
    """Whether a round like the previous ones, checks included, still ends
    within ``seconds``."""
    return clock() - start + statistics.median(durations) <= seconds


def measure(cli, workload, args) -> dict:
    import speed
    import tracing

    t0 = clock()
    workload.prepare()
    reference_s = clock() - t0
    rounds = Rounds(cli, workload)
    start = clock()
    layers, samples = None, []
    if args.trace:
        rounds.run()
        tracer = tracing.Tracer()
        restore, wrapped = tracing.install(tracer)
        per_round = []
        try:
            while True:
                tracer.reset()
                rounds.run(tracer=tracer)
                per_round.append(tracing.layer_metrics(
                    tracer, wrapped, [op.name for op in workload.ops]))
                if not another_round(start, rounds.durations[1:], args.seconds):
                    break
        finally:
            restore()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        layers = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    else:
        with speed.SpeedSampler() as sampler:
            while True:
                rounds.run(sampler)
                if not another_round(start, rounds.durations, args.seconds):
                    break
        samples = sampler.times
    return {
        "reference_s": reference_s,
        "references": {name: {"tol": r["tol"], "method_error": r["method_error"]}
                       for name, r in workload.references.items()},
        "round_wall_s": rounds.walls,
        "round_norm_wall_s": rounds.norm_walls,
        "speed_samples": len(samples),
        "speed_sample_s": statistics.quantiles(samples, n=4) if len(samples) > 1 else samples,
        "op_s": rounds.op_times,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "correct": rounds.correct,
        "problems": rounds.problems,
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())

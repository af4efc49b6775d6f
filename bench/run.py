"""Benchmark of the delaynet command line: one run of one workload.

    python3 bench/run.py --workload {bundled,ring-30,check-quad} --seed N \
        --seconds S --trace {0,1}

Runs the workload in a fresh single-threaded Python process (bench/worker.py)
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json: the
median round time and the median set-up time over SETUP_RUNS fresh
processes, both scaled to a reference host speed (see speed.py), and the
peak resident set of the measured process.  With ``--trace 1`` they are the
per-layer ones, from spans around delaynet's functions.  The result set,
with machine information, is also written under .bench_out/results/.  Exits
non-zero without a result line when the program cannot be run or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("bundled", "ring-30", "check-quad")
# Set-up is measured in this many fresh processes before the measured one;
# the median is reported.
SETUP_RUNS = 5
# A run may take --seconds plus these allowances before it is stopped: one
# per set-up process, and one for the untimed reference computation and the
# rounds that end past --seconds (the first round, and with --trace 1 the
# untraced round before the traced ones).  At --seconds 35 that is 150 s.
SETUP_ALLOWANCE_S = 5.0
ROUND_ALLOWANCE_S = 90.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version()}


def run_worker(args, result: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result), *extra]
    result.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark one workload of delaynet.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = (time.monotonic() + args.seconds + SETUP_RUNS * SETUP_ALLOWANCE_S
                + ROUND_ALLOWANCE_S)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "delaynet" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: no delaynet sources or BENCHMARK.json in this checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_file = OUT / "results" / f"{stem}.worker.json"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setups.append(run_worker(args, result_file, deadline, "--setup-only"))
        main_run = run_worker(args, result_file, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(main_run["layers"])
        wanted = spec["per_layer"]
    else:
        values = {"wall_norm_s": statistics.median(main_run["round_norm_wall_s"]),
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": main_run["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        elif name.startswith("run."):
            # a bundled scenario this workload does not run
            metrics[name] = {"value": 0.0, "unit": m["unit"]}

    line = {"correct": bool(main_run["correct"]), "attempted": int(main_run["attempted"]),
            "failed": int(main_run["failed"]), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": dict(machine_info(), numpy=main_run["numpy"]),
              "setup_runs": setups, "worker": main_run,
              "result": line}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                  encoding="utf-8")
    result_file.unlink(missing_ok=True)
    for problem in main_run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The developer scripts under tools/."""

import copy
import dataclasses
import importlib
import importlib.util
import json
import math
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _ab_tool():
    spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def _run_ab(a: Path, b: Path, rounds: int, *stems: str, scale: str = "0.02") -> int:
    ab = _ab_tool()
    try:
        return ab.main([str(a), str(b), "--rounds", str(rounds), "--scale", scale]
                       + [arg for stem in stems or ("linear_network",)
                          for arg in ("--scenario", stem)])
    finally:
        for name in ("delaynet_ab_a", "delaynet_ab_b"):
            for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
                del sys.modules[key]


def test_ab_inprocess_compares_a_checkout_with_itself(capsys):
    start = time.perf_counter()
    rc = _run_ab(ROOT, ROOT, 2)
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["scenario", "A", "median", "s", "A", "us/rhs", "B", "median", "s",
                                "B", "us/rhs", "B/A", "B", "faster"]
    assert lines[1].split()[0] == "linear_network" and lines[1].endswith("/2")
    assert lines[2].split()[0] == "total"
    # 2% of linear-network's 5,000 steps, 4 right-hand sides each; the
    # median is printed to 0.1 ms, 0.25 us per right-hand side
    for row in lines[1:3]:
        _, a_s, a_us, b_s, b_us = row.split()[:5]
        assert float(a_us) == pytest.approx(1e6 * float(a_s) / 400, abs=0.15)
        assert float(b_us) == pytest.approx(1e6 * float(b_s) / 400, abs=0.15)
    assert lines[-2].split() == ["linear_network", "0", "yes"]
    assert lines[-1] == "bitwise equal: yes"


def test_ab_inprocess_compares_the_benchmark_ring(capsys):
    # ring-30 as bench/workloads.py writes it for seed 1: 30 Chua nodes, at
    # 2% of its 200 steps
    assert _run_ab(ROOT, ROOT, 1, "ring_30") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[0] == "ring_30" and lines[1].endswith("/1")
    assert lines[-2].split() == ["ring_30", "0", "yes"]
    assert lines[-1] == "bitwise equal: yes"


def test_ab_inprocess_runs_the_cases_off_the_benchmark(capsys):
    # the delay-table and custom-output models of the roadmap, a delay below
    # the step beside a longer one, and 100 all-to-all Chua nodes, built in
    # code; none of them is in the default set, whose total stays over the
    # five scenarios
    cases = ("mixture_table_linear", "mixture_table_custom", "mixture_constant_linear",
             "mixture_constant_custom", "below_h_beside_longer", "all_to_all_100")
    start = time.perf_counter()
    assert _run_ab(ROOT, ROOT, 1, *cases, scale="0.05") == 0
    assert time.perf_counter() - start < 2.0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:8]] == list(cases) + ["total"]
    assert [line.split() for line in lines[-7:-1]] == [[name, "0", "yes"] for name in cases]
    assert lines[-1] == "bitwise equal: yes"


def test_ab_inprocess_matches_hidden_columns_by_state_column_and_rate():
    # three running integrals, one per source: side B lays their blocks out
    # in another order, which moves no value
    import delaynet
    from delaynet import integrate

    ab = _ab_tool()
    case = ab.load_case(delaynet, "mixture_constant_linear", 0.05)
    traj = integrate(*case)
    _, cols, rates = case[0].taps.chain(case[2].h)
    assert cols.size == 9 and not rates.any()
    order = np.roll(np.arange(9), 3)
    moved = copy.copy(traj)
    moved._record = traj._record.copy()
    moved._record[:, traj.dim:] = traj._record[:, traj.dim + order]
    moved._states = moved._record[:, :traj.dim]
    taps = SimpleNamespace(chain=lambda h: (None, cols[order], rates[order]))
    moved_case = (SimpleNamespace(taps=taps),) + case[1:]
    assert moved._record[:len(traj)].tobytes() != traj._record[:len(traj)].tobytes()
    assert ab._same(traj, moved, case, moved_case)
    moved._record[len(traj) - 1, -1] += 1e-9
    assert not ab._same(traj, moved, case, moved_case)


def test_ab_inprocess_keeps_timing_when_the_sides_differ(tmp_path, capsys):
    # side B is this checkout with one number of every run nudged by 1e-9:
    # the last state, or a hidden auxiliary column of the last row, which
    # no lookup reads
    for stem, nudge, want_gap in [("linear_network", "traj.states[-1, 0]", 1e-9),
                                  ("distributed_delay", "traj._record[len(traj) - 1, traj.dim]",
                                   0.0)]:
        package = tmp_path / stem / "src" / "delaynet"
        shutil.copytree(ROOT / "src" / "delaynet", package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(package / "__init__.py", "a", encoding="utf-8") as init:
            init.write("\n_exact_integrate = integrate\n\n\n"
                       "def integrate(*args):\n"
                       "    traj = _exact_integrate(*args)\n"
                       f"    {nudge} += 1e-9\n"
                       "    return traj\n")
        rc = _run_ab(ROOT, tmp_path / stem, 3, stem)
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[0] == stem and lines[1].endswith("/3")
        assert lines[2].split()[0] == "total" and lines[2].endswith("/3")
        name, gap, bitwise = lines[-2].split()
        assert name == stem and bitwise == "no"
        assert float(gap) == pytest.approx(want_gap, rel=1e-3)
        assert lines[-1] == "bitwise equal: no"


def test_every_input_the_benchmark_writes_validates(monkeypatch, tmp_path, capsys):
    # a schema change that rejects a generated document fails the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    from delaynet.cli import main

    for name in ("bundled", "ring-30", "check-quad"):
        for op in workloads.make_workload(name, 1, tmp_path / name).ops:
            assert main(["validate", op.argv[1]]) == 0, (name, op.name)
            assert capsys.readouterr().err == ""


def test_bench_tracer_wraps_every_name_and_yields_every_per_layer_metric(monkeypatch):
    # bench/run.py --trace 1 reports only the metrics whose names the tracer
    # found, so a delaynet name that it patches and that is renamed or
    # dropped leaves the traced result without them
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    from delaynet import scenario

    loaded = scenario.load_scenario(ROOT / "scenarios" / "distributed_delay.json")
    config = dataclasses.replace(loaded.config, horizon=50 * loaded.config.h)
    start = time.perf_counter()
    tracer = tracing.Tracer()
    restore, wrapped = tracing.install(tracer)
    try:
        scenario.integrate(loaded.model, loaded.history, config)
    finally:
        restore()
    assert wrapped == ({name for _, _, name, _ in tracing.SPANS}
                       | {key for _, _, key in tracing.COUNTS})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [m["name"][len("run."):-len("_s")] for m in spec["per_layer"]
            if m["name"].startswith("run.")]
    layers = tracing.layer_metrics(tracer, wrapped, runs)
    for metric in spec["per_layer"]:
        value = layers[metric["name"]]
        assert type(value) is float and math.isfinite(value), metric["name"]
    assert layers["dynamics.rhs_calls"] == layers["kernels.apply_calls"] == 200.0
    assert time.perf_counter() - start < 1.0

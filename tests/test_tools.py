"""The developer scripts under tools/."""

import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inprocess_compares_a_checkout_with_itself(capsys):
    spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    start = time.perf_counter()
    try:
        rc = ab.main([str(ROOT), str(ROOT), "--rounds", "2", "--scale", "0.02",
                      "--scenario", "linear_network"])
    finally:
        for name in ("delaynet_ab_a", "delaynet_ab_b"):
            for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
                del sys.modules[key]
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["scenario", "A", "median", "s"]
    assert lines[1].split()[0] == "linear_network" and lines[1].endswith("/2")
    assert lines[2].split()[0] == "total"
    assert lines[-1] == "bitwise equal: yes"

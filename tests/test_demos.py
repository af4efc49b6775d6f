"""Every demo imports only names the package still provides.

Loading a demo under a run name other than ``__main__`` executes its imports
and definitions but not ``main``, so a removed public name fails here in well
under a second instead of only when someone runs the demo.  Demo 03, the
tabulated time-varying model, also runs in full.
"""

import importlib
import runpy
from pathlib import Path

import pytest

import delaynet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["delaynet"] + [
    f"delaynet.{p.stem}" for p in sorted(Path(delaynet.__file__).parent.glob("*.py"))
    if p.stem not in ("__init__", "__main__")]


def test_demos_are_present():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])


def test_demo_03_runs(capsys):
    path = next(p for p in DEMOS if p.stem == "03_network_reductions")
    runpy.run_path(str(path), run_name="demo")["main"]()
    out = capsys.readouterr().out
    assert "tabulated at 51 knots" in out
    assert "time-varying final node spread" in out


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"

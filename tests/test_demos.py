"""Every demo imports only names the package still provides.

Loading a demo under a run name other than ``__main__`` executes its imports
and definitions but not ``main``, so a removed public name fails here in well
under a second instead of only when someone runs the demo.  Demo 03, the
tabulated time-varying model, and demo 04, the certificate report without
proof constants, also run in full.
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


def test_demo_04_runs(capsys):
    path = next(p for p in DEMOS if p.stem == "04_certificates")
    runpy.run_path(str(path), run_name="demo")["main"]()
    out = capsys.readouterr().out
    assert "passed=True, growth constant delta = 16.9754\n" in out
    assert out.endswith("\n".join([
        "== full report block ==", "certificate check", "  verdict: PASS", "  probes: 5000",
        "  epsilon: 0.1", "  delta: 16.9754"]) + "\n")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_the_package_exports_every_module_s_public_names_once():
    order = ["kernels", "history", "dynamics", "integrator", "certificates", "diagnostics",
             "scenario"]
    declaring = [n for n in MODULES[1:] if hasattr(importlib.import_module(n), "__all__")]
    assert sorted(declaring) == sorted(f"delaynet.{stem}" for stem in order)
    modules = [importlib.import_module(f"delaynet.{stem}") for stem in order]
    assert delaynet.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(delaynet.__all__)) == len(delaynet.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(delaynet, name) is getattr(module, name), name
    assert delaynet.NonFiniteDerivative is delaynet.dynamics.NonFiniteDerivative
    assert delaynet.rhs is delaynet.dynamics.rhs
    assert delaynet.ExponentialDensity is delaynet.kernels.ExponentialDensity
    assert delaynet.UniformDensity is delaynet.kernels.UniformDensity
    assert delaynet.spd_weight is delaynet.history.spd_weight
    assert delaynet.probe_domain is delaynet.certificates.probe_domain
    assert delaynet.certify is delaynet.scenario.certify
    assert delaynet.BLOWUP_THRESHOLD is delaynet.integrator.BLOWUP_THRESHOLD

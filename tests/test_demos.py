"""Every demo imports only names the package still provides.

Loading a demo under a run name other than ``__main__`` executes its imports
and definitions but not ``main``, so a removed public name fails here in well
under a second instead of only when someone runs the demo.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])

"""Every demo script runs to completion against the current API.

Each script is copied into a temporary directory before it runs, so the
outputs it writes next to itself land there and demos/out/ is untouched.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path, capsys):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out

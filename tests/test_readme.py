"""The Python examples of README.md run as written."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs_clean(code):
    # a fresh interpreter with every warning an error, importing the
    # package from this checkout's src/
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_the_readme_states_the_line_count_of_src():
    # the lines of every module, counted as `wc -l src/kickedqubit/*.py` does
    stated = re.search(r"The package is ([\d,]+) lines of Python in `src/`", README)
    assert stated
    lines = sum(p.read_bytes().count(b"\n")
                for p in (ROOT / "src" / "kickedqubit").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines

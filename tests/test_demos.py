"""The demos run end to end: each exits 0 when started as a script.  Each
fenced ``python`` block of README.md runs too, so a name the README uses
cannot leave the package unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.M | re.S)


@pytest.mark.parametrize("demo", ["cevian_counterexample.py", "verified_embedding.py"])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"readme-block-{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})

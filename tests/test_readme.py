"""The documented API stays runnable: the README quick start and the package exports."""

import math
import re
from pathlib import Path

import mfo

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code():
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert len(blocks) == 1, f"expected one python block under Quick start, found {len(blocks)}"
    return blocks[0]


def test_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_code(), f"{README}:Quick start", "exec"), namespace)
    gap = namespace["report"].certificate.gap
    assert math.isfinite(gap) and gap >= 0
    assert math.isfinite(namespace["result"].objective_after)


def test_every_export_resolves():
    missing = [name for name in mfo.__all__ if not hasattr(mfo, name)]
    assert not missing

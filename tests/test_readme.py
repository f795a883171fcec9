"""The documented API stays runnable: the README quick start, its command line and the package exports."""

import json
import math
import re
import shlex
from pathlib import Path

import mfo
from mfo.cli import main

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


def test_command_line_runs(tmp_path, monkeypatch, capsys):
    """Every command of the "Command line" block runs, on the config documented beside it."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (commands,) = re.findall(r"^```bash\n(.*?)^```", section, re.S | re.M)
    (config,) = re.findall(r"^```json\n(.*?)^```", section, re.S | re.M)
    (tmp_path / "cfg.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "mfo", line
        assert main(argv[1:]) == 0, f"{line}: {capsys.readouterr().err}"
    report = json.loads(Path("runs/bridged/bridge_report.json").read_text())
    assert report["eta"] >= report["eps0"] >= 0

"""scipy is loaded only when a transportation LP or the traffic hop metric needs it.

Each case runs in a fresh interpreter, since the test process itself has
long imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused in this process")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_games_and_solvers_run_without_scipy():
    result = run_python(NO_SCIPY + """
import numpy as np

import mfo
import mfo.cli
import mfo.examples
from mfo import EmpiricalMeasure, SolverConfig, SourceDistribution, fw_solve, quantize_sample, sfw_solve
from mfo.examples import PROBLEM_CLASSES

resource = PROBLEM_CLASSES["resource"].from_config({"name": "resource", "steps": 10})
congestion = PROBLEM_CLASSES["congestion"].from_config({"name": "congestion", "steps": 10})
traffic = PROBLEM_CLASSES["traffic"].from_config({"name": "traffic", "network": "grid10"})

stocks = quantize_sample(SourceDistribution.parse("exponential:1"), 8, 0)
fw_solve(resource, stocks, SolverConfig(iterations=5))
starts = quantize_sample(SourceDistribution.parse("uniform:0,0.2"), 8, 0)
sfw_solve(congestion, starts, SolverConfig(iterations=5, n_sims=2, seed=0))
pairs = EmpiricalMeasure("X", xs=np.array([[0.0, 7.0], [1.0, 7.0], [0.0, 6.0]]),
                         weights=np.array([0.4, 0.3, 0.3]))
fw_solve(traffic, pairs, SolverConfig(iterations=5))
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
print(mfo.__file__)
""")
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()) == SRC / "mfo" / "__init__.py"


def test_uniform_plans_and_the_resource_bridge_run_without_scipy(tmp_path):
    cfg = {"problem": {"name": "resource", "steps": 10},
           "marginal": {"dist": "exponential:1", "n": 20, "method": "sample"},
           "solver": {"algorithm": "fw", "iterations": 5}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    result = run_python(NO_SCIPY + f"""
import contextlib
import io
import os

import numpy as np

from mfo import EmpiricalMeasure, MetricSpec, ot_solve
from mfo.cli import main

rng = np.random.default_rng(0)
m0, m1 = (EmpiricalMeasure("X", xs=rng.exponential(size=(30, 1)), weights=np.full(30, 1 / 30))
          for _ in range(2))
rho = ot_solve(m0, m1, MetricSpec("sqrt_euclidean"))

os.chdir({str(tmp_path)!r})
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["quantize", "--dist", "exponential:1", "--n", "20", "--method", "sample",
                 "--seed", "7", "--out", "m1.json"]) == 0
    assert main(["solve", "--config", "cfg.json", "--out", "runs/base", "--seed", "1"]) == 0
    assert main(["bridge", "--mu0", "runs/base/final.json", "--m1", "m1.json",
                 "--config", "cfg.json", "--out", "runs/bridged"]) == 0
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
print(rho.cost)
""")
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) > 0
    assert json.loads((tmp_path / "runs/bridged/bridge_report.json").read_text())["d1"] > 0


def test_ot_solve_loads_scipy_for_its_plan():
    # a non-uniform pair in two dimensions: the transportation LP
    result = run_python("""
import sys

import numpy as np

from mfo import EmpiricalMeasure, MetricSpec, ot_solve

m0 = EmpiricalMeasure("X", xs=np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]]),
                      weights=np.array([0.5, 0.3, 0.2]))
m1 = EmpiricalMeasure("X", xs=np.array([[0.5, 0.0], [1.5, 1.0]]), weights=np.array([0.25, 0.75]))
assert "scipy" not in sys.modules
rho = ot_solve(m0, m1, MetricSpec("euclidean"))
assert "scipy.optimize" in sys.modules
print(repr(rho.cost), rho.rows.tolist(), rho.cols.tolist(), rho.masses.tolist())
""")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == (
        "1.011432741538942 [0, 0, 1, 2] [0, 1, 1, 1] [0.25, 0.25, 0.3, 0.2]").split()


def test_traffic_hop_metric_loads_scipy_on_first_use():
    result = run_python("""
import json
import sys

from mfo.examples import TrafficProblem, grid_network

traffic = TrafficProblem(*grid_network())
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
hops = traffic.metric.node_distances
assert "scipy.sparse.csgraph" in sys.modules
assert traffic.metric is traffic.metric
print(json.dumps([hops[0].tolist(), hops[7].tolist()]))
""")
    assert result.returncode == 0, result.stderr
    # 0..3 top row, 4..7 bottom row; directions are ignored
    assert json.loads(result.stdout) == [[0, 1, 2, 3, 1, 2, 3, 4], [4, 3, 2, 1, 3, 2, 1, 0]]

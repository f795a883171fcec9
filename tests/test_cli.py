import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mfo import EmpiricalMeasure
from mfo.cli import main


def write_config(path, **overrides):
    cfg = {
        "schema": 1,
        "problem": {"name": "resource", "horizon": 10.0, "steps": 30,
                    "discount": 1.0, "price_impact": 1.0},
        "marginal": {"dist": "exponential:1", "n": 20, "method": "sample"},
        "solver": {"algorithm": "sfw", "iterations": 30, "n_sims": 3,
                   "seed": 0, "monotone_guard": True},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def history_without_time(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [row[:-1] for row in rows]


class TestSolveVerb:
    def test_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
        for name in ("history.csv", "final.json", "marginal.json", "extraction.csv", "aggregate.csv"):
            assert (out / name).exists(), name
        final = json.loads((out / "final.json").read_text())
        assert final["algorithm"] == "sfw"
        assert final["certificate"]["gap"] >= 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "1"])
        for name in ("final.json", "marginal.json", "extraction.csv", "aggregate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert history_without_time(out1 / "history.csv") == history_without_time(out2 / "history.csv")

    def test_different_seeds_differ(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
        assert (out1 / "final.json").read_bytes() != (out2 / "final.json").read_bytes()

    def test_fw_on_traffic(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            problem={"name": "traffic", "network": "pigou"},
            marginal={"atoms": [{"x": [0, 1], "w": 1.0}]},
            solver={"algorithm": "fw", "iterations": 100, "seed": 0},
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "flows.csv") as fh:
            rows = {int(r["edge"]): float(r["flow"]) for r in csv.DictReader(fh)}
        assert rows[0] == pytest.approx(1.0, abs=1e-3)

    def test_congestion_dumps(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            problem={"name": "congestion", "alpha": 0.0, "steps": 10},
            marginal={"dist": "uniform:0,0.2", "n": 5, "method": "sample"},
            solver={"algorithm": "sfw", "iterations": 3, "n_sims": 1, "seed": 0},
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectories.csv").exists()

    def test_batch_repeats(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "batch"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--seed", "3", "--repeats", "3"]) == 0
        assert (out / "aggregate_batch.csv").exists()
        for r in range(3):
            assert (out / f"rep{r:03d}" / "final.json").exists()
        # fresh marginal per repeat
        m0 = (out / "rep000" / "marginal.json").read_bytes()
        m1 = (out / "rep001" / "marginal.json").read_bytes()
        assert m0 != m1

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "problem": {"name": "nope"}, "marginal": {}}))
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "unknown problem" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key", [(None, "repeat"), ("problem", "step"),
                                            ("marginal", "size"), ("solver", "monotone_gaurd")])
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, block, key):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "congestion", "steps": 5, "grid_substeps": 5},
                           marginal={"dist": "uniform:0,0.2", "n": 4},
                           solver={"algorithm": "sfw", "iterations": 3})
        data = json.loads(cfg.read_text())
        (data if block is None else data[block])[key] = 10
        cfg.write_text(json.dumps(data))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and (block or "the config") in err

    @pytest.mark.parametrize("block, key, value, name", [
        ("solver", "iterations", 0, "the solver block"),
        ("solver", "n_sims", [], "the solver block"),
        ("solver", "iterations", "abc", "the solver block"),
        ("problem", "steps", 0, "the resource problem block"),
    ], ids=["zero_iterations", "empty_n_sims", "text_iterations", "zero_steps"])
    def test_invalid_value_is_a_config_error(self, tmp_path, capsys, block, key, value, name):
        data = json.loads(write_config(tmp_path / "cfg.json").read_text())
        data[block][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {name}: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("marginal, message", [
        ({"atoms": [{"x": [1.0], "w": 1.0}], "dist": "exponential:1"}, "it names atoms, dist"),
        ({"file": "m.json", "atoms": [{"x": [1.0], "w": 1.0}]}, "it names file, atoms"),
        ({"n": 5, "method": "sample"}, "it names none"),
        ({"atoms": [{"x": [1.0], "w": 1.0}], "n": 5}, "n in the marginal block apply to dist only, not to atoms"),
        ({"file": "m.json", "n": 5, "method": "grid"}, "n, method in the marginal block apply to dist only"),
    ], ids=["atoms_and_dist", "file_and_atoms", "no_source", "n_beside_atoms", "method_beside_file"])
    def test_marginal_names_exactly_one_source(self, tmp_path, capsys, marginal, message):
        EmpiricalMeasure.from_atoms("X", [([1.0], 1.0)]).save_json(tmp_path / "m.json")
        marginal = {k: str(tmp_path / v) if k == "file" else v for k, v in marginal.items()}
        cfg = write_config(tmp_path / "cfg.json", marginal=marginal)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("source", ["file", "atoms"])
    def test_seed_is_allowed_beside_any_marginal_source(self, tmp_path, source):
        EmpiricalMeasure.from_atoms("X", [([1.0], 0.5), ([2.0], 0.5)]).save_json(tmp_path / "m.json")
        marginal = ({"file": str(tmp_path / "m.json")} if source == "file"
                    else {"atoms": [{"x": [1.0], "w": 0.5}, {"x": [2.0], "w": 0.5}]})
        cfg = write_config(tmp_path / "cfg.json", marginal={**marginal, "seed": 4},
                           solver={"algorithm": "fw", "iterations": 3})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "2"]) == 0

    def test_readme_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(block)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        final = json.loads((out / "final.json").read_text())
        assert final["config"]["iterations"] == json.loads(block)["solver"]["iterations"]
        # every accepted key is documented
        from mfo.cli import CONFIG_KEYS, MARGINAL_KEYS, SOLVER_KEYS
        from mfo.examples import PROBLEM_CLASSES

        game_keys = [key for cls in PROBLEM_CLASSES.values() for key in cls.config_keys]
        for key in [*CONFIG_KEYS, *MARGINAL_KEYS, *SOLVER_KEYS, *game_keys]:
            assert f"`{key}`" in readme, key

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "line" in capsys.readouterr().err

    def test_problem_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            problem={"name": "traffic", "network": "pigou"},
            marginal={"atoms": [{"x": [0, 1], "w": 1.0}]},
            solver={"algorithm": "fw", "iterations": 5, "seed": 0},
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--problem", "traffic",
                     "--out", str(out)]) == 0
        final = json.loads((out / "final.json").read_text())
        assert final["problem"]["name"] == "traffic"

    def test_repeats_must_be_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--repeats", "0"]) == 2
        assert "repeats" in capsys.readouterr().err


class TestCsvArtifacts:
    GAMES = {
        "resource": ({"name": "resource", "steps": 10},
                     {"dist": "exponential:1", "n": 6, "method": "sample"},
                     {"algorithm": "fw", "iterations": 5},
                     {"history.csv", "extraction.csv", "aggregate.csv", "aggregate_batch.csv"}),
        "congestion": ({"name": "congestion", "steps": 5, "grid_substeps": 5},
                       {"dist": "uniform:0,0.2", "n": 4, "method": "sample"},
                       {"algorithm": "sfw", "iterations": 3, "n_sims": 2},
                       {"history.csv", "trajectories.csv"}),
        "traffic": ({"name": "traffic", "network": "grid10"},
                    {"atoms": [{"x": [0, 7], "w": 0.5}, {"x": [0, 6], "w": 0.5}]},
                    {"algorithm": "fw", "iterations": 5},
                    {"history.csv", "flows.csv"}),
    }

    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_every_cell_parses_as_a_number(self, tmp_path, game):
        problem, marginal, solver, names = self.GAMES[game]
        cfg = write_config(tmp_path / "cfg.json", problem=problem, marginal=marginal, solver=solver)
        out = tmp_path / "batch"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--seed", "1", "--repeats", "2"]) == 0
        final = json.loads((out / "rep000" / "final.json").read_text())
        EmpiricalMeasure.from_json_dict(final["measure"]).save_csv(out / "final_measure.csv")
        paths = sorted(out.rglob("*.csv"))
        assert names | {"final_measure.csv"} <= {p.name for p in paths}
        for path in paths:
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1, path.name
            for row in rows[1:]:
                for cell in row:
                    float(cell)   # raises on a repr such as np.float64(0.2)


class TestQuantizeVerb:
    def test_grid_output(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["quantize", "--dist", "uniform:0,1", "--n", "4",
                     "--method", "grid", "--out", str(out)]) == 0
        m = EmpiricalMeasure.load_json(out)
        np.testing.assert_allclose(m.xs[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_exponential_truncation_reported(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["quantize", "--dist", "exponential:1", "--n", "8", "--method", "grid",
              "--out", str(out)])
        assert "truncated" in capsys.readouterr().out

    def test_sample_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["quantize", "--dist", "exponential:1", "--n", "16", "--seed", "7", "--out", str(a)])
        main(["quantize", "--dist", "exponential:1", "--n", "16", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBridgeVerb:
    def _run(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "4"])
        return cfg, out

    def test_identity_bridge(self, tmp_path):
        cfg, run = self._run(tmp_path)
        out = tmp_path / "bridged"
        assert main(["bridge", "--mu0", str(run / "final.json"),
                     "--m1", str(run / "marginal.json"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["d1"] == pytest.approx(0.0, abs=1e-12)
        assert report["eta"] == pytest.approx(report["eps0"], abs=1e-12)
        final = json.loads((run / "final.json").read_text())
        mu0 = EmpiricalMeasure.from_json_dict(final["measure"])
        bridged = EmpiricalMeasure.load_json(out / "bridged.json")
        assert bridged.allclose(mu0, tol=1e-12)

    def test_fresh_marginal_bridge(self, tmp_path):
        cfg, run = self._run(tmp_path)
        m1_path = tmp_path / "m1.json"
        main(["quantize", "--dist", "exponential:1", "--n", "20", "--seed", "99",
              "--out", str(m1_path)])
        out = tmp_path / "bridged2"
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(m1_path),
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["d1"] > 0
        assert report["eta"] >= report["eps0"]
        # coupling echoed in the report matches the transport module's output
        assert report["coupling"]["cost"] == pytest.approx(report["d1"], abs=1e-12)
        bridged = EmpiricalMeasure.load_json(out / "bridged.json")
        m1 = EmpiricalMeasure.load_json(m1_path)
        from mfo import SolverConfig, first_marginal, fw_solve
        from mfo.cli import build_problem, load_config

        assert first_marginal(bridged).allclose(m1.merged(), tol=1e-9)
        # certified bound: bridged objective within eta of the direct value
        problem = build_problem(load_config(cfg)["problem"])
        ref = fw_solve(problem, m1, SolverConfig(iterations=3000, gap_tol=1e-9,
                                                 store_measure=False))
        val_lower = ref.certificate.primal_value - ref.certificate.gap
        assert report["objective_after"] - val_lower <= report["eta"] + 1e-6

    def test_requires_problem_or_config(self, tmp_path, capsys):
        cfg, run = self._run(tmp_path)
        assert main(["bridge", "--mu0", str(run / "final.json"),
                     "--m1", str(run / "marginal.json"), "--out", str(tmp_path / "o")]) == 2


class TestReportVerb:
    def test_prints_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "6"])
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        text = capsys.readouterr().out
        assert "objective" in text and "gap" in text

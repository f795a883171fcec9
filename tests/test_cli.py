import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfo import EmpiricalMeasure, first_marginal, fw_gap
from mfo.cli import build_problem, load_config, main


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

    def test_traffic_atom_off_the_od_pairs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            problem={"name": "traffic", "network": "grid10"},
            marginal={"atoms": [{"x": [0, 99], "w": 1}]},
            solver={"algorithm": "fw", "iterations": 5},
        )
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: the marginal block: x=[ 0. 99.] is not a configured origin-destination pair"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_repeats_build_the_game_once(self, tmp_path, monkeypatch):
        from mfo.examples import ResourceProblem

        built = []
        from_config = ResourceProblem.from_config.__func__
        monkeypatch.setattr(ResourceProblem, "from_config",
                            classmethod(lambda cls, cfg: built.append(cfg) or from_config(cls, cfg)))
        cfg = write_config(tmp_path / "cfg.json", solver={"algorithm": "fw", "iterations": 3})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "batch"), "--repeats", "3"]) == 0
        assert len(built) == 1

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

    def test_step_rule_from_the_solver_block(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           solver={"algorithm": "fw", "iterations": 5, "step_rule": "1/(k+1)"})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        final = json.loads((tmp_path / "run" / "final.json").read_text())
        assert final["config"]["step_rule"] == "1/(k+1)"
        default = write_config(tmp_path / "default.json", solver={"algorithm": "fw", "iterations": 5})
        assert main(["solve", "--config", str(default), "--out", str(tmp_path / "default")]) == 0
        final = json.loads((tmp_path / "default" / "final.json").read_text())
        assert final["config"]["step_rule"] == "2/(k+2)"

    def test_unknown_step_rule_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           solver={"algorithm": "fw", "iterations": 5, "step_rule": "1/k"})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error: the solver block: " in err and "step_rule" in err and "'1/k'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("missing", ["edges_csv", "od_csv", "marginal_file"])
    def test_missing_input_file_is_a_config_error(self, tmp_path, capsys, missing):
        (tmp_path / "edges.csv").write_text("from,to,phi_kind,a,b\n0,1,affine,1.0,0.0\n0,1,affine,0.0,1.0\n")
        (tmp_path / "od.csv").write_text("origin,dest\n0,1\n")
        EmpiricalMeasure.from_atoms("X", [([0.0, 1.0], 1.0)]).save_json(tmp_path / "m.json")
        paths = {"edges_csv": tmp_path / "edges.csv", "od_csv": tmp_path / "od.csv",
                 "marginal_file": tmp_path / "m.json"}
        paths[missing] = tmp_path / "gone" / f"{missing}.dat"
        cfg = write_config(
            tmp_path / "cfg.json",
            problem={"name": "traffic", "network": {"edges_csv": str(paths["edges_csv"]),
                                                    "od_csv": str(paths["od_csv"])}},
            marginal={"file": str(paths["marginal_file"])},
            solver={"algorithm": "fw", "iterations": 3},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        block = "the marginal block" if missing == "marginal_file" else "the traffic problem block"
        assert f"config error: {block}: cannot read {paths[missing]}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("short, row, message", [
        ("edges_csv", "0,1", "row 4: '0,1' has 2 of the 3 fields from,to,phi_kind"),
        ("od_csv", "1", "row 3: '1' has 1 of the 2 fields origin,dest"),
    ], ids=["edge_row", "od_row"])
    def test_short_network_row_is_a_config_error(self, tmp_path, capsys, short, row, message):
        paths = {"edges_csv": tmp_path / "edges.csv", "od_csv": tmp_path / "od.csv"}
        paths["edges_csv"].write_text("from,to,phi_kind,a,b\n0,1,affine,1.0,0.0\n0,1,affine,0.0,1.0\n")
        paths["od_csv"].write_text("origin,dest\n0,1\n")
        with open(paths[short], "a") as fh:
            fh.write(row + "\n")
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "traffic", "network": {key: str(p) for key, p in paths.items()}},
                           marginal={"atoms": [{"x": [0, 1], "w": 1.0}]},
                           solver={"algorithm": "fw", "iterations": 3})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config error: the traffic problem block: {paths[short]}, {message}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad, row, message", [
        ("edges_csv", "a,1,affine,1,0", "row 4: 'a,1,affine,1,0': invalid literal for int() with base 10: 'a'"),
        ("edges_csv", "0,1,affine,x,0", "row 4: '0,1,affine,x,0': could not convert string to float: 'x'"),
        ("od_csv", "0,b", "row 3: '0,b': invalid literal for int() with base 10: 'b'"),
    ], ids=["edge_node", "edge_coefficient", "od_node"])
    def test_unparsable_network_field_is_a_config_error(self, tmp_path, capsys, bad, row, message):
        paths = {"edges_csv": tmp_path / "edges.csv", "od_csv": tmp_path / "od.csv"}
        paths["edges_csv"].write_text("from,to,phi_kind,a,b\n0,1,affine,1.0,0.0\n0,1,affine,0.0,1.0\n")
        paths["od_csv"].write_text("origin,dest\n0,1\n")
        with open(paths[bad], "a") as fh:
            fh.write(row + "\n")
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "traffic", "network": {key: str(p) for key, p in paths.items()}},
                           marginal={"atoms": [{"x": [0, 1], "w": 1.0}]},
                           solver={"algorithm": "fw", "iterations": 3})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config error: the traffic problem block: {paths[bad]}, {message}" in err
        assert not (tmp_path / "x").exists()

    def test_network_block_needs_both_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "traffic", "network": {"edges_csv": "e.csv"}},
                           marginal={"atoms": [{"x": [0, 1], "w": 1.0}]})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "edges_csv and od_csv" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value, name", [
        ("solver", "iterations", 2.7, "the solver block"),
        ("solver", "iterations", True, "the solver block"),
        ("solver", "seed", 1.5, "the solver block"),
        ("solver", "seed", False, "the solver block"),
        ("marginal", "n", 20.5, "the marginal block"),
        ("marginal", "n", True, "the marginal block"),
        ("marginal", "seed", 0.5, "the marginal block"),
        (None, "repeats", 2.5, "the config"),
        (None, "repeats", True, "the config"),
        ("problem", "steps", 2.5, "the resource problem block"),
    ])
    def test_count_must_be_an_integer(self, tmp_path, capsys, block, key, value, name):
        data = json.loads(write_config(tmp_path / "cfg.json").read_text())
        (data if block is None else data[block])[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {name}: {key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_integral_float_count_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           marginal={"dist": "exponential:1", "n": 20.0, "method": "sample"},
                           solver={"algorithm": "fw", "iterations": 4.0, "seed": 0})
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        final = json.loads((out / "final.json").read_text())
        assert final["config"]["iterations"] == 4 and final["iterations_run"] == 4
        assert len(EmpiricalMeasure.load_json(out / "marginal.json")) == 20

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_monotone_guard_must_be_a_boolean(self, tmp_path, capsys, value):
        data = json.loads(write_config(tmp_path / "cfg.json").read_text())
        data["solver"]["monotone_guard"] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: the solver block: monotone_guard must be true or false, got {value!r}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-8", [1], True, float("nan"), -1e-8, float("inf")],
                             ids=["string", "list", "true", "nan", "negative", "inf"])
    def test_gap_tol_must_be_a_number(self, tmp_path, capsys, value):
        data = json.loads(write_config(tmp_path / "cfg.json").read_text())
        data["solver"]["gap_tol"] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert ("config error: the solver block: gap_tol must be None or a finite number >= 0, "
                f"got {value!r}") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [None, 0, 1e-3])
    def test_gap_tol_accepts_null_and_numbers(self, tmp_path, value):
        data = json.loads(write_config(tmp_path / "cfg.json").read_text())
        data["solver"]["gap_tol"] = value
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(data))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        assert json.loads((tmp_path / "x" / "final.json").read_text())["config"]["gap_tol"] == value

    def test_discount_overflow_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "resource", "horizon": 10.0, "steps": 30, "discount": 1000.0})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert ("config error: the resource problem block: discount=1000 with horizon=10: "
                "the discount factor exp(discount * t) overflows") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("game, key, value, message", [
        ("congestion", "alpha", float("nan"), "alpha must be finite and at least 0, got nan"),
        ("congestion", "alpha", float("inf"), "alpha must be finite and at least 0, got inf"),
        ("congestion", "vmax", float("nan"), "vmax must be finite and positive, got nan"),
        ("congestion", "horizon", float("nan"), "horizon must be finite and positive, got nan"),
        ("resource", "horizon", float("inf"), "horizon must be finite and positive, got inf"),
        ("resource", "stock_cap", float("nan"), "stock_cap must be finite and at least 0, got nan"),
        ("resource", "stock_cap", -1, "stock_cap must be finite and at least 0, got -1"),
        ("congestion", "vmax", True, "vmax must be a number, got True"),
        ("resource", "price_impact", True, "price_impact must be a number, got True"),
    ], ids=["alpha_nan", "alpha_inf", "vmax_nan", "congestion_horizon_nan", "resource_horizon_inf",
            "stock_cap_nan", "stock_cap_negative", "vmax_boolean", "price_impact_boolean"])
    def test_non_finite_game_parameter_is_a_config_error(self, tmp_path, capsys, game, key, value, message):
        # JSON NaN and Infinity parse to floats; the game rejects them by name
        cfg = write_config(tmp_path / "cfg.json", problem={"name": game, "steps": 5, key: value},
                           marginal={"dist": "uniform:0,0.2", "n": 5, "method": "sample"})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: the {game} problem block: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x")]) == 2
        assert "cannot read" in capsys.readouterr().err

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

    def test_marginal_atoms_and_file_give_the_same_run(self, tmp_path):
        # one reader parses a marginal file and an atoms block: the same
        # atoms give the same run byte for byte
        m = tmp_path / "m.json"
        assert main(["quantize", "--dist", "exponential:1", "--n", "12", "--seed", "3", "--out", str(m)]) == 0
        solver = {"algorithm": "fw", "iterations": 20}
        sources = {"file": {"file": str(m)}, "atoms": {"atoms": json.loads(m.read_text())["atoms"]}}
        for name, marginal in sources.items():
            cfg = write_config(tmp_path / f"{name}.json", marginal=marginal, solver=solver)
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        for artifact in ("final.json", "marginal.json", "extraction.csv"):
            assert (tmp_path / "file" / artifact).read_bytes() == (tmp_path / "atoms" / artifact).read_bytes()
        assert (tmp_path / "atoms" / "marginal.json").read_bytes() == m.read_bytes()

    def test_repeats_must_be_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--repeats", "0"]) == 2
        assert "repeats" in capsys.readouterr().err


@pytest.mark.parametrize("edit, flags, message", [
    (lambda cfg: [cfg], [], "the config must be a JSON object, got list"),
    (lambda cfg: {**cfg, "marginal": [cfg["marginal"]]}, [], "the marginal block must be a JSON object, got list"),
    (lambda cfg: {**cfg, "solver": [cfg["solver"]]}, [], "the solver block must be a JSON object, got list"),
    (lambda cfg: {**cfg, "problem": "resource"}, [], "the problem block must be a JSON object, got str"),
    (lambda cfg: {**cfg, "problem": "resource"}, ["--problem", "resource"],
     "the problem block must be a JSON object, got str"),
], ids=["config_list", "marginal_list", "solver_list", "problem_string", "problem_string_with_flag"])
def test_block_that_is_no_object_is_a_config_error(tmp_path, capsys, edit, flags, message):
    cfg = write_config(tmp_path / "cfg.json")
    cfg.write_text(json.dumps(edit(json.loads(cfg.read_text()))))
    out = tmp_path / "x"
    assert main(["solve", "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("game, problem, width", [
    ("resource", {"name": "resource", "steps": 5}, 2),
    ("congestion", {"name": "congestion", "steps": 5, "grid_substeps": 5}, 2),
    ("traffic", {"name": "traffic", "network": "pigou"}, 3),
])
@pytest.mark.parametrize("verb", ["solve", "bridge"])
def test_parameters_of_another_width_are_a_config_error(tmp_path, capsys, verb, game, problem, width):
    """Resource and congestion take one number per parameter row, traffic an (origin, destination) pair."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", problem=problem,
                       marginal={"atoms": [{"x": [0.5] * width, "w": 0.5}, {"x": [0.25] * width, "w": 0.5}]},
                       solver={"algorithm": "fw", "iterations": 3})
    if verb == "solve":
        argv, label = ["solve", "--config", str(cfg), "--out", str(out)], "the marginal block"
    else:
        mu0, m1 = tmp_path / "mu0.json", tmp_path / "m1.json"
        EmpiricalMeasure.from_atoms("Z", [([0.5], [0.0], 1.0)]).save_json(mu0)
        EmpiricalMeasure.from_atoms("X", [([0.5] * width, 0.5), ([0.25] * width, 0.5)]).save_json(m1)
        argv = ["bridge", "--mu0", str(mu0), "--m1", str(m1), "--config", str(cfg), "--out", str(out)]
        label = "--m1"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {label}: {game} parameters are ")
    assert err.endswith(f"got shape (2, {width})\n")
    assert not out.exists()


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

    def test_out_creates_its_directory(self, tmp_path):
        out = tmp_path / "new" / "nested" / "m.json"
        assert main(["quantize", "--dist", "exponential:1", "--n", "5", "--out", str(out)]) == 0
        assert len(EmpiricalMeasure.load_json(out)) == 5

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


@pytest.mark.parametrize("key, value, message", [
    ("dist", "foo:1", "the marginal block: dist: cannot parse distribution spec 'foo:1'"),
    ("dist", "uniform:1,0", "the marginal block: dist: uniform needs high > low"),
    ("dist", "uniform:a", "the marginal block: dist: could not convert string to float: 'a'"),
    ("dist", "samples:{tmp}/gone.txt",
     "the marginal block: dist: cannot read {tmp}/gone.txt: No such file or directory"),
    ("n", 0, "the marginal block: n must be at least 1, got 0"),
    ("atoms", [{"x": [1.0]}], "the marginal block: atoms: missing key 'w'"),
    ("atoms", [{"x": [1.0], "w": 0.5}], "the marginal block: atoms: weights sum to 0.5, expected 1"),
    ("file", "not_json", "the marginal block: {tmp}/m.json: line 1, column 2: "),
    ("file", "config", "the marginal block: {tmp}/m.json holds no measure: missing key 'space'"),
    ("file", "pairs", "the marginal block: {tmp}/m.json holds a measure on Z, not on X"),
    ("--dist", "foo:1", "--dist: cannot parse distribution spec 'foo:1'"),
    ("--dist", "uniform:1,0", "--dist: uniform needs high > low"),
    ("--dist", "uniform:a", "--dist: could not convert string to float: 'a'"),
    ("--dist", "samples:{tmp}/gone.txt", "--dist: cannot read {tmp}/gone.txt: No such file or directory"),
    ("--n", "0", "--n: n must be at least 1, got 0"),
], ids=["dist_unknown", "dist_empty_interval", "dist_not_a_number", "dist_missing_samples", "n_zero",
        "atom_without_w", "weights_sum_half", "file_not_json", "file_without_space", "file_on_pairs",
        "flag_dist_unknown", "flag_dist_empty_interval", "flag_dist_not_a_number",
        "flag_dist_missing_samples", "flag_n_zero"])
def test_bad_marginal_is_a_config_error(tmp_path, capsys, key, value, message):
    """The marginal block of a config and the quantize verb name the faulty key or flag."""
    if isinstance(value, str):
        value = value.format(tmp=tmp_path)
    out = tmp_path / "out"
    if key.startswith("--"):
        args = {"--dist": "uniform:0,1", "--n": "5", key: value}
        argv = ["quantize", "--dist", args["--dist"], "--n", args["--n"], "--out", str(out)]
    else:
        marginal = {"dist": "uniform:0,1", "n": 5} if key in ("dist", "n") else {}
        if key == "file":
            path = tmp_path / "m.json"
            if value == "not_json":
                path.write_text("{not json")
            elif value == "config":
                write_config(path)
            else:
                EmpiricalMeasure.from_atoms("Z", [([1.0], [0.0], 1.0)]).save_json(path)
            value = str(path)
        marginal[key] = value
        argv = ["solve", "--config", str(write_config(tmp_path / "cfg.json", marginal=marginal)),
                "--out", str(out)]
    assert main(argv) == 2
    assert "config error: " + message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, samples, message", [
    ("quantize", "1.0\nnan\n", "--dist: samples must be a non-empty list of finite numbers"),
    ("quantize", "", "--dist: samples must be a non-empty list of finite numbers"),
    ("solve", None, "the marginal block: dist: a distribution spec is a string such as 'uniform:0,1', got 5"),
], ids=["nan_sample", "empty_samples_file", "dist_not_a_string"])
def test_bad_samples_or_dist_type_is_a_config_error(tmp_path, capsys, verb, samples, message):
    out = tmp_path / "out"
    if verb == "quantize":
        data = tmp_path / "samples.txt"
        data.write_text(samples)
        argv = ["quantize", "--dist", f"samples:{data}", "--n", "5", "--out", str(out)]
    else:
        argv = ["solve", "--config", str(write_config(tmp_path / "cfg.json", marginal={"dist": 5, "n": 5})),
                "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # np.loadtxt warns that an empty file holds no data
        assert main(argv) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["quantize-sample", "quantize-grid", "solve"])
@pytest.mark.parametrize("spec, message", [
    ("uniform:0,inf", "uniform needs finite bounds a finite width apart, got 0.0 and inf"),
    ("uniform:-1e308,1e308", "uniform needs finite bounds a finite width apart, got -1e+308 and 1e+308"),
    ("exponential:1e-320", "exponential needs a rate whose mean 1/rate is finite, got 1e-320"),
], ids=["uniform_to_inf", "uniform_width_overflows", "exponential_mean_overflows"])
def test_law_with_infinite_atoms_is_a_config_error(tmp_path, capsys, spec, message, verb):
    """A law whose atoms would not all be finite is refused before an atom is drawn or written."""
    out = tmp_path / "out"
    if verb == "solve":
        cfg = write_config(tmp_path / "cfg.json", marginal={"dist": spec, "n": 5})
        argv, label = ["solve", "--config", str(cfg), "--out", str(out)], "the marginal block: dist"
    else:
        method = verb.split("-")[1]
        argv, label = ["quantize", "--dist", spec, "--n", "5", "--method", method, "--out", str(out)], "--dist"
    assert main(argv) == 2
    assert f"config error: {label}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, count", [("quantize-sample", 15), ("quantize-grid", 13), ("solve", None)])
def test_law_whose_atoms_overflow_is_a_config_error(tmp_path, capsys, verb, count):
    """A finite-mean exponential law whose draws or upper quantiles overflow writes no atom."""
    out, spec = tmp_path / "out", "exponential:1e-308"
    if verb == "solve":
        cfg = write_config(tmp_path / "cfg.json", marginal={"dist": spec, "n": 80})
        argv, label = ["solve", "--config", str(cfg), "--out", str(out)], "the marginal block: dist"
    else:
        method = verb.split("-")[1]
        argv, label = ["quantize", "--dist", spec, "--n", "80", "--method", method, "--out", str(out)], "--dist"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(rf"config error: {label}: {spec} gives (\d+) non-finite atoms of 80: "
                     "its values overflow a float", err)
    if count is not None:
        assert f"gives {count} non-finite" in err
    assert not out.exists()


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

        assert first_marginal(bridged).allclose(m1.merged(), tol=1e-9)
        # certified bound: bridged objective within eta of the direct value
        problem = build_problem(load_config(cfg)["problem"])
        ref = fw_solve(problem, m1, SolverConfig(iterations=3000, gap_tol=1e-9,
                                                 store_measure=False))
        val_lower = ref.certificate.primal_value - ref.certificate.gap
        assert report["objective_after"] - val_lower <= report["eta"] + 1e-6
        # the bridged measure's own certificate, beside the a-priori eta
        assert 0.0 <= report["gap_after"] <= report["eta"]
        assert report["gap_after"] == pytest.approx(fw_gap(problem, bridged).gap, rel=1e-9, abs=1e-15)
        assert report["lower_bound_after"] == report["objective_after"] - report["gap_after"]
        assert report["lower_bound_after"] <= ref.certificate.primal_value

    def test_bridge_through_the_lp_to_a_larger_target(self, tmp_path):
        # 200 -> 800 atoms takes the transport LP, whose plan under HiGHS's
        # default tolerances failed ot_solve's dual check: a traceback, exit 1
        cfg = write_config(tmp_path / "cfg.json", marginal={"dist": "exponential:1", "n": 200, "method": "sample"},
                           solver={"algorithm": "sfw", "iterations": 5, "n_sims": 1})
        run, m1_path, out = tmp_path / "run", tmp_path / "m1.json", tmp_path / "bridged"
        assert main(["solve", "--config", str(cfg), "--out", str(run), "--seed", "1"]) == 0
        assert main(["quantize", "--dist", "exponential:1", "--n", "800", "--seed", "2",
                     "--out", str(m1_path)]) == 0
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(m1_path),
                     "--config", str(cfg), "--out", str(out)]) == 0
        bridged = EmpiricalMeasure.load_json(out / "bridged.json")
        m1 = EmpiricalMeasure.load_json(m1_path)
        assert first_marginal(bridged).allclose(m1.merged(), tol=1e-9)
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["d1"] > 0 and report["eta"] >= report["eps0"]

    def test_bridge_line_reports_the_certificate_after(self, tmp_path, capsys):
        cfg, run = self._run(tmp_path)
        capsys.readouterr()
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(run / "marginal.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "bridged")]) == 0
        line = capsys.readouterr().out
        report = json.loads((tmp_path / "bridged" / "bridge_report.json").read_text())
        assert "(a priori)" in line
        assert f"gap_after={report['gap_after']:.3g}" in line
        assert f"lower_bound_after={report['lower_bound_after']:.8g}" in line

    def test_bare_measure_is_certified_by_the_bridge(self, tmp_path):
        cfg, run = self._run(tmp_path)
        mu0 = EmpiricalMeasure.from_json_dict(json.loads((run / "final.json").read_text())["measure"])
        bare = tmp_path / "mu0.json"
        mu0.save_json(bare)
        out = tmp_path / "bridged"
        assert main(["bridge", "--mu0", str(bare), "--m1", str(run / "marginal.json"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["eps0"] == fw_gap(build_problem(load_config(cfg)["problem"]), mu0).gap

    def test_eps0_is_the_gap_under_the_bridge_problem(self, tmp_path):
        # mu0 solved with price_impact 0.5, bridged under price_impact 1:
        # the gap stored in final.json does not certify mu0 for this problem
        problem_cfg = json.loads(write_config(tmp_path / "base.json").read_text())["problem"]
        cfg = write_config(tmp_path / "cfg.json", problem={**problem_cfg, "price_impact": 0.5})
        run = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(run), "--seed", "4"]) == 0
        final = json.loads((run / "final.json").read_text())
        out = tmp_path / "bridged"
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(run / "marginal.json"),
                     "--config", str(tmp_path / "base.json"), "--out", str(out)]) == 0
        report = json.loads((out / "bridge_report.json").read_text())
        mu0 = EmpiricalMeasure.from_json_dict(final["measure"])
        assert report["eps0"] == fw_gap(build_problem(problem_cfg), mu0).gap
        assert report["eps0"] > 10 * final["certificate"]["gap"]

    def test_requires_problem_or_config(self, tmp_path, capsys):
        cfg, run = self._run(tmp_path)
        assert main(["bridge", "--mu0", str(run / "final.json"),
                     "--m1", str(run / "marginal.json"), "--out", str(tmp_path / "o")]) == 2

    def test_problem_flag_names_the_game_as_in_solve(self, tmp_path):
        # the config's problem block has no name: --problem gives it one in both verbs
        cfg = write_config(tmp_path / "cfg.json", problem={"steps": 6, "price_impact": 0.5},
                           solver={"algorithm": "fw", "iterations": 10})
        run, out = tmp_path / "run", tmp_path / "bridged"
        assert main(["solve", "--config", str(cfg), "--problem", "resource", "--out", str(run)]) == 0
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(run / "marginal.json"),
                     "--config", str(cfg), "--problem", "resource", "--out", str(out)]) == 0
        final = json.loads((run / "final.json").read_text())
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["problem"] == final["problem"]
        assert final["problem"]["name"] == "resource" and final["problem"]["steps"] == 6

    def test_problem_flag_overrides_the_configured_name_as_in_solve(self, tmp_path, capsys):
        cfg, run = self._run(tmp_path)
        errors = []
        for verb in (["solve"], ["bridge", "--mu0", str(run / "final.json"), "--m1", str(run / "marginal.json")]):
            assert main(verb + ["--config", str(cfg), "--problem", "nosuch", "--out", str(tmp_path / "o")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "the problem block: unknown problem 'nosuch'" in errors[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--mu0", "--m1"])
    @pytest.mark.parametrize("fault, message", [
        ("missing", "cannot read {path}: No such file or directory"),
        ("not_json", "{path}: line 1, column 2: "),
        ("config", "{path} holds no measure: missing key 'space'"),
        ("wrong_space", "{path} holds a measure on {other}, not on {space}"),
    ])
    def test_bad_input_file_is_a_config_error(self, tmp_path, capsys, flag, fault, message):
        files = {"--mu0": tmp_path / "mu0.json", "--m1": tmp_path / "m1.json"}
        EmpiricalMeasure.from_atoms("Z", [([1.0], [0.0, 0.0], 1.0)]).save_json(files["--mu0"])
        EmpiricalMeasure.from_atoms("X", [([1.0], 1.0)]).save_json(files["--m1"])
        path = files[flag] = tmp_path / "bad.json"
        if fault == "not_json":
            path.write_text("{not json")
        elif fault == "config":
            write_config(path)
        elif fault == "wrong_space":
            path.write_bytes(files["--m1" if flag == "--mu0" else "--mu0"].read_bytes())
        space, other = ("Z", "X") if flag == "--mu0" else ("X", "Z")
        out = tmp_path / "o"
        assert main(["bridge", "--mu0", str(files["--mu0"]), "--m1", str(files["--m1"]), "--problem", "resource",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}: " + message.format(path=path, space=space, other=other) in err
        assert not out.exists()

    def test_traffic_target_off_the_od_pairs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", problem={"name": "traffic", "network": "grid10"},
                           marginal={"atoms": [{"x": [0, 7], "w": 1}]},
                           solver={"algorithm": "fw", "iterations": 5})
        run = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(run)]) == 0
        m1 = tmp_path / "m1.json"
        EmpiricalMeasure.from_atoms("X", [([0.0, 5.0], 1.0)]).save_json(m1)
        out = tmp_path / "o"
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(m1), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert ("config error: --m1: x=[0. 5.] is not a configured origin-destination pair"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_resource_stock_is_a_config_error(self, tmp_path, capsys):
        # even q = 0 overspends a negative stock: no decision is feasible there
        cfg, run = self._run(tmp_path)
        m1 = tmp_path / "m1.json"
        EmpiricalMeasure.from_atoms("X", [([1.0], 0.5), ([-0.5], 0.5)]).save_json(m1)
        out = tmp_path / "o"
        assert main(["bridge", "--mu0", str(run / "final.json"), "--m1", str(m1), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert ("config error: --m1: x=-0.5 is a negative stock: no extraction profile fits it"
                in capsys.readouterr().err)
        assert not out.exists()


class TestReportVerb:
    def test_prints_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "6"])
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        text = capsys.readouterr().out
        assert "objective" in text and "gap" in text

    @pytest.mark.parametrize("algorithm, factor", [("fw", 2), ("sfw", 4)])
    def test_prints_the_rate_bound_of_the_algorithm(self, tmp_path, capsys, algorithm, factor):
        cfg = write_config(tmp_path / "cfg.json", solver={"algorithm": algorithm, "iterations": 10})
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        info = json.loads((out / "final.json").read_text())["problem"]
        bound = factor * info["grad_lipschitz"] * info["sup_g_diff_sq"] / 10
        assert f"{factor}LD/K at K=10  : {bound:.4g}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["fw", "sfw"])
    def test_no_rate_bound_under_another_step_rule(self, tmp_path, capsys, algorithm):
        # the 2LD/K and 4LD/K bounds are proved for the 2/(k+2) rule only
        cfg = write_config(tmp_path / "cfg.json",
                           solver={"algorithm": algorithm, "iterations": 10, "step_rule": "1/(k+1)"})
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        text = capsys.readouterr().out
        assert "gap" in text and "LD/K" not in text

    def test_run_without_final_json_is_a_config_error(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert f"config error: --run: cannot read {tmp_path / 'final.json'}: " in capsys.readouterr().err

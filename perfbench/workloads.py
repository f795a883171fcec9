"""The benchmark's four workloads.

Each workload builds its problem instance and a fixed list of inputs
drawn from the workload seed, runs one closed-loop cycle on an input
(the next cycle starts when the previous one has returned), and checks
that cycle's outputs.  Timed operations go through the ``op`` callback
the runner passes in; everything in ``inspect`` is untimed.

Per input, the iteration count and the certified gap are exact
functions of (workload, seed): the runner checks that they repeat.

* ``resource-fw``: oracle-bound FW to a certified gap of 1e-8.
* ``congestion-sfw``: SFW on the congestion game, trajectory DP and
  bump evaluation; the support stays at N atoms.
* ``traffic-fw``: FW with a binding iteration cap, dominated by
  per-iteration Python overhead; the only game with discrete decisions.
* ``cli-bridge``: ``mfo quantize``, ``mfo solve`` and ``mfo bridge``
  run in process, which exercises the measure, transport, certificate
  and artifact I/O layers on a support of about 10k atoms.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Outcome:
    """What one cycle produced, read back after its timed operations."""

    iter_ms: list
    iterations: int
    gap: float
    stored_atoms: int
    checks: list          # (check name, passed)


def input_seed(seed: int, i: int) -> int:
    """Seed of input ``i`` of a workload run with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _gap_check(gaps, final_gap):
    ok = math.isfinite(final_gap) and final_gap >= 0.0 and all(g >= 0.0 for g in gaps)
    return ("gap_nonnegative", bool(ok))


def _feasible_check(name, problem, xs, ys):
    return (name, all(problem.feasible(x, y) for x, y in zip(xs, ys)))


def _report_outcome(report, checks, stored_atoms):
    gaps = [r.gap for r in report.records]
    return Outcome(
        iter_ms=[r.time_ms for r in report.records],
        iterations=report.iterations_run,
        gap=report.certificate.gap,
        stored_atoms=stored_atoms,
        checks=[_gap_check(gaps, report.certificate.gap)] + checks,
    )


class ResourceFW:
    name = "resource-fw"
    params = {"horizon": 10.0, "steps": 50, "discount": 1.0, "price_impact": 1.0,
              "agents": 50, "stocks": "exponential(1) clipped to stock_cap",
              "solver": "fw, step 2/(k+2), store_measure=False", "gap_tol": 1e-8,
              "max_iterations": 20_000, "inputs": 8}

    def __init__(self, mfo, seed, workdir: Path):
        from mfo.examples import ResourceProblem

        p = self.params
        self.mfo = mfo
        self.problem = ResourceProblem(horizon=p["horizon"], steps=p["steps"],
                                       discount=p["discount"], price_impact=p["price_impact"])
        dist = mfo.SourceDistribution("exponential", rate=1.0)
        self.inputs = []
        for i in range(p["inputs"]):
            m = mfo.quantize_sample(dist, p["agents"], input_seed(seed, i))
            xs = np.clip(m.xs, 0.0, self.problem.stock_cap)
            self.inputs.append(mfo.EmpiricalMeasure("X", xs=xs, weights=m.weights, validate=False))
        self.config = mfo.SolverConfig(iterations=p["max_iterations"], gap_tol=p["gap_tol"],
                                       store_measure=False)

    def cycle(self, i, op):
        return op("solve", self.mfo.fw_solve, self.problem, self.inputs[i], self.config)

    def inspect(self, i, report):
        m = self.inputs[i]
        profiles = self.problem.best_response_batch(report.certificate.lam, m.xs)
        checks = [
            ("stopped_at_gap_tol", report.stopped_early
             and report.certificate.gap <= self.params["gap_tol"]),
            _feasible_check("responses_within_budget", self.problem, m.xs, profiles),
        ]
        return _report_outcome(report, checks, stored_atoms=0)


class CongestionSFW:
    name = "congestion-sfw"
    params = {"horizon": 1.0, "steps": 20, "vmax": 3.0, "alpha": 1.0, "cells": 5,
              "smoothing": 20, "grid_substeps": 50, "agents": 50,
              "starts": "uniform on [0, 0.2]", "solver": "sfw, step 2/(k+2), monotone guard",
              "iterations": 60, "n_sims": 3, "inputs": 2}

    def __init__(self, mfo, seed, workdir: Path):
        from mfo.examples import CongestionProblem

        p = self.params
        self.mfo = mfo
        self.problem = CongestionProblem(
            horizon=p["horizon"], steps=p["steps"], vmax=p["vmax"], alpha=p["alpha"],
            cells=p["cells"], smoothing=p["smoothing"], grid_substeps=p["grid_substeps"])
        dist = mfo.SourceDistribution("uniform", low=0.0, high=0.2)
        self.inputs = [mfo.quantize_sample(dist, p["agents"], input_seed(seed, i))
                       for i in range(p["inputs"])]
        self.configs = [mfo.SolverConfig(iterations=p["iterations"], n_sims=p["n_sims"],
                                         seed=input_seed(seed, i), monotone_guard=True)
                        for i in range(p["inputs"])]

    def cycle(self, i, op):
        return op("solve", self.mfo.sfw_solve, self.problem, self.inputs[i], self.configs[i])

    def inspect(self, i, report):
        final = report.final_measure
        checks = [
            _feasible_check("final_atoms_feasible", self.problem, final.xs, final.ys),
            ("objective_non_increasing", bool(np.all(np.diff(report.objectives) <= 0.0))),
        ]
        return _report_outcome(report, checks, stored_atoms=len(final))


class TrafficFW:
    name = "traffic-fw"
    params = {"network": "grid10", "od_pairs": [[0, 7], [1, 7], [0, 6]],
              "od_weights": "(0.4, 0.3, 0.3) times uniform(0.9, 1.1) each, renormalized",
              "solver": "fw, step 2/(k+2)", "max_iterations": 20_000, "gap_tol": 1e-8,
              "inputs": 3}

    def __init__(self, mfo, seed, workdir: Path):
        from mfo.examples import TrafficProblem, grid_network

        p = self.params
        self.mfo = mfo
        self.problem = TrafficProblem(*grid_network())
        xs = np.array(p["od_pairs"], dtype=float)
        self.inputs = []
        for i in range(p["inputs"]):
            rng = np.random.default_rng(input_seed(seed, i))
            w = np.array([0.4, 0.3, 0.3]) * rng.uniform(0.9, 1.1, size=3)
            self.inputs.append(mfo.EmpiricalMeasure("X", xs=xs, weights=w / w.sum()))
        self.config = mfo.SolverConfig(iterations=p["max_iterations"], gap_tol=p["gap_tol"])

    def cycle(self, i, op):
        return op("solve", self.mfo.fw_solve, self.problem, self.inputs[i], self.config)

    def inspect(self, i, report):
        final = report.final_measure
        checks = [_feasible_check("final_atoms_feasible", self.problem, final.xs, final.ys)]
        return _report_outcome(report, checks, stored_atoms=len(final))


class CliBridge:
    name = "cli-bridge"
    params = {"problem": {"name": "resource", "horizon": 10, "steps": 50, "discount": 1,
                          "price_impact": 1},
              "marginal": {"dist": "exponential:1", "n": 50, "method": "sample"},
              "solver": {"algorithm": "fw", "iterations": 200},
              "target": "mfo quantize --dist exponential:1 --n 50 --method sample",
              "inputs": 2}

    def __init__(self, mfo, seed, workdir: Path):
        from mfo.examples import ResourceProblem

        p = self.params
        self.cli = mfo.cli
        self.problem = ResourceProblem.from_config(p["problem"])
        self.workdir = workdir
        self.cfg = workdir / "cfg.json"
        with open(self.cfg, "w") as fh:
            json.dump({k: p[k] for k in ("problem", "marginal", "solver")}, fh)
        # (solve seed, target-marginal seed) per input
        self.inputs = [(input_seed(seed, 2 * i), input_seed(seed, 2 * i + 1))
                       for i in range(p["inputs"])]

    def _verb(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"mfo {argv[0]} exited with {rc}")

    def cycle(self, i, op):
        solve_seed, target_seed = self.inputs[i]
        d = self.workdir / f"input{i}"
        m1, run, bridged = d / "m1.json", d / "run", d / "bridged"
        d.mkdir(exist_ok=True)
        op("quantize", self._verb, ["quantize", "--dist", "exponential:1", "--n", "50",
                                    "--method", "sample", "--seed", str(target_seed),
                                    "--out", str(m1)])
        op("solve", self._verb, ["solve", "--config", str(self.cfg), "--seed", str(solve_seed),
                                 "--out", str(run)])
        op("bridge", self._verb, ["bridge", "--mu0", str(run / "final.json"), "--m1", str(m1),
                                  "--config", str(self.cfg), "--out", str(bridged)])
        return d

    def inspect(self, i, d):
        final = _load(d / "run" / "final.json")
        with open(d / "run" / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        xs0, ys0, _ = _atoms(final["measure"])
        xs1, ys1, w1 = _atoms(_load(d / "bridged" / "bridged.json"))
        mx, _, mw = _atoms(_load(d / "m1.json"))
        gap = float(final["certificate"]["gap"])
        checks = [
            _gap_check([float(r["gap"]) for r in rows], gap),
            _feasible_check("final_atoms_feasible", self.problem, xs0, ys0),
            _feasible_check("bridged_atoms_feasible", self.problem, xs1, ys1),
            ("bridged_marginal_is_target", _same_marginal(xs1, w1, mx, mw)),
        ]
        return Outcome(iter_ms=[float(r["time_ms"]) for r in rows],
                       iterations=int(final["iterations_run"]), gap=gap,
                       stored_atoms=len(xs0), checks=checks)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _atoms(measure):
    """(xs, ys or None, weights) arrays of a measure's JSON form."""
    atoms = measure["atoms"]
    xs = np.array([a["x"] for a in atoms], dtype=float).reshape(len(atoms), -1)
    ys = np.array([a["y"] for a in atoms], dtype=float) if atoms and "y" in atoms[0] else None
    return xs, ys, np.array([a["w"] for a in atoms], dtype=float)


def _same_marginal(xs, w, target_xs, target_w, tol=1e-9):
    """First marginal of (xs, w) equals the target: same points, masses within tol."""
    pts, inv = np.unique(xs, axis=0, return_inverse=True)
    mass = np.bincount(inv.ravel(), weights=w)
    tpts, tinv = np.unique(target_xs, axis=0, return_inverse=True)
    tmass = np.bincount(tinv.ravel(), weights=target_w)
    return bool(pts.shape == tpts.shape and np.array_equal(pts, tpts)
                and np.max(np.abs(mass - tmass)) <= tol)


WORKLOADS = {w.name: w for w in (ResourceFW, CongestionSFW, TrafficFW, CliBridge)}

"""Config-driven experiment runner.

Verbs:

* ``mfo solve    --config cfg.json [--seed S] [--out DIR] [--repeats R]``
* ``mfo bridge   --mu0 final.json --m1 marginal.json --problem NAME [--config cfg.json] [--out DIR]``
* ``mfo quantize --dist SPEC --n N --method {sample,grid} [--seed S] [--out FILE]``
* ``mfo report   --run DIR``

Configs are versioned JSON (see README).  ``--mu0``, ``--m1`` and a
marginal block's ``file`` each take a bare measure JSON or a run's
``final.json``, whose stored measure is read.  Every numeric artifact
is reproducible from (config, seed); the only non-reproducible column
is the measured ``time_ms`` in ``history.csv``.  Batch repeats run one
after another on one game, each with its own seed.

Exit codes: 0 on success; 2 on a config, input or output error; 3 on
an oracle failure.  Every input is read and checked under :func:`_input`
and every artifact written under :func:`_output`, so a config error
starts with the block or flag at fault; a clash between keys or flags
names them instead.  ``--out`` is made before the solve or the plan.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .examples import PROBLEM_CLASSES
from .measures import (EmpiricalMeasure, _is_uniform, _require_space, _write_csv, _write_json, first_marginal,
                       validate_feasible)
from .problem import OracleError, _count, _integer
from .quantize import SourceDistribution, grid_truncation, quantize_grid, quantize_sample
from .solvers import SolverConfig, fw_solve, sfw_solve
from .transport import _bridge as bridge, _finite_pairwise     # cmd_bridge checks its inputs itself, each under its flag

CONFIG_SCHEMA = 1
CONFIG_KEYS = ("schema", "problem", "marginal", "solver", "repeats")
MARGINAL_SOURCES = ("file", "atoms", "dist")
MARGINAL_KEYS = MARGINAL_SOURCES + ("n", "method", "seed")
SOLVER_KEYS = ("algorithm", "seed", "iterations", "step_rule", "n_sims", "monotone_guard", "gap_tol")
#: the rate bound ``factor * L * D / K`` each solver guarantees under the
#: default step rule ``2/(k+2)`` (SFW: in expectation)
RATE_FACTORS = {"fw": 2, "sfw": 4}


class ConfigError(ValueError):
    pass


@contextmanager
def _input(label: str, path=None):
    """What reading or checking an input raises is a config error that starts with ``label``.

    ``path`` is the JSON file read, which a syntax error names.
    """
    try:
        yield
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read {exc.filename}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}: {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except KeyError as exc:
        raise ConfigError(f"{label}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


@contextmanager
def _output(path):
    """What writing ``path`` or under it raises is a config error that starts with ``--out``; nothing else is caught."""
    try:
        yield
    except OSError as exc:     # a full disk names no file
        raise ConfigError(f"--out: cannot write {exc.filename or path}: {exc.strerror}") from exc


def _out_dir(path) -> Path:
    """``path``, made as a directory if it is none yet: each verb's one ``mkdir``."""
    with _output(path):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def _object(block, context: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(block).__name__}")
    return block


def _check_keys(cfg: dict, accepted, context: str):
    """Reject a block that is no object, or has keys that nothing reads: a misspelt one cannot run the default."""
    unknown = [key for key in _object(cfg, context) if key not in accepted]
    if unknown:
        raise ConfigError(f"{context}: unknown key{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(accepted)}")


def load_config(path) -> dict:
    with _input("--config", path), open(path) as fh:
        cfg = json.load(fh)
    _check_keys(cfg, CONFIG_KEYS, "the config")
    if cfg.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ConfigError(f"the config: unsupported schema {cfg.get('schema')!r}")
    return cfg


def _load_mu0(path, label: str, space: str) -> EmpiricalMeasure:
    """The measure on ``space`` in ``path``: a bare measure JSON, or the ``measure`` of a run's ``final.json``.

    It reads every measure file the CLI takes: ``--mu0``, ``--m1`` and a
    marginal block's ``file``.  perfbench's tracer counts it, by this
    name, as artifact I/O.
    """
    with _input(label, path), open(Path(path)) as fh:     # Path: an int would open a file descriptor
        payload = json.load(fh)
    with _input(f"{label}: {path} holds no measure"):
        m = EmpiricalMeasure.from_json_dict(payload["measure"] if "measure" in payload else payload)
    with _input(label):
        _require_space(m, space, str(path))
    return m


def _name_problem(cfg: dict, name) -> dict:
    """``cfg`` with ``--problem``, if given, as its problem block's ``name``."""
    if name:
        _object(cfg.setdefault("problem", {}), "the problem block")["name"] = name
    return cfg


def build_problem(problem_cfg: dict):
    with _input("the problem block"):
        name = _object(problem_cfg, "the problem block")["name"]
    if not isinstance(name, str) or name not in PROBLEM_CLASSES:
        raise ConfigError(f"the problem block: unknown problem {name!r}; available: {sorted(PROBLEM_CLASSES)}")
    cls = PROBLEM_CLASSES[name]
    label = f"the {name} problem block"
    _check_keys(problem_cfg, ("name",) + cls.config_keys, label)
    with _input(label):
        return cls.from_config(problem_cfg)


def build_marginal(marginal_cfg: dict, problem, seed: int) -> EmpiricalMeasure:
    """The marginal a block names, checked as parameters of ``problem``.

    A sample is drawn with ``seed`` unless the block sets its own.
    """
    label = "the marginal block"
    _check_keys(marginal_cfg, MARGINAL_KEYS, label)
    sources = [key for key in MARGINAL_SOURCES if key in marginal_cfg]
    if len(sources) != 1:
        raise ConfigError(f"{label} must name exactly one of {', '.join(MARGINAL_SOURCES)}; "
                          f"it names {', '.join(sources) or 'none'}")
    # seed stays allowed beside any source: the run fills it in
    dist_only = [key for key in ("n", "method") if key in marginal_cfg]
    if sources != ["dist"] and dist_only:
        raise ConfigError(f"{', '.join(dist_only)} in {label} apply to dist only, not to {sources[0]}")
    if "file" in marginal_cfg:
        m = _load_mu0(marginal_cfg["file"], label, "X")
    elif "atoms" in marginal_cfg:
        with _input(f"{label}: atoms"):
            m = EmpiricalMeasure.from_json_dict({"space": "X", "atoms": marginal_cfg["atoms"]})
    else:
        with _input(f"{label}: dist"):
            dist = SourceDistribution.parse(marginal_cfg["dist"])
        with _input(label):
            n = _count(marginal_cfg["n"], "n")
            method = marginal_cfg.get("method", "sample")
            if method not in ("sample", "grid"):
                raise ValueError(f"unknown quantization method {method!r}")
            draw_seed = _integer(marginal_cfg.get("seed", seed), "seed") if method == "sample" else None
        with _input(f"{label}: dist"):
            m = quantize_grid(dist, n) if method == "grid" else quantize_sample(dist, n, draw_seed)
    with _input(label):
        problem.initial_decision_batch(m.xs)
    return m


def build_solver_config(solver_cfg: dict, seed_override=None) -> tuple[str, SolverConfig]:
    label = "the solver block"
    _check_keys(solver_cfg, SOLVER_KEYS, label)
    # SolverConfig checks every value, under the same integer rule as the rest of the config
    with _input(label):
        algorithm = solver_cfg.get("algorithm", "fw")
        if algorithm not in ("fw", "sfw"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        fields = {key: solver_cfg[key] for key in SOLVER_KEYS[1:] if key in solver_cfg}
        if seed_override is not None:
            fields["seed"] = seed_override
        return algorithm, SolverConfig(**fields)


def _decisions(problem, report, m_n):
    """One decision row per atom of ``m_n``: SFW's own, else the best responses at the final dual point."""
    if report.decisions is not None:
        return report.decisions
    return problem.best_response_batch(report.certificate.lam, m_n.xs)


def _agent_rows(times, *columns):
    """CSV rows ``agent, t, times[t], column[agent, t]...``; each column holds one row per agent."""
    n, steps = columns[0].shape
    return zip(np.repeat(np.arange(n), steps).tolist(), np.tile(np.arange(steps), n).tolist(),
               np.tile(times, n).tolist(), *(c.ravel().tolist() for c in columns))


def _write_resource_dumps(problem, report, m_n, out: Path):
    profiles = _decisions(problem, report, m_n)
    stocks = problem.stock_trajectory(m_n.xs, profiles)[:, :-1]
    _write_csv(out / "extraction.csv", ["agent", "t", "time", "q", "stock"],
               _agent_rows(problem.times, profiles, stocks))
    rate = problem.aggregate_rate(report.certificate.beta)
    _write_csv(out / "aggregate.csv", ["t", "time", "Q"],
               zip(range(problem.steps), problem.times.tolist(), rate.tolist()))


def _write_congestion_dumps(problem, report, m_n, out: Path):
    _write_csv(out / "trajectories.csv", ["agent", "t", "time", "position"],
               _agent_rows(np.arange(problem.steps + 1) * problem.dt, _decisions(problem, report, m_n)))


def _write_traffic_dumps(problem, report, m_n, out: Path):
    flows, lam = report.certificate.beta.tolist(), report.certificate.lam.tolist()
    _write_csv(out / "flows.csv", ["edge", "tail", "head", "flow", "latency"],
               ([e, edge.tail, edge.head, flows[e], lam[e]] for e, edge in enumerate(problem.edges)))


_DUMPERS = {"resource": _write_resource_dumps, "congestion": _write_congestion_dumps, "traffic": _write_traffic_dumps}


def _run_single(problem, marginal_cfg, algorithm, solver_cfg, out: Path):
    m_n = build_marginal(marginal_cfg, problem, solver_cfg.seed)
    if algorithm == "sfw" and not _is_uniform(m_n):
        raise ConfigError("the marginal block: the stochastic solver needs uniform weights 1/N")
    _out_dir(out)
    solver = sfw_solve if algorithm == "sfw" else fw_solve
    try:
        report = solver(problem, m_n, solver_cfg)
    except OracleError as exc:
        raise OracleError(f"{exc} (run seed {solver_cfg.seed})") from exc
    with _output(out):
        report.write_history_csv(out / "history.csv")
        report.save_final_json(out / "final.json")
        m_n.save_json(out / "marginal.json")
        dumper = _DUMPERS.get(problem.name)
        if dumper:
            dumper(problem, report, m_n, out)
    return report


def cmd_solve(args) -> int:
    cfg = _name_problem(load_config(args.config), args.problem)
    with _input("the config" if args.repeats is None else "--repeats"):
        repeats = _count(cfg.get("repeats", 1) if args.repeats is None else args.repeats, "repeats")
    algorithm, solver_cfg = build_solver_config(cfg.get("solver", {}), args.seed)
    with _input("the config"):
        problem_cfg, marginal_cfg = cfg["problem"], cfg["marginal"]
    # one game serves every repeat: a solve leaves it as built
    problem = build_problem(problem_cfg)
    out = Path(args.out)
    if repeats == 1:
        report = _run_single(problem, marginal_cfg, algorithm, solver_cfg, out)
        print(f"solve[{problem.name}] iterations={report.iterations_run} "
              f"objective={report.certificate.primal_value:.8g} gap={report.certificate.gap:.3g}")
        return 0
    rates, gaps = [], []
    for r in range(repeats):
        config = dataclasses.replace(solver_cfg, seed=solver_cfg.seed + r)
        report = _run_single(problem, marginal_cfg, algorithm, config, out / f"rep{r:03d}")
        gaps.append(report.certificate.gap)
        if problem.name == "resource":
            rates.append(problem.aggregate_rate(report.certificate.beta))
    if rates:
        with _output(out):
            _write_csv(out / "aggregate_batch.csv", ["t", "time", "mean", "std"],
                       ([t, time, float(rate.mean()), float(rate.std())]
                        for t, (time, rate) in enumerate(zip(problem.times.tolist(), np.vstack(rates).T))))
    print(f"solve[{problem.name}] repeats={repeats} max_gap={max(gaps):.3g}")
    return 0


def cmd_bridge(args) -> int:
    if not (args.config or args.problem):
        raise ConfigError("bridge needs --problem or --config")
    cfg = _name_problem(load_config(args.config) if args.config else {}, args.problem)
    with _input("the config"):
        problem_cfg = cfg["problem"]
    problem = build_problem(problem_cfg)
    mu0 = _load_mu0(args.mu0, "--mu0", "Z")
    m1 = _load_mu0(args.m1, "--m1", "X")
    with _input("--m1"):
        problem.initial_decision_batch(m1.xs)
    with _input("--mu0"):
        validate_feasible(mu0, problem)
    with _input("--m1"):
        _finite_pairwise(problem.metric, first_marginal(mu0).xs, m1.xs)
    out = _out_dir(args.out)
    result = bridge(mu0, m1, problem)
    report = {"schema": 1, "problem": problem.describe(), "d1": result.transport_cost,
              "coupling": result.coupling.to_json_dict(),
              **{key: getattr(result, key) for key in ("eps0", "eta", "aggregate_shift", "objective_before",
                                                      "objective_after", "gap_after", "lower_bound_after")}}
    with _output(out):
        result.measure.save_json(out / "bridged.json")
        _write_json(out / "bridge_report.json", report, sort_keys=True, separators=(",", ":"))
    print(f"bridge[{problem.name}] d1={result.transport_cost:.6g} eta={result.eta:.6g} (a priori) "
          f"objective {result.objective_before:.8g} -> {result.objective_after:.8g} "
          f"gap_after={result.gap_after:.3g} lower_bound_after={result.lower_bound_after:.8g}")
    return 0


def cmd_quantize(args) -> int:
    with _input("--n"):
        n = _count(args.n, "n")
    with _input("--dist"):
        dist = SourceDistribution.parse(args.dist)
        m = quantize_grid(dist, n) if args.method == "grid" else quantize_sample(dist, n, args.seed)
    trunc = grid_truncation(dist, n) if args.method == "grid" else None
    if trunc:
        print(f"truncated {dist.describe()} at quantile {trunc[0]} (x <= {trunc[1]:.6g})")
    _out_dir(Path(args.out).parent)
    with _output(args.out):
        m.save_json(args.out)
    print(f"quantize[{args.method}] {dist.describe()} n={n} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.run) / "final.json"
    with _input("--run", path):
        with open(path) as fh:
            final = json.load(fh)
        cert, info = final["certificate"], final["problem"]
        lines = [f"algorithm      : {final['algorithm']}",
                 f"problem        : {info.get('name')}",
                 f"iterations run : {final['iterations_run']}"
                 + (" (early exit)" if final.get("stopped_early") else ""),
                 f"objective      : {cert['primal_value']:.10g}",
                 f"gap            : {cert['gap']:.4g}",
                 f"lower bound    : {cert['primal_value'] - cert['gap']:.10g}"]
        factor = RATE_FACTORS.get(final["algorithm"])
        default_rule = final["config"].get("step_rule", "2/(k+2)") == "2/(k+2)"
        if factor and default_rule and {"grad_lipschitz", "sup_g_diff_sq"} <= info.keys():
            k = final["iterations_run"]
            bound = factor * info["grad_lipschitz"] * info["sup_g_diff_sq"] / k
            lines.append(f"{factor}LD/K at K={k}  : {bound:.4g}")
        if final.get("beyond_guarantee"):
            lines.append("note           : K exceeds twice the support size; outside the guaranteed regime")
        hist = path.parent / "history.csv"
        if hist.exists():
            with open(hist) as fh:
                gaps = [float(r["gap"]) for r in csv.DictReader(fh)]
            if gaps:
                lines.append(f"min gap seen   : {min(gaps):.4g}")
    print("\n".join(lines))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="run a solver from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--problem", default=None, help="override the configured problem name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bridge", help="transport a solution to a new marginal")
    p.add_argument("--mu0", required=True,
                   help="final.json of a run, or a bare measure JSON; the bridge certifies its gap itself")
    p.add_argument("--m1", required=True, help="target marginal JSON")
    p.add_argument("--problem", default=None, help="override the configured problem name")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bridge)

    p = sub.add_parser("quantize", help="discretize a marginal")
    p.add_argument("--dist", required=True, help="e.g. uniform:0,1 or exponential:1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("sample", "grid"), default="sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("report", help="summarize a finished run")
    p.add_argument("--run", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven experiment runner.

Verbs:

* ``mfo solve    --config cfg.json [--seed S] [--out DIR] [--repeats R]``
* ``mfo bridge   --mu0 final.json --m1 marginal.json --problem NAME [--config cfg.json] [--out DIR]``
* ``mfo quantize --dist SPEC --n N --method {sample,grid} [--seed S] [--out FILE]``
* ``mfo report   --run DIR``

Configs are versioned JSON (see README).  Every numeric artifact is
reproducible from (config, seed); the only non-reproducible column is
the measured ``time_ms`` in ``history.csv``.  Batch repeats run one
after another, each with its own seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .examples import PROBLEM_CLASSES
from .measures import EmpiricalMeasure
from .problem import OracleError, _integer as _plain_integer
from .quantize import SourceDistribution, grid_truncation, quantize_grid, quantize_sample
from .solvers import SolverConfig, fw_solve, sfw_solve
from .transport import bridge

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


def _require(cfg: dict, field: str, context: str):
    if field not in cfg:
        raise ConfigError(f"missing field {context}.{field}")
    return cfg[field]


def _integer(value, key: str, context: str) -> int:
    """A config value as an int; a boolean or a fraction is an error, not truncated."""
    try:
        return _plain_integer(value, key)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _check_keys(cfg: dict, accepted, context: str):
    """Reject keys that nothing reads, so a misspelt one cannot silently run the default."""
    unknown = [key for key in cfg if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown key{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))} in {context}; "
                          f"accepted: {', '.join(accepted)}")


@contextmanager
def _reading(path, label=""):
    """An input file that cannot be read or parsed is a config error naming ``label`` and ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{label}cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_config(path) -> dict:
    with _reading(path), open(path) as fh:
        cfg = json.load(fh)
    if cfg.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {cfg.get('schema')!r}")
    _check_keys(cfg, CONFIG_KEYS, "the config")
    return cfg


def build_problem(problem_cfg: dict):
    name = _require(problem_cfg, "name", "problem")
    if name not in PROBLEM_CLASSES:
        raise ConfigError(f"unknown problem {name!r}; available: {sorted(PROBLEM_CLASSES)}")
    cls = PROBLEM_CLASSES[name]
    _check_keys(problem_cfg, ("name",) + cls.config_keys, f"the {name} problem block")
    try:
        return cls.from_config(problem_cfg)
    except OSError as exc:
        raise ConfigError(f"the {name} problem block: cannot read {exc.filename}: {exc.strerror}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"the {name} problem block: {exc}") from exc


def _distribution(spec, label: str) -> SourceDistribution:
    """``SourceDistribution.parse(spec)``; a bad spec or samples file is a config error naming ``label``."""
    try:
        return SourceDistribution.parse(spec)
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read the samples file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _quantized(quantizer, label: str, dist: SourceDistribution, *args) -> EmpiricalMeasure:
    """``quantizer(dist, *args)``; a law whose atoms overflow is a config error naming ``label``."""
    try:
        return quantizer(dist, *args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _check_atom_count(n: int, label: str):
    if n < 1:
        raise ConfigError(f"{label} must be at least 1, got {n}")


def _check_parameters(problem, m: EmpiricalMeasure, label: str):
    """A marginal atom the game cannot take (a traffic ``x`` that is no configured pair) is a config error."""
    try:
        problem.initial_decision_batch(m.xs)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def build_marginal(marginal_cfg: dict, problem, seed: int) -> EmpiricalMeasure:
    _check_keys(marginal_cfg, MARGINAL_KEYS, "the marginal block")
    sources = [key for key in MARGINAL_SOURCES if key in marginal_cfg]
    if len(sources) != 1:
        raise ConfigError(f"the marginal block must name exactly one of {', '.join(MARGINAL_SOURCES)}; "
                          f"it names {', '.join(sources) or 'none'}")
    # seed stays allowed beside any source: the run fills it in
    dist_only = [key for key in ("n", "method") if key in marginal_cfg]
    if sources != ["dist"] and dist_only:
        raise ConfigError(f"{', '.join(dist_only)} in the marginal block apply to dist only, "
                          f"not to {sources[0]}")
    if "file" in marginal_cfg:
        return _read_marginal("the marginal block", marginal_cfg["file"])
    if "atoms" in marginal_cfg:
        try:
            pairs = [(a["x"], a["w"]) for a in marginal_cfg["atoms"]]
            return EmpiricalMeasure.from_atoms("X", pairs, merge=False)
        except KeyError as exc:
            raise ConfigError(f"the marginal block: an atoms entry has no key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"the marginal block: atoms: {exc}") from exc
    dist = _distribution(_require(marginal_cfg, "dist", "marginal"), "the marginal block: dist")
    n = _integer(_require(marginal_cfg, "n", "marginal"), "n", "the marginal block")
    _check_atom_count(n, "the marginal block: n")
    method = marginal_cfg.get("method", "sample")
    if method == "grid":
        m = _quantized(quantize_grid, "the marginal block: dist", dist, n)
    elif method == "sample":
        draw_seed = _integer(marginal_cfg.get("seed", seed), "seed", "the marginal block")
        m = _quantized(quantize_sample, "the marginal block: dist", dist, n, draw_seed)
    else:
        raise ConfigError(f"unknown quantization method {method!r}")
    cap = getattr(problem, "stock_cap", None)
    if cap is not None:
        xs = np.clip(m.xs, 0.0, cap)
        m = EmpiricalMeasure("X", xs=xs, weights=m.weights, validate=False)
    return m


def build_solver_config(solver_cfg: dict, seed_override=None) -> tuple[str, SolverConfig]:
    _check_keys(solver_cfg, SOLVER_KEYS, "the solver block")
    algorithm = solver_cfg.get("algorithm", "fw")
    if algorithm not in ("fw", "sfw"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    # SolverConfig checks every value, under the same integer rule as the rest of the config
    try:
        cfg = SolverConfig(
            iterations=solver_cfg.get("iterations", 100),
            step_rule=solver_cfg.get("step_rule", SolverConfig.step_rule),
            n_sims=solver_cfg.get("n_sims", 1),
            seed=solver_cfg.get("seed", 0) if seed_override is None else seed_override,
            monotone_guard=solver_cfg.get("monotone_guard", True),
            gap_tol=solver_cfg.get("gap_tol"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"the solver block: {exc}") from exc
    return algorithm, cfg


def _write_resource_dumps(problem, report, m_n, out: Path):
    lam = report.certificate.lam
    if report.decisions is not None:
        profiles = report.decisions
    else:
        profiles = problem.best_response_batch(lam, m_n.xs)
    with open(out / "extraction.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "t", "time", "q", "stock"])
        times = problem.times.tolist()
        for i, (x, q) in enumerate(zip(m_n.xs, profiles)):
            stocks = problem.stock_trajectory(x, q).tolist()
            writer.writerows([i, t, times[t], qt, stocks[t]] for t, qt in enumerate(q.tolist()))
    rate = problem.aggregate_rate(report.certificate.beta)
    with open(out / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "time", "Q"])
        writer.writerows(zip(range(problem.steps), problem.times.tolist(), rate.tolist()))


def _write_congestion_dumps(problem, report, m_n, out: Path):
    if report.decisions is not None:
        trajs = report.decisions
    else:
        trajs = problem.best_response_batch(report.certificate.lam, m_n.xs)
    with open(out / "trajectories.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "t", "time", "position"])
        for i, tr in enumerate(trajs):
            for t in range(problem.steps + 1):
                writer.writerow([i, t, repr(t * problem.dt), repr(float(tr[t]))])


def _write_traffic_dumps(problem, report, m_n, out: Path):
    flows, lam = report.certificate.beta, report.certificate.lam
    with open(out / "flows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "tail", "head", "flow", "latency"])
        for e, edge in enumerate(problem.edges):
            writer.writerow([e, edge.tail, edge.head, repr(float(flows[e])), repr(float(lam[e]))])


_DUMPERS = {
    "resource": _write_resource_dumps,
    "congestion": _write_congestion_dumps,
    "traffic": _write_traffic_dumps,
}


def _run_single(cfg, seed, out: Path):
    problem = build_problem(_require(cfg, "problem", "config"))
    marginal_cfg = dict(_require(cfg, "marginal", "config"))
    if seed is not None and "seed" not in marginal_cfg:
        marginal_cfg["seed"] = seed
    algorithm, solver_cfg = build_solver_config(cfg.get("solver", {}), seed)
    m_n = build_marginal(marginal_cfg, problem, solver_cfg.seed)
    _check_parameters(problem, m_n, "the marginal block")
    solver = sfw_solve if algorithm == "sfw" else fw_solve
    try:
        report = solver(problem, m_n, solver_cfg)
    except OracleError as exc:
        raise OracleError(f"{exc} (run seed {solver_cfg.seed})") from exc
    out.mkdir(parents=True, exist_ok=True)
    report.write_history_csv(out / "history.csv")
    report.save_final_json(out / "final.json")
    m_n.save_json(out / "marginal.json")
    dumper = _DUMPERS.get(problem.name)
    if dumper:
        dumper(problem, report, m_n, out)
    return problem, m_n, report


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.problem:
        cfg.setdefault("problem", {})["name"] = args.problem
    out = Path(args.out)
    repeats = args.repeats
    if repeats is None:
        repeats = _integer(cfg.get("repeats", 1), "repeats", "the config")
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    base_seed = args.seed
    if base_seed is None:
        base_seed = _integer(cfg.get("solver", {}).get("seed", 0), "seed", "the solver block")
    if repeats <= 1:
        problem, _, report = _run_single(cfg, base_seed, out)
        print(f"solve[{problem.name}] iterations={report.iterations_run} "
              f"objective={report.certificate.primal_value:.8g} gap={report.certificate.gap:.3g}")
        return 0
    results = [_run_single(cfg, base_seed + r, out / f"rep{r:03d}") for r in range(repeats)]
    problem = results[0][0]
    if problem.name == "resource":
        rates = np.vstack([prob.aggregate_rate(report.certificate.beta) for prob, _, report in results])
        with open(out / "aggregate_batch.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "time", "mean", "std"])
            times = problem.times.tolist()
            for t in range(problem.steps):
                writer.writerow([t, repr(times[t]),
                                 repr(float(rates[:, t].mean())), repr(float(rates[:, t].std()))])
    gaps = [rep.certificate.gap for _, _, rep in results]
    print(f"solve[{problem.name}] repeats={repeats} max_gap={max(gaps):.3g}")
    return 0


def _load_mu0(path):
    """The measure of a run's ``final.json``, or a bare measure JSON."""
    with open(path) as fh:
        payload = json.load(fh)
    return EmpiricalMeasure.from_json_dict(payload["measure"] if "measure" in payload else payload)


def _read_measure(flag: str, path, read):
    """``read(path)``; a file that cannot be read or holds no measure is a config error naming ``flag``."""
    with _reading(path, f"{flag}: "):
        try:
            return read(path)
        except json.JSONDecodeError:
            raise
        except KeyError as exc:
            raise ConfigError(f"{flag}: {path} holds no measure: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{flag}: {path} holds no measure: {exc}") from exc


def _read_marginal(flag: str, path) -> EmpiricalMeasure:
    """A measure on X read from ``path``; anything else is a config error naming ``flag``."""
    m = _read_measure(flag, path, EmpiricalMeasure.load_json)
    if m.space != "X":
        raise ConfigError(f"{flag}: {path} holds a measure on {m.space}, not on X")
    return m


def cmd_bridge(args) -> int:
    if args.config:
        problem = build_problem(_require(load_config(args.config), "problem", "config"))
    elif args.problem:
        problem = build_problem({"name": args.problem})
    else:
        raise ConfigError("bridge needs --problem or --config")
    mu0 = _read_measure("--mu0", args.mu0, _load_mu0)
    if mu0.space != "Z":
        raise ConfigError(f"--mu0: {args.mu0} holds a measure on {mu0.space}, not on Z")
    m1 = _read_marginal("--m1", args.m1)
    _check_parameters(problem, m1, "--m1")
    result = bridge(mu0, m1, problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.measure.save_json(out / "bridged.json")
    report = {
        "schema": 1,
        "problem": problem.describe(),
        "eps0": result.eps0,
        "d1": result.transport_cost,
        "eta": result.eta,
        "aggregate_shift": result.aggregate_shift,
        "objective_before": result.objective_before,
        "objective_after": result.objective_after,
        "gap_after": result.gap_after,
        "lower_bound_after": result.lower_bound_after,
        "coupling": result.coupling.to_json_dict(),
    }
    # json.dumps uses the C encoder; json.dump always streams through pure Python
    with open(out / "bridge_report.json", "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
    print(f"bridge[{problem.name}] d1={result.transport_cost:.6g} eta={result.eta:.6g} (a priori) "
          f"objective {result.objective_before:.8g} -> {result.objective_after:.8g} "
          f"gap_after={result.gap_after:.3g} lower_bound_after={result.lower_bound_after:.8g}")
    return 0


def cmd_quantize(args) -> int:
    dist = _distribution(args.dist, "--dist")
    _check_atom_count(args.n, "--n")
    if args.method == "grid":
        m = _quantized(quantize_grid, "--dist", dist, args.n)
        trunc = grid_truncation(dist, args.n)
        if trunc:
            print(f"truncated {dist.describe()} at quantile {trunc[0]} (x <= {trunc[1]:.6g})")
    else:
        m = _quantized(quantize_sample, "--dist", dist, args.n, args.seed)
    m.save_json(args.out)
    print(f"quantize[{args.method}] {dist.describe()} n={args.n} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.run) / "final.json"
    with _reading(path, "--run: "), open(path) as fh:
        final = json.load(fh)
    cert = final["certificate"]
    print(f"algorithm      : {final['algorithm']}")
    print(f"problem        : {final['problem'].get('name')}")
    print(f"iterations run : {final['iterations_run']}"
          + (" (early exit)" if final.get("stopped_early") else ""))
    print(f"objective      : {cert['primal_value']:.10g}")
    print(f"gap            : {cert['gap']:.4g}")
    print(f"lower bound    : {cert['primal_value'] - cert['gap']:.10g}")
    info = final["problem"]
    factor = RATE_FACTORS.get(final["algorithm"])
    default_rule = final["config"].get("step_rule", "2/(k+2)") == "2/(k+2)"
    if factor and default_rule and {"grad_lipschitz", "sup_g_diff_sq"} <= info.keys():
        k = final["iterations_run"]
        print(f"{factor}LD/K at K={k}  : {factor * info['grad_lipschitz'] * info['sup_g_diff_sq'] / k:.4g}")
    if final.get("beyond_guarantee"):
        print("note           : K exceeds twice the support size; outside the guaranteed regime")
    hist = path.parent / "history.csv"
    if hist.exists():
        with open(hist) as fh:
            gaps = [float(r["gap"]) for r in csv.DictReader(fh)]
        if gaps:
            print(f"min gap seen   : {min(gaps):.4g}")
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
    p.add_argument("--problem", default=None)
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

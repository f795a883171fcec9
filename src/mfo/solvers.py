"""Frank-Wolfe and stochastic Frank-Wolfe solvers over a fixed marginal.

The deterministic solver mixes the running measure with one
best-response measure per iteration (open-loop step ``2/(k+2)``, or
``1/(k+1)``: fictitious play), growing the support by at most one atom
per support point per iteration; the aggregate is updated
incrementally so the per-iteration cost does not grow with the support.

The stochastic variant keeps exactly one decision per support point:
each iteration draws, independently per agent, Bernoulli switches from
the incumbent to the best response, simulates ``n_k`` such candidate
states, and keeps the cheapest (optionally also guarding with the
incumbent, which makes the objective non-increasing).  Randomness comes
from counter-based streams keyed on ``(seed; iteration, candidate)``,
so agent draws are independent of execution order and runs are
bit-reproducible.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .measures import EmpiricalMeasure, first_marginal
from .problem import (DualCertificate, MfoProblem, _certify, _count, _integer, _norm, _support_values,
                      aggregate, fw_gap)
from .transport import MARGINAL_TOL, _is_uniform

#: the open-loop step weights by name; under ``1/(k+1)`` the iterate is the
#: running average of the best-response measures (fictitious play)
STEP_RULES = {
    "2/(k+2)": lambda k: 2.0 / (k + 2.0),
    "1/(k+1)": lambda k: 1.0 / (k + 1.0),
}


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, step rule, simulation counts and seeding."""

    iterations: int = 100
    step_rule: str = "2/(k+2)"        # a key of STEP_RULES
    n_sims: object = 1                # int, or a sequence of ints: count at k, the last one repeating
    seed: int = 0
    monotone_guard: bool = True
    gap_tol: float | None = None
    store_measure: bool = True

    def __post_init__(self):
        # the fields are written to final.json, so each becomes a plain Python value
        if not isinstance(self.step_rule, str) or self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {self.step_rule!r}: step_rule must be one of {', '.join(STEP_RULES)}")
        tol = self.gap_tol
        real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
        if tol is not None and not (real and 0.0 <= tol < np.inf):
            raise ValueError(f"gap_tol must be None or a finite number >= 0, got {tol!r}")
        if np.ndim(self.n_sims) == 0:
            n_sims = _count(self.n_sims, "simulation counts")
        else:
            n_sims = tuple(_count(n, "simulation counts") for n in self.n_sims)
            if not n_sims:
                raise ValueError("the simulation-count schedule is empty")
        if not isinstance(self.monotone_guard, (bool, np.bool_)):
            raise ValueError(f"monotone_guard must be true or false, got {self.monotone_guard!r}")
        object.__setattr__(self, "monotone_guard", bool(self.monotone_guard))
        object.__setattr__(self, "iterations", _count(self.iterations, "iterations"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "gap_tol", None if tol is None else float(tol))
        object.__setattr__(self, "n_sims", n_sims)

    def omega(self, k: int) -> float:
        return STEP_RULES[self.step_rule](k)

    def sims_at(self, k: int) -> int:
        if isinstance(self.n_sims, int):
            return self.n_sims
        return self.n_sims[min(k, len(self.n_sims) - 1)]

    def to_json_dict(self):
        return {
            "iterations": self.iterations,
            "step_rule": self.step_rule,
            "n_sims": self.n_sims if isinstance(self.n_sims, int) else list(self.n_sims),
            "seed": self.seed,
            "monotone_guard": self.monotone_guard,
            "gap_tol": self.gap_tol,
        }


@dataclass(frozen=True)
class IterationRecord:
    k: int
    objective: float
    gap: float
    lambda_norm: float
    time_ms: float
    n_candidates: int | None = None


@dataclass
class SolveReport:
    """Per-iteration history plus the final measure and certificate."""

    algorithm: str
    records: list
    certificate: DualCertificate
    final_measure: EmpiricalMeasure | None
    seed: int
    config: dict
    iterations_run: int
    stopped_early: bool = False
    beyond_guarantee: bool = False
    decisions: np.ndarray | None = None    # SFW: one decision per support point
    problem_info: dict = field(default_factory=dict)

    @property
    def objectives(self):
        return np.array([r.objective for r in self.records])

    @property
    def gaps(self):
        return np.array([r.gap for r in self.records])

    def write_history_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "objective", "gap", "lambda_norm", "time_ms"])
            for r in self.records:
                writer.writerow([r.k, repr(r.objective), repr(r.gap),
                                 repr(r.lambda_norm), repr(r.time_ms)])

    def final_json_dict(self):
        out = {
            "schema": 1,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config": self.config,
            "problem": self.problem_info,
            "iterations_run": self.iterations_run,
            "stopped_early": self.stopped_early,
            "beyond_guarantee": self.beyond_guarantee,
            "certificate": self.certificate.to_json_dict(),
        }
        if self.final_measure is not None:
            out["measure"] = self.final_measure.to_json_dict()
        return out

    def save_final_json(self, path):
        # json.dumps uses the C encoder; json.dump always streams through pure Python
        with open(path, "w") as fh:
            fh.write(json.dumps(self.final_json_dict(), sort_keys=True, separators=(",", ":")))


def _check_marginal(m_N):
    if m_N.space != "X":
        raise ValueError("the prescribed marginal must live on X")


def _warm_start(problem, xs, w):
    """Best responses, and their contributions, at the aggregate of a feasible start."""
    y0 = problem.initial_decision_batch(xs)
    beta0 = w @ problem.g_eval_batch(xs, y0)
    ys, G, _ = _support_values(problem, problem.f_grad(beta0), xs)
    return ys, G


def fw_solve(problem: MfoProblem, m_N: EmpiricalMeasure, config: SolverConfig,
             mu0: EmpiricalMeasure | None = None) -> SolveReport:
    """Frank-Wolfe over measures with the prescribed marginal.

    Unless supplied, the starting measure is the best-response measure
    at the gradient of an arbitrary feasible aggregate; a supplied
    ``mu0`` must have first marginal ``m_N``.  Both step rules give the
    first step weight 1, so ``mu0`` sets only the first linearization
    point, and the result only when the run stops at ``k = 0``.  After
    ``K`` iterations with the default step rule the suboptimality is at
    most ``2 * grad_lipschitz * sup_g_diff_sq / K``.
    """
    _check_marginal(m_N)
    xs, w = m_N.xs, m_N.weights
    factor = 1.0
    if mu0 is None:
        ys0, G0 = _warm_start(problem, xs, w)
        beta = w @ G0
        blocks = [(xs, ys0, w.copy())]     # (xs, ys, raw weights); effective weight = raw * factor
    else:
        if not first_marginal(mu0).allclose(m_N, tol=MARGINAL_TOL):
            raise ValueError("the warm start mu0 does not have the prescribed marginal")
        beta = aggregate(problem, mu0)
        blocks = [(mu0.xs, mu0.ys, mu0.weights.copy())]

    records = []
    stopped_early = False
    for k in range(config.iterations):
        tic = time.perf_counter()
        cert, ys_br, G_br = _certify(problem, beta, xs, w)
        stopped_early = config.gap_tol is not None and cert.gap <= config.gap_tol
        if not stopped_early:
            om = config.omega(k)
            beta = (1.0 - om) * beta + om * (w @ G_br)
            if config.store_measure:        # an unstored run builds no measure: it keeps no blocks
                if om >= 1.0:
                    blocks = []
                    factor = 1.0
                else:
                    factor *= 1.0 - om
                if om > 0.0:
                    blocks.append((xs, ys_br, om * w / factor))
        records.append(IterationRecord(k, cert.primal_value, cert.gap, _norm(problem, cert.lam),
                                       (time.perf_counter() - tic) * 1e3))
        if stopped_early:
            break

    if config.store_measure:
        xs_all = np.vstack([b[0] for b in blocks])
        ys_all = np.vstack([b[1] for b in blocks])
        w_all = np.concatenate([b[2] for b in blocks]) * factor
        final = EmpiricalMeasure("Z", xs=xs_all, ys=ys_all, weights=w_all, validate=False).merged()
        cert = fw_gap(problem, final)
    else:
        final = None
        cert = _certify(problem, beta, xs, w)[0]

    return SolveReport(
        algorithm="fw",
        records=records,
        certificate=cert,
        final_measure=final,
        seed=config.seed,
        config=config.to_json_dict(),
        iterations_run=len(records),
        stopped_early=stopped_early,
        problem_info=problem.describe(),
    )


def candidate_rng(seed: int, k: int, j: int) -> np.random.Generator:
    """Counter-based stream for candidate ``j`` of iteration ``k``."""
    bitgen = np.random.Philox(key=np.uint64(seed & (2 ** 64 - 1)), counter=[0, 0, k, j])
    return np.random.Generator(bitgen)


def measure_from_state(m_N: EmpiricalMeasure, decisions) -> EmpiricalMeasure:
    """The empirical pair measure of one decision per support point (support kept as-is)."""
    return EmpiricalMeasure("Z", xs=m_N.xs, ys=np.asarray(decisions, dtype=float),
                            weights=m_N.weights, validate=False)


def sfw_solve(problem: MfoProblem, m_N: EmpiricalMeasure, config: SolverConfig) -> SolveReport:
    """Stochastic Frank-Wolfe keeping one decision per support point.

    Requires a uniform marginal.  For ``K`` up to twice the support
    size, the expected suboptimality after ``K`` iterations is at most
    ``4 * grad_lipschitz * sup_g_diff_sq / K`` whatever the simulation
    counts; runs past that horizon are flagged ``beyond_guarantee``.
    """
    _check_marginal(m_N)
    n = len(m_N)
    if not _is_uniform(m_N):
        raise ValueError("the stochastic solver needs uniform weights 1/N")
    xs, w = m_N.xs, m_N.weights
    y, G = _warm_start(problem, xs, w)
    # one generator serves every candidate: its state is reset to the one
    # candidate_rng(seed, k, j) starts in, which is cheaper than building it
    rng = candidate_rng(config.seed, 0, 0)
    state = rng.bit_generator.state

    records = []
    stopped_early = False
    for k in range(config.iterations):
        tic = time.perf_counter()
        cert, y_br, G_br = _certify(problem, w @ G, xs, w)
        objective = cert.primal_value
        stopped_early = config.gap_tol is not None and cert.gap <= config.gap_tol
        n_k = 0
        if not stopped_early:
            n_k, om = config.sims_at(k), config.omega(k)
            # contributions are per agent, so a candidate's rows are picked from
            # G_br and G: one g_eval_batch per iteration
            best_val = np.inf
            best_pick = None
            for j in range(n_k):
                state["state"]["counter"][2:] = k, j
                rng.bit_generator.state = state
                pick = (rng.random(n) < om)[:, None]
                val = problem.f_value(w @ np.where(pick, G_br, G))
                if val < best_val:
                    best_val, best_pick = val, pick
            if not (config.monotone_guard and objective < best_val):
                y = np.where(best_pick, y_br, y)
                G = np.where(best_pick, G_br, G)
        records.append(IterationRecord(k, objective, cert.gap, _norm(problem, cert.lam),
                                       (time.perf_counter() - tic) * 1e3, n_candidates=n_k))
        if stopped_early:
            break

    decisions = np.asarray(y, dtype=float)
    final = measure_from_state(m_N, decisions)
    return SolveReport(
        algorithm="sfw",
        records=records,
        certificate=fw_gap(problem, final),
        final_measure=final if config.store_measure else None,
        seed=config.seed,
        config=config.to_json_dict(),
        iterations_run=len(records),
        stopped_early=stopped_early,
        beyond_guarantee=config.iterations > 2 * n,
        decisions=decisions,
        problem_info=problem.describe(),
    )

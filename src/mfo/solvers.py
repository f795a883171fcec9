"""Frank-Wolfe and stochastic Frank-Wolfe solvers over a fixed marginal.

The deterministic solver mixes the running measure with one
best-response measure per iteration (open-loop step ``2/(k+2)``, or
``1/(k+1)``: fictitious play), growing the support by at most one atom
per support point per iteration; the aggregate is updated
incrementally so the per-iteration cost does not grow with the support.
A stored run copies each step's best responses into one float buffer
of steps, which starts at :data:`_FIRST_STEPS` steps and doubles in
place when full, up to the iteration budget; so a run that stops early
holds no more than twice the steps it took, or the first buffer.  The
step rule alone fixes the steps' weights, so they are formed in one
vectorized pass at the end, and with the filled steps of the buffer, as
a view, make the measure that is merged.  Every iteration certifies its
iterate with one pass of :func:`~mfo.problem._certificate_pass`, which
returns plain numbers, on the sweep that ``problem.bind`` binds once to
the marginal (SFW runs on one too).

The stochastic variant keeps exactly one decision per support point:
each iteration draws, independently per agent, Bernoulli switches from
the incumbent to the best response, simulates ``n_k`` such candidate
states, and keeps the cheapest (optionally also guarding with the
incumbent, which makes the objective non-increasing).  Randomness comes
from counter-based streams keyed on ``(seed; iteration, candidate)``,
so agent draws are independent of execution order and runs are
bit-reproducible.  The candidates are scored in one stacked pass: their
contribution rows, picked per agent from the incumbent's and the best
responses', form one ``(n_k, N, D)`` stack of ``n_k * N * D`` doubles,
one matmul gives their aggregates and one ``f_value`` call their
values.  The first cheapest one below ``+inf`` wins, and its rows
become the state's as a view, so the state holds the stack it came from
until another candidate wins.  A certificate pass runs once per
distinct aggregate: an iteration whose aggregate has the bytes of the
last certified one (the guard kept the incumbent, or the switched
agents were already at their best response) reuses that pass and its
best-response sweep, and so does the final certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .measures import EmpiricalMeasure, _write_csv, _write_json, first_marginal
from .problem import (DualCertificate, MfoProblem, _certificate_pass, _certify, _count, _integer,
                      _support_values, aggregate, fw_gap)
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


@dataclass(slots=True)
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
        _write_csv(path, ["k", "objective", "gap", "lambda_norm", "time_ms"],
                   ([r.k, r.objective, r.gap, r.lambda_norm, r.time_ms] for r in self.records))

    def final_json_dict(self):
        out = self._final_fields()
        if "measure" in out:
            out["measure"] = out["measure"].to_json_dict()
        return out

    def _final_fields(self):
        """``final_json_dict()``, with the stored measure as the measure itself."""
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
            out["measure"] = self.final_measure
        return out

    def save_final_json(self, path):
        _write_json(path, self._final_fields(), sort_keys=True, separators=(",", ":"))


def _check_marginal(m_N):
    if m_N.space != "X":
        raise ValueError("the prescribed marginal must live on X")


def _warm_start(problem, sweep, xs, w):
    """Best responses, and their contributions, at the aggregate of a feasible start; ``sweep`` binds ``xs``."""
    y0 = problem.initial_decision_batch(xs)
    beta0 = w @ problem.g_eval_batch(xs, y0)
    ys, G, _ = _support_values(problem, sweep, problem.f_grad(beta0))
    return ys, G


#: steps that a stored run's first step buffer holds
_FIRST_STEPS = 64


def fw_solve(problem: MfoProblem, m_N: EmpiricalMeasure, config: SolverConfig,
             mu0: EmpiricalMeasure | None = None) -> SolveReport:
    """Frank-Wolfe over measures with the prescribed marginal.

    Unless supplied, the starting measure is the best-response measure
    at the gradient of an arbitrary feasible aggregate; a supplied
    ``mu0`` must have first marginal ``m_N``.  Every rule of
    :data:`STEP_RULES` gives step 0 the weight 1 and acts elementwise on
    arrays, so the start sets only the first linearization point, and
    the result only when the run stops at ``k = 0``; after ``n`` steps,
    step ``j`` keeps the weight ``om_j * prod_{j<i<n} (1 - om_i)``.
    After ``K`` iterations with the default step rule the suboptimality
    is at most ``2 * grad_lipschitz * sup_g_diff_sq / K``.
    """
    _check_marginal(m_N)
    xs, w = m_N.xs, m_N.weights
    sweep = problem.bind(xs)
    if mu0 is None:
        ys0, G0 = _warm_start(problem, sweep, xs, w)
        beta = w @ G0
        atoms = (xs, ys0, w)        # (xs, ys, weights): the result of a run that stops at k = 0
    else:
        if not first_marginal(mu0).allclose(m_N, tol=MARGINAL_TOL):
            raise ValueError("the warm start mu0 does not have the prescribed marginal")
        beta = aggregate(problem, mu0)
        atoms = (mu0.xs, mu0.ys, mu0.weights)
    # each stored step copies its best responses into the first free step of the buffer steps
    steps, n_steps = None, 0
    rule, gap_tol, store = STEP_RULES[config.step_rule], config.gap_tol, config.store_measure

    records = []
    stopped_early = False
    for k in range(config.iterations):
        tic = time.perf_counter()
        lam, ys_br, G_br, gap, primal, lambda_norm = _certificate_pass(problem, beta, sweep, w)
        stopped_early = gap_tol is not None and gap <= gap_tol
        if not stopped_early:
            om = rule(k)
            beta *= 1.0 - om        # beta is this loop's own array
            beta += om * (w @ G_br)
            if store:        # an unstored run builds no measure: it keeps no steps
                if steps is None:
                    steps = np.empty((min(_FIRST_STEPS, config.iterations),) + ys_br.shape)
                elif n_steps == len(steps):
                    # in place (realloc): no view of the buffer exists before the loop ends
                    steps.resize((min(2 * n_steps, config.iterations),) + ys_br.shape, refcheck=False)
                steps[n_steps] = ys_br
                n_steps += 1
        records.append(IterationRecord(k, primal, gap, lambda_norm, (time.perf_counter() - tic) * 1e3))
        if stopped_early:
            break

    if store:
        if n_steps:
            # step j's weight om_j * w / F_j, times F_{n-1}: F_j is the product of 1 - om_i over 0 < i <= j
            om = rule(np.arange(n_steps, dtype=float))
            F = np.cumprod(np.concatenate(([1.0], 1.0 - om[1:])))
            # the filled steps of the buffer as a view: merged() copies the rows it keeps
            atoms = (np.tile(xs, (n_steps, 1)), steps[:n_steps].reshape(-1, ys_br.shape[1]),
                     (om[:, None] * w / F[:, None]).ravel() * F[-1])
        final = EmpiricalMeasure("Z", *atoms, validate=False).merged()
        cert = fw_gap(problem, final)
    else:
        final = None
        # a run that stopped at gap_tol did not move beta after its last pass, which certified it
        cert = (DualCertificate(beta=beta, lam=lam, primal_value=primal, dual_value=gap - primal, gap=gap)
                if stopped_early else _certify(problem, beta, sweep, w))

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


def sfw_solve(problem: MfoProblem, m_N: EmpiricalMeasure, config: SolverConfig) -> SolveReport:
    """Stochastic Frank-Wolfe keeping one decision per support point.

    Requires a uniform marginal.  For ``K`` up to twice the support
    size, the expected suboptimality after ``K`` iterations is at most
    ``4 * grad_lipschitz * sup_g_diff_sq / K`` whatever the simulation
    counts; runs of more iterations are flagged ``beyond_guarantee``.

    The certificate pass depends on the aggregate ``w @ G`` alone, so it
    runs once per distinct aggregate: an iteration whose aggregate has
    the same bytes as the last certified one reuses that pass.  So does
    the final certificate if the first marginal keeps ``xs`` and ``w``
    (no two starts merge); otherwise it is :func:`~mfo.problem.fw_gap`.
    An iteration's candidates are scored by one call of ``f_value`` on
    the stack of their aggregates, one row per candidate.
    """
    _check_marginal(m_N)
    n = len(m_N)
    if not _is_uniform(m_N):
        raise ValueError("the stochastic solver needs uniform weights 1/N")
    xs, w = m_N.xs, m_N.weights
    sweep = problem.bind(xs)
    y, G = _warm_start(problem, sweep, xs, w)
    # one generator serves every candidate: its state is reset to the one
    # candidate_rng(seed, k, j) starts in, which is cheaper than building it
    rng = candidate_rng(config.seed, 0, 0)
    state = rng.bit_generator.state

    records = []
    stopped_early = False
    # xs and w are fixed, so the certificate pass depends on the aggregate
    # alone: key holds the state's aggregate bytes, last those of the last pass
    beta = w @ G
    key, last = beta.tobytes(), None
    for k in range(config.iterations):
        tic = time.perf_counter()
        if key != last:
            lam, y_br, G_br, gap, objective, lambda_norm = _certificate_pass(problem, beta, sweep, w)
            last = key
        stopped_early = config.gap_tol is not None and gap <= config.gap_tol
        n_k = 0
        if not stopped_early:
            n_k, om = config.sims_at(k), config.omega(k)
            u = np.empty((n_k, n))        # row j from candidate j's own stream (seed; k, j)
            for j in range(n_k):
                state["state"]["counter"][2:] = k, j
                rng.bit_generator.state = state
                rng.random(out=u[j])
            # contributions are per agent, so each candidate's rows are picked
            # from G_br and G, and one f_value call scores the stack
            picks = (u < om)[:, :, None]
            cands = np.where(picks, G_br, G)
            betas = w @ cands
            # the first cheapest candidate; a NaN value counts as +inf, and
            # without a value below +inf the incumbent stays
            vals = problem.f_value(betas)
            vals = np.where(vals < np.inf, vals, np.inf)
            j = int(vals.argmin())
            if vals[j] < np.inf and not (config.monotone_guard and objective < vals[j]):
                y = np.where(picks[j], y_br, y)
                G, beta = cands[j], betas[j]
                key = beta.tobytes()
        records.append(IterationRecord(k, objective, gap, lambda_norm, (time.perf_counter() - tic) * 1e3,
                                       n_candidates=n_k))
        if stopped_early:
            break

    decisions = np.asarray(y, dtype=float)
    # one decision per support point, on the support as it is
    final = EmpiricalMeasure("Z", xs=xs, ys=decisions, weights=w, validate=False)
    # fw_gap(problem, final), whose pass the loop ran last if nothing moved
    beta, m = aggregate(problem, final), first_marginal(final)
    same = beta.tobytes() == last and np.array_equal(m.xs, xs) and np.array_equal(m.weights, w)
    cert = (DualCertificate(beta, lam, objective, gap - objective, gap) if same
            else _certify(problem, beta, problem.bind(m.xs), m.weights))
    return SolveReport(
        algorithm="sfw",
        records=records,
        certificate=cert,
        final_measure=final if config.store_measure else None,
        seed=config.seed,
        config=config.to_json_dict(),
        iterations_run=len(records),
        stopped_early=stopped_early,
        beyond_guarantee=len(records) > 2 * n,
        decisions=decisions,
        problem_info=problem.describe(),
    )

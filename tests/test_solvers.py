import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from mfo import (
    EmpiricalMeasure,
    SolverConfig,
    aggregate,
    first_marginal,
    fw_gap,
    fw_solve,
    linearized_solve,
    sfw_solve,
)
import mfo.examples.congestion
import mfo.measures
from mfo._kernels import congestion_dp_batch
from mfo.examples import TrafficProblem, grid_network, pigou_network
from mfo.examples.traffic import Edge, TrafficSweep
from mfo.problem import _certificate_pass, clamp_gap
from mfo.solvers import STEP_RULES, _warm_start, candidate_rng

from conftest import initial_decision, uniform_marginal


def constant_latency_traffic():
    edges = [Edge(0, 1, "affine", (0.0, 0.4)), Edge(0, 1, "affine", (0.0, 0.9))]
    return TrafficProblem(2, edges, [(0, 1)])


def od_marginal():
    return EmpiricalMeasure.from_atoms("X", [([0, 1], 1.0)])


def grid10_marginal():
    return EmpiricalMeasure("X", xs=np.array([[0, 7], [1, 7], [0, 6]], dtype=float),
                            weights=np.array([0.4, 0.3, 0.3]))


def stored_grid10_peak(iterations):
    """The tracemalloc peak of a stored grid10 FW run of ``iterations`` steps."""
    prob = TrafficProblem(*grid_network())
    tracemalloc.start()
    try:
        report = fw_solve(prob, grid10_marginal(), SolverConfig(iterations=iterations))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations_run == iterations and len(report.final_measure) > 0
    return peak


class TestFrankWolfe:
    def test_linear_objective_is_solved_in_one_step(self):
        # constant latencies make the objective linear: the best-response
        # initialization is already optimal, so the first recorded gap is zero
        prob = constant_latency_traffic()
        report = fw_solve(prob, od_marginal(), SolverConfig(iterations=1))
        assert report.records[0].gap == pytest.approx(0.0, abs=1e-15)
        assert report.certificate.gap == pytest.approx(0.0, abs=1e-15)

    def test_pigou_converges_to_wardrop_flow(self, pigou_problem):
        report = fw_solve(pigou_problem, od_marginal(), SolverConfig(iterations=200))
        beta = aggregate(pigou_problem, report.final_measure)
        assert beta[0] == pytest.approx(1.0, abs=1e-3)
        lam = pigou_problem.f_grad(beta)
        assert lam[0] == pytest.approx(1.0, abs=1e-3)
        assert lam[1] == pytest.approx(1.0, abs=1e-3)

    def test_rate_bound_along_the_run(self, resource_problem, exp_marginal_50):
        prob = resource_problem
        ref = fw_solve(prob, exp_marginal_50,
                       SolverConfig(iterations=1500, store_measure=False))
        val_proxy = ref.certificate.primal_value - ref.certificate.gap
        run = fw_solve(prob, exp_marginal_50, SolverConfig(iterations=60))
        ld2 = 2.0 * prob.grad_lipschitz * prob.sup_g_diff_sq
        for k in range(10, 60):
            assert run.records[k].objective - val_proxy <= ld2 / k + 1e-12

    def test_support_growth_law(self, resource_problem):
        m = uniform_marginal([0.5, 1.5, 3.0])
        k = 12
        report = fw_solve(resource_problem, m, SolverConfig(iterations=k))
        assert len(report.final_measure) <= (k + 1) * len(m)

    def test_gap_history_nonnegative_and_lower_bound(self, resource_problem, exp_marginal_50):
        report = fw_solve(resource_problem, exp_marginal_50, SolverConfig(iterations=80))
        assert np.all(report.gaps >= 0.0)
        # every record's objective - gap is a certified lower bound on the optimal value
        final = report.certificate.primal_value
        lower_bound = max(r.objective - r.gap for r in report.records)
        assert final - lower_bound <= report.gaps.min() + 1e-12

    def test_early_exit_on_gap_tol(self, resource_problem, exp_marginal_50):
        report = fw_solve(resource_problem, exp_marginal_50,
                          SolverConfig(iterations=5000, gap_tol=1e-6))
        assert report.stopped_early
        assert report.iterations_run < 5000
        assert report.records[-1].gap <= 1e-6
        # the returned measure is the iterate that met the tolerance
        assert report.certificate.gap <= 2e-6

    def test_unstored_early_stop_certifies_with_the_last_pass(self, resource_problem, exp_marginal_50):
        # beta does not move after the pass that met gap_tol: the final certificate reuses it
        class Counting(type(resource_problem)):
            calls = 0

            def best_response_batch(self, lam, xs):
                Counting.calls += 1
                return super().best_response_batch(lam, xs)

        prob = Counting(horizon=10.0, steps=50, discount=1.0, price_impact=1.0)
        report = fw_solve(prob, exp_marginal_50, SolverConfig(iterations=5000, gap_tol=1e-6, store_measure=False))
        assert report.stopped_early and report.final_measure is None
        # the warm start and one pass per iteration
        assert Counting.calls == 1 + report.iterations_run
        assert report.certificate.gap == report.records[-1].gap <= 1e-6

    def test_unstored_run_keeps_no_blocks(self, resource_problem, exp_marginal_50):
        # without a stored measure nothing is kept per iteration: 500 best
        # responses of 50 x 50 would be about 10 MiB
        config = SolverConfig(iterations=500, store_measure=False)
        tracemalloc.start()
        try:
            report = fw_solve(resource_problem, exp_marginal_50, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations_run == 500 and report.final_measure is None
        assert peak < 2 * 2 ** 20

    def test_stored_run_keeps_steps_lean(self):
        # a stored step's best responses are copied into one buffer, and
        # records have slots: this run peaks at 3.08 MiB, and at 4.99 MiB
        # when each step keeps its own array, stacked at the end
        assert stored_grid10_peak(5000) < 4 * 2 ** 20

    def test_long_stored_run_keeps_steps_lean(self):
        # the traffic benchmark's cap: 12.35 MiB, and 20.0 MiB with an array per step
        assert stored_grid10_peak(20_000) < 14 * 2 ** 20

    def test_early_stop_does_not_reserve_the_budget(self):
        # ten million steps of three 10-edge rows would be 2.2 GiB
        prob = TrafficProblem(*grid_network())
        tracemalloc.start()
        try:
            report = fw_solve(prob, grid10_marginal(), SolverConfig(iterations=10 ** 7, gap_tol=1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stopped_early and 100 < report.iterations_run < 10_000
        assert peak < 2 * 2 ** 20

    def test_warm_start_measure(self, resource_problem):
        m = uniform_marginal([0.5, 2.0])
        lam = np.concatenate([[1.0], np.zeros(resource_problem.steps)])
        mu0 = linearized_solve(resource_problem, lam, m)
        report = fw_solve(resource_problem, m, SolverConfig(iterations=5), mu0=mu0)
        assert report.iterations_run == 5

    def test_warm_start_stopping_at_k0_returns_mu0_merged(self, resource_problem):
        m = uniform_marginal([0.5, 2.0])
        mu0 = fw_solve(resource_problem, m, SolverConfig(iterations=5)).final_measure
        # two copies of each atom at half weight
        split = EmpiricalMeasure("Z", xs=np.vstack([mu0.xs, mu0.xs]), ys=np.vstack([mu0.ys, mu0.ys]),
                                 weights=np.concatenate([mu0.weights, mu0.weights]) / 2)
        report = fw_solve(resource_problem, m, SolverConfig(iterations=5, gap_tol=1e9), mu0=split)
        assert report.stopped_early and report.iterations_run == 1
        final, merged = report.final_measure, split.merged()
        np.testing.assert_array_equal(final.xs, merged.xs)
        np.testing.assert_array_equal(final.ys, merged.ys)
        np.testing.assert_array_equal(final.weights, merged.weights)

    def test_rejects_warm_start_on_another_marginal(self, resource_problem):
        cfg = SolverConfig(iterations=5)
        mu0 = fw_solve(resource_problem, uniform_marginal([0.5, 2.0]), cfg).final_measure
        with pytest.raises(ValueError, match="marginal"):
            fw_solve(resource_problem, uniform_marginal([1.0, 3.0]), cfg, mu0=mu0)
        same_points = EmpiricalMeasure("X", xs=np.array([[0.5], [2.0]]), weights=np.array([0.4, 0.6]))
        with pytest.raises(ValueError, match="marginal"):
            fw_solve(resource_problem, same_points, cfg, mu0=mu0)

    def test_rejects_pair_measure_as_marginal(self, resource_problem):
        mu = EmpiricalMeasure.from_atoms("Z", [([1.0], np.zeros(50), 1.0)])
        with pytest.raises(ValueError, match="marginal"):
            fw_solve(resource_problem, mu, SolverConfig(iterations=1))


class TestStochasticFrankWolfe:
    def test_first_step_is_deterministic_jump(self, resource_problem):
        # step weight 1 at iteration 0: every agent switches to the best
        # response regardless of the draws
        prob = resource_problem
        m = uniform_marginal([0.4, 1.1, 2.2])
        report = sfw_solve(prob, m, SolverConfig(iterations=1, n_sims=4, seed=3))
        y0 = np.vstack([initial_decision(prob, x) for x in m.xs])
        lam0 = prob.f_grad(m.weights @ prob.g_eval_batch(m.xs, y0))
        y_first = prob.best_response_batch(lam0, m.xs)
        lam1 = prob.f_grad(m.weights @ prob.g_eval_batch(m.xs, y_first))
        expected = prob.best_response_batch(lam1, m.xs)
        np.testing.assert_allclose(report.decisions, expected, atol=1e-12)

    def test_bit_reproducible(self, resource_problem, exp_marginal_50):
        cfg = SolverConfig(iterations=25, n_sims=3, seed=42)
        a = sfw_solve(resource_problem, exp_marginal_50, cfg)
        b = sfw_solve(resource_problem, exp_marginal_50, cfg)
        assert [r.objective for r in a.records] == [r.objective for r in b.records]
        assert [r.gap for r in a.records] == [r.gap for r in b.records]
        np.testing.assert_array_equal(a.decisions, b.decisions)
        c = sfw_solve(resource_problem, exp_marginal_50,
                      SolverConfig(iterations=25, n_sims=3, seed=43))
        assert [r.objective for r in a.records] != [r.objective for r in c.records]

    def test_single_agent_single_sim(self, resource_problem):
        m = uniform_marginal([1.3])
        cfg = SolverConfig(iterations=10, n_sims=1, seed=7)
        a = sfw_solve(resource_problem, m, cfg)
        b = sfw_solve(resource_problem, m, cfg)
        np.testing.assert_array_equal(a.decisions, b.decisions)

    def test_monotone_guard(self, resource_problem, exp_marginal_50):
        report = sfw_solve(resource_problem, exp_marginal_50,
                           SolverConfig(iterations=40, n_sims=2, seed=9, monotone_guard=True))
        objs = report.objectives
        assert np.all(np.diff(objs) <= 1e-12)

    def test_support_is_exactly_n(self, resource_problem, exp_marginal_50):
        report = sfw_solve(resource_problem, exp_marginal_50,
                           SolverConfig(iterations=15, n_sims=2, seed=1))
        assert len(report.final_measure) == len(exp_marginal_50)

    def test_candidate_counts_follow_schedule(self, resource_problem):
        m = uniform_marginal([0.5, 2.0])
        schedule = [4, 2, 1, 1, 3]
        report = sfw_solve(resource_problem, m,
                           SolverConfig(iterations=5, n_sims=schedule, seed=0))
        assert [r.n_candidates for r in report.records] == schedule

    def test_rejects_nonuniform_weights(self, resource_problem):
        m = EmpiricalMeasure("X", xs=np.array([[0.5], [2.0]]), weights=np.array([0.3, 0.7]))
        with pytest.raises(ValueError, match="uniform weights 1/N"):
            sfw_solve(resource_problem, m, SolverConfig(iterations=1))

    def test_beyond_guarantee_flag(self, resource_problem):
        m = uniform_marginal([0.5, 2.0])
        short = sfw_solve(resource_problem, m, SolverConfig(iterations=4, n_sims=1, seed=0))
        long = sfw_solve(resource_problem, m, SolverConfig(iterations=5, n_sims=1, seed=0))
        assert not short.beyond_guarantee
        assert long.beyond_guarantee
        # the flag is the run's, not the budget's: this one stops after 1 iteration
        early = sfw_solve(resource_problem, m, SolverConfig(iterations=500, n_sims=1, seed=0, gap_tol=1e9))
        assert early.stopped_early and early.iterations_run == 1
        assert not early.beyond_guarantee


def fw_reference(problem, m_N, config, mu0=None):
    """The FW loop as it stood before the certificate had one routine.

    Returns ``(k, objective, gap, lambda_norm, n_candidates)`` per
    iteration, the certificate as ``(lam values, primal, dual, gap)``,
    the final measure (or None) and whether the loop stopped early.
    """
    xs, w = m_N.xs, m_N.weights
    wH = problem.hilbert_weights

    def sweep(lam, xs):
        ys = problem.best_response_batch(lam, xs)
        G = problem.g_eval_batch(xs, ys)
        return ys, G, G @ (wH * lam)

    def certificate(beta, xs, w):
        lam = problem.f_grad(beta)
        gap = clamp_gap(float((wH * lam * beta).sum()) - float(w @ sweep(lam, xs)[2]))
        primal = problem.f_value(beta)
        return lam, primal, gap - primal, gap

    blocks, factor = [], 1.0
    if mu0 is None:
        y_init = problem.initial_decision_batch(xs)
        beta0 = w @ problem.g_eval_batch(xs, y_init)
        ys0, G0, _ = sweep(problem.f_grad(beta0), xs)
        beta = w @ G0
        blocks.append((xs, ys0, w.copy()))
    else:
        beta = aggregate(problem, mu0)
        blocks.append((mu0.xs, mu0.ys, mu0.weights.copy()))
    records, stopped_early = [], False
    for k in range(config.iterations):
        lam = problem.f_grad(beta)
        ys_br, G_br, u_vals = sweep(lam, xs)
        gap = clamp_gap(float((wH * lam * beta).sum()) - float(w @ u_vals))
        records.append((k, problem.f_value(beta), gap, math.sqrt(float((wH * lam * lam).sum())), None))
        if config.gap_tol is not None and gap <= config.gap_tol:
            stopped_early = True
            break
        om = config.omega(k)
        beta = (1.0 - om) * beta + om * (w @ G_br)
        if om >= 1.0:
            blocks, factor = [], 1.0
        else:
            factor *= 1.0 - om
        if om > 0.0:
            blocks.append((xs, ys_br, om * w / factor))
    if not config.store_measure:
        return records, certificate(beta, xs, w), None, stopped_early
    final = EmpiricalMeasure("Z", xs=np.vstack([b[0] for b in blocks]),
                             ys=np.vstack([b[1] for b in blocks]),
                             weights=np.concatenate([b[2] for b in blocks]) * factor,
                             validate=False).merged()
    m = first_marginal(final)
    return records, certificate(aggregate(problem, final), m.xs, m.weights), final, stopped_early


class TestFrankWolfeReference:
    @pytest.mark.parametrize("case", ["stored", "unstored", "gap_tol", "warm_start",
                                      "grid10_gap_tol", "grid10_stored", "fictitious_play",
                                      "congestion_stored"])
    def test_matches_reference_bit_for_bit(self, case, resource_problem, exp_marginal_50, request):
        prob, m, mu0 = resource_problem, exp_marginal_50, None
        cfg = SolverConfig(iterations=40, store_measure=case != "unstored")
        if case == "gap_tol":
            cfg = SolverConfig(iterations=5000, gap_tol=1e-5)
        elif case == "warm_start":
            mu0 = fw_solve(prob, m, SolverConfig(iterations=5)).final_measure
            cfg = SolverConfig(iterations=20)
        elif case == "grid10_gap_tol":
            prob, m = TrafficProblem(*grid_network()), grid10_marginal()
            cfg = SolverConfig(iterations=1000, gap_tol=5e-3)
        elif case == "grid10_stored":
            # the traffic benchmark's path: a long stored run that never stops early
            prob, m = TrafficProblem(*grid_network()), grid10_marginal()
            cfg = SolverConfig(iterations=3000)
        elif case == "fictitious_play":
            cfg = SolverConfig(iterations=40, step_rule="1/(k+1)")
        elif case == "congestion_stored":
            # the congestion game overrides best_response_rows; the reference does not call it
            prob, m = request.getfixturevalue("congestion_problem"), congestion_starts(30, 5)
        report = fw_solve(prob, m, cfg, mu0=mu0)
        records, (lam, primal, dual, gap), final, stopped_early = fw_reference(prob, m, cfg, mu0)
        assert stopped_early == case.endswith("gap_tol")
        assert report.stopped_early == stopped_early
        assert report.iterations_run == len(records)
        assert [(r.k, r.objective, r.gap, r.lambda_norm, r.n_candidates)
                for r in report.records] == records
        cert = report.certificate
        np.testing.assert_array_equal(cert.lam, lam)
        assert (cert.primal_value, cert.dual_value, cert.gap) == (primal, dual, gap)
        if final is None:
            assert report.final_measure is None
        else:
            for got, want in zip((*report.final_measure.columns(), report.final_measure.weights),
                                 (*final.columns(), final.weights)):
                np.testing.assert_array_equal(got, want)


def vstacked_steps_measure(problem, m_N, config, mu0=None):
    """The stored measure as FW assembled it before its step buffer.

    Each step's best responses are one array in a list, and the start
    and the steps are stacked with ``np.vstack`` at the end.
    """
    xs, w = m_N.xs, m_N.weights
    if mu0 is None:
        ys0, G0 = _warm_start(problem, problem.bind(xs), xs, w)
        beta, start = w @ G0, (xs, ys0, w.copy())
    else:
        beta, start = aggregate(problem, mu0), (mu0.xs, mu0.ys, mu0.weights.copy())
    steps, oms, factors, factor = [], [], [], 1.0
    for k in range(config.iterations):
        _, ys_br, G_br, gap, _, _ = _certificate_pass(problem, beta, problem.bind(xs), w)
        if config.gap_tol is not None and gap <= config.gap_tol:
            break
        om = config.omega(k)
        beta = (1.0 - om) * beta
        beta += om * (w @ G_br)
        if om >= 1.0:
            start, factor = None, 1.0
            del steps[:], oms[:], factors[:]
        else:
            factor *= 1.0 - om
        if om > 0.0:
            steps.append(ys_br)
            oms.append(om)
            factors.append(factor)
    raw = (np.array(oms)[:, None] * w) / np.array(factors)[:, None]
    head = [] if start is None else [start]
    xs_all = np.vstack([b[0] for b in head] + [xs] * len(steps))
    ys_all = np.vstack([b[1] for b in head] + steps)
    w_all = np.concatenate([b[2] for b in head] + [raw.ravel()]) * factor
    return EmpiricalMeasure("Z", xs=xs_all, ys=ys_all, weights=w_all, validate=False).merged()


class TestStepBuffer:
    # the buffer starts at 64 steps and doubles up to the iteration budget
    CASES = {
        "grid10_3000": SolverConfig(iterations=3000),
        "grid10_64": SolverConfig(iterations=64),
        "grid10_65": SolverConfig(iterations=65),
        "grid10_gap_tol": SolverConfig(iterations=1000, gap_tol=5e-3),
        "resource": SolverConfig(iterations=150),
        "fictitious_play": SolverConfig(iterations=300, step_rule="1/(k+1)"),
        "stop_at_k0": SolverConfig(iterations=300, gap_tol=1e9),
        "warm_start": SolverConfig(iterations=300),
        "warm_start_stop_at_k0": SolverConfig(iterations=300, gap_tol=1e9),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_stored_measure_matches_the_stacked_steps(self, case, resource_problem):
        prob, m, mu0, cfg = TrafficProblem(*grid_network()), grid10_marginal(), None, self.CASES[case]
        if case == "resource":
            prob, m = resource_problem, uniform_marginal([0.5, 1.5, 3.0])
        elif case.startswith("warm_start"):
            mu0 = fw_solve(prob, m, SolverConfig(iterations=40)).final_measure
        report = fw_solve(prob, m, cfg, mu0=mu0)
        assert report.stopped_early == (cfg.gap_tol is not None)
        want = vstacked_steps_measure(prob, m, cfg, mu0)
        got = report.final_measure
        for a, b in zip((*got.columns(), got.weights), (*want.columns(), want.weights)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class NonFiniteGradient(TrafficProblem):
    """Pigou routing whose gradient on edge 0 is ``bad`` from its second call on.

    The first call is the solvers' warm start, so the certificate pass
    is the first to see ``bad``.  The sweep records each dual point.
    """

    def __init__(self, bad):
        super().__init__(*pigou_network())
        self.bad, self.calls, self.swept = bad, 0, []

    def f_grad(self, beta):
        self.calls += 1
        lam = super().f_grad(beta)
        if self.calls > 1:
            lam[0] = self.bad
        return lam

    def bind(self, xs):
        return RecordingSweep(self, xs)


class RecordingSweep(TrafficSweep):
    def best_response_rows(self, lam):
        self.problem.swept.append(lam.copy())
        return super().best_response_rows(lam)


class NanContributions(TrafficProblem):
    """Pigou routing whose best responses contribute NaN rows: the aggregate after the warm start is NaN."""

    def __init__(self):
        super().__init__(*pigou_network())

    def bind(self, xs):
        return NanRows(self, xs)


class NanRows(TrafficSweep):
    def best_response_rows(self, lam):
        ys, G = super().best_response_rows(lam)
        return ys, np.full_like(G, np.nan)


class TestSolverErrorSemantics:
    # the certificate pass checks lam through <hilbert_weights * lam, lam>
    @pytest.mark.parametrize("solve", [fw_solve, sfw_solve], ids=["fw_solve", "sfw_solve"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_dual_point_is_rejected(self, solve, bad):
        prob = NonFiniteGradient(bad)
        with pytest.raises(ValueError, match="the dual point lam must be finite"):
            solve(prob, od_marginal(), SolverConfig(iterations=5))
        assert prob.calls == 2 and len(prob.swept) == 1

    @pytest.mark.parametrize("solve", [fw_solve, sfw_solve], ids=["fw_solve", "sfw_solve"])
    def test_finite_dual_point_whose_norm_overflows_reaches_the_oracle(self, solve):
        prob = NonFiniteGradient(1e200)
        with np.errstate(over="ignore"):
            report = solve(prob, od_marginal(), SolverConfig(iterations=2))
        assert len(prob.swept) >= 2 and prob.swept[1][0] == 1e200
        assert report.records[0].lambda_norm == math.inf

    @pytest.mark.parametrize("solve", [fw_solve, sfw_solve], ids=["fw_solve", "sfw_solve"])
    def test_non_finite_aggregate_is_rejected(self, solve):
        with pytest.raises(ValueError, match="the aggregate must be finite"):
            solve(NanContributions(), od_marginal(), SolverConfig(iterations=5))


def sfw_reference(problem, m_N, config, aggregates=None):
    """The SFW loop that re-evaluates every state and candidate with g_eval_batch.

    Returns ``(objective, gap, lambda_norm, n_candidates)`` per iteration
    and the final decisions; each iteration's aggregate is appended to
    the list ``aggregates`` when one is given.
    """
    xs, w, n = m_N.xs, m_N.weights, len(m_N)
    wH = problem.hilbert_weights
    y_feas = np.vstack([initial_decision(problem, x) for x in xs])
    beta0 = w @ problem.g_eval_batch(xs, y_feas)
    y = problem.best_response_batch(problem.f_grad(beta0), xs)
    records = []
    for k in range(config.iterations):
        beta = w @ problem.g_eval_batch(xs, y)
        if aggregates is not None:
            aggregates.append(beta)
        objective = problem.f_value(beta)
        lam = problem.f_grad(beta)
        y_br = problem.best_response_batch(lam, xs)
        G_br = problem.g_eval_batch(xs, y_br)
        gap = clamp_gap(float((wH * lam * beta).sum()) - float(w @ (G_br @ (wH * lam))))
        if config.gap_tol is not None and gap <= config.gap_tol:
            records.append((objective, gap, math.sqrt(float((wH * lam * lam).sum())), 0))
            break
        n_k, om = config.sims_at(k), config.omega(k)
        best_val, best_y = np.inf, None
        for j in range(n_k):
            pick = candidate_rng(config.seed, k, j).random(n) < om
            y_cand = np.where(pick[:, None], y_br, y)
            val = problem.f_value(w @ problem.g_eval_batch(xs, y_cand))
            if val < best_val:
                best_val, best_y = val, y_cand
        if config.monotone_guard and objective < best_val:
            best_y = y
        y = best_y
        records.append((objective, gap, math.sqrt(float((wH * lam * lam).sum())), n_k))
    return records, y


def congestion_starts(n, seed):
    return uniform_marginal(np.random.default_rng(seed).uniform(0.0, 0.2, n))


class TestStochasticFrankWolfeSweep:
    @pytest.mark.parametrize("guard", [True, False], ids=["guard", "no_guard"])
    @pytest.mark.parametrize("game", ["resource", "congestion"])
    def test_matches_per_candidate_evaluation_bit_for_bit(self, game, guard, request,
                                                          exp_marginal_50):
        prob, m = self.instance(game, request, exp_marginal_50)
        cfg = SolverConfig(iterations=20, n_sims=3, seed=17, monotone_guard=guard)
        self.compare(prob, m, cfg)

    @pytest.mark.parametrize("seed", [-1, 2 ** 63 + 7])
    def test_reused_stream_keeps_the_key_masking(self, seed, request, exp_marginal_50):
        # one generator serves every candidate of a solve; its key must be
        # candidate_rng's, which masks the seed to 64 bits
        prob, m = self.instance("congestion", request, exp_marginal_50)
        self.compare(prob, m, SolverConfig(iterations=20, n_sims=3, seed=seed))

    @pytest.mark.parametrize("game, gap_tol", [("resource", 1e-7), ("congestion", 0.1)])
    def test_early_exit_matches_the_reference(self, game, gap_tol, request, exp_marginal_50):
        prob, m = self.instance(game, request, exp_marginal_50)
        cfg = SolverConfig(iterations=20, n_sims=3, seed=17, gap_tol=gap_tol)
        report = self.compare(prob, m, cfg)
        assert report.stopped_early and report.iterations_run < 20
        assert report.records[-1].n_candidates == 0

    @staticmethod
    def instance(game, request, exp_marginal_50):
        if game == "resource":
            return request.getfixturevalue("resource_problem"), exp_marginal_50
        return request.getfixturevalue("congestion_problem"), congestion_starts(30, 5)

    @staticmethod
    def compare(prob, m, cfg):
        report = sfw_solve(prob, m, cfg)
        records, decisions = sfw_reference(prob, m, cfg)
        got = [(r.objective, r.gap, r.lambda_norm, r.n_candidates) for r in report.records]
        assert got == records
        np.testing.assert_array_equal(report.decisions, decisions)
        return report

    @pytest.mark.parametrize("iterations", [1, 7])
    def test_one_contribution_sweep_per_iteration(self, resource_problem, exp_marginal_50,
                                                  iterations):
        class Counting(type(resource_problem)):
            calls = 0

            def g_eval_batch(self, xs, ys):
                Counting.calls += 1
                return super().g_eval_batch(xs, ys)

        prob = Counting(horizon=10.0, steps=50, discount=1.0, price_impact=1.0)
        sfw_solve(prob, exp_marginal_50, SolverConfig(iterations=iterations, n_sims=3, seed=2))
        # set-up: the feasible start's aggregate and the first state's rows;
        # the final certificate: the aggregate and the best-response values
        assert Counting.calls == 2 + iterations + 2

    def test_repeated_aggregates_reuse_the_certificate_pass(self, congestion_problem, monkeypatch):
        # the guard keeps the incumbent, or an accepted candidate switches only
        # agents already at their best response: the aggregate repeats bit for bit
        prob = congestion_problem
        m, cfg = congestion_starts(50, 1), SolverConfig(iterations=60, n_sims=3, seed=1)
        self.compare(prob, m, cfg)
        _, passes = self.reference_passes(prob, m, cfg)
        swept = count_dp_calls(monkeypatch)
        report = sfw_solve(prob, m, cfg)
        # the warm start and one pass per distinct consecutive aggregate; the
        # final measure has the last one's aggregate, so its certificate is that pass
        assert report.iterations_run == 60 and passes < 60
        assert swept() == 1 + passes

    @pytest.mark.parametrize("seed, duplicate, reused", [(1, False, True), (6, False, False), (1, True, False)],
                             ids=["last_pass", "aggregate_moved", "duplicate_start"])
    def test_final_certificate_is_fw_gap(self, congestion_problem, monkeypatch, seed, duplicate, reused):
        # the final certificate reuses the loop's last pass only when the final
        # aggregate has its bytes and first_marginal keeps xs and w as they
        # are: seed 6's last iteration moves the aggregate, and two equal
        # starts merge in first_marginal, so those solves run a fresh pass
        prob = congestion_problem
        xs = np.random.default_rng(seed).uniform(0.0, 0.2, 50)
        if duplicate:
            xs[7] = xs[3]
        m, cfg = uniform_marginal(xs), SolverConfig(iterations=60, n_sims=3, seed=seed)
        aggregates, passes = self.reference_passes(prob, m, cfg)
        swept = count_dp_calls(monkeypatch)
        report = sfw_solve(prob, m, cfg)
        assert swept() == 1 + passes + (not reused)
        final = report.final_measure
        assert (aggregate(prob, final).tobytes() == aggregates[-1].tobytes()) == (seed == 1)
        assert len(first_marginal(final)) == 50 - duplicate
        got, want = report.certificate, fw_gap(prob, final)
        assert got.beta.tobytes() == want.beta.tobytes() and got.lam.tobytes() == want.lam.tobytes()
        assert (got.primal_value, got.dual_value, got.gap) == (want.primal_value, want.dual_value, want.gap)

    @staticmethod
    def reference_passes(prob, m, cfg):
        """The reference's aggregates, and the loop's certificate passes: one per distinct consecutive aggregate."""
        aggregates = []
        sfw_reference(prob, m, cfg, aggregates)
        return aggregates, sum(k == 0 or a.tobytes() != aggregates[k - 1].tobytes() for k, a in enumerate(aggregates))


def count_dp_calls(monkeypatch):
    """Count the congestion game's DP calls from here on; returns the counter."""
    calls = []

    def counted(*args):
        calls.append(1)
        return congestion_dp_batch(*args)

    monkeypatch.setattr(mfo.examples.congestion, "congestion_dp_batch", counted)
    return lambda: len(calls)


class TestOracleFailure:
    @pytest.mark.parametrize("solve", [fw_solve, sfw_solve], ids=["fw_solve", "sfw_solve"])
    def test_aborts_with_partial_history_and_agent_index(self, resource_problem, solve):
        from mfo import OracleError

        class Flaky(type(resource_problem)):
            calls = 0

            def best_response_batch(self, lam, xs):
                Flaky.calls += 1
                if Flaky.calls > 3:
                    return MfoBatchFail(xs)
                return super().best_response_batch(lam, xs)

        def MfoBatchFail(xs):
            raise OracleError(f"best response failed for agent 1 (x={xs[1]}): synthetic")

        prob = Flaky(horizon=10.0, steps=30)
        m = uniform_marginal([0.5, 2.0])
        with pytest.raises(OracleError, match="agent 1"):
            solve(prob, m, SolverConfig(iterations=50))

    def test_overflowing_gradient_is_rejected(self):
        # c = 1e308 overflows the BPR latency, the gradient, to inf at any positive flow
        with np.errstate(over="ignore", invalid="ignore"):
            prob = TrafficProblem(2, [Edge(0, 1, "bpr", (10.0, 1e308, 1.0)),
                                      Edge(0, 1, "affine", (0.0, 1.0))], [(0, 1)])
            with pytest.raises(ValueError, match="must be finite"):
                fw_solve(prob, od_marginal(), SolverConfig(iterations=10))


class TestStepRules:
    def test_fictitious_play_is_running_average(self, pigou_problem):
        m = od_marginal()
        cfg = SolverConfig(iterations=50, step_rule="1/(k+1)")
        report = fw_solve(pigou_problem, m, cfg)
        # with the averaging rule, after K iterations the bad edge keeps
        # exactly the 1/K mass of the initial best-response measure
        beta = aggregate(pigou_problem, report.final_measure)
        assert beta[0] == pytest.approx(1.0 - 0.0, abs=0.05)

    @pytest.mark.parametrize("rule", list(STEP_RULES))
    def test_rules_give_the_stored_weights_their_shape(self, rule):
        # fw_solve keeps the start only for a run that stops at k = 0, and
        # forms every step's weight from the rule at once when the run ends
        om = STEP_RULES[rule]
        oms = [om(k) for k in range(10 ** 5)]
        assert oms[0] == 1.0 and all(0.0 < x < 1.0 for x in oms[1:])
        assert om(np.arange(len(oms), dtype=float)).tobytes() == np.array(oms).tobytes()

    def test_invalid_step_rejected(self):
        # a rule is a name, so a run's final.json can rebuild it
        for rule in ["2/(k+3)", "custom", None, lambda k: 2.0 / (k + 2.0), ["2/(k+2)"]]:
            with pytest.raises(ValueError, match="unknown step rule"):
                SolverConfig(step_rule=rule)

    @pytest.mark.parametrize("rule", list(STEP_RULES))
    @pytest.mark.parametrize("solve", [fw_solve, sfw_solve], ids=["fw", "sfw"])
    def test_final_json_config_rebuilds_the_config(self, resource_problem, tmp_path, rule, solve):
        cfg = SolverConfig(iterations=3, step_rule=rule, n_sims=(2, 1), seed=4, gap_tol=1e-12)
        report = solve(resource_problem, uniform_marginal([0.5, 2.0]), cfg)
        report.save_final_json(tmp_path / "final.json")
        with open(tmp_path / "final.json") as fh:
            echoed = json.load(fh)["config"]
        assert echoed["step_rule"] == rule
        assert SolverConfig(**echoed) == cfg


class TestFinalJson:
    @pytest.mark.parametrize("chunk", [None, 3], ids=["default_chunk", "small_chunk"])
    @pytest.mark.parametrize("store", [True, False], ids=["measure", "no_measure"])
    def test_file_is_the_one_shot_encoding(self, resource_problem, tmp_path, monkeypatch, chunk, store):
        # the measure's atoms are spliced in chunk by chunk; the file must be
        # json.dumps of final_json_dict(), also when empty "atoms" lists sort
        # before and after the measure
        if chunk is not None:
            monkeypatch.setattr(mfo.measures, "_JSON_CHUNK_ATOMS", chunk)
        cfg = SolverConfig(iterations=4, store_measure=store)
        report = fw_solve(resource_problem, uniform_marginal([0.5, 1.0, 2.0]), cfg)
        assert (report.final_measure is not None) == store
        if store:
            assert len(report.final_measure) > 3
        report = dataclasses.replace(report, config=dict(report.config, atoms=[]),
                                     problem_info={"atoms": [], "space": "X"})
        report.save_final_json(tmp_path / "final.json")
        want = json.dumps(report.final_json_dict(), sort_keys=True, separators=(",", ":"))
        assert (tmp_path / "final.json").read_text() == want


class TestSimulationCounts:
    @pytest.mark.parametrize("n_sims, echoed", [
        (3, 3),
        (np.int64(3), 3),
        ((4, 2, 1), [4, 2, 1]),
        ([4, 2], [4, 2]),
        (np.array([4, 2]), [4, 2]),
    ], ids=["int", "numpy_int", "tuple", "list", "numpy_array"])
    def test_plain_values_are_echoed(self, n_sims, echoed):
        cfg = SolverConfig(n_sims=n_sims)
        out = cfg.to_json_dict()["n_sims"]
        assert out == echoed
        assert type(out) is type(echoed)
        if isinstance(out, list):
            assert all(type(n) is int for n in out)
        # the echo rebuilds the same configuration
        assert SolverConfig(n_sims=out) == cfg

    def test_json_list_keeps_its_bytes(self):
        text = json.dumps([4, 2, 3])
        assert json.dumps(SolverConfig(n_sims=json.loads(text)).to_json_dict()["n_sims"]) == text

    @pytest.mark.parametrize("n_sims", [[], 0, -2, 2.5, True, "3", None, [3, 0], [[1, 2]],
                                        lambda k: 2])
    def test_anything_else_is_rejected(self, n_sims):
        with pytest.raises(ValueError, match="simulation-count schedule is empty|simulation counts"):
            SolverConfig(n_sims=n_sims)

    def test_numpy_count_reaches_final_json(self, resource_problem, tmp_path):
        # numpy scalars become plain values, or json cannot write them
        cfg = SolverConfig(iterations=np.int64(2), n_sims=np.int64(3), seed=np.int64(3),
                           monotone_guard=np.bool_(True), gap_tol=np.float64(1e-3))
        for solve in (fw_solve, sfw_solve):
            report = solve(resource_problem, uniform_marginal([0.5, 2.0]), cfg)
            report.save_final_json(tmp_path / "final.json")
            with open(tmp_path / "final.json") as fh:
                final = json.load(fh)
            assert {k: final["config"][k] for k in ("iterations", "n_sims", "seed", "monotone_guard", "gap_tol")} == {
                "iterations": 2, "n_sims": 3, "seed": 3, "monotone_guard": True, "gap_tol": 1e-3}
            assert final["stopped_early"] is False
        assert [r.n_candidates for r in report.records] == [3, 3]

    @pytest.mark.parametrize("field, value", [
        ("iterations", True), ("iterations", 2.5), ("iterations", 0), ("seed", 1.5), ("seed", False),
        ("monotone_guard", 1), ("monotone_guard", "yes"),
    ])
    def test_bad_fields_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SolverConfig(**{field: value})

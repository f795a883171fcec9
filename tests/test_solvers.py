import json
import math

import numpy as np
import pytest

from mfo import (
    EmpiricalMeasure,
    SolverConfig,
    aggregate,
    candidate_objective,
    first_marginal,
    fw_solve,
    linearized_solve,
    sfw_solve,
)
from mfo.examples import TrafficProblem, grid_network
from mfo.examples.traffic import Edge
from mfo.problem import clamp_gap
from mfo.solvers import candidate_rng, measure_from_state

from conftest import uniform_marginal


def constant_latency_traffic():
    edges = [Edge(0, 1, "affine", (0.0, 0.4)), Edge(0, 1, "affine", (0.0, 0.9))]
    return TrafficProblem(2, edges, [(0, 1)])


def od_marginal():
    return EmpiricalMeasure.from_atoms("X", [([0, 1], 1.0)])


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
        final = report.certificate.primal_value
        assert final - report.lower_bound() <= report.gaps.min() + 1e-12

    def test_early_exit_on_gap_tol(self, resource_problem, exp_marginal_50):
        report = fw_solve(resource_problem, exp_marginal_50,
                          SolverConfig(iterations=5000, gap_tol=1e-6))
        assert report.stopped_early
        assert report.iterations_run < 5000
        assert report.records[-1].gap <= 1e-6
        # the returned measure is the iterate that met the tolerance
        assert report.certificate.gap <= 2e-6

    def test_warm_start_measure(self, resource_problem):
        m = uniform_marginal([0.5, 2.0])
        lam = np.concatenate([[1.0], np.zeros(resource_problem.steps)])
        mu0 = linearized_solve(resource_problem, lam, m)
        report = fw_solve(resource_problem, m, SolverConfig(iterations=5), mu0=mu0)
        assert report.iterations_run == 5

    def test_rejects_warm_start_on_another_marginal(self, resource_problem):
        # a step rule below 1 at k = 0 keeps mu0's atoms in the iterate
        cfg = SolverConfig(iterations=5, step_rule=lambda k: 1.0 / (k + 2.0))
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
        y0 = np.vstack([prob.initial_decision(x) for x in m.xs])
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
                                      "grid10_gap_tol"])
    def test_matches_reference_bit_for_bit(self, case, resource_problem, exp_marginal_50):
        prob, m, mu0 = resource_problem, exp_marginal_50, None
        cfg = SolverConfig(iterations=40, store_measure=case != "unstored")
        if case == "gap_tol":
            cfg = SolverConfig(iterations=5000, gap_tol=1e-5)
        elif case == "warm_start":
            mu0 = fw_solve(prob, m, SolverConfig(iterations=5)).final_measure
            cfg = SolverConfig(iterations=20, step_rule=lambda k: 1.0 / (k + 2.0))
        elif case == "grid10_gap_tol":
            prob = TrafficProblem(*grid_network())
            m = EmpiricalMeasure("X", xs=np.array([[0, 7], [1, 7], [0, 6]], dtype=float),
                                 weights=np.array([0.4, 0.3, 0.3]))
            cfg = SolverConfig(iterations=1000, gap_tol=5e-3)
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


def sfw_reference(problem, m_N, config):
    """The SFW loop that re-evaluates every state and candidate with g_eval_batch.

    Returns ``(objective, gap, lambda_norm, n_candidates)`` per iteration
    and the final decisions.
    """
    xs, w, n = m_N.xs, m_N.weights, len(m_N)
    wH = problem.hilbert_weights
    y_feas = np.vstack([problem.initial_decision(x) for x in xs])
    beta0 = w @ problem.g_eval_batch(xs, y_feas)
    y = problem.best_response_batch(problem.f_grad(beta0), xs)
    records = []
    for k in range(config.iterations):
        beta = w @ problem.g_eval_batch(xs, y)
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
        from mfo.solvers import fictitious_play_step

        m = od_marginal()
        cfg = SolverConfig(iterations=50, step_rule=fictitious_play_step)
        report = fw_solve(pigou_problem, m, cfg)
        # with the averaging rule, after K iterations the bad edge keeps
        # exactly the 1/K mass of the initial best-response measure
        beta = aggregate(pigou_problem, report.final_measure)
        assert beta[0] == pytest.approx(1.0 - 0.0, abs=0.05)

    def test_invalid_step_rejected(self, pigou_problem):
        cfg = SolverConfig(iterations=2, step_rule=lambda k: 1.5)
        with pytest.raises(ValueError, match="step weight"):
            fw_solve(pigou_problem, od_marginal(), cfg)


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
        report = sfw_solve(resource_problem, uniform_marginal([0.5, 2.0]),
                           SolverConfig(iterations=2, n_sims=np.int64(3)))
        report.save_final_json(tmp_path / "final.json")
        with open(tmp_path / "final.json") as fh:
            assert json.load(fh)["config"]["n_sims"] == 3
        assert [r.n_candidates for r in report.records] == [3, 3]


class TestCandidateObjective:
    def test_single_agent(self, resource_problem):
        prob = resource_problem
        m = uniform_marginal([1.0])
        q = prob.best_response(np.concatenate([[1.0], np.zeros(prob.steps)]), [1.0])
        expected = prob.f_value(prob.g_eval([1.0], q))
        assert candidate_objective(prob, m, q.reshape(1, -1)) == pytest.approx(expected, abs=1e-15)

    def test_matches_aggregate_path(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(5)
        m = uniform_marginal([0.7, 1.5, 2.9])
        qs = rng.uniform(0, 0.4, size=(3, prob.steps))
        qs = np.vstack([prob.transport_select([prob.horizon], q, x) for q, x in zip(qs, m.xs)])
        via_measure = prob.f_value(aggregate(prob, measure_from_state(m, qs)))
        assert candidate_objective(prob, m, qs) == pytest.approx(via_measure, abs=1e-12)

    def test_identical_agents_reduce_to_one(self, pigou_problem):
        m = EmpiricalMeasure("X", xs=np.array([[0, 1], [0, 1]], dtype=float),
                             weights=np.array([0.5, 0.5]))
        y = pigou_problem.indicators[(0, 1)][0]
        expected = pigou_problem.f_value(pigou_problem.g_eval([0, 1], y))
        assert candidate_objective(pigou_problem, m, np.vstack([y, y])) == pytest.approx(expected, abs=1e-15)

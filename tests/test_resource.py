import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

from mfo import EmpiricalMeasure, OracleError, SolverConfig, aggregate, fw_solve, sfw_solve
from mfo.problem import _norm

from conftest import best_response, g_eval, transport_select


def scipy_best_response(prob, lam2, x):
    """Independent first-order oracle for the budgeted extraction problem."""
    w = prob.dt * prob.discount_factors
    m = prob.steps

    def obj(q):
        return float(np.sum(w * (q * q - q + lam2 * q)))

    def grad(q):
        return w * (2 * q - 1 + lam2)

    res = minimize(
        obj,
        x0=np.full(m, min(0.25, x / prob.horizon)),
        jac=grad,
        bounds=[(0.0, 0.5)] * m,
        constraints=[LinearConstraint(np.full(m, prob.dt), -np.inf, x)],
        method="SLSQP",
        options={"maxiter": 800, "ftol": 1e-14},
    )
    assert res.success
    return res.x, obj(res.x)


def random_feasible_profile(prob, rng, x):
    q = rng.uniform(0.0, 0.5, prob.steps)
    return transport_select(prob, [prob.horizon], q, [x])


class TestBestResponse:
    def test_zero_stock_extracts_nothing(self, resource_problem):
        lam = np.concatenate([[1.0], np.zeros(resource_problem.steps)])
        np.testing.assert_allclose(best_response(resource_problem, lam, [0.0]), 0.0, atol=1e-15)

    def test_slack_budget_sits_at_half(self, resource_problem):
        prob = resource_problem
        lam = np.concatenate([[1.0], np.zeros(prob.steps)])
        q, theta = prob.best_response_with_multiplier(lam, [prob.horizon / 2.0])
        np.testing.assert_allclose(q, 0.5, atol=1e-12)
        assert theta == 0.0

    def test_matches_independent_solver(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(0)
        for _ in range(5):
            lam2 = rng.uniform(0.0, 0.5, prob.steps)  # price signal in [0, 1/2]
            x = rng.uniform(0.05, 3.0)
            lam = np.concatenate([[1.0], lam2])
            q = best_response(prob, lam, [x])
            _, ref_val = scipy_best_response(prob, lam2, x)
            w = prob.dt * prob.discount_factors
            val = float(np.sum(w * (q * q - q + lam2 * q)))
            assert val <= ref_val + 1e-8
            assert prob.feasible([x], q)

    def test_kkt_certificate(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(1)
        w = prob.dt * prob.discount_factors
        for _ in range(20):
            lam2 = rng.uniform(0.0, 0.5, prob.steps)
            x = rng.uniform(0.0, 2.0)
            lam = np.concatenate([[1.0], lam2])
            q, theta = prob.best_response_with_multiplier(lam, [x])
            assert theta >= 0.0
            # stationarity on strictly interior coordinates
            interior = (q > 1e-7) & (q < 0.5 - 1e-7)
            resid = w * (2 * q - 1 + lam2) + theta * prob.dt
            assert np.max(np.abs(resid[interior]), initial=0.0) <= 1e-10
            # complementary slackness
            assert theta * (prob.dt * q.sum() - x) <= 1e-9
            # primal feasibility including the stock trajectory
            assert np.min(prob.stock_trajectory([x], q)) >= -1e-12

    def test_bounds_always_hold(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(2)
        for _ in range(30):
            lam2 = rng.uniform(-0.5, 1.0, prob.steps)
            lam = np.concatenate([[1.0], lam2])
            q = best_response(prob, lam, [rng.uniform(0, prob.stock_cap)])
            assert np.all(q >= 0.0) and np.all(q <= 0.5)


class TestTransportSelect:
    def test_same_stock_keeps_profile(self, resource_problem):
        q = np.full(resource_problem.steps, 0.3)
        np.testing.assert_array_equal(transport_select(resource_problem, [3.0], q, [3.0]), q)

    def test_half_budget_truncates_halfway(self, resource_problem):
        prob = resource_problem
        q = np.full(prob.steps, 0.5)
        x = prob.horizon / 2.0
        out = transport_select(prob, [x], q, [x / 2.0])
        half = prob.steps // 2
        np.testing.assert_allclose(out[:half], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[half:], 0.0, atol=1e-12)

    def test_lipschitz_ratio_monte_carlo(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.uniform(0.0, prob.stock_cap)
            x2 = rng.uniform(0.0, prob.stock_cap)
            q = random_feasible_profile(prob, rng, x)
            q2 = transport_select(prob, [x], q, [x2])
            assert prob.feasible([x2], q2)
            shift = _norm(prob, g_eval(prob, [x2], q2) - g_eval(prob, [x], q))
            assert shift <= prob.set_lipschitz * prob.metric.pairwise([x], [x2])[0, 0] + 1e-12


class TestEquilibrium:
    def test_aggregate_is_a_fixed_point(self, resource_problem, exp_marginal_50):
        prob = resource_problem
        report = fw_solve(prob, exp_marginal_50, SolverConfig(iterations=3000, gap_tol=1e-11))
        beta = aggregate(prob, report.final_measure)
        q_star = prob.aggregate_rate(beta)
        lam = prob.f_grad(beta)
        responses = prob.best_response_batch(lam, exp_marginal_50.xs)
        q_resolved = exp_marginal_50.weights @ responses
        assert np.max(np.abs(q_resolved - q_star)) <= 1e-4


class TestFeasibility:
    def test_profile_of_another_length_is_infeasible(self, resource_problem):
        prob = resource_problem
        assert not prob.feasible([1.0], [0.1, 0.1])
        assert prob.feasible([1.0], np.full(prob.steps, 0.1))
        short = EmpiricalMeasure.from_atoms("Z", [([1.0], [0.1, 0.1], 1.0)])
        with pytest.raises(OracleError, match="infeasible atom 0"):
            aggregate(prob, short)

    @pytest.mark.parametrize("solve", [fw_solve, sfw_solve])
    def test_negative_stock_fails_at_the_warm_start(self, resource_problem, solve):
        # even q = 0 overspends a negative stock, so the solvers have no feasible
        # start: they stop there, not after a run whose measure no gap certifies
        m = EmpiricalMeasure.from_atoms("X", [([1.0], 0.5), ([-0.5], 0.5)])
        with pytest.raises(ValueError, match=r"^x=-0\.5 is a negative stock: no extraction profile fits it$"):
            solve(resource_problem, m, SolverConfig(iterations=20))


class TestContributionArithmetic:
    def test_rows_and_cost_keep_the_bits_of_their_formulas(self, resource_problem):
        # g_eval_batch, f_value and f_grad fill their outputs in place; they
        # return the bytes of the plain expressions they stand for. The first
        # column is a per-row sum, which rounds a row alike wherever it lies in
        # the batch (a matrix-vector product would not)
        prob = resource_problem
        rng = np.random.default_rng(12)
        w = prob.dt * prob.discount_factors
        for n in (0, 1, 50):
            qs = rng.uniform(0.0, 0.5, size=(n, prob.steps))
            expected = np.column_stack([((qs * qs - qs) * w).sum(axis=1), qs])
            assert prob.g_eval_batch(rng.uniform(0, 5, (n, 1)), qs).tobytes() == expected.tobytes()
        for _ in range(50):
            beta = rng.normal(size=prob.steps + 1)
            value = float(beta[0] + 0.5 * prob.grad_lipschitz * np.sum(prob.hilbert_weights[1:] * beta[1:] ** 2))
            assert np.float64(prob.f_value(beta)).tobytes() == np.float64(value).tobytes()
            grad = np.concatenate([[1.0], prob.grad_lipschitz * beta[1:]])
            assert prob.f_grad(beta).tobytes() == grad.tobytes()


class TestConstants:
    def test_declared_constants_dominate_samples(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(4)
        n = 100_000
        xs = rng.uniform(0.0, prob.stock_cap, n)
        qs = rng.uniform(0.0, 0.5, size=(n, prob.steps))
        # truncate to budgets in bulk: scale rows that overspend
        spend = prob.dt * qs.sum(axis=1)
        over = spend > xs
        qs[over] *= (xs[over] / spend[over])[:, None]
        G = prob.g_eval_batch(xs.reshape(-1, 1), qs)
        w = prob.hilbert_weights
        norms = np.sqrt((G * G) @ w)
        assert norms.max() <= prob.sup_g_norm + 1e-12
        diffs = G[: n // 2] - G[n // 2 :]
        diff_sq = ((diffs * diffs) @ w).max()
        assert diff_sq <= prob.sup_g_diff_sq + 1e-12
        # aggregates of random mixtures stay inside the gradient bound
        for _ in range(50):
            idx = rng.integers(0, n, size=32)
            mix_w = rng.random(32)
            mix_w /= mix_w.sum()
            beta = mix_w @ G[idx]
            assert _norm(prob, prob.f_grad(beta)) <= prob.sup_grad_norm + 1e-12
        # gradient Lipschitz modulus
        for _ in range(50):
            b1 = rng.uniform(-0.3, 0.3, len(w))
            b2 = rng.uniform(-0.3, 0.3, len(w))
            lhs = _norm(prob, prob.f_grad(b1) - prob.f_grad(b2))
            assert lhs <= prob.grad_lipschitz * _norm(prob, b1 - b2) + 1e-12

    def test_invalid_parameters_rejected(self):
        from mfo.examples import ResourceProblem

        with pytest.raises(ValueError):
            ResourceProblem(price_impact=0.0)
        with pytest.raises(ValueError):
            ResourceProblem(price_impact=1.5)
        with pytest.raises(ValueError):
            ResourceProblem(steps=0)

import numpy as np
import pytest

from mfo import (
    EmpiricalMeasure,
    OracleError,
    SolverConfig,
    aggregate,
    bridge,
    first_marginal,
    fw_gap,
    fw_solve,
    ot_solve,
    sfw_solve,
)

from conftest import transport_select, uniform_marginal


def stability_constant(prob):
    return prob.set_lipschitz * (prob.sup_grad_norm + prob.grad_lipschitz * prob.sup_g_norm)


class TestBridgeBasics:
    def test_same_marginal_is_identity(self, resource_problem):
        prob = resource_problem
        m0 = uniform_marginal([0.8, 2.5])
        lam = np.concatenate([[1.0], np.zeros(prob.steps)])
        from mfo import linearized_solve

        mu0 = linearized_solve(prob, lam, m0)
        mu1 = bridge(mu0, m0, prob).measure
        assert mu1.allclose(mu0, tol=1e-12)

    def test_resource_truncation_of_originals(self, resource_problem):
        # two producers, target stocks strictly lower: bridged controls are
        # the budget truncations of the original controls
        prob = resource_problem
        q_full = np.full(prob.steps, 0.5)
        q_half = transport_select(prob, [5.0], q_full, [2.5])
        mu0 = EmpiricalMeasure.from_atoms("Z", [([5.0], q_full, 0.5), ([2.5], q_half, 0.5)])
        m1 = uniform_marginal([4.0, 1.0])
        mu1 = bridge(mu0, m1, prob).measure
        assert first_marginal(mu1).allclose(m1.merged(), tol=1e-9)
        got = dict(zip(mu1.xs[:, 0].tolist(), mu1.ys))
        # optimal plan matches 5 -> 4 and 2.5 -> 1 (monotone-compatible here)
        np.testing.assert_allclose(got[4.0], transport_select(prob, [5.0], q_full, [4.0]), atol=1e-12)
        np.testing.assert_allclose(got[1.0], transport_select(prob, [2.5], q_half, [1.0]), atol=1e-12)

    def test_objective_inflation_bound(self, resource_problem, exp_marginal_50):
        prob = resource_problem
        rep = sfw_solve(prob, exp_marginal_50, SolverConfig(iterations=60, n_sims=3, seed=5))
        mu0 = rep.final_measure
        rng = np.random.default_rng(6)
        m1 = uniform_marginal(np.clip(rng.exponential(1.0, 50), 0, prob.stock_cap))
        result = bridge(mu0, m1, prob)
        bound = stability_constant(prob) * result.transport_cost
        assert result.objective_after - result.objective_before <= bound + 1e-9

    def test_aggregate_shift_bound(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(7)
        xs0 = np.clip(rng.exponential(1.0, 12), 0, prob.stock_cap)
        m0 = uniform_marginal(xs0)
        rep = fw_solve(prob, m0, SolverConfig(iterations=50))
        mu0 = rep.final_measure
        m1 = uniform_marginal(np.clip(rng.exponential(1.0, 12), 0, prob.stock_cap))
        result = bridge(mu0, m1, prob)
        d1 = ot_solve(m0, m1, prob.metric).cost
        assert result.transport_cost == pytest.approx(d1, abs=1e-12)
        assert result.aggregate_shift <= prob.set_lipschitz * d1 + 1e-7

    def test_congestion_bridge(self, congestion_problem):
        prob = congestion_problem
        m0 = uniform_marginal([0.05, 0.15])
        lam = prob.f_grad(np.zeros(len(prob.hilbert_weights)))
        from mfo import linearized_solve

        mu0 = linearized_solve(prob, lam, m0)
        m1 = uniform_marginal([0.08, 0.12])
        result = bridge(mu0, m1, prob)
        assert first_marginal(result.measure).allclose(m1.merged(), tol=1e-9)
        assert result.aggregate_shift <= prob.set_lipschitz * result.transport_cost + 1e-7
        assert 0.0 <= result.gap_after <= result.eta

    @pytest.mark.parametrize("game, message", [
        ("resource_problem", "resource parameters are one stock per row"),
        ("congestion_problem", "congestion parameters are one start per row"),
    ], ids=["resource", "congestion"])
    def test_target_of_another_width_is_refused_before_the_plan(self, request, monkeypatch, game, message):
        prob = request.getfixturevalue(game)
        m0 = uniform_marginal([0.05, 0.15])
        from mfo import linearized_solve

        mu0 = linearized_solve(prob, prob.f_grad(np.zeros(len(prob.hilbert_weights))), m0)
        m1 = EmpiricalMeasure("X", xs=np.array([[0.1, 0.2], [0.3, 0.4]]), weights=np.full(2, 0.5))

        def no_plan(*args):
            raise AssertionError("a plan was solved")

        monkeypatch.setattr("mfo.transport.ot_solve", no_plan)
        with pytest.raises(ValueError, match=rf"{message}, got shape \(2, 2\)"):
            bridge(mu0, m1, prob)

    def test_broken_selection_raises(self, resource_problem):
        class Broken(type(resource_problem)):
            def transport_select_batch(self, xs, qs, x2s):
                return np.full((len(xs), self.steps), 0.5)  # ignores the budget

        prob = Broken(horizon=10.0, steps=50)
        mu0 = EmpiricalMeasure.from_atoms("Z", [([5.0], np.full(50, 0.5), 1.0)])
        m1 = uniform_marginal([0.5])
        with pytest.raises(OracleError, match="infeasible"):
            bridge(mu0, m1, prob)

    def test_selection_moving_too_far_raises(self, resource_problem):
        class Lazy(type(resource_problem)):
            def transport_select_batch(self, xs, qs, x2s):
                return np.zeros((len(xs), self.steps))  # feasible, but drops the whole profile

        prob = Lazy(horizon=10.0, steps=50)
        mu0 = EmpiricalMeasure.from_atoms("Z", [([5.0], np.full(50, 0.1), 1.0)])
        with pytest.raises(OracleError, match="moved the contribution"):
            bridge(mu0, uniform_marginal([4.9999]), prob)

    def test_infeasible_mu0_raises(self, resource_problem):
        prob = resource_problem
        mu0 = EmpiricalMeasure.from_atoms("Z", [([0.1], np.full(prob.steps, 0.5), 1.0)])  # over budget
        with pytest.raises(OracleError, match="infeasible atom"):
            bridge(mu0, uniform_marginal([0.1]), prob)

    @pytest.mark.parametrize("source, target, cols, message", [
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0, 1, 2], "glued plan lost mass"),  # an entry off mu0's marginal
        ([0.0, 1.0], [0.0], [0, 0], "does not carry the requested marginal"),  # all mass onto one target
    ], ids=["glued_mass", "output_marginal"])
    def test_inconsistent_plan_raises(self, resource_problem, monkeypatch, source, target, cols, message):
        # the plan of ot_solve always fits; a substituted one must still be caught
        import mfo.transport

        def wrong_plan(m0, m1, metric):
            n = len(source)
            return mfo.transport.Coupling(uniform_marginal(source), uniform_marginal(target),
                                          np.arange(n), cols, np.full(n, 1 / n), np.full(n, 10.0))

        monkeypatch.setattr(mfo.transport, "ot_solve", wrong_plan)
        prob = resource_problem
        q = np.full(prob.steps, 0.001)
        mu0 = EmpiricalMeasure.from_atoms("Z", [([0.0], np.zeros(prob.steps), 0.5), ([1.0], q, 0.5)])
        with pytest.raises(RuntimeError, match=message):
            bridge(mu0, uniform_marginal([0.0, 1.0]), prob)

    def test_zero_weight_atom_at_empty_x(self, resource_problem):
        # the atom at x = 2 has no mass and no other atom shares its x
        prob = resource_problem
        q = np.full(prob.steps, 0.01)
        mu0 = EmpiricalMeasure("Z", xs=np.array([[0.0], [1.0], [2.0]]),
                               ys=np.vstack([np.zeros(prob.steps), q, q]),
                               weights=np.array([0.5, 0.5, 0.0]))
        m1 = uniform_marginal([0.5, 1.5])
        result = bridge(mu0, m1, prob)
        assert first_marginal(result.measure).allclose(m1, tol=1e-12)
        assert result.transport_cost == pytest.approx(np.sqrt(0.5), abs=1e-15)


class TestEtaMinimizer:
    def test_bridged_measure_is_eta_minimizer(self, resource_problem):
        # value stability: f(bridged) - val(target) <= eps0 + 2 Lg (C + LM) d1
        prob = resource_problem
        rng = np.random.default_rng(8)
        m0 = uniform_marginal(np.clip(rng.exponential(1.0, 20), 0, prob.stock_cap))
        m1 = uniform_marginal(np.clip(rng.exponential(1.0, 20), 0, prob.stock_cap))
        rep0 = sfw_solve(prob, m0, SolverConfig(iterations=40, n_sims=3, seed=1))
        eps0 = rep0.certificate.gap
        result = bridge(rep0.final_measure, m1, prob)
        ref = fw_solve(prob, m1, SolverConfig(iterations=2000, gap_tol=1e-10, store_measure=False))
        val_lower = ref.certificate.primal_value - ref.certificate.gap
        eta = eps0 + 2.0 * stability_constant(prob) * result.transport_cost
        assert result.eps0 == eps0
        assert result.eta == pytest.approx(eta, rel=1e-12)
        assert result.objective_after - val_lower <= eta + 1e-6

    def test_bridged_measure_is_certified_after(self, resource_problem):
        # one best-response sweep over m1 certifies the bridged measure: its gap
        # lies within the a-priori eta, and objective - gap bounds val(m1) below
        prob = resource_problem
        rng = np.random.default_rng(9)
        m0 = uniform_marginal(np.clip(rng.exponential(1.0, 20), 0, prob.stock_cap))
        m1 = uniform_marginal(np.clip(rng.exponential(1.0, 30), 0, prob.stock_cap))
        rep0 = fw_solve(prob, m0, SolverConfig(iterations=200))
        result = bridge(rep0.final_measure, m1, prob)
        assert 0.0 <= result.gap_after <= result.eta
        assert result.gap_after == pytest.approx(fw_gap(prob, result.measure).gap, rel=1e-9, abs=1e-15)
        assert result.lower_bound_after == result.objective_after - result.gap_after
        ref = fw_solve(prob, m1, SolverConfig(iterations=2000, gap_tol=1e-10, store_measure=False))
        assert result.lower_bound_after <= ref.certificate.primal_value
        assert ref.certificate.primal_value <= result.objective_after

import math

import numpy as np
import pytest

from mfo import (
    EmpiricalMeasure,
    MetricSpec,
    SolverConfig,
    aggregate,
    dual_value,
    fw_gap,
    fw_solve,
    linearized_solve,
    mix,
    ot_solve,
    value_directional_derivative,
)
from mfo.problem import MfoProblem, _inner, _norm, _support_values, clamp_gap
from mfo.examples import CongestionProblem, ResourceProblem, TrafficProblem
from mfo.examples.traffic import Edge, TrafficSweep, pigou_network

from conftest import best_response, g_eval, transport_select, uniform_marginal


class QuadToy(MfoProblem):
    """Finite decision set, f = half squared norm; conjugate known exactly."""

    name = "quad_toy"

    def __init__(self, options):
        self.options = np.asarray(options, dtype=float)
        dim = self.options.shape[1]
        self._w = np.ones(dim)
        self.grad_lipschitz = 1.0
        norms = np.linalg.norm(self.options, axis=1)
        self.sup_g_norm = float(norms.max())
        self.sup_g_diff_sq = float((2 * norms.max()) ** 2)
        self.sup_grad_norm = float(norms.max())
        self.set_lipschitz = 0.0

    @property
    def hilbert_weights(self):
        return self._w

    @property
    def metric(self):
        return MetricSpec("euclidean")

    def g_eval_batch(self, xs, ys):
        return np.asarray(ys, dtype=float)

    def f_value(self, beta):
        return 0.5 * _inner(self, beta, beta)

    def f_grad(self, beta):
        return beta.copy()

    def f_conj(self, lam):
        return 0.5 * _inner(self, lam, lam)

    def best_response_batch(self, lam, xs):
        # the decision set does not depend on x: one argmin serves every row
        costs = self.options @ lam
        return np.repeat(self.options[[int(np.argmin(costs))]], len(xs), axis=0)

    def feasible_batch(self, xs, ys):
        ys = np.asarray(ys, dtype=float)
        return np.any(np.all(np.abs(self.options - ys[:, None, :]) <= 1e-9, axis=2), axis=1)

    def initial_decision_batch(self, xs):
        return np.repeat(self.options[:1], len(xs), axis=0)


#: the games with the shared quadratic cost; congestion without penalty has kappa = 0
QUADRATIC_GAMES = [
    pytest.param(ResourceProblem, id="resource"),
    pytest.param(CongestionProblem, id="congestion"),
    pytest.param(lambda: CongestionProblem(alpha=0.0), id="congestion_alpha0"),
]


def twin_pigou():
    """Two independent two-edge routing choices; value solvable by grid search."""
    edges = [
        Edge(0, 1, "affine", (1.0, 0.0)),
        Edge(0, 1, "affine", (0.0, 1.0)),
        Edge(2, 3, "affine", (2.0, 0.0)),
        Edge(2, 3, "affine", (0.0, 0.5)),
    ]
    prob = TrafficProblem(4, edges, [(0, 1), (2, 3)])
    m = EmpiricalMeasure.from_atoms("X", [([0, 1], 0.5), ([2, 3], 0.5)])
    return prob, m


def twin_pigou_value(prob, grid=2001):
    th1 = np.linspace(0.0, 1.0, grid)[:, None]
    th2 = np.linspace(0.0, 1.0, grid)[None, :]
    q0, q1 = 0.5 * th1, 0.5 * (1.0 - th1)
    q2, q3 = 0.5 * th2, 0.5 * (1.0 - th2)
    f = 0.5 * q0 ** 2 + q1 + q2 ** 2 + 0.5 * q3
    return float(f.min())


class TestAggregate:
    def test_dirac(self, resource_problem):
        q = np.full(resource_problem.steps, 0.25)
        mu = EmpiricalMeasure.from_atoms("Z", [([5.0], q, 1.0)])
        np.testing.assert_allclose(
            aggregate(resource_problem, mu),
            g_eval(resource_problem, [5.0], q),
            atol=1e-15,
        )

    def test_linearity_midpoint(self, resource_problem):
        rng = np.random.default_rng(0)
        q1, q2 = rng.uniform(0, 0.5, size=(2, resource_problem.steps))
        mu = EmpiricalMeasure.from_atoms("Z", [([9.0], q1, 0.5), ([8.0], q2, 0.5)])
        mid = 0.5 * (g_eval(resource_problem, [9.0], q1) + g_eval(resource_problem, [8.0], q2))
        np.testing.assert_allclose(aggregate(resource_problem, mu), mid, atol=1e-15)

    def test_resource_half_extraction_first_coordinate(self, resource_problem):
        # q identically 1/2 with ample stock: first coordinate is sum of
        # discounted weights times (1/4 - 1/2)
        q = np.full(resource_problem.steps, 0.5)
        mu = EmpiricalMeasure.from_atoms("Z", [([resource_problem.horizon], q, 1.0)])
        expected = float(np.sum(resource_problem.dt * resource_problem.discount_factors * (0.25 - 0.5)))
        assert aggregate(resource_problem, mu)[0] == pytest.approx(expected, abs=1e-15)


class TestFeasibilityChecks:
    def test_aggregate_rejects_infeasible_atoms(self, resource_problem):
        from mfo import OracleError, validate_feasible

        # over-budget control: spends the whole horizon at rate 1/2 on a tiny stock
        bad = EmpiricalMeasure.from_atoms(
            "Z", [([0.1], np.full(resource_problem.steps, 0.5), 1.0)]
        )
        with pytest.raises(OracleError, match="infeasible atom 0"):
            aggregate(resource_problem, bad)
        with pytest.raises(ValueError, match="infeasible"):
            validate_feasible(bad, resource_problem)
        good = EmpiricalMeasure.from_atoms(
            "Z", [([10.0], np.full(resource_problem.steps, 0.5), 1.0)]
        )
        validate_feasible(good, resource_problem)
        aggregate(resource_problem, good)


def u_values(problem, lam, xs):
    """The paper's ``u`` at ``lam``, ``min_y <lam, g(x, y)>``, per row of ``xs``, and the minimizers."""
    ys, _, values = _support_values(problem, problem.bind(np.asarray(xs, dtype=float)), lam)
    return values, ys


class TestULambda:
    def test_zero_dual_gives_zero_value(self, pigou_problem):
        lam = np.zeros(len(pigou_problem.hilbert_weights))
        values, argmins = u_values(pigou_problem, lam, [[0, 1]])
        assert values.tolist() == [0.0]
        assert pigou_problem.feasible_batch([[0, 1]], argmins).all()

    def test_traffic_shortest_path(self, pigou_problem):
        lam = np.array([0.7, 1.0])
        values, argmins = u_values(pigou_problem, lam, [[0, 1]])
        assert values[0] == pytest.approx(0.7)
        np.testing.assert_allclose(argmins, [[1.0, 0.0]])

    def test_resource_closed_form(self, resource_problem):
        # with no aggregate pressure and ample stock the pointwise optimum
        # is q = 1/2 with value -1/4 of the discounted mass
        lam = np.concatenate([[1.0], np.zeros(resource_problem.steps)])
        values, argmins = u_values(resource_problem, lam, [[resource_problem.horizon]])
        np.testing.assert_allclose(argmins, 0.5, atol=1e-12)
        mass = float(np.sum(resource_problem.dt * resource_problem.discount_factors))
        assert values[0] == pytest.approx(-0.25 * mass, abs=1e-12)

    def test_lipschitz_estimate(self, resource_problem):
        # |u(lam1, x1) - u(lam2, x2)| <= L_g |lam1| d(x1,x2) + M |lam1 - lam2|
        rng = np.random.default_rng(1)
        prob = resource_problem
        for _ in range(50):
            lam1 = np.concatenate([[1.0], rng.uniform(0, 0.5, prob.steps)])
            lam2 = np.concatenate([[1.0], rng.uniform(0, 0.5, prob.steps)])
            x1, x2 = rng.uniform(0, prob.stock_cap, size=2)
            (v1,), _ = u_values(prob, lam1, [[x1]])
            (v2,), _ = u_values(prob, lam2, [[x2]])
            bound = (
                prob.set_lipschitz * _norm(prob, lam1) * prob.metric.pairwise([x1], [x2])[0, 0]
                + prob.sup_g_norm * _norm(prob, lam1 - lam2)
            )
            assert abs(v1 - v2) <= bound + 1e-7


class TestLinearizedSolve:
    def test_single_atom(self, resource_problem):
        lam = np.concatenate([[1.0], np.zeros(resource_problem.steps)])
        m = uniform_marginal([2.0])
        mu = linearized_solve(resource_problem, lam, m)
        assert len(mu) == 1
        np.testing.assert_allclose(mu.ys[0], best_response(resource_problem, lam, [2.0]))

    def test_pigou_strict_preference(self, pigou_problem):
        mu = linearized_solve(pigou_problem, np.array([0.3, 1.0]), uniform_marginal_od())
        assert len(mu) == 1
        np.testing.assert_allclose(mu.ys[0], [1.0, 0.0])

    def test_cost_matches_u_integral(self, resource_problem):
        rng = np.random.default_rng(2)
        lam = np.concatenate([[1.0], rng.uniform(0, 0.5, resource_problem.steps)])
        m = EmpiricalMeasure("X", xs=rng.uniform(0, 5, size=(6, 1)), weights=np.full(6, 1 / 6))
        mu = linearized_solve(resource_problem, lam, m)
        cost = _inner(resource_problem, lam, aggregate(resource_problem, mu))
        # one row at a time, apart from the batch sweep linearized_solve uses
        prob = resource_problem
        expected = sum(w * _inner(prob, lam, g_eval(prob, x, best_response(prob, lam, x)))
                       for x, w in zip(m.xs, m.weights))
        assert cost == pytest.approx(expected, abs=1e-9)


def uniform_marginal_od():
    return EmpiricalMeasure.from_atoms("X", [([0, 1], 1.0)])


class TestFwGap:
    def test_zero_at_equilibrium_support(self, pigou_problem):
        mu = EmpiricalMeasure.from_atoms("Z", [([0, 1], [1.0, 0.0], 1.0)])
        cert = fw_gap(pigou_problem, mu)
        assert cert.gap == pytest.approx(0.0, abs=1e-12)
        # support containment: the atom is a best response at the certificate dual
        y_cost = float(mu.ys[0] @ cert.lam)
        values, _ = u_values(pigou_problem, cert.lam, [[0, 1]])
        assert y_cost <= values[0] + 1e-9

    def test_pigou_all_mass_on_constant_edge(self, pigou_problem):
        mu = EmpiricalMeasure.from_atoms("Z", [([0, 1], [0.0, 1.0], 1.0)])
        cert = fw_gap(pigou_problem, mu)
        assert cert.gap == pytest.approx(1.0, abs=1e-12)

    def test_carries_the_aggregate_it_was_taken_at(self, resource_problem):
        q = np.full(resource_problem.steps, 0.1)
        mu = EmpiricalMeasure.from_atoms("Z", [([1.0], q, 0.5), ([3.0], 2 * q, 0.5)])
        cert = fw_gap(resource_problem, mu)
        assert cert.beta.tobytes() == aggregate(resource_problem, mu).tobytes()
        assert cert.lam.tobytes() == resource_problem.f_grad(cert.beta).tobytes()

    def test_nonnegative_on_random_measures(self, resource_problem):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 5
            xs = rng.uniform(0.1, 5.0, size=(n, 1))
            ys = rng.uniform(0, 0.5, size=(n, resource_problem.steps))
            # repair feasibility by truncating to the budget
            ys = np.vstack(
                [transport_select(resource_problem, [10.0], q, x) for q, x in zip(ys, xs)]
            )
            mu = EmpiricalMeasure("Z", xs=xs, ys=ys, weights=np.full(n, 1 / n))
            assert fw_gap(resource_problem, mu).gap >= 0.0

    def test_gap_bounds_suboptimality_brute_force(self):
        prob, m = twin_pigou()
        val = twin_pigou_value(prob)
        rng = np.random.default_rng(4)
        for _ in range(10):
            th1, th2 = rng.random(2)
            mu = EmpiricalMeasure.from_atoms(
                "Z",
                [
                    ([0, 1], [1.0, 0.0, 0.0, 0.0], 0.5 * th1),
                    ([0, 1], [0.0, 1.0, 0.0, 0.0], 0.5 * (1 - th1)),
                    ([2, 3], [0.0, 0.0, 1.0, 0.0], 0.5 * th2),
                    ([2, 3], [0.0, 0.0, 0.0, 1.0], 0.5 * (1 - th2)),
                ],
            )
            cert = fw_gap(prob, mu)
            assert cert.primal_value - val <= cert.gap + 1e-6


class NanOnFirstEdge(TrafficProblem):
    """Pigou routing whose contribution is NaN on every path using edge 0."""

    def bind(self, xs):
        return GEvalRows(self, xs)

    def g_eval_batch(self, xs, ys):
        G = np.array(ys, dtype=float)
        G[G[:, 0] == 1.0] = np.nan
        return G


class GEvalRows(TrafficSweep):
    """The traffic sweep with its rows from ``g_eval_batch``."""

    def best_response_rows(self, lam):
        ys = super().best_response_rows(lam)[0]
        return ys, self.problem.g_eval_batch(self.xs, ys)


class TestNonFiniteValues:
    @pytest.mark.parametrize("raw", [math.nan, math.inf])
    def test_clamp_gap_rejects_non_finite(self, raw):
        with pytest.raises(RuntimeError, match="non-finite optimality gap"):
            clamp_gap(raw)

    def test_non_finite_aggregate_is_rejected(self):
        mu = EmpiricalMeasure.from_atoms("Z", [([0, 1], [1.0, 0.0], 1.0)])
        with pytest.raises(ValueError, match="the aggregate must be finite"):
            fw_gap(NanOnFirstEdge(*pigou_network()), mu)

    def test_non_finite_best_response_contribution_is_rejected(self):
        # the atom sits on the constant edge; the best response takes edge 0
        mu = EmpiricalMeasure.from_atoms("Z", [([0, 1], [0.0, 1.0], 1.0)])
        with pytest.raises(RuntimeError, match="non-finite optimality gap nan"):
            fw_gap(NanOnFirstEdge(*pigou_network()), mu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_dual_point_is_rejected(self, pigou_problem, bad):
        m = EmpiricalMeasure.from_atoms("X", [([0, 1], 1.0)])
        lam = np.array([bad, 1.0])
        with pytest.raises(ValueError, match="the dual point lam must be finite"):
            linearized_solve(pigou_problem, lam, m)
        with pytest.raises(ValueError, match="the dual point lam must be finite"):
            value_directional_derivative(pigou_problem, m, m, lam)

    @pytest.mark.parametrize("i, bad", [(1, math.nan), (0, math.nan), (1, math.inf)])
    def test_dual_value_rejects_a_non_finite_dual_point(self, i, bad):
        # the conjugate is NaN at [1, nan, 0, ...]; a non-finite lam is an
        # error, not a point outside the conjugate's domain (+inf)
        prob = ResourceProblem(steps=5)
        lam = np.concatenate([[1.0], np.zeros(prob.steps)])
        lam[i] = bad
        with pytest.raises(ValueError, match="the dual point lam must be finite"):
            dual_value(prob, lam, uniform_marginal([1.0]))


class TestDerivativeChecks:
    def test_f_grad_finite_differences(self, resource_problem, congestion_problem):
        rng = np.random.default_rng(5)
        for prob in (resource_problem, congestion_problem):
            w = prob.hilbert_weights
            beta = rng.uniform(-0.3, 0.3, size=len(w))
            grad = prob.f_grad(beta)
            h = 1e-6
            for i in rng.integers(0, len(w), size=8):
                e = np.zeros(len(w))
                e[i] = h
                fd = (prob.f_value(beta + e) - prob.f_value(beta - e)) / (2 * h)
                # finite differences give the euclidean partial: weight times
                # the weighted-inner-product gradient
                assert fd == pytest.approx(w[i] * grad[i], rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("make", QUADRATIC_GAMES)
    def test_fenchel_young(self, make):
        rng = np.random.default_rng(6)
        prob = make()
        dim = len(prob.hilbert_weights)
        for _ in range(30):
            beta = rng.uniform(-0.3, 0.3, size=dim)
            lam = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, dim - 1)])
            assert prob.f_value(beta) + prob.f_conj(lam) >= _inner(prob, lam, beta) - 1e-12
            grad = prob.f_grad(beta)
            equality = prob.f_value(beta) + prob.f_conj(grad) - _inner(prob, grad, beta)
            assert abs(equality) <= 1e-8

    @pytest.mark.parametrize("make", QUADRATIC_GAMES)
    def test_grad_lipschitz_is_the_slope_of_f_grad(self, make):
        # finite-difference slopes of f_grad never exceed grad_lipschitz and
        # reach it along directions that leave beta_0 alone
        rng = np.random.default_rng(11)
        prob = make()
        dim = len(prob.hilbert_weights)
        h = 1e-6

        def slope(beta, d):
            return _norm(prob, prob.f_grad(beta + h * d) - prob.f_grad(beta)) / (h * _norm(prob, d))

        for _ in range(20):
            beta = rng.uniform(-0.3, 0.3, dim)
            d = rng.uniform(-1.0, 1.0, dim)
            assert slope(beta, d) <= prob.grad_lipschitz * (1 + 1e-6)
            flat = np.concatenate([[0.0], d[1:]])
            assert slope(beta, flat) == pytest.approx(prob.grad_lipschitz, rel=1e-6)


@pytest.mark.parametrize("prob, coefficient", [
    (ResourceProblem(price_impact=0.5), lambda p: 0.5 * p.price_impact),
    (CongestionProblem(alpha=0.5), lambda p: p.alpha / p.dx),
], ids=["resource", "congestion"])
def test_cost_in_the_games_own_parameters(prob, coefficient):
    # f(beta) = beta_0 + coefficient * sum_{t>=1} w_t beta_t^2, with the
    # coefficient each game's model states
    rng = np.random.default_rng(12)
    v = rng.uniform(-0.3, 0.3, len(prob.hilbert_weights))
    expected = v[0] + coefficient(prob) * np.sum(prob.hilbert_weights[1:] * v[1:] ** 2)
    assert prob.f_value(v) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("prob", [
    ResourceProblem(horizon=5.0, steps=20, discount=0.3, price_impact=0.5, stock_cap=8.0),
    CongestionProblem(horizon=2.0, steps=10, vmax=2.0, alpha=0.5, cells=4, smoothing=12,
                      grid_substeps=20),
], ids=["resource", "congestion"])
def test_from_config_rebuilds_the_described_instance(prob):
    described = prob.describe()
    assert set(prob.config_keys) <= set(described)
    fresh = type(prob).from_config(described)
    assert fresh.describe() == described
    np.testing.assert_array_equal(fresh.hilbert_weights, prob.hilbert_weights)


@pytest.mark.parametrize("cls, key", [
    (ResourceProblem, "steps"), (CongestionProblem, "steps"), (CongestionProblem, "cells"),
    (CongestionProblem, "smoothing"), (CongestionProblem, "grid_substeps"),
])
@pytest.mark.parametrize("value, message", [
    (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    ("4", "must be an integer, got '4'"), (0, "must be at least 1, got 0"), (-3, "must be at least 1, got -3"),
], ids=["fraction", "boolean", "string", "zero", "negative"])
def test_integer_keys_are_integers(cls, key, value, message):
    # a fraction is an error, not truncated
    with pytest.raises(ValueError, match=f"^{key} {message}$"):
        cls.from_config({key: value})


@pytest.mark.parametrize("cls, cfg", [
    (ResourceProblem, {"steps": 20.0}),
    (CongestionProblem, {"steps": np.int64(10), "cells": 4.0, "smoothing": 12, "grid_substeps": 20.0}),
], ids=["resource", "congestion"])
def test_integral_values_of_integer_keys_pass(cls, cfg):
    described = cls.from_config(cfg).describe()
    for key, value in cfg.items():
        assert type(described[key]) is int and described[key] == value


class TestDualValue:
    def test_quadratic_toy_at_zero(self):
        toy = QuadToy(options=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        m = uniform_marginal([0.0])
        lam = np.array([0.0, 0.0])
        assert dual_value(toy, lam, m) == pytest.approx(0.0, abs=1e-15)

    def test_resource_conjugate_formula(self, resource_problem):
        prob = resource_problem
        rng = np.random.default_rng(7)
        lam2 = rng.uniform(-0.5, 0.5, prob.steps)
        lam = np.concatenate([[1.0], lam2])
        # Legendre transform computed independently: stationary point of
        # <lam, beta> - f(beta) over beta
        norm2 = float(np.sum(prob.hilbert_weights[1:] * lam2 ** 2))
        assert prob.f_conj(lam) == pytest.approx(norm2 / (2.0 * prob.price_impact), abs=1e-12)
        bad = np.concatenate([[0.9], lam2])
        assert prob.f_conj(bad) == math.inf
        assert dual_value(prob, bad, uniform_marginal([1.0])) == math.inf

    def test_weak_duality(self, resource_problem, exp_marginal_50):
        prob = resource_problem
        rng = np.random.default_rng(8)
        m = exp_marginal_50
        lam = np.concatenate([[1.0], rng.uniform(0, 0.5, prob.steps)])
        lower = -dual_value(prob, lam, m)
        mu = linearized_solve(prob, np.concatenate([[1.0], np.zeros(prob.steps)]), m)
        assert lower <= prob.f_value(aggregate(prob, mu)) + 1e-12

    def test_strong_duality_at_convergence(self, resource_problem, exp_marginal_50):
        report = fw_solve(resource_problem, exp_marginal_50,
                          SolverConfig(iterations=400, gap_tol=1e-9))
        cert = report.certificate
        dm = dual_value(resource_problem, cert.lam, exp_marginal_50)
        assert abs(cert.primal_value + dm) <= 2 * max(cert.gap, 1e-12)

    def test_strong_convexity_midpoint(self, resource_problem):
        # dual objective is strongly convex with modulus 1/L
        prob = resource_problem
        m = uniform_marginal([0.4, 1.3, 2.7])
        rng = np.random.default_rng(9)
        for _ in range(10):
            l1 = np.concatenate([[1.0], rng.uniform(-0.4, 0.6, prob.steps)])
            l2 = np.concatenate([[1.0], rng.uniform(-0.4, 0.6, prob.steps)])
            mid = 0.5 * (l1 + l2)
            d_mid = dual_value(prob, mid, m)
            d_avg = 0.5 * dual_value(prob, l1, m) + 0.5 * dual_value(prob, l2, m)
            gap_term = _inner(prob, l1 - l2, l1 - l2) / (8.0 * prob.grad_lipschitz)
            assert d_mid <= d_avg - gap_term + 1e-10


class TestDirectionalDerivative:
    def _lambda_star(self, prob, m):
        report = fw_solve(prob, m, SolverConfig(iterations=3000, gap_tol=1e-11,
                                                store_measure=False))
        return report.certificate, report

    def test_same_marginal_gives_zero(self, small_resource_problem):
        m = uniform_marginal([0.5, 2.0])
        cert, _ = self._lambda_star(small_resource_problem, m)
        assert value_directional_derivative(small_resource_problem, m, m, cert.lam) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_consistency(self, small_resource_problem):
        prob = small_resource_problem
        m0 = EmpiricalMeasure.from_atoms("X", [([0.5], 0.7), ([2.0], 0.3)])
        m1 = EmpiricalMeasure.from_atoms("X", [([0.5], 0.3), ([2.0], 0.7)])
        cert0, _ = self._lambda_star(prob, m0)
        deriv = value_directional_derivative(prob, m0, m1, cert0.lam)
        t = 1e-2
        mt = mix(m0, m1, t)
        cert_t, _ = self._lambda_star(prob, mt)
        fd = (cert_t.primal_value - cert0.primal_value) / t
        ld = prob.grad_lipschitz * prob.sup_g_diff_sq
        tol = ld * t / 2.0 + 4.0 * (cert0.gap + cert_t.gap) / t
        assert abs(fd - deriv) <= tol

    def test_sign_more_stock_lowers_value(self, small_resource_problem):
        prob = small_resource_problem
        m0 = EmpiricalMeasure.from_atoms("X", [([0.5], 0.6), ([3.0], 0.4)])
        m1 = EmpiricalMeasure.from_atoms("X", [([0.5], 0.2), ([3.0], 0.8)])
        cert0, _ = self._lambda_star(prob, m0)
        assert value_directional_derivative(prob, m0, m1, cert0.lam) <= 1e-10
        cert1, _ = self._lambda_star(prob, m1)
        assert cert1.primal_value - cert1.gap <= cert0.primal_value + 1e-9


class TestDualStability:
    def test_dual_solutions_hoelder_in_marginal(self, small_resource_problem):
        prob = small_resource_problem
        rng = np.random.default_rng(10)
        marginals = [
            uniform_marginal(np.clip(rng.exponential(1.0, size=8), 0, prob.stock_cap))
            for _ in range(3)
        ]
        certs = [
            fw_solve(prob, m, SolverConfig(iterations=3000, gap_tol=1e-11,
                                           store_measure=False)).certificate
            for m in marginals
        ]
        c_star = max(_norm(prob, c.lam) for c in certs)
        for i in range(3):
            for j in range(i + 1, 3):
                d = ot_solve(marginals[i], marginals[j], prob.metric).cost
                lhs = _inner(prob, certs[i].lam - certs[j].lam, certs[i].lam - certs[j].lam)
                rhs = 2.0 * c_star * prob.set_lipschitz * prob.grad_lipschitz * d
                assert lhs <= rhs + 1e-6

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

import mfo.transport
from mfo import (EmpiricalMeasure, MetricSpec, SolverConfig, SourceDistribution, bridge, first_marginal, fw_solve,
                 ot_solve, quantize_sample)
from mfo.examples import TrafficProblem, grid_network
from mfo.examples.traffic import Edge
from mfo.problem import QuadraticCostProblem
from mfo.transport import Coupling, _assignment

from conftest import uniform_marginal

EUCLID = MetricSpec("euclidean")


def brute_force_cost(D, weights=None):
    """Exhaustive minimum over permutation couplings (uniform case)."""
    n = D.shape[0]
    w = 1.0 / n
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(w * D[i, p] for i, p in enumerate(perm)))
    return best


def dual_lp_value(D, a, b):
    """Independent check: the dual transportation LP."""
    n0, n1 = D.shape
    # maximize a@u + b@v subject to u_i + v_j <= D_ij
    c = -np.concatenate([a, b])
    A_ub = np.zeros((n0 * n1, n0 + n1))
    b_ub = D.ravel()
    for i in range(n0):
        for j in range(n1):
            A_ub[i * n1 + j, i] = 1.0
            A_ub[i * n1 + j, n0 + j] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    assert res.status == 0
    return -res.fun


class TestMetricSpec:
    def test_euclidean_axioms_sampled(self):
        rng = np.random.default_rng(0)
        for kind in ("euclidean", "sqrt_euclidean"):
            spec = MetricSpec(kind)
            pts = rng.normal(size=(12, 2))
            D = spec.pairwise(pts, pts)
            np.testing.assert_allclose(D, D.T, atol=1e-12)
            np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-12)
            for _ in range(100):
                i, j, k = rng.integers(0, 12, size=3)
                assert D[i, j] <= D[i, k] + D[k, j] + 1e-12

    def test_graph_hop(self):
        hops = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        spec = MetricSpec("graph_hop", node_distances=hops)
        assert spec.pairwise([0, 2], [1, 2])[0, 0] == 1.0
        assert spec.pairwise([0, 2], [2, 0])[0, 0] == 4.0

    @pytest.mark.parametrize("bad", [[0.0, 7.4], [0.0, -1.0], [0.0, 8.0], [0.0, 9.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_graph_hop_rejects_points_that_are_not_node_ids(self, bad):
        # a fractional id must not be truncated, a negative one must not wrap
        # around to the last node, and one past the graph must not raise IndexError
        spec = TrafficProblem(*grid_network()).metric
        assert len(spec.node_distances) == 8
        good = [[0.0, 7.0], [1.0, 6.0]]
        with pytest.raises(ValueError, match=r"point \[.*\] is not a pair of node ids in \[0, 8\)"):
            spec.pairwise(good + [bad], [[0.0, 7.0]])
        with pytest.raises(ValueError, match="not a pair of node ids"):
            spec.pairwise([[0.0, 7.0]], [bad] + good)
        assert spec.pairwise(good, good).shape == (2, 2)

    def test_graph_hop_rejects_single_coordinates(self):
        spec = MetricSpec("graph_hop", node_distances=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="origin, destination"):
            spec.pairwise([[0.0]], [[1.0]])


class TestOtSolve:
    def test_identical_marginals_cost_zero(self):
        m = uniform_marginal([0.0, 1.0, 2.5])
        plan = ot_solve(m, m, EUCLID)
        assert plan.cost == pytest.approx(0.0, abs=1e-15)
        assert sorted(zip(plan.rows, plan.cols)) == [(0, 0), (1, 1), (2, 2)]

    def test_two_point_shift(self):
        m0 = uniform_marginal([0.0, 1.0])
        m1 = uniform_marginal([0.5, 1.5])
        plan = ot_solve(m0, m1, EUCLID)
        D = EUCLID.pairwise(m0.xs, m1.xs)
        assert plan.cost == pytest.approx(brute_force_cost(D), abs=1e-15)
        assert plan.cost == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["euclidean", "sqrt_euclidean"])
    def test_uniform_matches_brute_force(self, n, kind):
        rng = np.random.default_rng(n)
        spec = MetricSpec(kind)
        m0 = EmpiricalMeasure("X", xs=rng.normal(size=(n, 2)), weights=np.full(n, 1 / n))
        m1 = EmpiricalMeasure("X", xs=rng.normal(size=(n, 2)), weights=np.full(n, 1 / n))
        plan = ot_solve(m0, m1, spec)
        D = spec.pairwise(m0.xs, m1.xs)
        assert plan.cost == pytest.approx(brute_force_cost(D), abs=1e-12)

    def test_general_weights_match_dual_lp(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n0, n1 = rng.integers(2, 6, size=2)
            w0 = rng.random(n0)
            w1 = rng.random(n1)
            m0 = EmpiricalMeasure("X", xs=rng.normal(size=(n0, 2)), weights=w0 / w0.sum())
            m1 = EmpiricalMeasure("X", xs=rng.normal(size=(n1, 2)), weights=w1 / w1.sum())
            plan = ot_solve(m0, m1, EUCLID)
            D = EUCLID.pairwise(m0.xs, m1.xs)
            assert plan.cost == pytest.approx(dual_lp_value(D, m0.weights, m1.weights), abs=1e-9)

    def test_lp_plan_of_200_to_800_atoms_passes_its_dual_check(self):
        # unequal sizes take the LP; under HiGHS's default tolerances its least
        # reduced cost here was -2.9e-8, and ot_solve rejected the plan
        dist = SourceDistribution.parse("exponential:1")
        m0, m1 = quantize_sample(dist, 200, 1), quantize_sample(dist, 800, 2)
        plan = ot_solve(m0, m1, MetricSpec("sqrt_euclidean"))
        assert max(plan.marginal_residuals()) <= 1e-12
        assert plan.cost == pytest.approx(0.18155376988729827, abs=1e-9)

    def test_1d_monotone_path_matches_lp(self):
        rng = np.random.default_rng(8)
        w0 = rng.random(6)
        m0 = EmpiricalMeasure("X", xs=rng.normal(size=(6, 1)), weights=w0 / w0.sum())
        m1 = uniform_marginal(rng.normal(size=4))
        plan = ot_solve(m0, m1, EUCLID)
        D = EUCLID.pairwise(m0.xs, m1.xs)
        assert plan.cost == pytest.approx(dual_lp_value(D, m0.weights, m1.weights), abs=1e-10)

    def test_1d_euclidean_uniform_pairs_take_the_monotone_plan(self, monkeypatch):
        # |x - x2| has many optimal plans here; the monotone one needs no assignment
        monkeypatch.setattr(mfo.transport, "_assignment", None)
        rng = np.random.default_rng(10)
        m0 = uniform_marginal(rng.integers(0, 3, size=6))
        m1 = uniform_marginal(rng.integers(1, 4, size=6))
        plan = ot_solve(m0, m1, EUCLID)
        D = EUCLID.pairwise(m0.xs, m1.xs)
        assert plan.cost == pytest.approx(brute_force_cost(D), abs=1e-12)
        # no two entries cross: x0 < x0' implies x1 <= x1'
        x0, x1 = m0.xs[plan.rows, 0], m1.xs[plan.cols, 0]
        assert np.all((x0[:, None] < x0) <= (x1[:, None] <= x1))

    def test_monotone_plans_pass_their_dual_check(self):
        # unequal sizes, points repeated on either side and points shared by
        # both: the Kantorovich potential prices each monotone plan at its
        # cost, and no reduced cost is negative beyond roundoff
        rng = np.random.default_rng(11)
        for case in range(200):
            grid = rng.normal(size=8)
            n0, n1 = rng.integers(1, 30, 2)
            x0 = rng.choice(grid, n0) if case % 2 else rng.normal(size=n0)
            x1 = np.concatenate([rng.choice(x0, 1 + n1 // 3), rng.choice(grid, n1)])
            m0, m1 = (EmpiricalMeasure("X", xs=x[:, None], weights=w / w.sum())
                      for x, w in ((x0, rng.random(len(x0))), (x1, rng.random(len(x1)))))
            plan = ot_solve(m0, m1, EUCLID)
            u, v = mfo.transport._monotone_potential(m0, m1)
            D = EUCLID.pairwise(m0.xs, m1.xs)
            assert np.min(D - u[:, None] - v) >= -1e-12
            assert plan.cost == pytest.approx(m0.weights @ u + m1.weights @ v, abs=1e-12)
            if case % 20 == 0:
                assert plan.cost == pytest.approx(dual_lp_value(D, m0.weights, m1.weights), abs=1e-10)

    def test_ot_solve_rejects_a_monotone_plan_its_potential_does_not_certify(self, monkeypatch):
        # the first and last atoms trade their targets: the marginals hold,
        # the plan crosses and costs more than the potential's dual value
        x0 = np.arange(6.0)
        m0, m1 = uniform_marginal(x0), uniform_marginal(x0 + 0.1)
        ot_solve(m0, m1, EUCLID)
        monotone = mfo.transport._monotone_1d

        def crossed(m0, m1):
            rows, cols, masses = monotone(m0, m1)
            cols[[0, -1]] = cols[[-1, 0]]
            return rows, cols, masses

        monkeypatch.setattr(mfo.transport, "_monotone_1d", crossed)
        with pytest.raises(RuntimeError, match="optimality check"):
            ot_solve(m0, m1, EUCLID)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(9)
        ms = [uniform_marginal(rng.normal(size=5)) for _ in range(3)]
        d01 = ot_solve(ms[0], ms[1], EUCLID).cost
        d10 = ot_solve(ms[1], ms[0], EUCLID).cost
        d02 = ot_solve(ms[0], ms[2], EUCLID).cost
        d12 = ot_solve(ms[1], ms[2], EUCLID).cost
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d01 <= d02 + d12 + 1e-12
        assert d01 > 0

    def test_rejects_pair_measures(self):
        mu = EmpiricalMeasure.from_atoms("Z", [([0.0], [0.0], 1.0)])
        m = uniform_marginal([0.0])
        with pytest.raises(ValueError):
            ot_solve(mu, m, EUCLID)

    @pytest.mark.parametrize("w0, w1", [(1, 2), (2, 1)])
    def test_rejects_parameters_of_different_widths(self, monkeypatch, w0, w1):
        # refused before the ground distances: pairwise would broadcast a
        # single column against two
        monkeypatch.setattr(MetricSpec, "pairwise", lambda *args: pytest.fail("distances computed"))
        m0 = EmpiricalMeasure("X", xs=np.arange(2.0 * w0).reshape(2, w0), weights=np.full(2, 0.5))
        m1 = EmpiricalMeasure("X", xs=np.ones((3, w1)), weights=np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=f"m0 has parameters of width {w0}, m1 of width {w1}"):
            ot_solve(m0, m1, EUCLID)


class TestFiniteGroundMetric:
    """A plan is solved on a finite ground metric: ``ot_solve`` and ``bridge`` name the first pair of atoms at
    infinite distance."""

    MESSAGE = (r"^the ground metric is not finite on the support pairs: "
               r"the distance from x=\[0\. 1\.\] to x=\[2\. 3\.\] is infinite$")

    @staticmethod
    def two_components():
        # (0, 1) and (2, 3) lie in two components: the hop metric between them is inf
        edges = [Edge(0, 1, "affine", (1.0, 0.0)), Edge(0, 1, "affine", (0.0, 1.0)), Edge(2, 3, "affine", (1.0, 0.5))]
        prob = TrafficProblem(4, edges, [(0, 1), (2, 3)])
        m0 = EmpiricalMeasure("X", xs=np.array([[0.0, 1.0]]), weights=np.ones(1))
        m1 = EmpiricalMeasure("X", xs=np.array([[0.0, 1.0], [2.0, 3.0]]), weights=np.full(2, 0.5))
        return prob, m0, m1

    def test_ot_solve(self):
        prob, m0, m1 = self.two_components()
        with pytest.raises(ValueError, match=self.MESSAGE):
            ot_solve(m0, m1, prob.metric)

    def test_bridge(self):
        prob, m0, m1 = self.two_components()
        mu0 = fw_solve(prob, m0, SolverConfig(iterations=3)).final_measure
        with pytest.raises(ValueError, match=self.MESSAGE):
            bridge(mu0, m1, prob)


def assert_duals_certify(D, cols, u, v):
    """(u, v) are feasible for the dual of the assignment and price it exactly."""
    assert np.min(D - u[:, None] - v) >= -1e-12
    assert D[np.arange(len(D)), cols].sum() == pytest.approx(u.sum() + v.sum(), abs=1e-12)


class TestAssignment:
    """``_assignment`` against scipy's ``linear_sum_assignment``."""

    @pytest.mark.parametrize("kind, dim", [("sqrt_euclidean", 1), ("euclidean", 2)])
    def test_continuous_costs_give_scipys_plan(self, kind, dim):
        rng = np.random.default_rng(21)
        spec = MetricSpec(kind)
        for n in range(1, 61):
            D = spec.pairwise(rng.exponential(size=(n, dim)), rng.exponential(size=(n, dim)))
            cols, u, v = _assignment(D)
            assert cols.tolist() == linear_sum_assignment(D)[1].tolist()
            assert_duals_certify(D, cols, u, v)

    def test_tied_costs_give_scipys_cost(self):
        # random integers, and |x - x2| on repeated points: many optimal plans
        rng = np.random.default_rng(22)
        for n in range(1, 61):
            points = rng.integers(0, 6, size=(2, n, 1)) / 4
            for D in (rng.integers(0, 5, size=(n, n)).astype(float), EUCLID.pairwise(*points)):
                cols, u, v = _assignment(D)
                assert sorted(cols.tolist()) == list(range(n))
                rows, want = linear_sum_assignment(D)
                assert D[rows, cols].sum() == pytest.approx(D[rows, want].sum(), abs=1e-12)
                assert_duals_certify(D, cols, u, v)

    @pytest.mark.parametrize("n1", [6, 4])  # the assignment, then the LP
    def test_ot_solve_rejects_a_plan_its_duals_do_not_certify(self, monkeypatch, n1):
        rng = np.random.default_rng(23)
        m0, m1 = (EmpiricalMeasure("X", xs=rng.exponential(size=(n, 1)), weights=np.full(n, 1 / n))
                  for n in (6, n1))
        spec = MetricSpec("sqrt_euclidean")
        ot_solve(m0, m1, spec)

        def swapped(D):
            # two rows trade their columns: a plan of higher cost, same duals
            cols, u, v = _assignment(D)
            cols[[0, 1]] = cols[[1, 0]]
            return cols, u, v

        lp = mfo.transport._transport_lp

        def raised(m0, m1, D):
            # one column potential above what the plan allows
            rows, cols, masses, u, v = lp(m0, m1, D)
            v[0] += 1e-6
            return rows, cols, masses, u, v

        monkeypatch.setattr(mfo.transport, "_assignment", swapped)
        monkeypatch.setattr(mfo.transport, "_transport_lp", raised)
        with pytest.raises(RuntimeError, match="optimality check"):
            ot_solve(m0, m1, spec)


class TestCoupling:
    def test_marginal_residuals_enforced(self):
        m0 = uniform_marginal([0.0, 1.0])
        m1 = uniform_marginal([0.0, 1.0])
        with pytest.raises(ValueError, match="residual"):
            Coupling(m0, m1, rows=[0, 1], cols=[0, 1], masses=[0.6, 0.5], dists=[0.0, 0.0])

    def test_dists_are_the_entries_ground_distances(self):
        rng = np.random.default_rng(12)
        m0 = EmpiricalMeasure("X", xs=rng.normal(size=(5, 2)), weights=np.full(5, 0.2))
        m1 = EmpiricalMeasure("X", xs=rng.normal(size=(3, 2)), weights=np.full(3, 1 / 3))
        plan = ot_solve(m0, m1, EUCLID)
        D = EUCLID.pairwise(m0.xs, m1.xs)
        assert plan.dists.tobytes() == D[plan.rows, plan.cols].tobytes()
        assert plan.cost == float(np.sum(plan.masses * plan.dists))

    def test_json_dict(self):
        m0 = uniform_marginal([0.0, 1.0])
        plan = ot_solve(m0, m0, EUCLID)
        d = plan.to_json_dict()
        assert d["cost"] == plan.cost
        assert all(len(e) == 3 for e in d["entries"])


class KeepDecision(QuadraticCostProblem):
    """Every decision is feasible everywhere, contributes nothing and is
    kept by the selection, so a bridge shows its glue alone."""

    def __init__(self):
        self.hilbert_weights = np.ones(1)
        self.metric = EUCLID
        self.grad_lipschitz = self.sup_g_norm = self.sup_g_diff_sq = self.sup_grad_norm = 0.0
        self.set_lipschitz = 1.0

    def g_eval_batch(self, xs, ys):
        return np.zeros((len(xs), 1))

    def best_response_batch(self, lam, xs):
        return np.zeros((len(xs), 1))

    def feasible_batch(self, xs, ys):
        return np.ones(len(xs), dtype=bool)

    def transport_select_batch(self, xs, ys, x2s):
        return np.asarray(ys, dtype=float)

    def initial_decision_batch(self, xs):
        return np.zeros((len(xs), 1))


def atoms(mu):
    """Sorted ``(x, y, w)`` rows of a pair measure with scalar coordinates."""
    return sorted(zip(mu.xs[:, 0].tolist(), mu.ys[:, 0].tolist(), mu.weights.tolist()))


class TestGlue:
    """The glue step of ``bridge``: one row per (pair atom, plan entry at its parameter)."""

    def test_diagonal_coupling_reproduces_mu0(self):
        mu0 = EmpiricalMeasure.from_atoms(
            "Z", [([0.0], [1.0], 0.5), ([1.0], [2.0], 0.5)]
        )
        out = bridge(mu0, first_marginal(mu0), KeepDecision()).measure
        assert out.allclose(mu0, tol=1e-12)

    def test_permutation_coupling(self):
        rng = np.random.default_rng(13)
        n = 4
        xs = rng.normal(size=(n, 1))
        ys = rng.normal(size=(n, 1))
        mu0 = EmpiricalMeasure("Z", xs=xs, ys=ys, weights=np.full(n, 1 / n))
        m1 = uniform_marginal(rng.normal(size=n))
        result = bridge(mu0, m1, KeepDecision())
        rho = result.coupling
        assert len(result.measure) == n
        # each decision moves to its atom's plan target; the marginal is m1
        want = EmpiricalMeasure("Z", xs=m1.xs[rho.cols], ys=ys[rho.rows], weights=rho.masses)
        assert result.measure.allclose(want, tol=1e-12)
        assert first_marginal(result.measure).allclose(m1, tol=1e-9)

    def test_product_split(self):
        # two decisions at one x, plan splits that x across two targets
        mu0 = EmpiricalMeasure.from_atoms("Z", [([0.0], [1.0], 0.5), ([0.0], [2.0], 0.5)])
        out = bridge(mu0, uniform_marginal([-1.0, 1.0]), KeepDecision()).measure
        assert len(out) == 4
        np.testing.assert_allclose(sorted(out.weights), [0.25] * 4, atol=1e-12)

    def test_chained_x_is_one_marginal_atom_of_full_mass(self):
        # x = 0, 0.9e-12, 1.8e-12 chain into one marginal atom; the plan at
        # that atom must carry all three pairs, not only those within
        # ATOM_TOL of the first
        mu0 = EmpiricalMeasure("Z", xs=np.array([[0.0], [0.9e-12], [1.8e-12]]),
                               ys=np.array([[0.0], [1.0], [2.0]]), weights=np.full(3, 1 / 3))
        assert len(first_marginal(mu0)) == 1
        out = bridge(mu0, uniform_marginal([-1.0, 1.0]), KeepDecision()).measure
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert [a[:2] for a in atoms(out)] == [(x2, y) for x2 in (-1.0, 1.0) for y in (0.0, 1.0, 2.0)]
        np.testing.assert_allclose(out.weights, 1 / 6, atol=1e-15)

    def test_zero_weight_atom_at_empty_x_is_ignored(self):
        # x = 2 carries no mass, so the first marginal and the plan skip it
        mu0 = EmpiricalMeasure("Z", xs=np.array([[0.0], [1.0], [2.0]]),
                               ys=np.array([[5.0], [6.0], [7.0]]), weights=np.array([0.5, 0.5, 0.0]))
        out = bridge(mu0, uniform_marginal([0.5, 3.0]), KeepDecision()).measure
        assert out.xs.tolist() == [[0.5], [3.0]] and out.ys.tolist() == [[5.0], [6.0]]
        assert out.weights.tolist() == [0.5, 0.5]

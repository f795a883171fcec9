import math

import numpy as np
import pytest

from mfo import (
    EmpiricalMeasure,
    SolverConfig,
    SourceDistribution,
    estimate_d1,
    fw_solve,
    quantize_grid,
    quantize_sample,
)
from mfo.quantize import grid_truncation
from mfo.examples import ResourceProblem

UNIFORM = SourceDistribution("uniform", low=0.0, high=1.0)


def d1_uniform01_vs_discrete(atoms, weights):
    """Exact transport distance of uniform(0,1) to a discrete law.

    On the line this is the area between the two distribution functions,
    integrated in closed form on each step interval.
    """
    order = np.argsort(atoms)
    atoms = np.asarray(atoms)[order]
    weights = np.asarray(weights)[order]
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    cuts = np.concatenate([[min(0.0, atoms[0])], atoms, [max(1.0, atoms[-1])]])
    total = 0.0
    for seg in range(len(cuts) - 1):
        a, b, level = cuts[seg], cuts[seg + 1], cum[seg]

        def f_cdf(x):
            return min(max(x, 0.0), 1.0)

        # integrate |F(x) - level| exactly: F is piecewise linear with
        # slope one on [0, 1] and flat outside
        pieces = sorted({a, b, 0.0, 1.0, level})
        for lo, hi in zip(pieces, pieces[1:]):
            if hi <= a or lo >= b:
                continue
            lo, hi = max(lo, a), min(hi, b)
            fa, fb = f_cdf(lo) - level, f_cdf(hi) - level
            total += abs(fa + fb) / 2.0 * (hi - lo) if fa * fb >= 0 else (fa * fa + fb * fb) / 2.0 * (hi - lo) / abs(fb - fa)
    return total


class TestSampling:
    def test_single_draw(self):
        m = quantize_sample(UNIFORM, 1, seed=0)
        assert len(m) == 1 and m.weights[0] == 1.0

    def test_uniform_mean_within_three_sigma(self):
        n = 10_000
        m = quantize_sample(UNIFORM, n, seed=123)
        sigma = math.sqrt(1.0 / 12.0 / n)
        assert abs(m.xs.mean() - 0.5) <= 3 * sigma

    def test_exponential_nonnegative(self):
        m = quantize_sample(SourceDistribution("exponential", rate=1.0), 100, seed=5)
        assert np.all(m.xs >= 0.0)

    def test_seeded_reproducible(self):
        a = quantize_sample(UNIFORM, 50, seed=9)
        b = quantize_sample(UNIFORM, 50, seed=9)
        np.testing.assert_array_equal(a.xs, b.xs)


class TestGrid:
    def test_single_cell_is_median(self):
        m = quantize_grid(UNIFORM, 1)
        assert m.xs[0, 0] == pytest.approx(0.5)
        assert d1_uniform01_vs_discrete(m.xs[:, 0], m.weights) == pytest.approx(0.25, abs=1e-13)

    def test_two_cells(self):
        m = quantize_grid(UNIFORM, 2)
        np.testing.assert_allclose(m.xs[:, 0], [0.25, 0.75])
        assert d1_uniform01_vs_discrete(m.xs[:, 0], m.weights) == pytest.approx(0.125, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_quarter_over_n_exact(self, n):
        m = quantize_grid(UNIFORM, n)
        d = d1_uniform01_vs_discrete(m.xs[:, 0], m.weights)
        assert d == pytest.approx(1.0 / (4.0 * n), abs=1e-12)

    def test_rate_slope(self):
        ns = np.array([1, 2, 4, 8, 16])
        ds = [d1_uniform01_vs_discrete(quantize_grid(UNIFORM, n).xs[:, 0],
                                       quantize_grid(UNIFORM, n).weights) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
        assert -1.05 <= slope <= -0.95

    def test_exponential_truncation_recorded(self):
        dist = SourceDistribution("exponential", rate=1.0)
        n = 8
        trunc = grid_truncation(dist, n)
        assert trunc is not None
        q, cut = trunc
        assert q == pytest.approx(1.0 - 1.0 / (4 * n))
        m = quantize_grid(dist, n)
        assert np.all(m.xs < cut)
        assert grid_truncation(UNIFORM, n) is None

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_exponential_grid_is_the_truncated_quantile_midpoints(self, n):
        # the atoms keep the bits of quantile((i + 1/2)/N * (1 - 1/(4N))), the reported cut
        dist = SourceDistribution("exponential", rate=1.0)
        expected = -np.log1p(-((np.arange(n) + 0.5) / n * (1.0 - 1.0 / (4.0 * n))))
        assert quantize_grid(dist, n).xs[:, 0].tobytes() == expected.tobytes()

    def test_grid_dominates_sampling(self):
        # deterministic quantizer beats the Monte-Carlo rate at every tested size
        for n in (2, 4, 8, 16):
            grid_d = d1_uniform01_vs_discrete(quantize_grid(UNIFORM, n).xs[:, 0],
                                              quantize_grid(UNIFORM, n).weights)
            sample = quantize_sample(UNIFORM, n, seed=100 + n)
            sample_d = d1_uniform01_vs_discrete(sample.xs[:, 0], sample.weights)
            assert grid_d < sample_d


class TestEstimateD1:
    def test_sample_size_precondition(self):
        m = quantize_grid(UNIFORM, 4)
        with pytest.raises(ValueError, match="sample size"):
            estimate_d1(UNIFORM, m, sample_size=39, seed=0)

    def test_vanishes_for_exact_finite_copy(self):
        data = np.arange(5, dtype=float)
        dist = SourceDistribution("samples", data=data)
        m = EmpiricalMeasure("X", xs=data.reshape(-1, 1), weights=np.full(5, 0.2))
        est_small, _ = estimate_d1(dist, m, sample_size=100, seed=1)
        est_large, _ = estimate_d1(dist, m, sample_size=2000, seed=1)
        assert est_large < est_small
        assert est_large <= 0.1

    def test_matches_analytic_grid_value(self):
        m = quantize_grid(UNIFORM, 2)
        est, err = estimate_d1(UNIFORM, m, sample_size=3000, seed=2)
        assert abs(est - 0.125) <= 4 * err + 0.02

    def test_translation_invariance_joint(self):
        # shifting the law and the quantizer together leaves the distance alone
        c = 2.7
        m = quantize_grid(UNIFORM, 2)
        shifted_dist = SourceDistribution("uniform", low=c, high=1.0 + c)
        m_shifted = EmpiricalMeasure("X", xs=m.xs + c, weights=m.weights)
        base, err0 = estimate_d1(UNIFORM, m, sample_size=2000, seed=3)
        moved, err1 = estimate_d1(shifted_dist, m_shifted, sample_size=2000, seed=3)
        assert abs(base - moved) <= 4 * (err0 + err1) + 0.01

    def test_translation_with_separated_supports(self):
        # once the shifted atoms dominate the law, every plan pays the mean gap
        c = 3.0
        m = quantize_grid(UNIFORM, 2)
        m_shifted = EmpiricalMeasure("X", xs=m.xs + c, weights=m.weights)
        est, err = estimate_d1(UNIFORM, m_shifted, sample_size=2000, seed=4)
        assert abs(est - c) <= 4 * err + 0.01


class TestEndToEndDiscretization:
    def test_value_gap_bounded_by_transport_distance(self):
        prob = ResourceProblem(horizon=10.0, steps=30)
        dist = SourceDistribution("exponential", rate=1.0)
        fine = quantize_grid(dist, 320)
        coarse = quantize_grid(dist, 10)
        cfg = SolverConfig(iterations=2000, gap_tol=1e-9, store_measure=False)
        val_fine = fw_solve(prob, fine, cfg).certificate.primal_value
        val_coarse = fw_solve(prob, coarse, cfg).certificate.primal_value
        d_hat, err = estimate_d1(dist, coarse, sample_size=400, seed=5, metric=prob.metric)
        factor = prob.set_lipschitz * (prob.sup_grad_norm + prob.grad_lipschitz * prob.sup_g_norm)
        assert abs(val_fine - val_coarse) <= factor * (d_hat + 5 * err) + 1e-6

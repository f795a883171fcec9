"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The resource instance used throughout is the desk-scale
one: horizon 10, unit discount and price impact, 50 producers, 50 time
steps.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mfo import (
    EmpiricalMeasure,
    MetricSpec,
    SolverConfig,
    SourceDistribution,
    bridge,
    dual_value,
    fw_solve,
    ot_solve,
    quantize_grid,
    quantize_sample,
    sfw_solve,
    value_directional_derivative,
)
from mfo.cli import main as cli_main
from mfo.examples import CongestionProblem, ResourceProblem, TrafficProblem, grid_network, pigou_network
from mfo.examples.congestion import bump_family

from conftest import best_response, uniform_marginal
from test_quantize import d1_uniform01_vs_discrete
from test_cli import history_without_time, write_config


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def stability_constant(prob):
    return prob.set_lipschitz * (prob.sup_grad_norm + prob.grad_lipschitz * prob.sup_g_norm)


def clipped_sample(prob, n, seed):
    m = quantize_sample(SourceDistribution("exponential", rate=1.0), n, seed)
    xs = np.clip(m.xs, 0.0, prob.stock_cap)
    return EmpiricalMeasure("X", xs=xs, weights=m.weights, validate=False)


@pytest.fixture(scope="module")
def reference_run(resource_problem, exp_marginal_50):
    tic = time.perf_counter()
    report = fw_solve(resource_problem, exp_marginal_50,
                      SolverConfig(iterations=5000, store_measure=False))
    elapsed = time.perf_counter() - tic
    val_proxy = report.certificate.primal_value - report.certificate.gap
    return val_proxy, elapsed


def test_criterion_01_fw_rate(resource_problem, exp_marginal_50, reference_run):
    val_proxy, t_ref = reference_run
    prob = resource_problem
    tic = time.perf_counter()
    run = fw_solve(prob, exp_marginal_50, SolverConfig(iterations=200))
    elapsed = time.perf_counter() - tic + t_ref
    bound2ld = 2.0 * prob.grad_lipschitz * prob.sup_g_diff_sq
    worst = -np.inf
    ok = True
    for k in range(10, 201):
        f_k = run.certificate.primal_value if k == 200 else run.records[k].objective
        excess = (f_k - val_proxy) - bound2ld / k
        worst = max(worst, excess)
        ok = ok and excess <= 1e-12
    ok = ok and elapsed <= 120.0
    check("criterion 1 (FW rate 2LD/K, K=10..200)", ok,
          f"worst excess {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_02_sfw_expectation(resource_problem, exp_marginal_50, reference_run):
    val_proxy, _ = reference_run
    prob = resource_problem
    tic = time.perf_counter()
    finals = []
    monotone_ok = True
    for seed in range(20):
        rep = sfw_solve(prob, exp_marginal_50,
                        SolverConfig(iterations=100, n_sims=5, seed=seed, monotone_guard=True))
        finals.append(rep.certificate.primal_value)
        monotone_ok = monotone_ok and bool(np.all(np.diff(rep.objectives) <= 1e-12))
    elapsed = time.perf_counter() - tic
    mean_subopt = float(np.mean(finals)) - val_proxy
    bound = 4.0 * prob.grad_lipschitz * prob.sup_g_diff_sq / 100.0
    ok = mean_subopt <= bound and monotone_ok and elapsed <= 300.0
    check("criterion 2 (SFW mean bound 4LD/K + monotone)", ok,
          f"mean subopt {mean_subopt:.2e} <= {bound:.2e}, monotone={monotone_ok}, "
          f"runtime {elapsed:.1f}s")


def test_criterion_03_strong_duality(resource_problem, exp_marginal_50):
    prob = resource_problem
    report = fw_solve(prob, exp_marginal_50,
                      SolverConfig(iterations=200_000, gap_tol=1e-6, store_measure=False))
    cert = report.certificate
    dm = dual_value(prob, cert.lam, exp_marginal_50)
    residual = cert.primal_value + dm
    ok = cert.gap <= 1e-6 and abs(residual) <= 2e-6
    check("criterion 3 (strong duality at gap<=1e-6)", ok,
          f"gap {cert.gap:.2e}, primal+dual {residual:.2e}, "
          f"iterations {report.iterations_run}")


def test_criterion_04_bridging_bound(resource_problem):
    prob = resource_problem
    factor = stability_constant(prob)
    worst = -np.inf
    ok = True
    for i in range(10):
        m0 = clipped_sample(prob, 50, seed=300 + i)
        m1 = clipped_sample(prob, 50, seed=400 + i)
        rep0 = sfw_solve(prob, m0, SolverConfig(iterations=100, n_sims=5, seed=i))
        eps0 = rep0.certificate.gap
        result = bridge(rep0.final_measure, m1, prob)
        ref = fw_solve(prob, m1, SolverConfig(iterations=5000, gap_tol=1e-8,
                                              store_measure=False))
        val_lower = ref.certificate.primal_value - ref.certificate.gap
        eta = eps0 + 2.0 * factor * result.transport_cost
        assert result.eps0 == eps0 and result.eta == pytest.approx(eta, rel=1e-12)
        excess = (result.objective_after - val_lower) - eta
        worst = max(worst, excess)
        ok = ok and excess <= 1e-6
    check("criterion 4 (bridging eta-minimizer, 10 pairs)", ok, f"worst excess {worst:.2e}")


def test_criterion_05_ot_exactness():
    metric = MetricSpec("euclidean")
    rng = np.random.default_rng(0)
    worst = 0.0
    residual = 0.0
    ok = True
    for n in range(2, 8):
        for _ in range(3):
            xs0 = rng.normal(size=(n, 2))
            xs1 = rng.normal(size=(n, 2))
            m0 = EmpiricalMeasure("X", xs=xs0, weights=np.full(n, 1.0 / n))
            m1 = EmpiricalMeasure("X", xs=xs1, weights=np.full(n, 1.0 / n))
            plan = ot_solve(m0, m1, metric)
            D = metric.pairwise(xs0, xs1)
            best = min(
                sum(D[i, p] / n for i, p in enumerate(perm))
                for perm in itertools.permutations(range(n))
            )
            worst = max(worst, abs(plan.cost - best))
            residual = max(residual, *plan.marginal_residuals())
            ok = ok and abs(plan.cost - best) <= 1e-12 and residual <= 1e-9
    check("criterion 5 (exact OT vs permutations, N<=7)", ok,
          f"worst cost error {worst:.2e}, marginal residual {residual:.2e}")


def test_criterion_06_wardrop():
    pigou = TrafficProblem(*pigou_network())
    m = EmpiricalMeasure.from_atoms("X", [([0, 1], 1.0)])
    rep = fw_solve(pigou, m, SolverConfig(iterations=3000))
    from mfo import aggregate

    beta = aggregate(pigou, rep.final_measure)
    lam = pigou.f_grad(beta)
    flow_ok = abs(beta[0] - 1.0) <= 1e-3
    latency_ok = abs(lam[0] - lam[1]) <= 1e-3
    grid = TrafficProblem(*grid_network())
    m_grid = EmpiricalMeasure.from_atoms(
        "X", [([0, 7], 0.4), ([1, 7], 0.3), ([0, 6], 0.3)]
    )
    rep_grid = fw_solve(grid, m_grid, SolverConfig(iterations=30_000, gap_tol=1e-8))
    residual = grid.wardrop_residual(rep_grid.final_measure, used_mass=1e-6)
    ok = flow_ok and latency_ok and residual <= 1e-3
    check("criterion 6 (Wardrop: Pigou + 10-edge grid)", ok,
          f"pigou flow {beta[0]:.6f}, grid residual {residual:.2e}")


def test_criterion_07_resource_qualitative(resource_problem):
    prob = resource_problem
    m = uniform_marginal([0.9, 1.2, 3.1])
    rep = fw_solve(prob, m, SolverConfig(iterations=20_000, gap_tol=1e-11))
    lam = rep.certificate.lam
    profiles = prob.best_response_batch(lam, m.xs)
    caps_ok = bool(np.all(profiles <= 0.5 + 1e-9))
    depletion = [prob.depletion_step(x, q, tol=1e-5) for x, q in zip(m.xs, profiles)]
    ordered_ok = (None not in depletion) and depletion[0] < depletion[1] < depletion[2]
    q_big = profiles[2]
    peak = int(np.argmax(q_big))
    rising_ok = bool(np.all(np.diff(q_big[: peak + 1]) >= -1e-9))
    falling_ok = bool(np.all(np.diff(q_big[peak:]) <= 1e-9)) and q_big[-1] <= 1e-6
    ok = caps_ok and ordered_ok and rising_ok and falling_ok
    check("criterion 7 (resource depletion ordering)", ok,
          f"depletion steps {depletion}, peak at t={peak}")


def test_criterion_08_congestion_control():
    free = CongestionProblem(horizon=1.0, steps=20, vmax=3.0, alpha=0.0)
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.0, 0.2, size=(50, 1))
    m = EmpiricalMeasure("X", xs=xs, weights=np.full(50, 1.0 / 50))
    lam0 = free.f_grad(np.zeros(len(free.hilbert_weights)))
    max_speed_ok = all(
        np.array_equal(best_response(free, lam0, x), free.max_speed_trajectory(x)) for x in xs
    )
    cong = CongestionProblem(horizon=1.0, steps=20, vmax=3.0, alpha=1.0, cells=5, smoothing=20)
    rep = sfw_solve(cong, m, SolverConfig(iterations=60, n_sims=3, seed=2))
    starters = np.argsort(xs[:, 0])[:5]
    delayed_ok = True
    for i in starters:
        t_free = free.arrival_step(free.max_speed_trajectory(xs[i]))
        t_cong = cong.arrival_step(rep.decisions[i])
        delayed_ok = delayed_ok and (t_cong is None or t_cong > t_free)
    ok = max_speed_ok and delayed_ok
    check("criterion 8 (congestion: max speed at alpha=0, delays at alpha=1)", ok,
          f"max_speed={max_speed_ok}, low-decile delayed={delayed_ok}")


def test_criterion_09_bump_partition():
    k, cells = 20, 5
    rng = np.random.default_rng(9)
    x = np.concatenate([
        np.linspace(0.0, 1.0 - 1.0 / k, 5000),
        rng.uniform(0.0, 1.0 - 1.0 / k, 5000),
    ])
    bumps = bump_family(x, cells=cells, k=k)
    err = float(np.max(np.abs(bumps[:-1].sum(axis=0) - bumps[-1])))
    ok = err <= 1e-12
    check("criterion 9 (bump partition identity at 1e4 points)", ok, f"max error {err:.2e}")


def test_criterion_10_directional_derivative():
    prob = ResourceProblem(horizon=10.0, steps=30)
    m0 = clipped_sample(prob, 10, seed=510)
    m1 = clipped_sample(prob, 10, seed=511)
    cfg = SolverConfig(iterations=50_000, gap_tol=1e-11, store_measure=False)
    rep0 = fw_solve(prob, m0, cfg)
    deriv = value_directional_derivative(prob, m0, m1, rep0.certificate.lam)
    t = 1e-2
    from mfo import mix

    mt = mix(m0, m1, t)
    rep_t = fw_solve(prob, mt, cfg)
    fd = (rep_t.certificate.primal_value - rep0.certificate.primal_value) / t
    ld = prob.grad_lipschitz * prob.sup_g_diff_sq
    tol = ld * t / 2.0 + 4.0 * (rep0.certificate.gap + rep_t.certificate.gap) / t
    ok = abs(fd - deriv) <= tol
    check("criterion 10 (directional derivative vs finite difference)", ok,
          f"|fd - deriv| = {abs(fd - deriv):.2e} <= {tol:.2e}")


def test_criterion_11_quantization():
    dist = SourceDistribution("uniform", low=0.0, high=1.0)
    ns = [1, 2, 4, 8, 16]
    ds = []
    exact_ok = True
    for n in ns:
        m = quantize_grid(dist, n)
        d = d1_uniform01_vs_discrete(m.xs[:, 0], m.weights)
        ds.append(d)
        exact_ok = exact_ok and abs(d - 1.0 / (4 * n)) <= 1e-12
    slope = float(np.polyfit(np.log(ns), np.log(ds), 1)[0])
    ok = exact_ok and -1.05 <= slope <= -0.95
    check("criterion 11 (grid quantizer d1 = 1/(4N), slope -1)", ok,
          f"exact={exact_ok}, slope {slope:.4f}")


def test_criterion_12_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli_main(["solve", "--config", str(cfg), "--out", str(out1), "--seed", "11"])
    cli_main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "11"])
    same = True
    for name in ("final.json", "marginal.json", "extraction.csv", "aggregate.csv"):
        same = same and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    hist_same = history_without_time(out1 / "history.csv") == history_without_time(out2 / "history.csv")
    qa, qb = tmp_path / "qa.json", tmp_path / "qb.json"
    cli_main(["quantize", "--dist", "exponential:1", "--n", "32", "--seed", "3", "--out", str(qa)])
    cli_main(["quantize", "--dist", "exponential:1", "--n", "32", "--seed", "3", "--out", str(qb)])
    quant_same = qa.read_bytes() == qb.read_bytes()
    ok = same and hist_same and quant_same
    check("criterion 12 (byte-identical reruns)", ok,
          f"artifacts={same}, history(no-time)={hist_same}, quantize={quant_same}")

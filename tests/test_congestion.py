import itertools
import math
import tracemalloc

import numpy as np
import pytest

import mfo.examples.congestion
from mfo import EmpiricalMeasure, SolverConfig, sfw_solve
from mfo._kernels import congestion_dp_batch
from mfo.examples import CongestionProblem
from mfo.examples.congestion import bump_family, smoothstep
from mfo.problem import _inner, _norm

from conftest import best_response, g_eval, initial_decision, transport_select
from test_kernels import congestion_dp_loops

class TestBumps:
    def test_step_limits(self):
        # the step rises over (-1/k, 0) in front of each cell boundary: the
        # first cell's bump rises there, the target bump falls there at 1
        k = 20
        offsets = np.array([-1.0, 0.0, 1.0 / (2 * k), 1.0 / k, 1.0])
        H = bump_family(offsets - 1.0 / k, cells=5, k=k)[:-1]
        assert H[0, 0] == 0.0 and H[0, 1] == 0.0
        assert H[0, 2] == pytest.approx(0.5)
        assert H[0, 3] == 1.0
        h0 = bump_family(1.0 - 1.0 / k + offsets, cells=5, k=k)[-1]
        assert h0[0] == 1.0 and h0[1] == 1.0
        assert h0[2] == pytest.approx(0.5)
        assert h0[3] == 0.0 and h0[4] == 0.0

    def test_cell_plateau_and_support(self):
        for cells, k in [(5, 20), (5, 5), (3, 7)]:
            for j in range(cells):
                lo, hi = j / cells, (j + 1) / cells
                H = bump_family(np.array([lo, hi - 1.0 / k, lo - 1.0 / k, hi]), cells=cells, k=k)[:-1]
                # plateau ends at 1, support ends at 0; no other cell is on the plateau
                np.testing.assert_array_equal(H[j], [1.0, 1.0, 0.0, 0.0])
                assert np.all(np.delete(H, j, axis=0)[:, :2] == 0.0)

    def test_values_in_unit_interval(self):
        x = np.linspace(-0.5, 2.0, 5001)
        for arr in bump_family(x, cells=5, k=20):
            assert np.min(arr) >= 0.0 and np.max(arr) <= 1.0

    def test_partition_identity(self):
        # cell bumps sum to the target bump over [0, 1 - 1/k]
        rng = np.random.default_rng(0)
        k = 20
        x = np.concatenate([np.linspace(0.0, 1.0 - 1.0 / k, 5000), rng.uniform(0, 1 - 1 / k, 5000)])
        bumps = bump_family(x, cells=5, k=k)
        assert np.max(np.abs(bumps[:-1].sum(axis=0) - bumps[-1])) <= 1e-12
        np.testing.assert_allclose(bumps[-1], 1.0, atol=1e-15)

    @pytest.mark.parametrize("cells, k", [(5, 20), (5, 5), (4, 7), (3, 50)])
    def test_partition_is_exact_on_the_half_line(self, cells, k):
        # each cell bump is a difference of two shifted steps, at most one of
        # them fractional, so the sum telescopes without rounding
        rng = np.random.default_rng(1)
        x = np.concatenate([np.linspace(0.0, 1.5, 20001), rng.uniform(0.0, 1.5, 20000),
                            np.arange(cells + 1) / cells])
        bumps = bump_family(x, cells=cells, k=k)
        np.testing.assert_array_equal(bumps[:-1].sum(axis=0), bumps[-1])

    @pytest.mark.parametrize("cells, k", [(5, 20), (3, 7)])
    def test_stacked_layout(self, cells, k):
        # one (cells + 1,) + x.shape array: row j is R_j - R_{j+1} for the
        # step R_j at boundary j/cells, the last row 1 - R_cells, and on
        # [0, inf) the cell rows sum to the last row bit for bit
        x = np.random.default_rng(2).uniform(0.0, 1.5, (40, 25))
        bumps = bump_family(x, cells=cells, k=k)
        assert bumps.shape == (cells + 1, 40, 25) and bumps.flags.c_contiguous
        R = [smoothstep(k * (x - j / cells) + 1.0) for j in range(cells + 1)]
        for j in range(cells):
            assert bumps[j].tobytes() == (R[j] - R[j + 1]).tobytes()
        assert bumps[-1].tobytes() == (1.0 - R[cells]).tobytes()
        assert bumps[:-1].sum(axis=0).tobytes() == bumps[-1].tobytes()

    def test_first_cell_owns_origin(self):
        H = bump_family(np.array([0.0]), cells=5, k=20)[:-1]
        assert H[0, 0] == 1.0
        assert np.max(H[1:, 0]) == 0.0

    def test_past_target_is_free(self, monkeypatch):
        # every stacked bump row is exactly +0.0 on [1, inf): at 1.0 itself,
        # just above it, at every grid point at or past it and at each grid's
        # last point; so the game's stage costs there are +-0.0 for any
        # finite duals, which is what lets the DP skip those states
        rng = np.random.default_rng(24)
        for cells, k in [(5, 20), (5, 5), (4, 7), (3, 50)]:
            x = np.concatenate([[1.0, np.nextafter(1.0, 2.0)], rng.uniform(1.0, 7.0, 2000)])
            bumps = bump_family(x, cells=cells, k=k)
            assert bumps.tobytes() == np.zeros(bumps.shape).tobytes()
        prob = full_size_problem()
        starts = np.concatenate([rng.uniform(0.0, 1.2, 40), [0.0, 1.0, 1.0 - prob.grid_step, 1.3]])
        sweep = prob.bind(starts[:, None])
        positions, lengths, arrivals, bumps = sweep.positions, sweep.lengths, sweep.arrivals, sweep.stacked
        agents = np.arange(len(starts))
        past = positions >= 1.0
        assert past[starts == 1.0, 0].all() and past[agents, lengths - 1].all()
        # each agent's states before the target are the first arrivals[i]
        assert np.array_equal(~past, np.arange(positions.shape[1]) < arrivals[:, None])
        assert arrivals.max() < positions.shape[1]
        at_states = bumps.reshape(prob.cells + 1, positions.shape[1], len(starts)).transpose(0, 2, 1)
        assert at_states[:, past].tobytes() == np.zeros(at_states[:, past].shape).tobytes()
        # the costs the game's fill writes at states past each agent's target,
        # for random finite duals of either sign
        seen = record_dp(monkeypatch, prob)
        for scale in (0.1, 3.0, 100.0):
            lam = rng.normal(0.0, scale, len(prob.hilbert_weights))
            prob.best_response_batch(lam, starts[:, None])
            assert np.array_equal(seen["arrivals"], arrivals)
            assert np.all(seen["costs"][past] == 0.0)

    def test_smooth_with_bounded_slope(self):
        k = 20
        x = np.linspace(-0.1, 1.3, 20001)
        h = 1e-7
        for fn in (lambda v: bump_family(v, 5, k)[-1], lambda v: bump_family(v, 5, k)[2]):
            slope = (fn(x + h) - fn(x - h)) / (2 * h)
            assert np.max(np.abs(slope)) <= 2 * k * (1 + 1e-3)


def tiny_instance():
    return CongestionProblem(horizon=0.3, steps=3, vmax=1.0, alpha=0.7, cells=5,
                             smoothing=20, grid_substeps=3)


class TestBestResponseDP:
    def test_matches_exhaustive_enumeration(self):
        prob = tiny_instance()
        rng = np.random.default_rng(1)
        for trial in range(20):
            ybar = rng.uniform(0.0, 1.0, size=(prob.cells, prob.steps))
            lam = np.concatenate([[1.0], (2 * prob.alpha / prob.dx) * ybar.ravel()])
            x0 = rng.uniform(0.0, 1.1)
            traj = best_response(prob, lam, [x0])
            # exhaustive search over all grid step sequences
            best = np.inf
            for moves in itertools.product(range(prob.grid_substeps + 1), repeat=prob.steps):
                pos = x0 + prob.grid_step * np.concatenate([[0], np.cumsum(moves)])
                cost = float(_inner(prob, lam, g_eval(prob, [x0], pos)))
                best = min(best, cost)
            got = float(_inner(prob, lam, g_eval(prob, [x0], traj)))
            assert got == pytest.approx(best, abs=1e-12)
            assert prob.feasible([x0], traj)

    def test_never_beaten_by_hand_built_trajectories(self, congestion_problem):
        prob = congestion_problem
        rng = np.random.default_rng(2)
        ybar = rng.uniform(0.0, 0.7, size=(prob.cells, prob.steps))
        lam = np.concatenate([[1.0], (2 * prob.alpha / prob.dx) * ybar.ravel()])
        for x0 in (0.0, 0.07, 0.483):
            traj = best_response(prob, lam, [x0])
            value = float(_inner(prob, lam, g_eval(prob, [x0], traj)))
            stay = initial_decision(prob, [x0])
            sprint = prob.max_speed_trajectory([x0])
            for other in (stay, sprint):
                assert value <= float(_inner(prob, lam, g_eval(prob, [x0], other))) + 1e-12

    def test_zero_penalty_gives_max_speed(self):
        prob = CongestionProblem(alpha=0.0)
        lam = prob.f_grad(np.zeros(len(prob.hilbert_weights)))
        rng = np.random.default_rng(3)
        for x0 in rng.uniform(0.0, 0.2, size=10):
            traj = best_response(prob, lam, [x0])
            assert np.array_equal(traj, prob.max_speed_trajectory([x0]))

    def test_at_target_stays_put(self):
        prob = CongestionProblem(alpha=0.0)
        lam = prob.f_grad(np.zeros(len(prob.hilbert_weights)))
        traj = best_response(prob, lam, [1.02])
        np.testing.assert_allclose(traj, 1.02, atol=0.0)


def random_dual(prob, rng, scale=0.7):
    ybar = rng.uniform(0.0, scale, size=(prob.cells, prob.steps))
    return np.concatenate([[1.0], (2 * prob.alpha / prob.dx) * ybar.ravel()])


def loop_reference_response(prob, lam, x0):
    """One agent's grid, its full cost matrix and the plain-Python loop DP."""
    n_pos = max(1, math.ceil((1.0 + prob.max_move - x0) / prob.grid_step) + 1)
    positions = x0 + prob.grid_step * np.arange(n_pos)
    bumps = prob.bumps(positions)
    lam2 = lam[1:].reshape(prob.cells, prob.steps)
    cost = prob.dt * (lam[0] * bumps[-1][:, None] + bumps[:-1].T @ lam2)
    _, path = congestion_dp_loops(cost, prob.grid_substeps, positions < 1.0, 0)
    return positions[path]


class TestBatchedBestResponse:
    def test_bound_sweep_never_changes_the_answer(self, congestion_problem):
        # a sweep keeps the grids of its starts across dual points; running it
        # at other duals, other sweeps in between and permuted starts must not show
        prob = congestion_problem
        rng = np.random.default_rng(7)
        lam, other = random_dual(prob, rng), random_dual(prob, rng, scale=2.0)
        a = rng.uniform(0.0, 0.3, (12, 1))
        b = rng.uniform(0.5, 1.2, (9, 1))
        perm = rng.permutation(len(a))
        sweeps = {"a": prob.bind(a), "b": prob.bind(b), "a_perm": prob.bind(a[perm])}
        for name, xs, dual in (("a", a, lam), ("a", a, other), ("b", b, lam), ("a", a, lam),
                               ("a_perm", a[perm], lam), ("a", a, other)):
            fresh = CongestionProblem.from_config(prob.describe()).bind(xs).best_response_rows(dual)
            for got, want in zip(sweeps[name].best_response_rows(dual), fresh):
                assert got.tobytes() == want.tobytes()

    def test_single_response_is_a_batch_row(self, congestion_problem):
        prob = congestion_problem
        rng = np.random.default_rng(8)
        lam = random_dual(prob, rng)
        xs = np.concatenate([rng.uniform(0.0, 1.2, 8), [0.0, 1.0, 1.3]]).reshape(-1, 1)
        batch = prob.best_response_batch(lam, xs)
        for x, row in zip(xs, batch):
            np.testing.assert_array_equal(best_response(prob, lam, x), row)

    def test_gathered_rows_are_the_contributions(self, congestion_problem):
        # the sweep gathers the bumps of each best response from the bumps of
        # its grids; the rows must be g_eval_batch's on the same paths, byte
        # for byte: random duals, the zero-penalty dual, one agent, and starts
        # some of which are at or past the target
        prob = congestion_problem
        rng = np.random.default_rng(23)
        duals = [random_dual(prob, rng, scale) for scale in (0.2, 0.7, 2.0, 5.0)]
        duals.append(prob.f_grad(np.zeros(len(prob.hilbert_weights))))
        batches = [rng.uniform(0.0, 1.2, (n, 1)) for n in (1, 7, 40)]
        batches += [np.array([[0.0], [1.0], [1.2], [0.5]]), np.array([[1.1]])]
        for xs in batches:
            sweep = prob.bind(xs)
            for lam in duals:
                ys, G = sweep.best_response_rows(lam)
                assert ys.tobytes() == prob.best_response_batch(lam, xs).tobytes()
                want = prob.g_eval_batch(xs, ys)
                assert G.shape == want.shape and G.flags.c_contiguous
                assert G.tobytes() == want.tobytes()

    @pytest.mark.parametrize("substeps", [7, 12])
    def test_never_costlier_than_the_loop_reference(self, substeps):
        prob = CongestionProblem(horizon=1.0, steps=12, vmax=3.0, alpha=1.0, cells=5,
                                 smoothing=20, grid_substeps=substeps)
        rng = np.random.default_rng(substeps)
        for _ in range(4):
            lam = random_dual(prob, rng, scale=rng.choice([0.2, 0.7, 2.0]))
            xs = rng.uniform(0.0, 1.1, (10, 1))
            for x, traj in zip(xs, prob.best_response_batch(lam, xs)):
                assert prob.feasible(x, traj)
                got = _inner(prob, lam, g_eval(prob, x, traj))
                ref = _inner(prob, lam, g_eval(prob, x, loop_reference_response(prob, lam, float(x[0]))))
                assert got <= ref + 1e-12 * abs(ref)

    def test_full_size_batch_matches_the_loop_reference(self, monkeypatch):
        # the benchmark's SFW instance: grids of up to 385 states and 51-wide
        # windows, so the reachable band t*50 + 1 is narrower than the grid for
        # t < 8; the first 334 states are live, the rest past every target.
        # The loop DP gets the stage costs the kernel saw, zeros past live
        prob = full_size_problem()
        seen = record_dp(monkeypatch, prob)
        xs = np.array([[0.0], [0.083], [0.2]])
        rng = np.random.default_rng(20)
        # a congested dual, and the zero-penalty one whose flat costs tie everywhere
        for lam in (random_dual(prob, rng), prob.f_grad(np.zeros(len(prob.hilbert_weights)))):
            trajs = prob.best_response_batch(lam, xs)
            assert seen["lengths"].max() == 385 and seen["live"] == 334
            for i, x0 in enumerate(xs[:, 0]):
                n = seen["lengths"][i]
                value, path = congestion_dp_loops(seen["costs"][i, :n], prob.grid_substeps,
                                                  np.arange(n) < seen["arrivals"][i], 0)
                assert seen["values"][i] == value
                np.testing.assert_array_equal(seen["paths"][i], path)
                np.testing.assert_array_equal(trajs[i], (x0 + prob.grid_step * np.arange(n))[path])

    def test_one_wide_gemm_rounds_as_the_per_step_products(self, monkeypatch):
        # the finished stage costs of all steps come from one (steps x cells+1)
        # @ (cells+1 x live*N) product of the dt-scaled duals with the stacked
        # bumps, written into the DP table; each must equal, bit for bit, the
        # per-step two-column product on agent-major bumps over the full grid
        # (zeros past live), or artifacts would drift with the BLAS
        prob = full_size_problem()
        seen = record_dp(monkeypatch, prob)
        rng = np.random.default_rng(21)
        xs = rng.uniform(0.0, 0.2, (50, 1))
        positions = prob.bind(xs).positions
        HH = prob.bumps(positions.ravel())
        duals = [random_dual(prob, rng, scale) for scale in (0.2, 0.7, 2.0)]
        for lam in duals + [prob.f_grad(np.zeros(len(prob.hilbert_weights)))]:
            prob.best_response_batch(lam, xs)
            lam2 = lam[1:].reshape(prob.cells, prob.steps)
            coef = prob.dt * np.column_stack([lam2.T, np.full(prob.steps, lam[0])])
            for t in range(prob.steps):
                want = (HH.T @ coef[[t, t]].T)[:, 0].reshape(positions.shape)
                assert seen["costs"][:, :, t].tobytes() == want.tobytes(), t

    def test_memory_is_the_value_table(self):
        # the stage costs live in the DP table: a call allocates little beyond
        # its (steps + 1) x (n + qmax) x N doubles
        prob = full_size_problem()
        rng = np.random.default_rng(22)
        xs = rng.uniform(0.0, 0.2, (50, 1))
        lam = random_dual(prob, rng)
        sweep = prob.bind(xs)        # the grids and their bumps
        sweep.best_response_rows(lam)
        n = sweep.positions.shape[1]
        table = (prob.steps + 1) * (n + prob.grid_substeps) * len(xs) * 8
        tracemalloc.start()
        try:
            sweep.best_response_rows(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table


def full_size_problem():
    return CongestionProblem(horizon=1.0, steps=20, vmax=3.0, alpha=1.0, cells=5,
                             smoothing=20, grid_substeps=50)


def record_dp(monkeypatch, prob):
    """Route the game's kernel calls through a recorder of what the kernel saw.

    The returned dict holds the last call's ``(N, n, steps)`` stage costs,
    its arrival counts, lengths and ``live`` (their largest arrival count),
    and its results.  The game writes the costs of the first ``live``
    states only; the recorder asserts, from the bumps of the last bound
    sweep's grids, that every bump past them is zero, so their costs are
    too, and records them as +0.0 over the full grid.
    """
    seen = {}
    bind = type(prob).bind

    def recording_bind(self, xs):
        seen["sweep"] = bind(self, xs)
        return seen["sweep"]

    def recording_dp(fill_costs, steps, qmax, arrivals, lengths):
        positions, bumps = seen["sweep"].positions, seen["sweep"].stacked
        n_agents, n = positions.shape
        live = int(arrivals.max())
        assert not bumps.reshape(-1, n, n_agents)[:, live:].any()
        costs = np.zeros((n_agents, n, steps))

        def recording_fill(out):
            fill_costs(out)
            costs[:, :live] = out.transpose(2, 1, 0)

        seen.update(arrivals=arrivals, lengths=lengths, live=live, costs=costs)
        seen["values"], seen["paths"] = congestion_dp_batch(recording_fill, steps, qmax, arrivals, lengths)
        return seen["values"], seen["paths"]

    monkeypatch.setattr(type(prob), "bind", recording_bind)
    monkeypatch.setattr(mfo.examples.congestion, "congestion_dp_batch", recording_dp)
    return seen


class TestSelectionAndConstants:
    def test_translation_is_feasible_and_bounded(self, congestion_problem):
        prob = congestion_problem
        rng = np.random.default_rng(4)
        lam = prob.f_grad(np.zeros(len(prob.hilbert_weights)))
        for _ in range(50):
            x0 = rng.uniform(0.0, 0.8)
            x1 = rng.uniform(0.0, 0.8)
            traj = best_response(prob, lam, [x0])
            traj2 = transport_select(prob, [x0], traj, [x1])
            assert prob.feasible([x1], traj2)
            shift = _norm(prob, g_eval(prob, [x1], traj2) - g_eval(prob, [x0], traj))
            assert shift <= prob.set_lipschitz * abs(x1 - x0) + 1e-12

    def test_identity_translation(self, congestion_problem):
        traj = initial_decision(congestion_problem, [0.3])
        np.testing.assert_array_equal(
            transport_select(congestion_problem, [0.3], traj, [0.3]), traj
        )

    def test_constants_dominate_samples(self, congestion_problem):
        prob = congestion_problem
        rng = np.random.default_rng(5)
        n = 2000
        starts = rng.uniform(0.0, 1.0, n)
        moves = rng.uniform(0.0, prob.max_move, size=(n, prob.steps))
        trajs = starts[:, None] + np.concatenate(
            [np.zeros((n, 1)), np.cumsum(moves, axis=1)], axis=1
        )
        G = prob.g_eval_batch(starts.reshape(-1, 1), trajs)
        w = prob.hilbert_weights
        norms = np.sqrt((G * G) @ w)
        assert norms.max() <= prob.sup_g_norm + 1e-12
        diffs = G[: n // 2] - G[n // 2 :]
        assert ((diffs * diffs) @ w).max() <= prob.sup_g_diff_sq + 1e-12
        for _ in range(40):
            idx = rng.integers(0, n, size=16)
            mw = rng.random(16)
            mw /= mw.sum()
            beta = mw @ G[idx]
            assert _norm(prob, prob.f_grad(beta)) <= prob.sup_grad_norm + 1e-12

    def test_smoothing_must_cover_cells(self):
        with pytest.raises(ValueError, match="smoothing"):
            CongestionProblem(cells=10, smoothing=5)


class TestCrowdBehavior:
    def test_congestion_delays_low_starters(self, congestion_problem):
        prob = congestion_problem
        rng = np.random.default_rng(6)
        xs = rng.uniform(0.0, 0.2, size=(30, 1))
        m = EmpiricalMeasure("X", xs=xs, weights=np.full(30, 1 / 30))
        report = sfw_solve(prob, m, SolverConfig(iterations=40, n_sims=3, seed=11))
        free = CongestionProblem(alpha=0.0, steps=prob.steps, vmax=prob.vmax)
        lam0 = free.f_grad(np.zeros(len(free.hilbert_weights)))
        delayed = 0
        for x, traj in zip(xs, report.decisions):
            t_free = free.arrival_step(best_response(free, lam0, x))
            t_cong = prob.arrival_step(traj)
            assert t_cong is None or t_cong >= t_free
            if t_cong is not None and t_cong > t_free:
                delayed += 1
        assert delayed > 0

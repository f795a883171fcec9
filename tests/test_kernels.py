import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfo import _kernels

# -- plain-Python references -------------------------------------------------

_BISECTION_STEPS = 90


def resource_br_bisection(top, ert, lam1, dt, budgets):
    """The bisection the exact kernel replaced: 90 halvings of the multiplier per agent."""
    n = budgets.shape[0]
    m = top.shape[0]
    q = np.empty((n, m))
    theta = np.zeros(n)
    denom = 2.0 * lam1
    q0 = np.empty(m)
    spend0 = 0.0
    theta_max = 0.0
    for t in range(m):
        v = top[t] / denom
        if v < 0.0:
            v = 0.0
        elif v > 0.5:
            v = 0.5
        q0[t] = v
        spend0 += v
        c = top[t] / ert[t]
        if c > theta_max:
            theta_max = c
    spend0 *= dt
    for i in range(n):
        x = budgets[i]
        if spend0 <= x:
            for t in range(m):
                q[i, t] = q0[t]
            continue
        lo = 0.0
        hi = theta_max
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            spend = 0.0
            for t in range(m):
                v = (top[t] - mid * ert[t]) / denom
                if v < 0.0:
                    v = 0.0
                elif v > 0.5:
                    v = 0.5
                spend += v
            spend *= dt
            if spend > x:
                lo = mid
            else:
                hi = mid
        theta[i] = hi
        for t in range(m):
            v = (top[t] - hi * ert[t]) / denom
            if v < 0.0:
                v = 0.0
            elif v > 0.5:
                v = 0.5
            q[i, t] = v
    return q, theta


def resource_br_reference(top, ert, lam1, dt, budgets):
    """The water-filling kernel before its guard started above the interpolated multiplier.

    theta is the interpolated multiplier, nudged by 1, 2, 4, ... spacings of
    the segment's upper kink while the spend overshoots, never past it.
    """
    denom = 2.0 * lam1

    def q_of(theta):
        return np.clip((top - theta[:, None] * ert) / denom, 0.0, 0.5)

    kinks = np.unique(np.concatenate([[0.0], (top - lam1) / ert, top / ert]).clip(min=0.0))
    spend = dt * q_of(kinks).sum(axis=1)
    i = np.searchsorted(-spend, -budgets)
    hi = np.append(kinks, 2.0 * kinks[-1])[i]
    theta = kinks[np.maximum(i - 1, 0)]
    seg = np.flatnonzero((i > 0) & (i < len(kinks)))
    j = i[seg]
    theta[seg] += (spend[j - 1] - budgets[seg]) / (spend[j - 1] - spend[j]) * (kinks[j] - kinks[j - 1])
    q = q_of(theta)
    over = np.flatnonzero(dt * q.sum(axis=1) > budgets)
    step = np.spacing(hi[over])
    while over.size:
        theta[over] = np.minimum(theta[over] + step, hi[over])
        q[over] = q_of(theta[over])
        still = (dt * q[over].sum(axis=1) > budgets[over]) & (theta[over] < hi[over])
        over, step = over[still], 2.0 * step[still]
    return q, theta, hi


def congestion_dp_loops(cost, qmax, below_target, s0):
    """Backward DP scanning every successor, with the kernel's tie-break."""
    n, m = cost.shape
    value = np.zeros(n)
    nxt = np.empty(n)
    choice = np.empty((m, n), dtype=np.int64)
    for t in range(m - 1, -1, -1):
        for s in range(n):
            top = s + qmax
            if top > n - 1:
                top = n - 1
            if below_target[s]:
                best = value[top]
                arg = top
                for sp in range(top - 1, s - 1, -1):
                    if value[sp] < best:
                        best = value[sp]
                        arg = sp
            else:
                best = value[s]
                arg = s
                for sp in range(s + 1, top + 1):
                    if value[sp] < best:
                        best = value[sp]
                        arg = sp
            nxt[s] = cost[s, t] + best
            choice[t, s] = arg
        for s in range(n):
            value[s] = nxt[s]
    path = np.empty(m + 1, dtype=np.int64)
    path[0] = s0
    for t in range(m):
        path[t + 1] = choice[t, path[t]]
    return value[s0], path


def random_br_inputs(rng, n_agents=20, steps=40):
    top = rng.uniform(-0.5, 1.0, steps)
    rate = 1.0
    dt = 10.0 / steps
    ert = np.exp(rate * dt * np.arange(steps))
    budgets = rng.uniform(0.0, 4.0, n_agents)
    return top, ert, 1.0, dt, budgets


def spend_at(top, ert, lam1, dt, theta):
    q = np.clip((top[None, :] - np.atleast_1d(theta)[:, None] * ert[None, :]) / (2.0 * lam1), 0.0, 0.5)
    return dt * q.sum(axis=1)


def edge_instances():
    """Random instances plus the edges of the water-filling search.

    Yields ``(top, ert, lam1, dt, budgets, spend0)``: a zero budget, the
    unconstrained spend ``spend0``, the spend at every kink, one step (M =
    1), no profitable step (top <= 0) and a flat discount (tied kinks).
    """
    rng = np.random.default_rng(4)
    for case in range(1200):
        steps = 1 if case % 5 == 0 else int(rng.integers(2, 61))
        dt = rng.uniform(0.05, 1.0)
        rate = 0.0 if case % 3 == 0 else rng.uniform(0.0, 1.5)
        ert = np.exp(rate * dt * np.arange(steps))
        lam1 = rng.uniform(0.5, 2.0)
        top = rng.uniform(-0.5, 1.0, steps) * rng.choice([1.0, 4.0])
        if case % 7 == 0:
            top = -np.abs(top)
        spend0 = spend_at(top, ert, lam1, dt, 0.0)[0]
        kinks = np.concatenate([(top - lam1) / ert, top / ert]).clip(min=0.0)
        budgets = np.concatenate([
            rng.uniform(0.0, 1.2 * spend0, int(rng.integers(1, 30))),
            [0.0, spend0],
            spend_at(top, ert, lam1, dt, kinks),
        ])
        yield top, ert, lam1, dt, budgets, spend0


class TestResourceKernel:
    def test_numpy_output_is_feasible(self):
        rng = np.random.default_rng(0)
        top, ert, lam1, dt, budgets = random_br_inputs(rng)
        q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
        assert np.all(q >= 0.0) and np.all(q <= 0.5)
        assert np.all(theta >= 0.0)
        assert np.all(dt * q.sum(axis=1) <= budgets)

    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            top, ert, lam1, dt, budgets = random_br_inputs(rng)
            q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
            q_ref, theta_ref = resource_br_bisection(top, ert, lam1, dt, budgets)
            np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(theta, theta_ref, rtol=0, atol=1e-10)

    def test_budget_never_overshot(self):
        for case, (top, ert, lam1, dt, budgets, spend0) in enumerate(edge_instances()):
            q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
            spend = dt * q.sum(axis=1)
            assert np.all(spend <= budgets), case
            assert np.all(q >= 0.0) and np.all(q <= 0.5)
            assert np.all(theta >= 0.0)
            assert np.all(theta[budgets >= spend0] == 0.0), case
            # complementary slackness: a positive multiplier means the budget binds
            assert np.all(budgets[theta > 0] - spend[theta > 0] <= 1e-12), case

    def test_matches_reference_kernel(self):
        # from the interpolated multiplier, the reference stops at the first
        # of 0, 1, 3, 7, 15, 31, 63 spacings of the upper kink hi whose spend
        # fits, the kernel at the first of 16, 48, 112: where no agent needs
        # more than 63, theta moves by under 64 spacings of hi and q by roundoff
        rng = np.random.default_rng(5)
        instances = [random_br_inputs(rng) + (None,) for _ in range(20)]
        for case, (top, ert, lam1, dt, budgets, _) in enumerate(instances + list(edge_instances())):
            q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
            q_ref, theta_ref, hi = resource_br_reference(top, ert, lam1, dt, budgets)
            np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-13, err_msg=str(case))
            assert np.all(np.abs(theta - theta_ref) < 64 * np.spacing(hi)), case
            assert np.all(theta <= hi), case

    def test_no_negative_zero(self):
        # np.clip(-0.0, 0.0, 0.5) and np.maximum(0.0, -0.0) keep the -0.0 of a
        # zero top_t at theta = 0, and a -0.0 would reach final.json as text;
        # every zero the kernel returns is +0.0, bit for bit
        rng = np.random.default_rng(6)
        instances = [random_br_inputs(rng) + (None,) for _ in range(20)] + list(edge_instances())
        top = np.array([-0.0, 0.0, 0.3, -0.2, 0.9])
        ert = np.exp(0.4 * np.arange(5))
        instances.append((top, ert, 1.0, 0.5, np.array([0.0, 0.05, 0.2, 5.0]), None))
        for case, (top, ert, lam1, dt, budgets, _) in enumerate(instances):
            q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
            q_ref, _, _ = resource_br_reference(top, ert, lam1, dt, budgets)
            assert not np.signbit(q[q == 0.0]).any(), case
            assert not np.signbit(theta[theta == 0.0]).any(), case
            # where both kernels return a zero from a nonzero top_t, they agree bit for bit
            both = (q == 0.0) & (q_ref == 0.0) & (top != 0.0)
            assert q[both].tobytes() == q_ref[both].tobytes(), case


def dp_batch(costs, qmax, belows, pad=np.inf):
    """Run the batched kernel on per-agent ``(n_i, steps)`` costs, padded to one grid."""
    n = max(c.shape[0] for c in costs)
    steps = costs[0].shape[1]
    block = np.full((len(costs), n, steps), pad)
    below = np.zeros((len(costs), n), dtype=bool)
    for i, (c, b) in enumerate(zip(costs, belows)):
        block[i, : len(c)] = c
        below[i, : len(b)] = b
    lengths = np.array([len(c) for c in costs])
    return _kernels.congestion_dp_batch(lambda out: np.copyto(out, block.transpose(2, 1, 0)),
                                        steps, qmax, below, lengths)


def assert_matches_loop_reference(costs, qmax, belows, pad=np.inf):
    values, paths = dp_batch(costs, qmax, belows, pad)
    assert paths.shape == (len(costs), costs[0].shape[1] + 1)
    for i, (c, b) in enumerate(zip(costs, belows)):
        value_ref, path_ref = congestion_dp_loops(c, qmax, b, 0)
        assert values[i].tobytes() == np.float64(value_ref).tobytes()
        np.testing.assert_array_equal(paths[i], path_ref)


# adding +0.0 turns a drawn -0.0 into +0.0: the kernel's minimum and the
# scan may keep different zeros of a tie, which compare equal but differ in bits
_finite = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: v + 0.0)


@st.composite
def dp_instances(draw):
    """Ragged grids, costs on a few levels (ties), masks with holes, finite or +inf padding.

    About half the instances cost 0 or 1 per state, so nearly every window holds
    several minimizers and the tie-break decides each move.
    """
    steps = draw(st.integers(1, 6))
    qmax = draw(st.integers(0, 8))
    levels = draw(st.one_of(st.just([0.0, 1.0]), st.lists(_finite, min_size=1, max_size=4, unique=True)))
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    costs = [np.array(levels)[draw(arrays(np.intp, (n, steps), elements=st.integers(0, len(levels) - 1)))]
             for n in sizes]
    belows = [draw(arrays(bool, n)) for n in sizes]
    pad = draw(st.one_of(st.just(np.inf), _finite))
    return costs, qmax, belows, pad


@settings(max_examples=300, deadline=None)
@given(dp_instances())
def test_congestion_dp_batch_matches_loop_reference_bit_for_bit(instance):
    assert_matches_loop_reference(*instance)


class TestCongestionKernel:
    def test_numpy_path_is_optimal_on_tiny_case(self):
        rng = np.random.default_rng(2)
        n_pos, steps, qmax = 7, 4, 2
        cost = rng.random((n_pos, steps))
        below = np.ones(n_pos, dtype=bool)
        values, paths = dp_batch([cost], qmax, [below])
        value, path = values[0], paths[0]

        best = np.inf
        for moves in itertools.product(range(qmax + 1), repeat=steps):
            pos = np.concatenate([[0], np.cumsum(moves)])
            if pos[-1] >= n_pos:
                continue
            best = min(best, sum(cost[pos[t], t] for t in range(steps)))
        assert value == pytest.approx(best, abs=1e-12)
        assert path[0] == 0
        assert np.all(np.diff(path) >= 0) and np.all(np.diff(path) <= qmax)

    def test_matches_loop_reference_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            steps = int(rng.integers(2, 15))
            qmax = int(rng.integers(1, 8))
            n_agents = int(rng.integers(1, 5))
            sizes = rng.integers(5, 60, n_agents)
            costs = [rng.random((n, steps)) for n in sizes]
            belows = [rng.random(n) < 0.8 for n in sizes]
            assert_matches_loop_reference(costs, qmax, belows)

    def test_ragged_ties_match_loop_reference_exactly(self):
        # integer costs put ties in nearly every window, so the nearest and
        # farthest minimizers differ; grids of different lengths share one
        # padded block, windows reach past short grids (qmax >= n) and
        # single-step horizons end the DP at once
        rng = np.random.default_rng(7)
        for case in range(400):
            n_agents = int(rng.integers(1, 7))
            steps = 1 if case % 4 == 0 else int(rng.integers(2, 9))
            qmax = int(rng.integers(0, 12))
            sizes = rng.integers(1, 16, n_agents)
            costs = [rng.integers(0, 3, (n, steps)).astype(float) for n in sizes]
            cut = rng.integers(0, sizes + 1)
            belows = [np.arange(n) < c for n, c in zip(sizes, cut)]
            pad = np.inf if case % 2 else float(rng.integers(-3, 3))
            assert_matches_loop_reference(costs, qmax, belows, pad)

    def test_tie_break_prefers_progress_below_target(self):
        # flat costs: walk at full speed while below, stay once past
        cost = np.zeros((9, 3))
        below = np.array([True] * 4 + [False] * 5)
        _, paths = dp_batch([cost], 2, [below])
        assert paths[0].tolist() == [0, 2, 4, 4]

    @pytest.mark.parametrize("qmax", [255, 256])
    def test_wide_windows_match_loop_reference(self, qmax):
        # windows of 256 and 257 states, wider than the grid of 40 states and
        # than one byte can count
        rng = np.random.default_rng(8)
        costs = [rng.integers(0, 3, (300, 4)).astype(float), rng.random((40, 4))]
        assert_matches_loop_reference(costs, qmax, [np.ones(300, bool), np.ones(40, bool)])

    def test_band_never_reaching_the_grid_end_matches_loop_reference(self):
        # grids longer than steps*qmax + 1: every backward step works on a
        # band narrower than the grid and leaves stale columns past it
        rng = np.random.default_rng(9)
        for case in range(60):
            steps = int(rng.integers(2, 7))
            qmax = int(rng.integers(1, 5))
            n_agents = int(rng.integers(1, 5))
            sizes = rng.integers(steps * qmax + 2, steps * qmax + 30, n_agents)
            costs = [rng.integers(0, 3, (n, steps)).astype(float) if case % 2 else rng.random((n, steps))
                     for n in sizes]
            belows = [rng.random(n) < 0.7 for n in sizes]
            assert_matches_loop_reference(costs, qmax, belows)

    def test_every_agent_below_target_matches_loop_reference(self):
        # no state is at its target, so every move takes the farthest minimizer
        rng = np.random.default_rng(10)
        for _ in range(40):
            steps = int(rng.integers(1, 8))
            qmax = int(rng.integers(0, 6))
            sizes = rng.integers(1, 30, int(rng.integers(1, 5)))
            costs = [rng.integers(0, 2, (n, steps)).astype(float) for n in sizes]
            assert_matches_loop_reference(costs, qmax, [np.ones(n, bool) for n in sizes])

    def test_agent_at_target_from_column_zero_matches_loop_reference(self):
        # one agent starts at its target, so its first move takes the nearest
        # minimizer; the others have masks with holes, so the tie rule can
        # switch more than once along a path
        rng = np.random.default_rng(11)
        for _ in range(40):
            steps = int(rng.integers(1, 8))
            qmax = int(rng.integers(1, 6))
            sizes = rng.integers(2, 30, int(rng.integers(2, 5)))
            costs = [rng.integers(0, 2, (n, steps)).astype(float) for n in sizes]
            belows = [rng.random(n) < 0.8 for n in sizes]
            belows[rng.integers(len(sizes))][0] = False
            assert_matches_loop_reference(costs, qmax, belows)

    def test_holes_in_below_target_masks_match_loop_reference(self):
        # each mask is below target on a long prefix, then has one hole, then
        # more below-target states: the first at-target column is the hole
        rng = np.random.default_rng(12)
        for _ in range(60):
            steps = int(rng.integers(2, 8))
            qmax = int(rng.integers(1, 6))
            sizes = rng.integers(8, 40, int(rng.integers(1, 5)))
            costs = [rng.integers(0, 2, (n, steps)).astype(float) for n in sizes]
            belows = []
            for n in sizes:
                below = np.arange(n) < n - 2
                below[rng.integers(1, n - 2)] = False
                belows.append(below)
            assert_matches_loop_reference(costs, qmax, belows)

    def test_no_move_allowed_matches_loop_reference(self):
        # qmax = 0: every window is one state, every path stays at state 0
        rng = np.random.default_rng(13)
        costs = [rng.integers(0, 2, (n, 6)).astype(float) for n in (1, 5, 9)]
        belows = [rng.random(n) < 0.5 for n in (1, 5, 9)]
        assert_matches_loop_reference(costs, 0, belows)
        _, paths = dp_batch(costs, 0, belows)
        assert not paths.any()

    def test_wide_grids_use_two_byte_columns_and_match_loop_reference(self):
        # a grid of 250 states and windows of 11 make 260 columns, more than
        # one byte can number; the band is narrower than the grid for t < 25
        rng = np.random.default_rng(14)
        costs = [rng.integers(0, 3, (250, 30)).astype(float), rng.random((120, 30)),
                 rng.integers(0, 2, (249, 30)).astype(float)]
        belows = [rng.random(250) < 0.9, np.arange(120) < 100, np.arange(249) < 200]
        assert_matches_loop_reference(costs, 10, belows)

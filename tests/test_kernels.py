import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def resource_br_dividing(top, ert, lam1, dt, budgets):
    """The water-filling kernel as it was when it always divided by 2*lam1 and swept ascending kinks.

    The arithmetic of every q row, the kink sweep, the interpolation and
    the guard are the kernel's; only the order of the sweep and the
    division differ, so at a power-of-two 2*lam1 the two agree bit for bit.
    """
    denom = 2.0 * lam1

    def q_rows(theta):
        out = np.multiply(theta[:, None], ert)
        np.subtract(top, out, out=out)
        np.divide(out, denom, out=out)
        np.maximum(out, 0.0, out=out)
        np.minimum(out, 0.5, out=out)
        return out

    m = len(top)
    kinks = np.empty(2 * m + 2)
    kinks[0] = 0.0
    np.subtract(top, lam1, out=kinks[1:m + 1])
    np.divide(kinks[1:m + 1], ert, out=kinks[1:m + 1])
    np.divide(top, ert, out=kinks[m + 1:-1])
    np.maximum(kinks[:-1], 0.0, out=kinks[:-1])
    kinks[:-1].sort()
    kinks[-1] = 2.0 * kinks[-2]
    distinct = np.empty(2 * m + 2, dtype=bool)
    distinct[0] = distinct[-1] = True
    np.not_equal(kinks[1:-1], kinks[:-2], out=distinct[1:-1])
    kinks = kinks[distinct]
    spend = q_rows(kinks[:-1]).sum(axis=1)
    spend *= dt
    hi = kinks[np.searchsorted(-spend, -budgets)]
    theta = np.interp(budgets, spend[::-1], kinks[-2::-1])
    step = _kernels._GUARD_ULPS * np.spacing(hi)
    theta += step
    np.minimum(theta, hi, out=theta)
    q = q_rows(theta)
    over = np.flatnonzero(dt * q.sum(axis=1) > budgets)
    step = step[over]
    while over.size:
        step *= 2.0
        theta[over] = np.minimum(theta[over] + step, hi[over])
        q[over] = q_rows(theta[over])
        still = (dt * q[over].sum(axis=1) > budgets[over]) & (theta[over] < hi[over])
        over, step = over[still], step[still]
    return q, theta


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


def unit_lam1_instances():
    """``edge_instances()`` rescaled to ``lam1 = 1``, the solvers' case, plus the spend at each kink.

    Yields ``(top, ert, lam1, dt, budgets)``.
    """
    for top, ert, lam1, dt, budgets, _ in edge_instances():
        top = top / lam1
        kinks = np.concatenate([top - 1.0, top]) / np.concatenate([ert, ert])
        yield top, ert, 1.0, dt, np.concatenate([budgets, spend_at(top, ert, 1.0, dt, kinks.clip(min=0.0))])


def bits_across_the_range(rng, denom):
    """Finite doubles of every exponent, the largest ones, and ones whose quotient by ``denom`` is subnormal."""
    fmax, tiny = np.finfo(float).max, np.finfo(float).tiny
    raw = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(float)
    return np.concatenate([
        raw[np.isfinite(raw)],
        [fmax, -fmax, np.nextafter(fmax, 0.0), tiny, -tiny, 5e-324, -5e-324, 3 * 5e-324, 0.0, -0.0],
        tiny * denom * rng.uniform(-2.0, 2.0, 5000),
        5e-324 * denom * rng.integers(-4096, 4096, 5000) * rng.choice([0.25, 0.5, 0.75, 1.0], 5000),
    ])


class TestResourceReciprocal:
    @pytest.mark.parametrize("k", range(-3, 6))
    def test_exact_reciprocal_rounds_like_the_division(self, k):
        # 1/2**k is exact, so x * (1/2**k) and x / 2**k are the correctly
        # rounded values of one real number: equal bytes, overflow to inf
        # and subnormal results included
        denom = 2.0 ** k
        x = bits_across_the_range(np.random.default_rng(k + 10), denom)
        op, operand = _kernels._scaling(denom)
        assert op is np.multiply and operand == 1.0 / denom
        with np.errstate(over="ignore"):
            quotient = x / denom
            assert (x * (1.0 / denom)).tobytes() == quotient.tobytes()
            assert op(x, operand).tobytes() == quotient.tobytes()
        assert np.any((quotient != 0.0) & (np.abs(quotient) < np.finfo(float).tiny))

    @pytest.mark.parametrize("denom", [2.0**-1074, 2.0**-1024, 3.0, 2.0 * 0.7, -2.0, 0.0, np.inf])
    def test_other_denominators_divide(self, denom):
        # 2**-1074 and 2**-1024 are powers of two whose reciprocals overflow
        assert _kernels._scaling(denom) == (np.divide, denom)

    def test_unit_lam1_matches_dividing_kernel_bit_for_bit(self):
        rng = np.random.default_rng(8)
        instances = [random_br_inputs(rng) for _ in range(20)] + list(unit_lam1_instances())
        for case, (top, ert, lam1, dt, budgets) in enumerate(instances):
            assert lam1 == 1.0
            q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
            q_ref, theta_ref = resource_br_dividing(top, ert, lam1, dt, budgets)
            assert q.tobytes() == q_ref.tobytes(), case
            assert theta.tobytes() == theta_ref.tobytes(), case

    @pytest.mark.parametrize("lam1", [2.0**-4, 0.25, 2.0, 16.0, 0.7, 1.3])
    def test_any_lam1_matches_dividing_kernel_bit_for_bit(self, lam1):
        # powers of two multiply, the rest divide; both keep the old bits
        rng = np.random.default_rng(9)
        for case in range(30):
            top, ert, _, dt, budgets = random_br_inputs(rng)
            top = top * lam1
            q, theta = _kernels.resource_br(top, ert, lam1, dt, budgets)
            q_ref, theta_ref = resource_br_dividing(top, ert, lam1, dt, budgets)
            assert q.tobytes() == q_ref.tobytes(), case
            assert theta.tobytes() == theta_ref.tobytes(), case

    def test_reciprocal_overflow_keeps_the_division(self):
        # at 2*lam1 = 2**-1073 a multiplication by 1/denom = inf would turn
        # the zero numerators (top_t = 0 at theta = 0, top_t at its own
        # kink) into nan; the division leaves them 0
        top = np.array([0.0, 0.3, -0.2, 0.9, 0.0])
        ert = np.exp(0.4 * np.arange(5))
        budgets = np.array([0.0, 0.1, 0.5, 1.0, 5.0])
        with np.errstate(over="ignore"):
            q, theta = _kernels.resource_br(top, ert, 5e-324, 0.5, budgets)
            q_ref, theta_ref = resource_br_dividing(top, ert, 5e-324, 0.5, budgets)
        assert not np.isnan(q).any()
        assert q.tobytes() == q_ref.tobytes()
        assert theta.tobytes() == theta_ref.tobytes()


def dp_batch(costs, qmax, arrivals, pad=np.inf):
    """Run the batched kernel on per-agent ``(n_i, steps)`` costs, padded to one grid.

    Agent ``i`` is below its target on its first ``arrivals[i]`` states;
    its costs from there on are zeroed in place, as the kernel's contract
    asks, so the loop reference sees the same costs.  They are scaled by
    0.0, which keeps a -0.0 there a -0.0: the game's zeros have either sign.
    """
    n = max(c.shape[0] for c in costs)
    steps = costs[0].shape[1]
    block = np.full((len(costs), n, steps), pad)
    for i, (c, a) in enumerate(zip(costs, arrivals)):
        c[a:] *= 0.0
        block[i, : len(c)] = c
    lengths = np.array([len(c) for c in costs])
    live = max(arrivals)

    def fill(out):
        assert out.shape == (steps, live, len(costs))
        np.copyto(out, block.transpose(2, 1, 0)[:, :live])

    return _kernels.congestion_dp_batch(fill, steps, qmax, arrivals, lengths)


def assert_matches_loop_reference(costs, qmax, arrivals, pad=np.inf):
    values, paths = dp_batch(costs, qmax, arrivals, pad)
    assert paths.shape == (len(costs), costs[0].shape[1] + 1)
    for i, (c, a) in enumerate(zip(costs, arrivals)):
        value_ref, path_ref = congestion_dp_loops(c, qmax, np.arange(len(c)) < a, 0)
        assert values[i].tobytes() == np.float64(value_ref).tobytes()
        np.testing.assert_array_equal(paths[i], path_ref)


# adding +0.0 turns a drawn -0.0 into +0.0: the kernel's minimum and the
# scan may keep different zeros of a tie, which compare equal but differ in bits
_finite = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: v + 0.0)


@st.composite
def arrival_instances(draw):
    """Game-shaped instances: ragged grids, arrival counts, costs on a few levels, padding.

    Each agent's arrival count is drawn from 0 (a start at or past the
    target) to its grid length (no state at the target).  Its costs are
    drawn before the arrival and are zero (+0.0 or -0.0, as the game's
    are) from it on; padding costs are finite or +inf.  About half the
    instances cost 0 or 1 per state, so nearly every window holds several
    minimizers and the tie-break decides each move.
    """
    steps = draw(st.integers(1, 6))
    qmax = draw(st.integers(0, 8))
    levels = draw(st.one_of(st.just([0.0, 1.0]), st.lists(_finite, min_size=1, max_size=4, unique=True)))
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    arrivals = [draw(st.integers(0, n)) for n in sizes]
    zero = draw(st.sampled_from([0.0, -0.0]))
    costs = []
    for n, a in zip(sizes, arrivals):
        cost = np.array(levels)[draw(arrays(np.intp, (n, steps), elements=st.integers(0, len(levels) - 1)))]
        cost[a:] = zero
        costs.append(cost)
    pad = draw(st.one_of(st.just(np.inf), _finite))
    return costs, qmax, arrivals, pad


def full_grid_dp(costs, qmax, arrivals, pad):
    """The DP over every padded state at every step, with the kernel's tie-break.

    No live rows, no band and no early end of the forward pass: what the
    kernel's cuts must leave unchanged.
    """
    n = max(len(c) for c in costs)
    steps = costs[0].shape[1]
    states = np.arange(n)
    values, paths = [], []
    for c, a in zip(costs, arrivals):
        cost = np.full((n, steps), pad)
        cost[: len(c)] = c
        value = np.where(states < len(c), 0.0, np.inf)
        choice = np.empty((steps, n), dtype=np.intp)
        for t in range(steps - 1, -1, -1):
            ext = np.concatenate([value, np.full(qmax, np.inf)])
            ahead = np.lib.stride_tricks.sliding_window_view(ext, qmax + 1)
            nearest = ahead.argmin(axis=1)
            farthest = qmax - ahead[:, ::-1].argmin(axis=1)
            choice[t] = states + np.where(states < a, farthest, nearest)
            value = cost[:, t] + ext[choice[t]]
        path = np.zeros(steps + 1, dtype=np.intp)
        for t in range(steps):
            path[t + 1] = choice[t, path[t]]
        values.append(value[0])
        paths.append(path)
    return np.array(values), np.array(paths)


@settings(max_examples=300, deadline=None)
@given(arrival_instances())
def test_congestion_dp_batch_matches_loop_reference_bit_for_bit(instance):
    assert_matches_loop_reference(*instance)


@settings(max_examples=300, deadline=None)
@given(arrival_instances())
# every start at or past its target (live = 0), and grids with no state at the target (live = n)
@example(([np.zeros((3, 4)), -np.zeros((6, 4))], 2, [0, 0], np.inf))
@example(([np.arange(24.0).reshape(6, 4) % 3, np.ones((4, 4))], 3, [6, 4], 1.5))
@example(([np.arange(10.0).reshape(5, 2) % 2, np.ones((9, 2))], 4, [2, 9], np.inf))
def test_live_path_matches_full_path_and_loop_reference_bit_for_bit(instance):
    costs, qmax, arrivals, pad = instance
    values, paths = dp_batch(costs, qmax, arrivals, pad)
    full_values, full_paths = full_grid_dp(costs, qmax, arrivals, pad)
    assert values.tobytes() == full_values.tobytes()
    assert paths.tobytes() == full_paths.tobytes()
    for i, (c, a) in enumerate(zip(costs, arrivals)):
        value_ref, path_ref = congestion_dp_loops(c, qmax, np.arange(len(c)) < a, 0)
        assert values[i].tobytes() == np.float64(value_ref).tobytes()
        np.testing.assert_array_equal(paths[i], path_ref)


class TestCongestionKernel:
    def test_numpy_path_is_optimal_on_tiny_case(self):
        rng = np.random.default_rng(2)
        n_pos, steps, qmax = 7, 4, 2
        cost = rng.random((n_pos, steps))
        values, paths = dp_batch([cost], qmax, [n_pos])
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
            assert_matches_loop_reference(costs, qmax, rng.integers(0, sizes + 1))

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
            arrivals = rng.integers(0, sizes + 1)
            pad = np.inf if case % 2 else float(rng.integers(-3, 3))
            assert_matches_loop_reference(costs, qmax, arrivals, pad)

    def test_tie_break_prefers_progress_below_target(self):
        # flat costs: walk at full speed while below, stay once past
        _, paths = dp_batch([np.zeros((9, 3))], 2, [4])
        assert paths[0].tolist() == [0, 2, 4, 4]

    @pytest.mark.parametrize("qmax", [255, 256])
    def test_wide_windows_match_loop_reference(self, qmax):
        # windows of 256 and 257 states, wider than the grid of 40 states and
        # than one byte can count
        rng = np.random.default_rng(8)
        costs = [rng.integers(0, 3, (300, 4)).astype(float), rng.random((40, 4))]
        assert_matches_loop_reference(costs, qmax, [300, 40])

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
            assert_matches_loop_reference(costs, qmax, rng.integers(steps * qmax + 1, sizes + 1))

    def test_every_agent_below_target_matches_loop_reference(self):
        # no state is at its target, so every move takes the farthest minimizer
        rng = np.random.default_rng(10)
        for _ in range(40):
            steps = int(rng.integers(1, 8))
            qmax = int(rng.integers(0, 6))
            sizes = rng.integers(1, 30, int(rng.integers(1, 5)))
            costs = [rng.integers(0, 2, (n, steps)).astype(float) for n in sizes]
            assert_matches_loop_reference(costs, qmax, sizes)

    def test_agent_at_target_from_column_zero_matches_loop_reference(self):
        # one agent starts at its target, so it never moves; the others walk
        # until they arrive and then stay
        rng = np.random.default_rng(11)
        for _ in range(40):
            steps = int(rng.integers(1, 8))
            qmax = int(rng.integers(1, 6))
            sizes = rng.integers(2, 30, int(rng.integers(2, 5)))
            costs = [rng.integers(0, 2, (n, steps)).astype(float) for n in sizes]
            arrivals = rng.integers(1, sizes + 1)
            arrivals[rng.integers(len(sizes))] = 0
            assert_matches_loop_reference(costs, qmax, arrivals)

    def test_no_move_allowed_matches_loop_reference(self):
        # qmax = 0: every window is one state, every path stays at state 0
        rng = np.random.default_rng(13)
        costs = [rng.integers(0, 2, (n, 6)).astype(float) for n in (1, 5, 9)]
        arrivals = [1, 3, 0]
        assert_matches_loop_reference(costs, 0, arrivals)
        _, paths = dp_batch(costs, 0, arrivals)
        assert not paths.any()

    def test_wide_grids_use_two_byte_columns_and_match_loop_reference(self):
        # a grid of 250 states and windows of 11 make 260 columns, more than
        # one byte can number; the band is narrower than the grid for t < 25
        rng = np.random.default_rng(14)
        costs = [rng.integers(0, 3, (250, 30)).astype(float), rng.random((120, 30)),
                 rng.integers(0, 2, (249, 30)).astype(float)]
        assert_matches_loop_reference(costs, 10, [230, 100, 200])

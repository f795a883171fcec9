"""The batch oracle contract, shared by the three games.

Games implement only the batch oracles; ``MfoProblem`` derives
``feasible``, the one one-row form, from ``feasible_batch``.  The per-row feasibility predicates and
selection oracles below are the games' implementations from before the
batch contract, kept as references: the batch forms must equal them bit
for bit, boundary cases included.
"""

import importlib
import re

import numpy as np
import pytest

from mfo import EmpiricalMeasure, SolverConfig, bridge, fw_gap, fw_solve, sfw_solve, validate_feasible
from mfo.examples import CongestionProblem, ResourceProblem, TrafficProblem, grid_network
from mfo.problem import _frozen_weights

from conftest import best_response, g_eval, initial_decision, transport_select

FEAS_TOL = 1e-9
BATCH_ORACLES = ("g_eval_batch", "best_response_batch", "feasible_batch",
                 "transport_select_batch", "initial_decision_batch")
ONE_ROW_ORACLES = ("g_eval", "best_response", "feasible", "transport_select", "initial_decision")


# -- per-row references ---------------------------------------------------------

def resource_feasible(prob, x, q):
    q = np.asarray(q, dtype=float)
    x0 = float(np.atleast_1d(x)[0])
    return bool(
        np.all(q >= -FEAS_TOL)
        and np.all(q <= 0.5 + FEAS_TOL)
        and prob.dt * float(q.sum()) <= x0 + FEAS_TOL
    )


def resource_select(prob, x, q, x2):
    x0 = float(np.atleast_1d(x)[0])
    x1 = float(np.atleast_1d(x2)[0])
    q = np.asarray(q, dtype=float)
    if x1 >= x0:
        return q.copy()
    spent = prob.dt * np.cumsum(q)
    before = spent - prob.dt * q
    out = np.where(spent <= x1 + 1e-15, q, 0.0)
    partial = np.flatnonzero((before < x1) & (spent > x1 + 1e-15))
    if len(partial):
        t = partial[0]
        out[t] = max(x1 - before[t], 0.0) / prob.dt
    return out


def congestion_feasible(prob, x, traj):
    traj = np.asarray(traj, dtype=float)
    x0 = float(np.atleast_1d(x)[0])
    if traj.shape != (prob.steps + 1,) or abs(traj[0] - x0) > FEAS_TOL:
        return False
    moves = np.diff(traj)
    return bool(np.all(moves >= -FEAS_TOL) and np.all(moves <= prob.max_move + FEAS_TOL))


def congestion_select(prob, x, traj, x2):
    shift = float(np.atleast_1d(x2)[0]) - float(np.atleast_1d(x)[0])
    return np.asarray(traj, dtype=float) + shift


def _od_of(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return (int(round(x[0])), int(round(x[1])))


def traffic_feasible(prob, x, y):
    y = np.asarray(y, dtype=float)
    return bool(np.any(np.all(np.abs(prob.indicators[_od_of(x)] - y) <= 1e-9, axis=1)))


def traffic_select(prob, x, y, x2):
    od, od2 = _od_of(x), _od_of(x2)
    if od == od2:
        return np.asarray(y, dtype=float).copy()
    return prob.indicators[od2][0].copy()


# -- seeded inputs with boundary cases ---------------------------------------------

def resource_cases(prob, rng):
    n, m = 300, prob.steps
    qs = rng.uniform(0.0, 0.5, (n, m)) * rng.uniform(0.0, 1.0, (n, 1))
    xs = rng.uniform(0.0, prob.stock_cap, (n, 1))
    x2s = rng.uniform(0.0, prob.stock_cap, (n, 1))
    spent = prob.dt * np.cumsum(qs, axis=1)
    xs[:40, 0] = prob.dt * qs[:40].sum(axis=1)              # budget hit exactly
    xs[40:60, 0] = prob.dt * qs[40:60].sum(axis=1) + FEAS_TOL * np.array([0.5, 1.5] * 10)
    x2s[60:80] = xs[60:80]                                  # x2 == x
    x2s[80:100] = xs[80:100] + rng.uniform(0.0, 1.0, (20, 1))  # x2 > x
    x2s[100:140, 0] = spent[100:140, 7]                     # new budget runs out exactly at a step
    x2s[140:150] = 0.0
    qs[150:160] = 0.0                                       # zero profile
    qs[160:165, 3] = 0.5 + FEAS_TOL * np.array([0.5, 1.0, 1.5, 2.0, -0.5])
    qs[165:170, 4] = -FEAS_TOL * np.array([0.5, 1.0, 1.5, 2.0, 0.0])
    # budget exceeded by exactly the tolerance (where x + tol rounds back), and
    # within it, with x2 == x
    xs[170:200, 0] = prob.dt * qs[170:200].sum(axis=1) - FEAS_TOL
    xs[200:210, 0] = prob.dt * qs[200:210].sum(axis=1) - 0.5 * FEAS_TOL
    x2s[200:210] = xs[200:210]
    return xs, qs, x2s


def congestion_cases(prob, rng):
    n, m = 300, prob.steps
    xs = rng.uniform(0.0, 1.0, (n, 1))
    moves = rng.uniform(0.0, prob.max_move, (n, m))
    moves[:30, 5] = prob.max_move + FEAS_TOL * np.repeat([0.5, 0.999, 1.001, 1.5, 2.0, -0.5], 5)
    moves[30:55, 2] = -FEAS_TOL * np.repeat([0.5, 0.999, 1.001, 1.5, 2.0], 5)
    moves[55:65] = 0.0
    trajs = xs + np.concatenate([np.zeros((n, 1)), np.cumsum(moves, axis=1)], axis=1)
    trajs[65:75, 0] += FEAS_TOL * np.array([0.5, 1.5, -0.5, -1.5, 1.0, 3.0, -3.0, 0.0, 0.999, 1.001])
    # from 0, moves and a start offset of exactly the bounds +- tolerance
    xs[90:96] = 0.0
    trajs[90:96] = 0.0
    trajs[90:92, 6:] = prob.max_move + FEAS_TOL
    trajs[92:94, 6:] = -FEAS_TOL
    trajs[94:96] = FEAS_TOL
    x2s = rng.uniform(0.0, 1.0, (n, 1))
    x2s[75:90] = xs[75:90]
    return xs, trajs, x2s


def traffic_cases(prob, rng):
    ods = np.array(prob.od_pairs, dtype=float)
    stack = np.vstack([prob.indicators[od] for od in prob.od_pairs])
    n = 300
    xs = ods[rng.integers(0, len(ods), n)]
    ys = stack[rng.integers(0, len(stack), n)].copy()   # often a path of another pair
    ys[:30] = rng.integers(0, 2, (30, len(prob.edges)))  # mostly not a path at all
    ys[30:40] = 0.0
    ys[40:60] += rng.choice([-1.0, 1.0], (20, len(prob.edges))) * np.repeat([0.5e-9, 2e-9], 10)[:, None]
    ys[60:70] += 1e-9 * (ys[60:70] == 0.0)   # off by exactly the tolerance
    x2s = ods[rng.integers(0, len(ods), n)]
    x2s[60:90] = xs[60:90]
    return xs, ys, x2s


GAMES = {
    "resource": (lambda: ResourceProblem(horizon=10.0, steps=50), resource_cases,
                 resource_feasible, resource_select),
    "congestion": (lambda: CongestionProblem(steps=20, grid_substeps=10), congestion_cases,
                   congestion_feasible, congestion_select),
    "traffic": (lambda: TrafficProblem(*grid_network()), traffic_cases,
                traffic_feasible, traffic_select),
}


@pytest.fixture(params=sorted(GAMES))
def game(request):
    build, cases, feasible, select = GAMES[request.param]
    prob = build()
    xs, ys, x2s = cases(prob, np.random.default_rng(sorted(GAMES).index(request.param)))
    return prob, xs, ys, x2s, feasible, select


def _dual(prob, rng):
    values = rng.uniform(0.0, 0.5, len(prob.hilbert_weights))
    values[0] = 1.0   # the self-interaction weight of the resource and congestion games
    return values


class TestBatchMatchesReference:
    def test_feasible_batch(self, game):
        prob, xs, ys, _, feasible, _ = game
        expected = np.array([feasible(prob, x, y) for x, y in zip(xs, ys)])
        got = prob.feasible_batch(xs, ys)
        assert got.dtype == bool and got.shape == (len(xs),)
        np.testing.assert_array_equal(got, expected)
        assert expected.any() and not expected.all()

    def test_transport_select_batch(self, game):
        prob, xs, ys, x2s, feasible, select = game
        ok = np.array([feasible(prob, x, y) for x, y in zip(xs, ys)])
        xs, ys, x2s = xs[ok], ys[ok], x2s[ok]
        expected = np.vstack([select(prob, x, y, x2) for x, y, x2 in zip(xs, ys, x2s)])
        got = prob.transport_select_batch(xs, ys, x2s)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_feasible_batch_of_the_selection(self, game):
        prob, xs, ys, x2s, feasible, select = game
        ok = prob.feasible_batch(xs, ys)
        ys2 = prob.transport_select_batch(xs[ok], ys[ok], x2s[ok])
        expected = np.array([feasible(prob, x2, y2) for x2, y2 in zip(x2s[ok], ys2)])
        np.testing.assert_array_equal(prob.feasible_batch(x2s[ok], ys2), expected)

    @pytest.mark.parametrize("name", ["congestion", "resource", "traffic"])
    def test_decision_of_wrong_length_is_infeasible(self, name):
        build, cases, _, _ = GAMES[name]
        prob = build()
        xs = cases(prob, np.random.default_rng(0))[0][:3]
        ys = prob.initial_decision_batch(xs)
        assert prob.feasible_batch(xs, ys).all()
        for wrong in (ys[:, :-1], np.hstack([ys, ys[:, -1:]])):
            np.testing.assert_array_equal(prob.feasible_batch(xs, wrong), [False] * 3)
            assert prob.feasible(xs[0], wrong[0]) is False


class TestOneRowWrappers:
    def test_each_wrapper_equals_its_batch_row(self, game):
        prob, xs, ys, x2s, _, _ = game
        rng = np.random.default_rng(3)
        ok = prob.feasible_batch(xs, ys)
        xs, ys, x2s = xs[ok][:12], ys[ok][:12], x2s[ok][:12]
        lam = _dual(prob, rng)
        batch = {
            "g_eval": prob.g_eval_batch(xs, ys),
            "feasible": prob.feasible_batch(xs, ys),
            "transport_select": prob.transport_select_batch(xs, ys, x2s),
            "initial_decision": prob.initial_decision_batch(xs),
            "best_response": prob.best_response_batch(lam, xs),
        }
        # feasible is the one wrapper; every other oracle answers a row alone
        # with the bytes of that row of the batch
        for i, (x, y, x2) in enumerate(zip(xs, ys, x2s)):
            assert prob.feasible(x, y) is bool(batch["feasible"][i])
            assert g_eval(prob, x, y).tobytes() == batch["g_eval"][i].tobytes()
            assert transport_select(prob, x, y, x2).tobytes() == batch["transport_select"][i].tobytes()
            assert initial_decision(prob, x).tobytes() == batch["initial_decision"][i].tobytes()
            assert best_response(prob, lam, x).tobytes() == batch["best_response"][i].tobytes()
        assert prob.feasible_batch(xs, prob.initial_decision_batch(xs)).all()
        assert prob.feasible_batch(xs, batch["best_response"]).all()

    @pytest.mark.parametrize("cls", [ResourceProblem, CongestionProblem, TrafficProblem],
                             ids=lambda c: c.__name__)
    def test_games_define_only_batch_oracles(self, cls):
        own = vars(cls)
        assert [name for name in ONE_ROW_ORACLES if name in own] == []
        assert [name for name in ONE_ROW_ORACLES if hasattr(cls, name)] == ["feasible"]
        assert [name for name in BATCH_ORACLES if name not in own] == []


class TestValidateFeasible:
    def test_reports_the_first_infeasible_atom(self, game):
        prob, xs, ys, _, feasible, _ = game
        ok = np.array([feasible(prob, x, y) for x, y in zip(xs, ys)])
        for lo in (0, int(np.argmin(ok)) + 1):
            mu = EmpiricalMeasure("Z", xs=xs[lo:], ys=ys[lo:],
                                  weights=np.full(len(xs) - lo, 1.0 / (len(xs) - lo)))
            i = next(i for i, x in enumerate(xs[lo:]) if not ok[lo + i])   # the reference loop
            message = f"infeasible atom {i}: y not in Z_x for x={xs[lo + i]}"
            with pytest.raises(ValueError, match=re.escape(message)):
                validate_feasible(mu, prob)
        good = EmpiricalMeasure("Z", xs=xs[ok], ys=ys[ok], weights=np.full(ok.sum(), 1.0 / ok.sum()))
        validate_feasible(good, prob)


class TestAggregationSpace:
    """Aggregates, contributions and gradients are vectors of ``len(hilbert_weights)`` entries."""

    def test_contributions_and_gradient_match_the_weights(self, game):
        prob, xs, ys, _, _, _ = game
        d = len(prob.hilbert_weights)
        ok = prob.feasible_batch(xs, ys)
        assert prob.g_eval_batch(xs[ok], ys[ok]).shape == (ok.sum(), d)
        assert g_eval(prob, xs[ok][0], ys[ok][0]).shape == (d,)
        beta = np.full(ok.sum(), 1.0 / ok.sum()) @ prob.g_eval_batch(xs[ok], ys[ok])
        assert prob.f_grad(beta).shape == (d,)
        assert prob.best_response_batch(prob.f_grad(beta), xs[ok]).shape == ys[ok].shape

    def test_weights_are_positive_finite_and_read_only(self, game):
        w = game[0].hilbert_weights
        assert w.ndim == 1 and np.all(np.isfinite(w) & (w > 0))
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 2.0

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_zero_weight_is_rejected_when_the_game_is_built(self, name, monkeypatch):
        def with_a_zero(weights):
            weights = np.array(weights, dtype=float)
            weights[-1] = 0.0
            return _frozen_weights(weights)

        monkeypatch.setattr(importlib.import_module(f"mfo.examples.{name}"), "_frozen_weights", with_a_zero)
        with pytest.raises(ValueError, match="positive, finite"):
            GAMES[name][0]()

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [1.0, -0.5], [1.0, np.nan], [np.inf, 1.0],
                                         [[1.0, 1.0]], 1.0],
                             ids=["zero", "negative", "nan", "inf", "2-D", "scalar"])
    def test_frozen_weights_rejects(self, weights):
        with pytest.raises(ValueError, match="positive, finite"):
            _frozen_weights(weights)


# (parameters of the marginal solved, parameters of the marginal bridged to)
STATELESS_MARGINALS = {
    "congestion": ([[0.0], [0.1], [0.3], [1.05]], [[0.05], [0.2]]),
    "resource": ([[0.5], [1.5], [3.0], [8.0]], [[1.0], [2.0]]),
    "traffic": ([[0, 7], [1, 7], [0, 6], [0, 7]], [[1, 7], [0, 6]]),
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_solving_and_bridging_leave_the_game_as_built(name):
    # the oracles are pure: after the solvers, a certificate and a bridge the
    # game holds the objects it was built with, and their arrays keep their
    # bytes; only the traffic game's hop metric is built on first use
    prob = GAMES[name][0]()
    built = dict(vars(prob))
    arrays = {k: v.tobytes() for k, v in built.items() if isinstance(v, np.ndarray)}
    xs0, xs1 = (np.array(xs, dtype=float) for xs in STATELESS_MARGINALS[name])
    m0, m1 = (EmpiricalMeasure("X", xs=xs, weights=np.full(len(xs), 1.0 / len(xs))) for xs in (xs0, xs1))
    mu = fw_solve(prob, m0, SolverConfig(iterations=5)).final_measure
    sfw_solve(prob, m0, SolverConfig(iterations=5, n_sims=2))
    fw_gap(prob, mu)
    bridge(mu, m1, prob)
    after = dict(vars(prob))
    if name == "traffic":
        after.pop("metric")
    assert after.keys() == built.keys()
    assert [k for k, v in built.items() if after[k] is not v] == []
    assert [k for k, v in arrays.items() if built[k].tobytes() != v] == []


# a parameter width each game refuses: resource and congestion take one number per row
BAD_WIDTHS = {"congestion": 2, "resource": 2, "traffic": 3}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_parameters_of_another_width_are_refused_before_any_sweep(name, monkeypatch):
    prob = GAMES[name][0]()
    width = BAD_WIDTHS[name]
    m = EmpiricalMeasure("X", xs=np.full((3, width), 0.5), weights=np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match=re.escape(f"got shape (3, {width})")):
        prob.initial_decision_batch(m.xs)
    sweeps = []

    def bind(xs):
        sweep = type(prob).bind(prob, xs)
        rows = sweep.best_response_rows
        sweep.best_response_rows = lambda lam: sweeps.append(lam) or rows(lam)
        return sweep

    monkeypatch.setattr(prob, "bind", bind)
    with pytest.raises(ValueError, match=re.escape(f"got shape (3, {width})")):
        fw_solve(prob, m, SolverConfig(iterations=3))
    assert sweeps == []

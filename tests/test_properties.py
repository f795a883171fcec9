"""Property tests for merging, gluing and bridging on generated measures, for bound sweeps and for stacked costs."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfo import EmpiricalMeasure, SolverConfig, bridge, first_marginal, fw_solve, mix
from mfo.examples import CongestionProblem, ResourceProblem, TrafficProblem, grid_network
from mfo.examples.traffic import Edge
from mfo.measures import ATOM_TOL
from mfo.problem import QuadraticCostProblem

from conftest import assert_same_bits

PROPS = settings(max_examples=40, deadline=None)
PROBLEM = ResourceProblem(horizon=2.0, steps=8)

# coordinates on a small grid, optionally nudged by less than ATOM_TOL, so
# that exact and near duplicates are common
coord = st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.9 * ATOM_TOL])).map(sum)
weight = st.one_of(st.just(0.0), st.integers(1, 9).map(float))


def measure(space, dims, min_atoms=1, max_atoms=8):
    def build(atoms):
        w = np.array([a[-1] for a in atoms])
        w[0] += 1.0  # at least one atom carries mass
        cols = {c: np.array([a[k] for a in atoms], dtype=float).reshape(len(atoms), -1)
                for k, c in enumerate(dims)}
        return EmpiricalMeasure(space, xs=cols.get("x"), ys=cols.get("y"), weights=w / w.sum(), validate=False)

    row = st.tuples(*[st.lists(coord, min_size=d, max_size=d) for d in dims.values()], weight)
    return st.lists(row, min_size=min_atoms, max_size=max_atoms).map(build)


x_measures = measure("X", {"x": 2})
z_measures = measure("Z", {"x": 1, "y": 2})


@PROPS
@given(st.one_of(x_measures, z_measures))
def test_merge_conserves_mass_and_is_idempotent(mu):
    out = mu.merged()
    assert abs(out.weights.sum() - mu.weights.sum()) <= 1e-14
    assert np.all(out.weights > 0)
    again = out.merged()
    for a, b in zip(again.columns() + (again.weights,), out.columns() + (out.weights,)):
        assert a.tobytes() == b.tobytes()


@PROPS
@given(st.one_of(x_measures, z_measures, measure("Z", {"x": 2, "y": 1})))
def test_a_measure_is_its_arrays(mu):
    # the space is read from the decisions, and every operation keeps it
    assert mu.space == ("X" if mu.ys is None else "Z")
    assert len(mu.columns()) == 1 + (mu.ys is not None)
    out = mu.merged()
    assert_same_bits(out.merged(), out)
    assert_same_bits(mix(out, mu, 0.0), out)
    assert_same_bits(mix(mu, out, 1.0), out)
    # the first marginal is the parameters merged on their own
    pairs = out if out.ys is not None else EmpiricalMeasure("Z", xs=out.xs, ys=np.zeros((len(out), 1)),
                                                            weights=out.weights)
    assert_same_bits(first_marginal(pairs), EmpiricalMeasure("X", xs=out.xs, weights=out.weights).merged())
    # a JSON round trip, and the tuple reader on the same atoms
    again = EmpiricalMeasure.from_json_dict(json.loads(json.dumps(mu.to_json_dict())))
    assert_same_bits(again, mu)
    atoms = list(zip(*(col.tolist() for col in mu.columns() + (mu.weights,))))
    assert_same_bits(EmpiricalMeasure.from_atoms(mu.space, atoms, merge=False), again)


class TagSource(QuadraticCostProblem):
    """Selection keeps the source atom ``(x, y)`` as the decision; nothing
    is infeasible and nothing contributes, so a bridge shows its glue."""

    def __init__(self):
        self.hilbert_weights = np.ones(1)
        self.metric = PROBLEM.metric
        self.grad_lipschitz = self.sup_g_norm = self.sup_g_diff_sq = self.sup_grad_norm = 0.0
        self.set_lipschitz = 1.0

    def g_eval_batch(self, xs, ys):
        return np.zeros((len(xs), 1))

    def best_response_batch(self, lam, xs):
        return np.zeros((len(xs), 1))

    def feasible_batch(self, xs, ys):
        return np.ones(len(xs), dtype=bool)

    def transport_select_batch(self, xs, ys, x2s):
        return np.hstack([xs, ys])

    def initial_decision_batch(self, xs):
        return np.zeros((len(xs), 1))


def check_glue(mu0, m1):
    result = bridge(mu0, m1, TagSource())
    out = result.measure
    pair = EmpiricalMeasure("Z", xs=out.ys[:, :1], ys=out.ys[:, 1:], weights=out.weights, validate=False)
    last = EmpiricalMeasure("X", xs=out.xs, weights=out.weights, validate=False)
    assert pair.allclose(mu0, tol=1e-9)
    assert last.allclose(result.coupling.target, tol=1e-9)


@PROPS
@given(z_measures, measure("X", {"x": 1}))
def test_glue_marginals(mu0, m1):
    check_glue(mu0, m1)


def test_glue_keeps_decisions_apart_across_near_equal_targets():
    # m1's two atoms are one point under its own rule; merging the glued rows
    # on (x2, y) chained rows across them and moved mass 1/6 between decisions
    mu0 = EmpiricalMeasure("Z", xs=np.array([[1.0], [0.0], [0.0], [0.0], [1.0], [1.0]]),
                           ys=np.array([[0.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [9e-13, 1.0]]),
                           weights=np.array([1.0, 0.0, 0.0, 0.0, 1.0, 1.0]) / 3, validate=False)
    m1 = EmpiricalMeasure("X", xs=np.array([[1.0], [1.0 + 9e-13]]), weights=np.array([0.5, 0.5]), validate=False)
    check_glue(mu0, m1)


def test_bridge_onto_duplicate_atoms_is_merged():
    # a samples: marginal repeats atoms exactly; rows glued onto copies of one
    # atom are one atom of the output
    m0 = EmpiricalMeasure("X", xs=np.array([[0.5], [1.0], [1.5], [2.5]]), weights=np.full(4, 0.25))
    mu0 = fw_solve(PROBLEM, m0, SolverConfig(iterations=20)).final_measure
    m1 = EmpiricalMeasure("X", xs=np.array([[0.7], [1.2], [0.7], [2.0], [1.2], [1.2]]),
                          weights=np.full(6, 1 / 6))
    out = bridge(mu0, m1, PROBLEM).measure
    again = out.merged()
    for a, b in zip(again.columns() + (again.weights,), out.columns() + (out.weights,)):
        assert a.tobytes() == b.tobytes()
    assert len(np.unique(out.xs)) == 3


@st.composite
def feasible_pairs(draw):
    """A resource-game pair measure: stocks in [0, 3], profiles within budget."""
    n = draw(st.integers(1, 6))
    xs = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), dtype=float) / 2
    shares = np.array(draw(st.lists(st.integers(0, 4), min_size=n * PROBLEM.steps,
                                    max_size=n * PROBLEM.steps)), dtype=float).reshape(n, -1) / 8
    budget_scale = np.minimum(1.0, xs / (PROBLEM.dt * 0.5 * PROBLEM.steps))
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    w[0] += 1.0
    return EmpiricalMeasure("Z", xs=xs[:, None], ys=shares * budget_scale[:, None],
                            weights=w / w.sum(), validate=False)


@PROPS
@given(feasible_pairs(), measure("X", {"x": 1}))
def test_bridge_carries_the_target_marginal(mu0, m1):
    result = bridge(mu0, m1, PROBLEM)
    out = result.measure
    assert first_marginal(out).allclose(m1.merged(), tol=1e-9)
    assert PROBLEM.feasible_batch(out.xs, out.ys).all()
    assert result.aggregate_shift <= PROBLEM.set_lipschitz * result.transport_cost + 1e-7
    # onto its own first marginal, the bridge returns mu0
    assert bridge(mu0, first_marginal(mu0), PROBLEM).measure.allclose(mu0, tol=1e-9)


# each game's full batch of 40 parameters, drawn once: stocks, starts on
# both sides of the target, and origin-destination pairs
SWEEP_BATCHES = {
    "resource": (ResourceProblem(), lambda rng: rng.exponential(1.0, (40, 1))),
    "congestion": (CongestionProblem(), lambda rng: rng.uniform(0.0, 1.2, (40, 1))),
    "traffic": (TrafficProblem(*grid_network()),
                lambda rng: np.array([[0, 7], [1, 7], [0, 6]], dtype=float)[rng.integers(0, 3, 40)]),
}


@pytest.mark.parametrize("game", sorted(SWEEP_BATCHES))
@PROPS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_of_a_subset_keeps_the_rows_of_the_full_sweep(game, seed):
    # a row of a sweep depends on its own parameter only, not on its place
    # in the batch or on the other rows: bound to a random subset of the
    # rows, in random order, a sweep returns those rows of the full sweep
    prob, draw = SWEEP_BATCHES[game]
    rng = np.random.default_rng(seed)
    xs = draw(np.random.default_rng(0))
    lam = rng.uniform(0.0, 3.0, len(prob.hilbert_weights))
    lam[0] = 1.0        # the self-interaction weight of the resource and congestion games
    rows = rng.permutation(len(xs))[: rng.integers(1, len(xs) + 1)]
    ys, G = prob.bind(xs).best_response_rows(lam)
    ys_sub, G_sub = prob.bind(xs[rows]).best_response_rows(lam)
    assert ys_sub.tobytes() == ys[rows].tobytes()
    assert G_sub.tobytes() == G[rows].tobytes()


# the games whose f_value SFW calls on a stack of candidate aggregates;
# "mixed" interleaves affine and BPR edges, so its potentials are formed
# one kind at a time and scattered back to the edges' places. Both
# networks have more than eight edges, where a numpy sum (eight-way
# unrolled) would add them in another order than left to right
STACKED_GAMES = {
    "resource": ResourceProblem(),
    "congestion": CongestionProblem(),
    "grid10": TrafficProblem(*grid_network()),
    "mixed": TrafficProblem(5, [Edge(0, 1, "bpr", (1.0, 1.0, 4.0)), Edge(1, 3, "affine", (0.5, 0.15)),
                                Edge(0, 2, "affine", (0.6, 0.15)), Edge(2, 3, "bpr", (1.0, 1.0, 2.5)),
                                Edge(1, 2, "bpr", (0.1, 0.15, 1.0)), Edge(3, 4, "affine", (0.0, 0.3)),
                                Edge(2, 4, "bpr", (2.0, 0.5, 3.0)), Edge(0, 3, "affine", (3.0, 1.0)),
                                Edge(1, 4, "bpr", (1.5, 0.2, 2.0))], [(0, 4), (1, 4)]),
}


@pytest.mark.parametrize("game", sorted(STACKED_GAMES))
@PROPS
@given(lead=st.sampled_from([(1,), (4,), (2, 3)]), data=st.data())
def test_stacked_f_value_has_the_bits_of_each_row(game, lead, data):
    prob = STACKED_GAMES[game]
    d = len(prob.hilbert_weights)
    flat = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=math.prod(lead) * d,
                              max_size=math.prod(lead) * d))
    betas = np.array(flat).reshape(lead + (d,))
    values = prob.f_value(betas)
    assert isinstance(values, np.ndarray) and values.shape == lead
    for idx in np.ndindex(lead):
        one = prob.f_value(betas[idx])
        assert type(one) is float
        assert np.float64(one).tobytes() == values[idx].tobytes()

"""Property tests for merging, gluing and bridging on generated measures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfo import EmpiricalMeasure, bridge, first_marginal
from mfo.examples import ResourceProblem
from mfo.measures import ATOM_TOL
from mfo.problem import QuadraticCostProblem

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


@PROPS
@given(z_measures, measure("X", {"x": 1}))
def test_glue_marginals(mu0, m1):
    result = bridge(mu0, m1, TagSource())
    out = result.measure
    pair = EmpiricalMeasure("Z", xs=out.ys[:, :1], ys=out.ys[:, 1:], weights=out.weights, validate=False)
    last = EmpiricalMeasure("X", xs=out.xs, weights=out.weights, validate=False)
    assert pair.allclose(mu0, tol=1e-9)
    assert last.allclose(result.coupling.target, tol=1e-9)


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

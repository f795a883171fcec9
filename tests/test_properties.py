"""Property tests for merging, gluing and bridging on generated measures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfo import EmpiricalMeasure, bridge, first_marginal, glue, ot_solve
from mfo.examples import ResourceProblem
from mfo.measures import ATOM_TOL

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
        return EmpiricalMeasure(space, xs=cols.get("x"), ys=cols.get("y"), x2s=cols.get("x2"),
                                weights=w / w.sum(), validate=False)

    row = st.tuples(*[st.lists(coord, min_size=d, max_size=d) for d in dims.values()], weight)
    return st.lists(row, min_size=min_atoms, max_size=max_atoms).map(build)


x_measures = measure("X", {"x": 2})
z_measures = measure("Z", {"x": 1, "y": 2})
zx_measures = measure("ZX", {"x": 1, "y": 1, "x2": 1})


@PROPS
@given(st.one_of(x_measures, z_measures, zx_measures))
def test_merge_conserves_mass_and_is_idempotent(mu):
    out = mu.merged()
    assert abs(out.weights.sum() - mu.weights.sum()) <= 1e-14
    assert np.all(out.weights > 0)
    again = out.merged()
    for a, b in zip(again.columns() + (again.weights,), out.columns() + (out.weights,)):
        assert a.tobytes() == b.tobytes()


@PROPS
@given(z_measures, measure("X", {"x": 1}))
def test_glue_marginals(mu0, m1):
    rho = ot_solve(first_marginal(mu0), m1.merged(), PROBLEM.metric)
    nu = glue(mu0, rho)
    pair = EmpiricalMeasure("Z", xs=nu.xs, ys=nu.ys, weights=nu.weights, validate=False)
    last = EmpiricalMeasure("X", xs=nu.x2s, weights=nu.weights, validate=False)
    assert pair.allclose(mu0, tol=1e-9)
    assert last.allclose(rho.target, tol=1e-9)


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
    out = bridge(mu0, m1, PROBLEM).measure
    assert first_marginal(out).allclose(m1.merged(), tol=1e-9)
    assert PROBLEM.feasible_batch(out.xs, out.ys).all()

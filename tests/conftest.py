import numpy as np
import pytest

from mfo import EmpiricalMeasure, SourceDistribution, quantize_sample
from mfo.examples import CongestionProblem, ResourceProblem, TrafficProblem, pigou_network


@pytest.fixture(scope="session")
def resource_problem():
    return ResourceProblem(horizon=10.0, steps=50, discount=1.0, price_impact=1.0)


@pytest.fixture(scope="session")
def small_resource_problem():
    return ResourceProblem(horizon=10.0, steps=30, discount=1.0, price_impact=1.0)


@pytest.fixture(scope="session")
def pigou_problem():
    return TrafficProblem(*pigou_network())


@pytest.fixture(scope="session")
def congestion_problem():
    return CongestionProblem(horizon=1.0, steps=20, vmax=3.0, alpha=1.0, cells=5, smoothing=20)


@pytest.fixture(scope="session")
def exp_marginal_50(resource_problem):
    m = quantize_sample(SourceDistribution("exponential", rate=1.0), 50, seed=20240)
    xs = np.clip(m.xs, 0.0, resource_problem.stock_cap)
    return EmpiricalMeasure("X", xs=xs, weights=m.weights, validate=False)


def uniform_marginal(xs):
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    return EmpiricalMeasure("X", xs=xs, weights=np.full(len(xs), 1.0 / len(xs)), validate=False)


def assert_same_bits(a, b):
    """Both measures hold the same arrays, bit for bit, and so lie on the same space."""
    assert a.space == b.space and (a.ys is None) == (b.ys is None)
    for ca, cb in zip(a.columns() + (a.weights,), b.columns() + (b.weights,)):
        assert ca.shape == cb.shape and ca.tobytes() == cb.tobytes()


# one-row forms of the batch oracles, for tests that look at one point
def row(p):
    """One point as a one-row batch."""
    return np.asarray(p, dtype=float).reshape(1, -1)


def g_eval(prob, x, y):
    return prob.g_eval_batch(row(x), row(y))[0]


def best_response(prob, lam, x):
    return prob.best_response_batch(lam, row(x))[0]


def transport_select(prob, x, y, x2):
    return prob.transport_select_batch(row(x), row(y), row(x2))[0]


def initial_decision(prob, x):
    return prob.initial_decision_batch(row(x))[0]

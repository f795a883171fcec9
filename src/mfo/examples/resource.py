"""Competition between producers exploiting exhaustible private stocks.

Each producer owns a stock ``x`` and picks a discounted extraction
profile ``q`` with rates in ``[0, 1/2]`` and total extraction at most
``x``.  The unit price drops linearly in the producer's own rate and in
the population aggregate, so the population cost is a convex quadratic
of the aggregate and the game is a potential game: its Nash equilibria
are exactly the minimizers of the mean field objective.

Aggregation space: one scalar slot for the discounted self-interaction
term plus one slot per time step, with discounted trapezoid weights
``dt * exp(-r t)`` so the discrete inner product matches the discounted
integral exactly.

Ground metric on stocks: ``sqrt(|x - x2|)``.  The budget constraint set
moves only Hoelder-1/2 continuously in the stock under the plain
distance (near ``x = 0`` a stock increase of ``h`` admits profiles at
L2 distance of order ``sqrt(h)``), so the square-root metric is the one
under which the feasible-contribution map is genuinely Lipschitz and
the transport-selection certificates are rigorous.
"""

from __future__ import annotations

import math

import numpy as np

from .._kernels import resource_br
from ..problem import FEAS_TOL, QuadraticCostProblem, _count, _frozen_weights, _real
from ..transport import MetricSpec


class ResourceProblem(QuadraticCostProblem):
    name = "resource"
    config_keys = ("horizon", "steps", "discount", "price_impact", "stock_cap")

    def __init__(self, horizon=10.0, steps=50, discount=1.0, price_impact=1.0,
                 stock_cap=15.0):
        self.price_impact = _real(price_impact, "price_impact", positive=True)
        if self.price_impact > 1.0:
            raise ValueError(f"price_impact must be at most 1, got {price_impact!r}")
        self.steps = _count(steps, "steps")
        self.horizon = _real(horizon, "horizon", positive=True)
        self.discount = _real(discount, "discount")
        self.stock_cap = _real(stock_cap, "stock_cap")
        self.dt = self.horizon / self.steps
        self.times = self.dt * np.arange(self.steps)
        # libm exp, not numpy's SIMD one, whose last bit depends on the CPU
        self.discount_factors = np.array([math.exp(-self.discount * t) for t in self.times.tolist()])
        try:
            self.exp_rt = np.array([math.exp(self.discount * t) for t in self.times.tolist()])
        except OverflowError:
            raise ValueError(f"discount={self.discount:g} with horizon={self.horizon:g}: "
                             "the discount factor exp(discount * t) overflows") from None
        #: dt * exp(-discount * t), the weight of each step's rate
        self.step_weights = self.dt * self.discount_factors
        self.hilbert_weights = _frozen_weights(np.concatenate([[1.0], self.step_weights]))
        mass = float(np.sum(self.step_weights))
        self.grad_lipschitz = self.price_impact     # kappa of the quadratic cost
        self.sup_g_norm = math.sqrt(mass ** 2 / 16.0 + mass / 4.0)
        self.sup_g_diff_sq = mass ** 2 / 16.0 + mass / 4.0
        self.sup_grad_norm = math.sqrt(1.0 + self.price_impact ** 2 * mass / 4.0)
        self.set_lipschitz = math.sqrt(self.stock_cap + 0.5)
        self.metric = MetricSpec("sqrt_euclidean")

    # -- model ------------------------------------------------------------

    def g_eval_batch(self, xs, qs):
        qs = np.asarray(qs, dtype=float)
        G = np.empty((len(qs), self.steps + 1))
        G[:, 1:] = qs
        # summed per row, in numpy's fixed pairwise order: a matrix-vector
        # product (BLAS) rounds a row by its place in the batch
        sq = qs * qs
        sq -= qs
        sq *= self.step_weights
        sq.sum(axis=1, out=G[:, 0])
        return G

    # -- oracles ------------------------------------------------------------

    def best_response_with_multiplier(self, lam: np.ndarray, x):
        """Best response plus the budget multiplier (for KKT checks)."""
        q, theta = self._br_batch(lam, np.array([[float(np.atleast_1d(x)[0])]]))
        return q[0], float(theta[0])

    def best_response_batch(self, lam: np.ndarray, xs) -> np.ndarray:
        return self._br_batch(lam, xs)[0]

    def _br_batch(self, lam, xs):
        lam1 = float(lam[0])
        if lam1 <= 0:
            raise ValueError("best response needs a positive self-interaction weight")
        top = lam1 - np.asarray(lam[1:], dtype=float)
        budgets = np.asarray(xs, dtype=float).reshape(-1)
        return resource_br(top, self.exp_rt, lam1, self.dt, budgets)

    def feasible_batch(self, xs, qs) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        if qs.shape[1:] != (self.steps,):
            return np.zeros(len(qs), dtype=bool)
        budgets = np.asarray(xs, dtype=float)[:, 0]
        return (
            np.all(qs >= -FEAS_TOL, axis=1)
            & np.all(qs <= 0.5 + FEAS_TOL, axis=1)
            & (self.dt * qs.sum(axis=1) <= budgets + FEAS_TOL)
        )

    def transport_select_batch(self, xs, qs, x2s) -> np.ndarray:
        """Budget truncation: keep each profile until its new stock runs out."""
        qs = np.asarray(qs, dtype=float)
        x0 = np.asarray(xs, dtype=float)[:, :1]
        x1 = np.asarray(x2s, dtype=float)[:, :1]
        spent = self.dt * np.cumsum(qs, axis=1)
        before = spent - self.dt * qs
        out = np.where(spent <= x1 + 1e-15, qs, 0.0)
        # the first step that overflows the new budget spends what is left
        partial = (before < x1) & (spent > x1 + 1e-15)
        rows = np.flatnonzero(partial.any(axis=1))
        t = partial[rows].argmax(axis=1)
        out[rows, t] = np.maximum(x1[rows, 0] - before[rows, t], 0.0) / self.dt
        return np.where(x1 >= x0, qs, out)

    def initial_decision_batch(self, xs) -> np.ndarray:
        # q = 0 spends nothing: it fits every stock down to -FEAS_TOL, feasible_batch's slack
        budgets = np.asarray(xs, dtype=float)[:, 0]
        short = ~(budgets >= -FEAS_TOL)
        if short.any():
            raise ValueError(f"x={float(budgets[short.argmax()])!r} is a negative stock: "
                             "no extraction profile fits it")
        return np.zeros((len(xs), self.steps))

    # -- reporting helpers ---------------------------------------------------

    def stock_trajectory(self, x, q) -> np.ndarray:
        """Remaining stock before each step, plus the final level."""
        x0 = float(np.atleast_1d(x)[0])
        return x0 - self.dt * np.concatenate([[0.0], np.cumsum(q)])

    def aggregate_rate(self, beta: np.ndarray) -> np.ndarray:
        """Population extraction rate per time step."""
        return beta[1:].copy()

    def depletion_step(self, x, q, tol=1e-6):
        """First step at which the remaining stock is exhausted, else None."""
        stocks = self.stock_trajectory(x, q)
        hit = np.flatnonzero(stocks <= tol)
        return int(hit[0]) if len(hit) else None

"""Minimal-time crowd motion with congestion aversion on the unit segment.

Agents start at positions in ``[0, 1]``, move forward with speed in
``[0, vmax]`` on a uniform time grid, and pay for every step spent
before the target point ``1`` plus a quadratic penalty on the local
crowd density.  Densities are measured through a smooth partition of
unity: one plateau bump per spatial cell, each the difference of one
smoothstep shifted to the cell's two boundaries, so that the cell bumps
sum exactly to the before-target indicator bump on ``[0, inf)``.

Best responses are computed by dynamic programming over a per-agent
position grid aligned with the agent's start, with the one-step move
``vmax*dt`` an exact multiple of the grid step: the grid optimum is
global for the discretized decision set, and the zero-penalty optimum
is the exact maximal-speed path halting at the target.  One batched DP
serves all agents; their grids and bump values depend on the starts
only, so ``bind`` builds them once, in a :class:`CongestionSweep` that
the solver then runs at every dual point.  The bumps are kept stacked,
the cell bumps over the target bump, so the stage costs at a dual point
are one matrix product: the ``(steps, cells + 1)`` dual coefficients,
scaled by ``dt``, times the stacked bumps, written straight into the
DP table.  A grid ascends, so an agent's states before the target are
a prefix of its grid, counted by its arrival count; the bumps vanish
bit for bit on ``[1, inf)``, so every stage cost at or past the target
is zero, which is the DP's contract.  The product covers only the rows
the DP asks for, the longest prefix of states before any agent's
target.  Every point of a best response lies on its agent's grid, so
the sweep gathers the contribution rows of the best responses from its
stacked bumps instead of evaluating the bumps again; a gather is a
selection, so the rows are ``g_eval_batch``'s bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .._kernels import congestion_dp_batch
from ..problem import FEAS_TOL, QuadraticCostProblem, Sweep, _count, _frozen_weights, _real
from ..transport import MetricSpec


def smoothstep(u):
    """C-infinity monotone step: 0 below 0, 1 above 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    with np.errstate(over="ignore"):
        out[mid] = 1.0 / (1.0 + np.exp(1.0 / um - 1.0 / (1.0 - um)))
    return out


def bump_family(x, cells, k):
    """Evaluate the cell bumps and the target bump, stacked in one array.

    Returns the ``(cells + 1,) + x.shape`` array whose row ``j < cells``
    is the bump of spatial cell ``j + 1`` and whose last row is the
    smoothed before-target indicator ``h0``.  All of them are
    differences of one step taken at the ``cells + 1`` cell boundaries,
    ``R_j(x) = smoothstep(k*(x - j/cells) + 1)``, which rises over
    ``(j/cells - 1/k, j/cells)``: row ``j`` is ``R_j - R_{j+1}`` and the
    last row ``1 - R_cells``, each written in place.  As ``k >= cells``,
    at most one ``R_j`` is strictly between 0 and 1 at any ``x``, so each
    cell bump plateaus at 1 on ``[j/cells, (j+1)/cells - 1/k]``, and on
    ``[0, inf)`` (where ``R_0 = 1``) the cell rows sum to the last row
    bit for bit: the sum is ``(1 - r) + r``, ``1 - r`` or 0 for the one
    fractional value ``r``.
    """
    x = np.asarray(x, dtype=float)
    bumps = np.empty((cells + 1,) + x.shape)
    upper = smoothstep(k * x + 1.0)
    for j in range(cells):
        lower = smoothstep(k * (x - (j + 1) / cells) + 1.0)
        np.subtract(upper, lower, out=bumps[j])
        upper = lower
    np.subtract(1.0, upper, out=bumps[cells])
    return bumps


class CongestionProblem(QuadraticCostProblem):
    name = "congestion"
    config_keys = ("horizon", "steps", "vmax", "alpha", "cells", "smoothing", "grid_substeps")

    def __init__(self, horizon=1.0, steps=20, vmax=3.0, alpha=1.0, cells=5,
                 smoothing=20, grid_substeps=50):
        self.steps = _count(steps, "steps")
        self.cells = _count(cells, "cells")
        self.smoothing = _count(smoothing, "smoothing")
        self.grid_substeps = _count(grid_substeps, "grid_substeps")
        if self.smoothing < self.cells:
            raise ValueError("smoothing parameter must be at least the cell count")
        self.horizon = _real(horizon, "horizon", positive=True)
        self.vmax = _real(vmax, "vmax", positive=True)
        self.alpha = _real(alpha, "alpha")
        self.dt = self.horizon / self.steps
        self.dx = 1.0 / self.cells
        self.max_move = self.vmax * self.dt
        self.grid_step = self.max_move / self.grid_substeps
        self.hilbert_weights = _frozen_weights(np.concatenate([[1.0], np.full(self.cells * self.steps, self.dt)]))
        T = self.horizon
        # kappa of the quadratic cost, whose density penalty is (alpha/dx) sum_t dt beta_t^2
        self.grad_lipschitz = 2.0 * self.alpha / self.dx
        self.sup_g_norm = math.sqrt(T * T + T)
        self.sup_g_diff_sq = T * T + 4.0 * T
        self.sup_grad_norm = math.sqrt(1.0 + self.grad_lipschitz ** 2 * T)
        self.set_lipschitz = 2.0 * self.smoothing * math.sqrt(T * T + 4.0 * T)
        self.metric = MetricSpec("euclidean")

    # -- model ------------------------------------------------------------

    def bumps(self, x):
        return bump_family(x, self.cells, self.smoothing)

    def g_eval_batch(self, xs, trajs):
        trajs = np.asarray(trajs, dtype=float)
        bumps = self.bumps(trajs[:, : self.steps].ravel())
        return self._rows(bumps.reshape(self.cells + 1, len(trajs), self.steps))

    def _rows(self, bumps):
        """Contribution rows from the ``(cells + 1, N, steps)`` stacked bumps at the agents' positions.

        Row ``i`` is ``dt`` times the sum of agent ``i``'s target bumps,
        then its cell bumps in cell-major order.
        """
        g1 = self.dt * bumps[-1].sum(axis=1)
        g2 = bumps[:-1].transpose(1, 0, 2).reshape(len(g1), -1)
        return np.column_stack([g1, g2])

    # -- oracles ------------------------------------------------------------

    def bind(self, xs) -> "CongestionSweep":
        return CongestionSweep(self, xs)

    def best_response_batch(self, lam: np.ndarray, xs) -> np.ndarray:
        return self.bind(xs).best_response_rows(lam)[0]

    def feasible_batch(self, xs, trajs) -> np.ndarray:
        trajs = np.asarray(trajs, dtype=float)
        if trajs.shape[1:] != (self.steps + 1,):
            return np.zeros(len(trajs), dtype=bool)
        moves = np.diff(trajs, axis=1)
        return (
            (np.abs(trajs[:, 0] - np.asarray(xs, dtype=float)[:, 0]) <= FEAS_TOL)
            & np.all(moves >= -FEAS_TOL, axis=1)
            & np.all(moves <= self.max_move + FEAS_TOL, axis=1)
        )

    def transport_select_batch(self, xs, trajs, x2s) -> np.ndarray:
        # pure translation keeps every speed constraint
        shift = np.asarray(x2s, dtype=float)[:, :1] - np.asarray(xs, dtype=float)[:, :1]
        return np.asarray(trajs, dtype=float) + shift

    def initial_decision_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 1:
            raise ValueError(f"congestion parameters are one start per row, got shape {xs.shape}")
        return np.repeat(xs, self.steps + 1, axis=1)

    # -- reporting helpers ---------------------------------------------------

    def arrival_step(self, traj):
        """First time index at or past the target point, else None."""
        hit = np.flatnonzero(np.asarray(traj) >= 1.0 - 1e-12)
        return int(hit[0]) if len(hit) else None

    def max_speed_trajectory(self, x) -> np.ndarray:
        """Full-speed path halting at its first point past the target."""
        x0 = float(np.atleast_1d(x)[0])
        steps_to_target = max(0, math.ceil((1.0 - x0) / self.max_move - 1e-12))
        t = np.minimum(np.arange(self.steps + 1), steps_to_target)
        return x0 + self.grid_step * (t * self.grid_substeps)


class CongestionSweep(Sweep):
    """The best-response DP over the grids of one batch of starts, built state-major as the DP table.

    ``stacked`` holds the bumps at the grid points as they lie in memory,
    ``(cells + 1, n*N)``; ``positions`` is the ``(N, n)`` transpose.
    """

    def __init__(self, problem: CongestionProblem, xs):
        super().__init__(problem, xs)
        starts = np.array(xs, dtype=float).reshape(len(xs), -1)[:, 0]
        pos_cap = 1.0 + problem.max_move
        self.lengths = np.maximum(1, np.ceil((pos_cap - starts) / problem.grid_step).astype(np.intp) + 1)
        positions = starts + problem.grid_step * np.arange(self.lengths.max())[:, None]
        self.positions = positions.T
        self.arrivals = (positions < 1.0).sum(axis=0)
        self.stacked = problem.bumps(positions.ravel())

    def best_response_rows(self, lam: np.ndarray):
        p, n = self.problem, len(self.lengths)
        # coef[t] weighs the stacked bumps into the stage cost of step t:
        # dt * lam2[j, t] for cell j, then dt * lam1 for the target bump
        coef = np.empty((p.steps, p.cells + 1))
        coef[:, :-1] = lam[1:].reshape(p.cells, p.steps).T
        coef[:, -1] = lam[0]
        coef *= p.dt

        def fill_costs(out):
            # the finished stage costs of every step from one (steps x cells+1)
            # @ (cells+1 x live*N) gemm over the first live states, written
            # straight into the DP table: with dt and lam1 in coef, the table
            # is touched once and no cost array is made; a matrix-vector
            # product (gemv) per step would sum the bumps in another order and
            # move the last bits of the artifacts
            cols = out.shape[1] * n
            np.matmul(coef, self.stacked[:, :cols], out=out.reshape(p.steps, cols))

        _, paths = congestion_dp_batch(fill_costs, p.steps, p.grid_substeps, self.arrivals, self.lengths)
        # the bumps at the visited states, as (cells + 1, N, steps): state s
        # of agent i is column s*N + i of the stacked bumps
        flat = paths[:, : p.steps] * n + np.arange(n)[:, None]
        return np.take_along_axis(self.positions, paths, axis=1), p._rows(self.stacked.take(flat, axis=1))

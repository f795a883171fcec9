"""Hot numeric kernels, vectorized with numpy.

``resource_br`` solves the budgeted quadratic best response of the
resource game exactly, by water-filling; ``congestion_dp`` is the
forward-only trajectory DP of the congestion game.  Both are
deterministic, so seeded runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# -- budgeted quadratic best response (resource game) ------------------------
#
# minimize, over q in [0, 1/2]^M with dt*sum(q) <= x,
#     sum_t w_t (lam1*q_t^2 - top_t*q_t)        (w_t = dt*exp(-r*t*dt))
# For a budget multiplier theta >= 0 the minimizer is
#     q_t(theta) = clip((top_t - theta*ert_t) / (2*lam1), 0, 1/2),
# so spend(theta) = dt*sum(q(theta)) is piecewise linear and
# non-increasing, with kinks where some q_t leaves 1/2 or reaches 0.
# The kinks depend on (top, ert, lam1) only, which every agent shares:
# the multiplier of each budget is found by interpolating between them
# (water-filling; Boyd & Vandenberghe, Convex Optimization, Ex. 5.2).


def resource_br(top, ert, lam1, dt, budgets):
    """Exact best responses for a batch of budgets: returns ``(q, theta)``.

    ``q`` has one row per budget; ``theta`` is the smallest multiplier
    whose spend fits the budget.  The spend never exceeds the budget:
    where roundoff in the interpolation overshoots, theta is nudged up
    until it fits, never past the segment's upper kink, whose spend
    fits by construction.
    """
    top = np.asarray(top, dtype=float)
    ert = np.asarray(ert, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    denom = 2.0 * lam1

    def q_of(theta):
        return np.clip((top - theta[:, None] * ert) / denom, 0.0, 0.5)

    kinks = np.unique(np.concatenate([[0.0], (top - lam1) / ert, top / ert]).clip(min=0.0))
    spend = dt * q_of(kinks).sum(axis=1)
    # First kink whose spend fits: theta lies in [kinks[i-1], kinks[i]].  At
    # the last kink roundoff can leave a spend of a few ulps above a zero
    # budget (i == len); at twice that kink every q_t is exactly zero.
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
    return q, theta


# -- forward-only trajectory DP (congestion game) ----------------------------
#
# Positions live on a uniform per-agent grid; a step may advance 0..qmax
# grid cells.  cost[s, t] is the stage cost of sitting at grid state s
# at time t.  Tie-break among equal-value successors: farthest move
# while strictly below the target point, nearest (stay) once at or past
# it, so zero-cost regions yield the canonical halt-at-target path.


def congestion_dp(cost, qmax, below_target, s0):
    """Backward DP with sliding-window minima; returns (value, path)."""
    n, m = cost.shape
    value = np.zeros(n)
    choice = np.empty((m, n), dtype=np.int64)
    idx = np.arange(n)
    for t in range(m - 1, -1, -1):
        padded = np.concatenate([value, np.full(qmax, np.inf)])
        win = np.lib.stride_tricks.sliding_window_view(padded, qmax + 1)[:n]
        off_far = qmax - np.argmin(win[:, ::-1], axis=1)
        off_near = np.argmin(win, axis=1)
        off = np.where(below_target, off_far, off_near)
        choice[t] = idx + off
        value = cost[:, t] + win[idx, off]
    path = np.empty(m + 1, dtype=np.int64)
    path[0] = s0
    for t in range(m):
        path[t + 1] = choice[t, path[t]]
    return float(value[s0]), path

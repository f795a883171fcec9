"""Hot numeric kernels, vectorized with numpy.

``resource_br`` solves the budgeted quadratic best response of the
resource game exactly, by water-filling; ``congestion_dp_batch`` is the
forward-only trajectory DP of the congestion game, run for a whole
batch of agents at once.  Both are exact and deterministic, so seeded
runs are bit-reproducible.
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
# grid cells.  The stage cost of sitting at grid state s at time t is
# stage_cost(t)[i, s] for agent i.  Tie-break among equal-value
# successors: farthest move while strictly below the target point,
# nearest (stay) once at or past it, so zero-cost regions yield the
# canonical halt-at-target path.
#
# Every path starts at state 0, so at time t it is at most t*qmax cells
# along: backward step t computes only the reachable band of columns
# [0, b_t), b_t = min(n, t*qmax + 1).  Its windows read [0, b_t + qmax),
# which lies inside the band of step t + 1 (or in the +inf columns past
# the grid), so columns left stale past a band are never read.
#
# The minimum over the window [s, s + qmax] is built by doubling
# (a sparse table): windows of length 2a are pairs of windows of length
# a, and the last step overlaps two windows of the largest power of two
# that fits.  The arg-mins are carried as global column indices (one
# broadcast arange to start with), so a pass only selects; the offset
# column - s is formed once per step.  The farthest arg-min keeps the
# right window on ties (<), on the whole band; the nearest keeps the
# left one (<=) and is needed only from the first column c0 where some
# agent is at or past its target.  A step costs O(b_t log qmax) per
# agent instead of O(b_t qmax), and the minimum is a selection, so
# values are bit-identical to a successor-by-successor scan.


def _window_argmins(value, cols, qmax, c0):
    """Minima of ``value[:, s:s + qmax + 1]`` with their nearest and farthest columns.

    ``cols`` numbers the columns of ``value``.  The outputs have ``qmax``
    columns fewer than ``value``; callers end ``value`` with ``qmax``
    columns of +inf so that no window reaches past a grid.  ``far``
    covers every window, ``near`` those from ``c0`` on.
    """
    near, far = cols[None, c0:], cols[None, :]
    width, a = qmax + 1, 1
    while a < width:
        shift = min(a, width - a)
        lo, hi = value[:, :-shift], value[:, shift:]
        near = np.where(lo[:, c0:] <= hi[:, c0:], near[:, :-shift], near[:, shift:])
        far = np.where(lo < hi, far[:, :-shift], far[:, shift:])
        value = np.minimum(lo, hi)
        a += shift
    return value, near, far


def congestion_dp_batch(stage_cost, steps, qmax, below_target, lengths):
    """Backward DP for a batch of agents; returns ``(values, paths)``.

    Row ``i`` of the ``(N, n)`` arrays is agent ``i``'s grid: its first
    ``lengths[i]`` states are real, the rest padding.  ``stage_cost(t)``
    gives the ``(N, n)`` stage costs at time ``t``: finite on real states,
    finite or +inf on padding (padding states never enter a path: their
    value stays +inf).  Every path starts at state 0: ``paths[i]`` are
    the ``steps + 1`` visited states and ``values[i]`` its total cost.
    """
    below_target = np.asarray(below_target, dtype=bool)
    at_target = ~below_target
    n_agents, n = below_target.shape
    value = np.full((n_agents, n + qmax), np.inf)
    value[:, :n][np.arange(n) < np.asarray(lengths)[:, None]] = 0.0
    # first column where some agent is at or past its target
    reached = at_target.any(axis=0)
    c0 = int(reached.argmax()) if reached.any() else n
    cols = np.arange(n + qmax, dtype=np.min_scalar_type(n + qmax))
    choice = np.empty((steps, n_agents, n), dtype=np.min_scalar_type(qmax))
    for t in range(steps - 1, -1, -1):
        b = min(n, t * qmax + 1)
        c = min(c0, b)
        best, near, far = _window_argmins(value[:, : b + qmax], cols[: b + qmax], qmax, c)
        np.subtract(far, cols[:b], out=choice[t, :, :b], casting="unsafe")
        np.copyto(choice[t, :, c:b], near - cols[c:b], casting="unsafe", where=at_target[:, c:b])
        value[:, :b] = stage_cost(t)[:, :b] + best
    rows = np.arange(n_agents)
    paths = np.zeros((n_agents, steps + 1), dtype=np.intp)
    for t in range(steps):
        paths[:, t + 1] = paths[:, t] + choice[t, rows, paths[:, t]]
    return value[:, 0].copy(), paths

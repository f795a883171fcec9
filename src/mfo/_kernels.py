"""Hot numeric kernels, vectorized with numpy.

``resource_br`` solves the budgeted quadratic best response of the
resource game exactly, by water-filling; ``congestion_dp_batch`` is the
forward-only trajectory DP of the congestion game, run for a whole
batch of agents at once.  Both are exact and deterministic, so seeded
runs are bit-reproducible.
"""

from __future__ import annotations

import math

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
# one sweep computes the spend at every kink, and each budget's
# multiplier is interpolated between the two kinks around it
# (water-filling; Boyd & Vandenberghe, Convex Optimization, Ex. 5.2).
# The sweep takes the kinks in descending order, so its spends come out
# ascending, the abscissa np.interp needs, and the kinks whose spend fits
# a budget are a prefix of it: the last of them is the smallest.
#
# Every q row, at a kink or at a budget's multiplier, is computed by the
# same passes in the same order, and spend is non-increasing in theta in
# floating point too.  So the spend at a budget's upper kink hi fits the
# budget exactly as the sweep found it, and hi is a safe multiplier.
# The interpolated multiplier can overshoot by a few ulps of spend; it is
# raised by _GUARD_ULPS spacings of hi (capped at hi) for every agent at
# once, which settles nearly all of them, and a doubling loop nudges the
# rare agent that still overshoots, never past hi.
#
# The division by 2*lam1 is a multiplication by its reciprocal when
# 2*lam1 is a power of two whose reciprocal is finite (the solvers' dual
# points have lam1 = 1).  The reciprocal is then exact, so x/denom and
# x*(1/denom) are the correctly rounded values of one real number and
# agree bit for bit, subnormal results included.  A power of two below
# 2**-1023 has no finite reciprocal and keeps the division, as does
# every other denominator.  The choice is made once per call, so the
# sweep and every agent's rows still go through the same passes.

#: how far above the interpolated multiplier, in spacings of the upper
#: kink, every agent's multiplier starts
_GUARD_ULPS = 16.0


def _scaling(denom):
    """``(ufunc, operand)`` that applies ``x / denom`` to ``x``, bit for bit."""
    if math.frexp(denom)[0] == 0.5:     # a power of two
        recip = 1.0 / float(denom)
        if math.isfinite(recip):
            return np.multiply, recip
    return np.divide, denom


def _q_rows(theta, top, ert, scale, out):
    """Writes ``clip((top - theta[:, None] * ert) / denom, 0, 1/2)`` into ``out``, with no temporaries.

    ``scale = _scaling(denom)``.  ``maximum(out, 0.0)`` turns a ``-0.0``
    into ``+0.0``, so ``q`` holds no negative zero.
    """
    op, operand = scale
    np.multiply(theta[:, None], ert, out=out)
    np.subtract(top, out, out=out)
    op(out, operand, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 0.5, out=out)
    return out


def resource_br(top, ert, lam1, dt, budgets):
    """Exact best responses for a batch of budgets: returns ``(q, theta)``.

    ``q`` has one row per budget and never spends more than it.
    ``theta`` is the budget's multiplier: 0 where the budget is slack,
    else the multiplier interpolated between the kinks around the
    budget, raised by ``_GUARD_ULPS`` spacings of the upper kink ``hi``
    (and by twice as many more per round while the spend overshoots),
    never past ``hi``.  So it is not the smallest multiplier whose spend
    fits, but a few dozen spacings of ``hi`` at most above it on every
    instance measured, and a binding budget is spent to within roundoff.
    """
    top = np.asarray(top, dtype=float)
    ert = np.asarray(ert, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    scale = _scaling(2.0 * lam1)
    m = len(top)
    # the distinct kinks, sorted, then 2 * the last one: at the last kink
    # roundoff can leave a spend of a few ulps above a zero budget, and at
    # twice that kink every q_t is exactly zero
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
    # the spend at every kink but the last, largest kink first: ascending
    descending = kinks[-2::-1]
    rise = _q_rows(descending, top, ert, scale, np.empty((len(kinks) - 1, m))).sum(axis=1)
    rise *= dt
    # hi is the smallest kink whose spend fits, so a budget equal to a
    # plateau's spend gets the plateau's smallest kink; where none fits,
    # searchsorted gives 0 and hi is the last kink, 2 * the largest
    hi = kinks[::-1][np.searchsorted(rise, budgets, side="right")]
    theta = np.interp(budgets, rise, descending)
    step = _GUARD_ULPS * np.spacing(hi)
    theta += step
    np.minimum(theta, hi, out=theta)
    q = _q_rows(theta, top, ert, scale, np.empty((len(budgets), m)))
    spent = q.sum(axis=1)
    spent *= dt
    over = np.flatnonzero(spent > budgets)
    step = step[over]
    while over.size:
        step *= 2.0
        theta[over] = np.minimum(theta[over] + step, hi[over])
        q[over] = _q_rows(theta[over], top, ert, scale, np.empty((len(over), m)))
        still = (dt * q[over].sum(axis=1) > budgets[over]) & (theta[over] < hi[over])
        over, step = over[still], step[still]
    return q, theta


# -- forward-only trajectory DP (congestion game) ----------------------------
#
# Positions live on a uniform per-agent grid; a step may advance 0..qmax
# grid cells.  All agents share one value table, state-major and agent-
# minor: values[t, s, i] is agent i's optimal cost-to-go from grid state
# s at time t, of shape (steps + 1, n + qmax, N).  The last qmax state
# rows are +inf, so that no window reaches past a grid.
#
# Agent i's states before its target are the first arrivals[i] of its
# grid, and it pays exactly zero (+0.0 or -0.0) from there on.  A path
# never leaves those states, so their cost-to-go is 0.0 on a real state
# at every time, +inf on padding: the terminal row.  So
# fill_costs gets only the (steps, live, N) view values[:steps, :live],
# live = max(arrivals), and writes the cost of sitting at state s at time
# t there; the rows [live, n) get the terminal row at every step.  The
# backward pass then adds, in place, the window minimum of the next row:
#     values[t, s] = cost[t, s] + min(values[t + 1, s:s + qmax + 1]),
# built by doubling (a sparse table): windows of length 2a are pairs of
# windows of length a, and the last pass overlaps two windows of the
# largest power of two that fits, so a step costs O(b_t log qmax) per
# agent.  The agents of a state are one contiguous row of the table, so
# each pass is one np.minimum over two contiguous row blocks.  Every path
# starts at state 0, so at time t it is at most t*qmax cells along: step
# t computes only the band [0, b_t), b_t = min(live, t*qmax + 1).  Its
# windows read [0, b_t + qmax), which lies inside the band of step t + 1,
# in the rows [live, n) or in the +inf rows, so the costs left past a
# band are never read.
#
# The forward pass recovers the policy along each path only.  One
# sliding-window view of the table, windows[t, s, i] = values[t, s:s +
# qmax + 1, i], makes each agent's successors one gather at time t:
# windows[t + 1, s, agent], with no copy of the table and no index
# arithmetic.  The agent moves to the farthest state reaching the
# window's minimum while strictly below the target point (s < arrivals,
# the first minimum of the reversed window), the nearest (stay) once at
# or past it (the first minimum, argmin's own tie-break), so zero-cost
# regions yield the canonical halt-at-target path.  Once every agent has
# arrived, every path stays where it is, so the forward pass ends there.
# The minimum is a selection, so values and paths are bit-identical to a
# successor-by-successor scan with that tie-break over the whole grid.
# Memory is the table alone: (steps + 1) * (n + qmax) * N doubles.


def congestion_dp_batch(fill_costs, steps, qmax, arrivals, lengths):
    """Minimal-time DP for a batch of agents; returns ``(values, paths)``.

    Agent ``i``'s grid has ``lengths[i]`` real states (the rest of ``n =
    max(lengths)`` is padding), and its first ``arrivals[i]`` lie before
    its target; it pays exactly zero (+0.0 or -0.0) from there on.
    ``fill_costs(out)`` writes the stage costs of the first ``live =
    max(arrivals)`` states into the ``(steps, live, N)`` view ``out``:
    ``out[t, s, i]`` is agent ``i``'s cost of state ``s`` at time ``t``,
    finite on real states, finite or +inf on padding (padding states
    never enter a path).  Every path starts at state 0: ``paths[i]`` are
    the ``steps + 1`` visited states and ``values[i]`` its total cost.
    """
    arrivals, lengths = np.asarray(arrivals), np.asarray(lengths)
    n_agents, n, live = len(lengths), int(lengths.max()), int(arrivals.max())
    values = np.empty((steps + 1, n + qmax, n_agents))
    values[:, n:] = np.inf
    values[steps, :n] = np.where(np.arange(n)[:, None] < lengths, 0.0, np.inf)
    values[:steps, live:n] = values[steps, live:n]
    fill_costs(values[:steps, :live])
    for t in range(steps - 1, -1, -1):
        b = min(live, t * qmax + 1)
        best = values[t + 1, : b + qmax]
        width, a = qmax + 1, 1
        while a < width:
            shift = min(a, width - a)
            best = np.minimum(best[:-shift], best[shift:])
            a += shift
        values[t, :b] += best
    # the view sliding_window_view(values, qmax + 1, axis=1) gives, from one
    # constructor call bounded by its buffer check: sliding_window_view makes
    # dozens of small Python objects while the table is live, and one that
    # grows the heap above the table makes every later table grow it again
    windows = np.ndarray((steps + 1, n, n_agents, qmax + 1), buffer=values,
                         strides=values.strides + values.strides[1:2])
    agents = np.arange(n_agents)
    paths = np.zeros((n_agents, steps + 1), dtype=np.intp)
    for t in range(steps):
        s = paths[:, t]
        moving = s < arrivals
        if not moving.any():
            paths[:, t + 1:] = s[:, None]
            break
        ahead = windows[t + 1, s, agents]
        farthest = qmax - ahead[:, ::-1].argmin(axis=1)
        paths[:, t + 1] = s + np.where(moving, farthest, ahead.argmin(axis=1))
    return values[0, 0].copy(), paths

"""Exact optimal transport between empirical marginals and the bridge.

The bridging construction turns an approximate solution for one
prescribed marginal into one for another nearby marginal, in one pass
over index arrays:

1. couple the first marginal of the pair measure with the new marginal
   by an exactly optimal transport plan,
2. glue the plan onto the pair measure: one row per (pair atom, plan
   entry at the atom's parameter), found by index arithmetic on the
   plan's rows, with no intermediate measure,
3. move every row's decision to the entry's target parameter through
   the problem's transport-selection oracle, which is required to
   change the contribution vector by at most ``set_lipschitz`` times
   the plan entry's ground distance, and merge the rows into the
   bridged pair measure.

Plans are solved exactly: monotone matching for one-dimensional
Euclidean ground cost, shortest augmenting paths for uniform equal-size
marginals, and a transportation LP (HiGHS) otherwise.  Entropic
approximations are deliberately avoided: the aggregate-shift
certificates emitted here feed error bounds that assume exact
optimality.  Every plan comes with dual potentials (the assignment's
and the LP's own, the Kantorovich potential for a monotone plan), and
:func:`ot_solve` checks each against them before returning it.

scipy is needed only when :func:`ot_solve` builds a plan by the HiGHS
LP, which it imports then, on first use; monotone and assignment plans
are built with numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (MARGINAL_TOL, EmpiricalMeasure, _atom_groups, _is_uniform, _marginal_groups,
                       _require_space, first_marginal)
from .problem import OracleError, _certify, _check_pairs, _norm

#: tolerance on a plan's dual certificate: the most negative reduced cost
#: and the gap between the plan cost and the dual value
DUAL_TOL = 1e-9
#: additive slack when checking the selection oracle's shift bound
SELECT_TOL = 1e-7


def _node_ids(X, n_nodes):
    """Origin and destination node ids of ``graph_hop`` points; each must be a node exactly."""
    if X.shape[1] != 2:
        raise ValueError(f"graph_hop points are (origin, destination) rows, got shape {X.shape}")
    ok = np.all((X == np.floor(X)) & (X >= 0) & (X < n_nodes), axis=1)
    if not ok.all():
        raise ValueError(f"point {X[np.argmin(ok)]} is not a pair of node ids in [0, {n_nodes})")
    return X.astype(np.intp).T


@dataclass(frozen=True)
class MetricSpec:
    """Ground metric on the parameter space.

    kinds:
      * ``euclidean``       -- ``|x - x2|_2``
      * ``sqrt_euclidean``  -- ``sqrt(|x - x2|_2)`` (a metric, since the
        square root is concave and vanishes at zero)
      * ``graph_hop``       -- parameters are (origin, destination) node
        id pairs; distance is the sum of hop distances between origins
        and between destinations (``node_distances`` required)
    """

    kind: str = "euclidean"
    node_distances: np.ndarray | None = None

    def pairwise(self, X0: np.ndarray, X1: np.ndarray) -> np.ndarray:
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        if self.kind in ("euclidean", "sqrt_euclidean"):
            diff = X0[:, None, :] - X1[None, :, :]
            d = np.sqrt(np.sum(diff * diff, axis=-1))
            return np.sqrt(d) if self.kind == "sqrt_euclidean" else d
        if self.kind == "graph_hop":
            if self.node_distances is None:
                raise ValueError("graph_hop metric needs node_distances")
            hops = np.asarray(self.node_distances, dtype=float)
            (o0, d0), (o1, d1) = _node_ids(X0, len(hops)), _node_ids(X1, len(hops))
            return hops[np.ix_(o0, o1)] + hops[np.ix_(d0, d1)]
        raise ValueError(f"unknown metric kind {self.kind!r}")


@dataclass(frozen=True)
class Coupling:
    """Sparse transport plan between two empirical marginals."""

    source: EmpiricalMeasure
    target: EmpiricalMeasure
    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    dists: np.ndarray  # ground distance of each entry's pair of atoms

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=int))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=int))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "dists", np.asarray(self.dists, dtype=float))
        if np.any(self.masses < -1e-15):
            raise ValueError("coupling masses must be nonnegative")
        res = self.marginal_residuals()
        if max(res) > MARGINAL_TOL:
            raise ValueError(f"coupling marginal residuals {res} exceed {MARGINAL_TOL}")

    @property
    def cost(self) -> float:
        return float(np.sum(self.masses * self.dists))

    def marginal_residuals(self):
        row_sums = np.bincount(self.rows, weights=self.masses, minlength=len(self.source))
        col_sums = np.bincount(self.cols, weights=self.masses, minlength=len(self.target))
        return (
            float(np.max(np.abs(row_sums - self.source.weights))),
            float(np.max(np.abs(col_sums - self.target.weights))),
        )

    def to_json_dict(self):
        entries = zip(self.rows.tolist(), self.cols.tolist(), self.masses.tolist())
        return {"cost": self.cost, "entries": [list(e) for e in entries]}


def _monotone_1d(m0, m1):
    # north-west corner walk over sorted atoms; optimal for convex costs on R
    i0 = np.argsort(m0.xs[:, 0], kind="stable")
    i1 = np.argsort(m1.xs[:, 0], kind="stable")
    rows, cols, masses = [], [], []
    a = m0.weights[i0].copy()
    b = m1.weights[i1].copy()
    i = j = 0
    while i < len(a) and j < len(b):
        m = min(a[i], b[j])
        if m > 0:
            rows.append(i0[i])
            cols.append(i1[j])
            masses.append(m)
        a[i] -= m
        b[j] -= m
        if a[i] <= 1e-16:
            i += 1
        if j < len(b) and b[j] <= 1e-16:
            j += 1
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(masses, dtype=float)


def _monotone_potential(m0, m1):
    """The Kantorovich potential of ``|x - x2|`` between two marginals on R, as ``(u, v)``.

    ``phi`` is 0 at the least point of the sorted union of the supports,
    and on each gap between consecutive points its slope is
    ``-sign(F0 - F1)``, the two cumulative distributions on the gap.  It
    is 1-Lipschitz, so ``u = phi`` on m0's points and ``v = -phi`` on
    m1's points have no negative reduced cost, and its dual value
    ``u.m0 + v.m1`` is the integral of ``|F0 - F1|``, the distance itself.
    """
    n0 = len(m0)
    points, where = np.unique(np.concatenate([m0.xs[:, 0], m1.xs[:, 0]]), return_inverse=True)
    excess = np.cumsum(np.bincount(where[:n0], weights=m0.weights, minlength=len(points))
                       - np.bincount(where[n0:], weights=m1.weights, minlength=len(points)))
    phi = np.zeros(len(points))
    np.cumsum(-np.sign(excess[:-1]) * np.diff(points), out=phi[1:])
    return phi[where[:n0]], -phi[where[n0:]]


def _transport_lp(m0, m1, D):
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n0, n1 = D.shape
    nvar = n0 * n1
    ii = np.repeat(np.arange(n0), n1)
    jj = np.tile(np.arange(n1), n0)
    var = np.arange(nvar)
    rows_a = np.concatenate([ii, n0 + jj])
    cols_a = np.concatenate([var, var])
    data = np.ones(2 * nvar)
    A_eq = coo_matrix((data, (rows_a, cols_a)), shape=(n0 + n1, nvar)).tocsr()
    b_eq = np.concatenate([m0.weights, m1.weights])
    # HiGHS's default tolerances (1e-7) accept bases whose reduced costs fail
    # the DUAL_TOL check that ot_solve applies to every plan
    res = linprog(D.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n0, n1)
    plan[plan < 1e-15] = 0.0
    rows, cols = np.nonzero(plan)
    duals = res.eqlin.marginals
    return rows, cols, plan[rows, cols], duals[:n0], duals[n0:]


def _assignment(D):
    """Optimal assignment of a square cost matrix, with its dual potentials.

    Returns ``(cols, u, v)``: row ``i`` takes column ``cols[i]``, every
    reduced cost ``D - u[:, None] - v`` is nonnegative, and it is zero on
    the assignment, so ``sum(u + v)`` is the optimal cost (up to
    roundoff).  Shortest augmenting paths (Crouse 2016) start from a
    column reduction (Jonker & Volgenant 1987): ``u = 0``, ``v`` the
    column minima, and each column's cheapest row takes the column if
    the row is still free.  Each free row then grows one Dijkstra tree
    over the reduced costs, one vectorised scan per column reached,
    until the nearest column is free; the potentials of the tree move so
    that its path stays tight, and the path augments.
    """
    n = len(D)
    u = np.zeros(n)
    v = D.min(axis=0)
    row4col = np.full(n, -1)
    col4row = np.full(n, -1)
    rows, first = np.unique(D.argmin(axis=0), return_index=True)
    col4row[rows] = first
    row4col[first] = rows
    free = np.flatnonzero(row4col < 0)
    dist = np.empty(n)  # tentative distance of each column not yet scanned, inf once scanned
    w = np.empty(n)  # v, with -inf at scanned columns so that no scan lowers them again
    scan = np.empty(n)
    for r in np.flatnonzero(col4row < 0):
        dist.fill(np.inf)
        w[:] = v
        # rows of the tree in scan order, the distance at which each was reached,
        # and for each scanned column the number of rows scanned before it
        tree, reached, before = [r], [0.0], {}
        i, low = r, 0.0
        while True:
            np.subtract(D[i], w, out=scan)
            scan += low - u[i]
            np.minimum(dist, scan, out=dist)
            j = dist.argmin()
            low = dist[j]
            # a free column at the lowest distance ends the search
            at_free = dist[free]
            k = at_free.argmin()
            if at_free[k] <= low:
                j = free[k]
                break
            dist[j] = np.inf
            w[j] = -np.inf
            before[j] = len(tree)
            i = row4col[j]
            tree.append(i)
            reached.append(low)
        tree = np.array(tree)
        reached = np.array(reached)
        scanned = col4row[tree[1:]]
        # walk back from the free column: each column's predecessor is the first
        # row, among those scanned before it, that gave its distance (the same sum)
        offset = reached - u[tree]
        m = len(tree)
        while True:
            i = tree[np.argmin((D[tree[:m], j] - v[j]) + offset[:m])]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == r:
                break
            m = before[j]
        free = free[row4col[free] < 0]
        u[r] += low
        u[tree[1:]] += low - reached[1:]
        v[scanned] -= low - reached[1:]
    return col4row, u, v


def _finite_pairwise(metric: MetricSpec, X0: np.ndarray, X1: np.ndarray) -> np.ndarray:
    """The finite-metric rule of every plan: ``metric.pairwise(X0, X1)``, of which no entry may be infinite."""
    D = metric.pairwise(X0, X1)
    far = np.argwhere(~np.isfinite(D))
    if len(far):
        raise ValueError(f"the ground metric is not finite on the support pairs: "
                         f"the distance from x={X0[far[0, 0]]} to x={X1[far[0, 1]]} is infinite")
    return D


def ot_solve(m0: EmpiricalMeasure, m1: EmpiricalMeasure, metric: MetricSpec) -> Coupling:
    """Exactly optimal coupling of two empirical marginals.

    The cost of the returned plan is the Kantorovich-Rubinstein
    distance of the marginals under the ground metric.  Every plan is
    checked against dual potentials ``(u, v)``: the assignment's and the
    LP's own, and for a monotone plan on R the Kantorovich potential of
    :func:`_monotone_potential`.  Every reduced cost ``d(x, x2) - u - v``
    must be at least ``-DUAL_TOL``, and the plan cost within ``DUAL_TOL``
    of the dual value ``u.m0 + v.m1``; a plan that fails raises
    ``RuntimeError``.  Marginals of parameters that differ in width, or
    with a pair of atoms at infinite distance, raise ``ValueError``.
    """
    _require_space(m0, "X", "m0")
    _require_space(m1, "X", "m1")
    if m0.xs.shape[1] != m1.xs.shape[1]:
        raise ValueError(f"m0 has parameters of width {m0.xs.shape[1]}, m1 of width {m1.xs.shape[1]}")
    D = _finite_pairwise(metric, m0.xs, m1.xs)
    if metric.kind == "euclidean" and m0.xs.shape[1] == 1:
        # optimal for |x - x2| by monotonicity
        rows, cols, masses = _monotone_1d(m0, m1)
        u, v = _monotone_potential(m0, m1)
    elif len(m0) == len(m1) and _is_uniform(m0) and _is_uniform(m1):
        cols, u, v = _assignment(D)
        rows = np.arange(len(cols))
        masses = np.full(len(cols), 1.0 / len(m0))
    else:
        rows, cols, masses, u, v = _transport_lp(m0, m1, D)
    rho = Coupling(m0, m1, rows, cols, masses, D[rows, cols])
    slack = float(np.min(D - u[:, None] - v))
    gap = rho.cost - float(m0.weights @ u + m1.weights @ v)
    if slack < -DUAL_TOL or abs(gap) > DUAL_TOL:
        raise RuntimeError(f"transport plan failed its optimality check: least reduced cost {slack:.3e}, "
                           f"plan cost minus dual value {gap:.3e} (tolerance {DUAL_TOL})")
    return rho


@dataclass(frozen=True)
class BridgeResult:
    """Bridged measure with the coupling, shift diagnostics and certified bound (see :func:`bridge`)."""

    measure: EmpiricalMeasure
    coupling: Coupling
    transport_cost: float
    aggregate_shift: float
    objective_before: float
    objective_after: float
    eps0: float
    eta: float
    gap_after: float
    lower_bound_after: float


def bridge(mu0: EmpiricalMeasure, m1: EmpiricalMeasure, problem) -> BridgeResult:
    """Transform a solution for one marginal into one for another.

    Couples the first marginal ``m0`` of ``mu0`` with ``m1`` by an
    optimal plan under ``problem.metric``, glues the plan onto ``mu0``
    (one row per atom of ``mu0`` and plan entry at its parameter, of
    weight ``w_i * rho(x, x2) / m0(x)``; zero-weight atoms are ignored)
    and moves every decision through the selection oracle.  Each
    selected decision must be feasible at ``x2`` and move the
    contribution by at most ``set_lipschitz * d(x, x2)`` (plus
    :data:`SELECT_TOL`); violations raise
    :class:`~mfo.problem.OracleError`.  The output has first marginal
    ``m1`` and its aggregate moves by at most ``set_lipschitz`` times
    the transport cost ``d1``.  ``eps0``, the gap of ``mu0`` for ``m0``
    under ``problem``, is certified here; the output is then
    ``eta``-optimal for ``m1`` with
    ``eta = eps0 + 2 L_sel (sup_grad + L sup_g) d1``, the a-priori
    bound.  ``gap_after`` certifies the output itself: its duality gap
    for ``m1``, from one best-response sweep over ``m1``, so that
    ``lower_bound_after = objective_after - gap_after`` lies below the
    optimal value for ``m1``.  Before any plan is solved, an ``m1`` that
    ``problem.initial_decision_batch`` refuses raises its ``ValueError``,
    and an infeasible atom of ``mu0`` an
    :class:`~mfo.problem.OracleError`.
    """
    problem.initial_decision_batch(m1.xs)
    _check_pairs(problem, mu0, "mu0")
    return _bridge(mu0, m1, problem)


def _bridge(mu0: EmpiricalMeasure, m1: EmpiricalMeasure, problem) -> BridgeResult:
    """:func:`bridge` on a checked ``m1`` and ``mu0``: ``mfo bridge`` checks them itself, under its flags."""
    m0, group = _marginal_groups(mu0)
    # the plan first: an LP plan or the traffic hop metric imports scipy, and
    # doing so beside the contribution rows below leaves a larger peak RSS
    rho = ot_solve(m0, m1, problem.metric)
    G_mu0 = problem.g_eval_batch(mu0.xs, mu0.ys)
    beta0 = mu0.weights @ G_mu0
    eps0 = _certify(problem, beta0, problem.bind(m0.xs), m0.weights).gap
    # plan entries sorted by marginal atom (stably), then one glued row per
    # (mu0 atom, entry at its marginal atom) in mu0 order, then plan order
    entries = np.argsort(rho.rows, kind="stable")
    # a zero-weight atom of mu0 has the group len(m0), which no entry leaves
    per_group = np.bincount(rho.rows, minlength=len(m0) + 1)
    counts = per_group[group]
    i = np.repeat(np.arange(len(mu0)), counts)
    g = group[i]
    rank = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    e = entries[np.cumsum(per_group)[g] - per_group[g] + rank]
    weights = mu0.weights[i] * (rho.masses[e] / m0.weights[g])
    if abs(weights.sum() - 1.0) > MARGINAL_TOL:
        raise RuntimeError("glued plan lost mass")
    x2s = m1.xs[rho.cols[e]]
    ys2 = np.asarray(problem.transport_select_batch(mu0.xs[i], mu0.ys[i], x2s), dtype=float)
    bad = np.flatnonzero(~np.asarray(problem.feasible_batch(x2s, ys2), dtype=bool))
    if len(bad):
        raise OracleError(f"transport_select returned an infeasible decision at x2={x2s[bad[0]]}")
    diff = problem.g_eval_batch(x2s, ys2) - G_mu0[i]
    shift = np.sqrt(np.maximum(np.sum(problem.hilbert_weights * diff * diff, axis=1), 0.0))
    d = rho.dists[e]
    allowed = problem.set_lipschitz * d + SELECT_TOL
    bad = np.flatnonzero(~(shift <= allowed))  # a non-finite shift is a violation too
    if len(bad):
        k = bad[0]
        raise OracleError(f"selection moved the contribution by {shift[k]:.3e} > {allowed[k]:.3e} "
                          f"for d(x, x2)={d[k]:.3e}")
    # merge on the target's atom under m1's own rule, then on the decision:
    # merging on (x2, y) compares sort neighbours across near-equal targets
    # and can chain decisions that mu0 keeps apart; the target's group, not
    # its plan column, still merges rows glued onto exact duplicates in m1
    target = _atom_groups((m1.xs,), m1.weights)[0][rho.cols[e]]
    glued = EmpiricalMeasure("Z", xs=x2s, ys=ys2, weights=weights, validate=False)
    mu1 = glued._collapse(*_atom_groups((target[:, None].astype(float), ys2), weights))
    if not first_marginal(mu1).allclose(m1, tol=MARGINAL_TOL):
        raise RuntimeError("bridged measure does not carry the requested marginal")
    # the merged atoms are decisions checked feasible above
    beta1 = mu1.weights @ problem.g_eval_batch(mu1.xs, mu1.ys)
    eta = eps0 + 2.0 * problem.set_lipschitz * (
        problem.sup_grad_norm + problem.grad_lipschitz * problem.sup_g_norm
    ) * rho.cost
    after = _certify(problem, beta1, problem.bind(m1.xs), m1.weights)
    return BridgeResult(
        measure=mu1,
        coupling=rho,
        transport_cost=rho.cost,
        aggregate_shift=_norm(problem, beta1 - beta0),
        objective_before=problem.f_value(beta0),
        objective_after=after.primal_value,
        eps0=eps0,
        eta=eta,
        gap_after=after.gap,
        lower_bound_after=after.primal_value - after.gap,
    )

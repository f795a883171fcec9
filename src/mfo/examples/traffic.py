"""Static traffic assignment on a directed network (Wardrop equilibria).

Agents are origin-destination pairs; decisions are admissible paths,
represented by their edge-indicator vectors so the contribution map is
the identity on indicators.  The population cost sums one convex edge
potential per edge (the primitive of its latency), making the gradient
the vector of edge latencies at the current flows: minimizers are
exactly the states where every used path of an origin-destination pair
is a cheapest admissible path.

Path sets are enumerated up front (simple paths up to a hop bound) and
kept in lexicographic edge-id order, so best responses are exact
argmins over an explicit finite set and ties break deterministically.
One table holds every pair's path indicators, zero-padded to one path
count, with ``+inf`` padding costs that keep the argmin and the
feasibility test off the padding; it serves every oracle.  ``bind``
looks up the pair of each parameter once, in a :class:`TrafficSweep`
that a solver runs at every dual point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Callable

import numpy as np

from ..problem import FEAS_TOL, MfoProblem, Sweep, _count, _frozen_weights, aggregate
from ..transport import MetricSpec


_POW = np.frompyfunc(math.pow, 2, 1)


def _pow(x, p):
    """``x ** p`` elementwise through the C library's ``pow``.

    numpy's array power takes a SIMD path on some CPUs whose last bit
    can differ from ``pow``; this keeps BPR costs the same on every
    machine and for scalar and array arguments alike.
    """
    return np.asarray(_POW(x, p), dtype=float)


def _affine_latency(q, a, b):
    return a * np.maximum(q, 0.0) + b


def _affine_potential(q, a, b):
    # 0.5 * a * (qp * qp) + b * q, in place; products and sums commute exactly
    out = np.maximum(q, 0.0)
    out *= out
    out *= 0.5 * a
    out += b * q
    return out


def _bpr_latency(q, t0, c, p):
    return t0 * (1.0 + c * _pow(np.maximum(q, 0.0), p))


def _bpr_potential(q, t0, c, p):
    qp = np.maximum(q, 0.0)
    return t0 * (q + c * _pow(qp, p + 1) / (p + 1))


@dataclass(frozen=True)
class EdgeKind:
    """One latency family: its formulas take flows and coefficient arrays alike.

    ``potential`` is the primitive of ``latency``, extended with the
    constant latency below zero flow; ``slope_bound`` bounds the
    latency's slope on [0, 1]; ``admissible`` tells, in closed form,
    whether finite coefficients make the latency nonnegative and
    non-decreasing on [0, 1].
    """

    coeff_names: tuple
    latency: Callable
    potential: Callable
    slope_bound: Callable
    admissible: Callable


#: the supported latency families, by ``phi_kind``
EDGE_KINDS = {
    # a q + b
    "affine": EdgeKind(("a", "b"), _affine_latency, _affine_potential, lambda a, b: abs(a),
                       lambda a, b: a >= 0 and b >= 0),
    # t0 (1 + c q^p), p >= 1
    "bpr": EdgeKind(("t0", "c", "p"), _bpr_latency, _bpr_potential, lambda t0, c, p: abs(t0 * c * p),
                    lambda t0, c, p: t0 >= 0 and t0 * c >= 0),
}


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    phi_kind: str          # a key of EDGE_KINDS
    coeffs: tuple          # that kind's coefficients, in the order of its coeff_names

    def __post_init__(self):
        name = f"edge {self.tail}->{self.head}"
        kind = EDGE_KINDS.get(self.phi_kind)
        if kind is None:
            raise ValueError(f"{name}: unknown latency kind {self.phi_kind!r}; "
                             f"supported: {', '.join(EDGE_KINDS)}")
        if len(self.coeffs) != len(kind.coeff_names):
            raise ValueError(f"{name}: {self.phi_kind} takes {len(kind.coeff_names)} coefficients "
                             f"({', '.join(kind.coeff_names)}), got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        # below 1 the slope of q^p is unbounded at 0, so no grad_lipschitz exists
        if self.phi_kind == "bpr" and not self.coeffs[2] >= 1.0:
            raise ValueError(f"{name}: BPR exponent p={self.coeffs[2]} must be at least 1")
        named = ", ".join(f"{c}={v}" for c, v in zip(kind.coeff_names, self.coeffs))
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"{name}: coefficients must be finite, got {named}")
        if not kind.admissible(*self.coeffs):
            raise ValueError(f"{name}: {self.phi_kind} latency with {named} is not nonnegative "
                             "and non-decreasing on [0, 1]")

    def latency(self, q):
        return EDGE_KINDS[self.phi_kind].latency(q, *self.coeffs)

    def potential(self, q):
        return EDGE_KINDS[self.phi_kind].potential(q, *self.coeffs)

    def latency_slope_bound(self):
        return EDGE_KINDS[self.phi_kind].slope_bound(*self.coeffs)


def _enumerate_paths(n_nodes, edges, origin, dest, hop_bound):
    """All simple paths as edge-id tuples, lexicographic by edge ids."""
    out_edges = [[] for _ in range(n_nodes)]
    for e, edge in enumerate(edges):
        out_edges[edge.tail].append(e)
    for lst in out_edges:
        lst.sort()
    paths = []

    def walk(node, visited, prefix):
        if node == dest:
            paths.append(tuple(prefix))
            return
        if len(prefix) >= hop_bound:
            return
        for e in out_edges[node]:
            nxt = edges[e].head
            if nxt in visited:
                continue
            walk(nxt, visited | {nxt}, prefix + [e])

    walk(origin, {origin}, [])
    paths.sort()
    return paths


class TrafficProblem(MfoProblem):
    name = "traffic"
    config_keys = ("network", "hop_bound")

    def __init__(self, n_nodes, edges, od_pairs, hop_bound=None):
        self.n_nodes = int(n_nodes)
        self.edges = list(edges)
        self.od_pairs = [tuple(int(v) for v in od) for od in od_pairs]
        # no bound: every simple path
        self.hop_bound = self.n_nodes - 1 if hop_bound is None else _count(hop_bound, "hop_bound")
        ends = [(f"edge {e.tail}->{e.head}", (e.tail, e.head)) for e in self.edges]
        for name, nodes in ends + [(f"origin-destination pair {od}", od) for od in self.od_pairs]:
            if not all(0 <= v < self.n_nodes for v in nodes):
                raise ValueError(f"{name}: node ids must lie in [0, {self.n_nodes})")
        n_e = len(self.edges)
        # (kind, edge ids, coefficient columns) for each kind present
        self._groups = []
        for kind_name, kind in EDGE_KINDS.items():
            ids = [e for e, edge in enumerate(self.edges) if edge.phi_kind == kind_name]
            if ids:
                self._groups.append((kind, np.array(ids), tuple(np.array([self.edges[e].coeffs for e in ids]).T)))
        # one family covers every edge, in id order: its formulas take the whole vector
        self._one_kind = len(self._groups) == 1
        self.paths = {od: _enumerate_paths(self.n_nodes, self.edges, *od, self.hop_bound) for od in self.od_pairs}
        counts = [len(self.paths[od]) for od in self.od_pairs]
        if 0 in counts:
            raise ValueError(f"origin-destination pair {self.od_pairs[counts.index(0)]} is disconnected")
        max_len = max([1] + [len(p) for paths in self.paths.values() for p in paths])
        # each pair's path indicators, zero-padded to one path count; a
        # padding row costs +inf, so neither the argmin nor a match takes it
        self._od_keys = np.array(self.od_pairs, dtype=float).view(np.complex128)[:, 0]
        self._path_table = np.zeros((len(self.od_pairs), max(counts), n_e))
        self._pad_costs = np.where(np.arange(max(counts)) < np.array(counts)[:, None], 0.0, np.inf)
        for i, od in enumerate(self.od_pairs):
            for j, p in enumerate(self.paths[od]):
                self._path_table[i, j, list(p)] = 1.0
        self._path_table.setflags(write=False)
        # each pair's indicator rows, a read-only view of the table
        self.indicators = {od: self._path_table[i, :n] for i, (od, n) in enumerate(zip(self.od_pairs, counts))}
        self.hilbert_weights = _frozen_weights(np.ones(n_e))
        self.grad_lipschitz = max(e.latency_slope_bound() for e in self.edges)
        self.sup_g_norm = math.sqrt(max_len)
        self.sup_g_diff_sq = 2.0 * max_len
        lat_at_one = self._edgewise("latency", np.ones(n_e)).tolist()
        self.sup_grad_norm = math.sqrt(reduce(add, (v ** 2 for v in lat_at_one), 0.0))  # as f_value sums
        self.set_lipschitz = math.sqrt(2.0 * max_len)

    @cached_property
    def metric(self) -> MetricSpec:
        """Undirected hop counts between nodes, ``inf`` between components.

        Built on first access: only transport plans read it, so building the game and solving load no scipy.
        """
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        tails = [e.tail for e in self.edges]
        heads = [e.head for e in self.edges]
        adjacency = csr_matrix((np.ones(len(self.edges)), (tails, heads)), shape=(self.n_nodes, self.n_nodes))
        return MetricSpec("graph_hop", node_distances=shortest_path(adjacency, directed=False, unweighted=True))

    @classmethod
    def from_config(cls, cfg: dict) -> "TrafficProblem":
        network = cfg.get("network", "pigou")
        if network == "pigou":
            built = pigou_network()
        elif network == "grid10":
            built = grid_network()
        elif isinstance(network, dict) and {"edges_csv", "od_csv"} <= network.keys():
            built = load_network(network["edges_csv"], network["od_csv"])
        else:
            raise ValueError(f"unknown traffic network {network!r}; use pigou, grid10 or "
                             "a block with edges_csv and od_csv")
        n_nodes, edges, od_pairs = built
        return cls(n_nodes, edges, od_pairs, hop_bound=cfg.get("hop_bound"))

    def describe(self):
        # the network itself, not the config entry that named it
        return {**self._constants(), "n_nodes": self.n_nodes, "n_edges": len(self.edges),
                "od_pairs": self.od_pairs, "hop_bound": self.hop_bound}

    # -- model ------------------------------------------------------------

    def _od_index(self, xs) -> np.ndarray:
        """Row index into ``od_pairs`` of each parameter; each must name a pair exactly."""
        xs = np.ascontiguousarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 2:
            raise ValueError(f"traffic parameters are (origin, destination) rows, got shape {xs.shape}")
        # a row read as one complex number compares both nodes at once
        hits = xs.view(np.complex128) == self._od_keys
        found = hits.any(axis=1)
        if not found.all():
            raise ValueError(f"x={xs[np.argmin(found)]} is not a configured origin-destination pair")
        return hits.argmax(axis=1)

    def g_eval_batch(self, xs, ys):
        return np.asarray(ys, dtype=float)

    def _edgewise(self, formula: str, q) -> np.ndarray:
        """The ``formula`` ("latency" or "potential") of every edge; edges on the last axis of ``q``."""
        if self._one_kind:
            kind, _, coeffs = self._groups[0]
            return getattr(kind, formula)(q, *coeffs)
        out = np.empty(q.shape)
        for kind, ids, coeffs in self._groups:
            out[..., ids] = getattr(kind, formula)(q[..., ids], *coeffs)
        return out

    def f_value(self, beta: np.ndarray) -> float | np.ndarray:
        # left to right, edge by edge (sum() compensates float sums from Python 3.12);
        # a stack adds its edges' columns in the same order
        pot = self._edgewise("potential", beta)
        if pot.ndim == 1:
            return reduce(add, pot.tolist(), 0.0)
        return reduce(add, np.moveaxis(pot, -1, 0), 0.0)

    def f_grad(self, beta: np.ndarray) -> np.ndarray:
        return self._edgewise("latency", beta)

    # f_conj left unavailable: edge potentials are only defined
    # piecewise and the dual operations are exercised on the games with
    # quadratic costs.

    # -- oracles ------------------------------------------------------------

    def bind(self, xs) -> "TrafficSweep":
        return TrafficSweep(self, xs)

    def best_response_batch(self, lam: np.ndarray, xs) -> np.ndarray:
        return self.bind(xs).best_response_rows(lam)[0]

    def feasible_batch(self, xs, ys) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        if ys.shape[1:] != (len(self.edges),):
            return np.zeros(len(ys), dtype=bool)
        od = self._od_index(xs)
        match = np.all(np.abs(self._path_table[od] - ys[:, None, :]) <= FEAS_TOL, axis=2)
        return np.any(match & (self._pad_costs[od] == 0), axis=1)

    def transport_select_batch(self, xs, ys, x2s) -> np.ndarray:
        od, od2 = self._od_index(xs), self._od_index(x2s)
        return np.where((od == od2)[:, None], np.asarray(ys, dtype=float), self._path_table[od2, 0])

    def initial_decision_batch(self, xs) -> np.ndarray:
        return self._path_table[self._od_index(xs), 0]

    # -- reporting helpers ---------------------------------------------------

    def wardrop_residual(self, mu, used_mass=1e-9) -> float:
        """Worst excess of a used path's cost over the cheapest admissible one."""
        lam = self.f_grad(aggregate(self, mu))
        used = mu.weights > used_mass
        cheapest = self.best_response_batch(lam, mu.xs[used]) @ lam
        return float(np.max(mu.ys[used] @ lam - cheapest, initial=0.0))


class TrafficSweep(Sweep):
    """Path argmins over the origin-destination pairs of one batch, whose rows are looked up once."""

    def __init__(self, problem: TrafficProblem, xs):
        super().__init__(problem, xs)
        self.od = problem._od_index(xs)

    def best_response_rows(self, lam: np.ndarray):
        p = self.problem
        best = (p._path_table @ lam + p._pad_costs).argmin(axis=1)
        ys = p._path_table[self.od, best[self.od]]
        return ys, ys       # a path contributes its indicator vector


# -- network builders ----------------------------------------------------


def pigou_network():
    """Two parallel edges: latencies ``q`` and ``1``."""
    edges = [Edge(0, 1, "affine", (1.0, 0.0)), Edge(0, 1, "affine", (0.0, 1.0))]
    return 2, edges, [(0, 1)]


def grid_network():
    """A 2x4 directed grid (10 edges) with mixed affine latencies."""
    # nodes 0..3 top row, 4..7 bottom row; rightward and downward edges
    specs = [
        (0, 1, (1.0, 0.5)),
        (1, 2, (2.0, 0.3)),
        (2, 3, (1.0, 0.4)),
        (4, 5, (1.5, 0.2)),
        (5, 6, (1.0, 0.6)),
        (6, 7, (0.5, 0.5)),
        (0, 4, (2.0, 0.1)),
        (1, 5, (1.0, 0.2)),
        (2, 6, (1.5, 0.3)),
        (3, 7, (1.0, 0.1)),
    ]
    edges = [Edge(u, v, "affine", c) for u, v, c in specs]
    return 8, edges, [(0, 7), (1, 7), (0, 6)]


def load_network(edges_csv, od_csv):
    """Edge-list and origin-destination CSV files.

    Edge rows: ``from,to,phi_kind,coeff...``; OD rows: ``origin,dest``.
    """
    edges = list(_rows(edges_csv, ("from", "to", "phi_kind"),
                       lambda row: Edge(int(row[0]), int(row[1]), row[2], tuple(float(c) for c in row[3:]))))
    od_pairs = list(_rows(od_csv, ("origin", "dest"), lambda row: (int(row[0]), int(row[1]))))
    n_nodes = max([0] + [max(e.tail, e.head) + 1 for e in edges] + [max(od) + 1 for od in od_pairs])
    return n_nodes, edges, od_pairs


def _rows(path, fields, parse):
    """``parse(row)`` for each data row of a CSV file headed by ``fields``.

    A row with fewer fields, or one that ``parse`` rejects, is a
    ``ValueError`` that names the file, the row number and the row.
    """
    with open(path) as fh:
        for number, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == fields[0]:
                continue
            where = f"{path}, row {number}: {','.join(row)!r}"
            if len(row) < len(fields):
                raise ValueError(f"{where} has {len(row)} of the {len(fields)} fields {','.join(fields)}")
            try:
                item = parse(row)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            yield item

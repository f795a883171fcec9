import math
import re

import numpy as np
import pytest

from mfo import EmpiricalMeasure, SolverConfig, fw_solve
from mfo.examples import TrafficProblem, grid_network, load_network, pigou_network
from mfo.examples.traffic import EDGE_KINDS, Edge
from mfo.problem import Sweep, _norm

from conftest import best_response, g_eval, initial_decision, transport_select


def five_node_network():
    specs = [
        (0, 1, (1.0, 0.2)),
        (0, 2, (0.5, 0.4)),
        (1, 2, (0.0, 0.1)),
        (1, 3, (2.0, 0.3)),
        (2, 3, (1.0, 0.2)),
        (2, 4, (0.5, 0.6)),
        (3, 4, (1.5, 0.1)),
    ]
    edges = [Edge(u, v, "affine", c) for u, v, c in specs]
    return TrafficProblem(5, edges, [(0, 4), (0, 3)])


def braess_bpr_problem():
    # Braess network with BPR latencies t0 (1 + c q^4); at equilibrium the
    # two outer routes share the flow and the cross edge 1 -> 2 stays unused
    edges = [Edge(0, 1, "bpr", (1.0, 1.0, 4)), Edge(1, 3, "bpr", (0.5, 0.15, 4)),
             Edge(0, 2, "bpr", (0.6, 0.15, 4)), Edge(2, 3, "bpr", (1.0, 1.0, 4)),
             Edge(1, 2, "bpr", (0.1, 0.15, 4))]
    return TrafficProblem(4, edges, [(0, 3)])


MIXED_EDGES_CSV = """from,to,phi_kind,c1,c2,c3
0,1,bpr,1.0,1.0,4
1,3,affine,0.5,0.15
0,2,affine,0.6,0.15
2,3,bpr,1.0,1.0,2.5
1,2,bpr,0.1,0.15,1
3,4,affine,0.0,0.3
2,4,bpr,2.0,0.5,3
0,3,affine,3.0,1.0
1,4,bpr,1.5,0.2,2
"""


def mixed_network(tmp_path):
    """Affine and BPR edges, interleaved so neither kind's edges are consecutive.

    Nine edges, so that a numpy sum (eight-way unrolled) would add them in
    another order than left to right.
    """
    edges_csv, od_csv = tmp_path / "edges.csv", tmp_path / "od.csv"
    edges_csv.write_text(MIXED_EDGES_CSV)
    od_csv.write_text("origin,dest\n0,4\n1,4\n")
    return load_network(edges_csv, od_csv)


def exhaustive_best_cost(prob, lam_values, od):
    # walk each enumerated path and sum edge costs directly
    best = np.inf
    for path in prob.paths[od]:
        best = min(best, sum(lam_values[e] for e in path))
    return best


class TestBestResponse:
    def test_zero_costs_pick_lexicographic_first(self, pigou_problem):
        lam = np.zeros(len(pigou_problem.hilbert_weights))
        y = best_response(pigou_problem, lam, [0, 1])
        np.testing.assert_allclose(y, pigou_problem.indicators[(0, 1)][0])

    def test_pigou_direct_comparison(self, pigou_problem):
        y = best_response(pigou_problem, np.array([0.7, 1.0]), [0, 1])
        np.testing.assert_allclose(y, [1.0, 0.0])

    def test_matches_exhaustive_enumeration(self):
        prob = five_node_network()
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam_values = rng.uniform(0.0, 2.0, len(prob.edges))
            for od in prob.od_pairs:
                y = best_response(prob, lam_values, od)
                assert float(y @ lam_values) == pytest.approx(
                    exhaustive_best_cost(prob, lam_values, od), abs=1e-12
                )

    @pytest.mark.parametrize("network", ["grid10", "five_node"])
    def test_batch_matches_per_pair_argmin(self, network):
        # reference: the cheapest path of each pair, first in path order on ties;
        # duals in quarter units make many costs tie exactly
        prob = TrafficProblem(*grid_network()) if network == "grid10" else five_node_network()
        rng = np.random.default_rng(5)
        n_e = len(prob.edges)
        xs = np.array(prob.od_pairs[::-1] + prob.od_pairs, dtype=float)
        duals = [rng.uniform(0.0, 2.0, n_e) for _ in range(300)]
        duals += [0.25 * rng.integers(0, 4, n_e) for _ in range(300)]
        for lam_values in duals:
            expected = np.vstack([prob.indicators[od][np.argmin(prob.indicators[od] @ lam_values)]
                                  for od in map(tuple, xs.astype(int))])
            np.testing.assert_array_equal(prob.best_response_batch(lam_values, xs),
                                          expected)

    @pytest.mark.parametrize("hop_bound, message", [
        (0, "hop_bound must be at least 1, got 0"), (-1, "hop_bound must be at least 1, got -1"),
        (2.7, "hop_bound must be an integer, got 2.7"), (True, "hop_bound must be an integer, got True"),
        ("3", "hop_bound must be an integer, got '3'"),
    ])
    def test_hop_bound_is_a_positive_integer(self, hop_bound, message):
        # 0 must not read as unset, and a bad bound must not look like a disconnected pair
        with pytest.raises(ValueError, match=re.escape(message)):
            TrafficProblem(*grid_network(), hop_bound=hop_bound)

    def test_hop_bound_counts_edges(self):
        # grid10's four paths from 0 to 7 take four hops each; no bound admits every simple path
        unbounded = TrafficProblem(*grid_network())
        assert len(unbounded.paths[(0, 7)]) == 4
        assert TrafficProblem(*grid_network(), hop_bound=4.0).paths == unbounded.paths
        with pytest.raises(ValueError, match=re.escape("origin-destination pair (0, 7) is disconnected")):
            TrafficProblem(*grid_network(), hop_bound=3)

    def test_disconnected_od_rejected(self):
        edges = [Edge(0, 1, "affine", (1.0, 0.0))]
        with pytest.raises(ValueError, match="disconnected"):
            TrafficProblem(3, edges, [(0, 2)])

    def test_decreasing_latency_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Edge(0, 1, "affine", (-1.0, 2.0))


class TestPotentialGradient:
    def test_affine_at_zero_flow(self):
        prob = five_node_network()
        lam = prob.f_grad(np.zeros(len(prob.hilbert_weights)))
        np.testing.assert_allclose(lam, [e.coeffs[1] for e in prob.edges])

    def test_pigou_at_full_flow(self, pigou_problem):
        lam = pigou_problem.f_grad(np.array([1.0, 0.0]))
        np.testing.assert_allclose(lam, [1.0, 1.0])

    def test_finite_difference_match(self):
        prob = five_node_network()
        rng = np.random.default_rng(1)
        q = rng.uniform(0.05, 0.95, len(prob.edges))
        grad = prob.f_grad(q)
        h = 1e-6
        for i in range(len(q)):
            e = np.zeros(len(q))
            e[i] = h
            fd = (prob.f_value(q + e) - prob.f_value(q - e)) / (2 * h)
            assert fd == pytest.approx(grad[i], abs=1e-7)

    def test_bpr_latency(self):
        edge = Edge(0, 1, "bpr", (2.0, 0.15, 4))
        assert edge.latency(0.0) == pytest.approx(2.0)
        assert edge.latency(1.0) == pytest.approx(2.3)
        h = 1e-6
        fd = (edge.potential(0.5 + h) - edge.potential(0.5 - h)) / (2 * h)
        assert fd == pytest.approx(edge.latency(0.5), abs=1e-7)


class TestWardrop:
    def test_pigou_used_paths_equalize(self, pigou_problem):
        m = EmpiricalMeasure.from_atoms("X", [([0, 1], 1.0)])
        report = fw_solve(pigou_problem, m, SolverConfig(iterations=800))
        assert pigou_problem.wardrop_residual(report.final_measure) <= 1e-4

    def test_grid_network_shape(self):
        n_nodes, edges, od_pairs = grid_network()
        assert len(edges) == 10
        prob = TrafficProblem(n_nodes, edges, od_pairs)
        assert all(len(prob.paths[od]) >= 2 for od in od_pairs)

    def test_bpr_network_reaches_equilibrium(self):
        prob = braess_bpr_problem()
        m = EmpiricalMeasure.from_atoms("X", [([0, 3], 1.0)])
        report = fw_solve(prob, m, SolverConfig(iterations=2000))
        assert report.certificate.gap <= 2 * prob.grad_lipschitz * prob.sup_g_diff_sq / 2000
        assert prob.wardrop_residual(report.final_measure) <= 1e-3
        final = report.final_measure
        assert len(final) == 2 and (final.weights @ final.ys)[4] == 0.0


class TestSelectionAndConstants:
    def test_same_od_keeps_path(self, pigou_problem):
        y = pigou_problem.indicators[(0, 1)][1]
        np.testing.assert_array_equal(transport_select(pigou_problem, [0, 1], y, [0, 1]), y)

    def test_cross_od_selection_within_bound(self):
        prob = five_node_network()
        for od in prob.od_pairs:
            for od2 in prob.od_pairs:
                for y in prob.indicators[od]:
                    y2 = transport_select(prob, od, y, od2)
                    assert prob.feasible(od2, y2)
                    shift = _norm(prob, g_eval(prob, od2, y2) - g_eval(prob, od, y))
                    assert shift <= prob.set_lipschitz * prob.metric.pairwise(od, od2)[0, 0] + 1e-12

    def test_constants_dominate_samples(self):
        prob = five_node_network()
        rng = np.random.default_rng(2)
        inds = np.vstack([prob.indicators[od] for od in prob.od_pairs])
        norms = np.linalg.norm(inds, axis=1)
        assert norms.max() <= prob.sup_g_norm + 1e-12
        for _ in range(200):
            i, j = rng.integers(0, len(inds), size=2)
            assert np.sum((inds[i] - inds[j]) ** 2) <= prob.sup_g_diff_sq + 1e-12
        for _ in range(200):
            q = rng.random(len(prob.edges))
            assert _norm(prob, prob.f_grad(q)) <= prob.sup_grad_norm + 1e-12
            q2 = rng.random(len(prob.edges))
            lhs = _norm(prob, prob.f_grad(q) - prob.f_grad(q2))
            assert lhs <= prob.grad_lipschitz * np.linalg.norm(q - q2) + 1e-12

    def test_sup_grad_norm_sums_its_squares_left_to_right(self):
        # latencies 1e8, 1 and 1 at unit flow: adding the squares 1 and 1 to
        # 1e16 one at a time loses both, a compensated sum (Python's sum()
        # from 3.12) keeps them, so the constant would move with the Python
        edges = [Edge(0, 1, "bpr", (5e7, 1.0, 1.0)), Edge(0, 1, "bpr", (0.5, 1.0, 1.0)),
                 Edge(0, 1, "bpr", (0.5, 1.0, 1.0))]
        prob = TrafficProblem(2, edges, [(0, 1)])
        squares = [v ** 2 for v in prob.f_grad(np.ones(3)).tolist()]
        total = 0.0
        for sq in squares:
            total += sq
        assert total != math.fsum(squares)
        assert prob.sup_grad_norm == math.sqrt(total)


class TestHopMetric:
    def test_hop_distances_by_hand(self):
        # directions are ignored and parallel edges count once; {0, 1, 2, 3}
        # and {4, 5} are two components
        edges = [Edge(0, 1, "affine", (1.0, 0.0)), Edge(0, 1, "affine", (0.0, 1.0)),
                 Edge(1, 2, "affine", (1.0, 0.0)), Edge(3, 2, "affine", (1.0, 0.0)),
                 Edge(4, 5, "affine", (1.0, 0.0)), Edge(5, 4, "affine", (1.0, 0.0))]
        inf = np.inf
        expected = np.array([
            [0, 1, 2, 3, inf, inf],
            [1, 0, 1, 2, inf, inf],
            [2, 1, 0, 1, inf, inf],
            [3, 2, 1, 0, inf, inf],
            [inf, inf, inf, inf, 0, 1],
            [inf, inf, inf, inf, 1, 0],
        ])
        prob = TrafficProblem(6, edges, [(0, 2), (4, 5)])
        np.testing.assert_array_equal(prob.metric.node_distances, expected)

    @pytest.mark.parametrize("edge, od, name", [
        ((0, 2), (0, 1), "edge 0->2"), ((-1, 1), (0, 1), "edge -1->1"),
        ((0, 1), (0, 5), "origin-destination pair (0, 5)"),
    ], ids=["edge_past_the_nodes", "negative_edge_node", "od_past_the_nodes"])
    def test_node_ids_must_be_nodes(self, edge, od, name):
        with pytest.raises(ValueError, match=re.escape(f"{name}: node ids must lie in [0, 2)")):
            TrafficProblem(2, [Edge(*edge, "affine", (1.0, 0.0))], [od])


class TestOdLookup:
    @pytest.mark.parametrize("x", [[0, 5], [0, 7.4]], ids=["unknown", "non_integral"])
    def test_parameter_must_name_a_configured_pair(self, x):
        prob = TrafficProblem(*grid_network())
        y = prob.indicators[(0, 7)][0]
        message = re.escape(f"x={np.array(x, dtype=float)} is not a configured origin-destination pair")
        calls = {
            "feasible": lambda: prob.feasible(x, y),
            "best_response": lambda: best_response(prob, np.zeros(len(prob.hilbert_weights)), x),
            "transport_select from x": lambda: transport_select(prob, x, y, [0, 7]),
            "transport_select to x": lambda: transport_select(prob, [0, 7], y, x),
            "initial_decision": lambda: initial_decision(prob, x),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=message):
                call()

    def test_batch_names_the_first_bad_point(self):
        prob = TrafficProblem(*grid_network())
        xs = np.array([[0, 7], [1, 7], [0, 7.4], [0, 5]], dtype=float)
        ys = prob.initial_decision_batch(np.array([[0, 7]] * 4, dtype=float))
        with pytest.raises(ValueError, match=re.escape(f"x={xs[2]} is not")):
            prob.feasible_batch(xs, ys)
        np.testing.assert_array_equal(prob.feasible_batch(xs[:2], ys[:2]), [True, False])


    def test_lookup_names_each_row_s_pair(self):
        prob = TrafficProblem(*grid_network())
        xs = np.array([[0, 7], [1, 7], [0, 6]], dtype=float)
        np.testing.assert_array_equal(prob._od_index(xs), [0, 1, 2])
        np.testing.assert_array_equal(prob.bind(xs).od, [0, 1, 2])
        with pytest.raises(ValueError, match=re.escape(f"x={np.array([0.0, 5.0])} is not")):
            prob._od_index(np.array([[0, 7], [1, 7], [0, 5]], dtype=float))
        with pytest.raises(ValueError, match="rows, got shape"):
            prob._od_index(xs.reshape(1, 6))  # the same bytes in another shape
        np.testing.assert_array_equal(prob._od_index(xs[::-1]), [2, 1, 0])
        np.testing.assert_array_equal(prob._od_index(xs), [0, 1, 2])


class TestNetworkFiles:
    def test_csv_roundtrip(self, tmp_path):
        edges_csv = tmp_path / "edges.csv"
        od_csv = tmp_path / "od.csv"
        edges_csv.write_text(
            "from,to,phi_kind,a,b\n0,1,affine,1.0,0.0\n0,1,affine,0.0,1.0\n"
        )
        od_csv.write_text("origin,dest\n0,1\n")
        n_nodes, edges, od_pairs = load_network(edges_csv, od_csv)
        prob = TrafficProblem(n_nodes, edges, od_pairs)
        ref = TrafficProblem(*pigou_network())
        assert prob.od_pairs == ref.od_pairs
        assert len(prob.edges) == 2
        y = best_response(prob, np.array([0.3, 1.0]), [0, 1])
        np.testing.assert_allclose(y, [1.0, 0.0])


class TestEdgeKinds:
    def test_unknown_kind_rejected(self):
        # once priced as BPR: latency 1.0 at flow 0.5, where affine would give 0.5
        with pytest.raises(ValueError, match="edge 0->1: unknown latency kind 'Affine'; supported: affine, bpr"):
            Edge(0, 1, "Affine", (1.0, 0.0, 1.0))

    @pytest.mark.parametrize("kind, coeffs", [("bpr", (1.0, 0.15)), ("affine", (1.0, 0.0, 1.0)),
                                              ("affine", ())])
    def test_wrong_coefficient_count_rejected(self, kind, coeffs):
        n = len(EDGE_KINDS[kind].coeff_names)
        with pytest.raises(ValueError, match=f"edge 2->3: {kind} takes {n} coefficients .*, got {len(coeffs)}"):
            Edge(2, 3, kind, coeffs)

    def test_network_file_names_the_bad_edge(self, tmp_path):
        edges_csv, od_csv = tmp_path / "edges.csv", tmp_path / "od.csv"
        edges_csv.write_text("from,to,phi_kind,a,b\n0,1,affine,1.0,0.0\n1,2,bpr,1.0,0.15\n")
        od_csv.write_text("origin,dest\n0,2\n")
        with pytest.raises(ValueError, match="edge 1->2: bpr takes 3 coefficients"):
            load_network(edges_csv, od_csv)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, float("nan")])
    def test_bpr_exponent_below_one_rejected(self, p):
        # q^p with p < 1 has an unbounded slope at 0: BPR (1, 1, 0.5) once reported
        # grad_lipschitz 0.5 against a finite-difference slope of about 4,142 at 1e-8
        with pytest.raises(ValueError, match="edge 0->1: BPR exponent p=.* must be at least 1"):
            Edge(0, 1, "bpr", (1.0, 1.0, p))

    @pytest.mark.parametrize("kind, coeffs", [("affine", (0.0, 0.0)), ("bpr", (0.0, -1.0, 1.0))])
    def test_latency_rule_accepts_its_boundary(self, kind, coeffs):
        assert Edge(0, 1, kind, coeffs).latency(np.linspace(0.0, 1.0, 5)).tolist() == [0.0] * 5

    # the 17-point probe that this closed-form rule replaced accepted the first
    # and the last of these: it forgave slopes down to -1.6e-11
    @pytest.mark.parametrize("kind, coeffs", [("affine", (-1e-13, 1.0)), ("affine", (0.0, -1e-13)),
                                              ("bpr", (1.0, -1e-13, 1.0))])
    def test_latency_rule_rejects_just_past_its_boundary(self, kind, coeffs):
        with pytest.raises(ValueError, match=r"^edge 0->1: .* is not nonnegative and non-decreasing on \[0, 1\]$"):
            Edge(0, 1, kind, coeffs)

    @pytest.mark.parametrize("kind, coeffs, named", [
        ("affine", (math.nan, 0.0), "a=nan, b=0.0"), ("affine", (1.0, math.inf), "a=1.0, b=inf"),
        ("bpr", (-math.inf, 1.0, 2.0), "t0=-inf, c=1.0, p=2.0"), ("bpr", (1.0, math.nan, 2.0), "t0=1.0, c=nan, p=2.0"),
        ("bpr", (1.0, 1.0, math.inf), "t0=1.0, c=1.0, p=inf"),
    ])
    def test_non_finite_coefficients_rejected(self, kind, coeffs, named):
        with pytest.raises(ValueError, match=f"^edge 0->1: coefficients must be finite, got {named}$"):
            Edge(0, 1, kind, coeffs)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_grad_lipschitz_bounds_the_slope(self, p):
        prob = TrafficProblem(2, [Edge(0, 1, "bpr", (1.0, 1.0, p)), Edge(0, 1, "affine", (0.5, 0.1))], [(0, 1)])
        q = np.concatenate([[0.0, 1e-8], np.linspace(0.0, 1.0, 101)[1:]])
        h = 1e-9
        for edge in prob.edges:
            slope = (edge.latency(q + h) - edge.latency(q)) / h
            assert slope.max() <= edge.latency_slope_bound() * (1 + 1e-6)
        assert prob.grad_lipschitz == max(e.latency_slope_bound() for e in prob.edges) == p


class TestPathTable:
    def test_padding_is_neither_feasible_nor_a_best_response(self):
        prob = five_node_network()
        assert [len(prob.paths[od]) for od in prob.od_pairs] == [5, 3]      # (0, 3) has two padding rows
        xs = np.array(prob.od_pairs, dtype=float)
        n_e = len(prob.edges)
        assert not prob.feasible_batch(xs, np.zeros((len(xs), n_e))).any()
        rng = np.random.default_rng(4)
        for _ in range(50):
            # a padding row costs 0 at any dual, less than every path at positive ones
            ys = prob.best_response_batch(rng.uniform(0.1, 2.0, n_e), xs)
            assert ys.sum(axis=1).min() >= 1.0
            assert prob.feasible_batch(xs, ys).all()

    def test_indicators_are_read_only_views_of_the_table(self):
        prob = five_node_network()
        for i, od in enumerate(prob.od_pairs):
            ind = prob.indicators[od]
            assert np.shares_memory(ind, prob._path_table) and not ind.flags.writeable
            assert [tuple(np.flatnonzero(row)) for row in ind] == prob.paths[od]
            assert ind.tobytes() == prob._path_table[i, : len(prob.paths[od])].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                ind[0, 0] = 2.0


class TestGroupedCosts:
    def test_groups_only_the_kinds_present(self, tmp_path):
        assert [kind for kind, _, _ in TrafficProblem(*grid_network())._groups] == [EDGE_KINDS["affine"]]
        mixed = TrafficProblem(*mixed_network(tmp_path))
        assert [kind for kind, _, _ in mixed._groups] == [EDGE_KINDS["affine"], EDGE_KINDS["bpr"]]

    def test_match_the_edge_formulas_exactly(self, tmp_path):
        prob = TrafficProblem(*mixed_network(tmp_path))
        rng = np.random.default_rng(7)
        flows = [np.zeros(len(prob.edges)), np.ones(len(prob.edges))]
        flows += [rng.choice([-0.5, -1e-12, 0.0, 1e-12, 0.3, 1.0, 1.7], len(prob.edges)) for _ in range(20)]
        flows += [rng.uniform(-0.5, 1.5, len(prob.edges)) for _ in range(50)]
        for q in flows:
            lat = np.array([e.latency(qe) for e, qe in zip(prob.edges, q)])
            assert prob.f_grad(q).tobytes() == lat.tobytes()
            assert prob.f_value(q) == sum(e.potential(qe) for e, qe in zip(prob.edges, q))


class TestWholeVectorCosts:
    @pytest.mark.parametrize("network", [grid_network, pigou_network, braess_bpr_problem])
    def test_one_kind_matches_the_grouped_path(self, network):
        built = network()
        if isinstance(built, TrafficProblem):
            built = (built.n_nodes, built.edges, built.od_pairs)
        whole, grouped = TrafficProblem(*built), TrafficProblem(*built)
        assert whole._one_kind
        grouped._one_kind = False
        n_e = len(whole.edges)
        rng = np.random.default_rng(11)
        flows = [np.zeros(n_e), np.ones(n_e), np.full(n_e, -0.0)]
        flows += [rng.choice([-0.5, -1e-12, -0.0, 0.0, 1e-12, 0.3, 1.0, 1.7], n_e) for _ in range(20)]
        flows += [rng.uniform(-0.5, 1.5, n_e) for _ in range(50)]
        for q in flows:
            assert whole.f_grad(q).tobytes() == grouped.f_grad(q).tobytes()
            assert whole.f_value(q).hex() == grouped.f_value(q).hex()
        batch = np.array(flows)
        for formula in ("latency", "potential"):
            assert whole._edgewise(formula, batch).tobytes() == grouped._edgewise(formula, batch).tobytes()

    def test_mixed_network_keeps_the_grouped_path(self, tmp_path):
        assert not TrafficProblem(*mixed_network(tmp_path))._one_kind


# -- the per-edge costs and the masked argmin from before the grouped costs --

def per_edge_latency(edge, q):
    if edge.phi_kind == "affine":
        a, b = edge.coeffs
        return a * np.maximum(q, 0.0) + b
    t0, c, p = edge.coeffs
    return t0 * (1.0 + c * np.maximum(q, 0.0) ** p)


def per_edge_potential(edge, q):
    if edge.phi_kind == "affine":
        a, b = edge.coeffs
        qp = np.maximum(q, 0.0)
        return 0.5 * a * qp ** 2 + b * q
    t0, c, p = edge.coeffs
    qp = np.maximum(q, 0.0)
    return t0 * (q + c * qp ** (p + 1) / (p + 1))


class PerEdgeTraffic(TrafficProblem):
    def f_value(self, beta):
        return float(sum(per_edge_potential(e, q) for e, q in zip(self.edges, beta)))

    def f_grad(self, beta):
        return np.array([float(per_edge_latency(e, q)) for e, q in zip(self.edges, beta)])

    def bind(self, xs):
        return Sweep(self, xs)        # the sweep that calls the argmin below

    def best_response_batch(self, lam, xs):
        od = self._od_index(xs)
        costs = self._path_table @ lam
        best = np.argmin(np.where(np.isinf(self._pad_costs), np.inf, costs), axis=1)
        return self._path_table[od, best[od]]


class TestRecordsMatchPerEdgeCode:
    @pytest.mark.parametrize("network", ["grid10", "braess_bpr", "mixed"])
    def test_fw_records_and_final_measure(self, network, tmp_path):
        if network == "grid10":
            built = grid_network()
            xs = [[0, 7], [1, 7], [0, 6]]
            w = np.array([0.4, 0.3, 0.3]) * np.random.default_rng(2).uniform(0.9, 1.1, 3)
        elif network == "braess_bpr":
            prob = braess_bpr_problem()
            built = (prob.n_nodes, prob.edges, prob.od_pairs)
            xs, w = [[0, 3]], np.ones(1)
        else:
            built = mixed_network(tmp_path)
            xs, w = [[0, 4], [1, 4]], np.array([0.6, 0.4])
        m = EmpiricalMeasure("X", xs=np.array(xs, dtype=float), weights=w / w.sum())
        config = SolverConfig(iterations=2100)
        new = fw_solve(TrafficProblem(*built), m, config)
        old = fw_solve(PerEdgeTraffic(*built), m, config)
        assert [r.gap for r in new.records] == [r.gap for r in old.records]
        assert [r.lambda_norm for r in new.records] == [r.lambda_norm for r in old.records]
        # a square is now x*x where the per-edge code called pow(x, 2), which can be
        # one ulp off; carried through the sum, the objective moves by at most two
        # ulps (reached on this grid10 input at iteration 2065)
        obj_new, obj_old = new.objectives, old.objectives
        assert np.all(np.abs(obj_new - obj_old) <= 2 * np.spacing(obj_old))
        assert abs(new.certificate.primal_value - old.certificate.primal_value) <= 2 * np.spacing(
            old.certificate.primal_value)
        assert new.certificate.gap == old.certificate.gap
        assert new.certificate.lam.tobytes() == old.certificate.lam.tobytes()
        for field in ("xs", "ys", "weights"):
            assert getattr(new.final_measure, field).tobytes() == getattr(old.final_measure, field).tobytes()

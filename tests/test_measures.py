import json
import tracemalloc

import numpy as np
import pytest

import mfo.measures
from mfo import (EmpiricalMeasure, MetricSpec, SolverConfig, aggregate, bridge, first_marginal, fw_gap, fw_solve,
                 linearized_solve, mix, ot_solve, sfw_solve, validate_feasible)
from mfo.measures import ATOM_TOL, WEIGHT_TOL, _atom_groups, _is_uniform

from conftest import assert_same_bits


def reference_groups(mu):
    """The atom-by-atom grouping that ``measures._atom_groups`` replaced.

    Returns the group id of every row of positive weight, numbering
    groups by first appearance, and each group's first row.
    """
    orig = np.flatnonzero(mu.weights > 0.0)
    rows = np.hstack(mu.columns())[orig]
    order = np.lexsort(rows.T[::-1])
    group_of = np.empty(len(order), dtype=np.intp)
    n_groups = 0
    for pos, idx in enumerate(order):
        if pos > 0 and np.all(np.abs(rows[idx] - rows[order[pos - 1]]) <= ATOM_TOL):
            group_of[idx] = group_of[order[pos - 1]]
        else:
            group_of[idx] = n_groups
            n_groups += 1
    rep = np.full(n_groups, len(rows), dtype=np.intp)
    for i, g in enumerate(group_of):
        rep[g] = min(rep[g], i)
    order_out = np.argsort(rep, kind="stable")
    number = np.empty(n_groups, dtype=np.intp)
    number[order_out] = np.arange(n_groups)
    return number[group_of], orig[rep[order_out]]


def reference_merged(mu):
    """The atom-by-atom merge that ``EmpiricalMeasure.merged`` replaced."""
    ids, first = reference_groups(mu)
    total = np.zeros(len(first))
    for g, w in zip(ids, mu.weights[mu.weights > 0.0]):
        total[g] += w
    return EmpiricalMeasure(mu.space, *(col[first] for col in mu.columns()), weights=total, validate=False)


def zmeasure(atoms):
    return EmpiricalMeasure.from_atoms("Z", atoms)


def random_zmeasure(rng, n_atoms, n_x=None):
    n_x = n_x or n_atoms
    xs = rng.normal(size=(n_x, 2))[rng.integers(0, n_x, size=n_atoms)]
    ys = rng.normal(size=(n_atoms, 3))
    w = rng.random(n_atoms)
    return EmpiricalMeasure("Z", xs=xs, ys=ys, weights=w / w.sum())


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            EmpiricalMeasure("X", xs=np.zeros((2, 1)), weights=np.array([0.5, 0.4]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure("X", xs=np.zeros((2, 1)), weights=np.array([1.5, -0.5]))

    def test_coords_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure("X", xs=np.array([[np.inf]]), weights=np.array([1.0]))

    def test_space_column_consistency(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure("X", ys=np.zeros((1, 1)), weights=np.array([1.0]))

    @pytest.mark.parametrize("space, columns, message", [
        ("X", {"ys": np.zeros((1, 1))}, "space 'X' does not take column 'y'"),
        ("Z", {}, "space 'Z' requires column 'y'"),
        ("Y", {}, "unknown space tag 'Y'"),
    ])
    def test_space_tag_is_checked_against_the_decisions(self, space, columns, message):
        with pytest.raises(ValueError, match=message):
            EmpiricalMeasure(space, xs=np.zeros((1, 1)), weights=np.ones(1), **columns)

    def test_immutable(self):
        mu = EmpiricalMeasure.dirac("X", [0.0])
        with pytest.raises(AttributeError):
            mu.space = "Z"
        with pytest.raises(ValueError):
            mu.weights[0] = 2.0

    def test_merge_on_construction(self):
        mu = zmeasure([([0.0], [1.0], 0.25), ([0.0], [1.0], 0.25), ([0.0], [2.0], 0.5)])
        assert len(mu) == 2
        assert mu.weights[0] == pytest.approx(0.5, abs=1e-15)


def tricky_measure(rng, space, n):
    """Atoms with exact duplicates, near-duplicate chains and zero weights."""
    # the parameters, then on Z the decisions, each of two components
    base = [rng.integers(0, 2, size=(n, 2)).astype(float) for _ in range(1 + (space == "Z"))]
    # chains of near-duplicates, each step 0.9 * ATOM_TOL in one coordinate
    steps = rng.integers(0, 4, size=n) * 0.9 * ATOM_TOL
    base[0][:, 0] += steps * rng.integers(0, 2, size=n)
    w = rng.random(n) * (rng.random(n) > 0.2)
    w[rng.integers(0, n)] += 0.5
    return EmpiricalMeasure(space, *base, weights=w / w.sum(), validate=False)


class TestMergeMatchesReference:
    @pytest.mark.parametrize("space", ["X", "Z"])
    def test_seeded_measures_bit_for_bit(self, space):
        rng = np.random.default_rng(31)
        for n in [1, 1, 2, 3, 5, 8, 20, 60, 200]:
            mu = tricky_measure(rng, space, n)
            assert_same_bits(mu.merged(), reference_merged(mu))

    def test_continuous_atoms_bit_for_bit(self):
        rng = np.random.default_rng(32)
        mu = random_zmeasure(rng, 500, n_x=40)
        assert_same_bits(mu.merged(), reference_merged(mu))

    def test_merge_of_a_long_stored_run_allocates_little(self):
        # 60,000 rows of 12 coordinates that repeat, as a long stored run's
        # do: each coordinate goes through one reused buffer in sort order,
        # and the group numbers are one repeat of the groups' ranks, so
        # the merge allocates under 3.75 arrays of one double per row at its
        # peak (4.27 with a gather, a difference and an absolute value per
        # coordinate); the atoms keep their bits
        rng = np.random.default_rng(33)
        n = 60_000
        xs = rng.integers(0, 3, (n, 2)).astype(float)
        ys = np.repeat(rng.integers(0, 40, (n, 1)).astype(float), 10, axis=1)
        ys[:, -1] += rng.integers(0, 2, n) * 0.9 * ATOM_TOL
        mu = EmpiricalMeasure("Z", xs=xs, ys=ys, weights=np.full(n, 1.0 / n))
        assert_same_bits(mu.merged(), reference_merged(mu))
        tracemalloc.start()
        try:
            mu.merged()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * n * 8

    def test_non_adjacent_duplicates_stay_apart(self):
        # the rule compares sort neighbours only; (0,3) and (1e-13,3) are split by (0,5)
        mu = EmpiricalMeasure("X", xs=np.array([[0.0, 3.0], [0.0, 5.0], [1e-13, 3.0]]),
                              weights=np.full(3, 1 / 3))
        assert len(mu.merged()) == 3


class TestAtomGroups:
    @pytest.mark.parametrize("space", ["X", "Z"])
    def test_zero_weight_rows_take_the_group_count(self, space):
        rng = np.random.default_rng(34)
        for n in [1, 2, 3, 5, 8, 20, 60, 200]:
            mu = tricky_measure(rng, space, n)
            ids, first = _atom_groups(mu.columns(), mu.weights)
            keep = mu.weights > 0.0
            assert np.all(ids[~keep] == len(first))
            ref_ids, ref_first = reference_groups(mu)
            assert ids[keep].tobytes() == ref_ids.tobytes() and first.tobytes() == ref_first.tobytes()
            assert_same_bits(mu._collapse(ids, first), reference_merged(mu))
        assert not np.all(keep)        # the last measure has zero-weight rows

    def test_all_zero_weights_give_no_groups(self):
        mu = EmpiricalMeasure("Z", xs=np.zeros((3, 1)), ys=np.arange(3.0)[:, None], weights=np.zeros(3),
                              validate=False)
        ids, first = _atom_groups(mu.columns(), mu.weights)
        assert ids.tolist() == [0, 0, 0] and len(first) == 0
        assert len(mu._collapse(ids, first)) == 0


class TestUniformity:
    @pytest.mark.parametrize("off, uniform", [(0.9 * WEIGHT_TOL, True), (2 * WEIGHT_TOL, False)])
    def test_tolerance_edge(self, off, uniform):
        mu = EmpiricalMeasure("X", xs=np.arange(4.0)[:, None], weights=0.25 + np.array([off, -off, 0.0, 0.0]))
        assert _is_uniform(mu) is uniform


class TestSpaceRule:
    """Every entry point that takes a measure refuses one on the wrong space, naming the argument and both spaces."""

    @pytest.mark.parametrize("call, what, want", [
        (lambda p, x, z: fw_solve(p, z, SolverConfig(iterations=1)), "m_N", "X"),
        (lambda p, x, z: sfw_solve(p, z, SolverConfig(iterations=1)), "m_N", "X"),
        (lambda p, x, z: ot_solve(z, x, MetricSpec()), "m0", "X"),
        (lambda p, x, z: ot_solve(x, z, MetricSpec()), "m1", "X"),
        (lambda p, x, z: linearized_solve(p, np.zeros(2), z), "m", "X"),
        (lambda p, x, z: aggregate(p, x), "mu", "Z"),
        (lambda p, x, z: fw_gap(p, x), "mu", "Z"),
        (lambda p, x, z: bridge(x, x, p), "mu0", "Z"),
        (lambda p, x, z: first_marginal(x), "mu", "Z"),
        (lambda p, x, z: validate_feasible(x, p), "mu", "Z"),
    ], ids=["fw_solve", "sfw_solve", "ot_solve-m0", "ot_solve-m1", "linearized_solve", "aggregate", "fw_gap",
            "bridge", "first_marginal", "validate_feasible"])
    def test_wrong_space_is_refused(self, resource_problem, call, what, want):
        x = EmpiricalMeasure("X", xs=np.array([[1.0]]), weights=np.ones(1))
        z = EmpiricalMeasure("Z", xs=np.array([[1.0]]), ys=np.zeros((1, resource_problem.steps)), weights=np.ones(1))
        got = "Z" if want == "X" else "X"
        with pytest.raises(ValueError, match=rf"\b{what} must be a measure on {want}, got one on {got}$"):
            call(resource_problem, x, z)


class TestFirstMarginal:
    def test_all_mass_on_one_x(self):
        mu = zmeasure([([0.0, 0.0], [1.0], 0.5), ([0.0, 0.0], [2.0], 0.5)])
        m = first_marginal(mu)
        assert len(m) == 1
        assert m.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_weights_copied_for_distinct_x(self):
        mu = zmeasure([([1.0], [0.0], 0.25), ([2.0], [0.0], 0.75)])
        m = first_marginal(mu)
        assert len(m) == 2
        np.testing.assert_allclose(sorted(m.weights), [0.25, 0.75])

    def test_uniform_four_atoms_two_x(self):
        mu = zmeasure(
            [([0.0], [0.0], 0.25), ([0.0], [1.0], 0.25), ([1.0], [0.0], 0.25), ([1.0], [1.0], 0.25)]
        )
        m = first_marginal(mu)
        assert len(m) == 2
        np.testing.assert_allclose(m.weights, [0.5, 0.5], atol=1e-15)

    def test_mix_commutes_with_marginal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_zmeasure(rng, 6, n_x=3)
            b = random_zmeasure(rng, 5, n_x=4)
            om = rng.random()
            lhs = first_marginal(mix(a, b, om))
            rhs = mix(first_marginal(a), first_marginal(b), om)
            assert lhs.allclose(rhs, tol=1e-12)


class TestMix:
    def test_omega_zero_is_left(self):
        a = zmeasure([([0.0], [0.0], 1.0)])
        b = zmeasure([([9.0], [9.0], 1.0)])
        assert mix(a, b, 0.0).allclose(a)

    def test_omega_one_is_right(self):
        a = zmeasure([([0.0], [0.0], 1.0)])
        b = zmeasure([([9.0], [9.0], 1.0)])
        assert mix(a, b, 1.0).allclose(b)

    def test_dirac_mixture(self):
        a = EmpiricalMeasure.dirac("X", [0.0])
        b = EmpiricalMeasure.dirac("X", [1.0])
        out = mix(a, b, 0.25)
        w = dict(zip(out.xs[:, 0].tolist(), out.weights.tolist()))
        assert w[0.0] == pytest.approx(0.75) and w[1.0] == pytest.approx(0.25)

    def test_space_mismatch_rejected(self):
        a = EmpiricalMeasure.dirac("X", [0.0])
        b = zmeasure([([0.0], [0.0], 1.0)])
        with pytest.raises(ValueError, match="mix"):
            mix(a, b, 0.5)

    def test_duplicates_merged_and_normalized(self):
        a = zmeasure([([0.0], [0.0], 1.0)])
        out = mix(a, a, 0.3)
        assert len(out) == 1
        assert out.weights[0] == pytest.approx(1.0, abs=1e-15)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        mu = random_zmeasure(rng, 5).merged()
        path = tmp_path / "mu.json"
        mu.save_json(path)
        again = EmpiricalMeasure.load_json(path)
        assert again.allclose(mu, tol=0.0)
        payload = json.loads(path.read_text())
        assert payload["space"] == "Z"
        assert set(payload["atoms"][0]) == {"x", "y", "w"}

    def test_csv_export(self, tmp_path):
        mu = zmeasure([([0.0, 1.0], [2.0], 0.5), ([3.0, 4.0], [5.0], 0.5)])
        path = tmp_path / "mu.csv"
        mu.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,y0,w"
        assert len(lines) == 3

    @pytest.mark.parametrize("space", ["X", "Z"])
    def test_column_wise_json_matches_atom_by_atom_form(self, space):
        # reference: the per-atom writer and the from_atoms reader the
        # column-wise ones replaced; same text, same arrays
        mu = tricky_measure(np.random.default_rng(7), space, 40)
        cols = ("x", "y") if space == "Z" else ("x",)
        atoms = [dict({c: col[i].tolist() for c, col in zip(cols, mu.columns())}, w=float(w))
                 for i, w in enumerate(mu.weights)]
        text = json.dumps({"space": space, "atoms": atoms})
        assert json.dumps(mu.to_json_dict()) == text
        again = EmpiricalMeasure.from_json_dict(json.loads(text))
        ref = EmpiricalMeasure.from_atoms(
            space, [tuple(a[c] for c in cols) + (a["w"],) for a in atoms], merge=False)
        assert_same_bits(again, ref)

    @pytest.mark.parametrize("space", ["X", "Z"])
    @pytest.mark.parametrize("chunk, sizes", [(None, [1, 40, 2500]), (7, [1, 6, 7, 8, 40])],
                             ids=["default_chunk", "small_chunk"])
    def test_file_is_the_one_shot_encoding(self, tmp_path, monkeypatch, space, chunk, sizes):
        # the atoms are encoded a chunk at a time; single-chunk, exactly-full
        # and multi-chunk files must all be json.dumps of the whole dict
        if chunk is not None:
            monkeypatch.setattr(mfo.measures, "_JSON_CHUNK_ATOMS", chunk)
        rng = np.random.default_rng(8)
        for n in sizes:
            mu = tricky_measure(rng, space, n)
            mu.save_json(tmp_path / "mu.json")
            assert (tmp_path / "mu.json").read_text() == json.dumps(mu.to_json_dict()), n

    def test_reader_rejects_malformed_input(self):
        def payload(*atoms):
            return {"space": "Z", "atoms": [dict(zip(("x", "y", "w"), a)) for a in atoms]}

        EmpiricalMeasure.from_json_dict(payload(([0.0], [1.0, 2.0], 0.5), ([1.0], [3.0, 4.0], 0.5)))
        bad = {
            "no atoms": payload(),
            "ragged decisions": payload(([0.0], [1.0, 2.0], 0.5), ([1.0], [3.0], 0.5)),
            "scalar next to vector": payload(([0.0], [1.0], 0.5), (1.0, [3.0], 0.5)),
            "nested coordinate": payload(([[0.0]], [1.0], 1.0)),
            "nan coordinate": payload(([0.0], [float("nan"), 2.0], 1.0)),
            "infinite parameter": payload(([float("inf")], [1.0, 2.0], 1.0)),
            "nan weight": payload(([0.0], [1.0], float("nan")), ([1.0], [3.0], 1.0)),
            "unknown space": dict(payload(([0.0], [1.0], 1.0)), space="ZX"),
        }
        for d in bad.values():
            with pytest.raises(ValueError):
                EmpiricalMeasure.from_json_dict(d)

    @pytest.mark.parametrize("atoms, message", [
        ([(0.05, 0.5), ([0.1], 0.5)], "atom 1: coordinate 'x' has shape (1,), atom 0's has shape ()"),
        ([([0.0], [1.0, 2.0], 0.25), ([1.0], [3.0, 4.0], 0.25), ([2.0], [5.0], 0.5)],
         "atom 2: coordinate 'y' has shape (1,), atom 0's has shape (2,)"),
    ], ids=["scalar_then_vector", "ragged_decisions"])
    def test_mixed_shapes_name_the_first_odd_atom(self, atoms, message):
        space, keys = ("X", ("x", "w")) if len(atoms[0]) == 2 else ("Z", ("x", "y", "w"))
        d = {"space": space, "atoms": [dict(zip(keys, a)) for a in atoms]}
        with pytest.raises(ValueError) as info:
            EmpiricalMeasure.from_json_dict(d)
        assert str(info.value) == message

    def test_a_value_that_is_no_number_keeps_numpy_message(self):
        with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
            EmpiricalMeasure.from_json_dict({"space": "X", "atoms": [{"x": 0.5, "w": 0.5}, {"x": "a", "w": 0.5}]})

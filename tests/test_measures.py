import json

import numpy as np
import pytest

from mfo import EmpiricalMeasure, first_marginal, mix
from mfo.measures import ATOM_TOL, _SPACE_COLUMNS


def reference_merged(mu):
    """The atom-by-atom merge that ``EmpiricalMeasure.merged`` replaced."""
    rows = np.hstack(mu.columns())
    w = mu.weights
    keep = w > 0.0
    if not np.all(keep):
        rows, w = rows[keep], w[keep]
        orig = np.flatnonzero(keep)
    else:
        orig = np.arange(len(w))
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
    total = np.zeros(n_groups)
    for i in range(len(rows)):
        g = group_of[i]
        rep[g] = min(rep[g], i)
        total[g] += w[i]
    order_out = np.argsort(rep, kind="stable")
    sel = orig[rep[order_out]]
    picked = {c: col[sel] for c, col in zip(_SPACE_COLUMNS[mu.space], mu.columns())}
    return EmpiricalMeasure(mu.space, xs=picked.get("x"), ys=picked.get("y"),
                            x2s=picked.get("x2"), weights=total[order_out], validate=False)


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
    dims = {"x": 2, "y": 2, "x2": 1}
    base = {c: rng.integers(0, 2, size=(n, dims[c])).astype(float) for c in _SPACE_COLUMNS[space]}
    # chains of near-duplicates, each step 0.9 * ATOM_TOL in one coordinate
    steps = rng.integers(0, 4, size=n) * 0.9 * ATOM_TOL
    base[_SPACE_COLUMNS[space][0]][:, 0] += steps * rng.integers(0, 2, size=n)
    w = rng.random(n) * (rng.random(n) > 0.2)
    w[rng.integers(0, n)] += 0.5
    return EmpiricalMeasure(space, xs=base.get("x"), ys=base.get("y"), x2s=base.get("x2"),
                            weights=w / w.sum(), validate=False)


def assert_same_bits(a, b):
    assert a.space == b.space
    for ca, cb in zip(a.columns() + (a.weights,), b.columns() + (b.weights,)):
        assert ca.shape == cb.shape and ca.tobytes() == cb.tobytes()


class TestMergeMatchesReference:
    @pytest.mark.parametrize("space", ["X", "Z", "ZX"])
    def test_seeded_measures_bit_for_bit(self, space):
        rng = np.random.default_rng(31)
        for n in [1, 1, 2, 3, 5, 8, 20, 60, 200]:
            mu = tricky_measure(rng, space, n)
            assert_same_bits(mu.merged(), reference_merged(mu))

    def test_continuous_atoms_bit_for_bit(self):
        rng = np.random.default_rng(32)
        mu = random_zmeasure(rng, 500, n_x=40)
        assert_same_bits(mu.merged(), reference_merged(mu))

    def test_non_adjacent_duplicates_stay_apart(self):
        # the rule compares sort neighbours only; (0,3) and (1e-13,3) are split by (0,5)
        mu = EmpiricalMeasure("X", xs=np.array([[0.0, 3.0], [0.0, 5.0], [1e-13, 3.0]]),
                              weights=np.full(3, 1 / 3))
        assert len(mu.merged()) == 3


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

    @pytest.mark.parametrize("space", ["X", "Z", "ZX"])
    def test_column_wise_json_matches_atom_by_atom_form(self, space):
        # reference: the per-atom writer and the from_atoms reader the
        # column-wise ones replaced; same text, same arrays
        mu = tricky_measure(np.random.default_rng(7), space, 40)
        cols = _SPACE_COLUMNS[space]
        atoms = [dict({c: col[i].tolist() for c, col in zip(cols, mu.columns())}, w=float(w))
                 for i, w in enumerate(mu.weights)]
        text = json.dumps({"space": space, "atoms": atoms})
        assert json.dumps(mu.to_json_dict()) == text
        again = EmpiricalMeasure.from_json_dict(json.loads(text))
        ref = EmpiricalMeasure.from_atoms(
            space, [tuple(a[c] for c in cols) + (a["w"],) for a in atoms], merge=False)
        assert_same_bits(again, ref)

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
        }
        for d in bad.values():
            with pytest.raises(ValueError):
                EmpiricalMeasure.from_json_dict(d)

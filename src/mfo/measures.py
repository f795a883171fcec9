"""Finitely supported probability measures over parameter/decision spaces.

A measure lives on one of three spaces:

* ``"X"``  -- parameter points only,
* ``"Z"``  -- parameter/decision pairs ``(x, y)``,
* ``"ZX"`` -- triples ``(x, y, x2)`` produced by gluing a pair measure
  with a coupling of its first marginal (the intermediate object of the
  bridging construction).

Atoms are stored as packed float arrays in insertion order, so seeded
runs are bit-reproducible.  Weights are general nonnegative reals (not
forced to ``1/N``): convex mixtures keep their accumulated products
exactly.  All operations are pure; instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import csv
import json

import numpy as np

#: componentwise tolerance under which two atoms are considered identical
ATOM_TOL = 1e-12
#: tolerance on the total-mass-one invariant
WEIGHT_TOL = 1e-12

_SPACE_COLUMNS = {"X": ("x",), "Z": ("x", "y"), "ZX": ("x", "y", "x2")}


def _atom_groups(columns, weights):
    """The atom-identity rule: which atoms count as one point.

    ``columns`` are the 2-D coordinate blocks of the atoms.  Rows are
    sorted lexicographically and consecutive rows within
    :data:`ATOM_TOL` in every coordinate are chained into one group;
    zero-weight rows join no group (id -1).  Returns every row's group
    id, numbering groups by first appearance, and each group's first row.
    """
    keys = [col[:, k] for col in columns for k in range(col.shape[1])]
    order = np.lexsort(keys[::-1])
    order = order[weights[order] > 0.0]
    ids = np.full(len(weights), -1, dtype=np.intp)
    if not len(order):
        return ids, order
    chained = np.ones(len(order) - 1, dtype=bool)
    for key in keys:
        chained &= np.abs(np.diff(key[order])) <= ATOM_TOL
    new = np.concatenate(([True], ~chained))
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    ids[order] = np.argsort(np.argsort(first))[np.cumsum(new) - 1]
    return ids, np.sort(first)


class EmpiricalMeasure:
    """A finitely supported probability measure with ordered atoms."""

    __slots__ = ("space", "xs", "ys", "x2s", "weights")

    def __init__(self, space, xs=None, ys=None, x2s=None, weights=None, validate=True):
        if space not in _SPACE_COLUMNS:
            raise ValueError(f"unknown space tag {space!r}")
        object.__setattr__(self, "space", space)
        n = None
        for name, arr in (("xs", xs), ("ys", ys), ("x2s", x2s)):
            if arr is not None:
                arr = np.ascontiguousarray(arr, dtype=float)
                if arr.ndim != 2:
                    raise ValueError(f"{name} must be 2-D (n_atoms, dim)")
                n = arr.shape[0] if n is None else n
                if arr.shape[0] != n:
                    raise ValueError("inconsistent atom counts")
            object.__setattr__(self, name, arr)
        needed = _SPACE_COLUMNS[space]
        have = {"x": self.xs is not None, "y": self.ys is not None, "x2": self.x2s is not None}
        for col in needed:
            if not have[col]:
                raise ValueError(f"space {space!r} requires column {col!r}")
        for col, present in have.items():
            if present and col not in needed:
                raise ValueError(f"space {space!r} does not take column {col!r}")
        if weights is None:
            raise ValueError("weights are required")
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != n:
            raise ValueError("weights must be 1-D and match the atom count")
        object.__setattr__(self, "weights", w)
        if validate:
            self._validate()
        for name in self.__slots__:
            arr = getattr(self, name)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalMeasure is immutable")

    def _validate(self):
        for arr in (self.xs, self.ys, self.x2s):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("atom coordinates must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("atom weights must be finite")
        if np.any(self.weights < 0):
            raise ValueError("atom weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL * max(1, len(self.weights)):
            raise ValueError(f"weights sum to {total!r}, expected 1")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_atoms(cls, space, atoms, merge=True):
        """Build a measure from ``(coords..., weight)`` tuples.

        Each atom is ``(x, w)`` on space X, ``(x, y, w)`` on Z, etc.  With
        ``merge=True`` duplicate atoms are coalesced by :meth:`merged`.
        """
        k = len(_SPACE_COLUMNS[space])
        if any(len(atom) != k + 1 for atom in atoms):
            raise ValueError(f"space {space!r} atoms take {k} coordinate(s)")
        mu = cls._from_lists(space, [[atom[j] for atom in atoms] for j in range(k)],
                             [atom[k] for atom in atoms])
        return mu.merged() if merge else mu

    @classmethod
    def _from_lists(cls, space, points, weights):
        """A measure from one list of points per coordinate column, and the weights."""
        n = len(weights)
        if not n:
            raise ValueError("a probability measure needs at least one atom")
        arrays = {}
        for c, column in zip(_SPACE_COLUMNS[space], points):
            arr = np.array(column, dtype=float)
            if arr.ndim > 2:
                raise ValueError(f"atom coordinate {c!r} must be a vector, got shape {arr.shape[1:]}")
            arrays[c] = arr.reshape(n, -1)
        return cls(space, xs=arrays.get("x"), ys=arrays.get("y"), x2s=arrays.get("x2"),
                   weights=np.array(weights, dtype=float))

    @classmethod
    def dirac(cls, space, *coords):
        return cls.from_atoms(space, [(*coords, 1.0)])

    # -- basic queries --------------------------------------------------------

    def __len__(self):
        return len(self.weights)

    def columns(self):
        return tuple(getattr(self, {"x": "xs", "y": "ys", "x2": "x2s"}[c]) for c in _SPACE_COLUMNS[self.space])

    def __repr__(self):
        return f"EmpiricalMeasure(space={self.space!r}, atoms={len(self)})"

    def allclose(self, other, tol=1e-9):
        """True if both measures coincide atom-by-atom after merging."""
        if self.space != other.space:
            return False
        a, b = self.merged(), other.merged()
        if len(a) != len(b):
            return False
        ra, rb = np.hstack(a.columns()), np.hstack(b.columns())
        if ra.shape != rb.shape:
            return False
        ia = np.lexsort(ra.T[::-1])
        ib = np.lexsort(rb.T[::-1])
        return bool(
            np.max(np.abs(ra[ia] - rb[ib])) <= tol
            and np.max(np.abs(a.weights[ia] - b.weights[ib])) <= tol
        )

    # -- atom merging ----------------------------------------------------------

    def merged(self):
        """Coalesce duplicate atoms, keeping first-appearance order.

        Zero-weight atoms are dropped.  After a lexicographic sort,
        consecutive rows within :data:`ATOM_TOL` in every component are
        chained into one atom with the first member's coordinates and the
        summed weight.  Only sort neighbours are compared, so ``(0, 3)``,
        ``(0, 5)``, ``(1e-13, 3)`` (sorted in that order) stay 3 atoms.
        """
        return self._collapse(*_atom_groups(self.columns(), self.weights))

    def _collapse(self, ids, first):
        """One atom per group: the first member's coordinates, the summed weight."""
        keep = ids >= 0
        picked = {c: col[first] for c, col in zip(_SPACE_COLUMNS[self.space], self.columns())}
        return EmpiricalMeasure(
            self.space,
            xs=picked.get("x"),
            ys=picked.get("y"),
            x2s=picked.get("x2"),
            weights=np.bincount(ids[keep], weights=self.weights[keep], minlength=len(first)),
            validate=False,
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self):
        keys = _SPACE_COLUMNS[self.space] + ("w",)
        columns = [arr.tolist() for arr in self.columns()] + [self.weights.tolist()]
        return {"space": self.space, "atoms": [dict(zip(keys, rec)) for rec in zip(*columns)]}

    @classmethod
    def from_json_dict(cls, d):
        space, atoms = d["space"], d["atoms"]
        points = [[rec[c] for rec in atoms] for c in _SPACE_COLUMNS[space]]
        return cls._from_lists(space, points, [rec["w"] for rec in atoms])

    def save_json(self, path):
        # json.dumps uses the C encoder; json.dump always streams through pure Python
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json_dict()))

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def save_csv(self, path):
        """One atom per row; coordinate columns expanded (for plotting)."""
        cols = _SPACE_COLUMNS[self.space]
        names = self.columns()
        header = []
        for c, arr in zip(cols, names):
            header += [f"{c}{k}" for k in range(arr.shape[1])]
        header.append("w")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(np.column_stack(names + (self.weights,)).tolist())


def _marginal_groups(mu: EmpiricalMeasure):
    """First marginal of a pair measure and each pair atom's marginal atom (-1: none)."""
    ids, first = _atom_groups((mu.xs,), mu.weights)
    marg = EmpiricalMeasure("X", xs=mu.xs, weights=mu.weights, validate=False)._collapse(ids, first)
    return marg, ids


def first_marginal(mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Push a pair (or glued) measure forward to its parameter marginal."""
    if mu.space not in ("Z", "ZX"):
        raise ValueError("first_marginal needs a measure on pairs")
    return _marginal_groups(mu)[0]


def mix(mu_a: EmpiricalMeasure, mu_b: EmpiricalMeasure, omega: float) -> EmpiricalMeasure:
    """Convex combination ``(1-omega)*mu_a + omega*mu_b`` with merged atoms."""
    if mu_a.space != mu_b.space:
        raise ValueError(f"cannot mix measures on {mu_a.space!r} and {mu_b.space!r}")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    cols = _SPACE_COLUMNS[mu_a.space]
    arrays = {}
    for c, a, b in zip(cols, mu_a.columns(), mu_b.columns()):
        arrays[c] = np.vstack([a, b])
    w = np.concatenate([(1.0 - omega) * mu_a.weights, omega * mu_b.weights])
    out = EmpiricalMeasure(
        mu_a.space,
        xs=arrays.get("x"),
        ys=arrays.get("y"),
        x2s=arrays.get("x2"),
        weights=w,
        validate=False,
    )
    return out.merged()


def validate_feasible(mu: EmpiricalMeasure, problem) -> None:
    """Check every pair atom against the problem's feasibility predicate."""
    if mu.space != "Z":
        raise ValueError("feasibility applies to measures on Z")
    bad = np.flatnonzero(~np.asarray(problem.feasible_batch(mu.xs, mu.ys), dtype=bool))
    if len(bad):
        i = bad[0]
        raise ValueError(f"infeasible atom {i}: y not in Z_x for x={mu.xs[i]}")

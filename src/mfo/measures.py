"""Finitely supported probability measures over parameter/decision spaces.

A measure is its arrays: parameters ``xs``, decisions ``ys`` and
``weights``, one row per atom.  It lives on one of two spaces, which
``ys`` tells apart:

* ``"X"`` -- parameter points only (marginals): ``ys`` is ``None``,
* ``"Z"`` -- parameter/decision pairs ``(x, y)`` (solutions).

Atoms are kept in insertion order, so seeded runs are bit-reproducible.
Weights are general nonnegative reals (not forced to ``1/N``): convex
mixtures keep their accumulated products exactly.  All operations are
pure; instances are immutable after construction and safe to share
between threads.

The rules that every step of the method asks of a measure are stated
here once: its space (:func:`_require_space`), uniform weights ``1/N``
within :data:`WEIGHT_TOL` (:func:`_is_uniform`), atom identity within
:data:`ATOM_TOL` (:func:`_atom_groups`) and the marginal tolerance
:data:`MARGINAL_TOL`.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

#: componentwise tolerance under which two atoms are considered identical
ATOM_TOL = 1e-12
#: tolerance on the total-mass-one invariant, and on each weight of a uniform measure
WEIGHT_TOL = 1e-12
#: tolerance on a measure's first marginal, and on a coupling's marginal residuals
MARGINAL_TOL = 1e-9

#: the keys of an atom record in a measure's JSON, which also prefix its
#: CSV columns: the parameter, the decision (on Z only) and the weight
_KEYS = ("x", "y", "w")
#: atoms per json.dumps call when a measure is written (see _write_json)
_JSON_CHUNK_ATOMS = 256


def _keys(space):
    """The keys of an atom record on ``space``."""
    if space not in ("X", "Z"):
        raise ValueError(f"unknown space tag {space!r}")
    return _KEYS if space == "Z" else _KEYS[::2]


def _atom_groups(columns, weights):
    """The atom-identity rule: which atoms count as one point.

    ``columns`` are the 2-D coordinate blocks of the atoms.  Rows are
    sorted lexicographically and consecutive rows within
    :data:`ATOM_TOL` in every coordinate are chained into one group.
    Returns every row's group id, numbering groups by first appearance,
    and each group's first row.  Zero-weight rows join no group: their
    id is the group count, one past the last group.
    """
    keys = [col[:, k] for col in columns for k in range(col.shape[1])]
    order = np.lexsort(keys[::-1])
    order = order[weights[order] > 0.0]
    if not len(order):
        return np.zeros(len(weights), dtype=np.intp), order
    starts = np.flatnonzero(np.concatenate(([True], ~_chained(keys, order))))
    first = np.minimum.reduceat(order, starts)
    firsts = np.sort(first)
    # a group's number is the rank of its first row, carried to its other sorted rows
    ids = np.full(len(weights), len(first), dtype=np.intp)
    ids[order] = np.repeat(np.searchsorted(firsts, first), np.diff(starts, append=len(order)))
    return ids, firsts


def _chained(keys, order):
    """Whether each row of ``order`` is within :data:`ATOM_TOL` of the next in every key.

    The distances go through one buffer, reused across the keys: each key
    is gathered into it in sort order, and its neighbour differences and
    their absolute values overwrite it in place.
    """
    gathered = np.empty(len(order))
    step = gathered[:-1]
    close = np.empty(len(order) - 1, dtype=bool)
    chained = np.ones(len(order) - 1, dtype=bool)
    for key in keys:
        gathered[:] = key[order]
        np.subtract(gathered[1:], step, out=step)
        np.abs(step, out=step)
        chained &= np.less_equal(step, ATOM_TOL, out=close)
    return chained


class EmpiricalMeasure:
    """A finitely supported probability measure with ordered atoms."""

    __slots__ = ("xs", "ys", "weights")

    def __init__(self, space, xs=None, ys=None, weights=None, validate=True):
        _keys(space)     # checks the tag
        n = None
        for name, arr in (("xs", xs), ("ys", ys)):
            if arr is not None:
                arr = np.ascontiguousarray(arr, dtype=float)
                if arr.ndim != 2:
                    raise ValueError(f"{name} must be 2-D (n_atoms, dim)")
                n = arr.shape[0] if n is None else n
                if arr.shape[0] != n:
                    raise ValueError("inconsistent atom counts")
            object.__setattr__(self, name, arr)
        if xs is None:
            raise ValueError(f"space {space!r} requires column 'x'")
        if (ys is None) != (space == "X"):
            raise ValueError(f"space {space!r} {'requires' if ys is None else 'does not take'} column 'y'")
        if weights is None:
            raise ValueError("weights are required")
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != n:
            raise ValueError("weights must be 1-D and match the atom count")
        object.__setattr__(self, "weights", w)
        if validate:
            self._validate()
        for arr in self.columns() + (w,):
            arr.setflags(write=False)

    @property
    def space(self):
        return "X" if self.ys is None else "Z"

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalMeasure is immutable")

    def _validate(self):
        if not all(np.all(np.isfinite(arr)) for arr in self.columns()):
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

        Each atom is ``(x, w)`` on space X and ``(x, y, w)`` on Z.  With
        ``merge=True`` duplicate atoms are coalesced by :meth:`merged`.
        """
        k = len(_keys(space))
        if any(len(atom) != k for atom in atoms):
            raise ValueError(f"space {space!r} atoms take {k - 1} coordinate(s)")
        mu = cls._from_lists(space, [[atom[j] for atom in atoms] for j in range(k)])
        return mu.merged() if merge else mu

    @classmethod
    def _from_lists(cls, space, lists):
        """A measure from one list per record key: the coordinates, then the weights."""
        *points, weights = lists
        n = len(weights)
        if not n:
            raise ValueError("a probability measure needs at least one atom")
        arrays = []
        for key, column in zip(_KEYS, points):
            try:
                arr = np.array(column, dtype=float)
            except ValueError:
                odd = next((i for i, c in enumerate(column) if np.shape(c) != np.shape(column[0])), None)
                if odd is None:
                    raise
                raise ValueError(f"atom {odd}: coordinate {key!r} has shape {np.shape(column[odd])}, "
                                 f"atom 0's has shape {np.shape(column[0])}") from None
            if arr.ndim > 2:
                raise ValueError(f"atom coordinate {key!r} must be a vector, got shape {arr.shape[1:]}")
            arrays.append(arr.reshape(n, -1))
        return cls(space, *arrays, weights=np.array(weights, dtype=float))

    @classmethod
    def dirac(cls, space, *coords):
        return cls.from_atoms(space, [(*coords, 1.0)])

    # -- basic queries --------------------------------------------------------

    def __len__(self):
        return len(self.weights)

    def columns(self):
        """The coordinate arrays: ``(xs,)`` on X, ``(xs, ys)`` on Z."""
        return (self.xs,) if self.ys is None else (self.xs, self.ys)

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
        """One atom per group: the first member's coordinates, the summed weight (rows of no group drop out)."""
        n = len(first)
        return EmpiricalMeasure(
            self.space,
            *(col[first] for col in self.columns()),
            weights=np.bincount(ids, weights=self.weights, minlength=n + 1)[:n],
            validate=False,
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self):
        return {"space": self.space, "atoms": self._json_atoms(0, len(self))}

    def _json_atoms(self, start, stop):
        """The atom records of rows ``start:stop``, as ``to_json_dict`` lists them."""
        columns = [arr[start:stop].tolist() for arr in self.columns() + (self.weights,)]
        return [dict(zip(_keys(self.space), rec)) for rec in zip(*columns)]

    @classmethod
    def from_json_dict(cls, d):
        space, atoms = d["space"], d["atoms"]
        return cls._from_lists(space, [[rec[key] for rec in atoms] for key in _keys(space)])

    def save_json(self, path):
        _write_json(path, self)

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def save_csv(self, path):
        """One atom per row; coordinate columns expanded (for plotting)."""
        columns = self.columns()
        header = [f"{key}{k}" for key, arr in zip(_KEYS, columns) for k in range(arr.shape[1])]
        _write_csv(path, header + [_KEYS[-1]], np.column_stack(columns + (self.weights,)).tolist())


def _require_space(mu: EmpiricalMeasure, space: str, what: str) -> None:
    """The space rule: ``mu``, the argument that ``what`` names, must be a measure on ``space``."""
    if mu.space != space:
        raise ValueError(f"{what} must be a measure on {space}, got one on {mu.space}")


def _is_uniform(mu: EmpiricalMeasure) -> bool:
    """The uniformity rule: every weight is within :data:`WEIGHT_TOL` of ``1/N``."""
    return bool(np.max(np.abs(mu.weights - 1.0 / len(mu))) <= WEIGHT_TOL)


def _marginal_groups(mu: EmpiricalMeasure):
    """First marginal of a pair measure and each pair atom's marginal atom (``len(marginal)``: none)."""
    ids, first = _atom_groups((mu.xs,), mu.weights)
    marg = EmpiricalMeasure("X", xs=mu.xs, weights=mu.weights, validate=False)._collapse(ids, first)
    return marg, ids


def first_marginal(mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Push a pair measure forward to its parameter marginal."""
    _require_space(mu, "Z", "mu")
    return _marginal_groups(mu)[0]


def mix(mu_a: EmpiricalMeasure, mu_b: EmpiricalMeasure, omega: float) -> EmpiricalMeasure:
    """Convex combination ``(1-omega)*mu_a + omega*mu_b`` with merged atoms."""
    if mu_a.space != mu_b.space:
        raise ValueError(f"cannot mix measures on {mu_a.space!r} and {mu_b.space!r}")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    w = np.concatenate([(1.0 - omega) * mu_a.weights, omega * mu_b.weights])
    columns = (np.vstack(pair) for pair in zip(mu_a.columns(), mu_b.columns()))
    return EmpiricalMeasure(mu_a.space, *columns, weights=w, validate=False).merged()


def validate_feasible(mu: EmpiricalMeasure, problem) -> None:
    """Check every pair atom against the problem's feasibility predicate."""
    _require_space(mu, "Z", "mu")
    bad = np.flatnonzero(~np.asarray(problem.feasible_batch(mu.xs, mu.ys), dtype=bool))
    if len(bad):
        i = bad[0]
        raise ValueError(f"infeasible atom {i}: y not in Z_x for x={mu.xs[i]}")


def _write_csv(path, header, rows):
    """Writes ``header``, then ``rows``, to ``path``; the csv module writes a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj, **dumps_kwargs):
    """Writes ``json.dumps(obj, **dumps_kwargs)`` to ``path``, byte for byte.

    ``obj`` may hold one :class:`EmpiricalMeasure`, written as its
    ``to_json_dict()``.  Its atoms are encoded :data:`_JSON_CHUNK_ATOMS`
    at a time, each chunk through the same ``json.dumps`` call with its
    brackets cut off, and the chunks are joined by the encoder's item
    separator; so a measure of any size never has more than one chunk of
    atoms as Python objects.  (``json.dumps`` uses the C encoder;
    ``json.dump`` always streams through pure Python.)
    """
    measures, atoms = [], []

    def head(o):
        # the measure as its dict with the shared atom list in place of its atoms
        if not isinstance(o, EmpiricalMeasure) or (measures and measures[0] is not o):
            raise TypeError(f"cannot write {type(o).__name__} into a JSON artifact")
        measures.append(o)
        return {"space": o.space, "atoms": atoms}

    text = json.dumps(obj, default=head, **dumps_kwargs)
    with open(path, "w") as fh:
        if measures:
            # the two encodings differ first just past the atom list's "["
            atoms.append(0)
            cut = len(os.path.commonprefix([text, json.dumps(obj, default=head, **dumps_kwargs)]))
            fh.write(text[:cut])
            mu, sep = measures[0], dumps_kwargs.get("separators", (", ", ": "))[0]
            for start in range(0, len(mu), _JSON_CHUNK_ATOMS):
                chunk = json.dumps(mu._json_atoms(start, start + _JSON_CHUNK_ATOMS), **dumps_kwargs)
                fh.write(sep + chunk[1:-1] if start else chunk[1:-1])
            text = text[cut:]
        fh.write(text)

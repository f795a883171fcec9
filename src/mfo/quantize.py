"""Marginal discretization: i.i.d. sampling, grid quantization, error estimates.

The grid quantizer places one atom of mass ``1/N`` at each quantile
midpoint, which for a 1-D uniform law gives a transport error of
exactly ``1/(4N)`` -- the deterministic ``O(1/N)`` rate, against the
``O(1/sqrt(N))`` Monte-Carlo rate of plain sampling.  Unbounded laws
are truncated at the ``1 - 1/(4N)`` quantile first (mass renormalized);
the truncation is reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import EmpiricalMeasure
from .transport import MetricSpec, ot_solve


@dataclass(frozen=True)
class SourceDistribution:
    """A marginal to discretize: uniform, exponential, or a finite sample."""

    kind: str
    low: float = 0.0
    high: float = 1.0
    rate: float = 1.0
    data: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind == "uniform":
            if not math.isfinite(self.high - self.low):
                raise ValueError("uniform needs finite bounds a finite width apart, "
                                 f"got {self.low!r} and {self.high!r}")
            if not self.high > self.low:
                raise ValueError("uniform needs high > low")
        elif self.kind == "exponential":
            if not self.rate > 0:
                raise ValueError("exponential needs a positive rate")
            if not math.isfinite(1.0 / self.rate):
                raise ValueError(f"exponential needs a rate whose mean 1/rate is finite, got {self.rate!r}")
        elif self.kind == "samples":
            data = np.asarray(self.data, dtype=float).reshape(-1, 1)
            if not (len(data) and np.isfinite(data).all()):
                raise ValueError("samples must be a non-empty list of finite numbers")
            object.__setattr__(self, "data", data)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def parse(cls, spec: str) -> "SourceDistribution":
        """Parse ``uniform:a,b`` / ``exponential:rate`` / ``samples:<file>``."""
        if not isinstance(spec, str):
            raise ValueError(f"a distribution spec is a string such as 'uniform:0,1', got {spec!r}")
        kind, _, rest = spec.partition(":")
        if kind == "uniform":
            a, b = (float(v) for v in rest.split(",")) if rest else (0.0, 1.0)
            return cls("uniform", low=a, high=b)
        if kind == "exponential":
            return cls("exponential", rate=float(rest) if rest else 1.0)
        if kind == "samples":
            with open(rest) as fh:
                return cls("samples", data=np.loadtxt(fh, ndmin=1))
        raise ValueError(f"cannot parse distribution spec {spec!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=(n, 1))
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size=(n, 1))
        idx = rng.integers(0, len(self.data), size=n)
        return self.data[idx]

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * p
        if self.kind == "exponential":
            return -np.log1p(-p) / self.rate
        return np.quantile(self.data[:, 0], p)

    def describe(self) -> str:
        if self.kind == "uniform":
            return f"uniform:{self.low},{self.high}"
        if self.kind == "exponential":
            return f"exponential:{self.rate}"
        return f"samples[{len(self.data)}]"


def _equal_mass_atoms(dist: SourceDistribution, points, n: int) -> EmpiricalMeasure:
    """Atoms of mass 1/N at ``points``; a law that yields a non-finite atom is rejected.

    An exponential law whose mean is finite can still overflow: with
    rate 1e-308 its upper quantiles and some of its draws exceed the
    largest float.
    """
    xs = np.asarray(points, dtype=float).reshape(n, 1)
    bad = n - np.count_nonzero(np.isfinite(xs))
    if bad:
        raise ValueError(f"{dist.describe()} gives {bad} non-finite atoms of {n}: its values overflow a float")
    return EmpiricalMeasure("X", xs=xs, weights=np.full(n, 1.0 / n), validate=False)


def quantize_sample(dist: SourceDistribution, n: int, seed: int) -> EmpiricalMeasure:
    """N i.i.d. atoms of mass 1/N; seeded and reproducible."""
    if n < 1:
        raise ValueError("need at least one atom")
    return _equal_mass_atoms(dist, dist.sample(np.random.default_rng(seed), n), n)


def grid_truncation(dist: SourceDistribution, n: int):
    """Truncation applied by the grid quantizer: (quantile, cut point) or None."""
    if dist.kind == "exponential":
        q = 1.0 - 1.0 / (4.0 * n)
        return q, float(dist.quantile(q))
    return None


def quantize_grid(dist: SourceDistribution, n: int) -> EmpiricalMeasure:
    """Atoms at the N quantile midpoints, one cell of mass 1/N each.

    Bounded 1-D laws are quantized directly; the exponential is
    truncated at quantile ``1 - 1/(4N)`` and renormalized (see
    :func:`grid_truncation` for the reported cut).
    """
    if n < 1:
        raise ValueError("need at least one atom")
    mids = (np.arange(n) + 0.5) / n
    with np.errstate(over="ignore"):        # an overflowing quantile is rejected below
        trunc = grid_truncation(dist, n)
        points = dist.quantile(mids * trunc[0] if trunc else mids)
    return _equal_mass_atoms(dist, points, n)


def estimate_d1(dist: SourceDistribution, m_n: EmpiricalMeasure, sample_size: int,
                seed: int, metric: MetricSpec | None = None, resamples: int = 5):
    """Monte-Carlo estimate of the transport distance to a continuous law.

    Solves exact transport between fresh i.i.d. empirical samples and
    ``m_n``; returns the mean over the resamples and its standard
    error.
    """
    if sample_size < 10 * len(m_n):
        raise ValueError("sample size must be at least 10x the support size")
    metric = metric or MetricSpec("euclidean")
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(resamples):
        draws = dist.sample(rng, sample_size)
        sample_mu = EmpiricalMeasure(
            "X", xs=draws, weights=np.full(sample_size, 1.0 / sample_size), validate=False
        )
        costs.append(ot_solve(sample_mu, m_n, metric).cost)
    costs = np.asarray(costs)
    stderr = float(costs.std(ddof=1) / math.sqrt(resamples)) if resamples > 1 else 0.0
    return float(costs.mean()), stderr

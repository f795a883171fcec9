"""Problem contract and first-order/duality analysis operations.

A mean field optimization problem minimizes ``f(aggregate(mu))`` over
probability measures ``mu`` on feasible parameter/decision pairs with a
prescribed parameter marginal.  The aggregate lives in a finite
weighted-inner-product space (diagonal weights, e.g. discounted
trapezoid weights for time-discretized models), so that discrete inner
products reproduce the continuous ones bit for bit.  Aggregates and
dual points are plain 1-D float arrays; the weights are the problem's
``hilbert_weights``.

Concrete games subclass :class:`MfoProblem`, or
:class:`QuadraticCostProblem` for the shared quadratic cost; the
contract is spelled out on :class:`MfoProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .measures import EmpiricalMeasure, first_marginal, validate_feasible

if TYPE_CHECKING:
    from .transport import MetricSpec


class OracleError(RuntimeError):
    """A problem oracle violated its contract."""


def _frozen_weights(weights) -> np.ndarray:
    """Inner-product weights as a read-only vector; each must be positive and finite."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("inner-product weights must be a vector of positive, finite numbers")
    w.setflags(write=False)
    return w


def _integer(value, key: str) -> int:
    """``value`` as an int; an integral float passes, a boolean or a fraction is an error, not truncated."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(value, key: str) -> int:
    """``value`` as an int of at least 1, under the rule of :func:`_integer`."""
    n = _integer(value, key)
    if n < 1:
        raise ValueError(f"{key} must be at least 1, got {value!r}")
    return n


def _real(value, key: str, positive: bool = False) -> float:
    """``value`` as a finite float of at least 0 (above 0 if ``positive``); a boolean or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    x = float(value)
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
        raise ValueError(f"{key} must be finite and {'positive' if positive else 'at least 0'}, got {value!r}")
    return x


def _inner(problem, a, b) -> float:
    """``<a, b> = sum_i w_i a_i b_i`` with the problem's ``hilbert_weights`` ``w``."""
    return float((problem.hilbert_weights * a * b).sum())


def _norm(problem, a) -> float:
    return math.sqrt(max(_inner(problem, a, a), 0.0))


class MfoProblem:
    """Contract bundling the model data and oracles of one game.

    Every oracle takes a batch: ``xs`` holds one parameter per row and
    ``ys`` one decision per row.  A game sets as attributes
    ``hilbert_weights`` (positive, finite diagonal weights of the
    aggregation space, passed through ``_frozen_weights``), ``metric``
    (ground metric on parameters; only transport plans read it, so a
    game may compute it on first access) and the constants
    ``grad_lipschitz``, ``sup_g_norm``, ``sup_g_diff_sq``,
    ``sup_grad_norm`` and ``set_lipschitz``.  Aggregates ``beta`` and
    dual points ``lam`` are 1-D float arrays with one entry per weight.
    A game implements the cost ``f_value(beta)`` / ``f_grad(beta)``
    (gradient taken w.r.t. the weighted inner product), or inherits it
    from :class:`QuadraticCostProblem`, and the five batch oracles.
    ``f_value`` also takes a stack ``(..., D)`` of aggregates and returns
    an array of one value per aggregate, each with the bits of the call
    on that aggregate alone, which returns a Python ``float`` (SFW scores
    an iteration's candidates in one call).  The batch oracles:

    * ``g_eval_batch(xs, ys)`` -- contribution matrix, one row per pair
      and one column per entry of ``hilbert_weights``;
    * ``best_response_batch(lam, xs)`` -- per row, a minimizer of
      ``<lam, g(x, .)>`` over the feasible decisions at ``x``;
    * ``feasible_batch(xs, ys)`` -- boolean vector, ``y in Z_x`` per row;
    * ``transport_select_batch(xs, ys, x2s)`` -- per row, a decision at
      ``x2`` whose contribution moves by at most
      ``set_lipschitz * d(x, x2)``;
    * ``initial_decision_batch(xs)`` -- any feasible decision per row
      (solver warm start), or a ``ValueError`` naming a parameter that
      has none or giving the shape of a batch that is not one
      parameter per row.

    The solvers sweep a marginal many times, with a sweep bound once:
    ``bind(xs)`` returns an object whose ``best_response_rows(lam)``
    returns ``(ys, G)``, the best responses at ``lam`` and their
    contribution rows.  The default :class:`Sweep` runs
    ``best_response_batch``, then ``g_eval_batch``; a game may bind its
    own, which prepares what the parameters fix, and must return their
    decisions and rows bit for bit.  A sweep bound to some of the rows
    returns those rows of the full sweep bit for bit.

    ``feasible(x, y)``, the one-row form of ``feasible_batch`` that the
    benchmark's output checks call, is derived here, and so are
    ``from_config`` and ``describe``, from ``config_keys``.

    ``f_conj`` may raise :class:`NotImplementedError` when the conjugate
    is unavailable; dual operations then refuse to run.  All oracles
    must be pure: the answer depends on the arguments only, and a game
    keeps no state derived from them.
    """

    name = "abstract"
    #: constructor arguments read by ``from_config`` and reported by ``describe``
    config_keys: tuple = ()

    # the data of an instance; subclasses assign instance attributes
    hilbert_weights: np.ndarray
    metric: MetricSpec
    grad_lipschitz: float
    sup_g_norm: float
    sup_g_diff_sq: float
    sup_grad_norm: float
    set_lipschitz: float

    @classmethod
    def from_config(cls, cfg: dict) -> "MfoProblem":
        return cls(**{k: cfg[k] for k in cls.config_keys if k in cfg})

    def _constants(self) -> dict:
        """The name and the analytic constants."""
        return {
            "name": self.name,
            "grad_lipschitz": self.grad_lipschitz,
            "sup_g_norm": self.sup_g_norm,
            "sup_g_diff_sq": self.sup_g_diff_sq,
            "sup_grad_norm": self.sup_grad_norm,
            "set_lipschitz": self.set_lipschitz,
        }

    def describe(self) -> dict:
        """The constants and the value of each ``config_keys`` entry."""
        return {**self._constants(), **{k: getattr(self, k) for k in self.config_keys}}

    def f_value(self, beta: np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def f_grad(self, beta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def f_conj(self, lam: np.ndarray) -> float:
        raise NotImplementedError("conjugate not available for this problem")

    def g_eval_batch(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def best_response_batch(self, lam: np.ndarray, xs) -> np.ndarray:
        raise NotImplementedError

    def bind(self, xs) -> "Sweep":
        return Sweep(self, xs)

    def feasible_batch(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def transport_select_batch(self, xs, ys, x2s) -> np.ndarray:
        raise NotImplementedError

    def initial_decision_batch(self, xs) -> np.ndarray:
        raise NotImplementedError

    def feasible(self, x, y) -> bool:
        return bool(self.feasible_batch(_row(x), _row(y))[0])


class Sweep:
    """The default sweep of :meth:`MfoProblem.bind`: ``best_response_batch``, then ``g_eval_batch``."""

    def __init__(self, problem: MfoProblem, xs):
        self.problem, self.xs = problem, xs

    def best_response_rows(self, lam: np.ndarray):
        ys = self.problem.best_response_batch(lam, self.xs)
        return ys, self.problem.g_eval_batch(self.xs, ys)


class QuadraticCostProblem(MfoProblem):
    """A game with cost ``f(beta) = beta_0 + (kappa/2) sum_{t>=1} w_t beta_t^2``.

    ``w`` are the ``hilbert_weights`` and ``kappa = grad_lipschitz``: the
    certified Lipschitz constant of ``f_grad`` is the cost's own
    coefficient.  ``kappa = 0`` is allowed; the conjugate is then finite
    only at ``lam[1:] = 0``.
    """

    def f_value(self, beta: np.ndarray) -> float | np.ndarray:
        sq = np.multiply(beta[..., 1:], beta[..., 1:])
        sq *= self.hilbert_weights[1:]
        value = beta[..., 0] + 0.5 * self.grad_lipschitz * sq.sum(axis=-1)
        return value if value.ndim else float(value)

    def f_grad(self, beta: np.ndarray) -> np.ndarray:
        lam = np.empty(len(beta))
        lam[0] = 1.0
        np.multiply(beta[1:], self.grad_lipschitz, out=lam[1:])
        return lam

    def f_conj(self, lam: np.ndarray) -> float:
        if abs(lam[0] - 1.0) > 1e-9:
            return math.inf
        if self.grad_lipschitz == 0.0:
            return 0.0 if float(np.max(np.abs(lam[1:]), initial=0.0)) <= 1e-12 else math.inf
        return float(np.sum(self.hilbert_weights[1:] * lam[1:] ** 2) / (2.0 * self.grad_lipschitz))


def _row(p) -> np.ndarray:
    """One point as a one-row batch."""
    return np.asarray(p, dtype=float).reshape(1, -1)


#: slack of the games' feasibility predicates, for decisions built in floating point
FEAS_TOL = 1e-9

#: certificates more negative than this indicate a broken oracle, not roundoff
GAP_NEGATIVITY_TOL = 1e-9


def clamp_gap(raw: float) -> float:
    """Zero out float-cancellation negatives; reject genuine ones and non-finite gaps."""
    if not math.isfinite(raw):
        raise RuntimeError(f"non-finite optimality gap {raw}: an oracle violated its contract")
    if raw < -GAP_NEGATIVITY_TOL:
        raise RuntimeError(f"negative optimality gap {raw:.3e}: an oracle violated its contract")
    return max(raw, 0.0)


@dataclass(frozen=True)
class DualCertificate:
    """First-order certificate at a candidate measure.

    ``beta`` is the measure's aggregate and ``lam = f_grad(beta)``.
    ``gap = <lam, beta> - integral of the best-response value``
    bounds the suboptimality of the measure from above; it vanishes
    exactly at solutions.  ``dual_value`` is the dual objective at
    ``lam`` (so ``gap = primal_value + dual_value`` and
    ``-dual_value`` is a certified lower bound on the optimal value).
    """

    beta: np.ndarray
    lam: np.ndarray
    primal_value: float
    dual_value: float
    gap: float

    def to_json_dict(self):
        return {
            "lambda": self.lam.tolist(),
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "gap": self.gap,
        }


def aggregate(problem: MfoProblem, mu: EmpiricalMeasure) -> np.ndarray:
    """Weight-sum of contributions ``sum_i w_i g(x_i, y_i)``; every atom must be feasible."""
    _check_pairs(problem, mu)
    return mu.weights @ problem.g_eval_batch(mu.xs, mu.ys)


def _check_pairs(problem: MfoProblem, mu: EmpiricalMeasure):
    """Check that ``mu`` lies on pairs and that each atom is feasible; an infeasible one is an :class:`OracleError`."""
    if mu.space != "Z":
        raise ValueError("aggregate needs a measure on pairs")
    try:
        validate_feasible(mu, problem)
    except ValueError as exc:
        raise OracleError(str(exc)) from exc


def _check_dual_point(lam):
    if not np.isfinite(lam).all():
        raise ValueError("the dual point lam must be finite")


def _support_values(problem, sweep, lam, hl=None):
    """One pass of ``sweep``, bound by ``problem.bind``: per row, the minimizer, its contribution and ``<lam, g>``.

    ``hl`` is ``hilbert_weights * lam``, for a caller that has formed it
    and checked ``lam`` (:func:`_certificate_pass` does); without ``hl``
    the sweep checks ``lam`` itself.
    """
    if hl is None:
        _check_dual_point(lam)
        hl = problem.hilbert_weights * lam
    ys, G = sweep.best_response_rows(lam)
    return ys, G, G @ hl


def _certificate_pass(problem, beta: np.ndarray, sweep, w):
    """The certificate at aggregate ``beta`` over the marginal ``(xs, w)``, as plain values.

    Returns ``(lam, ys, G, gap, primal, lambda_norm)``: the dual point
    ``lam = f_grad(beta)``, the best responses of ``sweep`` (which is
    ``problem.bind(xs)``) and their contribution rows (which the solvers
    step towards), the gap, the primal value and ``|lam|``.  ``hl =
    hilbert_weights * lam`` is formed once and serves the sweep values,
    ``<lam, beta>`` and ``|lam|``; as :func:`_inner` evaluates ``(w * a)
    * b``, each number has the bits of its :func:`_inner` form.  FW calls
    this every iteration, SFW once per distinct aggregate.

    This pass checks ``lam`` before the sweep, through ``<hl, lam>``: its
    terms ``w_i lam_i^2`` are nonnegative, so it is finite whenever
    ``lam`` is, and only when it is not does :func:`_check_dual_point`
    look at ``lam`` itself (a finite ``lam`` whose square sum overflows
    passes, as it would there).
    """
    if not np.logical_and.reduce(np.isfinite(beta)):
        raise ValueError("the aggregate must be finite")
    lam = problem.f_grad(beta)
    hl = problem.hilbert_weights * lam
    lam_sq = float(np.add.reduce(hl * lam))
    if not math.isfinite(lam_sq):
        _check_dual_point(lam)
    ys, G, values = _support_values(problem, sweep, lam, hl)
    # on two contiguous vectors (measure weights, a fresh product) ndarray.dot
    # calls the same BLAS ddot as @, with less dispatch
    gap = clamp_gap(float(np.add.reduce(hl * beta)) - float(w.dot(values)))
    return lam, ys, G, gap, problem.f_value(beta), math.sqrt(max(lam_sq, 0.0))


def _certify(problem, beta: np.ndarray, sweep, w) -> DualCertificate:
    """:func:`_certificate_pass` as a :class:`DualCertificate`, for :func:`fw_gap`, the bridge and solvers."""
    lam, _, _, gap, primal, _ = _certificate_pass(problem, beta, sweep, w)
    return DualCertificate(beta=beta, lam=lam, primal_value=primal, dual_value=gap - primal, gap=gap)


def linearized_solve(problem: MfoProblem, lam: np.ndarray, m: EmpiricalMeasure) -> EmpiricalMeasure:
    """Minimize the linearized cost: one best response per support point."""
    if m.space != "X":
        raise ValueError("the prescribed marginal lives on X")
    ys, _, _ = _support_values(problem, problem.bind(m.xs), lam)
    return EmpiricalMeasure("Z", xs=m.xs, ys=ys, weights=m.weights, validate=False).merged()


def fw_gap(problem: MfoProblem, mu: EmpiricalMeasure) -> DualCertificate:
    """First-order optimality certificate of ``mu``.

    With ``lam = f_grad(aggregate(mu))`` the gap equals
    ``<lam, aggregate(mu)> - sum_i w_i u_lam(x_i)``; by convexity it
    dominates ``f(aggregate(mu)) - optimal value``, and by Fenchel's
    relation it also equals ``primal + dual objective at lam`` without
    requiring the conjugate.
    """
    beta = aggregate(problem, mu)
    m = first_marginal(mu)
    return _certify(problem, beta, problem.bind(m.xs), m.weights)


def dual_value(problem: MfoProblem, lam: np.ndarray, m: EmpiricalMeasure) -> float:
    """Dual objective ``f_conj(lam) - sum_i w_i u_lam(x_i)``.

    Returns ``+inf`` when ``lam`` falls outside the conjugate's domain.
    Minimizing this over the domain and flipping the sign gives the
    optimal value of the primal problem (strong duality).
    """
    _check_dual_point(lam)
    conj = problem.f_conj(lam)
    if not math.isfinite(conj):
        return math.inf
    _, _, values = _support_values(problem, problem.bind(m.xs), lam)
    return conj - float(m.weights @ values)


def value_directional_derivative(problem: MfoProblem, m0, m1, lam_star_m0: np.ndarray) -> float:
    """Directional derivative of the optimal value along ``m1 - m0``.

    ``lam_star_m0`` must be the dual solution at ``m0`` (the gradient of
    ``f`` at a converged aggregate); the derivative is the integral of
    the best-response value against the signed measure ``m1 - m0``.
    """
    _, _, v1 = _support_values(problem, problem.bind(m1.xs), lam_star_m0)
    _, _, v0 = _support_values(problem, problem.bind(m0.xs), lam_star_m0)
    return float(m1.weights @ v1) - float(m0.weights @ v0)

"""Bernoulli mean-parametrized factorization with a Beta prior on H.

The model treats each data cell as Bernoulli with success probability
``(W @ H)[m, n]``.  Validity of that probability is enforced structurally:
every row of W lives on the probability simplex and every entry of H lies in
[0, 1], so the product is a convex combination of numbers in [0, 1].

Training minimizes the MAP objective

    f(W, H) + g(H)

where ``f`` is the negative Bernoulli log-likelihood summed over the
observed cells and ``g`` is the negative Beta(alpha, beta) log-density
summed over all of H (the prior does not depend on which cells are
observed).  Both factors are updated in closed form by
majorization-minimization: each update minimizes a tight Jensen upper bound
of the objective at the current point, which makes the objective
non-increasing sweep after sweep and keeps the constraints satisfied without
projections.  ``alpha = beta = 1`` switches the prior off and recovers the
plain expectation-maximization estimator (see :func:`fit_em`).

Training on a subset of cells replaces every sum over the full grid with a
sum over the observed cells; the per-cell structure of the bounds is
unchanged, so the descent guarantee survives, and the simplex multiplier for
row m becomes the number of observed cells in that row instead of N.

Structure: ``_prepare`` turns one ``(Y, mask)`` pair into the observed ones
``A``, the observed zeros ``B`` and the per-row observed counts; ``_ratios``
writes ``A / P`` and ``B / (1 - P)`` for ``P = W @ H``, and ``_h_step`` and
``_w_step`` are the only copies of the two half-updates and take those
ratios as arguments.  :func:`fit` prepares once and computes two products per
sweep, as the objective of one sweep and the H step of the next share ``P``;
the public updates and :func:`objective` prepare per call.

The public functions are pure: they read their inputs and return fresh
arrays.  :func:`fit` owns three M-by-N arrays, ``P`` and two scratch arrays,
which every full-size step of its sweep writes into, so the sweep allocates
nothing of that size; the factors it returns or passes to ``on_sweep`` are
fresh arrays that no later sweep overwrites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .binmat import BinaryMatrix, ObservationMask
from .errors import ConfigError, DimensionError, EmptyMaskError, NumericalError

__all__ = [
    "BetaPrior",
    "FactorPair",
    "FitConfig",
    "FitReport",
    "init_factors",
    "reconstruct",
    "objective",
    "update_h",
    "update_w",
    "fit",
    "fit_em",
]


@dataclass(frozen=True)
class BetaPrior:
    """Shared Beta(alpha, beta) shape parameters for every entry of H.

    Both parameters must be >= 1; smaller values would make the closed-form
    updates produce negative numerators, so they are rejected outright.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 1.0:
                raise ConfigError(f"{name} must be a finite value >= 1, got {value}")

    @property
    def is_flat(self):
        return self.alpha == 1.0 and self.beta == 1.0


@dataclass(frozen=True)
class FactorPair:
    """W (M-by-K, rows on the simplex) and H (K-by-N, entries in [0, 1]).

    The arrays are held by reference and must be treated as read-only.
    Construction checks shapes only; :meth:`validate` checks the numeric
    invariants at a given clamp width.
    """

    W: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        H = np.asarray(self.H, dtype=float)
        if W.ndim != 2 or H.ndim != 2:
            raise DimensionError("W and H must be 2-d arrays")
        if W.shape[1] != H.shape[0]:
            raise DimensionError(
                f"inner dimensions disagree: W is {W.shape}, H is {H.shape}"
            )
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "H", H)

    @property
    def n_rows(self):
        return self.W.shape[0]

    @property
    def n_cols(self):
        return self.H.shape[1]

    @property
    def rank(self):
        return self.W.shape[1]

    def validate(self, epsilon=1e-12, atol=1e-9):
        """Raise if the factor invariants do not hold.

        Checks W >= 0 with unit row sums (within ``atol``), H within
        [epsilon, 1 - epsilon], and the reconstruction inside (0, 1).
        """
        if self.W.min() < 0:
            raise ValueError("W has negative entries")
        row_sums = self.W.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > atol:
            raise ValueError("W rows do not sum to 1")
        if self.H.min() < epsilon or self.H.max() > 1.0 - epsilon:
            raise ValueError("H entries leave the clamped interval")
        product = self.W @ self.H
        if product.min() <= 0.0 or product.max() >= 1.0:
            raise ValueError("reconstruction leaves (0, 1)")


@dataclass(frozen=True)
class FitConfig:
    """Rank, prior, and stopping control for one training run."""

    rank: int
    prior: BetaPrior = field(default_factory=BetaPrior)
    tol: float = 1e-5
    max_iter: int = 2000
    epsilon: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.prior, BetaPrior):
            raise ConfigError("prior must be a BetaPrior")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.epsilon < 1e-3):
            raise ConfigError(f"epsilon must lie in (0, 1e-3), got {self.epsilon}")


@dataclass(frozen=True)
class FitReport:
    """Objective trace and stopping outcome of one training run."""

    objective_trace: tuple
    n_iter: int
    converged: bool
    wall_time: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))
        if self.n_iter != len(self.objective_trace) - 1:
            raise ValueError("n_iter must equal len(objective_trace) - 1")

    @property
    def final_objective(self):
        return self.objective_trace[-1]

    def to_dict(self):
        return {
            "objective_trace": list(self.objective_trace),
            "n_iter": self.n_iter,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            objective_trace=tuple(data["objective_trace"]),
            n_iter=int(data["n_iter"]),
            converged=bool(data["converged"]),
            wall_time=float(data["wall_time"]),
            seed=int(data["seed"]),
        )


def _clamp_w(W, epsilon):
    floored = np.maximum(W, epsilon)
    return floored / floored.sum(axis=1, keepdims=True)


def init_factors(n_rows, n_cols, rank, epsilon=1e-12, seed=0):
    """Draw starting factors that already satisfy the constraints.

    W rows come from the flat Dirichlet (unit-exponential draws normalized
    per row) and H is uniform on (epsilon, 1 - epsilon).  Deterministic in
    ``seed``; W is drawn before H.
    """
    if n_rows < 1 or n_cols < 1 or rank < 1:
        raise ConfigError("n_rows, n_cols, and rank must all be >= 1")
    rng = np.random.default_rng(seed)
    expo = rng.standard_exponential((n_rows, rank))
    W = _clamp_w(expo, epsilon)
    H = epsilon + (1.0 - 2.0 * epsilon) * rng.random((rank, n_cols))
    return FactorPair(W, H)


def reconstruct(factors):
    """Predicted Bernoulli means ``W @ H`` for every cell."""
    return factors.W @ factors.H


def _prepare(Y, mask):
    """Dense observed ones ``A``, observed zeros ``B`` and per-row counts."""
    if Y.shape != mask.shape:
        raise DimensionError(
            f"mask shape {mask.shape} does not match matrix shape {Y.shape}"
        )
    observed = mask.to_dense().astype(float)
    n_obs = observed.sum(axis=1)
    A = observed * Y.to_dense()
    B = np.subtract(observed, A, out=observed)
    return A, B, n_obs


def _scratch(P):
    """Two arrays shaped like ``P`` for :func:`_ratios` and the objective."""
    return np.empty_like(P), np.empty_like(P)


def _ratios(A, B, P, scratch):
    """Write ``A / P`` and ``B / (1 - P)`` into the two scratch arrays."""
    R, S = scratch
    np.divide(A, P, out=R)
    np.subtract(1.0, P, out=S)
    np.divide(B, S, out=S)
    return R, S


def _objective_arrays(A, B, P, H, prior, scratch):
    """``-(A*log P + B*log1p(-P)).sum()`` plus the prior, built in ``scratch``."""
    if P.min() <= 0.0 or P.max() >= 1.0:
        raise NumericalError("reconstruction left the open interval (0, 1)")
    R, S = scratch
    np.multiply(A, np.log(P, out=R), out=R)
    np.multiply(B, np.log1p(np.negative(P, out=S), out=S), out=S)
    value = -np.add(R, S, out=R).sum()
    alpha, beta = prior.alpha, prior.beta
    if alpha != 1.0 or beta != 1.0:
        value -= ((alpha - 1.0) * np.log(H) + (beta - 1.0) * np.log1p(-H)).sum()
    return float(value)


def objective(Y, mask, factors, prior):
    """MAP objective: masked negative log-likelihood plus prior penalty.

    The likelihood part sums over the cells in ``mask`` only; the prior
    penalty always covers all of H.
    """
    A, B, _ = _prepare(Y, mask)
    P = reconstruct(factors)
    return _objective_arrays(A, B, P, factors.H, prior, _scratch(P))


def _h_step(R, S, W, H, alpha, beta, epsilon, clamp):
    pos = W.T @ R
    neg = W.T @ S
    c = H * pos + (alpha - 1.0)
    d = (1.0 - H) * neg + (beta - 1.0)
    denom = c + d
    # c = d = 0 only for a fully unobserved column under the flat prior;
    # those entries keep their current value.
    new_H = H.copy()
    np.divide(c, denom, out=new_H, where=denom > 0)
    return np.clip(new_H, epsilon, 1.0 - epsilon) if clamp else new_H


def update_h(Y, mask, factors, prior, epsilon=1e-12, clamp=True):
    """One closed-form H update at fixed W.

    Each entry moves to ``c / (c + d)`` where ``c`` collects the
    responsibility-weighted evidence for 1s in the masked cells plus
    ``alpha - 1`` and ``d`` the evidence for 0s plus ``beta - 1``.  A column
    with no observed cells stays put under the flat prior and moves to the
    prior mode otherwise.  With ``clamp`` the result is pulled into
    [epsilon, 1 - epsilon].
    """
    A, B, _ = _prepare(Y, mask)
    P = reconstruct(factors)
    R, S = _ratios(A, B, P, _scratch(P))
    return _h_step(R, S, factors.W, factors.H, prior.alpha, prior.beta,
                   epsilon, clamp)


def _w_step(R, S, n_obs, W, H, epsilon, clamp):
    pos = R @ H.T
    neg = S @ (1.0 - H).T
    new_W = W * (pos + neg)
    np.divide(new_W, n_obs[:, None], out=new_W, where=n_obs[:, None] > 0)
    if clamp:
        new_W = _clamp_w(new_W, epsilon)
    untouched = n_obs == 0
    if untouched.any():
        new_W[untouched] = W[untouched]
    return new_W


def update_w(Y, mask, factors, epsilon=1e-12, clamp=True):
    """One multiplicative W update at fixed H.

    Each row is rescaled by the mixture responsibilities of its observed
    cells and divided by the number of observed cells in that row, which is
    exactly the simplex multiplier, so row sums return to 1.  Rows with no
    observed cells are returned unchanged.  With ``clamp`` entries are
    floored at ``epsilon`` and the row renormalized.
    """
    A, B, n_obs = _prepare(Y, mask)
    P = reconstruct(factors)
    R, S = _ratios(A, B, P, _scratch(P))
    return _w_step(R, S, n_obs, factors.W, factors.H, epsilon, clamp)


def _relative_change(previous, current):
    if previous == 0.0:
        return 0.0 if current == 0.0 else np.inf
    return abs(previous - current) / abs(previous)


def fit(Y, mask, config, on_sweep=None):
    """Run the full alternating procedure on the masked cells.

    Starting from :func:`init_factors`, every sweep updates H then W and
    re-evaluates the objective.  The loop stops once the relative objective
    change drops below ``config.tol`` or after ``config.max_iter`` sweeps.
    ``on_sweep(iteration, objective, factors)``, when given, is called after
    each sweep.

    Returns ``(FactorPair, FitReport)``.  Raises :class:`NumericalError`
    (carrying the sweep index) if the objective ever turns non-finite.
    """
    if not isinstance(Y, BinaryMatrix) or not isinstance(mask, ObservationMask):
        raise ConfigError("fit expects a BinaryMatrix and an ObservationMask")
    if mask.n_cells == 0:
        raise EmptyMaskError("cannot fit on an empty mask")
    A, B, n_obs = _prepare(Y, mask)
    prior, epsilon = config.prior, config.epsilon

    def evaluate(P, H, sweep):
        try:
            value = _objective_arrays(A, B, P, H, prior, scratch)
        except NumericalError as exc:
            raise NumericalError(str(exc), iteration=sweep) from None
        if not np.isfinite(value):
            raise NumericalError("non-finite objective", iteration=sweep)
        return value

    start = time.perf_counter()
    factors = init_factors(Y.n_rows, Y.n_cols, config.rank, epsilon, config.seed)
    W, H = factors.W, factors.H
    # The loop writes every full-size result into P or the scratch pair.
    P = W @ H
    scratch = _scratch(P)

    trace = [evaluate(P, H, 0)]
    converged = False

    for sweep in range(1, config.max_iter + 1):
        R, S = _ratios(A, B, P, scratch)
        H = _h_step(R, S, W, H, prior.alpha, prior.beta, epsilon, clamp=True)
        R, S = _ratios(A, B, np.matmul(W, H, out=P), scratch)
        W = _w_step(R, S, n_obs, W, H, epsilon, clamp=True)
        np.matmul(W, H, out=P)
        trace.append(evaluate(P, H, sweep))
        if on_sweep is not None:
            on_sweep(sweep, trace[-1], FactorPair(W, H))
        if _relative_change(trace[-2], trace[-1]) < config.tol:
            converged = True
            break

    report = FitReport(
        objective_trace=tuple(trace),
        n_iter=len(trace) - 1,
        converged=converged,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
    )
    return FactorPair(W, H), report


def fit_em(Y, mask, config, on_sweep=None):
    """:func:`fit` with the prior forced flat (alpha = beta = 1).

    This is the prior-free expectation-maximization baseline; it shares the
    code path with :func:`fit` exactly, so traces and factors match a run
    with ``BetaPrior(1, 1)`` element for element.
    """
    return fit(Y, mask, replace(config, prior=BetaPrior(1.0, 1.0)), on_sweep=on_sweep)

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
``A``, the observed zeros ``B`` and the per-row observed counts.  Every pass
walks the rows in blocks of at most 2**16 cells, or of one row where a row
is longer (``_blocks``), whose working set stays in cache.  On a block,
``_block_ratios`` computes ``P = W @ H``, checks that every cell lies in
(0, 1) and writes ``R = A / P`` and then ``S = B / (1 - P)`` over ``P``.
``_w_step`` takes a block's W-step rows from its ratios, ``W.T @ R`` and
``W.T @ S`` are its share of the H step's numerators, and
``_log_likelihood`` gives its share of the objective: ``R + S`` is
``1 / P`` on an observed one, ``1 / (1 - P)`` on an observed zero and 0
elsewhere, so the masked negative log-likelihood is
``sum(log(max(R + S, 1)))``, one log per cell.  Only the K-by-N numerators
and that sum couple the rows, and they are added to zeroed sums in block
order.  ``_h_step`` takes the next H from the summed numerators.
:func:`update_w`, :func:`update_h` and :func:`objective` are each one loop
over the blocks.

:func:`fit` prepares once and makes each sweep one pass in which a block
takes its W step, then scores the new rows and writes their numerators
(``block_share``); after the pass the next sweep's H is taken.  So a sweep
computes two products and two ratio passes per block.  The pass runs on
``p`` processes, ``p`` from ``_workers.fit_processes``: on Linux, from the
main thread while no other Python thread is alive, the CPUs this process
may use, at most one per block and at most the cap that an open
``_workers.capping_fit_processes`` block sets (``tune`` opens one around
its fits); else 1.  The fit reports ``p`` in ``FitReport.processes``.
Every ``p`` runs the same loop:
after preparing, the fit forks ``p - 1`` workers, none at ``p = 1``, which
inherit ``A`` and ``B``.  Each process owns a fixed contiguous range of
blocks, the fit's own first.  W and H live in one anonymous shared mapping
(``_workers.shared_arrays``), and each sweep writes its W step over W,
block by block, and its next H over H.  The fit runs its own blocks
through one reused pair of numerator slots, adding each block's to the
sums as it goes; a worker writes each of its blocks' numerators into that
block's own slots in the mapping and answers with their log-likelihoods
(``_workers.Workers``), and the fit adds those after its own, in block
order.  So the bytes do not depend on ``p``.  Every fit runs its products
at one OpenBLAS thread, so its bytes do not depend on the BLAS thread
count either.

Every call of :func:`fit`, the public updates and :func:`objective`
prepares its own problem with ``_prepare``: ``A`` and ``B`` (16 bytes a
cell) and the row counts, all read-only, which it drops when it returns.
``_prepare`` takes its inputs as the list ``[Y, mask]`` and empties it,
dropping the mask once its dense copy is made and ``Y`` once ``A`` is; the
CLI's fit hands over its only references (``_fit_cells``), so its sweeps run
without the dataset or the mask, while library callers keep theirs.

The public functions are pure: they read their inputs and return fresh
arrays.  Besides the prepared problem, each call owns only its two scratch
arrays of one block's size (each worker of a fit has its own), and a fit
its shared mapping: W, H and ``1 - H`` (made once a sweep, for the W steps of
every block), and 2·K·N float64 per block a worker runs.
:func:`fit` allocates them once and writes every block step into them, so
a sweep allocates nothing of the matrix's size; the W and H it returns or
passes to ``on_sweep`` are copies that no later sweep overwrites.  The H
step taken after the last evaluation is discarded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._workers import Workers, _one_blas_thread, fit_processes, shared_arrays
from .binmat import BinaryMatrix, ObservationMask, _float_setting, _integer_setting
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
            value = _float_setting(name, getattr(self, name), 1.0, ends="[]")
            object.__setattr__(self, name, value)

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

        Checks finite entries, W >= 0 with unit row sums (within ``atol``),
        H within [epsilon, 1 - epsilon], and the reconstruction inside (0, 1),
        formed one row block at a time.
        """
        w_low, h_low, h_high = self.W.min(), self.H.min(), self.H.max()
        if not np.isfinite([w_low, self.W.max(), h_low, h_high]).all():
            raise ValueError("W or H has non-finite entries")
        if w_low < 0:
            raise ValueError("W has negative entries")
        row_sums = self.W.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > atol:
            raise ValueError("W rows do not sum to 1")
        if h_low < epsilon or h_high > 1.0 - epsilon:
            raise ValueError("H entries leave the clamped interval")
        for rows, P, _ in _blocks(self.n_rows, self.n_cols):
            if not _inside_unit_interval(np.matmul(self.W[rows], self.H, out=P)):
                raise ValueError("reconstruction leaves (0, 1)")


@dataclass(frozen=True)
class FitConfig:
    """Rank, prior, stopping control and seed for one training run."""

    rank: int
    prior: BetaPrior = field(default_factory=BetaPrior)
    tol: float = 1e-5
    max_iter: int = 2000
    epsilon: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.prior, BetaPrior):
            raise ConfigError("prior must be a BetaPrior")
        for name, minimum in (("rank", 1), ("max_iter", 1), ("seed", 0)):
            value = _integer_setting(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tol", _float_setting("tol", self.tol, 0.0))
        object.__setattr__(self, "epsilon", _epsilon_setting(self.epsilon))


@dataclass(frozen=True)
class FitReport:
    """Objective trace, stopping outcome and process count of one training run."""

    objective_trace: tuple
    n_iter: int
    converged: bool
    wall_time: float
    seed: int
    processes: int = 1

    def __post_init__(self):
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))
        if self.n_iter != len(self.objective_trace) - 1:
            raise ValueError("n_iter must equal len(objective_trace) - 1")

    @property
    def final_objective(self):
        return self.objective_trace[-1]

    def to_dict(self):
        return {**vars(self), "objective_trace": list(self.objective_trace)}

    @classmethod
    def from_dict(cls, data):
        return cls(
            objective_trace=tuple(data["objective_trace"]),
            n_iter=int(data["n_iter"]),
            converged=bool(data["converged"]),
            wall_time=float(data["wall_time"]),
            seed=int(data["seed"]),
            processes=int(data.get("processes", 1)),  # absent from older reports
        )


def _epsilon_setting(value):
    """The one rule for a clamp width ε, so that H in [ε, 1 - ε] keeps every
    ``W @ H`` in (0, 1)."""
    epsilon = _float_setting("epsilon", value, 0.0, 1e-3)
    if 1.0 - epsilon == 1.0:
        raise ConfigError(f"epsilon must leave 1 - epsilon < 1, got {epsilon}")
    return epsilon


def _clamp_w(W, epsilon):
    floored = np.maximum(W, epsilon)
    return floored / floored.sum(axis=1, keepdims=True)


def init_factors(n_rows, n_cols, rank, epsilon=1e-12, seed=0):
    """Draw starting factors that already satisfy the constraints.

    W rows come from the flat Dirichlet (unit-exponential draws normalized
    per row) and H is uniform on (epsilon, 1 - epsilon).  Deterministic in
    ``seed``; W is drawn before H.
    """
    n_rows = _integer_setting("n_rows", n_rows, 1)
    n_cols = _integer_setting("n_cols", n_cols, 1)
    rank = _integer_setting("rank", rank, 1)
    seed = _integer_setting("seed", seed, 0)
    epsilon = _epsilon_setting(epsilon)
    # numpy refuses an array of more bytes than an intp holds with a
    # ValueError; such factors are out of memory, as larger ones that it
    # tries and fails to allocate are.
    if max(n_rows, n_cols) * rank > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"rank-{rank} factors of a {n_rows}x{n_cols} matrix "
                          "exceed the largest possible array")
    rng = np.random.default_rng(seed)
    expo = rng.standard_exponential((n_rows, rank))
    W = _clamp_w(expo, epsilon)
    H = epsilon + (1.0 - 2.0 * epsilon) * rng.random((rank, n_cols))
    return FactorPair(W, H)


def reconstruct(factors):
    """Predicted Bernoulli means ``W @ H`` for every cell."""
    return factors.W @ factors.H


def _check_shapes(Y, mask):
    if 0 in Y.shape:
        raise DimensionError(f"matrix of shape {Y.shape} has no cells")
    if Y.shape != mask.shape:
        raise DimensionError(
            f"mask shape {mask.shape} does not match matrix shape {Y.shape}"
        )


def _check_fit(Y, mask):
    """Raise unless ``fit`` can run on ``(Y, mask)``: a :class:`BinaryMatrix`
    with cells and a nonempty :class:`ObservationMask` of its shape."""
    if not isinstance(Y, BinaryMatrix) or not isinstance(mask, ObservationMask):
        raise ConfigError("fit expects a BinaryMatrix and an ObservationMask")
    if mask.n_cells == 0:
        raise EmptyMaskError("cannot fit on an empty mask")
    _check_shapes(Y, mask)


def _prepare(cells):
    """Dense observed ones ``A``, observed zeros ``B`` and the per-row
    observed counts, all read-only, so that no pass can write them.

    ``cells`` is the list ``[Y, mask]``, which is emptied on entry; each
    input is dropped once consumed, the mask when its dense copy is made and
    ``Y`` when ``A`` is, so that inputs the caller holds nowhere else are
    freed before ``B`` is made.
    """
    Y, mask = cells
    cells.clear()
    _check_shapes(Y, mask)
    observed = mask.to_dense()
    del mask
    A = Y.to_dense()
    del Y
    A *= observed
    B = observed.astype(float)
    del observed
    n_obs = B.sum(axis=1)
    B -= A
    for array in (A, B, n_obs):
        array.flags.writeable = False
    return A, B, n_obs


# Every pass walks the rows in blocks of at most _BLOCK cells (one row where a
# row is longer), whose working set stays in cache.
_BLOCK = 1 << 16


def _blocks(n_rows, n_cols):
    """The row blocks of a pass, as ``(rows, P, R)``: the slice of the block's
    rows and its views of two fresh scratch arrays.  The blocks are as few as
    the cell bound allows, and their heights differ by at most one row."""
    if not n_rows:
        return []
    count = -(-n_rows // max(1, _BLOCK // max(n_cols, 1)))
    P = np.empty((-(-n_rows // count), n_cols))
    R = np.empty_like(P)
    bounds = [n_rows * i // count for i in range(count + 1)]
    return [(slice(start, stop), P[:stop - start], R[:stop - start])
            for start, stop in zip(bounds, bounds[1:])]


def _inside_unit_interval(P):
    """Whether every cell of ``P`` lies in the open interval (0, 1)."""
    return P.min() > 0.0 and P.max() < 1.0  # NaN fails both comparisons


def _block_ratios(A, B, W, H, P, R, sweep=None, check=True):
    """``(R, S)`` for one row block: ``P = W @ H``, then ``R = A / P`` and
    ``S = B / (1 - P)``, with ``S`` written over ``P``.

    With ``check``, every cell of ``P``, observed or not, must lie in
    (0, 1); the :class:`NumericalError` raised otherwise carries ``sweep``.
    """
    np.matmul(W, H, out=P)
    if check and not _inside_unit_interval(P):
        raise NumericalError("reconstruction left the open interval (0, 1)",
                             iteration=sweep)
    np.divide(A, P, out=R)
    np.subtract(1.0, P, out=P)
    np.divide(B, P, out=P)
    return R, P


def _log_likelihood(R, S):
    """``sum(log(max(R + S, 1)))`` for one row block, built in ``R``.

    With the ratios of :func:`_block_ratios`, ``R + S`` is ``1 / P`` on an
    observed one and ``1 / (1 - P)`` on an observed zero, both at least 1,
    and 0 on an unobserved cell, where the floor of 1 makes the log vanish:
    one log per cell gives the block's masked negative log-likelihood.
    """
    np.add(R, S, out=R)
    return np.log(np.maximum(R, 1.0, out=R), out=R).sum()


def _objective_value(loglik, H, prior):
    """The MAP objective: the summed block log-likelihoods plus the prior
    penalty over all of H."""
    if not prior.is_flat:
        alpha, beta = prior.alpha, prior.beta
        loglik -= ((alpha - 1.0) * np.log(H) + (beta - 1.0) * np.log1p(-H)).sum()
    return float(loglik)


def objective(Y, mask, factors, prior):
    """MAP objective: masked negative log-likelihood plus prior penalty.

    The likelihood part sums over the cells in ``mask`` only; the prior
    penalty always covers all of H.  Raises :class:`NumericalError` if any
    cell of ``W @ H`` leaves (0, 1).
    """
    A, B, _ = _prepare([Y, mask])
    W, H = factors.W, factors.H
    loglik = 0.0
    for rows, P, R in _blocks(*Y.shape):
        loglik += _log_likelihood(*_block_ratios(A[rows], B[rows], W[rows], H, P, R))
    return _objective_value(loglik, H, prior)


def _h_step(pos, neg, H, alpha, beta, epsilon, clamp):
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
    [epsilon, 1 - epsilon].  Raises :class:`NumericalError` if any cell of
    ``W @ H`` leaves (0, 1).
    """
    epsilon = _epsilon_setting(epsilon)
    A, B, _ = _prepare([Y, mask])
    W, H = factors.W, factors.H
    pos, neg = np.zeros((2, *H.shape))
    for rows, P, R in _blocks(*Y.shape):
        R, S = _block_ratios(A[rows], B[rows], W[rows], H, P, R)
        pos += W[rows].T @ R
        neg += W[rows].T @ S
    return _h_step(pos, neg, H, prior.alpha, prior.beta, epsilon, clamp)


def _w_step(R, S, n_obs, W, HG, epsilon, clamp):
    """One block's W-step rows.  ``HG`` is the pair ``(H, 1 - H)``, which a
    caller makes once for all its blocks."""
    H, G = HG
    pos = R @ H.T
    neg = S @ G.T
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
    floored at ``epsilon`` and the row renormalized.  Raises
    :class:`NumericalError` if any cell of ``W @ H`` leaves (0, 1).
    """
    epsilon = _epsilon_setting(epsilon)
    A, B, n_obs = _prepare([Y, mask])
    W, H = factors.W, factors.H
    HG = (H, 1.0 - H)
    new_W = np.empty_like(W)
    for rows, P, R in _blocks(*Y.shape):
        new_W[rows] = _w_step(*_block_ratios(A[rows], B[rows], W[rows], H, P, R),
                              n_obs[rows], W[rows], HG, epsilon, clamp)
    return new_W


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
    (carrying the sweep index) if a cell of ``W @ H`` leaves (0, 1) or the
    objective turns non-finite, and :class:`NbmfError` if a worker process
    dies.
    """
    return _fit_cells([Y, mask], config, on_sweep)


def _fit_cells(cells, config, on_sweep=None):
    """:func:`fit` on ``cells = [Y, mask]``, a list that it empties on
    entry: a caller that holds ``Y`` and the mask nowhere else lets
    ``_prepare`` free each one once it is consumed, so the sweeps run with
    ``A``, ``B``, the row counts, W and H alone."""
    _check_fit(*cells)
    n_rows, n_cols = cells[0].shape
    A, B, n_obs = _prepare(cells)
    prior, epsilon = config.prior, config.epsilon
    blocks = _blocks(n_rows, n_cols)
    processes = fit_processes(len(blocks))
    # The fit's own range of blocks comes first; workers run the others.
    bounds = [len(blocks) * i // processes for i in range(processes + 1)]
    own = bounds[1]

    start = time.perf_counter()
    factors = init_factors(n_rows, n_cols, config.rank, epsilon, config.seed)
    # W, H with 1 - H beside it, and each worker-run block's H-step
    # numerators.  A block's W step reads only the block's own rows of the W
    # before it, so each sweep writes its W over that one.
    stored = (len(blocks) - own, *factors.H.shape)
    W, HG, pos, neg = shared_arrays(factors.W.shape, (2, *factors.H.shape),
                                    stored, stored)
    H = HG[0]
    W[...], H[...] = factors.W, factors.H
    own_pos, own_neg = np.empty((2, *H.shape))

    def block_share(b, sweep, pos_b, neg_b):
        """Row block ``b``'s share of evaluating ``(W, H)``: its H-step
        numerators, written into ``pos_b`` and ``neg_b``, and its returned
        log-likelihood.  After sweep 0 the block's rows of ``W`` are first
        written with their W step at ``H``."""
        rows, P, R = blocks[b]
        A_b, B_b, W_b = A[rows], B[rows], W[rows]
        if sweep:
            # Unchecked: rows on the simplex times an H clamped to
            # [epsilon, 1 - epsilon] stay inside (0, 1), and the new
            # rows are checked below.
            W_b[...] = _w_step(*_block_ratios(A_b, B_b, W_b, H, P, R, check=False),
                               n_obs[rows], W_b, HG, epsilon, clamp=True)
        R_b, S_b = _block_ratios(A_b, B_b, W_b, H, P, R, sweep)
        np.matmul(W_b.T, R_b, out=pos_b)
        np.matmul(W_b.T, S_b, out=neg_b)
        return _log_likelihood(R_b, S_b)

    def run_range(sweep, lo, hi):
        """A worker's share of ``evaluate``: blocks ``lo`` to ``hi``, their
        numerators into their stored slots; returns their log-likelihoods,
        as floats, which pickle faster than numpy scalars."""
        return [float(block_share(b, sweep, pos[b - own], neg[b - own]))
                for b in range(lo, hi)]

    def evaluate(sweep):
        """Score ``(W, H)``, after this sweep's W step unless ``sweep`` is
        0, and return the score with the next sweep's H.

        The blocks' shares are added in block order, whichever process ran
        them, so the bytes do not depend on the process count.
        """
        workers.start(sweep)
        pos_sum, neg_sum = np.zeros((2, *H.shape))
        loglik = 0.0
        for b in range(own):
            loglik += block_share(b, sweep, own_pos, own_neg)
            pos_sum += own_pos
            neg_sum += own_neg
        logliks = [value for answer in workers.wait() for value in answer]
        for k, value in enumerate(logliks):
            pos_sum += pos[k]
            neg_sum += neg[k]
            loglik += value
        next_H = _h_step(pos_sum, neg_sum, H, prior.alpha, prior.beta, epsilon,
                         clamp=True)
        value = _objective_value(loglik, H, prior)
        if not np.isfinite(value):
            raise NumericalError("non-finite objective", iteration=sweep)
        return value, next_H

    ranges = zip(bounds[1:-1], bounds[2:])
    with _one_blas_thread(), Workers(run_range, ranges) as workers:
        value, next_H = evaluate(0)
        trace = [value]
        converged = False

        for sweep in range(1, config.max_iter + 1):
            H[...] = next_H
            np.subtract(1.0, H, out=HG[1])
            value, next_H = evaluate(sweep)
            trace.append(value)
            if on_sweep is not None:
                on_sweep(sweep, trace[-1], FactorPair(W.copy(), H.copy()))
            if _relative_change(trace[-2], trace[-1]) < config.tol:
                converged = True
                break

    report = FitReport(
        objective_trace=tuple(trace),
        n_iter=len(trace) - 1,
        converged=converged,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
        processes=processes,
    )
    return FactorPair(W.copy(), H.copy()), report


def fit_em(Y, mask, config, on_sweep=None):
    """:func:`fit` with the prior forced flat (alpha = beta = 1).

    This is the prior-free expectation-maximization baseline; it shares the
    code path with :func:`fit` exactly, so traces and factors match a run
    with ``BetaPrior(1, 1)`` element for element.
    """
    return fit(Y, mask, replace(config, prior=BetaPrior(1.0, 1.0)), on_sweep=on_sweep)

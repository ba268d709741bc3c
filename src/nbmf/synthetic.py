"""Seeded synthetic binary datasets for demos and tests."""

from __future__ import annotations

import numpy as np

from .binmat import BinaryMatrix, _float_setting, _integer_setting

__all__ = ["planted_dataset", "random_binary_matrix"]


def planted_dataset(n_rows, n_cols, rank, h_alpha=3.0, h_beta=3.0, seed=0,
                    w_concentration=1.0):
    """Sample data from the generative model itself.

    Draws W with symmetric-Dirichlet rows (``w_concentration`` < 1 gives
    near-pure rows, > 1 well-mixed ones) and H entrywise from
    Beta(h_alpha, h_beta), then samples each cell as Bernoulli((W @ H)[m, n]).
    Returns ``(matrix, W, H)`` so recovery can be checked against the truth.
    """
    n_rows = _integer_setting("n_rows", n_rows, 1)
    n_cols = _integer_setting("n_cols", n_cols, 1)
    rank = _integer_setting("rank", rank, 1)
    seed = _integer_setting("seed", seed, 0)
    h_alpha = _float_setting("h_alpha", h_alpha, 0.0)
    h_beta = _float_setting("h_beta", h_beta, 0.0)
    w_concentration = _float_setting("w_concentration", w_concentration, 0.0)
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.full(rank, w_concentration), size=n_rows)
    H = rng.beta(h_alpha, h_beta, size=(rank, n_cols))
    means = W @ H
    return BinaryMatrix.from_dense(rng.random((n_rows, n_cols)) < means), W, H


def random_binary_matrix(n_rows, n_cols, density=0.5, seed=0):
    """An i.i.d. Bernoulli(density) matrix, deterministic in ``seed``."""
    n_rows = _integer_setting("n_rows", n_rows, 1)
    n_cols = _integer_setting("n_cols", n_cols, 1)
    seed = _integer_setting("seed", seed, 0)
    density = _float_setting("density", density, 0.0, 1.0, ends="[]")
    rng = np.random.default_rng(seed)
    return BinaryMatrix.from_dense(rng.random((n_rows, n_cols)) < density)

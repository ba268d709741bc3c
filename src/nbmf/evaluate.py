"""Scoring of held-out binary cells against predicted Bernoulli means.

The headline metric is perplexity: the mean negative log-likelihood, in
nats, of the held-out values under the predicted means.  A constant 0.5
prediction scores log 2 on any data; lower is better.  Confusion counts at
the 0.5 threshold appear in reports as an auxiliary readability metric only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .binmat import _intp_chunks
from .errors import ConfigError, DimensionError, EmptyMaskError, NumericalError
from .io import _cell_text, _json_text
from .solver import reconstruct

__all__ = [
    "PerplexityScore",
    "MaskReport",
    "CompletionReport",
    "perplexity",
    "predict_from_factors",
    "completion_report",
]


@dataclass(frozen=True)
class PerplexityScore:
    """Mean held-out negative log-likelihood (nats/cell) and the cell count."""

    value: float
    n_cells: int


def perplexity(Y, mask, pred):
    """Score predictions on the masked cells.

    value = -(1 / |mask|) * sum over masked (m, n) of
            y * log(p) + (1 - y) * log(1 - p)

    with natural logarithms.  Cells are visited in sorted order, so the
    result does not depend on how the mask set was built.  A prediction of
    exactly 0 or 1 that contradicts the observed value makes the score
    infinite and raises :class:`NumericalError`.
    """
    pred = np.asarray(pred, dtype=float)
    if pred.shape != Y.shape or mask.shape != Y.shape:
        raise DimensionError(
            f"shapes disagree: data {Y.shape}, mask {mask.shape}, "
            f"predictions {pred.shape}"
        )
    if mask.n_cells == 0:
        raise EmptyMaskError("perplexity over an empty mask is undefined")
    p = pred[mask.indices()]
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both comparisons
        raise NumericalError("predictions must lie in [0, 1]")
    is_one = Y.ones_at(mask)
    with np.errstate(divide="ignore"):
        loglik = np.where(is_one, np.log(p), np.log1p(-p))
    if not np.isfinite(loglik).all():
        raise NumericalError(
            "a prediction of exactly 0 or 1 contradicts an observed value"
        )
    return PerplexityScore(value=float(-loglik.mean()), n_cells=len(p))


def predict_from_factors(factors):
    """Bernoulli means ``W @ H``: an alias of ``reconstruct`` for older callers."""
    return reconstruct(factors)


@dataclass(frozen=True)
class MaskReport:
    """Perplexity plus 0.5-threshold confusion counts over one mask."""

    perplexity: float
    n_cells: int
    tp: int
    fp: int
    fn: int
    tn: int

    def to_dict(self):
        return {
            "perplexity": self.perplexity,
            "n_cells": self.n_cells,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
        }

    @classmethod
    def from_dict(cls, data):
        confusion = data["confusion"]
        return cls(
            perplexity=float(data["perplexity"]),
            n_cells=int(data["n_cells"]),
            tp=int(confusion["tp"]),
            fp=int(confusion["fp"]),
            fn=int(confusion["fn"]),
            tn=int(confusion["tn"]),
        )


def _mask_report(Y, mask, pred):
    score = perplexity(Y, mask, pred)
    truth = Y.ones_at(mask)
    # np.take would copy an int32 index array whole into intp.
    positive = np.empty(mask.n_cells, dtype=bool)
    for start, cells in _intp_chunks(mask.linear):
        positive[start:start + cells.size] = np.take(pred, cells) >= 0.5
    return MaskReport(
        perplexity=score.value,
        n_cells=score.n_cells,
        tp=int((truth & positive).sum()),
        fp=int((~truth & positive).sum()),
        fn=int((truth & ~positive).sum()),
        tn=int((~truth & ~positive).sum()),
    )


@dataclass(frozen=True)
class CompletionReport:
    """Validation and test scores for one set of predictions.

    Perplexity is the model-selection metric; the confusion counts use a
    fixed 0.5 threshold and are provided for readability only.
    """

    validation: MaskReport
    test: MaskReport

    CSV_HEADER = (
        "val_perplexity,val_cells,val_tp,val_fp,val_fn,val_tn,"
        "test_perplexity,test_cells,test_tp,test_fp,test_fn,test_tn"
    )

    def to_dict(self):
        return {
            "metric": "perplexity (nats, natural log); confusion@0.5 is auxiliary",
            "validation": self.validation.to_dict(),
            "test": self.test.to_dict(),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            validation=MaskReport.from_dict(data["validation"]),
            test=MaskReport.from_dict(data["test"]),
        )

    def to_json(self):
        return _json_text(self.to_dict())

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_csv_row(self):
        """The report as one CSV line (matching ``CSV_HEADER``)."""
        cells = []
        for block in (self.validation, self.test):
            cells += [block.perplexity, block.n_cells, block.tp, block.fp,
                      block.fn, block.tn]
        return ",".join(map(_cell_text, cells))


def _require_disjoint(first, second, what):
    """Raise :class:`ConfigError` if two masks share a cell."""
    overlap = first.shared_cells(second)
    if overlap:
        raise ConfigError(f"{what} masks overlap on {overlap} cells")


def completion_report(Y, val_mask, test_mask, pred):
    """Score predictions on disjoint validation and test masks."""
    _require_disjoint(val_mask, test_mask, "validation and test")
    return CompletionReport(
        validation=_mask_report(Y, val_mask, pred),
        test=_mask_report(Y, test_mask, pred),
    )

"""Matrix completion: train on 70% of the cells, predict the rest.

Held-out cells never touch the training updates; the factors learned from
the visible cells produce a Bernoulli mean for every cell, which is scored
on the hidden ones with perplexity (mean negative log-likelihood in nats).
A constant 0.5 guess scores log 2 ~= 0.693, so anything below that is
learned structure.

    python demos/03_completion.py
"""

import math

from nbmf import (
    BetaPrior,
    FitConfig,
    SplitSpec,
    completion_report,
    fit,
    perplexity,
    planted_dataset,
    reconstruct,
    split_observations,
)

Y, _, _ = planted_dataset(150, 80, rank=3, h_alpha=3, h_beta=3, seed=3,
                          w_concentration=0.2)
train, val, test = split_observations(Y, SplitSpec(seed=7))
print(f"cells: train={train.n_cells} val={val.n_cells} test={test.n_cells}")

factors, report = fit(Y, train, FitConfig(rank=3, prior=BetaPrior(3, 3), seed=0))
pred = reconstruct(factors)

for name, mask in (("train", train), ("val", val), ("test", test)):
    score = perplexity(Y, mask, pred)
    print(f"{name:5s} perplexity: {score.value:.4f} over {score.n_cells} cells")
print(f"coin baseline:     {math.log(2):.4f}")

# the full report adds confusion counts at a 0.5 threshold (a readability
# aid only; perplexity is the metric that drives model selection)
report = completion_report(Y, val, test, pred)
block = report.test
print(f"\ntest confusion @0.5: tp={block.tp} fp={block.fp} "
      f"fn={block.fn} tn={block.tn}")
print("\nreport as JSON:")
print(report.to_json())

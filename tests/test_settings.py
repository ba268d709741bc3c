"""Every public integer setting takes any integer type, is stored as ``int``
and is refused under one message form: ``<name> must be an integer`` or
``<name> must be >= <minimum>, got <value>``."""

import json
from pathlib import Path

import numpy as np
import pytest

from nbmf import (
    ConfigError,
    FitConfig,
    GridSpec,
    SplitSpec,
    grid_search,
    init_factors,
    planted_dataset,
    random_binary_matrix,
    split_observations,
)
from nbmf import test_evaluation as run_test_evaluation
from nbmf.cli import RunConfig

ONE_POINT = {"rank_values": (1,), "alpha_values": (1.0,), "beta_values": (1.0,)}


def _problem():
    Y, _, _ = planted_dataset(12, 10, 2, seed=1)
    return (Y, *split_observations(Y, SplitSpec(seed=5)))


def _fit_config(name, value):
    return getattr(FitConfig(**{"rank": 2, name: value}), name)


def _grid_spec(name, value):
    return getattr(GridSpec(**ONE_POINT, **{name: value}), name)


def _run_config(value):
    return RunConfig(mode="fit", dataset=Path("data.txt"), out_dir=Path("out"),
                     split=SplitSpec(), log_every=value).log_every


def _factors(name, value):
    factors = init_factors(**{"n_rows": 3, "n_cols": 4, "rank": 2, "seed": 0,
                              name: value})
    return factors.W.tobytes(), factors.H.tobytes()


def _planted(name, value):
    Y, W, H = planted_dataset(**{"n_rows": 5, "n_cols": 4, "rank": 2, "seed": 0,
                                 name: value})
    return Y.shape, Y.linear.tobytes(), W.tobytes(), H.tobytes()


def _random(name, value):
    Y = random_binary_matrix(**{"n_rows": 5, "n_cols": 4, "seed": 0, name: value})
    return Y.shape, Y.linear.tobytes()


def _grid_search(value):
    Y, train, val, _ = _problem()
    results, _ = grid_search(Y, train, val, GridSpec(**ONE_POINT, max_iter=3),
                             n_jobs=value)
    return [(row.key, row.val_perplexity) for row in results]


def _test_evaluation(name, value):
    Y, train, _, test = _problem()
    config = FitConfig(rank=1, max_iter=3)
    evaluation = run_test_evaluation(Y, train, test, config,
                                     **{"n_restarts": 2, name: value})
    return json.loads(evaluation.to_json())["restart_seeds"], evaluation.stats


# (name, minimum, call): call(value) is what the setting leaves behind, its
# stored value where it is stored.  SplitSpec takes any seed.
SETTINGS = {
    "FitConfig.rank": ("rank", 1, lambda v: _fit_config("rank", v)),
    "FitConfig.max_iter": ("max_iter", 1, lambda v: _fit_config("max_iter", v)),
    "FitConfig.seed": ("seed", 0, lambda v: _fit_config("seed", v)),
    "SplitSpec.seed": ("seed", None, lambda v: SplitSpec(seed=v).seed),
    "GridSpec.n_restarts": ("n_restarts", 1, lambda v: _grid_spec("n_restarts", v)),
    "GridSpec.base_seed": ("base_seed", 0, lambda v: _grid_spec("base_seed", v)),
    "GridSpec.max_iter": ("max_iter", 1, lambda v: _grid_spec("max_iter", v)),
    "RunConfig.log_every": ("log_every", 0, _run_config),
    **{f"init_factors.{name}": (name, minimum, lambda v, name=name: _factors(name, v))
       for name, minimum in (("n_rows", 1), ("n_cols", 1), ("rank", 1), ("seed", 0))},
    **{f"planted_dataset.{name}": (name, minimum,
                                   lambda v, name=name: _planted(name, v))
       for name, minimum in (("n_rows", 1), ("n_cols", 1), ("rank", 1), ("seed", 0))},
    **{f"random_binary_matrix.{name}": (name, minimum,
                                        lambda v, name=name: _random(name, v))
       for name, minimum in (("n_rows", 1), ("n_cols", 1), ("seed", 0))},
    "grid_search.n_jobs": ("n_jobs", 1, _grid_search),
    **{f"test_evaluation.{name}": (name, minimum,
                                   lambda v, name=name: _test_evaluation(name, v))
       for name, minimum in (("n_restarts", 1), ("base_seed", 0), ("n_jobs", 1))},
}


@pytest.mark.parametrize("name, minimum, call", SETTINGS.values(), ids=SETTINGS)
def test_integer_setting(name, minimum, call):
    for value, plain in ((np.int64(2), 2), (np.uint8(2), 2), (True, 1)):
        kept, expected = call(value), call(plain)
        assert type(kept) is type(expected) and kept == expected, value
    for value in (2.5, "2"):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            call(value)
    if minimum is not None:
        below = minimum - 1
        with pytest.raises(ConfigError,
                           match=f"^{name} must be >= {minimum}, got {below}$"):
            call(below)

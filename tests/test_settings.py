"""Every public integer setting takes any integer type, is stored as ``int``
and is refused under one message form: ``<name> must be an integer`` or
``<name> must be >= <minimum>, got <value>``.  Every public float setting
takes any real number type, is stored as ``float`` and is refused as
``<name> must be a number`` or ``<name> must be ..., got <value>``."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nbmf import (
    BetaPrior,
    ConfigError,
    FactorPair,
    FitConfig,
    GridSpec,
    SplitSpec,
    grid_search,
    init_factors,
    planted_dataset,
    random_binary_matrix,
    split_observations,
    update_h,
    update_w,
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


def _prior(name, value):
    return getattr(BetaPrior(**{name: value}), name)


def _split_spec(name, value):
    fracs = {"train_frac": 0.5, "val_frac": 0.25, "test_frac": 0.25, name: value}
    return getattr(SplitSpec(**fracs), name)


def _grid_axis(axis, value):
    return getattr(GridSpec(**{**ONE_POINT, axis: (value,)}), axis)[0]


def _update(update, value):
    Y, train, _, _ = _problem()
    factors = init_factors(*Y.shape, 2, seed=3)
    args = (BetaPrior(2.0, 3.0),) if update is update_h else ()
    return update(Y, train, factors, *args, epsilon=value).tobytes()


# (name, inside, outside, call): call(value) is what the setting leaves behind,
# its stored value where it is stored; ``inside`` is a value it takes, exact in
# float32, and ``outside`` a finite value it refuses, or None for an axis that
# takes every finite value.  Where True is outside the interval, it is refused
# as the number 1.0.
FLOAT_SETTINGS = {
    **{f"BetaPrior.{name}": (name, 2.5, 0.5, lambda v, name=name: _prior(name, v))
       for name in ("alpha", "beta")},
    "FitConfig.tol": ("tol", 0.5, 0.0, lambda v: _fit_config("tol", v)),
    "FitConfig.epsilon": ("epsilon", 2.0**-20, 1e-3,
                          lambda v: _fit_config("epsilon", v)),
    **{f"GridSpec.{axis}": (axis, 2.5, None, lambda v, axis=axis: _grid_axis(axis, v))
       for axis in ("alpha_values", "beta_values")},
    "GridSpec.tol": ("tol", 0.5, -1.0, lambda v: _grid_spec("tol", v)),
    "GridSpec.epsilon": ("epsilon", 2.0**-20, 0.5, lambda v: _grid_spec("epsilon", v)),
    **{f"SplitSpec.{name}": (name, inside, 1.0,
                             lambda v, name=name: _split_spec(name, v))
       for name, inside in (("train_frac", 0.5), ("val_frac", 0.25),
                            ("test_frac", 0.25))},
    **{f"planted_dataset.{name}": (name, 2.5, 0.0,
                                   lambda v, name=name: _planted(name, v))
       for name in ("h_alpha", "h_beta", "w_concentration")},
    "random_binary_matrix.density": ("density", 0.25, 1.5,
                                     lambda v: _random("density", v)),
    "init_factors.epsilon": ("epsilon", 2.0**-20, 2.0,
                             lambda v: _factors("epsilon", v)),
    "update_h.epsilon": ("epsilon", 2.0**-20, 0.7, lambda v: _update(update_h, v)),
    "update_w.epsilon": ("epsilon", 2.0**-20, 0.7, lambda v: _update(update_w, v)),
}


@pytest.mark.parametrize("name, inside, outside, call", FLOAT_SETTINGS.values(),
                         ids=FLOAT_SETTINGS)
def test_float_setting(name, inside, outside, call):
    expected = call(inside)
    for value in (np.float32(inside), np.float64(inside), inside):
        kept = call(value)
        assert type(kept) is type(expected) and kept == expected, repr(value)
    try:
        flat = call(True)
    except ConfigError as error:
        assert str(error).endswith(", got 1.0"), error
    else:
        assert flat == call(1.0) and type(flat) is type(expected)
    for value in (str(inside), None, 1j):
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got "):
            call(value)
    refused = [(math.nan, "nan"), (np.float32(math.nan), "nan"), (math.inf, "inf"),
               (-math.inf, "-inf"), (10**400, "inf")]
    if outside is not None:
        refused.append((outside, str(outside)))
    for value, shown in refused:
        with pytest.raises(ConfigError,
                           match=f"^{name} must be .*, got {re.escape(shown)}$"):
            call(value)


EPSILON_SETTINGS = {key: FLOAT_SETTINGS[key][3] for key in FLOAT_SETTINGS
                    if key.endswith(".epsilon")}


@pytest.mark.parametrize("call", EPSILON_SETTINGS.values(), ids=EPSILON_SETTINGS)
def test_epsilon_rule_needs_one_minus_epsilon_below_one(call):
    call(2.0**-53)  # 1 - 2**-53 is the float below 1
    for value in (2.0**-54, 1e-17):
        with pytest.raises(ConfigError, match=r"^epsilon must leave 1 - epsilon < 1"):
            call(value)


def test_factor_pair_validate_keeps_the_meta_grammar():
    """read_factors validates at the epsilon meta.txt records, which may lie
    anywhere in (0, 0.5), so ``validate`` does not apply the fit's rule."""
    FactorPair(np.ones((1, 1)), np.full((1, 1), 0.5)).validate(epsilon=0.25)

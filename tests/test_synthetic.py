import math

import numpy as np
import pytest

from nbmf import ConfigError, planted_dataset, random_binary_matrix


class TestPlantedDataset:
    def test_cells_are_the_nonzeros_of_the_float_draw(self):
        Y, W, H = planted_dataset(40, 30, 3, h_alpha=0.5, h_beta=0.5, seed=2)
        rng = np.random.default_rng(2)
        rng.dirichlet(np.ones(3), size=40)
        rng.beta(0.5, 0.5, size=(3, 30))
        values = (rng.random((40, 30)) < W @ H).astype(float)
        np.testing.assert_array_equal(Y.linear, np.flatnonzero(values))

    @pytest.mark.parametrize("name, kwargs", [
        ("h_alpha", {"h_alpha": math.nan}),
        ("h_alpha", {"h_alpha": math.inf}),
        ("h_alpha", {"h_alpha": 0.0}),
        ("h_beta", {"h_beta": math.nan}),
        ("h_beta", {"h_beta": -1.0}),
        ("w_concentration", {"w_concentration": math.inf}),
        ("n_rows", {"n_rows": 2.5}),
        ("n_rows", {"n_rows": 0}),
        ("n_cols", {"n_cols": 4.0}),
        ("rank", {"rank": 0}),
    ])
    def test_bad_setting_is_a_config_error_naming_it(self, name, kwargs):
        settings = {"n_rows": 30, "n_cols": 40, "rank": 2, **kwargs}
        with pytest.raises(ConfigError, match=name):
            planted_dataset(**settings)


def test_random_binary_matrix_cells_are_the_nonzeros_of_the_float_draw():
    Y = random_binary_matrix(50, 20, 0.3, seed=4)
    values = (np.random.default_rng(4).random((50, 20)) < 0.3).astype(float)
    np.testing.assert_array_equal(Y.linear, np.flatnonzero(values))


@pytest.mark.parametrize("name, kwargs", [
    ("n_rows", {"n_rows": 2.5}),
    ("n_rows", {"n_rows": -1}),
    ("n_cols", {"n_cols": 0}),
    ("n_cols", {"n_cols": "3"}),
])
def test_random_binary_matrix_bad_size_is_a_config_error_naming_it(name, kwargs):
    settings = {"n_rows": 3, "n_cols": 3, **kwargs}
    with pytest.raises(ConfigError, match=name):
        random_binary_matrix(**settings)

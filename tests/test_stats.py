"""The energy-distance diagnostic against its scipy cdist form."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from anchordt.stats import energy_distance


def cdist_energy_distance(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return float(2.0 * cdist(x, y).mean() - cdist(x, x).mean() - cdist(y, y).mean())


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
def test_equals_cdist_form_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        n, m = rng.integers(1, 120, size=2)
        x = rng.exponential(3.0) * rng.standard_normal((n, dim))
        y = rng.standard_normal((m, dim)) + 0.5
        assert energy_distance(x, y) == cdist_energy_distance(x, y)


@pytest.mark.parametrize("n, m", [(512, 512), (700, 33), (3, 1000)])
def test_equals_cdist_form_at_training_sizes(n, m):
    # row blocks of the distance matrix, as energy_distance sums them here
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((n, 2)), rng.standard_normal((m, 2)) - 0.3
    assert energy_distance(x, y) == cdist_energy_distance(x, y)


def test_same_sample_gives_zero_and_shift_gives_positive():
    x = np.random.default_rng(0).standard_normal((200, 2))
    assert energy_distance(x, x) == 0.0
    assert energy_distance(x, x + 1.0) > 0.5


def test_one_dimensional_input_is_one_point():
    assert energy_distance([0.0, 0.0], [3.0, 4.0]) == 10.0

"""Small two-sample statistics used as training diagnostics and test oracles."""

from __future__ import annotations

import numpy as np


# pairs whose coordinate differences _mean_distance holds at once
_PAIR_BLOCK = 1 << 14


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all (row of a, row of b) pairs.

    Squared differences are summed one coordinate at a time, in coordinate
    order, into the full (len(a), len(b)) matrix, a block of rows of a at a
    time; the value equals scipy's cdist(a, b).mean() bit for bit (see
    tests/test_stats.py), without loading scipy, and the matrix is the one
    large temporary, as in cdist.
    """
    sq = np.zeros((a.shape[0], b.shape[0]))
    step = max(1, _PAIR_BLOCK // max(1, b.shape[0]))
    for lo in range(0, a.shape[0], step):
        for k in range(a.shape[1]):
            diff = np.subtract.outer(a[lo:lo + step, k], b[:, k])
            sq[lo:lo + step] += np.square(diff, out=diff)
    return float(np.sqrt(sq, out=sq).mean())


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in energy distance 2 E||X-Y|| - E||X-X'|| - E||Y-Y'||.

    x and y are (N, D) sample blocks.  V-statistic form (within-sample means
    include the zero diagonal), which keeps the value non-negative; used as
    a parameter-free distribution-match diagnostic, never optimized.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    between = _mean_distance(x, y)
    within_x = _mean_distance(x, x)
    within_y = _mean_distance(y, y)
    return float(2.0 * between - within_x - within_y)

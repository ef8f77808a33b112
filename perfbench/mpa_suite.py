"""The ``anchordt.mpa`` layer's checks, called directly at ``mpa-check``'s inputs.

    python3 perfbench/child.py --report R.json --work mpa_suite.suite -- \
        mpa-suite --out-dir DIR --override mpa_check.seed=N

``suite`` makes the same calls into ``anchordt.mpa`` as the ``mpa-check``
verb's default suite, with the same maps, samplers, sample size and seeds.
``main`` runs it at ``REPEATS`` seeds derived from the given one and writes
every computed value to ``mpa_values.csv``.  It gives no
verdicts: the benchmark checks each value against its known truth
(``checks.check_mpa_suite``).  The verb itself is not a workload because its
shift negative control fails at some seeds (METRICS.md).
"""

from __future__ import annotations

import argparse
import os

import numpy as np
from scipy import stats as scipy_stats

from anchordt import mpa

# mpa-check's defaults
SAMPLES = 100000
TOLERANCE = 1e-3

# The suite's cost depends on its seed (scipy's KS p-values cost more at some
# statistics): the slowest of 40 seeds took 1.4 times the fastest.  A child
# runs the suite at this many seeds, so a run's timing does not hang on one.
REPEATS = 8
SEED_STRIDE = 10                     # the suite itself uses seeds seed..seed+6

MU, SIGMA = 0.7, 1.3                 # the Gaussian of the suite
SHIFT = 1.0                          # the negative control's shift


def suite(n: int, seed: int, eps: float) -> list[tuple[str, str, float]]:
    """Rows of (check, metric, value), in the verb's order."""
    gauss = lambda rng, k: MU + SIGMA * rng.standard_normal(k)
    rows = []

    reflect = mpa.reflection_mpa(MU)
    rows.append(("gaussian-reflection", "ks",
                 mpa.pushforward_ks_check(gauss, reflect, n, seed)))
    fp = mpa.count_fixed_points(reflect, (MU - 5 * SIGMA, MU + 5 * SIGMA))
    rows.append(("gaussian-reflection", "fixed_points", fp.count))

    conj = mpa.cdf_conjugate_mpa(lambda x: scipy_stats.norm.cdf(x, MU, SIGMA),
                                 lambda q: scipy_stats.norm.ppf(q, MU, SIGMA))
    rows.append(("gaussian-cdf-conjugate", "ks",
                 mpa.pushforward_ks_check(gauss, conj, n, seed + 1)))
    grid = np.linspace(MU - 3 * SIGMA, MU + 3 * SIGMA, 1001)
    rows.append(("gaussian-cdf-conjugate", "max_dev_from_reflection",
                 float(np.abs(conj(grid) - reflect(grid)).max())))

    uconj = mpa.cdf_conjugate_mpa(lambda x: np.clip(x, 0.0, 1.0), lambda q: q)
    rows.append(("uniform-cdf-conjugate", "ks", mpa.pushforward_ks_check(
        lambda rng, k: rng.uniform(0.0, 1.0, k), uconj, n, seed + 2)))
    rows.append(("uniform-cdf-conjugate", "fixed_points",
                 mpa.count_fixed_points(uconj, (0.0, 1.0)).count))

    econj = mpa.cdf_conjugate_mpa(scipy_stats.expon.cdf, scipy_stats.expon.ppf)
    rows.append(("exponential-cdf-conjugate", "ks", mpa.pushforward_ks_check(
        lambda rng, k: rng.exponential(1.0, k), econj, n, seed + 3)))
    fp = mpa.count_fixed_points(econj, (0.01, 10.0))
    rows.append(("exponential-cdf-conjugate", "fixed_points", fp.count))
    rows.append(("exponential-cdf-conjugate", "fixed_point",
                 fp.locations[0] if fp.locations else float("nan")))

    pm = mpa.PermutedMpa(permutation=np.array([1, 0]), maps=[lambda v: v, lambda v: v])
    rows.append(("swap-identity-fixed-set", "fraction", mpa.permutation_fixed_measure_probe(
        pm, lambda rng, k: rng.standard_normal((2, k)), n, eps, seed + 4)))

    ft = mpa.finite_translations_check(lambda rng, k: rng.standard_normal(k),
                                       lambda x: x + 3.0, seed + 5, n_fit=n, n_test=n)
    rows.append(("finite-translations", "ks_increasing", ft.ks_increasing))
    rows.append(("finite-translations", "ks_decreasing", ft.ks_decreasing))
    rows.append(("finite-translations", "crossings", ft.crossing_count))

    rows.append(("shift-negative-control", "ks", mpa.pushforward_ks_check(
        gauss, lambda x: x + SHIFT, n, seed + 6)))

    ident = mpa.count_fixed_points(lambda x: x, (-2.0, 2.0))
    rows.append(("identity-map", "flagged_identity", int(ident.is_identity)))
    return rows


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="mpa-suite")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--override", action="append", default=[],
                        help="mpa_check.{samples,seed,tolerance}=VALUE")
    args = parser.parse_args(argv)
    config = dict(o.split("=", 1) for o in args.override)
    n = int(config.get("mpa_check.samples", SAMPLES))
    first = int(config.get("mpa_check.seed", 0))
    eps = float(config.get("mpa_check.tolerance", TOLERANCE))
    lines = ["seed,check,metric,value\n"]
    for seed in range(first, first + REPEATS * SEED_STRIDE, SEED_STRIDE):
        lines += [f"{seed},{c},{m},{float(v)!r}\n" for c, m, v in suite(n, seed, eps)]
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "mpa_values.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return 0

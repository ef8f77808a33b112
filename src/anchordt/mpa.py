"""Constructive 1D measure-preserving automorphisms and their numeric checks.

A measure-preserving automorphism (MPA) of a distribution is a continuous
bijection m with m(x) distributed like x.  For a continuous 1D law the only
candidates are the identity and the CDF conjugate F^{-1}(1 - F(.)); a
non-identity MPA has exactly one fixed point, and the fixed set of a
coordinate-permuting map has measure zero.  These facts are what make a
single aligned anchor pair decisive, and each is checked here by sampling:
push-forward agreement via the two-sample Kolmogorov-Smirnov statistic,
fixed points via sign-scan plus bisection, and fixed-set mass via direct
Monte Carlo.  The module needs numpy alone, as does the suite mpa-check runs,
which takes Phi from math.erfc, its inverse from NormalDist and the
exponential CDF from numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: max |cdf(y) - q|, absolute, at a CDF conjugate's return y = quantile(q)
CONSISTENCY_TOLERANCE = 1e-12
#: max |m(x) - x| on the scan grid below which a map is flagged as identity
IDENTITY_TOLERANCE = 1e-12
#: count_fixed_points' scan grid points, and the width to which it bisects a root
FIXED_POINT_GRID, FIXED_POINT_TOLERANCE = 100001, 1e-9
#: grid points count_fixed_points passes to the map in one call
FIXED_POINT_BLOCK = 1 << 14


class InverseConsistencyError(ValueError):
    """Quantile function fails to invert the CDF at the requested points."""


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_v |F_a(v) - F_b(v)|.

    The same bits as ``scipy.stats.ks_2samp(a, b).statistic`` (its default
    ``auto`` mode), without scipy and without the p-value, which nothing here
    reads.  Both samples are sorted in place inside their concatenation, and
    one stable argsort merges the two sorted runs (timsort).  Its permutation
    does the rest: gathering the concatenation through it gives the merged
    values, the same bits as a second stable sort at a quarter of its cost,
    and an entry below n_a marks a value from ``a``.  The ECDF difference is
    evaluated with scipy's arithmetic, c_a/n_a - c_b/n_b, at the last
    position of each run of tied values.  Each temporary is dropped once
    used, to keep peak memory down.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("KS samples must not be empty")
    merged = np.concatenate([a, b])
    merged[:n1].sort()
    merged[n1:].sort()
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    from_a = order < n1
    del order
    # the last position of each run of tied values
    ends = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    del merged
    c1 = np.cumsum(from_a)[ends]
    del from_a
    ends += 1
    ends -= c1                       # now c2, the count of b up to each end
    diffs = c1 / n1
    del c1
    diffs -= ends / n2
    del ends
    min_s = float(np.clip(-diffs.min(), 0, 1))
    max_s = float(diffs.max())
    d = min_s if min_s > max_s else max_s
    if max(n1, n2) <= 10000:
        # scipy's exact mode snaps d onto the lattice of multiples of 1/lcm
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return d


def reflection_mpa(mu: float):
    """x -> -x + 2*mu, the involution fixing mu (an MPA of laws symmetric
    about mu)."""
    def reflect(x):
        return -np.asarray(x, dtype=np.float64) + 2.0 * mu
    return reflect


def cdf_conjugate_mpa(cdf, quantile):
    """x -> quantile(1 - cdf(x)), the unique non-identity candidate MPA.

    ``cdf`` must be strictly increasing on the domain of interest and
    ``quantile`` its inverse.  Each call checks its return y = quantile(q),
    q = 1 - cdf(x), in probability space, where the far tails stay well
    conditioned: it raises InverseConsistencyError unless |cdf(y) - q| <=
    CONSISTENCY_TOLERANCE (a correct pair misses by an ulp), which NaN fails.
    """
    def conjugate(x):
        q = 1.0 - cdf(np.asarray(x, dtype=np.float64))
        y = quantile(q)
        miss = np.abs(cdf(y) - q)
        if not (miss <= CONSISTENCY_TOLERANCE).all():
            raise InverseConsistencyError(
                f"cdf(quantile(q)) misses q = 1 - cdf(x) by up to {float(np.max(miss)):.3g}")
        return y
    return conjugate


class EmpiricalCdf:
    """Sorted-sample CDF with linear interpolation between order statistics."""

    def __init__(self, sample: np.ndarray):
        sample = np.asarray(sample, dtype=np.float64).ravel()
        if sample.size < 2:
            raise ValueError("need at least two points")
        self.points = np.sort(sample)
        n = sample.size
        self.probs = (np.arange(1, n + 1) - 0.5) / n

    def cdf(self, x):
        return np.interp(np.asarray(x, dtype=np.float64), self.points, self.probs)

    def quantile(self, q):
        return np.interp(np.asarray(q, dtype=np.float64), self.probs, self.points)


def pushforward_ks_check(sampler, mpa_map, n: int, seed: int) -> float:
    """Two-sample KS statistic between fresh draws x and m(x') of the law.

    Small statistic (vanishing as n grows) is consistent with m being an
    MPA; a shift or other non-MPA map gives an O(1) statistic.
    """
    if n < 1000:
        raise ValueError("need n >= 1000 for a meaningful KS statistic")
    rng = np.random.default_rng(seed)
    first = sampler(rng, n)
    second = mpa_map(sampler(rng, n))
    return _ks_statistic(first, second)


@dataclass
class FixedPointReport:
    count: int
    locations: list[float]
    is_identity: bool = False


def count_fixed_points(mpa_map, interval: tuple[float, float]) -> FixedPointReport:
    """Sign-change scan of m(x) - x over ``FIXED_POINT_GRID`` points, each
    root refined by bisection to ``FIXED_POINT_TOLERANCE``.

    A map equal to the identity over the whole grid is reported separately
    (every point is fixed, so counting is meaningless).  Roots closer than
    1000x the refinement tolerance are merged.

    The map is applied to ``FIXED_POINT_BLOCK`` = 2^14 grid points at a
    time (7 calls over the grid's 100,001 points), each block's residual
    written into one array for the whole grid.  A map that is elementwise,
    as every map here is, gives the same bits in blocks.  Under glibc's
    default allocator each 0.8 MB temporary of a map over the whole grid is
    a fresh mmap whose pages fault in on first touch; at 128 KB a block's
    temporaries mostly stay on the heap.  Over the 24 calls of 8 mpa-check
    suites the scans took 94 ms in one block (41 k minor faults), and 86,
    73, 69 and 84 ms in blocks of 2^12, 2^13, 2^14 (10 k faults) and 2^15
    points (2-vCPU Xeon).  Under the CLI's allocator setting none of them
    faults, and blocks of 2^14 take 61 ms against 59 in one block.
    """
    lo, hi = interval
    grid = np.linspace(lo, hi, FIXED_POINT_GRID)
    resid = np.empty_like(grid)
    for start in range(0, grid.size, FIXED_POINT_BLOCK):
        block = grid[start:start + FIXED_POINT_BLOCK]
        np.subtract(np.asarray(mpa_map(block), dtype=np.float64), block,
                    out=resid[start:start + FIXED_POINT_BLOCK])
    scale = max(1.0, abs(lo), abs(hi))
    if np.abs(resid).max() < IDENTITY_TOLERANCE * scale:
        return FixedPointReport(count=0, locations=[], is_identity=True)
    # exact zeros on the grid, then strict sign changes (a zero end is no
    # crossing: its product is 0), each bisected
    roots = list(grid[resid == 0.0])
    for i in np.flatnonzero(resid[:-1] * resid[1:] < 0):
        roots.append(_bisect(mpa_map, grid[i], grid[i + 1]))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1000 * FIXED_POINT_TOLERANCE:
            merged.append(r)
    return FixedPointReport(count=len(merged), locations=merged)


def _bisect(mpa_map, lo, hi):
    f_lo = float(mpa_map(np.array([lo]))[0]) - lo
    while hi - lo > FIXED_POINT_TOLERANCE:
        mid = 0.5 * (lo + hi)
        f_mid = float(mpa_map(np.array([mid]))[0]) - mid
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class PermutedMpa:
    """x -> h(Pi x): coordinate permutation followed by componentwise maps."""
    permutation: np.ndarray              # index array: (Pi x)_i = x[permutation[i]]
    maps: list = field(default_factory=list)

    def __post_init__(self):
        self.permutation = np.asarray(self.permutation, dtype=np.intp)
        d = self.permutation.size
        if sorted(self.permutation.tolist()) != list(range(d)):
            raise ValueError("not a permutation of 0..D-1")
        if len(self.maps) != d:
            raise ValueError("need one componentwise map per coordinate")

    @property
    def is_identity_permutation(self) -> bool:
        return bool(np.array_equal(self.permutation, np.arange(self.permutation.size)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        permuted = x[self.permutation, :]
        return np.vstack([np.asarray(m(permuted[i]))
                          for i, m in enumerate(self.maps)])


def permutation_fixed_measure_probe(pmpa: PermutedMpa, sampler, n: int,
                                    tolerance: float, seed: int) -> float:
    """Fraction of samples x with ||h(Pi x) - x||_inf < tolerance.

    For a non-identity permutation the fixed set is a null set, so the
    fraction must vanish as tolerance does.  Identity permutations are
    rejected (the statement does not apply to them).
    """
    if pmpa.is_identity_permutation:
        raise ValueError("fixed-measure probe applies only to non-identity permutations")
    if n < 10000:
        raise ValueError("need n >= 10000 samples")
    rng = np.random.default_rng(seed)
    x = sampler(rng, n)           # (D, n)
    mapped = pmpa(x)
    return float((np.abs(mapped - x).max(axis=0) < tolerance).mean())


@dataclass
class FiniteTranslationsReport:
    ks_increasing: float
    ks_decreasing: float
    crossing_count: int


def finite_translations_check(p1_sampler, transport, seed: int,
                              n_fit: int = 100000,
                              n_test: int = 100000) -> FiniteTranslationsReport:
    """Exhibit the only two smooth transports between two 1D laws.

    The second law is defined as the image of the first under the increasing
    map ``transport``.  Both the increasing composite F2^{-1} o F1 and the
    decreasing composite F2^{-1} o (1 - F1), built from empirical CDFs, must
    push fresh p1 draws onto p2 (small KS statistics), and they may agree
    only at a single crossing point; the caller sets the bounds.
    """
    rng = np.random.default_rng(seed)
    f1 = EmpiricalCdf(p1_sampler(rng, n_fit))
    f2 = EmpiricalCdf(transport(p1_sampler(rng, n_fit)))
    # sorted once: the KS statistics and quantiles ignore sample order, and
    # np.interp is much faster on sorted queries
    x_test = np.sort(p1_sampler(rng, n_test))
    y_test = transport(p1_sampler(rng, n_test))
    # F1 is evaluated once a query set; both transports are built from it
    u = f1.cdf(x_test)
    ks_up = _ks_statistic(f2.quantile(u), y_test)
    ks_down = _ks_statistic(f2.quantile(1.0 - u), y_test)
    # Crossings of the two transports, scanned across the central sample range.
    # The increasing one minus the decreasing one changes sign exactly once;
    # flat zeros from interpolation are ignored.
    lo, hi = np.quantile(x_test, [0.001, 0.999])
    u = f1.cdf(np.linspace(lo, hi, 20001))
    signs = np.sign(f2.quantile(u) - f2.quantile(1.0 - u))
    signs = signs[signs != 0]
    sign_changes = int((signs[:-1] != signs[1:]).sum())
    return FiniteTranslationsReport(ks_increasing=ks_up, ks_decreasing=ks_down,
                                    crossing_count=sign_changes)

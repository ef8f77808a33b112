"""Jacobian support probing and the pieces of the sparsity penalties.

Three layers of machinery live here:

* Jacobians of a network: ``batched_jvp_graph``, the in-graph
  Jacobian-vector products J(x_n) v_n that the training penalties in
  ``objective`` build on.  It takes the output node of a network pass over
  the x_n and walks that pass's chain of ``dense`` nodes for each layer's
  weight node and activation mask, whose derivative it freezes as a
  constant.  Every network is leaky-relu with an identity output, so this
  is exact almost everywhere.
  Along the identity directions, ``jacobian_graph`` holds every point's
  full Jacobian in one sweep; the exact Jacobian l1 term and the
  discriminator's R1 penalty both build on it;
* the randomized sparse-probe estimator of the Jacobian's nonzero count:
  draw a mask with exactly S active coordinates, fill it with Gaussian
  entries, and count nonzeros of J z.  Scaled by D/S this sketches ||J||_0
  from above, and from below within a factor 1 - (S-1)(T-1)/(2(D-1)) where
  T is the largest row-support size.  ``probe_bias_variance_study``
  reports that factor as ``lower_bound_factor`` beside the sketch's bias,
  and ``q_hypergeometric`` gives the sketch's expectation in closed form.
  The sketch reads J as a ``SparseJacobian``, its nonzeros alone in
  compressed sparse column form, so a study holds no D x D array at any D.
  Every subset, a probe's mask or a matrix's row support, comes from
  ``random_mask`` in O(S) draws, never O(D).  D is the data's dimension,
  which the caller passes; a ``ProbeSpec`` holds S and the probe's scale
  and count alone.  ``q_probe_samples`` scores one ``draw_probe`` block of
  probes, over sorted keys or over bins, with the same bits either way;
* the structural-sparsity test on a support pattern: every input coordinate
  k must own a set of output rows whose supports intersect exactly in {k}.

Both sparsity penalties, the exact Jacobian l1 term and the masked finite
differences along ``draw_probe`` probes, are assembled in
``objective.sparsity_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import autodiff as ad
from .configio import DISTINCT, FINITE, NONEMPTY, POSITIVE, Checked, at_least
from .nets import HIDDEN_SLOPE

DEFAULT_ZERO_THRESHOLD = 1e-9
# float64 elements in each per-block buffer of q_probe_samples (256 KB): a
# block holds about this many bins, or as many gathered products where the
# sums are taken over sorted keys.  At D = 1000, T = 10 the binned mask sizes
# (S >= 10) score 1000 bins a probe, so a block holds 32 probes, and each
# block's fixed overhead is paid 16 times a 500-probe call.  Scoring one
# matrix at S = 1, 2, 5, 10, 20, 50 took 7.9 ms at 2^14, 7.0 ms at 2^15,
# 7.3 ms at 2^16 and 9.0 ms at 2^17 elements (2-vCPU Xeon, best of 15);
# 2^16 also raised the benchmark's peak RSS by 0.7 MB, 2^15 did not.  The
# probes are drawn before any block is scored, so the block size leaves the
# stream and the bits alone.
PROBE_BLOCK_ELEMENTS = 1 << 15
# q_probe_samples sorts a block's (probe, row) keys, O(products), rather than
# bincount D bins a probe, O(D), when SORT_RATIO times a probe's expected
# products is below D.  A sort costs about ten bins' worth a product; of 3,
# 10 and 30, 10 measured fastest at D = 1000, 10^4 and 10^5.
SORT_RATIO = 10


@dataclass
class ProbeSpec(Checked):
    """Mask size S, scale and count of the masked-FD probes.  D, the data's
    dimension, comes from the caller of ``draw_probe``; S must not exceed it."""
    mask_size: Annotated[int, at_least(1)]
    perturbation_scale: Annotated[float, POSITIVE, FINITE] = 0.01
    probes_per_sample: Annotated[int, at_least(1)] = 1


@dataclass
class ProbeSample:
    """count probes in index form, one probe a row: its S mask coordinates,
    ascending, and the standard normal entry at each of them."""
    dimension: int
    index: np.ndarray     # int64 (count, S), strictly ascending a row
    entries: np.ndarray   # float64 (count, S)

    def _spread(self, values, dtype) -> np.ndarray:
        """(D, count) block holding ``values`` on each probe's mask, column c
        probe c, and zero off it."""
        out = np.zeros((self.dimension, self.index.shape[0]), dtype=dtype)
        out[self.index, np.arange(self.index.shape[0])[:, None]] = values
        return out

    @property
    def mask(self) -> np.ndarray:
        """bool (D, count), exactly S True entries a column."""
        return self._spread(True, bool)

    @property
    def probe(self) -> np.ndarray:
        """float64 (D, count): the entries on the mask, zero off it."""
        return self._spread(self.entries, np.float64)


@dataclass
class SupportPattern:
    dimension: int
    index_pairs: frozenset

    def __post_init__(self):
        for (r, c) in self.index_pairs:
            if not (0 <= r < self.dimension and 0 <= c < self.dimension):
                raise ValueError(f"index pair ({r}, {c}) outside [0, {self.dimension})")

    @classmethod
    def from_matrix(cls, j: np.ndarray, zero_threshold: float = DEFAULT_ZERO_THRESHOLD):
        rows, cols = np.nonzero(np.abs(j) > zero_threshold)
        return cls(dimension=j.shape[0],
                   index_pairs=frozenset(zip(rows.tolist(), cols.tolist())))

    def row_supports(self) -> list[set]:
        rows = [set() for _ in range(self.dimension)]
        for (r, c) in self.index_pairs:
            rows[r].add(c)
        return rows


def random_mask(dimension: int, size: int, rng: np.random.Generator,
                count: int = 1) -> np.ndarray:
    """(count, S) int64 block whose rows are uniform size-S subsets of [D],
    each in ascending order.

    Floyd's sampler, run on all count rows at once: for j = D-S, ..., D-1 it
    draws one rng.integers(0, j + 1, size=count) and each row takes its
    draw, or j where the draw repeats an index that row already holds.  That
    is S integer draws a subset and no O(D) array; the repeat test compares
    each draw with the row's earlier picks, O(S^2) a row.
    """
    if not 1 <= size <= dimension:
        raise ValueError(f"mask size {size} not in [1, {dimension}]")
    picks = np.empty((size, count), dtype=np.int64)
    for r, j in enumerate(range(dimension - size, dimension)):
        t = rng.integers(0, j + 1, size=count)
        picks[r] = np.where((picks[:r] == t).any(axis=0), j, t)
    return np.sort(picks.T, axis=1)


def draw_probe(spec: ProbeSpec, dimension: int, rng: np.random.Generator,
               count: int = 1) -> ProbeSample:
    """count sparse Gaussian probes in R^dimension, one probe a row of the
    index form; ``mask`` and ``probe`` give them as (D, count) blocks.

    Each probe is a uniform mask of S <= D coordinates times N(0, I).  The
    whole (count, S) index block is drawn first, then one (count, S) Gaussian
    block, whose row c fills probe c's coordinates in ascending order, so
    masks and entries are independent and the stream is reproducible.  The
    draw costs O(count S), whatever D; the stream depends on count, so one
    block of n probes is not n single draws.
    """
    index = random_mask(dimension, spec.mask_size, rng, count)
    return ProbeSample(dimension=dimension, index=index,
                       entries=rng.standard_normal((count, spec.mask_size)))


# ---------------------------------------------------------------------------
# Jacobian extraction
# ---------------------------------------------------------------------------

def activation_masks(preacts: list[np.ndarray]) -> list[np.ndarray]:
    """The hidden layers' activation derivatives from a network's
    pre-activation arrays: what a pass's hidden dense nodes rebuild from
    their masks.  No runtime code calls this, kept as the tests' reference
    and a name the benchmark traces.
    """
    return [ad.leaky_derivative(a >= 0, HIDDEN_SLOPE) for a in preacts[:-1]]


def _pass_layers(out: ad.Node) -> list:
    """[(weight node, (mask, slope) or None)] of each layer, in order, of the
    pass whose identity output dense node is ``out``: the chain of leaky
    dense nodes below it, up to the pass's input, each with the activation
    mask and slope it keeps as its meta.
    """
    if out.kind != "dense" or out.meta is not None:
        raise ad.GraphError(f"{out!r} does not end a network pass")
    layers = [(out.parents[0], None)]
    h = out.parents[1]
    while h.kind == "dense" and h.meta is not None:
        layers.append((h.parents[0], h.meta))
        h = h.parents[1]
    return layers[::-1]


def batched_jvp_graph(out: ad.Node, directions: np.ndarray) -> ad.Node:
    """Graph whose column j is J(x_n) @ v_j, n = j mod N, for the N points x_n
    of the network pass ending at ``out`` and (D, k N) directions.

    Propagates the directions through the layer linearizations with the
    pass's activation derivatives frozen as constants, each rebuilt from
    its layer's mask, then tiled k times when k > 1, so the graph keeps one
    float derivative a layer, at the width of the directions.  The result
    is linear in the weights of each layer and differentiable w.r.t. them:
    backward through it yields a valid a.e. subgradient of any function of
    the JVPs without second-order differentiation.
    """
    reps = directions.shape[1] // out.shape[1]
    v = ad.input_node(directions, "jvp-direction")
    for w_node, leaky in _pass_layers(out):
        v = ad.matmul(w_node, v)
        if leaky is not None:
            deriv = ad.leaky_derivative(*leaky)
            if reps > 1:
                deriv = np.tile(deriv, (1, reps))
            v = ad.elementwise_mul(v, ad.input_node(deriv, "activation-derivative"))
    return v


def jacobian_graph(out: ad.Node) -> ad.Node:
    """Every column of J(x_n) for the N points of the network pass ending at
    ``out``, as one (out, D N) node whose column k N + n is J(x_n) e_k: one
    widened JVP sweep carries all D directions."""
    d, n = _pass_layers(out)[0][0].shape[1], out.shape[1]
    return batched_jvp_graph(out, np.repeat(np.eye(d), n, axis=1))


# ---------------------------------------------------------------------------
# randomized l0 sketch q(J) = (D/S) E ||J z||_0
# ---------------------------------------------------------------------------

@dataclass
class SparseJacobian:
    """A D x D matrix in compressed sparse column form, 12 bytes a nonzero:
    column c's nonzeros are ``rows[col_ptr[c]:col_ptr[c + 1]]``, ascending,
    with their ``values``.  That is the order in which ``q_probe_samples``
    sums J z, so one record gives the same bits whichever way it sums."""
    dimension: int
    rows: np.ndarray      # int32 (nnz,), ascending within a column
    col_ptr: np.ndarray   # int64 (D + 1,), from 0 to nnz
    values: np.ndarray    # float64 (nnz,), no exact zeros

    @classmethod
    def from_dense(cls, j) -> "SparseJacobian":
        j = np.asarray(j, dtype=np.float64)
        # J's transpose, read row-major, is J in column order, rows ascending
        flat = np.flatnonzero(j.T != 0)
        cols, rows = np.divmod(flat, j.shape[0])
        return cls(dimension=j.shape[0], rows=rows.astype(np.int32),
                   col_ptr=_col_ptr(cols, j.shape[0]), values=j[rows, cols])

    def dense(self) -> np.ndarray:
        j = np.zeros((self.dimension, self.dimension))
        j[self.rows, np.repeat(np.arange(self.dimension), np.diff(self.col_ptr))] = self.values
        return j

    def row_support_sizes(self, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> np.ndarray:
        """T_d, the count of entries of row d above ``zero_threshold`` in
        absolute value, for every row d."""
        return np.bincount(self.rows[np.abs(self.values) > zero_threshold],
                           minlength=self.dimension)


def _col_ptr(cols: np.ndarray, dimension: int) -> np.ndarray:
    """int64 (D + 1,) column pointers of the entries in columns ``cols``."""
    return np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=dimension))))


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Sort the int64 ``keys`` in place, equal keys kept in their order, and
    return the permutation that sorts them: ``keys`` holds ``key << bits |
    position`` while one in-place sort runs, where a stable argsort would
    cost about eight times as much."""
    bits = max(0, keys.size - 1).bit_length()
    keys <<= bits
    keys |= np.arange(keys.size)
    keys.sort()
    order = keys & ((1 << bits) - 1)
    keys >>= bits
    return order


def _hits_binned(keys, products, n, d, zero_threshold) -> np.ndarray:
    """Each of n probes' count of rows |J z| above the threshold, from one
    bincount over n x D bins: O(n D) whatever the products."""
    jz = np.bincount(keys, weights=products, minlength=n * d)
    return np.count_nonzero(np.abs(jz, out=jz).reshape(n, d) > zero_threshold, axis=1)


def _hits_sorted(keys, products, n, d, zero_threshold) -> np.ndarray:
    """The same counts in O(products): the keys sorted, with each key's
    products kept in their order, then one bincount over the distinct keys,
    so every sum adds the products in the binned sum's order."""
    order = _sort_keys(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    jz = np.bincount(np.cumsum(first) - 1, weights=products[order])
    hits = np.concatenate(([0], np.cumsum(np.abs(jz) > zero_threshold)))
    # probe p's distinct keys are those in [p D, (p + 1) D)
    bounds = np.searchsorted(keys[first], np.arange(0, (n + 1) * d, d))
    return hits[bounds[1:]] - hits[bounds[:-1]]


def q_probe_samples(j: SparseJacobian, mask_size: int, num_probes: int,
                    rng: np.random.Generator,
                    zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> np.ndarray:
    """num_probes independent draws of (D/S) ||J z||_0.

    Consumes exactly what one ``draw_probe(ProbeSpec(S), D, rng,
    num_probes)`` call consumes, and scores that call's index form in
    blocks: J z is the record's nonzeros in the masked columns alone, each
    times its probe entry, summed by (probe, row) in column order.  A probe
    gathers about S nnz(J) / D products; where D bins a probe would be
    mostly empty (SORT_RATIO times the products below D) the sums are taken
    over the sorted keys, else over one bincount of block x D bins.  Both
    add in the same order, so the choice leaves every bit alone; every
    probe is drawn before the first block is scored, so neither the choice
    nor the block size can change the stream.
    """
    d = j.dimension
    if not 1 <= mask_size <= d:
        raise ValueError(f"mask size {mask_size} not in [1, {d}]")
    probes = draw_probe(ProbeSpec(mask_size), d, rng, num_probes)
    rows, entries, col_ptr = j.rows, j.values, j.col_ptr
    products_per_probe = mask_size * entries.size // d
    if SORT_RATIO * mask_size * entries.size < d * d:
        hits_of, per_probe = _hits_sorted, max(1, products_per_probe)
    else:
        hits_of, per_probe = _hits_binned, max(d, products_per_probe)
    block = max(1, min(num_probes, PROBE_BLOCK_ELEMENTS // per_probe))
    vals = np.empty(num_probes)
    for lo in range(0, num_probes, block):
        # columns ascending: J z is summed in column order
        masked = probes.index[lo:lo + block]
        n = masked.shape[0]
        starts = col_ptr[masked].ravel()
        lens = col_ptr[masked + 1].ravel() - starts
        # positions of every masked column's nonzeros in the record
        at = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        at += np.arange(at.size)
        products = entries[at]
        products *= np.repeat(probes.entries[lo:lo + block].ravel(), lens)
        keys = np.repeat(np.arange(0, n * d, d), lens.reshape(n, mask_size).sum(axis=1))
        keys += rows[at]
        vals[lo:lo + n] = (d / mask_size) * hits_of(keys, products, n, d, zero_threshold)
    return vals


def q_hypergeometric(j: SparseJacobian, mask_size: int,
                     zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> float:
    """Closed form q(J) = (D/S) sum_d (1 - C(D-T_d, S)/C(D, S)), at any D.

    With Gaussian entries on the mask, (J z)_d is nonzero almost surely
    exactly when the mask hits row d's support, of size T_d: the record's
    entries in row d above ``zero_threshold``.
    """
    d = j.dimension
    total = math.comb(d, mask_size)
    sizes, which = np.unique(j.row_support_sizes(zero_threshold), return_inverse=True)
    terms = [1.0 - (math.comb(d - t, mask_size) if d - t >= mask_size else 0) / total
             for t in sizes.tolist()]
    # one comb a distinct support size; the terms are summed in row order,
    # one at a time, so the result keeps the per-row loop's bits
    acc = 0.0
    for k in which.tolist():
        acc += terms[k]
    return (d / mask_size) * acc


# ---------------------------------------------------------------------------
# structural sparsity check
# ---------------------------------------------------------------------------

@dataclass
class StructuralSparsityResult:
    satisfied: bool
    witnesses: dict        # column k -> set of rows whose supports pin {k}
    failures: dict         # column k -> human-readable diagnostic


def check_structural_sparsity(pattern: SupportPattern) -> StructuralSparsityResult:
    """Does every column k admit rows whose supports intersect exactly in {k}?

    Checks the maximal candidate C_k = {rows i with k in row support}; any
    superset of rows can only shrink the intersection, so the maximal set
    minimizes it, making this check equivalent to existence over all subsets.
    """
    rows = pattern.row_supports()
    witnesses, failures = {}, {}
    for k in range(pattern.dimension):
        candidate = {i for i, sup in enumerate(rows) if k in sup}
        if not candidate:
            failures[k] = "no row support contains this column"
            continue
        inter = set.intersection(*(rows[i] for i in candidate))
        if inter == {k}:
            witnesses[k] = candidate
        else:
            failures[k] = (f"best intersection over rows {sorted(candidate)} "
                           f"is {sorted(inter)}, not [{k}]")
    return StructuralSparsityResult(satisfied=not failures,
                                    witnesses=witnesses, failures=failures)


# ---------------------------------------------------------------------------
# bias / variance study of the probe estimator
# ---------------------------------------------------------------------------

def random_sparse_jacobian(dimension: int, row_support: int,
                           rng: np.random.Generator) -> SparseJacobian:
    """Uniform size-T support per row, standard-normal nonzero entries.

    The D row supports are one (D, T) ``random_mask`` index block, row i
    holding row i's columns in ascending order; then D T Gaussians fill the
    supports row by row.  One in-place sort of packed (column, position)
    keys gives the permutation that puts the entries in column order, rows
    ascending.  That is O(D T) draws and memory: no D x D array is built,
    and the draw peaks at about twice the record it returns.  An entry
    drawn as exactly 0.0 is left out, as ``SparseJacobian.from_dense`` of
    the filled matrix would leave it.
    """
    cols = random_mask(dimension, row_support, rng, dimension).ravel()
    col_ptr = _col_ptr(cols, dimension)
    order = _sort_keys(cols)
    del cols
    # the sort draws nothing, so the Gaussians are the draws after the
    # supports either way; drawn after it, they are not held while it runs
    values = rng.standard_normal(order.size)[order]
    rows = np.floor_divide(order, row_support, out=np.empty(order.size, dtype=np.int32))
    if np.count_nonzero(values) < values.size:
        kept = values != 0
        col_ptr = np.concatenate(([0], np.cumsum(kept)))[col_ptr]
        rows, values = rows[kept], values[kept]
    return SparseJacobian(dimension=dimension, rows=rows, col_ptr=col_ptr, values=values)


@dataclass
class ProbeStudy(Checked):
    """The parameters of ``probe_bias_variance_study``: D, T, the mask sizes
    S, the number of random matrices and the probes drawn a matrix at each S.
    T and every S are at most D."""
    dimension: Annotated[int, POSITIVE] = 1000
    row_support: Annotated[int, POSITIVE] = 10
    mask_sizes: Annotated[tuple[int, ...], NONEMPTY, DISTINCT, POSITIVE] = (
        1, 2, 5, 10, 20, 50)
    num_matrices: Annotated[int, POSITIVE] = 20
    # one draw a probe has no variance
    mc_samples: Annotated[int, at_least(2)] = 500

    def __post_init__(self):
        super().__post_init__()
        if self.row_support > self.dimension:
            raise ValueError(f"row_support = {self.row_support} not in "
                             f"[1, dimension = {self.dimension}]")
        for s in self.mask_sizes:
            if s > self.dimension:
                raise ValueError(f"mask_sizes entry {s} not in "
                                 f"[1, dimension = {self.dimension}]")


@dataclass
class StudyRow:
    mask_size: int
    mean_rel_bias: float
    variance: float
    lower_bound_factor: float


@dataclass
class StudyResult:
    rows: list[StudyRow]

    def csv_lines(self) -> list[str]:
        out = ["S,mean_rel_bias,variance,lower_bound_factor"]
        for r in self.rows:
            out.append(f"{r.mask_size},{r.mean_rel_bias:.17g},"
                       f"{r.variance:.17g},{r.lower_bound_factor:.17g}")
        return out


def probe_bias_variance_study(study: ProbeStudy, rng: np.random.Generator,
                              zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> StudyResult:
    """Bias and variance of the (D/S)||Jz||_0 sketch across random Jacobians.

    One matrix at a time: matrix i draws its record, then its probes at
    every mask size in turn, all from ``rng.spawn(num_matrices)[i]``, and
    the record is released before the next matrix is drawn, so the study
    holds one record at any D.  The reported variance is that of a single
    probe (not of the averaged estimate), and the bias is relative to the
    true nonzero count.  ``study`` checked its parameters when it was made.
    """
    dimension, row_support = study.dimension, study.row_support
    mask_sizes, num_matrices = study.mask_sizes, study.num_matrices
    l0s = np.empty(num_matrices)
    q_hats = np.empty((len(mask_sizes), num_matrices))
    variances = np.empty((len(mask_sizes), num_matrices))
    for i, matrix_rng in enumerate(rng.spawn(num_matrices)):
        m = random_sparse_jacobian(dimension, row_support, matrix_rng)
        l0s[i] = m.row_support_sizes(zero_threshold).sum()
        for k, s in enumerate(mask_sizes):
            samples = q_probe_samples(m, s, study.mc_samples, matrix_rng, zero_threshold)
            q_hats[k, i] = samples.mean()
            variances[k, i] = samples.var(ddof=1)
        del m
    rows = []
    for k, s in enumerate(mask_sizes):
        rel_bias = (q_hats[k] - l0s) / l0s
        factor = 1.0 - (s - 1) * (row_support - 1) / (2.0 * max(dimension - 1, 1))
        rows.append(StudyRow(mask_size=int(s),
                             mean_rel_bias=float(rel_bias.mean()),
                             variance=float(variances[k].mean()),
                             lower_bound_factor=factor))
    return StudyResult(rows=rows)

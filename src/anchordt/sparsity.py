"""Jacobian support probing and the pieces of the sparsity penalties.

Three layers of machinery live here:

* Jacobians of a network: ``exact_jacobian`` by central differences, for
  evaluation, and ``batched_jvp_graph``, the in-graph Jacobian-vector
  products J(x_n) v_n that the training penalties in ``objective`` build
  on.  It takes the output node of a network pass over the x_n and walks
  that pass's chain of ``dense`` nodes for each layer's weight node and
  activation mask, whose derivative it freezes as a constant.  Every
  network is leaky-relu with an identity output, so this is exact almost
  everywhere.
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
  The sketch reads J as a ``SparseJacobian``, its nonzeros alone in column
  order; ``random_sparse_jacobian`` draws one in that form, and a dense
  matrix is built only by ``SparseJacobian.dense`` for a caller that needs
  one, so a study at D = 1000 holds no D x D matrix.
  Probes come in (D, count) blocks, one probe a column: ``draw_probe``
  draws the whole mask block first, then the whole Gaussian block.  D is
  the data's dimension, which the caller passes; a ``ProbeSpec`` holds S
  and the probe's scale and count alone.
  ``q_probe_samples`` keeps a different stream contract: it consumes the
  same draws as count-1 ``draw_probe`` calls in sequence, D mask keys then
  D Gaussian entries a probe, and scores the probes in blocks;
* the structural-sparsity test on a support pattern: every input coordinate
  k must own a set of output rows whose supports intersect exactly in {k}.

Both sparsity penalties, the exact Jacobian l1 term and the masked finite
differences along ``draw_probe`` probes, are assembled in
``objective.sparsity_loss``; its masked-FD mode makes one ``draw_probe``
call per loss, a block holding every sample's probe for every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .nets import HIDDEN_SLOPE, MlpModel

DEFAULT_ZERO_THRESHOLD = 1e-9
# float64 elements in each per-block buffer of q_probe_samples (128 KB), and
# the column block of random_mask's selection; larger blocks measured no
# faster at D = 1000 and raise peak memory
PROBE_BLOCK_ELEMENTS = 1 << 14


@dataclass
class ProbeSpec:
    """Mask size S, scale and count of the masked-FD probes.  D, the data's
    dimension, comes from the caller of ``draw_probe``; S must not exceed it."""
    mask_size: int
    perturbation_scale: float = 0.01
    probes_per_sample: int = 1

    def __post_init__(self):
        if self.mask_size < 1:
            raise ValueError(f"mask size {self.mask_size} must be at least 1")
        if not self.perturbation_scale > 0:   # NaN fails it too
            raise ValueError(f"perturbation_scale = {self.perturbation_scale!r} "
                             "must be positive")
        if self.probes_per_sample < 1:
            raise ValueError("probes per sample must be >= 1")


@dataclass
class ProbeSample:
    mask: np.ndarray      # bool (D, count), exactly S True entries a column
    probe: np.ndarray     # standard normal entries on the mask, zero off it


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
    """(D, count) bool block whose columns are uniform size-S subsets of [D].

    Each column keeps the S smallest of D iid uniform keys.  argpartition
    picks exactly S indices a column, so ties between keys cannot change
    the subset size.  The keys are one draw; the selection runs over blocks
    of columns, so no (D, count) index array is built.
    """
    keys = rng.random((dimension, count))
    mask = np.zeros((dimension, count), dtype=bool)
    block = max(1, PROBE_BLOCK_ELEMENTS // dimension)
    for lo in range(0, count, block):
        np.put_along_axis(
            mask[:, lo:lo + block],
            np.argpartition(keys[:, lo:lo + block], size - 1, axis=0)[:size],
            True, axis=0)
    return mask


def draw_probe(spec: ProbeSpec, dimension: int, rng: np.random.Generator,
               count: int = 1) -> ProbeSample:
    """count sparse Gaussian probes in R^dimension as (D, count) blocks, one
    probe a column.

    Each column is a uniform mask of S <= D coordinates times N(0, I).  The
    whole mask block is drawn first, then the whole Gaussian block, so masks
    and entries are independent and the stream is reproducible; the stream
    depends on count, so one block of n probes is not n single draws.
    """
    mask = random_mask(dimension, spec.mask_size, rng, count)
    eps = rng.standard_normal((dimension, count))
    return ProbeSample(mask=mask, probe=np.where(mask, eps, 0.0))


# ---------------------------------------------------------------------------
# Jacobian extraction
# ---------------------------------------------------------------------------

def exact_jacobian(model, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a square map; evaluation only.

    Column d is (g(x + step*e_d) - g(x - step*e_d)) / (2*step).  ``model``
    is an MlpModel or any callable taking and returning (D, N) column
    batches.
    """
    if isinstance(model, MlpModel):
        if model.input_dim != model.output_dim:
            raise ValueError(
                f"map must be square, got {model.input_dim} -> {model.output_dim}")
        fn = model.apply
    else:
        fn = model
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    d = x.shape[0]
    # One batched forward over the 2D perturbed points.
    pts = np.repeat(x, 2 * d, axis=1)
    for k in range(d):
        pts[k, k] += step
        pts[k, d + k] -= step
    out = np.asarray(fn(pts))
    if out.shape != pts.shape:
        raise ValueError(f"map must be square, got output shape {out.shape} "
                         f"for input shape {pts.shape}")
    return (out[:, :d] - out[:, d:]) / (2.0 * step)


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
    its layer's mask, tiled k times first when k > 1, so the graph keeps one
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
            mask, slope = leaky
            if reps > 1:
                mask = np.tile(mask, (1, reps))
            deriv = ad.leaky_derivative(mask, slope)
            v = ad.elementwise_mul(v, ad.input_node(deriv, "activation-derivative"))
    return v


def jacobian_graph(out: ad.Node) -> ad.Node:
    """Every column of J(x_n) for the N points of the network pass ending at
    ``out``, as one (out, D N) node whose column k N + n is J(x_n) e_k: one
    widened JVP sweep carries all D directions."""
    d, n = _pass_layers(out)[0][0].shape[1], out.shape[1]
    return batched_jvp_graph(out, np.kron(np.eye(d), np.ones((1, n))))


# ---------------------------------------------------------------------------
# randomized l0 sketch q(J) = (D/S) E ||J z||_0
# ---------------------------------------------------------------------------

@dataclass
class SparseJacobian:
    """A D x D matrix as its nonzeros, in column order with rows ascending
    within a column: the order in which ``q_probe_samples`` sums J z."""
    dimension: int
    rows: np.ndarray      # int64 (nnz,)
    cols: np.ndarray      # int64 (nnz,), ascending
    values: np.ndarray    # float64 (nnz,), no exact zeros

    @classmethod
    def from_dense(cls, j) -> "SparseJacobian":
        j = np.asarray(j, dtype=np.float64)
        d = j.shape[0]
        flat = np.flatnonzero(j != 0)
        flat = flat[np.argsort(flat % d, kind="stable")]
        rows, cols = np.divmod(flat, d)
        return cls(dimension=d, rows=rows, cols=cols, values=j.ravel()[flat])

    def dense(self) -> np.ndarray:
        j = np.zeros((self.dimension, self.dimension))
        j[self.rows, self.cols] = self.values
        return j

    def row_support_sizes(self, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> np.ndarray:
        """T_d, the count of entries of row d above ``zero_threshold`` in
        absolute value, for every row d."""
        return np.bincount(self.rows[np.abs(self.values) > zero_threshold],
                           minlength=self.dimension)


def q_probe_samples(j: SparseJacobian, mask_size: int, num_probes: int,
                    rng: np.random.Generator,
                    zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> np.ndarray:
    """num_probes independent draws of (D/S) ||J z||_0.

    Consumes the same draws, in the same order, as num_probes count-1
    ``draw_probe`` calls in sequence: D uniform mask keys, then D Gaussian
    entries, per probe.  The probes are scored in blocks: one argpartition
    picks a block's masks, and J z is summed over the record's nonzeros in
    the masked columns alone, in column order, with one bincount per block.
    """
    d = j.dimension
    if not 1 <= mask_size <= d:
        raise ValueError(f"mask size {mask_size} not in [1, {d}]")
    rows, entries = j.rows, j.values
    col_len = np.bincount(j.cols, minlength=d)
    col_start = np.cumsum(col_len) - col_len
    # A probe takes D floats of each (block, D) buffer and about S nnz(J) / D
    # gathered products; a block holds about PROBE_BLOCK_ELEMENTS of either.
    per_probe = max(d, mask_size * entries.size // d)
    block = max(1, min(num_probes, PROBE_BLOCK_ELEMENTS // per_probe))
    keys = np.empty((block, d))
    eps = np.empty((block, d))
    vals = np.empty(num_probes)
    for lo in range(0, num_probes, block):
        n = min(block, num_probes - lo)
        for b in range(n):
            rng.random(out=keys[b])
            rng.standard_normal(out=eps[b])
        # columns ascending: J z is summed in column order
        masked = np.sort(np.argpartition(keys[:n], mask_size - 1, axis=1)[:, :mask_size],
                         axis=1)
        lens = col_len[masked].ravel()
        # positions of every masked column's nonzeros in the column-sorted list
        at = np.repeat(col_start[masked].ravel() - (np.cumsum(lens) - lens), lens)
        at += np.arange(at.size)
        products = entries[at]
        products *= np.repeat(np.take_along_axis(eps[:n], masked, axis=1).ravel(), lens)
        bins = np.repeat(np.arange(0, n * d, d), lens.reshape(n, mask_size).sum(axis=1))
        bins += rows[at]
        jz = np.bincount(bins, weights=products, minlength=n * d)
        hits = np.count_nonzero(np.abs(jz, out=jz).reshape(n, d) > zero_threshold, axis=1)
        vals[lo:lo + n] = (d / mask_size) * hits
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
    acc = 0.0
    for t in j.row_support_sizes(zero_threshold):
        miss = math.comb(d - int(t), mask_size) if d - int(t) >= mask_size else 0
        acc += 1.0 - miss / total
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

    The D row supports are one mask block, column i holding row i's; its
    entries are filled row by row from one Gaussian draw, then put in
    column order.  An entry drawn as exactly 0.0 is left out, as
    ``SparseJacobian.from_dense`` of the filled matrix would leave it.
    """
    support = random_mask(dimension, row_support, rng, dimension)
    rows, cols = np.nonzero(support.T)
    values = rng.standard_normal(dimension * row_support)
    order = np.argsort(cols, kind="stable")
    order = order[values[order] != 0]
    return SparseJacobian(dimension=dimension, rows=rows[order], cols=cols[order],
                          values=values[order])


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


def probe_bias_variance_study(dimension: int, row_support: int, mask_sizes,
                              num_matrices: int, mc_samples: int,
                              rng: np.random.Generator,
                              zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> StudyResult:
    """Bias and variance of the (D/S)||Jz||_0 sketch across random Jacobians.

    Matrices are generated first, then probed per mask size; the reported
    variance is that of a single probe (not of the averaged estimate), and
    the bias is relative to the true nonzero count.  Every parameter is
    checked before the first draw.
    """
    if min(dimension, num_matrices) < 1:
        raise ValueError("dimension and num_matrices must be positive")
    if mc_samples < 2:
        raise ValueError(f"mc_samples = {mc_samples} must be at least 2")
    if not 1 <= row_support <= dimension:
        raise ValueError(f"row_support = {row_support} not in [1, dimension = {dimension}]")
    if len(mask_sizes) == 0:
        raise ValueError("mask_sizes is empty")
    for s in mask_sizes:
        if not 1 <= s <= dimension:
            raise ValueError(f"mask_sizes entry {s} not in [1, dimension = {dimension}]")
    mats = [random_sparse_jacobian(dimension, row_support, rng)
            for _ in range(num_matrices)]
    l0s = np.array([m.row_support_sizes(zero_threshold).sum() for m in mats])
    rows = []
    for s in mask_sizes:
        q_hats = np.empty(num_matrices)
        variances = np.empty(num_matrices)
        for i, m in enumerate(mats):
            samples = q_probe_samples(m, s, mc_samples, rng, zero_threshold)
            q_hats[i] = samples.mean()
            variances[i] = samples.var(ddof=1)
        rel_bias = (q_hats - l0s) / l0s
        if dimension > 1:
            factor = 1.0 - (s - 1) * (row_support - 1) / (2.0 * (dimension - 1))
        else:
            factor = 1.0
        rows.append(StudyRow(mask_size=int(s),
                             mean_rel_bias=float(rel_bias.mean()),
                             variance=float(variances.mean()),
                             lower_bound_factor=factor))
    return StudyResult(rows=rows)

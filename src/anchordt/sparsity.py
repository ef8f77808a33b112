"""Jacobian support probing and the pieces of the sparsity penalties.

Three layers of machinery live here:

* Jacobians of a network: ``exact_jacobian`` by central differences, for
  evaluation, and ``batched_jvp_graph``, the in-graph Jacobian-vector
  products J(x_n) v_n that the training penalties in ``objective`` build
  on.  They use the per-layer activation derivatives of
  ``activation_masks``, frozen as constants.  Along the identity directions
  at one point, the JVP graph is that point's full Jacobian;
* the randomized sparse-probe estimator of the Jacobian's nonzero count:
  draw a mask with exactly S active coordinates, fill it with Gaussian
  entries, and count nonzeros of J z.  Scaled by D/S this sketches ||J||_0
  from above, and from below within a factor 1 - (S-1)(T-1)/(2(D-1)) where
  T is the largest row-support size; both sides are checkable here, and
  ``q_hypergeometric`` gives the sketch's expectation in closed form;
* the structural-sparsity test on a support pattern: every input coordinate
  k must own a set of output rows whose supports intersect exactly in {k}.

Both sparsity penalties, the exact Jacobian l1 term and the masked finite
differences along ``draw_probe`` probes, are assembled in
``objective.sparsity_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .nets import MlpBinding, MlpModel

DEFAULT_ZERO_THRESHOLD = 1e-9


@dataclass
class JacobianMatrix:
    entries: np.ndarray
    basepoint: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass
class ProbeSpec:
    dimension: int
    mask_size: int
    perturbation_scale: float = 0.01
    probes_per_sample: int = 1

    def __post_init__(self):
        if not 1 <= self.mask_size <= self.dimension:
            raise ValueError(
                f"mask size {self.mask_size} not in [1, {self.dimension}]")
        if self.perturbation_scale <= 0:
            raise ValueError("perturbation scale must be positive")
        if self.probes_per_sample < 1:
            raise ValueError("probes per sample must be >= 1")


@dataclass
class ProbeSample:
    mask: np.ndarray      # bool, exactly S True entries
    epsilon: np.ndarray   # standard normal, full length
    probe: np.ndarray     # mask * epsilon


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


def random_mask(dimension: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-S subset of [D] by partial Fisher-Yates shuffle."""
    pool = np.arange(dimension)
    for i in range(size):
        j = i + int(rng.integers(dimension - i))
        pool[i], pool[j] = pool[j], pool[i]
    mask = np.zeros(dimension, dtype=bool)
    mask[pool[:size]] = True
    return mask


def draw_probe(spec: ProbeSpec, rng: np.random.Generator) -> ProbeSample:
    """Sparse Gaussian probe: uniform mask of S coordinates times N(0, I).

    Draw order is mask first, then the full-length Gaussian, so mask and
    entries are independent and the stream is reproducible.
    """
    mask = random_mask(spec.dimension, spec.mask_size, rng)
    eps = rng.standard_normal(spec.dimension)
    return ProbeSample(mask=mask, epsilon=eps, probe=np.where(mask, eps, 0.0))


# ---------------------------------------------------------------------------
# Jacobian extraction
# ---------------------------------------------------------------------------

def exact_jacobian(model, x: np.ndarray, step: float = 1e-5) -> JacobianMatrix:
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
    entries = (out[:, :d] - out[:, d:]) / (2.0 * step)
    return JacobianMatrix(entries=entries, basepoint=x.copy())


def activation_masks(model: MlpModel, preacts: list[np.ndarray]) -> list[np.ndarray]:
    """Activation derivatives per layer from pre-activation arrays.

    Each is the layer activation's vjp at g = 1.  Only the output layer's
    activation value is computed: the hidden layers are leaky-relu, whose
    derivative needs the pre-activation alone.
    """
    masks = []
    last = len(preacts) - 1
    for i, (a, (name, slope)) in enumerate(zip(preacts, model.activations)):
        value, vjp = ad.ACTIVATIONS[name]
        masks.append(vjp(1.0, a, value(a, slope) if i == last else None, slope))
    return masks


def batched_jvp_graph(binding: MlpBinding, x_batch: np.ndarray,
                      directions: np.ndarray, masks=None) -> ad.Node:
    """Graph whose column n is J(x_n) @ v_n, for per-sample directions v_n.

    x_batch and directions are (D, N).  Propagates the directions through
    the layer linearizations with the activation masks frozen at x_batch,
    so the result is linear in the weights of each layer and differentiable
    w.r.t. them: backward through it yields a valid a.e. subgradient of any
    function of the JVPs without second-order differentiation.  Pass
    precomputed ``masks`` (from activation_masks) to skip the extra forward
    pass.
    """
    if masks is None:
        masks = activation_masks(binding.model, binding.model.preactivations(x_batch))
    v = ad.input_node(directions, "jvp-direction")
    for w_node, mask in zip(binding.weight_nodes, masks):
        v = ad.matmul(w_node, v)
        v = ad.elementwise_mul(v, ad.input_node(mask, "activation-derivative"))
    return v


# ---------------------------------------------------------------------------
# randomized l0 sketch q(J) = (D/S) E ||J z||_0 and its sandwich bound
# ---------------------------------------------------------------------------

def q_probe_samples(j: np.ndarray, mask_size: int, num_probes: int,
                    rng: np.random.Generator,
                    zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> np.ndarray:
    """num_probes independent draws of (D/S) ||J z||_0."""
    j = np.asarray(j, dtype=np.float64)
    d = j.shape[0]
    spec = ProbeSpec(dimension=d, mask_size=mask_size)
    vals = np.empty(num_probes)
    for i in range(num_probes):
        p = draw_probe(spec, rng)
        idx = np.nonzero(p.mask)[0]
        col = j[:, idx] @ p.probe[idx]
        vals[i] = (d / mask_size) * np.count_nonzero(np.abs(col) > zero_threshold)
    return vals


def q_estimate(j, spec: ProbeSpec, num_probes: int,
               zero_threshold: float, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of q(J) = (D/S) E ||J z||_0."""
    if num_probes < 1:
        raise ValueError("need at least one probe")
    if zero_threshold < 0:
        raise ValueError("zero threshold must be >= 0")
    entries = j.entries if isinstance(j, JacobianMatrix) else np.asarray(j)
    return float(q_probe_samples(entries, spec.mask_size, num_probes, rng,
                                 zero_threshold).mean())


def q_hypergeometric(j, mask_size: int,
                     zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> float:
    """Closed form q(J) = (D/S) sum_d (1 - C(D-T_d, S)/C(D, S)), at any D.

    With Gaussian entries on the mask, (J z)_d is nonzero almost surely
    exactly when the mask hits row d's support, of size T_d.
    """
    entries = j.entries if isinstance(j, JacobianMatrix) else np.asarray(j, dtype=np.float64)
    d = entries.shape[0]
    t_sizes = (np.abs(entries) > zero_threshold).sum(axis=1)
    total = math.comb(d, mask_size)
    acc = 0.0
    for t in t_sizes:
        miss = math.comb(d - int(t), mask_size) if d - int(t) >= mask_size else 0
        acc += 1.0 - miss / total
    return (d / mask_size) * acc


@dataclass
class SandwichVerdict:
    holds: bool
    lower: float
    upper: float
    T: int
    l0: int
    slack: float = 0.0


def check_sandwich_bound(j, mask_size: int, q_value: float,
                         zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                         mc_slack: float = 0.0) -> SandwichVerdict:
    """Check ||J||_0 >= q >= (1 - (S-1)(T-1)/(2(D-1))) ||J||_0.

    ``mc_slack`` widens both sides for Monte Carlo q estimates (pass the
    3-sigma standard error); exact q values use slack 0.  Both comparisons
    carry a representation-level epsilon: when every row support has size T
    the lower bound is attained exactly, and the two float paths may differ
    by an ulp.
    """
    entries = j.entries if isinstance(j, JacobianMatrix) else np.asarray(j, dtype=np.float64)
    d = entries.shape[0]
    t_sizes = (np.abs(entries) > zero_threshold).sum(axis=1)
    t_max = int(t_sizes.max()) if d else 0
    l0 = int(t_sizes.sum())
    if d <= 1:
        factor = 1.0
    else:
        factor = 1.0 - (mask_size - 1) * (t_max - 1) / (2.0 * (d - 1))
    lower = factor * l0
    upper = float(l0)
    eps = 1e-12 * max(1.0, float(l0))
    holds = (lower - mc_slack - eps) <= q_value <= (upper + mc_slack + eps)
    return SandwichVerdict(holds=holds, lower=lower, upper=upper, T=t_max,
                           l0=l0, slack=mc_slack)


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
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform size-T support per row, standard-normal nonzero entries."""
    j = np.zeros((dimension, dimension))
    for r in range(dimension):
        mask = random_mask(dimension, row_support, rng)
        j[r, mask] = rng.standard_normal(row_support)
    return j


@dataclass
class StudyRow:
    mask_size: int
    mean_rel_bias: float
    variance: float
    lower_bound_factor: float


@dataclass
class StudyResult:
    rows: list[StudyRow]
    # per mask size: arrays over matrices of (q_hat, ||J||_0, per-probe variance)
    per_matrix: dict = field(default_factory=dict)

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
    the bias is relative to the true nonzero count.
    """
    if min(dimension, row_support, num_matrices, mc_samples) < 1:
        raise ValueError("all study parameters must be positive")
    mats = [random_sparse_jacobian(dimension, row_support, rng)
            for _ in range(num_matrices)]
    l0s = np.array([np.count_nonzero(np.abs(m) > zero_threshold) for m in mats])
    rows, per_matrix = [], {}
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
        per_matrix[int(s)] = {"q_hat": q_hats, "l0": l0s.astype(float),
                              "variance": variances}
    return StudyResult(rows=rows, per_matrix=per_matrix)

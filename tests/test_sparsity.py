"""Jacobian probes, the nonzero-count sketch and its bounds, support checks."""

import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as scipy_stats

from anchordt import autodiff as ad
from anchordt import nets, sparsity
from rebuild_gradcheck import rebuild_gradcheck
from reference_pass import central_difference_jacobian, jacobian_sweep, preactivations


def sparse(j) -> sparsity.SparseJacobian:
    return sparsity.SparseJacobian.from_dense(j)


def linear_model(matrix: np.ndarray) -> nets.MlpModel:
    """Single linear layer y = A x (identity output, zero bias)."""
    a = np.asarray(matrix, dtype=np.float64)
    return nets.MlpModel(layer_sizes=(a.shape[1], a.shape[0]), weights=[a.copy()],
                         biases=[np.zeros((a.shape[0], 1))])


def jacobian_graph(model, x) -> ad.Node:
    """J(x) at one point x as a graph node."""
    binding = model if isinstance(model, nets.MlpBinding) else nets.bind(model)
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    return sparsity.jacobian_graph(binding(ad.input_node(x)))


def q_exact_enumeration(j, mask_size: int,
                        zero_threshold: float = sparsity.DEFAULT_ZERO_THRESHOLD) -> float:
    """Exact q(J) by enumerating all C(D, S) masks: the reference for q_hypergeometric.

    Uses the almost-sure equivalence: with Gaussian entries on the mask,
    (J z)_d is nonzero exactly when the mask intersects row d's support.
    """
    entries = np.asarray(j, dtype=np.float64)
    d = entries.shape[0]
    support = np.abs(entries) > zero_threshold
    combos = list(itertools.combinations(range(d), mask_size))
    masks = np.zeros((len(combos), d), dtype=np.float64)
    for i, combo in enumerate(combos):
        masks[i, list(combo)] = 1.0
    hits = (masks @ support.T.astype(np.float64)) > 0          # (n_masks, D) rows hit
    return float((d / mask_size) * hits.sum(axis=1).mean())


@dataclass
class SandwichVerdict:
    holds: bool
    lower: float
    upper: float
    T: int
    l0: int
    slack: float = 0.0


def check_sandwich_bound(j, mask_size: int, q_value: float,
                         zero_threshold: float = sparsity.DEFAULT_ZERO_THRESHOLD,
                         mc_slack: float = 0.0) -> SandwichVerdict:
    """Check ||J||_0 >= q >= (1 - (S-1)(T-1)/(2(D-1))) ||J||_0.

    ``mc_slack`` widens both sides for Monte Carlo q estimates (pass the
    3-sigma standard error); exact q values use slack 0.  Both comparisons
    carry a representation-level epsilon: when every row support has size T
    the lower bound is attained exactly, and the two float paths may differ
    by an ulp.
    """
    entries = np.asarray(j, dtype=np.float64)
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


def structured_d4_matrix(rng=None) -> np.ndarray:
    """4x4 with every row support of size 2 and nonzero Gaussian entries."""
    rng = rng or np.random.default_rng(42)
    j = np.zeros((4, 4))
    supports = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for r, cols in enumerate(supports):
        for c in cols:
            v = rng.standard_normal()
            while abs(v) < 1e-6:
                v = rng.standard_normal()
            j[r, c] = v
    return j


class TestExactJacobian:
    """The tests' finite-difference reference,
    ``reference_pass.central_difference_jacobian``."""

    def test_linear_map_recovered_exactly(self):
        a = np.array([[1.0, -2.0], [0.5, 3.0]])
        jac = central_difference_jacobian(linear_model(a), np.array([0.3, -0.7]))
        np.testing.assert_allclose(jac, a, atol=1e-12)

    def test_componentwise_square_map(self):
        # g(x) = (x1^2, x2) has Jacobian [[2 x1, 0], [0, 1]]
        fn = lambda pts: np.vstack([pts[0] ** 2, pts[1]])
        jac = central_difference_jacobian(fn, np.array([1.0, 1.0]), step=1e-4)
        np.testing.assert_allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=1e-6)

    def test_identity_model(self):
        jac = central_difference_jacobian(linear_model(np.eye(3)), np.zeros(3))
        np.testing.assert_allclose(jac, np.eye(3), atol=1e-12)

    def test_non_square_rejected(self):
        model = nets.init_mlp((2, 4, 3), seed=0)
        with pytest.raises(ValueError, match="square"):
            central_difference_jacobian(model, np.zeros(2))


class TestAnalyticJacobianGraph:
    def test_single_linear_layer_value_and_l1_gradient(self):
        a = np.array([[1.5, -2.0], [0.0, 3.0]])
        model = linear_model(a)
        binding = nets.bind(model)
        node = jacobian_graph(binding, np.array([0.1, 0.2]))
        np.testing.assert_allclose(node.value, a, atol=1e-15)
        grads = ad.backward(ad.abs_sum(node))
        np.testing.assert_array_equal(grads[binding.weight_nodes[0]], np.sign(a))

    def test_matches_central_differences_away_from_kinks(self):
        model = nets.init_mlp((2, 16, 16, 2), seed=3)
        x = np.array([0.8, -0.6])
        assert min(np.abs(p).min() for p in preactivations(model, x)) > 1e-3
        node = jacobian_graph(model, x)
        jac = central_difference_jacobian(model, x, step=1e-5)
        np.testing.assert_allclose(node.value, jac, atol=1e-6)

    def test_weight_gradient_of_jacobian_sum_matches_fd(self):
        model = nets.init_mlp((2, 6, 2), seed=6)
        x = np.array([0.7, -0.9])
        assert min(np.abs(p).min() for p in preactivations(model, x)) > 1e-3
        build = lambda: ad.node_sum(jacobian_graph(model, x))
        assert rebuild_gradcheck(build, nets.param_order(model.weights, model.biases)) < 1e-4

    def test_one_sweep_holds_every_point_jacobian(self):
        model = nets.init_mlp((3, 8, 3), seed=9)
        x = np.random.default_rng(2).standard_normal((3, 4))
        out = sparsity.jacobian_graph(nets.bind(model)(ad.input_node(x))).value
        for n in range(4):
            # column k N + n is J(x_n) e_k
            np.testing.assert_allclose(out[:, n::4], jacobian_graph(model, x[:, n]).value,
                                       atol=1e-15)

    def test_batched_jvp_agrees_with_per_sample_products(self):
        model = nets.init_mlp((3, 8, 3), seed=8)
        binding = nets.bind(model)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        v = rng.standard_normal((3, 5))
        out = sparsity.batched_jvp_graph(binding(ad.input_node(x)), v).value
        for n in range(5):
            jn = jacobian_graph(model, x[:, n]).value
            np.testing.assert_allclose(out[:, n], jn @ v[:, n], atol=1e-12)

    def test_sweep_gives_the_reference_bits_in_values_and_gradients(self):
        # derivatives rebuilt from the dense nodes' masks, exact-zero
        # pre-activations in column 2 included
        model = nets.init_mlp((3, 8, 8, 3), seed=7)
        x = np.random.default_rng(5).standard_normal((3, 6))
        x[:, 2] = 0.0
        assert any((a == 0).any() for a in preactivations(model, x)[:-1])
        binding, ref = nets.bind(model), nets.bind(model)
        jac = sparsity.jacobian_graph(binding(ad.input_node(x)))
        want = jacobian_sweep(ref.weight_nodes, model, x)
        assert jac.value.tobytes() == want.value.tobytes()
        got, expected = ad.backward(ad.abs_sum(jac)), ad.backward(ad.abs_sum(want))
        assert len(got) == len(expected) == 3
        for a, b in zip(binding.weight_nodes, ref.weight_nodes):
            assert got[a].tobytes() == expected[b].tobytes()

    def test_jacobian_of_a_pass_fed_another_pass_is_its_own(self):
        # the walk stops at the first network's identity output
        first, second = nets.init_mlp((2, 4, 2), seed=4), nets.init_mlp((2, 5, 2), seed=5)
        x = np.random.default_rng(3).standard_normal((2, 3))
        out = nets.bind(second)(nets.bind(first)(ad.input_node(x)))
        alone = nets.bind(second)(ad.input_node(first.apply(x)))
        assert (sparsity.jacobian_graph(out).value.tobytes()
                == sparsity.jacobian_graph(alone).value.tobytes())

    def test_node_that_ends_no_pass_is_rejected_by_name(self):
        x = ad.input_node(np.ones((2, 3)))
        with pytest.raises(ad.GraphError, match=r"Node\(input, shape=\(2, 3\)\) does "
                                                "not end a network pass"):
            sparsity.jacobian_graph(x)
        hidden = ad.dense(ad.parameter(np.eye(2)), x, ad.parameter(np.zeros((2, 1))), True)
        with pytest.raises(ad.GraphError, match=r"Node\(dense"):
            sparsity.batched_jvp_graph(hidden, np.ones((2, 3)))


class TestProbes:
    def test_full_mask_is_all_ones(self):
        spec = sparsity.ProbeSpec(mask_size=6)
        probe = sparsity.draw_probe(spec, 6, np.random.default_rng(0))
        assert probe.mask.all()
        # a same-seed rng replays the sampler's six integer draws, then the
        # Gaussian entries, which fill coordinates 0..5 in order
        rng = np.random.default_rng(0)
        for j in range(6):
            rng.integers(0, j + 1, size=1)
        assert probe.probe.tobytes() == rng.standard_normal((1, 6)).T.tobytes()

    def test_single_coordinate_uniform_chi2_at_1pct(self):
        d, draws = 5, 100000
        spec = sparsity.ProbeSpec(mask_size=1)
        mask = sparsity.draw_probe(spec, d, np.random.default_rng(123), draws).mask
        assert (mask.sum(axis=0) == 1).all()
        counts = mask.sum(axis=1)
        expected = draws / d
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < scipy_stats.chi2.ppf(0.99, d - 1)

    def test_inclusion_frequency_binomial(self):
        d, s, draws = 10, 3, 100000
        spec = sparsity.ProbeSpec(mask_size=s)
        hits = sparsity.draw_probe(spec, d, np.random.default_rng(7), draws).mask.sum(axis=1)
        p = s / d
        sigma = np.sqrt(p * (1 - p) / draws)
        assert np.abs(hits / draws - p).max() < 3 * sigma

    def test_zero_off_mask(self):
        spec = sparsity.ProbeSpec(mask_size=3)
        probe = sparsity.draw_probe(spec, 8, np.random.default_rng(5))
        assert (probe.probe[~probe.mask] == 0).all()
        assert np.count_nonzero(probe.mask) == 3

    @pytest.mark.parametrize("size", [1, 6])
    def test_every_block_column_has_exactly_s_entries(self, size):
        probes = sparsity.draw_probe(sparsity.ProbeSpec(size), 6,
                                     np.random.default_rng(3), 500)
        assert probes.index.shape == probes.entries.shape == (500, size)
        mask = probes.mask
        assert mask.shape == probes.probe.shape == (6, 500)
        assert (mask.sum(axis=0) == size).all()
        # row c of the index form is column c of the mask, ascending
        rows, cols = np.nonzero(mask.T)
        assert (cols.reshape(500, size) == probes.index).all()
        assert (probes.probe[probes.index.T, np.arange(500)] == probes.entries.T).all()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            sparsity.ProbeSpec(mask_size=0)
        with pytest.raises(ValueError):
            sparsity.ProbeSpec(mask_size=2, perturbation_scale=0.0)


class TestQEstimate:
    def test_identity_gives_exactly_d_per_probe(self):
        d = 7
        rng = np.random.default_rng(11)
        samples = sparsity.q_probe_samples(sparse(np.eye(d)), 3, 200, rng)
        np.testing.assert_array_equal(samples, np.full(200, float(d)))

    @pytest.mark.parametrize("size", [0, 5])
    def test_mask_size_outside_one_to_d_rejected(self, size):
        with pytest.raises(ValueError, match=rf"mask size {size} not in \[1, 4\]"):
            sparsity.q_probe_samples(sparse(np.eye(4)), size, 10, np.random.default_rng(0))

    def test_zero_matrix(self):
        samples = sparsity.q_probe_samples(sparse(np.zeros((5, 5))), 2, 100,
                                           np.random.default_rng(0), 1e-9)
        assert samples.mean() == 0.0

    def test_structured_d4_monte_carlo_hits_20_over_3(self):
        j = structured_d4_matrix()
        rng = np.random.default_rng(3)
        samples = sparsity.q_probe_samples(sparse(j), 2, 4000, rng)
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - 20.0 / 3.0) < 3 * se + 1e-12


def per_probe_q_samples(j, mask_size, num_probes, rng,
                        zero_threshold=sparsity.DEFAULT_ZERO_THRESHOLD):
    """The reference for q_probe_samples: one draw_probe block of num_probes
    columns, each probe's J z from a dense gather of its masked columns."""
    j = np.asarray(j, dtype=np.float64)
    d = j.shape[0]
    p = sparsity.draw_probe(sparsity.ProbeSpec(mask_size=mask_size), d, rng, num_probes)
    mask, probe = p.mask, p.probe
    vals = np.empty(num_probes)
    for i in range(num_probes):
        idx = np.flatnonzero(mask[:, i])
        col = j[:, idx] @ probe[idx, i]
        vals[i] = (d / mask_size) * np.count_nonzero(np.abs(col) > zero_threshold)
    return vals


def assert_same_samples_and_stream(j, mask_size, num_probes,
                                   zero_threshold=sparsity.DEFAULT_ZERO_THRESHOLD):
    ref_rng, rng = np.random.default_rng(29), np.random.default_rng(29)
    expected = per_probe_q_samples(j, mask_size, num_probes, ref_rng, zero_threshold)
    got = sparsity.q_probe_samples(sparse(j), mask_size, num_probes, rng, zero_threshold)
    assert got.tobytes() == expected.tobytes()
    assert rng.random() == ref_rng.random()


def small_sketch_matrix(kind, d=6):
    rng = np.random.default_rng(31)
    threshold = sparsity.DEFAULT_ZERO_THRESHOLD
    if kind == "eye":
        return np.eye(d)
    if kind == "zero":
        return np.zeros((d, d))
    if kind == "dense":
        return rng.standard_normal((d, d))
    # entries at and below the zero threshold, beside ordinary ones
    j = rng.choice([0.0, threshold, -threshold, threshold / 2, 1.0], size=(d, d))
    j[0] = threshold
    return j


def force_layout(monkeypatch, layout):
    """Make q_probe_samples sum every block over sorted keys or over D bins
    a probe: 0 < D^2 always holds, and inf times any product count, even 0
    (nan), is never below D^2."""
    monkeypatch.setattr(sparsity, "SORT_RATIO", {"sorted": 0, "binned": math.inf}[layout])


def column_loop_q_samples(j: sparsity.SparseJacobian, mask_size, num_probes, rng,
                          zero_threshold=sparsity.DEFAULT_ZERO_THRESHOLD):
    """The reference for q_probe_samples on a record too large to make dense:
    each probe's J z accumulated one masked column at a time, ascending."""
    d = j.dimension
    p = sparsity.draw_probe(sparsity.ProbeSpec(mask_size=mask_size), d, rng, num_probes)
    vals = np.empty(num_probes)
    for i in range(num_probes):
        jz = np.zeros(d)
        for c, z in zip(p.index[i].tolist(), p.entries[i]):
            lo, hi = j.col_ptr[c], j.col_ptr[c + 1]
            jz[j.rows[lo:hi]] += j.values[lo:hi] * z
        vals[i] = (d / mask_size) * np.count_nonzero(np.abs(jz) > zero_threshold)
    return vals


class TestBlockedProbeSketch:
    """q_probe_samples scores probes in blocks, summing each over sorted keys
    or over D bins a probe; it must give the dense gather's values bit for
    bit and leave the rng where one draw_probe call leaves it, whatever the
    block size and layout: neither can change the stream."""

    @pytest.mark.parametrize("kind", ["eye", "zero", "dense", "threshold"])
    @pytest.mark.parametrize("mask_size", [1, 2, 6])
    @pytest.mark.parametrize("num_probes", [0, 1, 3, 4, 10])
    def test_matches_per_probe_loop_across_block_edges(self, monkeypatch, kind,
                                                       mask_size, num_probes):
        # blocks of 4 probes at D = 6, fewer where a probe gathers more than D products
        monkeypatch.setattr(sparsity, "PROBE_BLOCK_ELEMENTS", 4 * 6)
        assert_same_samples_and_stream(small_sketch_matrix(kind), mask_size,
                                       num_probes)

    @pytest.mark.parametrize("kind", ["eye", "zero", "dense", "threshold"])
    @pytest.mark.parametrize("mask_size", [1, 6])
    @pytest.mark.parametrize("zero_threshold", [sparsity.DEFAULT_ZERO_THRESHOLD, 0.0])
    def test_matches_per_probe_loop_at_default_block(self, kind, mask_size,
                                                     zero_threshold):
        assert_same_samples_and_stream(small_sketch_matrix(kind), mask_size, 300,
                                       zero_threshold)

    @pytest.mark.parametrize("row_support", [1, 10])
    @pytest.mark.parametrize("mask_size", [1, 50, 1000])
    def test_matches_per_probe_loop_at_d1000(self, row_support, mask_size):
        d = 1000
        j = sparsity.random_sparse_jacobian(d, row_support, np.random.default_rng(37)).dense()
        block = sparsity.PROBE_BLOCK_ELEMENTS // d
        assert_same_samples_and_stream(j, mask_size, 2 * block + 7)

    # each case above again, under each layout forced
    @pytest.mark.parametrize("layout", ["sorted", "binned"])
    @pytest.mark.parametrize("kind", ["eye", "zero", "dense", "threshold"])
    @pytest.mark.parametrize("mask_size", [1, 2, 6])
    @pytest.mark.parametrize("num_probes", [0, 1, 3, 4, 10])
    def test_each_layout_across_block_edges(self, monkeypatch, layout, kind,
                                            mask_size, num_probes):
        force_layout(monkeypatch, layout)
        self.test_matches_per_probe_loop_across_block_edges(monkeypatch, kind,
                                                            mask_size, num_probes)

    @pytest.mark.parametrize("layout", ["sorted", "binned"])
    @pytest.mark.parametrize("kind", ["eye", "zero", "dense", "threshold"])
    @pytest.mark.parametrize("mask_size", [1, 6])
    @pytest.mark.parametrize("zero_threshold", [sparsity.DEFAULT_ZERO_THRESHOLD, 0.0])
    def test_each_layout_at_default_block(self, monkeypatch, layout, kind, mask_size,
                                          zero_threshold):
        force_layout(monkeypatch, layout)
        self.test_matches_per_probe_loop_at_default_block(kind, mask_size, zero_threshold)

    @pytest.mark.parametrize("layout", ["sorted", "binned"])
    @pytest.mark.parametrize("row_support", [1, 10])
    @pytest.mark.parametrize("mask_size", [1, 50, 1000])
    def test_each_layout_at_d1000(self, monkeypatch, layout, row_support, mask_size):
        force_layout(monkeypatch, layout)
        self.test_matches_per_probe_loop_at_d1000(row_support, mask_size)

    @pytest.mark.parametrize("layout", [None, "sorted", "binned"])
    @pytest.mark.parametrize("mask_size", [1, 50])
    def test_empty_columns_at_d10000(self, monkeypatch, layout, mask_size):
        # columns 0-4999 hold no nonzeros, so about half the S = 1 probes
        # gather no product; by default the sum is over sorted keys
        d = 10_000
        full = sparsity.random_sparse_jacobian(d, 10, np.random.default_rng(43))
        cut = full.col_ptr[d // 2]
        j = sparsity.SparseJacobian(
            dimension=d, rows=full.rows[cut:], values=full.values[cut:],
            col_ptr=np.concatenate((np.zeros(d // 2, dtype=np.int64),
                                    full.col_ptr[d // 2:] - cut)))
        assert np.count_nonzero(np.diff(j.col_ptr)) == d // 2
        if layout is None:
            assert sparsity.SORT_RATIO * mask_size * j.values.size < d * d
        else:
            force_layout(monkeypatch, layout)
        ref_rng, rng = np.random.default_rng(47), np.random.default_rng(47)
        expected = column_loop_q_samples(j, mask_size, 300, ref_rng)
        got = sparsity.q_probe_samples(j, mask_size, 300, rng)
        assert got.tobytes() == expected.tobytes()
        assert (got == 0).any() == (mask_size == 1)
        assert rng.random() == ref_rng.random()


def dense_random_sparse_jacobian(dimension, row_support, rng):
    """The dense construction random_sparse_jacobian's record must match: row
    i's support is row i of one (D, T) random_mask block, and the rows are
    filled in turn, columns ascending, from one Gaussian draw."""
    support = sparsity.random_mask(dimension, row_support, rng, dimension)
    j = np.zeros((dimension, dimension))
    j[np.arange(dimension)[:, None], support] = (
        rng.standard_normal(dimension * row_support).reshape(dimension, row_support))
    return j


class ZeroingRng:
    """A generator whose Gaussian draws have every third entry set to 0.0."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def standard_normal(self, *args):
        values = self.rng.standard_normal(*args)
        values[::3] = 0.0
        return values


def untrimmed_random_sparse_jacobian(dimension, row_support, rng):
    """The drawer as it stood before its transients were trimmed: the record
    from a (column, position) key sort and a filter on every draw."""
    cols = sparsity.random_mask(dimension, row_support, rng, dimension).ravel()
    values = rng.standard_normal(dimension * row_support)
    bits = max(0, cols.size - 1).bit_length()
    packed = cols << bits
    packed |= np.arange(cols.size)
    packed.sort()
    cols, order = packed >> bits, packed & ((1 << bits) - 1)
    kept = values[order] != 0
    order = order[kept]
    return sparsity.SparseJacobian(
        dimension=dimension, rows=(order // row_support).astype(np.int32),
        col_ptr=np.concatenate(([0], np.cumsum(np.bincount(cols[kept],
                                                           minlength=dimension)))),
        values=values[order])


def assert_same_record(got, expected):
    assert got.dimension == expected.dimension
    for field in ("rows", "col_ptr", "values"):
        assert getattr(got, field).dtype == getattr(expected, field).dtype
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()


class TestSparseJacobian:
    @pytest.mark.parametrize("d, t", [(1, 1), (7, 1), (7, 3), (7, 7), (1000, 10)])
    def test_random_record_is_the_dense_construction(self, d, t):
        ref_rng, rng = np.random.default_rng(59), np.random.default_rng(59)
        expected = dense_random_sparse_jacobian(d, t, ref_rng)
        got = sparsity.random_sparse_jacobian(d, t, rng)
        assert got.dense().tobytes() == expected.tobytes()
        assert_same_record(got, sparsity.SparseJacobian.from_dense(expected))
        assert rng.random() == ref_rng.random()

    def test_entries_drawn_as_zero_are_left_out(self):
        expected = dense_random_sparse_jacobian(7, 3, ZeroingRng(61))
        got = sparsity.random_sparse_jacobian(7, 3, ZeroingRng(61))
        assert got.values.size == np.count_nonzero(expected) == 14
        assert_same_record(got, sparsity.SparseJacobian.from_dense(expected))

    @pytest.mark.parametrize("d, t, make_rng", [
        (1, 1, np.random.default_rng), (7, 3, np.random.default_rng),
        (1000, 10, np.random.default_rng), (100_000, 10, np.random.default_rng),
        (7, 3, ZeroingRng), (1000, 10, ZeroingRng), (50, 50, ZeroingRng)])
    def test_random_record_is_the_untrimmed_drawers(self, d, t, make_rng):
        ref_rng, rng = make_rng(71), make_rng(71)
        assert_same_record(sparsity.random_sparse_jacobian(d, t, rng),
                           untrimmed_random_sparse_jacobian(d, t, ref_rng))
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)

    def test_draw_at_d1000000_peaks_at_most_two_and_a_half_records(self):
        # the untrimmed drawer peaked at 4.3 records: the Floyd block, its
        # sorted copy, the packed keys, the permutation and the filtered
        # copies, 8 bytes a nonzero each
        rng = np.random.default_rng(73)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            j = sparsity.random_sparse_jacobian(10 ** 6, 10, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j.values.size == 10 ** 7
        assert peak <= 2.5 * record_bytes(j)

    @pytest.mark.parametrize("kind", ["eye", "zero", "dense", "threshold"])
    def test_from_dense_round_trips(self, kind):
        j = small_sketch_matrix(kind)
        record = sparsity.SparseJacobian.from_dense(j)
        assert record.dense().tobytes() == j.tobytes()
        assert record.rows.dtype == np.int32 and record.col_ptr.shape == (7,)
        # column order, rows ascending within a column
        cols = np.repeat(np.arange(6), np.diff(record.col_ptr))
        assert (np.lexsort((record.rows, cols)) == np.arange(record.rows.size)).all()

    def test_row_support_sizes_count_entries_above_the_threshold(self):
        j = small_sketch_matrix("threshold")
        record = sparsity.SparseJacobian.from_dense(j)
        for threshold in (sparsity.DEFAULT_ZERO_THRESHOLD, 0.0):
            np.testing.assert_array_equal(record.row_support_sizes(threshold),
                                          (np.abs(j) > threshold).sum(axis=1))


def record_bytes(j: sparsity.SparseJacobian) -> int:
    return j.rows.nbytes + j.col_ptr.nbytes + j.values.nbytes


def study_peak_bytes(dimension, num_matrices, mc_samples):
    """tracemalloc's peak over a study at T = 10, S in {1, 50}."""
    rng = np.random.default_rng(0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        sparsity.probe_bias_variance_study(
            sparsity.ProbeStudy(dimension, 10, (1, 50), num_matrices, mc_samples), rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_at_d1000_holds_no_dense_matrix():
    # one dense 1000 x 1000 float matrix is 7.6 MiB and the study draws 8; the
    # 8 records hold 80,000 nonzeros, and no draw builds an O(D) array a probe
    # or an O(D^2) one a matrix
    assert study_peak_bytes(1000, 8, 2) < 4 * 2 ** 20


def test_study_at_d10000_holds_no_dense_matrix():
    # one dense 10^4 x 10^4 float matrix is 763 MiB; the record's 10^5
    # nonzeros and the bincount over one probe's D rows are what remain
    assert study_peak_bytes(10_000, 1, 50) < 8 * 2 ** 20


def test_study_holds_one_record_at_a_time():
    # 4 records at D = 10^5 are 49 MiB, and a study that holds them all
    # peaks above that; one draw peaks near two records, with the record it
    # returns, and a record kept while the next is drawn would add a third
    j = sparsity.random_sparse_jacobian(100_000, 10, np.random.default_rng(0))
    assert study_peak_bytes(100_000, 4, 2) < 2.5 * record_bytes(j)


class TestQExactEnumeration:
    def test_identity_d4(self):
        assert q_exact_enumeration(np.eye(4), 2) == pytest.approx(4.0)

    def test_structured_d4_equals_20_over_3(self):
        j = structured_d4_matrix()
        q = q_exact_enumeration(j, 2)
        assert q == pytest.approx(20.0 / 3.0, abs=1e-12)

    def test_full_3x3_single_mask(self):
        j = np.ones((3, 3))
        assert q_exact_enumeration(j, 1) == pytest.approx(9.0)

    @pytest.mark.parametrize("d, density", [(8, 0.4), (200, 0.05), (1000, 0.01)])
    def test_closed_form_keeps_the_per_row_loops_bits(self, d, density):
        # row supports of many sizes, some rows empty and some full
        rng = np.random.default_rng(71)
        j = np.where(rng.random((d, d)) < density, rng.standard_normal((d, d)), 0.0)
        j[0], j[-1] = 0.0, 1.0
        record = sparse(j)
        for s in sorted({1, 2, d // 2, d - 1, d}):
            acc = 0.0
            for t in record.row_support_sizes():
                miss = math.comb(d - int(t), s) if d - int(t) >= s else 0
                acc += 1.0 - miss / math.comb(d, s)
            assert sparsity.q_hypergeometric(record, s) == (d / s) * acc

    def test_matches_hypergeometric_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            j = sparsity.random_sparse_jacobian(d, int(rng.integers(1, d + 1)), rng)
            for s in range(1, d + 1):
                enum = q_exact_enumeration(j.dense(), s)
                closed = sparsity.q_hypergeometric(j, s)
                assert enum == pytest.approx(closed, abs=1e-9)


class TestSandwichBound:
    def test_identity_bounds_collapse(self):
        verdict = check_sandwich_bound(np.eye(6), 3, 6.0)
        assert verdict.holds
        assert verdict.lower == verdict.upper == 6.0
        assert verdict.T == 1

    def test_structured_d4_equality_at_lower(self):
        j = structured_d4_matrix()
        q = q_exact_enumeration(j, 2)
        verdict = check_sandwich_bound(j, 2, q)
        assert verdict.holds
        assert verdict.upper == 8.0
        assert verdict.lower == pytest.approx(20.0 / 3.0, abs=1e-12)
        assert q == pytest.approx(verdict.lower, abs=1e-12)

    def test_large_dimension_closed_form_inside_bounds(self):
        rng = np.random.default_rng(23)
        j = sparsity.random_sparse_jacobian(1000, 10, rng)
        q = sparsity.q_hypergeometric(j, 5)
        verdict = check_sandwich_bound(j.dense(), 5, q)
        assert verdict.holds
        assert verdict.lower <= q <= verdict.upper

    def test_exhaustive_small_dimensions(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            t = int(rng.integers(1, d + 1))
            j = sparsity.random_sparse_jacobian(d, t, rng).dense()
            for s in range(1, d + 1):
                q = q_exact_enumeration(j, s)
                assert check_sandwich_bound(j, s, q).holds

    def test_mc_slack_widens_interval(self):
        j = np.eye(4)
        tight = check_sandwich_bound(j, 2, 4.2)
        loose = check_sandwich_bound(j, 2, 4.2, mc_slack=0.5)
        assert not tight.holds and loose.holds


def brute_force_structurally_sparse(support: np.ndarray) -> bool:
    """Oracle: search all nonempty row subsets for every column."""
    rows = [set(np.flatnonzero(row).tolist()) for row in support]
    d = len(rows)
    for k in range(d):
        found = False
        for size in range(1, d + 1):
            for combo in itertools.combinations(range(d), size):
                if all(k in rows[i] for i in combo):
                    inter = set.intersection(*(rows[i] for i in combo))
                    if inter == {k}:
                        found = True
                        break
            if found:
                break
        if not found:
            return False
    return True


def support_of(d, pairs) -> np.ndarray:
    support = np.zeros((d, d), dtype=bool)
    for r, c in pairs:
        support[r, c] = True
    return support


# ROADMAP's D = 8 shift families: row k's support {k, k+1 mod D} (cyclic)
# and {k-1, k} (chain, row 0 holding {0} alone)
CYCLIC_8 = [(k, c) for k in range(8) for c in (k, (k + 1) % 8)]
CHAIN_8 = [(k, c) for k in range(8) for c in (k - 1, k) if c >= 0]


class TestStructuralSparsity:
    def test_identity_support_satisfied(self):
        result = sparsity.check_structural_sparsity(np.eye(5, dtype=bool))
        assert result.satisfied
        assert result.witnesses == {k: {k} for k in range(5)}

    def test_full_support_d2_unsatisfied(self):
        result = sparsity.check_structural_sparsity(np.ones((2, 2), dtype=bool))
        assert not result.satisfied
        assert set(result.failures) == {0, 1}
        assert result.failures[0] == "best intersection over rows [0, 1] is [0, 1], not [0]"

    def test_cyclic_band_d3_satisfied(self):
        # row supports {0,1}, {1,2}, {2,0}
        support = support_of(3, {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)})
        result = sparsity.check_structural_sparsity(support)
        assert result.satisfied
        assert brute_force_structurally_sparse(support)

    def test_untouched_column_diagnosed(self):
        result = sparsity.check_structural_sparsity(support_of(3, {(0, 0), (1, 1)}))
        assert not result.satisfied
        assert "no row support" in result.failures[2]

    def test_agrees_with_brute_force_on_random_patterns(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            density = rng.uniform(0.1, 0.9)
            support = rng.random((d, d)) < density
            got = sparsity.check_structural_sparsity(support).satisfied
            assert got == brute_force_structurally_sparse(support)

    def test_cyclic_shift_d8_satisfied(self):
        support = support_of(8, CYCLIC_8)
        result = sparsity.check_structural_sparsity(support)
        assert result.satisfied and brute_force_structurally_sparse(support)
        # column k is pinned by rows k-1 and k: {k-1, k} and {k, k+1} meet in {k}
        assert result.witnesses == {k: {(k - 1) % 8, k} for k in range(8)}

    def test_chain_shift_d8_fails_at_its_last_column_alone(self):
        support = support_of(8, CHAIN_8)
        result = sparsity.check_structural_sparsity(support)
        assert not result.satisfied and not brute_force_structurally_sparse(support)
        assert result.failures == {7: "best intersection over rows [7] is [6, 7], not [7]"}
        assert result.witnesses == {k: {k, k + 1} for k in range(7)}


def study_samples(dimension, row_support, mask_sizes, num_matrices, mc_samples, seed):
    """The study's own draws, by hand: matrix i and then its probes at each
    mask size in turn, from child stream i of a same-seed rng.  Returns each
    matrix's nonzero count and {S: that matrix's q_probe_samples}."""
    out = []
    for rng in np.random.default_rng(seed).spawn(num_matrices):
        j = sparsity.random_sparse_jacobian(dimension, row_support, rng)
        out.append((j.row_support_sizes().sum(),
                    {s: sparsity.q_probe_samples(j, s, mc_samples, rng) for s in mask_sizes}))
    return out


def study_standard_errors(dimension, row_support, mask_sizes, num_matrices,
                          mc_samples, seed):
    """Per mask size, the standard error of the study's mean relative bias,
    from the study's own probes."""
    mats = study_samples(dimension, row_support, mask_sizes, num_matrices, mc_samples, seed)
    l0 = dimension * row_support
    return {s: np.mean([samples[s].std(ddof=1) for _, samples in mats])
            / np.sqrt(mc_samples) / l0
            for s in mask_sizes}


class TestBiasVarianceStudy:
    def test_single_mask_size_unbiased(self):
        rng = np.random.default_rng(41)
        result = sparsity.probe_bias_variance_study(
            sparsity.ProbeStudy(30, 3, (1,), 5, 400), rng)
        row = result.rows[0]
        se = study_standard_errors(30, 3, [1], 5, 400, 41)[1]
        assert abs(row.mean_rel_bias) < 3 * se
        assert row.lower_bound_factor == 1.0

    def test_row_support_one_unbiased_for_all_mask_sizes(self):
        rng = np.random.default_rng(43)
        result = sparsity.probe_bias_variance_study(
            sparsity.ProbeStudy(20, 1, (1, 2, 5, 10), 5, 400), rng)
        errors = study_standard_errors(20, 1, [1, 2, 5, 10], 5, 400, 43)
        for row in result.rows:
            assert row.lower_bound_factor == 1.0
            assert abs(row.mean_rel_bias) < 3 * errors[row.mask_size] + 1e-12

    @pytest.mark.parametrize("num_matrices", [1, 3])
    def test_each_matrix_draws_from_its_own_child_stream(self, num_matrices):
        mask_sizes = (1, 3, 12)
        result = sparsity.probe_bias_variance_study(
            sparsity.ProbeStudy(40, 3, mask_sizes, num_matrices, 30),
            np.random.default_rng(67))
        mats = study_samples(40, 3, mask_sizes, num_matrices, 30, 67)
        for row, s in zip(result.rows, mask_sizes):
            q_hats = np.array([samples[s].mean() for _, samples in mats])
            l0s = np.array([l0 for l0, _ in mats], dtype=np.float64)
            assert row.mean_rel_bias == float(((q_hats - l0s) / l0s).mean())
            assert row.variance == float(np.mean([samples[s].var(ddof=1)
                                                  for _, samples in mats]))

    def test_csv_schema(self):
        rng = np.random.default_rng(47)
        result = sparsity.probe_bias_variance_study(
            sparsity.ProbeStudy(10, 2, (1, 2), 2, 50), rng)
        lines = result.csv_lines()
        assert lines[0] == "S,mean_rel_bias,variance,lower_bound_factor"
        assert len(lines) == 3

    def test_random_sparse_jacobian_rows_have_exactly_t_nonzeros(self):
        j = sparsity.random_sparse_jacobian(40, 7, np.random.default_rng(5)).dense()
        assert (np.count_nonzero(j, axis=1) == 7).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="^dimension = 0 must be positive$"):
            sparsity.ProbeStudy(0, 1, (1,), 1, 2)
        with pytest.raises(ValueError, match="^num_matrices = 0 must be positive$"):
            sparsity.ProbeStudy(4, 1, (1,), 0, 2)
        # one draw a probe has no variance
        with pytest.raises(ValueError, match="^mc_samples = 1 must be at least 2$"):
            sparsity.ProbeStudy(4, 1, (1,), 1, 1)

    @pytest.mark.parametrize("row_support, mask_sizes, message", [
        (30, (1,), r"row_support = 30 not in \[1, dimension = 20\]"),
        (0, (1,), "row_support = 0 must be positive"),
        (3, (), "mask_sizes is empty"),
        (3, (1, 30), r"mask_sizes entry 30 not in \[1, dimension = 20\]"),
        (3, (0,), "mask_sizes entry 0 must be positive"),
    ])
    def test_rejects_before_any_draw(self, row_support, mask_sizes, message):
        # the study's parameters are checked when it is made, before any draw
        with pytest.raises(ValueError, match=message):
            sparsity.ProbeStudy(20, row_support, mask_sizes, 2, 2)


def test_random_mask_covers_all_subsets():
    # every C(4,2)=6 mask shows up with roughly uniform frequency
    index = sparsity.random_mask(4, 2, np.random.default_rng(53), 12000)
    _, counts = np.unique(index, axis=0, return_counts=True)
    assert len(counts) == math.comb(4, 2)
    expected = 12000 / 6
    chi2 = (((counts - expected) ** 2) / expected).sum()
    assert chi2 < scipy_stats.chi2.ppf(0.999, 5)


def floyd_rows(dimension, size, rng, count):
    """The sampler's contract, one row at a time: round j = D-S, ..., D-1
    draws rng.integers(0, j + 1, size=count), and each row takes its draw,
    or j if it holds that draw already."""
    draws = [rng.integers(0, j + 1, size=count) for j in range(dimension - size, dimension)]
    rows = []
    for c in range(count):
        chosen = set()
        for j, t in zip(range(dimension - size, dimension), draws):
            chosen.add(j if int(t[c]) in chosen else int(t[c]))
        rows.append(sorted(chosen))
    return np.array(rows, dtype=np.int64).reshape(count, size)


def assert_ascending_subsets(index, dimension, size, count):
    assert index.shape == (count, size) and index.dtype == np.int64
    assert (np.diff(index, axis=1) > 0).all()
    if count:
        assert index.min() >= 0 and index.max() < dimension


class TestFloydSampler:
    @pytest.mark.parametrize("d, s", [(1, 1), (6, 1), (6, 3), (6, 5), (6, 6), (50, 7)])
    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_rows_replay_the_scalar_algorithm(self, d, s, count):
        ref_rng, rng = np.random.default_rng(67), np.random.default_rng(67)
        expected = floyd_rows(d, s, ref_rng, count)
        got = sparsity.random_mask(d, s, rng, count)
        assert_ascending_subsets(got, d, s, count)
        assert got.tobytes() == expected.tobytes()
        assert rng.random() == ref_rng.random()

    def test_all_twenty_subsets_uniform_chi2(self):
        draws = 40000
        index = sparsity.random_mask(6, 3, np.random.default_rng(73), draws)
        assert_ascending_subsets(index, 6, 3, draws)
        subsets, counts = np.unique(index, axis=0, return_counts=True)
        assert [tuple(r) for r in subsets.tolist()] == list(itertools.combinations(range(6), 3))
        expected = draws / math.comb(6, 3)
        chi2 = (((counts - expected) ** 2) / expected).sum()
        assert chi2 < scipy_stats.chi2.ppf(0.999, math.comb(6, 3) - 1)

    @pytest.mark.parametrize("d", [2, 9, 1000])
    def test_edge_sizes(self, d):
        rng = np.random.default_rng(79)
        one = sparsity.random_mask(d, 1, rng, 300)
        assert_ascending_subsets(one, d, 1, 300)
        assert_ascending_subsets(sparsity.random_mask(d, d - 1, rng, 30), d, d - 1, 30)
        full = sparsity.random_mask(d, d, rng, 5)
        assert (full == np.arange(d)).all()
        empty = sparsity.random_mask(d, 1, rng, 0)
        assert_ascending_subsets(empty, d, 1, 0)

    def test_size_one_is_one_integer_draw(self):
        got = sparsity.random_mask(9, 1, np.random.default_rng(83), 1000)
        expected = np.random.default_rng(83).integers(0, 9, size=1000)
        assert got.ravel().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [0, 5])
    def test_size_outside_one_to_d_rejected(self, size):
        with pytest.raises(ValueError, match=rf"mask size {size} not in \[1, 4\]"):
            sparsity.random_mask(4, size, np.random.default_rng(0), 3)

"""Jacobian probes, the nonzero-count sketch and its bounds, support checks."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as scipy_stats

from anchordt import autodiff as ad
from anchordt import nets, sparsity
from rebuild_gradcheck import rebuild_gradcheck
from reference_pass import jacobian_sweep, preactivations


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
    def test_linear_map_recovered_exactly(self):
        a = np.array([[1.0, -2.0], [0.5, 3.0]])
        jac = sparsity.exact_jacobian(linear_model(a), np.array([0.3, -0.7]))
        np.testing.assert_allclose(jac, a, atol=1e-12)

    def test_componentwise_square_map(self):
        # g(x) = (x1^2, x2) has Jacobian [[2 x1, 0], [0, 1]]
        fn = lambda pts: np.vstack([pts[0] ** 2, pts[1]])
        jac = sparsity.exact_jacobian(fn, np.array([1.0, 1.0]), step=1e-4)
        np.testing.assert_allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=1e-6)

    def test_identity_model(self):
        jac = sparsity.exact_jacobian(linear_model(np.eye(3)), np.zeros(3))
        np.testing.assert_allclose(jac, np.eye(3), atol=1e-12)

    def test_non_square_rejected(self):
        model = nets.init_mlp((2, 4, 3), seed=0)
        with pytest.raises(ValueError, match="square"):
            sparsity.exact_jacobian(model, np.zeros(2))


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
        jac = sparsity.exact_jacobian(model, x, step=1e-5)
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
        hidden = ad.dense(ad.parameter(np.eye(2)), x, ad.parameter(np.zeros((2, 1))),
                          "leaky-relu")
        with pytest.raises(ad.GraphError, match=r"Node\(dense"):
            sparsity.batched_jvp_graph(hidden, np.ones((2, 3)))


class TestProbes:
    def test_full_mask_is_all_ones(self):
        spec = sparsity.ProbeSpec(mask_size=6)
        probe = sparsity.draw_probe(spec, 6, np.random.default_rng(0))
        assert probe.mask.all()
        # a same-seed rng replays the mask keys, then the Gaussian entries
        rng = np.random.default_rng(0)
        rng.random((6, 1))
        np.testing.assert_array_equal(probe.probe, rng.standard_normal((6, 1)))

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
        mask = sparsity.random_mask(6, size, np.random.default_rng(3), 500)
        assert mask.shape == (6, 500)
        assert (mask.sum(axis=0) == size).all()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            sparsity.ProbeSpec(mask_size=0)
        with pytest.raises(ValueError):
            sparsity.ProbeSpec(mask_size=2, perturbation_scale=0.0)


class TestQEstimate:
    def test_identity_gives_exactly_d_per_probe(self):
        d = 7
        rng = np.random.default_rng(11)
        samples = sparsity.q_probe_samples(np.eye(d), 3, 200, rng)
        np.testing.assert_array_equal(samples, np.full(200, float(d)))

    @pytest.mark.parametrize("size", [0, 5])
    def test_mask_size_outside_one_to_d_rejected(self, size):
        with pytest.raises(ValueError, match=rf"mask size {size} not in \[1, 4\]"):
            sparsity.q_probe_samples(np.eye(4), size, 10, np.random.default_rng(0))

    def test_zero_matrix(self):
        samples = sparsity.q_probe_samples(np.zeros((5, 5)), 2, 100,
                                           np.random.default_rng(0), 1e-9)
        assert samples.mean() == 0.0

    def test_structured_d4_monte_carlo_hits_20_over_3(self):
        j = structured_d4_matrix()
        rng = np.random.default_rng(3)
        samples = sparsity.q_probe_samples(j, 2, 4000, rng)
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - 20.0 / 3.0) < 3 * se + 1e-12


def per_probe_q_samples(j, mask_size, num_probes, rng,
                        zero_threshold=sparsity.DEFAULT_ZERO_THRESHOLD):
    """The reference for q_probe_samples: one count-1 draw_probe call a probe,
    J z from a gather of the masked columns."""
    j = np.asarray(j, dtype=np.float64)
    d = j.shape[0]
    spec = sparsity.ProbeSpec(mask_size=mask_size)
    vals = np.empty(num_probes)
    for i in range(num_probes):
        p = sparsity.draw_probe(spec, d, rng)
        idx = np.flatnonzero(p.mask)
        col = j[:, idx] @ p.probe[idx, 0]
        vals[i] = (d / mask_size) * np.count_nonzero(np.abs(col) > zero_threshold)
    return vals


def assert_same_samples_and_stream(j, mask_size, num_probes,
                                   zero_threshold=sparsity.DEFAULT_ZERO_THRESHOLD):
    ref_rng, rng = np.random.default_rng(29), np.random.default_rng(29)
    expected = per_probe_q_samples(j, mask_size, num_probes, ref_rng, zero_threshold)
    got = sparsity.q_probe_samples(j, mask_size, num_probes, rng, zero_threshold)
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


class TestBlockedProbeSketch:
    """q_probe_samples scores probes in blocks; it must give the per-probe
    loop's values bit for bit and leave the rng where that loop leaves it."""

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
        j = sparsity.random_sparse_jacobian(d, row_support, np.random.default_rng(37))
        block = sparsity.PROBE_BLOCK_ELEMENTS // d
        assert_same_samples_and_stream(j, mask_size, 2 * block + 7)


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

    def test_matches_hypergeometric_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            j = sparsity.random_sparse_jacobian(d, int(rng.integers(1, d + 1)), rng)
            for s in range(1, d + 1):
                enum = q_exact_enumeration(j, s)
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
        verdict = check_sandwich_bound(j, 5, q)
        assert verdict.holds
        assert verdict.lower <= q <= verdict.upper

    def test_exhaustive_small_dimensions(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            t = int(rng.integers(1, d + 1))
            j = sparsity.random_sparse_jacobian(d, t, rng)
            for s in range(1, d + 1):
                q = q_exact_enumeration(j, s)
                assert check_sandwich_bound(j, s, q).holds

    def test_mc_slack_widens_interval(self):
        j = np.eye(4)
        tight = check_sandwich_bound(j, 2, 4.2)
        loose = check_sandwich_bound(j, 2, 4.2, mc_slack=0.5)
        assert not tight.holds and loose.holds


def brute_force_structurally_sparse(pattern: sparsity.SupportPattern) -> bool:
    """Oracle: search all nonempty row subsets for every column."""
    rows = pattern.row_supports()
    d = pattern.dimension
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


class TestStructuralSparsity:
    def test_identity_support_satisfied(self):
        pattern = sparsity.SupportPattern.from_matrix(np.eye(5))
        result = sparsity.check_structural_sparsity(pattern)
        assert result.satisfied
        assert result.witnesses == {k: {k} for k in range(5)}

    def test_full_support_d2_unsatisfied(self):
        pattern = sparsity.SupportPattern.from_matrix(np.ones((2, 2)))
        result = sparsity.check_structural_sparsity(pattern)
        assert not result.satisfied
        assert set(result.failures) == {0, 1}

    def test_cyclic_band_d3_satisfied(self):
        # row supports {0,1}, {1,2}, {2,0}
        pairs = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)}
        pattern = sparsity.SupportPattern(dimension=3, index_pairs=frozenset(pairs))
        result = sparsity.check_structural_sparsity(pattern)
        assert result.satisfied
        assert brute_force_structurally_sparse(pattern)

    def test_untouched_column_diagnosed(self):
        pattern = sparsity.SupportPattern(dimension=3,
                                          index_pairs=frozenset({(0, 0), (1, 1)}))
        result = sparsity.check_structural_sparsity(pattern)
        assert not result.satisfied
        assert "no row support" in result.failures[2]

    def test_agrees_with_brute_force_on_random_patterns(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            density = rng.uniform(0.1, 0.9)
            mat = (rng.random((d, d)) < density).astype(float)
            pattern = sparsity.SupportPattern.from_matrix(mat)
            got = sparsity.check_structural_sparsity(pattern).satisfied
            assert got == brute_force_structurally_sparse(pattern)

    def test_out_of_range_pairs_rejected(self):
        with pytest.raises(ValueError):
            sparsity.SupportPattern(dimension=2, index_pairs=frozenset({(0, 2)}))


def study_standard_errors(dimension, row_support, mask_sizes, num_matrices,
                          mc_samples, seed):
    """Per mask size, the standard error of the study's mean relative bias,
    from the study's own probes: a same-seed rng draws its matrices, then
    scores them with q_probe_samples in the study's order."""
    rng = np.random.default_rng(seed)
    mats = [sparsity.random_sparse_jacobian(dimension, row_support, rng)
            for _ in range(num_matrices)]
    l0 = dimension * row_support
    return {s: np.mean([sparsity.q_probe_samples(m, s, mc_samples, rng).std(ddof=1)
                        for m in mats]) / np.sqrt(mc_samples) / l0
            for s in mask_sizes}


class TestBiasVarianceStudy:
    def test_single_mask_size_unbiased(self):
        rng = np.random.default_rng(41)
        result = sparsity.probe_bias_variance_study(30, 3, [1], 5, 400, rng)
        row = result.rows[0]
        se = study_standard_errors(30, 3, [1], 5, 400, 41)[1]
        assert abs(row.mean_rel_bias) < 3 * se
        assert row.lower_bound_factor == 1.0

    def test_row_support_one_unbiased_for_all_mask_sizes(self):
        rng = np.random.default_rng(43)
        result = sparsity.probe_bias_variance_study(20, 1, [1, 2, 5, 10], 5, 400, rng)
        errors = study_standard_errors(20, 1, [1, 2, 5, 10], 5, 400, 43)
        for row in result.rows:
            assert row.lower_bound_factor == 1.0
            assert abs(row.mean_rel_bias) < 3 * errors[row.mask_size] + 1e-12

    def test_csv_schema(self):
        rng = np.random.default_rng(47)
        result = sparsity.probe_bias_variance_study(10, 2, [1, 2], 2, 50, rng)
        lines = result.csv_lines()
        assert lines[0] == "S,mean_rel_bias,variance,lower_bound_factor"
        assert len(lines) == 3

    def test_random_sparse_jacobian_rows_have_exactly_t_nonzeros(self):
        j = sparsity.random_sparse_jacobian(40, 7, np.random.default_rng(5))
        assert (np.count_nonzero(j, axis=1) == 7).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sparsity.probe_bias_variance_study(0, 1, [1], 1, 2,
                                               np.random.default_rng(0))
        # one draw a probe has no variance
        with pytest.raises(ValueError, match="mc_samples = 1"):
            sparsity.probe_bias_variance_study(4, 1, [1], 1, 1,
                                               np.random.default_rng(0))

    @pytest.mark.parametrize("row_support, mask_sizes, message", [
        (30, [1], r"row_support = 30 not in \[1, dimension = 20\]"),
        (0, [1], r"row_support = 0 not in \[1, dimension = 20\]"),
        (3, [], "mask_sizes is empty"),
        (3, [1, 30], r"mask_sizes entry 30 not in \[1, dimension = 20\]"),
        (3, [0], r"mask_sizes entry 0 not in \[1, dimension = 20\]"),
    ])
    def test_rejects_before_any_draw(self, row_support, mask_sizes, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sparsity.probe_bias_variance_study(20, row_support, mask_sizes, 2, 2, rng)
        assert rng.bit_generator.state == state


def test_random_mask_covers_all_subsets():
    # every C(4,2)=6 mask shows up with roughly uniform frequency
    mask = sparsity.random_mask(4, 2, np.random.default_rng(53), 12000)
    _, counts = np.unique(mask.T, axis=0, return_counts=True)
    assert len(counts) == math.comb(4, 2)
    expected = 12000 / 6
    chi2 = (((counts - expected) ** 2) / expected).sum()
    assert chi2 < scipy_stats.chi2.ppf(0.999, 5)

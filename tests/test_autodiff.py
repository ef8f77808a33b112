"""Graph construction, backward rules, and backward against central
differences of the rebuilt graph."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordt import autodiff as ad
from rebuild_gradcheck import rebuild_gradcheck


def scalar(v, kind="input"):
    make = ad.parameter if kind == "parameter" else ad.input_node
    return make(np.array([[float(v)]]))


class TestForward:
    def test_square_of_three(self):
        assert ad.square(scalar(3.0)).value[0, 0] == 9.0

    def test_leaky_relu_negative_side(self):
        node = ad.leaky_relu(scalar(-1.0))
        assert node.value[0, 0] == -ad.HIDDEN_SLOPE == -0.2

    def test_matmul_identity_times_vector(self):
        eye = ad.input_node(np.eye(2))
        vec = ad.input_node(np.array([[1.0], [2.0]]))
        out = ad.matmul(eye, vec)
        np.testing.assert_array_equal(out.value, [[1.0], [2.0]])

    def test_shape_mismatch_names_op_and_shapes(self):
        a = ad.input_node(np.ones((2, 3)))
        b = ad.input_node(np.ones((2, 3)))
        with pytest.raises(ad.GraphError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_add_column_broadcast(self):
        m = ad.input_node(np.arange(6.0).reshape(2, 3))
        col = ad.input_node(np.array([[10.0], [20.0]]))
        out = ad.add(m, col)
        np.testing.assert_array_equal(out.value,
                                      np.arange(6.0).reshape(2, 3) + [[10.0], [20.0]])

    def test_add_rejects_row_broadcast(self):
        m = ad.input_node(np.ones((2, 3)))
        row = ad.input_node(np.ones((1, 3)))
        with pytest.raises(ad.GraphError, match="add"):
            ad.add(m, row)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        a = ad.input_node(rng.standard_normal((4, 4)))
        b = ad.input_node(rng.standard_normal((4, 4)))
        out1 = ad.tanh(ad.matmul(a, b)).value.copy()
        out2 = ad.tanh(ad.matmul(a, b)).value
        np.testing.assert_array_equal(out1, out2)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ad.GraphError, match="non-finite"):
            ad.input_node(np.array([[np.inf]]))


class TestBackward:
    def test_square_derivative(self):
        x = scalar(3.0, "parameter")
        grads = ad.backward(ad.square(x))
        assert grads[x][0, 0] == 6.0

    def test_tanh_derivative_at_zero(self):
        x = scalar(0.0, "parameter")
        grads = ad.backward(ad.tanh(x))
        assert grads[x][0, 0] == 1.0

    def test_root_must_be_scalar(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ad.GraphError, match="scalar"):
            ad.backward(ad.square(x))

    def test_fanout_accumulation_is_additive(self):
        # y = x^2 + 3x consumes x twice: dy/dx = 2x + 3
        x = scalar(4.0, "parameter")
        y = ad.add(ad.square(x), ad.scale(x, 3.0))
        grads = ad.backward(y)
        assert grads[x][0, 0] == 11.0

    def test_bias_gradient_sums_over_columns(self):
        m = ad.input_node(np.ones((2, 5)))
        b = ad.parameter(np.zeros((2, 1)))
        grads = ad.backward(ad.node_sum(ad.add(m, b)))
        np.testing.assert_array_equal(grads[b], [[5.0], [5.0]])

    def test_matmul_gradients(self):
        a = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = ad.parameter(np.array([[5.0], [6.0]]))
        grads = ad.backward(ad.node_sum(ad.matmul(a, b)))
        np.testing.assert_array_equal(grads[a], [[5.0, 6.0], [5.0, 6.0]])
        np.testing.assert_array_equal(grads[b], [[4.0], [6.0]])

    def test_clip_gates_gradient_outside_bounds(self):
        x = ad.parameter(np.array([[0.5, 2.0, -1.0]]))
        grads = ad.backward(ad.node_sum(ad.clip(x, 0.0, 1.0)))
        np.testing.assert_array_equal(grads[x], [[1.0, 0.0, 0.0]])

    def test_abs_sum_subgradient_is_sign(self):
        x = ad.parameter(np.array([[-2.0, 0.0, 3.0]]))
        grads = ad.backward(ad.abs_sum(x))
        np.testing.assert_array_equal(grads[x], [[-1.0, 0.0, 1.0]])

    def test_leaky_relu_tie_at_zero_uses_slope_one(self):
        x = ad.parameter(np.array([[0.0, -1.0, 1.0]]))
        grads = ad.backward(ad.node_sum(ad.leaky_relu(x)))
        np.testing.assert_array_equal(grads[x], [[1.0, ad.HIDDEN_SLOPE, 1.0]])

    # the arithmetic forms are exact for any slope in [0, 1], not only for
    # the one the networks use
    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 0.3, 0.5, 1.0])
    def test_leaky_relu_vjp_equals_where_form_bit_for_bit(self, slope, monkeypatch):
        monkeypatch.setattr(ad, "HIDDEN_SLOPE", slope)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((16, 64))
        a[:, ::7] = 0.0
        g = rng.standard_normal((16, 64))
        vjp = ad.ACTIVATIONS["leaky-relu"][1]
        reference = np.where(a >= 0, g, g * slope)
        assert vjp(g, a, None).tobytes() == reference.tobytes()
        assert vjp(1.0, a, None).tobytes() == np.where(a >= 0, 1.0, slope).tobytes()

    def test_mean_gradient(self):
        x = ad.parameter(np.ones((2, 3)))
        grads = ad.backward(ad.mean(ad.square(x)))
        np.testing.assert_allclose(grads[x], np.full((2, 3), 2.0 / 6.0))

    def test_constant_only_graph_gives_zero_param_grads(self):
        # a parameter multiplied by zero still gets an (exactly zero) grad
        x = scalar(2.0, "parameter")
        y = ad.add(ad.scale(x, 0.0), scalar(1.0))
        grads = ad.backward(y)
        assert grads[x][0, 0] == 0.0

    def test_interior_adjoints_are_released_and_the_rest_kept(self):
        # a shared parameter, an add pass-through, dense layers and a
        # constant branch, under a scalar root
        rng = np.random.default_rng(2)
        w0, b0 = (ad.parameter(rng.standard_normal(s)) for s in ((4, 3), (4, 1)))
        w1, b1 = ad.parameter(rng.standard_normal((1, 4))), ad.parameter(np.zeros((1, 1)))
        x = ad.input_node(rng.standard_normal((3, 5)))
        h = ad.dense(w0, x, b0, True)
        out = ad.dense(w1, ad.add(h, ad.dense(w0, x, b0, False)), b1, False)
        root = ad.mean(ad.add(ad.square(out), ad.scale(ad.input_node(np.ones((1, 5))), 2.0)))
        order = ad.topo_order(root)
        values = [node.value.copy() for node in order]
        grads = ad.backward(root)
        assert set(grads) == {w0, w1, b0, b1}
        assert all(node.grad is grads[node] for node in grads)
        assert root.grad.tolist() == [[1.0]]
        interior = [node for node in order if node.parents and node is not root]
        assert len(interior) == 7
        assert all(node.grad is None for node in interior)
        assert all(node.grad is None for node in order if node.kind == "input")
        assert all(bits(node.value) == bits(v) for node, v in zip(order, values))
        # the released graph runs backward again to the same gradients
        first = {node: g.copy() for node, g in grads.items()}
        again = ad.backward(root)
        assert all(bits(again[node]) == bits(first[node]) for node in first)

    @pytest.mark.parametrize("shared", [0, 1])
    def test_add_of_equal_shapes_gives_each_parent_its_own_adjoint(self, shared):
        # one parent also feeds another term, so its adjoint is accumulated
        # into after the add's pass-through reaches it
        rng = np.random.default_rng(6)
        pair = [ad.parameter(rng.standard_normal((2, 3))) for _ in range(2)]
        u, v = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        root = ad.add(
            ad.node_sum(ad.elementwise_mul(ad.add(*pair), ad.input_node(u))),
            ad.node_sum(ad.elementwise_mul(pair[shared], ad.input_node(v))))
        grads = ad.backward(root)
        assert bits(grads[pair[shared]]) == bits(u + v)
        assert bits(grads[pair[1 - shared]]) == bits(u)

    def test_add_of_a_node_to_itself_doubles_its_adjoint(self):
        a = ad.parameter(np.array([[1.0, -2.0]]))
        u = np.array([[0.5, 3.0]])
        grads = ad.backward(ad.node_sum(ad.elementwise_mul(ad.add(a, a), ad.input_node(u))))
        assert grads[a].tolist() == [[1.0, 6.0]]

    def test_add_root_hands_on_its_adjoint_and_keeps_it(self):
        p, q = scalar(2.0, "parameter"), scalar(3.0, "parameter")
        root = ad.add(p, q)
        grads = ad.backward(root)
        assert grads[p].tolist() == grads[q].tolist() == root.grad.tolist() == [[1.0]]
        assert len({id(p.grad), id(q.grad), id(root.grad)}) == 3

    def test_leaky_dense_root_keeps_its_adjoint(self):
        w, b = ad.parameter(np.array([[1.0, -2.0]])), ad.parameter(np.array([[-1.0]]))
        root = ad.dense(w, ad.input_node(np.array([[1.0], [1.0]])), b, True)
        grads = ad.backward(root)
        s = ad.HIDDEN_SLOPE
        assert root.value.tolist() == [[-2.0 * s]]
        assert root.grad.tolist() == [[1.0]]
        assert grads[w].tolist() == [[s, s]] and grads[b].tolist() == [[s]]

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, a_val, b_val):
        a = scalar(a_val, "parameter")
        b = scalar(b_val, "parameter")
        grads = ad.backward(ad.elementwise_mul(a, b))
        assert grads[a][0, 0] == b_val
        assert grads[b][0, 0] == a_val


def _mlp_arrays(sizes, seed):
    """[W0, b0, W1, b1, ...] of a tiny MLP, drawn layer by layer."""
    rng = np.random.default_rng(seed)
    arrays = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        arrays += [0.5 * rng.standard_normal((n_out, n_in)),
                   0.1 * rng.standard_normal((n_out, 1))]
    return arrays


def _mlp_graph(arrays, x, activation=ad.tanh):
    """Hand-rolled MLP graph over parameter nodes that alias ``arrays``."""
    h = ad.input_node(x)
    for w, b in zip(arrays[::2], arrays[1::2]):
        h = activation(ad.add(ad.matmul(ad.parameter(w), h), ad.parameter(b)))
    return h


class TestGradcheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 2))
        build = lambda: ad.mean(ad.matmul(ad.parameter(w), ad.input_node(x)))
        assert rebuild_gradcheck(build, [w], 1e-5) < 1e-8

    def test_two_layer_tanh_mlp(self):
        rng = np.random.default_rng(1)
        arrays, x = _mlp_arrays((3, 5, 2), 1), rng.standard_normal((3, 4))
        build = lambda: ad.mean(ad.square(_mlp_graph(arrays, x)))
        assert rebuild_gradcheck(build, arrays, 1e-5) < 1e-4

    def test_mse_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        arrays, x = _mlp_arrays((2, 4, 2), 2), rng.standard_normal((2, 6))
        target = rng.standard_normal((2, 6))
        build = lambda: ad.mean(ad.square(ad.subtract(_mlp_graph(arrays, x),
                                                      ad.input_node(target))))
        assert rebuild_gradcheck(build, arrays, 1e-5) < 1e-4

    def test_leaky_relu_net_away_from_kinks(self):
        # seed chosen so every pre-activation magnitude clears 10x the step
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4)) + 0.5
        arrays = _mlp_arrays((3, 6, 3), 5)
        net = lambda: _mlp_graph(arrays, x, activation=ad.leaky_relu)
        preacts = [n for n in ad.topo_order(net()) if n.kind == "add"]
        assert min(np.abs(p.value).min() for p in preacts) > 10 * 1e-5
        build = lambda: ad.mean(ad.square(net()))
        assert rebuild_gradcheck(build, arrays, 1e-5) < 1e-4

    def test_gradcheck_restores_values(self):
        x = np.array([[0.1, 3.0]])
        rebuild_gradcheck(lambda: ad.node_sum(ad.square(ad.parameter(x))), [x])
        assert x.tobytes() == np.array([[0.1, 3.0]]).tobytes()

    def test_rejects_nonpositive_step(self):
        x = np.array([[1.0]])
        with pytest.raises(ValueError, match="step"):
            rebuild_gradcheck(lambda: ad.square(ad.parameter(x)), [x], step=0.0)


def bits(a):
    """Raw IEEE bits, so -0.0 and 0.0 compare unequal."""
    return a.shape, np.ascontiguousarray(a).view(np.uint64).tobytes()


def layer_graph(w_val, h_val, b_val, leaky, fused, w_kind):
    """One layer as a dense node or as its primitive ops, under a root
    whose adjoint seed is a fixed non-constant matrix; returns (root, out,
    (w, h, b))."""
    w = (ad.parameter if w_kind == "parameter" else ad.input_node)(w_val.copy())
    h, b = ad.parameter(h_val.copy()), ad.parameter(b_val.copy())
    if fused:
        out = ad.dense(w, h, b, leaky)
    else:
        a = ad.add(ad.matmul(w, h), b)
        out = ad.leaky_relu(a) if leaky else a
    adjoint = np.random.default_rng(9).standard_normal(out.value.shape)
    root = ad.node_sum(ad.elementwise_mul(out, ad.input_node(adjoint)))
    return root, out, (w, h, b)


def layer_values(rng, zero_ties, rows=5):
    w, h = rng.standard_normal((rows, 3)), rng.standard_normal((3, 7))
    b = rng.standard_normal((rows, 1))
    if zero_ties and rows == 1:
        # a zero weight, whose input-adjoint products are 0.0 or -0.0 by the
        # adjoint's sign, and an exact-zero pre-activation in column 2
        w[0, 1] = 0.0
        h[:, 2] = 0.0
        b[0] = -0.0
    elif zero_ties:
        # exact-zero pre-activations: a zero weight row, a zero input column,
        # and -0.0 in the bias
        w[1] = 0.0
        h[:, 2] = 0.0
        b[1:3] = -0.0
    return w, h, b


class TestDense:
    @pytest.mark.parametrize("name", ["identity", "leaky-relu"])
    @pytest.mark.parametrize("w_kind", ["parameter", "input"])
    @pytest.mark.parametrize("zero_ties", [False, True])
    def test_matches_the_primitive_ops_bit_for_bit(self, name, w_kind, zero_ties,
                                                   monkeypatch):
        # a one-row weight too, as in the discriminator's output layer; the
        # leaky layer at the ends of [0, 1] as well as at the networks' slope
        leaky = name == "leaky-relu"
        slopes = (0.0, 0.2, 1.0) if leaky else (0.2,)
        for rows, slope in itertools.product((5, 1), slopes):
            monkeypatch.setattr(ad, "HIDDEN_SLOPE", slope)
            vals = layer_values(np.random.default_rng(3), zero_ties, rows)
            fused_root, fused, fused_parents = layer_graph(*vals, leaky, True, w_kind)
            prim_root, prim, prim_parents = layer_graph(*vals, leaky, False, w_kind)
            assert bits(fused.value) == bits(prim.value)
            ad.backward(fused_root)
            ad.backward(prim_root)
            assert (fused_parents[0].grad is None) == (w_kind == "input")
            for f, p in zip(fused_parents, prim_parents):
                assert (f.grad is None) == (p.grad is None)
                if f.grad is not None:
                    assert bits(f.grad) == bits(p.grad)

    def test_leaky_node_keeps_a_one_byte_mask(self):
        w, h, b = layer_values(np.random.default_rng(5), zero_ties=True)
        parents = [ad.input_node(v) for v in (w, h, b)]
        mask = ad.dense(*parents, True).meta
        assert mask.dtype == np.bool_ and mask.shape == (5, 7)
        assert np.array_equal(mask, w @ h + b >= 0)
        assert ad.dense(*parents, False).meta is None

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_value_is_preactivation_times_derivative(self, slope, monkeypatch):
        # what dense computes for leaky-relu, on the -0.0 and 0.0 ties too
        monkeypatch.setattr(ad, "HIDDEN_SLOPE", slope)
        a = np.array([[-0.0, 0.0, -1.5, 2.0, -1e-320, 1e-320]])
        value, vjp = ad.ACTIVATIONS["leaky-relu"]
        assert bits(a * vjp(1.0, a, None)) == bits(value(a))

    def test_softplus_is_stable_at_large_logits(self):
        a = ad.parameter(np.array([[-800.0, 800.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.softplus(a)
            ad.backward(ad.node_sum(out))
        assert out.value.tolist() == [[0.0, 800.0]]
        assert a.grad.tolist() == [[0.0, 1.0]]

    def test_shape_mismatch_rejected(self):
        w, h, b = (ad.input_node(np.ones(s)) for s in ((2, 3), (3, 4), (2, 1)))
        with pytest.raises(ad.GraphError, match=r"dense: shapes \(2, 3\) @ \(2, 4\)"):
            ad.dense(w, ad.input_node(np.ones((2, 4))), b, True)
        with pytest.raises(ad.GraphError, match=r"dense: shapes .* \+ \(2, 4\)"):
            ad.dense(w, h, ad.input_node(np.ones((2, 4))), False)


class TestOuterProduct:
    @pytest.mark.parametrize("m, n", [(1, 1), (64, 1), (1, 9), (7, 5)])
    def test_equals_matmul_on_signed_zeros_nan_and_inf(self, m, n):
        # every product of inner dimension 1 in backward is np.multiply
        rng = np.random.default_rng(m * 10 + n)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
        a = rng.choice(specials, size=(m, 1))
        b = rng.choice(specials, size=(1, n))
        a[0, 0], b[0, -1] = -0.0, np.inf   # -0 * inf, and a -0 factor
        with np.errstate(invalid="ignore"):
            product, reference, signed = ad._product(a, b), a @ b, np.multiply(a, b)
        assert product.shape == reference.shape == (m, n)
        np.testing.assert_array_equal(product, reference)   # NaN where @ has NaN
        # the sign of a zero product is its factors', where BLAS gives +0.0
        assert bits(product) == bits(signed)

    def test_inner_dimension_above_one_is_matmul(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((2, 4))
        assert bits(ad._product(a, b)) == bits(a @ b)

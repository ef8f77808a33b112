"""Network init, forward agreement, Adam arithmetic, checkpoint round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordt import autodiff as ad
from anchordt import nets
from anchordt.sparsity import activation_masks
from reference_pass import preactivations


def scalar_model(w0: float) -> nets.MlpModel:
    """One 1->1 linear layer holding a single scalar weight, zero bias."""
    return nets.MlpModel(layer_sizes=(1, 1), weights=[np.array([[w0]])],
                         biases=[np.zeros((1, 1))])


def hand_adam(w0, grads, lr, b1, b2, eps):
    """Straight transcription of the update rule, kept separate from nets."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def per_array_adam(params, gradients, first, second, t, lr, b1, b2, eps):
    """The per-array update loop adam_step ran before parameters were flat:
    the reference the flat update must equal bit for bit."""
    for p, g, m, v in zip(params, gradients, first, second):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g ** 2
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def slices(vector, like) -> list[np.ndarray]:
    """Consecutive slices of ``vector``, one shaped like each array of ``like``."""
    ends = np.cumsum([p.size for p in like])[:-1]
    return [part.reshape(p.shape) for part, p in zip(np.split(vector, ends), like)]


def assert_views_of_flat(model: nets.MlpModel):
    """Every weight and bias is a view of model.flat, laid out in param_order."""
    params = nets.param_order(model.weights, model.biases)
    assert model.flat.dtype == np.float64 and model.flat.ndim == 1
    assert all(p.base is model.flat for p in params)
    assert np.concatenate(params, axis=None).tobytes() == model.flat.tobytes()
    assert model.flat.size == sum(p.size for p in params)


class TestInit:
    def test_parameter_count(self):
        model = nets.init_mlp((2, 32, 2), seed=7)
        sizes = [p.size for p in nets.param_order(model.weights, model.biases)]
        assert sizes == [2 * 32, 32, 32 * 2, 2]

    def test_same_seed_bit_identical(self):
        a = nets.init_mlp((2, 32, 2), seed=7)
        b = nets.init_mlp((2, 32, 2), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = nets.init_mlp((2, 32, 2), seed=7)
        b = nets.init_mlp((2, 32, 2), seed=8)
        assert any((wa != wb).any() for wa, wb in zip(a.weights, b.weights))

    def test_xavier_bound_and_zero_biases(self):
        model = nets.init_mlp((4, 8), seed=0)
        bound = np.sqrt(6.0 / (4 + 8))
        assert np.abs(model.weights[0]).max() <= bound
        np.testing.assert_array_equal(model.biases[0], np.zeros((8, 1)))

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            nets.init_mlp((5,), seed=0)
        with pytest.raises(ValueError):
            nets.init_mlp((), seed=0)


class TestForwardPaths:
    @pytest.mark.parametrize("sizes", [(3, 3), (3, 8, 8, 3), (3, 8, 1)],
                             ids=["one-layer", "two-hidden", "logit"])
    def test_apply_matches_graph_forward_bitwise(self, sizes):
        model = nets.init_mlp(sizes, seed=11)
        x = np.random.default_rng(1).standard_normal((3, 16))
        x[:, 3] = 0.0   # zero pre-activations in the first layer
        graph_out = nets.bind(model)(ad.input_node(x)).value
        assert model.apply(x).tobytes() == graph_out.tobytes()

    def test_wrong_input_dim(self):
        # a point is a (D, 1) batch: a 1-D array is no batch
        model = nets.init_mlp((2, 4, 2), seed=0)
        for x in (np.ones((3, 5)), np.ones(2), np.ones((2, 1, 1))):
            with pytest.raises(ValueError, match=r"is not a \(2, N\) batch"):
                model.apply(x)

    def test_frozen_binding_rejects_gradients(self):
        model = nets.init_mlp((2, 4, 2), seed=0)
        frozen = nets.bind(model, frozen=True)
        with pytest.raises(ValueError, match="frozen"):
            frozen.gradient()

    def test_binding_records_preactivations(self):
        # each hidden dense node of a pass keeps its activation mask, from
        # which its derivative is rebuilt, and the identity output keeps none
        x = np.random.default_rng(2).standard_normal((2, 8))
        x[:, 5] = 0.0   # exact-zero pre-activations take the slope-1 side
        model = nets.init_mlp((2, 4, 4, 2), seed=0)
        node = nets.bind(model)(ad.input_node(x))
        metas = []
        while node.kind == "dense":
            metas.insert(0, node.meta)
            node = node.parents[1]
        direct = activation_masks(preactivations(model, x))
        assert len(metas) == 3 and len(direct) == 2
        assert metas[-1] is None
        for meta, b in zip(metas, direct):
            assert ad.leaky_derivative(meta).tobytes() == b.tobytes()
        assert np.isin(direct[0], (nets.HIDDEN_SLOPE, 1.0)).all()


class TestAdam:
    def test_first_step_hand_computed(self):
        # w=1, g=0.5, lr=0.1: m_hat=g, v_hat=g^2, step = lr*g/(|g|+eps)
        model = scalar_model(1.0)
        state = nets.adam_init(model, learning_rate=0.1)
        nets.adam_step(model, np.array([0.5, 0.0]), state)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert model.weights[0][0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_zero_gradient_is_a_fixed_point(self):
        model = scalar_model(2.5)
        state = nets.adam_init(model)
        nets.adam_step(model, np.zeros(2), state)
        assert model.weights[0][0, 0] == 2.5
        assert state.m[0] == 0.0
        assert state.v[0] == 0.0

    def test_two_step_trace_matches_hand_rule_default_betas(self):
        model = scalar_model(1.0)
        state = nets.adam_init(model, learning_rate=0.1)
        for g in (0.5, -0.5):
            nets.adam_step(model, np.array([g, 0.0]), state)
        expected = hand_adam(1.0, [0.5, -0.5], 0.1, 0.9, 0.999, 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-14)

    def test_opposite_gradients_return_to_start_without_momentum(self):
        # with beta1=0 the g, -g pair cancels exactly (v is symmetric in g)
        model = scalar_model(1.0)
        state = nets.adam_init(model, learning_rate=0.1, beta1=0.0)
        for g in (0.7, -0.7):
            nets.adam_step(model, np.array([g, 0.0]), state)
        assert abs(model.weights[0][0, 0] - 1.0) < 1e-12

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_update_magnitude_bounded_by_lr(self, grads):
        # same-scale gradient streams never move a coordinate more than
        # about lr per step after bias correction
        lr = 0.01
        model = scalar_model(0.0)
        state = nets.adam_init(model, learning_rate=lr)
        prev = 0.0
        for g in grads:
            nets.adam_step(model, np.array([g, 0.0]), state)
            step = abs(model.weights[0][0, 0] - prev)
            prev = model.weights[0][0, 0]
            assert step <= lr * 1.05

    def test_gradient_replay_is_bit_identical(self):
        rng = np.random.default_rng(5)
        grad_seq = [rng.standard_normal((4, 2)) for _ in range(20)]

        def run():
            model = nets.init_mlp((2, 4), seed=3)
            state = nets.adam_init(model)
            for g in grad_seq:
                nets.adam_step(model, np.append(g, np.zeros(4)), state)
            return model.weights[0].copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        model = scalar_model(1.0)
        state = nets.adam_init(model)
        with pytest.raises(ValueError, match="shape"):
            nets.adam_step(model, np.ones(5), state)
        with pytest.raises(ValueError, match="gradients"):
            nets.adam_step(model, np.ones(1), state)

    @pytest.mark.parametrize("shape", [(5,), (1,), (2, 1), (1, 2), ()])
    def test_a_gradient_not_shaped_like_flat_is_rejected_naming_both_shapes(self, shape):
        model = scalar_model(1.0)
        state = nets.adam_init(model)
        with pytest.raises(ValueError) as caught:
            nets.adam_step(model, np.ones(shape), state)
        assert "shape (2,)" in str(caught.value) and f"shape {shape}" in str(caught.value)
        assert model.flat.tolist() == [1.0, 0.0] and state.step_count == 0


class TestFlatParameters:
    def write_through(self, model):
        # a write to a view shows in flat, and a binding made before sees it
        binding = nets.bind(model)
        model.weights[-1][0, 0] = 0.625
        model.flat[-1] = -1.5
        last_w = model.flat.size - model.biases[-1].size - model.weights[-1].size
        assert model.flat[last_w] == 0.625
        assert binding.weight_nodes[-1].value[0, 0] == 0.625
        assert binding.bias_nodes[-1].value[-1, 0] == -1.5

    def test_init_mlp(self):
        model = nets.init_mlp((3, 5, 4, 2), seed=1)
        assert_views_of_flat(model)
        self.write_through(model)

    def test_copy_is_its_own_vector(self):
        model = nets.init_mlp((3, 5, 2), seed=1)
        twin = model.copy()
        assert_views_of_flat(twin)
        assert not np.shares_memory(twin.flat, model.flat)
        assert twin.layer_sizes == model.layer_sizes
        assert twin.flat.tobytes() == model.flat.tobytes()
        self.write_through(twin)
        assert model.weights[-1][0, 0] != 0.625

    def test_load_checkpoint(self, tmp_path):
        nets.save_checkpoint(nets.init_mlp((2, 4, 1), seed=2), tmp_path / "m.ckpt")
        model = nets.load_checkpoint(tmp_path / "m.ckpt")
        assert_views_of_flat(model)
        self.write_through(model)

    def test_direct_construction_copies_into_the_vector(self):
        w0, b0 = np.arange(6.0).reshape(3, 2), np.ones((3, 1))
        w1, b1 = np.array([[1, 2, 3]]), np.zeros((1, 1))   # an int array too
        model = nets.MlpModel(layer_sizes=(2, 3, 1), weights=[w0, w1], biases=[b0, b1])
        assert_views_of_flat(model)
        assert model.flat.tolist() == [0, 1, 2, 3, 4, 5, 1, 1, 1, 1, 2, 3, 0]
        self.write_through(model)
        assert w1[0, 0] == 1 and b1[0, 0] == 0.0   # the caller's arrays are left alone

    @pytest.mark.parametrize("weights, biases", [
        ([np.ones((2, 3))], [np.zeros((2, 1))]),   # W0 transposed
        ([np.ones((3, 2))], [np.zeros(3)]),        # a 1-D bias
        ([np.ones((3, 2)), np.ones((1, 3))], [np.zeros((3, 1)), np.zeros((1, 1))]),
    ], ids=["transposed", "1-d-bias", "extra-layer"])
    def test_construction_rejects_arrays_that_do_not_fit_the_layer_sizes(self, weights,
                                                                          biases):
        with pytest.raises(ValueError, match=r"do not fit layer_sizes \(2, 3\)"):
            nets.MlpModel(layer_sizes=(2, 3), weights=weights, biases=biases)

    def test_adam_step_updates_the_vector_a_binding_reads(self):
        model = nets.init_mlp((2, 4, 2), seed=3)
        state = nets.adam_init(model, learning_rate=0.1)
        binding = nets.bind(model)
        before = model.flat.copy()
        nets.adam_step(model, np.ones_like(model.flat), state)
        assert_views_of_flat(model)
        assert (model.flat < before).all()
        for node, p in zip(binding.param_nodes,
                           nets.param_order(model.weights, model.biases)):
            assert node.value is p
        for moment in (state.m, state.v):
            assert moment.shape == model.flat.shape and moment.dtype == np.float64

    def test_binding_gradient_is_laid_out_like_flat(self):
        model = nets.init_mlp((2, 3, 2), seed=4)
        binding = nets.bind(model)
        x = np.random.default_rng(0).standard_normal((2, 5))
        ad.backward(ad.node_sum(ad.square(binding(ad.input_node(x)))))
        binding.bias_nodes[0].grad = None   # as if no adjoint reached b0
        gradient = binding.gradient()
        assert gradient.dtype == np.float64 and gradient.shape == model.flat.shape
        wanted = [np.zeros((3, 1)) if node.grad is None else node.grad
                  for node in binding.param_nodes]
        assert gradient.tobytes() == np.concatenate(wanted, axis=None).tobytes()
        assert (slices(gradient, wanted)[1] == 0.0).all()
        assert (gradient != 0.0).sum() > model.weights[0].size

    def test_a_binding_names_the_first_non_finite_array(self):
        model = nets.init_mlp((2, 4, 2), seed=0)
        model.biases[1][1, 0] = np.inf
        model.weights[1][0, 0] = np.nan
        for frozen in (False, True):
            with pytest.raises(ad.GraphError, match="^W1: non-finite entries$"):
                nets.bind(model, frozen=frozen)

    @given(sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
           steps=st.integers(1, 6), lr=st.floats(1e-4, 1.0),
           b1=st.floats(0.0, 0.99), b2=st.floats(0.0, 0.9999), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flat_adam_equals_the_per_array_loop(self, sizes, steps, lr, b1, b2, data):
        model = nets.init_mlp(sizes, seed=len(sizes))
        state = nets.adam_init(model, learning_rate=lr, beta1=b1, beta2=b2)
        params = [p.copy() for p in nets.param_order(model.weights, model.biases)]
        first = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        values = st.floats(-1e3, 1e3, allow_nan=False)
        for t in range(1, steps + 1):
            grads = [np.array(data.draw(st.lists(values, min_size=p.size, max_size=p.size)),
                              dtype=np.float64).reshape(p.shape) for p in params]
            nets.adam_step(model, np.concatenate(grads, axis=None), state)
            per_array_adam(params, grads, first, second, t, lr, b1, b2, state.epsilon)
        assert state.step_count == steps
        flat_params = nets.param_order(model.weights, model.biases)
        for got, want in zip(flat_params + slices(state.m, params) + slices(state.v, params),
                             params + first + second):
            assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = nets.init_mlp((2, 32, 32, 2), seed=9)
        # make values irrational-ish to exercise the full 17 digits
        model.weights[0] *= np.pi
        path = tmp_path / "model.ckpt"
        nets.save_checkpoint(model, path)
        loaded = nets.load_checkpoint(path)
        assert loaded.layer_sizes == model.layer_sizes
        for a, b in zip(model.weights + model.biases,
                        loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        model = nets.init_mlp((2, 8, 2), seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nets.save_checkpoint(model, p1)
        nets.save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="checkpoint"):
            nets.load_checkpoint(path)

    # a checkpoint as the format has always been written, activations included
    EARLIER_FORMAT = ("anchordt-mlp-v1\n"
                      "layer_sizes = 1,2,1\n"
                      "output_activation = identity\n"
                      "hidden_slope = 0.20000000000000001\n"
                      "W0 = 0.31415926535897931 -1.2\n"
                      "b0 = 0 -0.5\n"
                      "W1 = 2 -3.0000000000000004\n"
                      "b1 = 0.10000000000000001\n")

    def test_earlier_format_round_trips_bit_for_bit(self, tmp_path):
        path, again = tmp_path / "earlier.ckpt", tmp_path / "again.ckpt"
        path.write_text(self.EARLIER_FORMAT)
        model = nets.load_checkpoint(path)
        assert model.layer_sizes == (1, 2, 1)
        # hidden units at 0.314 x and -1.2 x - 0.5: leaky-relu, identity output
        h = np.array([0.31415926535897931 * 2.0, -1.2 * 2.0 - 0.5])
        h = np.maximum(h, 0.2 * h)
        expected = 2.0 * h[0] - 3.0000000000000004 * h[1] + 0.1
        assert model.apply(np.array([[2.0]]))[0, 0] == pytest.approx(expected, rel=1e-15)
        nets.save_checkpoint(model, again)
        assert again.read_text() == self.EARLIER_FORMAT

    @pytest.mark.parametrize("line, replacement", [
        ("output_activation = identity", "output_activation = tanh"),
        ("output_activation = identity", "output_activation = sigmoid"),
        ("hidden_slope = 0.20000000000000001", "hidden_slope = 0.01"),
        ("hidden_slope = 0.20000000000000001", ""),
    ])
    def test_rejects_other_activations_naming_the_key(self, tmp_path, line, replacement):
        path = tmp_path / "other.ckpt"
        path.write_text(self.EARLIER_FORMAT.replace(line, replacement))
        key = line.partition(" = ")[0]
        with pytest.raises(ValueError, match=f"{key} = "):
            nets.load_checkpoint(path)

    @pytest.mark.parametrize("line, replacement, message", [
        ("layer_sizes = 1,2,1\n", "", "the layer_sizes line is missing"),
        ("W1 = 2 -3.0000000000000004\n", "", "the W1 line is missing"),
        ("b0 = 0 -0.5\n", "", "the b0 line is missing"),
        ("W1 = 2 -3.0000000000000004", "W1 = 2", "W1 holds 1 numbers, layer_sizes needs 2"),
        ("b1 = 0.10000000000000001", "b1 = 0.1 0.2",
         "b1 holds 2 numbers, layer_sizes needs 1"),
        ("W0 = 0.31415926535897931 -1.2", "W0 = 0.31415926535897931 x",
         "W0 holds a token that is not a number"),
        ("layer_sizes = 1,2,1", "layer_sizes = 1,2,", "layer_sizes holds a token"),
        ("layer_sizes = 1,2,1", "layer_sizes = 1", "needs at least two positive sizes"),
        ("layer_sizes = 1,2,1", "layer_sizes = 1,0,1", "needs at least two positive sizes"),
    ])
    def test_rejects_a_missing_or_short_line_naming_the_key(self, tmp_path, line,
                                                           replacement, message):
        assert line in self.EARLIER_FORMAT
        path = tmp_path / "cut.ckpt"
        path.write_text(self.EARLIER_FORMAT.replace(line, replacement))
        with pytest.raises(ValueError, match=message):
            nets.load_checkpoint(path)

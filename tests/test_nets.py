"""Network init, forward agreement, Adam arithmetic, checkpoint round trips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordt import autodiff as ad
from anchordt import nets
from anchordt.sparsity import activation_masks


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

    def test_output_activation_checked_once_and_frozen(self):
        with pytest.raises(ValueError, match="output activation"):
            nets.MlpModel(layer_sizes=(1, 1), weights=[np.ones((1, 1))],
                          biases=[np.zeros((1, 1))], output_activation="relu")
        model = nets.init_mlp((2, 4, 4, 1), output_activation="sigmoid", seed=0)
        assert model.activations == [("leaky-relu", 0.2)] * 2 + [("sigmoid", 0.2)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.output_activation = "tanh"


class TestForwardPaths:
    @pytest.mark.parametrize("out_act", ["identity", "tanh", "sigmoid"])
    def test_apply_matches_graph_forward_bitwise(self, out_act):
        model = nets.init_mlp((3, 8, 8, 3), output_activation=out_act, seed=11)
        x = np.random.default_rng(1).standard_normal((3, 16))
        graph_out = nets.bind(model)(ad.input_node(x)).value
        np.testing.assert_array_equal(model.apply(x), graph_out)

    def test_apply_1d_convenience(self):
        model = nets.init_mlp((2, 4, 2), seed=0)
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(model.apply(x),
                                      model.apply(x.reshape(2, 1))[:, 0])

    def test_wrong_input_dim(self):
        model = nets.init_mlp((2, 4, 2), seed=0)
        with pytest.raises(ValueError, match="input dim"):
            model.apply(np.ones((3, 5)))

    def test_frozen_binding_rejects_gradients(self):
        model = nets.init_mlp((2, 4, 2), seed=0)
        frozen = nets.bind(model, frozen=True)
        with pytest.raises(ValueError, match="frozen"):
            frozen.gradients()

    def test_binding_records_preactivations(self):
        # the derivatives kept by the dense nodes are the Jacobian masks
        x = np.random.default_rng(2).standard_normal((2, 8))
        for out_act in nets.OUTPUT_ACTIVATIONS:
            model = nets.init_mlp((2, 4, 4, 2), output_activation=out_act, seed=0)
            binding = nets.bind(model)
            binding(ad.input_node(x))
            direct = activation_masks(model, model.preactivations(x))
            assert len(binding.last_derivs) == len(direct) == 3
            for a, b in zip(binding.last_derivs, direct):
                np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_first_step_hand_computed(self):
        # w=1, g=0.5, lr=0.1: m_hat=g, v_hat=g^2, step = lr*g/(|g|+eps)
        model = scalar_model(1.0)
        state = nets.adam_init(model, learning_rate=0.1)
        nets.adam_step(model, [np.array([[0.5]]), np.zeros((1, 1))], state)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert model.weights[0][0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_zero_gradient_is_a_fixed_point(self):
        model = scalar_model(2.5)
        state = nets.adam_init(model)
        nets.adam_step(model, [np.zeros((1, 1)), np.zeros((1, 1))], state)
        assert model.weights[0][0, 0] == 2.5
        assert state.first_moment[0][0, 0] == 0.0
        assert state.second_moment[0][0, 0] == 0.0

    def test_two_step_trace_matches_hand_rule_default_betas(self):
        model = scalar_model(1.0)
        state = nets.adam_init(model, learning_rate=0.1)
        for g in (0.5, -0.5):
            nets.adam_step(model, [np.array([[g]]), np.zeros((1, 1))], state)
        expected = hand_adam(1.0, [0.5, -0.5], 0.1, 0.9, 0.999, 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, abs=1e-14)

    def test_opposite_gradients_return_to_start_without_momentum(self):
        # with beta1=0 the g, -g pair cancels exactly (v is symmetric in g)
        model = scalar_model(1.0)
        state = nets.adam_init(model, learning_rate=0.1, beta1=0.0)
        for g in (0.7, -0.7):
            nets.adam_step(model, [np.array([[g]]), np.zeros((1, 1))], state)
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
            nets.adam_step(model, [np.array([[g]]), np.zeros((1, 1))], state)
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
                nets.adam_step(model, [g, np.zeros((4, 1))], state)
            return model.weights[0].copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        model = scalar_model(1.0)
        state = nets.adam_init(model)
        with pytest.raises(ValueError, match="shape"):
            nets.adam_step(model, [np.ones((2, 2)), np.zeros((1, 1))], state)
        with pytest.raises(ValueError, match="gradients"):
            nets.adam_step(model, [np.ones((1, 1))], state)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = nets.init_mlp((2, 32, 32, 2), output_activation="tanh", seed=9)
        # make values irrational-ish to exercise the full 17 digits
        model.weights[0] *= np.pi
        path = tmp_path / "model.ckpt"
        nets.save_checkpoint(model, path)
        loaded = nets.load_checkpoint(path)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.output_activation == "tanh"
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

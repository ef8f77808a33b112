"""Analytic values and gradient checks for the four loss terms."""

import numpy as np
import pytest

from anchordt import autodiff as ad
from anchordt import nets, objective
from anchordt.sparsity import ProbeSpec, batched_jvp_graph, draw_probe


def constant_half_discriminator() -> nets.MlpModel:
    """All-zero weights + sigmoid output = exactly 0.5 everywhere."""
    model = nets.init_mlp((2, 4, 1), output_activation="sigmoid", seed=0)
    for w in model.weights:
        w[:] = 0.0
    return model


def identity_model(d=2) -> nets.MlpModel:
    return nets.MlpModel(layer_sizes=(d, d), weights=[np.eye(d)],
                         biases=[np.zeros((d, 1))])


def linear_model(a, output_activation="identity") -> nets.MlpModel:
    a = np.asarray(a, dtype=np.float64)
    return nets.MlpModel(layer_sizes=(a.shape[1], a.shape[0]),
                         weights=[a.copy()], biases=[np.zeros((a.shape[0], 1))],
                         output_activation=output_activation)


def biased_identity(offset) -> nets.MlpModel:
    model = identity_model(len(offset))
    model.biases[0][:, 0] = offset
    return model


class TestGanLosses:
    def test_uninformative_discriminator_values(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=1))
        disc = nets.bind(constant_half_discriminator())
        rng = np.random.default_rng(0)
        dl, gl = objective.gan_losses(gen, disc, rng.standard_normal((2, 8)),
                                      rng.standard_normal((2, 8)))
        assert dl.value[0, 0] == pytest.approx(2 * np.log(2.0), abs=1e-12)
        assert gl.value[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_discriminator_on_disjoint_supports(self):
        # 1D: d(v) = sigmoid(50 v) saturates to the clamp on +-1 inputs
        gen = nets.bind(identity_model(1))
        disc = nets.bind(linear_model(np.array([[50.0]]), "sigmoid"))
        x = np.full((1, 16), -1.0)
        y = np.full((1, 16), 1.0)
        dl, _ = objective.gan_losses(gen, disc, x, y)
        assert dl.value[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_generator_gradient_matches_finite_differences(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=3))
        disc = nets.bind(nets.init_mlp((2, 4, 1), "sigmoid", seed=4))
        rng = np.random.default_rng(5)
        _, gl = objective.gan_losses(gen, disc, rng.standard_normal((2, 6)),
                                     rng.standard_normal((2, 6)))
        assert ad.gradcheck(gl, step=1e-5, tolerance=1e-4).passed

    def test_discriminator_gradient_matches_finite_differences(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=6))
        disc = nets.bind(nets.init_mlp((2, 4, 1), "sigmoid", seed=7))
        rng = np.random.default_rng(8)
        dl, _ = objective.gan_losses(gen, disc, rng.standard_normal((2, 6)),
                                     rng.standard_normal((2, 6)))
        assert ad.gradcheck(dl, step=1e-5, tolerance=1e-4).passed

    def test_detached_generator_receives_no_gradient(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=9))
        disc = nets.bind(nets.init_mlp((2, 4, 1), "sigmoid", seed=10))
        rng = np.random.default_rng(11)
        dl, _ = objective.gan_losses(gen, disc, rng.standard_normal((2, 6)),
                                     rng.standard_normal((2, 6)),
                                     detach_generator=True)
        grads = ad.backward(dl)
        assert all(node not in grads for node in gen.param_nodes)

    def test_empty_batch_rejected(self):
        gen = nets.bind(identity_model())
        disc = nets.bind(constant_half_discriminator())
        with pytest.raises(ValueError, match="nonempty"):
            objective.gan_losses(gen, disc, np.empty((2, 0)), np.ones((2, 3)))

    def test_r1_penalty_increases_disc_loss_and_gradchecks(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=12))
        disc_model = nets.init_mlp((2, 4, 1), "sigmoid", seed=13)
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        plain, _ = objective.gan_losses(gen, nets.bind(disc_model), x, y)
        reg, _ = objective.gan_losses(gen, nets.bind(disc_model), x, y,
                                      r1_weight=3.0)
        assert reg.value[0, 0] > plain.value[0, 0]
        assert ad.gradcheck(reg, step=1e-5, tolerance=1e-4).passed

    def test_r1_penalty_runs_one_forward_pass_for_all_directions(self, monkeypatch):
        calls = []
        original = nets.MlpModel.preactivations

        def counted(model, x):
            calls.append(model)
            return original(model, x)

        monkeypatch.setattr(nets.MlpModel, "preactivations", counted)
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=12))
        disc = nets.bind(nets.init_mlp((2, 4, 1), "sigmoid", seed=13))
        rng = np.random.default_rng(14)
        objective.gan_losses(gen, disc, rng.standard_normal((2, 5)),
                             rng.standard_normal((2, 5)), r1_weight=1.0,
                             detach_generator=True)
        assert len(calls) <= 1


class TestAnchorLoss:
    def test_zero_when_generator_matches(self):
        anchors = objective.AnchorSet(x=np.array([[0.1, 0.2], [0.3, 0.4]]),
                                      y=np.array([[0.1, 0.2], [0.3, 0.4]]))
        node = objective.anchor_loss(nets.bind(identity_model()), anchors)
        assert node.value[0, 0] == 0.0

    def test_single_anchor_three_four_residual(self):
        x = np.array([[1.0], [2.0]])
        anchors = objective.AnchorSet(x=x, y=x - np.array([[3.0], [4.0]]))
        node = objective.anchor_loss(nets.bind(identity_model()), anchors)
        assert node.value[0, 0] == pytest.approx(25.0, abs=1e-12)

    def test_mean_over_two_anchors(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0]])
        y = -np.array([[3.0, 1.0], [4.0, 0.0]])   # residual norms^2: 25 and 1
        node = objective.anchor_loss(nets.bind(identity_model()),
                                     objective.AnchorSet(x=x, y=y))
        assert node.value[0, 0] == pytest.approx(13.0, abs=1e-12)

    def test_empty_anchor_set_rejected(self):
        anchors = objective.AnchorSet(x=np.empty((2, 0)), y=np.empty((2, 0)))
        with pytest.raises(ValueError, match="anchor"):
            objective.anchor_loss(nets.bind(identity_model()), anchors)

    def test_gradcheck(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=15))
        rng = np.random.default_rng(16)
        anchors = objective.AnchorSet(x=rng.standard_normal((2, 3)),
                                      y=rng.standard_normal((2, 3)))
        node = objective.anchor_loss(gen, anchors)
        assert ad.gradcheck(node, step=1e-5, tolerance=1e-4).passed


class TestInvLoss:
    def test_exact_inverse_gives_zero(self):
        node = objective.inv_loss(nets.bind(identity_model()),
                                  nets.bind(identity_model()),
                                  np.random.default_rng(0).standard_normal((2, 9)))
        assert node.value[0, 0] == 0.0

    def test_constant_offset_l1(self):
        # f(g(x)) - x = (0.5, -0.5) on every sample -> mean l1 of 1.0
        rec = biased_identity([0.5, -0.5])
        node = objective.inv_loss(nets.bind(identity_model()), nets.bind(rec),
                                  np.random.default_rng(1).standard_normal((2, 7)))
        assert node.value[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_gradcheck_both_networks(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=17))
        rec = nets.bind(nets.init_mlp((2, 4, 2), seed=18))
        node = objective.inv_loss(gen, rec,
                                  np.random.default_rng(2).standard_normal((2, 5)))
        grads = ad.backward(node)
        assert any(np.abs(grads[p]).max() > 0 for p in gen.param_nodes)
        assert any(np.abs(grads[p]).max() > 0 for p in rec.param_nodes)
        assert ad.gradcheck(node, step=1e-5, tolerance=1e-4).passed

    def test_dim_mismatch_rejected(self):
        gen = nets.bind(nets.init_mlp((2, 4, 3), seed=0))
        rec = nets.bind(nets.init_mlp((2, 4, 2), seed=0))
        with pytest.raises(ValueError, match="reconstructor"):
            objective.inv_loss(gen, rec, np.ones((2, 4)))

    def test_batch_order_invariance(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=19))
        rec = nets.bind(nets.init_mlp((2, 4, 2), seed=20))
        x = np.random.default_rng(3).standard_normal((2, 11))
        a = objective.inv_loss(gen, rec, x).value[0, 0]
        b = objective.inv_loss(gen, rec, x[:, ::-1]).value[0, 0]
        assert a == pytest.approx(b, rel=1e-12)


class TestSparsityLoss:
    def test_identity_generator_exact_mode_gives_dimension(self):
        gen = nets.bind(identity_model(2))
        x = np.random.default_rng(0).standard_normal((2, 6))
        node = objective.sparsity_loss(gen, x, ProbeSpec(2, 1), "exact-jacobian-l1")
        assert node.value[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_exact_mode_equals_mean_jacobian_l1(self):
        model = nets.init_mlp((2, 8, 2), seed=21)
        x = np.random.default_rng(4).standard_normal((2, 5))
        node = objective.sparsity_loss(nets.bind(model), x, ProbeSpec(2, 1),
                                       "exact-jacobian-l1")
        # J(x_n): the JVPs along the identity directions at x_n
        jacobians = [batched_jvp_graph(nets.bind(model), np.repeat(x[:, n:n + 1], 2, axis=1),
                                       np.eye(2)).value for n in range(5)]
        expected = np.mean([np.abs(j).sum() for j in jacobians])
        assert node.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_linear_generator_masked_fd_equals_l1_of_az(self):
        a = np.array([[1.0, -2.0], [3.0, 0.5]])
        spec = ProbeSpec(2, 1, perturbation_scale=0.05, probes_per_sample=1)
        seed = 99
        x = np.random.default_rng(1).standard_normal((2, 4))
        node = objective.sparsity_loss(nets.bind(linear_model(a)), x, spec,
                                       "masked-fd", np.random.default_rng(seed))
        # replay the identical probe stream, one block of 4, to build the oracle
        probes = draw_probe(spec, np.random.default_rng(seed), 4).probe
        expected = np.abs(a @ probes).sum(axis=0).mean()
        assert node.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_masked_fd_mean_matches_independent_monte_carlo(self):
        # linear map makes the surrogate exact, so the loss estimates
        # E_z ||A z||_1; compare against a direct MC oracle of that quantity
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        spec = ProbeSpec(3, 2, perturbation_scale=0.01, probes_per_sample=16)
        x = rng.standard_normal((3, 64))
        node = objective.sparsity_loss(nets.bind(linear_model(a)), x, spec,
                                       "masked-fd", np.random.default_rng(7))
        oracle_rng = np.random.default_rng(1234)
        oracle = np.array([np.abs(a @ draw_probe(spec, oracle_rng).probe).sum()
                           for _ in range(4096)])
        se = oracle.std(ddof=1) * np.sqrt(1 / 4096 + 1 / (64 * 16))
        assert abs(node.value[0, 0] - oracle.mean()) < 3 * se

    def test_masked_fd_first_order_convergence_on_smooth_map(self):
        # tanh output layer (no hidden kinks): the error against ||J z||_1 is
        # O(delta), so its log-log slope is ~1; one rng seed gives every
        # delta the same probe.  delta = 0.1 is not yet asymptotic, so the
        # slope is fitted over the three smallest deltas
        model = nets.init_mlp((2, 2), output_activation="tanh", seed=13)
        x = np.array([[0.3], [-0.2]])
        w, b = model.weights[0], model.biases[0]
        jac = (1.0 - np.tanh(w @ x + b) ** 2) * w
        probe = draw_probe(ProbeSpec(2, 2), np.random.default_rng(17)).probe
        exact = np.abs(jac @ probe).sum()
        deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errors = []
        for delta in deltas:
            spec = ProbeSpec(2, 2, perturbation_scale=delta, probes_per_sample=1)
            node = objective.sparsity_loss(nets.bind(model), x, spec, "masked-fd",
                                           np.random.default_rng(17))
            errors.append(abs(node.value[0, 0] - exact))
        slope = np.polyfit(np.log(deltas[1:]), np.log(errors[1:]), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_masked_fd_draws_one_probe_block_per_call(self, monkeypatch):
        calls = []

        def counted(spec, rng, count=1):
            calls.append(count)
            return draw_probe(spec, rng, count)

        monkeypatch.setattr(objective, "draw_probe", counted)
        spec = ProbeSpec(2, 1, probes_per_sample=3)
        x = np.random.default_rng(2).standard_normal((2, 5))
        objective.sparsity_loss(nets.bind(identity_model()), x, spec, "masked-fd",
                                np.random.default_rng(3))
        assert calls == [5 * 3]

    def test_masked_fd_requires_rng(self):
        gen = nets.bind(identity_model())
        with pytest.raises(ValueError, match="rng"):
            objective.sparsity_loss(gen, np.ones((2, 3)), ProbeSpec(2, 1),
                                    "masked-fd")

    def test_unknown_mode_rejected(self):
        gen = nets.bind(identity_model())
        with pytest.raises(ValueError, match="mode"):
            objective.sparsity_loss(gen, np.ones((2, 3)), ProbeSpec(2, 1), "l2")

    def test_exact_mode_gradcheck(self):
        model = nets.init_mlp((2, 5, 2), seed=22)
        x = np.random.default_rng(8).standard_normal((2, 4)) + 0.4
        assert min(np.abs(p).min() for p in model.preactivations(x)) > 1e-3
        gen = nets.bind(model)
        node = objective.sparsity_loss(gen, x, ProbeSpec(2, 1), "exact-jacobian-l1")
        assert ad.gradcheck(node, step=1e-6, tolerance=1e-4).passed

    def test_masked_fd_gradcheck(self):
        model = nets.init_mlp((2, 5, 2), seed=23)
        x = np.random.default_rng(9).standard_normal((2, 3)) + 0.3
        spec = ProbeSpec(2, 2, perturbation_scale=0.05, probes_per_sample=2)
        node = objective.sparsity_loss(nets.bind(model), x, spec, "masked-fd",
                                       np.random.default_rng(10))
        assert ad.gradcheck(node, step=1e-6, tolerance=1e-4).passed


class TestTotalLoss:
    def _parts(self, gan=0.2, anchor=0.3, sparsity=0.4, inv=0.5):
        mk = lambda v: ad.input_node(np.array([[v]]))
        return objective.GeneratorLossParts(gan=mk(gan), anchor=mk(anchor),
                                            sparsity=mk(sparsity), inv=mk(inv))

    def test_zero_weights_reduce_to_gan_term(self):
        weights = objective.LossWeights(anchor=0.0, sparsity=0.0, inv=0.0)
        node = objective.total_generator_loss(self._parts(), weights)
        assert node.value[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_unit_weights_sum(self):
        weights = objective.LossWeights(anchor=1.0, sparsity=1.0, inv=1.0)
        node = objective.total_generator_loss(self._parts(), weights)
        assert node.value[0, 0] == pytest.approx(1.4, abs=1e-12)

    def test_missing_part_with_positive_weight_rejected(self):
        parts = objective.GeneratorLossParts(gan=ad.input_node(np.array([[0.1]])))
        with pytest.raises(ValueError, match="anchor"):
            objective.total_generator_loss(parts, objective.LossWeights())

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            objective.LossWeights(anchor=-0.1)

"""Analytic values and gradient checks for the four loss terms."""

import dataclasses
import itertools

import numpy as np
import pytest

from anchordt import autodiff as ad
from anchordt import nets, objective
from anchordt.sparsity import ProbeSpec, batched_jvp_graph, draw_probe, jacobian_graph
from rebuild_gradcheck import rebuild_gradcheck
from reference_pass import jacobian_sweep, preactivations


def arrays(model):
    return nets.param_order(model.weights, model.biases)


def zero_logit_discriminator() -> nets.MlpModel:
    """All-zero weights and biases: logit exactly 0 everywhere."""
    model = nets.init_mlp((2, 4, 1), seed=0)
    for w in model.weights:
        w[:] = 0.0
    return model


def identity_model(d=2) -> nets.MlpModel:
    return nets.MlpModel(layer_sizes=(d, d), weights=[np.eye(d)],
                         biases=[np.zeros((d, 1))])


def linear_model(a) -> nets.MlpModel:
    a = np.asarray(a, dtype=np.float64)
    return nets.MlpModel(layer_sizes=(a.shape[1], a.shape[0]),
                         weights=[a.copy()], biases=[np.zeros((a.shape[0], 1))])


def exact_sparsity_loss(generator: nets.MlpBinding, x) -> ad.Node:
    """The exact-mode term as the trainer builds it: over the generator's
    pass over x."""
    return objective.sparsity_loss(generator, x, ProbeSpec(1), "exact-jacobian-l1",
                                   fake=generator(ad.input_node(x)))


def biased_identity(offset) -> nets.MlpModel:
    model = identity_model(len(offset))
    model.biases[0][:, 0] = offset
    return model


class TestGanLosses:
    def test_uninformative_discriminator_values(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=1))
        disc = nets.bind(zero_logit_discriminator())
        rng = np.random.default_rng(0)
        dl, gl = objective.gan_losses(gen, disc, rng.standard_normal((2, 8)),
                                      rng.standard_normal((2, 8)))
        assert dl.value[0, 0] == pytest.approx(2 * np.log(2.0), abs=1e-12)
        assert gl.value[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_discriminator_on_disjoint_supports(self):
        # 1D: logit 50 v, so +-50 on +-1 inputs: the loss is tiny, and its
        # gradient still is not zero
        gen = nets.bind(identity_model(1))
        disc = nets.bind(linear_model(np.array([[50.0]])))
        x = np.full((1, 16), -1.0)
        y = np.full((1, 16), 1.0)
        dl, _ = objective.gan_losses(gen, disc, x, y, detach_generator=True)
        assert 0.0 < dl.value[0, 0] < 1e-20
        ad.backward(dl)
        assert disc.weight_nodes[0].grad[0, 0] != 0.0

    def test_generator_gradient_matches_finite_differences(self):
        gen = nets.init_mlp((2, 4, 2), seed=3)
        disc = nets.init_mlp((2, 4, 1), seed=4)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        build = lambda: objective.gan_losses(nets.bind(gen), nets.bind(disc), x, y)[1]
        assert rebuild_gradcheck(build, arrays(gen) + arrays(disc)) < 1e-4

    def test_discriminator_gradient_matches_finite_differences(self):
        gen = nets.init_mlp((2, 4, 2), seed=6)
        disc = nets.init_mlp((2, 4, 1), seed=7)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        build = lambda: objective.gan_losses(nets.bind(gen), nets.bind(disc), x, y)[0]
        assert rebuild_gradcheck(build, arrays(gen) + arrays(disc)) < 1e-4

    def test_detached_generator_receives_no_gradient(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=9))
        disc = nets.bind(nets.init_mlp((2, 4, 1), seed=10))
        rng = np.random.default_rng(11)
        dl, _ = objective.gan_losses(gen, disc, rng.standard_normal((2, 6)),
                                     rng.standard_normal((2, 6)),
                                     detach_generator=True)
        grads = ad.backward(dl)
        assert all(node not in grads for node in gen.param_nodes)

    def test_detached_generator_builds_no_generator_loss(self, monkeypatch):
        softpluses = []
        original = ad.softplus
        monkeypatch.setattr(ad, "softplus", lambda a: softpluses.append(a) or original(a))
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=9))
        disc = nets.bind(nets.init_mlp((2, 4, 1), seed=10))
        rng = np.random.default_rng(11)
        losses = objective.gan_losses(gen, disc, rng.standard_normal((2, 6)),
                                      rng.standard_normal((2, 6)),
                                      detach_generator=True)
        assert losses[1] is None
        assert len(softpluses) == 2   # softplus(-l(y)) and softplus(l(g(x))) alone

    def test_empty_batch_rejected(self):
        gen = nets.bind(identity_model())
        disc = nets.bind(zero_logit_discriminator())
        with pytest.raises(ValueError, match="nonempty"):
            objective.gan_losses(gen, disc, np.empty((2, 0)), np.ones((2, 3)))

    def test_r1_penalty_increases_disc_loss_and_gradchecks(self):
        gen_model = nets.init_mlp((2, 4, 2), seed=12)
        disc_model = nets.init_mlp((2, 4, 1), seed=13)
        gen = nets.bind(gen_model)
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        plain, _ = objective.gan_losses(gen, nets.bind(disc_model), x, y)
        reg, _ = objective.gan_losses(gen, nets.bind(disc_model), x, y,
                                      r1_weight=3.0)
        assert reg.value[0, 0] > plain.value[0, 0]
        build = lambda: objective.gan_losses(nets.bind(gen_model), nets.bind(disc_model),
                                             x, y, r1_weight=3.0)[0]
        assert rebuild_gradcheck(build, arrays(gen_model) + arrays(disc_model)) < 1e-4

    def test_r1_penalty_gives_the_reference_bits_in_value_and_gradients(self):
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=12), frozen=True)
        disc_model = nets.init_mlp((2, 8, 8, 1), seed=13)
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        y[:, 3] = 0.0   # exact-zero pre-activations take the slope-1 side
        assert (preactivations(disc_model, y)[0] == 0).any()
        disc, ref = nets.bind(disc_model), nets.bind(disc_model)
        loss, _ = objective.gan_losses(gen, disc, x, y, r1_weight=3.0,
                                       detach_generator=True)
        plain, _ = objective.gan_losses(gen, ref, x, y, detach_generator=True)
        penalty = ad.node_sum(ad.square(jacobian_sweep(ref.weight_nodes, disc_model, y)))
        want = ad.add(plain, ad.scale(penalty, 0.5 * 3.0 / 5))
        assert loss.value.tobytes() == want.value.tobytes()
        got, expected = ad.backward(loss), ad.backward(want)
        for a, b in zip(disc.param_nodes, ref.param_nodes):
            assert got[a].tobytes() == expected[b].tobytes()

    def test_r1_penalty_runs_one_forward_pass_for_all_directions(self, monkeypatch):
        passes = []
        original = nets.MlpBinding.__call__

        def counted(binding, x):
            passes.append(x.value.shape)
            return original(binding, x)

        monkeypatch.setattr(nets.MlpBinding, "__call__", counted)
        gen = nets.bind(nets.init_mlp((2, 4, 2), seed=12))
        disc = nets.bind(nets.init_mlp((2, 4, 1), seed=13))
        rng = np.random.default_rng(14)
        objective.gan_losses(gen, disc, rng.standard_normal((2, 5)),
                             rng.standard_normal((2, 5)), r1_weight=1.0,
                             detach_generator=True)
        # the fake and the real batch alone: the penalty reads the
        # real-batch pass
        assert passes == [(2, 5), (2, 5)]


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
        gen = nets.init_mlp((2, 4, 2), seed=15)
        rng = np.random.default_rng(16)
        anchors = objective.AnchorSet(x=rng.standard_normal((2, 3)),
                                      y=rng.standard_normal((2, 3)))
        build = lambda: objective.anchor_loss(nets.bind(gen), anchors)
        assert rebuild_gradcheck(build, arrays(gen)) < 1e-4


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
        gen_model = nets.init_mlp((2, 4, 2), seed=17)
        rec_model = nets.init_mlp((2, 4, 2), seed=18)
        gen, rec = nets.bind(gen_model), nets.bind(rec_model)
        x = np.random.default_rng(2).standard_normal((2, 5))
        grads = ad.backward(objective.inv_loss(gen, rec, x))
        assert any(np.abs(grads[p]).max() > 0 for p in gen.param_nodes)
        assert any(np.abs(grads[p]).max() > 0 for p in rec.param_nodes)
        build = lambda: objective.inv_loss(nets.bind(gen_model), nets.bind(rec_model), x)
        assert rebuild_gradcheck(build, arrays(gen_model) + arrays(rec_model)) < 1e-4

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
        x = np.random.default_rng(0).standard_normal((2, 6))
        node = exact_sparsity_loss(nets.bind(identity_model(2)), x)
        assert node.value[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_exact_mode_equals_mean_jacobian_l1(self):
        model = nets.init_mlp((2, 8, 2), seed=21)
        x = np.random.default_rng(4).standard_normal((2, 5))
        node = exact_sparsity_loss(nets.bind(model), x)

        def jacobian_at(n):
            # the JVPs along the identity directions at x_n
            out = nets.bind(model)(ad.input_node(np.repeat(x[:, n:n + 1], 2, axis=1)))
            return batched_jvp_graph(out, np.eye(2)).value

        jacobians = [jacobian_at(n) for n in range(5)]
        expected = np.mean([np.abs(j).sum() for j in jacobians])
        assert node.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_linear_generator_masked_fd_equals_l1_of_az(self):
        a = np.array([[1.0, -2.0], [3.0, 0.5]])
        spec = ProbeSpec(1, perturbation_scale=0.05, probes_per_sample=1)
        seed = 99
        x = np.random.default_rng(1).standard_normal((2, 4))
        node = objective.sparsity_loss(nets.bind(linear_model(a)), x, spec,
                                       "masked-fd", np.random.default_rng(seed))
        # replay the identical probe stream, one block of 4, to build the oracle
        probes = draw_probe(spec, 2, np.random.default_rng(seed), 4).probe
        expected = np.abs(a @ probes).sum(axis=0).mean()
        assert node.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_masked_fd_mean_matches_independent_monte_carlo(self):
        # linear map makes the surrogate exact, so the loss estimates
        # E_z ||A z||_1; compare against a direct MC oracle of that quantity
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        spec = ProbeSpec(2, perturbation_scale=0.01, probes_per_sample=16)
        x = rng.standard_normal((3, 64))
        node = objective.sparsity_loss(nets.bind(linear_model(a)), x, spec,
                                       "masked-fd", np.random.default_rng(7))
        oracle_rng = np.random.default_rng(1234)
        oracle = np.array([np.abs(a @ draw_probe(spec, 3, oracle_rng).probe).sum()
                           for _ in range(4096)])
        se = oracle.std(ddof=1) * np.sqrt(1 / 4096 + 1 / (64 * 16))
        assert abs(node.value[0, 0] - oracle.mean()) < 3 * se

    @pytest.mark.parametrize("mask_size", [1, 2, 4])
    def test_masked_fd_expectation_is_the_masked_row_norm_sum(self, mask_size):
        # a linear map makes the difference quotient exactly A z, so the
        # loss estimates sqrt(2/pi) E_M sum_r ||A_{r,M}||_2 over the C(D, S)
        # equally likely masks M
        d, n, rounds = 4, 64, 16
        rng = np.random.default_rng(8)
        a = np.where(rng.random((d, d)) < 0.6, rng.standard_normal((d, d)), 0.0)
        masks = [list(m) for m in itertools.combinations(range(d), mask_size)]
        closed = np.sqrt(2 / np.pi) * np.mean(
            [np.linalg.norm(a[:, m], axis=1).sum() for m in masks])
        if mask_size == 1:
            assert closed == pytest.approx(np.sqrt(2 / np.pi) / d * np.abs(a).sum(),
                                           rel=1e-12)
        spec = ProbeSpec(mask_size, perturbation_scale=0.01, probes_per_sample=rounds)
        x = rng.standard_normal((d, n))
        node = objective.sparsity_loss(nets.bind(linear_model(a)), x, spec,
                                       "masked-fd", np.random.default_rng(9))
        # the loss's own probes give the standard error of its mean
        probes = draw_probe(spec, d, np.random.default_rng(9), n * rounds).probe
        terms = np.abs(a @ probes).sum(axis=0)
        assert node.value[0, 0] == pytest.approx(terms.mean(), rel=1e-9)
        se = terms.std(ddof=1) / np.sqrt(terms.size)
        assert abs(node.value[0, 0] - closed) < 4 * se

    def test_masked_fd_equals_jacobian_l1_on_a_linear_piece(self):
        # the net is linear between x and x + delta z when no hidden
        # pre-activation changes sign on the way, and there the finite
        # difference is J(x) z up to rounding
        model = nets.init_mlp((2, 8, 2), seed=13)
        x = np.array([[0.3, -0.7, 1.1], [-0.2, 0.5, 0.4]])
        spec = ProbeSpec(1, perturbation_scale=1e-3, probes_per_sample=2)
        node = objective.sparsity_loss(nets.bind(model), x, spec, "masked-fd",
                                       np.random.default_rng(17))
        probes = draw_probe(spec, 2, np.random.default_rng(17), 3 * 2).probe
        jac = jacobian_graph(nets.bind(model)(ad.input_node(x))).value   # column k N + n
        total = 0.0
        for r in range(2):
            z = probes[:, 3 * r:3 * r + 3]
            moved = preactivations(model, x + spec.perturbation_scale * z)
            for a, b in zip(preactivations(model, x)[:-1], moved[:-1]):
                assert ((a >= 0) == (b >= 0)).all()
            total += sum(np.abs(jac[:, n::3] @ z[:, n]).sum() for n in range(3))
        assert node.value[0, 0] == pytest.approx(total / (3 * 2), rel=1e-10)

    def test_masked_fd_draws_one_probe_block_per_call(self, monkeypatch):
        calls = []

        def counted(spec, dimension, rng, count=1):
            calls.append((dimension, count))
            return draw_probe(spec, dimension, rng, count)

        monkeypatch.setattr(objective, "draw_probe", counted)
        spec = ProbeSpec(1, probes_per_sample=3)
        x = np.random.default_rng(2).standard_normal((2, 5))
        objective.sparsity_loss(nets.bind(identity_model()), x, spec, "masked-fd",
                                np.random.default_rng(3))
        assert calls == [(2, 5 * 3)]

    def test_masked_fd_requires_rng(self):
        gen = nets.bind(identity_model())
        with pytest.raises(ValueError, match="rng"):
            objective.sparsity_loss(gen, np.ones((2, 3)), ProbeSpec(1),
                                    "masked-fd")

    def test_unknown_mode_rejected(self):
        gen = nets.bind(identity_model())
        with pytest.raises(ValueError, match="mode"):
            objective.sparsity_loss(gen, np.ones((2, 3)), ProbeSpec(1), "l2")

    def test_exact_mode_gives_the_same_bits_with_and_without_fake(self):
        model = nets.init_mlp((2, 6, 6, 2), seed=24)
        x = np.random.default_rng(5).standard_normal((2, 7))
        results = []
        for shared in (False, True):
            gen = nets.bind(model)
            fake = gen(ad.input_node(x)) if shared else None
            node = objective.sparsity_loss(gen, x, ProbeSpec(1), "exact-jacobian-l1",
                                           fake=fake)
            ad.backward(node)
            results.append([node.value.tobytes()]
                           + [gen.gradient().tobytes()])
        assert results[0] == results[1]

    def test_exact_mode_gradcheck(self):
        model = nets.init_mlp((2, 5, 2), seed=22)
        x = np.random.default_rng(8).standard_normal((2, 4)) + 0.4
        assert min(np.abs(p).min() for p in preactivations(model, x)) > 1e-3
        build = lambda: exact_sparsity_loss(nets.bind(model), x)
        assert rebuild_gradcheck(build, arrays(model), 1e-6) < 1e-4

    def test_masked_fd_gradcheck(self):
        model = nets.init_mlp((2, 5, 2), seed=23)
        x = np.random.default_rng(9).standard_normal((2, 3)) + 0.3
        spec = ProbeSpec(2, perturbation_scale=0.05, probes_per_sample=2)
        # the same probes at every rebuild
        build = lambda: objective.sparsity_loss(nets.bind(model), x, spec, "masked-fd",
                                                np.random.default_rng(10))
        assert rebuild_gradcheck(build, arrays(model), 1e-6) < 1e-4


class TestRebuildGradcheck:
    """Every loss term through MlpBinding graphs, checked against the loss
    rebuilt at each perturbed weight, so masks frozen at build time are
    recomputed too."""

    STEP, TOLERANCE = 1e-6, 1e-4

    @pytest.fixture
    def nets3(self):
        gen = nets.init_mlp((2, 6, 6, 2), seed=31)
        disc = nets.init_mlp((2, 6, 6, 1), seed=32)
        rec = nets.init_mlp((2, 6, 6, 2), seed=33)
        rng = np.random.default_rng(34)
        x, y = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        # no leaky kink within reach of the step
        fake = gen.apply(x)
        for model, batch in ((gen, x), (disc, y), (disc, fake), (rec, fake)):
            assert min(np.abs(a).min() for a in preactivations(model, batch)) > 1e-4
        return gen, disc, rec, x, y

    def check(self, build, *models):
        err = rebuild_gradcheck(build, [a for m in models for a in arrays(m)], self.STEP)
        assert err < self.TOLERANCE

    def test_anchor(self, nets3):
        gen, _, _, x, y = nets3
        anchors = objective.AnchorSet(x=x[:, :2], y=y[:, :2])
        self.check(lambda: objective.anchor_loss(nets.bind(gen), anchors), gen)

    def test_inv(self, nets3):
        gen, _, rec, x, _ = nets3
        self.check(lambda: objective.inv_loss(nets.bind(gen), nets.bind(rec), x), gen, rec)

    def test_gan_generator(self, nets3):
        gen, disc, _, x, _ = nets3
        self.check(lambda: objective.gan_losses(nets.bind(gen), nets.bind(disc, frozen=True),
                                                x, None)[1], gen)

    def test_gan_discriminator(self, nets3):
        gen, disc, _, x, y = nets3
        self.check(lambda: objective.gan_losses(nets.bind(gen, frozen=True), nets.bind(disc),
                                                x, y, detach_generator=True)[0], disc)

    @pytest.mark.parametrize("r1_weight", [1.0, 3.0])
    def test_gan_discriminator_r1(self, nets3, r1_weight):
        gen, disc, _, x, y = nets3
        self.check(lambda: objective.gan_losses(nets.bind(gen, frozen=True), nets.bind(disc),
                                                x, y, r1_weight=r1_weight,
                                                detach_generator=True)[0], disc)

    def test_sparsity_exact_jacobian(self, nets3):
        gen, _, _, x, _ = nets3
        self.check(lambda: exact_sparsity_loss(nets.bind(gen), x), gen)

    def test_sparsity_masked_fd(self, nets3):
        gen, _, _, x, _ = nets3
        spec = ProbeSpec(1, perturbation_scale=0.05, probes_per_sample=2)
        # the same probes at every rebuild
        self.check(lambda: objective.sparsity_loss(nets.bind(gen), x, spec, "masked-fd",
                                                   np.random.default_rng(35)), gen)

    def test_sees_a_frozen_constant_that_gradcheck_misses(self):
        # loss sum(w * w0) with w0 a frozen copy of w: backward returns w0,
        # the true gradient of sum(w * w) is 2 w
        w = np.random.default_rng(36).standard_normal((2, 3))

        def build():
            node = ad.parameter(w)
            return ad.node_sum(ad.elementwise_mul(node, ad.input_node(w.copy())))

        # a check that keeps the constant from the first build, as one that
        # re-evaluates the same graph does, agrees with backward
        w0 = w.copy()
        same_graph = lambda: ad.node_sum(ad.elementwise_mul(ad.parameter(w),
                                                            ad.input_node(w0)))
        assert rebuild_gradcheck(same_graph, [w], 1e-6) < 1e-4
        assert rebuild_gradcheck(build, [w], 1e-6) > 0.1


class TestTotalLoss:
    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            objective.LossWeights(anchor=-0.1)

    def test_each_weight_names_one_terms_row_in_table_order(self):
        names = [f.name for f in dataclasses.fields(objective.LossWeights)]
        assert names == list(objective.TERMS) == ["anchor", "sparsity", "inv"]

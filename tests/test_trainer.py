"""The anchors train() draws, the generator step's weighted total and the
builders it calls, the lifetime of a step's graph, the checks train() makes
before its first step, and the divergence it reports."""

import copy
import dataclasses
import sys
import weakref

import numpy as np
import pytest

from anchordt import autodiff as ad
from anchordt import nets, objective, trainer
from anchordt.objective import LossWeights
from anchordt.sparsity import ProbeSpec
from anchordt.synthdata import PairedDataset, SynthConfig, generate, select_anchors
from anchordt.trainer import TrainConfig


@pytest.fixture(scope="module")
def splits():
    return generate(SynthConfig(num_train=200, num_test=32, seed=1))


def test_train_scores_the_anchors_drawn_with_its_count_and_seed(splits, monkeypatch):
    train_split, test_split = splits
    scored = []
    original = objective.anchor_loss

    def recording(gen_b, anchors):
        scored.append(anchors)
        return original(gen_b, anchors)

    monkeypatch.setattr(objective, "anchor_loss", recording)
    draws = set()
    for count in (1, 3):
        for seed in (0, 1):
            cfg = TrainConfig(anchor_count=count, seed=seed, iterations=2, batch_size=16,
                              diag_interval=0)
            trainer.train(cfg, train_split, test_split)
            want = select_anchors(train_split, count, seed)
            # one anchor term a generator step, each on the same draw
            assert len(scored) == 2
            for anchors in scored:
                assert anchors.x.shape == (count, 2)
                assert anchors.x.tobytes() == want.x.tobytes()
                assert anchors.y.tobytes() == want.y.tobytes()
            draws.add(want.x.tobytes())
            scored.clear()
    assert len(draws) == 4


@pytest.mark.parametrize("anchor, sparsity, inv", [
    (0.7, 0.0, 1.3), (0.0, 0.25, 1.3), (0.7, 0.25, 0.0), (0.7, 0.25, 1.3)])
def test_traced_total_is_the_weighted_sum_of_the_terms(splits, anchor, sparsity, inv):
    train_split, test_split = splits
    weights = LossWeights(anchor=anchor, sparsity=sparsity, inv=inv)
    cfg = TrainConfig(weights=weights, iterations=3, batch_size=16, diag_interval=0)
    losses = trainer.train(cfg, train_split, test_split).losses
    expected = losses["gen"]
    # gan + anchor + sparsity + inv, each weighted, in that order
    for name in ("anchor", "sparsity", "inv"):
        weight = getattr(weights, name)
        if weight == 0.0:
            assert (losses[name] == 0.0).all()
        else:
            assert (losses[name] != 0.0).all()
            expected = expected + weight * losses[name]
    assert losses["total"].tobytes() == expected.tobytes()


def count_builder_calls(monkeypatch) -> dict:
    """Replace each term's loss function with a counting wrapper in every
    anchordt module that binds it, as a profiler that rebinds module
    attributes does; returns the counts, by function name."""
    counts = {}
    modules = [m for key, m in sys.modules.items()
               if key == "anchordt" or key.startswith("anchordt.")]
    for name in ("anchor_loss", "sparsity_loss", "inv_loss"):
        original, counts[name] = getattr(objective, name), 0

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return counts


@pytest.mark.parametrize("inv", [1.0, 0.0])
def test_a_generator_step_calls_the_rebound_builder_of_each_weighted_term(monkeypatch,
                                                                         inv):
    counts = count_builder_calls(monkeypatch)
    cfg = TrainConfig(weights=LossWeights(inv=inv), batch_size=16)
    models, _, probe_rng = trainer._init_models(cfg, 2)
    states = trainer.Networks(*(nets.adam_init(model) for model in models))
    rec_flat, rec_state = models.reconstructor.flat.copy(), copy.deepcopy(states.reconstructor)
    rng = np.random.default_rng(0)
    anchors = PairedDataset(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)), 0.0)
    trainer._generator_step(cfg, models, states, rng.standard_normal((2, cfg.batch_size)),
                            anchors, probe_rng)
    assert counts == {"anchor_loss": 1, "sparsity_loss": 1, "inv_loss": int(inv > 0)}
    rec_unchanged = (models.reconstructor.flat.tobytes() == rec_flat.tobytes()
                     and states.reconstructor.m.tobytes() == rec_state.m.tobytes()
                     and states.reconstructor.v.tobytes() == rec_state.v.tobytes()
                     and states.reconstructor.step_count == rec_state.step_count)
    # with inv off no term takes the reconstructor in, so nothing of it moves
    assert rec_unchanged == (inv == 0.0)


def test_one_iteration_makes_three_discriminator_passes(splits, monkeypatch):
    train_split, test_split = splits
    cfg = TrainConfig(iterations=1, batch_size=16, diag_interval=0)
    passes = []
    original = nets.MlpBinding.__call__

    def counted(binding, x):
        passes.append(binding.model.layer_sizes)
        return original(binding, x)

    monkeypatch.setattr(nets.MlpBinding, "__call__", counted)
    trainer.train(cfg, train_split, test_split)
    # the discriminator step scores a real and a fake batch, the generator
    # step the fake batch alone
    assert passes.count((2, *cfg.disc_hidden, 1)) == 3


def test_the_discriminator_steps_backward_stops_at_the_generator_pass(monkeypatch):
    # the fake batch is a frozen generator's pass: only the discriminator's
    # six parameters take gradients, and no backprop runs on, or hands an
    # adjoint to, a node of the generator pass
    cfg = TrainConfig(batch_size=16)
    models, _, _ = trainer._init_models(cfg, 2)
    states = trainer.Networks(*(nets.adam_init(model) for model in models))
    roots, fakes, backprops = [], [], []
    original_backward, original_gan_losses = ad.backward, trainer.gan_losses
    monkeypatch.setattr(ad, "backward",
                        lambda root: roots.append(root) or original_backward(root))
    monkeypatch.setattr(trainer, "gan_losses", lambda disc, fake, *args, **kwargs: (
        fakes.append(fake) or original_gan_losses(disc, fake, *args, **kwargs)))
    for kind, backprop in ad._OPS.items():
        monkeypatch.setitem(ad._OPS, kind, lambda node, wanted, backprop=backprop: (
            backprops.append((node, wanted)) or backprop(node, wanted)))
    rng = np.random.default_rng(0)
    trainer._disc_step(models, states, rng.standard_normal((2, 16)),
                       rng.standard_normal((2, 16)))
    # the batch, the generator's six arrays as inputs and its three layers
    generator_pass = set(ad.topo_order(fakes[0]))
    assert sorted(node.kind for node in generator_pass) == ["dense"] * 3 + ["input"] * 7
    assert all(node.value.base is models.generator.flat for node in generator_pass
               if node.kind == "input" and node.shape[1] != 16)
    carrying = [node for node in ad.topo_order(roots[0])
                if node.grad is not None and node is not roots[0]]
    assert len(carrying) == 6
    assert all(node.kind == "parameter" and node.value.base is models.discriminator.flat
               for node in carrying)
    assert backprops and not any(node in generator_pass for node, _ in backprops)
    for node, wanted in backprops:
        assert not any(w for p, w in zip(node.parents, wanted) if p in generator_pass)


@pytest.mark.parametrize("mode", ["exact-jacobian-l1", "masked-fd"])
def test_no_earlier_steps_graph_is_alive_when_a_step_runs_backward(splits, monkeypatch,
                                                                   mode):
    train_split, test_split = splits
    cfg = TrainConfig(iterations=3, batch_size=16, diag_interval=0, sparsity_mode=mode)
    roots = []
    original = ad.backward

    def recording(root):
        assert [ref() for ref in roots] == [None] * len(roots)
        roots.append(weakref.ref(root))
        return original(root)

    monkeypatch.setattr(ad, "backward", recording)
    trainer.train(cfg, train_split, test_split)
    # a discriminator and a generator step per iteration
    assert len(roots) == 6


def test_a_masked_fd_generator_steps_graph_holds_under_8_mb(monkeypatch):
    # every array a node holds, its value and any in its meta, parameters
    # excluded, at the default batch and widths: 12.5 MB while each leaky
    # dense node kept a float64 derivative
    cfg = TrainConfig(sparsity_mode="masked-fd")
    models, _, probe_rng = trainer._init_models(cfg, 2)
    rng = np.random.default_rng(0)
    anchors = PairedDataset(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)), 0.0)
    roots = []
    original = ad.backward

    def recording(root):
        roots.append(root)
        return original(root)

    monkeypatch.setattr(ad, "backward", recording)
    states = trainer.Networks(*(nets.adam_init(model) for model in models))
    trainer._generator_step(cfg, models, states, rng.standard_normal((2, cfg.batch_size)),
                            anchors, probe_rng)
    held = 0
    for node in ad.topo_order(roots[0]):
        if node.kind != "parameter":
            meta = node.meta if isinstance(node.meta, tuple) else (node.meta,)
            held += node.value.nbytes + sum(m.nbytes for m in meta
                                            if isinstance(m, np.ndarray))
    assert cfg.batch_size == 1024 and held < 8 * 2 ** 20


def test_data_dimension_is_checked_before_the_first_step(splits, tmp_path, monkeypatch):
    train_split, test_split = splits
    monkeypatch.setattr(trainer, "_init_models", pytest.fail)
    cfg = TrainConfig(iterations=1, batch_size=4, probe=ProbeSpec(3))
    with pytest.raises(ValueError, match="probe.mask_size = 3 exceeds the data "
                                         "dimension D = 2"):
        trainer.train(cfg, train_split, test_split, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_anchor_count_is_checked_before_the_first_step(splits, tmp_path, monkeypatch):
    train_split, test_split = splits
    monkeypatch.setattr(trainer, "_init_models", pytest.fail)
    cfg = TrainConfig(iterations=1, batch_size=4, anchor_count=201)
    with pytest.raises(ValueError, match="requested 201 anchors from 200 pairs"):
        trainer.train(cfg, train_split, test_split, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["exact-jacobian-l1", "masked-fd"])
def test_the_data_sets_every_network_dimension(tmp_path, mode):
    rng = np.random.default_rng(5)
    y = rng.uniform(-1.0, 1.0, (40, 3))
    data = PairedDataset(x=y[:, ::-1] + 0.1 * np.cos(y), y=y, t=0.1)
    cfg = TrainConfig(iterations=1, batch_size=8, sparsity_mode=mode,
                      probe=ProbeSpec(3, probes_per_sample=2))
    trainer.train(cfg, data, data, tmp_path)
    for name, sizes in (("generator", (3, 32, 32, 3)), ("discriminator", (3, 64, 64, 1)),
                        ("reconstructor", (3, 32, 32, 3))):
        model = nets.load_checkpoint(tmp_path / f"{name}.ckpt")
        assert model.layer_sizes == sizes


@pytest.mark.parametrize("change, message", [
    ({"gen_hidden": (0,)}, "gen_hidden entry 0 must be positive"),
    ({"disc_hidden": (64, 0)}, "disc_hidden entry 0 must be positive"),
    ({"rec_hidden": (-1, 32)}, "rec_hidden entry -1 must be positive"),
    ({"batch_size": 0}, "batch_size = 0 must be positive"),
    ({"iterations": -1}, "iterations = -1 must be >= 0"),
    ({"sparsity_mode": "l1"}, "sparsity_mode 'l1'"),
    ({"seed": -1}, "seed = -1 must be >= 0"),
    ({"anchor_count": 0}, "weights.anchor > 0 needs anchor_count >= 1"),
    ({"learning_rate": 0.0}, "learning_rate = 0.0 must be positive"),
    ({"learning_rate": -1.0}, "learning_rate = -1.0 must be positive"),
    ({"learning_rate": float("nan")}, "learning_rate = nan must be positive"),
    # rows 11-17 checked the Adam settings and diag_points, now constants;
    # they are kept in place so the other rows keep their ids
    ({"learning_rate": float("inf")}, "learning_rate = inf must be finite"),
    ({"gen_hidden": "32,32"}, "gen_hidden = '32,32' must be a tuple"),
    ({"seed": float("nan")}, "seed = nan must be >= 0"),
    ({"batch_size": float("nan")}, "batch_size = nan must be positive"),
    ({"iterations": float("nan")}, "iterations = nan must be >= 0"),
    ({"diag_interval": float("nan")}, "diag_interval = nan must be >= 0"),
    ({"sparsity_mode": "masked_fd"}, "sparsity_mode 'masked_fd'"),
    ({"diag_interval": -3}, "diag_interval = -3 must be >= 0"),
    ({"anchor_count": -1}, "anchor_count = -1 must be >= 0"),
])
def test_inconsistent_config_is_rejected_naming_the_field(change, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**change)


def test_edges_of_the_valid_ranges_are_accepted():
    TrainConfig(learning_rate=5e-324, diag_interval=0,
                weights=LossWeights(anchor=0.0, sparsity=0.0, inv=0.0), anchor_count=0,
                probe=ProbeSpec(1, perturbation_scale=5e-324))


@pytest.mark.parametrize("cls, change, message", [
    (LossWeights, {"sparsity": float("nan")}, "sparsity = nan must be >= 0"),
    (LossWeights, {"anchor": float("nan")}, "anchor = nan must be >= 0"),
    (LossWeights, {"inv": float("nan")}, "inv = nan must be >= 0"),
    (LossWeights, {"anchor": -0.1}, "anchor = -0.1 must be >= 0"),
    (ProbeSpec, {"mask_size": 1, "perturbation_scale": float("nan")},
     "perturbation_scale = nan must be positive"),
    (ProbeSpec, {"mask_size": 1, "perturbation_scale": 0.0},
     "perturbation_scale = 0.0 must be positive"),
])
def test_nested_config_rejects_nan_naming_the_field(cls, change, message):
    with pytest.raises(ValueError, match=message):
        cls(**change)


# adam_step's calls, three an iteration: discriminator, generator, reconstructor
@pytest.mark.parametrize("call, network, iteration", [
    (4, "discriminator", 1), (5, "generator", 1), (15, "reconstructor", 4)])
def test_an_update_to_non_finite_parameters_aborts_naming_network_and_iteration(
        splits, tmp_path, monkeypatch, call, network, iteration):
    train_split, test_split = splits
    cfg = TrainConfig(iterations=5, batch_size=64)
    calls = []
    original = trainer.adam_step

    def poisoning(model, gradients, state):
        # the loss was finite; the update leaves an inf behind
        original(model, gradients, state)
        calls.append(model)
        if len(calls) == call:
            model.flat[0] = np.inf
        return model, state

    monkeypatch.setattr(trainer, "adam_step", poisoning)
    with pytest.raises(trainer.TrainingDiverged,
                       match=f"^non-finite {network} parameters at iteration {iteration}$"):
        trainer.train(cfg, train_split, test_split, tmp_path / "run")
    monkeypatch.undo()
    # the last-good models are a clean run's after `iteration` iterations
    clean = dataclasses.replace(cfg, iterations=iteration)
    trainer.train(clean, train_split, test_split, tmp_path / "clean")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
        sorted(trainer.Networks.files("last_good_"))
    for name in trainer.Networks.files():
        assert ((tmp_path / "run" / f"last_good_{name}").read_bytes()
                == (tmp_path / "clean" / name).read_bytes())


# calls 4, 5 and 6 of adam_step are iteration 1's discriminator, generator
# and reconstructor updates
@pytest.mark.parametrize("call, value, message", [
    (5, 2 * trainer.PARAMETER_BOUND, "generator parameters beyond ±1e3"),
    (6, -2 * trainer.PARAMETER_BOUND, "reconstructor parameters beyond ±1e3"),
    (4, np.nan, "non-finite discriminator parameters"),
], ids=["above", "below", "nan"])
def test_an_update_past_the_bound_aborts_naming_network_and_iteration(
        splits, tmp_path, monkeypatch, call, value, message):
    train_split, test_split = splits
    calls = []
    original = trainer.adam_step

    def poisoning(model, gradients, state):
        original(model, gradients, state)
        calls.append(model)
        if len(calls) == call:
            model.flat[-1] = value
        return model, state

    monkeypatch.setattr(trainer, "adam_step", poisoning)
    with pytest.raises(trainer.TrainingDiverged, match=f"^{message} at iteration 1$"):
        trainer.train(TrainConfig(iterations=3, batch_size=16), train_split, test_split,
                      tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(trainer.Networks.files("last_good_"))


def test_a_parameter_at_the_bound_is_kept(splits, monkeypatch):
    train_split, test_split = splits
    original = trainer.adam_step

    def to_the_bound(model, gradients, state):
        original(model, gradients, state)
        model.flat[-1] = -trainer.PARAMETER_BOUND
        return model, state

    monkeypatch.setattr(trainer, "adam_step", to_the_bound)
    report = trainer.train(TrainConfig(iterations=2, batch_size=16, diag_interval=0),
                           train_split, test_split)
    assert len(report.losses["total"]) == 2


def test_a_default_run_peaks_far_below_the_bound(splits, monkeypatch):
    # 200 iterations at the defaults: the bound leaves a margin of 100 at least
    train_split, test_split = splits
    peaks = []
    original = trainer.adam_step

    def recording(model, gradients, state):
        original(model, gradients, state)
        peaks.append(float(np.abs(model.flat).max()))
        return model, state

    monkeypatch.setattr(trainer, "adam_step", recording)
    trainer.train(TrainConfig(iterations=200), train_split, test_split)
    assert len(peaks) == 3 * 200
    assert max(peaks) < trainer.PARAMETER_BOUND / 100

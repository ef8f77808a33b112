"""The training sweep, the generator step's weighted total, the lifetime of
a step's graph, and the checks train() makes before its first step."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from anchordt import autodiff as ad
from anchordt import nets, trainer
from anchordt.objective import AnchorSet, LossWeights
from anchordt.sparsity import ProbeSpec
from anchordt.synthdata import PairedDataset, SynthConfig, generate, select_anchors
from anchordt.trainer import TrainConfig


@pytest.fixture(scope="module")
def splits():
    return generate(SynthConfig(num_train=200, num_test=32, seed=1))


def test_sweep_draws_each_runs_anchors_with_its_own_count_and_seed(splits):
    train_split, test_split = splits
    base = TrainConfig(iterations=2, batch_size=16, diag_interval=0)
    configs = [replace(base, anchor_count=count, seed=seed)
               for count in (1, 3) for seed in (0, 1)]
    swept = list(trainer.sweep(configs, train_split, test_split))
    assert [cfg for cfg, _ in swept] == configs
    for cfg, report in swept:
        anchors = select_anchors(train_split, cfg.anchor_count, cfg.seed)
        alone = trainer.train(cfg, train_split, anchors, test_split)
        assert (report.te_mean, report.te_std) == (alone.te_mean, alone.te_std)
    assert len({report.te_mean for _, report in swept}) == len(configs)


@pytest.mark.parametrize("anchor, sparsity, inv", [
    (0.7, 0.0, 1.3), (0.0, 0.25, 1.3), (0.7, 0.25, 0.0), (0.7, 0.25, 1.3)])
def test_traced_total_is_the_weighted_sum_of_the_terms(splits, anchor, sparsity, inv):
    train_split, test_split = splits
    weights = LossWeights(anchor=anchor, sparsity=sparsity, inv=inv)
    cfg = TrainConfig(weights=weights, iterations=3, batch_size=16, diag_interval=0)
    losses = trainer.train(cfg, train_split, select_anchors(train_split, 1, 0),
                           test_split).losses
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


def test_one_iteration_makes_three_discriminator_passes(splits, monkeypatch):
    train_split, test_split = splits
    cfg = TrainConfig(iterations=1, batch_size=16, diag_interval=0)
    passes = []
    original = nets.MlpBinding.__call__

    def counted(binding, x):
        passes.append(binding.model.layer_sizes)
        return original(binding, x)

    monkeypatch.setattr(nets.MlpBinding, "__call__", counted)
    trainer.train(cfg, train_split, select_anchors(train_split, 1, 0), test_split)
    # the discriminator step scores a real and a fake batch, the generator
    # step the fake batch alone
    assert passes.count((2, *cfg.disc_hidden, 1)) == 3


@pytest.mark.parametrize("mode", ["exact-jacobian-l1", "masked-fd"])
def test_no_earlier_steps_graph_is_alive_when_a_step_runs_backward(splits, monkeypatch,
                                                                   mode):
    train_split, test_split = splits
    cfg = TrainConfig(iterations=3, batch_size=16, diag_interval=0, sparsity_mode=mode,
                      r1_weight=1.0)
    roots = []
    original = ad.backward

    def recording(root):
        assert [ref() for ref in roots] == [None] * len(roots)
        roots.append(weakref.ref(root))
        return original(root)

    monkeypatch.setattr(ad, "backward", recording)
    trainer.train(cfg, train_split, select_anchors(train_split, 1, 0), test_split)
    # a discriminator and a generator step per iteration
    assert len(roots) == 6


def test_a_masked_fd_generator_steps_graph_holds_under_8_mb(monkeypatch):
    # every array a node holds, its value and any in its meta, parameters
    # excluded, at the default batch and widths: 12.5 MB while each leaky
    # dense node kept a float64 derivative
    cfg = TrainConfig(sparsity_mode="masked-fd")
    gen, disc, rec, _, probe_rng = trainer._init_models(cfg, 2)
    rng = np.random.default_rng(0)
    anchors = AnchorSet(rng.standard_normal((2, 1)), rng.standard_normal((2, 1)))
    roots = []
    original = ad.backward

    def recording(root):
        roots.append(root)
        return original(root)

    monkeypatch.setattr(ad, "backward", recording)
    trainer._generator_step(cfg, (gen, disc, rec), (nets.adam_init(gen), nets.adam_init(rec)),
                            rng.standard_normal((2, cfg.batch_size)), anchors, probe_rng)
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
        trainer.train(cfg, train_split, select_anchors(train_split, 1, 0), test_split,
                      tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["exact-jacobian-l1", "masked-fd"])
def test_the_data_sets_every_network_dimension(tmp_path, mode):
    rng = np.random.default_rng(5)
    y = rng.uniform(-1.0, 1.0, (40, 3))
    data = PairedDataset(x=y[:, ::-1] + 0.1 * np.cos(y), y=y, t=0.1,
                         permutation=np.eye(3)[::-1])
    cfg = TrainConfig(iterations=1, batch_size=8, sparsity_mode=mode,
                      probe=ProbeSpec(3, probes_per_sample=2))
    trainer.train(cfg, data, select_anchors(data, 1, 0), data, tmp_path)
    for name, sizes in (("generator", (3, 32, 32, 3)), ("discriminator", (3, 64, 64, 1)),
                        ("reconstructor", (3, 32, 32, 3))):
        model = nets.load_checkpoint(tmp_path / f"{name}.ckpt")
        assert model.layer_sizes == sizes


@pytest.mark.parametrize("change, message", [
    ({"gen_hidden": (0,)}, r"gen_hidden = \(0,\): widths must be positive"),
    ({"disc_hidden": (64, 0)}, r"disc_hidden = \(64, 0\)"),
    ({"rec_hidden": (-1, 32)}, r"rec_hidden = \(-1, 32\)"),
    ({"batch_size": 0}, "batch size and disc steps must be positive"),
    ({"iterations": -1}, "iterations and anchor count must be >= 0"),
    ({"sparsity_mode": "l1"}, "sparsity_mode 'l1'"),
    ({"disc_steps_per_gen_step": 0}, "batch size and disc steps must be positive"),
    ({"anchor_count": 0}, "weights.anchor > 0 needs anchor_count >= 1"),
    ({"learning_rate": 0.0}, "learning_rate = 0.0 must be positive"),
    ({"learning_rate": -1.0}, "learning_rate = -1.0 must be positive"),
    ({"learning_rate": float("nan")}, "learning_rate = nan must be positive"),
    ({"r1_weight": -1.0}, r"r1_weight = -1.0 must be >= 0"),
    ({"diag_points": 0}, "diag_points = 0 must be at least 1"),
    ({"diag_points": -5}, "diag_points = -5 must be at least 1"),
    ({"beta1": -0.1}, r"beta1 = -0.1 not in \[0, 1\)"),
    ({"beta1": 1.0}, r"beta1 = 1.0 not in \[0, 1\)"),
    ({"beta2": 1.5}, r"beta2 = 1.5 not in \[0, 1\)"),
    ({"epsilon": 0.0}, "epsilon = 0.0 must be positive"),
    ({"diag_interval": -3}, "diag_interval = -3 must be >= 0"),
])
def test_inconsistent_config_is_rejected_naming_the_field(change, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**change)


def test_edges_of_the_valid_ranges_are_accepted():
    TrainConfig(r1_weight=0.0, beta1=0.0, beta2=0.0, diag_points=1,
                learning_rate=5e-324, epsilon=5e-324, diag_interval=0,
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

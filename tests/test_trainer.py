"""The training sweep and the checks train() makes before its first step."""

from dataclasses import replace

import pytest

from anchordt import nets, trainer
from anchordt.sparsity import ProbeSpec
from anchordt.synthdata import SynthConfig, generate, select_anchors
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
        _, alone = trainer.train(cfg, train_split, anchors, test_split)
        assert (report.te_mean, report.te_std) == (alone.te_mean, alone.te_std)
    assert len({report.te_mean for _, report in swept}) == len(configs)


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
    assert passes.count(cfg.disc_sizes) == 3


def test_data_dimension_is_checked_before_the_first_step(splits):
    train_split, test_split = splits
    cfg = TrainConfig(iterations=1, batch_size=4, gen_sizes=(3, 4, 3),
                      disc_sizes=(3, 4, 1), rec_sizes=(3, 4, 3), probe=ProbeSpec(3, 1))
    with pytest.raises(ValueError, match=r"data dimension 2 != gen_sizes\[0\] = 3"):
        trainer.train(cfg, train_split, select_anchors(train_split, 1, 0), test_split)


@pytest.mark.parametrize("change, message", [
    ({"gen_sizes": (2, 8, 3)}, r"gen_sizes\[-1\] = 3 must equal rec_sizes\[0\] = 2"),
    ({"rec_sizes": (2, 8, 3)}, r"rec_sizes\[-1\] = 3 must equal gen_sizes\[0\] = 2"),
    ({"disc_sizes": (3, 8, 1)}, r"disc_sizes\[0\] = 3 must equal gen_sizes\[-1\] = 2"),
    ({"disc_sizes": (2, 8, 2)}, r"disc_sizes\[-1\] = 2 must equal"),
    ({"probe": ProbeSpec(3, 1)}, r"probe.dimension = 3 must equal gen_sizes\[0\] = 2"),
    ({"sparsity_mode": "l1"}, "sparsity_mode 'l1'"),
    ({"gen_sizes": (2,)}, "need an input and an output size"),
    ({"anchor_count": 0}, "weights.anchor > 0 needs anchor_count >= 1"),
])
def test_inconsistent_config_is_rejected_naming_the_field(change, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**change)

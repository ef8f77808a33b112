"""Typed configs read from and echoed to config-file sections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordt import configio
from anchordt.objective import SPARSITY_MODES, LossWeights
from anchordt.sparsity import ProbeSpec
from anchordt.synthdata import T_MODES, SynthConfig
from anchordt.trainer import TrainConfig

non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
# the warp amplitudes SynthConfig accepts
amplitude = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True)
counts = st.integers(0, 10**6)


@st.composite
def train_configs(draw):
    hidden = lambda: tuple(draw(st.lists(st.integers(1, 64), max_size=3)))
    weights = LossWeights(draw(non_negative), draw(non_negative), draw(non_negative))
    return TrainConfig(
        weights=weights, anchor_count=draw(st.integers(int(weights.anchor > 0), 10**6)),
        sparsity_mode=draw(st.sampled_from(SPARSITY_MODES)),
        probe=ProbeSpec(draw(st.integers(1, 64)), draw(positive),
                        draw(st.integers(1, 64))),
        learning_rate=draw(positive), batch_size=draw(st.integers(1, 10**6)),
        iterations=draw(counts), disc_steps_per_gen_step=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**63)), beta1=draw(unit), beta2=draw(unit),
        epsilon=draw(positive), gen_hidden=hidden(), disc_hidden=hidden(),
        rec_hidden=hidden(), r1_weight=draw(non_negative),
        diag_interval=draw(st.integers(min_value=0)), diag_points=draw(st.integers(min_value=1)))


def through_text(sections):
    return configio.parse(configio.serialize(sections))


@settings(max_examples=200, deadline=None)
@given(train_configs())
def test_train_config_round_trips_through_its_echo(cfg):
    sections = through_text(configio.echo(cfg, "train"))
    assert list(sections) == ["train", "weights", "probe"]
    assert configio.read(TrainConfig(), sections, "train") == cfg


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(0, 2**63),
       st.sampled_from(T_MODES), amplitude, amplitude)
def test_synth_config_round_trips_through_its_echo(n_train, n_test, seed, t_mode,
                                                   t_a, t_b):
    t_min, t_max = sorted((t_a, t_b))
    cfg = SynthConfig(num_train=n_train, num_test=n_test, seed=seed, t_mode=t_mode,
                      t_min=t_min, t_max=t_max)
    sections = through_text(configio.echo(cfg, "data"))
    back = configio.read(SynthConfig(), sections, "data")
    # the permutation matrix defeats ==, so compare the echoes
    assert configio.echo(back, "data") == configio.echo(cfg, "data")
    assert np.array_equal(back.permutation, cfg.permutation)


def test_absent_keys_keep_the_base_values_and_nested_sections_apply():
    base = TrainConfig(iterations=5)
    cfg = configio.read(base, {"train": {"seed": "4"}, "weights": {"anchor": "0"}},
                        "train")
    assert cfg == TrainConfig(iterations=5, seed=4, weights=LossWeights(anchor=0.0))


@pytest.mark.parametrize("sections, message", [
    ({"train": {"iteration": "2"}}, "[train] unknown key 'iteration'"),
    ({"probe": {"mask": "1"}}, "[probe] unknown key 'mask'"),
    ({"train": {"weights": "1"}}, "[train] unknown key 'weights'"),
    ({"train": {"iterations": "2.5"}}, "[train] iterations = '2.5'"),
    ({"train": {"gen_sizes": "2,32,32,2"}}, "[train] unknown key 'gen_sizes'"),
    ({"train": {"gen_hidden": "32,x"}}, "[train] gen_hidden = '32,x'"),
    # an outer section's unknown key is named before a nested one
    ({"train": {"disc_sizes": "2,64,64,1"}, "probe": {"dimension": "2"}},
     "[train] unknown key 'disc_sizes'"),
    ({"train": {"clamp_eps": "1e-07"}}, "[train] unknown key 'clamp_eps'"),
])
def test_unknown_key_or_unparsable_value_is_named(sections, message):
    with pytest.raises(configio.ConfigError) as info:
        configio.read(TrainConfig(), sections, "train")
    assert message in str(info.value)

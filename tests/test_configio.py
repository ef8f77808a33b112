"""Typed configs read from and echoed to config-file sections."""

import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordt import cli, configio, sparsity
from anchordt.objective import SPARSITY_MODES, LossWeights
from anchordt.sparsity import ProbeSpec
from anchordt.synthdata import SynthConfig
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
       amplitude, amplitude)
def test_synth_config_round_trips_through_its_echo(n_train, n_test, seed, t_a, t_b):
    t_min, t_max = sorted((t_a, t_b))
    cfg = SynthConfig(num_train=n_train, num_test=n_test, seed=seed,
                      t_min=t_min, t_max=t_max)
    sections = through_text(configio.echo(cfg, "data"))
    assert configio.read(SynthConfig(), sections, "data") == cfg


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
    # every unknown key of a section in one error, in the order given; one
    # unknown key reads as it always has
    ({"train": {"iteration": "2"}}, "[train] unknown key 'iteration'; known keys: "),
    ({"train": {"iteration": "2", "seed": "1", "clamp_eps": "1"}},
     "[train] unknown key 'iteration', unknown key 'clamp_eps'; known keys: "),
])
def test_unknown_key_or_unparsable_value_is_named(sections, message):
    with pytest.raises(configio.ConfigError) as info:
        configio.read(TrainConfig(), sections, "train")
    assert message in str(info.value)


@pytest.mark.parametrize("sections, message", [
    ({"train": {"batch_size": "0"}}, "[train] batch_size = 0 must be positive"),
    ({"weights": {"inv": "inf"}}, "[weights] inv = inf must be finite"),
    ({"train": {"anchor_count": "0"}}, "[train] weights.anchor > 0 needs anchor_count >= 1"),
    # a nested section names itself, and is read before its parent is checked
    ({"train": {"seed": "-1"}, "probe": {"mask_size": "0"}},
     "[probe] mask_size = 0 must be at least 1"),
])
def test_a_value_the_config_rejects_is_named_with_its_section(sections, message):
    with pytest.raises(configio.ConfigError) as info:
        configio.read(TrainConfig(), sections, "train")
    assert str(info.value) == message


# each config dataclass a verb reads, made with its defaults
VERB_CONFIGS = [SynthConfig(), TrainConfig(), LossWeights(), ProbeSpec(1),
                cli.PlotConfig(), cli.ProbeStudyConfig(), cli.MpaCheckConfig(),
                cli.SparsityCheckConfig(), cli.AblateConfig()]


def declared(cls) -> dict:
    """field name -> (type, the rules its annotation declares)."""
    fields = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        annotated = typing.get_origin(hint) is typing.Annotated
        kind, *rules = typing.get_args(hint) if annotated else (hint,)
        fields[name] = kind, rules
    return fields


def checked_leaves(cls=configio.Checked) -> set:
    """The configs derived from ``cls`` that nothing derives from; a base such
    as sparsity.ProbeStudy is covered by the verb config that extends it."""
    subs = cls.__subclasses__()
    return set().union(*map(checked_leaves, subs)) if subs else {cls}


def test_every_checked_config_is_listed():
    assert {type(cfg) for cfg in VERB_CONFIGS} == checked_leaves()


@pytest.mark.parametrize("base", VERB_CONFIGS, ids=lambda cfg: type(cfg).__name__)
def test_a_float_field_with_a_range_rejects_nan_naming_the_field(base):
    for name, (kind, rules) in declared(type(base)).items():
        if kind is not float or not rules:
            continue
        bad = [float("nan")]
        if configio.FINITE in rules:
            bad += [float("inf"), -float("inf")]
        for value in bad:
            with pytest.raises(ValueError, match=rf"^{name} = {value!r} "):
                dataclasses.replace(base, **{name: value})


def test_every_rule_is_false_at_nan():
    exported = [rule for rule in vars(configio).values() if isinstance(rule, configio.Rule)]
    assert len(exported) == 5
    rules = exported + [configio.at_least(1), configio.at_least(-5)]
    rules += [rule for cfg in VERB_CONFIGS for _, field_rules in declared(type(cfg)).values()
              for rule in field_rules]
    for rule in rules:
        assert rule.test(float("nan")) is False, rule.phrase



def probe_study(mask_sizes):
    return sparsity.ProbeStudy(20, 3, mask_sizes, 2, 2)


@pytest.mark.parametrize("make, name, given, message", [
    (cli.AblateConfig, "seeds", [0, 1], None),
    (cli.AblateConfig, "seeds", [0, 0], "seeds entry 0 is repeated"),
    (cli.AblateConfig, "seeds", [], "seeds is empty"),
    (cli.AblateConfig, "anchor_counts", range(1, 3), None),
    (TrainConfig, "gen_hidden", [8, 0], "gen_hidden entry 0 must be positive"),
    (probe_study, None, [1], None),
    (probe_study, None, [1, 1], "mask_sizes entry 1 is repeated"),
    (probe_study, None, [], "mask_sizes is empty"),
    (cli.AblateConfig, "seeds", np.array([0, 1]), None),
    (cli.AblateConfig, "cases", "full", "cases = 'full' must be a tuple"),
], ids=["list", "repeated-list", "empty-list", "range", "hidden-list",
        "probe-list", "probe-repeated-list", "probe-empty-list", "ndarray", "str"])
def test_a_sequence_given_for_a_tuple_field_is_checked_as_its_tuple(make, name, given,
                                                                    message):
    make_it = (lambda: make(given)) if name is None else (lambda: make(**{name: given}))
    if message is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_it()
        return
    value = getattr(make_it(), name or "mask_sizes")
    assert type(value) is tuple and value == tuple(given)
    assert all(type(v) is int for v in value)   # a numpy vector's entries too

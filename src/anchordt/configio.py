"""Line-oriented ``key = value`` config files with [section] headers.

Grammar, one construct per line:

    # comment (also ;) ........ ignored, as are blank lines
    [section-name] ............ starts a section
    key = value ............... entry in the current section (value is the
                                text after the first '=', stripped)

Keys must appear inside a section.  Parsing preserves order; serialize()
emits the canonical form, and parse(serialize(parse(text))) == parse(text).

The typed configs built here read only the sections they are given; the
ANCHORDT_SEED environment variable is applied once, by the CLI, as an
override of the running verb's seed entry (see anchordt.cli), so a replay
from a manifest sees only the recorded config.
"""

from __future__ import annotations

import numpy as np

from .objective import LossWeights
from .sparsity import ProbeSpec
from .synthdata import SynthConfig
from .trainer import TrainConfig

class ConfigError(ValueError):
    """Malformed config text or unusable values."""


def parse(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: entry before any [section]")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def serialize(sections: dict[str, dict[str, str]]) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def load(path) -> dict[str, dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(sections, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(sections))


def _get(sections, section, key, cast, default):
    try:
        raw = sections[section][key]
    except KeyError:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_matrix(raw: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in raw.split(";")])


def _parse_sizes(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(","))


def synth_config(sections) -> SynthConfig:
    """[data] section -> SynthConfig (defaults for anything absent)."""
    g = lambda key, cast, default: _get(sections, "data", key, cast, default)
    base = SynthConfig()
    return SynthConfig(
        num_train=g("num_train", int, base.num_train),
        num_test=g("num_test", int, base.num_test),
        seed=g("seed", int, base.seed),
        permutation=g("permutation", _parse_matrix, base.permutation),
        t_mode=g("t_mode", str, base.t_mode),
        t_range=(g("t_min", float, base.t_range[0]),
                 g("t_max", float, base.t_range[1])),
    )


def train_config(sections) -> TrainConfig:
    """[train], [weights] and [probe] sections -> TrainConfig."""
    t = lambda key, cast, default: _get(sections, "train", key, cast, default)
    w = lambda key, cast, default: _get(sections, "weights", key, cast, default)
    p = lambda key, cast, default: _get(sections, "probe", key, cast, default)
    base = TrainConfig()
    weights = LossWeights(
        anchor=w("anchor", float, base.weights.anchor),
        sparsity=w("sparsity", float, base.weights.sparsity),
        inv=w("inv", float, base.weights.inv),
    )
    probe = ProbeSpec(
        dimension=p("dimension", int, base.probe.dimension),
        mask_size=p("mask_size", int, base.probe.mask_size),
        perturbation_scale=p("perturbation_scale", float,
                             base.probe.perturbation_scale),
        probes_per_sample=p("probes_per_sample", int, base.probe.probes_per_sample),
    )
    return TrainConfig(
        weights=weights,
        probe=probe,
        anchor_count=t("anchor_count", int, base.anchor_count),
        sparsity_mode=t("sparsity_mode", str, base.sparsity_mode),
        learning_rate=t("learning_rate", float, base.learning_rate),
        batch_size=t("batch_size", int, base.batch_size),
        iterations=t("iterations", int, base.iterations),
        disc_steps_per_gen_step=t("disc_steps_per_gen_step", int,
                                  base.disc_steps_per_gen_step),
        seed=t("seed", int, base.seed),
        beta1=t("beta1", float, base.beta1),
        beta2=t("beta2", float, base.beta2),
        epsilon=t("epsilon", float, base.epsilon),
        gen_sizes=t("gen_sizes", _parse_sizes, base.gen_sizes),
        disc_sizes=t("disc_sizes", _parse_sizes, base.disc_sizes),
        rec_sizes=t("rec_sizes", _parse_sizes, base.rec_sizes),
        clamp_eps=t("clamp_eps", float, base.clamp_eps),
        r1_weight=t("r1_weight", float, base.r1_weight),
        diag_interval=t("diag_interval", int, base.diag_interval),
        diag_points=t("diag_points", int, base.diag_points),
    )


def _fmt(v: float) -> str:
    return format(v, ".17g")


def train_config_sections(cfg: TrainConfig) -> dict[str, dict[str, str]]:
    """Echo a TrainConfig back into config-file sections (for manifests)."""
    return {
        "train": {
            "anchor_count": str(cfg.anchor_count),
            "sparsity_mode": cfg.sparsity_mode,
            "learning_rate": _fmt(cfg.learning_rate),
            "batch_size": str(cfg.batch_size),
            "iterations": str(cfg.iterations),
            "disc_steps_per_gen_step": str(cfg.disc_steps_per_gen_step),
            "seed": str(cfg.seed),
            "beta1": _fmt(cfg.beta1),
            "beta2": _fmt(cfg.beta2),
            "epsilon": _fmt(cfg.epsilon),
            "gen_sizes": ",".join(str(s) for s in cfg.gen_sizes),
            "disc_sizes": ",".join(str(s) for s in cfg.disc_sizes),
            "rec_sizes": ",".join(str(s) for s in cfg.rec_sizes),
            "clamp_eps": _fmt(cfg.clamp_eps),
            "r1_weight": _fmt(cfg.r1_weight),
            "diag_interval": str(cfg.diag_interval),
            "diag_points": str(cfg.diag_points),
        },
        "weights": {
            "anchor": _fmt(cfg.weights.anchor),
            "sparsity": _fmt(cfg.weights.sparsity),
            "inv": _fmt(cfg.weights.inv),
        },
        "probe": {
            "dimension": str(cfg.probe.dimension),
            "mask_size": str(cfg.probe.mask_size),
            "perturbation_scale": _fmt(cfg.probe.perturbation_scale),
            "probes_per_sample": str(cfg.probe.probes_per_sample),
        },
    }


def synth_config_sections(cfg: SynthConfig) -> dict[str, dict[str, str]]:
    return {
        "data": {
            "num_train": str(cfg.num_train),
            "num_test": str(cfg.num_test),
            "seed": str(cfg.seed),
            "permutation": ";".join(",".join(_fmt(v) for v in row)
                                    for row in cfg.permutation),
            "t_mode": cfg.t_mode,
            "t_min": _fmt(cfg.t_range[0]),
            "t_max": _fmt(cfg.t_range[1]),
        }
    }

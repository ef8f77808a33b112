"""Alternating adversarial training of the transfer map, plus evaluation and
a sweep that trains a list of configs in turn.

One iteration draws independent unpaired minibatches, takes the configured
number of discriminator steps, then one combined generator+reconstructor
step on the weighted total loss.  Each step runs in a helper that returns
its losses as floats, so a step's graph and bindings live only within the
step, and the next step is built with neither held.  Everything is
seeded through a single SeedSequence so identical configs and data give
bit-identical traces.  A config names the networks' hidden widths alone:
train() builds their sizes (D, *hidden, D) and (D, *hidden, 1) from the
dimension D of the data.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .nets import (MlpModel, adam_init, adam_step, bind, init_mlp,
                   save_checkpoint)
from .objective import (SPARSITY_MODES, AnchorSet, GeneratorLossParts, LossWeights,
                        anchor_loss, gan_losses, inv_loss, sparsity_loss,
                        total_generator_loss)
from .sparsity import ProbeSpec
from .stats import energy_distance
from .synthdata import PairedDataset, select_anchors


class TrainingDiverged(RuntimeError):
    """A loss went non-finite; carries the last-good checkpoint paths."""

    def __init__(self, message, checkpoints=None):
        super().__init__(message)
        self.checkpoints = checkpoints or {}


@dataclass
class TrainConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    anchor_count: int = 1
    sparsity_mode: str = "exact-jacobian-l1"
    probe: ProbeSpec = field(default_factory=lambda: ProbeSpec(1, 0.01, 8))
    learning_rate: float = 1e-3
    batch_size: int = 1024
    iterations: int = 7000
    disc_steps_per_gen_step: int = 1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    # hidden-layer widths; the input and output sizes come from the data
    gen_hidden: tuple[int, ...] = (32, 32)
    disc_hidden: tuple[int, ...] = (64, 64)
    rec_hidden: tuple[int, ...] = (32, 32)
    r1_weight: float = 0.0
    diag_interval: int = 500
    diag_points: int = 512

    def __post_init__(self):
        if min(self.batch_size, self.disc_steps_per_gen_step) < 1:
            raise ValueError("batch size and disc steps must be positive")
        if self.iterations < 0 or self.anchor_count < 0:
            raise ValueError("iterations and anchor count must be >= 0")
        if self.weights.anchor > 0 and self.anchor_count < 1:
            raise ValueError("weights.anchor > 0 needs anchor_count >= 1")
        if self.sparsity_mode not in SPARSITY_MODES:
            raise ValueError(f"sparsity_mode {self.sparsity_mode!r} is not one of "
                             f"{SPARSITY_MODES}")
        for name in ("gen_hidden", "disc_hidden", "rec_hidden"):
            if min(getattr(self, name), default=1) < 1:
                raise ValueError(f"{name} = {getattr(self, name)}: widths must be positive")
        # each written so that NaN fails it too
        for name in ("learning_rate", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be positive")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} = {getattr(self, name)!r} not in [0, 1)")
        if not self.r1_weight >= 0:
            raise ValueError(f"r1_weight = {self.r1_weight!r} must be >= 0")
        if self.diag_interval < 0:   # 0 turns the diagnostics off
            raise ValueError(f"diag_interval = {self.diag_interval} must be >= 0")
        if self.diag_points < 1:
            raise ValueError(f"diag_points = {self.diag_points} must be at least 1")


@dataclass
class TrainedModels:
    generator: MlpModel
    discriminator: MlpModel
    reconstructor: MlpModel


@dataclass
class RunReport:
    losses: dict                  # name -> np.ndarray over iterations
    diagnostics: list             # (iteration, energy distance) snapshots
    te_mean: float | None
    te_std: float | None
    wall_time: float

    def trace_csv_lines(self) -> list[str]:
        names = list(self.losses)
        lines = ["iteration," + ",".join(names)]
        n = len(self.losses[names[0]]) if names else 0
        for i in range(n):
            vals = ",".join(format(self.losses[k][i], ".17g") for k in names)
            lines.append(f"{i},{vals}")
        return lines

    def diag_csv_lines(self) -> list[str]:
        lines = ["iteration,energy_distance"]
        for it, val in self.diagnostics:
            lines.append(f"{it},{format(val, '.17g')}")
        return lines


def translation_error(generator: MlpModel, test: PairedDataset) -> tuple[float, float]:
    """Per-sample (1/sqrt(D)) ||g(x) - y||_2 over aligned test pairs: (mean, std)."""
    if len(test) == 0:
        raise ValueError("empty test set")
    pred = generator.apply(test.x.T)
    d = test.x.shape[1]
    te = np.linalg.norm(pred - test.y.T, axis=0) / np.sqrt(d)
    return float(te.mean()), float(te.std())


def _init_models(config: TrainConfig, d: int):
    seeds = np.random.SeedSequence(config.seed).spawn(5)
    gen = init_mlp((d, *config.gen_hidden, d), seeds[0])
    disc = init_mlp((d, *config.disc_hidden, 1), seeds[1])
    rec = init_mlp((d, *config.rec_hidden, d), seeds[2])
    batch_rng = np.random.default_rng(seeds[3])
    probe_rng = np.random.default_rng(seeds[4])
    return gen, disc, rec, batch_rng, probe_rng


def _disc_step(config: TrainConfig, gen: MlpModel, disc: MlpModel, state, xb, yb) -> float:
    """One discriminator step; returns its loss, after the update when it is
    finite and with nothing updated when it is not.  The fake batch is
    detached: no gradient path into the generator is needed."""
    gen_b, disc_b = bind(gen, frozen=True), bind(disc)
    loss, _ = gan_losses(gen_b, disc_b, xb, yb, r1_weight=config.r1_weight,
                         detach_generator=True)
    value = float(loss.value[0, 0])
    if np.isfinite(value):
        ad.backward(loss)
        adam_step(disc, disc_b.gradients(), state)
    return value


def _generator_step(config: TrainConfig, models, states, xb, anchors: AnchorSet,
                    probe_rng) -> dict:
    """One generator + reconstructor step on the combined objective; returns
    the trace's gen, anchor, sparsity, inv and total losses (0.0 for a term
    that is off), after the updates when the total is finite and with
    nothing updated when it is not.

    The discriminator is frozen, and g(x) is built once and shared by the
    adversarial, round-trip and sparsity terms.
    """
    (gen, disc, rec), (gen_state, rec_state), w = models, states, config.weights
    gen_b, disc_b, rec_b = bind(gen), bind(disc, frozen=True), bind(rec)
    fake = gen_b(ad.input_node(xb, "x-batch"))
    _, gen_part = gan_losses(gen_b, disc_b, xb, None, fake=fake)
    parts = GeneratorLossParts(gan=gen_part)
    if w.anchor > 0:
        parts.anchor = anchor_loss(gen_b, anchors)
    if w.sparsity > 0:
        parts.sparsity = sparsity_loss(gen_b, xb, config.probe, config.sparsity_mode,
                                       probe_rng, fake=fake)
    if w.inv > 0:
        parts.inv = inv_loss(gen_b, rec_b, xb, fake=fake)
    total = total_generator_loss(parts, w)
    terms = {"gen": gen_part, "anchor": parts.anchor, "sparsity": parts.sparsity,
             "inv": parts.inv, "total": total}
    losses = {k: 0.0 if node is None else float(node.value[0, 0])
              for k, node in terms.items()}
    if np.isfinite(losses["total"]):
        ad.backward(total)
        adam_step(gen, gen_b.gradients(), gen_state)
        if w.inv > 0:
            adam_step(rec, rec_b.gradients(), rec_state)
    return losses


def train(config: TrainConfig, train_data: PairedDataset, anchors: AnchorSet,
          test_data: PairedDataset | None = None, out_dir=None):
    """Run the full alternating loop; returns (TrainedModels, RunReport).

    The data's dimension D sizes the networks.  A probe mask wider than D
    is rejected before any model or out_dir exists.  Aborts with
    TrainingDiverged on a non-finite loss, leaving last-good checkpoints in
    out_dir when one is given.  With zero iterations the freshly
    initialized models are evaluated as-is.
    """
    d = train_data.x.shape[1]
    if config.probe.mask_size > d:
        raise ValueError(f"probe.mask_size = {config.probe.mask_size} exceeds the "
                         f"data dimension D = {d}")
    if config.weights.anchor > 0 and anchors.size < config.anchor_count:
        raise ValueError(f"config expects {config.anchor_count} anchors, got {anchors.size}")
    gen, disc, rec, batch_rng, probe_rng = _init_models(config, d)
    gen_state = adam_init(gen, config.learning_rate, config.beta1, config.beta2,
                          config.epsilon)
    disc_state = adam_init(disc, config.learning_rate, config.beta1, config.beta2,
                           config.epsilon)
    rec_state = adam_init(rec, config.learning_rate, config.beta1, config.beta2,
                          config.epsilon)
    x_all, y_all = train_data.x, train_data.y
    n = len(train_data)
    names = ("disc", "gen", "anchor", "sparsity", "inv", "total")
    trace = {k: np.zeros(config.iterations) for k in names}
    diagnostics = []
    last_good = None
    start = time.perf_counter()

    def snapshot():
        return (gen.copy(), disc.copy(), rec.copy())

    def abort(iteration, reason):
        checkpoints = {}
        if out_dir is not None and last_good is not None:
            os.makedirs(out_dir, exist_ok=True)
            for name, model in zip(("generator", "discriminator", "reconstructor"),
                                   last_good):
                path = os.path.join(out_dir, f"last_good_{name}.ckpt")
                save_checkpoint(model, path)
                checkpoints[name] = path
        raise TrainingDiverged(
            f"non-finite {reason} loss at iteration {iteration}", checkpoints)

    for it in range(config.iterations):
        last_good = snapshot()
        # discriminator step(s), fresh unpaired minibatches each
        for _ in range(config.disc_steps_per_gen_step):
            xb = x_all[batch_rng.integers(0, n, config.batch_size)].T
            yb = y_all[batch_rng.integers(0, n, config.batch_size)].T
            trace["disc"][it] = _disc_step(config, gen, disc, disc_state, xb, yb)
            if not np.isfinite(trace["disc"][it]):
                abort(it, "discriminator")

        xb = x_all[batch_rng.integers(0, n, config.batch_size)].T
        # the step scores no real batch, but its draw keeps batch_rng's stream
        batch_rng.integers(0, n, config.batch_size)
        losses = _generator_step(config, (gen, disc, rec), (gen_state, rec_state), xb,
                                 anchors, probe_rng)
        if not np.isfinite(losses["total"]):
            abort(it, "generator")
        for key, value in losses.items():
            trace[key][it] = value

        if test_data is not None and config.diag_interval > 0 and (
                it % config.diag_interval == 0 or it == config.iterations - 1):
            k = min(config.diag_points, len(test_data))
            moved = gen.apply(test_data.x[:k].T).T
            diagnostics.append((it, energy_distance(moved, test_data.y[:k])))

    wall = time.perf_counter() - start
    te_mean = te_std = None
    if test_data is not None:
        te_mean, te_std = translation_error(gen, test_data)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(gen, os.path.join(out_dir, "generator.ckpt"))
        save_checkpoint(disc, os.path.join(out_dir, "discriminator.ckpt"))
        save_checkpoint(rec, os.path.join(out_dir, "reconstructor.ckpt"))
    report = RunReport(losses=trace, diagnostics=diagnostics, te_mean=te_mean,
                       te_std=te_std, wall_time=wall)
    return TrainedModels(generator=gen, discriminator=disc, reconstructor=rec), report


def sweep(configs, train_data: PairedDataset, test_data: PairedDataset):
    """Train each config in turn; yields (config, RunReport) as runs finish.

    Each run draws its own config.anchor_count anchors with its own
    config.seed, so a seed varies both the networks and the anchor draw.
    """
    for config in configs:
        anchors = select_anchors(train_data, config.anchor_count, config.seed)
        _, report = train(config, train_data, anchors, test_data)
        yield config, report

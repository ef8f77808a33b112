"""Alternating adversarial training of the transfer map, and its evaluation.

train() owns a run.  It draws the run's anchors from the training split with
config.seed, and keeps the three networks, and their Adam states, in Networks
records whose field names are the checkpoint names.  One iteration draws
independent unpaired minibatches, takes the configured number of
discriminator steps, then one combined generator+reconstructor step on the
weighted total loss.  Each step runs in a helper that returns its losses as
floats, so a step's graph and bindings live only within the step.  Every
draw is seeded through config.seed, so identical configs and data give
bit-identical traces.  A config names the networks' hidden widths alone:
train() builds their sizes (D, *hidden, D) and (D, *hidden, 1) from the data.

cli.main, not train(), sets the process's allocator to keep one step's freed
heap for the next, so train() called in-process runs slower.  At batch 1024
(2-vCPU Xeon, one BLAS thread) exact mode read 189-198 it/s without the
setting, about 1,050 minor page faults an iteration, against 238-246 with it;
masked-fd read 126-129 against 157-158.  Run grids through the ablate verb.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

import numpy as np

from . import autodiff as ad
from .configio import FINITE, NON_NEGATIVE, POSITIVE, Checked, Rule, at_least
from .nets import MlpModel, adam_init, adam_step, bind, init_mlp, save_checkpoint
from .objective import SPARSITY_MODES, TERMS, AnchorSet, LossWeights, gan_losses
from .sparsity import ProbeSpec
from .stats import energy_distance
from .synthdata import PairedDataset, select_anchors


class TrainingDiverged(RuntimeError):
    """A loss, or a network's parameters after an update, went non-finite."""


class Networks(NamedTuple):
    """One item per network of a run (a model, or its Adam state); each
    field name is the name of that network's checkpoint."""
    generator: object
    discriminator: object
    reconstructor: object

    @classmethod
    def files(cls, prefix: str = "") -> list[str]:
        """The checkpoint file names, in field order."""
        return [f"{prefix}{name}.ckpt" for name in cls._fields]

    def save(self, out_dir, prefix: str = "") -> None:
        """Write each model to out_dir, under its name in files(prefix)."""
        os.makedirs(out_dir, exist_ok=True)
        for model, name in zip(self, self.files(prefix)):
            save_checkpoint(model, os.path.join(out_dir, name))


# an Adam moment decay
DECAY = Rule(lambda b: 0 <= b < 1, "not in [0, 1)")


@dataclass
class TrainConfig(Checked):
    weights: LossWeights = field(default_factory=LossWeights)
    anchor_count: Annotated[int, NON_NEGATIVE] = 1
    sparsity_mode: str = "exact-jacobian-l1"
    probe: ProbeSpec = field(default_factory=lambda: ProbeSpec(1, 0.01, 8))
    learning_rate: Annotated[float, POSITIVE, FINITE] = 1e-3
    batch_size: Annotated[int, POSITIVE] = 1024
    iterations: Annotated[int, NON_NEGATIVE] = 7000
    disc_steps_per_gen_step: Annotated[int, POSITIVE] = 1
    seed: Annotated[int, NON_NEGATIVE] = 0
    beta1: Annotated[float, DECAY] = 0.9
    beta2: Annotated[float, DECAY] = 0.999
    epsilon: Annotated[float, POSITIVE, FINITE] = 1e-8
    # hidden-layer widths; the input and output sizes come from the data
    gen_hidden: Annotated[tuple[int, ...], POSITIVE] = (32, 32)
    disc_hidden: Annotated[tuple[int, ...], POSITIVE] = (64, 64)
    rec_hidden: Annotated[tuple[int, ...], POSITIVE] = (32, 32)
    r1_weight: Annotated[float, NON_NEGATIVE, FINITE] = 0.0
    # 0 turns the diagnostics off
    diag_interval: Annotated[int, NON_NEGATIVE] = 500
    diag_points: Annotated[int, at_least(1)] = 512

    def __post_init__(self):
        super().__post_init__()
        if self.weights.anchor > 0 and self.anchor_count < 1:
            raise ValueError("weights.anchor > 0 needs anchor_count >= 1")
        if self.sparsity_mode not in SPARSITY_MODES:
            raise ValueError(f"sparsity_mode {self.sparsity_mode!r} is not one of "
                             f"{SPARSITY_MODES}")


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
    models = Networks(init_mlp((d, *config.gen_hidden, d), seeds[0]),
                      init_mlp((d, *config.disc_hidden, 1), seeds[1]),
                      init_mlp((d, *config.rec_hidden, d), seeds[2]))
    batch_rng = np.random.default_rng(seeds[3])
    probe_rng = np.random.default_rng(seeds[4])
    return models, batch_rng, probe_rng


def _disc_step(config: TrainConfig, models: Networks, states: Networks, xb, yb) -> float:
    """One discriminator step; returns its loss, after the update when it is
    finite and with nothing updated when it is not.  The fake batch is
    detached: no gradient path into the generator is needed."""
    disc = models.discriminator
    gen_b, disc_b = bind(models.generator, frozen=True), bind(disc)
    loss, _ = gan_losses(gen_b, disc_b, xb, yb, r1_weight=config.r1_weight,
                         detach_generator=True)
    value = float(loss.value[0, 0])
    if np.isfinite(value):
        ad.backward(loss)
        adam_step(disc, disc_b.gradient(), states.discriminator)
    return value


def _generator_step(config: TrainConfig, models: Networks, states: Networks, xb,
                    anchors: AnchorSet, probe_rng) -> dict:
    """One generator + reconstructor step on the combined objective: the
    adversarial term plus, in ``objective.TERMS`` order, each row whose weight
    is positive times that weight; returns the gen, total and built rows'
    losses, after the updates when the total is finite, with none when not.

    The discriminator is frozen, g(x) is built once and shared by every term,
    and the reconstructor is updated when a row took it into the graph.
    """
    (gen, disc, rec), w = models, config.weights
    gen_b, disc_b, rec_b = bind(gen), bind(disc, frozen=True), bind(rec)
    fake = gen_b(ad.input_node(xb, "x-batch"))
    _, gen_part = gan_losses(gen_b, disc_b, xb, None, fake=fake)
    terms = {name: build(gen=gen_b, rec=rec_b, x=xb, fake=fake, anchors=anchors,
                         probe=config.probe, mode=config.sparsity_mode, rng=probe_rng)
             for name, build in TERMS.items() if getattr(w, name) > 0}
    total = gen_part
    for name, node in terms.items():
        total = ad.add(total, ad.scale(node, getattr(w, name)))
    losses = {k: float(node.value[0, 0])
              for k, node in {"gen": gen_part, **terms, "total": total}.items()}
    if np.isfinite(losses["total"]):
        ad.backward(total)
        adam_step(gen, gen_b.gradient(), states.generator)
        if any(node.grad is not None for node in rec_b.param_nodes):
            adam_step(rec, rec_b.gradient(), states.reconstructor)
    return losses


def train(config: TrainConfig, train_data: PairedDataset,
          test_data: PairedDataset | None = None, out_dir=None) -> RunReport:
    """Run the full alternating loop; returns its RunReport.

    The data's dimension D sizes the networks.  A probe mask wider than D,
    or more anchors than the training split holds, is rejected before any
    model or out_dir exists.  Aborts with TrainingDiverged on a non-finite
    loss or updated network, leaving in out_dir, when one is given, the
    models as they were at the start of the failing iteration, as
    last_good_{name}.ckpt.  With zero iterations the freshly initialized
    models are evaluated as-is.
    """
    d = train_data.x.shape[1]
    if config.probe.mask_size > d:
        raise ValueError(f"probe.mask_size = {config.probe.mask_size} exceeds the "
                         f"data dimension D = {d}")
    anchors = select_anchors(train_data, config.anchor_count, config.seed)
    models, batch_rng, probe_rng = _init_models(config, d)
    states = Networks(*(adam_init(model, config.learning_rate, config.beta1,
                                  config.beta2, config.epsilon) for model in models))
    x_all, y_all = train_data.x, train_data.y
    n = len(train_data)
    trace = {k: np.zeros(config.iterations) for k in ("disc", "gen", *TERMS, "total")}
    diagnostics = []
    start = time.perf_counter()

    def abort(iteration, what):
        if out_dir is not None:
            last_good.save(out_dir, "last_good_")
        raise TrainingDiverged(f"non-finite {what} at iteration {iteration}")

    def check(iteration, loss, *updated):
        # a step's loss is named after the first network it updates; a finite
        # loss can still update a network to non-finite parameters
        if not np.isfinite(loss):
            abort(iteration, f"{updated[0]} loss")
        for name in updated:
            if not np.isfinite(getattr(models, name).flat).all():
                abort(iteration, f"{name} parameters")

    # a diverging step overflows on its way to a non-finite loss; the
    # finite checks report that in one line, which numpy's warnings would bury
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(config.iterations):
            last_good = Networks(*(model.copy() for model in models))
            # discriminator step(s), fresh unpaired minibatches each
            for _ in range(config.disc_steps_per_gen_step):
                xb = x_all[batch_rng.integers(0, n, config.batch_size)].T
                yb = y_all[batch_rng.integers(0, n, config.batch_size)].T
                trace["disc"][it] = _disc_step(config, models, states, xb, yb)
                check(it, trace["disc"][it], "discriminator")

            xb = x_all[batch_rng.integers(0, n, config.batch_size)].T
            # the step scores no real batch, but its draw keeps batch_rng's stream
            batch_rng.integers(0, n, config.batch_size)
            losses = _generator_step(config, models, states, xb, anchors, probe_rng)
            check(it, losses["total"], "generator", "reconstructor")
            for key, value in losses.items():
                trace[key][it] = value

            if test_data is not None and config.diag_interval > 0 and (
                    it % config.diag_interval == 0 or it == config.iterations - 1):
                k = min(config.diag_points, len(test_data))
                moved = models.generator.apply(test_data.x[:k].T).T
                diagnostics.append((it, energy_distance(moved, test_data.y[:k])))

    wall = time.perf_counter() - start
    te_mean = te_std = None
    if test_data is not None:
        te_mean, te_std = translation_error(models.generator, test_data)
    if out_dir is not None:
        models.save(out_dir)
    return RunReport(losses=trace, diagnostics=diagnostics, te_mean=te_mean,
                     te_std=te_std, wall_time=wall)

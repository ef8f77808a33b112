"""Loss terms for adversarial transfer-map training.

All losses are scalar graph nodes built through MlpBindings, so several
terms can share one network's parameter nodes and a single backward pass
accumulates the combined gradient.  Every network is leaky-relu with an
identity output, so the discriminator outputs a logit, and the Jacobian
terms (the exact l1 term, R1) are exact almost everywhere: each goes
through ``sparsity.jacobian_graph``, which reads the masks and slope held
by the dense nodes of a pass already built and rebuilds the activation
derivatives from them with ``autodiff.leaky_derivative``.  ``TERMS`` is the
table of the weighted generator terms, one row a ``LossWeights`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import autodiff as ad
from .configio import FINITE, NON_NEGATIVE, Checked
from .nets import MlpBinding
from .sparsity import ProbeSpec, draw_probe, jacobian_graph

SPARSITY_MODES = ("exact-jacobian-l1", "masked-fd")


@dataclass
class LossWeights(Checked):
    anchor: Annotated[float, NON_NEGATIVE, FINITE] = 1.0
    sparsity: Annotated[float, NON_NEGATIVE, FINITE] = 0.1
    inv: Annotated[float, NON_NEGATIVE, FINITE] = 1.0


@dataclass
class AnchorSet:
    """Aligned pairs, stored as (D, E) column blocks."""
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError("anchor x and y counts differ")

    @property
    def size(self) -> int:
        return self.x.shape[1]


def _as_batch(batch) -> np.ndarray:
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"expected a nonempty (D, N) batch, got shape {arr.shape}")
    return arr


def gan_losses(generator: MlpBinding, discriminator: MlpBinding,
               x_batch, y_batch, *, r1_weight: float = 0.0,
               fake: ad.Node | None = None, detach_generator: bool = False):
    """Adversarial pair of scalar nodes (discriminator loss, generator loss).

    The discriminator outputs a logit l.  The discriminator loss is
    mean softplus(-l(y)) + mean softplus(l(g(x))), the negated log score
    -[mean log s(l(y)) + mean log(1 - s(l(g(x))))] of s = sigmoid; the
    generator uses the non-saturating form
    mean softplus(-l(g(x))) = -mean log s(l(g(x))) (Goodfellow et al. 2014).
    softplus is finite at any finite logit, so nothing is clamped.

    With ``y_batch=None`` only the generator loss is built, and the pair is
    (None, generator loss): the discriminator never sees a real batch, which
    is what a generator-only step wants.

    ``fake`` lets a caller reuse an existing g(x) node so other loss terms
    can share the subgraph.  ``detach_generator`` feeds g(x) in as a
    constant (same values, no gradient path to the generator) and builds no
    generator loss, so the pair is (discriminator loss, None), which is what
    a discriminator-only step wants.

    With r1_weight > 0 the discriminator loss additionally penalizes
    (r1_weight / 2) * mean ||grad_y l(y)||^2 on the real batch (R1,
    Mescheder et al. 2018), one ``jacobian_graph`` sweep over the
    real-batch pass, exact almost everywhere.  Off by default.
    """
    x_batch = _as_batch(x_batch)
    if fake is None:
        if detach_generator:
            fake = ad.input_node(generator.model.apply(x_batch), "g(x)-detached")
        else:
            fake = generator(ad.input_node(x_batch, "x-batch"))
    l_fake = discriminator(fake)
    gen_loss = None
    if not detach_generator:
        gen_loss = ad.mean(ad.softplus(ad.scale(l_fake, -1.0)))
    if y_batch is None:
        return None, gen_loss
    y_batch = _as_batch(y_batch)
    l_real = discriminator(ad.input_node(y_batch, "y-batch"))
    disc_loss = ad.add(ad.mean(ad.softplus(ad.scale(l_real, -1.0))),
                       ad.mean(ad.softplus(l_fake)))
    if r1_weight > 0.0:
        grads = jacobian_graph(l_real)
        penalty = ad.node_sum(ad.square(grads))
        disc_loss = ad.add(disc_loss, ad.scale(penalty, 0.5 * r1_weight / y_batch.shape[1]))
    return disc_loss, gen_loss


def anchor_loss(generator: MlpBinding, anchors: AnchorSet) -> ad.Node:
    """Mean squared residual over the aligned pairs: mean_l ||g(x_l) - y_l||_2^2."""
    if anchors.size == 0:
        raise ValueError("anchor loss needs at least one aligned pair")
    pred = generator(ad.input_node(anchors.x, "anchor-x"))
    diff = ad.subtract(pred, ad.input_node(anchors.y, "anchor-y"))
    return ad.scale(ad.node_sum(ad.square(diff)), 1.0 / anchors.size)


def inv_loss(generator: MlpBinding, reconstructor: MlpBinding, x_batch,
             fake: ad.Node | None = None) -> ad.Node:
    """Round-trip penalty mean ||f(g(x)) - x||_1; grads reach both networks.

    ``fake`` reuses an existing g(x) node for the same x_batch.
    """
    x_batch = _as_batch(x_batch)
    if reconstructor.model.input_dim != generator.model.output_dim:
        raise ValueError("reconstructor input dim must match generator output dim")
    x_node = ad.input_node(x_batch, "x-batch")
    if fake is None:
        fake = generator(x_node)
    roundtrip = reconstructor(fake)
    return ad.scale(ad.abs_sum(ad.subtract(roundtrip, x_node)), 1.0 / x_batch.shape[1])


def sparsity_loss(generator: MlpBinding, x_batch, spec: ProbeSpec, mode: str,
                  rng: np.random.Generator | None = None,
                  fake: ad.Node | None = None) -> ad.Node:
    """Jacobian-sparsity penalty over the batch, in one of two modes, on the
    generator pass over x_batch ``fake`` (built here when None).

    exact-jacobian-l1: batch mean of ||J(x)||_1, assembled from the
    per-layer linearizations with that pass's activation derivatives
    frozen.  All D basis directions go through one ``jacobian_graph``
    sweep, so the cost is one widened forward pass, not D per-sample graphs.

    masked-fd: batch mean of ||(g(x + delta*z) - g(x)) / delta||_1, g(x)
    that pass, with a fresh sparse Gaussian probe per sample, averaged over
    spec.probes_per_sample rounds.  Every probe comes from one
    ``draw_probe`` block of N * probes_per_sample probes: its index block,
    then its Gaussian block, S draws a probe of each, spread into the dense
    (D, N * probes_per_sample) ``probe`` block; round r takes columns
    r*N .. r*N + N - 1.  Needs ``rng``.

    The two modes minimize different things.  Where g is linear between x
    and x + delta*z the quotient is J(x) z, and given the mask M row r of
    J z is N(0, ||J_{r,M}||_2^2); so masked-fd has the expectation
    sqrt(2/pi) E_M sum_r ||J_{r,M}||_2, batch-averaged.  At S = 1 that is
    (sqrt(2/pi)/D) ||J||_1, the exact term times 0.40 at D = 2 and 0.10 at
    D = 8; at S = D it is sqrt(2/pi) sum_r ||J_r||_2, a row-group norm.
    """
    x_batch = _as_batch(x_batch)
    d, n = x_batch.shape
    if mode not in SPARSITY_MODES:
        raise ValueError(f"unknown sparsity mode {mode!r}; options: {SPARSITY_MODES}")
    if mode == "masked-fd" and rng is None:
        raise ValueError("masked-fd mode needs an rng")
    base = fake if fake is not None else generator(ad.input_node(x_batch, "x-batch"))
    if mode == "exact-jacobian-l1":
        return ad.scale(ad.abs_sum(jacobian_graph(base)), 1.0 / n)
    delta = spec.perturbation_scale
    probes = draw_probe(spec, d, rng, n * spec.probes_per_sample).probe
    total = None
    for r in range(spec.probes_per_sample):
        z = probes[:, r * n:(r + 1) * n]
        pert = generator(ad.input_node(x_batch + delta * z, "x-perturbed"))
        term = ad.abs_sum(ad.subtract(pert, base))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / (delta * n * spec.probes_per_sample))


# The weighted generator terms, in the order the generator step adds them:
# a row's name is its LossWeights field, and its builder takes the step's
# pieces by keyword.  Each builder looks its loss up here when called, so a
# rebound module attribute (a profiler's wrapper) is the one called.
TERMS = {
    "anchor": lambda gen, anchors, **_: anchor_loss(gen, anchors),
    "sparsity": lambda gen, x, fake, probe, mode, rng, **_: sparsity_loss(
        gen, x, probe, mode, rng, fake=fake),
    "inv": lambda gen, rec, x, fake, **_: inv_loss(gen, rec, x, fake=fake),
}

"""Loss terms for adversarial transfer-map training.

All losses are scalar graph nodes built through MlpBindings, so several
terms can share one network's parameter nodes and a single backward pass
accumulates the combined gradient.  Every network is leaky-relu with an
identity output, so the discriminator outputs a logit, and the exact l1
term is exact almost everywhere: it goes through
``sparsity.jacobian_graph``, which reads the masks held by the dense nodes
of a pass already built and rebuilds the activation derivatives from them
with ``autodiff.leaky_derivative``.  ``TERMS`` is the table of the weighted
generator terms, one row a ``LossWeights`` field.
Anchors are ``synthdata.PairedDataset`` rows; batches are (D, N) column
blocks, checked by the ``autodiff.input_node`` each one enters the graph as.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import autodiff as ad
from .configio import FINITE, NON_NEGATIVE, Checked
from .nets import MlpBinding
from .sparsity import ProbeSpec, draw_probe, jacobian_graph
from .synthdata import PairedDataset

SPARSITY_MODES = ("exact-jacobian-l1", "masked-fd")


@dataclass
class LossWeights(Checked):
    anchor: Annotated[float, NON_NEGATIVE, FINITE] = 1.0
    sparsity: Annotated[float, NON_NEGATIVE, FINITE] = 0.1
    inv: Annotated[float, NON_NEGATIVE, FINITE] = 1.0


def gan_losses(discriminator: MlpBinding, fake: ad.Node, y_batch=None, *,
               detach_generator: bool = False):
    """Adversarial pair of scalar nodes (discriminator loss, generator loss)
    on ``fake``, a g(x) node the caller built.

    The discriminator outputs a logit l.  The discriminator loss is
    mean softplus(-l(y)) + mean softplus(l(g(x))), the negated log score
    -[mean log s(l(y)) + mean log(1 - s(l(g(x))))] of s = sigmoid; the
    generator uses the non-saturating form
    mean softplus(-l(g(x))) = -mean log s(l(g(x))) (Goodfellow et al. 2014).
    softplus is finite at any finite logit, so nothing is clamped.

    With ``y_batch=None`` only the generator loss is built, and the pair is
    (None, generator loss): the discriminator never sees a real batch, which
    is what a generator step wants, passing the g(x) its other terms share.

    ``detach_generator`` says ``fake`` is a frozen generator binding's pass,
    which no gradient leaves for the generator, and builds no generator
    loss: the pair is (discriminator loss, None), as a discriminator step wants.
    """
    l_fake = discriminator(fake)
    gen_loss = None
    if not detach_generator:
        gen_loss = ad.mean(ad.softplus(ad.scale(l_fake, -1.0)))
    if y_batch is None:
        return None, gen_loss
    l_real = discriminator(ad.input_node(y_batch, "y-batch"))
    disc_loss = ad.add(ad.mean(ad.softplus(ad.scale(l_real, -1.0))),
                       ad.mean(ad.softplus(l_fake)))
    return disc_loss, gen_loss


def anchor_loss(generator: MlpBinding, anchors: PairedDataset) -> ad.Node:
    """Mean squared residual over the aligned pairs, the rows of ``anchors``:
    mean_l ||g(x_l) - y_l||_2^2."""
    pred = generator(ad.input_node(anchors.x.T, "anchor-x"))
    diff = ad.subtract(pred, ad.input_node(anchors.y.T, "anchor-y"))
    return ad.scale(ad.node_sum(ad.square(diff)), 1.0 / len(anchors))


def inv_loss(generator: MlpBinding, reconstructor: MlpBinding, x_batch,
             fake: ad.Node | None = None) -> ad.Node:
    """Round-trip penalty mean ||f(g(x)) - x||_1; grads reach both networks.

    ``fake`` reuses an existing g(x) node for the same x_batch.
    """
    if reconstructor.model.input_dim != generator.model.output_dim:
        raise ValueError("reconstructor input dim must match generator output dim")
    x_node = ad.input_node(x_batch, "x-batch")
    if fake is None:
        fake = generator(x_node)
    roundtrip = reconstructor(fake)
    return ad.scale(ad.abs_sum(ad.subtract(roundtrip, x_node)), 1.0 / x_node.shape[1])


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
    if mode not in SPARSITY_MODES:
        raise ValueError(f"unknown sparsity mode {mode!r}; options: {SPARSITY_MODES}")
    if mode == "masked-fd" and rng is None:
        raise ValueError("masked-fd mode needs an rng")
    base = fake if fake is not None else generator(ad.input_node(x_batch, "x-batch"))
    d, n = np.shape(x_batch)
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
# pieces by keyword: ``anchors`` is a PairedDataset of aligned rows, ``x``
# the (D, N) batch and ``fake`` g(x).  Each builder looks its loss up here
# when called, so a rebound module attribute (a profiler's wrapper) is the
# one called.
TERMS = {
    "anchor": lambda gen, anchors, **_: anchor_loss(gen, anchors),
    "sparsity": lambda gen, x, fake, probe, mode, rng, **_: sparsity_loss(
        gen, x, probe, mode, rng, fake=fake),
    "inv": lambda gen, rec, x, fake, **_: inv_loss(gen, rec, x, fake=fake),
}

"""anchordt: anchored, sparsity-regularized transfer maps between laws on R^D.

Learns an invertible map from a source to a target distribution from
unpaired samples plus one (or a few) aligned anchor pairs, regularized by
the entrywise l1 norm of the map's Jacobian; ships the randomized
sparse-probe estimator of the Jacobian's nonzero count with its closed-form
expectation, and a numeric verification suite for the one-dimensional
measure-preserving-automorphism facts that make the anchor decisive.
"""

from .autodiff import GraphError, Node, backward
from .nets import (AdamState, MlpModel, adam_init, adam_step, bind, init_mlp,
                   load_checkpoint, save_checkpoint)
from .objective import LossWeights, anchor_loss, gan_losses, inv_loss, sparsity_loss
from .sparsity import (ProbeSample, ProbeSpec, ProbeStudy, check_structural_sparsity,
                       draw_probe, probe_bias_variance_study)
from .synthdata import (PairedDataset, SynthConfig, generate, load_dataset,
                        save_dataset, select_anchors, warp)
from .trainer import (RunReport, TrainConfig, TrainingDiverged, train,
                      translation_error)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Small fully-connected networks: init, forward passes, Adam, checkpoints.

Weights are stored (n_out, n_in) and biases (n_out, 1), acting on column
batches, so a layer is ``W @ x + b``.  Hidden activations are leaky-relu
with slope 0.2; the output layer is identity, tanh, or sigmoid.  Each
model's per-layer activation list is derived once, when the model is built,
from the activation table in ``autodiff``; the plain numpy forward pass
(``MlpModel``) and the graph forward pass (``MlpBinding``) both walk it.
The graph pass builds one ``autodiff.dense`` node per layer, and keeps the
activation derivatives those nodes computed.
Parameters are ordered [W0, b0, W1, b1, ...] wherever they are listed
(gradients, Adam moments), as ``param_order`` spells out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .configio import format_float

OUTPUT_ACTIVATIONS = ("identity", "tanh", "sigmoid")

HIDDEN_SLOPE = 0.2

_CHECKPOINT_MAGIC = "anchordt-mlp-v1"


def param_order(weights, biases) -> list:
    """[W0, b0, W1, b1, ...]: the order of gradients and Adam moments."""
    return [p for pair in zip(weights, biases) for p in pair]


@dataclass(frozen=True)
class MlpModel:
    """Frozen fields, so ``activations`` cannot go stale; the weight and bias
    arrays are updated in place."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = "identity"
    hidden_slope: float = HIDDEN_SLOPE
    # (activation table name, slope) per layer, derived from the fields above
    activations: list[tuple[str, float]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        hidden = [("leaky-relu", self.hidden_slope)] * (len(self.layer_sizes) - 2)
        object.__setattr__(self, "activations",
                           hidden + [(self.output_activation, self.hidden_slope)])

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            output_activation=self.output_activation,
            hidden_slope=self.hidden_slope,
        )

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output and per-layer pre-activations for a (D, N) column batch."""
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.shape[0] != self.input_dim:
            raise ValueError(
                f"input dim {x.shape[0]} != model input dim {self.input_dim}")
        h, pres = x, []
        for w, b, (name, slope) in zip(self.weights, self.biases, self.activations):
            a = w @ h + b
            pres.append(a)
            h = ad.ACTIVATIONS[name][0](a, slope)
        return h, pres

    def preactivations(self, x: np.ndarray) -> list[np.ndarray]:
        """Pre-activation matrices of every layer for a (D, N) column batch."""
        return self._forward(np.asarray(x, dtype=np.float64))[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Plain numpy forward pass on a (D, N) column batch."""
        x = np.asarray(x, dtype=np.float64)
        h = self._forward(x)[0]
        return h[:, 0] if x.ndim == 1 else h


def init_mlp(layer_sizes, output_activation: str = "identity", seed=0) -> MlpModel:
    """Xavier-uniform weights U(-a, a) with a = sqrt(6/(n_in+n_out)), zero biases.

    Deterministic given seed; weights are drawn layer by layer in order.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output layer sizes")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        a = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-a, a, size=(n_out, n_in)))
        biases.append(np.zeros((n_out, 1)))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases,
                    output_activation=output_activation)


class MlpBinding:
    """Parameter nodes for one model, reused across the graphs of a step.

    Building several losses through the same binding makes their gradients
    accumulate on the same parameter nodes, which is what a combined
    objective needs.  Parameter nodes alias the model's arrays, so optimizer
    updates are visible to the next graph built from the binding.

    A frozen binding wraps the same arrays as constant inputs instead:
    values participate in the graph but backward skips past them (used for
    the discriminator while the generator trains, and vice versa).

    After each __call__ the activation derivative of every layer of that
    pass is kept in ``last_derivs``.  These are the Jacobian masks of
    ``sparsity.activation_masks``, bit for bit, with no further pass.
    """

    def __init__(self, model: MlpModel, frozen: bool = False):
        self.model = model
        self.frozen = frozen
        wrap = ad.input_node if frozen else ad.parameter
        self.weight_nodes = [wrap(w, f"W{i}") for i, w in enumerate(model.weights)]
        self.bias_nodes = [wrap(b, f"b{i}") for i, b in enumerate(model.biases)]
        self.last_derivs: list[np.ndarray] = []

    @property
    def param_nodes(self) -> list[ad.Node]:
        return param_order(self.weight_nodes, self.bias_nodes)

    def __call__(self, x: ad.Node) -> ad.Node:
        h = x
        derivs = []
        for w, b, (name, slope) in zip(self.weight_nodes, self.bias_nodes,
                                       self.model.activations):
            h = ad.dense(w, h, b, name, slope)
            derivs.append(h.meta.deriv)
        self.last_derivs = derivs
        return h

    def gradients(self) -> list[np.ndarray]:
        """Current grads in [W0, b0, W1, b1, ...] order (zeros if untouched)."""
        if self.frozen:
            raise ValueError("frozen bindings do not accumulate gradients")
        out = []
        for node in self.param_nodes:
            out.append(np.zeros_like(node.value) if node.grad is None else node.grad)
        return out


def bind(model: MlpModel, frozen: bool = False) -> MlpBinding:
    return MlpBinding(model, frozen=frozen)


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)
    step_count: int = 0


def adam_init(model: MlpModel, learning_rate: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    shapes = param_order(model.weights, model.biases)
    return AdamState(
        learning_rate=learning_rate, beta1=beta1, beta2=beta2, epsilon=epsilon,
        first_moment=[np.zeros_like(p) for p in shapes],
        second_moment=[np.zeros_like(p) for p in shapes],
    )


def adam_step(model: MlpModel, gradients: list[np.ndarray], state: AdamState):
    """Bias-corrected Adam update, applied in place to the model's arrays.

    ``gradients`` must be in [W0, b0, W1, b1, ...] order, matching
    MlpBinding.gradients().
    """
    params = param_order(model.weights, model.biases)
    if len(gradients) != len(params):
        raise ValueError(f"expected {len(params)} gradients, got {len(gradients)}")
    for p, g in zip(params, gradients):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, gradients, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g ** 2
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return model, state


# ---------------------------------------------------------------------------
# checkpoint I/O: versioned text layout, bit-exact round trip
# ---------------------------------------------------------------------------

def save_checkpoint(model: MlpModel, path):
    """Text checkpoint: header lines, then one row-major line per array."""
    lines = [
        _CHECKPOINT_MAGIC,
        "layer_sizes = " + ",".join(str(s) for s in model.layer_sizes),
        f"output_activation = {model.output_activation}",
        f"hidden_slope = {format_float(model.hidden_slope)}",
    ]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W{i} = " + " ".join(format_float(v) for v in w.ravel()))
        lines.append(f"b{i} = " + " ".join(format_float(v) for v in b.ravel()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> MlpModel:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {_CHECKPOINT_MAGIC} checkpoint")
    fields = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        key, _, val = ln.partition(" = ")
        fields[key] = val
    sizes = tuple(int(s) for s in fields["layer_sizes"].split(","))
    model = MlpModel(
        layer_sizes=sizes,
        weights=[], biases=[],
        output_activation=fields["output_activation"],
        hidden_slope=float(fields["hidden_slope"]),
    )
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = _parse_floats(fields[f"W{i}"]).reshape(n_out, n_in)
        b = _parse_floats(fields[f"b{i}"]).reshape(n_out, 1)
        model.weights.append(w)
        model.biases.append(b)
    return model


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()], dtype=np.float64)

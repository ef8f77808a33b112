"""Small fully-connected networks: init, forward passes, Adam, checkpoints.

Weights are stored (n_out, n_in) and biases (n_out, 1), acting on column
batches, so a layer is ``W @ x + b``.  Every network is the one kind built
here: leaky-relu hidden layers with slope ``HIDDEN_SLOPE`` and an identity
output.  Both are piecewise linear, so the activation derivatives at a
point, frozen, give the network's exact Jacobian there (almost everywhere).
The plain numpy forward pass (``MlpModel.apply``) and the graph forward
pass (``MlpBinding``) give the same bits.  The graph pass builds one
``autodiff.dense`` node per layer; each hidden node keeps the mask
``a >= 0`` of its pre-activation and its slope, from which
``autodiff.leaky_derivative`` rebuilds the activation derivative, so the
output node of a pass carries the pass's Jacobian, which
``sparsity.jacobian_graph`` reads from it.
Parameters are ordered [W0, b0, W1, b1, ...] wherever they are listed
(gradients, Adam moments), as ``param_order`` spells out.  A network holds
them as one flat float64 vector in that order, ``MlpModel.flat``, and its
``weights`` and ``biases`` are views of it: every way a model is made
(``init_mlp``, ``MlpModel.copy``, ``load_checkpoint``, the constructor)
builds the vector, so ``adam_step`` updates a network as one vector with
flat moments, a copy is one array copy, and a binding checks one array for
non-finite entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .configio import format_float

HIDDEN_SLOPE = 0.2

_CHECKPOINT_MAGIC = "anchordt-mlp-v1"
# header lines the format has always carried; every network has these
_CHECKPOINT_ACTIVATIONS = {"output_activation": "identity",
                           "hidden_slope": format_float(HIDDEN_SLOPE)}


def param_order(weights, biases) -> list:
    """[W0, b0, W1, b1, ...]: the order of gradients and Adam moments."""
    return [p for pair in zip(weights, biases) for p in pair]


def _views(flat, shapes) -> list[np.ndarray]:
    """Consecutive views of the vector ``flat``, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


@dataclass(frozen=True)
class MlpModel:
    """Frozen fields; the parameters are updated in place.

    The constructor copies the given weights and biases into ``flat``, one
    float64 vector in ``param_order``, and keeps views of it in their place,
    so writing to a weight or bias writes to ``flat`` and the other way round.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params = [np.asarray(p) for p in param_order(self.weights, self.biases)]
        self._adopt(np.concatenate(params, axis=None, dtype=np.float64),
                    [p.shape for p in params])

    def _adopt(self, flat, shapes):
        """Hold ``flat``, with weights and biases the views of the shapes."""
        views = _views(flat, shapes)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weights", views[0::2])
        object.__setattr__(self, "biases", views[1::2])

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        """One copy of ``flat``, with views of it; no per-array copies."""
        model = object.__new__(MlpModel)
        object.__setattr__(model, "layer_sizes", self.layer_sizes)
        model._adopt(self.flat.copy(),
                     [p.shape for p in param_order(self.weights, self.biases)])
        return model

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Plain numpy forward pass on a (D, N) column batch."""
        x = np.asarray(x, dtype=np.float64)
        h = x.reshape(-1, 1) if x.ndim == 1 else x
        if h.shape[0] != self.input_dim:
            raise ValueError(
                f"input dim {h.shape[0]} != model input dim {self.input_dim}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = w @ h + b
            if i < last:
                h = np.maximum(h, HIDDEN_SLOPE * h)
        return h[:, 0] if x.ndim == 1 else h


def init_mlp(layer_sizes, seed=0) -> MlpModel:
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
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


class MlpBinding:
    """Parameter nodes for one model, reused across the graphs of a step.

    Building several losses through the same binding makes their gradients
    accumulate on the same parameter nodes, which is what a combined
    objective needs.  Parameter nodes alias the model's arrays, so optimizer
    updates are visible to the next graph built from the binding.

    A frozen binding wraps the same arrays as constant inputs instead:
    values participate in the graph but backward skips past them (used for
    the discriminator while the generator trains, and vice versa).

    A call returns the output node of one pass, a chain of dense nodes
    whose hidden nodes hold the masks ``a >= 0`` and the slope from which
    the pass's activation derivatives are rebuilt; nothing of the pass is
    kept on the binding.
    """

    def __init__(self, model: MlpModel, frozen: bool = False):
        self.model = model
        self.frozen = frozen
        # one finite check of the flat vector stands for a check an array,
        # which ad.input_node would make; a failure names the first array
        if not np.isfinite(model.flat).all():
            for i, (w, b) in enumerate(zip(model.weights, model.biases)):
                for name, p in ((f"W{i}", w), (f"b{i}", b)):
                    if not np.isfinite(p).all():
                        raise ad.GraphError(f"{name}: non-finite entries")
        if frozen:
            self.weight_nodes = [ad.Node("input", (), w) for w in model.weights]
            self.bias_nodes = [ad.Node("input", (), b) for b in model.biases]
        else:
            self.weight_nodes = [ad.parameter(w, f"W{i}")
                                 for i, w in enumerate(model.weights)]
            self.bias_nodes = [ad.parameter(b, f"b{i}")
                               for i, b in enumerate(model.biases)]

    @property
    def param_nodes(self) -> list[ad.Node]:
        return param_order(self.weight_nodes, self.bias_nodes)

    def __call__(self, x: ad.Node) -> ad.Node:
        h = x
        last = len(self.weight_nodes) - 1
        for i, (w, b) in enumerate(zip(self.weight_nodes, self.bias_nodes)):
            h = ad.dense(w, h, b, "leaky-relu" if i < last else "identity", HIDDEN_SLOPE)
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
    """Adam's settings, its step count and its moments.

    ``m`` and ``v``, the first and second moments, are flat vectors laid out
    as the model's ``flat``; ``first_moment`` and ``second_moment`` list
    views of them, one per array in [W0, b0, W1, b1, ...] order.
    """
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)
    step_count: int = 0


def adam_init(model: MlpModel, learning_rate: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    shapes = [p.shape for p in param_order(model.weights, model.biases)]
    m, v = np.zeros_like(model.flat), np.zeros_like(model.flat)
    return AdamState(
        learning_rate=learning_rate, beta1=beta1, beta2=beta2, epsilon=epsilon,
        m=m, v=v, first_moment=_views(m, shapes), second_moment=_views(v, shapes),
    )


def adam_step(model: MlpModel, gradients: list[np.ndarray], state: AdamState):
    """Bias-corrected Adam update, applied in place to the model's arrays.

    ``gradients`` must be in [W0, b0, W1, b1, ...] order, matching
    MlpBinding.gradients().  They are concatenated once, and the update runs
    on the model's flat vector with the flat moments: element by element the
    arithmetic of a per-array update, so the same bits.
    """
    params = param_order(model.weights, model.biases)
    if len(gradients) != len(params):
        raise ValueError(f"expected {len(params)} gradients, got {len(gradients)}")
    for p, g in zip(params, gradients):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    g = np.concatenate(gradients, axis=None)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v, flat = state.m, state.v, model.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g ** 2
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    flat -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return model, state


# ---------------------------------------------------------------------------
# checkpoint I/O: versioned text layout, bit-exact round trip
# ---------------------------------------------------------------------------

def save_checkpoint(model: MlpModel, path):
    """Text checkpoint: header lines, then one row-major line per array."""
    lines = [
        _CHECKPOINT_MAGIC,
        "layer_sizes = " + ",".join(str(s) for s in model.layer_sizes),
    ]
    lines += [f"{key} = {value}" for key, value in _CHECKPOINT_ACTIVATIONS.items()]
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
    for key, value in _CHECKPOINT_ACTIVATIONS.items():
        if fields.get(key) != value:
            raise ValueError(f"{path}: {key} = {fields.get(key, '(missing)')}; "
                             f"every network has {key} = {value}")

    def numbers(key, parse, sep=None, count=None):
        if key not in fields:
            raise ValueError(f"{path}: the {key} line is missing")
        try:
            values = [parse(tok) for tok in fields[key].split(sep)]
        except ValueError:
            raise ValueError(f"{path}: {key} holds a token that is not a number") from None
        if count is not None and len(values) != count:
            raise ValueError(f"{path}: {key} holds {len(values)} numbers, "
                             f"layer_sizes needs {count}")
        return values

    sizes = tuple(numbers("layer_sizes", int, ","))
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"{path}: layer_sizes = {fields['layer_sizes']}; "
                         "needs at least two positive sizes")
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = numbers(f"W{i}", float, count=n_out * n_in)
        b = numbers(f"b{i}", float, count=n_out)
        weights.append(np.array(w, dtype=np.float64).reshape(n_out, n_in))
        biases.append(np.array(b, dtype=np.float64).reshape(n_out, 1))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)

"""The 2D benchmark dataset: a cosine-warped permutation of a skewed box.

Target points y have y1 ~ Unif[-1,1] and y2 ~ Unif[-1,1] + 0.5*y1; source
points are x = t*cos(A y) + A y (cos elementwise), where A is a non-identity
permutation and the warp amplitude t is drawn once per dataset from
Unif[0.3, 0.5] (or per sample, for sensitivity runs).  The y -> x direction
is the inverse of the map being learned, and since |t| < 1 it is
injective, so every generated pair is a valid aligned example.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import configio
from .configio import format_float
from .objective import AnchorSet

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

T_MODES = ("per-dataset", "per-sample")


@dataclass
class SynthConfig:
    num_train: int = 27000
    num_test: int = 3000
    seed: int = 0
    permutation: np.ndarray = field(default_factory=lambda: SWAP.copy())
    t_mode: str = "per-dataset"
    t_min: float = 0.3
    t_max: float = 0.5

    def __post_init__(self):
        self.permutation = np.asarray(self.permutation, dtype=np.float64)
        a = self.permutation
        if a.shape != (2, 2) or not _is_permutation(a) or np.array_equal(a, np.eye(2)):
            raise ValueError("permutation must be a non-identity 2x2 permutation matrix")
        if self.num_train < 1 or self.num_test < 1:
            raise ValueError("sample counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be >= 0")
        if self.t_mode not in T_MODES:
            raise ValueError(f"t_mode must be one of {T_MODES}")
        for name in ("t_min", "t_max"):
            # |t| < 1 keeps the warp injective; NaN and infinities fail it too
            if not -1 < getattr(self, name) < 1:
                raise ValueError(f"{name} = {getattr(self, name)!r} not in (-1, 1)")
        if self.t_min > self.t_max:
            raise ValueError(f"t_min = {self.t_min} exceeds t_max = {self.t_max}")


def _is_permutation(a: np.ndarray) -> bool:
    return (np.isin(a, (0.0, 1.0)).all()
            and (a.sum(axis=0) == 1).all() and (a.sum(axis=1) == 1).all())


def warp(y: np.ndarray, t, permutation: np.ndarray = SWAP) -> np.ndarray:
    """The y -> x direction: t*cos(A y) + A y, rows are samples.

    ``t`` is a scalar or an (N,) array (per-sample mode).
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    ay = y @ np.asarray(permutation, dtype=np.float64).T
    t_col = np.asarray(t, dtype=np.float64).reshape(-1, 1) if np.ndim(t) else t
    return t_col * np.cos(ay) + ay


@dataclass
class PairedDataset:
    """Aligned (x_i, y_i) rows; alignment is for evaluation and anchors only."""
    x: np.ndarray                 # (N, D)
    y: np.ndarray                 # (N, D)
    t: float | np.ndarray         # scalar, or (N,) in per-sample mode
    permutation: np.ndarray
    t_mode: str = "per-dataset"
    seed: int | None = None

    def __len__(self) -> int:
        return self.x.shape[0]


def _make_split(n: int, t, cfg: SynthConfig, rng: np.random.Generator) -> PairedDataset:
    y1 = rng.uniform(-1.0, 1.0, size=n)
    y2 = rng.uniform(-1.0, 1.0, size=n) + 0.5 * y1
    y = np.column_stack([y1, y2])
    if cfg.t_mode == "per-sample":
        t = rng.uniform(cfg.t_min, cfg.t_max, size=n)
    x = warp(y, t, cfg.permutation)
    return PairedDataset(x=x, y=y, t=t, permutation=cfg.permutation.copy(),
                         t_mode=cfg.t_mode, seed=cfg.seed)


def generate(config: SynthConfig) -> tuple[PairedDataset, PairedDataset]:
    """(train, test) splits; deterministic given config.seed.

    Draw order: the shared warp amplitude t (per-dataset mode), then the
    train split, then the test split.  In per-sample mode each split draws
    its own t values after its y values.
    """
    rng = np.random.default_rng(config.seed)
    t = None
    if config.t_mode == "per-dataset":
        t = float(rng.uniform(config.t_min, config.t_max))
    train = _make_split(config.num_train, t, config, rng)
    test = _make_split(config.num_test, t, config, rng)
    return train, test


def select_anchors(train: PairedDataset, count: int, seed: int) -> AnchorSet:
    """Uniform aligned pairs without replacement; deterministic given seed."""
    n = len(train)
    if count > n:
        raise ValueError(f"requested {count} anchors from {n} pairs")
    if count < 0:
        raise ValueError("anchor count must be >= 0")
    idx = np.random.default_rng(seed).permutation(n)[:count]
    return AnchorSet(x=train.x[idx].T, y=train.y[idx].T)


# ---------------------------------------------------------------------------
# file I/O: CSV rows of aligned pairs plus a key=value metadata sidecar
# ---------------------------------------------------------------------------

def _csv_header(d: int, per_sample: bool) -> list[str]:
    names = [f"x{k}" for k in range(1, d + 1)] + [f"y{k}" for k in range(1, d + 1)]
    return names + ["t"] if per_sample else names


def save_dataset(dataset: PairedDataset, directory, prefix: str) -> list[str]:
    """Write {prefix}.csv and {prefix}.meta into directory; returns filenames.

    The CSV has columns x1..xD,y1..yD.  Per-dataset mode stores t in the
    sidecar; per-sample mode appends a t column instead.
    """
    os.makedirs(directory, exist_ok=True)
    per_sample = dataset.t_mode == "per-sample"
    csv_name, meta_name = f"{prefix}.csv", f"{prefix}.meta"
    columns = [dataset.x, dataset.y]
    if per_sample:
        columns.append(np.asarray(dataset.t).reshape(-1, 1))
    lines = [",".join(_csv_header(dataset.x.shape[1], per_sample))]
    lines += [",".join(map(format_float, row)) for row in np.hstack(columns)]
    with open(os.path.join(directory, csv_name), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {"seed": str(dataset.seed), "t_mode": dataset.t_mode,
            "t": "per-sample" if per_sample else format_float(dataset.t),
            "permutation": configio.format_matrix(dataset.permutation),
            "num_samples": str(len(dataset))}
    configio.save({"dataset": meta}, os.path.join(directory, meta_name))
    return [csv_name, meta_name]


def load_dataset(directory, prefix: str) -> PairedDataset:
    """Read what save_dataset wrote; D is the number of x columns."""
    fields = configio.load(os.path.join(directory, f"{prefix}.meta"))["dataset"]
    t_mode = fields["t_mode"]
    per_sample = t_mode == "per-sample"
    perm = configio.parse_matrix(fields["permutation"])
    path = os.path.join(directory, f"{prefix}.csv")
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    d = sum(name.startswith("x") for name in header)
    expected = _csv_header(d, per_sample)
    if header != expected:
        raise ValueError(f"{path}: header {','.join(header)} is not {','.join(expected)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="ascii")
    x, y = data[:, :d], data[:, d:2 * d]
    t = data[:, 2 * d] if per_sample else float(fields["t"])
    seed = None if fields["seed"] == "None" else int(fields["seed"])
    return PairedDataset(x=x, y=y, t=t, permutation=perm, t_mode=t_mode, seed=seed)

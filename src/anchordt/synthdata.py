"""The 2D benchmark dataset: a cosine-warped permutation of a skewed box.

Target points y have y1 ~ Unif[-1,1] and y2 ~ Unif[-1,1] + 0.5*y1; source
points are x = t*cos(A y) + A y (cos elementwise), where A is the swap of
the two coordinates and the warp amplitude t is drawn once per dataset from
Unif[0.3, 0.5], so every pair follows one deterministic map.  The y -> x
direction is the inverse of the map being learned, and since |t| < 1 it is
injective, so every generated pair is a valid aligned example.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import configio
from .configio import NON_NEGATIVE, POSITIVE, Checked, Rule, format_float
from .objective import AnchorSet

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
# |t| < 1 keeps the warp injective
INJECTIVE = Rule(lambda t: -1 < t < 1, "not in (-1, 1)")


@dataclass
class SynthConfig(Checked):
    num_train: Annotated[int, POSITIVE] = 27000
    num_test: Annotated[int, POSITIVE] = 3000
    seed: Annotated[int, NON_NEGATIVE] = 0
    t_min: Annotated[float, INJECTIVE] = 0.3
    t_max: Annotated[float, INJECTIVE] = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.t_min > self.t_max:
            raise ValueError(f"t_min = {self.t_min} exceeds t_max = {self.t_max}")


def warp(y: np.ndarray, t: float, permutation: np.ndarray = SWAP) -> np.ndarray:
    """The y -> x direction: t*cos(A y) + A y, rows are samples.

    The amplitude ``t`` is one scalar for every row.  ``permutation`` is the
    (D, D) matrix A, the 2D swap by default; datasets of other D pass their own.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    ay = y @ np.asarray(permutation, dtype=np.float64).T
    return t * np.cos(ay) + ay


@dataclass
class PairedDataset:
    """Aligned (x_i, y_i) rows; alignment is for evaluation and anchors only."""
    x: np.ndarray                 # (N, D)
    y: np.ndarray                 # (N, D)
    t: float                      # the warp amplitude, shared by every row
    seed: int | None = None

    def __len__(self) -> int:
        return self.x.shape[0]


def _make_split(n: int, t: float, seed: int, rng: np.random.Generator) -> PairedDataset:
    y1 = rng.uniform(-1.0, 1.0, size=n)
    y2 = rng.uniform(-1.0, 1.0, size=n) + 0.5 * y1
    y = np.column_stack([y1, y2])
    return PairedDataset(x=warp(y, t), y=y, t=t, seed=seed)


def generate(config: SynthConfig) -> tuple[PairedDataset, PairedDataset]:
    """(train, test) splits; deterministic given config.seed.

    Draw order: the warp amplitude t, which both splits share, then the
    train split, then the test split.
    """
    rng = np.random.default_rng(config.seed)
    t = float(rng.uniform(config.t_min, config.t_max))
    train = _make_split(config.num_train, t, config.seed, rng)
    test = _make_split(config.num_test, t, config.seed, rng)
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

def _csv_header(d: int) -> list[str]:
    return [f"x{k}" for k in range(1, d + 1)] + [f"y{k}" for k in range(1, d + 1)]


def save_dataset(dataset: PairedDataset, directory, prefix: str) -> list[str]:
    """Write {prefix}.csv and {prefix}.meta into directory; returns filenames.

    The CSV has columns x1..xD,y1..yD.  The .meta's [dataset] section holds
    seed, t and num_samples.
    """
    os.makedirs(directory, exist_ok=True)
    csv_name, meta_name = f"{prefix}.csv", f"{prefix}.meta"
    lines = [",".join(_csv_header(dataset.x.shape[1]))]
    rows = np.hstack([dataset.x, dataset.y])
    lines += [",".join(map(format_float, row)) for row in rows]
    with open(os.path.join(directory, csv_name), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {"seed": str(dataset.seed), "t": format_float(dataset.t),
            "num_samples": str(len(dataset))}
    configio.save({"dataset": meta}, os.path.join(directory, meta_name))
    return [csv_name, meta_name]


def _bad_csv_line(path, width: int) -> str | None:
    """The message "<path>, line <k>: ..." for the first data line of a CSV
    that has other than ``width`` fields or a field that is not a number,
    the header being line 1; None when every line parses."""
    with open(path, "r", encoding="ascii") as fh:
        for k, line in enumerate(fh, start=1):
            if k == 1 or not line.strip():
                continue
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != width:
                return f"{path}, line {k}: {len(fields)} fields, the header has {width}"
            for field in fields:
                try:
                    float(field)
                except ValueError:
                    return f"{path}, line {k}: {field!r} is not a number"
    return None


def load_dataset(directory, prefix: str) -> PairedDataset:
    """Read what save_dataset wrote; D is the number of x columns.

    Of the .meta's [dataset] section this reads seed, t and num_samples and
    ignores any other entry, such as the warp mode and permutation matrix
    that older datasets also record.  A .meta file without its [dataset]
    section or one of those three entries, or with one that does not parse,
    raises ValueError naming the file and the entry; so does a CSV whose row
    count is not the .meta's num_samples.  A CSV whose header is not
    x1..xD,y1..yD, as in older datasets with a t column, names the file, and
    a CSV row that does not parse names the file and its line.
    """
    path = os.path.join(directory, f"{prefix}.csv")
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    d = sum(name.startswith("x") for name in header)
    expected = _csv_header(d)
    if header != expected:
        raise ValueError(f"{path}: header {','.join(header)} is not {','.join(expected)}")
    meta_path = os.path.join(directory, f"{prefix}.meta")
    meta = configio.parse_entries(meta_path, configio.load(meta_path), "dataset", {
        "seed": lambda raw: None if raw == "None" else int(raw), "t": float,
        "num_samples": int})
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="ascii")
    except ValueError as exc:
        raise ValueError(_bad_csv_line(path, len(header)) or f"{path}: {exc}") from None
    if data.shape[0] != meta["num_samples"]:
        raise ValueError(f"{path}: {data.shape[0]} rows, but {meta_path} records "
                         f"num_samples = {meta['num_samples']}")
    x, y = data[:, :d], data[:, d:2 * d]
    return PairedDataset(x=x, y=y, t=meta["t"], seed=meta["seed"])

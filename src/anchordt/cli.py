"""Command-line entry point.

Every command reads a line-oriented config (file and/or --override
SECTION.KEY=VALUE flags, where an empty VALUE sets the key empty, as
``key =`` does in a file), writes its artifacts into --out-dir, and leaves a
manifest.txt with the effective config and sha256 checksums, from which the
run can be replayed byte-for-byte (see anchordt.manifest.replay_manifest).
Each verb is one row of VERBS, and a config holding a section its row does
not list is rejected, so a misspelt section name cannot leave a default in
place.  Every section but [plot.checkpoints], whose keys are free labels, is
a dataclass read by configio.read, which rejects a key that names no field;
[io] has one field per path the row names, and each path a flag.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Annotated, Callable, NamedTuple

import numpy as np

from . import configio, manifest, mpa, sparsity, svgplot
from .configio import (DISTINCT, FINITE, NON_NEGATIVE, NONEMPTY, POSITIVE, Checked,
                       at_least, format_float)
from .nets import load_checkpoint
from .synthdata import SynthConfig, generate, load_dataset, save_dataset
from .trainer import Networks, TrainConfig, TrainingDiverged, train, translation_error


class CliError(RuntimeError):
    pass


def _write_lines(out_dir, name, lines):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


# [io] path -> the help line of its flag; a verb's flags come in this order
IO_FLAGS = {
    "data_dir": "directory holding train/test CSVs",
    "checkpoint": "generator checkpoint path",
    "support_file": "CSV of row,col index pairs",
}


# ---------------------------------------------------------------------------
# commands: each takes (config sections, [io] paths, out_dir) and returns
# (artifact names, config sections, seed, the message of a failed check or None)
# ---------------------------------------------------------------------------

def cmd_gen_data(config, io, out_dir):
    cfg = configio.read(SynthConfig(), config, "data")
    train_split, test_split = generate(cfg)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = save_dataset(train_split, out_dir, "train")
    artifacts += save_dataset(test_split, out_dir, "test")
    print(f"gen-data: {len(train_split)} train / {len(test_split)} test pairs, "
          f"t={train_split.t:.4f}, seed={cfg.seed}")
    return artifacts, configio.echo(cfg, "data"), cfg.seed, None


def _load_splits(data_dir, *prefixes):
    """The splits named by ``prefixes`` ("train", "test") of the dataset in
    data_dir; only those files are read."""
    if not os.path.isdir(data_dir):
        raise CliError(f"data directory not found: {data_dir!r}")
    try:
        return [load_dataset(data_dir, prefix) for prefix in prefixes]
    except FileNotFoundError as exc:
        raise CliError(f"dataset files missing in {data_dir}: {exc}") from None


def cmd_train(config, io, out_dir):
    cfg = configio.read(TrainConfig(), config, "train")
    train_split, test_split = _load_splits(io.data_dir, "train", "test")
    # train() makes out_dir once the config has passed its checks on the data
    report = train(cfg, train_split, test_split, out_dir)
    artifacts = Networks.files()
    artifacts.append(_write_lines(out_dir, "trace.csv", report.trace_csv_lines()))
    artifacts.append(_write_lines(out_dir, "diag.csv", report.diag_csv_lines()))
    summary = [
        "[summary]",
        f"te_mean = {format_float(report.te_mean)}",
        f"te_std = {format_float(report.te_std)}",
        f"iterations = {cfg.iterations}",
        f"anchor_count = {cfg.anchor_count}",
    ]
    artifacts.append(_write_lines(out_dir, "summary.txt", summary))
    print(f"train: TE = {report.te_mean:.4f} +- {report.te_std:.4f} "
          f"({cfg.iterations} iterations, {report.wall_time:.1f}s)")
    return artifacts, configio.echo(cfg, "train"), cfg.seed, None


def _load_generator(path, d):
    """The checkpoint at ``path``, which must map R^d to R^d, as a generator does."""
    if not os.path.isfile(path):
        raise CliError(f"checkpoint not found: {path!r}")
    model = load_checkpoint(path)
    if (model.input_dim, model.output_dim) != (d, d):
        raise CliError(f"{path}: the checkpoint maps R^{model.input_dim} to "
                       f"R^{model.output_dim}; the data needs R^{d} to R^{d}")
    return model


def cmd_eval(config, io, out_dir):
    [test_split] = _load_splits(io.data_dir, "test")
    model = _load_generator(io.checkpoint, test_split.x.shape[1])
    te_mean, te_std = translation_error(model, test_split)
    os.makedirs(out_dir, exist_ok=True)
    lines = ["te_mean,te_std,num_samples",
             f"{format_float(te_mean)},{format_float(te_std)},{len(test_split)}"]
    artifacts = [_write_lines(out_dir, "eval.csv", lines)]
    print(f"eval: TE = {te_mean:.4f} +- {te_std:.4f} on {len(test_split)} pairs")
    return artifacts, {}, 0, None


@dataclass
class PlotConfig(Checked):
    max_points: Annotated[int, POSITIVE] = 1000


def cmd_plot(config, io, out_dir):
    cfg = configio.read(PlotConfig(), config, "plot")
    [test_split] = _load_splits(io.data_dir, "test")
    n = len(test_split)
    idx = np.unique(np.linspace(0, n - 1, min(cfg.max_points, n)).astype(int))
    colors = [svgplot.color_for_index(int(i)) for i in idx]
    panels = [("source x", test_split.x[idx], colors),
              ("target y", test_split.y[idx], colors)]
    checkpoints = config.get("plot.checkpoints", {})
    for label in sorted(checkpoints):
        model = _load_generator(checkpoints[label], test_split.x.shape[1])
        moved = model.apply(test_split.x[idx].T).T
        panels.append((f"translated ({label})", moved, colors))
    os.makedirs(out_dir, exist_ok=True)
    svgplot.scatter_panels(os.path.join(out_dir, "panels.svg"), panels)
    print(f"plot: {len(panels)} panels over {idx.size} points -> panels.svg")
    sections = {**configio.echo(cfg, "plot"),
                "plot.checkpoints": {k: os.path.abspath(v)
                                     for k, v in checkpoints.items()}}
    return ["panels.svg"], sections, 0, None


@dataclass
class ProbeStudyConfig(sparsity.ProbeStudy):
    """The study's parameters, then the seed of its stream and whether to
    add the closed-form expectations of one more matrix."""
    seed: Annotated[int, NON_NEGATIVE] = 0
    exact_overlay: bool = False


def cmd_probe_study(config, io, out_dir):
    cfg = configio.read(ProbeStudyConfig(), config, "probe_study")
    rng = np.random.default_rng(cfg.seed)
    result = sparsity.probe_bias_variance_study(cfg, rng)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = [_write_lines(out_dir, "study.csv", result.csv_lines())]
    xs = [r.mask_size for r in result.rows]
    svgplot.line_chart(os.path.join(out_dir, "variance.svg"), xs,
                       [max(r.variance, 1e-300) for r in result.rows],
                       "probe estimator variance", "S", "variance", log_y=True)
    svgplot.line_chart(os.path.join(out_dir, "bias.svg"), xs,
                       [abs(r.mean_rel_bias) for r in result.rows],
                       "probe estimator |relative bias|", "S", "|relative bias|")
    artifacts += ["variance.svg", "bias.svg"]
    if cfg.exact_overlay:
        overlay_rng = np.random.default_rng(cfg.seed + 1)
        j = sparsity.random_sparse_jacobian(cfg.dimension, cfg.row_support, overlay_rng)
        lines = ["S,q_exact,rel_bias_exact"]
        l0 = int(j.row_support_sizes().sum())
        for s in cfg.mask_sizes:
            q = sparsity.q_hypergeometric(j, s)
            lines.append(f"{s},{format_float(q)},{format_float((q - l0) / l0)}")
        artifacts.append(_write_lines(out_dir, "study_exact.csv", lines))
    for r in result.rows:
        print(f"probe-study: S={r.mask_size:4d} rel_bias={r.mean_rel_bias:+.5f} "
              f"variance={r.variance:10.2f} bound_factor={r.lower_bound_factor:.5f}")
    return artifacts, configio.echo(cfg, "probe_study"), cfg.seed, None


def _ks_noise(n, variance_factor=2):
    """Bound on a KS statistic of n samples a side from sampling noise alone.

    3.3 on the Kolmogorov scale: for two samples of n that share a law, sqrt(n/2)*KS follows the
    Kolmogorov law, whose tail beyond 3.3 is below 1e-9; a statistic that
    also carries the error of two fitted CDFs has twice that variance
    (variance_factor 4).
    """
    return 3.3 * math.sqrt(variance_factor / n)


def _band_fraction_bound(n, eps):
    """Bound on the fraction of n draws of two independent standard normals
    that fall in the band |x1 - x2| < eps around {x1 = x2}.

    The band holds p = 2*Phi(eps/sqrt(2)) - 1 = erf(eps/2) of the mass.  By
    Bernstein's inequality the count of n draws exceeds n*p by more than
    t = L/3 + sqrt(L^2/9 + 2*n*p*(1-p)*L) with probability below e^-L; at
    L = ln(1e9), a false fail below 1e-9 as in _ks_noise, the bound is
    p + t/n (1.12e-3 at 100,000 draws and eps = 1e-3).
    """
    p = math.erf(eps / 2)
    log_rate = math.log(1e9)
    t = log_rate / 3 + math.sqrt(log_rate ** 2 / 9 + 2 * n * p * (1 - p) * log_rate)
    return p + t / n


def _exponential_quantile(q):
    # 1 - F(x) rounds to 1 below x = 1.1e-16, whose quantile is inf: silently
    with np.errstate(divide="ignore"):
        return -np.log1p(-q)


def _mpa_checks(n, seed, eps):
    """The default 1D suite; returns rows of (name, metric, value, threshold, ok).

    Phi and its inverse are NormalDist's, called entry by entry on a list
    (np.vectorize is slower); the exponential pair is numpy's expm1/log1p.
    """
    mu, sigma = 0.7, 1.3
    law = NormalDist(mu, sigma)
    ks_max, fitted_ks_max = _ks_noise(n), _ks_noise(n, 4)
    gauss = lambda rng, k: mu + sigma * rng.standard_normal(k)
    uniform = lambda rng, k: rng.uniform(0.0, 1.0, k)
    expo = lambda rng, k: rng.exponential(1.0, k)
    rows = []
    add = lambda *row: rows.append(row)   # (name, metric, value, threshold, ok)

    reflect = mpa.reflection_mpa(mu)
    ks = mpa.pushforward_ks_check(gauss, reflect, n, seed)
    add("gaussian-reflection", "ks", ks, ks_max, ks < ks_max)
    fp = mpa.count_fixed_points(reflect, (mu - 5 * sigma, mu + 5 * sigma))
    add("gaussian-reflection", "fixed_points", fp.count, 1, fp.count == 1)

    each = lambda f: lambda x: np.fromiter(map(f, x.tolist()), np.float64, len(x))
    conj = mpa.cdf_conjugate_mpa(each(law.cdf), each(law.inv_cdf))
    ks = mpa.pushforward_ks_check(gauss, conj, n, seed + 1)
    add("gaussian-cdf-conjugate", "ks", ks, ks_max, ks < ks_max)
    grid = np.linspace(mu - 3 * sigma, mu + 3 * sigma, 1001)
    dev = float(np.abs(conj(grid) - reflect(grid)).max())
    add("gaussian-cdf-conjugate", "max_dev_from_reflection", dev, 1e-7, dev < 1e-7)

    uconj = mpa.cdf_conjugate_mpa(lambda x: np.clip(x, 0.0, 1.0), lambda q: q)
    ks = mpa.pushforward_ks_check(uniform, uconj, n, seed + 2)
    add("uniform-cdf-conjugate", "ks", ks, ks_max, ks < ks_max)
    fp = mpa.count_fixed_points(uconj, (0.0, 1.0))
    add("uniform-cdf-conjugate", "fixed_points", fp.count, 1, fp.count == 1)

    econj = mpa.cdf_conjugate_mpa(lambda x: -np.expm1(-x), _exponential_quantile)
    ks = mpa.pushforward_ks_check(expo, econj, n, seed + 3)
    add("exponential-cdf-conjugate", "ks", ks, ks_max, ks < ks_max)
    fp = mpa.count_fixed_points(econj, (0.01, 10.0))
    loc_ok = fp.count == 1 and abs(fp.locations[0] - np.log(2.0)) < 1e-6
    add("exponential-cdf-conjugate", "fixed_point_at_ln2", fp.count, 1, loc_ok)

    pm = mpa.PermutedMpa(permutation=np.array([1, 0]),
                         maps=[lambda v: v, lambda v: v])
    frac = mpa.permutation_fixed_measure_probe(
        pm, lambda rng, k: rng.standard_normal((2, k)), n, eps, seed + 4)
    # the identity maps fix the null set {x1 = x2}: only its eps-band is hit
    frac_max = _band_fraction_bound(n, eps)
    add("swap-identity-fixed-set", "fraction", frac, frac_max, frac <= frac_max)

    ft = mpa.finite_translations_check(
        lambda rng, k: rng.standard_normal(k), lambda x: x + 3.0, seed + 5,
        n_fit=n, n_test=n)
    add("finite-translations", "ks_increasing", ft.ks_increasing, fitted_ks_max,
        ft.ks_increasing < fitted_ks_max)
    add("finite-translations", "ks_decreasing", ft.ks_decreasing, fitted_ks_max,
        ft.ks_decreasing < fitted_ks_max)
    add("finite-translations", "crossings", ft.crossing_count, 1,
        ft.crossing_count == 1)

    # negative control: a shift is not measure preserving; its population KS
    # distance from the law is 2*Phi(0.5/sigma) - 1 = 0.2995
    shift = lambda x: x + 1.0
    ks = mpa.pushforward_ks_check(gauss, shift, n, seed + 6)
    ks_min = 2.0 * NormalDist().cdf(0.5 / sigma) - 1.0 - ks_max
    add("shift-negative-control", "ks", ks, ks_min, ks > ks_min)

    ident = mpa.count_fixed_points(lambda x: x, (-2.0, 2.0))
    add("identity-map", "flagged_identity", int(ident.is_identity), 1,
        ident.is_identity)
    return rows


@dataclass
class MpaCheckConfig(Checked):
    # the fixed-measure probe needs 10,000 samples, the KS checks 1,000
    samples: Annotated[int, at_least(10000)] = 100000
    seed: Annotated[int, NON_NEGATIVE] = 0
    tolerance: Annotated[float, POSITIVE, FINITE] = 1e-3


def cmd_mpa_check(config, io, out_dir):
    cfg = configio.read(MpaCheckConfig(), config, "mpa_check")
    rows = _mpa_checks(cfg.samples, cfg.seed, cfg.tolerance)
    os.makedirs(out_dir, exist_ok=True)
    lines = ["check,metric,value,threshold,pass"]
    width = max(len(r[0]) for r in rows)
    for name, metric, value, threshold, ok in rows:
        lines.append(f"{name},{metric},{format_float(float(value))},{threshold},{ok}")
        status = "PASS" if ok else "FAIL"
        print(f"mpa-check: {name:<{width}}  {metric:<28} "
              f"{float(value):12.6g}  [{status}]")
    artifacts = [_write_lines(out_dir, "mpa_report.csv", lines)]
    failure = None if all(r[4] for r in rows) else "one or more checks failed"
    return artifacts, configio.echo(cfg, "mpa_check"), cfg.seed, failure


@dataclass
class SparsityCheckConfig(Checked):
    """``dimension`` is D; by default one more than the largest index read."""
    dimension: Annotated[int | None, POSITIVE] = None


def cmd_sparsity_check(config, io, out_dir):
    cfg = configio.read(SparsityCheckConfig(), config, "sparsity_check")
    if not os.path.isfile(io.support_file):
        raise CliError(f"support file not found: {io.support_file!r}")
    pairs = []
    with open(io.support_file, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#") or ln.lower().startswith("row"):
                continue
            try:
                r, c = (int(v) for v in ln.split(","))
            except ValueError:
                raise CliError(f"{io.support_file}:{lineno}: expected 'row,col'") from None
            if r < 0 or c < 0:
                raise CliError(f"{io.support_file}:{lineno}: index pair ({r}, {c}) "
                               "has a negative index")
            pairs.append((r, c))
    if not pairs:
        raise CliError(f"{io.support_file}: no index pairs")
    largest = max(max(r, c) for r, c in pairs)
    if cfg.dimension is not None and cfg.dimension <= largest:
        raise CliError(f"[sparsity_check] dimension = {cfg.dimension} must be above "
                       f"{largest}, the largest index in {io.support_file}")
    dimension = largest + 1 if cfg.dimension is None else cfg.dimension
    support = np.zeros((dimension, dimension), dtype=bool)
    support[tuple(zip(*pairs))] = True
    result = sparsity.check_structural_sparsity(support)
    os.makedirs(out_dir, exist_ok=True)
    lines = ["column,satisfied,witness_rows,diagnostic"]
    for k in range(dimension):
        if k in result.witnesses:
            witness = ";".join(str(i) for i in sorted(result.witnesses[k]))
            lines.append(f"{k},True,{witness},")
        else:
            lines.append(f'{k},False,,"{result.failures[k]}"')
    artifacts = [_write_lines(out_dir, "sparsity_check.csv", lines)]
    verdict = "satisfied" if result.satisfied else "NOT satisfied"
    print(f"sparsity-check: structural sparsity {verdict} "
          f"(D={dimension}, {len(pairs)} support entries)")
    for k, reason in sorted(result.failures.items()):
        print(f"sparsity-check:   column {k}: {reason}")
    sections = configio.echo(SparsityCheckConfig(dimension), "sparsity_check")
    failure = None if result.satisfied else "pattern is not structurally sparse"
    return artifacts, sections, 0, failure


# ablation case -> the loss weights it sets to zero
ABLATION_CASES = {"full": (), "no-anchor": ("anchor",), "no-sparsity": ("sparsity",),
                  "neither": ("anchor", "sparsity")}


@dataclass
class AblateConfig(Checked):
    """The grid cases x anchor_counts x seeds; no anchor_counts means
    [train] anchor_count alone."""
    cases: Annotated[tuple[str, ...], NONEMPTY, DISTINCT] = tuple(ABLATION_CASES)
    seeds: Annotated[tuple[int, ...], NONEMPTY, DISTINCT, NON_NEGATIVE] = (0, 1, 2)
    anchor_counts: Annotated[tuple[int, ...], DISTINCT, NON_NEGATIVE] = ()

    def __post_init__(self):
        super().__post_init__()
        unknown = [c for c in self.cases if c not in ABLATION_CASES]
        if unknown:
            raise ValueError(f"unknown ablation case {unknown[0]!r}; "
                             f"options: {', '.join(ABLATION_CASES)}")


def cmd_ablate(config, io, out_dir):
    cfg = configio.read(TrainConfig(), config, "train")
    ablate = configio.read(AblateConfig(), config, "ablate")
    train_split, test_split = _load_splits(io.data_dir, "train", "test")
    # one run per (case, anchor count, seed), in that order; every run's
    # config and the largest anchor draw are checked before the first trains
    runs = [(case, replace(cfg, anchor_count=count, seed=seed, weights=replace(
                cfg.weights, **dict.fromkeys(ABLATION_CASES[case], 0.0))))
            for case in ablate.cases
            for count in ablate.anchor_counts or (cfg.anchor_count,)
            for seed in ablate.seeds]
    most = max(run_cfg.anchor_count for _, run_cfg in runs)
    if most > len(train_split):
        raise CliError(f"requested {most} anchors from {len(train_split)} pairs")
    lines, te_by_cell = ["case,anchor_count,seed,te_mean,te_std"], {}
    for case, run_cfg in runs:
        report = train(run_cfg, train_split, test_split)
        cell = f"{case},{run_cfg.anchor_count}"
        lines.append(f"{cell},{run_cfg.seed},{format_float(report.te_mean)},"
                     f"{format_float(report.te_std)}")
        te_by_cell.setdefault(cell, []).append(report.te_mean)
        print(f"ablate: case={case} anchor_count={run_cfg.anchor_count} "
              f"seed={run_cfg.seed} TE={report.te_mean:.4f}")
    # made after the runs: the first one checks the config against the data
    os.makedirs(out_dir, exist_ok=True)
    summary = ["case,anchor_count,median_te"]
    for cell, tes in te_by_cell.items():
        summary.append(f"{cell},{format_float(float(np.median(tes)))}")
        print(f"ablate: median TE [{cell}] = {np.median(tes):.4f}")
    artifacts = [_write_lines(out_dir, "ablation.csv", lines),
                 _write_lines(out_dir, "ablation_summary.csv", summary)]
    sections = {**configio.echo(cfg, "train"), **configio.echo(ablate, "ablate")}
    return artifacts, sections, cfg.seed, None


class Verb(NamedTuple):
    """One verb: its command, its help line, the config sections it reads in
    the order its manifest records them, and the names of its [io] paths."""
    command: Callable
    help: str
    sections: tuple[str, ...]
    io: tuple[str, ...] = ()


VERBS = {
    "gen-data": Verb(cmd_gen_data, "generate the 2D paired dataset as CSV + sidecar",
                     ("data",)),
    "train": Verb(cmd_train, "train the transfer map on a generated dataset",
                  ("train", "weights", "probe", "io"), ("data_dir",)),
    "eval": Verb(cmd_eval, "evaluate a generator checkpoint on a test split",
                 ("io",), ("checkpoint", "data_dir")),
    "plot": Verb(cmd_plot, "emit scatter panels (source / target / translated) as SVG",
                 ("io", "plot", "plot.checkpoints"), ("data_dir",)),
    "probe-study": Verb(cmd_probe_study, "bias/variance study of the sparse-probe estimator",
                        ("probe_study",)),
    "mpa-check": Verb(cmd_mpa_check, "run the measure-preserving automorphism check suite",
                      ("mpa_check",)),
    "sparsity-check": Verb(cmd_sparsity_check,
                           "check structural sparsity of a support-pattern file",
                           ("io", "sparsity_check"), ("support_file",)),
    "ablate": Verb(cmd_ablate, "ablation grid: cases x anchor counts x seeds",
                   ("train", "weights", "probe", "io", "ablate"), ("data_dir",)),
}


def dispatch_from_config(command, config, out_dir):
    """Run a command from already-assembled config sections (replay path).

    A section the verb's row does not list is an error.  The manifest
    records the sections the row lists, in its order, [io] as absolute
    paths; a failed check is raised once the manifest is written.
    """
    if command not in VERBS:
        raise CliError(f"unknown command {command!r}")
    verb = VERBS[command]
    for section in config:
        if section not in verb.sections:
            raise CliError(f"{command} reads no [{section}] section; it reads "
                           + " ".join(f"[{name}]" for name in verb.sections))
    # [io] holds one field per path the row names; a key that names no field
    # is an error, and so is a path left empty
    io_class = dataclasses.make_dataclass("Io", [(name, str, "") for name in verb.io])
    io = configio.read(io_class(), config, "io")
    paths = dataclasses.asdict(io)
    for key, path in paths.items():
        if not path:
            raise CliError(f"missing [io] {key} in config")
    artifacts, sections, seed, failure = verb.command(config, io, out_dir)
    sections["io"] = {key: os.path.abspath(path) for key, path in paths.items()}
    sections = {name: sections[name] for name in verb.sections}
    manifest.write_manifest(out_dir, command, sections, seed, artifacts)
    if failure is not None:
        raise CliError(f"{command}: {failure}")
    return artifacts


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="anchordt",
        description="anchored sparse transfer maps: data, training, probes, checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.add_argument("--config", help="config file (key = value with [sections])")
        p.add_argument("--out-dir", required=True, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override one config entry (repeatable)")
        for key, help_text in IO_FLAGS.items():
            if key in verb.io:
                p.add_argument("--" + key.replace("_", "-"), help=help_text)
        if name == "plot":
            p.add_argument("--checkpoint", action="append", default=[],
                           dest="plot_checkpoints", metavar="LABEL=PATH",
                           help="generator checkpoint to add as a panel (repeatable)")
    return parser


def _assemble_config(args):
    config = configio.load(args.config) if args.config else {}
    for key in VERBS[args.command].io:
        if getattr(args, key):
            config.setdefault("io", {})[key] = getattr(args, key)
    for item in getattr(args, "plot_checkpoints", []):
        label, _, path = item.partition("=")
        if not path:
            raise CliError(f"--checkpoint needs LABEL=PATH, got {item!r}")
        config.setdefault("plot.checkpoints", {})[label] = path
    for item in args.override:
        target, equals, value = item.partition("=")
        section, _, key = target.partition(".")
        if not key or not equals:
            raise CliError(f"--override needs SECTION.KEY=VALUE, got {item!r}")
        config.setdefault(section, {})[key] = value
    return config


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Have glibc's malloc serve arrays up to 32 MiB from the heap and keep up
    to 256 MiB of freed heap mapped.

    A training step frees its whole graph when it ends, at the top of the
    heap.  By default glibc hands that memory back to the kernel and the next
    step faults the same pages in again, which costs more time than releasing
    the graph saves.  Both settings are needed: setting either one stops
    glibc from raising the two as large blocks are freed, so either alone
    leaves the other where the process's allocations so far have put it
    (128 KiB at start).  The setting is the process's, so the command sets
    it and the library does not.  It changes no result, and is skipped where
    the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        dispatch_from_config(args.command, config, args.out_dir)
    except (CliError, configio.ConfigError, TrainingDiverged, ValueError) as exc:
        print(f"anchordt {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

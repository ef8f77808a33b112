"""Command-line entry point.

Every command reads a line-oriented config (file and/or --override
SECTION.KEY=VALUE flags), writes its artifacts into --out-dir, and leaves a
manifest.txt with the effective config and sha256 checksums, from which the
run can be replayed byte-for-byte (see anchordt.manifest.replay_manifest).
The sections each verb reads are listed in VERB_SECTIONS, and a config
holding any other section is rejected, so a misspelt section name cannot
leave a default in place.  Every section but [plot.checkpoints], whose keys
are free labels, is a dataclass read by configio.read, which rejects a key
that names no field.  [io] is read into the dataclass of the paths the
running verb needs.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import configio, manifest, mpa, sparsity, svgplot
from .configio import format_float
from .nets import load_checkpoint
from .synthdata import SynthConfig, generate, load_dataset, save_dataset, select_anchors
from .trainer import TrainConfig, TrainingDiverged, sweep, train, translation_error


class CliError(RuntimeError):
    pass


def _write_lines(out_dir, name, lines):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


# [io]: one dataclass per set of paths a verb needs, every field required
@dataclass
class DataIo:
    data_dir: str = ""


@dataclass
class EvalIo:
    checkpoint: str = ""
    data_dir: str = ""


@dataclass
class SupportIo:
    support_file: str = ""


def _read_io(config, cls):
    """[io] read into the dataclass ``cls``; a key it has no field for is an
    error, and so is a field left empty."""
    io = configio.read(cls(), config, "io")
    for key, path in dataclasses.asdict(io).items():
        if not path:
            raise CliError(f"missing [io] {key} in config")
    return io


def _io_section(io):
    """The [io] manifest section: every path of ``io`` made absolute."""
    return {key: os.path.abspath(path) for key, path in dataclasses.asdict(io).items()}


# ---------------------------------------------------------------------------
# commands: each takes (config sections, out_dir) and returns artifact names
# ---------------------------------------------------------------------------

def cmd_gen_data(config, out_dir):
    cfg = configio.read(SynthConfig(), config, "data")
    train_split, test_split = generate(cfg)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = save_dataset(train_split, out_dir, "train")
    artifacts += save_dataset(test_split, out_dir, "test")
    print(f"gen-data: {len(train_split)} train / {len(test_split)} test pairs, "
          f"t_mode={cfg.t_mode}, seed={cfg.seed}")
    return artifacts, configio.echo(cfg, "data"), cfg.seed


def _load_splits(data_dir):
    if data_dir is None or not os.path.isdir(data_dir):
        raise CliError(f"data directory not found: {data_dir!r}")
    try:
        return load_dataset(data_dir, "train"), load_dataset(data_dir, "test")
    except FileNotFoundError as exc:
        raise CliError(f"dataset files missing in {data_dir}: {exc}") from None


def cmd_train(config, out_dir):
    cfg = configio.read(TrainConfig(), config, "train")
    io = _read_io(config, DataIo)
    train_split, test_split = _load_splits(io.data_dir)
    anchors = select_anchors(train_split, cfg.anchor_count, cfg.seed)
    # train() makes out_dir once the config has passed its checks on the data
    report = train(cfg, train_split, anchors, test_split, out_dir)
    artifacts = ["generator.ckpt", "discriminator.ckpt", "reconstructor.ckpt"]
    artifacts.append(_write_lines(out_dir, "trace.csv", report.trace_csv_lines()))
    artifacts.append(_write_lines(out_dir, "diag.csv", report.diag_csv_lines()))
    summary = [
        "[summary]",
        f"te_mean = {format_float(report.te_mean)}",
        f"te_std = {format_float(report.te_std)}",
        f"iterations = {cfg.iterations}",
        f"anchor_count = {anchors.size}",
    ]
    artifacts.append(_write_lines(out_dir, "summary.txt", summary))
    print(f"train: TE = {report.te_mean:.4f} +- {report.te_std:.4f} "
          f"({cfg.iterations} iterations, {report.wall_time:.1f}s)")
    sections = configio.echo(cfg, "train")
    sections["io"] = _io_section(io)
    return artifacts, sections, cfg.seed


def cmd_eval(config, out_dir):
    io = _read_io(config, EvalIo)
    if not os.path.isfile(io.checkpoint):
        raise CliError(f"checkpoint not found: {io.checkpoint!r}")
    _, test_split = _load_splits(io.data_dir)
    model = load_checkpoint(io.checkpoint)
    te_mean, te_std = translation_error(model, test_split)
    os.makedirs(out_dir, exist_ok=True)
    lines = ["te_mean,te_std,num_samples",
             f"{format_float(te_mean)},{format_float(te_std)},{len(test_split)}"]
    artifacts = [_write_lines(out_dir, "eval.csv", lines)]
    print(f"eval: TE = {te_mean:.4f} +- {te_std:.4f} on {len(test_split)} pairs")
    return artifacts, {"io": _io_section(io)}, 0


@dataclass
class PlotConfig:
    max_points: int = 1000

    def __post_init__(self):
        if self.max_points < 1:
            raise ValueError("max_points must be positive")


def cmd_plot(config, out_dir):
    cfg = configio.read(PlotConfig(), config, "plot")
    io = _read_io(config, DataIo)
    _, test_split = _load_splits(io.data_dir)
    n = len(test_split)
    idx = np.unique(np.linspace(0, n - 1, min(cfg.max_points, n)).astype(int))
    colors = [svgplot.color_for_index(int(i)) for i in idx]
    panels = [("source x", test_split.x[idx], colors),
              ("target y", test_split.y[idx], colors)]
    checkpoints = config.get("plot.checkpoints", {})
    for label in sorted(checkpoints):
        path = checkpoints[label]
        if not os.path.isfile(path):
            raise CliError(f"checkpoint not found: {path!r}")
        model = load_checkpoint(path)
        moved = model.apply(test_split.x[idx].T).T
        panels.append((f"translated ({label})", moved, colors))
    os.makedirs(out_dir, exist_ok=True)
    svgplot.scatter_panels(os.path.join(out_dir, "panels.svg"), panels)
    print(f"plot: {len(panels)} panels over {idx.size} points -> panels.svg")
    sections = {"io": _io_section(io),
                **configio.echo(cfg, "plot"),
                "plot.checkpoints": {k: os.path.abspath(v)
                                     for k, v in checkpoints.items()}}
    return ["panels.svg"], sections, 0


@dataclass
class ProbeStudyConfig:
    dimension: int = 1000
    row_support: int = 10
    mask_sizes: tuple[int, ...] = (1, 2, 5, 10, 20, 50)
    num_matrices: int = 20
    mc_samples: int = 500
    seed: int = 0
    exact_overlay: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be >= 0")


def cmd_probe_study(config, out_dir):
    cfg = configio.read(ProbeStudyConfig(), config, "probe_study")
    rng = np.random.default_rng(cfg.seed)
    result = sparsity.probe_bias_variance_study(
        cfg.dimension, cfg.row_support, cfg.mask_sizes, cfg.num_matrices,
        cfg.mc_samples, rng)
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
        l0 = np.count_nonzero(j)
        for s in cfg.mask_sizes:
            q = sparsity.q_hypergeometric(j, s)
            lines.append(f"{s},{format_float(q)},{format_float((q - l0) / l0)}")
        artifacts.append(_write_lines(out_dir, "study_exact.csv", lines))
    for r in result.rows:
        print(f"probe-study: S={r.mask_size:4d} rel_bias={r.mean_rel_bias:+.5f} "
              f"variance={r.variance:10.2f} bound_factor={r.lower_bound_factor:.5f}")
    return artifacts, configio.echo(cfg, "probe_study"), cfg.seed


def _ks_noise(n, variance_factor=2):
    """Bound on a KS statistic of n samples a side from sampling noise alone.

    3.3 on the Kolmogorov scale: for two samples of n that share a law, sqrt(n/2)*KS follows the
    Kolmogorov law, whose tail beyond 3.3 is below 1e-9; a statistic that
    also carries the error of two fitted CDFs has twice that variance
    (variance_factor 4).
    """
    return 3.3 * math.sqrt(variance_factor / n)


def _mpa_checks(n, seed, eps):
    """The default 1D suite; returns rows of (name, metric, value, threshold, ok).

    scipy is imported here, not at module level, so that the other verbs
    start without it.
    """
    from scipy import stats as scipy_stats

    mu, sigma = 0.7, 1.3
    ks_max, fitted_ks_max = _ks_noise(n), _ks_noise(n, 4)
    gauss = lambda rng, k: mu + sigma * rng.standard_normal(k)
    uniform = lambda rng, k: rng.uniform(0.0, 1.0, k)
    expo = lambda rng, k: rng.exponential(1.0, k)
    rows = []

    def add(name, metric, value, threshold, ok):
        rows.append((name, metric, value, threshold, ok))

    reflect = mpa.reflection_mpa(mu)
    ks = mpa.pushforward_ks_check(gauss, reflect, n, seed)
    add("gaussian-reflection", "ks", ks, ks_max, ks < ks_max)
    fp = mpa.count_fixed_points(reflect, (mu - 5 * sigma, mu + 5 * sigma))
    add("gaussian-reflection", "fixed_points", fp.count, 1, fp.count == 1)

    conj = mpa.cdf_conjugate_mpa(
        lambda x: scipy_stats.norm.cdf(x, mu, sigma),
        lambda q: scipy_stats.norm.ppf(q, mu, sigma))
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

    econj = mpa.cdf_conjugate_mpa(
        lambda x: scipy_stats.expon.cdf(x), lambda q: scipy_stats.expon.ppf(q))
    ks = mpa.pushforward_ks_check(expo, econj, n, seed + 3)
    add("exponential-cdf-conjugate", "ks", ks, ks_max, ks < ks_max)
    fp = mpa.count_fixed_points(econj, (0.01, 10.0))
    loc_ok = fp.count == 1 and abs(fp.locations[0] - np.log(2.0)) < 1e-6
    add("exponential-cdf-conjugate", "fixed_point_at_ln2", fp.count, 1, loc_ok)

    pm = mpa.PermutedMpa(permutation=np.array([1, 0]),
                         maps=[lambda v: v, lambda v: v])
    frac = mpa.permutation_fixed_measure_probe(
        pm, lambda rng, k: rng.standard_normal((2, k)), n, eps, seed + 4)
    add("swap-identity-fixed-set", "fraction", frac, 1e-3, frac <= 1e-3)

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
    ks_min = 2.0 * scipy_stats.norm.cdf(0.5 / sigma) - 1.0 - ks_max
    add("shift-negative-control", "ks", ks, ks_min, ks > ks_min)

    ident = mpa.count_fixed_points(lambda x: x, (-2.0, 2.0))
    add("identity-map", "flagged_identity", int(ident.is_identity), 1,
        ident.is_identity)
    return rows


@dataclass
class MpaCheckConfig:
    samples: int = 100000
    seed: int = 0
    tolerance: float = 1e-3

    def __post_init__(self):
        # the fixed-measure probe needs 10,000 samples, the KS checks 1,000
        if self.samples < 10000:
            raise ValueError(f"samples = {self.samples} must be at least 10000")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be >= 0")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance = {self.tolerance} must be positive")


def cmd_mpa_check(config, out_dir):
    cfg = configio.read(MpaCheckConfig(), config, "mpa_check")
    rows = _mpa_checks(cfg.samples, cfg.seed, cfg.tolerance)
    os.makedirs(out_dir, exist_ok=True)
    lines = ["check,metric,value,threshold,pass"]
    width = max(len(r[0]) for r in rows)
    all_ok = True
    for name, metric, value, threshold, ok in rows:
        lines.append(f"{name},{metric},{format_float(float(value))},{threshold},{ok}")
        status = "PASS" if ok else "FAIL"
        print(f"mpa-check: {name:<{width}}  {metric:<28} "
              f"{float(value):12.6g}  [{status}]")
        all_ok = all_ok and ok
    artifacts = [_write_lines(out_dir, "mpa_report.csv", lines)]
    if not all_ok:
        raise CliError("mpa-check: one or more checks failed")
    return artifacts, configio.echo(cfg, "mpa_check"), cfg.seed


@dataclass
class SparsityCheckConfig:
    """``dimension`` is D; by default one more than the largest index read."""
    dimension: int | None = None


def cmd_sparsity_check(config, out_dir):
    cfg = configio.read(SparsityCheckConfig(), config, "sparsity_check")
    io = _read_io(config, SupportIo)
    support_file = io.support_file
    if not os.path.isfile(support_file):
        raise CliError(f"support file not found: {support_file!r}")
    pairs = []
    with open(support_file, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#") or ln.lower().startswith("row"):
                continue
            try:
                r, c = (int(v) for v in ln.split(","))
            except ValueError:
                raise CliError(f"{support_file}:{lineno}: expected 'row,col'") from None
            pairs.append((r, c))
    if not pairs:
        raise CliError(f"{support_file}: no index pairs")
    inferred = max(max(r, c) for r, c in pairs) + 1
    dimension = inferred if cfg.dimension is None else cfg.dimension
    pattern = sparsity.SupportPattern(dimension=dimension,
                                      index_pairs=frozenset(pairs))
    result = sparsity.check_structural_sparsity(pattern)
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
    sections = {"io": _io_section(io),
                **configio.echo(SparsityCheckConfig(dimension), "sparsity_check")}
    if not result.satisfied:
        manifest.write_manifest(out_dir, "sparsity-check", sections, 0, artifacts)
        raise CliError("sparsity-check: pattern is not structurally sparse")
    return artifacts, sections, 0


# ablation case -> the loss weights it sets to zero
ABLATION_CASES = {"full": (), "no-anchor": ("anchor",), "no-sparsity": ("sparsity",),
                  "neither": ("anchor", "sparsity")}


@dataclass
class AblateConfig:
    """Either the case grid (cases x seeds) or, when anchor_sweep is set, the
    anchor-count sweep (anchor_sweep x seeds) at the base loss weights."""
    cases: tuple[str, ...] = tuple(ABLATION_CASES)
    seeds: tuple[int, ...] = (0, 1, 2)
    anchor_sweep: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("cases", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} is empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds entry {min(self.seeds)} must be >= 0")
        unknown = [c for c in self.cases if c not in ABLATION_CASES]
        if unknown:
            raise ValueError(f"unknown ablation case {unknown[0]!r}; "
                             f"options: {', '.join(ABLATION_CASES)}")


def cmd_ablate(config, out_dir):
    cfg = configio.read(TrainConfig(), config, "train")
    ablate = configio.read(AblateConfig(), config, "ablate")
    io = _read_io(config, DataIo)
    train_split, test_split = _load_splits(io.data_dir)
    if ablate.anchor_sweep:
        name, column = "anchor_sweep.csv", "anchor_count"
        runs = [(count, replace(cfg, anchor_count=count, seed=seed))
                for count in ablate.anchor_sweep for seed in ablate.seeds]
    else:
        name, column = "ablation.csv", "case"
        runs = [(case, replace(cfg, seed=seed, weights=replace(
                    cfg.weights, **dict.fromkeys(ABLATION_CASES[case], 0.0))))
                for case in ablate.cases for seed in ablate.seeds]
    lines = [f"{column},seed,te_mean,te_std"]
    te_by_label = {}
    reports = sweep([run_cfg for _, run_cfg in runs], train_split, test_split)
    for (label, _), (run_cfg, report) in zip(runs, reports):
        lines.append(f"{label},{run_cfg.seed},{format_float(report.te_mean)},"
                     f"{format_float(report.te_std)}")
        te_by_label.setdefault(label, []).append(report.te_mean)
        print(f"ablate: {column}={label} seed={run_cfg.seed} TE={report.te_mean:.4f}")
    # made after the runs: the first one checks the config against the data
    os.makedirs(out_dir, exist_ok=True)
    artifacts = [_write_lines(out_dir, name, lines)]
    if not ablate.anchor_sweep:
        medians = {case: float(np.median(tes)) for case, tes in te_by_label.items()}
        summary = [f"{case},{format_float(med)}" for case, med in medians.items()]
        artifacts.append(_write_lines(out_dir, "ablation_summary.csv",
                                      ["case,median_te"] + summary))
        for case, med in medians.items():
            print(f"ablate: median TE [{case}] = {med:.4f}")
    sections = configio.echo(cfg, "train")
    sections["io"] = _io_section(io)
    sections.update(configio.echo(ablate, "ablate"))
    return artifacts, sections, cfg.seed


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "plot": cmd_plot,
    "probe-study": cmd_probe_study,
    "mpa-check": cmd_mpa_check,
    "sparsity-check": cmd_sparsity_check,
    "ablate": cmd_ablate,
}


def dispatch_from_config(command, config, out_dir):
    """Run a command from already-assembled config sections (replay path)."""
    if command not in COMMANDS:
        raise CliError(f"unknown command {command!r}")
    artifacts, sections, seed = COMMANDS[command](config, out_dir)
    manifest.write_manifest(out_dir, command, sections, seed, artifacts)
    return artifacts


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="anchordt",
        description="anchored sparse transfer maps: data, training, probes, checks")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gen-data": "generate the 2D paired dataset as CSV + sidecar",
        "train": "train the transfer map on a generated dataset",
        "eval": "evaluate a generator checkpoint on a test split",
        "plot": "emit scatter panels (source / target / translated) as SVG",
        "probe-study": "bias/variance study of the sparse-probe estimator",
        "mpa-check": "run the measure-preserving automorphism check suite",
        "sparsity-check": "check structural sparsity of a support-pattern file",
        "ablate": "ablation grid or anchor-count sweep over seeds",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file (key = value with [sections])")
        p.add_argument("--out-dir", required=True, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override one config entry (repeatable)")
        if name in ("train", "eval", "plot", "ablate"):
            p.add_argument("--data-dir", help="directory holding train/test CSVs")
        if name == "eval":
            p.add_argument("--checkpoint", help="generator checkpoint path")
        if name == "plot":
            p.add_argument("--checkpoint", action="append", default=[],
                           metavar="LABEL=PATH",
                           help="generator checkpoint to add as a panel (repeatable)")
        if name == "sparsity-check":
            p.add_argument("--support-file", help="CSV of row,col index pairs")
    return parser


# the config sections each verb reads; any other section is an error
VERB_SECTIONS = {
    "gen-data": ("data",),
    "train": ("train", "weights", "probe", "io"),
    "eval": ("io",),
    "plot": ("plot", "plot.checkpoints", "io"),
    "probe-study": ("probe_study",),
    "mpa-check": ("mpa_check",),
    "sparsity-check": ("sparsity_check", "io"),
    "ablate": ("train", "weights", "probe", "ablate", "io"),
}


def _assemble_config(args):
    config = configio.load(args.config) if args.config else {}
    if getattr(args, "data_dir", None):
        config.setdefault("io", {})["data_dir"] = args.data_dir
    if args.command == "eval" and getattr(args, "checkpoint", None):
        config.setdefault("io", {})["checkpoint"] = args.checkpoint
    if args.command == "plot":
        for item in getattr(args, "checkpoint", []):
            label, _, path = item.partition("=")
            if not path:
                raise CliError(f"--checkpoint needs LABEL=PATH, got {item!r}")
            config.setdefault("plot.checkpoints", {})[label] = path
    if getattr(args, "support_file", None):
        config.setdefault("io", {})["support_file"] = args.support_file
    for item in args.override:
        target, _, value = item.partition("=")
        section, _, key = target.partition(".")
        if not key or not value:
            raise CliError(f"--override needs SECTION.KEY=VALUE, got {item!r}")
        config.setdefault(section, {})[key] = value
    known = VERB_SECTIONS[args.command]
    for section in config:
        if section not in known:
            raise CliError(f"{args.command} reads no [{section}] section; it reads "
                           + " ".join(f"[{name}]" for name in known))
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

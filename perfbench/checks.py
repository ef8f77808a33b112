"""Correctness checks on the artifacts one CLI verb wrote.

Each check takes the verb's output directory and returns a list of
problems; an empty list means the outputs are correct.  They read only the
files the verb wrote, so the benchmark's parent process never imports the
package under test.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

# How far a probe-study row may sit from the closed form, in standard errors.
PROBE_BIAS_SIGMAS = 4.0


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_sections(path) -> dict[str, dict[str, str]]:
    """The ``[section]`` / ``key = value`` layout of manifests and summaries."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1].strip(), {})
            elif current is not None and "=" in line:
                key, _, value = line.partition("=")
                current[key.strip()] = value.strip()
    return sections


def manifest_checksums(out_dir) -> dict[str, str]:
    return read_sections(os.path.join(out_dir, "manifest.txt")).get("checksums", {})


def train_outcome(out_dir) -> dict[str, float]:
    """Test TE and the last energy distance: recorded beside the metrics, never gated."""
    summary = read_sections(os.path.join(out_dir, "summary.txt"))["summary"]
    diag = read_csv(os.path.join(out_dir, "diag.csv"))
    return {"te_mean": float(summary["te_mean"]),
            "energy_distance": float(diag[-1]["energy_distance"]) if diag else math.nan}


def check_train(out_dir) -> list[str]:
    """Every trace.csv loss is finite and so is the test TE."""
    problems = []
    rows = read_csv(os.path.join(out_dir, "trace.csv"))
    if not rows:
        problems.append("trace.csv has no iterations")
    for row in rows:
        bad = [k for k, v in row.items() if k != "iteration" and not math.isfinite(float(v))]
        if bad:
            problems.append(f"trace.csv iteration {row['iteration']}: non-finite {bad}")
            break
    te = train_outcome(out_dir)["te_mean"]
    if not math.isfinite(te):
        problems.append(f"test TE is {te}")
    return problems


def closed_form_rel_bias(dimension: int, row_support: int, mask_size: int) -> float:
    """(D/(S*T)) * (1 - C(D-T, S)/C(D, S)) - 1: the exact q(J) for uniform row support T."""
    miss = math.comb(dimension - row_support, mask_size) / math.comb(dimension, mask_size)
    return dimension / (mask_size * row_support) * (1.0 - miss) - 1.0


def check_probe_study(out_dir, dimension, row_support, mask_sizes, num_matrices,
                      mc_samples) -> list[str]:
    """Each row's mean relative bias lies within PROBE_BIAS_SIGMAS standard errors
    of the closed form; the standard error is sqrt(variance / (matrices * draws)) / (D * T)."""
    rows = read_csv(os.path.join(out_dir, "study.csv"))
    if [int(r["S"]) for r in rows] != list(mask_sizes):
        return [f"study.csv mask sizes {[r['S'] for r in rows]} != {list(mask_sizes)}"]
    problems = []
    for r in rows:
        s = int(r["S"])
        bias, variance = float(r["mean_rel_bias"]), float(r["variance"])
        expected = closed_form_rel_bias(dimension, row_support, s)
        stderr = math.sqrt(variance / (num_matrices * mc_samples)) / (dimension * row_support)
        if not abs(bias - expected) <= PROBE_BIAS_SIGMAS * stderr:
            problems.append(f"S={s}: mean_rel_bias {bias:.6g} is not within "
                            f"{PROBE_BIAS_SIGMAS:g} x {stderr:.3g} of {expected:.6g}")
    return problems


# mpa_suite's KS statistics have 100,000 samples a side.  For a map that
# preserves its law, sqrt(n/2)*KS follows the Kolmogorov law, whose tail beyond
# 3.3 is below 1e-9.  The finite-translations statistics also carry the error
# of two fitted CDFs, which doubles the variance: sqrt(n/4)*KS.  (mpa-check's
# own threshold of 0.01 sits at 2.2 and 1.6 on these scales; over 200 seeds
# the finite-translations rows crossed it 5 times in 400.)
KS_BOUND = 3.3 / math.sqrt(100000 / 2)
FITTED_KS_BOUND = 3.3 / math.sqrt(100000 / 4)
# KS distance between N(mu, 1.3^2) and its shift by 1.0: 2*Phi(0.5/1.3) - 1.
SHIFT_KS = math.erf(0.5 / 1.3 / math.sqrt(2.0))
# The shift's statistic has a standard error of about 0.002 at 100,000
# samples; over 400 seeds it deviated by at most 0.006.
SHIFT_KS_TOLERANCE = 0.012

# (check, metric) of mpa_values.csv -> (what the value must satisfy, its truth)
MPA_TRUTHS = {
    ("gaussian-reflection", "ks"): (lambda v: v < KS_BOUND, f"< {KS_BOUND:.4f}"),
    ("gaussian-reflection", "fixed_points"): (lambda v: v == 1, "== 1"),
    ("gaussian-cdf-conjugate", "ks"): (lambda v: v < KS_BOUND, f"< {KS_BOUND:.4f}"),
    ("gaussian-cdf-conjugate", "max_dev_from_reflection"): (lambda v: v < 1e-7, "< 1e-7"),
    ("uniform-cdf-conjugate", "ks"): (lambda v: v < KS_BOUND, f"< {KS_BOUND:.4f}"),
    ("uniform-cdf-conjugate", "fixed_points"): (lambda v: v == 1, "== 1"),
    ("exponential-cdf-conjugate", "ks"): (lambda v: v < KS_BOUND, f"< {KS_BOUND:.4f}"),
    ("exponential-cdf-conjugate", "fixed_points"): (lambda v: v == 1, "== 1"),
    ("exponential-cdf-conjugate", "fixed_point"):
        (lambda v: abs(v - math.log(2.0)) < 1e-6, "within 1e-6 of ln 2"),
    ("swap-identity-fixed-set", "fraction"): (lambda v: v <= 1e-3, "<= 1e-3"),
    ("finite-translations", "ks_increasing"):
        (lambda v: v < FITTED_KS_BOUND, f"< {FITTED_KS_BOUND:.4f}"),
    ("finite-translations", "ks_decreasing"):
        (lambda v: v < FITTED_KS_BOUND, f"< {FITTED_KS_BOUND:.4f}"),
    ("finite-translations", "crossings"): (lambda v: v == 1, "== 1"),
    ("shift-negative-control", "ks"):
        (lambda v: abs(v - SHIFT_KS) <= SHIFT_KS_TOLERANCE,
         f"within {SHIFT_KS_TOLERANCE} of {SHIFT_KS:.6f}"),
    ("identity-map", "flagged_identity"): (lambda v: v == 1, "== 1"),
}


def check_mpa_suite(out_dir) -> list[str]:
    """At every seed, mpa_values.csv has one value per entry of MPA_TRUTHS,
    and each value satisfies its truth there: for the maps that preserve
    their law, KS statistics within sampling noise of 0 and mpa-check's other
    thresholds; for the shift, which does not, its population KS distance."""
    rows = read_csv(os.path.join(out_dir, "mpa_values.csv"))
    if not rows:
        return ["mpa_values.csv has no rows"]
    problems = []
    for seed in sorted({r["seed"] for r in rows}):
        found = sorted((r["check"], r["metric"]) for r in rows if r["seed"] == seed)
        if found != sorted(MPA_TRUTHS):
            problems.append(f"seed {seed}: rows {found} != {sorted(MPA_TRUTHS)}")
    for r in rows:
        holds, truth = MPA_TRUTHS.get((r["check"], r["metric"]), (None, None))
        if holds and not holds(float(r["value"])):
            problems.append(f"seed {r['seed']}: {r['check']} {r['metric']} = "
                            f"{r['value']}, expected {truth}")
    return problems


def output_digests(out_dir) -> dict[str, str]:
    """The manifest's checksums, or the SHA-256 of every file when the
    program writes no manifest."""
    if os.path.isfile(os.path.join(out_dir, "manifest.txt")):
        return manifest_checksums(out_dir)
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests

"""Self-tests of the benchmark at tiny lengths: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import child
import run
from tracer import Tracer


def tiny(name, **settings):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, settings={**workload.settings, **settings})


TINY = {
    "train-exact": tiny("train-exact", **{"train.iterations": "3"}),
    "train-fd": tiny("train-fd", **{"train.iterations": "2"}),
    "probe-study": tiny("probe-study", **{"probe_study.num_matrices": "2",
                                          "probe_study.mc_samples": "100"}),
    "mpa-suite": run.WORKLOADS["mpa-suite"],
}


def measure(tmp_path, name, seed=3, trace=False):
    return run.measure(TINY[name], seed, 0, trace, runs_dir=str(tmp_path),
                       min_children=2)


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_checks_pass(tmp_path, monkeypatch, name):
    monkeypatch.setenv("ANCHORDT_SEED", "99")      # must not reach the children
    result = measure(tmp_path, name)
    assert result["attempted"] == 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, result["record"]
    if name != "mpa-suite":
        out = os.path.join(tmp_path, name, "child00", "out")
        manifest = checks.read_sections(os.path.join(out, "manifest.txt"))
        assert manifest["manifest"]["seed"] == "3"


def test_traced_run_matches_untraced_bytes(tmp_path):
    result = measure(tmp_path, "train-exact", trace=True)
    assert result["correct"], result["record"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["autodiff.backward.calls"]["value"] == 2 * 3
    assert result["metrics"]["sparsity.draw_probe.calls"]["value"] == 0
    plain, traced = (os.path.join(tmp_path, "train-exact", c, "out", "trace.csv")
                     for c in ("child00", "child01"))
    with open(plain, "rb") as a, open(traced, "rb") as b:
        assert a.read() == b.read()
    with open(os.path.join(tmp_path, "train-exact", "child01", "report.json")) as fh:
        report = json.load(fh)
    inside = report["work_self_s"]
    assert {run._self_metric(span) for span in inside} <= set(run.PER_LAYER)
    assert "autodiff.parameter" in inside and "objective.gan_losses.disc_step" in inside
    assert math.isclose(sum(inside.values()), report["spans"]["trainer.train"]["total_s"],
                        rel_tol=1e-9)


def test_unpublished_self_time_is_a_failure(tmp_path, monkeypatch):
    per_layer = dict(run.PER_LAYER)
    del per_layer["autodiff.other.self_s"]
    monkeypatch.setattr(run, "PER_LAYER", per_layer)
    result = measure(tmp_path, "train-exact", trace=True)
    assert result["failed"] == 1                   # the traced child
    problems = result["record"]["children"][1]["problems"]
    assert len(problems) == 1 and "autodiff.parameter" in problems[0]


def test_failed_check_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "check_train", lambda out_dir: ["broken"])
    result = measure(tmp_path, "train-exact")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


@pytest.fixture(scope="module")
def train_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    assert run.measure(TINY["train-exact"], 3, 0, False, runs_dir=str(tmp),
                       min_children=1)["correct"]
    return os.path.join(tmp, "train-exact", "child00", "out")


def _edit(src, dst, name, old, new):
    shutil.copytree(src, dst)
    path = os.path.join(dst, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))
    return dst


def test_non_finite_te_is_a_failure(train_out, tmp_path):
    assert checks.check_train(train_out) == []
    te = checks.read_sections(os.path.join(train_out, "summary.txt"))["summary"]["te_mean"]
    broken = _edit(train_out, tmp_path / "te", "summary.txt", f"te_mean = {te}", "te_mean = nan")
    assert checks.check_train(broken)


def test_non_finite_loss_is_a_failure(train_out, tmp_path):
    with open(os.path.join(train_out, "trace.csv"), encoding="utf-8") as fh:
        row = fh.read().splitlines()[2]            # iteration 1
    first = row.split(",")[1]
    broken = _edit(train_out, tmp_path / "loss", "trace.csv", f"\n1,{first},", "\n1,inf,")
    assert any("non-finite" in p for p in checks.check_train(broken))


def _study(tmp_path, shift):
    d, t, m, draws = 1000, 10, 20, 500
    lines = ["S,mean_rel_bias,variance,lower_bound_factor"]
    for s in (1, 5, 50):
        variance = 1e6 / s
        stderr = math.sqrt(variance / (m * draws)) / (d * t)
        lines.append(f"{s},{checks.closed_form_rel_bias(d, t, s) + shift * stderr!r},"
                     f"{variance!r},1")
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / "study.csv").write_text("\n".join(lines) + "\n")
    return checks.check_probe_study(tmp_path, d, t, (1, 5, 50), m, draws)


def test_probe_bias_outside_its_band_is_a_failure(tmp_path):
    assert _study(tmp_path / "in", 3.9) == []
    assert len(_study(tmp_path / "out", -4.1)) == 3


def test_closed_form_matches_hypergeometric_q():
    sys.path.insert(0, run.SRC)
    import numpy as np
    from anchordt import sparsity
    j = sparsity.random_sparse_jacobian(50, 4, np.random.default_rng(0))
    for s in (1, 3, 7):
        q = sparsity.q_hypergeometric(j, s)
        assert math.isclose(checks.closed_form_rel_bias(50, 4, s), q / (50 * 4) - 1,
                            rel_tol=1e-12, abs_tol=1e-12)


@pytest.fixture(scope="module")
def mpa_outputs(tmp_path_factory):
    """mpa_values.csv of the suite and mpa_report.csv of the verb at seed 401,
    a seed at which the verb's shift negative control fails."""
    tmp = tmp_path_factory.mktemp("mpa")
    args = ["--out-dir", str(tmp), "--override", "mpa_check.seed=401"]
    verb = subprocess.run([sys.executable, "-m", "anchordt", "mpa-check"] + args,
                          env=run.child_env(), capture_output=True, text=True, timeout=180)
    suite = subprocess.run([sys.executable, run.CHILD, "--report", str(tmp / "r.json"),
                            "--work", "mpa_suite.suite", "--", "mpa-suite"] + args,
                           env=run.child_env(), capture_output=True, text=True, timeout=180)
    assert suite.returncode == 0, suite.stderr
    return tmp, verb


def test_mpa_suite_computes_what_the_verb_computes(mpa_outputs):
    out, _ = mpa_outputs
    assert checks.check_mpa_suite(out) == []
    report = {(r["check"], r["metric"]): float(r["value"])
              for r in checks.read_csv(out / "mpa_report.csv")}
    values = {(r["check"], r["metric"]): float(r["value"])
              for r in checks.read_csv(out / "mpa_values.csv") if r["seed"] == "401"}
    shared = set(report) & set(values)
    assert len(shared) == len(report) - 1           # all but fixed_point_at_ln2
    assert all(report[k] == values[k] for k in shared)


@pytest.mark.xfail(reason="mpa-check requires KS > 0.3 of a shift whose population "
                          "KS distance is 0.2995, so it fails at some seeds")
def test_mpa_check_verb_passes(mpa_outputs):
    _, verb = mpa_outputs
    assert verb.returncode == 0, verb.stdout


def _mpa_values(tmp_path, changed=()):
    rows = dict.fromkeys(checks.MPA_TRUTHS, 0.0)
    for key in [k for k in rows if k[1] in ("fixed_points", "crossings", "flagged_identity")]:
        rows[key] = 1.0
    rows["exponential-cdf-conjugate", "fixed_point"] = math.log(2.0)
    rows["shift-negative-control", "ks"] = checks.SHIFT_KS
    rows.update(dict(changed))
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / "mpa_values.csv").write_text("seed,check,metric,value\n" + "".join(
        f"{seed},{c},{m},{v!r}\n" for seed in (5, 15) for (c, m), v in rows.items()))
    return checks.check_mpa_suite(tmp_path)


def test_wrong_mpa_value_is_a_failure(tmp_path):
    assert _mpa_values(tmp_path / "ok") == []
    assert len(_mpa_values(tmp_path / "ks", {("gaussian-reflection", "ks"): 0.02})) == 2
    assert len(_mpa_values(tmp_path / "shift", {
        ("shift-negative-control", "ks"): checks.SHIFT_KS + 0.013})) == 2
    assert len(_mpa_values(tmp_path / "fp", {
        ("uniform-cdf-conjugate", "fixed_points"): 2.0})) == 2
    assert len(_mpa_values(tmp_path / "extra", {("identity-map", "fixed_points"): 1.0})) == 2


def _bindings():
    """Every attribute of every anchordt module and traced class, by identity."""
    mods = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "anchordt"}
    out = {(k, a): id(v) for k, m in mods.items() for a, v in vars(m).items()}
    for cls in (mods["anchordt.nets"].MlpModel, mods["anchordt.nets"].MlpBinding):
        out.update({(cls.__name__, a): id(v) for a, v in vars(cls).items()})
    return out


def test_tracer_restores_every_wrapped_attribute():
    sys.path.insert(0, run.SRC)
    import numpy as np
    import anchordt.cli
    from anchordt import nets, objective, sparsity
    before = _bindings()
    original = sparsity.draw_probe
    tracer = Tracer().install(child.LAYER_TARGETS + [("trainer", "train", "trainer.train")])
    try:
        assert objective.draw_probe is sparsity.draw_probe is not original
        assert _bindings() != before
        model = nets.init_mlp((2, 8, 8, 2), "identity", 0)
        nets.bind(model)(anchordt.autodiff.input_node(np.ones((2, 4))))
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert sparsity.draw_probe is objective.draw_probe is original
    spans = tracer.summary()
    assert spans["autodiff.matmul"]["calls"] == 3
    assert spans["nets.MlpBinding.__call__"]["calls"] == 1
    inside, total = tracer.subtree_self_times("nets.MlpBinding.__call__")
    assert set(inside) == {"nets.MlpBinding.__call__", "autodiff.matmul", "autodiff.add",
                           "autodiff.leaky_relu"}
    assert math.isclose(sum(inside.values()), total, rel_tol=1e-9)


def test_child_env_pins_blas_and_drops_seed(monkeypatch):
    monkeypatch.setenv("ANCHORDT_SEED", "5")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    env = run.child_env()
    assert "ANCHORDT_SEED" not in env
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

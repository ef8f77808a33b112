"""The anchordt benchmark: CLI verbs and the mpa layer in fresh single-threaded
child processes.

    python3 perfbench/run.py --workload train-exact --seed 1 --seconds 30 --trace 0

The checkout is the directory holding ``perfbench/``: the package is
imported from its ``src/``, and artifacts go to its ``.perfbench_runs/``,
which keeps each workload's latest run for inspection.  A run prepares its
inputs from ``--seed`` (a warm-up child that imports the package and records
library versions, then ``gen-data`` for the train workloads), then launches
the workload's verb in one child process after another, never two at once,
until ``--seconds`` are used up; every child is one operation.  The verb is
an ``anchordt`` CLI verb, or ``mpa-suite`` (mpa_suite.py).  The seed reaches
the program only through config overrides.

With ``--trace 0`` it prints the end-to-end metrics, medians over the
children; with ``--trace 1`` it alternates untraced and traced children and
prints the per-layer metrics, medians over the traced children, and the
tracing overhead.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record.  METRICS.md maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)                # the checkout holding perfbench/ and src/
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")

# One BLAS thread per child: two threads measured slower on this code and
# burn a second core.  ANCHORDT_SEED is removed from the child environment
# because the package lets it replace any configured seed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DROPPED_ENV = ("ANCHORDT_SEED",)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "autodiff.backward.calls": "count",
    "autodiff.backward.self_s": "s",
    "autodiff.matmul.self_s": "s",
    "autodiff.add.self_s": "s",
    "autodiff.leaky_relu.self_s": "s",
    "autodiff.sigmoid.self_s": "s",
    "autodiff.elementwise_mul.self_s": "s",
    "autodiff.input_node.self_s": "s",
    "autodiff.other.self_s": "s",
    "autodiff.nodes": "count",
    "nets.MlpModel.apply.calls": "count",
    "nets.MlpModel.apply.self_s": "s",
    "nets.MlpBinding.__call__.total_s": "s",
    "nets.adam_step.self_s": "s",
    "nets.save_checkpoint.self_s": "s",
    "nets.other.self_s": "s",
    "manifest.write_manifest.self_s": "s",
    "svgplot.line_chart.self_s": "s",
    "objective.gan_losses.disc_step.total_s": "s",
    "objective.gan_losses.gen_step.total_s": "s",
    "objective.anchor_loss.total_s": "s",
    "objective.inv_loss.total_s": "s",
    "objective.sparsity_loss.total_s": "s",
    "objective.sparsity_loss.self_s": "s",
    "objective.other.self_s": "s",
    "sparsity.draw_probe.calls": "count",
    "sparsity.draw_probe.self_s": "s",
    "sparsity.activation_masks.self_s": "s",
    "sparsity.batched_jvp_graph.total_s": "s",
    "sparsity.q_probe_samples.calls": "count",
    "sparsity.q_probe_samples.self_s": "s",
    "sparsity.random_mask.calls": "count",
    "sparsity.random_mask.self_s": "s",
    "sparsity.random_sparse_jacobian.total_s": "s",
    "sparsity.probe_bias_variance_study.total_s": "s",
    "sparsity.other.self_s": "s",
    "trainer.train.total_s": "s",
    "trainer.train.self_s": "s",
    "stats.energy_distance.self_s": "s",
    "import.anchordt_s": "s",
    "synthdata.load_dataset.self_s": "s",
    "mpa.pushforward_ks_check.total_s": "s",
    "mpa.count_fixed_points.total_s": "s",
    "mpa.finite_translations_check.total_s": "s",
    "mpa.permutation_fixed_measure_probe.total_s": "s",
    "mpa.other.self_s": "s",
    "mpa_suite.suite.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


@dataclass
class Workload:
    name: str
    verb: str
    settings: dict[str, str]            # config overrides, SECTION.KEY -> value
    seed_keys: tuple[str, ...]          # overrides that receive the workload seed
    work: str                           # MODULE.FUNCTION doing the verb's work
    unit_of_work: str                   # what work_per_s counts
    needs_data: bool = False

    def items(self, out_dir) -> int:
        """Units of work one child does, for work_per_s."""
        if self.verb == "train":
            return int(self.settings["train.iterations"])
        if self.verb == "probe-study":
            sizes = self.settings["probe_study.mask_sizes"].split(",")
            return (len(sizes) * int(self.settings["probe_study.num_matrices"])
                    * int(self.settings["probe_study.mc_samples"]))
        return len(checks.read_csv(os.path.join(out_dir, "mpa_values.csv")))

    def check(self, out_dir) -> list[str]:
        if self.verb == "train":
            return checks.check_train(out_dir)
        if self.verb == "probe-study":
            s = self.settings
            return checks.check_probe_study(
                out_dir, int(s["probe_study.dimension"]),
                int(s["probe_study.row_support"]),
                [int(v) for v in s["probe_study.mask_sizes"].split(",")],
                int(s["probe_study.num_matrices"]), int(s["probe_study.mc_samples"]))
        return checks.check_mpa_suite(out_dir)


WORKLOADS = {
    # Graph building and backward dominate; the probe sketch does no work.
    "train-exact": Workload(
        "train-exact", "train",
        {"train.iterations": "200"},
        ("train.seed",), "trainer.train", "train iterations", needs_data=True),
    # Same loop, but one draw_probe call per sample and probe round dominates.
    "train-fd": Workload(
        "train-fd", "train",
        {"train.iterations": "30",
         "train.sparsity_mode": "masked-fd"},
        ("train.seed",), "trainer.train", "train iterations", needs_data=True),
    # The sketch layer alone, at D=1000 instead of train-fd's D=2.
    "probe-study": Workload(
        "probe-study", "probe-study",
        {"probe_study.dimension": "1000", "probe_study.row_support": "10",
         "probe_study.mask_sizes": "1,2,5,10,20,50",
         "probe_study.num_matrices": "8", "probe_study.mc_samples": "500"},
        ("probe_study.seed",), "sparsity.probe_bias_variance_study",
        "probe draws"),
    # The mpa layer, called as the mpa-check verb calls it (mpa_suite.py).
    # The verb is not run: its shift negative control fails at some seeds.
    "mpa-suite": Workload(
        "mpa-suite", "mpa-suite", {}, ("mpa_check.seed",), "mpa_suite.suite",
        "checks"),
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class ChildRun:
    dir: str                            # report, stdout and stderr of the child
    traced: bool
    code: int
    launch: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report: dict

    @property
    def out_dir(self) -> str:
        """Where the verb writes its artifacts."""
        return os.path.join(self.dir, "out")


def run_child(child_args, child_dir, traced=False) -> ChildRun:
    """Launch child.py, wait for it alone, and account its own resources."""
    os.makedirs(child_dir)
    report_path = os.path.join(child_dir, "report.json")
    cmd = [sys.executable, CHILD, "--report", report_path] + child_args
    with open(os.path.join(child_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(child_dir, "stderr.txt"), "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if os.path.isfile(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    # ru_maxrss is in KiB on Linux
    return ChildRun(dir=child_dir, traced=traced, code=proc.returncode,
                    launch=launch, wall_s=end - launch,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0, report=report)


def _verb_args(workload, seed, out_dir, data_dir):
    args = [workload.verb, "--out-dir", out_dir]
    if workload.needs_data:
        args += ["--data-dir", data_dir]
    overrides = dict(workload.settings)
    overrides.update({key: str(seed) for key in workload.seed_keys})
    for key, value in overrides.items():
        args += ["--override", f"{key}={value}"]
    return args


def _prepare(workload, seed, run_dir):
    """Warm-up child (library versions) and, for train workloads, the dataset."""
    warm = run_child(["--versions"], os.path.join(run_dir, "warmup"))
    if warm.code != 0 or "versions" not in warm.report:
        raise BenchError(f"warm-up child failed (exit {warm.code}); "
                         f"see {warm.dir}/stderr.txt")
    data_dir = os.path.join(run_dir, "data")
    if workload.needs_data:
        gen = subprocess.run(
            [sys.executable, "-m", "anchordt", "gen-data", "--out-dir", data_dir,
             "--override", f"data.seed={seed}"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True)
        if gen.returncode != 0:
            raise BenchError(f"gen-data failed: {gen.stderr.strip()}")
    return warm.report["versions"], data_dir


def _child_metrics(workload, child) -> dict[str, float]:
    """End-to-end metrics of one child; empty when its work never ran."""
    report = child.report
    if "work_start" not in report:
        return {}
    work_s = report["work_end"] - report["work_start"]
    return {"setup_s": report["work_start"] - child.launch,
            "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb,
            "work_per_s": workload.items(child.out_dir) / work_s}


def _self_metric(span) -> str:
    """The per-layer metric that holds a span's self time: its own
    ``<span>.self_s``, else its module's ``<module>.other.self_s``."""
    own = span + ".self_s"
    return own if own in PER_LAYER else span.partition(".")[0] + ".other.self_s"


def _layer_metrics(child) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0)
    del out["trace.overhead_s"]
    for span, row in child.report["spans"].items():
        for stat in ("calls", "total_s"):
            if f"{span}.{stat}" in out:
                out[f"{span}.{stat}"] = row[stat]
        if _self_metric(span) in out:
            out[_self_metric(span)] += row["self_s"]
    out["autodiff.nodes"] = child.report["nodes"]
    out["import.anchordt_s"] = child.report["import_s"]
    return out


def _problems(workload, child) -> list[str]:
    if child.code != 0:
        return [f"exit code {child.code}"]
    if "work_start" not in child.report:
        return ["the work function never ran"]
    problems = workload.check(child.out_dir)
    if child.traced:
        # the published self times must account for the whole work call
        inside, total = child.report["work_self_s"], child.report["work_total_s"]
        published = sum(t for span, t in inside.items() if _self_metric(span) in PER_LAYER)
        if not abs(published - total) <= 1e-9 * (1.0 + total):
            missing = sorted(span for span in inside if _self_metric(span) not in PER_LAYER)
            problems.append(f"published self times sum to {published!r}, {workload.work} "
                            f"took {total!r}; not published: {missing}")
    return problems


def _determinism_problems(children) -> dict[int, str]:
    """Children at one seed must write byte-identical artifacts."""
    sums = {}
    for i, child in enumerate(children):
        if os.path.isdir(child.out_dir):
            sums[i] = tuple(sorted(checks.output_digests(child.out_dir).items()))
    if not sums:
        return {}
    reference, _ = Counter(sums.values()).most_common(1)[0]
    return {i: "artifact checksums differ from the other children at this seed"
            for i, s in sums.items() if s != reference}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            runs_dir: str = RUNS_DIR, min_children: int | None = None) -> dict:
    """One benchmark run; returns the result object and the run record."""
    run_dir = os.path.join(runs_dir, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    versions, data_dir = _prepare(workload, seed, run_dir)
    if min_children is None:
        min_children = 4 if trace else 3

    children: list[ChildRun] = []
    begin = time.monotonic()
    while True:
        traced = trace and len(children) % 2 == 1
        child_dir = os.path.join(run_dir, f"child{len(children):02d}")
        args = ["--work", workload.work] + (["--trace"] if traced else [])
        args += ["--"] + _verb_args(workload, seed, os.path.join(child_dir, "out"),
                                    data_dir)
        children.append(run_child(args, child_dir, traced))
        # stop before a child that would likely end past the deadline
        elapsed = time.monotonic() - begin
        if len(children) >= min_children and elapsed * (1 + 1 / len(children)) > seconds:
            break

    problems = {i: _problems(workload, c) for i, c in enumerate(children)}
    for i, msg in _determinism_problems(children).items():
        problems[i].append(msg)
    failed = sum(1 for p in problems.values() if p)

    per_child = [_child_metrics(workload, c) for c in children]
    if trace:
        layers = [_layer_metrics(c) for c in children if c.traced and c.report.get("spans")]
        if not layers:
            raise BenchError("no traced child completed")
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        # launch to the verb's return: the child's own bookkeeping comes after
        verb_s = {traced: statistics.median(c.report["verb_end"] - c.launch
                                            for c in children
                                            if c.traced == traced and "verb_end" in c.report)
                  for traced in (False, True)}
        metrics["trace.overhead_s"] = verb_s[True] - verb_s[False]
        units = PER_LAYER
    else:
        done = [m for m in per_child if m]
        if not done:
            raise BenchError(f"no child completed its work: {problems[0]}")
        metrics = {k: statistics.median(m[k] for m in done) for k in END_TO_END}
        units = END_TO_END

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _git_commit(), "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "versions": versions, "child_env": dict(BLAS_ENV, removed=list(DROPPED_ENV)),
        "unit_of_work": workload.unit_of_work,
        "children": [
            {"traced": c.traced, "exit": c.code, "problems": problems[i],
             "wall_s": c.wall_s, **per_child[i],
             **(checks.train_outcome(c.out_dir)
                if workload.verb == "train" and not problems[i] else {})}
            for i, c in enumerate(children)],
    }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": len(children), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "record": record}


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "anchordt", "cli.py")):
        print(f"perfbench: no anchordt sources under {SRC}; the checkout that "
              "holds perfbench/ must hold src/anchordt/ too", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} children, {result['failed']} failed")
    for i, child in enumerate(record["children"]):
        for problem in child["problems"]:
            print(f"  child {i}: {problem}")
    for name, m in result["metrics"].items():
        note = f"  ({workload.unit_of_work})" if name == "work_per_s" else ""
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}{note}")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

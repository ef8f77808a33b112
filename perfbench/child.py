"""Run one ``anchordt`` CLI verb in this fresh process and report its timings.

    python3 perfbench/child.py --report R.json --work MODULE.FUNCTION [--trace] -- VERB ARGS...
    python3 perfbench/child.py --report R.json --versions

The verb runs through ``anchordt.cli.main``, exactly as the ``anchordt``
command would run it; the verb ``mpa-suite`` runs ``mpa_suite.main`` instead.  The work function (``trainer.train`` for ``train``)
is wrapped so its start and end land in the report: the parent measures
set-up time from its own launch timestamp to the start of that call.  The
report also holds the moment ``cli.main`` returned, taken before any of the
report is put together.  With ``--trace`` every layer function below is
wrapped as well, and the report carries per-span statistics and the self
time inside the work call by span name.
``--versions`` only imports the package and records library versions, which
also warms the file cache and the bytecode cache for later children.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import Tracer


def _gan_step(args, kwargs):
    """Span name of a gan_losses call: the discriminator step detaches g(x).

    detach_generator is gan_losses' eighth parameter."""
    detached = kwargs.get("detach_generator", args[7] if len(args) > 7 else False)
    return "objective.gan_losses." + ("disc_step" if detached else "gen_step")


# autodiff constructors; the calls to them are the nodes a run builds
NODE_CONSTRUCTORS = (
    "input_node", "parameter", "matmul", "add", "subtract", "scale",
    "elementwise_mul", "leaky_relu", "tanh", "sigmoid", "log", "square",
    "clip", "abs_sum", "node_sum", "mean",
)

LAYER_TARGETS = [("autodiff", "backward", "autodiff.backward")]
LAYER_TARGETS += [("autodiff", f, f"autodiff.{f}") for f in NODE_CONSTRUCTORS]
LAYER_TARGETS += [
    ("nets", "MlpModel.apply", "nets.MlpModel.apply"),
    ("nets", "MlpBinding.__call__", "nets.MlpBinding.__call__"),
    ("nets", "adam_step", "nets.adam_step"),
    ("nets", "save_checkpoint", "nets.save_checkpoint"),
    ("objective", "gan_losses", _gan_step),
    ("objective", "anchor_loss", "objective.anchor_loss"),
    ("objective", "inv_loss", "objective.inv_loss"),
    ("objective", "sparsity_loss", "objective.sparsity_loss"),
    ("sparsity", "draw_probe", "sparsity.draw_probe"),
    ("sparsity", "random_mask", "sparsity.random_mask"),
    ("sparsity", "activation_masks", "sparsity.activation_masks"),
    ("sparsity", "batched_jvp_graph", "sparsity.batched_jvp_graph"),
    ("sparsity", "q_probe_samples", "sparsity.q_probe_samples"),
    ("sparsity", "random_sparse_jacobian", "sparsity.random_sparse_jacobian"),
    ("stats", "energy_distance", "stats.energy_distance"),
    ("synthdata", "load_dataset", "synthdata.load_dataset"),
    ("manifest", "write_manifest", "manifest.write_manifest"),
    ("svgplot", "line_chart", "svgplot.line_chart"),
    ("mpa", "pushforward_ks_check", "mpa.pushforward_ks_check"),
    ("mpa", "count_fixed_points", "mpa.count_fixed_points"),
    ("mpa", "finite_translations_check", "mpa.finite_translations_check"),
    ("mpa", "permutation_fixed_measure_probe", "mpa.permutation_fixed_measure_probe"),
]


def _versions():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--work")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--versions", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    start = time.monotonic()
    import anchordt.cli as cli
    report = {"import_s": time.monotonic() - start}
    if args.versions:
        report["versions"] = _versions()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    import mpa_suite
    module, _, function = args.work.partition(".")
    targets = [(module, function, args.work)]
    if args.trace:
        targets = LAYER_TARGETS + targets
    tracer = Tracer().install(targets)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        if argv[:1] == ["mpa-suite"]:
            code = mpa_suite.main(argv[1:])
        else:
            code = cli.main(argv)
    finally:
        report["verb_end"] = time.monotonic()
        tracer.uninstall()
        work = [i for i, n in enumerate(tracer.names) if n == args.work]
        if work:
            report["work_start"] = tracer.starts[work[0]]
            report["work_end"] = tracer.ends[work[-1]]
        if args.trace:
            report["spans"] = spans = tracer.summary()
            report["nodes"] = sum(spans.get(f"autodiff.{f}", {}).get("calls", 0)
                                  for f in NODE_CONSTRUCTORS)
            report["work_self_s"], report["work_total_s"] = \
                tracer.subtree_self_times(args.work)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

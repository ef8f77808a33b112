"""CLI verbs end to end: reproducible training, manifest replay, exit codes."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import anchordt
from anchordt import cli, configio, manifest, nets, sparsity, synthdata, trainer


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["gen-data", "--out-dir", str(out), "--override", "data.seed=3",
                     "--override", "data.num_train=400",
                     "--override", "data.num_test=64"]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert cli.main(["train", "--out-dir", str(out), "--data-dir", str(data_dir),
                     "--override", "train.iterations=2",
                     "--override", "train.batch_size=16"]) == 0
    return out / "generator.ckpt"


def train(data_dir, out_dir, mode):
    overrides = {"train.seed": "3", "train.iterations": "3", "train.batch_size": "32",
                 "train.diag_interval": "2", "train.diag_points": "32",
                 "train.sparsity_mode": mode}
    argv = ["train", "--out-dir", str(out_dir), "--data-dir", str(data_dir)]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    assert cli.main(argv) == 0
    return manifest.read_manifest(out_dir / manifest.MANIFEST_NAME)


@pytest.mark.parametrize("mode", ["exact-jacobian-l1", "masked-fd"])
def test_train_twice_gives_identical_checksums(data_dir, tmp_path, mode):
    first = train(data_dir, tmp_path / "a", mode)
    second = train(data_dir, tmp_path / "b", mode)
    checksums = first[3]
    assert {"generator.ckpt", "trace.csv", "diag.csv", "summary.txt"} <= set(checksums)
    assert checksums == second[3]


def test_train_reads_a_three_dimensional_dataset_from_files(tmp_path):
    rng = np.random.default_rng(6)
    perm = np.eye(3)[[1, 2, 0]]
    for prefix, n in (("train", 40), ("test", 8)):
        y = rng.uniform(-1.0, 1.0, (n, 3))
        synthdata.save_dataset(synthdata.PairedDataset(
            x=synthdata.warp(y, 0.4, perm), y=y, t=0.4, permutation=perm),
            tmp_path / "data", prefix)
    assert cli.main(["train", "--out-dir", str(tmp_path / "run"),
                     "--data-dir", str(tmp_path / "data"),
                     "--override", "train.iterations=1",
                     "--override", "train.batch_size=8"]) == 0
    generator = nets.load_checkpoint(tmp_path / "run" / "generator.ckpt")
    assert generator.layer_sizes == (3, 32, 32, 3)


def test_replay_reproduces_every_checksum(data_dir, tmp_path):
    _, seed, _, recorded = train(data_dir, tmp_path / "run", "masked-fd")
    assert seed == 3
    result = manifest.replay_manifest(tmp_path / "run" / manifest.MANIFEST_NAME,
                                      tmp_path / "replay")
    assert set(result) == set(recorded)
    assert all(old == new for old, new in result.values())


def test_missing_data_directory_exits_2(tmp_path, capsys):
    code = cli.main(["train", "--out-dir", str(tmp_path / "out"),
                     "--data-dir", str(tmp_path / "missing")])
    assert code == 2
    assert "data directory not found" in capsys.readouterr().err


def test_mpa_check_passes_at_seed_13(tmp_path):
    # the seed where the finite-translations KS (0.0102) crossed a fixed 0.01
    assert cli.main(["mpa-check", "--out-dir", str(tmp_path),
                     "--override", "mpa_check.seed=13"]) == 0


@pytest.mark.parametrize("verb, overrides, message", [
    ("train", ["train.iteration=2"], "unknown key 'iteration'"),
    ("probe-study", ["probe_study.exact_overlay=maybe"], "exact_overlay = 'maybe'"),
    ("train", ["train.gen_sizes=2,8,2"], "[train] unknown key 'gen_sizes'"),
    ("train", ["probe.dimension=2"], "[probe] unknown key 'dimension'"),
    ("train", ["train.sparsity_mode=exact"], "sparsity_mode 'exact'"),
    ("gen-data", ["data.t_min=0.6", "data.t_max=0.1"], "t_min = 0.6 exceeds t_max = 0.1"),
    ("mpa-check", ["mpa_check.samples=0"], "samples = 0 must be at least 10000"),
    ("mpa-check", ["mpa_check.tolerance=0"], "tolerance = 0.0 must be positive"),
    ("train", ["probe.mask_size=3"], "probe.mask_size = 3 exceeds the data dimension D = 2"),
    ("ablate", ["probe.mask_size=3"], "probe.mask_size = 3 exceeds the data dimension D = 2"),
    ("probe-study", ["probe_study.mc_samples=1"], "mc_samples = 1 must be at least 2"),
    ("probe-study", ["probe_study.dimension=20", "probe_study.mask_sizes=1,30"],
     "mask_sizes entry 30 not in [1, dimension = 20]"),
    ("probe-study", ["probe_study.dimension=20", "probe_study.row_support=30"],
     "row_support = 30 not in [1, dimension = 20]"),
    ("train", ["train.learning_rate=-1"], "learning_rate = -1.0 must be positive"),
    ("train", ["train.r1_weight=-1"], "r1_weight = -1.0 must be >= 0"),
    ("train", ["train.diag_points=-5"], "diag_points = -5 must be at least 1"),
    ("train", ["train.beta2=1"], "beta2 = 1.0 not in [0, 1)"),
    ("ablate", ["train.epsilon=0"], "epsilon = 0.0 must be positive"),
    ("train", ["weights.sparsity=nan"], "sparsity = nan must be >= 0"),
    ("train", ["weights.anchor=nan"], "anchor = nan must be >= 0"),
    ("train", ["probe.perturbation_scale=nan"], "perturbation_scale = nan must be positive"),
    ("train", ["train.diag_interval=-3"], "diag_interval = -3 must be >= 0"),
    ("gen-data", ["data.t_min=nan"], "t_min = nan not in (-1, 1)"),
    ("gen-data", ["data.t_max=1"], "t_max = 1.0 not in (-1, 1)"),
    ("mpa-check", ["mpa_check.samples=9999"], "samples = 9999 must be at least 10000"),
    ("train", ["train.seed=-1"], "seed = -1 must be >= 0"),
    ("gen-data", ["data.seed=-1"], "seed = -1 must be >= 0"),
    ("probe-study", ["probe_study.seed=-1"], "seed = -1 must be >= 0"),
    ("ablate", ["ablate.seeds=0,-2"], "seeds entry -2 must be >= 0"),
    ("ablate", ["train.seed=-1"], "seed = -1 must be >= 0"),
    ("mpa-check", ["mpa_check.seed=-1"], "seed = -1 must be >= 0"),
])
def test_bad_config_exits_2_naming_the_field(data_dir, tmp_path, capsys, verb,
                                             overrides, message):
    argv = [verb, "--out-dir", str(tmp_path / "out")]
    if verb in ("train", "ablate"):
        argv += ["--data-dir", str(data_dir)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_mask_sizes_exits_2_before_any_output(tmp_path, capsys):
    # an empty list can only come from a config file: --override needs a value
    (tmp_path / "run.cfg").write_text("[probe_study]\nmask_sizes =\n")
    code = cli.main(["probe-study", "--out-dir", str(tmp_path / "out"),
                     "--config", str(tmp_path / "run.cfg")])
    assert code == 2
    assert "mask_sizes is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_divergence_exits_2_leaving_the_last_good_models(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--out-dir", str(out), "--data-dir", str(data_dir),
                     "--override", "train.learning_rate=1e300",
                     "--override", "train.batch_size=16"])
    assert code == 2
    # the one line, with no numpy warning of the overflow before it
    assert capsys.readouterr().err == ("anchordt train: error: non-finite generator "
                                       "loss at iteration 0\n")
    assert sorted(os.listdir(out)) == [f"last_good_{name}.ckpt" for name in
                                       ("discriminator", "generator", "reconstructor")]
    # the discriminator's step-0 update was applied before the generator's
    # loss went non-finite, but the last-good models are the initial ones
    seeds = np.random.SeedSequence(0).spawn(5)
    for name, sizes, seed in (("generator", (2, 32, 32, 2), seeds[0]),
                              ("discriminator", (2, 64, 64, 1), seeds[1])):
        saved = nets.load_checkpoint(out / f"last_good_{name}.ckpt")
        initial = nets.init_mlp(sizes, seed)
        assert saved.layer_sizes == initial.layer_sizes
        for got, want in zip(saved.weights + saved.biases,
                             initial.weights + initial.biases):
            assert got.tobytes() == want.tobytes()


def test_manifest_recording_layer_sizes_no_longer_replays(data_dir, tmp_path):
    # a manifest from before the networks' sizes came from the data
    train(data_dir, tmp_path / "run", "exact-jacobian-l1")
    text = (tmp_path / "run" / manifest.MANIFEST_NAME).read_text()
    for new, old in (("gen_hidden = 32,32", "gen_sizes = 2,32,32,2"),
                     ("disc_hidden = 64,64", "disc_sizes = 2,64,64,1"),
                     ("rec_hidden = 32,32", "rec_sizes = 2,32,32,2"),
                     ("[config.probe]\n", "[config.probe]\ndimension = 2\n")):
        assert new in text
        text = text.replace(new, old)
    (tmp_path / "old.txt").write_text(text)
    with pytest.raises(configio.ConfigError, match="unknown key 'gen_sizes'"):
        manifest.replay_manifest(tmp_path / "old.txt", tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("override, message", [
    ("ablate.cases=full,bogus", "unknown ablation case 'bogus'"),
    ("ablate.anchor_sweep=1,0", "weights.anchor > 0 needs anchor_count >= 1"),
])
def test_bad_ablation_exits_2_before_any_training(data_dir, tmp_path, monkeypatch,
                                                  capsys, override, message):
    monkeypatch.setattr(trainer, "train", pytest.fail)
    code = cli.main(["ablate", "--out-dir", str(tmp_path), "--data-dir", str(data_dir),
                     "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["seeds", "cases"])
def test_empty_ablation_list_exits_2_before_any_training(data_dir, tmp_path, monkeypatch,
                                                         capsys, field):
    # an empty list can only come from a config file: --override needs a value
    monkeypatch.setattr(trainer, "train", pytest.fail)
    (tmp_path / "run.cfg").write_text(f"[ablate]\n{field} =\n")
    code = cli.main(["ablate", "--out-dir", str(tmp_path / "out"), "--data-dir",
                     str(data_dir), "--config", str(tmp_path / "run.cfg")])
    assert code == 2
    assert f"{field} is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plot_label_with_markup_gives_well_formed_svg(data_dir, checkpoint, tmp_path):
    assert cli.main(["plot", "--out-dir", str(tmp_path), "--data-dir", str(data_dir),
                     "--checkpoint", f"g<1>&b={checkpoint}",
                     "--override", "plot.max_points=20"]) == 0
    root = ET.parse(tmp_path / "panels.svg").getroot()
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert titles == ["source x", "target y", "translated (g<1>&b)"]


@pytest.mark.parametrize("sweep, artifacts", [
    (None, {"ablation.csv", "ablation_summary.csv"}),
    ("1,3", {"anchor_sweep.csv"}),
])
def test_ablate_replays_with_every_checksum_equal(data_dir, tmp_path, sweep, artifacts):
    argv = ["ablate", "--out-dir", str(tmp_path / "run"), "--data-dir", str(data_dir)]
    overrides = ["train.iterations=2", "train.batch_size=16", "ablate.seeds=0,1",
                 "ablate.cases=full,neither"]
    if sweep is not None:
        overrides.append(f"ablate.anchor_sweep={sweep}")
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 0
    path = tmp_path / "run" / manifest.MANIFEST_NAME
    recorded = manifest.read_manifest(path)[3]
    assert set(recorded) == artifacts
    result = manifest.replay_manifest(path, tmp_path / "replay")
    assert all(old == new for old, new in result.values())
    lines = (tmp_path / "run" / sorted(artifacts)[0]).read_text().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the mpa-check verb alone, when it runs
    src = os.path.dirname(os.path.dirname(anchordt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import anchordt.cli, sys; assert 'scipy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("verb, override, section", [
    ("gen-data", "dat.seed=3", "dat"),
    ("train", "weight.anchor=2", "weight"),
    ("probe-study", "train.seed=1", "train"),
    ("mpa-check", "io.data_dir=x", "io"),
])
def test_section_the_verb_does_not_read_exits_2_naming_it(tmp_path, capsys, verb,
                                                          override, section):
    code = cli.main([verb, "--out-dir", str(tmp_path / "out"), "--override", override])
    assert code == 2
    assert f"{verb} reads no [{section}] section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_section_misspelt_in_a_config_file_exits_2(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("[data]\nseed = 3\n[dta]\nnum_train = 10\n")
    code = cli.main(["gen-data", "--out-dir", str(tmp_path / "out"),
                     "--config", str(tmp_path / "run.cfg")])
    assert code == 2
    assert "gen-data reads no [dta] section; it reads [data]" in capsys.readouterr().err


VERB_ARGS = {
    "gen-data": ["--override", "data.num_train=50", "--override", "data.num_test=20"],
    "train": ["--data-dir", "{data}", "--override", "train.iterations=2",
              "--override", "train.batch_size=16", "--override", "train.diag_points=16"],
    "eval": ["--data-dir", "{data}", "--checkpoint", "{ckpt}"],
    "plot": ["--data-dir", "{data}", "--checkpoint", "g={ckpt}",
             "--override", "plot.max_points=50"],
    "probe-study": ["--override", "probe_study.dimension=20",
                    "--override", "probe_study.row_support=2",
                    "--override", "probe_study.mask_sizes=1,3",
                    "--override", "probe_study.num_matrices=2",
                    "--override", "probe_study.mc_samples=20"],
    "mpa-check": ["--override", "mpa_check.samples=20000"],
    "sparsity-check": ["--support-file", "{support}"],
    "ablate": ["--data-dir", "{data}", "--override", "train.iterations=2",
               "--override", "train.batch_size=16", "--override", "ablate.seeds=0",
               "--override", "ablate.cases=full,neither"],
}


def fill(argv, **values):
    return [item.format(**values) for item in argv]


@pytest.mark.parametrize("verb", sorted(cli.VERB_SECTIONS))
def test_every_verb_reruns_from_its_manifest_config_file(data_dir, checkpoint,
                                                         tmp_path, verb):
    # each section a verb's manifest records must be one the verb reads
    (tmp_path / "support.csv").write_text("row,col\n0,0\n1,1\n")
    argv = fill(VERB_ARGS[verb], data=data_dir, ckpt=checkpoint,
                support=tmp_path / "support.csv")
    assert cli.main([verb, "--out-dir", str(tmp_path / "first"), *argv]) == 0
    _, _, config, checksums = manifest.read_manifest(tmp_path / "first" / "manifest.txt")
    assert set(config) <= set(cli.VERB_SECTIONS[verb])
    configio.save(config, tmp_path / "run.cfg")
    assert cli.main([verb, "--out-dir", str(tmp_path / "second"),
                     "--config", str(tmp_path / "run.cfg")]) == 0
    assert manifest.read_manifest(tmp_path / "second" / "manifest.txt")[3] == checksums


@pytest.mark.parametrize("argv, support, message", [
    (["eval", "--data-dir", "{data}"], None, "missing [io] checkpoint in config"),
    (["train", "--data-dir", "{tmp}"], None, "dataset files missing in"),
    (["eval", "--data-dir", "{data}", "--checkpoint", "{tmp}/none.ckpt"], None,
     "checkpoint not found"),
    (["plot", "--data-dir", "{data}", "--checkpoint", "g={tmp}/none.ckpt"], None,
     "checkpoint not found"),
    (["plot", "--data-dir", "{data}", "--checkpoint", "g"], None,
     "--checkpoint needs LABEL=PATH, got 'g'"),
    (["gen-data", "--override", "data.seed"], None,
     "--override needs SECTION.KEY=VALUE, got 'data.seed'"),
    (["sparsity-check", "--support-file", "{tmp}/none.csv"], None,
     "support file not found"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "0,0\n1;1\n",
     "support.csv:2: expected 'row,col'"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "# no pairs\n",
     "support.csv: no index pairs"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "0,0\n0,1\n1,0\n1,1\n",
     "pattern is not structurally sparse"),
], ids=["missing-io-key", "missing-dataset-files", "eval-missing-checkpoint",
        "plot-missing-checkpoint", "plot-checkpoint-without-equals",
        "override-without-equals", "missing-support-file", "malformed-support-line",
        "empty-support-file", "not-structurally-sparse"])
def test_cli_error_exits_2_with_its_message(data_dir, tmp_path, capsys, argv,
                                            support, message):
    if support is not None:
        (tmp_path / "support.csv").write_text(support)
    verb, *rest = fill(argv, data=data_dir, tmp=tmp_path)
    assert cli.main([verb, "--out-dir", str(tmp_path / "out"), *rest]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["train", "--data-dir", "{data}", "--override", "io.data_dri=x",
      "--override", "train.iterations=0"],
     "[io] unknown key 'data_dri'; known keys: data_dir"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv",
      "--override", "sparsity_check.dimensoin=5"],
     "[sparsity_check] unknown key 'dimensoin'; known keys: dimension"),
], ids=["io", "sparsity_check"])
def test_unknown_io_or_sparsity_check_key_exits_2(data_dir, tmp_path, capsys, argv,
                                                  message):
    (tmp_path / "support.csv").write_text("0,1\n1,0\n")
    verb, *rest = fill(argv, data=data_dir, tmp=tmp_path)
    assert cli.main([verb, "--out-dir", str(tmp_path / "out"), *rest]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dimension", [None, 0, 5])
def test_sparsity_check_config_round_trips_through_its_echo(dimension):
    cfg = cli.SparsityCheckConfig(dimension)
    sections = configio.echo(cfg, "sparsity_check")
    assert configio.read(cli.SparsityCheckConfig(7), sections, "sparsity_check") == cfg


def test_sparsity_check_records_the_dimension_it_checked(tmp_path):
    (tmp_path / "support.csv").write_text("0,0\n1,1\n")
    argv = ["sparsity-check", "--support-file", str(tmp_path / "support.csv")]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "inferred")]) == 0
    assert cli.main([*argv, "--out-dir", str(tmp_path / "set"),
                     "--override", "sparsity_check.dimension=3"]) == 2
    for run, dimension in (("inferred", "2"), ("set", "3")):
        _, _, config, _ = manifest.read_manifest(tmp_path / run / "manifest.txt")
        assert config["sparsity_check"] == {"dimension": dimension}


def test_probe_study_exact_overlay_rows_are_the_closed_form(tmp_path):
    argv = ["probe-study", "--out-dir", str(tmp_path), *VERB_ARGS["probe-study"],
            "--override", "probe_study.exact_overlay=true"]
    assert cli.main(argv) == 0
    # the overlay's matrix is drawn from seed + 1, the default seed being 0
    j = sparsity.random_sparse_jacobian(20, 2, np.random.default_rng(0 + 1))
    l0 = np.count_nonzero(j)
    lines = (tmp_path / "study_exact.csv").read_text().splitlines()
    assert lines[0] == "S,q_exact,rel_bias_exact"
    assert [line.partition(",")[0] for line in lines[1:]] == ["1", "3"]
    for line, s in zip(lines[1:], (1, 3)):
        q = sparsity.q_hypergeometric(j, s)
        assert line == ",".join([str(s), configio.format_float(q),
                                 configio.format_float((q - l0) / l0)])
    # T = 2 in every row: q = (D/S) D (1 - C(18, S) / C(20, S))
    assert lines[1].startswith("1,40.000000000000007,")
    assert lines[2].startswith("3,37.894736842105253,")
    checksums = manifest.read_manifest(tmp_path / manifest.MANIFEST_NAME)[3]
    assert "study_exact.csv" in checksums


@pytest.mark.parametrize("line, replacement", [
    ("output_activation = identity", "output_activation = tanh"),
    ("hidden_slope = 0.20000000000000001", "hidden_slope = 0.5"),
])
def test_eval_of_a_checkpoint_with_other_activations_exits_2(data_dir, checkpoint, tmp_path,
                                                              capsys, line, replacement):
    text = checkpoint.read_text()
    assert line in text
    (tmp_path / "other.ckpt").write_text(text.replace(line, replacement))
    code = cli.main(["eval", "--out-dir", str(tmp_path / "out"), "--data-dir", str(data_dir),
                     "--checkpoint", str(tmp_path / "other.ckpt")])
    assert code == 2
    assert f"other.ckpt: {replacement}; every network has {line}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def drop_w1(text):
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("W1 = "))


def truncate_w1(text):
    # the W1 line loses its last number
    return "".join(ln.rsplit(" ", 1)[0] + "\n" if ln.startswith("W1 = ") else ln
                   for ln in text.splitlines(keepends=True))


@pytest.mark.parametrize("edit, message", [
    (drop_w1, "the W1 line is missing"),
    (truncate_w1, "W1 holds 1023 numbers, layer_sizes needs 1024"),
])
def test_eval_of_a_checkpoint_missing_a_line_exits_2_naming_it(data_dir, checkpoint, tmp_path,
                                                               capsys, edit, message):
    (tmp_path / "cut.ckpt").write_text(edit(checkpoint.read_text()))
    code = cli.main(["eval", "--out-dir", str(tmp_path / "out"), "--data-dir", str(data_dir),
                     "--checkpoint", str(tmp_path / "cut.ckpt")])
    assert code == 2
    assert f"cut.ckpt: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_runs_where_the_c_library_cannot_be_loaded(data_dir, tmp_path, monkeypatch):
    # the allocator setting is skipped
    def unloadable(name):
        raise OSError(f"cannot load {name}")

    monkeypatch.setattr(cli.ctypes, "CDLL", unloadable)
    assert cli.main(["train", "--out-dir", str(tmp_path), "--data-dir", str(data_dir),
                     "--override", "train.iterations=2",
                     "--override", "train.batch_size=16"]) == 0

"""CLI verbs end to end: reproducible training, manifest replay, exit codes."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import anchordt
from anchordt import cli, configio, manifest, nets, objective, sparsity, synthdata


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
            x=synthdata.warp(y, 0.4, perm), y=y, t=0.4),
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


def test_an_empty_override_value_trains_linear_networks_that_replay(data_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--out-dir", str(out), "--data-dir", str(data_dir),
                     "--override", "train.iterations=5", "--override", "train.batch_size=16",
                     "--override", "train.gen_hidden=", "--override", "train.rec_hidden="]) == 0
    _, _, config, recorded = manifest.read_manifest(out / manifest.MANIFEST_NAME)
    assert config["train"]["gen_hidden"] == "" and config["train"]["rec_hidden"] == ""
    assert config["train"]["disc_hidden"] == "64,64"
    assert nets.load_checkpoint(out / "generator.ckpt").layer_sizes == (2, 2)
    result = manifest.replay_manifest(out / manifest.MANIFEST_NAME, tmp_path / "replay")
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


@pytest.mark.parametrize("override", ["mpa_check.tolerance=0.01", "mpa_check.samples=10000"])
def test_mpa_check_passes_away_from_its_defaults(tmp_path, override):
    # the fixed-set row's bound follows the band's mass: a constant 1e-3 failed
    # every seed at tolerance 0.01 and seed 5 at 10,000 samples
    for seed in range(20):
        assert cli.main(["mpa-check", "--out-dir", str(tmp_path / str(seed)),
                         "--override", override,
                         "--override", f"mpa_check.seed={seed}"]) == 0, seed


@pytest.mark.parametrize("n, eps", [(10000, 1e-3), (100000, 1e-3), (100000, 0.01),
                                    (10000, 0.1), (1000000, 1e-4)])
def test_band_fraction_bound_fails_a_null_set_below_1e_9(n, eps):
    from scipy import stats as scipy_stats

    p = 2 * scipy_stats.norm.cdf(eps / np.sqrt(2)) - 1
    bound = cli._band_fraction_bound(n, eps)
    assert bound > p
    # the probability that the count of band draws exceeds n * bound
    assert scipy_stats.binom.sf(np.floor(n * bound), n, p) < 1e-9


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
    # the per-sample warp and the permutation matrix are no longer options
    ("gen-data", ["data.t_mode=per-sample"], "[data] unknown key 't_mode'"),
    ("gen-data", ["data.permutation=0,1;1,0"], "[data] unknown key 'permutation'"),
    ("gen-data", ["data.num_train=0"], "num_train = 0 must be positive"),
    ("gen-data", ["data.num_test=-1"], "num_test = -1 must be positive"),
    ("train", ["probe.probes_per_sample=0"], "probes_per_sample = 0 must be at least 1"),
    ("probe-study", ["probe_study.dimension=0"], "dimension = 0 must be positive"),
    ("probe-study", ["probe_study.num_matrices=0"], "num_matrices = 0 must be positive"),
    ("plot", ["plot.max_points=0"], "max_points = 0 must be positive"),
    # an infinite value is rejected by field before training, as NaN is
    ("train", ["train.learning_rate=inf"], "learning_rate = inf must be finite"),
    ("train", ["train.epsilon=inf"], "epsilon = inf must be finite"),
    ("train", ["train.r1_weight=inf"], "r1_weight = inf must be finite"),
    ("train", ["weights.anchor=inf"], "anchor = inf must be finite"),
    ("train", ["weights.sparsity=inf"], "sparsity = inf must be finite"),
    ("train", ["weights.inv=inf"], "inv = inf must be finite"),
    ("train", ["probe.perturbation_scale=inf"], "perturbation_scale = inf must be finite"),
    ("ablate", ["train.learning_rate=inf"], "learning_rate = inf must be finite"),
    # every sample is within an infinite tolerance of itself
    ("mpa-check", ["mpa_check.tolerance=inf"], "tolerance = inf must be finite"),
    # a repeat would train its run twice and weigh it twice in the median
    ("ablate", ["ablate.seeds=0,1,1"], "seeds entry 1 is repeated"),
    ("ablate", ["ablate.anchor_counts=2,1,2"], "anchor_counts entry 2 is repeated"),
    ("ablate", ["ablate.cases=full,neither,full"], "cases entry 'full' is repeated"),
    # a repeat would write a second row for its mask size, from a later stream position
    ("probe-study", ["probe_study.mask_sizes=1,1", "probe_study.dimension=20",
                     "probe_study.row_support=3", "probe_study.num_matrices=2",
                     "probe_study.mc_samples=10"], "mask_sizes entry 1 is repeated"),
    # a nested section's range error names the section and key the user set
    ("train", ["probe.mask_size=0"], "[probe] mask_size = 0 must be at least 1"),
    # an [ablate] entry, not the [train] anchor_count each run is made with
    ("ablate", ["ablate.anchor_counts=-1"], "[ablate] anchor_counts entry -1 must be >= 0"),
    # the config is read before the support file is opened
    ("sparsity-check", ["io.support_file=none.csv", "sparsity_check.dimension=0"],
     "[sparsity_check] dimension = 0 must be positive"),
    ("probe-study", ["probe_study.row_support=0"], "row_support = 0 must be positive"),
    ("probe-study", ["probe_study.mask_sizes=2,0"], "mask_sizes entry 0 must be positive"),
])
def test_bad_config_exits_2_naming_the_field(data_dir, tmp_path, capsys, verb,
                                             overrides, message):
    argv = [verb, "--out-dir", str(tmp_path / "out")]
    if verb in ("train", "ablate", "plot"):
        argv += ["--data-dir", str(data_dir)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    if verb == "probe-study":   # every [probe_study] range is declared on its config
        assert f"[probe_study] {message}" in err
    assert not (tmp_path / "out").exists()


def test_empty_mask_sizes_exits_2_before_any_output(tmp_path, capsys):
    # an empty list can only come from a config file: --override needs a value
    (tmp_path / "run.cfg").write_text("[probe_study]\nmask_sizes =\n")
    code = cli.main(["probe-study", "--out-dir", str(tmp_path / "out"),
                     "--config", str(tmp_path / "run.cfg")])
    assert code == 2
    assert "[probe_study] mask_sizes is empty" in capsys.readouterr().err
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


def test_manifest_recording_t_mode_and_permutation_no_longer_replays(tmp_path):
    # a gen-data manifest from before t_mode and permutation were removed
    assert cli.main(["gen-data", "--out-dir", str(tmp_path / "run"),
                     *VERB_ARGS["gen-data"]]) == 0
    text = (tmp_path / "run" / manifest.MANIFEST_NAME).read_text()
    assert "\nt_min = " in text
    (tmp_path / "old.txt").write_text(text.replace(
        "\nt_min = ", "\npermutation = 0,1;1,0\nt_mode = per-dataset\nt_min = "))
    # both stale keys are named in one error, in the order the echo gives them
    with pytest.raises(configio.ConfigError,
                       match=r"\[data\] unknown key 'permutation', unknown key 't_mode'; "):
        manifest.replay_manifest(tmp_path / "old.txt", tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


def test_dataset_with_the_older_meta_entries_trains_identically(data_dir, tmp_path):
    # older .meta files also record t_mode and permutation; train ignores them
    older = tmp_path / "older"
    older.mkdir()
    for name in os.listdir(data_dir):
        text = (data_dir / name).read_text()
        if name.endswith(".meta"):
            assert "\nt = " in text and "\nnum_samples = " in text
            text = text.replace("\nt = ", "\nt_mode = per-dataset\nt = ").replace(
                "\nnum_samples = ", "\npermutation = 0,1;1,0\nnum_samples = ")
        (older / name).write_text(text)
    expected = train(data_dir, tmp_path / "a", "exact-jacobian-l1")[3]
    assert train(older, tmp_path / "b", "exact-jacobian-l1")[3] == expected


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


def test_every_name_an_ablation_case_zeroes_is_a_terms_row():
    zeroed = [name for names in cli.ABLATION_CASES.values() for name in names]
    assert zeroed and set(zeroed) <= set(objective.TERMS)
    # the default grid: four cases at three seeds
    default = cli.AblateConfig()
    assert default.cases == ("full", "no-anchor", "no-sparsity", "neither")
    assert default.seeds == (0, 1, 2)


@pytest.mark.parametrize("override, message", [
    ("ablate.cases=full,bogus", "unknown ablation case 'bogus'"),
    ("ablate.anchor_counts=1,0", "weights.anchor > 0 needs anchor_count >= 1"),
])
def test_bad_ablation_exits_2_before_any_training(data_dir, tmp_path, monkeypatch,
                                                  capsys, override, message):
    monkeypatch.setattr(cli, "train", pytest.fail)
    code = cli.main(["ablate", "--out-dir", str(tmp_path), "--data-dir", str(data_dir),
                     "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err


def test_anchor_sweep_beyond_the_data_exits_2_before_any_training(data_dir, tmp_path,
                                                                  monkeypatch, capsys):
    # the 400-pair fixture; the count-1 runs come first in the grid
    monkeypatch.setattr(cli, "train", pytest.fail)
    code = cli.main(["ablate", "--out-dir", str(tmp_path / "out"), "--data-dir",
                     str(data_dir), "--override", "ablate.anchor_counts=1,500",
                     "--override", "ablate.seeds=0,1"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "anchordt ablate: error: requested 500 anchors from 400 pairs\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["seeds", "cases"])
def test_empty_ablation_list_exits_2_before_any_training(data_dir, tmp_path, monkeypatch,
                                                         capsys, field):
    # an empty list can only come from a config file: --override needs a value
    monkeypatch.setattr(cli, "train", pytest.fail)
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


def ablate(data_dir, out_dir, *overrides):
    argv = ["ablate", "--out-dir", str(out_dir), "--data-dir", str(data_dir)]
    for item in ("train.iterations=2", "train.batch_size=16", *overrides):
        argv += ["--override", item]
    assert cli.main(argv) == 0
    return [line.split(",") for line in (out_dir / "ablation.csv").read_text().splitlines()]


@pytest.mark.parametrize("counts, artifacts", [
    (None, {"ablation.csv", "ablation_summary.csv"}),
    ("1,3", {"ablation.csv", "ablation_summary.csv"}),
])
def test_ablate_replays_with_every_checksum_equal(data_dir, tmp_path, counts, artifacts):
    # no anchor_counts runs the grid at train.anchor_count (1) alone
    overrides = [] if counts is None else [f"ablate.anchor_counts={counts}"]
    expected = ("1",) if counts is None else tuple(counts.split(","))
    rows = ablate(data_dir, tmp_path / "run", "ablate.cases=full,neither",
                  "ablate.seeds=0,1", *overrides)
    # one row per (case, anchor count, seed), in that order
    assert rows[0] == ["case", "anchor_count", "seed", "te_mean", "te_std"]
    assert [row[:3] for row in rows[1:]] == [
        [case, count, seed] for case in ("full", "neither") for count in expected
        for seed in ("0", "1")]
    summary = (tmp_path / "run" / "ablation_summary.csv").read_text().splitlines()
    assert [line.rpartition(",")[0] for line in summary] == ["case,anchor_count"] + [
        f"{case},{count}" for case in ("full", "neither") for count in expected]
    path = tmp_path / "run" / manifest.MANIFEST_NAME
    assert set(manifest.read_manifest(path)[3]) == artifacts
    result = manifest.replay_manifest(path, tmp_path / "replay")
    assert set(result) == artifacts
    assert all(old == new for old, new in result.values())


def test_no_anchor_row_is_the_train_run_without_the_anchor_term(data_dir, tmp_path):
    [_, row] = ablate(data_dir, tmp_path / "grid", "ablate.cases=no-anchor",
                      "ablate.anchor_counts=2", "ablate.seeds=1")
    assert row[:3] == ["no-anchor", "2", "1"]
    assert cli.main(["train", "--out-dir", str(tmp_path / "train"), "--data-dir",
                     str(data_dir), "--override", "train.iterations=2",
                     "--override", "train.batch_size=16", "--override", "train.seed=1",
                     "--override", "train.anchor_count=2",
                     "--override", "weights.anchor=0"]) == 0
    summary = (tmp_path / "train" / "summary.txt").read_text()
    assert f"\nte_mean = {row[3]}\n" in summary


def test_manifest_recording_anchor_sweep_no_longer_replays(data_dir, tmp_path):
    # an ablate manifest from before anchor_counts replaced anchor_sweep
    ablate(data_dir, tmp_path / "run", "ablate.cases=full", "ablate.seeds=0")
    text = (tmp_path / "run" / manifest.MANIFEST_NAME).read_text()
    assert "\nanchor_counts = \n" in text
    (tmp_path / "old.txt").write_text(text.replace("\nanchor_counts = \n",
                                                   "\nanchor_sweep = \n"))
    with pytest.raises(configio.ConfigError, match=r"\[ablate\] unknown key 'anchor_sweep'"):
        manifest.replay_manifest(tmp_path / "old.txt", tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("old, new, message", [
    ("command = gen-data\n", "", "missing [manifest] entry 'command'"),
    ("seed = 0\n", "seed = x\n",
     "[manifest] seed = 'x': invalid literal for int() with base 10: 'x'"),
], ids=["missing-command", "unparsable-seed"])
def test_damaged_manifest_section_is_named_with_its_file(tmp_path, old, new, message):
    assert cli.main(["gen-data", "--out-dir", str(tmp_path / "run"),
                     *VERB_ARGS["gen-data"]]) == 0
    text = (tmp_path / "run" / manifest.MANIFEST_NAME).read_text()
    assert text.startswith("[manifest]\ncommand = gen-data\nseed = 0\n")
    (tmp_path / "old.txt").write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError) as info:
        manifest.replay_manifest(tmp_path / "old.txt", tmp_path / "replay")
    assert str(info.value) == f"{tmp_path / 'old.txt'}: {message}"
    assert not (tmp_path / "replay").exists()


def test_import_leaves_scipy_unloaded(tmp_path):
    # the runtime needs numpy alone: importing the CLI loads no scipy, and
    # mpa-check passes every check with scipy blocked
    src = os.path.dirname(os.path.dirname(anchordt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import anchordt.cli, sys; assert 'scipy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    code = ("import sys; sys.modules['scipy'] = None; from anchordt import cli; "
            f"sys.exit(cli.main(['mpa-check', '--out-dir', {str(tmp_path)!r}]))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "mpa_report.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",True") for row in rows), rows


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


def test_replay_of_a_manifest_with_a_misspelt_section_is_rejected(tmp_path):
    argv = ["probe-study", "--out-dir", str(tmp_path / "run"), *VERB_ARGS["probe-study"]]
    assert cli.main(argv) == 0
    text = (tmp_path / "run" / manifest.MANIFEST_NAME).read_text()
    (tmp_path / "old.txt").write_text(text.replace("[config.probe_study]",
                                                   "[config.probe_studdy]"))
    with pytest.raises(cli.CliError, match=r"probe-study reads no \[probe_studdy\] section"):
        manifest.replay_manifest(tmp_path / "old.txt", tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


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


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_every_verb_reruns_from_its_manifest_config_file(data_dir, checkpoint,
                                                         tmp_path, verb):
    # a verb's manifest records the sections its row lists, in the row's order
    (tmp_path / "support.csv").write_text("row,col\n0,0\n1,1\n")
    argv = fill(VERB_ARGS[verb], data=data_dir, ckpt=checkpoint,
                support=tmp_path / "support.csv")
    assert cli.main([verb, "--out-dir", str(tmp_path / "first"), *argv]) == 0
    _, _, config, checksums = manifest.read_manifest(tmp_path / "first" / "manifest.txt")
    assert list(config) == list(cli.VERBS[verb].sections)
    configio.save(config, tmp_path / "run.cfg")
    assert cli.main([verb, "--out-dir", str(tmp_path / "second"),
                     "--config", str(tmp_path / "run.cfg")]) == 0
    assert manifest.read_manifest(tmp_path / "second" / "manifest.txt")[3] == checksums


def test_every_verb_runs_in_the_manifest_diff_script():
    # the script guards byte identity of every verb's manifest
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".github", "manifest_diff.sh"), encoding="utf-8") as fh:
        script = fh.read()
    missing = [verb for verb in cli.VERBS if f"python -m anchordt {verb} " not in script]
    assert missing == []


def test_failing_mpa_check_exits_2_leaving_its_report_and_manifest(tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.setattr(cli, "_mpa_checks",
                        lambda n, seed, eps: [("always-fails", "ks", 0.5, 0.1, False)])
    assert cli.main(["mpa-check", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("anchordt mpa-check: error: mpa-check: one or "
                                       "more checks failed\n")
    assert (tmp_path / "mpa_report.csv").read_text().splitlines()[1] == (
        "always-fails,ks,0.5,0.1,False")
    command, _, config, checksums = manifest.read_manifest(tmp_path / manifest.MANIFEST_NAME)
    assert command == "mpa-check" and list(config) == ["mpa_check"]
    assert checksums == {"mpa_report.csv": manifest.sha256_file(tmp_path / "mpa_report.csv")}


@pytest.mark.parametrize("verb", ["eval", "plot"])
def test_eval_and_plot_read_no_train_split(data_dir, checkpoint, tmp_path, verb):
    test_only = tmp_path / "data"
    test_only.mkdir()
    for name in ("test.csv", "test.meta"):
        (test_only / name).write_bytes((data_dir / name).read_bytes())
    argv = fill(VERB_ARGS[verb], data=test_only, ckpt=checkpoint)
    assert cli.main([verb, "--out-dir", str(tmp_path / "out"), *argv]) == 0


@pytest.mark.parametrize("network", ["discriminator", "generator-of-3d-data"])
@pytest.mark.parametrize("verb", ["eval", "plot"])
def test_a_checkpoint_that_does_not_map_r2_to_r2_exits_2_naming_the_file(
        data_dir, checkpoint, tmp_path, capsys, verb, network):
    # the data is 2-D: the discriminator maps R^2 to R^1, and a generator
    # trained on 3-D data R^3 to R^3
    if network == "discriminator":
        path, sizes = checkpoint.parent / "discriminator.ckpt", (2, 1)
    else:
        path, sizes = tmp_path / "gen3.ckpt", (3, 3)
        nets.save_checkpoint(nets.init_mlp((3, 4, 3), seed=0), path)
    argv = fill(VERB_ARGS[verb], data=data_dir, ckpt=path)
    assert cli.main([verb, "--out-dir", str(tmp_path / "out"), *argv]) == 2
    assert (f"{path}: the checkpoint maps R^{sizes[0]} to R^{sizes[1]}; the data "
            "needs R^2 to R^2") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, prefix", [("train", "train"), ("eval", "test")])
def test_damaged_meta_exits_2_naming_the_file(data_dir, checkpoint, tmp_path, capsys,
                                              verb, prefix):
    damaged = tmp_path / "data"
    damaged.mkdir()
    for name in os.listdir(data_dir):
        text = (data_dir / name).read_text()
        if name == f"{prefix}.meta":
            text = "".join(ln for ln in text.splitlines(keepends=True)
                           if not ln.startswith("seed = "))
        (damaged / name).write_text(text)
    argv = fill(VERB_ARGS[verb], data=damaged, ckpt=checkpoint)
    assert cli.main([verb, "--out-dir", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{prefix}.meta: missing [dataset] entry 'seed'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, edit, message", [
    # the 64-pair test split of the fixture, cut to its first 10 rows
    ("test.csv", lambda text: "".join(text.splitlines(keepends=True)[:11]),
     "test.csv: 10 rows, but {meta} records num_samples = 64"),
    ("test.meta", lambda text: re.sub(r"\nt = \S+", "\nt = abc", text),
     "test.meta: [dataset] t = 'abc': could not convert string to float: 'abc'"),
])
def test_damaged_test_split_makes_eval_exit_2_naming_the_file(data_dir, checkpoint,
                                                             tmp_path, capsys, name,
                                                             edit, message):
    damaged = tmp_path / "data"
    damaged.mkdir()
    for entry in ("test.csv", "test.meta"):
        text = (data_dir / entry).read_text()
        (damaged / entry).write_text(edit(text) if entry == name else text)
    argv = fill(VERB_ARGS["eval"], data=damaged, ckpt=checkpoint)
    assert cli.main(["eval", "--out-dir", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert f"{damaged / name}" in err
    assert message.format(meta=damaged / "test.meta") in err
    assert not (tmp_path / "out").exists()


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
    (["gen-data", "--override", "data.=3"], None,
     "--override needs SECTION.KEY=VALUE, got 'data.=3'"),
    (["gen-data", "--override", "data=3"], None,
     "--override needs SECTION.KEY=VALUE, got 'data=3'"),
    (["sparsity-check", "--support-file", "{tmp}/none.csv"], None,
     "support file not found"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "0,0\n1;1\n",
     "support.csv:2: expected 'row,col'"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "# no pairs\n",
     "support.csv: no index pairs"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "0,0\n0,1\n1,0\n1,1\n",
     "pattern is not structurally sparse"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv",
      "--override", "sparsity_check.dimension=1"], "0,1\n1,0\n",
     "[sparsity_check] dimension = 1 must be above 1, the largest index in {tmp}/support.csv"),
    (["sparsity-check", "--support-file", "{tmp}/support.csv"], "0,1\n-1,0\n",
     "{tmp}/support.csv:2: index pair (-1, 0) has a negative index"),
], ids=["missing-io-key", "missing-dataset-files", "eval-missing-checkpoint",
        "plot-missing-checkpoint", "plot-checkpoint-without-equals",
        "override-without-equals", "override-without-key", "override-without-dot",
        "missing-support-file", "malformed-support-line",
        "empty-support-file", "not-structurally-sparse", "dimension-below-support",
        "negative-support-index"])
def test_cli_error_exits_2_with_its_message(data_dir, tmp_path, capsys, argv,
                                            support, message):
    if support is not None:
        (tmp_path / "support.csv").write_text(support)
    verb, *rest = fill(argv, data=data_dir, tmp=tmp_path)
    assert cli.main([verb, "--out-dir", str(tmp_path / "out"), *rest]) == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    # a verdict is written out; every other error comes before the out dir
    assert (tmp_path / "out").exists() == (message == "pattern is not structurally sparse")


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


@pytest.mark.parametrize("dimension", [None, 1, 5])
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


@pytest.mark.parametrize("shift, code, failing", [(1, 0, []), (-1, 2, [7])],
                         ids=["cyclic", "chain"])
def test_sparsity_check_on_the_d8_shift_supports(tmp_path, shift, code, failing):
    # row k's support: {k, k+1 mod 8} (cyclic) or {k-1, k}, row 0 {0} (chain)
    pairs = [(k, c) for k in range(8) for c in (k, k + shift) if c >= 0]
    (tmp_path / "support.csv").write_text("".join(f"{r},{c % 8}\n" for r, c in pairs))
    assert cli.main(["sparsity-check", "--out-dir", str(tmp_path / "out"),
                     "--support-file", str(tmp_path / "support.csv")]) == code
    rows = (tmp_path / "out" / "sparsity_check.csv").read_text().splitlines()[1:]
    assert [k for k, row in enumerate(rows) if ",False," in row] == failing
    if failing:
        assert rows[7] == '7,False,,"best intersection over rows [7] is [6, 7], not [7]"'


def test_probe_study_exact_overlay_rows_are_the_closed_form(tmp_path):
    argv = ["probe-study", "--out-dir", str(tmp_path), *VERB_ARGS["probe-study"],
            "--override", "probe_study.exact_overlay=true"]
    assert cli.main(argv) == 0
    # the overlay's matrix is drawn from seed + 1, the default seed being 0
    j = sparsity.random_sparse_jacobian(20, 2, np.random.default_rng(0 + 1))
    l0 = np.count_nonzero(np.abs(j.values) > sparsity.DEFAULT_ZERO_THRESHOLD)
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


def replay_committed_probe_study(name, tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "results", name,
                        manifest.MANIFEST_NAME)
    result = manifest.replay_manifest(path, tmp_path / "replay")
    assert set(result) == {"bias.svg", "study.csv", "study_exact.csv", "variance.svg"}
    assert all(old == new for old, new in result.values())


def test_committed_probe_study_at_d10000_replays(tmp_path):
    # results/ holds the study at D = 10^4, 10^5 and 10^6; this one replays
    # in about 0.15 s, and a change to the probe or support stream shows here
    replay_committed_probe_study("probe-study-d10000", tmp_path)


def test_committed_probe_study_at_d100000_replays(tmp_path):
    # about 0.5 s on a 2-vCPU host, and the pytest process peaks at 83 MB
    # RSS (60 MB without this test): every probe here is scored over sorted
    # keys, and the study holds one 12 MiB record at a time
    replay_committed_probe_study("probe-study-d100000", tmp_path)


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

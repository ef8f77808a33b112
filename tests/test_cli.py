"""CLI verbs end to end: reproducible training, manifest replay, exit codes."""

import pytest

from anchordt import cli, manifest, trainer


@pytest.fixture(autouse=True)
def no_seed_override(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["gen-data", "--out-dir", str(out), "--override", "data.seed=3",
                     "--override", "data.num_train=400",
                     "--override", "data.num_test=64"]) == 0
    return out


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


@pytest.mark.parametrize("env_seed", [None, "7"])
def test_replay_reproduces_every_checksum(data_dir, tmp_path, monkeypatch, env_seed):
    _, seed, _, recorded = train(data_dir, tmp_path / "run", "masked-fd")
    assert seed == 3
    if env_seed is not None:
        monkeypatch.setenv(cli.SEED_ENV_VAR, env_seed)
    result = manifest.replay_manifest(tmp_path / "run" / manifest.MANIFEST_NAME,
                                      tmp_path / "replay")
    assert set(result) == set(recorded)
    assert all(old == new for old, new in result.values())


def test_seed_variable_overrides_the_verb_seed(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    _, seed, config, _ = train(data_dir, tmp_path, "exact-jacobian-l1")
    assert seed == 7
    assert config["train"]["seed"] == "7"


def test_non_integer_seed_variable_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "seven")
    assert cli.main(["mpa-check", "--out-dir", str(tmp_path)]) == 2


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
    ("train", ["train.gen_sizes=2,8,3"], "gen_sizes[-1] = 3 must equal rec_sizes[0] = 2"),
    ("train", ["probe.dimension=3"], "probe.dimension = 3 must equal gen_sizes[0] = 2"),
    ("train", ["train.sparsity_mode=exact"], "sparsity_mode 'exact'"),
    ("gen-data", ["data.t_min=0.6", "data.t_max=0.1"], "t_min = 0.6 exceeds t_max = 0.1"),
    ("mpa-check", ["mpa_check.samples=0"], "samples = 0 must be at least 2"),
    ("mpa-check", ["mpa_check.tolerance=0"], "tolerance = 0.0 must be positive"),
])
def test_bad_config_exits_2_naming_the_field(data_dir, tmp_path, capsys, verb,
                                             overrides, message):
    argv = [verb, "--out-dir", str(tmp_path / "out")]
    if verb == "train":
        argv += ["--data-dir", str(data_dir)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

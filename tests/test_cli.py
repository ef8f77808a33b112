"""CLI verbs end to end: reproducible training, manifest replay, exit codes."""

import pytest

from anchordt import cli, manifest


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

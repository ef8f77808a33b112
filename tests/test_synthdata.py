"""Dataset generation, anchors, and CSV round trips."""

import re

import numpy as np
import pytest

from anchordt import synthdata
from anchordt.synthdata import SWAP, PairedDataset, SynthConfig


def pair_residual(ds: PairedDataset) -> float:
    """Max |x - (t*cos(Ay) + Ay)| over the dataset; 0 up to float noise."""
    return np.abs(ds.x - synthdata.warp(ds.y, ds.t)).max()


class TestWarp:
    def test_origin_with_t_04(self):
        x = synthdata.warp(np.array([0.0, 0.0]), 0.4, SWAP)
        np.testing.assert_allclose(x, [[0.4, 0.4]], atol=1e-15)

    def test_hand_evaluated_point(self):
        # y=(1, 0.5), t=0.3, swap: Ay=(0.5, 1),
        # x = (0.5 + 0.3 cos 0.5, 1 + 0.3 cos 1)
        x = synthdata.warp(np.array([1.0, 0.5]), 0.3, SWAP)
        np.testing.assert_allclose(x, [[0.76327, 1.16209]], atol=1e-5)
        np.testing.assert_allclose(
            x, [[0.5 + 0.3 * np.cos(0.5), 1.0 + 0.3 * np.cos(1.0)]], atol=1e-15)


class TestGenerate:
    def test_default_counts(self):
        train, test = synthdata.generate(SynthConfig(seed=0))
        assert len(train) == 27000
        assert len(test) == 3000

    def test_pairs_satisfy_the_warp_identity(self):
        train, test = synthdata.generate(SynthConfig(num_train=500, num_test=100,
                                                     seed=3))
        assert pair_residual(train) <= 1e-12
        assert pair_residual(test) <= 1e-12

    def test_t_shared_between_splits_in_per_dataset_mode(self):
        train, test = synthdata.generate(SynthConfig(num_train=50, num_test=50,
                                                     seed=4))
        assert train.t == test.t
        assert 0.3 <= train.t <= 0.5

    def test_deterministic_given_seed(self):
        a, _ = synthdata.generate(SynthConfig(num_train=100, num_test=10, seed=5))
        b, _ = synthdata.generate(SynthConfig(num_train=100, num_test=10, seed=5))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_y1_mean_within_clt_bound(self):
        train, _ = synthdata.generate(SynthConfig(seed=0))
        bound = 3 * (2 / np.sqrt(12)) / np.sqrt(27000)
        assert abs(train.y[:, 0].mean()) < bound

    def test_y2_conditional_structure(self):
        train, _ = synthdata.generate(SynthConfig(seed=1))
        resid = train.y[:, 1] - 0.5 * train.y[:, 0]
        assert abs(resid.mean()) < 3 * (2 / np.sqrt(12)) / np.sqrt(27000)
        assert resid.min() >= -1.0 and resid.max() <= 1.0

    def test_injectivity_margin(self):
        # |v(a)-v(b)| >= (1-t)|a-b| per coordinate, so pairwise distance
        # ratios are bounded below by 1-t
        from scipy.spatial.distance import pdist
        train, _ = synthdata.generate(SynthConfig(num_train=800, num_test=10,
                                                  seed=7))
        dx = pdist(train.x)
        dy = pdist(train.y)
        ratio = dx / dy
        assert ratio.min() >= (1 - train.t) - 1e-9

    @pytest.mark.parametrize("name, value", [
        ("t_min", float("nan")), ("t_max", float("nan")), ("t_min", -float("inf")),
        ("t_max", float("inf")), ("t_min", -1.0), ("t_max", 1.0), ("t_max", 1.5),
    ])
    def test_amplitude_outside_the_injective_range_rejected(self, name, value):
        # the warp is injective for |t| < 1
        with pytest.raises(ValueError, match=rf"{name} = {value!r} not in \(-1, 1\)"):
            SynthConfig(**{name: value})

    def test_amplitudes_just_inside_the_range_accepted(self):
        train, _ = synthdata.generate(SynthConfig(num_train=5, num_test=5, t_min=-0.99,
                                                  t_max=0.99))
        assert -0.99 <= train.t <= 0.99


class TestAnchors:
    def test_anchor_pairs_are_aligned(self):
        train, _ = synthdata.generate(SynthConfig(num_train=100, num_test=10,
                                                  seed=11))
        anchors = synthdata.select_anchors(train, 5, seed=0)
        assert anchors.size == 5
        recon = synthdata.warp(anchors.y.T, train.t)
        np.testing.assert_allclose(anchors.x.T, recon, atol=1e-12)

    def test_single_anchor(self):
        train, _ = synthdata.generate(SynthConfig(num_train=50, num_test=10,
                                                  seed=12))
        anchors = synthdata.select_anchors(train, 1, seed=3)
        assert anchors.x.shape == (2, 1)

    def test_whole_dataset_degenerate_case(self):
        train, _ = synthdata.generate(SynthConfig(num_train=20, num_test=10,
                                                  seed=13))
        anchors = synthdata.select_anchors(train, 20, seed=0)
        assert anchors.size == 20
        assert sorted(map(tuple, anchors.x.T.tolist())) == \
            sorted(map(tuple, train.x.tolist()))

    def test_same_seed_same_anchors(self):
        train, _ = synthdata.generate(SynthConfig(num_train=100, num_test=10,
                                                  seed=14))
        a = synthdata.select_anchors(train, 3, seed=7)
        b = synthdata.select_anchors(train, 3, seed=7)
        np.testing.assert_array_equal(a.x, b.x)

    def test_too_many_anchors_rejected(self):
        train, _ = synthdata.generate(SynthConfig(num_train=10, num_test=10,
                                                  seed=15))
        with pytest.raises(ValueError, match="anchors"):
            synthdata.select_anchors(train, 11, seed=0)


class TestFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        train, _ = synthdata.generate(SynthConfig(num_train=50, num_test=10,
                                                  seed=21))
        synthdata.save_dataset(train, tmp_path, "train")
        loaded = synthdata.load_dataset(tmp_path, "train")
        np.testing.assert_array_equal(loaded.x, train.x)
        np.testing.assert_array_equal(loaded.y, train.y)
        assert (loaded.t, loaded.seed) == (train.t, 21)

    def test_save_is_deterministic(self, tmp_path):
        train, _ = synthdata.generate(SynthConfig(num_train=25, num_test=10,
                                                  seed=23))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synthdata.save_dataset(train, d1, "train")
        synthdata.save_dataset(train, d2, "train")
        assert (d1 / "train.csv").read_bytes() == (d2 / "train.csv").read_bytes()
        assert (d1 / "train.meta").read_bytes() == (d2 / "train.meta").read_bytes()

    def test_csv_header(self, tmp_path):
        train, _ = synthdata.generate(SynthConfig(num_train=5, num_test=10,
                                                  seed=24))
        synthdata.save_dataset(train, tmp_path, "train")
        lines = (tmp_path / "train.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,y1,y2"
        assert len(lines) == 6

    def test_three_dimensional_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        y = rng.uniform(-1.0, 1.0, (7, 3))
        ds = PairedDataset(x=synthdata.warp(y, 0.4, np.eye(3)[[2, 0, 1]]), y=y, t=0.4,
                           seed=26)
        synthdata.save_dataset(ds, tmp_path, "train")
        header = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert header == "x1,x2,x3,y1,y2,y3"
        loaded = synthdata.load_dataset(tmp_path, "train")
        np.testing.assert_array_equal(loaded.x, ds.x)
        np.testing.assert_array_equal(loaded.y, ds.y)
        assert (loaded.t, loaded.seed) == (0.4, 26)

    def test_meta_holds_seed_t_and_num_samples(self, tmp_path):
        # t_min = t_max pins the t line
        train, _ = synthdata.generate(SynthConfig(num_train=3, num_test=1, seed=25,
                                                  t_min=0.5, t_max=0.5))
        synthdata.save_dataset(train, tmp_path, "train")
        assert (tmp_path / "train.meta").read_text() == \
            "[dataset]\nseed = 25\nt = 0.5\nnum_samples = 3\n"

    def test_per_sample_dataset_is_rejected_naming_its_csv(self, tmp_path):
        # an older per-sample dataset: a t column in the CSV, "t = per-sample"
        train, _ = synthdata.generate(SynthConfig(num_train=3, num_test=1, seed=33))
        synthdata.save_dataset(train, tmp_path, "train")
        path = tmp_path / "train.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line + (",t" if k == 0 else ",0.4")
                                  for k, line in enumerate(lines)) + "\n")
        meta = tmp_path / "train.meta"
        meta.write_text(re.sub(r"\nt = \S+", "\nt = per-sample", meta.read_text()))
        with pytest.raises(ValueError) as info:
            synthdata.load_dataset(tmp_path, "train")
        assert str(info.value) == f"{path}: header x1,x2,y1,y2,t is not x1,x2,y1,y2"

    def test_single_row_loads_as_one_sample(self, tmp_path):
        train, _ = synthdata.generate(SynthConfig(num_train=1, num_test=1, seed=27))
        synthdata.save_dataset(train, tmp_path, "train")
        loaded = synthdata.load_dataset(tmp_path, "train")
        assert loaded.x.shape == loaded.y.shape == (1, 2)
        np.testing.assert_array_equal(loaded.x, train.x)

    def test_header_that_does_not_match_the_columns_is_rejected(self, tmp_path):
        train, _ = synthdata.generate(SynthConfig(num_train=3, num_test=1, seed=28))
        synthdata.save_dataset(train, tmp_path, "train")
        path = tmp_path / "train.csv"
        path.write_text(path.read_text().replace("x1,x2,y1,y2", "x1,x2,y2,y1", 1))
        with pytest.raises(ValueError, match="header x1,x2,y2,y1 is not x1,x2,y1,y2"):
            synthdata.load_dataset(tmp_path, "train")

    @pytest.mark.parametrize("old, new, message", [
        ("[dataset]", "[datset]", "missing [dataset] section"),
        ("num_samples = 3\n", "", "missing [dataset] entry 'num_samples'"),
        ("t = 0.5\n", "t = abc\n",
         "[dataset] t = 'abc': could not convert string to float: 'abc'"),
        ("seed = 29\n", "seed = 2.9\n",
         "[dataset] seed = '2.9': invalid literal for int() with base 10: '2.9'"),
        ("num_samples = 3\n", "num_samples = three\n",
         "[dataset] num_samples = 'three': invalid literal for int() with base 10: "
         "'three'"),
    ])
    def test_damaged_meta_is_rejected_naming_what_is_missing(self, tmp_path, old, new,
                                                             message):
        # t_min = t_max pins the t line
        train, _ = synthdata.generate(SynthConfig(num_train=3, num_test=1, seed=29,
                                                  t_min=0.5, t_max=0.5))
        synthdata.save_dataset(train, tmp_path, "train")
        path = tmp_path / "train.meta"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as info:
            synthdata.load_dataset(tmp_path, "train")
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("damage, message", [
        (lambda row: row.rpartition(",")[0], "3 fields, the header has 4"),
        (lambda row: row.rpartition(",")[0] + ",abc", "'abc' is not a number"),
    ])
    def test_bad_csv_row_is_rejected_naming_the_file_and_line(self, tmp_path, damage,
                                                              message):
        train, _ = synthdata.generate(SynthConfig(num_train=3, num_test=1, seed=31))
        synthdata.save_dataset(train, tmp_path, "train")
        path = tmp_path / "train.csv"
        lines = path.read_text().splitlines()
        lines[2] = damage(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            synthdata.load_dataset(tmp_path, "train")
        # the header is line 1, so the second data row is line 3
        assert str(info.value) == f"{path}, line 3: {message}"

    def test_row_count_other_than_num_samples_is_rejected(self, tmp_path):
        train, _ = synthdata.generate(SynthConfig(num_train=3, num_test=1, seed=30))
        synthdata.save_dataset(train, tmp_path, "train")
        path = tmp_path / "train.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        with pytest.raises(ValueError) as info:
            synthdata.load_dataset(tmp_path, "train")
        assert str(info.value) == (f"{path}: 2 rows, but {tmp_path / 'train.meta'} "
                                   "records num_samples = 3")

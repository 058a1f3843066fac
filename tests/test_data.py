"""Manifest loading, image decode/resize, splitting, batching, synthesis."""

import numpy as np
import pytest

from fabnet.data import (DatasetManifest, batch_iterator, bilinear_resize,
                         decode_image, load_manifest, load_pixels,
                         load_samples, model_input, preprocess,
                         stratified_split, synth_generate, write_ppm)
from fabnet.errors import ImageFormatError, ManifestError, SplitError
from oracles import bilinear_resize_oracle

TABLE_COUNTS = {"Mild": 1624, "Moderate": 999, "No DR": 1805,
                "Proliferate": 772, "Severe": 834}


def write_manifest(path, rows):
    path.write_text("path,label\n" + "".join(f"{p},{l}\n" for p, l in rows))
    return path


class TestManifest:
    def test_lexicographic_ids(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path / "m.csv",
                                         [("a.ppm", "dog"), ("b.ppm", "cat")]))
        assert m.class_names == ("cat", "dog")
        assert m.class_ids == {"cat": 0, "dog": 1}

    def test_duplicate_path(self, tmp_path):
        # The same file spelled three ways: as written, from "./", absolute.
        for again in ("a.ppm", "./a.ppm", str(tmp_path / "a.ppm")):
            with pytest.raises(ManifestError, match="line 3: duplicate path"):
                load_manifest(write_manifest(tmp_path / "m.csv",
                                             [("a.ppm", "cat"), (again, "dog")]))

    def test_unresolvable_path_is_left_to_the_decoder(self, tmp_path):
        # Python 3.10 and 3.11 raise RuntimeError resolving a symlink loop.
        (tmp_path / "loop").symlink_to("loop")
        m = load_manifest(write_manifest(tmp_path / "m.csv",
                                         [("loop", "cat"), ("a.ppm", "dog")]))
        assert m.entries[0] == ("loop", "cat")
        with pytest.raises(ImageFormatError, match="cannot read image"):
            load_pixels(m, [0], (2, 2))

    def test_severity_label_order(self, tmp_path):
        rows = [(f"img{i}.ppm", label)
                for i, label in enumerate(TABLE_COUNTS)]
        m = load_manifest(write_manifest(tmp_path / "m.csv", rows))
        assert m.class_ids == {"Mild": 0, "Moderate": 1, "No DR": 2,
                               "Proliferate": 3, "Severe": 4}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "missing.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file;label\nx.ppm;cat\n")
        with pytest.raises(ManifestError):
            load_manifest(path)


class TestDecode:
    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "red.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        grid = decode_image(path)
        assert grid.shape == (1, 1, 3)
        assert list(grid[0, 0]) == [255, 0, 0]

    def test_gray_expansion(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]))
        grid = decode_image(path)
        assert grid.shape == (2, 2, 3)
        assert np.array_equal(grid[:, :, 0], grid[:, :, 1])
        assert np.array_equal(grid[:, :, 0], grid[:, :, 2])
        assert grid[1, 1, 0] == 40

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(ImageFormatError):
            decode_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(ImageFormatError):
            decode_image(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ImageFormatError):
            decode_image(path)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n255\n" + bytes([1, 2, 3]))
        assert list(decode_image(path)[0, 0]) == [1, 2, 3]


class TestPreprocess:
    def test_same_size_is_exact_division(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(6, 6, 3)).astype(np.uint8)
        out = preprocess(raw, (6, 6))
        assert np.array_equal(out.data[0], raw / 255.0)

    def test_constant_preserved_through_any_resize(self):
        raw = np.full((5, 7, 3), 123, dtype=np.uint8)
        for target in [(3, 3), (10, 10), (7, 5), (1, 1)]:
            out = preprocess(raw, target)
            assert np.all(out.data == 123 / 255.0)

    def test_checkerboard_center_average(self):
        raw = np.array([[[0] * 3, [255] * 3], [[255] * 3, [0] * 3]],
                       dtype=np.uint8)
        out = preprocess(raw, (1, 1))
        assert np.all(out.data == 0.5)

    def test_range_and_shape(self):
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, size=(9, 4, 3)).astype(np.uint8)
        out = preprocess(raw, (5, 6))
        assert out.data.shape == (1, 5, 6, 3)
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0

    def test_upscale_matches_manual_lerp(self):
        # 1x2 row [0, 30] to 1x4 with half-pixel centers:
        # sources -0.25,0.25,0.75,1.25 clamp to 0,0.25,0.75,1
        raw = np.zeros((1, 2, 3), dtype=np.uint8)
        raw[0, 1] = 30
        out = bilinear_resize(raw.astype(np.float64), (1, 4))
        assert list(out[0, :, 0]) == [0.0, 7.5, 22.5, 30.0]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("source, target", [
        ((64, 64), (32, 32)), ((50, 70), (32, 32)), ((17, 9), (32, 24)),
        ((5, 7), (1, 1)), ((2, 3), (7, 5))])
    def test_resize_bytes_match_loop_oracle(self, source, target, channels):
        rng = np.random.default_rng(source[0] * 100 + source[1] + channels)
        img = rng.uniform(0.0, 255.0, size=source + (channels,))
        out = bilinear_resize(img, target)
        assert out.shape == target + (channels,)
        assert out.tobytes() == bilinear_resize_oracle(img, target).tobytes()

    @pytest.mark.parametrize("source, target", [
        ((64, 64), (32, 32)), ((17, 9), (32, 24)), ((6, 6), (6, 6))])
    def test_preprocess_bytes_match_loop_oracle(self, source, target):
        # The decoder's uint8 grid: resized as float64, then divided by 255.
        raw = np.random.default_rng(7).integers(0, 256, size=source + (3,),
                                                dtype=np.uint8)
        want = bilinear_resize_oracle(raw.astype(np.float64), target) / 255.0
        out = preprocess(raw, target)
        assert out.data.shape == (1,) + target + (3,)
        assert out.data.tobytes() == want.tobytes()


class TestStratifiedSplit:
    def make_manifest(self, counts):
        entries = []
        for label, n in counts.items():
            entries.extend((f"{label}_{i}.ppm", label) for i in range(n))
        return DatasetManifest(entries=tuple(entries),
                               class_names=tuple(sorted(counts)),
                               base_dir=None)

    def test_exact_proportion(self):
        m = self.make_manifest({"a": 10, "b": 10})
        train, test = stratified_split(m, 0)
        labels = [m.entries[i][1] for i in test]
        assert len(test) == 4
        assert labels.count("a") == 2
        assert labels.count("b") == 2

    def test_seed_determinism(self):
        m = self.make_manifest({"a": 17, "b": 23, "c": 9})
        first = stratified_split(m, 42)
        second = stratified_split(m, 42)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_retina_table_counts(self):
        m = self.make_manifest(TABLE_COUNTS)
        assert len(m.entries) == 6034
        _, test = stratified_split(m, 1)
        assert len(test) == 1207   # 325 + 200 + 361 + 154 + 167

    def test_singleton_class_rejected(self):
        m = self.make_manifest({"a": 5, "b": 1})
        with pytest.raises(SplitError):
            stratified_split(m, 0)

    def test_disjoint_exhaustive_and_proportional(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            counts = {f"c{i}": int(rng.integers(2, 40))
                      for i in range(int(rng.integers(2, 6)))}
            m = self.make_manifest(counts)
            train, test = stratified_split(m, trial)
            assert set(train) | set(test) == set(range(len(m.entries)))
            assert not set(train) & set(test)
            for label, n in counts.items():
                n_test = sum(1 for i in test if m.entries[i][1] == label)
                assert abs(n_test / n - 0.2) <= 0.5 / n or n_test == 1


class TestBatchIterator:
    def test_partition_arithmetic(self):
        batches = list(batch_iterator(np.arange(33), 16, shuffle_seed=0, epoch=1))
        assert [len(b) for b in batches] == [16, 16, 1]
        assert sorted(np.concatenate(batches)) == list(range(33))

    def test_same_seed_epoch_identical(self):
        a = list(batch_iterator(np.arange(20), 8, shuffle_seed=3, epoch=2))
        b = list(batch_iterator(np.arange(20), 8, shuffle_seed=3, epoch=2))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_epochs_shuffle_differently(self):
        # fixed-seed regression: epochs 1 and 2 give different orders
        first = np.concatenate(list(batch_iterator(np.arange(20), 8,
                                                   shuffle_seed=0, epoch=1)))
        second = np.concatenate(list(batch_iterator(np.arange(20), 8,
                                                    shuffle_seed=0, epoch=2)))
        assert not np.array_equal(first, second)
        assert sorted(first) == sorted(second) == list(range(20))


class TestSynth:
    def test_counts_and_round_trip(self, tmp_path):
        manifest_path = synth_generate(tmp_path / "ds", classes=5,
                                       per_class=8, size=(8, 8), seed=0)
        ppms = sorted((tmp_path / "ds").glob("*.ppm"))
        assert len(ppms) == 40
        m = load_manifest(manifest_path)
        assert len(m.entries) == 40
        assert len(m.class_names) == 5
        train, test = stratified_split(m, 0)
        assert len(train) + len(test) == 40
        x, y = load_samples(m, test, (8, 8))
        assert x.shape == (len(test), 8, 8, 3)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_bit_identical_for_same_seed(self, tmp_path):
        synth_generate(tmp_path / "a", classes=2, per_class=3, size=(6, 6), seed=9)
        synth_generate(tmp_path / "b", classes=2, per_class=3, size=(6, 6), seed=9)
        for pa in sorted((tmp_path / "a").iterdir()):
            pb = tmp_path / "b" / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        synth_generate(tmp_path / "a", classes=2, per_class=1, size=(6, 6), seed=1)
        synth_generate(tmp_path / "b", classes=2, per_class=1, size=(6, 6), seed=2)
        names = [p.name for p in sorted((tmp_path / "a").glob("*.ppm"))]
        assert any((tmp_path / "a" / n).read_bytes()
                   != (tmp_path / "b" / n).read_bytes() for n in names)


class TestDeterminism:
    def test_decode_preprocess_repeatable(self, tmp_path):
        path = tmp_path / "img.ppm"
        rng = np.random.default_rng(3)
        write_ppm(path, rng.integers(0, 256, size=(7, 9, 3)).astype(np.uint8))
        a = preprocess(decode_image(path), (5, 5)).data
        b = preprocess(decode_image(path), (5, 5)).data
        assert np.array_equal(a, b)


# Per-image sizes of each manifest kind; every kind loads at 6x6. "mixed"
# starts at size, so its loader switches to preprocess part way through.
LOAD_KINDS = {
    "same": [(6, 6)] * 4,
    "resized": [(9, 7)] * 4,
    "mixed": [(6, 6), (6, 6), (9, 7), (6, 6), (4, 5)],
    "pgm": [(6, 6)] * 4,
}


def kind_manifest(tmp_path, kind):
    rng = np.random.default_rng(11)
    rows = []
    for i, (h, w) in enumerate(LOAD_KINDS[kind]):
        if kind == "pgm":
            name = f"img{i}.pgm"
            (tmp_path / name).write_bytes(
                f"P5\n{w} {h}\n255\n".encode("ascii")
                + rng.integers(0, 256, h * w).astype(np.uint8).tobytes())
        else:
            name = f"img{i}.ppm"
            write_ppm(tmp_path / name,
                      rng.integers(0, 256, (h, w, 3)).astype(np.uint8))
        rows.append((name, f"c{i % 2}"))
    return load_manifest(write_manifest(tmp_path / "m.csv", rows))


class TestLoadPixels:
    @pytest.mark.parametrize("kind", sorted(LOAD_KINDS))
    def test_load_samples_is_stacked_preprocess(self, tmp_path, kind):
        m = kind_manifest(tmp_path, kind)
        indices = np.arange(len(m.entries))[::-1]
        x, y = load_samples(m, indices, (6, 6))
        want = np.stack([preprocess(decode_image(m.resolve(i)), (6, 6)).data[0]
                         for i in indices])
        assert x.dtype == np.float64
        assert x.tobytes() == want.tobytes()
        assert list(y) == [m.label_id(i) for i in indices]

    @pytest.mark.parametrize("kind", sorted(LOAD_KINDS))
    def test_decoder_bytes_exactly_when_at_size(self, tmp_path, kind):
        m = kind_manifest(tmp_path, kind)
        indices = np.arange(len(m.entries))
        x, _ = load_pixels(m, indices, (6, 6))
        at_size = all(s == (6, 6) for s in LOAD_KINDS[kind])
        assert x.dtype == (np.uint8 if at_size else np.float64)
        if at_size:
            raw = np.stack([decode_image(m.resolve(i)) for i in indices])
            assert x.tobytes() == raw.tobytes()

    def test_model_input_scales_bytes_and_passes_floats(self):
        u = np.arange(256, dtype=np.uint8).reshape(1, 4, 64, 1)
        scaled = model_input(u)
        assert scaled.dtype == np.float64
        assert scaled.tobytes() == (u.astype(np.float64) / 255.0).tobytes()
        assert model_input(scaled) is scaled

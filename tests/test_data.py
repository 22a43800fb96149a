import numpy as np
import pytest

import fliqs.network as network
from fliqs.data import (
    BatchPlan,
    Dataset,
    batch_stream,
    batches,
    load_idx,
    synth_blobs,
    validation_set,
    write_idx,
)
from fliqs.errors import DataError
from fliqs.network import build_model, builtin_model_config, profile_thresholds


def _write_pair(tmp_path, images, labels, classes=None):
    ds = Dataset(images, labels, classes or int(max(labels)) + 1)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(ds, ip, lp)
    return ip, lp


class TestIdxFormat:
    def test_hand_decoded_example(self, tmp_path):
        import struct

        ip = tmp_path / "i.idx"
        lp = tmp_path / "l.idx"
        # one 2x2 image with pixel bytes 0, 128, 255, 64
        ip.write_bytes(struct.pack(">4L", 0x00000803, 1, 2, 2) + bytes([0, 128, 255, 64]))
        lp.write_bytes(struct.pack(">2L", 0x00000801, 1) + bytes([1]))
        ds = load_idx(ip, lp, classes=2)
        assert ds.images.shape == (1, 1, 2, 2)
        expect = np.array([[0.0, 128 / 255], [1.0, 64 / 255]])
        assert np.array_equal(ds.images_at()[0, 0], expect)
        assert ds.labels.tolist() == [1]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(20, 1, 5, 7)).astype(np.float64) / 255.0
        labels = rng.integers(0, 4, size=20)
        ip, lp = _write_pair(tmp_path, images, labels, classes=4)
        ds = load_idx(ip, lp, classes=4)
        assert np.array_equal(ds.images_at(), images)
        assert np.array_equal(ds.labels, labels)

    def test_wrong_image_magic(self, tmp_path):
        import struct

        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">4L", 0x00000802, 1, 2, 2) + bytes(4))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">2L", 0x00000801, 1) + bytes([0]))
        with pytest.raises(DataError, match="magic 0x00000802"):
            load_idx(ip, lp)

    def test_truncated_payload_reports_offset(self, tmp_path):
        import struct

        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">4L", 0x00000803, 2, 2, 2) + bytes(7))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">2L", 0x00000801, 2) + bytes(2))
        with pytest.raises(DataError, match="byte offset 16"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        import struct

        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">4L", 0x00000803, 2, 1, 1) + bytes(2))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">2L", 0x00000801, 3) + bytes(3))
        with pytest.raises(DataError, match="does not match"):
            load_idx(ip, lp)

    def test_limit_truncates(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(10, 1, 3, 3)).astype(np.float64) / 255.0
        labels = rng.integers(0, 2, size=10)
        ip, lp = _write_pair(tmp_path, images, labels, classes=2)
        ds = load_idx(ip, lp, limit=4, classes=2)
        assert len(ds) == 4
        assert np.array_equal(ds.images_at(), images[:4])

    def test_classes_inferred_from_labels(self, tmp_path):
        images = np.zeros((6, 1, 2, 2))
        labels = np.array([0, 1, 2, 3, 4, 2])
        ip, lp = _write_pair(tmp_path, images, labels, classes=5)
        assert load_idx(ip, lp).classes == 5

    def test_multichannel_refused_on_write(self, tmp_path):
        ds = Dataset(np.zeros((2, 3, 4, 4)), np.zeros(2, dtype=int), 2)
        with pytest.raises(DataError, match="single-channel"):
            write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")


def _same_bits(got, want):
    return got.dtype == want.dtype == np.float64 and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


class TestPixelBytes:
    """IDX pixels stay uint8; every float view of them is pixels / 255.0 in float64."""

    @pytest.fixture
    def idx_pair(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(50, 1, 6, 5)).astype(np.uint8)
        labels = rng.integers(0, 3, size=50)
        ip, lp = _write_pair(tmp_path, pixels / 255.0, labels, classes=3)
        return ip, lp, pixels, labels

    def test_one_byte_per_pixel(self, idx_pair):
        ip, lp, pixels, _ = idx_pair
        ds = load_idx(ip, lp)
        assert ds.images.dtype == np.uint8
        assert ds.images.nbytes == 50 * 6 * 5
        assert np.array_equal(ds.images, pixels)
        assert load_idx(ip, lp, limit=7).images.nbytes == 7 * 6 * 5

    def test_batches_are_pixels_over_255(self, idx_pair, monkeypatch):
        ip, lp, pixels, labels = idx_pair
        ds = load_idx(ip, lp)
        ref = Dataset(pixels.astype(np.float64) / 255.0, labels, ds.classes)
        plan = BatchPlan(batch_size=8, seed=4, validation_fraction=0.2)
        for epoch in range(2):
            for (x, y), (want_x, want_y) in zip(batches(ds, plan, epoch),
                                                batches(ref, plan, epoch), strict=True):
                assert _same_bits(x, want_x)
                assert np.array_equal(y, want_y)
        x, y = validation_set(ds, plan)
        want_x, want_y = validation_set(ref, plan)
        assert _same_bits(x, want_x) and np.array_equal(y, want_y)

        # profiling sees the same bits: the inputs of its calibration forwards
        seen = []
        orig = network.forward

        def spy(net, x, *args, **kwargs):
            seen.append(np.array(x))
            return orig(net, x, *args, **kwargs)

        net = build_model(builtin_model_config("mlp-2x16", [1, 6, 5], 3), seed=0)
        monkeypatch.setattr(network, "forward", spy)
        for data in (ds, ref):
            profile_thresholds(net, batches(data, plan, epoch=0), ["INT8"], n_batches=3)
        assert len(seen) == 6
        for got, want in zip(seen[:3], seen[3:]):
            assert _same_bits(got, want)

    def test_write_idx_round_trips_a_loaded_dataset(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        ds = load_idx(ip, lp)
        ip2, lp2 = tmp_path / "again_i.idx", tmp_path / "again_l.idx"
        write_idx(ds, ip2, lp2)
        assert ip2.read_bytes() == ip.read_bytes()
        assert lp2.read_bytes() == lp.read_bytes()
        assert _same_bits(load_idx(ip2, lp2).images_at(), ds.images_at())

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_is_an_error(self, idx_pair, limit):
        ip, lp, _, _ = idx_pair
        with pytest.raises(DataError, match=f"^limit must be >= 1, got {limit}$"):
            load_idx(ip, lp, limit=limit)


class TestDatasetValidation:
    def test_bad_rank(self):
        with pytest.raises(DataError, match=r"N, C, H, W"):
            Dataset(np.zeros((4, 4)), np.zeros(4, dtype=int), 2)

    def test_label_count_mismatch(self):
        with pytest.raises(DataError, match="does not match"):
            Dataset(np.zeros((4, 1, 2, 2)), np.zeros(3, dtype=int), 2)

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="outside"):
            Dataset(np.zeros((2, 1, 1, 1)), np.array([0, 5]), 3)

    def test_subset_bounds(self):
        ds = Dataset(np.zeros((4, 1, 1, 1)), np.zeros(4, dtype=int), 2)
        assert len(ds.subset(2)) == 2
        with pytest.raises(DataError):
            ds.subset(5)


class TestBlobs:
    def test_separated_blobs_are_linearly_separable(self):
        ds = synth_blobs(classes=3, dims=8, n_per_class=100, separation=10.0, seed=0)
        x = ds.images.reshape(len(ds), -1)
        # one-vs-rest least squares probe; wide separation should be trivial
        targets = np.eye(3)[ds.labels]
        xb = np.hstack([x, np.ones((len(x), 1))])
        coef, *_ = np.linalg.lstsq(xb, targets, rcond=None)
        pred = (xb @ coef).argmax(axis=1)
        assert np.mean(pred == ds.labels) > 0.99

    def test_zero_separation_is_chance(self):
        ds = synth_blobs(classes=4, dims=8, n_per_class=400, separation=0.0, seed=1)
        x = ds.images.reshape(len(ds), -1)
        xb = np.hstack([x, np.ones((len(x), 1))])
        half = len(ds) // 2
        targets = np.eye(4)[ds.labels[:half]]
        coef, *_ = np.linalg.lstsq(xb[:half], targets, rcond=None)
        pred = (xb[half:] @ coef).argmax(axis=1)
        # identical clusters carry no class signal, so held-out accuracy
        # stays at chance level
        assert abs(np.mean(pred == ds.labels[half:]) - 0.25) < 0.05

    def test_deterministic_per_seed(self):
        a = synth_blobs(3, 4, 10, 2.0, seed=7)
        b = synth_blobs(3, 4, 10, 2.0, seed=7)
        c = synth_blobs(3, 4, 10, 2.0, seed=8)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_values_in_unit_interval(self):
        ds = synth_blobs(2, 5, 50, 5.0, seed=0)
        assert ds.images.min() == 0.0
        assert ds.images.max() == 1.0

    def test_bad_parameters(self):
        with pytest.raises(DataError):
            synth_blobs(1, 4, 10, 1.0, seed=0)
        with pytest.raises(DataError):
            synth_blobs(2, 0, 10, 1.0, seed=0)


class TestBatching:
    def _ds(self, n=100):
        return Dataset(
            np.arange(n, dtype=np.float64).reshape(n, 1, 1, 1) / n,
            np.zeros(n, dtype=int),
            2,
        )

    def test_batch_count_after_split(self):
        # 100 examples, 10% validation -> 90 train -> two batches of 32
        plan = BatchPlan(batch_size=32, seed=0, validation_fraction=0.1)
        got = list(batches(self._ds(100), plan, epoch=0))
        assert len(got) == 2
        assert all(img.shape[0] == 32 for img, _ in got)

    def test_split_is_disjoint_and_deterministic(self):
        ds = self._ds(50)
        plan = BatchPlan(batch_size=10, seed=3, validation_fraction=0.2)
        val_x1, _ = validation_set(ds, plan)
        val_x2, _ = validation_set(ds, plan)
        assert np.array_equal(val_x1, val_x2)
        assert len(val_x1) == 10
        train_vals = np.concatenate(
            [img.ravel() for img, _ in batches(ds, plan, epoch=0)]
        )
        assert not set(val_x1.ravel()) & set(train_vals)

    def test_epochs_shuffle_differently(self):
        ds = self._ds(60)
        plan = BatchPlan(batch_size=30, seed=0, validation_fraction=0.0)
        e0 = np.concatenate([img.ravel() for img, _ in batches(ds, plan, 0)])
        e1 = np.concatenate([img.ravel() for img, _ in batches(ds, plan, 1)])
        assert sorted(e0) == sorted(e1)
        assert not np.array_equal(e0, e1)
        again = np.concatenate([img.ravel() for img, _ in batches(ds, plan, 0)])
        assert np.array_equal(e0, again)

    def test_trailing_partial_batch_dropped(self):
        plan = BatchPlan(batch_size=40, seed=0, validation_fraction=0.0)
        got = list(batches(self._ds(100), plan, epoch=0))
        assert len(got) == 2

    def test_batch_size_exceeding_split(self):
        plan = BatchPlan(batch_size=95, seed=0, validation_fraction=0.1)
        with pytest.raises(DataError, match="exceeds training split"):
            list(batches(self._ds(100), plan, epoch=0))

    def test_stream_crosses_epochs(self):
        ds = self._ds(20)
        plan = BatchPlan(batch_size=10, seed=0, validation_fraction=0.0)
        stream = batch_stream(ds, plan)
        seen = [next(stream)[0] for _ in range(5)]
        assert all(s.shape[0] == 10 for s in seen)

    def test_plan_validation(self):
        with pytest.raises(DataError):
            BatchPlan(batch_size=0, seed=0)
        with pytest.raises(DataError):
            BatchPlan(batch_size=4, seed=0, validation_fraction=1.0)

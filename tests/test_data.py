import json
import os
import re
import struct

import numpy as np
import pytest

from distillab import data
from distillab.config import AutoencoderConfig, DenoiserConfig, DetectorConfig, ToyDataSpec
from distillab.data import (
    FormatError,
    LabeledDataset,
    cutmix,
    grating_image,
    read_dataset,
    synthesize_toy_dataset,
    write_dataset,
)
from distillab.data import _read_array, _synthesize_split
from distillab.diffusion import Denoiser, load_denoiser, save_denoiser, train_denoiser
from distillab.models import Detector, LatentCodec, load_autoencoder, load_detector, mlp_init, read_checkpoint
from distillab.models import save_autoencoder, save_detector, train_autoencoder, train_detector, write_checkpoint
from distillab.numerics import SeededRng, normal_from_words, uniform_from_words
from distillab.prototypes import Prototype, read_prototypes, write_prototypes

from conftest import peak_bytes


class TestToyDataset:
    def test_counts_and_labels(self):
        spec = ToyDataSpec(num_classes=5, train_per_class=500, test_per_class=20)
        train, test = synthesize_toy_dataset(spec, SeededRng(0))
        assert len(train) == 2500
        assert len(test) == 100
        assert set(np.unique(train.labels)) == set(range(5))
        assert np.all((train.images >= 0.0) & (train.images <= 1.0))

    def test_zero_noise_zero_jitter_identical_up_to_phase(self):
        spec = ToyDataSpec(
            num_classes=2,
            train_per_class=4,
            test_per_class=1,
            noise_std=0.0,
            amplitude_jitter=0.0,
        )
        train, _ = synthesize_toy_dataset(spec, SeededRng(0))
        thetas, freqs = spec.resolved_patterns()
        # every class-0 image must be reproducible as a pure grating of the
        # class pattern at some phase
        img = train.images[0]
        phases = np.linspace(0.0, 2 * np.pi, 20000)
        best = min(
            np.abs(
                grating_image(spec.image_shape, thetas[0], freqs[0], p, spec.amplitude)
                - img
            ).max()
            for p in phases
        )
        assert best < 2e-3

    def test_invalid_spec_rejected(self):
        # the spec checks itself on construction
        with pytest.raises(ValueError):
            ToyDataSpec(num_classes=0)
        with pytest.raises(ValueError):
            ToyDataSpec(train_per_class=0)

    def test_patterns_distinct_per_class(self):
        """The fan and the ramp give every class its own (orientation, frequency) pair."""
        for k in range(2, 65):
            thetas, freqs = ToyDataSpec(num_classes=k).resolved_patterns()
            assert len(thetas) == len(freqs) == k
            assert len(set(zip(thetas, freqs))) == k, k

    def test_deterministic(self):
        spec = ToyDataSpec(num_classes=3, train_per_class=5, test_per_class=2)
        a, _ = synthesize_toy_dataset(spec, SeededRng(0))
        b, _ = synthesize_toy_dataset(spec, SeededRng(0))
        assert np.array_equal(a.images, b.images)

    def test_train_test_differ(self):
        spec = ToyDataSpec(num_classes=2, train_per_class=3, test_per_class=3)
        train, test = synthesize_toy_dataset(spec, SeededRng(0))
        assert not np.array_equal(train.images[:3], test.images[:3])


def _synthesize_split_loop(spec, per_class, rng, split_key):
    """Reference: one grating and one set of scalar draws per image."""
    thetas, freqs = spec.resolved_patterns()
    c, h, w = spec.image_shape
    images, labels = [], []
    for cls in range(spec.num_classes):
        sub = rng.spawn(split_key, cls)
        for _ in range(per_class):
            phase = 2.0 * np.pi * float(sub.uniform(1)[0])
            amp = spec.amplitude * (
                1.0 + spec.amplitude_jitter * (2.0 * float(sub.uniform(1)[0]) - 1.0)
            )
            img = grating_image(spec.image_shape, thetas[cls], freqs[cls], phase, amp)
            if spec.noise_std > 0:
                img = img + spec.noise_std * sub.normal((c, h, w))
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(cls)
    return np.array(images, dtype=np.float32).reshape(-1, c, h, w), np.array(labels, dtype=np.int64)


def _synthesize_split_one_pass(spec, per_class, rng, split_key):
    """Reference: each class draws the words of all its images as one block and renders them at once."""
    thetas, freqs = spec.resolved_patterns()
    c, h, w = spec.image_shape
    size = c * h * w
    noise_words = 2 * ((size + 1) // 2) if spec.noise_std > 0 else 0
    images = np.empty((spec.num_classes, per_class, c, h, w), dtype=np.float32)
    for cls in range(spec.num_classes):
        words = rng.spawn(split_key, cls).raw_u64(per_class * (2 + noise_words)).reshape(per_class, 2 + noise_words)
        phase = 2.0 * np.pi * uniform_from_words(words[:, 0])
        amp = spec.amplitude * (1.0 + spec.amplitude_jitter * (2.0 * uniform_from_words(words[:, 1]) - 1.0))
        img = grating_image(spec.image_shape, thetas[cls], freqs[cls], phase, amp)
        if noise_words:
            img = img + spec.noise_std * normal_from_words(words[:, 2:])[:, :size].reshape(per_class, c, h, w)
        images[cls] = np.clip(img, 0.0, 1.0)
    return images.reshape(-1, c, h, w), np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)


class TestBlockSynthesis:
    @pytest.mark.parametrize("per_class", [1, 63, 64, 65, 130])
    def test_blocks_equal_one_pass(self, rng_spy, per_class):
        """Blocks of 64 images, a short last one included, give the one-pass bytes and word counts."""
        assert data._SYNTH_BLOCK == 64
        spec = ToyDataSpec(num_classes=2, image_height=8, image_width=6)
        got = _synthesize_split(spec, per_class, SeededRng(5), 0)
        block_words = dict(rng_spy.words)
        rng_spy.words.clear()
        want = _synthesize_split_one_pass(spec, per_class, SeededRng(5), 0)
        assert got[0].shape == (2 * per_class, 1, 8, 6)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert block_words == dict(rng_spy.words) and len(block_words) == 2

    def test_peak_above_the_data_stays_flat(self):
        """Four times the images leave the scratch above the returned arrays about where it was."""
        extra = {}
        for per_class in (200, 800):
            spec = ToyDataSpec(train_per_class=per_class)
            (train, test), peak = peak_bytes(synthesize_toy_dataset, spec, SeededRng(0))
            extra[per_class] = peak - sum(a.nbytes for ds in (train, test) for a in (ds.images, ds.labels))
        assert extra[800] < extra[200] + 256 * 1024, extra
        assert extra[800] < 1024 * 1024, extra

    @pytest.mark.parametrize("noise_std", [0.05, 0.0])
    @pytest.mark.parametrize("image_shape", [(2, 5, 7), (1, 16, 16)])
    def test_equals_per_image_loop(self, rng_spy, noise_std, image_shape):
        c, h, w = image_shape
        spec = ToyDataSpec(num_classes=3, channels=c, image_height=h, image_width=w, noise_std=noise_std)
        got = _synthesize_split(spec, 9, SeededRng(11), 0)
        block_words = dict(rng_spy.words)
        rng_spy.words.clear()
        want = _synthesize_split_loop(spec, 9, SeededRng(11), 0)
        assert got[0].dtype == np.float32 and got[0].shape == (27, *image_shape)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        # every class stream consumed the same number of words
        assert block_words == dict(rng_spy.words)
        assert len(block_words) == 3

    def test_empty_split(self):
        spec = ToyDataSpec(num_classes=2, image_height=4, image_width=4)
        images, labels = _synthesize_split(spec, 0, SeededRng(0), 1)
        assert images.shape == (0, 1, 4, 4) and labels.shape == (0,)


def _ratios(seed, n):
    """``n`` CutMix ratios, one stream word each, as the detector draws them."""
    return uniform_from_words(SeededRng(seed).raw_u64(n))


class TestMixRatio:
    def test_alpha_one_is_uniform(self):
        """The ratios are Beta(1, 1), i.e. uniform on [0, 1)."""
        vals = _ratios(1, 100_000)
        assert vals.min() >= 0.0 and vals.max() < 1.0
        assert abs(vals.mean() - 0.5) < 0.01
        # Uniform(0,1) variance = 1/12
        assert abs(vals.var() - 1.0 / 12.0) < 0.005

    @pytest.mark.parametrize("alpha", [1.0])
    def test_symmetry(self, alpha):
        """CutMix draws its ratio from Beta(alpha, alpha) at alpha 1, the one law it uses."""
        vals = _ratios(2, 100_000)
        assert abs(vals.mean() - 0.5) < 0.01
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        # Beta(a,a) variance = 1/(8a+4)
        assert abs(vals.var() - 1.0 / (8.0 * alpha + 4.0)) < 0.005

    def test_scalar_draw(self):
        (lam,) = _ratios(4, 1)
        assert 0.0 <= lam <= 1.0


class TestCutMix:
    def _images(self, n=1, h=8, w=8):
        base = np.zeros((n, 1, h, w), dtype=np.float32)
        patch = np.ones((n, 1, h, w), dtype=np.float32)
        return base, patch

    @staticmethod
    def _centers(rng, n, h=8, w=8):
        return rng.integers(h, n=n), rng.integers(w, n=n)

    def test_lambda_one_identity(self):
        base, patch = self._images()
        out = cutmix(base, [0], patch, [1], [1.0], num_classes=3, center=self._centers(SeededRng(5), 1))
        assert np.array_equal(out.image, base)
        assert out.mix_ratio[0] == 1.0
        assert np.array_equal(out.soft_label, [[1.0, 0.0, 0.0]])

    def test_lambda_zero_uncropped_full_replacement(self):
        base, patch = self._images()
        # lam = 0 -> an 8x8 box, which fits the image exactly around its centre
        out = cutmix(base, [0], patch, [1], [0.0], num_classes=2, center=([4], [4]))
        assert np.array_equal(out.image, patch)
        assert out.mix_ratio[0] == 0.0
        assert np.array_equal(out.soft_label, [[0.0, 1.0]])

    def test_quarter_area_box(self):
        base, patch = self._images(h=32, w=32)
        # lam = 0.75 -> side ratio 0.5 -> 16x16 box when fully inside
        out = cutmix(base, [0], patch, [1], [0.75], num_classes=2, center=([16], [16]))
        assert out.mix_ratio[0] == 0.75
        assert np.array_equal(out.soft_label, [[0.75, 0.25]])
        assert out.image[0, 0, 8:24, 8:24].sum() == 16 * 16

    def test_shape_mismatch(self):
        base, _ = self._images(h=4, w=4)
        _, patch = self._images(h=5, w=5)
        with pytest.raises(ValueError):
            cutmix(base, [0], patch, [1], [0.5], num_classes=2, center=([1], [1]))
        with pytest.raises(ValueError):  # a single (C, H, W) image is not a batch
            cutmix(base[0], 0, base[0], 1, 0.5, num_classes=2, center=(1, 1))

    def test_label_weight_equals_retained_fraction_exactly(self):
        # 1000 random (lambda, box) draws; base weight must equal the counted
        # retained-pixel fraction bit-exactly, and every pixel must trace to
        # exactly one source image.
        rng = SeededRng(42)
        n, h, w = 1000, 16, 16
        base, patch = self._images(n, h, w)
        lam = rng.uniform(n)
        labels = np.zeros(n, dtype=np.int64)
        out = cutmix(base, labels, patch, labels + 1, lam, num_classes=2, center=self._centers(rng, n, h, w))
        patched = out.image.sum(axis=(1, 2, 3)).astype(np.int64)  # pixels that came from patch
        retained = h * w - patched
        assert np.array_equal(out.soft_label[:, 0], retained / (h * w))
        assert np.array_equal(out.soft_label[:, 1], patched / (h * w))
        assert np.all((out.image == 0.0) | (out.image == 1.0))

    def test_same_class_mix_single_entry(self):
        base, patch = self._images()
        out = cutmix(base, [1], patch, [1], [0.5], num_classes=3, center=self._centers(SeededRng(9), 1))
        assert out.soft_label[0, 1] == 1.0
        assert np.count_nonzero(out.soft_label) == 1

    def test_soft_label_sums_to_one(self):
        rng = SeededRng(77)
        base, patch = self._images(100)
        labels = np.zeros(100, dtype=np.int64)
        out = cutmix(base, labels, patch, labels + 1, rng.uniform(100), num_classes=4, center=self._centers(rng, 100))
        assert np.all(np.abs(out.soft_label.sum(axis=1) - 1.0) < 1e-6)
        assert np.all(np.count_nonzero(out.soft_label, axis=1) <= 2)


class TestDatasetIO:
    def _random_dataset(self, rng, n=7, shape=(2, 3, 4), k=3):
        images = rng.uniform(n * np.prod(shape)).reshape(n, *shape).astype(np.float32)
        labels = rng.integers(k, n=n)
        return LabeledDataset(images, labels, tuple(f"c{i}" for i in range(k)))

    def test_round_trip_identity(self, tmp_path):
        rng = SeededRng(31)
        for trial in range(10):
            n = 1 + rng.integers(6)
            k = 2 + rng.integers(3)
            shape = (1 + rng.integers(2), 2 + rng.integers(4), 2 + rng.integers(4))
            ds = self._random_dataset(rng, n=n, shape=shape, k=k)
            p = tmp_path / f"ds{trial}.dstl"
            write_dataset(p, ds)
            back = read_dataset(p)
            assert back.images.tobytes() == ds.images.tobytes()
            assert np.array_equal(back.labels, ds.labels)
            assert back.class_names == ds.class_names
            assert back.num_classes == ds.num_classes

    def test_write_read_write_stable_bytes(self, tmp_path):
        ds = self._random_dataset(SeededRng(8))
        p1, p2 = tmp_path / "a.dstl", tmp_path / "b.dstl"
        write_dataset(p1, ds)
        write_dataset(p2, read_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_is_a_format_error(self, tmp_path):
        """A file with 0 images holds nothing any command can train on or
        score, so reading it fails with the file's name, whatever wrote it."""
        ds = LabeledDataset(
            np.zeros((0, 1, 4, 4), dtype=np.float32),
            np.zeros(0, dtype=np.int64),
            ("a", "b"),
        )
        p = tmp_path / "empty.dstl"
        write_dataset(p, ds)
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: header counts must be positive: 0 images"):
            read_dataset(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.dstl"
        ds = self._random_dataset(SeededRng(2))
        write_dataset(p, ds)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_dataset(p)

    def test_truncated(self, tmp_path):
        # every offset: the 26-byte header, the label and image blocks, the
        # trailer length and the trailer, each named in the message
        p = tmp_path / "full.dstl"
        write_dataset(p, self._random_dataset(SeededRng(3), n=3, shape=(1, 2, 2)))
        raw = p.read_bytes()
        fields = [(4, "magic"), (6, "version"), (26, "header counts"), (32, "labels"), (80, "image data"),
                  (84, "trailer length"), (len(raw), "trailer")]  # (end offset, field)
        cut_path = tmp_path / "trunc.dstl"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            what = next(name for end, name in fields if cut < end)
            with pytest.raises(FormatError, match=f"^{re.escape(str(cut_path))}: truncated payload while reading {what}$"):
                read_dataset(cut_path)
        assert len(read_dataset(p)) == 3

    @pytest.mark.parametrize("dtype, shape, what", [("<u2", (3,), "labels"), ("<f4", (3, 1, 2, 2), "image data")])
    def test_short_read_is_truncation(self, tmp_path, dtype, shape, what):
        """A read that returns fewer bytes than the file had left when it was
        checked (the file shrank in between) raises the truncation error."""

        class OneByteShort:
            def __init__(self, f):
                self.fileno, self.tell = f.fileno, f.tell
                self._f = f

            def readinto(self, buf):
                return self._f.readinto(memoryview(buf)[:-1])

        p = tmp_path / "blob"
        p.write_bytes(bytes(64))
        with open(p, "rb") as f:
            assert _read_array(f, dtype, shape, what).shape == shape
            f.seek(0)
            with pytest.raises(FormatError, match=f"^truncated payload while reading {what}$"):
                _read_array(OneByteShort(f), dtype, shape, what)

    def test_read_holds_one_image_payload(self, tmp_path):
        """read_dataset reads the 1 MB of pixels straight into the dataset's
        array: its peak is about one payload, not a bytes copy plus the array."""
        ds = self._random_dataset(SeededRng(12), n=256, shape=(1, 32, 32))
        p = tmp_path / "big.dstl"
        write_dataset(p, ds)
        back, peak = peak_bytes(read_dataset, p)
        assert back.images.tobytes() == ds.images.tobytes()
        assert peak < 1.5 * ds.images.nbytes, peak

    def test_write_makes_no_copy_of_the_images(self, tmp_path):
        """write_dataset streams the float32 images as they are: nothing near
        the size of the 1 MB payload is allocated."""
        ds = self._random_dataset(SeededRng(13), n=256, shape=(1, 32, 32))
        _, peak = peak_bytes(write_dataset, tmp_path / "big.dstl", ds)
        assert peak < ds.images.nbytes // 2, peak

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "badlabel.dstl"
        ds = self._random_dataset(SeededRng(4), n=3, k=3)
        write_dataset(p, ds)
        raw = bytearray(p.read_bytes())
        # first label lives right after the 26-byte header
        raw[26:28] = (9).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="labels"):
            read_dataset(p)

    @staticmethod
    def _split_trailer(raw: bytes) -> tuple[bytes, dict]:
        """A DSTL file's bytes before its trailer length, and its trailer."""
        _, n, _, c, h, w = struct.unpack_from("<H5I", raw, 4)
        end = 26 + 2 * n + 4 * n * c * h * w
        (tlen,) = struct.unpack_from("<I", raw, end)
        assert len(raw) == end + 4 + tlen
        return raw[:end], json.loads(raw[end + 4 :])

    def test_files_hold_no_origin_record(self, tmp_path):
        """Where an artifact came from is its manifest's record: a dataset's
        trailer holds only its class names, a prototype descriptor only its
        table, and a trained model's descriptor only the image shape its
        array shapes do not give (none for the denoiser) and a meta of its
        loss history."""
        train = self._random_dataset(SeededRng(5), n=12)
        p = tmp_path / "ds.dstl"
        write_dataset(p, train)
        _, trailer = self._split_trailer(p.read_bytes())
        assert sorted(trailer) == ["class_names"]
        protos = [Prototype(class_id=0, latent=np.zeros(4, np.float32), cluster_size=2, cluster_index=0)]
        write_prototypes(tmp_path / "p.prto", protos)
        desc, _ = read_checkpoint(tmp_path / "p.prto", "prototypes")
        assert sorted(desc) == ["table"]
        [det] = train_detector([train], DetectorConfig(epochs=1, hidden_sizes=[4]), [SeededRng(1)], use_cutmix=True)
        codec = train_autoencoder(train, AutoencoderConfig(epochs=1, hidden_size=4, latent_dim=2), SeededRng(2))
        den_cfg = DenoiserConfig(epochs=1, hidden_sizes=[4], time_embed_dim=2, label_embed_dim=2)
        den = train_denoiser(codec.encode(train.images), train.labels, den_cfg, SeededRng(3))
        trained = [("detector", det, save_detector), ("autoencoder", codec, save_autoencoder), ("denoiser-v1", den, save_denoiser)]
        for kind, model, save in trained:
            save(tmp_path / f"{kind}.mdlc", model)
            desc, _ = read_checkpoint(tmp_path / f"{kind}.mdlc", kind)
            assert sorted(desc) == (["meta"] if kind == "denoiser-v1" else ["image_shape", "meta"]), kind
            assert sorted(desc["meta"]) == ["loss_history"], kind

    def test_files_with_a_provenance_key_read_back_equal(self, tmp_path):
        """Files written while datasets and prototypes carried a ``provenance``
        key, or model descriptors listed their sizes and model meta a seed and
        a training setting, still load, to what the same file without the
        keys loads to."""
        ds = self._random_dataset(SeededRng(6))
        p, old = tmp_path / "new.dstl", tmp_path / "old.dstl"
        write_dataset(p, ds)
        body, trailer = self._split_trailer(p.read_bytes())
        trailer = json.dumps(dict(trailer, provenance={"seed": 7, "spec_sha": "abc"})).encode()
        old.write_bytes(body + struct.pack("<I", len(trailer)) + trailer)
        back = read_dataset(old)
        assert back.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert (back.num_classes, back.class_names) == (ds.num_classes, ds.class_names)

        protos = [
            Prototype(class_id=c, latent=SeededRng(c).normal(4).astype(np.float32), cluster_size=3, cluster_index=0)
            for c in range(2)
        ]
        write_prototypes(tmp_path / "new.prto", protos)
        desc, arrays = read_checkpoint(tmp_path / "new.prto", "prototypes")
        write_checkpoint(tmp_path / "old.prto", "prototypes", dict(desc, provenance={"seed": 1, "ipc": 1}), arrays)
        back = read_prototypes(tmp_path / "old.prto")
        assert [(b.class_id, b.cluster_index, b.cluster_size) for b in back] == [(0, 0, 3), (1, 0, 3)]
        assert np.array_equal(np.stack([b.latent for b in back]), arrays[0])

        # models written while their descriptors also listed their sizes, and
        # their meta a seed and a setting, load to the same arrays and sizes
        for kind, model, save, load, dropped in _models():
            new, old = tmp_path / f"{kind}.mdlc", tmp_path / f"old-{kind}.mdlc"
            save(new, model)
            desc, arrays = read_checkpoint(new, kind)
            write_checkpoint(old, kind, dict(desc, **dropped), arrays)
            back = load(old)
            save(tmp_path / "again.mdlc", back)
            _, again = read_checkpoint(tmp_path / "again.mdlc", kind)
            assert [(a.shape, a.tobytes()) for a in again] == [(a.shape, a.tobytes()) for a in arrays], kind
            for size in ("image_shape", "num_classes", "latent_dim", "time_embed_dim"):
                assert getattr(back, size, None) == getattr(model, size, None), (kind, size)


def _models():
    """(kind, model, saver, loader, the keys its descriptor used to hold) of a small detector, codec and denoiser."""
    rng, meta = SeededRng(9), {"loss_history": [0.5, 0.25]}
    det = Detector(mlp_init([24, 5, 3], rng.spawn(0)), (2, 3, 4), meta=meta)
    codec = LatentCodec(mlp_init([24, 6, 4], rng.spawn(1)), mlp_init([4, 6, 24], rng.spawn(2)), (2, 3, 4), meta=meta)
    table = rng.spawn(3).normal((4, 3)).astype(np.float32)
    den = Denoiser(mlp_init([4 + 2 + 3, 8, 4], rng.spawn(4)), table, meta=meta)
    det_meta, codec_meta = dict(meta, seed=9, use_cutmix=True), dict(meta, seed=9, reconstruction_mse=0.004)
    den_meta = dict(meta, seed=9, label_dropout=0.1)
    return [
        ("detector", det, save_detector, load_detector, {"layer_sizes": [24, 5, 3], "num_classes": 3, "meta": det_meta}),
        ("autoencoder", codec, save_autoencoder, load_autoencoder, {"latent_dim": 4, "enc_layers": [24, 6, 4], "meta": codec_meta}),
        (
            "denoiser-v1", den, save_denoiser, load_denoiser,
            {"layer_sizes": [9, 8, 4], "num_classes": 3, "latent_dim": 4, "time_embed_dim": 2, "meta": den_meta},
        ),
    ]


class TestSizesFromArrays:
    """A model or a dataset is its arrays: every size is read off them, so
    none can disagree with them, and a save and a load keep each one."""

    def test_models_report_the_sizes_of_their_arrays(self):
        (_, det, *_), (_, codec, *_), (_, den, *_) = _models()
        assert det.num_classes == 3
        assert codec.latent_dim == 4
        assert (den.num_classes, den.latent_dim, den.time_embed_dim) == (3, 4, 2)
        assert den.label_vec(np.arange(den.num_classes + 1)).shape == (4, 3)  # 3 classes and the null token

    def test_no_size_is_passed_beside_the_arrays(self):
        mlp = mlp_init([6, 4, 3], SeededRng(1))
        with pytest.raises(TypeError):
            Detector(mlp, 5, (1, 2, 3))
        assert Detector(mlp, (1, 2, 3)).num_classes == 3
        with pytest.raises(TypeError):
            Denoiser(mlp_init([9, 8, 4], SeededRng(2)), np.zeros((4, 3), np.float32), num_classes=7, latent_dim=9)
        with pytest.raises(TypeError):
            LabeledDataset(np.zeros((1, 1, 2, 2)), [0], 3, ("a", "b", "c"))

    def test_save_load_save_keeps_sizes_and_bytes(self, tmp_path):
        for kind, model, save, load, _ in _models():
            first, again = tmp_path / f"{kind}.mdlc", tmp_path / f"again-{kind}.mdlc"
            save(first, model)
            back = load(first)
            for size in ("num_classes", "latent_dim", "time_embed_dim"):
                assert getattr(back, size, None) == getattr(model, size, None), (kind, size)
            save(again, back)
            assert again.read_bytes() == first.read_bytes(), kind

    def test_dataset_class_count_is_its_class_names(self):
        images = np.zeros((3, 1, 2, 2), dtype=np.float32)
        ds = LabeledDataset(images, [0, 2, 1], ["a", "b", "c", "d"])
        assert (ds.num_classes, ds.class_names) == (4, ("a", "b", "c", "d"))
        with pytest.raises(ValueError, match="at least one class"):
            LabeledDataset(images, [0, 0, 0], ())
        with pytest.raises(ValueError, match="out of range"):
            LabeledDataset(images, [0, 1, 2], ("a", "b"))


def _dataset_writer(path, seed):
    return write_dataset(path, TestDatasetIO()._random_dataset(SeededRng(seed)))


def _checkpoint_writer(path, seed):
    return write_checkpoint(path, "test", {"seed": seed}, [SeededRng(seed).uniform(6).reshape(2, 3)])


def _interrupted(src, dst):
    raise OSError("interrupted before the rename")


WRITERS = [pytest.param(_dataset_writer, id="dataset"), pytest.param(_checkpoint_writer, id="checkpoint")]


class TestAtomicWrite:
    """A write that fails before its rename leaves the old file or none, and no temp file."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_interrupted_write_keeps_old_bytes(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        writer(path, 1)
        old = path.read_bytes()
        monkeypatch.setattr(os, "replace", _interrupted)
        with pytest.raises(OSError, match="interrupted"):
            writer(path, 2)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["artifact"]
        monkeypatch.undo()
        writer(path, 2)  # the same write, uninterrupted, does replace the bytes
        assert path.read_bytes() != old
        assert os.listdir(tmp_path) == ["artifact"]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch, writer):
        monkeypatch.setattr(os, "replace", _interrupted)
        with pytest.raises(OSError, match="interrupted"):
            writer(tmp_path / "artifact", 1)
        assert os.listdir(tmp_path) == []

import math
import re

import numpy as np
import pytest

from distillab.config import AutoencoderConfig, ConfigError, DetectorConfig, ToyDataSpec, parse_config
from distillab.data import FormatError, LabeledDataset, cutmix, synthesize_toy_dataset
from distillab.models import (
    Adam,
    Detector,
    LatentCodec,
    Mlp,
    _cutmix_minibatch,
    _soft_cross_entropy,
    _stack_mlps,
    load_autoencoder,
    load_detector,
    mlp_forward,
    mlp_backward,
    mlp_init,
    predict_batch,
    read_checkpoint,
    save_autoencoder,
    save_detector,
    train_autoencoder,
    train_detector,
    write_checkpoint,
)
from distillab.diffusion import load_denoiser, save_denoiser
from distillab.numerics import NonFiniteError, SeededRng, cosine_similarity, max_softmax, uniform_from_words
from distillab.prototypes import Prototype, read_prototypes, write_prototypes

from conftest import as_float64, gradient_check, peak_bytes


def _tiny_dataset(n_per_class=6, k=3, shape=(1, 5, 5), seed=3):
    c, h, w = shape
    spec = ToyDataSpec(
        num_classes=k, train_per_class=n_per_class, test_per_class=2,
        channels=c, image_height=h, image_width=w,
    )
    rng = SeededRng(seed)
    train, test = synthesize_toy_dataset(spec, rng)
    return train, test


class TestTrainDetector:
    def test_frozen_spec_accuracy(self, detector, toy_test):
        labels, _, _ = predict_batch(detector, toy_test.images)
        acc = (labels == toy_test.labels).mean()
        assert acc >= 0.95

    def test_loss_decreases(self, detector):
        hist = detector.meta["loss_history"]
        assert hist[-1] < hist[0]

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(learning_rate=0.0)

    def test_single_class_rejected(self):
        train, _ = _tiny_dataset(k=3)
        mono = LabeledDataset(
            train.images[train.labels == 0],
            np.zeros((train.labels == 0).sum(), dtype=np.int64),
            ("only",),
        )
        with pytest.raises(ValueError):
            train_detector([mono], DetectorConfig(epochs=1), [SeededRng(1)], use_cutmix=True)

    def test_deterministic_parameters(self):
        train, _ = _tiny_dataset()
        cfg = DetectorConfig(epochs=2, batch_size=8, hidden_sizes=[16, 8])
        [d1] = train_detector([train], cfg, [SeededRng(5)], use_cutmix=True)
        [d2] = train_detector([train], cfg, [SeededRng(5)], use_cutmix=True)
        for a, b in zip(d1.mlp.params(), d2.mlp.params()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("use_cutmix", [True, False])
    def test_lockstep_equals_training_each_alone(self, use_cutmix):
        """Three jobs stacked in one fit give each job's weights and loss history bit for bit."""
        trains = [_tiny_dataset(n_per_class=7, seed=seed)[0] for seed in (3, 4, 5)]  # 21 rows: a short last batch
        rngs = [SeededRng(5), SeededRng(6), SeededRng(5).spawn(9)]
        cfg = DetectorConfig(epochs=3, batch_size=8, hidden_sizes=[16, 8])
        together = train_detector(trains, cfg, rngs, use_cutmix=use_cutmix)
        assert len(together) == 3
        for det, train, rng in zip(together, trains, rngs):
            [alone] = train_detector([train], cfg, [rng], use_cutmix=use_cutmix)
            assert [p.shape for p in det.mlp.params()] == [p.shape for p in alone.mlp.params()]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(det.mlp.params(), alone.mlp.params()))
            assert det.meta == alone.meta and len(det.meta["loss_history"]) == 3
        assert together[0].meta["loss_history"] != together[1].meta["loss_history"]

    def test_lockstep_sets_must_agree_in_shape(self):
        small, _ = _tiny_dataset(n_per_class=6)
        large, _ = _tiny_dataset(n_per_class=7)
        with pytest.raises(ValueError, match="lockstep"):
            train_detector([small, large], DetectorConfig(epochs=1), [SeededRng(1), SeededRng(2)], use_cutmix=False)
        with pytest.raises(ValueError, match="one rng per training set"):
            train_detector([small, small], DetectorConfig(epochs=1), [SeededRng(1)], use_cutmix=False)


class TestCutMixMinibatch:
    """A block of 4 words per sample equals the per-sample draw loop."""

    def test_equals_per_sample_loop(self):
        c, h, w = 2, 5, 7
        train, _ = _tiny_dataset(n_per_class=6, k=3, shape=(c, h, w))
        idx = SeededRng(4).permutation(len(train))
        block, loop = SeededRng(77), SeededRng(77)
        block.uniform(2)  # start away from counter 0
        loop.uniform(2)
        got = _cutmix_minibatch(train, idx, block.raw_u64(4 * len(idx)).reshape(-1, 4))
        images, soft = [], []
        same_class = clipped = 0
        for i in idx:
            lam = uniform_from_words(loop.raw_u64(1))
            j = loop.integers(len(train))
            center = (loop.integers(h, n=1), loop.integers(w, n=1))
            m = cutmix(
                train.images[[i]], train.labels[[i]], train.images[[j]], train.labels[[j]],
                lam, train.num_classes, center,
            )
            images.append(m.image)
            soft.append(m.soft_label)
            same_class += int(train.labels[i] == train.labels[j])
            cut = math.sqrt(1.0 - lam[0])
            unclipped = 2 * (int(h * cut) // 2) * 2 * (int(w * cut) // 2)
            clipped += int(round((1.0 - m.mix_ratio[0]) * h * w) < unclipped)
        assert got.image.tobytes() == np.concatenate(images).tobytes()
        assert got.soft_label.tobytes() == np.concatenate(soft).tobytes()
        assert block._counter == loop._counter
        # the draws cover a same-class partner and a box clipped at the border
        assert same_class >= 1 and clipped >= 1

    def test_train_detector_one_block_per_epoch(self, rng_spy):
        train, _ = _tiny_dataset(n_per_class=10, k=3)  # 30 images: 4 minibatches of <= 8
        rng = SeededRng(5)
        train_detector([train], DetectorConfig(epochs=3, batch_size=8, hidden_sizes=[8]), [rng], use_cutmix=True)
        loop = rng.spawn(1).seed
        draws = {name: count for (seed, name), count in rng_spy.calls.items() if seed == loop}
        assert draws == {"permutation": 3, "raw_u64": 3}
        assert rng_spy.words[loop] == 3 * (30 - 1) + 3 * 4 * 30


class TestPredict:
    def _fixed_logit_detector(self, logits):
        # single linear layer from a 1-pixel image with weights 0 and bias=logits
        k = len(logits)
        mlp = Mlp(
            [np.zeros((4, 1), dtype=np.float32), np.zeros((k, 4), dtype=np.float32)],
            [np.zeros(4, dtype=np.float32), np.asarray(logits, dtype=np.float32)],
        )
        return Detector(mlp=mlp, image_shape=(1, 1, 1))

    def test_softmax_oracle_confidence(self):
        det = self._fixed_logit_detector([2.0, 0.0, 0.0])
        labels, confs, _ = predict_batch(det, np.zeros((1, 1, 1, 1), dtype=np.float32))
        assert labels[0] == 0
        assert confs[0] == pytest.approx(math.exp(2) / (math.exp(2) + 2), abs=1e-6)
        assert confs[0] == pytest.approx(0.78699, abs=5e-6)

    def test_uniform_logits_tie_breaks_low(self):
        det = self._fixed_logit_detector([0.0, 0.0, 0.0, 0.0])
        labels, confs, _ = predict_batch(det, np.zeros((1, 1, 1, 1), dtype=np.float32))
        assert labels[0] == 0
        assert confs[0] == pytest.approx(0.25, abs=1e-9)

    def test_confidence_bounds(self, detector, toy_test):
        _, confs, _ = predict_batch(detector, toy_test.images[:64])
        k = detector.num_classes
        assert np.all(confs >= 1.0 / k - 1e-12)
        assert np.all(confs <= 1.0)

    def test_shape_mismatch(self, detector):
        with pytest.raises(ValueError):
            predict_batch(detector, np.zeros((1, 1, 3, 3), dtype=np.float32))


class TestFeatures:
    def test_deterministic_and_dim(self, detector, toy_test):
        f1 = predict_batch(detector, toy_test.images[:1])[2]
        f2 = predict_batch(detector, toy_test.images[:1])[2]
        assert np.array_equal(f1, f2)
        assert f1.shape == (1, 64)  # the last hidden width
        assert detector.mlp.layer_sizes[-2] == 64

    def test_class_structure(self, detector, toy_test):
        feats = predict_batch(detector, toy_test.images)[2]
        labels = toy_test.labels
        same, cross = [], []
        rng = SeededRng(17)
        for _ in range(400):
            i, j = rng.integers(len(labels), n=2)
            if i == j:
                continue
            s = cosine_similarity(feats[i], feats[j])
            (same if labels[i] == labels[j] else cross).append(s)
        assert np.mean(cross) < np.mean(same)


class TestScoreBatch:
    def test_one_pass_equals_separate_passes(self, detector, toy_test):
        """predict_batch's labels, confidences and features all come from one float64 pass."""
        labels, confs, feats = predict_batch(detector, toy_test.images)
        x = toy_test.images.reshape(len(toy_test), -1).astype(np.float64)
        acts = mlp_forward(detector.mlp, x)
        assert labels.dtype == np.int64 and np.array_equal(labels, acts[-1].argmax(axis=1))
        assert np.array_equal(confs, max_softmax(acts[-1]))
        want_feats = acts[-2].astype(np.float32)
        assert feats.dtype == want_feats.dtype and np.array_equal(feats, want_feats)


def _out_of_place_forward(mlp: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """The former ``mlp_forward``: a new array for the bias add and another for the tanh."""
    acts = [x]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = acts[-1] @ w.swapaxes(-1, -2) + b[..., None, :]
        acts.append(z if i == len(mlp.weights) - 1 else np.tanh(z))
    return acts


class TestForwardInPlace:
    """mlp_forward holds one array per layer and computes the out-of-place formula's bits."""

    def _mlp(self, seed=5, stack=None):
        rng = SeededRng(seed)
        mlp = mlp_init([48, 256, 64, 10], rng)
        for ws in (mlp.weights, mlp.biases):  # nonzero biases, so the add counts
            for j, a in enumerate(ws):
                ws[j] = a + rng.normal(a.shape) * np.float32(0.1)
        return mlp

    @pytest.mark.parametrize("case", ["2-D float32", "stacked float32", "float64 input"])
    def test_equals_out_of_place_formula(self, case):
        rng = SeededRng(6)
        if case == "stacked float32":
            mlp = _stack_mlps([self._mlp(7), self._mlp(8), self._mlp(9)])
            x = rng.normal((3, 33, 48))
        else:
            mlp, x = self._mlp(), rng.normal((33, 48))
            if case == "float64 input":  # predict_batch's pass
                x = x.astype(np.float64)
        got, want = mlp_forward(mlp, x), _out_of_place_forward(mlp, x)
        assert [a.dtype for a in got] == [a.dtype for a in want] == [x.dtype] * 4
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_peak_is_the_returned_activations(self):
        """No temporary of a layer's size outlives its layer: the pass's peak is
        the activations it returns plus a small slack."""
        mlp, x = self._mlp(), SeededRng(10).normal((2048, 48))
        acts, peak = peak_bytes(mlp_forward, mlp, x)
        held = sum(a.nbytes for a in acts[1:])
        assert held <= peak <= held + 64 * 1024, (peak, held)


class TestGradients:
    def test_detector_loss_gradcheck(self):
        rng = SeededRng(123)
        mlp = as_float64(mlp_init([6, 5, 4, 3], rng))
        x = rng.normal((7, 6)).astype(np.float64)
        y = np.zeros((7, 3))
        y[np.arange(7), rng.integers(3, n=7)] = 0.7
        y += 0.3 / 3  # soft targets

        def loss_fn():
            acts = mlp_forward(mlp, x)
            loss, dlogits = _soft_cross_entropy(acts[-1], y)
            grads, _ = mlp_backward(mlp, acts, dlogits)
            return loss, grads

        checked, worst = gradient_check(loss_fn, mlp.params(), SeededRng(9), probes=60)
        assert checked >= 50

    def test_autoencoder_loss_gradcheck(self):
        from distillab.models import _ae_loss_and_grads

        rng = SeededRng(321)
        enc = as_float64(mlp_init([8, 6, 3], rng.spawn(0)))
        dec = as_float64(mlp_init([3, 6, 8], rng.spawn(1)))
        x = rng.normal((5, 8)).astype(np.float64)

        def loss_fn():
            return _ae_loss_and_grads(enc, dec, x)

        checked, _ = gradient_check(
            loss_fn, enc.params() + dec.params(), SeededRng(10), probes=60
        )
        assert checked >= 50


class TestAdam:
    def test_flat_buffers_equal_per_parameter_formula(self):
        """50 steps over mixed float32 shapes give the parameters and moments,
        bit for bit, of the per-parameter formula written out here."""
        rng = SeededRng(41)
        shapes = [(12, 7), (12,), (5, 12), (5,), (4, 3)]  # weights, biases, a label table
        params = [rng.normal(shape).astype(np.float32) for shape in shapes]
        ref = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        opt = Adam(params, 3e-3)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
        for t in range(1, 51):
            grads = [rng.normal(shape).astype(np.float32) for shape in shapes]
            opt.step(params, grads)
            b1c, b2c = 1.0 - b1**t, 1.0 - b2**t
            for p, g, m, v in zip(ref, grads, ref_m, ref_v):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= (lr * (m / b1c)) / (np.sqrt(v / b2c) + eps)
        for got, want in zip(params, ref):
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()
        assert opt.m.dtype == opt.v.dtype == np.float32
        assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
        assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


class TestAutoencoder:
    def test_identity_mode(self):
        """The codec has one mode, so a config that names any is rejected."""
        for mode in ("identity", "mlp"):
            with pytest.raises(ConfigError, match="unknown config key autoencoder.mode"):
                parse_config({"autoencoder": {"mode": mode}})

    def test_trained_reconstruction(self, codec, toy_test):
        rec = codec.decode(codec.encode(toy_test.images))
        mse = np.mean((rec.astype(np.float64) - toy_test.images) ** 2)
        assert mse <= 0.01

    def test_training_makes_no_array_of_the_training_set(self):
        """The codec trains a minibatch at a time and keeps only its loss
        history, so its peak is well under the training images' bytes."""
        rng = SeededRng(11)
        images = rng.uniform(12000 * 256).astype(np.float32).reshape(12000, 1, 16, 16)
        train = LabeledDataset(images, np.arange(12000) % 2, ("a", "b"))
        codec, peak = peak_bytes(train_autoencoder, train, AutoencoderConfig(epochs=1), rng)
        assert peak < images.nbytes // 2, (peak, images.nbytes)
        assert list(codec.meta) == ["loss_history"]

    def test_shape_contract(self, toy_train):
        codec = train_autoencoder(toy_train, AutoencoderConfig(epochs=1, latent_dim=8), SeededRng(2))
        x = toy_train.images[:1]
        assert codec.encode(x).shape == (1, 8)
        assert codec.decode(codec.encode(x)).shape == x.shape
        # one image or one code is not a batch
        with pytest.raises(ValueError):
            codec.encode(x[0])
        with pytest.raises(ValueError):
            codec.decode(codec.encode(x)[0])

    def test_invalid_mode(self):
        with pytest.raises(TypeError):
            AutoencoderConfig(mode="vae")


class TestLatentCodec:
    def test_identity_codec_range(self, codec, toy_train):
        """Codes are float32 tanh values; decoded images are float32 in [0, 1]."""
        z = codec.encode(toy_train.images[:8])
        assert z.dtype == np.float32 and z.shape == (8, codec.latent_dim)
        assert z.min() >= -1.0 and z.max() <= 1.0
        back = codec.decode(z)
        assert back.dtype == np.float32 and back.shape == toy_train.images[:8].shape
        assert back.min() >= 0.0 and back.max() <= 1.0
        assert np.mean(np.abs(back - toy_train.images[:8])) < 0.1

    def test_decode_clips(self, codec):
        for value in (5.0, -5.0):
            wild = np.full((1, codec.latent_dim), value, dtype=np.float32)
            img = codec.decode(wild)
            assert img.min() >= 0.0 and img.max() <= 1.0
        with pytest.raises(ValueError, match="latent dim"):
            codec.decode(np.zeros((1, codec.latent_dim + 1), dtype=np.float32))


class TestCheckpoints:
    def test_detector_round_trip(self, detector, toy_test, tmp_path):
        p = tmp_path / "det.mdlc"
        save_detector(p, detector)
        back = load_detector(p)
        for a, b in zip(detector.mlp.params(), back.mlp.params()):
            assert np.array_equal(a, b)
        assert back.num_classes == detector.num_classes
        assert back.image_shape == detector.image_shape
        l1, c1, _ = predict_batch(detector, toy_test.images[:1])
        l2, c2, _ = predict_batch(back, toy_test.images[:1])
        assert (l1[0], c1[0]) == (l2[0], c2[0])

    def test_autoencoder_round_trip(self, toy_train, tmp_path):
        codec = train_autoencoder(toy_train, AutoencoderConfig(epochs=1, latent_dim=8), SeededRng(4))
        p = tmp_path / "ae.mdlc"
        save_autoencoder(p, codec)
        back = load_autoencoder(p)
        assert isinstance(back, LatentCodec) and back.latent_dim == 8
        assert back.image_shape == codec.image_shape and back.meta == codec.meta
        z1 = codec.encode(toy_train.images[:3])
        z2 = back.encode(toy_train.images[:3])
        assert np.array_equal(z1, z2)
        assert np.array_equal(codec.decode(z1), back.decode(z2))

    def test_identity_ae_round_trip(self, tmp_path):
        """An identity-mode checkpoint (no encoder, no arrays) is a format error."""
        p = tmp_path / "id.mdlc"
        desc = {"mode": "identity", "image_shape": [1, 16, 16], "latent_dim": 256, "enc_layers": None, "meta": {}}
        write_checkpoint(p, "autoencoder", desc, [])
        with pytest.raises(FormatError, match=re.escape("arrays of shapes [] are not layers chained from 256 inputs")):
            load_autoencoder(p)

    def test_wrong_kind_rejected(self, detector, codec, denoiser, tmp_path):
        """Each of the four readers rejects the other three kinds, naming the kind it found."""
        protos = [Prototype(class_id=0, latent=np.zeros(4, np.float32), cluster_size=1, cluster_index=0)]
        kinds = {
            "detector": (lambda p: save_detector(p, detector), load_detector),
            "autoencoder": (lambda p: save_autoencoder(p, codec), load_autoencoder),
            "denoiser-v1": (lambda p: save_denoiser(p, denoiser), load_denoiser),
            "prototypes": (lambda p: write_prototypes(p, protos), read_prototypes),
        }
        for written, (write, _) in kinds.items():
            p = tmp_path / f"{written}.mdlc"
            write(p)
            for wanted, (_, read) in kinds.items():
                if wanted == written:
                    read(p)
                    continue
                with pytest.raises(FormatError, match=re.escape(f"{p}: expected a {wanted} checkpoint, got '{written}'")):
                    read(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.mdlc"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_detector(p)

    def test_truncated_file_is_a_format_error(self, tmp_path):
        # every offset through the end of the header (magic, version,
        # descriptor, shape table) and a few inside the parameter blob
        det = Detector(mlp_init([6, 4, 3], SeededRng(1)), (1, 2, 3), meta={"note": "cut"})
        p = tmp_path / "det.mdlc"
        save_detector(p, det)
        raw = p.read_bytes()
        dlen = int.from_bytes(raw[6:10], "little")
        header_end = 10 + dlen + 4 + sum(4 + 4 * a.ndim for a in det.mlp.params())
        assert len(raw) - header_end == 4 * sum(a.size for a in det.mlp.params())
        cuts = [*range(header_end + 1), header_end + 1, header_end + 50, len(raw) - 1]
        cut_path = tmp_path / "cut.mdlc"
        for cut in cuts:
            cut_path.write_bytes(raw[:cut])
            # a cut at or after the shape table falls in the array blobs
            what = "parameter blob" if cut >= header_end else ""
            with pytest.raises(FormatError, match=f"truncated payload while reading {what}"):
                load_detector(cut_path)
        assert load_detector(p).num_classes == 3

    def test_write_makes_no_copy_of_the_parameters(self, tmp_path):
        """write_checkpoint streams each float32 array as it is: nothing near the
        size of the 1 MB payload is allocated, and the bytes read back exactly."""
        w = SeededRng(4).normal((512, 512))
        desc, p = {"note": "big"}, tmp_path / "big.mdlc"
        _, peak = peak_bytes(write_checkpoint, p, "detector", desc, [w])
        assert peak < w.nbytes // 2, peak
        _, [back] = read_checkpoint(p, "detector")
        assert back.tobytes() == w.tobytes()

    def test_non_finite_parameters_are_not_written(self, tmp_path):
        """write_checkpoint refuses a NaN or infinite parameter before it creates the file."""
        p = tmp_path / "det.mdlc"
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="detector array 1 contains non-finite values"):
                write_checkpoint(p, "detector", {}, [np.zeros(2, np.float32), np.array([0.0, bad], np.float32)])
            assert list(tmp_path.iterdir()) == []


class TestFloat64Storage:
    """No model stores float64 parameters: training and loading keep them float32."""

    def test_trained_and_loaded_models(self, detector, toy_train, denoiser, tmp_path):
        """Trained models hold float32 arrays, and checkpoints keep them byte for byte."""
        ae = train_autoencoder(toy_train, AutoencoderConfig(epochs=1, latent_dim=8), SeededRng(4))
        cases = [
            (save_detector, load_detector, detector, lambda m: m.mlp.params()),
            (save_autoencoder, load_autoencoder, ae, lambda m: m.enc.params() + m.dec.params()),
            (save_denoiser, load_denoiser, denoiser, lambda m: m.mlp.params() + [m.label_table]),
        ]
        for save, load, model, params in cases:
            save(tmp_path / "model.mdlc", model)
            back = load(tmp_path / "model.mdlc")
            assert all(p.dtype == np.float32 for p in params(model) + params(back))
            assert [p.tobytes() for p in params(model)] == [p.tobytes() for p in params(back)]


class TestFloat64Scoring:
    def test_confidences_are_a_float64_forward(self, detector, toy_test):
        """Scoring is a float64 pass over the float32 weights, not a float32 pass."""
        a = toy_test.images.reshape(len(toy_test), -1).astype(np.float64)
        weights, biases = detector.mlp.weights, detector.mlp.biases
        assert all(p.dtype == np.float32 for p in weights + biases)
        for i, (w, b) in enumerate(zip(weights, biases)):
            a = a @ w.astype(np.float64).T + b.astype(np.float64)
            if i < len(weights) - 1:
                a = np.tanh(a)
        p = np.exp(a - a.max(axis=1, keepdims=True))
        want = (p / p.sum(axis=1, keepdims=True)).max(axis=1)
        _, confs, _ = predict_batch(detector, toy_test.images)
        assert confs.dtype == np.float64
        assert np.allclose(confs, want, rtol=0, atol=1e-12)

from dataclasses import replace

import numpy as np
import pytest

from distillab import diffusion
from distillab.config import DenoiserConfig
from distillab.diffusion import (
    Denoiser,
    build_schedule,
    denoise_loss_and_grads,
    forward_noise,
    load_denoiser,
    sample_img2img_batch,
    save_denoiser,
    timestep_embedding,
    train_denoiser,
)
from distillab.data import FormatError
from distillab.models import Adam, Mlp, mlp_forward, mlp_init, predict_batch
from distillab.numerics import SeededRng

from conftest import as_float64, gradient_check


def _schedule(timesteps, beta_start, beta_end):
    return build_schedule(DenoiserConfig(timesteps=timesteps, beta_start=beta_start, beta_end=beta_end))


class TestSchedule:
    def test_single_step(self):
        sched = _schedule(1, 0.1, 0.1)
        assert sched.timesteps == 1 and sched.alpha_bars.tolist() == [1.0 - 0.1]
        assert sched.alpha_bars[0] == pytest.approx(0.9, abs=1e-15)

    def test_ddpm_1000_matches_high_precision_product(self):
        import mpmath

        sched = _schedule(1000, 1e-4, 0.02)
        mpmath.mp.dps = 50
        start, end = mpmath.mpf("1e-4"), mpmath.mpf("0.02")
        prod = mpmath.mpf(1)
        for i in range(1000):
            beta = start + (end - start) * i / 999
            prod *= 1 - beta
        expected = float(prod)
        assert expected == pytest.approx(4.04e-5, rel=5e-3)
        assert abs(sched.alpha_bars[-1] - expected) / expected < 1e-9

    def test_alpha_bar_strictly_decreasing(self):
        for t, b0, b1 in [(10, 1e-4, 0.3), (200, 1e-4, 0.03), (50, 0.5, 0.9)]:
            sched = _schedule(t, b0, b1)
            assert np.all(np.diff(sched.alpha_bars) < 0)
            # each step's factor 1 - beta_t = abar_t / abar_{t-1} lies in (0, 1) and never grows
            alphas = sched.alpha_bars / np.concatenate([[1.0], sched.alpha_bars[:-1]])
            assert np.all((alphas > 0) & (alphas < 1))
            assert np.all(np.diff(alphas) <= 0)

    def test_default_schedule_endpoints(self, frozen_schedule):
        assert frozen_schedule.alpha_bars[0] >= 0.99
        assert frozen_schedule.alpha_bars[-1] < 0.05

    @pytest.mark.parametrize(
        "timesteps, beta_start, beta_end", [(1, 0.1, 0.1), (10, 1e-3, 0.2), (200, 1e-4, 0.03), (1000, 1e-4, 0.02)]
    )
    def test_is_linspace_and_cumprod_of_the_config(self, timesteps, beta_start, beta_end):
        """The config's fields are the schedule's only source: bit for bit the cumprod of its linspace."""
        sched = _schedule(timesteps, beta_start, beta_end)
        betas = np.linspace(beta_start, beta_end, timesteps, dtype=np.float64)
        assert sched.timesteps == timesteps
        assert sched.alpha_bars.tobytes() == np.cumprod(1.0 - betas).tobytes()


class TestForwardNoise:
    def test_zero_noise(self):
        sched = _schedule(10, 0.01, 0.2)
        z0 = np.ones(4, dtype=np.float32)
        zt = forward_noise(z0, 3, np.zeros(4, dtype=np.float32), sched)
        assert np.allclose(zt, np.sqrt(sched.alpha_bars[2]), atol=1e-7)

    def test_near_identity_at_tiny_beta(self):
        sched = _schedule(5, 1e-6, 1e-6)
        z0 = SeededRng(1).normal(8)
        zt = forward_noise(z0, 1, SeededRng(2).normal(8), sched)
        assert np.allclose(zt, z0, atol=2e-3)

    def test_linearity(self):
        sched = _schedule(20, 1e-3, 0.1)
        rng = SeededRng(5)
        z0, eps = rng.normal(16), rng.normal(16)
        t = 7
        a, b = np.sqrt(sched.alpha_bars[t - 1]), np.sqrt(1 - sched.alpha_bars[t - 1])
        expected = a * z0.astype(np.float64) + b * eps.astype(np.float64)
        assert forward_noise(z0, t, eps, sched).dtype == np.float64
        assert np.array_equal(forward_noise(z0, t, eps, sched), expected)
        # scaling both inputs scales the output
        assert np.allclose(
            forward_noise(2 * z0, t, 2 * eps, sched), 2 * forward_noise(z0, t, eps, sched), atol=1e-6
        )

    def test_one_t_per_row(self):
        """Rows noised at their own timesteps equal one call per row."""
        sched = _schedule(20, 1e-3, 0.1)
        rng = SeededRng(6)
        z0, eps = rng.normal((3, 5)), rng.normal((3, 5))
        t = np.array([1, 7, 20])
        rows = np.stack([forward_noise(z0[i], t[i], eps[i], sched) for i in range(3)])
        assert np.array_equal(forward_noise(z0, t, eps, sched), rows)
        with pytest.raises(ValueError):
            forward_noise(z0, t[:2], eps, sched)
        with pytest.raises(ValueError):
            forward_noise(z0, np.array([1, 21, 3]), eps, sched)

    def test_t_out_of_range(self):
        sched = _schedule(10, 0.01, 0.1)
        z = np.zeros(3, dtype=np.float32)
        for t in (0, 11):
            with pytest.raises(ValueError):
                forward_noise(z, t, z, sched)

    def test_monte_carlo_variance(self):
        # element variance of z_t around sqrt(abar)*z0 must be 1 - abar
        sched = _schedule(100, 1e-4, 0.05)
        rng = SeededRng(33)
        z0 = np.zeros(16, dtype=np.float32)
        n = 10_000
        for t in (1, 25, 50, 75, 100):
            draws = np.stack(
                [forward_noise(z0, t, rng.normal(16), sched) for _ in range(n // 16)]
            )
            var = draws.astype(np.float64).var()
            expected = 1.0 - sched.alpha_bars[t - 1]
            # 3 sigma of a variance estimate over m samples: var * sqrt(2/m) * 3
            m = draws.size
            tol = 3.0 * expected * np.sqrt(2.0 / m)
            assert abs(var - expected) < tol


class TestTimestepEmbedding:
    def test_shape_and_range(self):
        emb = timestep_embedding(np.arange(1, 11), 16)
        assert emb.shape == (10, 16)
        assert np.all(np.abs(emb) <= 1.0)

    def test_distinct_timesteps(self):
        emb = timestep_embedding(np.array([1, 2]), 8)
        assert not np.allclose(emb[0], emb[1])

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            timestep_embedding(np.array([1]), 7)


def _tiny_denoiser(rng_seed=17, n=40, d=6, k=3, epochs=2):
    rng = SeededRng(rng_seed)
    latents = rng.normal((n, d))
    labels = rng.integers(k, n=n)
    cfg = DenoiserConfig(
        epochs=epochs, batch_size=8, hidden_sizes=[16, 16], time_embed_dim=4, label_embed_dim=4,
        timesteps=10, beta_start=1e-3, beta_end=0.2,
    )
    den = train_denoiser(latents, labels, cfg, SeededRng(rng_seed + 1))
    return den, build_schedule(cfg), latents, labels


def _per_batch_reference(latents, labels, sched, cfg, rng):
    """``train_denoiser`` as it drew and noised one minibatch at a time; (denoiser, loop stream)."""
    latents = np.asarray(latents, dtype=np.float32)
    k, d = int(labels.max()) + 1, latents.shape[1]
    mlp = mlp_init([d + cfg.time_embed_dim + cfg.label_embed_dim, *cfg.hidden_sizes, d], rng.spawn(0))
    table = np.zeros((k + 1, cfg.label_embed_dim), dtype=np.float32)
    table[k] = rng.spawn(1).normal(cfg.label_embed_dim) * 0.5
    den = Denoiser(mlp=mlp, label_table=table, num_classes=k, latent_dim=d, time_embed_dim=cfg.time_embed_dim)
    params = mlp.params() + [table]
    opt = Adam(params, cfg.learning_rate)
    loop = rng.spawn(2)
    losses = []
    for _ in range(cfg.epochs):
        order = loop.permutation(len(latents))
        epoch_losses = []
        for s in range(0, len(latents), cfg.batch_size):
            idx = order[s : s + cfg.batch_size]
            b = len(idx)
            t = loop.integers(sched.timesteps, n=b) + 1
            eps = loop.normal((b, d))
            zt = forward_noise(latents[idx], t, eps, sched)
            tokens = np.where(loop.uniform(b) < cfg.label_dropout, den.null_token, labels[idx])
            # the label embedding as base row plus class offset, added in place
            lemb = np.broadcast_to(table[k], (b, table.shape[1])).copy()
            lemb[tokens < k] += table[tokens[tokens < k]]
            assert den.label_vec(tokens).tobytes() == lemb.tobytes()
            loss, grads = denoise_loss_and_grads(den, zt, timestep_embedding(t, cfg.time_embed_dim), tokens, eps)
            opt.step(params, grads)
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    den.meta = {"loss_history": losses}
    return den, loop


class TestTrainDenoiser:
    def test_loss_halves_on_frozen_spec(self, denoiser):
        hist = denoiser.meta["loss_history"]
        assert hist[-1] <= 0.5 * hist[0]

    def test_deterministic(self):
        d1, _, _, _ = _tiny_denoiser()
        d2, _, _, _ = _tiny_denoiser()
        for a, b in zip(d1.mlp.params(), d2.mlp.params()):
            assert np.array_equal(a, b)
        assert np.array_equal(d1.label_table, d2.label_table)

    def test_full_dropout_is_unconditional(self):
        rng = SeededRng(3)
        latents = rng.normal((30, 5))
        labels = rng.integers(2, n=30)
        cfg = DenoiserConfig(
            epochs=3, batch_size=8, hidden_sizes=[12], time_embed_dim=4,
            label_embed_dim=4, label_dropout=1.0, timesteps=8, beta_start=1e-3, beta_end=0.2,
        )
        den = train_denoiser(latents, labels, cfg, SeededRng(4))
        z = SeededRng(5).normal((6, 5)).astype(np.float64)
        t = np.full(6, 4)
        null = den.predict_noise(z, t, np.full(6, den.null_token))
        # offsets never trained under full dropout, so every class token
        # embeds exactly as the null base vector
        for c in range(2):
            cond = den.predict_noise(z, t, np.full(6, c))
            assert np.array_equal(cond, null)

    def test_null_row_trained(self, denoiser):
        # dropout guarantees the null row moved away from its init scale
        assert denoiser.label_table.shape[0] == denoiser.num_classes + 1
        assert np.abs(denoiser.label_table[denoiser.null_token]).max() > 0

    def test_equals_per_batch_reference(self, rng_spy):
        """Epoch-at-a-time draws, noising and embedding equal per-batch ones bit for bit.

        29 rows in batches of 8 leave a last batch of 5; at d = 5 its
        ``normal`` takes a padding word.
        """
        rng = SeededRng(21)
        n, d, k = 29, 5, 3
        latents = rng.normal((n, d))
        labels = rng.integers(k, n=n)
        cfg = DenoiserConfig(
            epochs=3, batch_size=8, hidden_sizes=[16, 8], time_embed_dim=6, label_embed_dim=3, label_dropout=0.3,
            timesteps=12, beta_start=1e-3, beta_end=0.2,
        )
        den = train_denoiser(latents, labels, cfg, SeededRng(22))
        drawn = rng_spy.words[SeededRng(22).spawn(2).seed]  # by the training loop's stream

        ref, ref_loop = _per_batch_reference(latents, labels, build_schedule(cfg), cfg, SeededRng(22))
        for a, b in zip(den.mlp.params() + [den.label_table], ref.mlp.params() + [ref.label_table]):
            assert a.tobytes() == b.tobytes()
        assert den.meta["loss_history"] == ref.meta["loss_history"]
        assert drawn == ref_loop._counter

    def test_empty_latents_rejected(self):
        with pytest.raises(ValueError):
            train_denoiser(
                np.zeros((0, 4), dtype=np.float32),
                np.zeros(0, dtype=np.int64),
                DenoiserConfig(epochs=1),
                SeededRng(1),
            )

    def test_gradcheck(self):
        den, sched, latents, labels = _tiny_denoiser(epochs=1)
        as_float64(den)
        rng = SeededRng(8)
        b = 10
        zt = rng.normal((b, den.latent_dim)).astype(np.float64)
        t = rng.integers(sched.timesteps, n=b) + 1
        tokens = rng.integers(den.num_classes + 1, n=b)
        eps = rng.normal((b, den.latent_dim)).astype(np.float64)

        temb = timestep_embedding(t, den.time_embed_dim)

        def loss_fn():
            return denoise_loss_and_grads(den, zt, temb, tokens, eps)

        params = den.mlp.params() + [den.label_table]
        checked, _ = gradient_check(loss_fn, params, SeededRng(12), probes=60)
        assert checked >= 50


class TestSampling:
    def test_strength_zero_returns_prototype(self):
        den, sched, latents, _ = _tiny_denoiser()
        proto = latents[0]
        out = sample_img2img_batch(den, sched, proto[None, None], (0,), 0.0, 10.0, [SeededRng(1)])[0, 0]
        assert np.array_equal(out, proto.astype(np.float32))

    def test_determinism(self):
        den, sched, latents, _ = _tiny_denoiser()
        a = sample_img2img_batch(den, sched, latents[None, :1], (1,), 0.7, 5.0, [SeededRng(42)])
        b = sample_img2img_batch(den, sched, latents[None, :1], (1,), 0.7, 5.0, [SeededRng(42)])
        assert np.array_equal(a, b)

    def test_guidance_one_equals_pure_conditional(self):
        # w=1: eps_hat = eps_null + (eps_c - eps_null) = eps_c
        den, sched, latents, _ = _tiny_denoiser()
        z = latents[:4].astype(np.float64)
        t = np.full(4, 5)
        from distillab.diffusion import _guided_noise

        guided = _guided_noise(den, z, t, den.label_vec([1] * 4 + [den.null_token] * 4), 1.0)
        cond = den.predict_noise(z, t, np.full(4, 1))
        assert np.allclose(guided, cond, atol=1e-12)

    def test_guidance_zero_equals_null(self):
        den, sched, latents, _ = _tiny_denoiser()
        z = latents[:4].astype(np.float64)
        t = np.full(4, 5)
        from distillab.diffusion import _guided_noise

        guided = _guided_noise(den, z, t, den.label_vec([2] * 4 + [den.null_token] * 4), 0.0)
        null = den.predict_noise(z, t, np.full(4, den.null_token))
        assert np.array_equal(guided, null)

    def test_only_target_and_null_rows_read(self, monkeypatch):
        den, sched, latents, _ = _tiny_denoiser()
        seen = []
        original = den.label_vec

        def recording(tokens):
            seen.extend(np.asarray(tokens).ravel().tolist())
            return original(tokens)

        monkeypatch.setattr(den, "label_vec", recording)
        sample_img2img_batch(den, sched, latents[None, :1], (2,), 0.8, 3.0, [SeededRng(6)])
        assert set(seen) == {2, den.null_token}

    def test_strength_bounds_and_unknown_label(self):
        den, sched, latents, _ = _tiny_denoiser()
        with pytest.raises(ValueError):
            sample_img2img_batch(den, sched, latents[None, :1], (0,), 1.5, 1.0, [SeededRng(1)])
        with pytest.raises(ValueError):
            sample_img2img_batch(den, sched, latents[None, :1], (0,), -0.1, 1.0, [SeededRng(1)])
        with pytest.raises(ValueError):
            sample_img2img_batch(den, sched, latents[None, :1], (den.num_classes,), 0.5, 1.0, [SeededRng(1)])
        with pytest.raises(ValueError):
            sample_img2img_batch(den, sched, latents[None, :1], (0,), 0.5, -1.0, [SeededRng(1)])

    def test_one_block_draw_per_stream(self, rng_spy):
        den, sched, latents, _ = _tiny_denoiser()
        rngs = [SeededRng(3).spawn(9, i) for i in range(4)]
        rng_spy.calls.clear()
        sample_img2img_batch(den, sched, latents[None, :4], (1,), 0.7, 2.0, rngs)
        # the initial noise is a stream's one draw: a DDIM (eta = 0) step draws no noise
        assert dict(rng_spy.calls) == {(r.seed, "normal"): 1 for r in rngs}
        for r in rngs:
            assert rng_spy.words[r.seed] == 2 * ((den.latent_dim + 1) // 2)

    @pytest.mark.parametrize("strength, passes", [(0.7, 20), (0.1, 20), (0.095, 19), (0.05, 10), (0.005, 1)])
    def test_guided_passes_per_call(self, denoiser, frozen_schedule, monkeypatch, strength, passes):
        """One guided pass per visited timestep: min(20, t_start) of them, evenly
        spaced from t_start = floor(strength * T) down to 1, so 20 passes at
        strength 0.7 and T=200 (t_start 140)."""
        visited = []
        guided = diffusion._guided_noise

        def counting(den, z, t, lemb, w):
            visited.append(int(t[0]))
            return guided(den, z, t, lemb, w)

        monkeypatch.setattr(diffusion, "_guided_noise", counting)
        protos = SeededRng(51).normal((1, 3, denoiser.latent_dim))
        sample_img2img_batch(denoiser, frozen_schedule, protos, (0,), strength, 5.0, [SeededRng(52).spawn(i) for i in range(3)])
        t_start = int(np.floor(strength * frozen_schedule.timesteps))
        assert len(visited) == passes
        assert visited[0] == t_start and visited[-1] == 1
        gaps = [a - b for a, b in zip(visited, visited[1:])]
        assert all(g >= 1 and g - min(gaps) <= 1 for g in gaps)

    def test_one_step_returns_x0_unclipped(self, monkeypatch):
        """At t_start = 1 the one step returns x0 = (z - sqrt(1 - abar_1) eps) / sqrt(abar_1), unclipped."""
        den, sched, latents, _ = _tiny_denoiser()
        seen = []
        guided = diffusion._guided_noise

        def recording(*args):
            seen.append(guided(*args))
            return seen[-1]

        monkeypatch.setattr(diffusion, "_guided_noise", recording)
        protos = 40.0 * latents[None, :2]  # far outside any clipping range
        rngs = [SeededRng(7).spawn(i) for i in range(2)]
        out = sample_img2img_batch(den, sched, protos, (1,), 0.1, 3.0, rngs)
        noise = np.stack([SeededRng(7).spawn(i).normal(den.latent_dim) for i in range(2)])
        z = forward_noise(protos.astype(np.float64), 1, noise[None], sched)
        ab = sched.alpha_bars[0]
        assert len(seen) == 1
        want = ((z - np.sqrt(1.0 - ab) * seen[0]) / np.sqrt(ab)).astype(np.float32)
        assert out.tobytes() == want.tobytes()
        assert np.abs(out).max() > 10.0

    @pytest.mark.parametrize("labels", [(2,), (0, 2, 1)])
    def test_stack_equals_per_slot_calls(self, denoiser, frozen_schedule, labels):
        """A (slots, rows, d) stack gives each slot the bits of its own call."""
        rows, d = 6, denoiser.latent_dim
        protos = SeededRng(31).normal((len(labels), rows, d)) * 0.5

        def streams(s):  # fresh streams of slot s: sampling advances them
            return [SeededRng(32).spawn(s, i) for i in range(rows)]

        stacked = sample_img2img_batch(
            denoiser, frozen_schedule, protos, labels, 0.7, 5.0, [r for s in range(len(labels)) for r in streams(s)]
        )
        assert stacked.shape == (len(labels), rows, d) and stacked.dtype == np.float32
        for s, label in enumerate(labels):
            alone = sample_img2img_batch(denoiser, frozen_schedule, protos[s : s + 1], (label,), 0.7, 5.0, streams(s))
            assert stacked[s].tobytes() == alone.tobytes()

    def test_same_bytes_for_every_weight_layout(self, denoiser, frozen_schedule):
        """The sampler fixes the layout BLAS sees: C-ordered, Fortran-ordered
        and strided weights give the same bytes, though one pass over the
        C- and Fortran-ordered weights rounds differently."""

        def strided(w):
            wide = np.zeros((w.shape[0], 2 * w.shape[1]), dtype=w.dtype)
            wide[:, ::2] = w
            return wide[:, ::2]

        layouts = {
            name: replace(denoiser, mlp=Mlp([order(w) for w in denoiser.mlp.weights], denoiser.mlp.biases))
            for name, order in [("C", np.ascontiguousarray), ("F", np.asfortranarray), ("strided", strided)]
        }
        protos = SeededRng(41).normal((2, 10, denoiser.latent_dim)) * 0.5
        x = SeededRng(42).normal((2, 10, denoiser.mlp.layer_sizes[0])).astype(np.float32)
        assert mlp_forward(layouts["C"].mlp, x)[-1].tobytes() != mlp_forward(layouts["F"].mlp, x)[-1].tobytes()
        out = {
            name: sample_img2img_batch(den, frozen_schedule, protos, (0, 1), 0.7, 5.0, [SeededRng(43).spawn(i) for i in range(20)])
            for name, den in layouts.items()
        }
        assert out["C"].tobytes() == out["F"].tobytes() == out["strided"].tobytes()

    def test_stack_validation(self):
        den, sched, latents, _ = _tiny_denoiser()
        stack = np.stack([latents[:2], latents[2:4]])
        rngs = [SeededRng(1).spawn(i) for i in range(4)]
        with pytest.raises(ValueError, match=r"not a \(slots, rows, \d+\) stack"):
            sample_img2img_batch(den, sched, latents[:2], (0,), 0.5, 1.0, rngs[:2])
        with pytest.raises(ValueError, match="one label per slot"):
            sample_img2img_batch(den, sched, stack, (0,), 0.5, 1.0, rngs)
        with pytest.raises(ValueError, match="unknown label"):
            sample_img2img_batch(den, sched, stack, (0, den.num_classes), 0.5, 1.0, rngs)
        with pytest.raises(ValueError, match="one rng stream per prototype"):
            sample_img2img_batch(den, sched, stack, (0, 1), 0.5, 1.0, rngs[:2])
        out = sample_img2img_batch(den, sched, stack, (0, 1), 0.0, 1.0, rngs)
        assert out.shape == stack.shape and np.array_equal(out, stack.astype(np.float32))

    def test_batch_shape(self):
        den, sched, latents, _ = _tiny_denoiser()
        rngs = [SeededRng(0).spawn(9, i) for i in range(5)]
        out = sample_img2img_batch(den, sched, latents[None, :5], (1,), 0.6, 2.0, rngs)
        assert out.shape == (1, 5, den.latent_dim)
        assert out.dtype == np.float32

    def test_class_fidelity_frozen_pipeline(
        self, denoiser, frozen_schedule, codec, detector, toy_train, train_latents
    ):
        # strength 0.7, guidance 10: samples land in the conditioning class
        from distillab.prototypes import extract_prototypes

        protos = extract_prototypes(
            codec.encode, toy_train, 10, SeededRng(77), restarts=3
        )
        per_class_ok = {c: [] for c in range(toy_train.num_classes)}
        for c in range(toy_train.num_classes):
            latvecs = np.stack([p.latent for p in protos if p.class_id == c])
            reps = np.tile(latvecs, (10, 1))[:100]
            rngs = [SeededRng(0).spawn(55, c, i) for i in range(100)]
            [out] = sample_img2img_batch(denoiser, frozen_schedule, reps[None], (c,), 0.7, 10.0, rngs)
            labels, _, _ = predict_batch(detector, codec.decode(out))
            per_class_ok[c] = (labels == c).mean()
        assert all(v >= 0.8 for v in per_class_ok.values()), per_class_ok


class TestDenoiserCheckpoint:
    def test_round_trip(self, tmp_path):
        den, sched, latents, _ = _tiny_denoiser()
        p = tmp_path / "den.mdlc"
        save_denoiser(p, den)
        back = load_denoiser(p)
        for a, b in zip(den.mlp.params(), back.mlp.params()):
            assert np.array_equal(a, b)
        assert np.array_equal(den.label_table, back.label_table)
        out1 = sample_img2img_batch(den, sched, latents[None, :1], (1,), 0.5, 2.0, [SeededRng(3)])
        out2 = sample_img2img_batch(back, sched, latents[None, :1], (1,), 0.5, 2.0, [SeededRng(3)])
        assert np.array_equal(out1, out2)

    def test_float32_values_in_float64(self, denoiser, tmp_path):
        """The sampler's float64 latents enter the float32 network as float32 values."""
        save_denoiser(tmp_path / "den.mdlc", denoiser)
        back = load_denoiser(tmp_path / "den.mdlc")
        rng = SeededRng(5)
        z = rng.normal((4, denoiser.latent_dim)).astype(np.float64)
        t = np.array([1, 10, 50, 100], dtype=np.int64)
        tokens = np.array([0, 1, 2, denoiser.null_token], dtype=np.int64)
        want = denoiser.predict_noise(z.astype(np.float32), t, tokens)
        assert want.dtype == np.float32
        for den in (denoiser, back):
            assert all(p.dtype == np.float32 for p in den.mlp.params() + [den.label_table])
            assert den.predict_noise(z, t, tokens).tobytes() == want.tobytes()

    def test_kind_checked(self, tmp_path, detector):
        from distillab.models import save_detector

        p = tmp_path / "det.mdlc"
        save_detector(p, detector)
        with pytest.raises(FormatError):
            load_denoiser(p)

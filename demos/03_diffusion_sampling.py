"""Latent diffusion on the toy task: schedule, noising, guided sampling.

The denoiser lives in the autoencoder's 32-dim latent space. Sampling is
image-to-image: partially noise a prototype to t_start = floor(strength * T)
(SDEdit), then denoise it with deterministic DDIM (eta = 0) over at most 20
timesteps from t_start down to 1, each step one pass with classifier-free
guidance eps_hat = eps_null + w * (eps_label - eps_null). A sample's only
randomness is its initial noise.
"""

import distillab  # noqa: F401  # before numpy: BLAS then runs one thread per process

import numpy as np

from distillab import (
    RunConfig,
    build_schedule,
    forward_noise,
    predict_batch,
    sample_img2img_batch,
    synthesize_toy_dataset,
    train_autoencoder,
    train_denoiser,
    train_detector,
)
from distillab.numerics import SeededRng

defaults = RunConfig()

# %% the variance schedule (200 steps, betas 1e-4 .. 0.03)
sched = build_schedule(defaults.denoiser)
print("alpha_bar at t=1, T/2, T:", sched.alpha_bars[0], sched.alpha_bars[99], sched.alpha_bars[-1])

# %% forward noising drains the signal
train, test = synthesize_toy_dataset(defaults.data, SeededRng(0))
codec = train_autoencoder(train, defaults.autoencoder, SeededRng(2025))
latents = codec.encode(train.images)
z0 = latents[0]
rng = SeededRng(5)
for t in (1, 50, 140, 200):
    zt = forward_noise(z0, t, rng.normal(z0.shape), sched)
    corr = np.corrcoef(z0, zt)[0, 1]
    print(f"t={t:3d}: correlation with clean latent {corr:+.3f}")

# %% train the conditional denoiser (the default, strong config)
# it trains, and is sampled below, on the schedule of its config
den = train_denoiser(latents, train.labels, defaults.denoiser, SeededRng(2026))
print(f"\ndenoiser loss: {den.meta['loss_history'][0]:.3f} -> {den.meta['loss_history'][-1]:.3f}")

# %% guided vs unguided generation, judged by a detector
[det] = train_detector([train], defaults.detector, [SeededRng(2024)], use_cutmix=True)
proto = latents[train.labels == 2][:20].mean(axis=0)
for w in (0.0, 1.0, 10.0):
    reps = np.tile(proto, (50, 1))
    rngs = [SeededRng(1).spawn(int(w * 10), i) for i in range(50)]
    [out] = sample_img2img_batch(den, sched, reps[None], (2,), 0.7, w, rngs)
    labels, confs, _ = predict_batch(det, codec.decode(out))
    print(
        f"guidance w={w:4.1f}: {np.mean(labels == 2):.2f} land in class 2, "
        f"mean confidence {confs.mean():.3f}"
    )
print("\nstrength 0.0 returns the prototype unchanged:")
out = sample_img2img_batch(den, sched, proto[None, None], (2,), 0.0, 10.0, [SeededRng(9)])
print("max |out - proto| =", np.abs(out[0, 0] - proto).max())

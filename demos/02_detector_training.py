"""Training the anomaly detector with CutMix soft labels.

The detector later judges synthetic samples, so it is trained with CutMix:
each training image gets a random box pasted in from a partner image and a
soft label weighted by the exact surviving pixel fraction. That keeps its
confidence calibrated instead of saturating at 1.0.
"""

import distillab  # noqa: F401  # before numpy: BLAS then runs one thread per process

import numpy as np

from distillab import (
    RunConfig,
    cutmix,
    predict_batch,
    synthesize_toy_dataset,
    train_detector,
)
from distillab.numerics import SeededRng, uniform_from_words

defaults = RunConfig()
train, test = synthesize_toy_dataset(defaults.data, SeededRng(0))

# %% one CutMix batch, by hand: each row pastes a box from its partner
# (CutMix takes (B, C, H, W) batches; here rows 0 and 1 take rows 600 and 1200)
rng = SeededRng(7)
_, h, w = train.image_shape
base, partner = np.array([0, 1]), np.array([600, 1200])
lam = uniform_from_words(rng.raw_u64(2))  # uniform (Beta(1, 1)) ratios, one word each
mixed = cutmix(
    train.images[base], train.labels[base],
    train.images[partner], train.labels[partner],
    lam, train.num_classes, center=(rng.integers(h, n=2), rng.integers(w, n=2)),
)
print(f"lambda drawn:      {np.round(lam, 4)}")
print(f"retained fraction: {np.round(mixed.mix_ratio, 4)} (recomputed from the clipped boxes)")
print(f"soft labels:\n{np.round(mixed.soft_label, 4)}")

# %% train and evaluate (the default detector section: 20 epochs)
[det] = train_detector([train], defaults.detector, [SeededRng(2024)], use_cutmix=True)
print(f"\nloss: {det.meta['loss_history'][0]:.3f} -> {det.meta['loss_history'][-1]:.3f}")

labels, confs, _ = predict_batch(det, test.images)
acc = (labels == test.labels).mean()
print(f"test accuracy: {acc:.4f}")
print(f"confidence on real test images: mean {confs.mean():.3f}, min {confs.min():.3f}")

# %% one image is a batch of one; argmax ties break to the lowest index
labels, confs, _ = predict_batch(det, test.images[:1])
print(f"\nsample 0: predicted {labels[0]} (true {test.labels[0]}), confidence {confs[0]:.4f}")

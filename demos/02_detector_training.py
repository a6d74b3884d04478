"""Training the anomaly detector with CutMix soft labels.

The detector later judges synthetic samples, so it is trained with CutMix:
each training image gets a random box pasted in from a partner image and a
soft label weighted by the exact surviving pixel fraction. That keeps its
confidence calibrated instead of saturating at 1.0.
"""

import numpy as np

from distillab import (
    cutmix,
    default_config,
    predict_batch,
    sample_mix_ratio,
    synthesize_toy_dataset,
    train_detector,
)
from distillab.numerics import SeededRng

defaults = default_config()
train, test = synthesize_toy_dataset(defaults.data, SeededRng(0))

# %% one CutMix sample, by hand
rng = SeededRng(7)
lam = sample_mix_ratio(1.0, rng)
mixed = cutmix(
    train.images[0], int(train.labels[0]),
    train.images[600], int(train.labels[600]),
    lam, train.num_classes, rng=rng,
)
print(f"lambda drawn:      {lam:.4f}")
print(f"retained fraction: {mixed.mix_ratio:.4f} (recomputed from the clipped box)")
print(f"soft label:        {np.round(mixed.soft_label, 4)}")

# %% train and evaluate (the default detector section: 20 epochs, alpha 1.0)
det = train_detector(train, defaults.detector, SeededRng(2024), use_cutmix=True)
print(f"\nloss: {det.meta['loss_history'][0]:.3f} -> {det.meta['final_loss']:.3f}")

labels, confs, _ = predict_batch(det, test.images)
acc = (labels == test.labels).mean()
print(f"test accuracy: {acc:.4f}")
print(f"confidence on real test images: mean {confs.mean():.3f}, min {confs.min():.3f}")

# %% one image is a batch of one; argmax ties break to the lowest index
labels, confs, _ = predict_batch(det, test.images[:1])
print(f"\nsample 0: predicted {labels[0]} (true {test.labels[0]}), confidence {confs[0]:.4f}")

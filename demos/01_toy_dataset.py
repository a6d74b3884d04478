"""The procedural toy dataset: class-coded sinusoidal gratings.

Each class is a grating with its own orientation and spatial frequency;
phase and amplitude are randomized per image and Gaussian pixel noise is
added, so a classifier has to learn the pattern, not memorize pixels.
"""

import tempfile
from pathlib import Path

import distillab  # noqa: F401  # before numpy: BLAS then runs one thread per process

import numpy as np

from distillab import ToyDataSpec, synthesize_toy_dataset, write_dataset, read_dataset
from distillab.numerics import SeededRng

# %% synthesize the frozen desk-scale dataset
spec = ToyDataSpec(num_classes=5, train_per_class=500, test_per_class=100)
train, test = synthesize_toy_dataset(spec, SeededRng(0))
print(f"train: {len(train)} images of shape {train.image_shape}")
print(f"test:  {len(test)} images")
print(f"classes: {train.class_names}")
print(f"pixel range: [{train.images.min():.3f}, {train.images.max():.3f}]")

# %% a crude ASCII look at one image per class
for c in range(train.num_classes):
    img = train.images[train.class_indices(c)[0], 0]
    rows = []
    for r in range(0, 16, 2):
        rows.append("".join(" .:-=+*#@"[int(v * 8.999)] for v in img[r, ::2]))
    print(f"\nclass {c} ({train.class_names[c]}):")
    print("\n".join(rows))

# %% the container format round-trips bit-exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "toy_train.dstl"
    digest = write_dataset(path, train)
    back = read_dataset(path)
assert back.images.tobytes() == train.images.tobytes()
assert np.array_equal(back.labels, train.labels)
print("\ncontainer round-trip: bit-identical, file sha256:", digest[:16])

"""Toy dataset synthesis, CutMix augmentation, and dataset persistence.

The procedural dataset is a stand-in for natural-image benchmarks: each
class is a sinusoidal grating with a class-specific orientation and
spatial frequency, randomized in phase and amplitude and corrupted with
Gaussian pixel noise. It is fully procedural (no downloads), learnable by
tiny MLPs, and cheap enough for end-to-end pipeline tests.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ToyDataSpec
from .numerics import SeededRng, normal_from_words, require_finite, uniform_from_words

__all__ = [
    "FormatError",
    "LabeledDataset",
    "MixedSample",
    "cutmix",
    "cutmix_box",
    "grating_image",
    "read_dataset",
    "read_report",
    "synthesize_toy_dataset",
    "write_atomic",
    "write_dataset",
]

# spawn() key domains for the toy generator
_KEY_TRAIN = 0
_KEY_TEST = 1


class FormatError(ValueError):
    """An artifact file (dataset, checkpoint, prototypes, report) failed validation.

    The message names the file, then the field.
    """


def names_path(read):
    """Decorate a reader ``read(path, ...)``: a format error it raises starts with ``path``.

    A reader that calls another decorated reader on the same path prefixes
    the message once.
    """

    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except FormatError as e:
            prefix = f"{path}: "
            if str(e).startswith(prefix):
                raise
            raise FormatError(prefix + str(e)) from None

    return reader


@dataclass
class LabeledDataset:
    """Images plus integer class labels.

    images: (N, C, H, W) float32 in [0, 1]; labels: (N,) integers in
    [0, num_classes). ``provenance`` is free-form metadata that rides along
    in the container file (generator spec hash, seed, ...).
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_names: tuple[str, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError("images must have shape (N, C, H, W)")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"images/labels length mismatch: {len(self.images)} vs {len(self.labels)}"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if len(self.class_names) != self.num_classes:
            raise ValueError("class_names length must equal num_classes")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels out of range [0, num_classes)")
        require_finite("images", self.images)
        self.class_names = tuple(self.class_names)

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def class_indices(self, class_id: int) -> np.ndarray:
        return np.nonzero(self.labels == class_id)[0]


@dataclass(frozen=True)
class MixedSample:
    """CutMix output for a batch of B images.

    Mixed images (B, C, H, W), two-hot soft labels (B, K) and
    retained-pixel ratios (B,).
    """

    image: np.ndarray
    soft_label: np.ndarray
    mix_ratio: np.ndarray


def grating_image(
    image_shape: tuple[int, int, int],
    theta_deg: float,
    frequency: float,
    phase: float | np.ndarray,
    amplitude: float | np.ndarray,
) -> np.ndarray:
    """Sinusoidal grating on [0,1] coordinates, mid-gray baseline, clipped to [0,1].

    Scalar ``phase`` and ``amplitude`` give one (C, H, W) image; 1-D arrays
    of equal length N give an (N, C, H, W) stack, one image per entry.
    """
    c, h, w = image_shape
    ys = (np.arange(h, dtype=np.float64) + 0.5) / h
    xs = (np.arange(w, dtype=np.float64) + 0.5) / w
    theta = np.deg2rad(theta_deg)
    proj = xs[None, :] * np.cos(theta) + ys[:, None] * np.sin(theta)
    phase = np.asarray(phase, dtype=np.float64)[..., None, None]
    amplitude = np.asarray(amplitude, dtype=np.float64)[..., None, None]
    img = 0.5 + 0.5 * amplitude * np.sin(2.0 * np.pi * frequency * proj + phase)
    img = np.broadcast_to(img[..., None, :, :], img.shape[:-2] + (c, h, w))
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _synthesize_split(
    spec: ToyDataSpec, per_class: int, rng: SeededRng, split_key: int
) -> tuple[np.ndarray, np.ndarray]:
    """Images of one split, class by class.

    Each image takes the next words of its class stream, in order: a phase
    uniform, an amplitude uniform, then (with noise on) the 2 * ceil(CHW/2)
    words of ``normal((C, H, W))``. A class draws the words of all its
    images as one block and renders its gratings at once.
    """
    thetas, freqs = spec.resolved_patterns()
    c, h, w = spec.image_shape
    size = c * h * w
    noise_words = 2 * ((size + 1) // 2) if spec.noise_std > 0 else 0
    images = np.empty((spec.num_classes, per_class, c, h, w), dtype=np.float32)
    for cls in range(spec.num_classes):
        words = rng.spawn(split_key, cls).raw_u64(per_class * (2 + noise_words))
        words = words.reshape(per_class, 2 + noise_words)
        phase = 2.0 * np.pi * uniform_from_words(words[:, 0])
        amp = spec.amplitude * (
            1.0 + spec.amplitude_jitter * (2.0 * uniform_from_words(words[:, 1]) - 1.0)
        )
        img = grating_image(spec.image_shape, thetas[cls], freqs[cls], phase, amp)
        if noise_words:
            noise = normal_from_words(words[:, 2:])[:, :size].reshape(per_class, c, h, w)
            img = img + spec.noise_std * noise
        images[cls] = np.clip(img, 0.0, 1.0)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)
    return images.reshape(-1, c, h, w), labels


def synthesize_toy_dataset(spec: ToyDataSpec, rng: SeededRng) -> tuple[LabeledDataset, LabeledDataset]:
    """Generate disjoint train/test splits of the procedural grating dataset.

    The train and test splits use separate child RNG streams, so they are
    statistically disjoint draws of phase, amplitude jitter, and noise.
    The provenance records ``rng.seed`` as the seed.
    """
    thetas, freqs = spec.resolved_patterns()
    names = tuple(
        f"grating_t{int(round(th))}_f{fq:g}" for th, fq in zip(thetas, freqs)
    )
    spec_sha = hashlib.sha256(
        json.dumps(
            {
                "num_classes": spec.num_classes,
                "train_per_class": spec.train_per_class,
                "test_per_class": spec.test_per_class,
                "image_shape": list(spec.image_shape),
                "orientations_deg": list(thetas),
                "frequencies": list(freqs),
                "amplitude": spec.amplitude,
                "amplitude_jitter": spec.amplitude_jitter,
                "noise_std": spec.noise_std,
                "seed": rng.seed,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    prov = {
        "generator": "toy-gratings-v1",
        "spec_sha": spec_sha,
        "seed": rng.seed,
        "noise_std": spec.noise_std,
        "orientations_deg": list(thetas),
        "frequencies": list(freqs),
    }
    train_imgs, train_labels = _synthesize_split(spec, spec.train_per_class, rng, _KEY_TRAIN)
    test_imgs, test_labels = _synthesize_split(spec, spec.test_per_class, rng, _KEY_TEST)
    train = LabeledDataset(train_imgs, train_labels, spec.num_classes, names, dict(prov, split="train"))
    test = LabeledDataset(test_imgs, test_labels, spec.num_classes, names, dict(prov, split="test"))
    return train, test


def cutmix_box(height: int, width: int, lam, cy, cx):
    """Cut rectangles (y1, y2, x1, x2) for mixing ratios ``lam`` and centres (cy, cx).

    Side lengths are H*sqrt(1-lam) and W*sqrt(1-lam) (truncated to ints), and
    each box is clipped to the image bounds. All arguments after the image
    size are int/float scalars or equal-length arrays.
    """
    cut = np.sqrt(np.maximum(0.0, 1.0 - np.asarray(lam, dtype=np.float64)))
    cut_h = (height * cut).astype(np.int64)
    cut_w = (width * cut).astype(np.int64)
    y1 = np.maximum(cy - cut_h // 2, 0)
    y2 = np.minimum(cy + cut_h // 2, height)
    x1 = np.maximum(cx - cut_w // 2, 0)
    x2 = np.minimum(cx + cut_w // 2, width)
    return y1, y2, x1, x2


def cutmix(base, base_label, patch, patch_label, lam, num_classes: int, center) -> MixedSample:
    """Paste a box from each patch image into its base image (CutMix).

    Images are (B, C, H, W); labels, ``lam`` and the two arrays of
    ``center`` = (cy, cx) have length B. Row r's box is the ``cutmix_box``
    of ``lam[r]`` around (cy[r], cx[r]).

    The soft label weights the base class by the exact retained-pixel
    fraction (recomputed from the clipped box as an integer pixel count, so
    label weight and pixel count agree bit-exactly).
    """
    base = np.asarray(base, dtype=np.float32)
    patch = np.asarray(patch, dtype=np.float32)
    if base.shape != patch.shape or base.ndim != 4:
        raise ValueError(f"images must be two (B, C, H, W) batches of one shape: {base.shape} vs {patch.shape}")
    b, _, h, w = base.shape
    lam = np.asarray(lam, dtype=np.float64)
    base_label = np.asarray(base_label, dtype=np.int64)
    patch_label = np.asarray(patch_label, dtype=np.int64)
    if not lam.shape == base_label.shape == patch_label.shape == (b,):
        raise ValueError("need one label pair and one lambda per image")
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError("lambda must lie in [0, 1]")
    y1, y2, x1, x2 = (np.asarray(v, dtype=np.int64).reshape(-1, 1) for v in cutmix_box(h, w, lam, *center))
    rows = (np.arange(h) >= y1) & (np.arange(h) < y2)
    cols = (np.arange(w) >= x1) & (np.arange(w) < x2)
    mixed = np.where(rows[:, None, :, None] & cols[:, None, None, :], patch, base)
    area = ((y2 - y1) * (x2 - x1))[:, 0]
    mix_ratio = (h * w - area) / (h * w)
    soft = np.zeros((b, num_classes), dtype=np.float64)
    soft[np.arange(b), base_label] += mix_ratio
    soft[np.arange(b), patch_label] += 1.0 - mix_ratio
    return MixedSample(image=mixed, soft_label=soft, mix_ratio=mix_ratio)


# --- dataset container -------------------------------------------------------
#
# Bit-exact layout, little-endian throughout:
#   magic "DSTL" | u16 version | u32 num_images, num_classes, C, H, W
#   | labels as num_images x u16 | images as num_images*C*H*W float32
#   | u32 trailer_len | UTF-8 JSON trailer {class_names, provenance}

_DATASET_MAGIC = b"DSTL"
_DATASET_VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_atomic(path, chunks) -> str:
    """Write the byte chunks to ``path`` atomically and return their sha256.

    The chunks stream to a temp file in the target's directory, hashed as
    they are written; the file is fsynced, then renamed over ``path``. On
    any exception the temp file is removed and the exception re-raised, so
    ``path`` keeps its old bytes or stays absent. Every artifact the package
    writes goes through this function.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                digest.update(chunk)
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def write_dataset(path, ds: LabeledDataset) -> str:
    """Serialize a dataset atomically and return the file's sha256.

    ``read_dataset`` of the file is bit-identical to ``ds``.
    """
    n = len(ds)
    c, h, w = ds.image_shape
    if ds.labels.size and ds.labels.max() >= 2**16:
        raise FormatError("labels must fit in u16")
    trailer = _canonical_json(
        {"class_names": list(ds.class_names), "provenance": ds.provenance}
    )
    header = _DATASET_MAGIC + struct.pack("<H5I", _DATASET_VERSION, n, ds.num_classes, c, h, w)
    arrays = (a.astype(dtype).tobytes() for a, dtype in ((ds.labels, "<u2"), (ds.images, "<f4")))
    return write_atomic(path, itertools.chain([header], arrays, [struct.pack("<I", len(trailer)), trailer]))


def _read_exact(f, count: int, what: str) -> bytes:
    """Exactly ``count`` bytes of ``f``; a short file raises FormatError.

    ``count`` is checked against the bytes left in the file before the
    read, so a size forged in a header fails without a huge allocation.
    The container readers (datasets, prototypes, checkpoints, reports) read
    every field through this function and the three below.
    """
    if count > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"truncated payload while reading {what}")
    return f.read(count)


def _read_struct(f, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what))


def _read_json(f, count: int, what: str) -> dict:
    raw = _read_exact(f, count, what)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise FormatError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} is not a JSON object")
    return obj


def _read_end(f, what: str) -> None:
    """A container ends with its last field ``what``; more bytes raise FormatError."""
    if f.read(1):
        raise FormatError(f"trailing bytes after the {what}")


@names_path
def read_report(path, schema: dict) -> dict:
    """Load a JSON report and check it against ``schema``.

    A schema maps each required key to the types its value may have or to
    the schema of a nested object; the key ``"*"`` gives the schema of every
    key of its object. Bad JSON, a missing key or a value of another type
    (a JSON boolean is never a number) raises FormatError.
    """
    with open(path, "rb") as f:
        report = _read_json(f, os.fstat(f.fileno()).st_size, "report")
    _check_keys(report, schema, "")
    return report


def _check_keys(obj: dict, schema: dict, where: str) -> None:
    for key in obj if "*" in schema else schema:
        name, kind = where + key, schema.get(key, schema.get("*"))
        if key not in obj:
            raise FormatError(f"key {name} is missing")
        value = obj[key]
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise FormatError(f"key {name} is not a JSON object")
            _check_keys(value, kind, name + ".")
        elif isinstance(value, bool) or not isinstance(value, kind):
            raise FormatError(f"key {name} has a value of type {type(value).__name__}")


@names_path
def read_dataset(path) -> LabeledDataset:
    """Load a dataset container, validating magic, sizes, finite pixels and label range."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != _DATASET_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_DATASET_MAGIC!r}")
        (version,) = _read_struct(f, "<H", "version")
        if version != _DATASET_VERSION:
            raise FormatError(f"unsupported version {version}")
        n, num_classes, c, h, w = _read_struct(f, "<5I", "header counts")
        if 0 in (n, num_classes, c, h, w):
            raise FormatError(
                f"header counts must be positive: {n} images of {num_classes} classes of shape ({c}, {h}, {w})"
            )
        labels = np.frombuffer(_read_exact(f, 2 * n, "labels"), dtype="<u2").astype(np.int64)
        img_bytes = _read_exact(f, 4 * n * c * h * w, "image data")
        images = np.frombuffer(img_bytes, dtype="<f4").reshape(n, c, h, w).copy()
        if not np.isfinite(images).all():
            raise FormatError("image data contains non-finite values")
        (tlen,) = _read_struct(f, "<I", "trailer length")
        trailer = _read_json(f, tlen, "trailer")
        _read_end(f, "trailer")
    if labels.size and labels.max() >= num_classes:
        bad = int(np.argmax(labels >= num_classes))
        raise FormatError(
            f"labels[{bad}] = {int(labels[bad])} out of range for {num_classes} classes"
        )
    names = trailer.get("class_names")
    if not isinstance(names, list) or len(names) != num_classes:
        raise FormatError("trailer field class_names missing or wrong length")
    return LabeledDataset(
        images=images,
        labels=labels,
        num_classes=num_classes,
        class_names=tuple(names),
        provenance=trailer.get("provenance", {}),
    )

"""Small trainable networks with hand-derived gradients.

Two consumers: the detector (classifier + feature extractor used to flag
defective synthetic samples) and the autoencoder (``LatentCodec``) supplying
the latent space for the diffusion model. Both are tanh MLPs trained with a
hand-rolled Adam. Parameters and Adam moments are float32 on disk and in
memory, and a pass computes in the dtype of its arrays, so training and
sampling run in float32. Detector scoring feeds a float64 input: confidences
are the float64 softmax of float32 weights. Gradient checks cast to float64.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import AutoencoderConfig, ClassifierConfig, TrainConfig
from .data import FormatError, LabeledDataset, cutmix, names_path, write_atomic
from .data import _read_end, _read_exact, _read_json, _read_struct
from .numerics import SeededRng, integers_from_words, max_softmax, require_finite, uniform_from_words

__all__ = [
    "Adam",
    "Detector",
    "LatentCodec",
    "Mlp",
    "fit",
    "load_autoencoder",
    "load_detector",
    "predict_batch",
    "read_checkpoint",
    "train_autoencoder",
    "train_detector",
    "write_checkpoint",
]


@dataclass
class Mlp:
    """Plain MLP: tanh on every hidden layer, linear output.

    weights[i] has shape (fan_out, fan_in). Parameters are float32 as
    built by ``mlp_init`` or read from a checkpoint. A stack of models
    trained in lockstep is one Mlp with a leading model axis on every
    parameter: weights (models, fan_out, fan_in), biases (models, fan_out).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def mlp_init(layer_sizes, rng: SeededRng) -> Mlp:
    """Gaussian init scaled by 1/sqrt(fan_in), float32."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = rng.normal((fan_out, fan_in)).astype(np.float64) / np.sqrt(fan_in)
        weights.append(w.astype(np.float32))
        biases.append(np.zeros(fan_out, dtype=np.float32))
    return Mlp(weights, biases)


def mlp_forward(mlp: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Activations [a0=x, a1, ..., aL] in the dtype of x; hidden layers tanh, last linear.

    ``x`` is (rows, fan_in) or a (stack, rows, fan_in) stack of batches, one
    per model of a stacked Mlp. ``np.matmul`` makes one BLAS call per batch,
    so each batch's activations equal its own pass bit for bit.
    """
    acts = [np.asarray(x)]
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = acts[-1] @ w.swapaxes(-1, -2) + b[..., None, :]
        acts.append(z if i == last else np.tanh(z))
    return acts


def _stack_mlps(mlps: list[Mlp]) -> Mlp:
    """One stacked Mlp holding ``mlps`` along a leading model axis."""
    return Mlp([np.stack(ws) for ws in zip(*(m.weights for m in mlps))], [np.stack(bs) for bs in zip(*(m.biases for m in mlps))])


def mlp_backward(mlp: Mlp, acts: list[np.ndarray], dout: np.ndarray, input_grad: bool = False):
    """Gradients of a scalar loss given d(loss)/d(output), in the weights' dtype.

    Returns (grads, dinput) where grads interleaves [dW1, db1, dW2, ...]
    matching ``Mlp.params()`` order. dinput, d(loss)/d(input), costs one
    more matmul and is None unless ``input_grad``. For a stacked Mlp every
    gradient has the model axis, and each model's equals its own pass.
    """
    grads: list[np.ndarray] = [None] * (2 * len(mlp.weights))
    delta = np.asarray(dout, dtype=mlp.weights[0].dtype)
    for i in range(len(mlp.weights) - 1, -1, -1):
        a_prev = acts[i]
        grads[2 * i] = delta.swapaxes(-1, -2) @ a_prev
        grads[2 * i + 1] = delta.sum(axis=-2)
        if i > 0:
            # acts[i] = tanh(z_{i-1}), so tanh' = 1 - acts[i]^2
            delta = (delta @ mlp.weights[i]) * (1.0 - acts[i] ** 2)
    dinput = delta @ mlp.weights[0] if input_grad else None
    return grads, dinput


class Adam:
    """Adaptive-moment optimizer over a list of parameter arrays.

    The moments, the gradients and one scratch array each live in one flat
    buffer of the parameters' dtype (float32 for every trained model),
    allocated once; once the moments are updated, the gradient buffer holds
    the update. A step is a fixed run of in-place ufuncs in the operation
    order of the per-parameter formula ``lr * (m / b1c) / (sqrt(v / b2c) + eps)``,
    so it is bit-identical to that formula and allocates no parameter-sized
    array. The coefficients are the defaults of Kingma & Ba (2015).
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        size = sum(p.size for p in params)
        self.m, self.v, self._g, self._tmp = (np.zeros(size, dtype=np.result_type(*params)) for _ in range(4))
        ends = np.cumsum([p.size for p in params])
        self._updates = [self._g[end - p.size : end].reshape(p.shape) for p, end in zip(params, ends)]

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v, g, tmp = self.m, self.v, self._g, self._tmp
        np.concatenate([x.reshape(-1) for x in grads], out=g)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=tmp)
        tmp *= g
        v += tmp
        upd = np.divide(m, b1c, out=g)  # g is spent: it takes the update
        upd *= self.lr
        np.divide(v, b2c, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        upd /= tmp
        for p, u in zip(params, self._updates):
            p -= u


def fit(params, cfg: TrainConfig, n: int, loops: list[SeededRng], epoch) -> list[list[float]]:
    """Minibatch Adam over ``n`` rows for each of ``len(loops)`` jobs in lockstep.

    Returns each job's mean loss of each epoch. Each epoch draws one
    ``loop.permutation(n)`` per job and iterates ``epoch(orders)``, a
    generator that yields, for each ``cfg.batch_size`` slice of the orders
    in turn, the jobs' losses (one per job) and the grads in ``params``
    order. ``fit`` takes one Adam step per yield before it asks for the
    next, so each slice sees the parameters the steps before it left. The
    generator may draw from the loops after the permutations; as no draw
    depends on the parameters, it may draw the whole epoch's words as one
    block before its first yield. The jobs share ``params``, stacked along a
    leading job axis when there are several; the Adam update is elementwise,
    so each job trains as it would alone. One model is the one-job case.
    """
    opt = Adam(params, cfg.learning_rate)
    histories = [[] for _ in loops]
    for _epoch in range(cfg.epochs):
        epoch_losses = []
        for losses, grads in epoch([loop.permutation(n) for loop in loops]):
            opt.step(params, grads)
            epoch_losses.append(losses)
        for history, job_losses in zip(histories, zip(*epoch_losses)):
            history.append(float(np.mean(job_losses)))
    return histories


def batches(n: int, size: int):
    """The slices of ``range(n)`` that ``fit`` steps on, ``size`` rows each but the last."""
    return (slice(s, s + size) for s in range(0, n, size))


# --- detector ----------------------------------------------------------------


@dataclass
class Detector:
    """MLP classifier over flattened images; features = penultimate activation."""

    mlp: Mlp
    num_classes: int
    image_shape: tuple[int, int, int]
    meta: dict = field(default_factory=dict)


def _flatten_images(images: np.ndarray, image_shape) -> np.ndarray:
    """A (B, C, H, W) batch of ``image_shape`` images as (B, C*H*W) rows."""
    images = np.asarray(images)
    if images.ndim != 4 or tuple(images.shape[1:]) != tuple(image_shape):
        raise ValueError(f"images of shape {images.shape} are not a batch of {tuple(image_shape)} images")
    require_finite("images", images)
    return images.reshape(len(images), -1)


def _soft_cross_entropy(logits: np.ndarray, soft_targets: np.ndarray):
    """Each model's mean soft-label cross entropy over a (models, rows, classes) stack, and d(loss)/d(logits)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    losses = -(soft_targets * logp).sum(axis=-1).mean(axis=-1)
    probs = np.exp(logp)
    dlogits = (probs - soft_targets) / logits.shape[-2]
    return losses.tolist(), dlogits


def _cutmix_minibatch(train: LabeledDataset, idx: np.ndarray, words: np.ndarray):
    """CutMix images and soft labels for the minibatch ``train[idx]``.

    ``words`` is (len(idx), 4): sample r takes row r, its mixing ratio
    (uniform on [0, 1), i.e. Beta(1, 1)), partner, box centre y and box
    centre x.
    """
    _, h, w = train.image_shape
    j = integers_from_words(words[:, 1], len(train))
    return cutmix(
        train.images[idx],
        train.labels[idx],
        train.images[j],
        train.labels[j],
        uniform_from_words(words[:, 0]),
        train.num_classes,
        center=(integers_from_words(words[:, 2], h), integers_from_words(words[:, 3], w)),
    )


def train_detector(
    trains: list[LabeledDataset], cfg: ClassifierConfig, rngs: list[SeededRng], *, use_cutmix: bool
) -> list[Detector]:
    """Train one MLP classifier per (training set, rng), in lockstep: the anomaly detector, or downstream classifiers.

    With ``use_cutmix`` (the detector; ``cfg`` is then a DetectorConfig)
    each minibatch sample gets a fresh mixing ratio and a partner drawn
    uniformly from the whole training set; without it the targets are
    plain one-hot. The training sets must agree in size, image shape and
    class count: their models are stacked along a leading model axis and
    one ``fit`` steps them together, each minibatch of each model in its
    own BLAS calls. So each classifier equals training it alone, bit for
    bit, and is deterministic per (training set, cfg, rng). The detector
    is the one-job case.
    """
    if not trains or len(trains) != len(rngs):
        raise ValueError("need one rng per training set, and at least one")
    first = trains[0]
    shape = (len(first), first.image_shape, first.num_classes)
    if any((len(t), t.image_shape, t.num_classes) != shape for t in trains):
        raise ValueError("training sets trained in lockstep must agree in size, image shape and class count")
    if len(first) == 0:
        raise ValueError("training set is empty")
    if first.num_classes < 2:
        raise ValueError("training requires at least 2 classes")
    n, din, k = len(first), int(np.prod(first.image_shape)), first.num_classes
    mlp = _stack_mlps([mlp_init([din, *cfg.hidden_sizes, k], rng.spawn(0)) for rng in rngs])
    loops = [rng.spawn(1) for rng in rngs]
    if not use_cutmix:  # the stacked sets, so that a minibatch of every model is one gather
        images, onehot = np.stack([t.images for t in trains]), np.eye(k)[np.stack([t.labels for t in trains])]
        models = np.arange(len(trains))[:, None]

    def epoch(orders):
        # each job's epoch of CutMix words in one block, 4 per sample; images
        # are mixed one minibatch at a time, so no epoch-sized image array is built
        words = [loop.raw_u64(4 * n).reshape(-1, 4) for loop in loops] if use_cutmix else None
        orders = np.stack(orders)
        for rows in batches(n, cfg.batch_size):
            if use_cutmix:
                mixed = [_cutmix_minibatch(t, o[rows], w[rows]) for t, o, w in zip(trains, orders, words)]
                xb, yb = np.stack([m.image for m in mixed]), np.stack([m.soft_label for m in mixed])
            else:
                xb, yb = images[models, orders[:, rows]], onehot[models, orders[:, rows]]
            acts = mlp_forward(mlp, xb.reshape(len(trains), -1, din))
            losses, dlogits = _soft_cross_entropy(acts[-1], yb)
            yield losses, mlp_backward(mlp, acts, dlogits)[0]

    histories = fit(mlp.params(), cfg, n, loops, epoch)
    return [
        Detector(
            mlp=Mlp([w[j] for w in mlp.weights], [b[j] for b in mlp.biases]),
            num_classes=k,
            image_shape=first.image_shape,
            meta={
                "epochs": cfg.epochs,
                "final_loss": losses[-1],
                "loss_history": losses,
                "seed": rng.seed,
                "use_cutmix": use_cutmix,
            },
        )
        for j, (rng, losses) in enumerate(zip(rngs, histories))
    ]


def predict_batch(det: Detector, images: np.ndarray):
    """(labels, confidences, features) for a batch from one float64 pass.

    Argmax ties break low; features are the penultimate activations as float32.
    """
    x = _flatten_images(images, det.image_shape)
    acts = mlp_forward(det.mlp, x.astype(np.float64))
    logits = acts[-1]
    return logits.argmax(axis=1).astype(np.int64), max_softmax(logits), acts[-2].astype(np.float32)


# --- latent codec ------------------------------------------------------------


@dataclass
class LatentCodec:
    """Pixel space <-> the diffusion model's latent space: an MLP autoencoder.

    The tanh encoder bounds codes to (-1, 1), the roughly unit scale the
    diffusion model wants; the linear-output decoder is trained on mean
    squared reconstruction, and ``decode`` clips its images to [0, 1].
    """

    enc: Mlp
    dec: Mlp
    image_shape: tuple[int, int, int]
    meta: dict = field(default_factory=dict)

    @property
    def latent_dim(self) -> int:
        return self.enc.weights[-1].shape[0]

    def encode(self, images: np.ndarray) -> np.ndarray:
        """(B, C, H, W) images -> (B, latent_dim) tanh codes, float32."""
        return np.tanh(mlp_forward(self.enc, _flatten_images(images, self.image_shape))[-1]).astype(np.float32)

    def decode(self, latents: np.ndarray) -> np.ndarray:
        """(B, latent_dim) codes -> (B, C, H, W) images clipped to [0, 1], float32."""
        z = np.asarray(latents, dtype=np.float32)
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise ValueError(f"latents of shape {z.shape} are not (B, latent dim {self.latent_dim})")
        return np.clip(mlp_forward(self.dec, z)[-1], 0.0, 1.0).reshape(len(z), *self.image_shape)


def train_autoencoder(train: LabeledDataset, cfg: AutoencoderConfig, rng: SeededRng) -> LatentCodec:
    """Train the latent codec; ``meta["reconstruction_mse"]`` is of the unclipped decoder output."""
    if len(train) == 0:
        raise ValueError("training set is empty")
    din = int(np.prod(train.image_shape))
    enc = mlp_init([din, cfg.hidden_size, cfg.latent_dim], rng.spawn(0))
    dec = mlp_init([cfg.latent_dim, cfg.hidden_size, din], rng.spawn(1))
    flat = train.images.reshape(len(train), din)

    def epoch(orders):
        (order,) = orders
        for rows in batches(len(order), cfg.batch_size):
            loss, grads = _ae_loss_and_grads(enc, dec, flat[order[rows]])
            yield [loss], grads

    [losses] = fit(enc.params() + dec.params(), cfg, len(train), [rng.spawn(2)], epoch)
    codec = LatentCodec(
        enc=enc,
        dec=dec,
        image_shape=train.image_shape,
        meta={"epochs": cfg.epochs, "loss_history": losses, "seed": rng.seed},
    )
    # squared error in place, so one float64 copy of the images is alive at a time
    sq = mlp_forward(dec, codec.encode(train.images))[-1].reshape(train.images.shape).astype(np.float64)
    sq -= train.images
    sq **= 2
    codec.meta["reconstruction_mse"] = float(np.mean(sq))
    return codec


def _ae_loss_and_grads(enc: Mlp, dec: Mlp, xb: np.ndarray):
    """Mean per-pixel squared error through tanh-bottleneck encoder/decoder."""
    enc_acts = mlp_forward(enc, xb)
    code = np.tanh(enc_acts[-1])  # bounded latent
    dec_acts = mlp_forward(dec, code)
    recon = dec_acts[-1]
    diff = recon - xb
    loss = float(np.mean(diff**2))
    dout = 2.0 * diff / diff.size
    dec_grads, dcode = mlp_backward(dec, dec_acts, dout, input_grad=True)
    denc_out = dcode * (1.0 - code**2)
    enc_grads, _ = mlp_backward(enc, enc_acts, denc_out)
    return loss, enc_grads + dec_grads


# --- checkpoints -------------------------------------------------------------
#
# magic "MDLC" | u16 version | u32 desc_len | UTF-8 JSON descriptor
# | u32 num_arrays | per array: u32 ndim + u32 dims... | float32 LE blob

_CKPT_MAGIC = b"MDLC"
_CKPT_VERSION = 1


def write_checkpoint(path, kind: str, desc: dict, params: list[np.ndarray]) -> str:
    """Write a checkpoint atomically (``data.write_atomic``); return its sha256.

    A non-finite parameter raises NonFiniteError before anything is written.
    """
    for i, p in enumerate(params):
        require_finite(f"{kind} array {i}", p)
    desc = dict(desc, kind=kind)
    desc_bytes = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = [_CKPT_MAGIC, struct.pack("<HI", _CKPT_VERSION, len(desc_bytes)), desc_bytes, struct.pack("<I", len(params))]
    shapes = [struct.pack(f"<I{p.ndim}I", p.ndim, *p.shape) for p in params]
    blobs = (np.ascontiguousarray(p, dtype="<f4").tobytes() for p in params)
    return write_atomic(path, itertools.chain(header, shapes, blobs))


@names_path
def read_checkpoint(path):
    """Returns (kind, descriptor dict, list of float32 arrays); bit-exact.

    A short, overlong or undecodable file, or a non-finite parameter,
    raises FormatError.
    """
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != _CKPT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_CKPT_MAGIC!r}")
        (version,) = _read_struct(f, "<H", "version")
        if version != _CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (dlen,) = _read_struct(f, "<I", "descriptor length")
        desc = _read_json(f, dlen, "descriptor")
        (count,) = _read_struct(f, "<I", "array count")
        shapes = []
        for _ in range(count):
            (ndim,) = _read_struct(f, "<I", "array rank")
            shapes.append(_read_struct(f, f"<{ndim}I", "array shape"))
        arrays = []
        for i, shape in enumerate(shapes):
            size = math.prod(shape)  # exact: np.prod wraps at 2**64
            buf = _read_exact(f, 4 * size, "parameter blob")
            arrays.append(np.frombuffer(buf, dtype="<f4").reshape(shape).copy())
            if not np.isfinite(arrays[-1]).all():
                raise FormatError(f"array {i} contains non-finite values")
        _read_end(f, "last array")
    kind = desc.pop("kind", None)
    if kind is None:
        raise FormatError("descriptor missing kind")
    return kind, desc, arrays


def _is_size(value, least: int = 1) -> bool:
    """Whether ``value`` is an int, not a bool, of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _desc_size(desc: dict, key: str) -> int:
    """``desc[key]``, a positive int; FormatError when missing or mistyped."""
    value = desc.get(key)
    if not _is_size(value):
        raise FormatError(f"descriptor key {key} must be a positive integer")
    return value


def _desc_sizes(desc: dict, key: str, count: int | None = None) -> list[int]:
    """``desc[key]``, a list of ``count`` (by default at least 2) positive ints."""
    value = desc.get(key)
    if not (
        isinstance(value, list)
        and (len(value) == count if count else len(value) >= 2)
        and all(_is_size(v) for v in value)
    ):
        raise FormatError(f"descriptor key {key} must list {count or 'at least 2'} positive integers")
    return value


def _mlp_from_arrays(arrays: list[np.ndarray], layer_sizes: list[int]) -> Mlp:
    """The Mlp of interleaved (weight, bias) arrays; FormatError unless shaped for ``layer_sizes``."""
    want = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        want += [(fan_out, fan_in), (fan_out,)]
    if [a.shape for a in arrays] != want:
        raise FormatError(f"{len(arrays)} arrays do not fit layer sizes {layer_sizes}")
    return Mlp(arrays[0::2], arrays[1::2])


def save_detector(path, det: Detector) -> str:
    desc = {
        "layer_sizes": det.mlp.layer_sizes,
        "num_classes": det.num_classes,
        "image_shape": list(det.image_shape),
        "meta": det.meta,
    }
    return write_checkpoint(path, "detector", desc, det.mlp.params())


@names_path
def load_detector(path) -> Detector:
    kind, desc, arrays = read_checkpoint(path)
    if kind != "detector":
        raise FormatError(f"expected detector checkpoint, got {kind!r}")
    image_shape = _desc_sizes(desc, "image_shape", 3)
    num_classes = _desc_size(desc, "num_classes")
    sizes = _desc_sizes(desc, "layer_sizes")
    if [sizes[0], sizes[-1]] != [int(np.prod(image_shape)), num_classes]:
        raise FormatError(f"layer_sizes {sizes} do not fit image_shape and num_classes")
    return Detector(
        mlp=_mlp_from_arrays(arrays, sizes),
        num_classes=num_classes,
        image_shape=tuple(image_shape),
        meta=desc.get("meta", {}),
    )


def save_autoencoder(path, codec: LatentCodec) -> str:
    desc = {
        "image_shape": list(codec.image_shape),
        "latent_dim": codec.latent_dim,
        "enc_layers": codec.enc.layer_sizes,
        "meta": codec.meta,
    }
    return write_checkpoint(path, "autoencoder", desc, codec.enc.params() + codec.dec.params())


@names_path
def load_autoencoder(path) -> LatentCodec:
    """The codec of an autoencoder checkpoint; its decoder mirrors ``enc_layers``."""
    kind, desc, arrays = read_checkpoint(path)
    if kind != "autoencoder":
        raise FormatError(f"expected autoencoder checkpoint, got {kind!r}")
    image_shape = _desc_sizes(desc, "image_shape", 3)
    latent_dim = _desc_size(desc, "latent_dim")
    sizes = _desc_sizes(desc, "enc_layers")
    if [sizes[0], sizes[-1]] != [int(np.prod(image_shape)), latent_dim]:
        raise FormatError(f"enc_layers {sizes} do not fit image_shape and latent_dim")
    n_enc = 2 * (len(sizes) - 1)
    return LatentCodec(
        enc=_mlp_from_arrays(arrays[:n_enc], sizes),
        dec=_mlp_from_arrays(arrays[n_enc:], sizes[::-1]),
        image_shape=tuple(image_shape),
        meta=desc.get("meta", {}),
    )

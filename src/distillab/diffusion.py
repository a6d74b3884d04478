"""Tiny conditional denoising diffusion model over latent vectors.

The denoiser is an MLP taking concat(noisy latent, sinusoidal timestep
embedding, learned label embedding) and predicting the injected noise.
A reserved null label row is trained via label dropout, enabling
classifier-free guidance at sampling time:

    eps_hat = eps_null + w * (eps_label - eps_null)

Image-to-image sampling noises a prototype latent to timestep
floor(strength * T) (SDEdit) and denoises it from there with deterministic
DDIM (eta = 0) in at most ``_SAMPLE_STEPS`` guided steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import DenoiserConfig
from .data import FormatError, names_path
from .models import Mlp, _mlp_from_arrays, batches, fit, mlp_backward, mlp_forward, mlp_init
from .models import read_checkpoint, write_checkpoint
from .numerics import SeededRng, integers_from_words, normal_from_words, require_finite, uniform_from_words

__all__ = [
    "Denoiser",
    "DiffusionSchedule",
    "build_schedule",
    "denoise_loss_and_grads",
    "forward_noise",
    "load_denoiser",
    "sample_img2img_batch",
    "save_denoiser",
    "train_denoiser",
]


@dataclass(frozen=True)
class DiffusionSchedule:
    """Cumulative-product alpha-bars of a linear variance schedule; float64 so they stay sharp."""

    alpha_bars: np.ndarray

    @property
    def timesteps(self) -> int:
        return len(self.alpha_bars)


def build_schedule(cfg: DenoiserConfig) -> DiffusionSchedule:
    """The cumulative products of 1 - beta over the config's ``timesteps`` betas, linear from ``beta_start`` to ``beta_end``."""
    betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.timesteps, dtype=np.float64)
    return DiffusionSchedule(alpha_bars=np.cumprod(1.0 - betas))


def forward_noise(z0: np.ndarray, t, eps: np.ndarray, sched: DiffusionSchedule) -> np.ndarray:
    """q(z_t | z_0): sqrt(abar_t) * z0 + sqrt(1 - abar_t) * eps, in float64.

    ``t`` is 1-based: one timestep for all of ``z0``, or one per row.
    """
    t = np.asarray(t)
    if t.min() < 1 or t.max() > sched.timesteps:
        raise ValueError(f"t={t} outside [1, {sched.timesteps}]")
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape or t.shape != z0.shape[: t.ndim]:
        raise ValueError(f"shape mismatch: z0 {z0.shape}, eps {eps.shape}, t {t.shape}")
    ab = sched.alpha_bars[t - 1].reshape(t.shape + (1,) * (z0.ndim - t.ndim))
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def timestep_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Fixed sinusoidal embedding of integer timesteps, shape (len(t), dim)."""
    if dim % 2 != 0:
        raise ValueError("embedding dim must be even")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass
class Denoiser:
    """Noise-prediction MLP with a learned label table (last row = null token).

    The embedding is residual: rows 0..K-1 hold zero-initialized per-class
    offsets and the last row holds the null/unconditional base vector. A
    class token embeds as base + offset, the null token as the base alone.
    Offsets only receive gradient when their class survives label dropout,
    so a model trained with full dropout has identically zero offsets and
    its conditional and null predictions coincide exactly.

    Its sizes are read off its arrays: the MLP takes a latent, a time
    embedding and a label embedding and returns a latent-sized noise estimate.
    """

    mlp: Mlp
    label_table: np.ndarray  # (num_classes + 1, label_embed_dim) float32; sets the pass dtype
    meta: dict = field(default_factory=dict, kw_only=True)

    @property
    def num_classes(self) -> int:
        return len(self.label_table) - 1

    @property
    def latent_dim(self) -> int:
        return self.mlp.layer_sizes[-1]

    @property
    def time_embed_dim(self) -> int:
        return self.mlp.layer_sizes[0] - self.latent_dim - self.label_table.shape[1]

    @property
    def null_token(self) -> int:
        return self.num_classes

    def label_vec(self, tokens: np.ndarray) -> np.ndarray:
        """Embedding lookup; the single path by which labels are read.

        One lookup in the table of class rows ``base + offset`` and the
        null row ``base``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and (tokens.min() < 0 or tokens.max() > self.num_classes):
            raise ValueError("label token out of range (including null)")
        base = self.label_table[self.null_token]
        return np.concatenate([self.label_table[: self.null_token] + base, base[None]])[tokens]

    def predict_noise(self, z: np.ndarray, t: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """eps_hat for a batch of latents; tokens may include the null token."""
        temb = timestep_embedding(t, self.time_embed_dim)
        return mlp_forward(self.mlp, self._assemble_input(z, temb, self.label_vec(tokens)))[-1]

    def _assemble_input(self, z, temb, lemb) -> np.ndarray:
        """The MLP input: latents, their time embeddings ``temb`` and label embeddings ``lemb``.

        ``z`` is (B, latent_dim) or a (slots, B, latent_dim) stack, and
        ``temb`` and ``lemb`` have its leading shape.
        """
        z = np.asarray(z, dtype=self.label_table.dtype)
        if z.ndim not in (2, 3) or z.shape[-1] != self.latent_dim:
            raise ValueError(f"latents must be (B, {self.latent_dim}) or (slots, B, {self.latent_dim})")
        return np.concatenate([z, temb, lemb], axis=-1, dtype=z.dtype)


def denoise_loss_and_grads(den: Denoiser, zt, temb, tokens, eps):
    """Mean squared noise-prediction error and gradients.

    ``temb`` is ``timestep_embedding`` of the rows' timesteps. Gradient
    list matches ``den.mlp.params() + [den.label_table]``; the input
    gradient is scattered back into the looked-up embedding rows.
    """
    x = den._assemble_input(zt, temb, den.label_vec(tokens))
    acts = mlp_forward(den.mlp, x)
    diff = acts[-1] - np.asarray(eps, dtype=acts[-1].dtype)
    loss = float(np.mean(diff**2))
    dout = 2.0 * diff / diff.size
    grads, dinput = mlp_backward(den.mlp, acts, dout, input_grad=True)
    demb = dinput[:, den.latent_dim + den.time_embed_dim :]
    tokens = np.asarray(tokens, dtype=np.int64)
    dtable = np.zeros_like(den.label_table)
    dtable[den.null_token] = demb.sum(axis=0)  # base row is in every path
    cls = tokens < den.num_classes
    np.add.at(dtable, tokens[cls], demb[cls])
    return loss, grads + [dtable]


def train_denoiser(
    latents: np.ndarray,
    labels: np.ndarray,
    cfg: DenoiserConfig,
    rng: SeededRng,
) -> Denoiser:
    """Fit the noise-prediction objective over uniformly sampled timesteps of ``build_schedule(cfg)``.

    Per sample: t ~ U{1..T}, eps ~ N(0, I), z_t = forward_noise(z0, t, eps),
    and with probability ``label_dropout`` the class token is replaced by
    the null token so the unconditional branch gets trained too. Loss is
    the mean squared error between predicted and true noise.
    """
    latents = np.asarray(latents, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if latents.ndim != 2 or len(latents) == 0:
        raise ValueError("latents must be a non-empty (N, d) array")
    if len(labels) != len(latents):
        raise ValueError("labels misaligned with latents")
    require_finite("latents", latents)
    sched = build_schedule(cfg)
    num_classes = int(labels.max()) + 1
    d = latents.shape[1]
    din = d + cfg.time_embed_dim + cfg.label_embed_dim
    mlp = mlp_init([din, *cfg.hidden_sizes, d], rng.spawn(0))
    # zero-init class offsets; random base (null) row
    table = np.zeros((num_classes + 1, cfg.label_embed_dim), dtype=np.float32)
    table[num_classes] = rng.spawn(1).normal(cfg.label_embed_dim) * 0.5
    den = Denoiser(mlp, table)
    loop = rng.spawn(2)
    n, b = len(latents), cfg.batch_size
    full, last = divmod(n, b)

    def words_per_batch(rows: int) -> int:
        return 2 * rows + 2 * ((rows * d + 1) // 2)

    def batch_draws(words: np.ndarray, rows: int):
        """(t, eps, dropout uniforms) of batches of ``rows`` rows, one batch per row of ``words``.

        A batch takes, in order, ``rows`` words for ``t``, the words of
        ``normal((rows, d))`` for eps and ``rows`` words for the uniforms.
        """
        eps_end = words_per_batch(rows) - rows
        t = integers_from_words(words[:, :rows], sched.timesteps) + 1
        eps = normal_from_words(words[:, rows:eps_end])[:, : rows * d]
        return t.reshape(-1), eps.reshape(-1, d), uniform_from_words(words[:, eps_end:]).reshape(-1)

    def epoch(orders):
        (order,) = orders
        # One block holds the epoch's words, each batch's after the previous
        # batch's, as per-batch draws take them. The full batches, then the
        # short last one, are converted, noised and embedded in one call each.
        cut = full * words_per_batch(b)
        words = loop.raw_u64(cut + words_per_batch(last))
        draws = zip(
            batch_draws(words[:cut].reshape(full, words_per_batch(b)), b),
            batch_draws(words[cut:].reshape(1, words_per_batch(last)), last),
        )
        t, eps, drop = (np.concatenate(parts) for parts in draws)
        zt = forward_noise(latents[order], t, eps, sched).astype(np.float32)
        temb = timestep_embedding(t, cfg.time_embed_dim).astype(np.float32)
        tokens = np.where(drop < cfg.label_dropout, den.null_token, labels[order])
        for rows in batches(n, b):
            loss, grads = denoise_loss_and_grads(den, zt[rows], temb[rows], tokens[rows], eps[rows])
            yield [loss], grads

    [losses] = fit(mlp.params() + [den.label_table], cfg, n, [loop], epoch)
    den.meta = {"loss_history": losses}
    return den


# denoiser timesteps a sampler call visits at most, so its guided passes per call
_SAMPLE_STEPS = 20


def _guided_noise(den: Denoiser, z: np.ndarray, t: np.ndarray, lemb: np.ndarray, w: float) -> np.ndarray:
    """Classifier-free guided estimate from one pass over each slot's stacked (label, null) rows.

    ``z`` is a (slots, b, d) stack at timesteps ``t`` (b,). ``lemb`` is
    ``label_vec`` of each slot's tokens ``[label] * b + [null] * b``; the
    sampler builds it once per call, since the tokens do not change
    between steps.
    """
    zz = np.concatenate([z, z], axis=-2)
    temb = timestep_embedding(np.concatenate([t, t]), den.time_embed_dim)
    temb = np.broadcast_to(temb, zz.shape[:-1] + temb.shape[-1:])  # the same for every slot
    out = mlp_forward(den.mlp, den._assemble_input(zz, temb, lemb))[-1]
    b = z.shape[-2]
    eps_label, eps_null = out[..., :b, :], out[..., b:, :]
    return eps_null + w * (eps_label - eps_null)


def sample_img2img_batch(
    den: Denoiser,
    sched: DiffusionSchedule,
    prototypes: np.ndarray,
    label: tuple[int, ...],
    strength: float,
    guidance_scale: float,
    rngs,
) -> np.ndarray:
    """Partially noise each prototype and denoise it back under guidance.

    ``sched`` is the schedule ``den`` was trained under (``build_schedule``
    of its config), ``prototypes`` a (slots, rows, d) stack of batches and
    ``label`` a tuple holding each slot's class; the result has the stack's
    shape.
    Each prototype is noised to t_start = floor(strength * T) (SDEdit) and
    denoised by deterministic DDIM (eta = 0) over ``min(_SAMPLE_STEPS,
    t_start)`` timesteps, evenly spaced from t_start down to 1 and rounded:
    each step estimates x0 = (z - sqrt(1 - abar_t) eps) / sqrt(abar_t) from
    the guided eps and re-noises it to the next timestep with the same eps,
    and the last step returns x0, unclipped.
    ``rngs`` supplies one independent stream per row, slot after slot; each
    stream draws only its initial noise, one ``normal(d)``, so results are
    reproducible per (prototype, stream). A stack runs as one loop:
    each network pass makes one BLAS call per slot, of the shape the slot
    alone gets, and every other step is elementwise, so each slot equals
    its own one-slot call bit for bit. Batched results can differ from
    one-at-a-time sampling in the last float bit (BLAS blocking): a slot's
    shape (its row count) is part of the frozen recipe. So is the weights'
    layout (see ``mlp_forward``): each call copies the weights into Fortran
    order once, so every pass multiplies untransposed (with OpenBLAS 2-3
    times faster than transposed at slots of 10-40 rows), whatever layout
    the weights arrive in.
    """
    protos = np.asarray(prototypes, dtype=np.float64)
    if protos.ndim != 3 or protos.shape[-1] != den.latent_dim:
        raise ValueError(f"prototypes of shape {protos.shape} are not a (slots, rows, {den.latent_dim}) stack")
    slots, b, d = protos.shape
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must lie in [0, 1]")
    if guidance_scale < 0.0:
        raise ValueError("guidance_scale must be non-negative")
    if len(label) != slots:
        raise ValueError(f"need one label per slot: {len(label)} labels for {slots} slots")
    for c in label:
        if not 0 <= c < den.num_classes:
            raise ValueError(f"unknown label {c}")
    if len(rngs) != slots * b:
        raise ValueError("need one rng stream per prototype")
    t_start = int(np.floor(strength * sched.timesteps))
    if t_start == 0:
        return protos.astype(np.float32)
    noise = np.stack([r.normal(d) for r in rngs]).reshape(slots, b, d)
    z = forward_noise(protos, t_start, noise, sched)
    tokens = [[c] * b + [den.null_token] * b for c in label]
    lemb = den.label_vec(np.array(tokens, dtype=np.int64))
    # Fortran-ordered weights make each pass's w.swapaxes(-1, -2) a contiguous
    # (fan_in, fan_out) operand, which BLAS multiplies untransposed
    den = replace(den, mlp=Mlp([np.asfortranarray(w) for w in den.mlp.weights], den.mlp.biases))
    steps = np.rint(np.linspace(t_start, 1, min(_SAMPLE_STEPS, t_start))).astype(np.int64).tolist()
    for t, t_next in zip(steps, steps[1:] + [0]):
        eps_hat = _guided_noise(den, z, np.full(b, t, dtype=np.int64), lemb, guidance_scale)
        ab_t = sched.alpha_bars[t - 1]
        z = (z - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)  # x0; each step but the last re-noises it
        if t_next:
            z = forward_noise(z, t_next, eps_hat, sched)
    out = z.astype(np.float32)
    require_finite("sampled latent", out)
    return out


def save_denoiser(path, den: Denoiser) -> str:
    return write_checkpoint(path, "denoiser-v1", {"meta": den.meta}, den.mlp.params() + [den.label_table])


@names_path
def load_denoiser(path) -> Denoiser:
    """The denoiser of a checkpoint: its MLP's arrays, then its label table.

    The time embedding's width is the first layer's fan-in less the latent
    dim and the table's width; FormatError unless it is positive and even.
    """
    desc, arrays = read_checkpoint(path, "denoiser-v1")
    shapes = [a.shape for a in arrays]
    if len(shapes) < 3 or len(shapes[-2]) != 1 or len(shapes[-1]) != 2 or shapes[-1][0] < 2 or shapes[-1][1] < 1:
        raise FormatError(f"arrays of shapes {shapes} do not end in a bias and a label table of at least 2 rows")
    *params, table = arrays
    den = Denoiser(_mlp_from_arrays(params, shapes[0][-1] if shapes[0] else 0), table, meta=desc.get("meta", {}))
    if den.time_embed_dim < 2 or den.time_embed_dim % 2:
        raise FormatError(f"arrays of shapes {shapes} leave a time embedding {den.time_embed_dim} wide, not a positive even width")
    return den

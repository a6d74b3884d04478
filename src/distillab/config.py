"""Run configuration: one dataclass per pipeline stage, and the JSON schema.

Each ``RunConfig`` section is the config object its library function
takes: ``ToyDataSpec`` (``synthesize_toy_dataset``), ``DetectorConfig``
(``train_detector``), ``AutoencoderConfig`` (``train_autoencoder``),
``DenoiserConfig`` (``train_denoiser``, and ``build_schedule`` for its
noise schedule), ``DistillConfig`` (``generate_candidates``/``select``) and
``EvalConfig`` (``train_downstream``, ``select_runs``/``score_runs``).
Every default is written once, here: ``RunConfig()`` is the frozen
desk-scale experiment, and ``dataclasses.asdict`` gives its JSON form.
Each class checks its values in ``__post_init__``, and ``RunConfig``
checks the one rule across sections: ``distill.ipc`` may not exceed
``data.train_per_class``.

No section carries a seed: a seed reaches the library only as the
``SeededRng`` argument, derived from ``master_seed``.

A JSON config is flat: a section's keys are its field names, and absent
keys keep their defaults. Unknown keys are rejected with their dotted path,
a wrong type names the key, an out-of-range value names the section, and
JSON syntax errors cite line and column.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

# The package's one SHA-256: the interpreter's builtin module gives the standard
# digests without mapping OpenSSL's libcrypto (3.5 MB resident) into every
# command. The standard wrapper is the fallback for an interpreter built without it.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # the builtin's name on Python 3.12+
    except ImportError:
        from hashlib import sha256

__all__ = [
    "SELECTION_MODES",
    "AutoencoderConfig",
    "ClassifierConfig",
    "ConfigError",
    "DenoiserConfig",
    "DetectorConfig",
    "DistillConfig",
    "EvalConfig",
    "RunConfig",
    "ToyDataSpec",
    "TrainConfig",
    "check_seed",
    "config_sha256",
    "load_config",
    "parse_config",
    "sha256",
]

SELECTION_MODES = ("base", "top1", "sim", "tplus_s")


class ConfigError(ValueError):
    """Configuration rejected; message cites the offending key or location."""


def check_seed(name: str, seed: int) -> int:
    """``seed`` when it names one ``SeededRng`` stream, i.e. lies in [0, 2^64); else ConfigError citing ``name``."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


@dataclass(frozen=True)
class ToyDataSpec:
    """The procedural grating dataset.

    Class c of K is a grating on an evenly spaced fan of angles and a 2..6
    cycles-per-image ramp (``resolved_patterns``), so no two classes share
    an (orientation, frequency) pair.
    """

    num_classes: int = 5
    train_per_class: int = 500
    test_per_class: int = 100
    channels: int = 1
    image_height: int = 16
    image_width: int = 16
    amplitude: float = 0.9
    amplitude_jitter: float = 0.1
    noise_std: float = 0.05

    def __post_init__(self):
        if self.num_classes < 2:  # a classifier needs two classes to tell apart
            raise ValueError("num_classes must be >= 2")
        if self.num_classes > 2**16:  # dataset files store labels as u16
            raise ValueError("num_classes must be <= 65536, as labels are stored as u16")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("images per class must be positive")
        if min(self.image_shape) < 1:
            raise ValueError("channels, image_height and image_width must be >= 1")
        if self.noise_std < 0 or self.amplitude_jitter < 0:
            raise ValueError("noise_std and amplitude_jitter must be non-negative")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.image_height, self.image_width)

    def resolved_patterns(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-class orientations ``180 c / K`` degrees and frequencies ``2 + 4 c / (K - 1)``."""
        k = self.num_classes
        return tuple(180.0 * c / k for c in range(k)), tuple(2.0 + (4.0 * c / (k - 1)) for c in range(k))


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch Adam training: the keys every trained stage has."""

    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def _check_widths(name: str, sizes: list[int]) -> None:
    if not sizes or min(sizes) < 1:
        raise ValueError(f"{name} must be a non-empty list of positive widths")


@dataclass(frozen=True)
class ClassifierConfig(TrainConfig):
    """A tanh MLP classifier over flattened images (``train_detector``)."""

    hidden_sizes: list[int] = field(default_factory=lambda: [128, 64])

    def __post_init__(self):
        super().__post_init__()
        _check_widths("hidden_sizes", self.hidden_sizes)


@dataclass(frozen=True)
class DetectorConfig(ClassifierConfig):
    """The anomaly detector, trained with CutMix soft labels (mixing ratios uniform on [0, 1))."""

    epochs: int = 20


@dataclass(frozen=True)
class AutoencoderConfig(TrainConfig):
    """The latent codec: a tanh-bottleneck MLP autoencoder."""

    epochs: int = 30
    learning_rate: float = 2e-3
    latent_dim: int = 32
    hidden_size: int = 128

    def __post_init__(self):
        super().__post_init__()
        if self.latent_dim < 1 or self.hidden_size < 1:
            raise ValueError("latent_dim and hidden_size must be >= 1")


@dataclass(frozen=True)
class DenoiserConfig(TrainConfig):
    """The conditional latent denoiser and its linear noise schedule."""

    epochs: int = 100
    timesteps: int = 200
    beta_start: float = 1e-4
    beta_end: float = 0.03
    hidden_sizes: list[int] = field(default_factory=lambda: [256, 256])
    time_embed_dim: int = 16
    label_embed_dim: int = 32
    label_dropout: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if not (0.0 < self.beta_start <= self.beta_end < 1.0):
            raise ValueError("need 0 < beta_start <= beta_end < 1")
        _check_widths("hidden_sizes", self.hidden_sizes)
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even and >= 2")
        if self.label_embed_dim < 1:
            raise ValueError("label_embed_dim must be >= 1")
        if not 0.0 <= self.label_dropout <= 1.0:
            raise ValueError("label_dropout must lie in [0, 1]")


@dataclass(frozen=True)
class DistillConfig:
    """All refinement knobs.

    beta is the strict confidence threshold (accept needs p > beta); top_k
    bounds the confidence-ranked shortlist from which the least-similar
    candidate is taken. Defaults follow the sensitivity optima (k=2,
    beta=0.9) and the 20-candidate refinement budget.
    """

    ipc: int = 10
    beta: float = 0.9
    top_k: int = 2
    num_candidates: int = 20
    guidance_scale: float = 10.0
    strength: float = 0.7
    selection_mode: str = "tplus_s"
    kmeans_restarts: int = 10

    def __post_init__(self):
        if self.ipc < 1:
            raise ValueError("ipc must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.top_k > self.num_candidates:
            raise ValueError("top_k cannot exceed num_candidates")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("strength must lie in [0, 1]")
        if not 0.0 <= self.guidance_scale < math.inf:
            raise ValueError("guidance_scale must be a finite non-negative number")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"selection_mode must be one of {SELECTION_MODES}")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be >= 1")


@dataclass(frozen=True)
class EvalConfig(ClassifierConfig):
    """Downstream classifier training, the ablation grid and the sensitivity sweep.

    The classifier trains on plain one-hot targets. The ablation runs every
    mode on every seed; the sweep runs every (top_k, beta) cell on the
    first seed.
    """

    epochs: int = 200
    batch_size: int = 16
    modes: list[str] = field(default_factory=lambda: list(SELECTION_MODES))
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    sensitivity_top_k: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    sensitivity_betas: list[float] = field(default_factory=lambda: [0.5, 0.7, 0.9])

    def __post_init__(self):
        super().__post_init__()
        if not self.modes or not self.seeds:
            raise ValueError("modes and seeds must not be empty")
        if not self.sensitivity_top_k or not self.sensitivity_betas:
            raise ValueError("sensitivity_top_k and sensitivity_betas must not be empty")
        for seed in self.seeds:
            check_seed("seeds", seed)
        for mode in self.modes:
            if mode not in SELECTION_MODES:
                raise ValueError(f"modes must be among {SELECTION_MODES}, got selection_mode={mode!r}")
        if any(k < 1 for k in self.sensitivity_top_k):
            raise ValueError("sensitivity_top_k values must be >= 1")
        if any(not 0.0 < b < 1.0 for b in self.sensitivity_betas):
            raise ValueError("sensitivity_betas values must lie in (0, 1)")
        for name in ("modes", "seeds", "sensitivity_top_k", "sensitivity_betas"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")


@dataclass(frozen=True)
class RunConfig:
    master_seed: int = 0
    output_root: str = "runs"
    data: ToyDataSpec = field(default_factory=ToyDataSpec)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    autoencoder: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        check_seed("master_seed", self.master_seed)
        # each class is clustered into ipc prototypes, one image at least each
        if self.distill.ipc > self.data.train_per_class:
            raise ValueError(
                f"distill.ipc ({self.distill.ipc}) exceeds data.train_per_class ({self.data.train_per_class})"
            )


def _typed(hint, value, path: str):
    """``value`` checked against the annotation ``hint``; floats accept ints.

    Booleans are not numbers here, and floats must be finite.
    """
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"config key {path} expects list, got {type(value).__name__}")
        (item,) = typing.get_args(hint)
        return [_typed(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    numeric = (int, float) if hint is float else (hint,)
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ConfigError(f"config key {path} expects {hint.__name__}, got {type(value).__name__}")
    if hint is float:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"config key {path} must be a finite number")
    return value


def _build(cls, payload, path: str = ""):
    """An instance of ``cls`` from a JSON object; absent keys keep their defaults."""
    if not isinstance(payload, dict):
        raise ConfigError(f"section {path!r} must be an object" if path else "top-level config must be an object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        dotted = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"unknown config key {dotted}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _build(hint, value, dotted)
        else:
            kwargs[key] = _typed(hint, value, dotted)
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}" if path else str(e)) from None


def parse_config(payload: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object; ConfigError on any bad key or value."""
    return _build(RunConfig, payload)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ConfigError, not a silent last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    """Parse a JSON config file; syntax errors cite line and column, a repeated key names it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    return parse_config(payload)


def config_sha256(cfg: RunConfig) -> str:
    """Hash of the experiment-defining fields.

    Excludes output_root: where artifacts land does not influence their
    bytes, so two runs of one experiment share a run id and manifests
    regardless of location.
    """
    payload = dataclasses.asdict(cfg)
    payload.pop("output_root")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()

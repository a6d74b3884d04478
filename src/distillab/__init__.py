"""Desk-scale detector-guided dataset distillation.

Synthesizes a compact labeled dataset from per-class latent prototypes
with a small conditional diffusion model, then detects and replaces
defective synthetic samples using a trained classifier's confidence and a
feature-diversity criterion.

Typical flow::

    from distillab import (
        default_config, synthesize_toy_dataset, train_detector,
        LatentCodec, train_autoencoder, train_denoiser,
        DiffusionCandidateGenerator, distill, SeededRng,
    )

Each stage takes its section of ``default_config()`` (see ``config``), or
drive everything from the CLI: ``distillab synth-data`` through
``distillab report``.
"""

from .config import (
    AutoencoderConfig,
    DenoiserConfig,
    DetectorConfig,
    DistillConfig,
    EvalConfig,
    RunConfig,
    ToyDataSpec,
    default_config,
)
from .data import (
    LabeledDataset,
    MixedSample,
    cutmix,
    read_dataset,
    synthesize_toy_dataset,
    write_dataset,
)
from .diffusion import (
    Denoiser,
    DiffusionSchedule,
    build_schedule,
    forward_noise,
    load_denoiser,
    sample_img2img_batch,
    save_denoiser,
    train_denoiser,
)
from .evalharness import (
    AblationInputs,
    EvalReport,
    evaluate,
    run_ablation,
    run_sensitivity,
    train_downstream,
)
from .models import (
    Detector,
    LatentCodec,
    load_autoencoder,
    load_detector,
    predict_batch,
    save_autoencoder,
    save_detector,
    train_autoencoder,
    train_detector,
)
from .numerics import SeededRng, cosine_similarity, softmax
from .prototypes import (
    KmeansResult,
    Prototype,
    extract_prototypes,
    kmeans,
    read_prototypes,
    write_prototypes,
)
from .refine import (
    CandidateBank,
    CandidateGenerator,
    DiffusionCandidateGenerator,
    DistillResult,
    NormalPool,
    SyntheticSample,
    cumulative_similarity,
    distill,
    generate_candidates,
    select,
    select_replacement,
)

__version__ = "0.1.0"

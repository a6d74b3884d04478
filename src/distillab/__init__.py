"""Desk-scale detector-guided dataset distillation.

Synthesizes a compact labeled dataset from per-class latent prototypes
with a small conditional diffusion model, then detects and replaces
defective synthetic samples using a trained classifier's confidence and a
feature-diversity criterion.

Typical flow::

    from distillab import (
        ToyDataSpec, synthesize_toy_dataset, train_detector, TrainConfig,
        LatentCodec, train_autoencoder, build_schedule, train_denoiser,
        DiffusionCandidateGenerator, DistillConfig, distill, SeededRng,
    )

or drive everything from the CLI: ``distillab synth-data`` through
``distillab report``.
"""

from .data import (
    LabeledDataset,
    MixedSample,
    ToyDataSpec,
    cutmix,
    read_dataset,
    sample_mix_ratio,
    synthesize_toy_dataset,
    write_dataset,
)
from .diffusion import (
    Denoiser,
    DenoiserTrainConfig,
    DiffusionSchedule,
    build_schedule,
    forward_noise,
    load_denoiser,
    sample_img2img,
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
    Autoencoder,
    Detector,
    LatentCodec,
    TrainConfig,
    decode,
    encode,
    extract_features,
    load_autoencoder,
    load_detector,
    predict,
    save_autoencoder,
    save_detector,
    train_autoencoder,
    train_detector,
)
from .numerics import SeededRng, cosine_similarity, gaussian, softmax
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
    DistillConfig,
    DistillResult,
    NormalPool,
    SyntheticSample,
    classify_sample,
    cumulative_similarity,
    distill,
    generate_candidates,
    select,
    select_replacement,
)

__version__ = "0.1.0"

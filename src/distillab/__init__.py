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

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 where they are unset, so that BLAS runs one
thread per process. A value set before the import is kept; numpy reads it
only if it is imported after ``distillab``. Whatever the import order,
``numerics.fan_out`` runs each share at one OpenBLAS thread, set through
the library's own call: it pins each share to one core, and a BLAS thread
per core in every share would crowd that core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

# what the demos, the README's quickstart and the flow above import; every
# other name is imported from its module
from .config import ToyDataSpec, default_config
from .data import cutmix, read_dataset, synthesize_toy_dataset, write_dataset
from .diffusion import build_schedule, forward_noise, sample_img2img_batch, train_denoiser
from .evalharness import evaluate, run_ablation, train_downstream
from .models import LatentCodec, predict_batch, train_autoencoder, train_detector
from .numerics import SeededRng
from .refine import DiffusionCandidateGenerator, distill, generate_candidates, select

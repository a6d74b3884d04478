"""The full pipeline: prototypes, generation, anomaly filtering, refinement.

Uses the deliberately under-trained generator so there is something to
refine: defective slots (wrong predicted label, or confidence not above
beta) are regenerated 20 times from their own prototype, gated, ranked by
confidence, and the top-k survivor least similar to the accepted pool is
installed.
"""

from dataclasses import replace

import distillab  # noqa: F401  # before numpy: BLAS then runs one thread per process

import numpy as np

from distillab import (
    DiffusionCandidateGenerator,
    build_schedule,
    default_config,
    evaluate,
    generate_candidates,
    select,
    synthesize_toy_dataset,
    train_autoencoder,
    train_denoiser,
    train_detector,
    train_downstream,
)
from distillab.numerics import SeededRng

defaults = default_config()

# %% artifacts: data, detector, codec, weak (defect-prone: half the epochs) denoiser
train, test = synthesize_toy_dataset(defaults.data, SeededRng(0))
[det] = train_detector([train], defaults.detector, [SeededRng(2024)], use_cutmix=True)
codec = train_autoencoder(train, defaults.autoencoder, SeededRng(2025))
latents = codec.encode(train.images)
weak = replace(defaults.denoiser, epochs=50)
den = train_denoiser(latents, train.labels, weak, SeededRng(2026))
print("artifacts ready\n")

# %% distill with the full gate + diversity rule, seed 1
cfg = defaults.distill
# the generator samples on the denoiser's schedule, with the strength and
# guidance scale of the config it is given
sched = build_schedule(weak)
gen = DiffusionCandidateGenerator(denoiser=den, schedule=sched, decode_fn=codec.decode)
# generation and selection are separate phases: the bank holds every
# generated batch, scored once, and any selection mode can be run over it
bank = generate_candidates(train, codec.encode, gen, det, cfg, SeededRng(1))
res = select(bank, cfg)
c = res.report["counts"]
print(f"slots: {c['total']}  normal {c['normal']}  refined {c['refined']}  fallback {c['fallback']}")

# %% what refinement did, slot by slot (first few)
shown = 0
for slot in res.report["slots"]:
    if slot["status"] != "normal" and shown < 5:
        n_cand = len(slot.get("candidates", []))
        print(
            f"  class {slot['class']} cluster {slot['cluster']}: {slot['status']}"
            f" (picked candidate {slot['candidate_index']} of {n_cand},"
            f" confidence {slot['confidence']:.3f})"
        )
        shown += 1

# %% compare against the unrefined baseline downstream (same bank, no regeneration)
base = select(bank, replace(cfg, selection_mode="base"))
for name, r in (("base", base), ("tplus_s", res)):
    [clf] = train_downstream([r.dataset], defaults.eval, [SeededRng(33)])
    acc = evaluate(clf, test)
    print(f"downstream accuracy ({name:8s}): {acc:.4f}")

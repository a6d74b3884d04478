"""Selection-strategy ablation and the k/beta sensitivity sweep.

Compares base (keep everything), top1 (highest confidence, no gate), sim
(lowest pool similarity, no gate), and tplus_s (gate, rank, diversify)
across seeds, with a random-real-subset baseline. Then sweeps the
shortlist size k and the threshold beta, asserting on the way that raising
beta never grows a candidate batch's passing set.
"""

from dataclasses import replace

from distillab import AblationInputs, DiffusionCandidateGenerator, default_config, run_ablation, run_sensitivity
from distillab import synthesize_toy_dataset, train_autoencoder, train_denoiser, train_detector
from distillab.evalharness import sensitivity_csv
from distillab.numerics import SeededRng

defaults = default_config()

# %% artifacts (weak generator: half the denoiser epochs, so refinement matters)
train, test = synthesize_toy_dataset(defaults.data, SeededRng(0))
det = train_detector(train, defaults.detector, SeededRng(2024), use_cutmix=True)
codec = train_autoencoder(train, defaults.autoencoder, SeededRng(2025))
sched = defaults.denoiser.schedule()
den = train_denoiser(
    codec.encode(train.images), train.labels, sched,
    replace(defaults.denoiser, epochs=50), SeededRng(2026),
)
# one candidate generator per generation config (strength, guidance scale)
inputs = AblationInputs(
    train=train, test=test, encode_fn=codec.encode, detector=det,
    generator_factory=lambda cfg: DiffusionCandidateGenerator(
        denoiser=den, schedule=sched, decode_fn=codec.decode,
        strength=cfg.strength, guidance_scale=cfg.guidance_scale,
    ),
)

# %% the mode x seed grid (2 seeds here; the acceptance suite runs 3)
report = run_ablation(inputs, defaults.distill, replace(defaults.eval, seeds=[1, 2]))
print("mode        mean    std     fallbacks")
for mode, s in report.summary.items():
    std = f"{s['std']:.4f}" if s["std"] is not None else "  -   "
    print(f"{mode:10s} {s['mean']:.4f}  {std}  {s['fallbacks']}")

# %% sensitivity: a reduced k x beta grid on the first seed
grid, evidence = run_sensitivity(
    inputs, defaults.distill,
    replace(defaults.eval, seeds=[1], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9]),
)
print(f"\nmonotone filter checked on {evidence['slots_checked']} slots")
print(sensitivity_csv(grid))

"""Selection-strategy ablation and the k/beta sensitivity sweep.

Compares base (keep everything), top1 (highest confidence, no gate), sim
(lowest pool similarity, no gate), and tplus_s (gate, rank, diversify)
across seeds, with a random-real-subset baseline. Then sweeps the
shortlist size k and the threshold beta, asserting on the way that raising
beta never grows a candidate batch's passing set.
"""

from dataclasses import replace

from distillab import DiffusionCandidateGenerator, build_schedule, default_config, run_ablation
from distillab import synthesize_toy_dataset, train_autoencoder, train_denoiser, train_detector
from distillab.evalharness import GRID_COLUMNS, summary_table, to_csv
from distillab.numerics import SeededRng

defaults = default_config()

# %% artifacts (weak generator: half the denoiser epochs, so refinement matters)
train, test = synthesize_toy_dataset(defaults.data, SeededRng(0))
[det] = train_detector([train], defaults.detector, [SeededRng(2024)], use_cutmix=True)
codec = train_autoencoder(train, defaults.autoencoder, SeededRng(2025))
weak = replace(defaults.denoiser, epochs=50)
den = train_denoiser(codec.encode(train.images), train.labels, weak, SeededRng(2026))
# one candidate generator, on the denoiser's schedule; each bank samples with
# its own config's strength and guidance scale
gen = DiffusionCandidateGenerator(den, build_schedule(weak), codec.decode)

# %% the mode x seed grid (2 seeds here; the acceptance suite runs 3) and a
# reduced k x beta grid on the first seed, all trained in one round
eval_cfg = replace(defaults.eval, seeds=[1, 2], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9])
payload, (grid, evidence) = run_ablation(train, test, codec.encode, gen, det, defaults.distill, eval_cfg, sweep=True)
print(summary_table(payload["summary"]), end="")

# %% sensitivity
print(f"\nmonotone filter checked on {evidence['slots_checked']} slots")
print(to_csv(grid, GRID_COLUMNS))

"""Downstream evaluation: classifiers trained on distilled data, ablations.

Measures what the distilled set is worth: train a fresh classifier on it
(plain one-hot cross-entropy, no CutMix) and report Top-1 accuracy on the
held-out test split. The ablation runner compares the selection modes
(base / top1 / sim / tplus_s) across seeds, with a random-real-subset
baseline, and the sensitivity runner sweeps the shortlist size and the
confidence threshold.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .config import DistillConfig, EvalConfig
from .data import LabeledDataset
from .models import Detector, predict_batch, train_detector
from .numerics import SeededRng
from .refine import CandidateBank, CandidateGenerator, generate_candidates, generation_key, select

__all__ = [
    "AblationInputs",
    "EvalReport",
    "RunRecord",
    "evaluate",
    "run_ablation",
    "run_sensitivity",
    "train_downstream",
]

_KEY_DOWNSTREAM = 21
_KEY_BASELINE = 22


def train_downstream(distilled: LabeledDataset, cfg: EvalConfig, rng: SeededRng) -> Detector:
    """Train a fresh detector-architecture classifier on the distilled set.

    Always plain one-hot targets: CutMix is a property of detector training
    on the original data, not of downstream validation.
    """
    if len(distilled) == 0:
        raise ValueError("distilled dataset is empty")
    return train_detector(distilled, cfg, rng, use_cutmix=False)


def _train_job(job: tuple[LabeledDataset, EvalConfig, SeededRng]) -> Detector:
    return train_downstream(*job)


def _train_all(jobs: list[tuple[LabeledDataset, EvalConfig, SeededRng]]) -> list[Detector]:
    """``train_downstream(*job)`` for every job, in order, on every usable core.

    The jobs run on ``min(len(jobs), usable cores)`` forked worker processes,
    or in this process when that is one. A job's classifier depends only on
    the job, so the result does not depend on the worker count. An exception
    raised in a worker is raised here with its type; a worker that dies
    raises ``BrokenProcessPool`` instead of leaving the call waiting.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(jobs), cores)
    if workers <= 1:
        return [_train_job(job) for job in jobs]
    # imported here, as every command imports this module: they cost 20 ms and 1 MB
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: the workers start with the modules already loaded, and the
    # executor forks them all before it starts its own thread
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_train_job, jobs))


def evaluate(classifier: Detector, test: LabeledDataset) -> float:
    """Top-1 accuracy of the classifier on a held-out set."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    labels, _, _ = predict_batch(classifier, test.images)
    return float((labels == test.labels).mean())


@dataclass(frozen=True)
class RunRecord:
    mode: str
    seed: int
    accuracy: float
    fallback_count: int


@dataclass
class EvalReport:
    """Per-run records plus per-mode aggregates (mean, std over seeds)."""

    records: list[RunRecord]
    summary: dict[str, dict]
    config_fingerprint: str

    def to_json(self) -> str:
        payload = {
            "records": [vars(r) for r in self.records],
            "summary": self.summary,
            "config_fingerprint": self.config_fingerprint,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["mode", "seed", "accuracy", "fallback_count"])
        for r in self.records:
            writer.writerow([r.mode, r.seed, f"{r.accuracy:.6f}", r.fallback_count])
        return buf.getvalue()


def summarize_records(records: list[RunRecord]) -> dict[str, dict]:
    """Mean and std (ddof=1, absent when fewer than 2 seeds) per mode."""
    out: dict[str, dict] = {}
    for mode in sorted({r.mode for r in records}):
        accs = [r.accuracy for r in records if r.mode == mode]
        entry = {"n": len(accs), "mean": float(np.mean(accs))}
        entry["std"] = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
        entry["fallbacks"] = int(sum(r.fallback_count for r in records if r.mode == mode))
        out[mode] = entry
    return out


@dataclass
class AblationInputs:
    """Everything a pipeline run needs besides the per-run config.

    ``generator`` samples with the config of each bank it generates.
    ``bank(cfg, seed)`` keeps one candidate bank per seed and generation
    key, so every run on a seed selects from the same batches.
    """

    train: LabeledDataset
    test: LabeledDataset
    encode_fn: Callable[[np.ndarray], np.ndarray]
    detector: Detector
    generator: CandidateGenerator
    _banks: dict[tuple, CandidateBank] = field(default_factory=dict, init=False, repr=False)

    def bank(self, cfg: DistillConfig, seed: int) -> CandidateBank:
        """The candidate bank for the seed and cfg's generation key, generated on first use."""
        key = (seed, *generation_key(cfg))
        if key not in self._banks:
            self._banks[key] = generate_candidates(
                self.train, self.encode_fn, self.generator, self.detector, cfg, SeededRng(seed)
            )
        return self._banks[key]


def _config_fingerprint(base_cfg: DistillConfig, eval_cfg: EvalConfig) -> str:
    import hashlib

    payload = json.dumps(
        {"distill": asdict(base_cfg), "eval": asdict(eval_cfg)}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _downstream_job(dataset: LabeledDataset, eval_cfg: EvalConfig, seed: int):
    """The downstream training of a run on ``seed``: every run on a seed trains from one stream."""
    return dataset, eval_cfg, SeededRng(seed).spawn(_KEY_DOWNSTREAM)


def _random_subset(train: LabeledDataset, ipc: int, rng: SeededRng) -> LabeledDataset:
    """ipc uniformly chosen real images per class, without replacement."""
    picks = []
    for c in range(train.num_classes):
        idx = train.class_indices(c)
        perm = rng.spawn(c).permutation(len(idx))
        picks.extend(idx[perm[:ipc]].tolist())
    return LabeledDataset(
        images=train.images[picks],
        labels=train.labels[picks],
        num_classes=train.num_classes,
        class_names=train.class_names,
        provenance={"source": "random-subset", "ipc": ipc},
    )


def run_ablation(inputs: AblationInputs, base_cfg: DistillConfig, eval_cfg: EvalConfig) -> EvalReport:
    """Every eval mode on every eval seed, plus a random-real-subset baseline per seed.

    Selection runs here, seed by seed; the downstream trainings then run
    together (``_train_all``).
    """
    runs, jobs = [], []
    for seed in eval_cfg.seeds:
        for mode in eval_cfg.modes:
            cfg = replace(base_cfg, selection_mode=mode)
            res = select(inputs.bank(cfg, seed), cfg)
            runs.append((mode, seed, res.report["counts"]["fallback"]))
            jobs.append(_downstream_job(res.dataset, eval_cfg, seed))
        subset = _random_subset(inputs.train, base_cfg.ipc, SeededRng(seed).spawn(_KEY_BASELINE))
        runs.append(("random", seed, 0))
        jobs.append(_downstream_job(subset, eval_cfg, seed))
    records = [
        RunRecord(mode, seed, accuracy=evaluate(clf, inputs.test), fallback_count=fallbacks)
        for (mode, seed, fallbacks), clf in zip(runs, _train_all(jobs))
    ]
    return EvalReport(
        records=records,
        summary=summarize_records(records),
        config_fingerprint=_config_fingerprint(base_cfg, eval_cfg),
    )


def _passing_set(candidates: list[dict], intended: int, beta: float) -> frozenset:
    return frozenset(
        c["index"]
        for c in candidates
        if c["predicted_label"] == intended and c["confidence"] > beta
    )


def run_sensitivity(
    inputs: AblationInputs, base_cfg: DistillConfig, eval_cfg: EvalConfig
) -> tuple[list[dict], dict]:
    """Sweep the shortlist size and confidence threshold on the first eval seed.

    The grid is ``eval_cfg.sensitivity_top_k`` x ``sensitivity_betas``.
    Returns (grid records, monotonicity evidence). Every cell selects from
    the one candidate bank of the seed (generation never reads k or beta),
    so a slot's candidate batch is the same in every cell that flags it by
    construction; the sweep still checks that it is. It also asserts the
    exact monotone-filter property: for a fixed candidate batch, raising
    beta never grows the passing set.
    """
    ks, betas, seed = eval_cfg.sensitivity_top_k, eval_cfg.sensitivity_betas, eval_cfg.seeds[0]
    grid, jobs = [], []
    slot_candidates: dict[tuple, dict[float, list[dict]]] = {}
    for k in sorted(ks):
        for beta in betas:
            cfg = replace(base_cfg, top_k=k, beta=beta, selection_mode="tplus_s")
            res = select(inputs.bank(cfg, seed), cfg)
            jobs.append(_downstream_job(res.dataset, eval_cfg, seed))
            grid.append(
                {
                    "top_k": k,
                    "beta": beta,
                    "seed": seed,
                    "accuracy": None,
                    "fallback_count": res.report["counts"]["fallback"],
                    "refined_count": res.report["counts"]["refined"],
                }
            )
            for slot in res.report["slots"]:
                if "candidates" not in slot:
                    continue
                key = (slot["class"], slot["cluster"])
                slot_candidates.setdefault(key, {})[beta] = slot["candidates"]
    for row, clf in zip(grid, _train_all(jobs)):
        row["accuracy"] = evaluate(clf, inputs.test)
    checked_slots = 0
    for key, by_beta in slot_candidates.items():
        betas_here = sorted(by_beta)
        # identical candidate batches across runs for the same slot
        first = by_beta[betas_here[0]]
        for b in betas_here[1:]:
            assert by_beta[b] == first, f"candidate batch for slot {key} varies with beta"
        intended = key[0]
        sets = [_passing_set(first, intended, b) for b in betas_here]
        for lo, hi in zip(sets, sets[1:]):
            assert hi <= lo, f"raising beta grew the passing set for slot {key}"
        checked_slots += 1
    evidence = {"slots_checked": checked_slots, "betas": sorted(betas), "ks": sorted(ks)}
    return grid, evidence


def sensitivity_csv(grid: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["top_k", "beta", "seed", "accuracy", "fallback_count", "refined_count"])
    for row in grid:
        writer.writerow(
            [
                row["top_k"],
                row["beta"],
                row["seed"],
                f"{row['accuracy']:.6f}",
                row["fallback_count"],
                row["refined_count"],
            ]
        )
    return buf.getvalue()

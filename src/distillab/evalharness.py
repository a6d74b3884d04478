"""Downstream evaluation: classifiers trained on distilled data, ablations.

Measures what the distilled set is worth: train a fresh classifier on it
(plain one-hot cross-entropy, no CutMix) and report Top-1 accuracy on the
held-out test split. The ablation runner compares the selection modes
(base / top1 / sim / tplus_s) across seeds, with a random-real-subset
baseline, and optionally sweeps the shortlist size and the confidence
threshold.

One runner, ``run_ablation``, does both: it selects every run from one
candidate bank per seed, checks the sweep, then trains every run's
downstream classifier in one round (``_train_all``: each distinct job once,
on every usable core, each core's share in lockstep) and scores the
classifiers in run order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .config import DistillConfig, EvalConfig
from .data import LabeledDataset
from .models import Detector, predict_batch, train_detector
from .numerics import SeededRng, fan_out
from .refine import CandidateGenerator, generate_candidates, is_accepted, select

__all__ = [
    "AblationInputs",
    "EvalReport",
    "RunRecord",
    "SweepCheckError",
    "evaluate",
    "run_ablation",
    "train_downstream",
]

_KEY_DOWNSTREAM = 21
_KEY_BASELINE = 22


class SweepCheckError(RuntimeError):
    """The sensitivity sweep found a slot whose candidate batch or passing set breaks its invariant."""


def train_downstream(datasets: list[LabeledDataset], cfg: EvalConfig, rngs: list[SeededRng]) -> list[Detector]:
    """Train a fresh detector-architecture classifier on each distilled set, in lockstep.

    ``train_detector`` with plain one-hot targets: the sets must be
    non-empty and agree in size, image shape and class count, and each
    classifier equals training it alone. CutMix is a property of detector
    training on the original data, not of downstream validation.
    """
    return train_detector(datasets, cfg, rngs, use_cutmix=False)


def _job_key(job: tuple[LabeledDataset, SeededRng]) -> tuple:
    """Everything training the job reads besides the eval config; jobs with one key train one classifier.

    That is the image and label arrays (dtype, shape and bytes),
    ``num_classes`` and the stream's seed and counter.
    """
    dataset, rng = job
    digest = hashlib.sha256()
    for arr in (dataset.images, dataset.labels):
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr))
    return digest.digest(), dataset.num_classes, repr(rng)


# At most this many classifiers train in one stack. Each holds its weights,
# Adam state and gradients for the whole training, and a larger stack is no
# faster per classifier: on a 2-core Xeon, 12 downstream classifiers of 80
# epochs took 1.76-2.02 s one at a time, 1.50-1.93 s two at a time, 1.46-1.75 s
# three at a time and 1.57-1.85 s six at a time, and stacks of 4 raised the
# peak RSS of the default ``ablate --sweep`` by 1 MB.
_LOCKSTEP_JOBS = 3


def _train_share(jobs: list[tuple[LabeledDataset, SeededRng]], cfg: EvalConfig) -> list[Detector]:
    """One classifier per job, trained in the fewest lockstep stacks of at most ``_LOCKSTEP_JOBS``.

    The stacks are of near-equal sizes, and each is one ``train_downstream`` call.
    """
    out = []
    for stack in np.array_split(np.arange(len(jobs)), -(-len(jobs) // _LOCKSTEP_JOBS)):
        datasets, rngs = zip(*(jobs[i] for i in stack))
        out.extend(train_downstream(list(datasets), cfg, list(rngs)))
    return out


def _train_all(jobs: list[tuple[LabeledDataset, SeededRng]], cfg: EvalConfig) -> list[Detector]:
    """A classifier for every (dataset, rng) job under ``cfg``, in job order, training each distinct job once.

    The distinct jobs (by ``_job_key``) are handed out in first-seen order
    in one ``fan_out`` on every usable core, and each core trains its share
    in lockstep (``_train_share``), so the jobs must agree in size, image
    shape and class count; a repeated job gets the classifier of its first
    occurrence. A job's classifier depends only on the job and ``cfg``, so
    the result depends neither on the core count nor on the jobs it trained
    with.
    """
    keys = [_job_key(job) for job in jobs]
    distinct: dict[tuple, tuple] = {}
    for key, job in zip(keys, jobs):
        distinct.setdefault(key, job)
    trained = dict(zip(distinct, fan_out(lambda share: _train_share(share, cfg), distinct.values())))
    return [trained[key] for key in keys]


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


@dataclass(frozen=True)
class AblationInputs:
    """Everything an ablation runs on besides its configs.

    ``generator`` samples with the config of each bank it generates.
    """

    train: LabeledDataset
    test: LabeledDataset
    encode_fn: Callable[[np.ndarray], np.ndarray]
    detector: Detector
    generator: CandidateGenerator


def _config_fingerprint(base_cfg: DistillConfig, eval_cfg: EvalConfig) -> str:
    payload = json.dumps(
        {"distill": asdict(base_cfg), "eval": asdict(eval_cfg)}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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


def run_ablation(
    inputs: AblationInputs, base_cfg: DistillConfig, eval_cfg: EvalConfig, sweep: bool = False
) -> tuple[EvalReport, tuple[list[dict], dict] | None]:
    """The ablation's ``EvalReport`` and, with ``sweep``, the sensitivity sweep's (grid, evidence).

    The ablation runs every eval mode on every eval seed plus a random-real
    subset per seed; the sweep runs ``tplus_s`` in each ``sensitivity_top_k``
    x ``sensitivity_betas`` cell on the first eval seed. Each seed generates
    one candidate bank, selects every run on the seed from it (generation
    never reads the mode, k or beta) and drops it, so every run equals a
    standalone ``distill``. The sweep is checked (``check_sweep_slots``) as
    soon as its cells are selected, before any training; then every run's
    classifier trains in one ``_train_all`` round, the ablation's runs
    before the sweep's, each run on a seed from the same stream, so the runs
    differ in their training set only.
    """
    runs, trainings, grid, sweep_trainings = [], [], [], []
    for seed in eval_cfg.seeds:
        bank = generate_candidates(
            inputs.train, inputs.encode_fn, inputs.generator, inputs.detector, base_cfg, SeededRng(seed)
        )
        for mode in eval_cfg.modes:
            res = select(bank, replace(base_cfg, selection_mode=mode))
            runs.append((mode, seed, res.report["counts"]["fallback"]))
            trainings.append((res.dataset, seed))
        subset = _random_subset(inputs.train, base_cfg.ipc, SeededRng(seed).spawn(_KEY_BASELINE))
        runs.append(("random", seed, 0))
        trainings.append((subset, seed))
        if sweep and seed == eval_cfg.seeds[0]:
            ks, betas = sorted(eval_cfg.sensitivity_top_k), eval_cfg.sensitivity_betas
            slot_candidates: dict[tuple, list[tuple[float, list[dict]]]] = {}
            for k in ks:
                for beta in betas:
                    res = select(bank, replace(base_cfg, top_k=k, beta=beta, selection_mode="tplus_s"))
                    sweep_trainings.append((res.dataset, seed))
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
                        slot_candidates.setdefault(key, []).append((beta, slot["candidates"]))
            evidence = {"slots_checked": check_sweep_slots(slot_candidates), "betas": sorted(betas), "ks": ks}
        del bank  # one bank alive at a time; the next bank and the trainings reuse its memory

    classifiers = _train_all(
        [(dataset, SeededRng(seed).spawn(_KEY_DOWNSTREAM)) for dataset, seed in trainings + sweep_trainings], eval_cfg
    )
    accuracies = [evaluate(clf, inputs.test) for clf in classifiers]
    records = [
        RunRecord(mode, seed, accuracy=acc, fallback_count=fallbacks)
        for (mode, seed, fallbacks), acc in zip(runs, accuracies)
    ]
    for row, acc in zip(grid, accuracies[len(runs):]):
        row["accuracy"] = acc
    report = EvalReport(
        records=records,
        summary=summarize_records(records),
        config_fingerprint=_config_fingerprint(base_cfg, eval_cfg),
    )
    return report, (grid, evidence) if sweep else None


def _passing_set(candidates: list[dict], intended: int, beta: float) -> frozenset:
    return frozenset(
        c["index"] for c in candidates if is_accepted(c["predicted_label"], c["confidence"], intended, beta)
    )


def check_sweep_slots(slot_candidates: dict[tuple, list[tuple[float, list[dict]]]]) -> int:
    """Check every refined slot of a sweep; return how many were checked.

    ``slot_candidates[(class, cluster)]`` lists the (beta, candidate
    records) of each cell that refined the slot. Every cell must report
    the same batch, and raising beta must never grow the set of candidates
    that pass the gate. Raises SweepCheckError naming the first slot that
    fails, also under ``python -O``.
    """
    for key, cells in slot_candidates.items():
        first = cells[0][1]
        if any(batch != first for _, batch in cells[1:]):
            raise SweepCheckError(f"candidate batch for slot {key} varies across the grid")
        sets = [_passing_set(first, key[0], b) for b in sorted({b for b, _ in cells})]
        if any(not hi <= lo for lo, hi in zip(sets, sets[1:])):
            raise SweepCheckError(f"raising beta grew the passing set for slot {key}")
    return len(slot_candidates)


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

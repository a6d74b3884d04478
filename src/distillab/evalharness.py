"""Downstream evaluation: classifiers trained on distilled data, ablations.

Measures what the distilled set is worth: train a fresh classifier on it
(plain one-hot cross-entropy, no CutMix) and report Top-1 accuracy on the
held-out test split. The ablation runner compares the selection modes
(base / top1 / sim / tplus_s) across seeds, with a random-real-subset
baseline, and optionally sweeps the shortlist size and the confidence
threshold.

Both run in two phases, ``score_runs(select_runs(...), test, eval_cfg)``:
``select_runs`` selects every run from one candidate bank per seed and
checks the sweep, then ``score_runs`` trains every run's downstream
classifier in one round (``_train_all``: each distinct job once, on every
usable core, each core's share in lockstep) and scores the classifiers in
run order. Between the two a caller may drop its training set and models,
as ``distillab ablate`` does. The result is the ``ablation.json`` payload
as a plain dict and, with ``sweep``, the sweep's (grid, evidence);
``to_csv`` and ``summary_table`` render them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, replace
from typing import Callable

import numpy as np

from .config import DistillConfig, EvalConfig, sha256
from .data import LabeledDataset
from .models import Detector, predict_batch, train_detector
from .numerics import SeededRng, fan_out
from .refine import CandidateGenerator, generate_candidates, is_accepted, select

__all__ = [
    "GRID_COLUMNS",
    "RECORD_COLUMNS",
    "SweepCheckError",
    "evaluate",
    "score_runs",
    "select_runs",
    "summary_table",
    "to_csv",
    "train_downstream",
]

_KEY_DOWNSTREAM = 21
_KEY_BASELINE = 22
# the columns of ablation.csv (one row per record) and sensitivity.csv (one per grid cell)
RECORD_COLUMNS = ["mode", "seed", "accuracy", "fallback_count"]
GRID_COLUMNS = ["top_k", "beta", "seed", "accuracy", "fallback_count", "refined_count"]


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
    digest = sha256()
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


def _summarize(records: list[dict]) -> dict[str, dict]:
    """Mean and std (ddof=1, absent when fewer than 2 seeds) per mode."""
    out: dict[str, dict] = {}
    for mode in sorted({r["mode"] for r in records}):
        accs = [r["accuracy"] for r in records if r["mode"] == mode]
        entry = {"n": len(accs), "mean": float(np.mean(accs))}
        entry["std"] = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
        entry["fallbacks"] = int(sum(r["fallback_count"] for r in records if r["mode"] == mode))
        out[mode] = entry
    return out


def summary_table(summary: dict[str, dict]) -> str:
    """The per-mode table of an ablation summary, one line per mode in name order."""
    lines = ["mode        mean      std       n   fallbacks"]
    for mode, s in sorted(summary.items()):
        std = f"{s['std']:.4f}" if s["std"] is not None else "   -  "
        lines.append(f"{mode:10s} {s['mean']:.4f}   {std}   {s['n']}   {s['fallbacks']}")
    return "\n".join(lines) + "\n"


def to_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV text of ``rows`` under a ``columns`` header; ``accuracy`` is written to 6 decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([f"{row[c]:.6f}" if c == "accuracy" else row[c] for c in columns])
    return buf.getvalue()


def _config_fingerprint(base_cfg: DistillConfig, eval_cfg: EvalConfig) -> str:
    payload = json.dumps(
        {"distill": asdict(base_cfg), "eval": asdict(eval_cfg)}, sort_keys=True
    )
    return sha256(payload.encode()).hexdigest()[:16]


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


def select_runs(
    train: LabeledDataset,
    encode_fn: Callable[[np.ndarray], np.ndarray],
    gen: CandidateGenerator,
    det: Detector,
    base_cfg: DistillConfig,
    eval_cfg: EvalConfig,
    sweep: bool = False,
) -> tuple[dict, tuple[list[dict], dict] | None, list[tuple[LabeledDataset, int]]]:
    """Phase one of an ablation: every run selected and the sweep checked, for ``score_runs``.

    Returns the ``ablation.json`` payload without its ``summary``, the
    sweep's (grid, evidence) with ``sweep``, every accuracy None, and each
    run's (training set, seed): the ablation's runs in record order, then
    the sweep's in grid order. None of it refers to ``train``, ``gen`` or
    ``det``, so a caller may drop them before ``score_runs``.

    The ablation runs every eval mode on every eval seed plus a random-real
    subset per seed; the sweep runs ``tplus_s`` in each
    ``sensitivity_top_k`` x ``sensitivity_betas`` cell on the first eval
    seed. Each seed generates one candidate bank, selects every run on the
    seed from it (generation never reads the mode, k or beta) and drops it,
    so every run equals ``select(generate_candidates(...), cfg)`` of its
    config; ``gen`` samples with the config of each bank it generates. The
    sweep is checked (``check_sweep_slots``) as soon as its cells are
    selected.
    """
    records, trainings, grid, sweep_trainings = [], [], [], []
    for seed in eval_cfg.seeds:
        bank = generate_candidates(train, encode_fn, gen, det, base_cfg, SeededRng(seed))
        for mode in eval_cfg.modes:
            res = select(bank, replace(base_cfg, selection_mode=mode))
            fallbacks = res.report["counts"]["fallback"]
            records.append({"mode": mode, "seed": seed, "accuracy": None, "fallback_count": fallbacks})
            trainings.append((res.dataset, seed))
        subset = _random_subset(train, base_cfg.ipc, SeededRng(seed).spawn(_KEY_BASELINE))
        records.append({"mode": "random", "seed": seed, "accuracy": None, "fallback_count": 0})
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
    payload = {"records": records, "config_fingerprint": _config_fingerprint(base_cfg, eval_cfg)}
    return payload, (grid, evidence) if sweep else None, trainings + sweep_trainings


def score_runs(selected: tuple, test: LabeledDataset, eval_cfg: EvalConfig) -> tuple[dict, tuple | None]:
    """Phase two of an ablation: ``select_runs``'s payload and sweep, scored.

    Every run's classifier trains in one ``_train_all`` round, the
    ablation's runs before the sweep's, each run on a seed from the same
    stream, so the runs differ in their training set only. Each run's
    accuracy on ``test`` fills its record or grid row, and the payload gets
    its per-mode ``summary``.
    """
    payload, sensitivity, trainings = selected
    jobs = [(dataset, SeededRng(seed).spawn(_KEY_DOWNSTREAM)) for dataset, seed in trainings]
    classifiers = _train_all(jobs, eval_cfg)
    for row, clf in zip(payload["records"] + (sensitivity[0] if sensitivity else []), classifiers):
        row["accuracy"] = evaluate(clf, test)
    payload["summary"] = _summarize(payload["records"])
    return payload, sensitivity


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

"""Anomaly detection on synthetic samples and diversity-aware refinement.

The pipeline: extract per-class prototypes, generate one sample per
prototype, flag samples whose predicted label mismatches the intent or
whose confidence is not above the threshold, then regenerate each
defective slot from its originating prototype. Replacement candidates are
gated by the same label/confidence rule, ranked by confidence, and the
survivor least similar (cumulative cosine) to the class's accepted pool is
chosen, trading confidence for intra-class diversity.

It runs in two phases. Generation (``generate_candidates``) reads only its
rng and the config fields in ``GENERATION_FIELDS``, and yields a
``CandidateBank``: the prototypes and every generated batch, each scored
once by the detector.
Selection (``select``) applies the gate, pool, shortlist, similarity and
fallback for one config. Generation never reads the selection knobs (beta,
top_k, selection_mode), so one bank serves every selection mode and every
(k, beta) cell on a seed, with outputs equal to a standalone ``distill``
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from .config import DistillConfig
from .data import LabeledDataset
from .models import Detector, predict_batch
from .numerics import SeededRng, cosine_similarity
from .prototypes import Prototype, extract_prototypes

__all__ = [
    "GENERATION_FIELDS",
    "CandidateBank",
    "CandidateGenerator",
    "DiffusionCandidateGenerator",
    "DistillResult",
    "NormalPool",
    "SyntheticSample",
    "cumulative_similarity",
    "distill",
    "generate_candidates",
    "generation_key",
    "is_accepted",
    "select",
    "select_replacement",
]

STATUS_NORMAL = "normal"
STATUS_REFINED = "refined"
STATUS_FALLBACK = "fallback"

# spawn() key domains, keeping generation streams disjoint across pipeline stages
_KEY_PROTO = 11
_KEY_INITIAL = 12
_KEY_REFINE = 13


@dataclass(frozen=True)
class Provenance:
    class_id: int
    cluster_index: int
    candidate_index: int | None  # None for the initial generation pass
    seed: int  # seed of the rng stream that generated the sample


@dataclass(frozen=True)
class SyntheticSample:
    """A generated image with its detector verdict and feature vector."""

    image: np.ndarray
    latent: np.ndarray
    intended_label: int
    predicted_label: int
    confidence: float
    feature: np.ndarray
    status: str
    provenance: Provenance


class NormalPool:
    """Per-class feature vectors of currently accepted samples."""

    def __init__(self, num_classes: int):
        self._pools: dict[int, list[np.ndarray]] = {c: [] for c in range(num_classes)}

    def add(self, class_id: int, feature: np.ndarray) -> None:
        self._pools[class_id].append(np.asarray(feature, dtype=np.float32))

    def features(self, class_id: int) -> list[np.ndarray]:
        return list(self._pools[class_id])

    def size(self, class_id: int) -> int:
        return len(self._pools[class_id])


class CandidateGenerator(Protocol):
    """Contract for sample producers: one batch of samples for one class.

    ``generate_batch(prototype, label, rngs)`` returns stacked (images,
    latents) with one row per rng stream. ``prototype`` is one latent, used
    for every row, or one latent per row. Implementations must be
    deterministic per rng stream.
    """

    def generate_batch(self, prototype: np.ndarray, label: int, rngs: list[SeededRng]): ...


@dataclass(frozen=True)
class DiffusionCandidateGenerator:
    """Candidate generator backed by the guided diffusion sampler."""

    denoiser: object
    schedule: object
    decode_fn: Callable[[np.ndarray], np.ndarray]
    strength: float
    guidance_scale: float

    def generate_batch(self, prototype: np.ndarray, label: int, rngs):
        from .diffusion import sample_img2img_batch

        protos = np.atleast_2d(np.asarray(prototype))
        if len(protos) == 1 and len(rngs) > 1:
            protos = np.repeat(protos, len(rngs), axis=0)
        latents = sample_img2img_batch(
            self.denoiser,
            self.schedule,
            protos,
            label,
            self.strength,
            self.guidance_scale,
            rngs,
        )
        return self.decode_fn(latents), latents


def is_accepted(predicted_label: int, confidence: float, intended_label: int, beta: float) -> bool:
    """The acceptance rule: label agreement and strictly above-threshold confidence."""
    return predicted_label == intended_label and confidence > beta


def cumulative_similarity(feature: np.ndarray, pool: NormalPool, class_id: int) -> float:
    """Sum of cosine similarities against the class pool; empty pool -> 0."""
    feats = pool.features(class_id)
    return float(sum(cosine_similarity(feature, n) for n in feats))


def select_replacement(
    candidates: list[SyntheticSample],
    pool: NormalPool,
    top_k: int,
    beta: float,
) -> int | None:
    """Gate, rank, diversify: index of the chosen candidate, or None.

    Keep candidates with matching predicted label and confidence strictly
    above beta; of those, rank by confidence (ties to the lower index) and
    keep the top k; return the one with the lowest cumulative similarity to
    the accepted pool (ties to higher confidence, then lower index).
    """
    passing = [
        i
        for i, c in enumerate(candidates)
        if is_accepted(c.predicted_label, c.confidence, c.intended_label, beta)
    ]
    if not passing:
        return None
    ranked = sorted(passing, key=lambda i: (-candidates[i].confidence, i))
    shortlist = ranked[:top_k]
    scored = [
        (cumulative_similarity(candidates[i].feature, pool, candidates[i].intended_label), -candidates[i].confidence, i)
        for i in shortlist
    ]
    return min(scored)[2]


def _fallback_choice(candidates: list[SyntheticSample]) -> int:
    """Best-effort slot filler: highest-confidence label-matching candidate,
    else highest-confidence overall (ties to the lower index)."""
    matching = [i for i, c in enumerate(candidates) if c.predicted_label == c.intended_label]
    indices = matching if matching else range(len(candidates))
    return min(indices, key=lambda i: (-candidates[i].confidence, i))


def _score(det, images, latents, label, provenances):
    """One detector pass over a generated batch; the status is provisional."""
    labels, confs, feats = predict_batch(det, images)
    return [
        SyntheticSample(
            image=images[i],
            latent=latents[i],
            intended_label=label,
            predicted_label=int(labels[i]),
            confidence=float(confs[i]),
            feature=feats[i],
            status=STATUS_FALLBACK,  # provisional; select() sets the final status
            provenance=provenances[i],
        )
        for i in range(len(images))
    ]


# The DistillConfig fields that generation reads; select() may vary all the
# others (beta, top_k, selection_mode) over one bank.
GENERATION_FIELDS = ("ipc", "num_candidates", "strength", "guidance_scale", "kmeans_restarts")


def generation_key(cfg: DistillConfig) -> tuple:
    """Values of GENERATION_FIELDS; configs with equal keys share one bank."""
    return tuple(getattr(cfg, f) for f in GENERATION_FIELDS)


class CandidateBank:
    """Everything generation produces for one rng and generation key, scored once.

    Holds the prototypes and the scored initial sample of every slot, in
    slot order (class ascending, cluster ascending). A slot's refinement
    batch is generated and scored the first time a selection flags the
    slot, and kept for every later selection.
    """

    def __init__(self, cfg: DistillConfig, train: LabeledDataset, prototypes, initial, gen, det, rng: SeededRng):
        self.key = generation_key(cfg)
        self.num_candidates = cfg.num_candidates
        self.num_classes = train.num_classes
        self.class_names = train.class_names
        self.prototypes: list[Prototype] = prototypes
        self.initial: list[SyntheticSample] = initial
        self.rng = rng
        self._gen = gen
        self._det = det
        self._refinements: dict[int, list[SyntheticSample]] = {}

    def refinement(self, slot: int) -> list[SyntheticSample]:
        """The slot's scored candidates: num_candidates rows from its own prototype."""
        if slot not in self._refinements:
            proto = self.prototypes[slot]
            label, cluster = proto.class_id, proto.cluster_index
            slot_rng = self.rng.spawn(_KEY_REFINE, label, cluster)
            rngs = [slot_rng.spawn(i) for i in range(self.num_candidates)]
            images, latents = self._gen.generate_batch(proto.latent, label, rngs)
            provenances = [Provenance(label, cluster, i, r.seed) for i, r in enumerate(rngs)]
            self._refinements[slot] = _score(self._det, images, latents, label, provenances)
        return self._refinements[slot]


def generate_candidates(
    train: LabeledDataset,
    encode_fn: Callable[[np.ndarray], np.ndarray],
    gen: CandidateGenerator,
    det: Detector,
    cfg: DistillConfig,
    rng: SeededRng,
) -> CandidateBank:
    """Prototypes plus the scored initial pass, one generation call per class.

    Reads only the GENERATION_FIELDS of cfg. Refinement batches are left to
    the returned bank, which generates them on demand from ``rng``.
    """
    protos = extract_prototypes(encode_fn, train, cfg.ipc, rng.spawn(_KEY_PROTO), restarts=cfg.kmeans_restarts)
    initial: list[SyntheticSample | None] = [None] * len(protos)
    for c in range(train.num_classes):
        cls_protos = [p for p in protos if p.class_id == c]
        rngs = [rng.spawn(_KEY_INITIAL, c, p.cluster_index) for p in cls_protos]
        latvecs = np.stack([p.latent for p in cls_protos])
        images, latents = gen.generate_batch(latvecs, c, rngs)
        provenances = [Provenance(c, p.cluster_index, None, r.seed) for p, r in zip(cls_protos, rngs)]
        for p, s in zip(cls_protos, _score(det, images, latents, c, provenances)):
            initial[c * cfg.ipc + p.cluster_index] = s
    return CandidateBank(cfg, train, protos, initial, gen, det, rng)


def _refine_slot(candidates: list[SyntheticSample], pool: NormalPool, cfg: DistillConfig) -> SyntheticSample:
    """Pick a defective slot's replacement by selection mode, with its final status.

    The chosen sample joins the pool only when it passes the acceptance
    rule (status refined); fallback picks stay out of the pool.
    """
    label = candidates[0].intended_label
    mode = cfg.selection_mode
    if mode == "tplus_s":
        chosen = select_replacement(candidates, pool, cfg.top_k, cfg.beta)
    elif mode == "top1":
        chosen = min(range(len(candidates)), key=lambda i: (-candidates[i].confidence, i))
    elif mode == "sim":
        scored = [
            (cumulative_similarity(c.feature, pool, label), -c.confidence, i)
            for i, c in enumerate(candidates)
        ]
        chosen = min(scored)[2]
    else:
        raise ValueError(f"cannot refine a slot with selection_mode={mode!r}")
    if chosen is None:
        chosen = _fallback_choice(candidates)
        status = STATUS_FALLBACK
    else:
        cand = candidates[chosen]
        status = (
            STATUS_REFINED
            if is_accepted(cand.predicted_label, cand.confidence, cand.intended_label, cfg.beta)
            else STATUS_FALLBACK
        )
    sample = replace(candidates[chosen], status=status)
    if status == STATUS_REFINED:
        pool.add(label, sample.feature)
    return sample


def select(bank: CandidateBank, cfg: DistillConfig) -> "DistillResult":
    """Gate the initial pass, then refine the defective slots from the bank.

    Slots are processed in deterministic (class ascending, cluster
    ascending) order; per-class pools are seeded with the accepted initial
    samples in that same order before any refinement happens. When
    selection_mode is "base" defective slots are kept as generated
    (flagged fallback, excluded from the pool). Raises ValueError when cfg
    disagrees with the bank on a field that generation reads.
    """
    key = generation_key(cfg)
    if key != bank.key:
        diff = ", ".join(
            f"{f}={v!r} (bank: {b!r})" for f, v, b in zip(GENERATION_FIELDS, key, bank.key) if v != b
        )
        raise ValueError(f"config disagrees with the candidate bank: {diff}")
    samples = [
        replace(
            s,
            status=STATUS_NORMAL
            if is_accepted(s.predicted_label, s.confidence, s.intended_label, cfg.beta)
            else STATUS_FALLBACK,
        )
        for s in bank.initial
    ]
    pool = NormalPool(bank.num_classes)
    for s in samples:
        if s.status == STATUS_NORMAL:
            pool.add(s.intended_label, s.feature)
    # refinement pass over defective slots in slot order
    slot_records = []
    for slot, s in enumerate(samples):
        record = {
            "class": s.provenance.class_id,
            "cluster": s.provenance.cluster_index,
            "status": s.status,
            "predicted_label": s.predicted_label,
            "confidence": s.confidence,
            "candidate_index": s.provenance.candidate_index,
            "seed": s.provenance.seed,
        }
        if s.status != STATUS_NORMAL and cfg.selection_mode != "base":
            candidates = bank.refinement(slot)
            chosen = _refine_slot(candidates, pool, cfg)
            samples[slot] = chosen
            record.update(
                status=chosen.status,
                predicted_label=chosen.predicted_label,
                confidence=chosen.confidence,
                candidate_index=chosen.provenance.candidate_index,
                seed=chosen.provenance.seed,
                candidates=[
                    {
                        "index": i,
                        "predicted_label": c.predicted_label,
                        "confidence": c.confidence,
                    }
                    for i, c in enumerate(candidates)
                ],
            )
        slot_records.append(record)
    counts = {
        STATUS_NORMAL: sum(s.status == STATUS_NORMAL for s in samples),
        STATUS_REFINED: sum(s.status == STATUS_REFINED for s in samples),
        STATUS_FALLBACK: sum(s.status == STATUS_FALLBACK for s in samples),
    }
    report = {
        "config": {
            "ipc": cfg.ipc,
            "beta": cfg.beta,
            "top_k": cfg.top_k,
            "num_candidates": cfg.num_candidates,
            "guidance_scale": cfg.guidance_scale,
            "strength": cfg.strength,
            "seed": bank.rng.seed,
            "selection_mode": cfg.selection_mode,
        },
        "master_seed": bank.rng.seed,
        "counts": dict(counts, total=len(samples)),
        "slots": slot_records,
    }
    distilled = LabeledDataset(
        images=np.stack([s.image for s in samples]),
        labels=np.array([s.intended_label for s in samples], dtype=np.int64),
        num_classes=bank.num_classes,
        class_names=bank.class_names,
        provenance={
            "source": "distill",
            "seed": bank.rng.seed,
            "selection_mode": cfg.selection_mode,
            "counts": {k: int(v) for k, v in counts.items()},
        },
    )
    return DistillResult(
        dataset=distilled, report=report, samples=samples, pool=pool, prototypes=bank.prototypes
    )


def distill(
    train: LabeledDataset,
    encode_fn: Callable[[np.ndarray], np.ndarray],
    gen: CandidateGenerator,
    det: Detector,
    cfg: DistillConfig,
    rng: SeededRng,
) -> "DistillResult":
    """Run the full pipeline: ``select(generate_candidates(...), cfg)``."""
    return select(generate_candidates(train, encode_fn, gen, det, cfg, rng), cfg)


@dataclass
class DistillResult:
    """Distilled dataset plus the per-slot provenance report.

    ``samples``, ``pool``, and ``prototypes`` expose the pipeline's final
    state for tests and analysis; the JSON-ready ``report`` is what the CLI
    persists.
    """

    dataset: LabeledDataset
    report: dict
    samples: list[SyntheticSample]
    pool: NormalPool
    prototypes: list[Prototype]

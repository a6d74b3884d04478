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

Generation is split into independent jobs that ``fan_out`` runs on every
usable core: one per class (encoding, k-means and the class's initial
batch) and one per flagged slot (its refinement batch). A job reads only
its own rng streams, so the bank does not depend on the core count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from .config import DistillConfig
from .data import LabeledDataset
from .models import Detector, predict_batch
from .numerics import SeededRng, cosine_similarity, fan_out
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
    """Contract for sample producers: one batch of images for one class.

    ``generate_batch(prototypes, label, rngs, cfg)`` returns stacked images,
    one row per rng stream, generated from the prototype latent of that row
    with the sampler settings of ``cfg`` (only its GENERATION_FIELDS are
    read). Implementations must be deterministic per rng stream. Batches may
    be generated in forked worker processes, so a generator's own state
    must not depend on which batches it generated before.
    """

    def generate_batch(self, prototypes: np.ndarray, label: int, rngs: list[SeededRng], cfg: DistillConfig): ...


@dataclass(frozen=True)
class DiffusionCandidateGenerator:
    """Candidate generator backed by the guided diffusion sampler."""

    denoiser: object
    schedule: object
    decode_fn: Callable[[np.ndarray], np.ndarray]

    def generate_batch(self, prototypes: np.ndarray, label: int, rngs, cfg: DistillConfig):
        from .diffusion import sample_img2img_batch

        return self.decode_fn(
            sample_img2img_batch(
                self.denoiser, self.schedule, prototypes, label, cfg.strength, cfg.guidance_scale, rngs
            )
        )


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


def _score(det, images, label, provenances):
    """One detector pass over a generated batch; the status is provisional."""
    labels, confs, feats = predict_batch(det, images)
    return [
        SyntheticSample(
            image=images[i],
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
    slot order (class ascending, cluster ascending). Refinement batches are
    generated on request: ``refinements(slots)`` generates and scores the
    batches of the requested slots the bank does not hold yet, one job per
    slot on every usable core, and keeps them for every later selection. So
    a slot's batch is generated at most once, and only when some selection
    flags the slot.
    """

    def __init__(self, cfg: DistillConfig, train: LabeledDataset, prototypes, initial, gen, det, rng: SeededRng):
        self.key = generation_key(cfg)
        self.cfg = cfg
        self.num_classes = train.num_classes
        self.class_names = train.class_names
        self.prototypes: list[Prototype] = prototypes
        self.initial: list[SyntheticSample] = initial
        self.rng = rng
        self._gen = gen
        self._det = det
        self._refinements: dict[int, list[SyntheticSample]] = {}

    def _generate(self, slot: int) -> list[SyntheticSample]:
        """The slot's scored candidates: num_candidates rows from its own prototype."""
        proto = self.prototypes[slot]
        label, cluster = proto.class_id, proto.cluster_index
        slot_rng = self.rng.spawn(_KEY_REFINE, label, cluster)
        rngs = [slot_rng.spawn(i) for i in range(self.cfg.num_candidates)]
        latents = np.repeat(proto.latent[None], len(rngs), axis=0)
        images = self._gen.generate_batch(latents, label, rngs, self.cfg)
        provenances = [Provenance(label, cluster, i, r.seed) for i, r in enumerate(rngs)]
        return _score(self._det, images, label, provenances)

    def refinements(self, slots: list[int]) -> dict[int, list[SyntheticSample]]:
        """Each slot's scored candidates; missing batches are generated, one job per slot."""
        missing = [slot for slot in slots if slot not in self._refinements]
        self._refinements.update(zip(missing, fan_out(self._generate, missing)))
        return {slot: self._refinements[slot] for slot in slots}


def generate_candidates(
    train: LabeledDataset,
    encode_fn: Callable[[np.ndarray], np.ndarray],
    gen: CandidateGenerator,
    det: Detector,
    cfg: DistillConfig,
    rng: SeededRng,
) -> CandidateBank:
    """Prototypes plus the scored initial pass, one job per class on every usable core.

    A class's job encodes its images, runs k-means with
    ``rng.spawn(_KEY_PROTO).spawn(c)`` and generates and scores the class's
    initial batch in one generation call. Reads only the GENERATION_FIELDS
    of cfg. Refinement batches are left to the returned bank, which
    generates them on demand from ``rng``.
    """

    def class_job(c: int):
        protos = extract_prototypes(
            encode_fn, train, cfg.ipc, rng.spawn(_KEY_PROTO), restarts=cfg.kmeans_restarts, classes=[c]
        )
        rngs = [rng.spawn(_KEY_INITIAL, c, p.cluster_index) for p in protos]
        images = gen.generate_batch(np.stack([p.latent for p in protos]), c, rngs, cfg)
        provenances = [Provenance(c, p.cluster_index, None, r.seed) for p, r in zip(protos, rngs)]
        return protos, _score(det, images, c, provenances)

    jobs = fan_out(class_job, range(train.num_classes))
    protos = [p for class_protos, _ in jobs for p in class_protos]
    initial = [s for _, class_initial in jobs for s in class_initial]
    return CandidateBank(cfg, train, protos, initial, gen, det, rng)


def _refine_slot(candidates: list[SyntheticSample], pool: NormalPool, cfg: DistillConfig) -> SyntheticSample:
    """Pick a defective slot's replacement by selection mode, with its final status.

    Each mode makes a shortlist: ``tplus_s`` the pick of
    ``select_replacement``, ``top1`` the most confident candidate, ``sim``
    every candidate. The least similar candidate on it wins (ties to higher
    confidence, then lower index); an empty shortlist falls back to the most
    confident label-matching candidate, else the most confident overall.
    The chosen sample joins the pool only when it passes the acceptance
    rule (status refined); fallback picks stay out of the pool.
    """
    label = candidates[0].intended_label
    ranked = sorted(range(len(candidates)), key=lambda i: (-candidates[i].confidence, i))
    mode = cfg.selection_mode
    if mode == "tplus_s":
        chosen = select_replacement(candidates, pool, cfg.top_k, cfg.beta)
        shortlist = [] if chosen is None else [chosen]
    elif mode == "top1":
        shortlist = ranked[:1]
    elif mode == "sim":
        shortlist = ranked
    else:
        raise ValueError(f"cannot refine a slot with selection_mode={mode!r}")
    if shortlist:
        chosen = min(
            (cumulative_similarity(candidates[i].feature, pool, label), -candidates[i].confidence, i) for i in shortlist
        )[2]
    else:
        chosen = next((i for i in ranked if candidates[i].predicted_label == label), ranked[0])
    cand = candidates[chosen]
    accepted = is_accepted(cand.predicted_label, cand.confidence, label, cfg.beta)
    sample = replace(cand, status=STATUS_REFINED if accepted else STATUS_FALLBACK)
    if accepted:
        pool.add(label, sample.feature)
    return sample


def select(bank: CandidateBank, cfg: DistillConfig) -> "DistillResult":
    """Gate the initial pass, then refine the defective slots from the bank.

    Slots are processed in deterministic (class ascending, cluster
    ascending) order; per-class pools are seeded with the accepted initial
    samples in that same order before any refinement happens. When
    selection_mode is "base" defective slots are kept as generated
    (flagged fallback, excluded from the pool); otherwise the bank is asked
    for every flagged slot's batch before the slot loop, so the missing ones
    are generated together. Raises ValueError when cfg disagrees with the
    bank on a field that generation reads.
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
    flagged = [slot for slot, s in enumerate(samples) if s.status != STATUS_NORMAL]
    batches = bank.refinements(flagged) if cfg.selection_mode != "base" else {}
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
        if slot in batches:
            candidates = batches[slot]
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

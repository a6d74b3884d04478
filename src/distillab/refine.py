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
once by the detector into ``SyntheticSample`` records, which carry no
verdict. Selection (``select``) gives each slot its one verdict for one
config: the initial sample is kept (normal), a candidate replaces it
(refined), or the slot falls back. Generation never reads the selection
knobs (beta, top_k, selection_mode), so one bank serves every selection
mode and every (k, beta) cell on a seed, with outputs equal byte for byte
to ``select(generate_candidates(...), cfg)`` of that cell's config, which is
what ``distillab distill`` runs.

Generation is split into independent jobs that ``fan_out`` runs on every
usable core: one per class (encoding, k-means and the class's initial
batch) and one per flagged slot (its refinement batch). Each core's share
of jobs generates its batches in one generator call over a (slots, rows,
latent) stack, and each slot's batch is decoded and scored on its own. A
job reads only its own rng streams, and the sampler computes each slot of
a stack as it would alone, so the bank depends neither on the core count
nor on which slots share a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .config import DistillConfig
from .data import LabeledDataset
from .diffusion import sample_img2img_batch
from .models import Detector, predict_batch
from .numerics import SeededRng, cosine_similarity, fan_out
from .prototypes import Prototype, extract_prototypes

__all__ = [
    "GENERATION_FIELDS",
    "CandidateBank",
    "CandidateGenerator",
    "DiffusionCandidateGenerator",
    "DistillResult",
    "SyntheticSample",
    "cumulative_similarity",
    "generate_candidates",
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
class SyntheticSample:
    """A generated image, where it came from, and its detector scores.

    It has no status: ``select`` decides a slot's status once per config.
    """

    image: np.ndarray
    intended_label: int  # the class it was generated for
    cluster_index: int  # its prototype within the class
    candidate_index: int | None  # None for the initial generation pass
    seed: int  # seed of the rng stream that generated the sample
    predicted_label: int
    confidence: float
    feature: np.ndarray


class CandidateGenerator(Protocol):
    """Contract for sample producers: one image batch per slot of a stack.

    ``generate_batch(prototypes, labels, rngs, cfg)`` gets a (slots, rows,
    latent) stack of prototype latents, a tuple with each slot's class and
    one rng stream per row, slot after slot. It returns one stacked image
    batch per slot, one row per stream, generated from the prototype latent
    of that row with the sampler settings of ``cfg`` (only its
    GENERATION_FIELDS are read). Implementations must be deterministic per
    rng stream, and a slot's images must not depend on the other slots of
    its stack. Stacks may be generated in forked worker processes, so a
    generator's own state must not depend on which stacks it generated
    before.
    """

    def generate_batch(self, prototypes: np.ndarray, labels: tuple[int, ...], rngs: list[SeededRng], cfg: DistillConfig): ...


@dataclass(frozen=True)
class DiffusionCandidateGenerator:
    """Candidate generator backed by the guided diffusion sampler: one sampler call per stack, one decode per slot."""

    denoiser: object
    schedule: object
    decode_fn: Callable[[np.ndarray], np.ndarray]

    def generate_batch(self, prototypes: np.ndarray, labels: tuple[int, ...], rngs, cfg: DistillConfig):
        latents = sample_img2img_batch(
            self.denoiser, self.schedule, prototypes, labels, cfg.strength, cfg.guidance_scale, rngs
        )
        return [self.decode_fn(slot) for slot in latents]


def is_accepted(predicted_label: int, confidence: float, intended_label: int, beta: float) -> bool:
    """The acceptance rule: label agreement and strictly above-threshold confidence."""
    return predicted_label == intended_label and confidence > beta


def cumulative_similarity(feature: np.ndarray, pool: list[np.ndarray]) -> float:
    """Sum of cosine similarities against a class's pool features, in pool order; empty pool -> 0."""
    return float(sum(cosine_similarity(feature, n) for n in pool))


def select_replacement(candidates: list[SyntheticSample], pool: list[np.ndarray], cfg: DistillConfig) -> int:
    """Index of a defective slot's replacement among its candidates.

    The candidates, ranked by confidence (ties to the lower index), give a
    shortlist by selection mode: ``tplus_s`` the first ``top_k`` that pass
    ``is_accepted`` at ``beta``, ``top1`` the first, ``sim`` all of them.
    The shortlisted candidate least similar to the class's accepted pool
    wins (ties to higher confidence, then lower index); ``pool`` holds the
    features of the class's accepted samples. An empty shortlist
    falls back to the most confident label-matching candidate, else the
    most confident overall.
    """
    c = candidates
    label = c[0].intended_label
    ranked = sorted(range(len(c)), key=lambda i: (-c[i].confidence, i))
    mode = cfg.selection_mode
    if mode == "tplus_s":
        passing = [i for i in ranked if is_accepted(c[i].predicted_label, c[i].confidence, label, cfg.beta)]
        shortlist = passing[: cfg.top_k]
    elif mode == "top1":
        shortlist = ranked[:1]
    elif mode == "sim":
        shortlist = ranked
    else:
        raise ValueError(f"cannot refine a slot with selection_mode={mode!r}")
    if not shortlist:
        return next((i for i in ranked if c[i].predicted_label == label), ranked[0])
    return min(shortlist, key=lambda i: (cumulative_similarity(c[i].feature, pool), -c[i].confidence, i))


def _generate_scored(gen, det, cfg: DistillConfig, slots: list[tuple[int, list[Prototype], list[SeededRng], list]]):
    """Each slot's scored samples, from one generator call over the stack of the slots.

    A slot is (label, the prototype of each row, the stream of each row,
    each row's candidate index); the slots must have equal row counts.
    Each slot's batch gets its own detector pass.
    """
    latents = np.stack([[p.latent for p in protos] for _, protos, _, _ in slots])
    rngs = [r for _, _, streams, _ in slots for r in streams]
    images = gen.generate_batch(latents, tuple(label for label, _, _, _ in slots), rngs, cfg)
    scored = []
    for batch, (label, protos, streams, candidates) in zip(images, slots):
        labels, confs, feats = predict_batch(det, batch)
        scored.append([
            SyntheticSample(batch[i], label, p.cluster_index, cand, r.seed, int(labels[i]), float(confs[i]), feats[i])
            for i, (p, r, cand) in enumerate(zip(protos, streams, candidates))
        ])
    return scored


# The DistillConfig fields that generation reads; select() may vary all the
# others (beta, top_k, selection_mode) over one bank.
GENERATION_FIELDS = ("ipc", "num_candidates", "strength", "guidance_scale", "kmeans_restarts")


class CandidateBank:
    """Everything generation produces for one rng and the GENERATION_FIELDS of one config, scored once.

    Holds the prototypes and the scored initial sample of every slot, in
    slot order (class ascending, cluster ascending). Refinement batches are
    generated on request: ``refinements(slots)`` generates and scores the
    batches of the requested slots the bank does not hold yet, one job per
    slot on every usable core (each core's share in one stack), and keeps
    them for every later selection. So a slot's batch is generated at most
    once, only when some selection flags the slot, and it does not depend
    on which slots were requested with it.
    """

    def __init__(self, cfg: DistillConfig, train: LabeledDataset, prototypes, initial, gen, det, rng: SeededRng):
        self.cfg = cfg
        self.num_classes = train.num_classes
        self.class_names = train.class_names
        self.prototypes: list[Prototype] = prototypes
        self.initial: list[SyntheticSample] = initial
        self.rng = rng
        self._gen = gen
        self._det = det
        self._refinements: dict[int, list[SyntheticSample]] = {}

    def _generate(self, slots: list[int]) -> list[list[SyntheticSample]]:
        """The slots' scored candidates: num_candidates rows from each slot's own prototype, in one stack."""
        k, jobs = self.cfg.num_candidates, []
        for slot in slots:
            proto = self.prototypes[slot]
            slot_rng = self.rng.spawn(_KEY_REFINE, proto.class_id, proto.cluster_index)
            jobs.append((proto.class_id, [proto] * k, [slot_rng.spawn(i) for i in range(k)], list(range(k))))
        return _generate_scored(self._gen, self._det, self.cfg, jobs)

    def refinements(self, slots: list[int]) -> dict[int, list[SyntheticSample]]:
        """Each slot's scored candidates; missing batches are generated, each core's share in one stack."""
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
    initial batch; a core's share of classes generates its batches in one
    generation call. Reads only the GENERATION_FIELDS of cfg. Refinement
    batches are left to the returned bank, which generates them on demand
    from ``rng``.
    """

    def class_jobs(classes: list[int]):
        protos = [
            extract_prototypes(encode_fn, train, cfg.ipc, rng.spawn(_KEY_PROTO), restarts=cfg.kmeans_restarts, classes=[c])
            for c in classes
        ]
        slots = [
            (c, ps, [rng.spawn(_KEY_INITIAL, c, p.cluster_index) for p in ps], [None] * len(ps))
            for c, ps in zip(classes, protos)
        ]
        return list(zip(protos, _generate_scored(gen, det, cfg, slots)))

    jobs = fan_out(class_jobs, range(train.num_classes))
    protos = [p for class_protos, _ in jobs for p in class_protos]
    initial = [s for _, class_initial in jobs for s in class_initial]
    return CandidateBank(cfg, train, protos, initial, gen, det, rng)


def select(bank: CandidateBank, cfg: DistillConfig) -> "DistillResult":
    """Give each slot its one verdict: normal, refined or fallback.

    Slots are processed in deterministic (class ascending, cluster
    ascending) order. An initial sample that passes the acceptance rule is
    normal, and the per-class pools are seeded with those samples in slot
    order before any refinement happens. When selection_mode is "base" the
    other slots keep their initial sample as a fallback; otherwise the bank
    is asked for every flagged slot's batch before the slot loop, so the
    missing ones are generated together. A replacement that passes the
    acceptance rule is refined and joins its class pool; any other pick is
    a fallback and stays out of the pool. Each slot's report record and
    distilled image come from its chosen sample. Raises ValueError when cfg
    disagrees with the bank on a field that generation reads.
    """
    diff = [f"{f}={getattr(cfg, f)!r} (bank: {getattr(bank.cfg, f)!r})"
            for f in GENERATION_FIELDS if getattr(cfg, f) != getattr(bank.cfg, f)]
    if diff:
        raise ValueError(f"config disagrees with the candidate bank: {', '.join(diff)}")
    accepted = [is_accepted(s.predicted_label, s.confidence, s.intended_label, cfg.beta) for s in bank.initial]
    pools = {c: [s.feature for s, ok in zip(bank.initial, accepted) if ok and s.intended_label == c]
             for c in range(bank.num_classes)}
    flagged = [slot for slot, ok in enumerate(accepted) if not ok]
    batches = bank.refinements(flagged) if cfg.selection_mode != "base" else {}
    chosen, slot_records = [], []
    for slot, (s, ok) in enumerate(zip(bank.initial, accepted)):
        status = STATUS_NORMAL if ok else STATUS_FALLBACK
        extra = {}
        if slot in batches:
            candidates = batches[slot]
            s = candidates[select_replacement(candidates, pools[s.intended_label], cfg)]
            if is_accepted(s.predicted_label, s.confidence, s.intended_label, cfg.beta):
                status = STATUS_REFINED
                pools[s.intended_label].append(s.feature)
            extra["candidates"] = [
                {"index": i, "predicted_label": c.predicted_label, "confidence": c.confidence}
                for i, c in enumerate(candidates)
            ]
        chosen.append(s)
        slot_records.append({
            "class": s.intended_label,
            "cluster": s.cluster_index,
            "status": status,
            "predicted_label": s.predicted_label,
            "confidence": s.confidence,
            "candidate_index": s.candidate_index,
            "seed": s.seed,
            **extra,
        })
    statuses = [r["status"] for r in slot_records]
    counts = {st: statuses.count(st) for st in (STATUS_NORMAL, STATUS_REFINED, STATUS_FALLBACK)}
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
        "counts": dict(counts, total=len(slot_records)),
        "slots": slot_records,
    }
    distilled = LabeledDataset(
        images=np.stack([s.image for s in chosen]),
        labels=np.array([s.intended_label for s in chosen], dtype=np.int64),
        num_classes=bank.num_classes,
        class_names=bank.class_names,
        provenance={
            "source": "distill",
            "seed": bank.rng.seed,
            "selection_mode": cfg.selection_mode,
            "counts": counts,
        },
    )
    return DistillResult(dataset=distilled, report=report, prototypes=bank.prototypes)


@dataclass
class DistillResult:
    """The distilled set, its JSON-ready per-slot report and the prototypes it was generated from.

    ``dataset`` holds each slot's chosen image under its intended label;
    ``report["slots"]`` holds each slot's status, detector scores and
    origin, in the same order. The CLI writes all three.
    """

    dataset: LabeledDataset
    report: dict
    prototypes: list[Prototype]

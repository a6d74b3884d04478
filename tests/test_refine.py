import os
from collections import Counter
from dataclasses import is_dataclass, replace
from itertools import product

import numpy as np
import pytest

from distillab.config import SELECTION_MODES, DetectorConfig, DistillConfig, ToyDataSpec
from distillab.data import LabeledDataset, synthesize_toy_dataset
from distillab.models import predict_batch
from distillab.numerics import SeededRng, cosine_similarity
from distillab.refine import (
    _KEY_REFINE,
    SyntheticSample,
    cumulative_similarity,
    generate_candidates,
    is_accepted,
    select,
    select_replacement,
)

from conftest import assert_no_children

# --- helpers -----------------------------------------------------------------


def _sample(
    intended=0,
    predicted=0,
    conf=0.95,
    feature=(1.0, 0.0),
    index=0,
):
    feat = np.asarray(feature, dtype=np.float32)
    return SyntheticSample(
        image=np.zeros((1, 2, 2), dtype=np.float32),
        intended_label=intended,
        cluster_index=0,
        candidate_index=index,
        seed=0,
        predicted_label=predicted,
        confidence=conf,
        feature=feat,
    )


def _by_confidence(candidates, indices, limit):
    """The first ``limit`` of ``indices`` by confidence, ties to the lower index (a selection sort)."""
    ranked = []
    remaining = list(indices)
    while remaining and len(ranked) < limit:
        best = remaining[0]
        for i in remaining[1:]:
            if candidates[i].confidence > candidates[best].confidence:
                best = i
        ranked.append(best)
        remaining.remove(best)
    return ranked


def brute_force_select(candidates, pool, cfg):
    """Independent oracle: same shortlist/argmin/fallback semantics, done naively."""
    n = len(candidates)
    if cfg.selection_mode == "tplus_s":
        passing = []
        for i, c in enumerate(candidates):
            if c.predicted_label == c.intended_label and c.confidence > cfg.beta:
                passing.append(i)
        shortlist = _by_confidence(candidates, passing, cfg.top_k)
    elif cfg.selection_mode == "top1":
        shortlist = _by_confidence(candidates, range(n), 1)
    else:
        shortlist = list(range(n))
    if not shortlist:
        matching = [i for i, c in enumerate(candidates) if c.predicted_label == c.intended_label]
        return _by_confidence(candidates, matching or range(n), 1)[0]
    best = None
    best_key = None
    for i in shortlist:
        sim = 0.0
        for f in pool:
            sim += cosine_similarity(candidates[i].feature, f)
        key = (sim, -candidates[i].confidence, i)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


REFINING_MODES = ("tplus_s", "top1", "sim")


def _cfg(mode="tplus_s", top_k=2, beta=0.5, num_candidates=32):
    return DistillConfig(beta=beta, top_k=top_k, num_candidates=num_candidates, selection_mode=mode)


# --- acceptance rule ----------------------------------------------------------


class TestAcceptanceRule:
    def test_accept_above_beta(self):
        assert is_accepted(1, 0.78699, 1, 0.7)

    def test_reject_below_stricter_beta(self):
        assert not is_accepted(1, 0.78699, 1, 0.9)

    def test_label_mismatch_dominant(self):
        assert not is_accepted(2, 0.99, 1, 0.5)

    def test_strict_inequality_at_threshold(self):
        assert not is_accepted(0, 0.9, 0, 0.9)

    def test_classify_sample_runs_detector(self, detector, toy_test):
        # the initial pass scores a generated batch with predict_batch, then
        # applies is_accepted to each row; a row's verdict does not depend on
        # the rest of its batch
        labels, confs, _ = predict_batch(detector, toy_test.images[:1])
        want_labels, want_confs, _ = predict_batch(detector, toy_test.images[:8])
        assert int(labels[0]) == int(want_labels[0])
        assert float(confs[0]) == pytest.approx(float(want_confs[0]))
        accepted = is_accepted(int(labels[0]), float(confs[0]), int(toy_test.labels[0]), 0.5)
        assert accepted == (int(labels[0]) == int(toy_test.labels[0]) and float(confs[0]) > 0.5)


class TestCumulativeSimilarity:
    def test_single_identical(self):
        pool = [np.array([1.0, 0.0], dtype=np.float32)]
        assert cumulative_similarity(np.array([1.0, 0.0]), pool) == pytest.approx(1.0)

    def test_two_entries(self):
        pool = [np.array([1.0, 0.0], dtype=np.float32), np.array([0.0, 1.0], dtype=np.float32)]
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert cumulative_similarity(v, pool) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_empty_pool_is_zero(self):
        assert cumulative_similarity(np.array([3.0, 4.0]), []) == 0.0

    def test_dimension_mismatch(self):
        pool = [np.array([1.0, 0.0], dtype=np.float32)]
        with pytest.raises(ValueError):
            cumulative_similarity(np.array([1.0, 0.0, 0.0]), pool)


class TestSelectReplacement:
    def test_orthogonal_beats_identical(self):
        pool = [np.array([1.0, 0.0], dtype=np.float32)]
        cands = [
            _sample(conf=0.95, feature=(1.0, 0.0), index=0),
            _sample(conf=0.95, feature=(0.0, 1.0), index=1),
        ]
        assert select_replacement(cands, pool, _cfg(top_k=2, beta=0.5)) == 1

    def test_single_passing_candidate_chosen(self):
        pool = [np.array([1.0, 0.0], dtype=np.float32)]
        cands = [
            _sample(predicted=1, conf=0.99, feature=(0.0, 1.0), index=0),  # wrong label
            _sample(conf=0.6, feature=(1.0, 0.0), index=1),  # low conf
            _sample(conf=0.92, feature=(1.0, 0.0), index=2),  # passes
        ]
        assert select_replacement(cands, pool, _cfg(top_k=2, beta=0.9)) == 2

    def test_none_when_filter_empty(self):
        """No candidate passes the gate: the pick is the fallback, the most
        confident label match, which select() keeps out of the pool."""
        pool = []
        cands = [_sample(predicted=1, conf=0.99, index=0), _sample(conf=0.5, index=1)]
        assert select_replacement(cands, pool, _cfg(top_k=1, beta=0.9)) == 1

    def test_gate_first_then_rank(self):
        # highest-confidence candidate fails the gate; top-k applies to the
        # gated set, so the diverse lower-confidence survivor still wins
        pool = [np.array([1.0, 0.0], dtype=np.float32)]
        cands = [
            _sample(predicted=1, conf=0.999, feature=(0.0, 1.0), index=0),
            _sample(conf=0.95, feature=(1.0, 0.0), index=1),
            _sample(conf=0.93, feature=(0.0, 1.0), index=2),
        ]
        assert select_replacement(cands, pool, _cfg(top_k=2, beta=0.9)) == 2

    def test_oracle_equivalence_randomized(self):
        """Every refining mode agrees with the oracle, the fallback included."""
        rng = SeededRng(2027)
        trials = 1000
        fallbacks = Counter()
        for trial in range(trials):
            n = 1 + rng.integers(32)
            d = 1 + rng.integers(64)
            pool_size = rng.integers(17)
            k = 1 + rng.integers(n)
            beta = 0.3 + 0.6 * float(rng.uniform(1)[0])
            intended = 0
            pool = [rng.normal(d).astype(np.float32) for _ in range(pool_size)]
            cands = []
            for i in range(n):
                predicted = intended if rng.uniform(1)[0] < 0.6 else 1
                conf = float(rng.uniform(1)[0])
                # coarse confidence grid provokes ties
                conf = round(conf * 20) / 20
                cands.append(
                    _sample(
                        intended=intended,
                        predicted=predicted,
                        conf=conf,
                        feature=rng.normal(d),
                        index=i,
                    )
                )
            cfg = _cfg(REFINING_MODES[trial % 3], top_k=k, beta=beta, num_candidates=n)
            assert select_replacement(cands, pool, cfg) == brute_force_select(cands, pool, cfg)
            if cfg.selection_mode == "tplus_s" and not any(
                is_accepted(c.predicted_label, c.confidence, intended, beta) for c in cands
            ):
                fallbacks[any(c.predicted_label == intended for c in cands)] += 1
        # the tplus_s trials reach both fallbacks: to a label match, and with none
        assert fallbacks[True] >= 1 and fallbacks[False] >= 1

    def test_positive_scale_invariance(self):
        rng = SeededRng(404)
        for _ in range(50):
            n, d = 8, 6
            feats = [rng.normal(d) for _ in range(4)]
            cands = [
                _sample(conf=round(float(rng.uniform(1)[0]), 2), feature=rng.normal(d), index=i)
                for i in range(n)
            ]
            scale = 0.5 + 10 * float(rng.uniform(1)[0])
            pool_a = [f.astype(np.float32) for f in feats]
            pool_b = [(scale * f).astype(np.float32) for f in feats]
            cands_b = [
                _sample(conf=c.confidence, feature=scale * c.feature, index=i)
                for i, c in enumerate(cands)
            ]
            a = select_replacement(cands, pool_a, _cfg(top_k=3, beta=0.5))
            b = select_replacement(cands_b, pool_b, _cfg(top_k=3, beta=0.5))
            assert a == b

    def test_beta_monotone_filter(self):
        rng = SeededRng(505)
        for _ in range(200):
            n = 1 + rng.integers(20)
            cands = [
                _sample(
                    predicted=int(rng.integers(2)),
                    conf=float(rng.uniform(1)[0]),
                    feature=rng.normal(3),
                    index=i,
                )
                for i in range(n)
            ]
            betas = sorted([float(rng.uniform(1)[0]) * 0.98 + 0.01 for _ in range(3)])
            sets = [
                {
                    i
                    for i, c in enumerate(cands)
                    if is_accepted(c.predicted_label, c.confidence, c.intended_label, b)
                }
                for b in betas
            ]
            assert sets[2] <= sets[1] <= sets[0]


# --- mocks for the pipeline ----------------------------------------------------


class MockGenerator:
    """Deterministic generator emitting grating-coded class images.

    ``defect_rate`` controls the probability that a generated sample is
    drawn from a wrong class (a label defect), keyed off the rng stream so
    the pipeline sees reproducible defects. ``always_correct`` forces clean
    high-quality output (used as the refiner in controlled-defect tests).
    """

    def __init__(self, dataset: LabeledDataset, defect_rate=0.0, always_correct=False):
        self.ds = dataset
        self.defect_rate = defect_rate
        self.always_correct = always_correct

    def __call__(self, label, rng):
        emit = label
        if not self.always_correct and float(rng.uniform(1)[0]) < self.defect_rate:
            others = [c for c in range(self.ds.num_classes) if c != label]
            emit = others[rng.integers(len(others))]
        idx = self.ds.class_indices(emit)
        return self.ds.images[idx[rng.integers(len(idx))]]

    def generate_batch(self, prototypes, labels, rngs, cfg):
        """One per-stream draw per rng: one stacked batch per slot, one prototype row per stream."""
        rows = prototypes.shape[1]
        assert len(prototypes) == len(labels) and len(rngs) == len(labels) * rows
        return [np.stack([self(label, r) for r in rngs[s * rows : (s + 1) * rows]]) for s, label in enumerate(labels)]


class LoggingGenerator(MockGenerator):
    """MockGenerator that appends every batch it generates to a log file, from any process."""

    def __init__(self, dataset, log, **kwargs):
        super().__init__(dataset, **kwargs)
        self.log = log

    def generate_batch(self, prototypes, labels, rngs, cfg):
        rows = prototypes.shape[1]
        with open(self.log, "a") as f:
            for s, label in enumerate(labels):
                f.write(" ".join(str(v) for v in (os.getpid(), len(labels), label, *(r.seed for r in rngs[s * rows : (s + 1) * rows]))) + "\n")
        return super().generate_batch(prototypes, labels, rngs, cfg)

    def batches(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(pid, label, stream seeds) of every slot batch generated so far."""
        return [(pid, label, seeds) for pid, _, label, seeds in self.stacks()]

    def stacks(self) -> list[tuple[int, int, int, tuple[int, ...]]]:
        """(pid, slots in its stack, label, stream seeds) of every slot batch generated so far."""
        rows = [[int(v) for v in line.split()] for line in self.log.read_text().splitlines()] if self.log.exists() else []
        return [(row[0], row[1], row[2], tuple(row[3:])) for row in rows]


def plain(x):
    """Dataclasses, arrays and containers as plain values that compare exactly (arrays by bytes)."""
    if is_dataclass(x):
        return type(x).__name__, plain(vars(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


@pytest.fixture(scope="module")
def mock_world():
    spec = ToyDataSpec(num_classes=3, train_per_class=120, test_per_class=30, image_height=8, image_width=8)
    train, test = synthesize_toy_dataset(spec, SeededRng(99))
    from distillab.models import train_detector

    [det] = train_detector(
        [train], DetectorConfig(epochs=15, batch_size=32, hidden_sizes=[48, 24]), [SeededRng(1)], use_cutmix=True
    )
    labels, confs, _ = predict_batch(det, test.images)
    assert (labels == test.labels).mean() > 0.95
    encode_fn = lambda imgs: imgs.reshape(len(imgs), -1)
    return train, det, encode_fn


class TestRefineSlot:
    """One chooser for every refining mode: shortlist, least similar, fallback.

    The pool holds (1, 0) for class 0. Candidate 2 is the most confident
    but predicts class 1; candidate 1 is the least similar to the pool.
    The status is the one select() gives the pick: refined when it passes
    the acceptance rule, else fallback.
    """

    CANDIDATES = [
        _sample(predicted=0, conf=0.95, feature=(0.6, 0.8), index=0),
        _sample(predicted=0, conf=0.80, feature=(0.0, 1.0), index=1),
        _sample(predicted=1, conf=0.99, feature=(1.0, 0.1), index=2),
        _sample(predicted=0, conf=0.80, feature=(0.0, -1.0), index=3),
    ]

    @pytest.mark.parametrize(
        "mode, beta, chosen, status",
        [
            ("top1", 0.7, 2, "fallback"),  # the most confident, though 0 is less similar
            ("sim", 0.7, 1, "refined"),  # least similar; 1 and 3 tie, so index 1
            ("sim", 0.9, 1, "fallback"),  # least similar but not above beta
            ("tplus_s", 0.9, 0, "refined"),  # the only candidate through the gate
            ("tplus_s", 0.7, 1, "refined"),  # shortlist [0, 1]: the less similar
            ("tplus_s", 0.97, 0, "fallback"),  # empty: most confident label match
        ],
    )
    def test_modes(self, mode, beta, chosen, status):
        pool = [np.array([1.0, 0.0], dtype=np.float32)]
        cfg = _cfg(mode, top_k=2, beta=beta, num_candidates=4)
        pick = self.CANDIDATES[select_replacement(self.CANDIDATES, pool, cfg)]
        accepted = is_accepted(pick.predicted_label, pick.confidence, 0, beta)
        assert (pick.candidate_index, "refined" if accepted else "fallback") == (chosen, status)
        assert select_replacement(self.CANDIDATES, pool, cfg) == brute_force_select(self.CANDIDATES, pool, cfg)
        assert len(pool) == 1  # choosing does not touch the pool

    def test_no_label_match_falls_back_to_most_confident(self):
        candidates = [_sample(predicted=1, conf=c, index=i) for i, c in enumerate((0.5, 0.9, 0.9))]
        cfg = _cfg("tplus_s", top_k=2, beta=0.5, num_candidates=3)
        assert select_replacement(candidates, [], cfg) == 1

    def test_base_mode_refines_nothing(self):
        with pytest.raises(ValueError, match="selection_mode='base'"):
            select_replacement(self.CANDIDATES, [], _cfg("base"))


class TestRefineDefective:
    """A defective slot is regenerated from its prototype during select().

    With ipc=1 and an initial pass that always emits a wrong class, class 0
    has one slot, it is defective, and its class pool starts empty.
    """

    def _bank(self, mock_world, gen, cfg):
        train, det, encode_fn = mock_world
        return generate_candidates(train, encode_fn, gen, det, cfg, SeededRng(7))

    def test_always_correct_generator_refines(self, mock_world):
        train, _, _ = mock_world
        gen = MockGenerator(train, defect_rate=1.0)
        cfg = DistillConfig(ipc=1, beta=0.5, top_k=2, num_candidates=4, kmeans_restarts=2)
        bank = self._bank(mock_world, gen, cfg)
        assert bank.initial[0].predicted_label != 0
        gen.always_correct = True  # clean refinement candidates
        res = select(bank, cfg)
        slot = res.report["slots"][0]
        assert slot["status"] == "refined"  # joins the class pool: test_pool_soundness
        assert slot["predicted_label"] == slot["class"] == res.dataset.labels[0] == 0
        assert slot["confidence"] > 0.5
        assert len(slot["candidates"]) == 4
        chosen = bank.refinements([0])[0][slot["candidate_index"]]
        assert np.array_equal(res.dataset.images[0], chosen.image)

    def test_always_wrong_generator_falls_back(self, mock_world):
        train, _, _ = mock_world

        class WrongGen(MockGenerator):
            def __call__(self, label, rng):
                other = (label + 1) % train.num_classes
                idx = train.class_indices(other)
                return train.images[idx[rng.integers(len(idx))]]

        cfg = DistillConfig(ipc=1, beta=0.9, top_k=2, num_candidates=4, kmeans_restarts=2)
        res = select(self._bank(mock_world, WrongGen(train), cfg), cfg)
        slot = res.report["slots"][0]
        assert slot["status"] == "fallback"  # stays out of the class pool: test_pool_soundness
        assert slot["predicted_label"] != slot["class"]

    def test_defaults_match_sensitivity_optima(self):
        cfg = DistillConfig()
        assert cfg.top_k == 2
        assert cfg.beta == 0.9
        assert cfg.num_candidates == 20


class TestDistill:
    def test_counts(self, mock_world):
        train, det, encode_fn = mock_world
        gen = MockGenerator(train, defect_rate=0.0)
        cfg = DistillConfig(ipc=4, beta=0.5, num_candidates=5, top_k=2, kmeans_restarts=2)
        res = select(generate_candidates(train, encode_fn, gen, det, cfg, SeededRng(11)), cfg)
        assert len(res.dataset) == train.num_classes * 4
        assert np.array_equal(
            res.dataset.labels, np.repeat(np.arange(train.num_classes), 4)
        )
        assert res.report["counts"]["total"] == len(res.dataset)

    def test_base_mode_keeps_raw_generation(self, mock_world):
        train, det, encode_fn = mock_world
        gen = MockGenerator(train, defect_rate=0.3)
        cfg_base = DistillConfig(
            ipc=3, beta=0.8, num_candidates=5, selection_mode="base", kmeans_restarts=2
        )
        res_base = select(generate_candidates(train, encode_fn, gen, det, cfg_base, SeededRng(12)), cfg_base)
        cfg_full = DistillConfig(
            ipc=3, beta=0.8, num_candidates=5, selection_mode="tplus_s", kmeans_restarts=2
        )
        res_full = select(generate_candidates(train, encode_fn, gen, det, cfg_full, SeededRng(12)), cfg_full)
        # base output equals the raw pass: normal slots agree with the full
        # run's normal slots, and defective slots keep their original images
        assert res_base.report["counts"]["refined"] == 0
        n_defective = res_base.report["counts"]["fallback"]
        assert n_defective > 0
        for i, slot in enumerate(res_base.report["slots"]):
            assert slot["candidate_index"] is None and "candidates" not in slot
            if slot["status"] == "normal":
                assert res_full.report["slots"][i]["status"] == "normal"
                assert np.array_equal(res_base.dataset.images[i], res_full.dataset.images[i])

    def test_controlled_defects_all_repaired(self, mock_world):
        # 12% injected label defects; refiner candidates are always clean
        train, det, encode_fn = mock_world

        initial = MockGenerator(train, defect_rate=0.12)
        refiner = MockGenerator(train, always_correct=True)
        cfg = DistillConfig(ipc=10, beta=0.6, num_candidates=8, top_k=2, kmeans_restarts=2)

        class PhasedGen:
            """Defective on the initial pass, clean for refinement candidates.

            A refinement batch has num_candidates rows, an initial one ipc.
            """

            def generate_batch(self, prototypes, labels, rngs, cfg):
                use = refiner if prototypes.shape[1] == cfg.num_candidates else initial
                return use.generate_batch(prototypes, labels, rngs, cfg)

        res = select(generate_candidates(train, encode_fn, PhasedGen(), det, cfg, SeededRng(13)), cfg)
        # fallback count is reported, not forbidden; every non-fallback output
        # must re-verify as label-consistent and confident under the detector
        assert res.report["counts"]["fallback"] <= 2
        checked = 0
        for slot, image, label in zip(res.report["slots"], res.dataset.images, res.dataset.labels):
            if slot["status"] == "fallback":
                continue
            labels, confs, _ = predict_batch(det, image[None])
            assert int(labels[0]) == label == slot["class"]
            assert float(confs[0]) > cfg.beta
            checked += 1
        assert checked >= train.num_classes * cfg.ipc - 2

    def test_pool_soundness(self, mock_world, monkeypatch):
        """Each flagged slot's replacement is chosen against its class's pool:
        the features of the class's normal samples, then of the class's
        slots refined before it, in slot order. Fallbacks never join."""
        import distillab.refine as refine_module

        train, det, encode_fn = mock_world
        gen = MockGenerator(train, defect_rate=0.25)
        cfg = DistillConfig(ipc=4, beta=0.7, num_candidates=6, top_k=2, kmeans_restarts=2)
        seen, choose = [], refine_module.select_replacement

        def recording(candidates, pool, cfg):
            seen.append(list(pool))
            return choose(candidates, pool, cfg)

        monkeypatch.setattr(refine_module, "select_replacement", recording)
        bank = generate_candidates(train, encode_fn, gen, det, cfg, SeededRng(14))
        slots = select(bank, cfg).report["slots"]
        statuses = [r["status"] for r in slots]
        flagged = [slot for slot, status in enumerate(statuses) if status != "normal"]
        assert "refined" in statuses and len(seen) == len(flagged)
        batches = bank.refinements(flagged)  # the batches select() chose from, held by the bank

        def feature(slot):
            r = slots[slot]
            return bank.initial[slot].feature if r["status"] == "normal" else batches[slot][r["candidate_index"]].feature

        for slot, pool in zip(flagged, seen):
            c = slots[slot]["class"]
            want = [feature(j) for j, r in enumerate(slots) if r["class"] == c and r["status"] == "normal"]
            want += [feature(j) for j, r in enumerate(slots[:slot]) if r["class"] == c and r["status"] == "refined"]
            assert len(pool) == len(want)
            assert all(got.dtype == w.dtype and got.tobytes() == w.tobytes() for got, w in zip(pool, want))

    def test_deterministic_outputs(self, mock_world, tmp_path):
        import json

        from distillab.data import write_dataset

        train, det, encode_fn = mock_world
        gen = MockGenerator(train, defect_rate=0.2)
        cfg = DistillConfig(ipc=3, beta=0.7, num_candidates=5, kmeans_restarts=2)
        paths = []
        for run in (0, 1):
            bank = generate_candidates(train, encode_fn, MockGenerator(train, defect_rate=0.2), det, cfg, SeededRng(15))
            res = select(bank, cfg)
            p = tmp_path / f"run{run}.dstl"
            write_dataset(p, res.dataset)
            rp = tmp_path / f"run{run}.json"
            rp.write_text(json.dumps(res.report, sort_keys=True, indent=1))
            paths.append((p, rp))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_status_invariant_under_default_mode(self, mock_world):
        train, det, encode_fn = mock_world
        gen = MockGenerator(train, defect_rate=0.3)
        cfg = DistillConfig(ipc=5, beta=0.75, num_candidates=6, kmeans_restarts=2)
        res = select(generate_candidates(train, encode_fn, gen, det, cfg, SeededRng(16)), cfg)
        for slot in res.report["slots"]:
            if slot["status"] in ("normal", "refined"):
                assert slot["predicted_label"] == slot["class"]
                assert slot["confidence"] > cfg.beta


class TestDiffusionCandidateGenerator:
    def test_samples_with_the_config_it_is_given(
        self, toy_train, codec, detector, denoiser, frozen_schedule, monkeypatch
    ):
        """At strength 0 the sampler returns its prototypes, so the initial
        samples are their decodings; the report names the settings the
        sampler ran with, not the defaults."""
        import distillab.refine as refine_module
        from distillab.refine import DiffusionCandidateGenerator

        used = []
        sample = refine_module.sample_img2img_batch

        def spy(den, sched, prototypes, label, strength, guidance_scale, rngs):
            used.append((strength, guidance_scale))
            return sample(den, sched, prototypes, label, strength, guidance_scale, rngs)

        monkeypatch.setattr(refine_module, "sample_img2img_batch", spy)
        gen = DiffusionCandidateGenerator(denoiser, frozen_schedule, codec.decode)
        cfg = DistillConfig(ipc=2, strength=0.0, guidance_scale=3.0, num_candidates=4, kmeans_restarts=2)
        bank = generate_candidates(toy_train, codec.encode, gen, detector, cfg, SeededRng(3))
        for c in range(toy_train.num_classes):
            latents = np.stack([p.latent for p in bank.prototypes if p.class_id == c])
            images = np.stack([s.image for s in bank.initial if s.intended_label == c])
            assert np.array_equal(images, codec.decode(latents))
        res = select(bank, cfg)
        assert res.report["counts"]["total"] == 2 * toy_train.num_classes
        assert set(used) == {(0.0, 3.0)}
        assert (res.report["config"]["strength"], res.report["config"]["guidance_scale"]) == (0.0, 3.0)


class TestBankFanOut:
    """Class jobs and slot jobs run on every usable core; the bank does not depend on how many."""

    CFG = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
    GRID = list(product(SELECTION_MODES, (1, 2), (0.5, 0.9)))  # mode, top_k, beta

    def _bank(self, mock_world, cores, n, log):
        train, det, encode_fn = mock_world
        cores(n)
        gen = LoggingGenerator(train, log, defect_rate=0.4)
        return generate_candidates(train, encode_fn, gen, det, self.CFG, SeededRng(21)), gen

    def test_one_and_two_cores_give_equal_banks(self, mock_world, cores, tmp_path):
        banks = [self._bank(mock_world, cores, n, tmp_path / f"{n}.log")[0] for n in (1, 2)]
        slots = list(range(len(banks[0].initial)))
        one, two = (plain([bank.prototypes, bank.initial, bank.refinements(slots)]) for bank in banks)
        assert one == two
        assert_no_children()

    def test_select_agrees_on_one_and_two_cores(self, mock_world, cores, tmp_path):
        results = []
        for n in (1, 2):
            bank, _ = self._bank(mock_world, cores, n, tmp_path / f"{n}.log")
            cells = [replace(self.CFG, selection_mode=mode, top_k=k, beta=beta) for mode, k, beta in self.GRID]
            results.append([plain([res.report, res.dataset, res.prototypes]) for res in (select(bank, c) for c in cells)])
        assert results[0] == results[1]
        assert any(res[0]["counts"]["refined"] for res in results[1])

    def test_jobs_run_in_the_parent_and_one_worker(self, mock_world, cores, tmp_path):
        bank, gen = self._bank(mock_world, cores, 2, tmp_path / "2.log")
        res = select(bank, self.CFG)
        assert res.report["counts"]["normal"] <= res.report["counts"]["total"] - 2  # two slot jobs or more
        for rows in (self.CFG.ipc, self.CFG.num_candidates):  # class jobs, then slot jobs
            pids = {pid for pid, _, seeds in gen.batches() if len(seeds) == rows}
            assert len(pids) == 2 and os.getpid() in pids
            # each process generated its whole share in one stack
            stacks = [(pid, size) for pid, size, _, seeds in gen.stacks() if len(seeds) == rows]
            assert sorted(set(stacks)) == sorted(Counter(pid for pid, _ in stacks).items())
        assert_no_children()

    def test_each_flagged_slot_is_generated_once(self, mock_world, cores, tmp_path):
        bank, gen = self._bank(mock_world, cores, 2, tmp_path / "2.log")
        flagged = set()
        for mode, k, beta in self.GRID:
            res = select(bank, replace(self.CFG, selection_mode=mode, top_k=k, beta=beta))
            flagged |= {(r["class"], r["cluster"]) for r in res.report["slots"] if "candidates" in r}
        slot_batches = Counter((label, seeds) for _, label, seeds in gen.batches() if len(seeds) == self.CFG.num_candidates)
        assert set(slot_batches.values()) == {1}
        streams = SeededRng(21)
        assert set(slot_batches) == {
            (c, tuple(streams.spawn(_KEY_REFINE, c, j).spawn(i).seed for i in range(self.CFG.num_candidates)))
            for c, j in flagged
        }

    def test_a_slot_batch_does_not_depend_on_its_request(
        self, toy_train, codec, detector, denoiser, frozen_schedule, cores
    ):
        """A slot's refinement batch is the same bits whether the bank gets it
        alone, in one stack with other slots, or after an earlier request for a
        subset of them, on one core and on two."""
        from distillab.refine import CandidateBank, DiffusionCandidateGenerator

        gen = DiffusionCandidateGenerator(denoiser, frozen_schedule, codec.decode)
        cfg = DistillConfig(ipc=2, num_candidates=3, kmeans_restarts=1)
        bank = generate_candidates(toy_train, codec.encode, gen, detector, cfg, SeededRng(5))
        slots = [0, 3, 4, 7, 8]

        def fresh():
            return CandidateBank(cfg, toy_train, bank.prototypes, bank.initial, gen, detector, bank.rng)

        alone = {slot: plain(fresh().refinements([slot])[slot]) for slot in slots}
        for n in (1, 2):
            cores(n)
            together = fresh().refinements(slots)
            assert {slot: plain(together[slot]) for slot in slots} == alone
            later = fresh()
            later.refinements(slots[1:3])
            after_subset = later.refinements(slots)
            assert {slot: plain(after_subset[slot]) for slot in slots} == alone
        assert_no_children()

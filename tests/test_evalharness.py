from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from distillab.config import SELECTION_MODES, DetectorConfig, DistillConfig, EvalConfig, ToyDataSpec
from distillab.data import LabeledDataset, synthesize_toy_dataset
from distillab.evalharness import (
    AblationInputs,
    evaluate,
    run_ablation,
    run_sensitivity,
    sensitivity_csv,
    train_downstream,
)
from distillab.models import Detector, Mlp, train_detector
from distillab.numerics import SeededRng
from distillab.data import write_dataset
from distillab.refine import distill, select

from test_refine import MockGenerator


@pytest.fixture(scope="module")
def small_world():
    spec = ToyDataSpec(num_classes=3, train_per_class=100, test_per_class=40, image_height=8, image_width=8)
    train, test = synthesize_toy_dataset(spec, SeededRng(77))
    det = train_detector(
        train, DetectorConfig(epochs=15, batch_size=32, hidden_sizes=[48, 24]), SeededRng(5), use_cutmix=True
    )
    encode_fn = lambda imgs: imgs.reshape(len(imgs), -1)
    return train, test, det, encode_fn


def _downstream_cfg(**fields):
    return EvalConfig(epochs=60, batch_size=8, learning_rate=1e-3, hidden_sizes=[48, 24], **fields)


class TestTrainDownstream:
    def test_smoke_on_tiny_distilled(self, small_world):
        train, test, det, _ = small_world
        subset_idx = np.concatenate([train.class_indices(c)[:10] for c in range(3)])
        distilled = LabeledDataset(
            train.images[subset_idx], train.labels[subset_idx], 3, train.class_names
        )
        clf = train_downstream(distilled, _downstream_cfg(), SeededRng(1))
        assert clf.num_classes == 3

    def test_deterministic(self, small_world):
        train, test, det, _ = small_world
        subset_idx = np.concatenate([train.class_indices(c)[:5] for c in range(3)])
        distilled = LabeledDataset(
            train.images[subset_idx], train.labels[subset_idx], 3, train.class_names
        )
        a1 = evaluate(train_downstream(distilled, _downstream_cfg(), SeededRng(2)), test)
        a2 = evaluate(train_downstream(distilled, _downstream_cfg(), SeededRng(2)), test)
        assert a1 == a2

    def test_cutmix_forced_off(self, small_world):
        train, _, _, _ = small_world
        cfg = EvalConfig(epochs=1, hidden_sizes=[8])
        clf = train_downstream(train, cfg, SeededRng(3))
        assert clf.meta["use_cutmix"] is False

    def test_full_train_upper_bound(self, small_world):
        train, test, det, _ = small_world
        clf = train_downstream(
            train,
            EvalConfig(epochs=15, batch_size=32, hidden_sizes=[48, 24]),
            SeededRng(4),
        )
        assert evaluate(clf, test) >= 0.95

    def test_empty_rejected(self, small_world):
        train, _, _, _ = small_world
        empty = LabeledDataset(
            np.zeros((0, 1, 8, 8), dtype=np.float32), np.zeros(0, dtype=np.int64), 3, train.class_names
        )
        with pytest.raises(ValueError):
            train_downstream(empty, _downstream_cfg(), SeededRng(1))


class TestEvaluate:
    def _constant_classifier(self, k=5):
        mlp = Mlp(
            [np.zeros((4, 4), dtype=np.float32), np.zeros((k, 4), dtype=np.float32)],
            [np.zeros(4, dtype=np.float32), np.zeros(k, dtype=np.float32)],
        )
        return Detector(mlp=mlp, num_classes=k, image_shape=(1, 2, 2))

    def _balanced_set(self, k=5, per=8):
        rng = SeededRng(6)
        images = rng.uniform(k * per * 4).reshape(k * per, 1, 2, 2).astype(np.float32)
        labels = np.repeat(np.arange(k), per)
        return LabeledDataset(images, labels, k, tuple(str(i) for i in range(k)))

    def test_constant_predictor_on_balanced_set(self):
        clf = self._constant_classifier()
        ds = self._balanced_set()
        assert evaluate(clf, ds) == pytest.approx(0.2)

    def test_memorization_is_one(self, small_world):
        train, _, _, _ = small_world
        subset_idx = np.concatenate([train.class_indices(c)[:5] for c in range(3)])
        tiny = LabeledDataset(train.images[subset_idx], train.labels[subset_idx], 3, train.class_names)
        clf = train_downstream(
            tiny, EvalConfig(epochs=150, batch_size=4, hidden_sizes=[48, 24]), SeededRng(7)
        )
        assert evaluate(clf, tiny) == 1.0

    def test_permutation_invariance(self, small_world):
        train, test, det, _ = small_world
        perm = SeededRng(8).permutation(len(test))
        shuffled = LabeledDataset(
            test.images[perm], test.labels[perm], test.num_classes, test.class_names
        )
        assert evaluate(det, test) == pytest.approx(evaluate(det, shuffled))

    def test_empty_test_rejected(self):
        clf = self._constant_classifier()
        empty = LabeledDataset(
            np.zeros((0, 1, 2, 2), dtype=np.float32), np.zeros(0, dtype=np.int64), 5, tuple("01234")
        )
        with pytest.raises(ValueError):
            evaluate(clf, empty)


class TestRunAblation:
    def _inputs(self, small_world, defect_rate=0.25):
        train, test, det, encode_fn = small_world
        return AblationInputs(
            train=train,
            test=test,
            encode_fn=encode_fn,
            detector=det,
            generator_factory=lambda cfg: MockGenerator(train, defect_rate=defect_rate),
        )

    def _cfg(self):
        return DistillConfig(ipc=5, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)

    def test_record_counting(self, small_world):
        report = run_ablation(
            self._inputs(small_world), self._cfg(), _downstream_cfg(modes=["base", "tplus_s"], seeds=[1, 2, 3])
        )
        assert len([r for r in report.records if r.mode != "random"]) == 6
        assert len([r for r in report.records if r.mode == "random"]) == 3

    def test_random_baseline_shares_the_downstream_stream(self, small_world, monkeypatch):
        import distillab.evalharness as evalharness

        starts = []
        real = evalharness.train_downstream

        def spy(dataset, cfg, rng):
            starts.append(rng.seed)
            return real(dataset, cfg, rng)

        monkeypatch.setattr(evalharness, "train_downstream", spy)
        run_ablation(self._inputs(small_world), self._cfg(), _downstream_cfg(modes=["base"], seeds=[4]))
        assert len(starts) == 2 and starts[0] == starts[1]

    def test_single_seed_degenerate(self, small_world):
        report = run_ablation(
            self._inputs(small_world), self._cfg(), _downstream_cfg(modes=["base"], seeds=[9])
        )
        assert report.summary["base"]["n"] == 1
        assert report.summary["base"]["std"] is None
        assert report.summary["base"]["mean"] == report.records[0].accuracy

    def test_summary_matches_recomputation(self, small_world):
        report = run_ablation(
            self._inputs(small_world), self._cfg(), _downstream_cfg(modes=["base", "top1"], seeds=[1, 2])
        )
        for mode, s in report.summary.items():
            accs = [r.accuracy for r in report.records if r.mode == mode]
            assert s["mean"] == float(np.mean(accs))
            if len(accs) >= 2:
                assert s["std"] == float(np.std(accs, ddof=1))

    def test_refinement_beats_base_with_defect_prone_mock(self, small_world):
        # heavy injected defects, clean candidate pool: tplus_s must not lose
        train, test, det, encode_fn = small_world

        class DefectThenClean(MockGenerator):
            """Initial samples carry many label defects; candidates are clean."""

            def __init__(self, ds):
                super().__init__(ds, defect_rate=0.5)
                self.initial_budget = 3 * 5  # num_classes * ipc

            def __call__(self, prototype, label, rng):
                if self.initial_budget > 0:
                    self.initial_budget -= 1
                    return super().__call__(prototype, label, rng)
                clean = MockGenerator(self.ds, always_correct=True)
                return clean(prototype, label, rng)

        inputs = AblationInputs(
            train=train,
            test=test,
            encode_fn=encode_fn,
            detector=det,
            generator_factory=lambda cfg: DefectThenClean(train),
        )
        report = run_ablation(inputs, self._cfg(), _downstream_cfg(modes=["base", "tplus_s"], seeds=[1, 2]))
        assert report.summary["tplus_s"]["mean"] >= report.summary["base"]["mean"]

    def test_validation(self, small_world):
        with pytest.raises(ValueError):
            run_ablation(self._inputs(small_world), self._cfg(), _downstream_cfg(modes=[], seeds=[1]))

    def test_json_and_csv_render(self, small_world):
        import json

        report = run_ablation(
            self._inputs(small_world), self._cfg(), _downstream_cfg(modes=["base"], seeds=[1])
        )
        payload = json.loads(report.to_json())
        assert payload["summary"]["base"]["n"] == 1
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "mode,seed,accuracy,fallback_count"
        assert len(csv_text.splitlines()) == 1 + len(report.records)


class TestRunSensitivity:
    def test_grid_and_monotonicity(self, small_world):
        train, test, det, encode_fn = small_world
        inputs = AblationInputs(
            train=train,
            test=test,
            encode_fn=encode_fn,
            detector=det,
            generator_factory=lambda cfg: MockGenerator(train, defect_rate=0.4),
        )
        cfg = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
        grid, evidence = run_sensitivity(
            inputs, cfg, _downstream_cfg(seeds=[3], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9])
        )
        assert len(grid) == 4
        assert {(g["top_k"], g["beta"]) for g in grid} == {(1, 0.5), (1, 0.9), (2, 0.5), (2, 0.9)}
        assert evidence["slots_checked"] > 0
        csv_text = sensitivity_csv(grid)
        assert csv_text.splitlines()[0].startswith("top_k,beta,seed")
        assert len(csv_text.splitlines()) == 5


class CountingGenerator(MockGenerator):
    """MockGenerator that tallies each batch it generates by (label, stream seeds)."""

    def __init__(self, dataset, batches: Counter, **kwargs):
        super().__init__(dataset, **kwargs)
        self.batches = batches

    def generate_batch(self, prototype, label, rngs):
        self.batches[(label, tuple(r.seed for r in rngs))] += 1
        return super().generate_batch(prototype, label, rngs)


class TestSharedBank:
    def test_modes_and_grid_generate_each_batch_once(self, small_world, monkeypatch, tmp_path):
        import distillab.refine as refine_module

        train, test, det, encode_fn = small_world
        batches, extractions = Counter(), Counter()
        extract = refine_module.extract_prototypes

        def counting_extract(encode_fn, dataset, ipc, rng, **kwargs):
            extractions[rng.seed] += 1
            return extract(encode_fn, dataset, ipc, rng, **kwargs)

        monkeypatch.setattr(refine_module, "extract_prototypes", counting_extract)
        inputs = AblationInputs(
            train=train,
            test=test,
            encode_fn=encode_fn,
            detector=det,
            generator_factory=lambda cfg: CountingGenerator(train, batches, defect_rate=0.4),
        )
        cfg = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
        eval_cfg = _downstream_cfg(
            modes=list(SELECTION_MODES), seeds=[1], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9]
        )
        report = run_ablation(inputs, cfg, eval_cfg)
        _, evidence = run_sensitivity(inputs, cfg, eval_cfg)
        assert evidence["slots_checked"] > 0
        assert report.summary["tplus_s"]["n"] == 1
        # the initial pass (one batch per class) plus at least one refined slot
        assert len(batches) > train.num_classes
        assert set(batches.values()) == {1}
        assert len(extractions) == 1 and set(extractions.values()) == {1}

        # every mode's selection from the shared bank equals a standalone run
        for mode in SELECTION_MODES:
            mcfg = replace(cfg, selection_mode=mode)
            shared = select(inputs.bank(mcfg, 1), mcfg)
            fresh = distill(train, encode_fn, MockGenerator(train, defect_rate=0.4), det, mcfg, SeededRng(1))
            assert shared.report == fresh.report
            write_dataset(tmp_path / "shared.dstl", shared.dataset)
            write_dataset(tmp_path / "fresh.dstl", fresh.dataset)
            assert (tmp_path / "shared.dstl").read_bytes() == (tmp_path / "fresh.dstl").read_bytes()

        bank = inputs.bank(cfg, 1)
        for field, value in (("num_candidates", 7), ("strength", 0.5)):
            with pytest.raises(ValueError, match=field):
                select(bank, replace(cfg, **{field: value}))

import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from distillab.config import SELECTION_MODES, DetectorConfig, DistillConfig, EvalConfig, ToyDataSpec
from distillab.data import LabeledDataset, synthesize_toy_dataset
from distillab.cli import _json_bytes
from distillab.evalharness import (
    GRID_COLUMNS,
    RECORD_COLUMNS,
    SweepCheckError,
    check_sweep_slots,
    evaluate,
    score_runs,
    select_runs,
    to_csv,
    train_downstream,
)
from distillab.models import Detector, Mlp, train_detector
from distillab.numerics import NonFiniteError, SeededRng
from distillab.data import write_dataset
from distillab.refine import generate_candidates, select

from conftest import assert_no_children
from test_cli import _copy_run, pipeline  # noqa: F401  (pipeline is a fixture)
from test_refine import LoggingGenerator, MockGenerator


@pytest.fixture(scope="module")
def small_world():
    spec = ToyDataSpec(num_classes=3, train_per_class=100, test_per_class=40, image_height=8, image_width=8)
    train, test = synthesize_toy_dataset(spec, SeededRng(77))
    [det] = train_detector(
        [train], DetectorConfig(epochs=15, batch_size=32, hidden_sizes=[48, 24]), [SeededRng(5)], use_cutmix=True
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
        [clf] = train_downstream([distilled], _downstream_cfg(), [SeededRng(1)])
        assert clf.num_classes == 3

    def test_deterministic(self, small_world):
        train, test, det, _ = small_world
        subset_idx = np.concatenate([train.class_indices(c)[:5] for c in range(3)])
        distilled = LabeledDataset(
            train.images[subset_idx], train.labels[subset_idx], 3, train.class_names
        )
        a1 = evaluate(train_downstream([distilled], _downstream_cfg(), [SeededRng(2)])[0], test)
        a2 = evaluate(train_downstream([distilled], _downstream_cfg(), [SeededRng(2)])[0], test)
        assert a1 == a2

    def test_cutmix_forced_off(self, small_world):
        train, _, _, _ = small_world
        cfg = EvalConfig(epochs=1, hidden_sizes=[8])
        [clf] = train_downstream([train], cfg, [SeededRng(3)])
        assert clf.meta["use_cutmix"] is False

    def test_full_train_upper_bound(self, small_world):
        train, test, det, _ = small_world
        [clf] = train_downstream(
            [train],
            EvalConfig(epochs=15, batch_size=32, hidden_sizes=[48, 24]),
            [SeededRng(4)],
        )
        assert evaluate(clf, test) >= 0.95

    def test_empty_rejected(self, small_world):
        train, _, _, _ = small_world
        empty = LabeledDataset(
            np.zeros((0, 1, 8, 8), dtype=np.float32), np.zeros(0, dtype=np.int64), 3, train.class_names
        )
        with pytest.raises(ValueError):
            train_downstream([empty], _downstream_cfg(), [SeededRng(1)])


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
        [clf] = train_downstream(
            [tiny], EvalConfig(epochs=150, batch_size=4, hidden_sizes=[48, 24]), [SeededRng(7)]
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
        train, _, det, encode_fn = small_world
        return (train, encode_fn, MockGenerator(train, defect_rate=defect_rate), det)

    def _cfg(self):
        return DistillConfig(ipc=5, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)

    def test_record_counting(self, small_world):
        eval_cfg = _downstream_cfg(modes=["base", "tplus_s"], seeds=[1, 2, 3])
        report, _ = score_runs(select_runs(*self._inputs(small_world), self._cfg(), eval_cfg), small_world[1], eval_cfg)
        assert len([r for r in report["records"] if r["mode"] != "random"]) == 6
        assert len([r for r in report["records"] if r["mode"] == "random"]) == 3

    def test_random_baseline_shares_the_downstream_stream(self, small_world, monkeypatch):
        import distillab.evalharness as evalharness

        # the trainings may run in worker processes: observe the jobs the parent submits
        starts = []
        real = evalharness._train_all

        def spy(jobs, cfg):
            starts.extend(rng.seed for _, rng in jobs)
            return real(jobs, cfg)

        monkeypatch.setattr(evalharness, "_train_all", spy)
        eval_cfg = _downstream_cfg(modes=["base"], seeds=[4])
        score_runs(select_runs(*self._inputs(small_world), self._cfg(), eval_cfg), small_world[1], eval_cfg)
        assert len(starts) == 2 and starts[0] == starts[1]

    def test_single_seed_degenerate(self, small_world):
        eval_cfg = _downstream_cfg(modes=["base"], seeds=[9])
        report, _ = score_runs(select_runs(*self._inputs(small_world), self._cfg(), eval_cfg), small_world[1], eval_cfg)
        assert report["summary"]["base"]["n"] == 1
        assert report["summary"]["base"]["std"] is None
        assert report["summary"]["base"]["mean"] == report["records"][0]["accuracy"]

    def test_summary_matches_recomputation(self, small_world):
        eval_cfg = _downstream_cfg(modes=["base", "top1"], seeds=[1, 2])
        report, _ = score_runs(select_runs(*self._inputs(small_world), self._cfg(), eval_cfg), small_world[1], eval_cfg)
        for mode, s in report["summary"].items():
            accs = [r["accuracy"] for r in report["records"] if r["mode"] == mode]
            assert s["mean"] == float(np.mean(accs))
            if len(accs) >= 2:
                assert s["std"] == float(np.std(accs, ddof=1))

    def test_refinement_beats_base_with_defect_prone_mock(self, small_world):
        # heavy injected defects, clean candidate pool: tplus_s must not lose
        train, test, det, encode_fn = small_world

        class DefectThenClean(MockGenerator):
            """Initial samples carry many label defects; candidates are clean."""

            def generate_batch(self, prototypes, labels, rngs, cfg):
                # a refinement batch has num_candidates rows, an initial one ipc
                self.always_correct = prototypes.shape[1] == cfg.num_candidates
                return super().generate_batch(prototypes, labels, rngs, cfg)

        inputs = (train, encode_fn, DefectThenClean(train, defect_rate=0.5), det)
        eval_cfg = _downstream_cfg(modes=["base", "tplus_s"], seeds=[1, 2])
        report, _ = score_runs(select_runs(*inputs, self._cfg(), eval_cfg), test, eval_cfg)
        assert report["summary"]["tplus_s"]["mean"] >= report["summary"]["base"]["mean"]

    def test_validation(self, small_world):
        with pytest.raises(ValueError):
            eval_cfg = _downstream_cfg(modes=[], seeds=[1])
            score_runs(select_runs(*self._inputs(small_world), self._cfg(), eval_cfg), small_world[1], eval_cfg)

    def test_json_and_csv_render(self, small_world):
        """The payload is plain JSON; ``to_csv`` writes both reports' headers and 6-decimal accuracies."""
        eval_cfg = _downstream_cfg(modes=["base"], seeds=[1])
        selected = select_runs(*self._inputs(small_world), self._cfg(), eval_cfg)
        payload, sensitivity = score_runs(selected, small_world[1], eval_cfg)
        assert sensitivity is None
        assert json.loads(_json_bytes(payload)) == payload
        assert sorted(payload) == ["config_fingerprint", "records", "summary"]
        assert payload["summary"]["base"]["n"] == 1
        assert all(sorted(r) == sorted(RECORD_COLUMNS) for r in payload["records"])

        records = [
            {"mode": "base", "seed": 1, "accuracy": 0.5, "fallback_count": 3},
            {"mode": "random", "seed": 1, "accuracy": 2 / 3, "fallback_count": 0},
        ]
        assert to_csv(records, RECORD_COLUMNS).splitlines() == [
            "mode,seed,accuracy,fallback_count",
            "base,1,0.500000,3",
            "random,1,0.666667,0",
        ]
        grid = [
            {"top_k": 1, "beta": 0.5, "seed": 3, "accuracy": 0.125, "fallback_count": 2, "refined_count": 4},
            {"top_k": 2, "beta": 0.9, "seed": 3, "accuracy": 1.0, "fallback_count": 0, "refined_count": 6},
        ]
        assert to_csv(grid, GRID_COLUMNS).splitlines() == [
            "top_k,beta,seed,accuracy,fallback_count,refined_count",
            "1,0.5,3,0.125000,2,4",
            "2,0.9,3,1.000000,0,6",
        ]


class TestRunSensitivity:
    def test_grid_and_monotonicity(self, small_world):
        train, test, det, encode_fn = small_world
        inputs = (train, encode_fn, MockGenerator(train, defect_rate=0.4), det)
        cfg = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
        eval_cfg = _downstream_cfg(modes=["tplus_s"], seeds=[3], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9])
        _, (grid, evidence) = score_runs(select_runs(*inputs, cfg, eval_cfg, sweep=True), test, eval_cfg)
        assert len(grid) == 4
        assert {(g["top_k"], g["beta"]) for g in grid} == {(1, 0.5), (1, 0.9), (2, 0.5), (2, 0.9)}
        assert evidence["slots_checked"] > 0

    def test_two_seeds_sweep_the_first_seed_only(self, small_world):
        """Each seed selects from its own bank, and the sweep's cells from the first seed's:
        sweeping leaves the ablation's report as it is, and the grid is a one-seed run's."""
        train, test, det, encode_fn = small_world
        inputs = (train, encode_fn, MockGenerator(train, defect_rate=0.4), det)
        cfg = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
        eval_cfg = _downstream_cfg(
            modes=["base", "tplus_s"], seeds=[3, 5], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9]
        )
        swept, (grid, evidence) = score_runs(select_runs(*inputs, cfg, eval_cfg, sweep=True), test, eval_cfg)
        plain, sensitivity = score_runs(select_runs(*inputs, cfg, eval_cfg), test, eval_cfg)
        assert sensitivity is None
        assert swept == plain and {r["seed"] for r in swept["records"]} == {3, 5}
        first_cfg = replace(eval_cfg, seeds=[3])
        _, (first_grid, first_evidence) = score_runs(select_runs(*inputs, cfg, first_cfg, sweep=True), test, first_cfg)
        assert grid == first_grid and evidence == first_evidence
        assert {row["seed"] for row in grid} == {3} and evidence["slots_checked"] > 0


class TestSharedBank:
    def test_modes_and_grid_generate_each_batch_once(self, small_world, monkeypatch, tmp_path):
        """Counted across every process that generates: the parent and fan_out's workers."""
        import distillab.refine as refine_module

        train, test, det, encode_fn = small_world
        extract, extract_log = refine_module.extract_prototypes, tmp_path / "extractions.txt"

        def counting_extract(encode_fn, dataset, ipc, rng, **kwargs):
            with open(extract_log, "a") as f:
                f.write(f"{rng.seed} {' '.join(map(str, kwargs['classes']))}\n")
            return extract(encode_fn, dataset, ipc, rng, **kwargs)

        monkeypatch.setattr(refine_module, "extract_prototypes", counting_extract)
        gen = LoggingGenerator(train, tmp_path / "batches.txt", defect_rate=0.4)
        cfg = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
        eval_cfg = _downstream_cfg(
            modes=list(SELECTION_MODES), seeds=[1], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9]
        )
        selected = select_runs(train, encode_fn, gen, det, cfg, eval_cfg, sweep=True)
        report, (_, evidence) = score_runs(selected, test, eval_cfg)
        assert evidence["slots_checked"] > 0
        assert report["summary"]["tplus_s"]["n"] == 1
        # the initial pass (one batch per class) plus at least one refined slot
        batches = Counter((label, seeds) for _, label, seeds in gen.batches())
        assert len(batches) > train.num_classes
        assert set(batches.values()) == {1}
        # one bank: each class's prototypes extracted once, from one stream
        extractions = Counter(extract_log.read_text().splitlines())
        assert len({line.split()[0] for line in extractions}) == 1
        assert sorted(line.split()[1] for line in extractions) == [str(c) for c in range(train.num_classes)]
        assert set(extractions.values()) == {1}

        # every mode's selection from one bank equals a standalone run
        bank = generate_candidates(train, encode_fn, MockGenerator(train, defect_rate=0.4), det, cfg, SeededRng(1))
        for mode in SELECTION_MODES:
            mcfg = replace(cfg, selection_mode=mode)
            shared = select(bank, mcfg)
            fresh_gen = MockGenerator(train, defect_rate=0.4)
            fresh = select(generate_candidates(train, encode_fn, fresh_gen, det, mcfg, SeededRng(1)), mcfg)
            assert shared.report == fresh.report
            write_dataset(tmp_path / "shared.dstl", shared.dataset)
            write_dataset(tmp_path / "fresh.dstl", fresh.dataset)
            assert (tmp_path / "shared.dstl").read_bytes() == (tmp_path / "fresh.dstl").read_bytes()

        for field, value in (("num_candidates", 7), ("strength", 0.5)):
            with pytest.raises(ValueError, match=field):
                select(bank, replace(cfg, **{field: value}))


def _non_finite_training(datasets, cfg, rngs):
    raise NonFiniteError("downstream loss contains non-finite values")


@pytest.fixture()
def job_pids(tmp_path, monkeypatch):
    """The pid of every downstream training, read back from a file the workers append to."""
    import distillab.evalharness as evalharness

    log = tmp_path / "job_pids.txt"
    real = evalharness.train_downstream

    def logging(datasets, cfg, rngs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n" * len(datasets))
        return real(datasets, cfg, rngs)

    monkeypatch.setattr(evalharness, "train_downstream", logging)
    return lambda: [int(line) for line in log.read_text().split()] if log.exists() else []


class TestFanOut:
    """The downstream trainings run on every usable core; results do not depend on how many."""

    def _inputs(self, small_world):
        train, _, det, encode_fn = small_world
        return (train, encode_fn, MockGenerator(train, defect_rate=0.4), det)

    def _cfgs(self):
        cfg = DistillConfig(ipc=4, beta=0.7, top_k=2, num_candidates=6, kmeans_restarts=2)
        eval_cfg = _downstream_cfg(
            modes=["base", "tplus_s"], seeds=[1, 2], sensitivity_top_k=[1, 2], sensitivity_betas=[0.5, 0.9]
        )
        return cfg, eval_cfg

    def _loop(self, inputs, test, cfg, eval_cfg):
        """The runs one after another: generate_candidates and select, train_downstream, evaluate."""
        from distillab.evalharness import _KEY_BASELINE, _KEY_DOWNSTREAM, _random_subset

        train, encode_fn, gen, det = inputs

        def accuracy(dataset, seed):
            [clf] = train_downstream([dataset], eval_cfg, [SeededRng(seed).spawn(_KEY_DOWNSTREAM)])
            return evaluate(clf, test)

        def record(mode, seed, dataset, fallbacks):
            return {"mode": mode, "seed": seed, "accuracy": accuracy(dataset, seed), "fallback_count": fallbacks}

        records = []
        for seed in eval_cfg.seeds:
            for mode in eval_cfg.modes:
                mcfg = replace(cfg, selection_mode=mode)
                res = select(generate_candidates(train, encode_fn, gen, det, mcfg, SeededRng(seed)), mcfg)
                records.append(record(mode, seed, res.dataset, res.report["counts"]["fallback"]))
            subset = _random_subset(train, cfg.ipc, SeededRng(seed).spawn(_KEY_BASELINE))
            records.append(record("random", seed, subset, 0))
        accuracies = []
        for k in sorted(eval_cfg.sensitivity_top_k):
            for beta in eval_cfg.sensitivity_betas:
                gcfg = replace(cfg, top_k=k, beta=beta, selection_mode="tplus_s")
                res = select(generate_candidates(train, encode_fn, gen, det, gcfg, SeededRng(eval_cfg.seeds[0])), gcfg)
                accuracies.append(accuracy(res.dataset, eval_cfg.seeds[0]))
        return records, accuracies

    def test_one_worker_two_workers_and_a_loop_agree(self, small_world, cores, job_pids):
        cfg, eval_cfg = self._cfgs()
        results = {}
        for n in (1, 2):
            cores(n)
            inputs = self._inputs(small_world)
            before = len(job_pids())
            selected = select_runs(*inputs, cfg, eval_cfg, sweep=True)
            report, (grid, evidence) = score_runs(selected, small_world[1], eval_cfg)
            # one round: the parent trains its share; with 2 cores one worker trains the rest
            pids = set(job_pids()[before:])
            assert os.getpid() in pids and len(pids) == n
            assert_no_children()
            results[n] = (report, grid, evidence)
        assert results[1] == results[2]

        records, accuracies = self._loop(self._inputs(small_world), small_world[1], cfg, eval_cfg)
        report, grid, _ = results[2]
        assert report["records"] == records
        assert [row["accuracy"] for row in grid] == accuracies
        assert len(accuracies) == 4

    def test_worker_exception_keeps_its_type(self, small_world, monkeypatch, cores):
        import distillab.evalharness as evalharness

        monkeypatch.setattr(evalharness, "train_downstream", _non_finite_training)
        cores(2)
        cfg, eval_cfg = self._cfgs()
        with pytest.raises(NonFiniteError, match="non-finite"):
            score_runs(select_runs(*self._inputs(small_world), cfg, eval_cfg), small_world[1], eval_cfg)
        assert_no_children()

    def test_dead_worker_raises_instead_of_waiting(self, small_world, monkeypatch, cores):
        from concurrent.futures.process import BrokenProcessPool

        import distillab.evalharness as evalharness

        parent = os.getpid()

        def dying(datasets, cfg, rngs):
            if os.getpid() != parent:
                os._exit(1)  # as a worker killed for memory would
            return [None] * len(datasets)

        monkeypatch.setattr(evalharness, "train_downstream", dying)
        cores(2)
        cfg, eval_cfg = self._cfgs()
        with pytest.raises(BrokenProcessPool):
            score_runs(select_runs(*self._inputs(small_world), cfg, eval_cfg), small_world[1], eval_cfg)
        assert_no_children()


class TestTrainAll:
    def test_each_distinct_job_trains_once_in_job_order(self, small_world, tmp_path, monkeypatch, cores):
        """Counted across every process that trains: the parent and fan_out's workers.

        Each core trains its share in near-equal lockstep calls of at most
        ``_LOCKSTEP_JOBS`` jobs, and every classifier equals training its job alone.
        """
        import hashlib

        import distillab.evalharness as evalharness

        train, _, _, _ = small_world
        log, calls_log = tmp_path / "trainings.txt", tmp_path / "calls.txt"

        def logging(datasets, cfg, rngs):
            with open(calls_log, "a") as f:
                f.write(f"{len(datasets)}\n")
            with open(log, "a") as f:
                for dataset, rng in zip(datasets, rngs):
                    digest = hashlib.sha256(dataset.images).hexdigest()[:12]
                    f.write(f"{os.getpid()} {digest} {cfg.epochs} {rng!r}\n")
            return train_downstream(datasets, cfg, rngs)

        def subset(rows):
            return LabeledDataset(train.images[rows].copy(), train.labels[rows].copy(), 3, train.class_names)

        cfg = EvalConfig(epochs=2, batch_size=16, hidden_sizes=[8])
        a, b, c, advanced = subset(slice(0, 30)), subset(slice(30, 60)), subset(slice(60, 90)), SeededRng(1)
        advanced.raw_u64(1)
        jobs = [
            (a, SeededRng(1)),
            (b, SeededRng(1)),
            (subset(slice(0, 30)), SeededRng(1)),  # other arrays, same bytes: a repeat of job 0
            (a, SeededRng(2)),
            (c, SeededRng(1)),
            (a, advanced),
            (b, SeededRng(1)),
            (b, SeededRng(2)),
            (c, SeededRng(2)),
            (c, SeededRng(3)),
        ]
        alone = [train_downstream([dataset], cfg, [rng])[0] for dataset, rng in jobs]
        monkeypatch.setattr(evalharness, "train_downstream", logging)
        # 8 distinct jobs: on 1 core they train in stacks of 3, 3 and 2 (stacks hold at most 3);
        # on 2 cores each core's share of 4 trains in two stacks of 2
        assert evalharness._LOCKSTEP_JOBS == 3
        calls = {1: [3, 3, 2], 2: [2, 2, 2, 2]}
        for n in (1, 2):
            cores(n)
            log.unlink(missing_ok=True)
            calls_log.unlink(missing_ok=True)
            out = evalharness._train_all(jobs, cfg)
            lines = log.read_text().splitlines()
            assert len(lines) == 8
            assert len({line.split(" ", 1)[1] for line in lines}) == 8
            pids = {line.split()[0] for line in lines}
            assert len(pids) == n and str(os.getpid()) in pids
            assert sorted(map(int, calls_log.read_text().split()), reverse=True) == calls[n]
            assert_no_children()
            assert out[2] is out[0] and out[6] is out[1]
            for clf, want in zip(out, alone):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(clf.mlp.params(), want.mlp.params()))
                assert clf.meta == want.meta


class TestFanOutCli:
    def test_worker_failure_exits_4(self, pipeline, tmp_path, monkeypatch, capsys, cores):
        import distillab.evalharness as evalharness
        from distillab.cli import main

        rd = _copy_run(pipeline, tmp_path)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        monkeypatch.setattr(evalharness, "train_downstream", _non_finite_training)
        cores(2)
        capsys.readouterr()
        assert main(["ablate", "--config", str(pipeline[1])]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and len(err.strip().splitlines()) == 1
        assert_no_children()
        assert not (rd / ".lock").exists()

    def test_lock_is_removed_by_the_parent_only(self, pipeline, tmp_path, monkeypatch, job_pids, cores):
        import distillab.cli as cli
        import distillab.evalharness as evalharness

        rd = _copy_run(pipeline, tmp_path)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        exits, held = tmp_path / "exits.txt", tmp_path / "held.txt"
        real_exit, real_train = cli._Command.__exit__, evalharness.train_downstream
        real_train_all, calls = evalharness._train_all, []

        def recording_exit(self, *exc):
            with open(exits, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real_exit(self, *exc)

        def checking_train(datasets, cfg, rngs):
            with open(held, "a") as f:
                f.write(f"{(rd / '.lock').read_text()}\n")
            return real_train(datasets, cfg, rngs)

        def marking_train_all(jobs, cfg):
            start = len(job_pids())
            out = real_train_all(jobs, cfg)
            calls.append(set(job_pids()[start:]))
            return out

        monkeypatch.setattr(cli._Command, "__exit__", recording_exit)
        monkeypatch.setattr(evalharness, "train_downstream", checking_train)
        monkeypatch.setattr(evalharness, "_train_all", marking_train_all)
        cores(2)
        assert cli.main(["ablate", "--config", str(pipeline[1]), "--sweep"]) == 0
        assert exits.read_text().split() == [str(os.getpid())]
        # one fan-out of trainings for the ablation and the sweep: the parent trains its share, one worker the rest
        assert len(calls) == 1
        for pids in calls:
            assert len(pids) == 2 and os.getpid() in pids
        # every training saw the parent's lock in place
        assert set(held.read_text().split()) == {str(os.getpid())}
        assert not (rd / ".lock").exists()
        assert_no_children()

    def test_inputs_are_released_before_the_trainings(self, pipeline, tmp_path, monkeypatch):
        """``ablate`` drops the training set and the three models once every run is selected:
        none of them is alive when its training phase starts, and ``test`` still is."""
        import distillab.cli as cli
        import distillab.evalharness as evalharness

        _copy_run(pipeline, tmp_path)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        refs, alive = {}, []

        def recording(read):
            def reader(path):
                obj = read(path)
                refs[os.path.basename(path)] = weakref.ref(obj)
                return obj

            return reader

        for name in ("read_dataset", "load_detector", "load_autoencoder", "load_denoiser"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        real_train_all = evalharness._train_all

        def training(jobs, cfg):
            alive.append({name: ref() is not None for name, ref in refs.items()})
            return real_train_all(jobs, cfg)

        monkeypatch.setattr(evalharness, "_train_all", training)
        assert cli.main(["ablate", "--config", str(pipeline[1]), "--sweep"]) == 0
        files = ("train.dstl", "detector.mdlc", "autoencoder.mdlc", "denoiser.mdlc")
        assert alive == [{"test.dstl": True, **{name: False for name in files}}]

    def test_sampler_failure_in_a_worker_exits_4(self, pipeline, tmp_path, monkeypatch, capsys, cores):
        """A NonFiniteError raised by the sampler in a class job's worker ends distill with exit 4."""
        import distillab.refine as refine
        from distillab.cli import main

        parent, sample = os.getpid(), refine.sample_img2img_batch

        def failing_in_workers(*args):
            if os.getpid() != parent:
                raise NonFiniteError("sampled latents contain non-finite values")
            return sample(*args)

        rd = _copy_run(pipeline, tmp_path)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        monkeypatch.setattr(refine, "sample_img2img_batch", failing_in_workers)
        cores(2)
        capsys.readouterr()
        assert main(["distill", "--config", str(pipeline[1])]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and len(err.strip().splitlines()) == 1
        assert_no_children()
        assert not (rd / ".lock").exists()

    def test_sweep_check_failure_exits_7(self, pipeline, tmp_path, monkeypatch, capsys):
        import distillab.evalharness as evalharness
        from distillab.cli import main

        def failing_check(slot_candidates):
            raise SweepCheckError("candidate batch for slot (0, 0) varies across the grid")

        rd = _copy_run(pipeline, tmp_path)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        monkeypatch.setattr(evalharness, "check_sweep_slots", failing_check)
        capsys.readouterr()
        assert main(["ablate", "--config", str(pipeline[1]), "--sweep"]) == 7
        err = capsys.readouterr().err
        assert err.startswith("sweep check failed: ") and len(err.strip().splitlines()) == 1
        # the check runs before any training, so no report is written, the ablation's included
        for name in ("sensitivity.csv", "ablation.json", "ablation.csv"):
            assert not (rd / "reports" / name).exists()
        assert not (rd / ".lock").exists()

    def test_sweep_leaves_the_ablation_reports_unchanged(self, pipeline, tmp_path, monkeypatch):
        from distillab.cli import main

        reports = []
        for argv in (["ablate"], ["ablate", "--sweep"]):
            root = tmp_path / str(len(argv))
            rd = _copy_run(pipeline, root)
            monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(root / "runs"))
            assert main([*argv, "--config", str(pipeline[1])]) == 0
            reports.append([(rd / "reports" / name).read_bytes() for name in ("ablation.json", "ablation.csv")])
        assert reports[0] == reports[1]


def _candidates(*confidences, label=0):
    return [{"index": i, "predicted_label": label, "confidence": c} for i, c in enumerate(confidences)]


class TestSweepChecks:
    def test_consistent_slots_pass(self):
        cells = [(0.5, _candidates(0.6, 0.95)), (0.9, _candidates(0.6, 0.95))]
        assert check_sweep_slots({(0, 0): cells, (1, 0): cells[1:]}) == 2

    def test_forged_batch_raises(self):
        forged = {(0, 1): [(0.5, _candidates(0.6, 0.95)), (0.9, _candidates(0.6, 0.96))]}
        with pytest.raises(SweepCheckError, match=r"slot \(0, 1\) varies"):
            check_sweep_slots(forged)

    def test_checks_run_under_python_o(self):
        """The checks are not asserts: ``python -O`` keeps them."""
        code = (
            "from distillab.evalharness import SweepCheckError, check_sweep_slots\n"
            "batch = [{'index': 0, 'predicted_label': 0, 'confidence': 0.95}]\n"
            "forged = dict(batch[0], confidence=0.5)\n"
            "try:\n"
            "    check_sweep_slots({(0, 1): [(0.5, batch), (0.9, [forged])]})\n"
            "except SweepCheckError as e:\n"
            "    print(e)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "varies across the grid" in proc.stdout

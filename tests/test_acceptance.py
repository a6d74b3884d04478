"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The heavyweight fixtures (trained detector, codec,
denoisers) are shared with the rest of the suite at session scope.
"""

import contextlib
import itertools
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from distillab.config import RunConfig
from distillab.numerics import SeededRng


@contextlib.contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:2d} ({name}): FAIL", flush=True)
        raise
    else:
        dt = time.perf_counter() - t0
        print(f"\n[acceptance] criterion {num:2d} ({name}): PASS in {dt:.1f}s", flush=True)


class TestAcceptance:
    def test_01_selection_oracle_equivalence(self):
        from distillab.refine import select_replacement
        from test_refine import _cfg, _sample, brute_force_select

        with criterion(1, "selection oracle equivalence"):
            t0 = time.perf_counter()
            rng = SeededRng(424242)
            for _ in range(1000):
                n = 1 + rng.integers(32)
                d = 1 + rng.integers(64)
                pool_size = rng.integers(17)
                k = 1 + rng.integers(n)
                beta = 0.2 + 0.7 * float(rng.uniform(1)[0])
                pool = [rng.normal(d).astype(np.float32) for _ in range(pool_size)]
                cands = [
                    _sample(
                        intended=0,
                        predicted=int(rng.integers(2)),
                        conf=round(float(rng.uniform(1)[0]) * 20) / 20,
                        feature=rng.normal(d),
                        index=i,
                    )
                    for i in range(n)
                ]
                cfg = _cfg("tplus_s", top_k=k, beta=beta, num_candidates=n)
                assert select_replacement(cands, pool, cfg) == brute_force_select(cands, pool, cfg)
            assert time.perf_counter() - t0 < 10.0

    def test_02_kmeans_tiny_optimality(self):
        from distillab.prototypes import kmeans
        from test_prototypes import exhaustive_kmeans_optimum

        with criterion(2, "k-means tiny-instance optimality"):
            t0 = time.perf_counter()
            # fixed instance set: seeded draws plus hand-built degenerate cases
            instances = [
                (np.array([[0.0], [1.0], [10.0], [11.0]]), 2),
                (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0], [11.0, 0.0]]), 3),
                (np.array([[1.0, 1.0]] * 4 + [[0.0, 0.0]]), 2),
            ]
            gen = SeededRng(31337)
            for trial in range(12):
                n = 4 + gen.integers(5)
                d = 1 + gen.integers(2)
                c = 2 + gen.integers(2)
                pts = gen.normal((int(n), int(d))).astype(np.float64)
                instances.append((pts, int(min(c, n))))
            for i, (pts, c) in enumerate(instances):
                res = kmeans(pts, c, restarts=20, rng=SeededRng(1000 + i))
                opt = exhaustive_kmeans_optimum(np.asarray(pts, dtype=np.float64), c)
                assert res.inertia <= opt + 1e-6, f"instance {i}: {res.inertia} > {opt}"
            # Lloyd monotonicity on 100 random instances
            rng = SeededRng(777)
            for trial in range(100):
                n = 6 + rng.integers(30)
                d = 1 + rng.integers(3)
                c = 1 + rng.integers(min(5, n))
                pts = rng.normal((int(n), int(d))).astype(np.float64)
                res = kmeans(pts, int(c), restarts=2, rng=SeededRng(2000 + trial))
                assert np.all(np.diff(res.inertia_history) <= 1e-9)
            assert time.perf_counter() - t0 < 30.0

    def test_03_cutmix_exactness(self):
        from distillab.data import cutmix

        with criterion(3, "CutMix exactness"):
            rng = SeededRng(9090)
            n, h, w = 1000, 16, 16
            base = np.zeros((n, 1, h, w), dtype=np.float32)
            patch = np.ones((n, 1, h, w), dtype=np.float32)
            lam = rng.uniform(n)
            center = (rng.integers(h, n=n), rng.integers(w, n=n))
            labels = np.zeros(n, dtype=np.int64)
            out = cutmix(base, labels, patch, labels + 1, lam, num_classes=2, center=center)
            for r in range(n):
                from_patch = int(out.image[r].sum())
                retained = h * w - from_patch
                # bit-exact: soft-label weight equals the counted fraction
                assert out.soft_label[r, 0] == retained / (h * w)
                assert out.mix_ratio[r] == retained / (h * w)
            # provenance: every pixel comes from exactly one source
            assert np.all((out.image == 0.0) | (out.image == 1.0))

    def test_04_gradient_checks(self):
        from conftest import as_float64, gradient_check
        from distillab.config import DenoiserConfig
        from distillab.diffusion import denoise_loss_and_grads, timestep_embedding, train_denoiser
        from distillab.models import (
            _ae_loss_and_grads,
            _soft_cross_entropy,
            mlp_backward,
            mlp_forward,
            mlp_init,
        )

        with criterion(4, "gradient checks vs central differences"):
            rng = SeededRng(123)
            det_mlp = as_float64(mlp_init([6, 5, 4, 3], rng))
            x = rng.normal((7, 6)).astype(np.float64)
            y = np.zeros((7, 3))
            y[np.arange(7), rng.integers(3, n=7)] = 0.7
            y += 0.1

            def det_loss():
                acts = mlp_forward(det_mlp, x)
                loss, dlogits = _soft_cross_entropy(acts[-1], y)
                grads, _ = mlp_backward(det_mlp, acts, dlogits)
                return loss, grads

            checked, _ = gradient_check(det_loss, det_mlp.params(), SeededRng(1), probes=60)
            assert checked >= 50

            enc = as_float64(mlp_init([8, 6, 3], rng.spawn(0)))
            dec = as_float64(mlp_init([3, 6, 8], rng.spawn(1)))
            xb = rng.normal((5, 8)).astype(np.float64)
            checked, _ = gradient_check(
                lambda: _ae_loss_and_grads(enc, dec, xb),
                enc.params() + dec.params(),
                SeededRng(2),
                probes=60,
            )
            assert checked >= 50

            latents = rng.normal((40, 6))
            labels = rng.integers(3, n=40)
            den = as_float64(train_denoiser(
                latents,
                labels,
                DenoiserConfig(
                    epochs=1, batch_size=8, hidden_sizes=[16, 16],
                    time_embed_dim=4, label_embed_dim=4, timesteps=10, beta_start=1e-3, beta_end=0.2,
                ),
                SeededRng(3),
            ))
            b = 10
            zt = rng.normal((b, 6)).astype(np.float64)
            t = rng.integers(10, n=b) + 1
            tokens = rng.integers(4, n=b)
            eps = rng.normal((b, 6)).astype(np.float64)
            checked, _ = gradient_check(
                lambda: denoise_loss_and_grads(den, zt, timestep_embedding(t, 4), tokens, eps),
                den.mlp.params() + [den.label_table],
                SeededRng(4),
                probes=60,
            )
            assert checked >= 50

    def test_05_diffusion_statistics(self, frozen_schedule):
        from distillab.config import DenoiserConfig
        from distillab.diffusion import build_schedule, forward_noise

        with criterion(5, "diffusion schedule and forward-noise statistics"):
            # high-precision cumulative-product oracle at T=1000
            import mpmath

            mpmath.mp.dps = 50
            sched1000 = build_schedule(DenoiserConfig(timesteps=1000, beta_start=1e-4, beta_end=0.02))
            start, end = mpmath.mpf("1e-4"), mpmath.mpf("0.02")
            prod = mpmath.mpf(1)
            for i in range(1000):
                prod *= 1 - (start + (end - start) * i / 999)
            expected = float(prod)
            assert abs(sched1000.alpha_bars[-1] - expected) / expected < 1e-9

            # monotonicity of the default schedule
            assert np.all(np.diff(frozen_schedule.alpha_bars) < 0)
            assert frozen_schedule.alpha_bars[0] >= 0.99
            assert frozen_schedule.alpha_bars[-1] < 0.05

            # Monte-Carlo variance at 5 timesteps
            rng = SeededRng(2718)
            T = frozen_schedule.timesteps
            dim = 16
            z0 = np.zeros(dim, dtype=np.float32)
            for t in (1, T // 4, T // 2, 3 * T // 4, T):
                draws = np.stack(
                    [forward_noise(z0, t, rng.normal(dim), frozen_schedule) for _ in range(700)]
                )
                var = draws.astype(np.float64).var()
                want = 1.0 - frozen_schedule.alpha_bars[t - 1]
                tol = 3.0 * want * np.sqrt(2.0 / draws.size)
                assert abs(var - want) < tol, f"t={t}: {var} vs {want}"

    def test_06_class_fidelity(
        self, denoiser, frozen_schedule, codec, detector, toy_train
    ):
        from distillab.diffusion import sample_img2img_batch
        from distillab.models import predict_batch
        from distillab.prototypes import extract_prototypes

        with criterion(6, "generation class fidelity >= 80% per class"):
            t0 = time.perf_counter()
            protos = extract_prototypes(codec.encode, toy_train, 10, SeededRng(77), restarts=10)
            worst = 1.0
            for c in range(toy_train.num_classes):
                latvecs = np.stack([p.latent for p in protos if p.class_id == c])
                reps = np.tile(latvecs, (10, 1))[:100]
                rngs = [SeededRng(0).spawn(55, c, i) for i in range(100)]
                [out] = sample_img2img_batch(
                    denoiser, frozen_schedule, reps[None], (c,), 0.7, 10.0, rngs
                )
                labels, _, _ = predict_batch(detector, codec.decode(out))
                frac = (labels == c).mean()
                worst = min(worst, frac)
                assert frac >= 0.8, f"class {c}: fidelity {frac}"
            assert time.perf_counter() - t0 < 300.0

    def test_07_refinement_consistency(self):
        from distillab.config import DetectorConfig, DistillConfig, ToyDataSpec
        from distillab.data import synthesize_toy_dataset
        from distillab.models import predict_batch, train_detector
        from distillab.refine import generate_candidates, select
        from test_refine import MockGenerator

        with criterion(7, "controlled-defect refinement consistency"):
            spec = ToyDataSpec(
                num_classes=3, train_per_class=120, test_per_class=30, image_height=8, image_width=8
            )
            train, _ = synthesize_toy_dataset(spec, SeededRng(99))
            [det] = train_detector(
                [train], DetectorConfig(epochs=15, batch_size=32, hidden_sizes=[48, 24]), [SeededRng(1)],
                use_cutmix=True,
            )
            cfg = DistillConfig(ipc=10, beta=0.6, num_candidates=20, top_k=2, kmeans_restarts=2)
            initial = MockGenerator(train, defect_rate=0.12)
            clean = MockGenerator(train, always_correct=True)

            class PhasedGen:
                """12% label defects on the initial pass (batches of ipc rows),
                clean candidates (batches of num_candidates rows)."""

                def generate_batch(self, prototypes, labels, rngs, cfg):
                    use = clean if prototypes.shape[1] == cfg.num_candidates else initial
                    return use.generate_batch(prototypes, labels, rngs, cfg)

            bank = generate_candidates(train, lambda im: im.reshape(len(im), -1), PhasedGen(), det, cfg, SeededRng(13))
            res = select(bank, cfg)
            fallback_count = res.report["counts"]["fallback"]
            print(f"  fallback count: {fallback_count} of {res.report['counts']['total']}")
            inconsistent = 0
            for slot, image, label in zip(res.report["slots"], res.dataset.images, res.dataset.labels):
                if slot["status"] == "fallback":
                    continue
                labels, confs, _ = predict_batch(det, image[None])
                if int(labels[0]) != label or float(confs[0]) <= cfg.beta:
                    inconsistent += 1
            assert inconsistent == 0

    def test_08_ablation_direction(self, toy_train, toy_test, codec, detector, weak_denoiser, frozen_schedule):
        from distillab.evalharness import score_runs, select_runs
        from distillab.refine import DiffusionCandidateGenerator

        with criterion(8, "desk-scale ablation direction"):
            t0 = time.perf_counter()
            gen = DiffusionCandidateGenerator(weak_denoiser, frozen_schedule, codec.decode)
            defaults = RunConfig()
            assert defaults.eval.modes == ["base", "top1", "sim", "tplus_s"]
            assert defaults.eval.seeds == [1, 2, 3]
            selected = select_runs(toy_train, codec.encode, gen, detector, defaults.distill, defaults.eval)
            report, _ = score_runs(selected, toy_test, defaults.eval)
            m = report["summary"]
            for mode in ("base", "top1", "sim", "tplus_s", "random"):
                s = m[mode]
                std = f"{s['std']:.4f}" if s["std"] is not None else "-"
                print(f"  {mode:8s} mean={s['mean']:.4f} std={std} fallbacks={s['fallbacks']}")
            assert m["tplus_s"]["mean"] >= m["base"]["mean"] - 0.005
            wins = 0
            for seed in (1, 2, 3):
                accs = {
                    r["mode"]: r["accuracy"]
                    for r in report["records"]
                    if r["seed"] == seed and r["mode"] != "random"
                }
                if accs["tplus_s"] >= max(accs.values()):
                    wins += 1
            print(f"  tplus_s attains the mode maximum in {wins} of 3 seeds")
            assert wins >= 2
            assert time.perf_counter() - t0 < 1200.0

    def test_09_end_to_end_determinism(self, tmp_path, monkeypatch):
        from distillab.cli import main
        from test_cli import TINY_CONFIG

        with criterion(9, "byte-identical end-to-end runs"):
            digests = []
            for run in ("a", "b"):
                root = tmp_path / f"root_{run}"
                monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(root))
                cfg_path = tmp_path / f"config_{run}.json"
                cfg_path.write_text(json.dumps(TINY_CONFIG))
                for cmd in (
                    "synth-data",
                    "train-detector",
                    "train-autoencoder",
                    "train-diffusion",
                    "distill",
                ):
                    assert main([cmd, "--config", str(cfg_path)]) == 0
                run_dir = next(d for d in root.iterdir() if d.is_dir())
                digests.append(
                    {
                        "distilled": (run_dir / "distilled" / "distilled.dstl").read_bytes(),
                        "report": (run_dir / "reports" / "distill_report.json").read_bytes(),
                        "prototypes": (run_dir / "prototypes" / "prototypes.prto").read_bytes(),
                        "manifest": (
                            run_dir / "distilled" / "distilled.dstl.manifest.json"
                        ).read_bytes(),
                    }
                )
            assert digests[0] == digests[1]

    def test_10_sensitivity_harness(self, toy_train, toy_test, codec, detector, weak_denoiser, frozen_schedule):
        from distillab.evalharness import score_runs, select_runs
        from distillab.refine import DiffusionCandidateGenerator

        with criterion(10, "k/beta sensitivity grid with monotone filter"):
            gen = DiffusionCandidateGenerator(weak_denoiser, frozen_schedule, codec.decode)
            defaults = RunConfig()
            assert defaults.eval.sensitivity_top_k == [1, 2, 4, 8]
            assert defaults.eval.sensitivity_betas == [0.5, 0.7, 0.9]
            assert defaults.eval.seeds[0] == 1
            # the grid runs on the first seed; one mode keeps the ablation's share of the call small
            ablation = replace(defaults.eval, modes=["tplus_s"], seeds=defaults.eval.seeds[:1])
            selected = select_runs(toy_train, codec.encode, gen, detector, defaults.distill, ablation, sweep=True)
            _, (grid, evidence) = score_runs(selected, toy_test, ablation)
            assert len(grid) == 12
            assert {(g["top_k"], g["beta"]) for g in grid} == set(
                itertools.product([1, 2, 4, 8], [0.5, 0.7, 0.9])
            )
            assert evidence["slots_checked"] > 0
            for row in grid:
                assert 0.0 <= row["accuracy"] <= 1.0
            print(f"  {evidence['slots_checked']} slots checked for the monotone filter")

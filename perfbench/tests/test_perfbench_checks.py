"""Tests for the benchmark's own checks and tracer.

Each output check must accept what the program writes today and reject a
corrupted copy. Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Runs in seconds, yet the detector accepts most generated images at beta
# 0.6, so the detector check has normal, refined and fallback slots to test.
SMALL = workloads.merged(workloads.PINNED, {
    "data": {"num_classes": 5, "train_per_class": 200, "test_per_class": 40},
    "denoiser": {"epochs": 100},
    "distill": {"ipc": 4, "beta": 0.6, "top_k": 2, "num_candidates": 4, "kmeans_restarts": 2},
    "eval": {"modes": ["base", "top1", "sim", "tplus_s"], "seeds": [1],
             "sensitivity_top_k": [1, 2], "sensitivity_betas": [0.3, 0.6]},
})


def _pipeline(tmp: Path, commands) -> Path:
    ledger = workloads.Ledger(deadline=time.monotonic() + 600)
    cfg = workloads.write_config(tmp / "config.json", SMALL)
    root = workloads.fresh_dir(tmp / "runs")
    for argv in commands:
        workloads.run_command(argv, cfg, root, ledger, tmp)
    assert ledger.failed == 0, ledger.problems
    return workloads.run_dir_of(root)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp("cold"), workloads.WORKLOADS["cold_pipeline"].commands)


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp("ablation"), workloads.WORKLOADS["ablation_sweep"].commands)


@pytest.fixture()
def cold_copy(cold_run, tmp_path):
    dst = tmp_path / cold_run.name
    shutil.copytree(cold_run, dst)
    return dst


@pytest.fixture()
def ablation_copy(ablation_run, tmp_path):
    dst = tmp_path / ablation_run.name
    shutil.copytree(ablation_run, dst)
    return dst


def _edit_json(path: Path, fn) -> None:
    payload = json.loads(path.read_text())
    fn(payload)
    path.write_text(json.dumps(payload))


def test_cold_checks_accept_program_output(cold_run):
    sha = checks.check_cold(cold_run, SMALL)
    assert sha == checks.sha256_file(cold_run / "distilled" / "distilled.dstl")
    statuses = {s["status"] for s in json.loads((cold_run / "reports" / "distill_report.json").read_text())["slots"]}
    assert statuses == {"normal", "refined", "fallback"}


def test_flipped_slot_status_rejected(cold_copy):
    path = cold_copy / "reports" / "distill_report.json"
    _edit_json(path, lambda r: r["slots"][[s["status"] for s in r["slots"]].index("normal")].update(status="fallback"))
    with pytest.raises(checks.CheckError, match="disagree with counts"):
        checks.check_cold(cold_copy, SMALL)


def test_fallback_slot_marked_accepted_fails_detector_check(cold_copy):
    """Counts kept consistent, so only the independent detector forward can tell."""

    def promote(report):
        slot = next(s for s in report["slots"] if s["status"] == "fallback")
        slot["status"] = "normal"
        report["counts"]["fallback"] -= 1
        report["counts"]["normal"] += 1

    _edit_json(cold_copy / "reports" / "distill_report.json", promote)
    with pytest.raises(checks.CheckError, match="detector gives label"):
        checks.check_cold(cold_copy, SMALL)


@pytest.mark.parametrize("rel", ["distilled/distilled.dstl", "models/detector.mdlc", "data/test.dstl"])
def test_truncated_file_rejected(cold_copy, rel):
    path = cold_copy / rel
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(checks.CheckError, match="truncated|sha256 does not match"):
        checks.check_cold(cold_copy, SMALL)


def test_truncated_container_rejected_by_reader(cold_copy):
    path = cold_copy / "distilled" / "distilled.dstl"
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(checks.CheckError, match="truncated"):
        checks.read_dstl(path)


def test_wrong_input_hash_rejected(cold_copy):
    path = cold_copy / "distilled" / "distilled.dstl.manifest.json"
    _edit_json(path, lambda m: m["inputs"].update({"detector.mdlc": "0" * 64}))
    with pytest.raises(checks.CheckError, match="input sha256 does not match detector.mdlc"):
        checks.check_manifests(cold_copy, checks.COLD_INPUTS)


def test_changed_output_bytes_rejected(cold_copy):
    path = cold_copy / "reports" / "eval.json"
    path.write_text(path.read_text().replace('"master_seed"', '"master_seed" ', 1))
    with pytest.raises(checks.CheckError, match="output sha256 does not match eval.json"):
        checks.check_manifests(cold_copy, checks.COLD_INPUTS)


def test_missing_manifest_input_rejected(cold_copy):
    path = cold_copy / "reports" / "eval.json.manifest.json"
    _edit_json(path, lambda m: m["inputs"].pop("test.dstl"))
    with pytest.raises(checks.CheckError, match="not listed"):
        checks.check_manifests(cold_copy, checks.COLD_INPUTS)


def test_independent_forward_matches_program(cold_run):
    import numpy as np
    from distillab.data import read_dataset
    from distillab.models import load_detector, predict_batch

    images = read_dataset(cold_run / "distilled" / "distilled.dstl").images
    labels, confs, _ = predict_batch(load_detector(cold_run / "models" / "detector.mdlc"), images)
    _, arrays = checks.read_mdlc(cold_run / "models" / "detector.mdlc")
    mine_labels, mine_confs = checks.mlp_max_softmax(arrays, checks.read_dstl(cold_run / "distilled" / "distilled.dstl")["images"])
    assert np.array_equal(labels, mine_labels)
    assert np.allclose(confs, mine_confs, rtol=0, atol=1e-12)


def test_ablation_checks_accept_program_output(ablation_run):
    records = checks.check_ablation(ablation_run, SMALL)
    assert len(records) == 5 and all("seconds" not in r for r in records)


def test_ablation_grid_row_dropped_rejected(ablation_copy):
    path = ablation_copy / "reports" / "sensitivity.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(checks.CheckError, match="rows, expected"):
        checks.check_ablation(ablation_copy, SMALL)


def test_ablation_fallback_order_rejected(ablation_copy):
    def break_order(payload):
        rec = next(r for r in payload["records"] if r["mode"] == "tplus_s")
        rec["fallback_count"] = 10**6

    _edit_json(ablation_copy / "reports" / "ablation.json", break_order)
    with pytest.raises(checks.CheckError, match="tplus_s <= top1 <= base"):
        checks.check_ablation(ablation_copy, SMALL)


def test_tracer_wraps_every_binding_and_restores():
    import distillab.diffusion as diffusion
    import distillab.evalharness as evalharness
    import distillab.models as models
    import distillab.refine as refine

    forward, predict = models.mlp_forward, models.predict_batch
    tracer = tracing.Tracer()
    with tracer.installed():
        assert diffusion.mlp_forward is models.mlp_forward is not forward
        assert refine.predict_batch is evalharness.predict_batch is models.predict_batch is not predict
        assert evalharness.train_detector is models.train_detector
        assert refine.extract_prototypes.__wrapped__.__module__ == "distillab.prototypes"
    assert models.mlp_forward is forward and diffusion.mlp_forward is forward
    assert refine.predict_batch is predict and evalharness.predict_batch is predict


def test_missed_binding_is_reported():
    assert tracing.missing_layers("cold_pipeline", tracing.layer_metrics(tracing.Tracer())) == [
        "data.cutmix_calls", "diffusion.sample_calls",
    ]


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

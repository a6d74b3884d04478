import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distillab.cli import main

TINY_CONFIG = {
    "master_seed": 5,
    "data": {
        "num_classes": 3,
        "train_per_class": 40,
        "test_per_class": 10,
        "image_height": 8,
        "image_width": 8,
    },
    "detector": {"epochs": 6, "batch_size": 32, "hidden_sizes": [32, 16]},
    "autoencoder": {"latent_dim": 8, "hidden_size": 32, "epochs": 6},
    "denoiser": {
        "timesteps": 30,
        "beta_end": 0.08,
        "epochs": 5,
        "hidden_sizes": [32, 32],
        "time_embed_dim": 8,
        "label_embed_dim": 8,
    },
    "distill": {
        "ipc": 2,
        "beta": 0.6,
        "top_k": 2,
        "num_candidates": 4,
        "kmeans_restarts": 2,
    },
    "eval": {
        "epochs": 25,
        "batch_size": 8,
        "hidden_sizes": [32, 16],
        "modes": ["base", "tplus_s"],
        "seeds": [1],
        "sensitivity_top_k": [1, 2],
        "sensitivity_betas": [0.5, 0.9],
    },
}


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# TINY_CONFIG flags every slot and refines none; at beta 0.3 distill gives
# every status and the four modes choose differently
FOUR_MODE_CONFIG = dict(
    TINY_CONFIG,
    distill=dict(TINY_CONFIG["distill"], beta=0.3),
    eval=dict(TINY_CONFIG["eval"], modes=["base", "top1", "sim", "tplus_s"]),
)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    return tmp_path, cfg_path


def _run(*argv):
    return main(list(argv))


def _run_dir(tmp_path):
    runs = tmp_path / "runs"
    dirs = [d for d in runs.iterdir() if d.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny full pipeline, built once for the read-only CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli_pipeline")
    os.environ["DISTILLAB_OUTPUT_ROOT"] = str(tmp_path / "runs")
    try:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG))
        for cmd in ("synth-data", "train-detector", "train-autoencoder", "train-diffusion"):
            assert _run(cmd, "--config", str(cfg_path)) == 0
        assert _run("distill", "--config", str(cfg_path)) == 0
    finally:
        del os.environ["DISTILLAB_OUTPUT_ROOT"]
    return tmp_path, cfg_path


class TestFullPipeline:
    def test_artifacts_exist(self, pipeline):
        tmp_path, _ = pipeline
        rd = _run_dir(tmp_path)
        for rel in (
            "data/train.dstl",
            "data/test.dstl",
            "models/detector.mdlc",
            "models/autoencoder.mdlc",
            "models/denoiser.mdlc",
            "prototypes/prototypes.prto",
            "distilled/distilled.dstl",
            "reports/distill_report.json",
        ):
            assert (rd / rel).exists(), rel
            assert (rd / (rel + ".manifest.json")).exists(), rel

    def test_distilled_counts(self, pipeline):
        from distillab.data import read_dataset

        tmp_path, _ = pipeline
        rd = _run_dir(tmp_path)
        ds = read_dataset(rd / "distilled" / "distilled.dstl")
        assert len(ds) == 3 * 2
        report = json.loads((rd / "reports" / "distill_report.json").read_text())
        assert report["counts"]["total"] == 6

    def test_eval_ablate_report(self, pipeline, monkeypatch, capsys):
        tmp_path, cfg_path = pipeline
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        assert _run("eval", "--config", str(cfg_path)) == 0
        assert _run("ablate", "--config", str(cfg_path), "--sweep") == 0
        assert _run("report", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        assert (rd / "reports" / "eval.json").exists()
        assert (rd / "reports" / "ablation.json").exists()
        csv_lines = (rd / "reports" / "ablation.csv").read_text().splitlines()
        assert csv_lines[0] == "mode,seed,accuracy,fallback_count"
        # base, tplus_s, random for the single seed
        assert len(csv_lines) == 4
        sweep = (rd / "reports" / "sensitivity.csv").read_text().splitlines()
        assert len(sweep) == 1 + 4  # header + 2 ks x 2 betas
        summary = (rd / "reports" / "summary.txt").read_text()
        assert "tplus_s" in summary

    def test_rerun_distill_byte_identical(self, pipeline, monkeypatch):
        tmp_path, cfg_path = pipeline
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        rd = _run_dir(tmp_path)
        ds = rd / "distilled" / "distilled.dstl"
        rp = rd / "reports" / "distill_report.json"
        before = (ds.read_bytes(), rp.read_bytes())
        assert _run("distill", "--config", str(cfg_path)) == 0
        after = (ds.read_bytes(), rp.read_bytes())
        assert before == after

    def test_distill_overrides_recorded(self, pipeline, monkeypatch):
        tmp_path, cfg_path = pipeline
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        assert (
            _run(
                "distill", "--config", str(cfg_path),
                "--beta", "0.9", "--top-k", "2", "--candidates", "20", "--seed", "7",
            )
            == 0
        )
        rd = _run_dir(tmp_path)
        report = json.loads((rd / "reports" / "distill_report.json").read_text())
        assert report["config"]["beta"] == 0.9
        assert report["config"]["top_k"] == 2
        assert report["config"]["num_candidates"] == 20
        assert report["config"]["seed"] == 7
        # restore the canonical artifacts for other tests
        assert _run("distill", "--config", str(cfg_path)) == 0

    def test_preview_pgm(self, pipeline, monkeypatch):
        tmp_path, cfg_path = pipeline
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        assert _run("synth-data", "--config", str(cfg_path), "--preview", "2") == 0
        rd = _run_dir(tmp_path)
        pgm = (rd / "data" / "preview_000.pgm").read_bytes()
        assert pgm.startswith(b"P5\n8 8\n255\n")
        assert len(pgm) == len(b"P5\n8 8\n255\n") + 64


class TestFourModes:
    """The tiny pipeline at FOUR_MODE_CONFIG, through ``ablate --sweep``."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("four_modes")
        commands = ("synth-data", "train-detector", "train-autoencoder", "train-diffusion", "distill")
        for command in commands + ("ablate --sweep",):
            proc = _cli(tmp_path, FOUR_MODE_CONFIG, *command.split())
            assert proc.returncode == 0, proc.stderr
        return _run_dir(tmp_path)

    def test_distill_gives_every_status(self, run_dir):
        report = json.loads((run_dir / "reports" / "distill_report.json").read_text())
        counts = report["counts"]
        assert counts == {"normal": 2, "refined": 2, "fallback": 2, "total": 6}
        statuses = [slot["status"] for slot in report["slots"]]
        assert {status: statuses.count(status) for status in ("normal", "refined", "fallback")} == {
            k: v for k, v in counts.items() if k != "total"
        }
        for slot in report["slots"]:
            assert ("candidates" in slot) == (slot["status"] != "normal")

    def test_modes_fall_back_on_different_slots(self, run_dir):
        summary = json.loads((run_dir / "reports" / "ablation.json").read_text())["summary"]
        fallbacks = {mode: s["fallbacks"] for mode, s in summary.items()}
        assert fallbacks == {"base": 3, "sim": 2, "top1": 1, "tplus_s": 1, "random": 0}
        assert len((run_dir / "reports" / "sensitivity.csv").read_text().splitlines()) == 1 + 4


class TestConfigHandling:
    def test_unknown_key_rejected(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        bad = dict(TINY_CONFIG)
        bad["distill"] = dict(TINY_CONFIG["distill"], bita=0.5)
        cfg_path.write_text(json.dumps(bad))
        assert _run("synth-data", "--config", str(cfg_path)) == 2
        assert "distill.bita" in capsys.readouterr().err

    def test_unknown_top_level_key(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        bad = dict(TINY_CONFIG, master_sead=1)
        cfg_path.write_text(json.dumps(bad))
        assert _run("synth-data", "--config", str(cfg_path)) == 2
        assert "master_sead" in capsys.readouterr().err

    def test_syntax_error_cites_line(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        cfg_path.write_text('{\n  "master_seed": 1,\n  oops\n}')
        assert _run("synth-data", "--config", str(cfg_path)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_wrong_type_rejected(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        bad = dict(TINY_CONFIG)
        bad["distill"] = dict(TINY_CONFIG["distill"], ipc="ten")
        cfg_path.write_text(json.dumps(bad))
        assert _run("synth-data", "--config", str(cfg_path)) == 2
        assert "distill.ipc" in capsys.readouterr().err

    def test_missing_config_file(self, workdir, capsys):
        tmp_path, _ = workdir
        assert _run("synth-data", "--config", str(tmp_path / "nope.json")) == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000])
    def test_unreadable_config_file(self, workdir, capsys, content):
        tmp_path, cfg_path = workdir
        cfg_path.write_bytes(content)
        assert _run("synth-data", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "runs").exists()

    def test_dump_config(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        assert _run("distill", "--config", str(cfg_path), "--dump-config") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distill"]["ipc"] == 2
        assert payload["output_root"].endswith("runs")


def _child_env(tmp_path):
    """Environment for a child process: this checkout's src, output under tmp_path/runs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, DISTILLAB_OUTPUT_ROOT=str(tmp_path / "runs"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cli(tmp_path, cfg, *argv):
    """Run the CLI in a child process with ``cfg`` as its config file."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return subprocess.run(
        [sys.executable, "-m", "distillab.cli", *argv, "--config", str(cfg_path)],
        env=_child_env(tmp_path), capture_output=True, text=True,
    )


def _assert_config_error(tmp_path, proc, needle):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert needle in proc.stderr
    assert not (tmp_path / "runs").exists()


class TestDistillConfigErrors:
    """A rejected distill value is a one-line config error (exit 2), given
    before the run directory or any artifact is touched."""

    @pytest.mark.parametrize(
        "override, needle",
        [(["--beta", "1.5"], "beta must lie in (0, 1)"), (["--top-k", "5"], "top_k cannot exceed")],
    )
    def test_distill_override(self, tmp_path, override, needle):
        proc = _cli(tmp_path, TINY_CONFIG, "distill", *override)
        _assert_config_error(tmp_path, proc, needle)

    @pytest.mark.parametrize("command", [["distill", "--ipc", "41"], ["ablate"]], ids=["flag", "config"])
    def test_ipc_above_train_per_class(self, tmp_path, command):
        """k-means needs ipc images per class: an ipc above data.train_per_class
        (40), from the flag or from the config, is a config error."""
        cfg = TINY_CONFIG if "--ipc" in command else dict(TINY_CONFIG, distill=dict(TINY_CONFIG["distill"], ipc=41))
        proc = _cli(tmp_path, cfg, *command)
        _assert_config_error(tmp_path, proc, "distill.ipc (41) exceeds data.train_per_class (40)")

    def test_ablate_mode(self, tmp_path):
        cfg = dict(TINY_CONFIG, eval=dict(TINY_CONFIG["eval"], modes=["base", "best"]))
        proc = _cli(tmp_path, cfg, "ablate")
        _assert_config_error(tmp_path, proc, "selection_mode='best'")

    def test_ablate_repeated_seed(self, tmp_path):
        cfg = dict(TINY_CONFIG, eval=dict(TINY_CONFIG["eval"], seeds=[1, 1]))
        proc = _cli(tmp_path, cfg, "ablate")
        _assert_config_error(tmp_path, proc, "eval: seeds must not repeat a value")

    def test_ablate_sweep_top_k(self, tmp_path):
        cfg = dict(TINY_CONFIG, eval=dict(TINY_CONFIG["eval"], sensitivity_top_k=[1, 8]))
        proc = _cli(tmp_path, cfg, "ablate", "--sweep")
        _assert_config_error(tmp_path, proc, "top_k=8")
        # the grid is only read with --sweep: without it the command gets as
        # far as the missing artifacts
        assert _cli(tmp_path, cfg, "ablate").returncode == 3


class TestSectionErrors:
    """Every section checks its values when the config is parsed, so any
    command rejects a bad value (exit 2) before creating the run directory."""

    @pytest.mark.parametrize(
        "section, values, needle",
        [
            pytest.param(
                "data", {"num_classes": 0}, "data: num_classes must be >= 2",
                id="data-values0-data: num_classes must be >= 1",
            ),
            ("detector", {"epochs": 0}, "detector: epochs and batch_size must be >= 1"),
            # the codec has no modes left: ``mode`` is an unknown key
            pytest.param(
                "autoencoder", {"mode": "pca"}, "unknown config key autoencoder.mode",
                id="autoencoder-values2-autoencoder: mode must be one of",
            ),
            ("denoiser", {"beta_end": 1.5}, "denoiser: need 0 < beta_start <= beta_end < 1"),
            ("distill", {"top_k": 0}, "distill: top_k must be >= 1"),
            ("eval", {"seeds": []}, "eval: modes and seeds must not be empty"),
            ("data", {"test_per_class": 0}, "data: images per class must be positive"),
            # a classifier needs two classes to tell apart
            ("data", {"num_classes": 1}, "data: num_classes must be >= 2"),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, section, values, needle):
        cfg = dict(TINY_CONFIG, **{section: dict(TINY_CONFIG[section], **values)})
        proc = _cli(tmp_path, cfg, "synth-data")
        _assert_config_error(tmp_path, proc, needle)


class TestMissingArtifacts:
    def test_distill_without_models(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        code = _run("distill", "--config", str(cfg_path))
        assert code == 3
        assert "train-detector" in capsys.readouterr().err

    def test_detector_without_data(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        assert _run("train-detector", "--config", str(cfg_path)) == 3
        assert "synth-data" in capsys.readouterr().err

    def test_report_without_ablation(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        assert _run("report", "--config", str(cfg_path)) == 3
        assert "ablate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["train-detector", "train-autoencoder", "train-diffusion", "distill", "eval", "ablate", "report"],
    )
    def test_leaves_no_run_directory(self, tmp_path, command):
        """One line, exit 3, and no run directory created."""
        proc = _cli(tmp_path, TINY_CONFIG, command)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("missing artifact: /")
        assert proc.stderr.count("missing artifact") == 1
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "runs").exists()


class TestStartup:
    def test_synth_data_does_not_import_scipy(self, tmp_path):
        """Only Beta draws at cutmix_alpha other than 1 need scipy; other commands skip it."""
        code = (
            "import sys, distillab, distillab.cli\n"
            f"assert distillab.cli.main(['synth-data', '--config', {str(tmp_path / 'config.json')!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        )
        (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG))
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (_run_dir(tmp_path) / "data" / "train.dstl").exists()

    @pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
    def test_import_defaults_blas_to_one_thread(self, tmp_path, given, want):
        """Importing distillab sets each unset BLAS thread variable to 1 and keeps a set one."""
        env = _child_env(tmp_path)
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = f"import os, distillab; print([os.environ[v] for v in {BLAS_THREAD_VARS!r}])"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr([want, "1", "1"])

    def test_train_detector_does_not_import_scipy(self, tmp_path):
        """At the default cutmix_alpha 1, the CutMix ratios are the uniforms themselves."""
        assert TINY_CONFIG["detector"].get("cutmix_alpha", 1.0) == 1.0
        assert _cli(tmp_path, TINY_CONFIG, "synth-data").returncode == 0
        code = (
            "import sys, distillab, distillab.cli\n"
            f"assert distillab.cli.main(['train-detector', '--config', {str(tmp_path / 'config.json')!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (_run_dir(tmp_path) / "models" / "detector.mdlc").exists()


class TestFormatErrors:
    def test_truncated_detector_exits_5(self, tmp_path):
        """A truncated checkpoint is a one-line format error, not a traceback."""
        for cmd in ("synth-data", "train-detector", "train-autoencoder", "train-diffusion"):
            assert _cli(tmp_path, TINY_CONFIG, cmd).returncode == 0
        det = _run_dir(tmp_path) / "models" / "detector.mdlc"
        det.write_bytes(det.read_bytes()[:30])
        proc = _cli(tmp_path, TINY_CONFIG, "distill")
        assert proc.returncode == 5
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("format error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("rel, junk", [("data/train.dstl", b"garbage"), ("models/detector.mdlc", b"junk")])
    def test_appended_bytes_exit_5(self, pipeline, tmp_path, rel, junk):
        """Bytes after a container's last field are a one-line format error
        that names the file, for a dataset and for a checkpoint."""
        path = _copy_run(pipeline, tmp_path) / rel
        path.write_bytes(path.read_bytes() + junk)
        proc = _cli(tmp_path, TINY_CONFIG, "distill")
        assert proc.returncode == 5, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"format error: {path}: ")
        assert "trailing bytes" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "name, kind, misfit",
        [
            ("detector", "detector", {"num_classes": 2}),
            ("autoencoder", "autoencoder", {"latent_dim": 9}),
            ("denoiser", "denoiser-v1", {"time_embed_dim": 7}),
        ],
    )
    def test_malformed_descriptor_exits_5(self, pipeline, tmp_path, name, kind, misfit):
        """A descriptor with a key missing, of the wrong type or at odds with
        the others, or arrays that do not fit its layer sizes, is a one-line
        format error that names the file, not a traceback."""
        from distillab.models import read_checkpoint, write_checkpoint

        path = _copy_run(pipeline, tmp_path) / "models" / f"{name}.mdlc"
        _, desc, arrays = read_checkpoint(path)
        mistyped = {k: str(v) if isinstance(v, int) else v for k, v in desc.items()}
        for bad_desc, bad_arrays in (({}, arrays), (mistyped, arrays), (dict(desc, **misfit), arrays), (desc, [])):
            write_checkpoint(path, kind, bad_desc, bad_arrays)
            proc = _cli(tmp_path, TINY_CONFIG, "distill")
            assert proc.returncode == 5, proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith(f"format error: {path}: ")
            assert len(proc.stderr.strip().splitlines()) == 1

    def test_forged_dataset_size_exits_5(self, pipeline, tmp_path):
        """A dataset header that claims more image bytes than the file holds
        (2 images of (2^32 - 1)^3 pixels) is a one-line format error that
        names the file, raised before the read allocates anything."""
        path = _copy_run(pipeline, tmp_path) / "data" / "train.dstl"
        raw = bytearray(path.read_bytes())
        big = 2**32 - 1
        raw[6:26] = struct.pack("<5I", 2, TINY_CONFIG["data"]["num_classes"], big, big, big)  # after magic, version
        path.write_bytes(bytes(raw))
        proc = _cli(tmp_path, TINY_CONFIG, "train-detector")
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith(f"format error: {path}: truncated payload while reading image data")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "n, num_classes, shape",
        [(0, 0, (1, 8, 8)), (2, 3, (0, 8, 8)), (0, 3, (1, 8, 8))],
        ids=["classes", "channels", "images"],
    )
    def test_zero_header_count_exits_5(self, pipeline, tmp_path, n, num_classes, shape):
        """A dataset header with 0 images, 0 classes or a zero image dimension
        is a one-line format error that names the file, even when the labels,
        image bytes and class names agree with it."""
        path = _copy_run(pipeline, tmp_path) / "data" / "train.dstl"
        trailer = json.dumps({"class_names": [str(c) for c in range(num_classes)]}).encode()
        header = struct.pack("<5I", n, num_classes, *shape)  # after magic, version
        labels = np.arange(n, dtype="<u2").tobytes()  # no image bytes: n or a dimension is 0
        path.write_bytes(path.read_bytes()[:6] + header + labels + struct.pack("<I", len(trailer)) + trailer)
        proc = _cli(tmp_path, TINY_CONFIG, "train-detector")
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith(f"format error: {path}: header counts must be positive")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_forged_array_shape_exits_5(self, pipeline, tmp_path):
        """A checkpoint array of shape (2^31, 2^31, 4), whose element count
        2^64 wraps to 0 in int64, is a one-line format error that names the
        file: its size is counted exactly."""
        from distillab.models import read_checkpoint, write_checkpoint

        path = _copy_run(pipeline, tmp_path) / "models" / "detector.mdlc"
        kind, desc, arrays = read_checkpoint(path)
        write_checkpoint(path, kind, desc, [np.zeros((3, 5, 7), dtype=np.float32)] + arrays)
        raw = path.read_bytes()
        shape = struct.pack("<4I", 3, 3, 5, 7)  # rank, then dims
        assert raw.count(shape) == 1
        path.write_bytes(raw.replace(shape, struct.pack("<4I", 3, 2**31, 2**31, 4)))
        proc = _cli(tmp_path, TINY_CONFIG, "distill")
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith(f"format error: {path}: truncated payload while reading parameter blob")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "name, text, needle",
        [
            ("ablation.json", '{"summary": ', "report is not valid JSON"),
            ("ablation.json", '{"records": []}', "key summary is missing"),
            ("ablation.json", '{"summary": {"base": {"mean": "0.5", "std": null, "n": 1, "fallbacks": 0}}}',
             "key summary.base.mean has a value of type str"),
            ("eval.json", '{"accuracy": true}', "key accuracy has a value of type bool"),
        ],
    )
    def test_malformed_report_exits_5(self, pipeline, tmp_path, name, text, needle):
        """``report`` reads ablation.json and eval.json through one checked reader:
        bad JSON, a missing key or a mistyped value is a one-line format error
        that names the file."""
        reports = _copy_run(pipeline, tmp_path) / "reports"
        summary = {"base": {"mean": 0.5, "std": None, "n": 1, "fallbacks": 0}}
        (reports / "ablation.json").write_text(json.dumps({"summary": summary}))
        (reports / name).write_text(text)
        proc = _cli(tmp_path, TINY_CONFIG, "report")
        assert proc.returncode == 5, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"format error: {reports / name}: {needle}")
        assert len(proc.stderr.strip().splitlines()) == 1


def _copy_run(pipeline, dest):
    """A copy of the tiny pipeline's run directory under ``dest/runs``."""
    shutil.copytree(pipeline[0] / "runs", dest / "runs")
    return _run_dir(dest)


def _manifest(path):
    return json.loads(path.with_name(path.name + ".manifest.json").read_text())


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestReports:
    def test_ablation_json_byte_reproducible(self, pipeline, tmp_path, monkeypatch):
        """Two ablate runs into two output roots write the same ablation.json."""
        outputs = []
        for root in (tmp_path / "a", tmp_path / "b"):
            rd = _copy_run(pipeline, root)
            monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(root / "runs"))
            assert _run("ablate", "--config", str(pipeline[1])) == 0
            path = rd / "reports" / "ablation.json"
            outputs.append((path.read_bytes(), _manifest(path)["output_sha256"]))
        assert outputs[0] == outputs[1]

    def test_summary_manifest_lists_what_report_read(self, pipeline, tmp_path, monkeypatch):
        """summary.txt's manifest lists ablation.json, and eval.json exactly when it was read."""
        rd = _copy_run(pipeline, tmp_path)
        for stale in rd.glob("reports/eval.json*"):
            stale.unlink()
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        cfg = str(pipeline[1])
        reports = rd / "reports"
        assert _run("ablate", "--config", cfg) == 0
        for command, read in ((None, ["ablation.json"]), ("eval", ["ablation.json", "eval.json"])):
            if command:
                assert _run(command, "--config", cfg) == 0
            assert _run("report", "--config", cfg) == 0
            manifest = _manifest(reports / "summary.txt")
            assert manifest["output_sha256"] == _sha256(reports / "summary.txt")
            assert manifest["inputs"] == {name: _sha256(reports / name) for name in read}


class TestManifests:
    def test_manifest_lists_input_hashes(self, pipeline):
        tmp_path, _ = pipeline
        rd = _run_dir(tmp_path)
        manifest = json.loads(
            (rd / "models" / "detector.mdlc.manifest.json").read_text()
        )
        assert "train.dstl" in manifest["inputs"]
        assert len(manifest["inputs"]["train.dstl"]) == 64
        assert manifest["tool_version"]
        assert manifest["config_sha256"]

    def test_manifests_hash_their_outputs(self, pipeline):
        """Every manifest's output_sha256 is its file's, and no temp file is left."""
        tmp_path, _ = pipeline
        rd = _run_dir(tmp_path)
        assert not list(rd.rglob("*.tmp"))
        manifests = list(rd.rglob("*.manifest.json"))
        assert len(manifests) >= 8
        for m in manifests:
            out = m.with_name(m.name[: -len(".manifest.json")])
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert json.loads(m.read_text())["output_sha256"] == digest, out.name

    def test_changing_input_changes_manifest(self, workdir, monkeypatch):
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert _run("train-detector", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        m1 = (rd / "models" / "detector.mdlc.manifest.json").read_text()
        # different data seed -> different train.dstl -> different manifest
        cfg2 = dict(TINY_CONFIG, master_seed=6)
        cfg_path.write_text(json.dumps(cfg2))
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert _run("train-detector", "--config", str(cfg_path)) == 0
        runs = [d for d in (tmp_path / "runs").iterdir() if d.is_dir()]
        assert len(runs) == 2  # new config hash -> new run dir
        other = [d for d in runs if d != rd][0]
        m2 = (other / "models" / "detector.mdlc.manifest.json").read_text()
        assert json.loads(m1)["inputs"] != json.loads(m2)["inputs"]


class TestLocking:
    def test_lock_conflict(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        (rd / ".lock").write_text(str(os.getpid()))  # a live process
        capsys.readouterr()
        assert _run("synth-data", "--config", str(cfg_path)) == 6
        err = capsys.readouterr().err
        assert err.startswith("locked: ") and len(err.strip().splitlines()) == 1
        assert (rd / ".lock").read_text() == str(os.getpid())
        (rd / ".lock").unlink()
        assert _run("synth-data", "--config", str(cfg_path)) == 0

    def test_stale_lock_taken_over(self, workdir):
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        (rd / ".lock").write_text(str(child.pid))  # a process that has exited
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert not (rd / ".lock").exists()

import contextlib
import fcntl
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distillab.cli as cli
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

    def test_ablate_prints_the_report_table(self, pipeline, tmp_path, monkeypatch, capsys):
        """``ablate`` prints the table that ``report`` writes at the head of summary.txt."""
        rd = _copy_run(pipeline, tmp_path)
        (rd / "reports" / "eval.json").unlink(missing_ok=True)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        capsys.readouterr()
        assert _run("ablate", "--sweep", "--config", str(pipeline[1])) == 0
        printed = capsys.readouterr().out
        table = printed[: printed.index("sensitivity grid: ")]
        # a header, then base, random and tplus_s in name order
        assert [line.split()[0] for line in table.splitlines()] == ["mode", "base", "random", "tplus_s"]
        assert _run("report", "--config", str(pipeline[1])) == 0
        assert (rd / "reports" / "summary.txt").read_text() == table
        assert capsys.readouterr().out.startswith(table)

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

    def test_every_output_has_its_manifest(self, pipeline, tmp_path, monkeypatch):
        """After synth-data through report, every file of the run directory
        is a manifest or has one, and that manifest hashes it."""
        rd = _copy_run(pipeline, tmp_path)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        for command in ("eval", "ablate --sweep", "report"):
            assert _run(*command.split(), "--config", str(pipeline[1])) == 0
        files = [path for path in rd.rglob("*") if path.is_file() and path.name != ".lock"]
        outputs = [path for path in files if not path.name.endswith(".manifest.json")]
        assert len(outputs) == 13
        for path in outputs:
            manifest = path.with_name(path.name + ".manifest.json")
            assert manifest.exists(), path
            assert json.loads(manifest.read_text())["output_sha256"] == _sha256(path), path
        assert len(files) == 2 * len(outputs)


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
        assert counts == {"normal": 3, "refined": 1, "fallback": 2, "total": 6}
        statuses = [slot["status"] for slot in report["slots"]]
        assert {status: statuses.count(status) for status in ("normal", "refined", "fallback")} == {
            k: v for k, v in counts.items() if k != "total"
        }
        for slot in report["slots"]:
            assert ("candidates" in slot) == (slot["status"] != "normal")

    def test_modes_fall_back_on_different_slots(self, run_dir):
        summary = json.loads((run_dir / "reports" / "ablation.json").read_text())["summary"]
        fallbacks = {mode: s["fallbacks"] for mode, s in summary.items()}
        assert fallbacks == {"base": 3, "sim": 2, "top1": 2, "tplus_s": 0, "random": 0}
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

    def test_output_root_that_is_a_file_exits_2(self, tmp_path):
        """An output root the run directory cannot be created under is a
        one-line config error that names it, and the file is left as it was."""
        root = tmp_path / "runs"
        root.write_bytes(b"not a directory\n")
        proc = _cli(tmp_path, TINY_CONFIG, "synth-data")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"config error: output root {root}: cannot create ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert root.read_bytes() == b"not a directory\n"

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
        [
            pytest.param({"beta": 1.5}, "distill: beta must lie in (0, 1)", id="override0-beta must lie in (0, 1)"),
            pytest.param({"top_k": 5}, "distill: top_k cannot exceed num_candidates", id="override1-top_k cannot exceed"),
            # json.dumps writes these as the JSON extensions NaN and Infinity, which the config parser reads
            pytest.param(
                {"guidance_scale": float("nan")}, "config key distill.guidance_scale must be a finite number",
                id="override2-guidance_scale must be a finite non-negative number",
            ),
            pytest.param(
                {"guidance_scale": float("inf")}, "config key distill.guidance_scale must be a finite number",
                id="override3-guidance_scale must be a finite non-negative number",
            ),
        ],
    )
    def test_distill_override(self, tmp_path, override, needle):
        proc = _cli(tmp_path, _variant(distill=override), "distill")
        _assert_config_error(tmp_path, proc, needle)

    @pytest.mark.parametrize("command", [["ablate"]], ids=["config"])
    def test_ipc_above_train_per_class(self, tmp_path, command):
        """k-means needs ipc images per class: an ipc above
        data.train_per_class (40) is a config error."""
        proc = _cli(tmp_path, _variant(distill={"ipc": 41}), *command)
        _assert_config_error(tmp_path, proc, "distill.ipc (41) exceeds data.train_per_class (40)")

    @pytest.mark.parametrize(
        "argv",
        [
            ["distill", "--beta", "0.9"],
            ["distill", "--top-k", "2"],
            ["distill", "--candidates", "20"],
            ["distill", "--guidance", "1"],
            ["distill", "--strength", "0.5"],
            ["distill", "--ipc", "3"],
            ["distill", "--mode", "base"],
            ["distill", "--seed", "7"],
            ["distill", "--preview", "1"],
            ["synth-data", "--preview", "1"],
        ],
        ids=" ".join,
    )
    def test_removed_flag(self, workdir, capsys, argv):
        """A distill variant is a config variant with its own run id: the
        former override and preview flags are usage errors (exit 2) that
        create no output root."""
        tmp_path, cfg_path = workdir
        with pytest.raises(SystemExit) as exit_:
            _run(*argv, "--config", str(cfg_path))
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_ablate_mode(self, tmp_path):
        cfg = dict(TINY_CONFIG, eval=dict(TINY_CONFIG["eval"], modes=["base", "best"]))
        proc = _cli(tmp_path, cfg, "ablate")
        _assert_config_error(tmp_path, proc, "selection_mode='best'")

    @pytest.mark.parametrize(
        "cfg, command, needle",
        [
            (dict(TINY_CONFIG, master_seed=-1), "synth-data", "master_seed must lie in [0, 2^64), got -1"),
            (dict(TINY_CONFIG, master_seed=2**70), "distill", f"master_seed must lie in [0, 2^64), got {2**70}"),
            (dict(TINY_CONFIG, eval=dict(TINY_CONFIG["eval"], seeds=[-1, 2**64 - 1])), "ablate",
             "eval: seeds must lie in [0, 2^64), got -1"),
        ],
        ids=["master_seed-negative", "master_seed-2^70", "eval.seeds"],
    )
    def test_seed_outside_u64(self, tmp_path, cfg, command, needle):
        """A seed outside [0, 2^64) would name the stream of another seed under another run id."""
        proc = _cli(tmp_path, cfg, command)
        _assert_config_error(tmp_path, proc, needle)

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
            # CutMix ratios are uniform and the class patterns are fixed: these keys are gone
            ("detector", {"cutmix_alpha": 1.0}, "config error: unknown config key detector.cutmix_alpha"),
            ("data", {"orientations_deg": [0.0, 60.0, 120.0]}, "config error: unknown config key data.orientations_deg"),
            ("data", {"frequencies": [2.0, 4.0, 6.0]}, "config error: unknown config key data.frequencies"),
            # dataset files store labels as u16: refused before any image is made
            pytest.param(
                "data", {"num_classes": 65537, "image_height": 1, "image_width": 1},
                "data: num_classes must be <= 65536, as labels are stored as u16", id="data-num_classes-above-u16",
            ),
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
    def test_all_commands_run_without_scipy(self, tmp_path):
        """The pipeline needs numpy only: every command runs with scipy's import blocked."""
        commands = [
            ["synth-data"], ["train-detector"], ["train-autoencoder"], ["train-diffusion"],
            ["distill"], ["eval"], ["ablate", "--sweep"], ["report"],
        ]
        cfg = str(tmp_path / "config.json")
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
            "import distillab.cli\n"
            f"for argv in {commands!r}:\n"
            f"    assert distillab.cli.main([*argv, '--config', {cfg!r}]) == 0, argv\n"
        )
        (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG))
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (_run_dir(tmp_path) / "reports" / "ablation.json").exists()

    def test_synth_data_does_not_import_scipy(self, tmp_path):
        """Nothing in the pipeline imports scipy; synth-data leaves it unloaded."""
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

    def test_commands_do_not_load_openssl(self, tmp_path):
        """SHA-256 comes from the interpreter's builtin module: no command maps OpenSSL's libcrypto (3.5 MB).

        ``fan_out`` forks its own workers, so ``distill`` and ``ablate --sweep``
        also leave ``multiprocessing`` and ``concurrent.futures`` (1.9 MB)
        unloaded. Two cores look usable in the child, so both commands fork
        workers on any machine and the fan-out's imports are covered too.
        """
        commands = ["synth-data", "train-detector", "train-autoencoder", "train-diffusion", "distill", "ablate --sweep"]
        code = (
            "import os, sys, distillab, distillab.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"for cmd in {commands!r}:\n"
            f"    assert distillab.cli.main([*cmd.split(), '--config', {str(tmp_path / 'config.json')!r}]) == 0, cmd\n"
            "assert '_hashlib' not in sys.modules, sorted(m for m in sys.modules if 'hash' in m)\n"
            "pools = sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "assert pools == [], pools\n"
        )
        (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG))
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (_run_dir(tmp_path) / "distilled" / "distilled.dstl").exists()
        assert (_run_dir(tmp_path) / "reports" / "sensitivity.csv").exists()

    def test_train_detector_does_not_import_scipy(self, tmp_path):
        """CutMix ratios are the uniforms themselves, so training the detector leaves scipy unloaded."""
        assert "cutmix_alpha" not in TINY_CONFIG["detector"]
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
        desc, arrays = read_checkpoint(path, kind)
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
        desc, arrays = read_checkpoint(path, "detector")
        write_checkpoint(path, "detector", desc, [np.zeros((3, 5, 7), dtype=np.float32)] + arrays)
        raw = path.read_bytes()
        shape = struct.pack("<4I", 3, 3, 5, 7)  # rank, then dims
        assert raw.count(shape) == 1
        path.write_bytes(raw.replace(shape, struct.pack("<4I", 3, 2**31, 2**31, 4)))
        proc = _cli(tmp_path, TINY_CONFIG, "distill")
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith(f"format error: {path}: truncated payload while reading parameter blob")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "rel, command, needle",
        [
            ("data/train.dstl", "train-detector", "image data contains non-finite values"),
            ("models/detector.mdlc", "distill", "array 5 contains non-finite values"),
            ("models/autoencoder.mdlc", "train-diffusion", "array 7 contains non-finite values"),
            ("models/denoiser.mdlc", "distill", "contains non-finite values"),
        ],
        ids=["dataset", "detector", "autoencoder", "denoiser"],
    )
    def test_non_finite_payload_exits_5(self, pipeline, tmp_path, rel, command, needle):
        """A NaN in a dataset's pixels or in a checkpoint's last parameter is a
        one-line format error that names the file and the array, raised when
        the file is read."""
        path = _copy_run(pipeline, tmp_path) / rel
        raw = bytearray(path.read_bytes())
        if rel.endswith(".dstl"):  # the first pixel follows the 26-byte header and the u16 labels
            n = struct.unpack_from("<I", raw, 6)[0]
            raw[26 + 2 * n:30 + 2 * n] = struct.pack("<f", np.nan)
        else:  # the last float32 of the last array ends the file
            raw[-4:] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(raw))
        proc = _cli(tmp_path, TINY_CONFIG, command)
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith(f"format error: {path}: ")
        assert needle in proc.stderr
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


def _variant(**sections):
    return dict(TINY_CONFIG, **{name: dict(TINY_CONFIG[name], **values) for name, values in sections.items()})


_TRAININGS = ("synth-data", "train-detector", "train-autoencoder", "train-diffusion")
# TINY_CONFIG variants whose artifacts do not fit a TINY_CONFIG run: (config, commands run)
_MISFIT_VARIANTS = {
    "6x6": (_variant(data={"image_height": 6, "image_width": 6}), _TRAININGS + ("distill",)),
    "4 classes": (_variant(data={"num_classes": 4}), _TRAININGS),
    "latent 6": (_variant(autoencoder={"latent_dim": 6}), _TRAININGS),
}


@pytest.fixture(scope="module")
def misfits(tmp_path_factory):
    """The run directory of each TINY_CONFIG variant in ``_MISFIT_VARIANTS``, by name."""
    dirs = {}
    for name, (cfg, commands) in _MISFIT_VARIANTS.items():
        tmp_path = tmp_path_factory.mktemp("misfit")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        os.environ["DISTILLAB_OUTPUT_ROOT"] = str(tmp_path / "runs")
        try:
            for command in commands:
                assert _run(command, "--config", str(cfg_path)) == 0
        finally:
            del os.environ["DISTILLAB_OUTPUT_ROOT"]
        dirs[name] = _run_dir(tmp_path)
    return dirs


class TestMisfitInputs:
    @pytest.mark.parametrize(
        "variant, rel, command, field",
        [
            ("6x6", "models/detector.mdlc", "distill", "image_shape"),
            ("6x6", "models/autoencoder.mdlc", "train-diffusion", "image_shape"),
            ("6x6", "models/autoencoder.mdlc", "distill", "image_shape"),
            ("6x6", "distilled/distilled.dstl", "eval", "image_shape"),
            ("6x6", "data/test.dstl", "ablate", "image_shape"),
            ("4 classes", "data/test.dstl", "ablate", "num_classes"),
            ("4 classes", "data/test.dstl", "eval", "num_classes"),
            ("4 classes", "models/detector.mdlc", "distill", "num_classes"),
            ("4 classes", "models/denoiser.mdlc", "distill", "num_classes"),
            ("latent 6", "models/denoiser.mdlc", "distill", "latent_dim"),
        ],
    )
    def test_misfit_exits_5_before_any_work(
        self, pipeline, misfits, tmp_path, monkeypatch, capsys, variant, rel, command, field
    ):
        """An input from a config with other image shapes, class counts or
        latent dims than the run's other inputs is a one-line format error
        that names the file, raised before any output is written."""
        rd = _copy_run(pipeline, tmp_path)
        shutil.copyfile(misfits[variant] / rel, rd / rel)
        before = {path: path.read_bytes() for path in rd.rglob("*") if path.is_file()}
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        capsys.readouterr()
        assert main([command, "--config", str(pipeline[1])]) == 5
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and f"{field} " in err and Path(rel).name in err
        assert len(err.strip().splitlines()) == 1
        assert {path: path.read_bytes() for path in rd.rglob("*") if path.is_file()} == before


def _copy_run(pipeline, dest):
    """A copy of the tiny pipeline's run directory under ``dest/runs``."""
    shutil.copytree(pipeline[0] / "runs", dest / "runs")
    return _run_dir(dest)


def _manifest(path):
    return json.loads(path.with_name(path.name + ".manifest.json").read_text())


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def seed_runs(tmp_path_factory):
    """TINY_CONFIG run directories through ``eval`` and ``ablate``, by master_seed (5, the config's, and 6)."""
    dirs = {}
    for seed in (5, 6):
        tmp_path = tmp_path_factory.mktemp(f"seed{seed}")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, master_seed=seed)))
        os.environ["DISTILLAB_OUTPUT_ROOT"] = str(tmp_path / "runs")
        try:
            for command in _TRAININGS + ("distill", "eval", "ablate"):
                assert _run(command, "--config", str(cfg_path)) == 0
        finally:
            del os.environ["DISTILLAB_OUTPUT_ROOT"]
        dirs[seed] = _run_dir(tmp_path)
    return dirs


def _flip_low_bit(path):
    """Flip the lowest bit of one payload byte so that the file still parses:
    the first pixel's low mantissa byte of a dataset, the last float32's of
    a checkpoint, or the last digit of a JSON report (a digit stays a digit)."""
    raw = bytearray(path.read_bytes())
    if path.suffix == ".dstl":  # the first pixel follows the 26-byte header and the u16 labels
        at = 26 + 2 * struct.unpack_from("<I", raw, 6)[0]
    elif path.suffix == ".mdlc":
        at = len(raw) - 4
    else:
        at = max(raw.rfind(digit) for digit in b"0123456789")
    raw[at] ^= 1
    path.write_bytes(bytes(raw))


class TestManifestChecks:
    """Each input must be the file its manifest describes, made under this run's config."""

    @pytest.mark.parametrize("change", ["flipped", "swapped"])
    @pytest.mark.parametrize(
        "rel, command",
        [
            # every (input, command) pair that ``_Command.load`` serves; the
            # first pair tested of an input is named after the input alone
            pytest.param("data/train.dstl", "train-detector", id="dataset"),
            pytest.param("data/train.dstl", "train-autoencoder", id="train.dstl-train-autoencoder"),
            pytest.param("data/train.dstl", "train-diffusion", id="train.dstl-train-diffusion"),
            pytest.param("data/train.dstl", "distill", id="train.dstl-distill"),
            pytest.param("data/train.dstl", "ablate", id="train.dstl-ablate"),
            pytest.param("data/test.dstl", "eval", id="test.dstl-eval"),
            pytest.param("data/test.dstl", "ablate", id="test.dstl-ablate"),
            pytest.param("models/detector.mdlc", "distill", id="detector"),
            pytest.param("models/detector.mdlc", "ablate", id="detector.mdlc-ablate"),
            pytest.param("models/autoencoder.mdlc", "train-diffusion", id="autoencoder"),
            pytest.param("models/autoencoder.mdlc", "distill", id="autoencoder.mdlc-distill"),
            pytest.param("models/autoencoder.mdlc", "ablate", id="autoencoder.mdlc-ablate"),
            pytest.param("models/denoiser.mdlc", "distill", id="denoiser"),
            pytest.param("models/denoiser.mdlc", "ablate", id="denoiser.mdlc-ablate"),
            pytest.param("distilled/distilled.dstl", "eval", id="distilled"),
            pytest.param("reports/ablation.json", "report", id="report"),
            pytest.param("reports/eval.json", "report", id="eval.json-report"),
        ],
    )
    def test_input_unlike_its_manifest_exits_5(self, seed_runs, tmp_path, monkeypatch, capsys, rel, command, change):
        """A payload byte flipped (the file still parses) or the file and its
        manifest swapped in from the master_seed 6 run is a one-line format
        error that names the file, raised before any output is written."""
        shutil.copytree(seed_runs[5].parent, tmp_path / "runs")
        rd = _run_dir(tmp_path)
        path = rd / rel
        if change == "flipped":
            _flip_low_bit(path)
        else:
            for name in (path.name, path.name + ".manifest.json"):
                shutil.copyfile(seed_runs[6] / rel.rsplit("/", 1)[0] / name, path.with_name(name))
        before = {p: p.read_bytes() for p in rd.rglob("*") if p.is_file()}
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"format error: {path}: ")
        assert ("sha256" if change == "flipped" else "config") in err
        assert len(err.strip().splitlines()) == 1
        assert {p: p.read_bytes() for p in rd.rglob("*") if p.is_file()} == before

    def test_missing_manifest_exits_5_under_python_O(self, seed_runs, tmp_path):
        """An input without its manifest is a one-line format error naming it, with asserts stripped too."""
        shutil.copytree(seed_runs[5].parent, tmp_path / "runs")
        path = _run_dir(tmp_path) / "reports" / "eval.json"
        path.with_name("eval.json.manifest.json").unlink()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "distillab.cli", "report", "--config", str(cfg_path)],
            env=_child_env(tmp_path), capture_output=True, text=True,
        )
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr == f"format error: {path}: its manifest eval.json.manifest.json is missing\n"
        assert not (path.parent / "summary.txt").exists()


# Runs a command with os.replace wrapped so that the process SIGKILLs itself
# right after it renames a file onto the name given as argv[1]: the output is
# in place, its manifest not yet written.
_KILL_AFTER_RENAME = """
import os, signal, sys
import distillab.cli
replace = os.replace
def killing_replace(src, dst):
    replace(src, dst)
    if os.path.basename(dst) == sys.argv[1]:
        os.kill(os.getpid(), signal.SIGKILL)
os.replace = killing_replace
sys.exit(distillab.cli.main(sys.argv[2:]))
"""


def _files(rd):
    """Every file of a run directory but its lock, by path relative to it."""
    return {p.relative_to(rd): p.read_bytes() for p in rd.rglob("*") if p.is_file() and p.name != ".lock"}


class TestKilledProducer:
    """A producer killed between writing an output and writing its manifest
    leaves a run that the next command refuses; a rerun mends it."""

    def _kill(self, tmp_path, rel, command):
        """Run ``command`` at TINY_CONFIG under tmp_path/runs until it has renamed onto ``rel``, then kill it."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG))
        argv = [sys.executable, "-c", _KILL_AFTER_RENAME, Path(rel).name, *command.split(), "--config", str(cfg_path)]
        with subprocess.Popen(argv, env=_child_env(tmp_path), stderr=subprocess.PIPE, text=True) as proc:
            err = proc.communicate(timeout=300)[1]
        assert proc.returncode == -signal.SIGKILL, err
        return proc.pid

    # (the producer's outputs, removed before it runs; the producer; the next command, which reads the first output)
    @pytest.mark.parametrize(
        "outputs, producer, consumer",
        [
            (["data/train.dstl", "data/test.dstl"], "synth-data", "train-detector"),
            (["models/detector.mdlc"], "train-detector", "distill"),
            (["models/autoencoder.mdlc"], "train-autoencoder", "train-diffusion"),
            (["models/denoiser.mdlc"], "train-diffusion", "distill"),
            (["distilled/distilled.dstl", "prototypes/prototypes.prto", "reports/distill_report.json"], "distill", "eval"),
            (["reports/ablation.json", "reports/ablation.csv"], "ablate", "report"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_output_without_manifest(self, seed_runs, tmp_path, monkeypatch, capsys, outputs, producer, consumer):
        """The next command exits 5 naming the missing manifest and changes
        nothing; the rerun producer takes over the dead pid's lock, and the
        run then has the bytes of an uninterrupted one."""
        shutil.copytree(seed_runs[5].parent, tmp_path / "runs")
        rd = _run_dir(tmp_path)
        complete = _files(rd)
        for rel in outputs:
            for path in (rd / rel, rd / (rel + ".manifest.json")):
                path.unlink()
        dead = self._kill(tmp_path, outputs[0], producer)
        path = rd / outputs[0]
        assert path.exists() and not path.with_name(path.name + ".manifest.json").exists()
        assert (rd / ".lock").read_text() == str(dead)

        # the consumer runs on a copy, so that the producer meets the dead pid's lock below
        shutil.copytree(tmp_path / "runs", tmp_path / "copy" / "runs")
        copy = _run_dir(tmp_path / "copy")
        before = _files(copy)
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "copy" / "runs"))
        capsys.readouterr()
        assert main([consumer, "--config", str(tmp_path / "config.json")]) == 5
        name = Path(outputs[0]).name
        assert capsys.readouterr().err == f"format error: {copy / outputs[0]}: its manifest {name}.manifest.json is missing\n"
        assert _files(copy) == before

        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        for command in (producer, consumer):
            assert main([command, "--config", str(tmp_path / "config.json")]) == 0
        assert not (rd / ".lock").exists()
        files = _files(rd)
        assert {rel: files[rel] for rel in complete} == complete

    def test_distill_rerun_over_complete_pair(self, seed_runs, tmp_path, monkeypatch):
        """A distill rerun killed after it renamed the distilled set over the
        old one wrote the same bytes, since the run directory holds one
        config: the old manifest still describes the set, and eval runs."""
        shutil.copytree(seed_runs[5].parent, tmp_path / "runs")
        rd = _run_dir(tmp_path)
        complete = _files(rd)
        self._kill(tmp_path, "distilled/distilled.dstl", "distill")
        assert _files(rd) == complete
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        assert main(["eval", "--config", str(tmp_path / "config.json")]) == 0
        assert _files(rd) == complete


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


    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_leaves_every_report(self, pipeline, tmp_path, unbuffered):
        """``ablate --sweep`` into a pipe whose reader is gone writes all three
        reports with their manifests, then exits 9 without a traceback: it
        prints only after its last report is written."""
        rd = _copy_run(pipeline, tmp_path)
        for stale in rd.glob("reports/*"):
            stale.unlink()
        env = _child_env(tmp_path)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "distillab.cli", "ablate", "--sweep", "--config", str(pipeline[1])],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write)
        assert proc.returncode == 9, proc.stderr
        assert proc.stderr == ""
        for name in ("ablation.json", "ablation.csv", "sensitivity.csv"):
            path = rd / "reports" / name
            assert _manifest(path)["output_sha256"] == _sha256(path), name


class TestDataCannotSupportConfig:
    def test_flat_data_exits_8(self, tmp_path, monkeypatch, capsys):
        """Images all alike leave each class 1 distinct latent for ipc 2:
        ``distill`` and ``ablate`` exit 8 with one line naming the class,
        and write no distilled set or report."""
        flat = dict(TINY_CONFIG, data=dict(TINY_CONFIG["data"], amplitude=0.0, noise_std=0.0))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(flat))
        monkeypatch.setenv("DISTILLAB_OUTPUT_ROOT", str(tmp_path / "runs"))
        for command in ("synth-data", "train-detector", "train-autoencoder", "train-diffusion"):
            assert _run(command, "--config", str(cfg_path)) == 0
        capsys.readouterr()
        for command in ("distill", "ablate"):
            assert _run(command, "--config", str(cfg_path)) == 8
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.endswith("\n")
            assert "class 0 has 1 distinct latents, fewer than ipc=2" in err
        rd = _run_dir(tmp_path)
        assert not (rd / "distilled" / "distilled.dstl").exists()
        assert not any((rd / "reports").iterdir())


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

    @pytest.mark.parametrize("size", [0, 1 << 20, (5 << 19) + 3])
    def test_file_hash_is_the_whole_file(self, tmp_path, size):
        """Inputs are hashed through one reused 1 MB buffer: a file that takes zero, one or three fills hashes whole."""
        path = tmp_path / "input.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert cli._sha256_file(path) == _sha256(path)

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
        """A lock another command holds gives exit 6 with one line and is left
        as it is; once its holder lets go, the next command takes it over."""
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        with open(rd / ".lock", "w") as holder:  # a running command's lock
            holder.write("1234")
            holder.flush()
            fcntl.flock(holder, fcntl.LOCK_EX)
            capsys.readouterr()
            assert _run("synth-data", "--config", str(cfg_path)) == 6
            err = capsys.readouterr().err
            assert err.startswith("locked: ") and len(err.strip().splitlines()) == 1
            assert (rd / ".lock").read_text() == "1234"
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert not (rd / ".lock").exists()

    def test_stale_lock_taken_over(self, workdir):
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        (rd / ".lock").write_text(str(child.pid))  # a process that has exited
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert not (rd / ".lock").exists()

    @pytest.mark.parametrize("text", ["", "0", "-1", "not a pid"], ids=["empty", "zero", "negative", "foreign"])
    def test_lock_without_a_positive_pid_taken_over(self, workdir, capsys, text):
        """The lock is the flock, not the text of ``.lock``: a ``.lock`` that
        no process holds is taken over, whatever it names, and the command
        leaves no lock file behind."""
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        (rd / ".lock").write_text(text)
        capsys.readouterr()
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert capsys.readouterr().err == ""
        assert not list(rd.glob(".lock*"))

    def test_racing_takeovers_of_a_dead_lock(self, workdir):
        """Two commands that both opened a dead command's ``.lock`` try to
        take it at once: one runs, the other exits 6 with one line, and the
        runner's lock stays in place until the runner removes it."""
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        (rd / ".lock").write_text(str(child.pid))
        ctx = multiprocessing.get_context("fork")
        opened, tried, lost = ctx.Barrier(2), ctx.Barrier(2), ctx.Event()

        def command(i):
            real_flock, real_exit = fcntl.flock, cli._Command.__exit__

            def flock(fd, op):  # each child has opened .lock; both try to take it, then both go on
                opened.wait(timeout=60)
                try:
                    return real_flock(fd, op)
                finally:
                    tried.wait(timeout=60)

            def exit_after_the_loser(self, *exc):
                lost.wait(timeout=60)
                (tmp_path / "held").write_text(self.lock.read_text())
                return real_exit(self, *exc)

            fcntl.flock, cli._Command.__exit__ = flock, exit_after_the_loser
            with open(tmp_path / f"err{i}", "w") as err, contextlib.redirect_stderr(err):
                code = _run("synth-data", "--config", str(cfg_path))
            if code == 6:
                lost.set()
            os._exit(code)

        procs = [ctx.Process(target=command, args=(i,)) for i in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert not any(proc.is_alive() for proc in procs)
        assert sorted(proc.exitcode for proc in procs) == [0, 6]
        winner, loser = (procs.index(p) for p in sorted(procs, key=lambda p: p.exitcode))
        err = (tmp_path / f"err{loser}").read_text()
        assert err.startswith("locked: ") and len(err.strip().splitlines()) == 1
        assert (tmp_path / "held").read_text() == str(procs[winner].pid)
        assert not (rd / ".lock").exists()

    def test_lock_won_on_a_removed_file_is_taken_again(self, workdir, monkeypatch):
        """A holder removes ``.lock`` before it lets go, so a command that
        wins the flock on a file no longer linked takes it again on a new
        ``.lock``."""
        tmp_path, cfg_path = workdir
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        rd = _run_dir(tmp_path)
        (rd / ".lock").write_text("1234")
        real_flock, calls = fcntl.flock, []

        def flock(fd, op):  # the first holder exits between the command's open and its flock
            if not calls:
                (rd / ".lock").unlink()
            calls.append(os.fstat(fd).st_nlink)
            return real_flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", flock)
        assert _run("synth-data", "--config", str(cfg_path)) == 0
        assert calls == [0, 1]  # the removed file, then the new .lock
        assert not (rd / ".lock").exists()

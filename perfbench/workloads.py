"""Workload definitions and the untraced runner.

Each operation is one ``distillab`` CLI command run as a child process, one
after another (a closed loop with a single client). Times are taken around
the child from outside; peak memory is the child's own maximum resident set
as reported by ``wait4``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Keys the workloads and their checks depend on are pinned here; everything
# else is the program's default.
PINNED = {
    "master_seed": 0,
    "data": {"num_classes": 5, "train_per_class": 500, "test_per_class": 100},
    "distill": {"ipc": 10, "beta": 0.9, "top_k": 2},
}

# A miniature of the same pipeline, run once untimed before measuring so that
# bytecode compilation and first-touch file reads are not timed.
WARMUP_CONFIG = {
    "data": {"num_classes": 3, "train_per_class": 40, "test_per_class": 10,
             "image_height": 8, "image_width": 8},
    "detector": {"epochs": 2, "batch_size": 32, "hidden_sizes": [16]},
    "autoencoder": {"latent_dim": 8, "hidden_size": 16, "epochs": 2},
    "denoiser": {"timesteps": 20, "beta_end": 0.1, "epochs": 2, "hidden_sizes": [16],
                 "time_embed_dim": 8, "label_embed_dim": 8},
    "distill": {"ipc": 2, "beta": 0.6, "num_candidates": 2, "kmeans_restarts": 1},
    "eval": {"epochs": 2, "hidden_sizes": [16], "modes": ["base", "top1", "sim", "tplus_s"], "seeds": [1],
             "sensitivity_top_k": [1, 2], "sensitivity_betas": [0.5, 0.9]},
}

SETUP_COMMANDS = [["synth-data"], ["train-detector"], ["train-autoencoder"], ["train-diffusion"]]
SYNTH_RUNS = 5
DISTILL_RERUNS = 1
PIPELINE_COMMANDS = [["train-detector"], ["train-autoencoder"], ["train-diffusion"], ["distill"], ["eval"]]
ABLATE_COMMAND = ["ablate", "--sweep"]

# End-to-end metrics, the same on every workload: name -> unit.
END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}


def merged(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict):
            out[key] = dict(out.get(key, {}), **value)
        else:
            out[key] = value
    return out


def cold_config(seed: int) -> dict:
    """The default config. Its inputs do not follow ``seed``: see README."""
    return copy.deepcopy(PINNED)


def ablation_config(seed: int) -> dict:
    """Defect-prone regime (half the denoiser epochs), one ablation seed, 2x2 grid."""
    return merged(PINNED, {
        "denoiser": {"epochs": 50},
        "distill": {"num_candidates": 5},
        "eval": {"modes": ["base", "top1", "sim", "tplus_s"], "seeds": [seed],
                 "sensitivity_top_k": [2, 5], "sensitivity_betas": [0.5, 0.9]},
    })


def child_env(output_root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("DISTILLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["DISTILLAB_OUTPUT_ROOT"] = str(output_root)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_dir_of(root: Path) -> Path:
    dirs = [d for d in root.iterdir() if d.is_dir()]
    if len(dirs) != 1:
        raise checks.CheckError(f"expected one run directory under {root}, found {len(dirs)}")
    return dirs[0]


@dataclass
class Op:
    argv: list[str]
    seconds: float
    max_rss_kb: int
    ok: bool


@dataclass
class Ledger:
    """Operations attempted and failed, the reasons, and the run's deadline."""

    deadline: float
    ops: list[Op] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    wrong: int = 0  # outputs that failed a check

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def check(self, op: Op, what: str, fn, *args):
        """Run an output check on ``op``'s output; a failed check fails ``op``."""
        try:
            return fn(*args)
        except (checks.CheckError, OSError, KeyError, ValueError) as e:
            self.reject(op, f"{what}: {e}")
            return None

    def reject(self, op: Op, message: str) -> None:
        op.ok = False
        self.wrong += 1
        self.problems.append(message)


def run_command(argv: list[str], config_path: Path, output_root: Path, ledger: Ledger, log_dir: Path) -> Op:
    """Run one CLI command as a child process and record it in ``ledger``."""
    cmd = [sys.executable, "-m", "distillab.cli", *argv, "--config", str(config_path)]
    log = log_dir / f"{len(ledger.ops):03d}-{argv[0]}.log"
    with open(log, "w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=child_env(output_root), cwd=REPO)
        timer = threading.Timer(max(1.0, ledger.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        out.seek(0)
        text = out.read()
    ok = code == 0 and "Traceback (most recent call last)" not in text
    op = Op(argv, seconds, usage.ru_maxrss, ok)
    ledger.ops.append(op)
    if not ok:
        ledger.problems.append(f"{' '.join(argv)}: exit {code}: {text.strip().splitlines()[-1:]}")
    return op


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    return path


def warm_up(commands: list[list[str]], scratch: Path, deadline: float) -> None:
    """Run the workload's commands once on a miniature config, untimed."""
    root = fresh_dir(scratch / "warmup")
    cfg = write_config(scratch / "warmup.json", merged(PINNED, WARMUP_CONFIG))
    ledger = Ledger(deadline)
    for argv in commands:
        run_command(argv, cfg, root, ledger, scratch)
    if ledger.failed:
        raise RuntimeError(f"warm-up failed: {ledger.problems}")
    shutil.rmtree(root, ignore_errors=True)


def distilled_sha256(root: Path) -> str | None:
    path = next(root.glob("*/distilled/distilled.dstl"), None)
    return None if path is None else checks.sha256_file(path)


def peak_rss_mb(ops: list[Op]) -> float:
    return max(op.max_rss_kb for op in ops) / 1024.0


def cold_round(cfg_path: Path, cfg: dict, scratch: Path, ledger: Ledger, state: dict) -> dict[str, list[float]]:
    """synth-data five times, the five pipeline commands, then distill once more.

    ``distill_s`` is reported for information only: its first run is part of
    ``work_s``.
    """
    first = len(ledger.ops)
    setup = []
    for i in range(SYNTH_RUNS):  # each into a fresh root; the pipeline continues in the last
        root = fresh_dir(scratch / f"root{i}")
        setup.append(run_command(["synth-data"], cfg_path, root, ledger, scratch).seconds)
    t0 = time.perf_counter()
    ops = [run_command(argv, cfg_path, root, ledger, scratch) for argv in PIPELINE_COMMANDS]
    work_s = time.perf_counter() - t0
    # each distill run must write the same distilled.dstl as the first run in
    # this invocation
    distills = [(ops[3], distilled_sha256(root))]
    for _ in range(DISTILL_RERUNS):
        op = run_command(["distill"], cfg_path, root, ledger, scratch)
        distills.append((op, distilled_sha256(root)))
    if all(op.ok for op in ledger.ops[first:]):
        ledger.check(ops[-1], "cold_pipeline output", checks.check_cold, run_dir_of(root), cfg)
        for op, sha in distills:
            expect_same(ledger, op, state, "distilled.dstl sha256", sha)
    for i in range(SYNTH_RUNS):
        shutil.rmtree(scratch / f"root{i}", ignore_errors=True)
    return {
        "setup_s": setup,
        "work_s": [work_s],
        "distill_s": [op.seconds for op, _ in distills],
        "peak_rss_mb": [peak_rss_mb(ledger.ops[first:])],
    }


def ablation_round(cfg_path: Path, cfg: dict, scratch: Path, ledger: Ledger, state: dict) -> dict[str, list[float]]:
    """The four set-up commands, then ``ablate --sweep``."""
    first = len(ledger.ops)
    root = fresh_dir(scratch / "root")
    t0 = time.perf_counter()
    for argv in SETUP_COMMANDS:
        run_command(argv, cfg_path, root, ledger, scratch)
    setup_s = time.perf_counter() - t0
    op = run_command(ABLATE_COMMAND, cfg_path, root, ledger, scratch)
    if all(o.ok for o in ledger.ops[first:]):
        records = ledger.check(op, "ablation_sweep output", checks.check_ablation, run_dir_of(root), cfg)
        if records is not None:
            expect_same(ledger, op, state, "ablation records", records)
    shutil.rmtree(root, ignore_errors=True)
    return {"setup_s": [setup_s], "work_s": [op.seconds], "peak_rss_mb": [peak_rss_mb(ledger.ops[first:])]}


def expect_same(ledger: Ledger, op: Op, state: dict, what: str, value) -> None:
    """Fail ``op`` unless ``value`` equals the first value seen in this invocation."""
    if value != state.setdefault(what, value):
        ledger.reject(op, f"{what} differ from the first run in this invocation")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    round: Callable
    commands: list  # the commands in one round, in order (warm-up and traced run)


WORKLOADS = {
    "cold_pipeline": Workload(
        "cold_pipeline", cold_config, cold_round,
        [["synth-data"], *PIPELINE_COMMANDS],
    ),
    "ablation_sweep": Workload(
        "ablation_sweep", ablation_config, ablation_round,
        [*SETUP_COMMANDS, ABLATE_COMMAND],
    ),
}


def run_untraced(workload: Workload, seed: int, seconds: float, scratch: Path, ledger: Ledger) -> dict:
    """Measure whole rounds until another would pass ``seconds`` (at least one).

    Returns the median of each quantity a round samples: every end-to-end
    metric, and on some workloads more, for information.
    """
    warm_up(workload.commands, scratch, ledger.deadline)
    cfg = workload.config(seed)
    cfg_path = write_config(scratch / "config.json", cfg)
    state: dict = {}
    samples: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for name, values in workload.round(cfg_path, cfg, scratch, ledger, state).items():
            samples.setdefault(name, []).extend(values)
        now = time.perf_counter()
        if now - t0 + (now - t_round) > seconds:
            break
    return {name: statistics.median(values) for name, values in samples.items()}

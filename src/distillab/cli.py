"""Pipeline orchestration: one subcommand per stage, deterministic artifacts.

Stages write into an artifact directory keyed by the config hash
(runs/<run-id>/{data,models,prototypes,distilled,reports}). Every output is
written atomically: its bytes go to a temp file in the same directory,
which is fsynced and renamed over the target, so a command killed
mid-write leaves the old artifact or none, never a truncated one. Each
output gets a manifest listing exactly the command's inputs with their
hashes.

Every command runs in one frame (``_Command``): it checks the whole config,
then that its inputs exist, before it touches the filesystem, and it reads
its inputs only through ``_Command.load``, which checks that they fit each
other and their manifests. Each section of the config is passed to its
library function as is, so a run directory holds the outputs of the one
config its run id names.

Exit codes: 0 success, 2 config error (an output root the run directory
cannot be created under included), 3 missing artifact, 4 numeric failure,
5 malformed artifact file (truncated, foreign or holding a non-finite
value), inputs that do not fit each other (image shape, class count,
latent dim) or an input unlike its manifest (another sha256 or config, or
no manifest), 6 run directory locked by another running command (the lock
is an flock, which the kernel frees when its holder dies), 7 failed
sensitivity-sweep check (checked before any training, so no report is
written), 8 data that cannot support the config (a class with fewer
distinct latents than ``distill.ipc``), 9 stdout closed by its reader (a
command prints only after its last output is written), 10 out of memory (a
config whose arrays do not fit), 11 an operating-system error on a path
(say, a directory where an input, an output or the lock should be). A
command runs with numpy raising on float overflow, invalid operations and
division by zero, so a numeric failure is exit 4 with one line.
Environment: DISTILLAB_OUTPUT_ROOT overrides the output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_sha256, load_config, sha256
from .data import FormatError, read_dataset, read_report, synthesize_toy_dataset, write_atomic, write_dataset
from .diffusion import build_schedule, load_denoiser, save_denoiser, train_denoiser
from .evalharness import GRID_COLUMNS, RECORD_COLUMNS, SweepCheckError, evaluate, score_runs, select_runs, summary_table
from .evalharness import to_csv, train_downstream
from .models import load_autoencoder, load_detector, save_autoencoder, save_detector, train_autoencoder, train_detector
from .numerics import SeededRng
from .prototypes import DegenerateDataError, write_prototypes
from .refine import DiffusionCandidateGenerator, generate_candidates, select


class MissingArtifactError(FileNotFoundError):
    """A required input artifact is absent; the message names its producer."""


class LockedError(RuntimeError):
    """Another command that is still running holds the run directory's lock."""


# --- helpers ------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    """The file's sha256, read through one reusable 1 MB buffer."""
    h = sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    """The one indented JSON encoding: reports, manifests and ``--dump-config``."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    root = os.environ.get("DISTILLAB_OUTPUT_ROOT")
    return dataclasses.replace(cfg, output_root=root) if root else cfg


_NUMBER = (int, float)
# what ``load`` reads of each input's manifest, and of the two report inputs
_MANIFEST_SCHEMA = {"output_sha256": str, "config_sha256": str}
_ABLATION_SCHEMA = {"summary": {"*": {"mean": _NUMBER, "std": (*_NUMBER, type(None)), "n": int, "fallbacks": int}}}
_EVAL_SCHEMA = {"accuracy": _NUMBER}
# input artifact -> (path under the run directory, the command that produces
# it, its reader). A reader calls this module's binding of its function when
# it runs, so a wrapper put there (as perfbench's tracer does) sees the read.
_INPUTS = {
    "train": ("data/train.dstl", "synth-data", lambda path: read_dataset(path)),
    "test": ("data/test.dstl", "synth-data", lambda path: read_dataset(path)),
    "detector": ("models/detector.mdlc", "train-detector", lambda path: load_detector(path)),
    "autoencoder": ("models/autoencoder.mdlc", "train-autoencoder", lambda path: load_autoencoder(path)),
    "denoiser": ("models/denoiser.mdlc", "train-diffusion", lambda path: load_denoiser(path)),
    "distilled": ("distilled/distilled.dstl", "distill", lambda path: read_dataset(path)),
    "ablation": ("reports/ablation.json", "ablate", lambda path: read_report(path, _ABLATION_SCHEMA)),
    "eval": ("reports/eval.json", "eval", lambda path: read_report(path, _EVAL_SCHEMA)),
}


class _Command:
    """The frame every command runs in: config, inputs, lock and manifests.

    Constructing it resolves the config, so a command can check its own
    settings on ``cfg`` first. Entering it checks that each needed input
    exists (a missing one raises MissingArtifactError naming its producer,
    before the run directory is created), then creates the run directory's
    tree (a ConfigError when the output root does not allow it) and holds
    an flock on ``run_dir/.lock`` (which names our pid) until exit; while
    another command holds it, entering raises LockedError. The kernel frees
    a dead command's flock, so its ``.lock`` is taken over. A command gets
    its inputs from ``load`` before any work.
    """

    def __init__(self, args, *needs: str):
        self.cfg = _resolve_config(args)
        self.cfg_sha256 = config_sha256(self.cfg)
        self.run_dir = Path(self.cfg.output_root) / self.cfg_sha256[:12]
        self.inputs = {name: self.run_dir / _INPUTS[name][0] for name in needs}

    def __enter__(self) -> "_Command":
        for name, path in self.inputs.items():
            if not path.exists():
                raise MissingArtifactError(f"{path}; produce it with `distillab {_INPUTS[name][1]}` first")
        try:
            for sub in ("data", "models", "prototypes", "distilled", "reports"):
                (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"output root {self.cfg.output_root}: cannot create {self.run_dir}: {e.strerror}") from None
        # an flock on .lock, which the kernel frees when its holder dies; a
        # holder removes .lock before it lets go, so a lock won on a removed
        # file (no links left) is let go and taken on the new .lock
        self.lock = self.run_dir / ".lock"
        while True:
            self.lock_fd = os.open(self.lock, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(self.lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(self.lock_fd)
                raise LockedError(f"run directory {self.run_dir} is locked by another running command") from None
            if os.fstat(self.lock_fd).st_nlink:
                break
            os.close(self.lock_fd)
        os.ftruncate(self.lock_fd, 0)
        os.write(self.lock_fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc) -> None:
        self.lock.unlink(missing_ok=True)
        os.close(self.lock_fd)

    def load(self) -> list:
        """The inputs, in the order the command named them, each read by its reader and checked.

        Every ``image_shape``, ``num_classes`` and ``latent_dim`` among them
        must agree; the first input that differs from an earlier one raises
        a FormatError naming both files. Then each input must be the file its
        manifest describes: its sha256 the manifest's ``output_sha256`` and
        the manifest's ``config_sha256`` this run's. A missing manifest or a
        mismatch raises a FormatError naming the input.
        """
        loaded = [_INPUTS[name][2](path) for name, path in self.inputs.items()]
        first: dict[str, tuple[Path, object]] = {}
        for path, obj in zip(self.inputs.values(), loaded):
            for field in ("image_shape", "num_classes", "latent_dim"):
                if hasattr(obj, field):
                    value = getattr(obj, field)
                    ref, want = first.setdefault(field, (path, value))
                    if value != want:
                        raise FormatError(f"{path}: {field} {value} does not fit {ref.name}'s {want}")
        for path in self.inputs.values():
            manifest = path.with_name(path.name + ".manifest.json")
            if not manifest.exists():
                raise FormatError(f"{path}: its manifest {manifest.name} is missing")
            made = read_report(manifest, _MANIFEST_SCHEMA)
            if made["output_sha256"] != self.input_sha256[path.name]:
                raise FormatError(f"{path}: its sha256 is not the output_sha256 in {manifest.name}")
            if made["config_sha256"] != self.cfg_sha256:
                theirs, ours = made["config_sha256"][:12], self.cfg_sha256[:12]
                raise FormatError(f"{path}: its manifest names config {theirs}, not this run's {ours}")
        return loaded

    @functools.cached_property
    def input_sha256(self) -> dict[str, str]:
        """Each input's sha256 by file name, hashed once under the lock."""
        return {path.name: _sha256_file(path) for path in self.inputs.values()}

    def output(self, rel: str, writer, *args, **extra) -> Path:
        """Write ``run_dir/rel`` with ``writer(path, *args)``, then its manifest.

        ``writer`` returns the sha256 of the bytes it wrote (as
        ``write_atomic`` does); ``extra`` adds fields to the manifest.
        """
        path = self.run_dir / rel
        manifest = {
            "output": path.name,
            "output_sha256": writer(path, *args),
            "inputs": self.input_sha256,
            "config_sha256": self.cfg_sha256,
            "master_seed": self.cfg.master_seed,
            "tool_version": __version__,
            **extra,
        }
        write_atomic(path.with_name(path.name + ".manifest.json"), [_json_bytes(manifest)])
        return path


def _distill_cfg(cfg, **fields):
    """``cfg.distill`` with ``fields`` replaced; a value it rejects is a ConfigError.

    ``ablate --sweep`` checks each (``top_k``, ``beta``) cell of its grid
    this way before touching the run directory.
    """
    try:
        return dataclasses.replace(cfg, distill=dataclasses.replace(cfg.distill, **fields)).distill
    except ValueError as e:
        cell = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        raise ConfigError(f"distill ({cell}): {e}") from None


# --- commands -------------------------------------------------------------------


def _cmd_synth_data(args) -> int:
    with _Command(args) as run:
        train, test = synthesize_toy_dataset(run.cfg.data, SeededRng(run.cfg.master_seed))
        train_path = run.output("data/train.dstl", write_dataset, train)
        test_path = run.output("data/test.dstl", write_dataset, test)
        print(f"wrote {train_path} ({len(train)} images) and {test_path} ({len(test)} images)")
    return 0


def _cmd_train_detector(args) -> int:
    with _Command(args, "train") as run:
        [train] = run.load()
        [det] = train_detector([train], run.cfg.detector, [SeededRng(run.cfg.master_seed).spawn(31)], use_cutmix=True)
        out = run.output("models/detector.mdlc", save_detector, det)
        print(f"wrote {out} (final training loss {det.meta['loss_history'][-1]:.4f})")
    return 0


def _cmd_train_autoencoder(args) -> int:
    with _Command(args, "train") as run:
        [train] = run.load()
        codec = train_autoencoder(train, run.cfg.autoencoder, SeededRng(run.cfg.master_seed).spawn(32))
        out = run.output("models/autoencoder.mdlc", save_autoencoder, codec)
        print(f"wrote {out} (final training loss {codec.meta['loss_history'][-1]:.4f})")
    return 0


def _cmd_train_diffusion(args) -> int:
    with _Command(args, "train", "autoencoder") as run:
        train, codec = run.load()
        latents, labels = codec.encode(train.images), train.labels
        del train  # the images are spent: only their latents train the denoiser
        den = train_denoiser(latents, labels, run.cfg.denoiser, SeededRng(run.cfg.master_seed).spawn(33))
        out = run.output("models/denoiser.mdlc", save_denoiser, den)
        print(f"wrote {out} (final training loss {den.meta['loss_history'][-1]:.4f})")
    return 0


def _cmd_distill(args) -> int:
    with _Command(args, "train", "detector", "autoencoder", "denoiser") as run:
        train, det, codec, den = run.load()
        gen = DiffusionCandidateGenerator(den, build_schedule(run.cfg.denoiser), codec.decode)
        dcfg, seed = run.cfg.distill, run.cfg.master_seed
        # generation, then selection, so the training set is released before refinement
        bank = generate_candidates(train, codec.encode, gen, det, dcfg, SeededRng(seed))
        del train
        res = select(bank, dcfg)

        run.output("prototypes/prototypes.prto", write_prototypes, bank.prototypes)
        out_path = run.output("distilled/distilled.dstl", write_dataset, res.dataset)
        run.output("reports/distill_report.json", write_atomic, [_json_bytes(res.report)])
        c = res.report["counts"]
        print(
            f"wrote {out_path}: {c['total']} samples "
            f"({c['normal']} normal, {c['refined']} refined, {c['fallback']} fallback)"
        )
    return 0


def _cmd_eval(args) -> int:
    with _Command(args, "distilled", "test") as run:
        distilled, test = run.load()
        [clf] = train_downstream([distilled], run.cfg.eval, [SeededRng(run.cfg.master_seed).spawn(34)])
        acc = evaluate(clf, test)
        payload = {
            "accuracy": acc,
            "distilled_samples": len(distilled),
            "test_samples": len(test),
            "master_seed": run.cfg.master_seed,
        }
        out = run.output("reports/eval.json", write_atomic, [_json_bytes(payload)])
        print(f"downstream Top-1 accuracy: {acc:.4f} ({out})")
    return 0


def _cmd_ablate(args) -> int:
    run = _Command(args, "train", "test", "detector", "autoencoder", "denoiser")
    cfg = run.cfg
    if args.sweep:
        for k in cfg.eval.sensitivity_top_k:
            for beta in cfg.eval.sensitivity_betas:
                _distill_cfg(cfg, top_k=k, beta=beta)
    with run:
        train, test, det, codec, den = run.load()
        gen = DiffusionCandidateGenerator(den, build_schedule(cfg.denoiser), codec.decode)
        # selection, then training, so the training set and the models are released before training
        selected = select_runs(train, codec.encode, gen, det, cfg.distill, cfg.eval, sweep=args.sweep)
        del train, det, codec, den, gen
        payload, sensitivity = score_runs(selected, test, cfg.eval)
        out_json = run.output("reports/ablation.json", write_atomic, [_json_bytes(payload)])
        out_csv = run.output("reports/ablation.csv", write_atomic, [to_csv(payload["records"], RECORD_COLUMNS).encode()])
        text = summary_table(payload["summary"])
        if sensitivity:
            grid, evidence = sensitivity
            sweep = [to_csv(grid, GRID_COLUMNS).encode()]
            run.output("reports/sensitivity.csv", write_atomic, sweep, monotone_filter=evidence)
            text += f"sensitivity grid: {len(grid)} runs, {evidence['slots_checked']} slots checked\n"
        print(f"{text}wrote {out_json} and {out_csv}")  # printed last, so a closed stdout costs no report
    return 0


def _cmd_report(args) -> int:
    run = _Command(args, "ablation")
    eval_path = run.run_dir / _INPUTS["eval"][0]
    if eval_path.exists():  # optional: read, checked and listed only when there
        run.inputs["eval"] = eval_path
    with run:
        payload, *evals = run.load()
        text = summary_table(payload["summary"])
        text += "".join(f"single-run downstream accuracy: {e['accuracy']:.4f}\n" for e in evals)
        out = run.output("reports/summary.txt", write_atomic, [text.encode()])
        print(text, end="")
        print(f"wrote {out}")
    return 0


# --- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillab",
        description="Detector-guided dataset distillation pipeline (desk scale).",
    )
    parser.add_argument("--version", action="version", version=f"distillab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file (defaults used if omitted)")
        p.add_argument(
            "--dump-config", action="store_true", help="print the resolved config and exit"
        )
        p.set_defaults(func=fn)
        return p

    add("synth-data", _cmd_synth_data, "generate the procedural train/test datasets")
    add("train-detector", _cmd_train_detector, "train the CutMix anomaly detector")
    add("train-autoencoder", _cmd_train_autoencoder, "train the latent codec")
    add("train-diffusion", _cmd_train_diffusion, "train the conditional denoiser on latents")
    add("distill", _cmd_distill, "generate, filter, and refine the distilled dataset")
    add("eval", _cmd_eval, "train a downstream classifier on the distilled set and score it")
    p = add("ablate", _cmd_ablate, "run the selection-mode ablation grid across seeds")
    p.add_argument("--sweep", action="store_true", help="also sweep top-k and beta (sensitivity grid)")
    add("report", _cmd_report, "render the ablation summary table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.dump_config:
            print(_json_bytes(dataclasses.asdict(_resolve_config(args))).decode(), end="")
            code = 0
        else:  # numpy raises, so a numeric failure is one line, not a warning from each process; underflow is no failure
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                code = args.func(args)
        sys.stdout.flush()  # a buffered stdout meets a closed reader here
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MissingArtifactError as e:
        print(f"missing artifact: {e}", file=sys.stderr)
        return 3
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 5
    except LockedError as e:
        print(f"locked: {e}", file=sys.stderr)
        return 6
    except ArithmeticError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except SweepCheckError as e:
        print(f"sweep check failed: {e}", file=sys.stderr)
        return 7
    except DegenerateDataError as e:
        print(f"data cannot support the config: {e}", file=sys.stderr)
        return 8
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 10
    except BrokenPipeError:  # stdout's reader is gone: devnull takes the interpreter's flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 9
    except OSError as e:
        print(f"os error: {e}", file=sys.stderr)
        return 11


if __name__ == "__main__":
    sys.exit(main())

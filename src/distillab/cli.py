"""Pipeline orchestration: one subcommand per stage, deterministic artifacts.

Stages write into an artifact directory keyed by the config hash
(runs/<run-id>/{data,models,prototypes,distilled,reports}). Every output is
written atomically: its bytes go to a temp file in the same directory,
which is fsynced and renamed over the target, so a command killed
mid-write leaves the old artifact or none, never a truncated one. Each
output gets a manifest listing exactly the command's inputs with their
hashes.

Every command runs in one frame (``_Command``): it checks the whole config,
then that its inputs exist, before it touches the filesystem. Each section
of the config is passed to its library function as is, so a run directory
holds the outputs of the one config its run id names.

Exit codes: 0 success, 2 config error (an output root the run directory
cannot be created under included), 3 missing artifact, 4 numeric failure,
5 malformed artifact file (truncated, foreign or holding a non-finite
value), inputs that do not fit each other (image shape, class count,
latent dim) or an input unlike its manifest (another sha256 or config, or
no manifest), 6 run directory locked by another live command (a lock left
by a process that no longer exists is taken over), 7 failed
sensitivity-sweep check (checked before any training, so no report is
written). Environment: DISTILLAB_OUTPUT_ROOT overrides the output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, config_sha256, default_config, load_config, to_dict
from .data import FormatError, read_dataset, read_report, synthesize_toy_dataset, write_atomic, write_dataset
from .diffusion import load_denoiser, save_denoiser, train_denoiser
from .evalharness import AblationInputs, SweepCheckError, evaluate, run_ablation, sensitivity_csv, train_downstream
from .models import load_autoencoder, load_detector, save_autoencoder, save_detector, train_autoencoder, train_detector
from .numerics import SeededRng
from .prototypes import write_prototypes
from .refine import DiffusionCandidateGenerator, distill


class MissingArtifactError(FileNotFoundError):
    """A required input artifact is absent; the message names its producer."""


class LockedError(RuntimeError):
    """Another command that is still running holds the run directory's lock."""


# --- helpers ------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _resolve_config(args) -> "RunConfig":
    cfg = load_config(args.config) if args.config else default_config()
    root = os.environ.get("DISTILLAB_OUTPUT_ROOT")
    return dataclasses.replace(cfg, output_root=root) if root else cfg


def _holder_gone(lock: Path) -> bool:
    """True when the lock names a pid with no process behind it."""
    try:
        pid = int(lock.read_text())
    except FileNotFoundError:
        return True
    except ValueError:  # empty or foreign: its writer may still be starting
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return True
    except PermissionError:  # alive, owned by another user
        return False
    return False


# what ``check_fit`` reads of each input's manifest
_MANIFEST_SCHEMA = {"output_sha256": str, "config_sha256": str}
# input artifact -> (path under the run directory, the command that produces it)
_INPUTS = {
    "train": ("data/train.dstl", "synth-data"),
    "test": ("data/test.dstl", "synth-data"),
    "detector": ("models/detector.mdlc", "train-detector"),
    "autoencoder": ("models/autoencoder.mdlc", "train-autoencoder"),
    "denoiser": ("models/denoiser.mdlc", "train-diffusion"),
    "distilled": ("distilled/distilled.dstl", "distill"),
    "ablation": ("reports/ablation.json", "ablate"),
    "eval": ("reports/eval.json", "eval"),
}


class _Command:
    """The frame every command runs in: config, inputs, lock and manifests.

    Constructing it resolves the config, so a command can check its own
    settings on ``cfg`` first. Entering it checks that each needed input
    exists (a missing one raises MissingArtifactError naming its producer,
    before the run directory is created), then creates the run directory's
    tree (a ConfigError when the output root does not allow it) and holds
    ``run_dir/.lock`` (our pid) until exit. A lock whose process no
    longer exists is taken over once. A command checks what it read with
    ``check_fit`` before any work.
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
        self.lock = self.run_dir / ".lock"
        for attempt in range(2):
            try:
                fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt or not _holder_gone(self.lock):
                    raise LockedError(
                        f"run directory {self.run_dir} is locked by another command "
                        f"(remove {self.lock} if no command is running)"
                    ) from None
                self.lock.unlink(missing_ok=True)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc) -> None:
        self.lock.unlink(missing_ok=True)

    def check_fit(self, **loaded) -> None:
        """Check that the inputs read (input name -> what its reader returned) are this run's.

        Every ``image_shape``, ``num_classes`` and ``latent_dim`` among them
        must agree; the first input that differs from an earlier one raises
        a FormatError naming both files. Then each input must be the file its
        manifest describes: its sha256 the manifest's ``output_sha256`` and
        the manifest's ``config_sha256`` this run's. A missing manifest or a
        mismatch raises a FormatError naming the input.
        """
        first: dict[str, tuple[str, object]] = {}
        for name, obj in loaded.items():
            for field in ("image_shape", "num_classes", "latent_dim"):
                if hasattr(obj, field):
                    value = getattr(obj, field)
                    ref, want = first.setdefault(field, (name, value))
                    if value != want:
                        raise FormatError(
                            f"{self.inputs[name]}: {field} {value} does not fit {self.inputs[ref].name}'s {want}"
                        )
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


def _load_models(run: _Command, **datasets):
    """The run's detector, codec and candidate generator for ``distill`` and ``ablate``, checked against ``datasets``."""
    det = load_detector(run.inputs["detector"])
    codec = load_autoencoder(run.inputs["autoencoder"])
    den = load_denoiser(run.inputs["denoiser"])
    run.check_fit(**datasets, detector=det, autoencoder=codec, denoiser=den)
    return det, codec, DiffusionCandidateGenerator(den, run.cfg.denoiser.schedule(), codec.decode)


# --- commands -------------------------------------------------------------------


def _cmd_synth_data(args) -> int:
    with _Command(args) as run:
        train, test = synthesize_toy_dataset(run.cfg.data, SeededRng(run.cfg.master_seed))
        train_path = run.output("data/train.dstl", write_dataset, train, samples=len(train))
        test_path = run.output("data/test.dstl", write_dataset, test, samples=len(test))
        print(f"wrote {train_path} ({len(train)} images) and {test_path} ({len(test)} images)")
    return 0


def _cmd_train_detector(args) -> int:
    with _Command(args, "train") as run:
        train = read_dataset(run.inputs["train"])
        run.check_fit(train=train)
        [det] = train_detector([train], run.cfg.detector, [SeededRng(run.cfg.master_seed).spawn(31)], use_cutmix=True)
        out = run.output("models/detector.mdlc", save_detector, det, final_loss=det.meta["final_loss"])
        print(f"wrote {out} (final training loss {det.meta['final_loss']:.4f})")
    return 0


def _cmd_train_autoencoder(args) -> int:
    with _Command(args, "train") as run:
        train = read_dataset(run.inputs["train"])
        run.check_fit(train=train)
        codec = train_autoencoder(train, run.cfg.autoencoder, SeededRng(run.cfg.master_seed).spawn(32))
        mse = codec.meta["reconstruction_mse"]
        out = run.output("models/autoencoder.mdlc", save_autoencoder, codec, reconstruction_mse=mse)
        print(f"wrote {out} (reconstruction mse {mse:.5f})")
    return 0


def _cmd_train_diffusion(args) -> int:
    with _Command(args, "train", "autoencoder") as run:
        train = read_dataset(run.inputs["train"])
        codec = load_autoencoder(run.inputs["autoencoder"])
        run.check_fit(train=train, autoencoder=codec)
        latents = codec.encode(train.images)
        cfg = run.cfg
        den = train_denoiser(
            latents, train.labels, cfg.denoiser.schedule(), cfg.denoiser, SeededRng(cfg.master_seed).spawn(33)
        )
        out = run.output("models/denoiser.mdlc", save_denoiser, den, final_loss=den.meta["final_loss"])
        print(f"wrote {out} (final training loss {den.meta['final_loss']:.4f})")
    return 0


def _cmd_distill(args) -> int:
    with _Command(args, "train", "detector", "autoencoder", "denoiser") as run:
        train = read_dataset(run.inputs["train"])
        det, codec, gen = _load_models(run, train=train)
        dcfg, seed = run.cfg.distill, run.cfg.master_seed
        res = distill(train, codec.encode, gen, det, dcfg, SeededRng(seed))

        extra = {"distill_config": res.report["config"]}
        provenance = {"seed": seed, "ipc": dcfg.ipc}
        run.output("prototypes/prototypes.prto", write_prototypes, res.prototypes, provenance, **extra)
        out_path = run.output("distilled/distilled.dstl", write_dataset, res.dataset, **extra)
        run.output("reports/distill_report.json", write_atomic, [_json_bytes(res.report)], **extra)
        c = res.report["counts"]
        print(
            f"wrote {out_path}: {c['total']} samples "
            f"({c['normal']} normal, {c['refined']} refined, {c['fallback']} fallback)"
        )
    return 0


def _cmd_eval(args) -> int:
    with _Command(args, "distilled", "test") as run:
        distilled = read_dataset(run.inputs["distilled"])
        test = read_dataset(run.inputs["test"])
        run.check_fit(test=test, distilled=distilled)
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
        train, test = read_dataset(run.inputs["train"]), read_dataset(run.inputs["test"])
        det, codec, gen = _load_models(run, train=train, test=test)
        inputs = AblationInputs(
            train=train,
            test=test,
            encode_fn=codec.encode,
            detector=det,
            generator=gen,
        )
        report, sensitivity = run_ablation(inputs, cfg.distill, cfg.eval, sweep=args.sweep)
        out_json = run.output("reports/ablation.json", write_atomic, [(report.to_json() + "\n").encode()])
        out_csv = run.output("reports/ablation.csv", write_atomic, [report.to_csv().encode()])
        for mode, s in report.summary.items():
            std = f" +/- {s['std']:.4f}" if s["std"] is not None else ""
            print(f"{mode:10s} {s['mean']:.4f}{std}  (n={s['n']}, fallbacks={s['fallbacks']})")
        if sensitivity:
            grid, evidence = sensitivity
            sweep = [sensitivity_csv(grid).encode()]
            run.output("reports/sensitivity.csv", write_atomic, sweep, monotone_filter=evidence)
            print(f"sensitivity grid: {len(grid)} runs, {evidence['slots_checked']} slots checked")
        print(f"wrote {out_json} and {out_csv}")
    return 0


_NUMBER = (int, float)
# what ``report`` reads of each report file
_ABLATION_SCHEMA = {"summary": {"*": {"mean": _NUMBER, "std": (*_NUMBER, type(None)), "n": int, "fallbacks": int}}}
_EVAL_SCHEMA = {"accuracy": _NUMBER}


def _cmd_report(args) -> int:
    run = _Command(args, "ablation")
    eval_path = run.run_dir / _INPUTS["eval"][0]
    if eval_path.exists():  # optional: read, checked and listed only when there
        run.inputs["eval"] = eval_path
    with run:
        payload = read_report(run.inputs["ablation"], _ABLATION_SCHEMA)
        evals = read_report(run.inputs["eval"], _EVAL_SCHEMA) if "eval" in run.inputs else None
        run.check_fit(ablation=payload, eval=evals)
        lines = ["mode        mean      std       n   fallbacks"]
        for mode, s in sorted(payload["summary"].items()):
            std = f"{s['std']:.4f}" if s["std"] is not None else "   -  "
            lines.append(f"{mode:10s} {s['mean']:.4f}   {std}   {s['n']}   {s['fallbacks']}")
        if evals is not None:
            lines.append(f"single-run downstream accuracy: {evals['accuracy']:.4f}")
        text = "\n".join(lines) + "\n"
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
        if getattr(args, "dump_config", False):
            cfg = _resolve_config(args)
            print(json.dumps(to_dict(cfg), sort_keys=True, indent=2))
            return 0
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())

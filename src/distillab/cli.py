"""Pipeline orchestration: one subcommand per stage, deterministic artifacts.

Stages write into an artifact directory keyed by the config hash
(runs/<run-id>/{data,models,prototypes,distilled,reports}); every output
gets a manifest listing the hashes of all inputs that influenced it.

Every command checks the whole config, then that its inputs exist, before
it touches the filesystem. Each section of the config is passed to its
library function as is; the ``distill`` flags replace fields of the distill
section.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numeric
failure, 5 malformed artifact file (truncated or foreign), 6 run directory
locked by another live command (a lock left by a process that no longer
exists is taken over). Environment: DISTILLAB_OUTPUT_ROOT overrides the
output root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from .config import SELECTION_MODES, ConfigError, config_sha256, default_config, load_config, to_dict
from .data import DatasetFormatError
from .models import CheckpointFormatError

__version__ = "0.1.0"


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


def _resolve_config(args) -> "RunConfig":
    cfg = load_config(args.config) if args.config else default_config()
    root = os.environ.get("DISTILLAB_OUTPUT_ROOT")
    return dataclasses.replace(cfg, output_root=root) if root else cfg


def _run_dir(cfg) -> Path:
    """The run directory of ``cfg``; ``_lock`` creates it."""
    return Path(cfg.output_root) / config_sha256(cfg)[:12]


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


@contextlib.contextmanager
def _lock(run_dir: Path):
    """Create ``run_dir``'s tree and hold ``run_dir/.lock`` (our pid) while the command runs.

    A lock whose process no longer exists is taken over once.
    """
    for sub in ("data", "models", "prototypes", "distilled", "reports"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    lock = run_dir / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _holder_gone(lock):
                raise LockedError(
                    f"run directory {run_dir} is locked by another command "
                    f"(remove {lock} if no command is running)"
                ) from None
            lock.unlink(missing_ok=True)
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"{path}; produce it with `distillab {producer}` first"
        )
    return path


def _write_manifest(out_path: Path, inputs: list[Path], cfg, extra: dict | None = None) -> None:
    manifest = {
        "output": out_path.name,
        "output_sha256": _sha256_file(out_path),
        "inputs": {p.name: _sha256_file(p) for p in inputs},
        "config_sha256": config_sha256(cfg),
        "master_seed": cfg.master_seed,
        "tool_version": __version__,
    }
    if extra:
        manifest.update(extra)
    with open(out_path.with_name(out_path.name + ".manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_pgm(path: Path, image) -> None:
    """Debug dump: channel 0 as binary 8-bit PGM."""
    import numpy as np

    gray = np.clip(image[0] * 255.0, 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(gray.tobytes())


def _distill_cfg(dcfg, **fields):
    """``dcfg`` with ``fields`` replaced; a value it rejects is a ConfigError.

    Commands build their distill configs this way before touching the run
    directory.
    """
    try:
        return dataclasses.replace(dcfg, **fields)
    except ValueError as e:
        cell = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        raise ConfigError(f"distill ({cell}): {e}") from None


def _load_codec(run_dir: Path):
    from .models import LatentCodec, load_autoencoder

    ae = load_autoencoder(_require(run_dir / "models" / "autoencoder.mdlc", "train-autoencoder"))
    return LatentCodec.from_autoencoder(ae)


# --- commands -------------------------------------------------------------------


def _cmd_synth_data(args) -> int:
    from .data import synthesize_toy_dataset, write_dataset
    from .numerics import SeededRng

    cfg = _resolve_config(args)
    run_dir = _run_dir(cfg)
    with _lock(run_dir):
        train, test = synthesize_toy_dataset(cfg.data, SeededRng(cfg.master_seed))
        train_path = run_dir / "data" / "train.dstl"
        test_path = run_dir / "data" / "test.dstl"
        write_dataset(train_path, train)
        write_dataset(test_path, test)
        _write_manifest(train_path, [], cfg, {"samples": len(train)})
        _write_manifest(test_path, [], cfg, {"samples": len(test)})
        if args.preview:
            for i in range(min(args.preview, len(train))):
                _write_pgm(run_dir / "data" / f"preview_{i:03d}.pgm", train.images[i])
        print(f"wrote {train_path} ({len(train)} images) and {test_path} ({len(test)} images)")
    return 0


def _cmd_train_detector(args) -> int:
    from .data import read_dataset
    from .models import save_detector, train_detector
    from .numerics import SeededRng

    cfg = _resolve_config(args)
    run_dir = _run_dir(cfg)
    train_path = _require(run_dir / "data" / "train.dstl", "synth-data")
    with _lock(run_dir):
        train = read_dataset(train_path)
        det = train_detector(train, cfg.detector, SeededRng(cfg.master_seed).spawn(31), use_cutmix=True)
        out = run_dir / "models" / "detector.mdlc"
        save_detector(out, det)
        _write_manifest(out, [train_path], cfg, {"final_loss": det.meta["final_loss"]})
        print(f"wrote {out} (final training loss {det.meta['final_loss']:.4f})")
    return 0


def _cmd_train_autoencoder(args) -> int:
    from .data import read_dataset
    from .models import save_autoencoder, train_autoencoder
    from .numerics import SeededRng

    cfg = _resolve_config(args)
    run_dir = _run_dir(cfg)
    train_path = _require(run_dir / "data" / "train.dstl", "synth-data")
    with _lock(run_dir):
        train = read_dataset(train_path)
        ae = train_autoencoder(train, cfg.autoencoder, SeededRng(cfg.master_seed).spawn(32))
        out = run_dir / "models" / "autoencoder.mdlc"
        save_autoencoder(out, ae)
        _write_manifest(out, [train_path], cfg, {"reconstruction_mse": ae.meta["reconstruction_mse"]})
        print(f"wrote {out} (reconstruction mse {ae.meta['reconstruction_mse']:.5f})")
    return 0


def _cmd_train_diffusion(args) -> int:
    from .data import read_dataset
    from .diffusion import save_denoiser, train_denoiser
    from .numerics import SeededRng

    cfg = _resolve_config(args)
    run_dir = _run_dir(cfg)
    train_path = _require(run_dir / "data" / "train.dstl", "synth-data")
    ae_path = _require(run_dir / "models" / "autoencoder.mdlc", "train-autoencoder")
    with _lock(run_dir):
        train = read_dataset(train_path)
        codec = _load_codec(run_dir)
        latents = codec.encode(train.images)
        den = train_denoiser(
            latents, train.labels, cfg.denoiser.schedule(), cfg.denoiser, SeededRng(cfg.master_seed).spawn(33)
        )
        out = run_dir / "models" / "denoiser.mdlc"
        save_denoiser(out, den)
        _write_manifest(out, [train_path, ae_path], cfg, {"final_loss": den.meta["final_loss"]})
        print(f"wrote {out} (final training loss {den.meta['final_loss']:.4f})")
    return 0


def _cmd_distill(args) -> int:
    from .data import read_dataset, write_dataset
    from .diffusion import load_denoiser
    from .models import load_detector
    from .numerics import SeededRng
    from .prototypes import write_prototypes
    from .refine import DiffusionCandidateGenerator, distill

    cfg = _resolve_config(args)
    # each override flag stores into the distill field of its name
    names = [f.name for f in dataclasses.fields(cfg.distill)]
    dcfg = _distill_cfg(cfg.distill, **{n: getattr(args, n) for n in names if getattr(args, n, None) is not None})
    seed = cfg.master_seed if args.seed is None else args.seed
    run_dir = _run_dir(cfg)
    train_path = _require(run_dir / "data" / "train.dstl", "synth-data")
    det_path = _require(run_dir / "models" / "detector.mdlc", "train-detector")
    ae_path = _require(run_dir / "models" / "autoencoder.mdlc", "train-autoencoder")
    den_path = _require(run_dir / "models" / "denoiser.mdlc", "train-diffusion")
    with _lock(run_dir):
        train = read_dataset(train_path)
        det = load_detector(det_path)
        codec = _load_codec(run_dir)
        den = load_denoiser(den_path)
        gen = DiffusionCandidateGenerator(
            denoiser=den,
            schedule=cfg.denoiser.schedule(),
            decode_fn=codec.decode,
            strength=dcfg.strength,
            guidance_scale=dcfg.guidance_scale,
        )
        res = distill(train, codec.encode, gen, det, dcfg, SeededRng(seed))

        proto_path = run_dir / "prototypes" / "prototypes.prto"
        write_prototypes(proto_path, res.prototypes, provenance={"seed": seed, "ipc": dcfg.ipc})
        out_path = run_dir / "distilled" / "distilled.dstl"
        write_dataset(out_path, res.dataset)
        report_path = run_dir / "reports" / "distill_report.json"
        with open(report_path, "w") as f:
            json.dump(res.report, f, sort_keys=True, indent=2)
            f.write("\n")
        inputs = [train_path, det_path, ae_path, den_path]
        extra = {"distill_config": res.report["config"]}
        _write_manifest(proto_path, inputs, cfg, extra)
        _write_manifest(out_path, inputs, cfg, extra)
        _write_manifest(report_path, inputs, cfg, extra)
        if args.preview:
            for i in range(min(args.preview, len(res.dataset))):
                _write_pgm(run_dir / "distilled" / f"distilled_{i:03d}.pgm", res.dataset.images[i])
        c = res.report["counts"]
        print(
            f"wrote {out_path}: {c['total']} samples "
            f"({c['normal']} normal, {c['refined']} refined, {c['fallback']} fallback)"
        )
    return 0


def _cmd_eval(args) -> int:
    from .data import read_dataset
    from .evalharness import evaluate, train_downstream
    from .numerics import SeededRng

    cfg = _resolve_config(args)
    run_dir = _run_dir(cfg)
    distilled_path = _require(run_dir / "distilled" / "distilled.dstl", "distill")
    test_path = _require(run_dir / "data" / "test.dstl", "synth-data")
    with _lock(run_dir):
        distilled = read_dataset(distilled_path)
        test = read_dataset(test_path)
        clf = train_downstream(distilled, cfg.eval, SeededRng(cfg.master_seed).spawn(34))
        acc = evaluate(clf, test)
        payload = {
            "accuracy": acc,
            "distilled_samples": len(distilled),
            "test_samples": len(test),
            "master_seed": cfg.master_seed,
        }
        out = run_dir / "reports" / "eval.json"
        with open(out, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=2)
            f.write("\n")
        _write_manifest(out, [distilled_path, test_path], cfg)
        print(f"downstream Top-1 accuracy: {acc:.4f} ({out})")
    return 0


def _cmd_ablate(args) -> int:
    from .data import read_dataset
    from .diffusion import load_denoiser
    from .evalharness import AblationInputs, run_ablation, run_sensitivity, sensitivity_csv
    from .models import load_detector

    cfg = _resolve_config(args)
    if args.sweep:
        for k in cfg.eval.sensitivity_top_k:
            for beta in cfg.eval.sensitivity_betas:
                _distill_cfg(cfg.distill, top_k=k, beta=beta)
    run_dir = _run_dir(cfg)
    train_path = _require(run_dir / "data" / "train.dstl", "synth-data")
    test_path = _require(run_dir / "data" / "test.dstl", "synth-data")
    det_path = _require(run_dir / "models" / "detector.mdlc", "train-detector")
    ae_path = _require(run_dir / "models" / "autoencoder.mdlc", "train-autoencoder")
    den_path = _require(run_dir / "models" / "denoiser.mdlc", "train-diffusion")
    with _lock(run_dir):
        train = read_dataset(train_path)
        test = read_dataset(test_path)
        codec = _load_codec(run_dir)
        inputs = AblationInputs(
            train=train,
            test=test,
            encode_fn=codec.encode,
            detector=load_detector(det_path),
            denoiser=load_denoiser(den_path),
            schedule=cfg.denoiser.schedule(),
            decode_fn=codec.decode,
        )
        report = run_ablation(inputs, cfg.distill, cfg.eval)
        inputs_list = [train_path, test_path, det_path, ae_path, den_path]
        out_json = run_dir / "reports" / "ablation.json"
        out_json.write_text(report.to_json() + "\n")
        out_csv = run_dir / "reports" / "ablation.csv"
        out_csv.write_text(report.to_csv())
        _write_manifest(out_json, inputs_list, cfg)
        _write_manifest(out_csv, inputs_list, cfg)
        for mode, s in report.summary.items():
            std = f" +/- {s['std']:.4f}" if s["std"] is not None else ""
            print(f"{mode:10s} {s['mean']:.4f}{std}  (n={s['n']}, fallbacks={s['fallbacks']})")
        if args.sweep:
            grid, evidence = run_sensitivity(inputs, cfg.distill, cfg.eval)
            out_sweep = run_dir / "reports" / "sensitivity.csv"
            out_sweep.write_text(sensitivity_csv(grid))
            _write_manifest(out_sweep, inputs_list, cfg, {"monotone_filter": evidence})
            print(f"sensitivity grid: {len(grid)} runs, {evidence['slots_checked']} slots checked")
        print(f"wrote {out_json} and {out_csv}")
    return 0


def _cmd_report(args) -> int:
    cfg = _resolve_config(args)
    run_dir = _run_dir(cfg)
    ablation_path = _require(run_dir / "reports" / "ablation.json", "ablate")
    payload = json.loads(ablation_path.read_text())
    lines = ["mode        mean      std       n   fallbacks"]
    for mode, s in sorted(payload["summary"].items()):
        std = f"{s['std']:.4f}" if s["std"] is not None else "   -  "
        lines.append(f"{mode:10s} {s['mean']:.4f}   {std}   {s['n']}   {s['fallbacks']}")
    eval_path = run_dir / "reports" / "eval.json"
    if eval_path.exists():
        acc = json.loads(eval_path.read_text())["accuracy"]
        lines.append(f"single-run downstream accuracy: {acc:.4f}")
    text = "\n".join(lines) + "\n"
    out = run_dir / "reports" / "summary.txt"
    out.write_text(text)
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

    p = add("synth-data", _cmd_synth_data, "generate the procedural train/test datasets")
    p.add_argument("--preview", type=int, default=0, metavar="N", help="dump N train images as PGM")
    add("train-detector", _cmd_train_detector, "train the CutMix anomaly detector")
    add("train-autoencoder", _cmd_train_autoencoder, "train (or build) the latent codec")
    add("train-diffusion", _cmd_train_diffusion, "train the conditional denoiser on latents")
    p = add("distill", _cmd_distill, "generate, filter, and refine the distilled dataset")
    p.add_argument("--beta", type=float, default=None, help="confidence threshold override")
    p.add_argument("--top-k", dest="top_k", type=int, default=None, help="shortlist size override")
    p.add_argument("--candidates", dest="num_candidates", type=int, default=None, help="candidates per defective slot")
    p.add_argument("--guidance", dest="guidance_scale", type=float, default=None, help="guidance scale override")
    p.add_argument("--strength", type=float, default=None, help="img2img strength override")
    p.add_argument("--ipc", type=int, default=None, help="images-per-class override")
    p.add_argument("--mode", dest="selection_mode", type=str, default=None, choices=SELECTION_MODES)
    p.add_argument("--seed", type=int, default=None, help="distillation seed override")
    p.add_argument("--preview", type=int, default=0, metavar="N", help="dump N distilled images as PGM")
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
    except (DatasetFormatError, CheckpointFormatError) as e:
        print(f"format error: {e}", file=sys.stderr)
        return 5
    except LockedError as e:
        print(f"locked: {e}", file=sys.stderr)
        return 6
    except ArithmeticError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Traced run: per-layer counts and self times for one pass of a workload.

The workload's commands run in this process through ``distillab.cli.main``
with wrappers installed around distillab's public functions. A wrapper is
installed at every module attribute that holds the function (found by
identity), because modules bind functions by name: ``mlp_forward`` lives in
both ``distillab.models`` and ``distillab.diffusion``, ``predict_batch`` in
``models``, ``refine`` and ``evalharness``. A layer's self time is its spans'
time minus the time of wrapped calls made inside them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import workloads

# Per-layer metrics: name -> (unit, better). BENCHMARK.json lists the same.
METRICS = {
    "numerics.rng_calls": ("count", "lower"),
    "numerics.rng_words": ("count", "lower"),
    "numerics.rng_s": ("s", "lower"),
    "data.synth_s": ("s", "lower"),
    "data.cutmix_calls": ("count", "lower"),
    "data.cutmix_s": ("s", "lower"),
    "data.io_bytes": ("B", "lower"),
    "data.io_s": ("s", "lower"),
    "models.forward_calls": ("count", "lower"),
    "models.forward_rows": ("count", "lower"),
    "models.forward_s": ("s", "lower"),
    "models.backward_s": ("s", "lower"),
    "models.adam_steps": ("count", "lower"),
    "models.adam_s": ("s", "lower"),
    "models.train_detector_s": ("s", "lower"),
    "models.train_autoencoder_s": ("s", "lower"),
    "models.codec_s": ("s", "lower"),
    "models.checkpoint_s": ("s", "lower"),
    "models.detector_s": ("s", "lower"),
    "models.detector_rows": ("count", "lower"),
    "models.detector_passes_per_image": ("ratio", "lower"),
    "diffusion.train_s": ("s", "lower"),
    "diffusion.sample_calls": ("count", "lower"),
    "diffusion.sample_streams": ("count", "lower"),
    "diffusion.stream_steps": ("count", "lower"),
    "diffusion.sample_s": ("s", "lower"),
    "prototypes.extract_calls": ("count", "lower"),
    "prototypes.extract_s": ("s", "lower"),
    "refine.distill_calls": ("count", "lower"),
    "refine.distill_s": ("s", "lower"),
    "refine.slots": ("count", "higher"),
    "refine.slots_flagged": ("count", "lower"),
    "refine.candidates_scored": ("count", "lower"),
    "refine.select_s": ("s", "lower"),
    "refine.accept_ratio": ("ratio", "higher"),
    "evalharness.downstream_calls": ("count", "lower"),
    "evalharness.downstream_s": ("s", "lower"),
    "evalharness.evaluate_s": ("s", "lower"),
    "evalharness.batches_per_distinct": ("ratio", "lower"),
    "evalharness.prototypes_per_distinct": ("ratio", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.synth_data_s": ("s", "lower"),
    "cli.train_detector_s": ("s", "lower"),
    "cli.train_autoencoder_s": ("s", "lower"),
    "cli.train_diffusion_s": ("s", "lower"),
    "cli.result_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# The commands that read the trained models and give the workload's result;
# their in-process time is reported together as ``cli.result_s``, so that the
# metric is measured on every workload.
RESULT_COMMANDS = ("distill", "eval", "ablate")

# Layers that must record calls on a workload; zero means a wrapper missed
# the binding through which the program reaches the function.
EXPECTED_CALLS = {
    "cold_pipeline": ("data.cutmix_calls", "diffusion.sample_calls"),
    "ablation_sweep": ("diffusion.sample_calls",),
}


class Tracer:
    """Spans and counts recorded by the wrappers, in memory."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [key, time spent in wrapped children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.batches: Counter = Counter()  # generated batch -> times generated
        self.prototype_runs: Counter = Counter()  # (seed, ipc) -> extractions
        self.command_s: defaultdict[str, float] = defaultdict(float)  # inclusive, per CLI command
        self.in_rng = False
        self._undo: list[tuple[object, str, object]] = []
        self.sample_args = _binder("diffusion", "sample_img2img_batch")
        self.extract_args = _binder("prototypes", "extract_prototypes")

    def call(self, key: str, fn, *args, **kwargs):
        frame = [key, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self.self_s[key] += dt - frame[1]
            if self.stack:
                self.stack[-1][1] += dt

    def inside(self, key: str) -> bool:
        return any(frame[0] == key for frame in self.stack)

    def span(self, key: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call is a span under ``key``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            result = self.call(key, fn, *args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def rng_span(self, fn):
        """Wrap a SeededRng method; draws made inside another draw count once.

        Words drawn are the advance of the stream's counter, which moves by
        one per raw 64-bit word.
        """

        @functools.wraps(fn)
        def wrapper(rng, *args, **kwargs):
            if self.in_rng:
                return fn(rng, *args, **kwargs)
            self.in_rng = True
            before = rng._counter
            t0 = time.perf_counter()
            try:
                return fn(rng, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.in_rng = False
                self.counts["numerics.rng_calls"] += 1
                self.counts["numerics.rng_words"] += rng._counter - before
                self.self_s["numerics.rng"] += dt
                if self.stack:
                    self.stack[-1][1] += dt

        return wrapper

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every target at all its bindings.

        A target the program no longer has is reported and skipped; its time
        then counts in its caller's span.
        """
        everywhere = [importlib.import_module("distillab")]
        everywhere += [importlib.import_module(f"distillab.{m}") for m in LAYERS]
        for module_name, name, key, before, after in FUNCTIONS:
            fn = _lookup(f"distillab.{module_name}", name)
            if fn is not None:
                wrapper = self.span(key, fn, before, after)
                for mod in everywhere:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, attr, wrapper)
        for module_name, cls_name, name, key, before in METHODS:
            cls = getattr(importlib.import_module(f"distillab.{module_name}"), cls_name)
            method = _lookup(cls, name)
            if method is not None:
                self._replace(cls, name, self.span(key, method, before))
        rng_cls = importlib.import_module("distillab.numerics").SeededRng
        for name, fn in list(vars(rng_cls).items()):
            if callable(fn) and not name.startswith("_"):
                self._replace(rng_cls, name, self.rng_span(fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _lookup(owner, name: str):
    """``owner.name``, or None with a note when the program no longer has it."""
    if isinstance(owner, str):
        owner = importlib.import_module(owner)
    value = getattr(owner, name, None)
    if value is None:
        print(f"perfbench: {getattr(owner, '__name__', owner)}.{name} not found, not traced", file=sys.stderr)
    return value


# --- counters attached to spans -----------------------------------------------


def _count(name):
    def hook(tr, args, kwargs):
        tr.counts[name] += 1

    return hook


def _forward(tr, args, kwargs):
    tr.counts["models.forward_calls"] += 1
    tr.counts["models.forward_rows"] += len(args[1])


def _detector(tr, args, kwargs):
    if tr.inside("refine.distill"):  # generated images only
        tr.counts["models.detector_rows"] += len(args[1])


def _read_bytes(tr, args, kwargs):
    tr.counts["data.io_bytes"] += os.path.getsize(args[0])


def _written_bytes(tr, args, kwargs, result):
    tr.counts["data.io_bytes"] += os.path.getsize(args[0])


def _binder(module_name: str, fn_name: str):
    """Map a call's arguments to parameter names, whichever way they were passed."""
    sig = inspect.signature(getattr(importlib.import_module(f"distillab.{module_name}"), fn_name))
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _sample(tr, args, kwargs):
    a = tr.sample_args(args, kwargs)
    rngs = list(a["rngs"])
    tr.counts["diffusion.sample_calls"] += 1
    tr.counts["diffusion.sample_streams"] += len(rngs)
    tr.counts["diffusion.stream_steps"] += len(rngs) * math.floor(a["strength"] * a["sched"].timesteps)
    tr.batches[(a["label"], tuple(r.seed for r in rngs))] += 1


def _extract(tr, args, kwargs):
    a = tr.extract_args(args, kwargs)
    tr.counts["prototypes.extract_calls"] += 1
    tr.prototype_runs[(a["rng"].seed, a["ipc"])] += 1


def _distilled(tr, args, kwargs, result):
    c = result.report["counts"]
    tr.counts["refine.distill_calls"] += 1
    tr.counts["refine.slots"] += c["total"]
    tr.counts["refine.slots_flagged"] += c["total"] - c["normal"]
    tr.counts["refine.accepted"] += c["normal"] + c["refined"]


def _refined(tr, args, kwargs, result):
    tr.counts["refine.candidates_scored"] += len(result[1])


LAYERS = ("numerics", "data", "models", "diffusion", "prototypes", "refine", "evalharness", "cli")

# (defining module, function, span key, before hook, after hook)
FUNCTIONS = [
    ("data", "synthesize_toy_dataset", "data.synth", None, None),
    ("data", "cutmix", "data.cutmix", _count("data.cutmix_calls"), None),
    ("data", "cutmix_box", "data.cutmix", None, None),
    ("data", "sample_mix_ratio", "data.cutmix", None, None),
    ("data", "read_dataset", "data.io", _read_bytes, None),
    ("data", "write_dataset", "data.io", None, _written_bytes),
    ("models", "mlp_forward", "models.forward", _forward, None),
    ("models", "mlp_backward", "models.backward", None, None),
    ("models", "train_detector", "models.train_detector", None, None),
    ("models", "train_autoencoder", "models.train_autoencoder", None, None),
    ("models", "encode", "models.codec", None, None),
    ("models", "decode", "models.codec", None, None),
    ("models", "predict_batch", "models.detector", _detector, None),
    ("models", "extract_features_batch", "models.detector", _detector, None),
    ("models", "write_checkpoint", "models.checkpoint", None, None),
    ("models", "read_checkpoint", "models.checkpoint", None, None),
    ("models", "save_detector", "models.checkpoint", None, None),
    ("models", "load_detector", "models.checkpoint", None, None),
    ("models", "save_autoencoder", "models.checkpoint", None, None),
    ("models", "load_autoencoder", "models.checkpoint", None, None),
    ("diffusion", "save_denoiser", "models.checkpoint", None, None),
    ("diffusion", "load_denoiser", "models.checkpoint", None, None),
    ("diffusion", "train_denoiser", "diffusion.train", None, None),
    ("diffusion", "denoise_loss_and_grads", "diffusion.train", None, None),
    ("diffusion", "sample_img2img_batch", "diffusion.sample", _sample, None),
    ("prototypes", "extract_prototypes", "prototypes.extract", _extract, None),
    # PRTO files count as data I/O: ``ablate`` keeps its prototypes in memory,
    # so a separate prototype I/O time would read 0 on ablation_sweep
    ("prototypes", "write_prototypes", "data.io", None, _written_bytes),
    ("prototypes", "read_prototypes", "data.io", _read_bytes, None),
    ("refine", "distill", "refine.distill", None, _distilled),
    ("refine", "refine_defective", "refine.distill", None, _refined),
    ("refine", "select_replacement", "refine.select", None, None),
    ("refine", "cumulative_similarity", "refine.select", None, None),
    ("evalharness", "train_downstream", "evalharness.downstream", _count("evalharness.downstream_calls"), None),
    ("evalharness", "evaluate", "evalharness.evaluate", None, None),
    # the harness loops' own time is small; it is counted with ``evaluate``
    # so that the metric is measured on both workloads
    ("evalharness", "run_ablation", "evalharness.evaluate", None, None),
    ("evalharness", "run_sensitivity", "evalharness.evaluate", None, None),
]

# (module, class, method, span key, before hook)
METHODS = [
    ("models", "Adam", "step", "models.adam", _count("models.adam_steps")),
    ("models", "LatentCodec", "encode", "models.codec", None),
    ("models", "LatentCodec", "decode", "models.codec", None),
    ("diffusion", "Denoiser", "predict_noise", "diffusion.sample", None),
]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    c = tr.counts
    out = {name: float(c[name]) for name, (unit, _) in METRICS.items() if unit == "count"}
    for key, seconds in tr.self_s.items():
        if not key.startswith("cli."):
            out[f"{key}_s"] = seconds
    out["cli.self_s"] = sum(s for k, s in tr.self_s.items() if k.startswith("cli."))
    for command, seconds in tr.command_s.items():
        if command in RESULT_COMMANDS:
            out["cli.result_s"] = out.get("cli.result_s", 0.0) + seconds
        else:
            out[f"cli.{command.replace('-', '_')}_s"] = seconds
    out["data.io_bytes"] = float(c["data.io_bytes"])
    out["models.detector_passes_per_image"] = c["models.detector_rows"] / max(1, c["diffusion.sample_streams"])
    out["refine.accept_ratio"] = c["refine.accepted"] / max(1, c["refine.slots"])
    out["evalharness.batches_per_distinct"] = sum(tr.batches.values()) / max(1, len(tr.batches))
    out["evalharness.prototypes_per_distinct"] = sum(tr.prototype_runs.values()) / max(1, len(tr.prototype_runs))
    return {name: out.get(name, 0.0) for name in METRICS}


# --- the traced run -----------------------------------------------------------


def startup_seconds(scratch: Path, repeats: int = 3) -> float:
    """Median wall time of ``distillab --version``: interpreter start and package import."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "distillab.cli", "--version"],
            env=workloads.child_env(scratch), cwd=workloads.REPO, check=True, capture_output=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class InProcess:
    """Runs CLI commands through ``distillab.cli.main`` in this process."""

    def __init__(self, cfg_path: Path, scratch: Path, ledger: workloads.Ledger):
        self.cfg_path, self.scratch, self.ledger = cfg_path, scratch, ledger
        self.cli = importlib.import_module("distillab.cli")

    def run(self, argv: list[str], root: Path, tracer: Tracer | None = None) -> workloads.Op:
        os.environ["DISTILLAB_OUTPUT_ROOT"] = str(root)
        full = [*argv, "--config", str(self.cfg_path)]
        log = self.scratch / f"{len(self.ledger.ops):03d}-{argv[0]}.log"
        t0 = time.perf_counter()
        with open(log, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                if tracer is None:
                    code = self.cli.main(full)
                else:
                    code = tracer.call("cli." + argv[0], self.cli.main, full)
            except Exception as e:  # a traceback: the operation failed
                code = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.command_s[argv[0]] += seconds
        op = workloads.Op(argv, seconds, 0, code == 0)
        self.ledger.ops.append(op)
        if not op.ok:
            self.ledger.problems.append(f"{' '.join(argv)}: {code}")
        return op

    def run_all(self, commands, root: Path, tracer: Tracer | None = None) -> float:
        t0 = time.perf_counter()
        for argv in commands:
            self.run(argv, root, tracer)
        return time.perf_counter() - t0


def _check_outputs(ledger, first: int, check, root: Path, cfg: dict, state: dict, what: str) -> None:
    """Check a pass's outputs and that they equal the first pass's."""
    if all(op.ok for op in ledger.ops[first:]):
        op = ledger.ops[-1]
        value = ledger.check(op, what, check, workloads.run_dir_of(root), cfg)
        if value is not None:
            workloads.expect_same(ledger, op, state, what, value)


def run_traced(workload: workloads.Workload, seed: int, scratch: Path, ledger: workloads.Ledger) -> dict[str, float]:
    """One untraced and one traced pass of the workload's timed commands.

    cold_pipeline runs all six commands twice, each time from a fresh root;
    ablation_sweep runs its set-up once, traced, then ``ablate --sweep``
    untraced and traced. The traced pass gives the layer metrics, and its
    extra time over the untraced pass the tracing overhead. Both passes must
    write the same outputs.
    """
    sys.path.insert(0, str(workloads.SRC))
    cfg = workload.config(seed)
    runner = InProcess(workloads.write_config(scratch / "config.json", cfg), scratch, ledger)
    tracer = Tracer()
    startup = startup_seconds(scratch)
    first, state = len(ledger.ops), {}
    if workload.name == "cold_pipeline":
        check, what = checks.check_cold, "distilled.dstl sha256"
        plain = workloads.fresh_dir(scratch / "plain")
        untraced = runner.run_all(workload.commands, plain)
        _check_outputs(ledger, first, check, plain, cfg, state, what)
        root = workloads.fresh_dir(scratch / "traced")
        with tracer.installed():
            traced = runner.run_all(workload.commands, root, tracer)
    else:
        check, what = checks.check_ablation, "ablation records"
        root = workloads.fresh_dir(scratch / "traced")
        with tracer.installed():
            runner.run_all(workload.commands[:-1], root, tracer)
        untraced = runner.run_all(workload.commands[-1:], root)
        _check_outputs(ledger, first, check, root, cfg, state, what)
        with tracer.installed():
            traced = runner.run_all(workload.commands[-1:], root, tracer)
    _check_outputs(ledger, first, check, root, cfg, state, what)

    metrics = layer_metrics(tracer)
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    for name in missing_layers(workload.name, metrics):
        ledger.problems.append(f"traced run recorded no {name}: a wrapper missed a binding")
        ledger.wrong += 1
    return metrics


def missing_layers(workload_name: str, metrics: dict[str, float]) -> list[str]:
    """Layers expected to record calls on the workload that recorded none."""
    return [name for name in EXPECTED_CALLS[workload_name] if metrics[name] == 0]

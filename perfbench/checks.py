"""Output checks written apart from distillab.

Nothing here imports distillab. The container readers follow the layouts
documented in ``src/distillab/data.py`` (DSTL) and ``src/distillab/models.py``
(MDLC); the detector forward pass follows the MLP definition there (tanh on
every hidden layer, linear output, weights stored ``(fan_out, fan_in)``).
Every check raises :class:`CheckError` with a message naming what failed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Slack for a confidence compared against beta: the program computes the
# same float64 softmax, but BLAS may sum in another order.
BETA_ROUNDING = 1e-9


class CheckError(Exception):
    """A program output failed an independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Reader:
    """Bounds-checked cursor over a whole file."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.buf = self.path.read_bytes()
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.pos + count
        _require(end <= len(self.buf), f"{self.path.name}: truncated while reading {what}")
        out = self.buf[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def done(self) -> None:
        _require(self.pos == len(self.buf), f"{self.path.name}: {len(self.buf) - self.pos} trailing bytes")


# --- DSTL: magic | u16 version | u32 N, K, C, H, W | u16 labels[N]
#     | f32 images[N*C*H*W] | u32 trailer_len | JSON trailer


def read_dstl(path) -> dict:
    r = _Reader(path)
    _require(r.take(4, "magic") == b"DSTL", f"{r.path.name}: bad magic")
    (version,) = r.unpack("<H", "version")
    _require(version == 1, f"{r.path.name}: unknown version {version}")
    n, k, c, h, w = r.unpack("<5I", "header")
    labels = np.frombuffer(r.take(2 * n, "labels"), dtype="<u2").astype(np.int64)
    images = np.frombuffer(r.take(4 * n * c * h * w, "images"), dtype="<f4").reshape(n, c, h, w)
    (tlen,) = r.unpack("<I", "trailer length")
    trailer = json.loads(r.take(tlen, "trailer").decode("utf-8"))
    r.done()
    return {"num_classes": k, "labels": labels, "images": images, "trailer": trailer}


# --- MDLC: magic | u16 version | u32 desc_len | JSON descriptor | u32 count
#     | per array: u32 ndim, u32 dims[ndim] | f32 blobs in the same order


def read_mdlc(path) -> tuple[dict, list[np.ndarray]]:
    r = _Reader(path)
    _require(r.take(4, "magic") == b"MDLC", f"{r.path.name}: bad magic")
    (version,) = r.unpack("<H", "version")
    _require(version == 1, f"{r.path.name}: unknown version {version}")
    (dlen,) = r.unpack("<I", "descriptor length")
    desc = json.loads(r.take(dlen, "descriptor").decode("utf-8"))
    (count,) = r.unpack("<I", "array count")
    shapes = []
    for i in range(count):
        (ndim,) = r.unpack("<I", f"rank of array {i}")
        shapes.append(r.unpack(f"<{ndim}I", f"shape of array {i}"))
    arrays = []
    for i, shape in enumerate(shapes):
        size = int(np.prod(shape)) if shape else 1
        arrays.append(np.frombuffer(r.take(4 * size, f"array {i}"), dtype="<f4").reshape(shape))
    r.done()
    return desc, arrays


def mlp_max_softmax(arrays: list[np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax labels, max-softmax confidences) of a tanh MLP in float64.

    ``arrays`` alternates weight (fan_out, fan_in) and bias; every layer but
    the last applies tanh.
    """
    a = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    pairs = list(zip(arrays[0::2], arrays[1::2]))
    for i, (w, b) in enumerate(pairs):
        a = a @ w.astype(np.float64).T + b.astype(np.float64)
        if i < len(pairs) - 1:
            a = np.tanh(a)
    z = a - a.max(axis=1, keepdims=True)
    conf = 1.0 / np.exp(z).sum(axis=1)
    return a.argmax(axis=1), conf


# --- manifests


def check_manifests(run_dir: Path, required: dict[str, set[str]]) -> int:
    """Recompute every manifest's hashes; return how many manifests were checked.

    ``required`` maps an output file name to input names its manifest must
    list. Input files are found by name anywhere under ``run_dir``.
    """
    run_dir = Path(run_dir)
    by_name: dict[str, Path] = {}
    for p in run_dir.rglob("*"):
        if p.is_file() and not p.name.endswith(".manifest.json"):
            _require(p.name not in by_name, f"artifact name {p.name} is not unique in {run_dir}")
            by_name[p.name] = p
    manifests = sorted(run_dir.rglob("*.manifest.json"))
    seen = set()
    for m in manifests:
        payload = json.loads(m.read_text())
        out = m.with_name(m.name[: -len(".manifest.json")])
        _require(payload.get("output") == out.name, f"{m.name}: names output {payload.get('output')!r}")
        _require(out.is_file(), f"{m.name}: output {out.name} is missing")
        _require(payload["output_sha256"] == sha256_file(out), f"{m.name}: output sha256 does not match {out.name}")
        for name, digest in payload["inputs"].items():
            _require(name in by_name, f"{m.name}: input {name} is missing")
            _require(digest == sha256_file(by_name[name]), f"{m.name}: input sha256 does not match {name}")
        missing = required.get(out.name, set()) - set(payload["inputs"])
        _require(not missing, f"{m.name}: inputs {sorted(missing)} not listed")
        _require(
            run_dir.name == payload["config_sha256"][:12],
            f"{m.name}: config hash {payload['config_sha256'][:12]} does not name run directory {run_dir.name}",
        )
        seen.add(out.name)
    absent = set(required) - seen
    _require(not absent, f"no manifest for {sorted(absent)}")
    return len(manifests)


_TRAINED = {"train.dstl"}
_MODELS = {"train.dstl", "detector.mdlc", "autoencoder.mdlc", "denoiser.mdlc"}
SETUP_INPUTS = {
    "train.dstl": set(),
    "test.dstl": set(),
    "detector.mdlc": _TRAINED,
    "autoencoder.mdlc": _TRAINED,
    "denoiser.mdlc": {"train.dstl", "autoencoder.mdlc"},
}
COLD_INPUTS = dict(
    SETUP_INPUTS,
    **{
        "prototypes.prto": _MODELS,
        "distilled.dstl": _MODELS,
        "distill_report.json": _MODELS,
        "eval.json": {"distilled.dstl", "test.dstl"},
    },
)
ABLATION_INPUTS = dict(
    SETUP_INPUTS,
    **{name: _MODELS | {"test.dstl"} for name in ("ablation.json", "ablation.csv", "sensitivity.csv")},
)


# --- workload checks


def check_datasets(run_dir: Path, data: dict) -> None:
    k = data["num_classes"]
    for split, per_class in (("train", data["train_per_class"]), ("test", data["test_per_class"])):
        ds = read_dstl(Path(run_dir) / "data" / f"{split}.dstl")
        _require(ds["num_classes"] == k, f"{split}.dstl: {ds['num_classes']} classes, expected {k}")
        counts = np.bincount(ds["labels"], minlength=k)
        _require(
            counts.tolist() == [per_class] * k,
            f"{split}.dstl: per-class counts {counts.tolist()}, expected {per_class} each",
        )


def check_cold(run_dir: Path, cfg: dict) -> str:
    """Check a finished default pipeline; return the sha256 of distilled.dstl."""
    run_dir = Path(run_dir)
    data, dist = cfg["data"], cfg["distill"]
    k, ipc, beta = data["num_classes"], dist["ipc"], dist["beta"]
    check_datasets(run_dir, data)

    ds_path = run_dir / "distilled" / "distilled.dstl"
    ds = read_dstl(ds_path)
    images, labels = ds["images"], ds["labels"]
    _require(ds["num_classes"] == k, f"distilled.dstl: {ds['num_classes']} classes, expected {k}")
    _require(len(labels) == k * ipc, f"distilled.dstl: {len(labels)} images, expected {k * ipc}")
    counts = np.bincount(labels, minlength=k)
    _require(counts.tolist() == [ipc] * k, f"distilled.dstl: per-class counts {counts.tolist()}")
    _require(bool(np.isfinite(images).all()), "distilled.dstl: non-finite pixels")
    _require(bool(((images >= 0.0) & (images <= 1.0)).all()), "distilled.dstl: pixels outside [0, 1]")

    report = json.loads((run_dir / "reports" / "distill_report.json").read_text())
    slots = report["slots"]
    _require(len(slots) == k * ipc, f"distill_report.json: {len(slots)} slots, expected {k * ipc}")
    tally = {s: sum(r["status"] == s for r in slots) for s in ("normal", "refined", "fallback")}
    c = report["counts"]
    _require(
        sum(tally.values()) == len(slots) and all(c[s] == n for s, n in tally.items()),
        f"distill_report.json: slot statuses {tally} disagree with counts {c}",
    )
    _require(sum(c[s] for s in tally) == c["total"] == len(slots), f"distill_report.json: counts {c} do not sum to the slot count")

    _, arrays = read_mdlc(run_dir / "models" / "detector.mdlc")
    pred, conf = mlp_max_softmax(arrays, images)
    for i, slot in enumerate(slots):
        _require(int(labels[i]) == slot["class"], f"slot {i}: image label {labels[i]} but slot class {slot['class']}")
        if slot["status"] in ("normal", "refined"):
            _require(
                int(pred[i]) == slot["class"] and conf[i] > beta - BETA_ROUNDING,
                f"slot {i} ({slot['status']}): detector gives label {pred[i]} at confidence {conf[i]:.6f}, "
                f"needs label {slot['class']} above beta {beta}",
            )
            _require(
                abs(conf[i] - slot["confidence"]) < 1e-6,
                f"slot {i}: recomputed confidence {conf[i]:.9f} differs from reported {slot['confidence']:.9f}",
            )

    ev = json.loads((run_dir / "reports" / "eval.json").read_text())
    n_test = k * data["test_per_class"]
    _require(ev["test_samples"] == n_test, f"eval.json: {ev['test_samples']} test images, expected {n_test}")
    _require(ev["distilled_samples"] == k * ipc, f"eval.json: {ev['distilled_samples']} distilled images")
    _require(ev["accuracy"] >= 2.0 / k, f"eval.json: accuracy {ev['accuracy']} is not well above chance {1.0 / k}")
    check_manifests(run_dir, COLD_INPUTS)
    return sha256_file(ds_path)


def _fallbacks(records: list[dict], seed: int) -> dict[str, int]:
    return {r["mode"]: r["fallback_count"] for r in records if r["seed"] == seed}


def check_ablation(run_dir: Path, cfg: dict) -> list[dict]:
    """Check an ``ablate --sweep`` run; return its records without timing fields."""
    run_dir = Path(run_dir)
    ev, dist = cfg["eval"], cfg["distill"]
    modes, seeds, ks, betas = ev["modes"], ev["seeds"], ev["sensitivity_top_k"], ev["sensitivity_betas"]
    check_datasets(run_dir, cfg["data"])

    payload = json.loads((run_dir / "reports" / "ablation.json").read_text())
    records = payload["records"]
    want = len(modes) * len(seeds) + len(seeds)
    _require(len(records) == want, f"ablation.json: {len(records)} records, expected {want}")
    _require(
        sorted((r["mode"], r["seed"]) for r in records)
        == sorted([(m, s) for m in modes for s in seeds] + [("random", s) for s in seeds]),
        "ablation.json: records do not cover every (mode, seed) plus the random baseline",
    )
    for r in records:
        _require(0.0 <= r["accuracy"] <= 1.0, f"ablation.json: accuracy {r['accuracy']} outside [0, 1]")
    for s in seeds:
        fb = _fallbacks(records, s)
        _require(
            fb["tplus_s"] <= fb["top1"] <= fb["base"] and fb["sim"] <= fb["base"],
            f"seed {s}: fallback counts {fb} break tplus_s <= top1 <= base, sim <= base",
        )

    lines = (run_dir / "reports" / "sensitivity.csv").read_text().splitlines()
    _require(lines[0] == "top_k,beta,seed,accuracy,fallback_count,refined_count", "sensitivity.csv: unexpected header")
    grid = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    _require(len(grid) == len(ks) * len(betas), f"sensitivity.csv: {len(grid)} rows, expected {len(ks) * len(betas)}")
    seed = seeds[0]
    flagged: dict[float, set[int]] = {}
    cells = {}
    for row in grid:
        k, beta, acc = int(row["top_k"]), float(row["beta"]), float(row["accuracy"])
        _require(int(row["seed"]) == seed, f"sensitivity.csv: row for seed {row['seed']}, expected {seed}")
        _require(0.0 <= acc <= 1.0, f"sensitivity.csv: accuracy {acc} outside [0, 1]")
        flagged.setdefault(beta, set()).add(int(row["refined_count"]) + int(row["fallback_count"]))
        cells[(k, beta)] = (acc, int(row["fallback_count"]))
    _require(sorted(cells) == sorted((k, b) for k in ks for b in betas), "sensitivity.csv: grid cells missing")
    for beta, values in flagged.items():
        _require(len(values) == 1, f"sensitivity.csv: flagged count varies with k at beta {beta}: {sorted(values)}")
    ordered = [flagged[b].pop() for b in sorted(flagged)]
    _require(ordered == sorted(ordered), f"sensitivity.csv: flagged counts {ordered} decrease as beta rises")
    fb = _fallbacks(records, seed)
    default_flagged = ordered[sorted(flagged).index(dist["beta"])]
    _require(
        default_flagged == fb["base"],
        f"flagged at default beta {dist['beta']} is {default_flagged}, base fallback is {fb['base']}",
    )
    tplus = next(r for r in records if r["mode"] == "tplus_s" and r["seed"] == seed)
    acc, fallback = cells[(dist["top_k"], dist["beta"])]
    _require(
        f"{tplus['accuracy']:.6f}" == f"{acc:.6f}" and fallback == tplus["fallback_count"],
        f"grid cell (k={dist['top_k']}, beta={dist['beta']}) = ({acc}, {fallback}) but tplus_s record = "
        f"({tplus['accuracy']}, {tplus['fallback_count']})",
    )
    check_manifests(run_dir, ABLATION_INPUTS)
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

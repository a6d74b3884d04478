"""Latent-space K-means and per-class prototype extraction.

Each class is partitioned into as many clusters as the images-per-class
budget; the cluster centroids become the prototypes that condition
generation. Everything is deterministic given the rng: k-means++ seeding,
lowest-index tie-breaks, fixed restart count, and farthest-point adoption
for empty clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FormatError, LabeledDataset, names_path
from .models import _is_size, read_checkpoint, write_checkpoint
from .numerics import SeededRng, require_finite

__all__ = [
    "KmeansResult",
    "Prototype",
    "extract_prototypes",
    "kmeans",
    "read_prototypes",
    "write_prototypes",
]


@dataclass(frozen=True)
class Prototype:
    """One cluster centroid in latent space, tagged with its class."""

    class_id: int
    latent: np.ndarray
    cluster_size: int
    cluster_index: int


@dataclass(frozen=True)
class KmeansResult:
    centroids: np.ndarray  # (C, d) float32
    assignments: np.ndarray  # (N,) int64, nearest-centroid with low-index ties
    inertia: float
    inertia_history: tuple[float, ...]  # per assignment phase of the winning run


# Lloyd iterations a k-means run makes at most; each run stops sooner once no assignment changes
_MAX_ITERS = 100


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(N, C) squared distances as ||x||^2 - 2 x.c^T + ||c||^2 in float64.

    The cross terms are one matrix product; a distance that rounding leaves
    below 0 is clamped to 0. Every distance in k-means comes from here.
    """
    d2 = np.einsum("nd,nd->n", points, points)[:, None] - 2.0 * (points @ centroids.T)
    return np.maximum(d2 + np.einsum("cd,cd->c", centroids, centroids), 0.0)


def _kmeanspp_init(points: np.ndarray, c: int, rng: SeededRng) -> np.ndarray:
    n = len(points)
    centroids = np.empty((c, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, c):
        d2 = np.minimum(d2, _sq_dists(points, centroids[j - 1 : j])[:, 0])
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
            continue
        u = float(rng.uniform(1)[0]) * total
        idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
        centroids[j] = points[min(idx, n - 1)]
    return centroids


def _lloyd(points: np.ndarray, c: int, rng: SeededRng):
    n = len(points)
    centroids = _kmeanspp_init(points, c, rng)
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(_MAX_ITERS):
        d2 = _sq_dists(points, centroids)
        new_assign = d2.argmin(axis=1)
        # adopt the globally farthest point into each empty cluster
        for _repair in range(c):
            counts = np.bincount(new_assign, minlength=c)
            empties = np.nonzero(counts == 0)[0]
            if len(empties) == 0:
                break
            j = int(empties[0])
            far = int(np.argmax(d2[np.arange(n), new_assign]))
            new_assign[far] = j
            centroids[j] = points[far]
            d2[:, j] = _sq_dists(points, centroids[j : j + 1])[:, 0]
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        _update_centroids(points, assign, centroids)
    return centroids, history


def _update_centroids(points: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> None:
    """Set each centroid to the mean of its points, bit for bit ``points[assign == j].mean(axis=0)``.

    One stable sort groups each cluster's rows in index order, so each
    cluster's sum adds the same rows in the same order as that mean does,
    and one division by the counts follows.
    """
    counts = np.bincount(assign, minlength=len(centroids))
    grouped = points[np.argsort(assign, kind="stable")]
    start = 0
    for j, end in enumerate(np.cumsum(counts)):
        np.add.reduce(grouped[start:end], axis=0, out=centroids[j])
        start = end
    centroids /= counts[:, None]


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    *,
    restarts: int,
    rng: SeededRng,
) -> KmeansResult:
    """Best-of-``restarts`` Lloyd iterations with k-means++ seeding.

    Every distance is ``_sq_dists``' GEMM form, clamped at 0: the seeding
    takes a running minimum over each newly chosen centroid's column, each
    Lloyd step one (N, C) block, and the empty-cluster repair the column of
    the centroid that adopts a point. Each Lloyd step's new centroids are
    the per-cluster means, summed over one stable sort of the points by
    cluster (``_update_centroids``), bit for bit ``mean(axis=0)`` of each
    cluster's points. Ties in nearest-centroid assignment
    break to the lowest centroid index; ties in inertia across restarts
    keep the earliest run. The returned assignment is recomputed against
    the float32 centroids so the nearest-centroid invariant holds for the
    stored values. More clusters than distinct rows is a ValueError, as
    some cluster would then stay empty.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a non-empty (N, d) array")
    require_finite("points", points)
    n = len(points)
    if not 1 <= num_clusters <= n:
        raise ValueError(f"num_clusters={num_clusters} outside [1, {n}]")
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    distinct = len(np.unique(points, axis=0))
    if num_clusters > distinct:
        raise ValueError(f"num_clusters={num_clusters} exceeds the {distinct} distinct rows of points")
    best = None
    for r in range(restarts):
        run = _lloyd(points, num_clusters, rng.spawn(r))  # (centroids, inertia history)
        if best is None or run[1][-1] < best[1][-1]:
            best = run
    centroids, history = best
    cent32 = centroids.astype(np.float32)
    d2 = _sq_dists(points, cent32.astype(np.float64))
    assignments = d2.argmin(axis=1).astype(np.int64)
    inertia = float(d2[np.arange(n), assignments].sum())
    return KmeansResult(
        centroids=cent32,
        assignments=assignments,
        inertia=inertia,
        inertia_history=tuple(history),
    )


def extract_prototypes(
    encode_fn,
    dataset: LabeledDataset,
    ipc: int,
    rng: SeededRng,
    *,
    restarts: int,
    classes=None,
) -> list[Prototype]:
    """Per-class K-means over encoded latents; one prototype per cluster.

    Class ``c`` clusters with ``rng.spawn(c)``, so its prototypes do not
    depend on the other classes: ``classes`` (default: every class, in
    ascending order) picks the ones to extract. Output ordering is (class
    order, cluster_index ascending), ipc prototypes per class.
    """
    if ipc < 1:
        raise ValueError("ipc must be >= 1")
    protos: list[Prototype] = []
    for c in range(dataset.num_classes) if classes is None else classes:
        idx = dataset.class_indices(c)
        if len(idx) < ipc:
            raise ValueError(
                f"class {c} has {len(idx)} samples, fewer than ipc={ipc}"
            )
        latents = np.asarray(encode_fn(dataset.images[idx]), dtype=np.float32)
        result = kmeans(latents, ipc, restarts=restarts, rng=rng.spawn(c))
        counts = np.bincount(result.assignments, minlength=ipc)
        for j in range(ipc):
            protos.append(
                Prototype(
                    class_id=c,
                    latent=result.centroids[j],
                    cluster_size=int(counts[j]),
                    cluster_index=j,
                )
            )
    return protos


# --- persistence --------------------------------------------------------------
#
# A checkpoint container (see models.write_checkpoint) of kind "prototypes":
# the descriptor holds the (class_id, cluster_index, cluster_size) table, and
# a reader ignores any other key; the one array is the (count, latent_dim)
# float32 latents.


def write_prototypes(path, protos: list[Prototype]) -> str:
    if not protos:
        raise ValueError("prototype list is empty")
    desc = {"table": [[p.class_id, p.cluster_index, p.cluster_size] for p in protos]}
    return write_checkpoint(path, "prototypes", desc, [np.stack([p.latent for p in protos])])


@names_path
def read_prototypes(path) -> list[Prototype]:
    """Load a prototype file; a short, overlong, foreign or non-finite file raises FormatError."""
    desc, arrays = read_checkpoint(path, "prototypes")
    if len(arrays) != 1 or arrays[0].ndim != 2:
        raise FormatError(f"expected one (count, latent_dim) array, got shapes {[a.shape for a in arrays]}")
    table = desc.get("table")
    if not isinstance(table, list) or len(table) != len(arrays[0]):
        raise FormatError("prototype table does not match the latents")
    for i, row in enumerate(table):
        if not (isinstance(row, list) and len(row) == 3 and all(_is_size(v, 0) for v in row)):
            raise FormatError(f"prototype table row {i} is not three non-negative integers")
    return [
        Prototype(class_id=cid, latent=arrays[0][i], cluster_size=size, cluster_index=ci)
        for i, (cid, ci, size) in enumerate(table)
    ]

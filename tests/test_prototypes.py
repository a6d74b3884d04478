import itertools
import re

import numpy as np
import pytest

from distillab.config import DistillConfig
from distillab.data import LabeledDataset, grating_image
from distillab.models import CheckpointFormatError, write_checkpoint
from distillab.numerics import SeededRng
from distillab.prototypes import (
    Prototype,
    extract_prototypes,
    kmeans,
    read_prototypes,
    write_prototypes,
)

RESTARTS = DistillConfig().kmeans_restarts  # what distill passes by default


def exhaustive_kmeans_optimum(points: np.ndarray, c: int) -> float:
    """Global optimum of the k-means objective by enumerating assignments."""
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(c), repeat=n):
        if len(set(assign)) != c:
            continue
        assign = np.asarray(assign)
        inertia = 0.0
        for j in range(c):
            members = points[assign == j]
            centroid = members.mean(axis=0)
            inertia += ((members - centroid) ** 2).sum()
        best = min(best, inertia)
    return float(best)


class TestKmeans:
    def test_two_gaps_1d(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = kmeans(pts, 2, restarts=5, rng=SeededRng(1))
        cents = sorted(res.centroids.ravel().tolist())
        assert cents == pytest.approx([0.5, 10.5], abs=1e-6)
        assert res.inertia == pytest.approx(1.0, abs=1e-6)
        # brute force confirms 1.0 is optimal
        assert exhaustive_kmeans_optimum(pts, 2) == pytest.approx(1.0, abs=1e-12)

    def test_c_equals_n(self):
        pts = SeededRng(2).normal((5, 3)).astype(np.float64)
        res = kmeans(pts, 5, restarts=RESTARTS, rng=SeededRng(3))
        assert res.inertia == pytest.approx(0.0, abs=1e-10)
        assert sorted(res.assignments.tolist()) == list(range(5))

    def test_identical_points_repair(self):
        pts = np.ones((4, 2))
        res = kmeans(pts, 2, restarts=RESTARTS, rng=SeededRng(4))
        assert res.inertia == 0.0
        # repair adopted a point, so both centroids equal the shared point;
        # the final lowest-index tie rule then assigns everything to cluster 0
        assert np.allclose(res.centroids, 1.0)
        assert res.centroids.shape == (2, 2)
        assert np.all(res.assignments == 0)

    def test_invalid_cluster_count(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 4, restarts=RESTARTS, rng=SeededRng(1))
        with pytest.raises(ValueError):
            kmeans(pts, 0, restarts=RESTARTS, rng=SeededRng(1))

    def test_nearest_assignment_invariant(self):
        rng = SeededRng(6)
        pts = rng.normal((40, 4)).astype(np.float64)
        res = kmeans(pts, 5, restarts=RESTARTS, rng=SeededRng(7))
        d = ((pts[:, None, :] - res.centroids[None].astype(np.float64)) ** 2).sum(-1)
        assert np.array_equal(res.assignments, d.argmin(axis=1))
        recomputed = d[np.arange(len(pts)), res.assignments].sum()
        assert abs(res.inertia - recomputed) / max(recomputed, 1e-12) < 1e-5

    def test_deterministic(self):
        pts = SeededRng(8).normal((30, 2)).astype(np.float64)
        r1 = kmeans(pts, 4, restarts=RESTARTS, rng=SeededRng(9))
        r2 = kmeans(pts, 4, restarts=RESTARTS, rng=SeededRng(9))
        assert np.array_equal(r1.centroids, r2.centroids)
        assert np.array_equal(r1.assignments, r2.assignments)

    def test_monotone_inertia_random_instances(self):
        rng = SeededRng(10)
        for trial in range(100):
            n = 6 + rng.integers(30)
            d = 1 + rng.integers(3)
            c = 1 + rng.integers(min(5, n))
            pts = rng.normal((n, d)).astype(np.float64) * (1 + rng.integers(4))
            res = kmeans(pts, c, restarts=2, rng=SeededRng(100 + trial))
            hist = np.asarray(res.inertia_history)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_tiny_instance_global_optimality(self):
        rng = SeededRng(11)
        for trial in range(12):
            n = 4 + rng.integers(5)  # 4..8 points
            d = 1 + rng.integers(2)  # 1..2 dims
            c = 2 + rng.integers(2)  # 2..3 clusters
            pts = rng.normal((n, d)).astype(np.float64)
            res = kmeans(pts, c, restarts=20, rng=SeededRng(500 + trial))
            opt = exhaustive_kmeans_optimum(pts, c)
            assert res.inertia <= opt + 1e-6


class TestExtractPrototypes:
    def _dataset(self, per_class=30, k=3, shape=(1, 6, 6), seed=12):
        rng = SeededRng(seed)
        n = per_class * k
        images = rng.uniform(n * np.prod(shape)).reshape(n, *shape).astype(np.float32)
        labels = np.repeat(np.arange(k), per_class)
        return LabeledDataset(images, labels, k, tuple(f"c{i}" for i in range(k)))

    @staticmethod
    def _flatten(imgs):
        return imgs.reshape(len(imgs), -1)

    def test_count_and_ordering(self):
        ds = self._dataset()
        protos = extract_prototypes(self._flatten, ds, 10, SeededRng(13), restarts=2)
        assert len(protos) == 30
        keys = [(p.class_id, p.cluster_index) for p in protos]
        assert keys == sorted(keys)
        assert all(p.cluster_size >= 1 for p in protos)

    def test_ipc_one_is_class_mean(self):
        ds = self._dataset()
        protos = extract_prototypes(self._flatten, ds, 1, SeededRng(14), restarts=10)
        for p in protos:
            members = ds.images[ds.class_indices(p.class_id)].reshape(-1, 36)
            assert np.allclose(p.latent, members.mean(axis=0), atol=1e-5)
            assert p.cluster_size == 30

    def test_insufficient_class_rejected(self):
        ds = self._dataset(per_class=4)
        with pytest.raises(ValueError, match="class 0"):
            extract_prototypes(self._flatten, ds, 5, SeededRng(15), restarts=10)

    def test_bimodal_class_separated(self):
        # one class whose phases concentrate at 0 and pi: ipc=2 must split it
        shape = (1, 8, 8)
        rng = SeededRng(16)
        images, groups = [], []
        for i in range(60):
            group = i % 2
            phase = (0.0 if group == 0 else np.pi) + 0.2 * (float(rng.uniform(1)[0]) - 0.5)
            images.append(grating_image(shape, 30.0, 3.0, phase, 0.9))
            groups.append(group)
        ds = LabeledDataset(np.stack(images), np.zeros(60, dtype=np.int64), 1, ("bimodal",))
        protos = extract_prototypes(self._flatten, ds, 2, SeededRng(17), restarts=5)
        assert len(protos) == 2
        # purity: assignments must track the generating phase groups
        from distillab.prototypes import kmeans as km

        res = km(ds.images.reshape(60, -1), 2, restarts=5, rng=SeededRng(17).spawn(0))
        groups = np.asarray(groups)
        agree = (res.assignments == groups).mean()
        purity = max(agree, 1 - agree)
        assert purity >= 0.9

    def test_prototype_count_rule(self):
        ds = self._dataset(per_class=12, k=5)
        protos = extract_prototypes(self._flatten, ds, 10, SeededRng(18), restarts=2)
        assert len(protos) == 50


class TestPrototypeIO:
    def test_round_trip(self, tmp_path):
        rng = SeededRng(19)
        protos = [
            Prototype(class_id=c, latent=rng.normal(7), cluster_size=3 + c, cluster_index=j)
            for c in range(2)
            for j in range(3)
        ]
        p = tmp_path / "p.prto"
        write_prototypes(p, protos, provenance={"seed": 1})
        back, prov = read_prototypes(p)
        assert prov == {"seed": 1}
        assert len(back) == len(protos)
        for a, b in zip(protos, back):
            assert (a.class_id, a.cluster_index, a.cluster_size) == (
                b.class_id,
                b.cluster_index,
                b.cluster_size,
            )
            assert np.array_equal(a.latent, b.latent)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.prto"
        p.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError, match="magic"):
            read_prototypes(p)

    @pytest.mark.parametrize("table", [[[0, 1]], [5], ["abc"], [[0, 1, -3]], [[0.5, 1, 2]], [[True, 1, 2]]])
    def test_malformed_table_row_is_a_format_error(self, tmp_path, table):
        """Each table row is three non-negative ints: a class, a cluster index and a cluster size."""
        p = tmp_path / "p.prto"
        write_checkpoint(p, "prototypes", {"table": table, "provenance": {}}, [np.zeros((1, 4), dtype=np.float32)])
        with pytest.raises(CheckpointFormatError, match=re.escape(f"{p}: prototype table row")):
            read_prototypes(p)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_prototypes(tmp_path / "x.prto", [])

    def test_truncated_file_is_a_format_error(self, tmp_path):
        # every offset through the end of the header (magic, version,
        # descriptor with the table and provenance, shape table of the one
        # latent array) and a few inside the latent blob
        rng = SeededRng(20)
        protos = [
            Prototype(class_id=c, latent=rng.normal(5), cluster_size=2, cluster_index=0)
            for c in range(3)
        ]
        p = tmp_path / "p.prto"
        write_prototypes(p, protos, provenance={"seed": 3, "note": "truncation"})
        raw = p.read_bytes()
        dlen = int.from_bytes(raw[6:10], "little")
        header_end = 10 + dlen + 4 + 4 + 4 * 2
        assert len(raw) - header_end == 4 * 3 * 5
        cuts = [*range(header_end + 1), header_end + 1, header_end + 30, len(raw) - 1]
        cut_path = tmp_path / "cut.prto"
        for cut in cuts:
            cut_path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointFormatError):
                read_prototypes(cut_path)
        assert len(read_prototypes(p)[0]) == 3

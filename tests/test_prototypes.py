import itertools
import re

import numpy as np
import pytest

from distillab.config import DistillConfig, parse_config
from distillab.data import FormatError, LabeledDataset, grating_image, synthesize_toy_dataset
from distillab.models import train_autoencoder, write_checkpoint
from distillab.numerics import SeededRng
from distillab.prototypes import (
    Prototype,
    _kmeanspp_init,
    _sq_dists,
    _update_centroids,
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
        with pytest.raises(ValueError, match="restarts"):
            kmeans(np.zeros((4, 2)), 2, restarts=0, rng=SeededRng(1))

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


@pytest.mark.parametrize("n, c, d", [(1, 1, 1), (5, 5, 3), (40, 1, 7), (200, 6, 16), (97, 10, 1), (300, 4, 64)])
def test_centroid_update_is_the_per_cluster_mean(n, c, d):
    """Each centroid is bit for bit ``points[assign == j].mean(axis=0)``, singleton clusters and c = 1 included."""
    rng = SeededRng(n * 1000 + c)
    points = rng.normal((n, d)) * 10.0 + 3.0
    assign = np.concatenate([np.arange(c), rng.integers(c, n=n - c)])
    centroids = rng.normal((c, d))
    _update_centroids(points, assign, centroids)
    want = np.stack([points[assign == j].mean(axis=0) for j in range(c)])
    assert centroids.tobytes() == want.tobytes()


def diff_sq_dists(points, centroids):
    """The difference-tensor form: an (N, C, d) tensor of differences, squared and summed."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ncd,ncd->nc", diff, diff)


def block_seeding(points, c, rng, sq_dists):
    """k-means++ seeding that takes, at each step, the minimum over a block
    of distances to all centroids chosen so far."""
    n = len(points)
    cents = np.empty((c, points.shape[1]))
    cents[0] = points[rng.integers(n)]
    for j in range(1, c):
        d2 = sq_dists(points, cents[:j]).min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            cents[j] = points[rng.integers(n)]
            continue
        u = float(rng.uniform(1)[0]) * total
        cents[j] = points[min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)]
    return cents


def reference_kmeans(points, c, restarts, rng, max_iters=100):
    """k-means with the difference-tensor distance throughout: block
    seeding, Lloyd steps, an empty-cluster repair with its own formula and
    the final assignment."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)

    def lloyd(r):
        cents = block_seeding(points, c, r, diff_sq_dists)
        assign = np.full(n, -1)
        history = []
        for _ in range(max_iters):
            d2 = diff_sq_dists(points, cents)
            new = d2.argmin(axis=1)
            for _repair in range(c):
                empties = np.nonzero(np.bincount(new, minlength=c) == 0)[0]
                if len(empties) == 0:
                    break
                j = int(empties[0])
                far = int(np.argmax(d2[np.arange(n), new]))
                new[far] = j
                cents[j] = points[far]
                d2[:, j] = ((points - cents[j]) ** 2).sum(axis=1)
            history.append(float(d2[np.arange(n), new].sum()))
            if np.array_equal(new, assign):
                break
            assign = new
            for j in range(c):
                cents[j] = points[assign == j].mean(axis=0)
        return cents, history

    best = None
    for r in range(restarts):
        run = lloyd(rng.spawn(r))
        if best is None or run[1][-1] < best[1][-1]:
            best = run
    cent32 = best[0].astype(np.float32)
    return cent32, diff_sq_dists(points, cent32.astype(np.float64)).argmin(axis=1)


def _distance_cases():
    """Seeded (points, centroids) pairs: near and far from the origin, with
    repeated points and with identical centroids."""
    rng = SeededRng(40)
    for offset in (0.0, 10.0, 1000.0):
        points = rng.normal((200, 16)).astype(np.float64) + offset
        yield points, points[rng.integers(200, 6)]
        repeated = np.repeat(points[:20], 10, axis=0)
        yield repeated, repeated[[0, 0, 3, 3, 3]]
        yield points, np.repeat(points[:1], 4, axis=0) + rng.normal(16)


class TestSqDists:
    """``_sq_dists`` is the GEMM form of the difference-tensor distance."""

    @staticmethod
    def _scale(points, centroids):
        # the size of the terms the GEMM form adds and subtracts, which bounds its rounding
        return (points**2).sum(axis=1)[:, None] + (centroids**2).sum(axis=1)

    def test_close_to_difference_form_and_non_negative(self):
        for points, centroids in _distance_cases():
            got, want = _sq_dists(points, centroids), diff_sq_dists(points, centroids)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.all(got >= 0.0)
            assert np.all(np.abs(got - want) <= 1e-9 * self._scale(points, centroids))

    def test_same_argmin_where_the_nearest_is_clear(self):
        """Each row's argmin is the reference's wherever its nearest and
        second-nearest distances differ by more than 1e-9 (of the term scale)."""
        clear_rows = 0
        for points, centroids in _distance_cases():
            want = diff_sq_dists(points, centroids)
            two = np.sort(want, axis=1)[:, :2]
            clear = two[:, 1] - two[:, 0] > 1e-9 * self._scale(points, centroids).max(axis=1)
            got = _sq_dists(points, centroids).argmin(axis=1)
            assert np.array_equal(got[clear], want.argmin(axis=1)[clear])
            clear_rows += int(clear.sum())
        assert clear_rows >= 500

    def test_identical_centroids_tie_to_the_lowest_index(self):
        """An identical centroid gives an identical column wherever it sits
        in the product, so a row's argmin keeps the lower index."""
        rng = SeededRng(41)
        for c, d in ((4, 4), (10, 32), (13, 8)):
            points = rng.normal((60, d)).astype(np.float64)
            centroids = rng.normal((c, d)).astype(np.float64)
            centroids[c - 1] = centroids[1]
            d2 = _sq_dists(points, centroids)
            assert np.array_equal(d2[:, c - 1], d2[:, 1])
            nearest = d2.argmin(axis=1)
            assert np.any(nearest == 1) and not np.any(nearest == c - 1)

    def test_seeding_running_minimum_is_the_block_minimum(self):
        """The seeding's running minimum over the newest centroid's column
        equals the minimum over the block of all chosen centroids, and gives
        the same draws as a seeding that takes the block minimum."""
        for points, _ in _distance_cases():
            for c in (1, 4, 9):
                cents = _kmeanspp_init(points, c, SeededRng(42))
                running = np.full(len(points), np.inf)
                for j in range(1, c + 1):
                    running = np.minimum(running, _sq_dists(points, cents[j - 1 : j])[:, 0])
                    block = _sq_dists(points, cents[:j]).min(axis=1)
                    assert np.all(np.abs(running - block) <= 1e-9 * self._scale(points, cents[:j]).max(axis=1))
                assert np.array_equal(cents, block_seeding(points, c, SeededRng(42), _sq_dists))

    def test_kmeans_matches_the_difference_form_bit_for_bit(self, train_latents, toy_train):
        """On the train latents of every class, at TINY_CONFIG (through the
        CLI's data and codec streams) and at the default config, ``kmeans``
        returns the reference's centroids and assignments bit for bit."""
        from test_cli import TINY_CONFIG

        cfg = parse_config(TINY_CONFIG)
        train, _ = synthesize_toy_dataset(cfg.data, SeededRng(cfg.master_seed))
        codec = train_autoencoder(train, cfg.autoencoder, SeededRng(cfg.master_seed).spawn(32))
        tiny = (train.labels, codec.encode(train.images), cfg.distill)
        for labels, latents, dcfg in (tiny, (toy_train.labels, train_latents, DistillConfig())):
            for c in range(labels.max() + 1):
                points = np.asarray(latents[labels == c], dtype=np.float64)
                got = kmeans(points, dcfg.ipc, restarts=dcfg.kmeans_restarts, rng=SeededRng(43).spawn(c))
                cents, assign = reference_kmeans(points, dcfg.ipc, dcfg.kmeans_restarts, SeededRng(43).spawn(c))
                assert np.array_equal(got.centroids, cents) and got.centroids.dtype == cents.dtype
                assert np.array_equal(got.assignments, assign)


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
        with pytest.raises(FormatError, match="magic"):
            read_prototypes(p)

    @pytest.mark.parametrize("table", [[[0, 1]], [5], ["abc"], [[0, 1, -3]], [[0.5, 1, 2]], [[True, 1, 2]]])
    def test_malformed_table_row_is_a_format_error(self, tmp_path, table):
        """Each table row is three non-negative ints: a class, a cluster index and a cluster size."""
        p = tmp_path / "p.prto"
        write_checkpoint(p, "prototypes", {"table": table, "provenance": {}}, [np.zeros((1, 4), dtype=np.float32)])
        with pytest.raises(FormatError, match=re.escape(f"{p}: prototype table row")):
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
            with pytest.raises(FormatError):
                read_prototypes(cut_path)
        assert len(read_prototypes(p)[0]) == 3

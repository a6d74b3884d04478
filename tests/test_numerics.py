import errno
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from distillab.numerics import (
    NonFiniteError,
    SeededRng,
    all_finite,
    cosine_similarity,
    fan_out,
    max_softmax,
    normal_from_words,
    require_finite,
    softmax,
    uniform_from_words,
    uniform_oc_from_words,
)

from conftest import assert_no_children, peak_bytes


class TestSoftmax:
    def test_uniform_logits(self):
        p = softmax([0.0, 0.0, 0.0])
        assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_two_zero_zero(self):
        # e^2 / (e^2 + 2), evaluated directly
        expected = math.exp(2.0) / (math.exp(2.0) + 2.0)
        p = softmax([2.0, 0.0, 0.0])
        assert p[0] == pytest.approx(expected, abs=1e-12)
        assert p[0] == pytest.approx(0.78699, abs=5e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax([1.0, float("nan")])

    def test_sum_and_shift_invariance_random(self):
        rng = SeededRng(101)
        for trial in range(200):
            n = 1 + rng.integers(12)
            x = rng.normal(n).astype(np.float64) * 5.0
            p = softmax(x)
            assert abs(p.sum() - 1.0) < 1e-6
            assert np.all(p > 0.0) and np.all(p <= 1.0)
            c = float(rng.normal(1)[0]) * 10.0
            assert np.allclose(softmax(x + c), p, atol=1e-9)

    def test_large_logits_stable(self):
        p = softmax([1000.0, 1000.0, 0.0])
        assert abs(p.sum() - 1.0) < 1e-6
        assert p[0] == pytest.approx(0.5, abs=1e-9)


class TestMaxSoftmax:
    def test_equals_per_row_softmax_exactly(self):
        rng = SeededRng(303)
        for k, scale in ((1, 1.0), (2, 3.0), (5, 10.0), (10, 40.0), (17, 200.0)):
            logits = rng.normal((4000, k)).astype(np.float64) * scale
            want = np.array([softmax(row).max() for row in logits])
            assert np.array_equal(max_softmax(logits), want)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            max_softmax(np.zeros((3, 0)))
        with pytest.raises(NonFiniteError):
            max_softmax(np.array([[1.0, float("inf")]]))


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_45_degrees(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_zero_norm_is_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([], [])

    def test_positive_scale_invariance_random(self):
        rng = SeededRng(7)
        for trial in range(200):
            n = 1 + rng.integers(16)
            u = rng.normal(n).astype(np.float64)
            v = rng.normal(n).astype(np.float64)
            a = 0.01 + float(rng.uniform(1)[0]) * 100.0
            b = 0.01 + float(rng.uniform(1)[0]) * 100.0
            s = cosine_similarity(u, v)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
            assert cosine_similarity(a * u, b * v) == pytest.approx(s, abs=1e-9)
            assert cosine_similarity(v, u) == pytest.approx(s, abs=1e-12)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(1234).normal((3, 4))
        b = SeededRng(1234).normal((3, 4))
        assert a.dtype == np.float32
        assert np.array_equal(a, b)

    def test_known_stream_frozen(self):
        # Pin the raw SplitMix64 stream so accidental algorithm changes fail loudly.
        raw = SeededRng(0).raw_u64(3)
        expected = [
            int(_ref_splitmix(1)),
            int(_ref_splitmix(2)),
            int(_ref_splitmix(3)),
        ]
        assert raw.tolist() == expected
        # and a block away from seed 0 and counter 0
        r = SeededRng(2**63 + 12345)
        r.uniform(1000)
        assert r.raw_u64(257).tolist() == [_ref_splitmix(1001 + i, r.seed) for i in range(257)]

    @pytest.mark.parametrize("shape", [(2,), (64,), (5, 34), (3, 4, 258)])
    def test_normal_from_words_equals_float64_formula(self, shape):
        """The halves written into one float32 array are the float64 products
        r * cos and r * sin rounded once, as a float64 concatenate then cast."""
        words = SeededRng(17).raw_u64(math.prod(shape)).reshape(shape)
        pairs = shape[-1] // 2
        r = np.sqrt(-2.0 * np.log(uniform_oc_from_words(words[..., :pairs])))
        ang = 2.0 * np.pi * uniform_from_words(words[..., pairs:])
        want = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=-1).astype(np.float32)
        got = normal_from_words(words)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_gaussian_shape(self):
        t = SeededRng(5).normal((2, 3))
        assert t.shape == (2, 3) and t.size == 6

    def test_gaussian_moments(self):
        z = SeededRng(99).normal(100_000).astype(np.float64)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(SeededRng(1).normal(16), SeededRng(2).normal(16))

    def test_sequential_consumption_advances(self):
        r = SeededRng(77)
        first = r.normal(4)
        second = r.normal(4)
        assert not np.array_equal(first, second)

    def test_spawn_pure_and_keyed(self):
        r = SeededRng(3)
        c1 = r.spawn(1, 2)
        c2 = r.spawn(1, 2)
        c3 = r.spawn(1, 3)
        assert c1.seed == c2.seed
        assert c1.seed != c3.seed
        # spawning does not consume from the parent
        assert np.array_equal(r.normal(4), SeededRng(3).normal(4))

    def test_integers_range(self):
        r = SeededRng(11)
        vals = r.integers(7, n=1000)
        assert vals.min() >= 0 and vals.max() < 7
        assert set(np.unique(vals)) == set(range(7))
        for high in (0, -3):
            with pytest.raises(ValueError, match="high must be positive"):
                r.integers(high, n=2)

    def test_permutation_is_permutation(self):
        perm = SeededRng(13).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_uniform_range(self):
        u = SeededRng(21).uniform(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_require_finite(self):
        require_finite("x", np.ones(3))
        with pytest.raises(NonFiniteError):
            require_finite("x", np.array([1.0, np.inf]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_finite_equals_isfinite_all(self, dtype):
        """Every NaN and infinity is found, wherever it sits, also in a strided view."""
        base = SeededRng(3).normal((7, 33)).astype(dtype)
        assert all_finite(base) and all_finite(base[:, ::3]) and all_finite(base[:0])
        assert all_finite(np.arange(5)) and all_finite(np.float64(2.0))
        for bad in (np.nan, np.inf, -np.inf):
            for where in ((0, 0), (3, 17), (6, 32)):
                a = base.copy()
                a[where] = bad
                assert not all_finite(a)
                assert all_finite(a[:, ::2]) == bool(np.isfinite(a[:, ::2]).all())
        assert not all_finite(np.array([np.inf, -np.inf])) and not all_finite(np.float32(np.nan))

    def test_all_finite_makes_no_array_of_its_input_size(self):
        x = SeededRng(4).normal(1 << 18)
        ok, peak = peak_bytes(all_finite, x)
        assert ok and peak < 4096, peak


def _ref_splitmix(counter: int, seed: int = 0) -> int:
    """Independent scalar SplitMix64 reference (python ints, mod 2^64)."""
    mask = (1 << 64) - 1
    x = (seed + counter * 0x9E3779B97F4A7C15) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


def _fisher_yates_loop(rng, n):
    """Reference permutation: one scalar modulo and one swap per step."""
    perm = np.arange(n, dtype=np.int64)
    if n > 1:
        draws = rng.raw_u64(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestBlockDraws:
    """Block draws equal the per-call draws they replace, word for word."""

    @pytest.mark.parametrize("d", [1, 2, 31, 32, 33, 256])
    @pytest.mark.parametrize("n", [1, 5, 140])
    def test_normal_rows_equals_stacked_normal(self, n, d):
        """``normal_from_words`` over an (n, words of ``normal(d)``) block, as
        ``train_denoiser`` converts an epoch's batches, gives n stacked
        ``normal(d)`` draws: each row of words converts as one draw."""
        block, loop = SeededRng(8080 + d), SeededRng(8080 + d)
        block.uniform(3)  # start away from counter 0
        loop.uniform(3)
        pairs = (d + 1) // 2
        rows = normal_from_words(block.raw_u64(n * 2 * pairs).reshape(n, 2 * pairs))[:, :d]
        want = np.stack([loop.normal(d) for _ in range(n)])
        assert rows.dtype == np.float32 and rows.shape == (n, d)
        assert rows.tobytes() == want.tobytes()
        assert block._counter == loop._counter

    def test_normal_rows_empty(self):
        """An empty block of rows, or rows of no words, converts to an empty array."""
        rng = SeededRng(1)
        assert normal_from_words(rng.raw_u64(0).reshape(0, 4)).shape == (0, 4)
        assert normal_from_words(rng.raw_u64(0).reshape(3, 0)).shape == (3, 0)
        assert rng._counter == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2500])
    def test_permutation_equals_fisher_yates_loop(self, n):
        for seed in range(20):
            fast, loop = SeededRng(seed), SeededRng(seed)
            got = fast.permutation(n)
            want = _fisher_yates_loop(loop, n)
            assert got.dtype == np.int64
            assert got.tobytes() == want.tobytes()
            assert fast._counter == loop._counter == max(n - 1, 0)


class _TwoArgError(Exception):
    """Pickles by its args, which do not rebuild it: unpickling it raises TypeError."""

    def __init__(self, a, b):
        super().__init__(a)


def _each(fn):
    """A share function that applies ``fn`` to each item of its share."""
    return lambda share: [fn(x) for x in share]


class TestFanOut:
    def test_results_in_order_for_any_length(self, cores):
        cores(2)
        offset = 10  # a closure: fan_out hands fn to its workers through fork, not pickling
        for n in range(6):
            assert fan_out(_each(lambda x: x + offset), range(n)) == [x + offset for x in range(n)]
        assert_no_children()

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_core_gets_its_strided_share_in_one_call(self, cores, n):
        cores(n)
        out = fan_out(lambda share: [(os.getpid(), tuple(share))] * len(share), range(5))
        # item i's result came from the call that got the share items[i % n::n]
        assert [share for _, share in out] == [tuple(range(5))[i % n :: n] for i in range(5)]
        assert [pid == os.getpid() for pid, _ in out] == [i % n == 0 for i in range(5)]
        assert len({pid for pid, _ in out}) == n

    def test_a_share_must_give_one_result_per_item(self, cores):
        for n in (1, 2):
            cores(n)
            with pytest.raises(ValueError, match="a share of"):
                fan_out(lambda share: share[:1], range(4))
        assert_no_children()

    def test_parent_computes_the_first_strided_share(self, cores):
        cores(2)
        pids = fan_out(_each(lambda x: os.getpid()), range(5))
        assert pids[0::2] == [os.getpid()] * 3
        assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two usable cores")
    def test_each_share_runs_on_a_core_of_its_own(self):
        before = os.sched_getaffinity(0)
        usable = sorted(before)[:4]
        n = len(usable)
        assert fan_out(_each(lambda x: os.sched_getaffinity(0)), range(4)) == [{usable[i % n]} for i in range(4)]
        assert os.sched_getaffinity(0) == before

        def fails_in_the_parent(x):
            if os.getpid() == parent:
                raise NonFiniteError(f"item {x}")

        parent = os.getpid()
        with pytest.raises(NonFiniteError):
            fan_out(_each(fails_in_the_parent), range(2))
        assert os.sched_getaffinity(0) == before

    def test_one_core_is_a_plain_loop(self, cores):
        cores(1)
        assert fan_out(_each(lambda x: os.getpid()), range(3)) == [os.getpid()] * 3

    def test_worker_exception_keeps_its_type(self, cores):
        cores(2)

        def fails_on_one(x):
            if x == 1:
                raise NonFiniteError(f"item {x}")
            return x

        with pytest.raises(NonFiniteError, match="item 1"):
            fan_out(_each(fails_on_one), range(4))
        assert_no_children()

    def test_worker_that_exits_mid_reply_raises_broken_process_pool(self, cores):
        from concurrent.futures.process import BrokenProcessPool

        cores(2)
        parent = os.getpid()

        def exits_mid_reply(share):
            if os.getpid() != parent:
                real_write = os.write

                def write_half(fd, data):  # in the worker only: half its reply, then exit 0
                    real_write(fd, bytes(data[: len(data) // 2]))
                    os._exit(0)

                os.write = write_half
            return [np.zeros(1000)] * len(share)

        with pytest.raises(BrokenProcessPool):
            fan_out(exits_mid_reply, range(4))
        assert_no_children()

    @pytest.mark.parametrize("kind", ["unpicklable", "unrebuildable"])
    def test_worker_exception_that_cannot_be_pickled_arrives_as_runtime_error(self, cores, kind):
        cores(2)
        parent = os.getpid()

        def fails_in_the_worker(share):
            if os.getpid() != parent:
                if kind == "unpicklable":
                    e = NonFiniteError("holds a lambda")
                    e.callback = lambda: None
                    raise e
                raise _TwoArgError("a", "b")
            return share

        name = "distillab.numerics.NonFiniteError" if kind == "unpicklable" else "_TwoArgError"
        with pytest.raises(RuntimeError, match=f"raised .*{name}, which cannot be pickled"):
            fan_out(fails_in_the_worker, range(4))
        assert_no_children()

    def test_parents_exception_wins_and_the_running_worker_is_reaped(self, cores, tmp_path):
        cores(2)
        parent, done = os.getpid(), tmp_path / "done"

        def share(items):
            if os.getpid() == parent:
                raise NonFiniteError("the parent's share")
            time.sleep(0.3)  # still running when the parent's share raises
            done.write_text(str(os.getpid()))
            raise ValueError("the worker's share")

        with pytest.raises(NonFiniteError, match="the parent's share"):
            fan_out(share, range(2))
        assert done.exists()  # the worker ran to its end before fan_out raised
        assert_no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_leaves_no_pipe_open(self, cores, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "fork")

        cores(2)
        monkeypatch.setattr(os, "fork", no_fork)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            fan_out(_each(lambda x: x), range(2))
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_one_share_is_the_plain_call(self, cores, monkeypatch):
        import distillab.numerics as numerics

        monkeypatch.setattr(numerics, "_one_blas_thread", None)  # one share neither looks up nor sets BLAS threads
        for n, items in ((1, range(3)), (2, range(1))):
            cores(n)
            assert fan_out(_each(lambda x: x), items) == list(items)

    def test_only_an_openblas_without_a_thread_setter_warns(self, monkeypatch, capsys):
        import distillab.numerics as numerics

        def no_maps(path, *args):
            raise OSError(path)

        monkeypatch.setattr(numerics, "open", no_maps, raising=False)
        assert numerics._blas_threads.__wrapped__() is None  # no /proc
        monkeypatch.setattr(numerics, "open", lambda path, *args: io.StringIO(""), raising=False)
        assert numerics._blas_threads.__wrapped__() is None  # no OpenBLAS mapped
        assert capsys.readouterr().err == ""
        maps = "7f00-7f01 r-xp 00000000 08:01 1 /usr/lib/libopenblas.so.0\n"
        monkeypatch.setattr(numerics, "open", lambda path, *args: io.StringIO(maps), raising=False)
        monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: object())  # a library without the calls
        assert numerics._blas_threads.__wrapped__() is None
        err = capsys.readouterr().err
        assert err.startswith("distillab: no OpenBLAS thread setter found") and len(err.splitlines()) == 1

    def test_every_share_runs_one_blas_thread_whatever_the_import_order(self, tmp_path):
        """numpy imported before distillab reads OPENBLAS_NUM_THREADS=2; each share still runs one BLAS thread."""
        code = (
            "import ctypes, os\n"
            "import numpy\n"
            "from distillab.numerics import fan_out\n"
            "paths = sorted({l.split(None, 5)[5].strip() for l in open('/proc/self/maps') if 'openblas' in l.lower()})\n"
            "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_', 'openblas_get_num_threads')\n"
            "libs = [ctypes.CDLL(p) for p in paths]\n"
            "get = next((getattr(lib, n) for lib in libs for n in names if hasattr(lib, n)), None)\n"
            "if get is None:\n"
            "    raise SystemExit('no OpenBLAS thread getter')\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # two shares on any machine\n"
            "print(get(), fan_out(lambda share: [get()] * len(share), range(4)), get())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        if "no OpenBLAS thread getter" in proc.stderr:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert proc.returncode == 0, proc.stderr
        before, *shares, after = proc.stdout.replace("[", " ").replace("]", " ").replace(",", " ").split()
        assert shares == ["1"] * 4
        assert after == before  # fan_out gives this process its thread count back

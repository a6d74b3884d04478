"""Deterministic numeric primitives: seeded RNG, softmax, cosine similarity,
and ``fan_out``, which hands each usable core its share of independent jobs.

Conventions used across the package:

* Dense numeric data is carried by ``numpy.ndarray``. Persistent arrays
  (images, latents, model parameters) are stored as 32-bit floats;
  reductions (sums, dot products) are accumulated in 64-bit.
* All randomness flows through :class:`SeededRng`, a counter-based
  generator built on the SplitMix64 finalizer. The bit stream is a pure
  function of (seed, counter), so identical seeds reproduce identical
  draws on every platform and numpy version.

Raw 64-bit words consumed by each draw kind:

=====================  ================================================
draw                   raw words consumed
=====================  ================================================
``uniform(n)``         1 per value, in [0, 1)
``normal(shape)``      2 * ceil(size/2): a block of (0, 1] uniforms
                       (the Box-Muller radii), then a block of [0, 1)
                       uniforms (the angles)
``integers``           1 per value (modulo reduction)
``permutation(n)``     n - 1 (Fisher-Yates, one word per swap)
=====================  ================================================

Each kind turns words into values through one function here
(:func:`uniform_from_words`, :func:`uniform_oc_from_words`,
:func:`normal_from_words`, :func:`integers_from_words`), and the
``SeededRng`` methods use the same functions. A hot consumer may therefore
draw one block with ``raw_u64`` and convert slices of it, provided it takes
the same words in the same order as the per-call draws it replaces: the
stream counter then advances exactly as before, and every value is
bit-identical.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import sys

import numpy as np

__all__ = [
    "NonFiniteError",
    "SeededRng",
    "cosine_similarity",
    "fan_out",
    "integers_from_words",
    "max_softmax",
    "normal_from_words",
    "require_finite",
    "softmax",
    "uniform_from_words",
    "uniform_oc_from_words",
]


class NonFiniteError(ArithmeticError):
    """A tensor contained NaN or Inf where finite values are required."""


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Raise :class:`NonFiniteError` unless every element of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


# SplitMix64 constants (Steele, Lea & Flood 2014). The generator output for
# counter i is splitmix_finalize(seed + (i+1) * GOLDEN), all mod 2^64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of a uint64 array, in place (wrapping mod 2^64); returns ``z``.

    The three shifts share one scratch array.
    """
    shifted = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= _MIX_A
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= _MIX_B
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _mix64_int(x: int) -> int:
    return int(_mix64(np.array([x & _U64_MASK], dtype=np.uint64))[0])


# --- word -> value conversions (one per draw kind) ---------------------------


def uniform_from_words(words: np.ndarray) -> np.ndarray:
    """float64 uniforms in [0, 1), one per word (top 53 bits)."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform_oc_from_words(words: np.ndarray) -> np.ndarray:
    """float64 uniforms in (0, 1], one per word; safe as log arguments."""
    return ((words >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


def normal_from_words(words: np.ndarray) -> np.ndarray:
    """Box-Muller normals along the last axis, float32, same shape as ``words``.

    The last axis holds 2 * pairs words: the first ``pairs`` give the (0, 1]
    radius uniforms, the rest the [0, 1) angle uniforms. The output holds the
    cosine halves, then the sine halves. Each half is the float64 product
    ``r * cos`` or ``r * sin`` rounded once to float32 as it is written into
    the one output array, so no float64 copy of the whole output is made.
    """
    pairs = words.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(uniform_oc_from_words(words[..., :pairs])))
    ang = 2.0 * np.pi * uniform_from_words(words[..., pairs:])
    out = np.empty(words.shape, dtype=np.float32)
    np.multiply(r, np.cos(ang), out=out[..., :pairs])
    np.multiply(r, np.sin(ang), out=out[..., pairs:])
    return out


def integers_from_words(words: np.ndarray, span) -> np.ndarray:
    """int64 values ``word % span``; ``span`` may be an array.

    The modulo bias is bounded by span / 2^64 and is negligible for the
    span sizes used here (< 2^32).
    """
    return (words % np.asarray(span, dtype=np.uint64)).astype(np.int64)


class SeededRng:
    """Counter-based deterministic RNG (SplitMix64 stream).

    The raw stream is ``mix(seed + (counter+i) * GOLDEN)`` for i = 1, 2, ...;
    every derived quantity (uniforms, normals via Box-Muller, integers)
    consumes a documented number of raw words, so sequences are bit-exact
    across platforms. Instances are single-owner mutable state; use
    :meth:`spawn` to derive independent child streams for parallel work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64_MASK
        self._counter = 0

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, counter={self._counter})"

    def spawn(self, *keys: int) -> "SeededRng":
        """Derive an independent child stream from integer keys.

        Pure in (seed, keys): spawning never consumes from this stream and
        the same keys always yield the same child. Distinct key tuples give
        (statistically) independent streams.
        """
        h = self.seed
        for k in keys:
            h = _mix64_int((h + int(_GOLDEN)) ^ _mix64_int(int(k)))
        return SeededRng(h)

    def raw_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words of the stream."""
        n = int(n)
        if n < 0:
            raise ValueError("n must be non-negative")
        start = (self._counter + 1) & _U64_MASK
        self._counter += n
        x = np.arange(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            x += np.uint64(start)
            x *= _GOLDEN
            x += np.uint64(self.seed)
        return _mix64(x)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` float64 uniforms in [0, 1), one raw word each (53-bit mantissa)."""
        return uniform_from_words(self.raw_u64(n))

    def normal(self, shape) -> np.ndarray:
        """i.i.d. standard normal draws via Box-Muller, returned as float32.

        Consumes 2 * ceil(size/2) raw words: a block of (0,1] uniforms for the
        radius, then a block of [0,1) uniforms for the angle.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(int(s) for s in shape)
        size = int(np.prod(shape)) if shape else 1
        pairs = (size + 1) // 2
        return normal_from_words(self.raw_u64(2 * pairs))[:size].reshape(shape)

    def integers(self, high: int, n: int | None = None):
        """Integers uniform in [0, high); modulo reduction of one raw word each."""
        if int(high) <= 0:
            raise ValueError("high must be positive")
        out = integers_from_words(self.raw_u64(1 if n is None else n), int(high))
        return int(out[0]) if n is None else out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n); consumes n-1 raw words for n > 1.

        Word k (k = 0 .. n-2) swaps position n-1-k with position
        ``word % (n-k)``.
        """
        perm = list(range(n))
        if n > 1:
            js = integers_from_words(self.raw_u64(n - 1), np.arange(n, 1, -1)).tolist()
            for i, j in zip(range(n - 1, 0, -1), js):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def _pin(cores: set[int]) -> None:
    """Run this process on ``cores`` only; where the system does not allow it, leave it be."""
    try:
        os.sched_setaffinity(0, cores)
    except (AttributeError, OSError):  # no affinity call, or cores this process may not use
        pass


@functools.cache
def _blas_threads():
    """The loaded OpenBLAS's own thread-count (getter, setter), found among this process's mappings.

    numpy's wheels name them ``scipy_openblas_*_num_threads64_``, other
    builds ``openblas_*_num_threads``. None where no OpenBLAS is mapped (or
    there is no ``/proc``); None after one warning line where one is mapped
    without them.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: this only looks it up
        except OSError:  # a mapping of a file since removed
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get, set_ = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    if paths:
        print("distillab: no OpenBLAS thread setter found; fan_out shares may run several BLAS threads", file=sys.stderr)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block; its thread count is restored after it."""
    get, set_ = _blas_threads() or (lambda: None, lambda threads: None)
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _share_results(fn, share: list) -> list:
    """``fn(share)``: one result per item of the share."""
    results = list(fn(share))
    if len(results) != len(share):
        raise ValueError(f"fan_out: a share of {len(share)} items gave {len(results)} results")
    return results


def _fork_share(fn, items: list, start: int, step: int, core: int) -> tuple[int, int]:
    """Fork a worker that computes ``fn(items[start::step])`` on ``core``; its pid and its pipe's read end.

    The worker writes one pickled reply to the pipe, ``(True, results)`` or
    ``(False, exception)`` (an exception that does not survive pickling
    becomes a RuntimeError naming its type), and leaves with ``os._exit``,
    so none of this process's cleanup runs in it.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        _pin({core})
        try:
            reply = pickle.dumps((True, _share_results(fn, items[start::step])), pickle.HIGHEST_PROTOCOL)
        except BaseException as e:
            try:
                reply = pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
                pickle.loads(reply)
            except Exception:
                name = f"{type(e).__module__}.{type(e).__qualname__}"
                e = RuntimeError(f"a fan_out worker raised {name}, which cannot be pickled: {e}")
                reply = pickle.dumps((False, e))
        view = memoryview(reply)
        while view:
            view = view[os.write(write_end, view):]
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, read_end: int):
    """The worker's reply, or None if it exited without one complete reply; reads its pipe to EOF and waits for it."""
    with open(read_end, "rb") as pipe:
        try:
            reply = pickle.load(pipe)
        except Exception:
            reply = None
        if pipe.read():  # bytes after the reply: not a reply
            reply = None
    _, status = os.waitpid(pid, 0)
    return reply if os.waitstatus_to_exitcode(status) == 0 else None


def fan_out(fn, items) -> list:
    """One result per item, in item order: each usable core computes its share in one ``fn`` call.

    With ``n = min(len(items), usable cores)`` (the cores of
    ``os.sched_getaffinity``), this process computes ``fn(items[0::n])`` and
    ``n - 1`` forked workers compute the other strided shares, so jobs of
    equal cost balance. ``fn`` maps a share (a list of items) to a list of
    as many results, and may do the share's work as one stacked pass. Each
    share runs pinned to a core of its own (this process gets its affinity
    back on return): left to itself, the kernel may wake a worker on the
    core of the busy parent and keep it there. Each share runs OpenBLAS at
    one thread, set through the library's own call whatever the import
    order (this process gets its thread count back on return): a BLAS
    thread per core in every share would crowd the cores. ``fn`` and
    ``items`` reach the workers through fork, not pickling: ``fn`` may be a
    closure over models. Each worker pickles its share's results back
    through a pipe of its own. When ``n`` is 1 it is the plain call
    ``fn(items)``. An item's result must depend on the item alone (and on
    the rng streams it spawns), not on the other items of its share, so the
    results do not depend on ``n``. An exception raised in a worker is
    raised here with its type (one that cannot be pickled as a RuntimeError
    naming it); a worker that exits without a complete reply raises
    ``BrokenProcessPool``. Every worker has exited when the call returns or
    raises, and an exception of this process's share wins over the workers'.
    """
    items = list(items)
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else list(range(os.cpu_count() or 1))
    n = min(len(items), len(cores))
    if n <= 1:
        return _share_results(fn, items) if items else []
    workers = []
    with _one_blas_thread():  # set before the forks: the workers inherit it
        try:
            for start in range(1, n):
                workers.append(_fork_share(fn, items, start, n, cores[start]))
            _pin({cores[0]})
            shares = [_share_results(fn, items[0::n])]
        finally:
            _pin(set(cores))
            replies = [_reap(*worker) for worker in workers]
    for reply in replies:
        if reply is None:
            from concurrent.futures.process import BrokenProcessPool  # loaded only when a worker died

            raise BrokenProcessPool("a fan_out worker exited without a complete reply")
        ok, value = reply
        if not ok:
            raise value
        shares.append(value)
    out = [None] * len(items)
    for start, share in enumerate(shares):
        out[start::n] = share
    return out


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax (max-subtraction), float64 accumulation.

    Raises ValueError on empty input; output entries lie in (0, 1] and sum
    to 1 within 1e-6.
    """
    x = np.asarray(logits, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("softmax requires a non-empty logit vector")
    require_finite("logits", x)
    e = np.exp(x - x.max())
    return e / e.sum()


def max_softmax(logits) -> np.ndarray:
    """Largest softmax probability of each row of an (N, K) logit array.

    Equal bit for bit to ``softmax(row).max()`` row by row (same
    max-subtraction, float64 exp, row sum and division), without the
    per-row Python loop.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("max_softmax requires an (N, K) logit array with K >= 1")
    require_finite("logits", x)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).max(axis=1)


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two equal-length vectors.

    Zero-norm inputs yield 0.0 (the neutral contribution for cumulative
    similarity scores) rather than an error.
    """
    a = np.asarray(u, dtype=np.float64).ravel()
    b = np.asarray(v, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("vectors must have at least one dimension")
    require_finite("u", a)
    require_finite("v", b)
    na = np.sqrt(a @ a)
    nb = np.sqrt(b @ b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((a @ b) / (na * nb))

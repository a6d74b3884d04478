"""Shared fixtures: the frozen desk-scale pipeline artifacts.

Every stage runs at its ``default_config()`` section. Heavy artifacts
(trained detector, denoiser) are session-scoped so the suite trains them
once.
"""

import os
import tracemalloc
from collections import Counter
from pathlib import Path
from dataclasses import replace
from types import SimpleNamespace

import distillab  # noqa: F401  # before numpy: BLAS then runs one thread, as in CI

import numpy as np
import pytest

from distillab.config import default_config
from distillab.data import synthesize_toy_dataset
from distillab.diffusion import build_schedule, train_denoiser
from distillab.models import train_autoencoder, train_detector
from distillab.numerics import SeededRng

DEFAULTS = default_config()
DETECTOR_SEED = 2024
AUTOENCODER_SEED = 2025
DENOISER_SEED = 2026


@pytest.fixture(scope="session")
def toy_spec():
    return DEFAULTS.data


@pytest.fixture(scope="session")
def toy_data(toy_spec):
    return synthesize_toy_dataset(toy_spec, SeededRng(0))


@pytest.fixture(scope="session")
def toy_train(toy_data):
    return toy_data[0]


@pytest.fixture(scope="session")
def toy_test(toy_data):
    return toy_data[1]


@pytest.fixture(scope="session")
def detector(toy_train):
    [det] = train_detector([toy_train], DEFAULTS.detector, [SeededRng(DETECTOR_SEED)], use_cutmix=True)
    return det


@pytest.fixture(scope="session")
def codec(toy_train):
    return train_autoencoder(toy_train, DEFAULTS.autoencoder, SeededRng(AUTOENCODER_SEED))


@pytest.fixture(scope="session")
def frozen_schedule():
    return build_schedule(DEFAULTS.denoiser)


@pytest.fixture(scope="session")
def train_latents(codec, toy_train):
    return codec.encode(toy_train.images)


@pytest.fixture(scope="session")
def denoiser(toy_train, train_latents):
    return train_denoiser(train_latents, toy_train.labels, DEFAULTS.denoiser, SeededRng(DENOISER_SEED))


@pytest.fixture(scope="session")
def weak_denoiser(toy_train, train_latents):
    """Deliberately under-trained generator for the refinement experiments.

    Half the default epochs give roughly 10-20% label-inconsistent samples
    on the default data, the regime where anomaly filtering has something
    to fix; the confidence gate at beta=0.9 binds hard under it.
    """
    return train_denoiser(train_latents, toy_train.labels, replace(DEFAULTS.denoiser, epochs=50), SeededRng(DENOISER_SEED))


@pytest.fixture()
def cores(monkeypatch):
    """``cores(n)`` makes ``n`` cores look usable to ``numerics.fan_out``.

    fan_out gives this process back the affinity it was told it had, so the
    real one is restored after the test.
    """
    real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    yield use
    if real is not None:
        os.sched_setaffinity(0, real)


@pytest.fixture()
def rng_spy(monkeypatch):
    """Count every top-level ``SeededRng`` draw while the test runs.

    ``calls[(seed, method)]`` counts the draws a stream makes with a method;
    ``words[seed]`` counts the raw words it consumes. A draw made inside
    another draw (``normal`` calls ``raw_u64``) counts once, as the outer one.
    """
    calls, words = Counter(), Counter()
    depth = [0]

    def counting(name, fn):
        def wrapper(rng, *args, **kwargs):
            before = rng._counter
            depth[0] += 1
            try:
                return fn(rng, *args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    calls[(rng.seed, name)] += 1
                    words[rng.seed] += rng._counter - before

        return wrapper

    for name, fn in list(vars(SeededRng).items()):
        if callable(fn) and not name.startswith("_") and name != "spawn":
            monkeypatch.setattr(SeededRng, name, counting(name, fn))
    return SimpleNamespace(calls=calls, words=words)


def as_float64(model):
    """Cast an ``Mlp``'s or a ``Denoiser``'s arrays to float64 in place; return it.

    Passes compute in the dtype of the arrays, so the model then runs in
    float64, as gradient checks need.
    """
    mlp = getattr(model, "mlp", model)
    mlp.weights = [w.astype(np.float64) for w in mlp.weights]
    mlp.biases = [b.astype(np.float64) for b in mlp.biases]
    if hasattr(model, "label_table"):
        model.label_table = model.label_table.astype(np.float64)
    return model


def gradient_check(loss_fn, params, rng, probes=60, step=1e-5, rel_tol=1e-3):
    """Central-difference gradient check over randomly probed parameters.

    ``loss_fn() -> (loss, grads)`` where grads aligns with ``params``;
    params must be float64 arrays (probing float32 storage is too noisy):
    see ``as_float64``.
    """
    _, grads = loss_fn()
    flat_sizes = [p.size for p in params]
    total = int(np.sum(flat_sizes))
    checked = 0
    worst = 0.0
    for _ in range(probes):
        k = int(rng.integers(total))
        ai = 0
        while k >= flat_sizes[ai]:
            k -= flat_sizes[ai]
            ai += 1
        p = params[ai].reshape(-1)
        orig = p[k]
        p[k] = orig + step
        lp, _ = loss_fn()
        p[k] = orig - step
        lm, _ = loss_fn()
        p[k] = orig
        num = (lp - lm) / (2 * step)
        ana = grads[ai].reshape(-1)[k]
        denom = max(abs(num), abs(ana), 1e-8)
        rel = abs(num - ana) / denom
        worst = max(worst, rel)
        assert rel < rel_tol, f"param block {ai} idx {k}: analytic {ana} vs numeric {num}"
        checked += 1
    return checked, worst


def peak_bytes(fn, *args):
    """``(fn(*args), peak)``: ``peak`` is the most memory traced during the call above what was traced before it.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    every array the call held at once.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def assert_no_children():
    """Every process this one forked has exited and been waited for.

    The kernel lists each thread's children, running or exited but not yet
    waited for, in ``/proc/self/task/<tid>/children``.
    """
    children = [pid for path in Path("/proc/self/task").glob("*/children") for pid in path.read_text().split()]
    assert children == [], f"child processes left: {children}"

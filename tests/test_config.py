"""Config parsing: any JSON object either parses or is a ConfigError."""

import dataclasses
import hashlib
import json
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillab.cli import main
from distillab.config import ConfigError, DenoiserConfig, RunConfig, config_sha256, default_config, load_config
from distillab.config import parse_config, sha256, to_dict

_STRINGS = st.sampled_from(["mlp", "identity", "base", "top1", "sim", "tplus_s", "runs"]) | st.text(max_size=6)
# json.loads also yields NaN, infinities and integers beyond float range
_EDGES = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _EDGES | _STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _values_for(hint):
    """Values of the annotated JSON type, often in range, or any JSON value."""
    if dataclasses.is_dataclass(hint):
        fields = typing.get_type_hints(hint)
        return st.fixed_dictionaries({}, optional={k: _values_for(h) for k, h in fields.items()}) | JSON_VALUES
    if typing.get_origin(hint) is list:
        return st.lists(_values_for(typing.get_args(hint)[0]), max_size=4) | JSON_VALUES
    typed = {
        int: st.integers(min_value=-2, max_value=40) | st.integers(),
        float: st.floats(min_value=-0.5, max_value=2.0) | st.floats() | _EDGES,
        str: _STRINGS,
    }[hint]
    return typed | JSON_VALUES


_LEAVES = [
    (name, key, hint)
    for name, section in typing.get_type_hints(RunConfig).items()
    if dataclasses.is_dataclass(section)
    for key, hint in typing.get_type_hints(section).items()
]


@st.composite
def _few_keys(draw):
    """One to three keys set, the rest left at their defaults."""
    payload = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        name, key, hint = draw(st.sampled_from(_LEAVES))
        payload.setdefault(name, {})[key] = draw(_values_for(hint))
    return payload


@settings(max_examples=400, deadline=None)
@given(_values_for(RunConfig) | _few_keys())
def test_parse_returns_config_or_config_error(payload):
    try:
        cfg = parse_config(payload)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    # what --dump-config prints is standard JSON and parses back to the same config
    dumped = json.dumps(to_dict(cfg), allow_nan=False)
    assert parse_config(json.loads(dumped)) == cfg


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"data": {"amplitude": float("nan")}}, "data.amplitude must be a finite number"),
        ({"distill": {"beta": 10**400}}, "distill.beta must be a finite number"),
        ({"detector": {"epochs": True}}, "detector.epochs expects int, got bool"),
        ({"eval": {"seeds": [1, "2"]}}, "eval.seeds[1] expects int, got str"),
        ({"denoiser": {"hidden_sizes": 256}}, "denoiser.hidden_sizes expects list, got int"),
        # a per-class pattern list is an unknown key; the case keeps its earlier id
        pytest.param({"data": {"orientations_deg": [0.0, 0.0], "frequencies": [2.0, 2.0], "num_classes": 2}},
                     "unknown config key data.orientations_deg", id="payload5-data: classes must have distinct"),
        ({"master_seed": -1}, "master_seed must lie in [0, 2^64), got -1"),
        ({"master_seed": 2**70}, f"master_seed must lie in [0, 2^64), got {2**70}"),
        ({"eval": {"seeds": [-1, 2**64 - 1]}}, "eval: seeds must lie in [0, 2^64), got -1"),
        ({"eval": {"seeds": [1, 2**64]}}, f"eval: seeds must lie in [0, 2^64), got {2**64}"),
        ({"eval": {"sensitivity_top_k": []}}, "eval: sensitivity_top_k and sensitivity_betas must not be empty"),
        ({"eval": {"sensitivity_betas": []}}, "eval: sensitivity_top_k and sensitivity_betas must not be empty"),
    ],
)
def test_rejections_name_the_key(payload, needle):
    with pytest.raises(ConfigError) as e:
        parse_config(payload)
    assert needle in str(e.value)


def test_denoiser_config_rejects_a_bad_schedule():
    """The config holds the one copy of the schedule rule: a step at least, and 0 < beta_start <= beta_end < 1."""
    for timesteps, beta_start, beta_end, message in [
        (0, 1e-4, 0.02, "timesteps must be >= 1"),
        (10, 0.0, 0.02, "need 0 < beta_start <= beta_end < 1"),
        (10, 0.03, 0.02, "need 0 < beta_start <= beta_end < 1"),
        (10, 0.5, 1.0, "need 0 < beta_start <= beta_end < 1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            DenoiserConfig(timesteps=timesteps, beta_start=beta_start, beta_end=beta_end)


@pytest.mark.parametrize(
    "key, values",
    [
        ("modes", ["base", "sim", "base"]),
        ("seeds", [1, 1]),
        ("sensitivity_top_k", [2, 4, 2]),
        ("sensitivity_betas", [0.5, 0.5]),
    ],
)
def test_repeated_eval_values_are_rejected(key, values):
    """A repeated seed would count one run twice in a mode's n and std; a repeated mode or cell, one run twice."""
    with pytest.raises(ConfigError) as e:
        parse_config({"eval": {key: values}})
    assert f"eval: {key} must not repeat a value" in str(e.value)


def test_u64_seed_bounds_are_accepted():
    """SeededRng keys its streams by a u64: its bounds parse, and a seed outside them is a ConfigError (above)."""
    cfg = parse_config({"master_seed": 2**64 - 1, "eval": {"seeds": [0, 2**64 - 1]}})
    assert (cfg.master_seed, cfg.eval.seeds) == (2**64 - 1, [0, 2**64 - 1])


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"distill": {"ipc": 3}, "master_seed": 1, "distill": {"beta": 0.7}}', "distill"),
        ('{"distill": {"beta": 0.5, "ipc": 3, "beta": 0.7}}', "beta"),
    ],
    ids=["top-level", "nested"],
)
def test_repeated_key_is_rejected(tmp_path, text, key):
    """json.load would keep a repeated key's last value and drop the first without a word."""
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert str(e.value) == f"config key {key!r} is repeated in one object"


def test_repeated_key_exits_2(tmp_path, capsys):
    """The first ``distill`` section would vanish and the second's ipc run: a one-line config error instead."""
    path = tmp_path / "config.json"
    path.write_text('{"distill": {"beta": 0.5, "beta": 0.7}, "distill": {"ipc": 3}}')
    assert main(["distill", "--config", str(path), "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: config key 'beta' is repeated in one object\n"


def test_sha256_is_hashlib_sha256():
    """The package's one SHA-256 gives the standard digests, so artifacts and manifests keep their bytes."""
    data = bytes(range(256)) * 12289  # about 3 MB
    assert sha256().hexdigest() == hashlib.sha256().hexdigest()
    assert sha256(b"distillab").hexdigest() == hashlib.sha256(b"distillab").hexdigest()
    h, cut = sha256(), 0
    for step in (1, 63, 65, 4095, 1 << 20, 7):  # uneven chunks across the block size, then the rest
        h.update(memoryview(data)[cut : cut + step])
        cut += step
    h.update(data[cut:])
    assert h.hexdigest() == hashlib.sha256(data).hexdigest()


def test_config_sha256_is_hashlib_digest_of_canonical_json():
    payload = to_dict(default_config())
    payload.pop("output_root")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert config_sha256(default_config()) == hashlib.sha256(canonical).hexdigest()

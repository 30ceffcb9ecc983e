import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft import sparse_fft, synthesize
from crtfft.config import Config, load_config
from crtfft.errors import CrtFftError, ParseError
from conftest import mutate_one_value, random_spectrum

VALID = {
    "moduli_override": [7, 11, 13],
    "nominal_length": 1001,
    "force_fallback": True,
}


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_valid_file_loads(tmp_path):
    cfg = load_config(write(tmp_path, VALID))
    assert cfg.moduli_override == (7, 11, 13)
    assert cfg.force_fallback is True and cfg.nominal_length == 1001
    assert len(dataclasses.fields(Config)) == 3


@pytest.mark.parametrize("key, value", [
    ("shift_count", 3), ("identity_hash", False), ("t", 3), ("verify_eps_rel", 1e-6),
    ("dense_budget", 1 << 20)])
def test_removed_option_is_refused_by_name(tmp_path, key, value):
    # every plan reads three shifts of plain views and verifies on all three,
    # at the tolerance verification.VERIFY_EPS_REL, and the fallback reads at
    # most pipeline.DENSE_BUDGET samples: none of these is an option
    with pytest.raises(ParseError, match=f"unknown config keys: {key}$"):
        load_config(write(tmp_path, {**VALID, key: value}))
    with pytest.raises(TypeError):
        Config(**{key: value})


@pytest.mark.parametrize(
    "change",
    [
        {"moduli_override": 5},
        {"moduli_override": ["a", 2, 3]},
        {"moduli_override": [7.5, 11, 13]},
        {"t": "3"},
        {"alpha": None},
        {"force_fallback": 1},
        {"nominal_length": 1001.0},
        {"shift_count": 4},
        {"lambda_threshold": 0.33},
        {"oracle_cap": 10},
        {"rho_sparse": 0.3},
        {"singleton_tol": 1e-6},
        {"noise_floor_rel": 1e-9},
        {"round_cap_c": 4.0},
        {"amplitude_threshold_rel": 1e-6},
        {"max_extra_verify_views": 2},
        {"max_rehash": 2},
        {"rho_dense": 0.5},
        # alpha and gate_trail are no longer fields: a file that sets either
        # is refused whatever the value (the null, nan, infinite and negative
        # alpha cases too)
        {"alpha": 15},
        {"gate_trail": True},
        {"nominal_length": 0},
        {"nominal_length": -5},
        # dense_budget is no longer a field either: refused whatever the value
        {"dense_budget": 0},
        {"dense_budget": -1},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        # verify_eps_rel is no longer a field either: refused whatever the value
        {"verify_eps_rel": float("nan")},
        {"verify_eps_rel": -1.0},
        {"alpha": -5.0},
    ],
    ids=["scalar-moduli", "string-modulus", "fractional-modulus", "string-t", "null-alpha",
         "integer-flag", "fractional-length", "bad-shift-count",
         "unknown-key-lambda_threshold", "unknown-key", "unknown-key-rho_sparse",
         "unknown-key-singleton_tol", "unknown-key-noise_floor_rel", "unknown-key-round_cap_c",
         "unknown-key-amplitude_threshold_rel", "unknown-key-max_extra_verify_views",
         "unknown-key-max_rehash", "unknown-key-rho_dense", "unknown-key-alpha",
         "unknown-key-gate_trail", "zero-nominal-length", "negative-nominal-length",
         "zero-dense-budget", "negative-dense-budget",
         "nan-alpha", "infinite-alpha", "nan-verify-eps",
         "negative-verify-eps", "negative-alpha"],
)
def test_malformed_value_is_parse_error(tmp_path, change):
    with pytest.raises(ParseError):
        load_config(write(tmp_path, {**VALID, **change}))


@pytest.mark.parametrize("change", [{"nominal_length": 0}, {"nominal_length": -5}])
def test_nonsensical_length_is_rejected(change):
    with pytest.raises(ValueError):
        Config(**change)


# One rule for Config(...) and load_config: each of these fails at construction.
# t and dense_budget are no longer fields, so Config refuses them as unknown
# keywords whatever their values; the other entries are refused as bad values.
REJECTED = {
    "fractional-t": ({"t": 2.5}, TypeError),
    "float-dense-budget": ({"dense_budget": 1024.0}, TypeError),
    "fractional-nominal-length": ({"nominal_length": 1000.5}, ValueError),
    "bool-t": ({"t": True}, TypeError),
    "t-above-three": ({"t": 4}, TypeError),
    "huge-t": ({"t": 10**9}, TypeError),
    "negative-t": ({"t": -1}, TypeError),
    "integer-flag": ({"force_fallback": 1}, ValueError),
    "two-moduli": ({"moduli_override": [7, 11], "nominal_length": 1001}, ValueError),
    "modulus-one": ({"moduli_override": [1, 7, 143], "nominal_length": 1001}, ValueError),
    "product-below-length": ({"moduli_override": [2, 3, 5], "nominal_length": 1001}, ValueError),
}


@pytest.mark.parametrize("change, error", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_by_config_and_load_config(tmp_path, change, error):
    with pytest.raises(error):
        Config(**change)
    with pytest.raises(ParseError):
        load_config(write(tmp_path, {**VALID, **change}))


def test_numpy_and_builtin_numbers_become_plain_values():
    cfg = Config(nominal_length=np.int32(1001), moduli_override=[np.int64(13), 7, 11])
    assert cfg.nominal_length == 1001 and type(cfg.nominal_length) is int
    assert cfg.moduli_override == (13, 7, 11) and all(type(m) is int for m in cfg.moduli_override)
    assert hash(cfg) == hash(Config(nominal_length=1001, moduli_override=(13, 7, 11)))


def test_numpy_nominal_length_gives_a_json_certificate(rng):
    cfg = Config(nominal_length=np.int64(1001), moduli_override=(7, 11, 13))
    result = sparse_fft(synthesize(random_spectrum(rng, 2, 1001)), 2, cfg, seed=1)
    assert json.loads(result.certificate.to_json())["declared_n"] == 1001


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_is_typed_error(tmp_path_factory, data):
    payload = json.loads(json.dumps(VALID))
    mutate_one_value(payload, data)
    path = write(tmp_path_factory.mktemp("config"), payload)
    try:
        cfg = load_config(path)
    except CrtFftError:
        return
    assert isinstance(cfg, Config)


def test_every_field_is_read():
    """Each Config field is read as cfg.<name> or config.<name> outside config.py."""
    package = Path(__file__).resolve().parent.parent / "src" / "crtfft"
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name != "config.py"
    )
    unread = [
        f.name
        for f in dataclasses.fields(Config)
        if not re.search(rf"\b(cfg|config)\.{f.name}\b", text)
    ]
    assert unread == []

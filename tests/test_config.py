import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.config import Config, load_config
from crtfft.errors import CrtFftError, ParseError
from conftest import mutate_one_value

VALID = {
    "alpha": 15.0,
    "t": 3,
    "shift_count": 3,
    "moduli_override": [7, 11, 13],
    "identity_hash": True,
    "nominal_length": 1001,
    "verify_eps_rel": 1e-6,
    "dense_budget": 1 << 20,
    "gate_trail": False,
}


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_valid_file_loads(tmp_path):
    cfg = load_config(write(tmp_path, VALID))
    assert cfg.moduli_override == (7, 11, 13)
    assert cfg.identity_hash is True and cfg.nominal_length == 1001
    assert cfg.lambda_threshold == Config().lambda_threshold


@pytest.mark.parametrize(
    "change",
    [
        {"moduli_override": 5},
        {"moduli_override": ["a", 2, 3]},
        {"moduli_override": [7.5, 11, 13]},
        {"t": "3"},
        {"alpha": None},
        {"identity_hash": 1},
        {"nominal_length": 1001.0},
        {"shift_count": 4},
        {"lambda_threshold": 0},
        {"oracle_cap": 10},
        {"rho_sparse": 0.3},
        {"singleton_tol": 1e-6},
        {"noise_floor_rel": 1e-9},
        {"round_cap_c": 4.0},
        {"amplitude_threshold_rel": 1e-6},
        {"max_extra_verify_views": 2},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"verify_eps_rel": float("nan")},
        {"rho_dense": float("inf")},
        {"verify_eps_rel": -1.0},
        {"alpha": -5.0},
    ],
    ids=["scalar-moduli", "string-modulus", "fractional-modulus", "string-t", "null-alpha",
         "integer-flag", "fractional-length", "bad-shift-count", "zero-load-threshold",
         "unknown-key", "unknown-key-rho_sparse", "unknown-key-singleton_tol",
         "unknown-key-noise_floor_rel", "unknown-key-round_cap_c",
         "unknown-key-amplitude_threshold_rel", "unknown-key-max_extra_verify_views",
         "nan-alpha", "infinite-alpha", "nan-verify-eps", "infinite-rho-dense",
         "negative-verify-eps", "negative-alpha"],
)
def test_malformed_value_is_parse_error(tmp_path, change):
    with pytest.raises(ParseError):
        load_config(write(tmp_path, {**VALID, **change}))


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

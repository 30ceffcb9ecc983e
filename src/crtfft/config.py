"""Runtime configuration.

Every setting a caller can change lives in one frozen dataclass, so that a
(source, k, config, seed) quadruple pins the entire run; the fixed numerical
tolerances are constants of the modules that use them.  Every float field
must be finite.  `load_config` reads a JSON object with the same key names;
unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Config:
    # planning
    alpha: float = 15.0                 # residue-set capacity multiplier (alpha*k per view)
    lambda_threshold: float = 0.1       # max load factor k/m for peeling
    t: int = 3                          # verification view count
    shift_count: int = 3                # time shifts per view (2 or 3)
    rho_dense: float = 0.5              # k/sqrt(N) at or above this: no fast-path plan
    moduli_override: tuple[int, ...] | None = None
    identity_hash: bool = False         # force sigma=1, b=0 in every view
    nominal_length: int | None = None   # planning length when it differs from the grid

    # verification
    verify_eps_rel: float = 1e-6        # verification tolerance, relative to view energy

    # control
    dense_budget: int = 1 << 26         # largest grid the dense fallback materializes
    gate_trail: bool = False            # record the explicit gate table in certificates
    force_fallback: bool = False        # skip the fast path entirely

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.shift_count not in (2, 3):
            raise ValueError(f"shift_count must be 2 or 3, got {self.shift_count}")
        for name in ("alpha", "lambda_threshold", "rho_dense", "verify_eps_rel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.nominal_length is not None and self.nominal_length < 1:
            raise ValueError(f"nominal_length must be >= 1 when set, got {self.nominal_length}")
        if self.dense_budget < 1:
            raise ValueError(f"dense_budget must be >= 1, got {self.dense_budget}")


def _is_int(value) -> bool:
    """A JSON integer; booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _accepts(field: dataclasses.Field, value) -> bool:
    """Whether a JSON value has the type of a Config field."""
    if field.name == "moduli_override":
        return value is None or (isinstance(value, list) and all(map(_is_int, value)))
    if field.name == "nominal_length":
        return value is None or _is_int(value)
    if isinstance(field.default, bool):
        return isinstance(value, bool)
    if isinstance(field.default, int):
        return _is_int(value)
    return _is_number(value)


def replace(config: Config, **changes) -> Config:
    return dataclasses.replace(config, **changes)


def load_config(path) -> Config:
    """Read a JSON config file; keys mirror the Config fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("config file must hold a JSON object")
    known = {f.name for f in dataclasses.fields(Config)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    for field in dataclasses.fields(Config):
        if field.name in payload and not _accepts(field, payload[field.name]):
            raise ParseError(f"config key {field.name} has a malformed value")
    if payload.get("moduli_override") is not None:
        payload["moduli_override"] = tuple(payload["moduli_override"])
    try:
        return Config(**payload)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid config values: {exc}") from exc

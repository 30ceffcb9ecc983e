"""Runtime configuration.

Every setting a caller can change lives in one frozen dataclass, so that
the source, k and config pin the entire run (the seed is only recorded in
the certificate).  The fixed numerical tolerances (`peeling.SINGLETON_TOL`,
`verification.VERIFY_EPS_REL`), the views' shift count
(`planner.SHIFT_COUNT`) and the largest grid the dense fallback reads
(`pipeline.DENSE_BUDGET`) are constants of the modules that use them.
There is no verification count: a plan is its triple of moduli, and every
run verifies on the three views it built.  Every field's type is checked
at construction, the same way for a Config built in Python and one read by
`load_config`, which takes a JSON object with the same key names and
rejects unknown keys, among them those of deleted fields such as `t` and
`verify_eps_rel`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Config:
    # planning
    moduli_override: tuple[int, ...] | None = None
    nominal_length: int | None = None   # planning length when it differs from the grid

    # control
    force_fallback: bool = False        # skip the fast path entirely

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _checked(f, getattr(self, f.name)))
        if self.nominal_length is not None and self.nominal_length < 1:
            raise ValueError(f"nominal_length must be >= 1 when set, got {self.nominal_length}")
        if (self.moduli_override is not None and self.nominal_length is not None
                and math.prod(self.moduli_override) < self.nominal_length):
            raise ValueError(
                f"moduli_override product {math.prod(self.moduli_override)} "
                f"is below nominal_length {self.nominal_length}"
            )


def _is_int(value) -> bool:
    """A JSON integer; booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_integer(value) -> bool:
    """A Python or numpy integer; booleans are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked(field: dataclasses.Field, value):
    """`value` as the type of Config field `field`, or ValueError.

    Integer fields take integers (numpy integers too, not bools), flags take
    bools, and moduli_override takes three integers >= 2 as a list or a
    tuple.  The same rule serves Config(...) and load_config, and the value
    comes back as a plain int, bool or tuple.
    """
    name = field.name
    if value is None and name in ("moduli_override", "nominal_length"):
        return None
    if name == "moduli_override":
        if not (isinstance(value, (list, tuple)) and len(value) == 3
                and all(_is_integer(m) and m >= 2 for m in value)):
            raise ValueError(f"moduli_override must be three integers >= 2, got {value!r}")
        return tuple(int(m) for m in value)
    if isinstance(field.default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be a bool, got {value!r}")
        return value
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def load_config(path) -> Config:
    """Read a JSON config file; keys mirror the Config fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"config file {path} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(Config)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return Config(**payload)
    except ValueError as exc:
        raise ParseError(f"invalid config values: {exc}") from exc

"""Runtime configuration.

Every setting a caller can change lives in one frozen dataclass, so that a
(source, k, config, seed) quadruple pins the entire run; the fixed numerical
tolerances are constants of the modules that use them.  Every field's type
is checked at construction, the same way for a Config built in Python and
one read by `load_config`, which takes a JSON object with the same key names
and rejects unknown keys rather than ignoring them.
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
    force_fallback: bool = False        # skip the fast path entirely

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _checked(f, getattr(self, f.name)))
        if self.shift_count not in (2, 3):
            raise ValueError(f"shift_count must be 2 or 3, got {self.shift_count}")
        for name in ("lambda_threshold", "rho_dense", "verify_eps_rel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.nominal_length is not None and self.nominal_length < 1:
            raise ValueError(f"nominal_length must be >= 1 when set, got {self.nominal_length}")
        if self.dense_budget < 1:
            raise ValueError(f"dense_budget must be >= 1, got {self.dense_budget}")
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
    bools, float fields take finite real numbers, and moduli_override takes
    three integers >= 2 as a list or a tuple.  The same rule serves Config(...)
    and load_config, and the value comes back as a plain int, float or tuple.
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
    if name == "nominal_length" or isinstance(field.default, int):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


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
    try:
        return Config(**payload)
    except ValueError as exc:
        raise ParseError(f"invalid config values: {exc}") from exc

"""Truth oracle and failure taxonomy for one recovery.

An answer is correct when it lies on the caller's grid, has exactly the
true support, has every coefficient within COEFF_TOL of the truth, and its
certificate replays with no violations.  Grid is checked before support and
support before coefficients, since each later check is meaningless when an
earlier one fails; replay is checked independently.
"""

from __future__ import annotations

# Absolute tolerance on coefficients; every workload draws unit-modulus
# tones, and exact recoveries land within ~1e-12 of the truth.
COEFF_TOL = 1e-6


def failure_kinds(answer, truth, violations) -> list[str]:
    """Failure kinds of `answer` (a SparseSpectrum) against `truth`; empty when correct."""
    kinds = []
    if answer.grid_length != truth.grid_length:
        kinds.append("wrong_grid")
    elif [f for f, _ in answer.entries] != [f for f, _ in truth.entries]:
        kinds.append("wrong_support")
    elif any(abs(a - b) > COEFF_TOL for (_, a), (_, b) in zip(answer.entries, truth.entries)):
        kinds.append("coeff_error")
    if violations:
        kinds.append("replay_violation")
    return kinds


def exception_kind(exc: BaseException) -> str:
    return f"exception:{type(exc).__name__}"

"""Peeling recovery: singleton detection and subtraction.

A bin is a singleton when it holds exactly one tone.  For a tone (f, A) the
shifted bin values form the geometric sequence A, A e^{2pi i f/M},
A e^{4pi i f/M}: constant magnitude across shifts, frequency readable from
one adjacent-shift phase ratio, and (with three shifts) a second ratio that
must agree with the first.  Multi-tone bins break at least one of those
tests in exact arithmetic, and a reading whose decoded frequency does not
hash back onto its own bin is discarded, so masquerading multi-bins fail
closed.

Each round peels every accepted reading together, as FFAST's decoder does:
the readings enter the ledger in order, then each view subtracts their
`alias_sum`, the alias model that verification predicts with, O(1) per
reading and bin.  Rounds repeat until the views are empty (Complete), no
view offers a singleton (TwoCore), or the round cap is hit (Stagnated).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateConflictError
from .opcount import OpCounter
from .planner import ModuliPlan
from .planner import rehash as rehash  # re-exported: fresh hash params, same moduli
from .signal import SparseSpectrum
from .views import NOISE_FLOOR_REL, ViewSpectrum, alias_sum, build_view

# Relative agreement a singleton's shift magnitudes and phase ratios must meet.
SINGLETON_TOL = 1e-6
# Peeling stops as stagnated after ceil(ROUND_CAP_C * log2(k + 2)) rounds.
ROUND_CAP_C = 4.0


class PeelStatus(enum.Enum):
    COMPLETE = "complete"
    TWO_CORE = "two-core"
    STAGNATED = "stagnated"


@dataclass(frozen=True)
class SingletonReading:
    view_index: int
    bin_index: int
    f_hat: int
    coeff: complex
    shift_ratio_error: float


@dataclass
class PeelState:
    """Mutable peeling workspace: three views plus the recovery ledger."""

    views: list[ViewSpectrum]
    M: int
    recovered: dict[int, complex] = field(default_factory=dict)
    round: int = 0
    noise_floor: float = 0.0
    op: OpCounter | None = None

    @classmethod
    def create(
        cls, views: list[ViewSpectrum], M: int, op: OpCounter | None = None
    ) -> "PeelState":
        peak = max((float(v.magnitudes(0).max(initial=0.0)) for v in views), default=0.0)
        return cls(views=list(views), M=M, noise_floor=NOISE_FLOOR_REL * peak, op=op)

    def max_bin_magnitude(self) -> float:
        return max(
            (float(np.abs(v.bins).max(initial=0.0)) for v in self.views), default=0.0
        )


def detect_singletons(state: PeelState) -> list[SingletonReading]:
    """All bins currently passing the singleton tests, in (view, bin) order."""
    readings: list[SingletonReading] = []
    M = state.M
    for vi, view in enumerate(state.views):
        bins = view.bins
        shifts = bins.shape[0]
        mag0 = np.abs(bins[0])
        cand = np.flatnonzero(mag0 > state.noise_floor)
        if state.op is not None:
            state.op.add("peel", 3 * bins.shape[1])
        if cand.size == 0:
            continue
        y0, y1 = bins[0][cand], bins[1][cand]
        ok = np.abs(y1) > 0
        err = np.zeros(cand.size)
        # (a) magnitudes agree across shifts
        for s in range(1, shifts):
            dev = np.abs(np.abs(bins[s][cand]) - mag0[cand]) / mag0[cand]
            err = np.maximum(err, dev)
        ok &= err <= SINGLETON_TOL
        # (b) frequency from the adjacent-shift phase ratio
        ratio1 = np.where(ok, y1 / np.where(y0 == 0, 1, y0), 0)
        f_hat = np.round(np.angle(ratio1) * M / (2 * np.pi)).astype(np.int64) % M
        # (c) decoded frequency must hash back onto this bin
        ok &= view.params.hash_frequency(f_hat) == cand
        # (d) with a third shift, the second ratio must repeat the first
        if shifts >= 3:
            y2 = bins[2][cand]
            ratio2 = y2 / np.where(y1 == 0, 1, y1)
            dev2 = np.abs(ratio2 - ratio1) / np.abs(np.where(ratio1 == 0, 1, ratio1))
            err = np.maximum(err, dev2)
            ok &= dev2 <= SINGLETON_TOL
        for idx in np.flatnonzero(ok):
            readings.append(
                SingletonReading(
                    view_index=vi,
                    bin_index=int(cand[idx]),
                    f_hat=int(f_hat[idx]),
                    coeff=complex(y0[idx]),
                    shift_ratio_error=float(err[idx]),
                )
            )
    return readings


def peel(state: PeelState, readings: list[SingletonReading]) -> PeelState:
    """Record one round's readings and subtract them from every view.

    The ledger takes the readings in order.  A reading that re-detects a
    recovered frequency with a residual below the floor raises
    DuplicateConflictError; the readings before it stay recorded and
    subtracted, as if they had been peeled one at a time.
    """
    conflict = None
    accepted = 0
    for reading in readings:
        f, coeff = reading.f_hat, reading.coeff
        if f in state.recovered:
            if abs(coeff) <= state.noise_floor:
                conflict = DuplicateConflictError(
                    f"frequency {f} re-detected with residual below the floor"
                )
                break
            state.recovered[f] += coeff
        else:
            state.recovered[f] = coeff
        accepted += 1
    if accepted:
        fs = np.array([r.f_hat for r in readings[:accepted]], dtype=np.int64)
        coeffs = np.array([r.coeff for r in readings[:accepted]], dtype=np.complex128)
        for view in state.views:
            # alias_sum adds readings that share a bin, so both are subtracted
            view.bins -= alias_sum(fs, coeffs, view.params, state.M)
            if state.op is not None:
                state.op.add("peel", 2 * view.bins.shape[0] * accepted)
    if conflict is not None:
        raise conflict
    return state


@dataclass(frozen=True)
class PeelOutcome:
    recovered: SparseSpectrum
    status: PeelStatus
    rounds: int


def _dedupe(readings: list[SingletonReading]) -> list[SingletonReading]:
    # The same tone may be isolated in several views at once; keep the
    # cleanest reading per frequency.
    best: dict[int, SingletonReading] = {}
    for r in readings:
        cur = best.get(r.f_hat)
        if cur is None or (r.shift_ratio_error, r.view_index) < (
            cur.shift_ratio_error,
            cur.view_index,
        ):
            best[r.f_hat] = r
    return [best[f] for f in sorted(best)]


def run_peeling(state: PeelState, plan: ModuliPlan) -> PeelOutcome:
    """Detect-and-peel rounds until done, stuck, or over the round cap."""
    cap = max(1, math.ceil(ROUND_CAP_C * math.log2(plan.k + 2)))
    status = None
    while True:
        if state.max_bin_magnitude() <= state.noise_floor:
            status = PeelStatus.COMPLETE
            break
        if state.round >= cap:
            status = PeelStatus.STAGNATED
            break
        readings = _dedupe(detect_singletons(state))
        if not readings:
            status = PeelStatus.TWO_CORE
            break
        try:
            peel(state, readings)
        except DuplicateConflictError:
            status = PeelStatus.STAGNATED
            break
        state.round += 1
    entries = [
        (f, c) for f, c in state.recovered.items() if abs(c) > state.noise_floor
    ]
    spectrum = SparseSpectrum.from_pairs(entries, state.M)
    return PeelOutcome(recovered=spectrum, status=status, rounds=state.round)


# The benchmark tracer (perfbench/tracer.py) looks this name up; nothing calls it.
build_view_recursive = build_view

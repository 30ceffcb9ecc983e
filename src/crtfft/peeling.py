"""Peeling recovery: singleton detection and subtraction.

A bin is a singleton when it holds exactly one tone.  For a tone (f, A) the
S = 3 shifted bin values form the geometric sequence A, A e^{2pi i f/M},
A e^{4pi i f/M}: constant magnitude across shifts, frequency readable from
one adjacent-shift phase ratio, and a second ratio that must agree with the
first.  Multi-tone bins break at least one of those tests in exact
arithmetic, and a reading whose decoded frequency f does not land back in
its own bin, f mod m, is discarded, so masquerading multi-bins fail closed.

`PeelState.create` copies the bins of the (3, m1+m2+m3) `views.ViewStack`
once and peels that copy; the stack it was given is left as built, for
verification.  Detection looks its candidates' m and bin up with one
fancy index into the stack's column table, `views.stack_columns`, the
cached table `build_views` normalizes the stack with.
A round is a fixed number of array operations whatever k is.  It takes
the magnitudes of the whole stack in one pass, and that pass serves both
`run_peeling`'s completion test and detection.  Detection tests every
column of the stack at once, with both adjacent-shift ratios from one
division, and the same sort that orders its readings by frequency keeps
one per frequency, so a round is two arrays, frequencies and
coefficients.  `peel` subtracts the whole round, as FFAST's decoder
does.  The readings are appended to the ledger's frequency and
coefficient arrays in order; their subtraction is `views.alias_stack`
(the alias model verification uses, O(1) per reading and bin).
Detection reads only bins
above the noise floor, so every reading's coefficient clears it and the
ledger needs no conflict rule: a frequency read in several rounds sums its
readings, and one whose sum falls to the floor is dropped from the outcome.
When at most one round peeled, the ledger is that round's readings,
distinct and ascending already, and the sum is skipped.  Rounds repeat
until the views are empty (Complete), no view offers a singleton (TwoCore),
or the round cap is hit (Stagnated).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .views import NOISE_FLOOR_REL, ViewStack, alias_stack, build_view, stack_columns

# Relative agreement a singleton's shift magnitudes and phase ratios must meet.
SINGLETON_TOL = 1e-6
# Peeling stops as stagnated after ceil(ROUND_CAP_C * log2(k + 2)) rounds,
# without rebuilding any view.
ROUND_CAP_C = 12.0


class PeelStatus(enum.Enum):
    COMPLETE = "complete"
    TWO_CORE = "two-core"
    STAGNATED = "stagnated"


@dataclass
class PeelState:
    """Mutable peeling workspace: a copy of the views' stacked bins plus the
    recovery ledger.

    `stack` holds the views' bins side by side; `layout` is its
    `views.stack_layout` (view i's bins are columns first to first + m of
    it), and `columns` its `views.stack_columns`: rows m and bin.  The
    ledger `freqs`, `coeffs` holds every accepted reading in order, and
    `round` counts the rounds peeled into it.
    """

    M: int
    stack: np.ndarray
    layout: np.ndarray
    columns: np.ndarray
    freqs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.complex128))
    round: int = 0
    noise_floor: float = 0.0

    @classmethod
    def create(cls, views: ViewStack) -> "PeelState":
        """Peel a copy of the stack's bins; the stack passed in is not modified."""
        stack = views.bins.copy()
        peak = float(np.abs(stack[0]).max(initial=0.0))
        return cls(views.M, stack, views.layout, stack_columns(views.moduli),
                   noise_floor=NOISE_FLOOR_REL * peak)


def detect_singletons(state: PeelState) -> tuple[np.ndarray, np.ndarray]:
    """The round's readings as (frequencies ascending, coefficients): one per
    frequency whose bins pass the singleton tests, from its cleanest bin
    (least error, then lowest view)."""
    return _readings(state, np.abs(state.stack))


def _readings(state: PeelState, mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`detect_singletons` given the stack's magnitudes, `mags`."""
    M = state.M
    (cand,) = (mags[0] > state.noise_floor).nonzero()
    m, bin_index = state.columns[:, cand]
    y = state.stack[:, cand]
    mag0, mag1, mag2 = mags[:, cand]
    # Every candidate's y0 clears the floor, so only a zero y1 can divide by
    # zero, and such a column already fails (a) with error 1; a non-finite
    # ratio or error fails every test below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = y[1:] / y[:-1]
        # (a) magnitudes agree across shifts: the larger deviation, divided
        # once (division is monotone, so this is the larger relative one)
        err = np.maximum(np.abs(mag1 - mag0), np.abs(mag2 - mag0)) / mag0
        # (b) frequency from the adjacent-shift phase ratio
        angle = np.arctan2(ratio[0].imag, ratio[0].real)
        f_hat = np.rint(angle * M / (2 * np.pi)).astype(np.int64) % M
        # (c) the second ratio must repeat the first; (a) and (c) are one
        # test of the larger deviation
        err = np.maximum(err, np.abs(ratio[1] - ratio[0]) / np.abs(ratio[0]))
    # (d) decoded frequency must land back in this bin
    ok = (err <= SINGLETON_TOL) & (f_hat % m == bin_index)
    (rows,) = ok.nonzero()
    # A tone may be isolated in several views at once.  Candidates run in
    # view order, so the stable sort leaves the lowest view first among
    # readings of one frequency and error.
    rows = rows[np.lexsort((err[rows], f_hat[rows]))]
    f = f_hat[rows]
    first = np.ones(f.size, dtype=bool)
    first[1:] = f[1:] != f[:-1]
    return f[first], y[0, rows[first]]


def peel(state: PeelState, fs: np.ndarray, coeffs: np.ndarray) -> PeelState:
    """Record one round's readings (fs, coeffs) in the ledger and subtract them
    from every view.

    A round's readings have distinct frequencies, ascending, as
    `detect_singletons` returns them.
    """
    state.freqs = np.concatenate((state.freqs, fs))
    state.coeffs = np.concatenate((state.coeffs, coeffs))
    state.round += 1
    # alias_stack sums readings that share a column, in reading order, into
    # zeros; subtracting that sum keeps the bins equal to the alias sums
    state.stack -= alias_stack(fs, coeffs, state.layout, state.stack.shape, state.M)
    return state


@dataclass(frozen=True, eq=False)
class PeelOutcome:
    """The ledger's frequencies, ascending, whose summed coefficients clear the
    noise floor, with those coefficients, how peeling ended, after how many
    rounds, and how many readings those rounds peeled."""

    freqs: np.ndarray
    coeffs: np.ndarray
    status: PeelStatus
    rounds: int
    readings: int


def run_peeling(state: PeelState, k: int) -> PeelOutcome:
    """Detect-and-peel rounds until done, stuck, or over the round cap for sparsity k."""
    cap = max(1, math.ceil(ROUND_CAP_C * math.log2(k + 2)))
    status = None
    while True:
        mags = np.abs(state.stack)  # the round's one magnitude pass, for both tests
        if float(mags.max(initial=0.0)) <= state.noise_floor:
            status = PeelStatus.COMPLETE
            break
        if state.round >= cap:
            status = PeelStatus.STAGNATED
            break
        fs, coeffs = _readings(state, mags)
        if fs.size == 0:
            status = PeelStatus.TWO_CORE
            break
        peel(state, fs, coeffs)
    peeled = state.freqs.size  # the ledger holds every reading peeled
    if state.round <= 1:
        # one round's readings are distinct, ascending and above the floor
        # already; adding them to zero, as the sum below does, turns a -0.0
        # part into +0.0
        return PeelOutcome(state.freqs, state.coeffs + 0.0, status, state.round, peeled)
    # a frequency read in several rounds sums its readings in ledger order
    freqs, where = np.unique(state.freqs, return_inverse=True)
    coeffs = np.zeros(freqs.size, dtype=np.complex128)
    np.add.at(coeffs, where, state.coeffs)
    keep = np.abs(coeffs) > state.noise_floor
    return PeelOutcome(freqs[keep], coeffs[keep], status, state.round, peeled)


# The benchmark tracer (perfbench/tracer.py) looks this name up; nothing calls it.
build_view_recursive = build_view

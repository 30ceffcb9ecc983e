"""Decimated, shifted observations of a signal.

For a view of modulus m over grid length M with stride d = M/m, shift s
collects the samples y[j] = x((j*d + s) mod M) and takes their length-m
forward transform scaled by 1/m.  The resulting bin values are plain
coefficient sums,

    value(r, s) = sum over f with f mod m == r of A_f e^{2pi i f s/M},

which is the contract every consumer (peeling, gating, verification) is
written against.  A view is named by its modulus and read at
`planner.SHIFT_COUNT` shifts; it owns its (shifts, m) bins, and a consumer
that works on several views at once copies them side by side into one
(shifts, sum of m) stack (`stack_views`).  `alias_stack` is the one
evaluation of that sum from known tones, into every view of a stack at
once: peeling subtracts its readings with it, verification predicts its
views with it, and `build_view_from_spectrum` wraps it as the independent
oracle for the FFT path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import dft
from .errors import OracleCapExceededError, StrideMismatchError
from .opcount import OpCounter
from .planner import SHIFT_COUNT
from .signal import _MAX_GRID, SignalSource, SparseSpectrum

# A bin is occupied when its shift-0 magnitude exceeds this fraction of the
# largest one: across all views for peeling, within its view for the gate.
NOISE_FLOOR_REL = 1e-9


@dataclass
class ViewSpectrum:
    """Per-shift bin values of the view on modulus m; bins has shape
    (shift count, m).

    `time_energy` is sum |y_0[j]|^2 over the raw shift-0 samples the view was
    built from, taken before the transform; it is None for a view predicted
    from a spectrum, which has no samples.
    """

    m: int
    M: int
    bins: np.ndarray
    time_energy: float | None = None


def build_view(
    source: SignalSource,
    m: int,
    M: int,
    op: OpCounter | None = None,
    shifts: int = SHIFT_COUNT,
) -> ViewSpectrum:
    """FFT-path construction of the view on modulus m from time samples.

    The view is read with one `sample_block` call (row s of its block is its
    shift-0 progression plus s, so every row wraps the grid a whole number
    of times with the view's step) and transformed and normalized once.  It
    keeps its shift-0 time energy for the Parseval check.  The read is
    charged to the "views" phase.  Every run reads SHIFT_COUNT shifts; only
    the replay of an older certificate that recorded another count passes
    `shifts`.
    """
    if M > _MAX_GRID:
        raise OracleCapExceededError(f"grid length {M} exceeds exact int64 index arithmetic")
    if M % m != 0:
        raise StrideMismatchError(f"modulus {m} does not divide grid length {M}")
    shift = np.arange(shifts, dtype=np.int64)[:, None]
    samples = source.sample_block((np.arange(0, M, M // m) + shift) % M)
    energy = float((np.abs(samples[0]) ** 2).sum())
    if op is not None:
        # per shift: sample accesses, transform, normalization
        op.add("views", shifts * (m + dft.fft_op_count(m) + m))
    return ViewSpectrum(m, M, dft.dft_forward(samples) / m, energy)


def build_views(
    source: SignalSource,
    moduli: Sequence[int],
    M: int,
    op: OpCounter | None = None,
) -> list[ViewSpectrum]:
    """`build_view` on each modulus, in the order given."""
    return [build_view(source, m, M, op) for m in moduli]


def stack_views(views: Sequence[ViewSpectrum]) -> tuple[np.ndarray, np.ndarray]:
    """A copy of the views side by side, a (shifts, sum of m) stack, and
    its layout, whose rows are each view's m and first column."""
    layout, width = [], 0
    for v in views:
        layout.append((v.m, width))
        width += v.m
    return np.concatenate([v.bins for v in views], axis=1), np.array(layout, dtype=np.int64).T


def alias_stack(
    freqs: np.ndarray, coeffs: np.ndarray, layout: np.ndarray, shape: tuple[int, int], M: int
) -> np.ndarray:
    """The `shape` stack of bins that the tones (freqs, coeffs) put in the
    views of a `stack_views` layout: one table of A_f e^{2pi i f s/M} over
    tones and shifts, scattered into every view at once, tones that share a
    bin summed in the order given.  Costs O(k) per shift and view.
    """
    m, first = layout[:, :, None]
    shifts = np.arange(shape[0], dtype=np.int64)[:, None, None]
    table = coeffs * np.exp((2j * np.pi / M) * ((shifts * freqs) % M))
    bins = np.zeros(shape, dtype=np.complex128)
    np.add.at(bins, (slice(None), freqs % m + first), table)
    return bins


def build_view_from_spectrum(spectrum: SparseSpectrum, m: int, M: int) -> ViewSpectrum:
    """The view on modulus m of a known spectrum, evaluated by `alias_stack`
    without samples."""
    if M % m != 0:
        raise StrideMismatchError(f"modulus {m} does not divide grid length {M}")
    bins = alias_stack(spectrum.freqs, spectrum.coeffs, np.array([[m], [0]]),
                       (SHIFT_COUNT, m), M)
    return ViewSpectrum(m, M, bins)


def top_k_order(mags: np.ndarray, keys: np.ndarray | None, k: int) -> np.ndarray:
    """Positions of the k largest `mags`: magnitude descending, then `keys` ascending.

    The first k rows of a full lexsort.  `keys` None breaks ties by position,
    with no key array built.  With more than k entries, a partition finds the
    k-th largest magnitude and only the entries at or above it, ties at the
    boundary included, are sorted.
    """
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    if mags.size > k:
        kth = np.partition(mags, mags.size - k)[mags.size - k]
        cand = np.flatnonzero(mags >= kth)
    else:
        cand = np.arange(mags.size)
    tie = cand if keys is None else keys[cand]
    return cand[np.lexsort((tie, -mags[cand]))][:k]

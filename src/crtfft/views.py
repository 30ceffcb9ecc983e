"""Decimated, shifted observations of a signal.

For a view of modulus m over grid length M with stride d = M/m, shift s
collects the samples y[j] = x((j*d + s) mod M) and takes their length-m
forward transform scaled by 1/m.  The resulting bin values are plain
coefficient sums,

    value(r, s) = sum over f with f mod m == r of A_f e^{2pi i f s/M},

which is the contract every consumer (peeling, gating, verification) is
written against.  A view is named by its modulus and read at
`planner.SHIFT_COUNT` shifts, on the grid M its source or spectrum is on:
no builder takes M or a shift count, so a view is SHIFT_COUNT rows of step
M/m on its signal's own grid.
Views live in one explicit `ViewStack`: `build_views` reads each view's
samples with one `sample_block` call, transforms them straight into the
view's columns of one (shifts, sum of m) array, and normalizes the whole
stack once.  That one stack serves a run
from the sample read to the verdict: peeling peels a copy of it and
verification checks it as built.  `build_view` is its one-modulus case,
which replay uses.  The tables a stack needs depend only on the plan, so
they are computed once per plan and cached read-only: each view's index
block (`_view_indices`, keyed by m and M), and the stack's layout
(`stack_layout`) and column table (`stack_columns`: each column's m and
bin), keyed by the moduli.
`alias_stack` is the one evaluation of the sum from known tones, into
every view of a stack at once: peeling subtracts its readings with it,
verification predicts its views with it, and `build_view_from_spectrum`
wraps it as the independent oracle for the FFT path.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import dft
from .errors import OracleCapExceededError, StrideMismatchError
from .planner import SHIFT_COUNT
from .signal import _MAX_GRID, SignalSource, SparseSpectrum

# The one amplitude floor, a fraction of the peak: peeling's (all views' largest
# shift-0 bin), `gating.extract_residues`' (each view's), `pipeline.dense_fallback`'s
# (the grid's) and `certificate.build_certificate`'s (the largest recovered tone).
NOISE_FLOOR_REL = 1e-9


@functools.lru_cache(maxsize=256)
def _view_indices(m: int, M: int) -> np.ndarray:
    """The read-only (SHIFT_COUNT, m) index block of the view on m: row s is
    (j*M/m + s) mod M, so every row wraps the grid once with step M/m."""
    block = (np.arange(0, M, M // m) + np.arange(SHIFT_COUNT, dtype=np.int64)[:, None]) % M
    block.setflags(write=False)
    return block


@functools.lru_cache(maxsize=64)
def stack_layout(moduli: tuple[int, ...]) -> np.ndarray:
    """The read-only (2, views) layout of a stack of views on `moduli`, in
    order: row 0 each view's m, row 1 its first column."""
    m = np.array(moduli, dtype=np.int64)
    layout = np.vstack((m, np.cumsum(m) - m))
    layout.setflags(write=False)
    return layout


@functools.lru_cache(maxsize=64)
def stack_columns(moduli: tuple[int, ...]) -> np.ndarray:
    """The read-only (2, sum of m) column table of a stack of views on
    `moduli`: each column's m and bin."""
    layout = stack_layout(moduli)
    # each view's (m, first column) repeated over its m columns, then each
    # column's offset from its view's first: its bin
    columns = np.repeat(layout, layout[0], axis=1)
    columns[1] = np.arange(columns.shape[1]) - columns[1]
    columns.setflags(write=False)
    return columns


@dataclass(frozen=True, eq=False)
class ViewStack:
    """Views on `moduli` side by side: `bins` has shape (shift count, sum of
    m), and the view on moduli[i] owns columns first to first + m of it
    (`layout`, from `stack_layout`).

    `time_energy[i]` is sum |y_0[j]|^2 over the raw shift-0 samples view i
    was built from, taken before the transform; it is None for views
    predicted from a spectrum, which have no samples.
    """

    M: int
    moduli: tuple[int, ...]
    bins: np.ndarray
    time_energy: np.ndarray | None = None

    @property
    def layout(self) -> np.ndarray:
        return stack_layout(self.moduli)


def build_views(source: SignalSource, moduli: Sequence[int]) -> ViewStack:
    """FFT-path construction of the views on `moduli`, in the order given,
    on the source's grid M, straight into one stack of SHIFT_COUNT rows.

    Each view is read with one `sample_block` call (row s of its block is
    its shift-0 progression plus s, so every row wraps the grid once with
    step M/m) and transformed once into its columns of the stack; the stack
    is then divided once by the m row of `stack_columns` (the bits of
    dividing each view by its m).  Each view keeps its shift-0 time energy
    for the Parseval check.  A bin or an energy past float64 is inf or NaN, with no numpy
    warning, and fails verification, so the fallback answers or raises
    NonFiniteError.  A modulus that does not divide M raises
    StrideMismatchError.
    """
    moduli, M = tuple(map(int, moduli)), source.grid_length
    if M > _MAX_GRID:
        raise OracleCapExceededError(f"grid length {M} exceeds exact int64 index arithmetic")
    for m in moduli:
        if M % m != 0:
            raise StrideMismatchError(f"modulus {m} does not divide grid length {M}")
    layout = stack_layout(moduli)
    bins = np.empty((SHIFT_COUNT, sum(moduli)), dtype=np.complex128)
    rows = []  # each view's shift-0 samples
    with np.errstate(over="ignore", invalid="ignore"):
        for m, first in layout.T.tolist():
            samples = source.sample_block(_view_indices(m, M))
            dft.dft_forward(samples, out=bins[:, first : first + m])
            rows.append(samples[0])
        bins /= stack_columns(moduli)[0]
        energy = np.array([(np.abs(row) ** 2).sum() for row in rows])
    return ViewStack(M, moduli, bins, energy)


def build_view(source: SignalSource, m: int) -> ViewStack:
    """`build_views` on the one modulus m; replay builds its view with it."""
    return build_views(source, (m,))


def alias_stack(
    freqs: np.ndarray, coeffs: np.ndarray, layout: np.ndarray, shape: tuple[int, int], M: int
) -> np.ndarray:
    """The `shape` stack of bins that the tones (freqs, coeffs) put in the
    views of a `stack_layout` layout: one table of A_f e^{2pi i f s/M} over
    tones and shifts, scattered into every view at once, tones that share a
    bin summed in the order given.  Costs O(k) per shift and view.
    """
    m, first = layout[:, :, None]
    shifts = np.arange(shape[0], dtype=np.int64)[:, None, None]
    table = coeffs * np.exp((2j * np.pi / M) * ((shifts * freqs) % M))
    bins = np.zeros(shape, dtype=np.complex128)
    np.add.at(bins, (slice(None), freqs % m + first), table)
    return bins


def build_view_from_spectrum(spectrum: SparseSpectrum, m: int) -> ViewStack:
    """The view on modulus m of a known spectrum, on its grid M, evaluated by
    `alias_stack` without samples."""
    M = spectrum.grid_length
    if M % m != 0:
        raise StrideMismatchError(f"modulus {m} does not divide grid length {M}")
    bins = alias_stack(spectrum.freqs, spectrum.coeffs, stack_layout((m,)), (SHIFT_COUNT, m), M)
    return ViewStack(M, (m,), bins)


def top_k_order(mags: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest `mags`: magnitude descending, then position ascending.

    The first k rows of a full lexsort.  With more than k entries, a
    partition finds the k-th largest magnitude and only the entries at or
    above it, ties at the boundary included, are sorted.
    """
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    if mags.size > k:
        kth = np.partition(mags, mags.size - k)[mags.size - k]
        cand = np.flatnonzero(mags >= kth)
    else:
        cand = np.arange(mags.size)
    # cand ascends, so a stable sort breaks ties by position
    return cand[np.argsort(-mags[cand], kind="stable")][:k]

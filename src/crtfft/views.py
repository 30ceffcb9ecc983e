"""Decimated, dilated, shifted observations of a signal.

For a view (m, sigma, b) over grid length M with stride d = M/m, shift s
collects the samples y[j] = x((sigma*j*d + s) mod M), modulates them by
e^{+2pi i b j/m}, and takes the length-m forward transform scaled by 1/m.
The resulting bin values are plain coefficient sums,

    value(r, s) = sum over f with (sigma*f + b) mod m == r of A_f e^{2pi i f s/M},

which is the contract every consumer (peeling, gating, verification) is
written against.  `alias_sum` is the one evaluation of that sum from known
tones: `build_view_from_spectrum` wraps it as the independent oracle for the
FFT path and the bin predictor inside verification.  Its per-tone values
come from `tone_table`, which peeling scatters into all three views at once
for every round's readings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import dft
from .errors import OracleCapExceededError, StrideMismatchError
from .opcount import OpCounter
from .planner import ViewParams
from .signal import _MAX_GRID, SignalSource, SparseSpectrum

# A bin is occupied when its shift-0 magnitude exceeds this fraction of the
# largest one: within its view for residue sets, across all views for peeling.
NOISE_FLOOR_REL = 1e-9


@dataclass
class ViewSpectrum:
    """Per-shift bin values of one view; bins has shape (shift_count, m).

    `time_energy` is sum |y_0[j]|^2 over the raw shift-0 samples the view was
    built from, taken before modulation and transform; it is None for a view
    predicted from a spectrum, which has no samples.
    """

    params: ViewParams
    M: int
    bins: np.ndarray
    time_energy: float | None = None

    @property
    def m(self) -> int:
        return self.params.m

    def magnitudes(self, shift: int = 0) -> np.ndarray:
        return np.abs(self.bins[shift])


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """Occupied bins of one view, strongest first, at most capacity entries.

    `indices` and `magnitudes` are parallel arrays: bin index and its
    shift-0 magnitude.
    """

    indices: np.ndarray
    magnitudes: np.ndarray
    capacity: int

    def bins(self) -> tuple[int, ...]:
        return tuple(self.indices.tolist())

    def __len__(self) -> int:
        return len(self.indices)


def _shift_indices(params: ViewParams, M: int, shift: int) -> np.ndarray:
    m = params.m
    if M % m != 0:
        raise StrideMismatchError(f"modulus {m} does not divide grid length {M}")
    if M > _MAX_GRID:
        raise OracleCapExceededError(f"grid length {M} exceeds exact int64 index arithmetic")
    d = M // m
    j = np.arange(m, dtype=np.int64)
    # sigma < M and j*d < M, so the product stays below 2^63 under the guard.
    return (params.sigma * (j * d) + shift) % M


def build_views(
    source: SignalSource,
    params: Sequence[ViewParams],
    M: int,
    op: OpCounter | None = None,
    phases: Sequence[str] | None = None,
) -> list[ViewSpectrum]:
    """FFT-path construction of views from time samples, in the order given.

    Views that share a modulus m are built together: row s of a view's
    (shift_count, m) index block is its shift-0 progression plus s, so every
    row wraps the grid a whole number of times with its view's step, and the
    blocks of all views of one modulus are read with one `sample_block` call
    (a synthesized source reads such a stack as one aliased inverse
    transform).  Each view's shift-0 time energy is kept for the Parseval
    check and its rows are modulated by its own b; the stack is then
    transformed and normalized once and split back into views.  Ops are
    charged per view under `phases[i]` ("views" when not given).
    """
    phases = phases or ("views",) * len(params)
    views: list[ViewSpectrum | None] = [None] * len(params)
    groups: dict[int, list[int]] = {}
    for i, vp in enumerate(params):
        groups.setdefault(vp.m, []).append(i)
    for m, members in groups.items():
        blocks = []
        for i in members:
            shifts = np.arange(params[i].shift_count, dtype=np.int64)[:, None]
            blocks.append((_shift_indices(params[i], M, 0) + shifts) % M)
        samples = source.sample_block(np.concatenate(blocks))
        lo, rows = 0, []
        for i in members:
            vp = params[i]
            hi = lo + vp.shift_count
            rows.append((vp, i, lo, hi, float(np.sum(np.abs(samples[lo]) ** 2))))
            if vp.b:
                samples[lo:hi] *= np.exp(2j * np.pi * vp.b * np.arange(m) / m)
            lo = hi
        bins = dft.dft_forward(samples) / m
        for vp, i, lo, hi, energy in rows:
            views[i] = ViewSpectrum(params=vp, M=M, bins=bins[lo:hi], time_energy=energy)
            if op is not None:
                # per shift: sample accesses, modulation multiplies, transform, normalization
                per_shift = m + (m if vp.b else 0) + dft.fft_op_count(m) + m
                op.add(phases[i], vp.shift_count * per_shift)
    return views  # type: ignore[return-value]


def build_view(
    source: SignalSource,
    params: ViewParams,
    M: int,
    op: OpCounter | None = None,
    phase: str = "views",
) -> ViewSpectrum:
    """One view built from time samples: `build_views` of a single view."""
    return build_views(source, [params], M, op, [phase])[0]


def alias_sum(
    freqs: np.ndarray, coeffs: np.ndarray, params: ViewParams, M: int
) -> np.ndarray:
    """The (shift_count, m) bins that the tones (freqs, coeffs) put in a view.

    One phase table for all tones and shifts and one scatter; tones that
    hash to the same bin are summed.  Costs O(k) per shift.
    """
    if M % params.m != 0:
        raise StrideMismatchError(f"modulus {params.m} does not divide grid length {M}")
    bins = np.zeros((params.shift_count, params.m), dtype=np.complex128)
    table = tone_table(freqs, coeffs, params.shift_count, M)
    np.add.at(bins, (slice(None), params.hash_frequency(freqs)), table)
    return bins


def tone_table(freqs: np.ndarray, coeffs: np.ndarray, shift_count: int, M: int) -> np.ndarray:
    """The (shift_count, len(freqs)) values A_f e^{2pi i f s/M} of each tone.

    The same in every view: a view only decides which bin each column lands in.
    """
    shifts = np.arange(shift_count, dtype=np.int64)
    return coeffs * np.exp(2j * np.pi * ((shifts[:, None] * freqs[None, :]) % M) / M)


def build_view_from_spectrum(
    spectrum: SparseSpectrum, params: ViewParams, M: int
) -> ViewSpectrum:
    """The view of a known spectrum, evaluated by `alias_sum` without samples."""
    bins = alias_sum(spectrum.frequencies(), spectrum.coefficients(), params, M)
    return ViewSpectrum(params=params, M=M, bins=bins)


def extract_residues(view: ViewSpectrum, alpha_k: int) -> ResidueSet:
    """Top-alpha_k bins above the noise floor by shift-0 magnitude; ties break upward."""
    if alpha_k < 1:
        raise ValueError(f"alpha_k must be >= 1, got {alpha_k}")
    mag = view.magnitudes(0)
    occupied = np.flatnonzero(mag > NOISE_FLOOR_REL * float(mag.max(initial=0.0)))
    top = occupied[top_k_order(mag[occupied], occupied, alpha_k)]
    return ResidueSet(indices=top, magnitudes=mag[top], capacity=alpha_k)


def top_k_order(mags: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest `mags`: magnitude descending, then `keys` ascending.

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
    return cand[np.lexsort((keys[cand], -mags[cand]))][:k]

"""Exact k-sparse signal model on an integer grid.

A :class:`SparseSpectrum` holds the frequencies and coefficients of its tones
as two arrays on a grid of length M; the matching time-domain signal is
x[n] = sum_i A_i e^{+2pi i f_i n/M}.  :class:`SignalSource` is the lazy
sample oracle over that grid, and the fast path only ever touches
O(m1 + m2 + m3) indices, so nothing is materialized unless the dense
fallback runs.  An index block may have any shape and its values come back
in that shape.  A synthesized source reads n arbitrary indices in O(k*n)
arithmetic; a stack of R rows that are each a full cyclic progression mod
M, every row with its own step (the shifts of a view are such a stack),
costs O(R*k + R*n log n): one comparison of the block's cyclic gaps finds
the steps, then one scatter and one stacked, unnormalized inverse
transform read all rows.  A tone sum past the float64 range reads as Inf
or NaN without a numpy warning, and the transform that consumes the
samples raises NonFiniteError.  A dense source holds its buffer on the
buffer's own grid, so its length is its grid length.  `materialize`
returns the whole grid in a fresh buffer that the caller owns and may
overwrite (the dense fallback transforms it in place): for a synthesized
source it is the one-row, step-1 case of that read, O(k + M log M); a
dense source fills it with one copy of its samples.

File formats (stable; `save_spectrum`/`load_spectrum`,
`save_dense_binary`/`load_dense_binary` and `save_dense_csv`/`load_dense_csv`
define them): spectra as JSON; dense signals either as little-endian float64
(re, im) pairs behind an 8-byte length header, or as CSV with columns
index,re,im.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from . import dft
from .config import _is_int, _is_integer, _is_number
from .errors import (
    DuplicateFrequencyError,
    NonFiniteError,
    OracleCapExceededError,
    OutOfRangeError,
    ParseError,
)

# Batched index arithmetic uses int64 products of two grid positions.
_MAX_GRID = 3_000_000_000
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Nonzero tones on a fixed grid as two read-only arrays: `freqs` (int64,
    ascending, distinct, in [0, grid_length)) and `coeffs` (complex128, finite,
    nonzero).  The constructor trusts the arrays it is given and makes them
    read-only, so it takes them over; `from_pairs` checks pairs."""

    freqs: np.ndarray
    coeffs: np.ndarray
    grid_length: int

    def __post_init__(self):
        self.freqs.setflags(write=False)
        self.coeffs.setflags(write=False)

    @classmethod
    def from_pairs(cls, pairs, grid_length) -> "SparseSpectrum":
        """The nonzero pairs sorted by f: grid_length a Python or numpy integer
        in [1, 2^63), each f one in [0, grid_length) and each coefficient a
        finite number (not a bool), or a CrtFftError."""
        if not (_is_integer(grid_length) and grid_length >= 1):
            raise OutOfRangeError(f"grid_length must be an integer >= 1, got {grid_length!r}")
        if grid_length > _INT64_MAX:
            raise OracleCapExceededError(
                f"grid length {grid_length} above supported maximum {_INT64_MAX}")
        grid_length = int(grid_length)
        freqs, coeffs = [], []
        for f, coeff in pairs:
            if not _is_integer(f):
                raise OutOfRangeError(f"frequency {f!r} is not an integer grid point")
            if isinstance(coeff, bool) or not isinstance(coeff, numbers.Number):
                raise OutOfRangeError(f"coefficient {coeff!r} at frequency {f} is not a number")
            f = int(f)
            if not (0 <= f < grid_length):
                raise OutOfRangeError(f"frequency {f} outside [0, {grid_length})")
            try:
                coeff = complex(coeff)
            except OverflowError as exc:  # an integer past the float range
                raise NonFiniteError(f"coefficient at frequency {f} is not finite") from exc
            if coeff == 0:
                continue
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise NonFiniteError(f"coefficient at frequency {f} is not finite")
            freqs.append(f)
            coeffs.append(coeff)
        freqs = np.array(freqs, dtype=np.int64)
        order = np.argsort(freqs, kind="stable")
        freqs = freqs[order]
        twice = np.flatnonzero(freqs[1:] == freqs[:-1])
        if twice.size:
            raise DuplicateFrequencyError(f"frequency {freqs[twice[0]]} listed twice")
        return cls(freqs, np.array(coeffs, dtype=np.complex128)[order], grid_length)

    @property
    def entries(self) -> tuple[tuple[int, complex], ...]:
        """The tones as (int, complex) pairs, ascending in f."""
        return tuple(zip(self.freqs.tolist(), self.coeffs.tolist()))

    def __len__(self) -> int:
        return len(self.freqs)

    def frequencies(self) -> np.ndarray:
        return self.freqs

    def coefficients(self) -> np.ndarray:
        return self.coeffs

    def energy(self) -> float:
        """Sum of squared coefficient magnitudes."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def to_dict(self) -> dict:
        """The spectrum file's JSON object: grid_length and one {f, re, im} per tone."""
        return {
            "grid_length": self.grid_length,
            "entries": [{"f": f, "re": c.real, "im": c.imag} for f, c in self.entries],
        }


class SignalSource:
    """Read-only sample oracle over a grid of `grid_length` points.

    A source is its `grid_length` and its `sample_block`, which takes an
    index array of any shape and returns the samples in the same shape.
    Subclasses set the one and implement the other, and may override
    `_read_grid`, which backs `materialize`, with a cheaper whole-grid read.
    Rereading the same block gives bit-identical values; the same index read
    inside different blocks agrees to roundoff.  Concurrent reads are safe
    (no mutable state).  A subclass that overrides `materialize` itself must
    still return a buffer the caller owns: the dense fallback transforms it
    in place.
    """

    grid_length: int

    def sample(self, n: int) -> complex:
        return complex(self.sample_block(np.array([n], dtype=np.int64))[0])

    def sample_block(self, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def materialize(self) -> np.ndarray:
        """All grid_length samples in a fresh complex128 buffer.

        The buffer shares no memory with the source: the caller owns it and
        may overwrite it, and later reads of the source are unchanged.
        Subclasses override `_read_grid`, not this method, so that every
        source's grid read passes through this one entry point (the
        benchmark tracer times it here).
        """
        return self._read_grid()

    def _read_grid(self) -> np.ndarray:
        """The grid through `sample_block`, copied into a fresh buffer."""
        idx = np.arange(self.grid_length, dtype=np.int64)
        return np.array(self.sample_block(idx), dtype=np.complex128, copy=True)


class _SynthesizedSource(SignalSource):
    def __init__(self, spectrum: SparseSpectrum):
        self.spectrum = spectrum
        self.grid_length = spectrum.grid_length

    def sample_block(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64) % self.grid_length
        if len(self.spectrum) == 0:
            return np.zeros(idx.shape, dtype=np.complex128)
        steps = _progression_step(idx, self.grid_length)
        if steps is not None:
            rows = idx.reshape(-1, idx.shape[-1])
            return self._aliased_read(rows[:, 0], steps, rows.shape[1]).reshape(idx.shape)
        flat = idx.ravel()
        out = np.empty(flat.shape, dtype=np.complex128)
        # Chunk so the (k, block) phase matrix stays small; reduce f*n mod M
        # in exact int64 before the only float conversion.
        step = max(1, (1 << 20) // len(self.spectrum))
        for start in range(0, flat.size, step):
            part = flat[start : start + step]
            rem = (self.spectrum.freqs[:, None] * part[None, :]) % self.grid_length
            phases = np.exp(2j * np.pi * rem / self.grid_length)
            out[start : start + part.size] = self.spectrum.coeffs @ phases
        return out.reshape(idx.shape)

    def _read_grid(self) -> np.ndarray:
        """All grid samples as one length-M inverse transform of the tones."""
        starts, steps = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        return self._aliased_read(starts, steps, self.grid_length)[0]

    def _aliased_read(self, starts: np.ndarray, steps: np.ndarray, n: int) -> np.ndarray:
        """x[(starts[r] + j*steps[r]) mod M] for every row r and j < n, given
        n*steps[r] == 0 (mod M).

        In row r, q = n*steps[r]/M is an integer, and tone f advances by
        (f*steps[r] mod M)/M = (f*q mod n)/n turns per sample; so each row is
        the n-point unnormalized inverse DFT of the tones scattered into bins
        f*q mod n, each twisted by its phase at that row's start.  All rows
        are scattered into one flat buffer at once.  Products stay below
        M^2 < 2^63 under _MAX_GRID.  A sum past the float64 range reads as
        Inf or NaN, with no warning; the transform of the samples or of the
        grid refuses it with NonFiniteError.
        """
        M, rows = self.grid_length, starts.size
        freqs, coeffs = self.spectrum.freqs, self.spectrum.coeffs
        bins = np.multiply.outer(steps * n // M, freqs)
        bins %= n
        bins += np.arange(0, rows * n, n, dtype=np.int64)[:, None]
        twists = np.exp((2j * np.pi / M) * (np.multiply.outer(starts, freqs) % M))
        scattered = np.zeros(rows * n, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(scattered, bins.ravel(), (coeffs * twists).ravel())
            return dft.dft_inverse_sum(scattered.reshape(rows, n))


def _progression_step(idx: np.ndarray, M: int) -> np.ndarray | None:
    """The per-row steps of a block whose rows each wrap the grid a whole
    number of times.

    `idx` is one row (1-D) or a stack of rows (2-D) of n >= 2 indices in
    [0, M).  Returns the steps, one per row, when every row satisfies
    row[j] == (row[0] + j*step) mod M and n*step == 0 (mod M) with its own
    step; otherwise None.  Both hold exactly when every cyclic gap of the
    row, row[0] - row[n-1] included, is its first gap mod M, so the block
    is tested with one comparison of its gaps.
    """
    if idx.ndim not in (1, 2) or idx.size == 0:
        return None
    rows = idx.reshape(-1, idx.shape[-1])
    if rows.shape[1] < 2:
        return None
    gaps = np.empty_like(rows)
    np.subtract(rows[:, 1:], rows[:, :-1], out=gaps[:, :-1])
    np.subtract(rows[:, 0], rows[:, -1], out=gaps[:, -1])
    gaps %= M
    steps = gaps[:, 0]
    if np.count_nonzero(gaps != steps[:, None]):
        return None
    return steps


class _DenseSource(SignalSource):
    def __init__(self, samples: np.ndarray):
        self._samples = samples
        self.grid_length = samples.size

    def sample_block(self, indices: np.ndarray) -> np.ndarray:
        return self._samples[np.asarray(indices, dtype=np.int64) % self.grid_length]

    def _read_grid(self) -> np.ndarray:
        """One copy of the samples."""
        return self._samples.copy()


def synthesize(spectrum: SparseSpectrum) -> SignalSource:
    """Lazy time-domain oracle for a sparse spectrum: O(k) per sample."""
    if spectrum.grid_length > _MAX_GRID:
        raise OracleCapExceededError(
            f"grid length {spectrum.grid_length} above supported maximum {_MAX_GRID}"
        )
    return _SynthesizedSource(spectrum)


def from_dense(samples, grid_length: int | None = None) -> SignalSource:
    """Wrap a dense buffer on its own length-N grid.

    Recovery answers on the source's grid, which is N.  A `grid_length`
    given beside the buffer (a replay passes the certificate's grid) must
    be an integer (Python or numpy, not a bool) equal to N; any other value
    raises OutOfRangeError.
    """
    arr = np.ascontiguousarray(samples, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D sample buffer")
    if not np.isfinite(arr.view(np.float64)).all():
        raise NonFiniteError("dense input contains NaN or Inf samples")
    if grid_length is not None and not (_is_integer(grid_length) and grid_length == arr.size):
        raise OutOfRangeError(
            f"grid length {grid_length!r} is not the buffer's length {arr.size}")
    return _DenseSource(arr)


def save_spectrum(spectrum: SparseSpectrum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spectrum(path) -> SparseSpectrum:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ParseError(f"cannot read spectrum file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("spectrum file must hold a JSON object")
    grid_length, entries = payload.get("grid_length"), payload.get("entries")
    if not (_is_int(grid_length) and grid_length >= 1):
        raise ParseError(f"{path}: grid_length must be a positive integer")
    if not isinstance(entries, list):
        raise ParseError(f"{path}: entries must be a list")
    pairs = []
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and _is_int(e.get("f"))
                and _is_number(e.get("re")) and _is_number(e.get("im"))):
            raise ParseError(f"{path}: entry {i} needs an integer f and numeric re, im")
        try:
            pairs.append((e["f"], complex(e["re"], e["im"])))
        except OverflowError as exc:
            raise ParseError(f"{path}: entry {i}: {exc}") from exc
    return SparseSpectrum.from_pairs(pairs, grid_length)


def save_dense_binary(samples, path) -> None:
    arr = np.ascontiguousarray(samples, dtype=np.complex128)
    inter = np.empty(2 * arr.size, dtype="<f8")
    inter[0::2] = arr.real
    inter[1::2] = arr.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", arr.size))
        fh.write(inter.tobytes())


def load_dense_binary(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        (n,) = struct.unpack_from("<Q", raw, 0)
        body = np.frombuffer(raw, dtype="<f8", offset=8)
        if body.size != 2 * n:
            raise ValueError(f"header says {n} samples, body holds {body.size // 2}")
    except (OSError, struct.error, ValueError) as exc:
        raise ParseError(f"cannot read dense signal {path}: {exc}") from exc
    return (body[0::2] + 1j * body[1::2]).astype(np.complex128)


def save_dense_csv(samples, path) -> None:
    arr = np.ascontiguousarray(samples, dtype=np.complex128)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, value in enumerate(arr):
            writer.writerow([i, repr(float(value.real)), repr(float(value.imag))])


def load_dense_csv(path) -> np.ndarray:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read dense signal {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["index", "re", "im"]:
        raise ParseError(f"{path}: expected header 'index,re,im'")
    try:
        data = sorted((int(r[0]), float(r[1]), float(r[2])) for r in rows[1:] if r)
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: malformed row: {exc}") from exc
    if [i for i, _, _ in data] != list(range(len(data))):
        raise ParseError(f"{path}: indices must cover 0..n-1 exactly once")
    return np.array([re + 1j * im for _, re, im in data], dtype=np.complex128)

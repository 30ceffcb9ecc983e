"""Seeded inputs for the crtfft benchmark workloads.

Every op is a pure function of (workload, run seed, op index): the same
triple always gives the same tones, the same buffer and the same recovery
seed, in any process.  The program under test only ever sees the generated
inputs through its public API.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import crtfft


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                 # "synthesized" (O(k) per sample) or "dense" (O(1) per sample)
    entry: str                  # public entry point: "sparse_fft" or "sparse_fft_dense"
    lengths: tuple[int, ...]    # caller's length N, cycled over the op index
    k: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth_wide", "synthesized", "sparse_fft", (1 << 20,), 64),
        Workload("synth_narrow", "synthesized", "sparse_fft", (1 << 14,), 12),
        # k/sqrt(N) = 0.58 is past the planner's dense boundary (0.5), so the
        # certified dense fallback answers on the caller's own grid.
        Workload("dense_regime", "dense", "sparse_fft", (30_000,), 100),
        # Both lengths pad to the same grid M = 107113, so op costs match.
        Workload("dense_buffer", "dense", "sparse_fft_dense", (2002, 2048), 4),
    )
}


@dataclass(frozen=True)
class Op:
    """One recovery request and its truth."""

    workload: Workload
    n: int
    seed: int                        # recovery seed handed to the program
    truth: crtfft.SparseSpectrum     # exact answer on the caller's grid
    config: crtfft.Config
    source: crtfft.SignalSource | None = None   # what sparse_fft reads
    buffer: np.ndarray | None = None            # the caller's dense buffer

    def recover(self, api) -> "crtfft.RecoveryResult":
        """Run the workload's entry point through `api` (the crtfft package)."""
        if self.workload.entry == "sparse_fft_dense":
            return api.sparse_fft_dense(self.buffer, self.workload.k, self.config, self.seed)
        return api.sparse_fft(self.source, self.workload.k, self.config, self.seed)

    def replay(self, api, result) -> list[str]:
        """verify_certificate against the source the recovery read.

        sparse_fft_dense zero-extends the buffer to the certificate's grid,
        the same way `crtfft verify-cert` rebuilds a dense signal.
        """
        source = self.source
        if source is None:
            source = api.from_dense(self.buffer, result.certificate.payload["grid_length"])
        return api.verify_certificate(result.certificate, source, self.config)

    def length_n_buffer(self) -> np.ndarray:
        """The op's tones as a dense length-N buffer: the numpy baseline's input."""
        if self.buffer is not None:
            return self.buffer
        return _dense_tones(self.truth, self.n)

    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((self.workload.name, self.n, self.seed, self.truth.grid_length)).encode())
        h.update(self.truth.frequencies().tobytes())
        h.update(self.truth.coefficients().tobytes())
        if self.buffer is not None:
            h.update(self.buffer.tobytes())
        return h.hexdigest()


def _dense_tones(spectrum, n: int) -> np.ndarray:
    # x[t] = sum_f A_f e^{+2 pi i f t / n}, the synthesis convention of crtfft.signal
    bins = np.zeros(n, dtype=np.complex128)
    bins[spectrum.frequencies()] = spectrum.coefficients()
    return np.fft.ifft(bins) * n


class Generator:
    """Builds op `index` of a workload for one run seed."""

    def __init__(self, workload: Workload, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.workload = workload
        self.seed = seed
        self._grids: dict[int, int] = {}

    def _grid(self, n: int, config) -> int:
        # Synthesized sources live on the plan's grid M, which depends on
        # (N, k) only; plan once, as the sparse_fft docstring asks callers to.
        if n not in self._grids:
            self._grids[n] = crtfft.make_plan(n, self.workload.k, config=config).M
        return self._grids[n]

    def op(self, index: int) -> Op:
        w = self.workload
        rng = np.random.default_rng([self.seed, index])
        n = w.lengths[index % len(w.lengths)]
        support = np.sort(rng.choice(n, size=w.k, replace=False))
        coeffs = np.exp(2j * np.pi * rng.random(w.k))
        seed = int(rng.integers(0, 2**31))
        config = crtfft.Config(nominal_length=n)
        if w.source == "synthesized":
            truth = crtfft.SparseSpectrum.from_pairs(zip(support, coeffs), self._grid(n, config))
            return Op(w, n, seed, truth, config, source=crtfft.synthesize(truth))
        truth = crtfft.SparseSpectrum.from_pairs(zip(support, coeffs), n)
        buffer = _dense_tones(truth, n)
        source = crtfft.from_dense(buffer) if w.entry == "sparse_fft" else None
        return Op(w, n, seed, truth, config, source=source, buffer=buffer)

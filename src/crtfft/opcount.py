"""Phase-tagged operation accounting.

Counts are a deterministic cost model (complex multiply-adds plus sample
accesses, one unit each), not hardware flops.  They exist so that scaling
behaviour can be checked without wall-clock noise: transform kernels report
their model cost through :func:`crtfft.dft.fft_op_count` and friends, and the
pipeline attributes every unit to a named phase.
"""

from __future__ import annotations


class OpCounter:
    """Accumulates model operation counts under named phases."""

    def __init__(self):
        self.phases: dict[str, int] = {}

    def add(self, phase: str, count: int) -> None:
        if count:
            self.phases[phase] = self.phases.get(phase, 0) + int(count)

    def total(self) -> int:
        return sum(self.phases.values())

    def snapshot(self) -> dict:
        """Phase counts plus their total, suitable for JSON output."""
        out = dict(sorted(self.phases.items()))
        out["total"] = self.total()
        return out

    def __repr__(self):
        return f"OpCounter({self.snapshot()})"

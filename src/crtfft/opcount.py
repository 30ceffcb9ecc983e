"""The op-cost model of a run, stated once: `run_op_counts`.  No layer counts
its own work; `sparse_fft` calls it once, after the run, on what each phase
returned."""

from __future__ import annotations

from .dft import fft_op_count
from .numtheory import ModTriple
from .peeling import PeelOutcome, PeelStatus
from .planner import SHIFT_COUNT
from .signal import SparseSpectrum


def run_op_counts(plan: ModTriple | None, outcome: PeelOutcome | None,
                  candidate: SparseSpectrum | None, fallback: tuple[int, int] | None) -> dict:
    """A run's op counts: the phases with a nonzero count in name order,
    then their `total`.  Ops are a fixed cost model (complex multiply-adds
    and sample reads, one unit each), not hardware flops, so that scaling
    can be checked without wall-clock noise.

    Each argument is None when its phase did not run: the `plan` the views
    were built on, peeling's `outcome`, the `candidate` verification checked
    and the fallback's (grid length M, bins selected).  With S =
    `planner.SHIFT_COUNT` shifts per view and sum m over the three moduli:

      views     S * sum(2m + fft_op_count(m)): per shift of a view, m sample
                reads, its transform and m divisions
      peel      3 * sum m per detection pass (one per round, and one more
                when peeling ends two-core) + 2 * S * 3 per reading peeled
      verify    (1 + S) * (sum m + 3 * |candidate|): the shift-0 energies and
                the residual over S shifts, each over every bin and every
                candidate tone in every view
      fallback  2M + fft_op_count(M) + the bins selected, a bin whose
                division by M underflows to 0 and is dropped included
    """
    counts = {}
    if plan is not None:
        views, bins = len(plan.moduli), sum(plan.moduli)
        counts["views"] = SHIFT_COUNT * sum(2 * m + fft_op_count(m) for m in plan.moduli)
        passes = outcome.rounds + (outcome.status is PeelStatus.TWO_CORE)
        counts["peel"] = 3 * bins * passes + 2 * SHIFT_COUNT * views * outcome.readings
        if candidate is not None:
            counts["verify"] = (1 + SHIFT_COUNT) * (bins + views * len(candidate))
    if fallback is not None:
        M, selected = fallback
        counts["fallback"] = 2 * M + fft_op_count(M) + selected
    counts = {phase: n for phase, n in sorted(counts.items()) if n}
    return {**counts, "total": sum(counts.values())}

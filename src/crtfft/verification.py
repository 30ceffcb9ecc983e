"""Two-part verification of a candidate spectrum on the identification views.

The views are the three identification views as `views.build_views` built
them, one on each modulus of the plan's triple; the guarantee below holds
on any view.  `check_views` copies the views side by side into one stack,
predicts the candidate's bins in all of them at once through the alias-sum
model the views use (`views.alias_stack`) and runs both parts on each, over
the rows each view holds; `check_view`, which replay uses, is its one-view
case:

Part 1 (energy): the raw time-domain energy of the view, divided by the
view length, must match the energy of the predicted shift-0 bins.  Bins
where several candidate tones collide are compared with their interference
included; a candidate that misses signal energy fails whichever tones share
a bin.

Part 2 (residual): the built bins minus the predicted bins must be near
zero over all bins and all shifts.

Both parts compare against epsilon = verify_eps_rel * max(E_time, 1), with
E_time the view's raw shift-0 energy.

The residual part's guarantee holds at any modulus and on the views that
identified the candidate, also where the paper's slip bound (2k/m)^t, which
assumes verification hashes independent of identification, is weak (0.16
at k = 12 on (44, 45, 49)) or, once 2k >= m, vacuous.  The residual is
linear in D = truth - candidate: at shift s, bin r holds the sum of
D_f z_f^s over the tones of D in r, z_f = e^{2pi i f/M}.  Tones of one bin
agree mod m, so their nodes are distinct, spaced by multiples of 2pi*m/M,
and for r <= S tones, S = 3 in every planned view (`planner.SHIFT_COUNT`),
the S x r Vandermonde matrix has full column rank: the bin's residual energy
is at least the matrix's smallest squared singular value (S for one tone)
times sum |D_f|^2 > 0.  So, in exact arithmetic, a wrong candidate passes a
view only if every bin that D reaches holds at least S + 1 of its tones; a
difference of at most S tones (a dropped, added or moved tone, a swap, an
amplitude error) fails every view.  Against epsilon a lone tone of D
fails once S*|D_f|^2 > verify_eps_rel*E_time, with E_time about
m*sum |A_f|^2, so small moduli tighten the test; tones of D sharing a bin
weaken it as their spacing shrinks.  At N = 2^14, k = 12 on (44, 45, 49),
300 trials each of a random swap, a swap to f + m1*m2*j, a dropped tone
and a 1% amplitude error all failed: the first three with a residual
above 790*epsilon in some view, the amplitude errors (residual
0.08*epsilon) on an energy gap above 5*epsilon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import Config
from .opcount import OpCounter
from .signal import SparseSpectrum
from .views import ViewSpectrum, alias_stack, stack_views
from .views import build_view, build_view_from_spectrum  # noqa: F401  looked up by the benchmark tracer


@dataclass(frozen=True)
class ViewCheck:
    modulus: int
    parseval_gap: float
    residual_energy: float
    epsilon: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    views: tuple[ViewCheck, ...]
    overall: bool
    epsilon_rel: float

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            # every report checks its views; the format keeps the flag
            "unverified": False,
            "epsilon_rel": self.epsilon_rel,
            "views": [
                {
                    "modulus": v.modulus,
                    "parseval_gap": v.parseval_gap,
                    "residual_energy": v.residual_energy,
                    "epsilon": v.epsilon,
                    "passed": v.passed,
                }
                for v in self.views
            ],
        }


def check_views(
    views: Sequence[ViewSpectrum],
    candidate: SparseSpectrum,
    eps_rel: float,
    op: OpCounter | None = None,
) -> tuple[ViewCheck, ...]:
    """Both parts of the test on views built from samples with one shift count.

    Each view's predicted shift-0 energy and residual energy are its segment
    of one `np.add.reduceat` over the stack's columns.  E_time is the view's
    `time_energy`, summed over its stride-indexed raw shift-0 samples;
    nothing recovered enters it.
    """
    if any(v.time_energy is None for v in views):
        raise ValueError("check_views needs views built from samples")
    stack, layout = stack_views(views)
    predicted = alias_stack(candidate.freqs, candidate.coeffs, layout, stack.shape, views[0].M)
    energies = np.add.reduceat(np.abs(predicted[0]) ** 2, layout[1]).tolist()
    residuals = np.add.reduceat((np.abs(stack - predicted) ** 2).sum(axis=0), layout[1])
    if op is not None:
        # per view: energy part, then residual part
        op.add("verify", stack.shape[1] + stack.size
               + (1 + stack.shape[0]) * len(views) * len(candidate))
    checks = []
    for view, energy, residual in zip(views, energies, residuals.tolist()):
        gap = abs(view.time_energy / view.m - energy)
        eps = eps_rel * max(view.time_energy, 1.0)
        checks.append(ViewCheck(view.m, gap, residual, eps, gap <= eps and residual <= eps))
    return tuple(checks)


def check_view(
    view: ViewSpectrum,
    candidate: SparseSpectrum,
    eps_rel: float,
    op: OpCounter | None = None,
) -> ViewCheck:
    """Both parts of the test on one view built from samples."""
    return check_views([view], candidate, eps_rel, op)[0]


def verify(
    views: Sequence[ViewSpectrum],
    candidate: SparseSpectrum,
    config: Config | None = None,
    op: OpCounter | None = None,
) -> VerificationReport:
    """Run `check_views` on the built views and aggregate.

    The verdict is a pure function of the views and the candidate, and each
    view is a pure function of the source and its modulus, so checking the
    same candidate again returns an equal report.  That is why a failed
    verification is final and why certificate replay can recheck it.
    """
    cfg = config or Config()
    checks = check_views(views, candidate, cfg.verify_eps_rel, op)
    return VerificationReport(checks, all(c.passed for c in checks), cfg.verify_eps_rel)

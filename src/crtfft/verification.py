"""Two-part verification of a candidate spectrum on the identification views.

The views are the three identification views, one on each modulus of the
plan's triple, in the `views.ViewStack` that `views.build_views` built and
peeling left unchanged; the guarantee below holds on any view.
`check_views` reads that stack as built, with no copy: it predicts the
candidate's bins in all of its views at once through the alias-sum model
the views use (`views.alias_stack`) and runs both parts on each, over the
rows the stack holds.  A stack with no view has no verdict and raises
ValueError.  `check_view`, which replay uses, is its one-view case:

Part 1 (energy): the raw time-domain energy of the view, divided by the
view length, must match the energy of the predicted shift-0 bins.  Bins
where several candidate tones collide are compared with their interference
included; a candidate that misses signal energy fails whichever tones share
a bin.

Part 2 (residual): the built bins minus the predicted bins must be near
zero over all bins and all shifts.

Both parts compare against epsilon = VERIFY_EPS_REL * max(E_time, 1), with
E_time the view's raw shift-0 energy.  VERIFY_EPS_REL is a constant, not a
setting: every certificate records it as `epsilon_rel` and replay checks
at it.

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
fails once S*|D_f|^2 > VERIFY_EPS_REL*E_time, with E_time about
m*sum |A_f|^2, so small moduli tighten the test; tones of D sharing a bin
weaken it as their spacing shrinks.  At N = 2^14, k = 12 on (44, 45, 49),
300 trials each of a random swap, a swap to f + m1*m2*j, a dropped tone
and a 1% amplitude error all failed: the first three with a residual
above 790*epsilon in some view, the amplitude errors (residual
0.08*epsilon) on an energy gap above 5*epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal import SparseSpectrum
from .views import ViewStack, alias_stack
from .views import build_view, build_view_from_spectrum  # noqa: F401  looked up by the benchmark tracer

# Both parts' tolerance, relative to a view's raw shift-0 energy.
VERIFY_EPS_REL = 1e-6


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


def check_views(views: ViewStack, candidate: SparseSpectrum) -> tuple[ViewCheck, ...]:
    """Both parts of the test on each view of a stack built from samples.

    Each view's predicted shift-0 energy and residual energy are its segment
    of one `np.add.reduceat` over the stack's columns.  E_time is the view's
    `time_energy`, summed over its stride-indexed raw shift-0 samples;
    nothing recovered enters it.  The stack is read as built, over the rows
    it holds.  A view whose energy, prediction, predicted energy or residual
    is past float64 (inf or NaN, with no numpy warning) fails: an inf E_time
    makes epsilon inf, which any candidate would pass.
    """
    if views.time_energy is None:
        raise ValueError("check_views needs views built from samples")
    if not views.moduli:
        raise ValueError("check_views needs at least one view: the view set is empty")
    stack, layout = views.bins, views.layout
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = alias_stack(candidate.freqs, candidate.coeffs, layout, stack.shape, views.M)
        energies = np.add.reduceat(np.abs(predicted[0]) ** 2, layout[1]).tolist()
        residuals = np.add.reduceat((np.abs(stack - predicted) ** 2).sum(axis=0), layout[1])
    checks = []
    for m, e_time, energy, residual in zip(
            views.moduli, views.time_energy.tolist(), energies, residuals.tolist()):
        gap = abs(e_time / m - energy)
        eps = VERIFY_EPS_REL * max(e_time, 1.0)
        finite = math.isfinite(e_time) and math.isfinite(energy) and math.isfinite(residual)
        checks.append(ViewCheck(m, gap, residual, eps, finite and gap <= eps and residual <= eps))
    return tuple(checks)


def check_view(view: ViewStack, candidate: SparseSpectrum) -> ViewCheck:
    """Both parts of the test on a one-view stack built from samples."""
    return check_views(view, candidate)[0]


def verify(views: ViewStack, candidate: SparseSpectrum) -> VerificationReport:
    """Run `check_views` on the built views and aggregate.

    The verdict is a pure function of the views and the candidate, and each
    view is a pure function of the source and its modulus, so checking the
    same candidate again returns an equal report.  That is why a failed
    verification is final and why certificate replay can recheck it.
    """
    checks = check_views(views, candidate)
    return VerificationReport(checks, all(c.passed for c in checks))

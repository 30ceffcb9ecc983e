"""Two-part verification of a candidate spectrum on independent views.

The verification views arrive already built from samples (the pipeline
reads them with the identification views, see `views.build_views`); the
candidate's bins are predicted once per view through the same alias-sum
model the views use (`build_view_from_spectrum`), and `check_view` runs both
parts on them:

Part 1 (energy): the raw time-domain energy of the view, divided by the
view length, must match the energy of the predicted shift-0 bins.  Bins
where several candidate tones collide are compared with their interference
included; a candidate that misses signal energy fails regardless of hashing.

Part 2 (residual): the built bins minus the predicted bins must be near
zero over all bins and all shifts.

Both parts compare against epsilon = verify_eps_rel * max(E_time, 1), with
E_time the view's raw shift-0 energy.

The residual part's guarantee holds at any modulus, also where the paper's
slip bound (2k/m)^t is weak (0.16 at k = 12 on (44, 45, 49)) or, once
2k >= m, vacuous.  The residual is linear in D = truth - candidate: at shift
s, bin r holds the sum of D_f z_f^s over the tones of D in r, z_f =
e^{2pi i f/M}.  Tones of one bin agree mod m, so their nodes are distinct,
spaced by multiples of 2pi*m/M, and for r <= S = shift_count tones the
S x r Vandermonde matrix has full column rank: the bin's residual energy is
at least sigma_min^2 * sum |D_f|^2 > 0, with sigma_min^2 = S for one tone.
So, in exact arithmetic, a wrong candidate passes a view only if every bin
that D reaches holds at least S + 1 of its tones; a difference of at most S
tones (a dropped, added or moved tone, a swap, an amplitude error) fails
every view.  Against epsilon a lone tone of D fails once S*|D_f|^2 >
verify_eps_rel*E_time, with E_time about m*sum |A_f|^2, so small moduli
tighten the test; tones of D sharing a bin weaken it as their spacing
shrinks.  At N = 2^14, k = 12 on (44, 45, 49), 300 trials each of a random
swap, a swap to f + m1*m2*j, a dropped tone and a 1% amplitude error all
failed: the first three with a residual above 790*epsilon in some view,
the amplitude errors (residual 0.08*epsilon) on an energy gap above
5*epsilon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import Config
from .opcount import OpCounter
from .signal import SparseSpectrum
from .views import ViewSpectrum, build_view_from_spectrum
from .views import build_view  # noqa: F401  looked up by the benchmark tracer


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
    unverified: bool

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "unverified": self.unverified,
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


def check_view(
    view: ViewSpectrum,
    candidate: SparseSpectrum,
    eps_rel: float = 1e-6,
    op: OpCounter | None = None,
) -> ViewCheck:
    """Both parts of the test on one view built from samples.

    E_time is the view's `time_energy`, summed over its stride-indexed raw
    shift-0 samples; nothing recovered enters it.
    """
    if view.time_energy is None:
        raise ValueError("check_view needs a view built from samples")
    m, k = view.params.m, len(candidate)
    predicted = build_view_from_spectrum(candidate, view.params, view.M).bins
    gap = abs(view.time_energy / m - float(np.sum(np.abs(predicted[0]) ** 2)))
    residual = float(np.sum(np.abs(view.bins - predicted) ** 2))
    if op is not None:
        # energy part, then residual part
        op.add("verify", m + k + view.bins.size + view.bins.shape[0] * k)
    eps = eps_rel * max(view.time_energy, 1.0)
    return ViewCheck(
        modulus=m,
        parseval_gap=gap,
        residual_energy=residual,
        epsilon=eps,
        passed=gap <= eps and residual <= eps,
    )


def verify(
    views: Sequence[ViewSpectrum],
    candidate: SparseSpectrum,
    config: Config | None = None,
    op: OpCounter | None = None,
) -> VerificationReport:
    """Run `check_view` on every built verification view and aggregate.

    The verdict is a pure function of the views and the candidate, and each
    view is a pure function of the source and its parameters, so checking
    the same candidate again returns an equal report.  That is why a failed
    verification is final and why certificate replay can recheck it.  With
    no verification views the report passes vacuously and is flagged
    unverified.
    """
    cfg = config or Config()
    if not views:
        return VerificationReport(
            views=(), overall=True, epsilon_rel=cfg.verify_eps_rel, unverified=True
        )
    checks = tuple(check_view(view, candidate, cfg.verify_eps_rel, op) for view in views)
    return VerificationReport(
        views=checks,
        overall=all(c.passed for c in checks),
        epsilon_rel=cfg.verify_eps_rel,
        unverified=False,
    )

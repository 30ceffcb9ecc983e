"""Two-part verification of a candidate spectrum on independent views.

Check 1 (energy): the raw time-domain energy of the view, divided by the
view length, must match the energy the candidate predicts for that view's
bins.  The prediction runs the candidate through the same alias-sum model
the views use, so bins where several candidate tones collide are compared
with their interference included; a candidate that misses signal energy
fails regardless of hashing.

Check 2 (residual): the freshly built view bins minus the candidate's
predicted bins must be near zero over all bins and all shifts.  A missing
tone leaves its full magnitude in one bin deterministically.  A swapped
frequency of equal magnitude can hide in shift 0 only by landing in the
colliding bin, and the shifted bins still expose it unless the phases agree,
which pins the frequency modulo the grid itself.

Both checks compare against epsilon = verify_eps_rel * max(E_time, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .opcount import OpCounter
from .planner import ModuliPlan, ViewParams
from .signal import SignalSource, SparseSpectrum
from .views import ViewSpectrum, build_view, build_view_from_spectrum


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


def parseval_check(
    view: ViewSpectrum,
    candidate: SparseSpectrum,
    eps_rel: float = 1e-6,
    op: OpCounter | None = None,
) -> tuple[float, bool, float]:
    """Energy gap between a built view's raw samples and the candidate's prediction.

    Returns (gap, passed, e_time).  E_time is the view's `time_energy`, summed
    over its stride-indexed raw shift-0 samples; nothing recovered enters the
    left-hand side.
    """
    if view.time_energy is None:
        raise ValueError("parseval_check needs a view built from samples")
    e_time = view.time_energy
    params = view.params
    predicted = build_view_from_spectrum(candidate, params, view.M)
    e_pred = float(np.sum(np.abs(predicted.bins[0]) ** 2))
    if op is not None:
        op.add("verify", params.m + len(candidate))
    gap = abs(e_time / params.m - e_pred)
    eps = eps_rel * max(e_time, 1.0)
    return gap, gap <= eps, e_time


def residual_check(
    view: ViewSpectrum,
    candidate: SparseSpectrum,
    eps_rel: float = 1e-6,
    op: OpCounter | None = None,
) -> tuple[float, bool]:
    """Bin-wise residual energy between a built view and the candidate."""
    predicted = build_view_from_spectrum(candidate, view.params, view.M)
    residual = float(np.sum(np.abs(view.bins - predicted.bins) ** 2))
    e_time = view.params.m * float(np.sum(np.abs(view.bins[0]) ** 2))
    if op is not None:
        op.add("verify", view.bins.size + view.bins.shape[0] * len(candidate))
    eps = eps_rel * max(e_time, 1.0)
    return residual, residual <= eps


def verify(
    source: SignalSource,
    plan: ModuliPlan,
    candidate: SparseSpectrum,
    config: Config | None = None,
    op: OpCounter | None = None,
    view_params: tuple[ViewParams, ...] | None = None,
) -> VerificationReport:
    """Run both checks on every verification view and aggregate.

    With no verification views the report passes vacuously and is flagged
    unverified.
    """
    cfg = config or Config()
    params_list = plan.verify_views if view_params is None else view_params
    if not params_list:
        return VerificationReport(
            views=(), overall=True, epsilon_rel=cfg.verify_eps_rel, unverified=True
        )
    checks = []
    overall = True
    for vp in params_list:
        built = build_view(source, vp, plan.M, op, phase="verify")
        gap, p_ok, e_time = parseval_check(built, candidate, cfg.verify_eps_rel, op)
        residual, r_ok = residual_check(built, candidate, cfg.verify_eps_rel, op)
        eps = cfg.verify_eps_rel * max(e_time, 1.0)
        ok = p_ok and r_ok
        overall = overall and ok
        checks.append(
            ViewCheck(
                modulus=vp.m,
                parseval_gap=gap,
                residual_energy=residual,
                epsilon=eps,
                passed=ok,
            )
        )
    return VerificationReport(
        views=tuple(checks),
        overall=overall,
        epsilon_rel=cfg.verify_eps_rel,
        unverified=False,
    )

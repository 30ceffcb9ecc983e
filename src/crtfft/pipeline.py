"""End-to-end orchestration: plan, views, peel, verify, accept or fall back.

A run always answers on the source's own grid; nothing is padded behind the
caller's back.  The fast path is accepted only when the plan's grid is the
source's grid, peeling completes and all three views confirm the
candidate.  Each run builds its views once into one `views.ViewStack`
(`build_views`), which serves it from the read to the verdict: peeling
empties its own copy of the bins, and verification checks the stack as
built.  Any failure routes to the dense fallback, which materializes the
grid, transforms it, and returns the top-k bins exactly.  No phase counts
its own ops: after the run, `sparse_fft` computes its `op_counts` once
from what each phase returned (`opcount.run_op_counts`).
The certificate names the failure in fallback_reason: "forced", "too-short",
"dense-regime", "grid-ceiling" (no plan under the int64 grid ceiling),
"grid-mismatch", "peeling-two-core", "peeling-stagnated",
"candidate-overflow" or "verification-failed".
A stuck peel and a failed verification are final: the moduli alone decide
which tones share a bin, and a verdict is a pure function of the source,
the views and the candidate.
One amplitude floor, `views.NOISE_FLOOR_REL` of the peak, serves the run:
peeling, the fallback's selection, and the certificate's recorded
`amplitude_threshold`, which replay checks every tone against.
Every run ends in a `certificate.Certificate`, which `build_certificate`
writes and `verify_certificate` replays against the signal.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dft
from .certificate import Certificate, build_certificate, parse_certificate
from .config import Config
from .errors import DenseRegimeError, NonFiniteError, OracleCapExceededError
from .opcount import run_op_counts
from .peeling import PeelState, PeelStatus, run_peeling
from .peeling import build_view_recursive  # noqa: F401  looked up by the benchmark tracer
from .planner import MIN_PLAN_LENGTH, make_plan
from .planner import rehash  # noqa: F401  looked up by the benchmark tracer
from .signal import SignalSource, SparseSpectrum, from_dense
from .verification import VerificationReport, check_view, verify
from .views import NOISE_FLOOR_REL, build_view, build_views, top_k_order
from .gating import extract_residues  # noqa: F401  looked up by the benchmark tracer
from .views import build_view_from_spectrum  # noqa: F401  looked up by the benchmark tracer

DENSE_BUDGET = 1 << 26  # largest grid the dense fallback materializes


class RecoveryPath(enum.Enum):
    FAST = "fast"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class RecoveryResult:
    spectrum: SparseSpectrum
    path: RecoveryPath
    certificate: Certificate
    op_counts: dict
    peel_status: PeelStatus | None
    verification: VerificationReport | None

    def to_dict(self) -> dict:
        return {
            "path": self.path.value,
            "spectrum": self.spectrum.to_dict(),
            "op_counts": self.op_counts,
            "certificate": self.certificate.payload,
        }


def dense_fallback(source: SignalSource, k: int) -> tuple[SparseSpectrum, int]:
    """Exact dense transform of the grid, reduced to its top-k bins, and
    the number of bins selected.

    A grid past `DENSE_BUDGET` raises OracleCapExceededError before any
    sample is read.  The grid is read once into a buffer this call owns
    (`materialize`) and transformed in place.  Selection runs on the raw
    transform's magnitudes: magnitude descending, then frequency ascending.
    Only the reported bins are divided by M; the grid itself is never
    normalized.
    Bins at or below `NOISE_FLOOR_REL` of the peak are not reported, so
    asking for more tones than the signal holds returns only the occupied bins.
    A transform that overflows float64 (an infinite or NaN bin) raises
    NonFiniteError instead of answering with nothing.  A selected bin whose
    division by M underflows to 0 is not reported, but it counts as
    selected: the op model charges its division.
    """
    M = source.grid_length
    if M > DENSE_BUDGET:
        raise OracleCapExceededError(f"grid length {M} exceeds the dense budget {DENSE_BUDGET}")
    spectrum = source.materialize()
    with np.errstate(over="ignore", invalid="ignore"):
        dft.dft_forward(spectrum, out=spectrum)
        mags = np.abs(spectrum)
    peak = float(mags.max(initial=0.0))
    if peak == math.inf and np.isfinite(spectrum.view(np.float64)).all():
        # a finite bin's magnitude overflows only within sqrt(2) of the float64
        # limit; halving is exact for every bin above the floor, so it keeps
        # the order and the floor test
        mags = np.abs(spectrum * 0.5)
        peak = float(mags.max())
    if not math.isfinite(peak):
        raise NonFiniteError(f"the length-{M} transform of the grid overflows float64")
    occupied = mags > NOISE_FLOOR_REL * peak
    if np.count_nonzero(occupied) <= k:
        top = np.flatnonzero(occupied)
    else:
        # every one of the k largest bins clears the floor
        top = np.sort(top_k_order(mags, k))
    coeffs = spectrum[top] / M
    # The selection already gives distinct, sorted, in-range frequencies and
    # finite coefficients; only a bin that underflows to 0 on division is dropped.
    nonzero = coeffs != 0
    return SparseSpectrum(top[nonzero].astype(np.int64, copy=False), coeffs[nonzero], M), top.size


def sparse_fft(
    source: SignalSource, k: int, config: Config | None = None, seed: int = 0
) -> RecoveryResult:
    """Recover the k-sparse spectrum of `source` with a certificate.

    The answer is on source.grid_length.  The run plans on the nominal
    length N: `config.nominal_length` when set, else the source's grid.  The
    fast path runs only when the plan's modulus product equals the source's
    grid (synthesize on make_plan(...).M to get it); any other grid takes
    the dense fallback on the source's own grid, with reason
    "grid-mismatch" and no plan in the certificate.  A nominal length below
    MIN_PLAN_LENGTH has no plan and falls back with reason "too-short", and
    one with no plan under the int64 grid ceiling with reason
    "grid-ceiling".  The seed, an integer, is recorded in the certificate
    and changes nothing else.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    k, seed = int(k), int(seed)
    cfg = config or Config()
    N = cfg.nominal_length or source.grid_length

    fallback_reason = None
    plan = None
    outcome = None
    report = None
    candidate = None
    fallback = None

    if cfg.force_fallback:
        fallback_reason = "forced"
    elif N < MIN_PLAN_LENGTH:
        fallback_reason = f"too-short: N = {N} < {MIN_PLAN_LENGTH} has no three-view plan"
    else:
        try:
            plan = make_plan(N, k, config=cfg)
        except DenseRegimeError as exc:
            fallback_reason = f"dense-regime: {exc}"
        except OracleCapExceededError as exc:
            fallback_reason = f"grid-ceiling: {exc}"

    if plan is not None and plan.M != source.grid_length:
        fallback_reason = f"grid-mismatch: source grid {source.grid_length} != plan grid {plan.M}"
        plan = None

    if plan is not None:  # only a run with no fallback reason keeps its plan
        views = build_views(source, plan.moduli)
        outcome = run_peeling(PeelState.create(views), k)

        if outcome.status is not PeelStatus.COMPLETE:
            fallback_reason = f"peeling-{outcome.status.value}"
        elif k and len(outcome.freqs) > 2 * k:
            fallback_reason = f"candidate-overflow: {len(outcome.freqs)} > 2k"
        else:
            # the outcome's frequencies are distinct, ascending and on the grid,
            # and its coefficients clear the noise floor; the trim's ties go
            # to the lower frequency
            freqs, coeffs = outcome.freqs, outcome.coeffs
            if len(freqs) > k:
                keep = np.sort(top_k_order(np.abs(coeffs), k))
                freqs, coeffs = freqs[keep], coeffs[keep]
            candidate = SparseSpectrum(freqs, coeffs, plan.M)
            report = verify(views, candidate)
            if not report.overall:
                fallback_reason = "verification-failed"

    # every outcome but a verified candidate names its reason
    if fallback_reason is None:
        result_spectrum, path = candidate, RecoveryPath.FAST
    else:
        result_spectrum, selected = dense_fallback(source, k)
        fallback = (source.grid_length, selected)
        path = RecoveryPath.FALLBACK

    cert = build_certificate(
        plan=plan,
        seed=seed,
        spectrum=result_spectrum,
        report=report,
        fallback_reason=fallback_reason,
        declared_n=cfg.nominal_length,
        k=k,
    )
    return RecoveryResult(
        spectrum=result_spectrum,
        path=path,
        certificate=cert,
        op_counts=run_op_counts(plan, outcome, candidate, fallback),
        peel_status=None if outcome is None else outcome.status,
        verification=report,
    )


def sparse_fft_dense(samples, k: int, config: Config | None = None, seed: int = 0):
    """Recover the spectrum of a raw buffer on its own length-N grid."""
    return sparse_fft(from_dense(samples), k, config, seed)


def verify_certificate(
    cert: Certificate,
    source: SignalSource,
    config: Config | None = None,
) -> list[str]:
    """Re-derive every certificate claim from scratch; empty list means valid.

    `parse_certificate` checks the payload and the claims that need no
    signal; this adds the signal's grid and one fresh two-part test
    (`check_view`) of the recovered spectrum on the view the certificate
    names, at the tolerance every run records.  A view whose gap, residual
    or epsilon is not finite fails both parts: past float64 neither
    comparison can pass or fail.  `config` is not read; it stays for
    callers that pass the run's config.
    """
    fields = parse_certificate(cert.payload)
    violations = []
    if source.grid_length != fields.grid_length:
        violations.append(f"signal-grid-mismatch: signal grid {source.grid_length} "
                          f"!= certificate grid {fields.grid_length}")
    violations += fields.violations
    if fields.fresh_view is not None and source.grid_length == fields.plan_grid:
        check = check_view(build_view(source, fields.fresh_view), fields.spectrum)
        gap, residual, eps = check.parseval_gap, check.residual_energy, check.epsilon
        finite = math.isfinite(gap) and math.isfinite(residual) and math.isfinite(eps)
        if not finite or gap > eps:
            violations.append(f"fresh-parseval-failed: {gap:.3e}")
        if not finite or residual > eps:
            violations.append(f"fresh-residual-failed: {residual:.3e}")
    return violations

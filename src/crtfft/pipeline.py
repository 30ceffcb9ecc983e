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
Every run emits a self-contained certificate from which a third party can
replay the moduli, each reconstruction, and the first verification view,
rebuilt from nothing but the certificate and the signal.  It records no
residue sets and no gate table: the fast path never enumerates pairs.
`parse_certificate` states every field replay reads and is the one check
of a payload, run by both `Certificate.from_json` and `verify_certificate`.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import dft
from .config import Config
from .errors import (
    DenseRegimeError,
    NonFiniteError,
    NotCoprimeError,
    OracleCapExceededError,
    ParseError,
)
from .numtheory import ModTriple, garner_digits
from .opcount import run_op_counts
from .peeling import PeelState, PeelStatus, run_peeling
from .peeling import build_view_recursive  # noqa: F401  looked up by the benchmark tracer
from .planner import MIN_PLAN_LENGTH, SHIFT_COUNT, make_plan
from .planner import rehash  # noqa: F401  looked up by the benchmark tracer
from .signal import _INT64_MAX, SignalSource, SparseSpectrum, from_dense
from .verification import VerificationReport, check_view, verify
from .views import NOISE_FLOOR_REL, build_view, build_views, top_k_order
from .gating import extract_residues  # noqa: F401  looked up by the benchmark tracer
from .views import build_view_from_spectrum  # noqa: F401  looked up by the benchmark tracer

_FLOAT_MAX = sys.float_info.max
DENSE_BUDGET = 1 << 26  # largest grid the dense fallback materializes
_CRT_KEYS = ("r1", "r2", "r3", "u2", "u3")


class RecoveryPath(enum.Enum):
    FAST = "fast"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class Certificate:
    """Replayable audit record of one recovery run; each replay parses it afresh."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed certificate: {exc}") from exc
        parse_certificate(payload)
        return cls(payload=payload)


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
        top = np.sort(top_k_order(mags, None, k))
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
    "grid-ceiling".  The seed is recorded in the certificate and changes
    nothing else.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    k = int(k)
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
            # and its coefficients clear the noise floor
            freqs, coeffs = outcome.freqs, outcome.coeffs
            if len(freqs) > k:
                keep = np.sort(top_k_order(np.abs(coeffs), freqs, k))
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
        n=N,
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


# ---------------------------------------------------------------------------
# Certificates


def _view_dict(m: int) -> dict:
    # every view reads j*M/m + s and puts f in bin f mod m: the format's identity (sigma, b)
    return {"m": m, "sigma": 1, "b": 0, "shifts": SHIFT_COUNT}


def build_certificate(
    plan: ModTriple | None,
    seed: int,
    spectrum: SparseSpectrum,
    report: VerificationReport | None,
    fallback_reason: str | None,
    declared_n: int | None,
    n: int,
    k: int,
) -> Certificate:
    """Assemble the audit record for one run on the planning length n.

    The path is "fast" exactly when no fallback reason is given.
    Every recovered frequency carries its residues and Garner digits so the
    reconstruction can be replayed, and a fast-path plan records its views,
    one per modulus, as both the identification and the verification views,
    so a verification view can be rebuilt from the signal.  Residue sets and
    gate tables are not recorded: both are pure functions of the plan and
    the signal, and no replay reads them.  The escalation
    record keeps `rehashes` and `extra_verify_views` for readers of the
    format; no run rehashes or draws extra verification views, so both are
    always 0.
    """
    freqs, coeffs = spectrum.freqs.tolist(), spectrum.coeffs.tolist()
    crts = [None] * len(freqs)
    if plan is not None:
        digits = (d.tolist() for d in garner_digits(spectrum.freqs, plan))
        crts = [{"r1": r1, "r2": r2, "r3": r3, "u2": u2, "u3": u3}
                for r1, r2, r3, u2, u3 in zip(*digits)]
    try:  # Python's abs: numpy's differs from it in the last ulp on some values
        tau = NOISE_FLOOR_REL * max(map(abs, coeffs), default=0.0)
    except OverflowError:  # a magnitude past float64, exact when halved
        tau = 2 * NOISE_FLOOR_REL * max(abs(c * 0.5) for c in coeffs)
    return Certificate(payload={
        "format": "crtfft-certificate/1",
        "k": k,
        "seed": seed,
        "path": "fast" if fallback_reason is None else "fallback",
        "fallback_reason": fallback_reason,
        "escalation": {"rehashes": 0, "extra_verify_views": 0},
        "amplitude_threshold": tau,
        "declared_n": declared_n,
        "grid_length": spectrum.grid_length,
        # .tolist() gives Python ints and complexes, whose parts serialize as they are
        "recovered": [{"f": f, "re": c.real, "im": c.imag, "crt": crt}
                      for f, c, crt in zip(freqs, coeffs, crts)],
        "plan": None if plan is None else {
            "n": n,
            "k": k,
            "m": plan.M,
            "moduli": list(plan.moduli),
            "gamma12": plan.gamma12,
            "gamma23": plan.gamma23,
            "id_views": [_view_dict(m) for m in plan.moduli],
            "verify_views": [_view_dict(m) for m in plan.moduli],
        },
        "verification": report.to_dict() if report is not None else None,
    })


def _malformed(path: str) -> ParseError:
    return ParseError(f"certificate field {path} is missing or malformed")


def _require(ok: bool, path: str) -> None:
    if not ok:
        raise _malformed(path)


@dataclass(frozen=True)
class ReplayFields:
    """What replay reads of a certificate, typed (`parse_certificate`)."""

    grid_length: int
    spectrum: SparseSpectrum | None  # the answer, built only when a view is replayed
    violations: list[str]  # the claims that fail without reading the signal
    plan_grid: int | None
    fresh_view: tuple[int, int] | None  # (m, shifts) of the view replay rebuilds on plan_grid


def parse_certificate(payload) -> ReplayFields:
    """Check, in one pass, the fields of a `crtfft-certificate/1` payload
    that replay reads; other keys are ignored.  Numbers are JSON ints or floats.

      format               "crtfft-certificate/1"
      grid_length          int in [1, 2^63)
      amplitude_threshold  finite number >= 0
      declared_n           null or int (null and 0 declare no bound)
      recovered[i]         f: int in [0, grid_length), one tone per f; re, im:
                           finite numbers (both 0: no tone); crt: null or
                           {r1, r2, r3, u2, u3: ints}
      plan                 null or {m: int >= 1, moduli: three ints, gamma12,
                           gamma23: ints, verify_views: null or list}
      plan.verify_views[j] m: int >= 1 dividing plan.m; sigma: int in
                           [1, plan.m), coprime to plan.m; b: int in [0, m);
                           shifts: 2 or 3 (runs now read 3)

    The `verification` record (null where a figure passed float64) is not
    read: replay rechecks a view itself.  Runs record amplitude_threshold as
    `NOISE_FLOOR_REL` (older runs 1e-6) times the largest |a|; replay checks at it.

    Runs record the three views of their triple as both id_views and
    verify_views, each with sigma = 1 and b = 0; older runs recorded a keyed
    (sigma, b) and could record two shifts.
    Both are range-checked and ignored on replay, which rebuilds the first
    verification view on its m and shifts: a keyed view read the same
    samples {j*plan.m/m + s} and held the same bins relabeled, so its energy
    gap and residual are the plain view's up to roundoff.

    A field that breaks its rule raises ParseError naming its path.  A
    well-formed claim that fails is a violation, in this order:
    amplitude-below-threshold and frequency-above-declared-n, each in
    ascending f; then, with a plan, bad-moduli (no other plan claim is then
    checked) or plan-product-mismatch, plan-grid-mismatch and
    plan-inverse-mismatch, and in payload order each entry's
    missing-crt-record, residue-mismatch or garner-replay-failed.
    """
    if type(payload) is not dict or payload.get("format") != "crtfft-certificate/1":
        raise ParseError("not a crtfft certificate")
    recovered, grid, tau, declared_n, plan = map(payload.get, (
        "recovered", "grid_length", "amplitude_threshold", "declared_n", "plan"))
    _require(type(recovered) is list, "recovered")
    _require(type(grid) is int and 1 <= grid <= _INT64_MAX, "grid_length")
    _require(type(tau) in (float, int) and 0 <= tau <= _FLOAT_MAX, "amplitude_threshold")
    _require(declared_n is None or type(declared_n) is int, "declared_n")
    tau, limit = float(tau), declared_n or grid  # no f reaches the grid

    triple = plan_grid = fresh_view = None
    replayed = []  # the plan's claims, then each entry's CRT record
    if plan is not None:
        _require(type(plan) is dict, "plan")
        plan_grid, moduli, views = map(plan.get, ("m", "moduli", "verify_views"))
        _require(type(plan_grid) is int and plan_grid >= 1, "plan.m")
        _require(type(plan.get("gamma12")) is int, "plan.gamma12")
        _require(type(plan.get("gamma23")) is int, "plan.gamma23")
        _require(type(moduli) is list and len(moduli) == 3
                 and all(type(m) is int for m in moduli), "plan.moduli")
        _require(views is None or type(views) is list, "plan.verify_views")
        for j, view in enumerate(views or ()):
            where = f"plan.verify_views[{j}]"
            _require(type(view) is dict, where)
            m, sigma, b, shifts = map(view.get, ("m", "sigma", "b", "shifts"))
            _require(type(m) is int and m >= 1 and plan_grid % m == 0, where + ".m")
            _require(type(sigma) is int and 1 <= sigma < plan_grid
                     and math.gcd(sigma, plan_grid) == 1, where + ".sigma")
            _require(type(b) is int and 0 <= b < m, where + ".b")
            _require(type(shifts) is int and shifts in (2, 3), where + ".shifts")
            fresh_view = fresh_view or (m, shifts)
        try:
            triple = ModTriple.create(*moduli)
        except (ValueError, NotCoprimeError) as exc:
            replayed.append(f"bad-moduli: {exc}")
            fresh_view = None
        else:
            if triple.M != plan_grid:
                replayed.append("plan-product-mismatch")
            if plan_grid != grid:
                replayed.append("plan-grid-mismatch")
            if (triple.gamma12, triple.gamma23) != (plan["gamma12"], plan["gamma23"]):
                replayed.append("plan-inverse-mismatch")
            m1, m2, m3, g12, g23 = *triple.moduli, triple.gamma12, triple.gamma23
            m12 = m1 * m2

    freqs, coeffs, low, above = [], [], [], []
    ordered, last, lo, hi = True, -1, -_FLOAT_MAX, _FLOAT_MAX
    for i, entry in enumerate(recovered):
        if type(entry) is not dict:
            raise _malformed(f"recovered[{i}]")
        f, re, im, crt = entry.get("f"), entry.get("re"), entry.get("im"), entry.get("crt")
        if type(f) is not int or not 0 <= f < grid:
            raise _malformed(f"recovered[{i}].f")
        if (type(re) is not float and type(re) is not int) or not lo <= re <= hi:
            raise _malformed(f"recovered[{i}].re")
        if (type(im) is not float and type(im) is not int) or not lo <= im <= hi:
            raise _malformed(f"recovered[{i}].im")
        if re or im:
            c = complex(re, im)
            if f <= last:
                ordered = False
            last = f
            freqs.append(f)  # read for the repeated-frequency check
            if fresh_view is not None:
                coeffs.append(c)
            try:
                if abs(c) < tau:
                    low.append((f, abs(c)))
            except OverflowError:  # a magnitude past float64 clears any threshold
                pass
            if f >= limit:
                above.append(f)
        if crt is not None:
            if type(crt) is not dict:
                raise _malformed(f"recovered[{i}].crt")
            r1, r2, r3 = crt.get("r1"), crt.get("r2"), crt.get("r3")
            u2, u3 = crt.get("u2"), crt.get("u3")
            if not type(r1) is type(r2) is type(r3) is type(u2) is type(u3) is int:
                key = next(k for k in _CRT_KEYS if type(crt.get(k)) is not int)
                raise _malformed(f"recovered[{i}].crt.{key}")
        if triple is None:
            continue
        if crt is None:
            replayed.append(f"missing-crt-record: f={f}")
        elif r1 != f % m1 or r2 != f % m2 or r3 != f % m3:
            replayed.append(f"residue-mismatch: f={f}")
        else:
            # Garner's digits from the residues, not numtheory.garner_digits,
            # which wrote them by division: replay checks build_certificate
            # with a different computation
            d2 = (r2 - r1) % m2 * g12 % m2
            d3 = (r3 - r1 - d2 * m1) % m3 * g23 % m3
            if r1 + d2 * m1 + d3 * m12 != f or d2 != u2 or d3 != u3:
                replayed.append(f"garner-replay-failed: f={f}")

    if not ordered:
        if len(set(freqs)) < len(freqs):
            raise ParseError("certificate field recovered lists a frequency twice")
        low.sort()
        above.sort()
    spectrum = None
    if fresh_view is not None:
        freqs = np.fromiter(freqs, np.int64, len(freqs))
        coeffs = np.fromiter(coeffs, np.complex128, len(coeffs))
        if not ordered:
            order = np.argsort(freqs)
            freqs, coeffs = freqs[order], coeffs[order]
        spectrum = SparseSpectrum(freqs, coeffs, grid)
    violations = [f"amplitude-below-threshold: f={f} |a|={a:.3e} < {tau:.3e}" for f, a in low]
    violations += [f"frequency-above-declared-n: f={f} >= {declared_n}" for f in above]
    return ReplayFields(grid, spectrum, violations + replayed, plan_grid, fresh_view)


def verify_certificate(
    cert: Certificate,
    source: SignalSource,
    config: Config | None = None,
) -> list[str]:
    """Re-derive every certificate claim from scratch; empty list means valid.

    `parse_certificate` checks the payload and the claims that need no
    signal; this adds the signal's grid and one fresh two-part test
    (`check_view`) of the recovered spectrum on the first verification view,
    at the tolerance every run records.  `config` is not read; it stays for
    callers that pass the run's config.
    """
    fields = parse_certificate(cert.payload)
    violations = []
    if source.grid_length != fields.grid_length:
        violations.append(f"signal-grid-mismatch: signal grid {source.grid_length} "
                          f"!= certificate grid {fields.grid_length}")
    violations += fields.violations
    if fields.fresh_view is not None and source.grid_length == fields.plan_grid:
        m, shifts = fields.fresh_view
        check = check_view(build_view(source, m, shifts=shifts), fields.spectrum)
        if check.parseval_gap > check.epsilon:
            violations.append(f"fresh-parseval-failed: {check.parseval_gap:.3e}")
        if check.residual_energy > check.epsilon:
            violations.append(f"fresh-residual-failed: {check.residual_energy:.3e}")
    return violations

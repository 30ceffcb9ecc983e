"""End-to-end orchestration: plan, views, peel, verify, accept or fall back.

A run always answers on the source's own grid; nothing is padded behind the
caller's back.  The fast path is accepted only when the plan's grid is the
source's grid, peeling completes and every verification view confirms the
candidate.  The verification views are read with the identification views,
before peeling (`build_views`: one sample read and one transform per
modulus); they do not depend on the candidate, and a run that falls back
after peeling has still read them and is charged for them under "verify".
Any failure routes to the dense fallback, which materializes the grid,
transforms it, and returns the top-k bins exactly.  The certificate names
the failure in fallback_reason: "forced", "too-short", "dense-regime",
"grid-ceiling" (no plan under the int64 grid ceiling), "grid-mismatch",
"peeling-two-core", "peeling-stagnated", "candidate-overflow" or
"verification-failed".
A stuck peel and a failed verification are final: a fresh hash over the
same moduli only relabels each view's bins, and a verdict is a pure function
of the source, the view parameters and the candidate.
Every run emits a self-contained certificate from which a third party can
replay the moduli, each reconstruction, and one fresh verification view
against nothing but the certificate and the signal.  It records no residue
sets and no gate table: the fast path never enumerates pairs, and no replay
reads either.  Older certificates that carry `residue_sets`, `gated_pairs`
or `plan.alpha` still parse and replay; replay ignores those keys.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dft
from .config import Config, _is_int, _is_number
from .errors import (
    DenseRegimeError,
    NonFiniteError,
    NotCoprimeError,
    OracleCapExceededError,
    ParseError,
)
from .numtheory import ModTriple, garner3_parts
from .opcount import OpCounter
from .peeling import PeelState, PeelStatus, run_peeling
from .peeling import build_view_recursive  # noqa: F401  looked up by the benchmark tracer
from .planner import MIN_PLAN_LENGTH, ModuliPlan, ViewParams, make_plan
from .planner import rehash  # noqa: F401  looked up by the benchmark tracer
from .signal import SignalSource, SparseSpectrum, from_dense
from .verification import VerificationReport, check_view, verify
from .views import build_view, build_views, top_k_order
from .gating import extract_residues  # noqa: F401  looked up by the benchmark tracer
from .views import build_view_from_spectrum  # noqa: F401  looked up by the benchmark tracer


# The certificate's amplitude floor, relative to the largest recovered amplitude.
AMPLITUDE_THRESHOLD_REL = 1e-6


class RecoveryPath(enum.Enum):
    FAST = "fast"
    FALLBACK = "fallback"


def _is_positive(value) -> bool:
    return _is_int(value) and value >= 1


def _is_list(value) -> bool:
    return isinstance(value, list)


def _optional(check):
    return lambda value: value is None or check(value)


def _in_range(stop: int):
    return lambda value: _is_int(value) and 0 <= value < stop


def _check_fields(record, where: str, **checks) -> None:
    """Raise ParseError naming the first field of `record` that fails its check."""
    if not isinstance(record, dict):
        raise ParseError(f"certificate field {where.rstrip('.') or 'payload'} is not an object")
    for key, check in checks.items():
        if not check(record.get(key)):  # an absent key reads as None
            raise ParseError(f"certificate field {where}{key} is missing or malformed")


def _check_view(view, where: str, M: int) -> None:
    """A view replay can build: m divides M, sigma in [1, M) is a unit mod M, b in [0, m)."""
    _check_fields(view, where, m=lambda v: _is_positive(v) and M % v == 0,
                  sigma=lambda v: _is_int(v) and 1 <= v < M and math.gcd(v, M) == 1,
                  shifts=lambda v: _is_int(v) and v in (2, 3))
    _check_fields(view, where, b=_in_range(view["m"]))


def _check_replay_fields(p: dict) -> None:
    """Raise ParseError unless every field replay reads is present, typed and in range."""
    _check_fields(p, "", recovered=_is_list, grid_length=_is_positive,
                  amplitude_threshold=_is_number, declared_n=_optional(_is_int),
                  plan=_optional(lambda v: isinstance(v, dict)))
    for i, entry in enumerate(p["recovered"]):
        where = f"recovered[{i}]."
        _check_fields(entry, where, f=_in_range(p["grid_length"]), re=_is_number, im=_is_number)
        if entry.get("crt") is not None:
            _check_fields(entry["crt"], where + "crt.", r1=_is_int, r2=_is_int, r3=_is_int,
                          u2=_is_int, u3=_is_int)
    plan = p.get("plan")
    if plan is None:
        return
    _check_fields(plan, "plan.", m=_is_positive, gamma12=_is_int, gamma23=_is_int,
                  moduli=lambda v: _is_list(v) and len(v) == 3 and all(map(_is_int, v)),
                  verify_views=_optional(_is_list))
    for i, view in enumerate(plan.get("verify_views") or []):
        _check_view(view, f"plan.verify_views[{i}].", plan["m"])


@dataclass(frozen=True)
class Certificate:
    """Replayable audit record of one recovery run."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed certificate: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != "crtfft-certificate/1":
            raise ParseError("not a crtfft certificate")
        _check_replay_fields(payload)
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
            "spectrum": {
                "grid_length": self.spectrum.grid_length,
                "entries": [
                    {"f": int(f), "re": float(c.real), "im": float(c.imag)}
                    for f, c in self.spectrum.entries
                ],
            },
            "op_counts": self.op_counts,
            "certificate": self.certificate.payload,
        }


def dense_fallback(
    source: SignalSource,
    k: int,
    config: Config | None = None,
    op: OpCounter | None = None,
) -> SparseSpectrum:
    """Exact dense transform of the grid, reduced to its top-k bins.

    The grid is read once into a buffer this call owns (`materialize`) and
    transformed in place.  Selection runs on the raw transform's magnitudes:
    magnitude descending, then frequency ascending.  Only the reported bins
    are divided by M; the grid itself is never normalized.
    Bins at roundoff level (1e-12 of the peak) are not reported, so asking
    for more tones than the signal holds returns only the occupied bins.
    A transform that overflows float64 (an infinite or NaN bin) raises
    NonFiniteError instead of answering with nothing.
    """
    cfg = config or Config()
    M = source.grid_length
    if M > cfg.dense_budget:
        raise OracleCapExceededError(
            f"grid length {M} exceeds the dense budget {cfg.dense_budget}"
        )
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
    occupied = mags > 1e-12 * peak
    if np.count_nonzero(occupied) <= k:
        top = np.flatnonzero(occupied)
    else:
        # every one of the k largest bins clears the floor
        top = np.sort(top_k_order(mags, None, k))
    coeffs = spectrum[top] / M
    if op is not None:
        op.add("fallback", M + dft.fft_op_count(M) + M + top.size)
    # The selection already gives distinct, sorted, in-range frequencies and
    # finite coefficients; only a bin that underflows to 0 on division is dropped.
    nonzero = coeffs != 0
    return SparseSpectrum(tuple(zip(top[nonzero].tolist(), coeffs[nonzero].tolist())), M)


def sparse_fft(
    source: SignalSource,
    k: int,
    config: Config | None = None,
    seed: int = 0,
    op: OpCounter | None = None,
    corrupt_candidate=None,
) -> RecoveryResult:
    """Recover the k-sparse spectrum of `source` with a certificate.

    The answer is on source.grid_length.  The fast path runs only when the
    plan's modulus product equals that grid (synthesize on make_plan(...).M
    to get it); any other grid takes the dense fallback on the source's own
    grid, with reason "grid-mismatch" and no plan in the certificate.  A
    nominal length below MIN_PLAN_LENGTH has no plan and falls back with
    reason "too-short", and one with no plan under the int64 grid ceiling
    with reason "grid-ceiling".

    `corrupt_candidate` is test instrumentation: it maps the candidate
    spectrum to a corrupted one just before verification, to exercise the
    fallback guarantee.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    k = int(k)
    cfg = config or Config()
    op = op if op is not None else OpCounter()
    N = cfg.nominal_length or source.original_length

    fallback_reason = None
    plan = None
    peel_status = None
    report = None
    candidate = None

    if cfg.force_fallback:
        fallback_reason = "forced"
    elif N < MIN_PLAN_LENGTH:
        fallback_reason = f"too-short: N = {N} < {MIN_PLAN_LENGTH} has no three-view plan"
    else:
        try:
            plan = make_plan(N, k, cfg.t, seed, cfg)
        except DenseRegimeError as exc:
            fallback_reason = f"dense-regime: {exc}"
        except OracleCapExceededError as exc:
            fallback_reason = f"grid-ceiling: {exc}"

    if plan is not None and plan.M != source.grid_length:
        fallback_reason = f"grid-mismatch: source grid {source.grid_length} != plan grid {plan.M}"
        plan = None

    if plan is not None and fallback_reason is None:
        phases = ("views",) * len(plan.id_views) + ("verify",) * len(plan.verify_views)
        built = build_views(source, plan.id_views + plan.verify_views, plan.M, op, phases)
        views, verify_views = built[: len(plan.id_views)], built[len(plan.id_views) :]
        outcome = run_peeling(PeelState.create(views, plan.M, op), plan)
        peel_status = outcome.status

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
            candidate = SparseSpectrum(tuple(zip(freqs.tolist(), coeffs.tolist())), plan.M)
            if corrupt_candidate is not None:
                candidate = corrupt_candidate(candidate)
            report = verify(verify_views, candidate, cfg, op)
            if not report.overall:
                fallback_reason = "verification-failed"

    if fallback_reason is None and plan is not None and candidate is not None:
        result_spectrum = candidate
        path = RecoveryPath.FAST
    else:
        result_spectrum = dense_fallback(source, k, cfg, op)
        path = RecoveryPath.FALLBACK

    cert = build_certificate(
        plan=plan,
        seed=seed,
        spectrum=result_spectrum,
        report=report,
        path=path,
        fallback_reason=fallback_reason,
        declared_n=cfg.nominal_length,
        k=k,
    )
    return RecoveryResult(
        spectrum=result_spectrum,
        path=path,
        certificate=cert,
        op_counts=op.snapshot(),
        peel_status=peel_status,
        verification=report,
    )


def sparse_fft_dense(samples, k: int, config: Config | None = None, seed: int = 0, **kw):
    """Recover the spectrum of a raw buffer on its own length-N grid."""
    return sparse_fft(from_dense(samples), k, config, seed, **kw)


# ---------------------------------------------------------------------------
# Certificates


def _view_dict(vp: ViewParams) -> dict:
    return {"m": vp.m, "sigma": vp.sigma, "b": vp.b, "shifts": vp.shift_count}


def build_certificate(
    plan: ModuliPlan | None,
    seed: int,
    spectrum: SparseSpectrum,
    report: VerificationReport | None,
    path: RecoveryPath,
    fallback_reason: str | None,
    declared_n: int | None,
    k: int,
) -> Certificate:
    """Assemble the audit record for one run.

    Every recovered frequency carries its residues and Garner digits so the
    reconstruction can be replayed, and a fast-path plan records its views so
    a verification view can be rebuilt from the signal.  Residue sets and
    gate tables are not recorded: both are pure functions of the plan and
    the signal, and no replay reads them.  The escalation
    record keeps `rehashes` and `extra_verify_views` for readers of the
    format; no run rehashes or draws extra verification views, so both are
    always 0.
    """
    amplitudes = [abs(c) for _, c in spectrum.entries]
    tau = AMPLITUDE_THRESHOLD_REL * max(amplitudes, default=0.0)
    payload: dict = {
        "format": "crtfft-certificate/1",
        "k": k,
        "seed": seed,
        "path": path.value,
        "fallback_reason": fallback_reason,
        "escalation": {"rehashes": 0, "extra_verify_views": 0},
        "amplitude_threshold": tau,
        "declared_n": declared_n,
        "grid_length": spectrum.grid_length,
        "recovered": [],
        "plan": None,
        "verification": report.to_dict() if report is not None else None,
    }
    if plan is not None:
        payload["plan"] = {
            "n": plan.N,
            "k": plan.k,
            "m": plan.M,
            "moduli": list(plan.triple.moduli),
            "gamma12": plan.triple.gamma12,
            "gamma23": plan.triple.gamma23,
            "id_views": [_view_dict(v) for v in plan.id_views],
            "verify_views": [_view_dict(v) for v in plan.verify_views],
        }
        m1, m2, m3 = plan.triple.moduli
        gamma12, gamma23 = plan.triple.gamma12, plan.triple.gamma23
        recovered = payload["recovered"]
        # entries hold Python ints and complexes; the digits are
        # numtheory.garner3_parts's, written out for one pass per entry
        for f, c in spectrum.entries:
            r1, r2, r3 = f % m1, f % m2, f % m3
            u2 = (r2 - r1) % m2 * gamma12 % m2
            u3 = (r3 - r1 - u2 * m1) % m3 * gamma23 % m3
            recovered.append({"f": f, "re": c.real, "im": c.imag,
                              "crt": {"r1": r1, "r2": r2, "r3": r3, "u2": u2, "u3": u3}})
    else:
        # entries hold Python ints and complexes, which serialize as they are
        payload["recovered"] = [
            {"f": f, "re": c.real, "im": c.imag, "crt": None} for f, c in spectrum.entries
        ]
    return Certificate(payload=payload)


def verify_certificate(
    cert: Certificate,
    source: SignalSource,
    config: Config | None = None,
) -> list[str]:
    """Re-derive every certificate claim from scratch; empty list means valid.

    Checks: the signal's grid against the certificate's, moduli
    consistency, Garner replay of every recovered frequency (digits and
    reconstruction), range against the declared nominal length, amplitudes
    against the recorded threshold, and one fresh two-part test (`check_view`)
    of the recovered spectrum against the signal.  Keys that older
    certificates carry and replay does not read (`residue_sets`,
    `gated_pairs`, `plan.alpha`) are ignored.
    """
    cfg = config or Config()
    violations: list[str] = []
    p = cert.payload
    plan_info = p.get("plan")
    try:
        spectrum = SparseSpectrum.from_pairs(
            [(e["f"], complex(e["re"], e["im"])) for e in p["recovered"]],
            p["grid_length"],
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"certificate recovered list malformed: {exc}") from exc
    if source.grid_length != spectrum.grid_length:
        violations.append(
            f"signal-grid-mismatch: signal grid {source.grid_length} "
            f"!= certificate grid {spectrum.grid_length}"
        )

    tau = float(p.get("amplitude_threshold", 0.0))
    for f, c in spectrum.entries:
        if abs(c) < tau:
            violations.append(f"amplitude-below-threshold: f={f} |a|={abs(c):.3e} < {tau:.3e}")

    declared_n = p.get("declared_n")
    if declared_n:
        for f, _ in spectrum.entries:
            if f >= declared_n:
                violations.append(f"frequency-above-declared-n: f={f} >= {declared_n}")

    if plan_info is not None:
        try:
            triple = ModTriple.create(*plan_info["moduli"])
        except (ValueError, NotCoprimeError) as exc:
            violations.append(f"bad-moduli: {exc}")
            return violations
        if triple.M != plan_info["m"]:
            violations.append("plan-product-mismatch")
        if plan_info["m"] != spectrum.grid_length:
            violations.append("plan-grid-mismatch")
        if triple.gamma12 != plan_info["gamma12"] or triple.gamma23 != plan_info["gamma23"]:
            violations.append("plan-inverse-mismatch")
        for entry in p["recovered"]:
            f = entry["f"]
            crt = entry.get("crt")
            if crt is None:
                violations.append(f"missing-crt-record: f={f}")
                continue
            expected = (f % triple.m1, f % triple.m2, f % triple.m3)
            if (crt["r1"], crt["r2"], crt["r3"]) != expected:
                violations.append(f"residue-mismatch: f={f}")
                continue
            g, u2, u3 = garner3_parts(crt["r1"], crt["r2"], crt["r3"], triple)
            if g != f or u2 != crt["u2"] or u3 != crt["u3"]:
                violations.append(f"garner-replay-failed: f={f}")
        verify_views = plan_info.get("verify_views") or []
        if verify_views and source.grid_length == plan_info["m"]:
            # the one view replay rebuilds is checked here too, so a payload
            # that did not come through from_json fails as a ParseError
            v = verify_views[0]
            _check_view(v, "plan.verify_views[0].", source.grid_length)
            vp = ViewParams(m=v["m"], sigma=v["sigma"], b=v["b"], shift_count=v["shifts"])
            check = check_view(build_view(source, vp, source.grid_length), spectrum,
                               cfg.verify_eps_rel)
            if check.parseval_gap > check.epsilon:
                violations.append(f"fresh-parseval-failed: {check.parseval_gap:.3e}")
            if check.residual_energy > check.epsilon:
                violations.append(f"fresh-residual-failed: {check.residual_energy:.3e}")
    return violations

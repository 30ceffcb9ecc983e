"""End-to-end orchestration: plan, views, peel, verify, accept or fall back.

A run always answers on the source's own grid; nothing is padded behind the
caller's back.  The fast path is accepted only when the plan's grid is the
source's grid, peeling completes and every verification view confirms the
candidate.  The verification views are read with the identification views,
before peeling (`build_views`: one sample read and one transform per
modulus); they do not depend on the candidate, and a run that falls back
after peeling has still read them and is charged for them under "verify".
Any failure (a length too short for a plan, grid mismatch, dense regime, a
residual that peeling leaves stuck, too many candidates, or a failed
verification) routes to the dense fallback, which materializes the grid,
transforms it, and returns the top-k bins exactly.
A stuck peel and a failed verification are final: a fresh hash over the
same moduli only relabels each view's bins, and a verdict is a pure function
of the source, the view parameters and the candidate.
Every run emits a self-contained certificate from which a third party can
replay the moduli, the residue sets, each reconstruction, and the
verification outcomes against nothing but the certificate and the signal.
"""

from __future__ import annotations

import enum
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import dft
from .config import Config, _is_int, _is_number
from .errors import (
    DenseRegimeError,
    NotCoprimeError,
    OracleCapExceededError,
    ParseError,
)
from .gating import gate_pairs
from .numtheory import ModTriple, garner2, garner3_parts
from .opcount import OpCounter
from .peeling import PeelState, PeelStatus, run_peeling
from .peeling import build_view_recursive  # noqa: F401  looked up by the benchmark tracer
from .planner import MIN_PLAN_LENGTH, ModuliPlan, ViewParams, make_plan
from .planner import rehash  # noqa: F401  looked up by the benchmark tracer
from .signal import SignalSource, SparseSpectrum, from_dense
from .verification import VerificationReport, check_view, verify
from .views import ResidueSet, build_view, build_views, extract_residues, top_k_order
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
    _check_fields(view, where, m=lambda v: _is_positive(v) and M % v == 0, sigma=_is_int,
                  b=_is_int, shifts=lambda v: _is_int(v) and v in (2, 3))


def _check_replay_fields(p: dict) -> None:
    """Raise ParseError unless every field replay reads is present, typed and in range."""
    _check_fields(p, "", recovered=_is_list, grid_length=_is_positive,
                  amplitude_threshold=_is_number, declared_n=_optional(_is_int),
                  plan=_optional(lambda v: isinstance(v, dict)),
                  gated_pairs=_optional(_is_list), residue_sets=_optional(_is_list))
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
    if p.get("gated_pairs") is None or not p.get("residue_sets"):
        return
    m1, m2, _ = plan["moduli"]
    for i, row in enumerate(p["gated_pairs"]):
        if not (_is_list(row) and len(row) == 5 and _in_range(m1)(row[0])
                and _in_range(m2)(row[1]) and all(map(_is_int, row[2:4]))
                and isinstance(row[4], bool)):
            raise ParseError(f"certificate field gated_pairs[{i}] is malformed")
    sets, views = p["residue_sets"], plan.get("id_views")
    if len(sets) < 3 or not _is_list(views) or len(views) < 3:
        raise ParseError("certificate gate trail needs 3 residue sets and 3 id views")
    _check_fields(sets[2], "residue_sets[2].", bins=lambda v: _is_list(v) and all(map(_is_int, v)))
    for i, view in enumerate(views):
        _check_view(view, f"plan.id_views[{i}].", plan["m"])


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

    The grid is read once into a buffer this call owns (`materialize`), and
    that buffer is transformed and normalized in place, so no second
    length-M spectrum is allocated.  Deterministic tie-break: magnitude
    descending, then frequency ascending.
    Bins at roundoff level (1e-12 of the peak) are not reported, so asking
    for more tones than the signal holds returns only the occupied bins.
    """
    cfg = config or Config()
    M = source.grid_length
    if M > cfg.dense_budget:
        raise OracleCapExceededError(
            f"grid length {M} exceeds the dense budget {cfg.dense_budget}"
        )
    spectrum = source.materialize()
    dft.dft_forward(spectrum, out=spectrum)
    spectrum /= M
    if op is not None:
        op.add("fallback", M + dft.fft_op_count(M) + 2 * M)
    mags = np.abs(spectrum)
    peak = float(mags.max(initial=0.0))
    occupied = np.flatnonzero(mags > 1e-12 * max(peak, 1e-300))
    top = np.sort(occupied[top_k_order(mags[occupied], occupied, k)])
    return SparseSpectrum.from_pairs(zip(top.tolist(), spectrum[top].tolist()), M)


def _top_k(entries: dict[int, complex], k: int, grid: int) -> SparseSpectrum:
    freqs = np.fromiter(entries, dtype=np.int64, count=len(entries))
    coeffs = np.fromiter(entries.values(), dtype=np.complex128, count=len(entries))
    keep = top_k_order(np.abs(coeffs), freqs, k)
    return SparseSpectrum.from_pairs(zip(freqs[keep].tolist(), coeffs[keep].tolist()), grid)


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
    reason "too-short".

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
    residue_sets: list[ResidueSet] = []
    recovered: dict[int, complex] = {}
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

    if plan is not None and plan.M != source.grid_length:
        fallback_reason = f"grid-mismatch: source grid {source.grid_length} != plan grid {plan.M}"
        plan = None

    if plan is not None and fallback_reason is None:
        phases = ("views",) * len(plan.id_views) + ("verify",) * len(plan.verify_views)
        built = build_views(source, plan.id_views + plan.verify_views, plan.M, op, phases)
        views, verify_views = built[: len(plan.id_views)], built[len(plan.id_views) :]
        # a residue set never holds more than m <= M bins; clamping before
        # the int conversion keeps a huge alpha from overflowing
        alpha_k = max(1, int(round(min(cfg.alpha * max(k, 1), plan.M))))
        residue_sets = [extract_residues(v, alpha_k) for v in views]
        outcome = run_peeling(PeelState.create(views, plan.M, op), plan)
        peel_status = outcome.status
        recovered = dict(outcome.recovered.entries)

        if outcome.status is not PeelStatus.COMPLETE:
            fallback_reason = f"peeling-{outcome.status.value}"
        elif k and len(recovered) > 2 * k:
            fallback_reason = f"candidate-overflow: {len(recovered)} > 2k"
        else:
            candidate = _top_k(recovered, k, plan.M)
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
        config=cfg,
        seed=seed,
        spectrum=result_spectrum,
        residue_sets=residue_sets,
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
    config: Config,
    seed: int,
    spectrum: SparseSpectrum,
    residue_sets,
    report: VerificationReport | None,
    path: RecoveryPath,
    fallback_reason: str | None,
    declared_n: int | None,
    k: int,
) -> Certificate:
    """Assemble the audit record for one run.

    Every recovered frequency carries its residues and Garner digits so the
    reconstruction can be replayed; the gate table is included only when
    configured, since the fast path does not enumerate pairs.  The escalation
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
        "residue_sets": None,
        "gated_pairs": None,
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
            "alpha": config.alpha,
            "id_views": [_view_dict(v) for v in plan.id_views],
            "verify_views": [_view_dict(v) for v in plan.verify_views],
        }
        payload["residue_sets"] = [
            {
                "view": i,
                "bins": rs.indices.tolist(),
                "magnitudes": rs.magnitudes.tolist(),
                "capacity": rs.capacity,
            }
            for i, rs in enumerate(residue_sets)
        ]
        triple = plan.triple
        for f, c in spectrum.entries:
            r1, r2, r3 = f % triple.m1, f % triple.m2, f % triple.m3
            _, u2, u3 = garner3_parts(r1, r2, r3, triple)
            payload["recovered"].append(
                {
                    "f": int(f),
                    "re": float(c.real),
                    "im": float(c.imag),
                    "crt": {"r1": r1, "r2": r2, "r3": r3, "u2": u2, "u3": u3},
                }
            )
        if config.gate_trail and len(residue_sets) == 3:
            table = gate_pairs(
                residue_sets[0], residue_sets[1], residue_sets[2], triple, plan.id_views
            )
            payload["gated_pairs"] = [
                [g.r1, g.r2, g.f12, g.r3_hat, g.passed] for g in table
            ]
    else:
        for f, c in spectrum.entries:
            payload["recovered"].append(
                {"f": int(f), "re": float(c.real), "im": float(c.imag), "crt": None}
            )
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
    against the recorded threshold, gate-table membership when a gate trail
    is present, and one fresh two-part test (`check_view`) of the recovered
    spectrum against the signal.
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
        if p.get("gated_pairs") is not None and p.get("residue_sets"):
            bins3 = set(p["residue_sets"][2]["bins"])
            id_views = tuple(
                ViewParams(m=v["m"], sigma=v["sigma"], b=v["b"], shift_count=v["shifts"])
                for v in plan_info["id_views"]
            )
            for r1, r2, f12, r3_hat, passed in p["gated_pairs"]:
                if garner2(r1, r2, triple.m1, triple.m2) != f12:
                    violations.append(f"gate-crt-mismatch: pair ({r1}, {r2})")
                    continue
                predicted = int((id_views[2].a * (f12 % triple.m3) + id_views[2].b) % triple.m3)
                if predicted != r3_hat:
                    violations.append(f"gate-prediction-mismatch: pair ({r1}, {r2})")
                elif passed != (r3_hat in bins3):
                    violations.append(f"gate-verdict-mismatch: pair ({r1}, {r2})")
        verify_views = plan_info.get("verify_views") or []
        if verify_views:
            vp = ViewParams(
                m=verify_views[0]["m"],
                sigma=verify_views[0]["sigma"],
                b=verify_views[0]["b"],
                shift_count=verify_views[0]["shifts"],
            )
            if source.grid_length == plan_info["m"]:
                check = check_view(
                    build_view(source, vp, plan_info["m"]), spectrum, cfg.verify_eps_rel
                )
                if check.parseval_gap > check.epsilon:
                    violations.append(f"fresh-parseval-failed: {check.parseval_gap:.3e}")
                if check.residual_energy > check.epsilon:
                    violations.append(f"fresh-residual-failed: {check.residual_energy:.3e}")
    return violations

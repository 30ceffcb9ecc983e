"""The `crtfft-certificate/1` format: the one module that writes and parses it.

Every run emits a self-contained certificate from which a third party can
replay the moduli, each reconstruction, and the first verification view,
rebuilt from nothing but the certificate and the signal.  It records no
residue sets and no gate table: the fast path never enumerates pairs.
`build_certificate` writes a run's record; `parse_certificate` states every
field replay reads and is the one check of a payload, run by both
`Certificate.from_json` and `pipeline.verify_certificate`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotCoprimeError, ParseError
from .numtheory import ModTriple
from .planner import SHIFT_COUNT
from .signal import _INT64_MAX, SparseSpectrum
from .verification import VERIFY_EPS_REL, VerificationReport
from .views import NOISE_FLOOR_REL

_FLOAT_MAX = sys.float_info.max
_CRT_KEYS = ("r1", "r2", "r3", "u2", "u3")


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


def _view_dict(m: int) -> dict:
    # every view reads j*M/m + s and puts f in bin f mod m: the format's identity (sigma, b)
    return {"m": m, "sigma": 1, "b": 0, "shifts": SHIFT_COUNT}


def _finite_or_none(x: float) -> float | None:
    # JSON has no inf or NaN: a figure past float64 is written as null
    return x if math.isfinite(x) else None


def build_certificate(
    plan: ModTriple | None,
    seed: int,
    spectrum: SparseSpectrum,
    report: VerificationReport | None,
    fallback_reason: str | None,
    declared_n: int | None,
    k: int,
) -> Certificate:
    """Assemble the audit record for one run.

    The path is "fast" exactly when no fallback reason is given.  A plan
    records its planning length n: declared_n when given, else the grid.
    Every recovered frequency carries its residues and mixed-radix digits,
    f = r1 + u2*m1 + u3*m1*m2, so the reconstruction can be replayed; they
    are read from f by division, and replay recomputes the digits from the
    residues by Garner's formula.  A fast-path plan records its views, one
    per modulus, as both the identification and the verification views, so
    a verification view can be rebuilt from the signal.  Residue sets and
    gate tables are not recorded: both are pure functions of the plan and
    the signal, and no replay reads them.  The escalation record keeps
    `rehashes` and `extra_verify_views`, and the verification record its
    `unverified` flag, for readers of the format; no run rehashes, draws
    extra verification views or skips verification, so they are always 0,
    0 and false.
    """
    freqs, coeffs = spectrum.freqs.tolist(), spectrum.coeffs.tolist()
    crts = [None] * len(freqs)
    if plan is not None:
        m1, m2, m3 = plan.moduli
        crts = [{"r1": f % m1, "r2": f % m2, "r3": f % m3,
                 "u2": f // m1 % m2, "u3": f // (m1 * m2)} for f in freqs]
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
            "n": declared_n or spectrum.grid_length,
            "k": k,
            "m": plan.M,
            "moduli": list(plan.moduli),
            "gamma12": plan.gamma12,
            "gamma23": plan.gamma23,
            "id_views": [_view_dict(m) for m in plan.moduli],
            "verify_views": [_view_dict(m) for m in plan.moduli],
        },
        "verification": None if report is None else {
            "overall": report.overall,
            "unverified": False,
            "epsilon_rel": VERIFY_EPS_REL,
            "views": [{"modulus": v.modulus,
                       "parseval_gap": _finite_or_none(v.parseval_gap),
                       "residual_energy": _finite_or_none(v.residual_energy),
                       "epsilon": _finite_or_none(v.epsilon),
                       "passed": v.passed} for v in report.views],
        },
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
    fresh_view: int | None  # the modulus of the view replay rebuilds on plan_grid


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
                           shifts: 2 or 3 (runs record 3)

    The `verification` record (null where a figure passed float64) is not
    read: replay rechecks a view itself.  Runs record amplitude_threshold as
    `NOISE_FLOOR_REL` (older runs 1e-6) times the largest |a|; replay checks at it.

    Runs record the three views of their triple as both id_views and
    verify_views, each with sigma = 1 and b = 0; older runs recorded a keyed
    (sigma, b) and could record two shifts.  Replay range-checks and ignores
    both, and rebuilds the first verification view on its m at
    `planner.SHIFT_COUNT` shifts: a keyed view read the same samples
    {j*plan.m/m + s} and held the same bins relabeled, so its energy gap and
    residual are the plain view's up to roundoff, and a two-shift residual
    sums only the first two of those three rows, so replay is no weaker.

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
            fresh_view = fresh_view or m
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
            # Garner's digits from the residues, not by division as
            # build_certificate wrote them: replay checks the writer with a
            # different computation
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

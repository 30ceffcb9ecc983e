"""The crtfft certificate format: the one module that writes and parses it.

Every run emits a self-contained certificate from which a third party can
replay the moduli, each reconstruction, and the first verification view,
rebuilt from nothing but the certificate and the signal.  Runs write format
2, `crtfft-certificate/2`: the answer as three columns, f, re and im, and
the plan as its three moduli.  Format 1, `crtfft-certificate/1`, which
earlier runs wrote, recorded each tone as an entry with its CRT record and
the plan with its inverses and views; it stays readable because such
certificates exist.  Neither records residue sets or a gate table: the fast
path never enumerates pairs.  `build_certificate` writes a run's record;
`parse_certificate` states every field replay reads in either format and is
the one check of a payload, run by both `Certificate.from_json` and
`pipeline.verify_certificate`.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import compress
from operator import lt
from typing import NamedTuple

import numpy as np

from .errors import NotCoprimeError, ParseError
from .numtheory import ModTriple
from .signal import _INT64_MAX, SparseSpectrum
from .verification import VERIFY_EPS_REL, VerificationReport
from .views import NOISE_FLOOR_REL

FORMAT = "crtfft-certificate/2"
FORMAT_1 = "crtfft-certificate/1"
_FLOAT_MAX = sys.float_info.max
_CRT_KEYS = ("r1", "r2", "r3", "u2", "u3")
_INT = {int}
_NUMBER = {int, float}


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
    """Assemble the format-2 audit record for one run.

    The path is "fast" exactly when no fallback reason is given.  The
    answer is written as three columns, f, re and im, straight from the
    spectrum's arrays, and a plan as its three moduli.  A tone's residues
    and mixed-radix digits are functions of f and the moduli, and a plan's
    views are one plain view per modulus, so replay needs no record of
    either.  Residue sets and gate tables are not recorded: both are pure
    functions of the plan and the signal, and no replay reads them.  The
    escalation record keeps `rehashes` and `extra_verify_views` for readers
    of the format; no run rehashes or draws extra verification views, so
    both are 0.
    """
    coeffs = spectrum.coeffs
    re, im = coeffs.real.tolist(), coeffs.imag.tolist()
    try:  # Python's abs: numpy's differs from it in the last ulp on some values
        tau = NOISE_FLOOR_REL * max(map(abs, map(complex, re, im)), default=0.0)
    except OverflowError:  # a magnitude past float64, exact when halved
        tau = 2 * NOISE_FLOOR_REL * max(abs(c * 0.5) for c in map(complex, re, im))
    return Certificate(payload={
        "format": FORMAT,
        "k": k,
        "seed": seed,
        "path": "fast" if fallback_reason is None else "fallback",
        "fallback_reason": fallback_reason,
        "escalation": {"rehashes": 0, "extra_verify_views": 0},
        "amplitude_threshold": tau,
        "declared_n": declared_n,
        "grid_length": spectrum.grid_length,
        # .tolist() gives Python ints and floats, which serialize as they are
        "f": spectrum.freqs.tolist(),
        "re": re,
        "im": im,
        "moduli": None if plan is None else list(plan.moduli),
        "verification": None if report is None else {
            "overall": report.overall,
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


class ReplayFields(NamedTuple):
    """What replay reads of a certificate, typed (`parse_certificate`); a
    tuple, which every replay builds at a fraction of a frozen dataclass's cost."""

    grid_length: int
    spectrum: SparseSpectrum | None  # the answer, built only when a view is replayed
    violations: list[str]  # the claims that fail without reading the signal
    plan_grid: int | None
    fresh_view: int | None  # the modulus of the view replay rebuilds on plan_grid


def parse_certificate(payload) -> ReplayFields:
    """Check the fields of a certificate payload that replay reads, and the
    claims that need no signal; other keys are ignored.  Runs write format
    2; format 1 is read.  Numbers are JSON ints or floats.  Both formats hold:

      format               "crtfft-certificate/2" or "crtfft-certificate/1"
      grid_length          int in [1, 2^63)
      amplitude_threshold  finite number >= 0
      declared_n           null or int (null and 0 declare no bound)

    Format 2 records the answer as columns, each checked whole, and its plan
    as its moduli:

      f, re, im            lists of one length; f: ints in [0, grid_length),
                           ascending and distinct; re, im: finite numbers.
                           Tone i is re[i] + im[i]*1j at f[i] (both 0: no tone)
      moduli               null or three ints

    Format 1 records each tone as an entry, and its plan with its inverses
    and views:

      recovered[i]         f: int in [0, grid_length), one tone per f; re, im:
                           finite numbers (both 0: no tone); crt: null or
                           {r1, r2, r3, u2, u3: ints}
      plan                 null or {m: int >= 1, moduli: three ints, gamma12,
                           gamma23: ints, verify_views: null or list}
      plan.verify_views[j] m: int >= 1 dividing plan.m; sigma: int in
                           [1, plan.m), coprime to plan.m; b: int in [0, m);
                           shifts: 2 or 3 (runs recorded 3)

    The `verification` record (null where a figure passed float64) is not
    read: replay rechecks a view itself.  Runs record amplitude_threshold as
    `NOISE_FLOOR_REL` (older runs 1e-6) times the largest |a|; replay checks at it.

    Replay rebuilds one view at `planner.SHIFT_COUNT` shifts on the plan's
    grid: on m1 in format 2, on the first verification view's m in format 1.
    Format-1 runs recorded the three views of their triple as both id_views
    and verify_views, each with sigma = 1 and b = 0; older runs recorded a
    keyed (sigma, b) and could record two shifts.  Replay range-checks and
    ignores both: a keyed view read the same samples {j*plan.m/m + s} and
    held the same bins relabeled, so its energy gap and residual are the
    plain view's up to roundoff, and a two-shift residual sums only the
    first two of those three rows, so replay is no weaker.

    Format 2 records no CRT record.  Its f < grid_length = m1*m2*m3 is
    checked, so a tone's residues and mixed-radix digits are functions of f
    and cannot disagree with it.  Format 1's records are replayed: residues
    from f, and digits by Garner's formula from the residues.

    A field that breaks its rule raises ParseError naming its path.  A
    well-formed claim that fails is a violation, in this order:
    amplitude-below-threshold and frequency-above-declared-n, each in
    ascending f; then, with moduli, bad-moduli (no other plan claim is then
    checked) or plan-grid-mismatch, when the plan's grid (the moduli's
    product; format 1's plan.m) is not grid_length.  Format 1 adds
    plan-product-mismatch before it, plan-inverse-mismatch after it, and
    then, in payload order, each entry's missing-crt-record,
    residue-mismatch or garner-replay-failed.
    """
    if type(payload) is not dict:
        raise ParseError("not a crtfft certificate")
    version = payload.get("format")
    if version == FORMAT:
        read = _read_columns
    elif version == FORMAT_1:
        read = _read_entries
    else:
        raise ParseError("not a crtfft certificate")
    grid, tau, declared_n = map(payload.get, ("grid_length", "amplitude_threshold", "declared_n"))
    _require(type(grid) is int and 1 <= grid <= _INT64_MAX, "grid_length")
    _require(type(tau) in (float, int) and 0 <= tau <= _FLOAT_MAX, "amplitude_threshold")
    _require(declared_n is None or type(declared_n) is int, "declared_n")
    freqs, coeffs, ordered, moduli, plan_grid, fresh_view, plan_claims = read(payload, grid)

    # the shared tail: both formats' tones as two lists, then their claims
    if 0j in coeffs:  # re = im = 0 is no tone
        freqs, coeffs = list(compress(freqs, coeffs)), list(filter(None, coeffs))
    if not ordered:
        if len(set(freqs)) < len(freqs):
            raise ParseError("certificate lists a frequency twice")
        order = sorted(range(len(freqs)), key=freqs.__getitem__)
        freqs, coeffs = [freqs[i] for i in order], [coeffs[i] for i in order]
    try:  # Python's abs, as build_certificate takes the threshold
        mags = list(map(abs, coeffs))
    except OverflowError:
        mags = list(map(_magnitude, coeffs))
    tau = float(tau)
    violations = [f"amplitude-below-threshold: f={f} |a|={a:.3e} < {tau:.3e}"
                  for f, a in zip(freqs, mags) if a < tau]
    violations += [f"frequency-above-declared-n: f={f} >= {declared_n}"
                   for f in freqs[bisect_left(freqs, declared_n or grid):]]
    if moduli is not None:
        try:
            triple = ModTriple.create(*moduli)
        except (ValueError, NotCoprimeError) as exc:
            violations.append(f"bad-moduli: {exc}")
            fresh_view = None
        else:
            plan_grid = plan_grid or triple.M  # format 2's is the moduli's product
            if triple.M != plan_grid:
                violations.append("plan-product-mismatch")
            if plan_grid != grid:
                violations.append("plan-grid-mismatch")
            if plan_claims is not None:
                violations += plan_claims(triple)

    spectrum = None
    if fresh_view is not None:
        spectrum = SparseSpectrum(np.array(freqs, np.int64), np.array(coeffs, np.complex128), grid)
    return ReplayFields(grid, spectrum, violations, plan_grid, fresh_view)


def _magnitude(c: complex) -> float:
    try:
        return abs(c)
    except OverflowError:  # a magnitude past float64 clears any threshold
        return math.inf


def _read_columns(payload: dict, grid: int):
    """Format 2's answer and moduli, each column checked in C-level passes."""
    f, re, im, moduli = map(payload.get, ("f", "re", "im", "moduli"))
    _require(type(f) is list and set(map(type, f)) <= _INT and all(map(lt, f, f[1:]))
             and (not f or 0 <= f[0] and f[-1] < grid), "f")
    _require(type(re) is list and len(re) == len(f) and set(map(type, re)) <= _NUMBER, "re")
    _require(type(im) is list and len(im) == len(f) and set(map(type, im)) <= _NUMBER, "im")
    try:  # a sum is finite only if every term is
        finite = math.isfinite(sum(re) + sum(im))
    except OverflowError:  # an int past float64
        finite = False
    if not finite:  # NaN fails both comparisons; finite terms may sum past float64
        _require(all(-_FLOAT_MAX <= x <= _FLOAT_MAX for x in re), "re")
        _require(all(-_FLOAT_MAX <= x <= _FLOAT_MAX for x in im), "im")
    if moduli is not None:
        _require(type(moduli) is list and len(moduli) == 3 and set(map(type, moduli)) <= _INT,
                 "moduli")
    fresh_view = None if moduli is None else moduli[0]
    return f, list(map(complex, re, im)), True, moduli, None, fresh_view, None


def _read_entries(payload: dict, grid: int):
    """Format 1's answer and plan, checked entry by entry."""
    recovered, plan = payload.get("recovered"), payload.get("plan")
    _require(type(recovered) is list, "recovered")
    moduli = plan_grid = fresh_view = None
    if plan is not None:
        _require(type(plan) is dict, "plan")
        plan_grid, moduli, views = map(plan.get, ("m", "moduli", "verify_views"))
        gammas = plan.get("gamma12"), plan.get("gamma23")
        _require(type(plan_grid) is int and plan_grid >= 1, "plan.m")
        _require(type(gammas[0]) is int, "plan.gamma12")
        _require(type(gammas[1]) is int, "plan.gamma23")
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

    freqs, coeffs, records = [], [], []
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
        if crt is not None:
            if type(crt) is not dict:
                raise _malformed(f"recovered[{i}].crt")
            for key in _CRT_KEYS:
                if type(crt.get(key)) is not int:
                    raise _malformed(f"recovered[{i}].crt.{key}")
        ordered = ordered and f > last
        last = f
        freqs.append(f)
        coeffs.append(complex(re, im))
        records.append((f, crt))
    plan_claims = None if plan is None else partial(_replay_crt_records, gammas, records)
    return freqs, coeffs, ordered, moduli, plan_grid, fresh_view, plan_claims


def _replay_crt_records(gammas: tuple[int, int], records: list, triple: ModTriple) -> list[str]:
    """Format 1's recorded inverses and CRT records, replayed on the moduli."""
    claims = [] if (triple.gamma12, triple.gamma23) == gammas else ["plan-inverse-mismatch"]
    m1, m2, m3, g12, g23 = *triple.moduli, triple.gamma12, triple.gamma23
    m12 = m1 * m2
    for f, crt in records:
        if crt is None:
            claims.append(f"missing-crt-record: f={f}")
            continue
        r1, r2, r3, u2, u3 = map(crt.get, _CRT_KEYS)
        if r1 != f % m1 or r2 != f % m2 or r3 != f % m3:
            claims.append(f"residue-mismatch: f={f}")
            continue
        # Garner's digits from the residues, not by division as format-1
        # writers wrote them: replay checks the writer with a different
        # computation
        d2 = (r2 - r1) % m2 * g12 % m2
        d3 = (r3 - r1 - d2 * m1) % m3 * g23 % m3
        if r1 + d2 * m1 + d3 * m12 != f or d2 != u2 or d3 != u3:
            claims.append(f"garner-replay-failed: f={f}")
    return claims

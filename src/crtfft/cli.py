"""Command-line surface.

Subcommands: transform (run a recovery), gate-table (reference 2-of-3 gate
over explicit residue sets), montecarlo (statistical experiments as CSV),
verify-cert (replay a certificate).  The montecarlo experiments verify-miss
and peel-completion measure the shipped pipeline: verify-miss checks a
corrupted candidate on the three views of the plan's triple and reads each
view's verdict from `verify`, and the paper's one-shift bin-wise test's
from `check_views` on each view's shift-0 row; peel-completion runs
`sparse_fft` and counts the trials that take the fast path (peeling
completed and all three views confirmed) with the exact answer.
Exit codes: 0 success / fast path, 2 correct-but-fallback recovery, 1 usage
or validation error.  Given a fixed seed every subcommand writes
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .config import Config, load_config
from .errors import CrtFftError, DenseRegimeError, OracleCapExceededError, ParseError
from .gating import draw_support, gate_pairs, gate_survivor_stats, trial_streams
from .numtheory import ModTriple
from .peeling import PeelStatus
from .pipeline import Certificate, RecoveryPath, sparse_fft, verify_certificate
from .planner import MIN_PLAN_LENGTH, make_plan
from .signal import (
    SparseSpectrum,
    from_dense,
    load_dense_binary,
    load_dense_csv,
    load_spectrum,
    synthesize,
)
from .verification import check_views, verify
from .views import build_views

# Previously circulated reference rows for the canonical gate-table inputs
# (moduli 7/11/13, R1={0,3,6}, R2={1,7,8,10}, R3={2,5,7,11}).  The four
# r1=3 rows are arithmetically inconsistent with the CRT congruences; the
# tool recomputes every row and flags those as corrections.
_REFERENCE_INPUTS = ((7, 11, 13), (0, 3, 6), (1, 7, 8, 10), (2, 5, 7, 11))
_REFERENCE_ROWS = {
    (0, 1): (56, 4, False),
    (0, 7): (7, 7, True),
    (0, 8): (63, 11, True),
    (0, 10): (21, 8, False),
    (3, 1): (24, 11, True),
    (3, 7): (52, 0, False),
    (3, 8): (31, 5, True),
    (3, 10): (66, 1, False),
    (6, 1): (34, 8, False),
    (6, 7): (62, 10, False),
    (6, 8): (41, 2, True),
    (6, 10): (76, 11, True),
}


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(" ", "").split(",") if part != ""]


def _parse_triple(text: str, command: str) -> ModTriple:
    """The comma-separated moduli of `command` as a triple, or a CrtFftError."""
    moduli = _parse_int_list(text)
    if len(moduli) != 3:
        raise CrtFftError(f"{command} needs exactly 3 moduli, got {len(moduli)}")
    return ModTriple.create(*moduli)


def _parse_tone_map(text: str) -> list[tuple[int, complex]]:
    """Parse '{7:1,41:1-2j}' into (frequency, coefficient) pairs."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    pairs = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        f_text, _, c_text = chunk.partition(":")
        try:
            pairs.append((int(f_text.strip()), complex(c_text.strip().replace(" ", ""))))
        except ValueError as exc:
            raise ParseError(f"bad tone {chunk!r}: {exc}") from exc
    return pairs


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_dense(path: str):
    """A dense signal file (.csv, else binary) as a source on its own length."""
    return from_dense(load_dense_csv(path) if path.endswith(".csv") else load_dense_binary(path))


def _config_from_args(args) -> Config:
    cfg = load_config(args.config) if getattr(args, "config", None) else Config()
    updates = {}
    if getattr(args, "moduli", None):
        updates["moduli_override"] = tuple(_parse_int_list(args.moduli))
    if getattr(args, "n", None) is not None:
        updates["nominal_length"] = args.n
    if getattr(args, "force_fallback", False):
        updates["force_fallback"] = True
    return replace(cfg, **updates) if updates else cfg


def cmd_transform(args) -> int:
    cfg = _config_from_args(args)
    inputs = [bool(args.synthesize), bool(args.input), bool(args.dense)]
    if sum(inputs) != 1:
        print("transform: exactly one of --synthesize/--input/--dense required", file=sys.stderr)
        return 1
    if args.synthesize or args.input:
        if args.synthesize:
            pairs = _parse_tone_map(args.synthesize)
            grid_probe = max((f for f, _ in pairs), default=0) + 1
        else:
            probe_spec = load_spectrum(args.input)
            pairs = list(probe_spec.entries)
            grid_probe = probe_spec.grid_length
        nominal = cfg.nominal_length or grid_probe
        cfg = replace(cfg, nominal_length=nominal)
        # with no plan (too short, dense regime or past the grid ceiling)
        # sparse_fft answers with the certified fallback on the nominal grid
        grid = nominal
        if nominal >= MIN_PLAN_LENGTH:
            try:
                grid = make_plan(nominal, args.k, config=cfg).M
            except (DenseRegimeError, OracleCapExceededError):
                pass
        source = synthesize(SparseSpectrum.from_pairs(pairs, grid))
    else:
        source = _load_dense(args.dense)

    result = sparse_fft(source, args.k, cfg, args.seed)
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    _write_output(text + "\n", args.output)
    return 0 if result.path is RecoveryPath.FAST else 2


def _gate_rows(args):
    triple = _parse_triple(args.moduli, "gate-table")
    r1 = _parse_int_list(args.r1) if args.r1 else []
    r2 = _parse_int_list(args.r2) if args.r2 else []
    r3 = _parse_int_list(args.r3) if args.r3 else []
    table = gate_pairs(r1, r2, r3, triple)
    reference = None
    if args.diff_published and (
        triple.moduli, tuple(r1), tuple(r2), tuple(r3)
    ) == _REFERENCE_INPUTS:
        reference = _REFERENCE_ROWS
    rows = []
    for g in table:
        note = ""
        if reference is not None:
            ref = reference.get((g.r1, g.r2))
            if ref is not None and ref != (g.f12, g.r3_hat, g.passed):
                ref_verdict = "Pass" if ref[2] else "Reject"
                note = f"corrected (published {ref[0]}/{ref[1]}/{ref_verdict})"
        rows.append((g.r1, g.r2, g.f12, g.r3_hat, "Pass" if g.passed else "Reject", note))
    return rows


def cmd_gate_table(args) -> int:
    rows = _gate_rows(args)
    if args.format == "json":
        payload = [
            {"r1": a, "r2": b, "crt": c, "r3_hat": d, "verdict": e, "note": f}
            for a, b, c, d, e, f in rows
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r1", "r2", "crt", "r3_hat", "verdict", "note"])
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = [f"{'(r1, r2)':>10} | {'CRT':>4} | {'r3_hat':>6} | verdict"]
        lines.append("-" * 42)
        for a, b, c, d, e, f in rows:
            suffix = f"  {f}" if f else ""
            lines.append(f"{f'({a}, {b})':>10} | {c:>4} | {d:>6} | {e}{suffix}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0


def _mc_gate_survivors(args, writer):
    triple = _parse_triple(args.moduli or "997,1009,1013", "gate-survivors")
    stats = gate_survivor_stats(
        N=args.n or 10**6,
        k=args.k,
        alpha=args.alpha,
        triple=triple,
        trials=args.trials,
        seed=args.seed,
    )
    writer.writerow(
        [
            "gate-survivors", args.k, args.alpha, triple.m3, args.trials,
            repr(stats.mean_false_survivors), repr(stats.stderr_false_survivors),
            repr(stats.mean_true_survivors), repr(stats.prediction_false_survivors),
        ]
    )


def _mc_singleton_fraction(args, writer):
    triple = _parse_triple(args.moduli or "997,1009,1013", "singleton-fraction")
    m_min = min(triple.moduli)
    k = args.k if args.k is not None else max(1, round(args.load * m_min))
    lam = k / m_min
    per_view = []
    across = []
    for _, rng in trial_streams(args.seed, "singleton-fraction", args.trials):
        freqs = np.array(draw_support(rng, k, triple.M), dtype=np.int64)
        isolated_any = np.zeros(k, dtype=bool)
        for m in triple.moduli:
            bins = freqs % m
            counts = np.bincount(bins, minlength=m)
            singleton = counts[bins] == 1
            per_view.append(singleton.mean())
            isolated_any |= singleton
        across.append(isolated_any.mean())
    writer.writerow(
        [
            "singleton-fraction", k, min(triple.moduli), repr(lam), args.trials,
            repr(float(np.mean(per_view))),
            repr(float(np.mean(across))),
            repr(math.exp(-lam)),
            repr(1 - (1 - math.exp(-lam)) ** 3),
        ]
    )


def _mc_verify_miss(args, writer):
    cfg = Config(nominal_length=args.n or 10**6)
    N = cfg.nominal_length
    plan = make_plan(N, args.k, config=cfg)
    m_v = plan.m1
    # view-0 and all-view slips of the full test, then of the one-shift test
    slips = [0, 0, 0, 0]
    for _, rng in trial_streams(args.seed, "verify-miss", args.trials):
        freqs = draw_support(rng, args.k, N)
        coeffs = np.exp(2j * np.pi * rng.random(args.k))
        truth = SparseSpectrum.from_pairs(zip(freqs, coeffs), plan.M)
        # Parseval-neutral corruption: swap one frequency, keep its coefficient
        victim = int(rng.integers(0, args.k))
        while True:
            wrong = int(rng.integers(0, N))
            if wrong not in freqs:
                break
        swapped = freqs[:victim] + [wrong] + freqs[victim + 1 :]
        corrupted = SparseSpectrum.from_pairs(zip(swapped, coeffs), plan.M)
        built = build_views(synthesize(truth), plan.moduli)
        full = verify(built, corrupted).views
        shift0 = check_views(replace(built, bins=built.bins[:1]), corrupted)
        for j, checks in enumerate((full, shift0)):
            slips[2 * j] += checks[0].passed
            slips[2 * j + 1] += all(c.passed for c in checks)
    writer.writerow(
        [
            "verify-miss", args.k, m_v, args.trials, *(repr(n / args.trials) for n in slips),
            repr(2 * args.k / m_v), repr((2 * args.k / m_v) ** 3),
        ]
    )


def _mc_peel_completion(args, writer):
    triple = _parse_triple(args.moduli or "97,101,103", "peel-completion")
    m_min = min(triple.moduli)
    k = args.k if args.k is not None else max(1, round(args.load * m_min))
    cfg = Config(nominal_length=triple.M, moduli_override=triple.moduli)
    completed = 0
    for seed, rng in trial_streams(args.seed, "peel-completion", args.trials):
        freqs = draw_support(rng, k, triple.M)
        coeffs = np.exp(2j * np.pi * rng.random(k))
        truth = SparseSpectrum.from_pairs(list(zip(freqs, coeffs)), triple.M)
        result = sparse_fft(synthesize(truth), k, cfg, seed)
        got = result.spectrum
        completed += bool(
            result.path is RecoveryPath.FAST
            and result.peel_status is PeelStatus.COMPLETE
            and np.array_equal(got.frequencies(), truth.frequencies())
            and np.allclose(got.coefficients(), truth.coefficients(), rtol=0, atol=1e-6)
        )
    writer.writerow(
        [
            "peel-completion", k, m_min, args.trials,
            repr(completed / args.trials), repr(0.99),
        ]
    )


_MC_HEADERS = {
    "gate-survivors": [
        "experiment", "k", "alpha", "m3", "trials",
        "mean_false_survivors", "stderr_false_survivors", "mean_true_survivors",
        "prediction",
    ],
    "singleton-fraction": [
        "experiment", "k", "m", "lambda", "trials",
        "per_view_rate", "across_view_fraction", "prediction_per_view",
        "prediction_across",
    ],
    "verify-miss": [
        "experiment", "k", "m_v", "trials",
        "one_view_slip_rate", "three_view_slip_rate", "shift0_one_view_slip_rate",
        "shift0_three_view_slip_rate", "bound_one_view", "bound_three_views",
    ],
    "peel-completion": ["experiment", "k", "m", "trials", "completion_rate", "target"],
}


def cmd_montecarlo(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.k is None and args.experiment in ("gate-survivors", "verify-miss"):
        args.k = 10
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_MC_HEADERS[args.experiment])
    if args.trials > 0:
        if args.experiment == "gate-survivors":
            _mc_gate_survivors(args, writer)
        elif args.experiment == "singleton-fraction":
            _mc_singleton_fraction(args, writer)
        elif args.experiment == "verify-miss":
            _mc_verify_miss(args, writer)
        else:
            _mc_peel_completion(args, writer)
    _write_output(buf.getvalue(), args.output)
    return 0


def cmd_verify_cert(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert = Certificate.from_json(fh.read())
    if args.signal.endswith(".json"):
        source = synthesize(load_spectrum(args.signal))
    else:
        source = _load_dense(args.signal)
    violations = verify_certificate(cert, source)
    if violations:
        for v in violations:
            print(v)
        return 1
    print("certificate valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtfft",
        description="Three-view CRT sparse FFT: recovery, gate tables, "
        "Monte Carlo experiments, certificate checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="recover a sparse spectrum")
    p.add_argument("--synthesize", help="tone map like '{7:1,41:1-2j}'")
    p.add_argument("--input", help="spectrum JSON file to synthesize from")
    p.add_argument("--dense", help="dense signal file (.csv or binary)")
    p.add_argument("-k", type=int, required=True, help="sparsity budget")
    p.add_argument("--n", type=int, help="nominal signal length for planning")
    p.add_argument("--moduli", help="explicit comma-separated view moduli")
    p.add_argument("--force-fallback", action="store_true", dest="force_fallback")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--output", help="write result JSON here instead of stdout")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("gate-table", help="explicit 2-of-3 gate over residue sets")
    p.add_argument("--r1", required=True, help="comma-separated view-1 residues")
    p.add_argument("--r2", required=True, help="comma-separated view-2 residues")
    p.add_argument("--r3", required=True, help="comma-separated view-3 residues")
    p.add_argument("--moduli", required=True, help="three comma-separated moduli")
    p.add_argument(
        "--diff-published",
        action="store_true",
        dest="diff_published",
        help="annotate rows that differ from the published reference table "
        "for the canonical inputs",
    )
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--output")
    p.set_defaults(func=cmd_gate_table)

    p = sub.add_parser("montecarlo", help="statistical experiments, CSV output")
    p.add_argument(
        "--experiment",
        required=True,
        choices=["gate-survivors", "singleton-fraction", "verify-miss", "peel-completion"],
    )
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--k", type=int, help="sparsity (default: from --load, or 10)")
    p.add_argument("--alpha", type=float, default=15.0)
    p.add_argument("--load", type=float, default=0.1, help="target load factor k/m")
    p.add_argument("--n", type=int, help="nominal length (verify-miss, gate-survivors)")
    p.add_argument("--moduli", help="explicit moduli for the experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("verify-cert", help="replay a recovery certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--signal", required=True, help="spectrum JSON or dense file")
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CrtFftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

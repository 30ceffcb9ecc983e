"""One timed, checked op, and the environment a run reports."""

from __future__ import annotations

import hashlib
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from oracle import exception_kind, failure_kinds


@dataclass(frozen=True)
class OpRecord:
    recover_s: float
    replay_s: float | None          # None when there was no result to replay
    kinds: tuple[str, ...]          # failure kinds; empty when the op is correct
    path: str | None
    op_counts: dict
    tones: int
    rehashes: int
    extra_views: int
    fingerprint: str                # inputs, path, grid, support and op counts

    @property
    def ok(self) -> bool:
        return not self.kinds


def run_op(api, op) -> OpRecord:
    """Recover, replay the certificate, and check both against the truth.

    Any exception the program raises is a failed op, recorded by type, so a
    run always reaches its report.
    """
    clock = time.perf_counter
    start = clock()
    try:
        result = op.recover(api)
    except Exception as exc:
        recover_s = clock() - start
        kind = exception_kind(exc)
        return OpRecord(recover_s, None, (kind,), None, {}, 0, 0, 0,
                        _fingerprint(op.digest(), kind))
    recover_s = clock() - start
    start = clock()
    try:
        violations = op.replay(api, result)
        errors = []
    except Exception as exc:
        violations, errors = [], [exception_kind(exc)]
    replay_s = clock() - start
    kinds = tuple(failure_kinds(result.spectrum, op.truth, violations) + errors)
    escalation = result.certificate.payload["escalation"]
    spectrum = result.spectrum
    return OpRecord(
        recover_s=recover_s,
        replay_s=replay_s,
        kinds=kinds,
        path=result.path.value,
        op_counts=dict(result.op_counts),
        tones=len(spectrum),
        rehashes=escalation["rehashes"],
        extra_views=escalation["extra_verify_views"],
        fingerprint=_fingerprint(
            op.digest(), result.path.value, spectrum.grid_length,
            spectrum.frequencies().tolist(), sorted(result.op_counts.items()), kinds,
        ),
    )


def _fingerprint(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


def environment() -> dict:
    """What the run ran under; read only, never changed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }

"""Outside-in tracing of crtfft's layers.

The tracer replaces named functions with wrappers that push a span on a
stack, time the call with perf_counter_ns, and on return charge the call's
self time (its duration minus the time of the spans nested inside it) to
the span's name.  Count hooks read work sizes from arguments and results.

Modules bind each other's functions with `from .x import y`, so a function
is wrapped under every name it is called through, not only where it is
defined.  Wrappers exist only inside `Tracer.installed()`; every original
is put back in `finally`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    owner: object                 # module or class holding the name
    attr: str
    span: str                     # name the span's time is charged to
    count: Callable | None = None  # count(counts, args, result) after a normal return


# Work counts the hooks below add to; a count no traced call touched reads 0.
COUNT_NAMES = (
    "dft.dft_forward.points",
    "signal.sample_block.samples",
    "signal.materialize.samples",
    "peeling.rounds",
    "verification.views_checked",
    "verification.passed",
)


def _count_points(counts, args, result):
    counts["dft.dft_forward.points"] += int(np.size(args[0]))


def _count_samples(counts, args, result):
    counts["signal.sample_block.samples"] += int(np.size(args[1]))


def _count_materialized(counts, args, result):
    counts["signal.materialize.samples"] += int(np.size(result))


def _count_rounds(counts, args, result):
    counts["peeling.rounds"] += result.rounds


def _count_verified(counts, args, result):
    counts["verification.views_checked"] += len(result.views)
    counts["verification.passed"] += int(result.overall)


def crtfft_targets(crtfft) -> tuple[Target, ...]:
    """Every name through which the default pipeline calls a traced layer."""
    from crtfft import dft, peeling, pipeline, signal, verification

    return (
        # entry points, under the names the benchmark and the pipeline call
        Target(crtfft, "sparse_fft", "pipeline.sparse_fft"),
        Target(crtfft, "sparse_fft_dense", "pipeline.sparse_fft"),
        Target(pipeline, "sparse_fft", "pipeline.sparse_fft"),
        Target(crtfft, "verify_certificate", "pipeline.verify_certificate"),
        # planner
        Target(pipeline, "make_plan", "planner.make_plan"),
        Target(pipeline, "rehash", "planner.rehash"),
        # views; verification imports build_view_recursive from peeling at call time
        Target(pipeline, "build_view_recursive", "views.build"),
        Target(peeling, "build_view_recursive", "views.build"),
        Target(pipeline, "build_view", "views.build"),
        Target(verification, "build_view", "views.build"),
        Target(pipeline, "build_view_from_spectrum", "views.from_spectrum"),
        Target(verification, "build_view_from_spectrum", "views.from_spectrum"),
        Target(pipeline, "extract_residues", "views.extract_residues"),
        # peeling and verification
        Target(pipeline, "run_peeling", "peeling.run_peeling", _count_rounds),
        Target(peeling, "peel", "peeling.peel"),
        Target(pipeline, "verify", "verification.verify", _count_verified),
        # fallback and certificates
        Target(pipeline, "dense_fallback", "pipeline.dense_fallback"),
        Target(pipeline, "build_certificate", "pipeline.build_certificate"),
        # engines and sample oracles
        Target(dft, "dft_forward", "dft.dft_forward", _count_points),
        Target(signal._SynthesizedSource, "sample_block", "signal.sample_block", _count_samples),
        Target(signal._DenseSource, "sample_block", "signal.sample_block", _count_samples),
        Target(signal.SignalSource, "materialize", "signal.materialize", _count_materialized),
    )


class Tracer:
    """Per-span call counts, self time and work counts, summed over traced calls."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []

    @contextmanager
    def installed(self):
        saved = []
        try:
            for t in self.targets:
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, target: Target):
        stack, clock = self._stack, time.perf_counter_ns
        span, count = target.span, target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]  # time of nested spans, in ns
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_ns[span] += elapsed - frame[0]
                self.calls[span] += 1

        return traced

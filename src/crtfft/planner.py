"""Moduli planning.

A plan is its triple: three pairwise coprime view moduli whose product
M >= N defines the working grid, each view read at SHIFT_COUNT = 3 time
shifts.  A view on modulus m reads the samples j*M/m + s and puts tone f in
bin f mod m, so the moduli alone decide which tones share a bin, and
`make_plan` returns the `ModTriple` and nothing else.

The moduli are the pairwise coprime triple of 11-smooth lengths whose views
are cheapest under the op model (`dft.fft_op_count`), found by one search,
so no view transform needs a chirp-z reduction.  The constraints are
peeling's, M >= N and a per-bin load k/m1 <= LAMBDA_THRESHOLD, not the
2-of-3 gate's m1*m2 >= N (the pipeline never runs the gate), so a view has
about max(N^(1/3), k/LAMBDA_THRESHOLD) bins, not sqrt(N).  No plan exceeds
the int64 grid ceiling `signal._MAX_GRID`: where no triple fits under it
the planner raises OracleCapExceededError instead.

Verification checks the three views that were built for peeling.  Exact
decimation requires a view modulus to divide the grid length, and the CRT
needs the moduli pairwise coprime, so the triple offers no further exact
moduli, and a keyed affine map of a view's bins would only relabel the
classes of f mod m.  The verdict rests on the multi-shift residual test
(`verification`), which holds on any view.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numpy as np

from . import dft
from .config import Config
from .errors import DenseRegimeError, OracleCapExceededError
from .numtheory import ModTriple, coprime_divisor_capacity, factorize
from .signal import _MAX_GRID


# The shortest nominal length that has a three-view plan.
MIN_PLAN_LENGTH = 4
# Max per-bin load k/m1, 3x below load 1.0, where peel-completion (--seed 5)
# finished 199/200 on (25, 27, 28) and 200/200 on (97, 101, 103).
LAMBDA_THRESHOLD = 0.33
# k/sqrt(N) at or above this has no fast-path plan.
RHO_DENSE = 0.5
# Time shifts per planned view: the singleton test compares two adjacent-shift
# phase ratios, and the residual test separates up to this many tones per bin.
SHIFT_COUNT = 3


def _view_cost(m: int) -> int:
    """Op-model cost of one view of modulus m: its O(m) passes and its FFT."""
    return 3 * m + dft.fft_op_count(m)


def _smooth_numbers(lo: int, hi: int) -> list[int]:
    """The 11-smooth integers in [lo, hi], ascending."""
    values = [1]
    for p in dft.SMOOTH_PRIMES:
        grown = []
        for v in values:
            while v <= hi:
                grown.append(v)
                v *= p
        values = grown
    return sorted(v for v in values if v >= lo)


def _cheapest_triple(
    N: int, costs: dict[int, int], cap: float, bound: int
) -> tuple[int, int, tuple[int, int, int]] | None:
    """Cheapest pairwise coprime a < b < c from `costs` with a*b*c >= N.

    Exact branch and bound over the candidates in ascending order; products
    above `cap` and triples costing more than `bound` are excluded.  Returns
    (cost, M, (a, b, c)), ties going to the smaller M, or None when no
    triple qualifies.
    """
    values = sorted(costs)
    cost = [costs[v] for v in values]
    n = len(values)
    # cheapest[i] = min(cost[i:]): a lower bound for any member chosen at or after i
    cheapest = list(itertools.accumulate(reversed(cost), min))[::-1] + [math.inf]
    best = (bound, math.inf, ())
    for i, a in enumerate(values[:-2]):
        # c costs at most what a and the cheapest b leave, so b >= N/(a*c_max)
        budget = best[0] - cost[i] - cheapest[i + 1]
        c_max = values[max(i + 2, bisect.bisect_right(cheapest, budget, 0, n) - 1)]
        for j in range(bisect.bisect_left(values, -(-N // (a * c_max)), i + 1), n - 1):
            b = values[j]
            if cost[i] + cheapest[j] + cheapest[j + 1] > best[0]:
                break
            if a * b * values[j + 1] > cap:
                break
            pair = cost[i] + cost[j]
            if math.gcd(a, b) != 1:
                continue
            for c_index in range(bisect.bisect_left(values, -(-N // (a * b)), j + 1), n):
                c = values[c_index]
                if pair + cheapest[c_index] > best[0] or a * b * c > cap:
                    break
                key = (pair + cost[c_index], a * b * c, (a, b, c))
                if key < best and math.gcd(a * b, c) == 1:
                    best = key
    return best if best[2] else None


@functools.lru_cache(maxsize=256)
def choose_moduli(N: int, k: int) -> tuple[int, int, int]:
    """Pairwise coprime 11-smooth moduli m1 < m2 < m3 whose views cost least.

    Minimizes sum(3*m + dft.fft_op_count(m)) subject to
      - M = m1*m2*m3 >= N, all that peeling, verification and replay need;
      - m1 >= k/LAMBDA_THRESHOLD, so that no view's per-bin load exceeds
        the peeling threshold;
      - M <= signal._MAX_GRID.
    One search over the 11-smooth lengths, bounded by the witness below.
    Raises OracleCapExceededError when N is past the ceiling or no triple
    that costs no more than the witness fits under it, which happens from N
    of about 2.99e9.  A pure function of its arguments, cached.
    """
    if N > _MAX_GRID:
        raise OracleCapExceededError(f"N = {N} is above the grid ceiling {_MAX_GRID}")
    floor = max(2, math.ceil(k / LAMBDA_THRESHOLD))
    # The smallest powers of 2, 3 and 5 at or above max(floor, N^(1/3))
    # always qualify without the ceiling, which bounds the cost of the answer
    # and hence its members: every view costs at least floor*rate, because
    # p/log2(p) >= 3/log2(3) for every prime p, so an 11-smooth length costs
    # at least (3/log2 3)*log2(m) per point in its FFT.
    start = max(floor, round(N ** (1 / 3)) + 1)
    witness = [next(p**e for e in itertools.count() if p**e >= start) for p in (2, 3, 5)]
    witness_cost = sum(map(_view_cost, witness))
    rate = 3 + 3 / math.log2(3) * math.log2(floor)
    hi = int(witness_cost / rate) - 2 * floor
    costs = {m: _view_cost(m) for m in _smooth_numbers(floor, hi)}
    best = _cheapest_triple(N, costs, _MAX_GRID, witness_cost)
    if best is None:
        raise OracleCapExceededError(
            f"no triple of views for N = {N}, k = {k} fits under the grid ceiling {_MAX_GRID}"
        )
    return best[2]


def make_plan(N: int, k: int, *, config: Config | None = None) -> ModTriple:
    """The triple of view moduli for an N-point, k-sparse problem.

    The moduli come from `choose_moduli`: the pairwise coprime triple whose
    views cost least under the op model, which keeps M at or above N, the
    per-bin load within LAMBDA_THRESHOLD and M within the int64 grid
    ceiling, and raises OracleCapExceededError where no triple fits under it.
    Explicit moduli can be pinned through config.moduli_override (Config
    takes three integers >= 2; here they must be pairwise coprime with a
    product of at least N, and a product past the grid ceiling raises
    OracleCapExceededError as an unpinned plan does).  A sparsity ratio
    k/sqrt(N) at or above RHO_DENSE has no fast-path plan and raises
    DenseRegimeError.
    """
    if N < MIN_PLAN_LENGTH:
        raise ValueError(f"N must be >= {MIN_PLAN_LENGTH}, got {N}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    cfg = config or Config()
    rho = k / math.sqrt(N)
    if rho >= RHO_DENSE:
        raise DenseRegimeError(
            f"rho = {rho:.3f} >= {RHO_DENSE}: no fast-path plan; use the dense transform"
        )

    if cfg.moduli_override is not None:
        moduli = sorted(cfg.moduli_override)
    else:
        moduli = list(choose_moduli(N, k))

    triple = ModTriple.create(*moduli)
    if triple.M < N:
        raise ValueError(f"modulus product {triple.M} below N={N}")
    if triple.M > _MAX_GRID:
        raise OracleCapExceededError(
            f"modulus product {triple.M} is above the grid ceiling {_MAX_GRID}"
        )
    return triple


def divisor_moduli(m: int) -> tuple[int, int, int] | None:
    """Split m into three pairwise coprime moduli with product exactly m.

    Prime-power factors are distributed greedily onto the smallest bucket,
    which keeps the moduli near m^(1/3) when the factorization allows.
    Returns None when m has fewer than three distinct prime factors, in
    which case no exact three-view decimation of a length-m grid exists.
    """
    if m < 8 or coprime_divisor_capacity(m) < 3:
        return None
    powers = sorted((p**e for p, e in factorize(m).items()), reverse=True)
    buckets = [1, 1, 1]
    for q in powers:
        buckets[int(np.argmin(buckets))] *= q
    return tuple(sorted(buckets))  # type: ignore[return-value]


def rehash(plan: ModTriple, seed: int = 0, round_index: int = 1) -> ModTriple:
    """The plan itself: views over the same moduli are the same views.  The
    benchmark tracer (perfbench/tracer.py) looks this name up; nothing calls it."""
    return plan

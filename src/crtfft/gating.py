"""The 2-of-3 gate over the views' occupied bins.

Tone f lands in bin f mod m of the view on modulus m, so the occupied bins
R1, R2, R3 of the three views (`extract_residues`) are frequency residues.
Every (r1, r2) pair is reconstructed to the unique f12 in [0, m1*m2) by
two-residue Garner and retained only when its third residue f12 mod m3 is
an occupied bin of the third view.

True pairs pass deterministically provided the true frequencies lie in
[0, m1*m2): the two-view reconstruction is f mod m1*m2, so its predicted
third residue agrees with the actual one exactly when no wraparound
occurred.  `gate_survivor_stats` therefore requires the two smallest
moduli to multiply past N; pipeline plans need only M >= N and need not
meet it.  A spurious pair passes only when its reconstruction happens to
land on an occupied third-view bin.

The pipeline never runs anything here: it peels.  This module is the
analyzable reference form, the worked-example reproduction, the cross-check
oracle for peeling, and the Monte Carlo harness (`trial_streams`,
`draw_support`) that every `crtfft montecarlo` experiment draws from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .numtheory import ModTriple, mod_inverse
from .views import NOISE_FLOOR_REL, ViewStack, top_k_order


def extract_residues(view: ViewStack, alpha_k: int) -> np.ndarray:
    """The top-alpha_k bins of a one-view stack above the noise floor by
    shift-0 magnitude, strongest first, ties broken upward."""
    if alpha_k < 1:
        raise ValueError(f"alpha_k must be >= 1, got {alpha_k}")
    mag = np.abs(view.bins[0])
    occupied = np.flatnonzero(mag > NOISE_FLOOR_REL * float(mag.max(initial=0.0)))
    return occupied[top_k_order(mag[occupied], occupied, alpha_k)].astype(np.int64, copy=False)


@dataclass(frozen=True)
class GatedCandidate:
    """One (r1, r2) pair with its reconstruction and gate verdict.

    r1, r2 are the view-1 and view-2 bins, which are frequency residues,
    f12 is the two-view reconstruction in [0, m1*m2), and r3_hat = f12 mod m3
    is the predicted view-3 bin that was looked up in R3.
    """

    r1: int
    r2: int
    f12: int
    r3_hat: int
    passed: bool


def garner2(r1: int, r2: int, m1: int, m2: int) -> int:
    """Two-residue reconstruction: the unique f in [0, m1*m2) with
    f = r1 (mod m1) and f = r2 (mod m2); the scalar form of `_gate_kernel`'s
    f12, kept as its test oracle.

    Computed as f = r1 + m1 * ((r2 - r1) * m1^-1 mod m2); the difference is
    normalized into [0, m2) before the multiply so machine remainder
    semantics on negatives never enter.
    """
    if not (0 <= r1 < m1 and 0 <= r2 < m2):
        raise ValueError(f"residues ({r1}, {r2}) out of range for ({m1}, {m2})")
    inv = mod_inverse(m1, m2)  # raises NotCoprimeError when gcd(m1, m2) != 1
    u = ((r2 - r1) % m2) * inv % m2
    return r1 + u * m1


def _gate_kernel(r1: np.ndarray, r2: np.ndarray, r3: np.ndarray, triple: ModTriple):
    """Vectorized verdicts for the full bin-pair grid.

    Returns the f12 grid, the predicted view-3 bins and the verdicts, each of
    shape (len(r1), len(r2)).
    """
    m1, m2, m3 = triple.moduli
    u = (r2[None, :] - r1[:, None]) % m2 * triple.gamma12 % m2
    f12 = r1[:, None] + u * m1
    bin3_hat = f12 % m3
    occupied = np.zeros(m3, dtype=bool)
    occupied[r3] = True
    return f12, bin3_hat, occupied[bin3_hat]


def gate_pairs(R1, R2, R3, triple: ModTriple) -> list[GatedCandidate]:
    """Gate every (r1, r2) pair of bins, given as iterables of ints; output
    order follows R1-major iteration.  A bin outside [0, m) of its view
    raises OutOfRangeError."""
    bins = []
    for view, (R, m) in enumerate(zip((R1, R2, R3), triple.moduli), start=1):
        try:
            b = np.fromiter(R, dtype=np.int64)
        except OverflowError as exc:
            raise OutOfRangeError(f"a view-{view} bin is outside [0, {m}): {exc}") from exc
        bad = b[(b < 0) | (b >= m)]
        if bad.size:
            raise OutOfRangeError(f"view-{view} bin {bad[0]} is outside [0, {m})")
        bins.append(b)
    f12, bin3_hat, passed = (a.tolist() for a in _gate_kernel(*bins, triple))
    r1, r2 = bins[0].tolist(), bins[1].tolist()
    return [
        GatedCandidate(rho1, rho2, f12[i][j], bin3_hat[i][j], passed[i][j])
        for i, rho1 in enumerate(r1)
        for j, rho2 in enumerate(r2)
    ]


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent counter-based generator for one labeled domain."""
    digest = hashlib.blake2s(label.encode("utf-8")).digest()[:16]
    key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def trial_streams(
    seed: int, experiment: str, trials: int
) -> list[tuple[int, np.random.Generator]]:
    """(seed, generator) for each Monte Carlo trial, from the experiment's own stream."""
    seeds = rng_stream(seed, experiment).integers(0, 2**63 - 1, size=trials)
    return [(int(s), np.random.Generator(np.random.Philox(int(s)))) for s in seeds]


def draw_support(rng: np.random.Generator, k: int, n: int) -> list[int]:
    """k distinct frequencies below n, ascending; ValueError when k > n."""
    if k > n:
        raise ValueError(f"cannot draw {k} distinct frequencies below {n}")
    support = set()
    while len(support) < k:
        support.add(int(rng.integers(0, n)))
    return sorted(support)


@dataclass(frozen=True)
class GateStats:
    trials: int
    mean_true_survivors: float
    mean_false_survivors: float
    stderr_false_survivors: float
    min_true_survivors: int
    max_true_survivors: int
    prediction_false_survivors: float


def gate_survivor_stats(
    N: int,
    k: int,
    alpha: float,
    triple: ModTriple,
    trials: int,
    seed: int = 0,
) -> GateStats:
    """Monte Carlo survivor counts for random k-sparse supports.

    Each trial plants k distinct frequencies in [0, N), puts each in bin
    f mod m of the three views, fills every view's occupied bins up to
    alpha*k with uniform fillers over the unoccupied bins, and gates the full
    pair grid.  True survivors count planted pairs that pass (always k,
    since true pairs gate deterministically); false survivors count
    everything else that passed.  The prediction column is
    (alpha*k)^2 * (alpha*k) / m3 in its usual approximate form
    alpha^3 k^3 / m3.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    cap = int(round(alpha * k))
    m1, m2, m3 = triple.moduli
    if cap > min(m1, m2, m3):
        raise ValueError(f"alpha*k = {cap} exceeds the smallest modulus")
    if N > m1 * m2:
        raise ValueError(
            f"support range N={N} exceeds m1*m2={m1 * m2}; "
            "two-view reconstruction would wrap and true pairs could fail the gate"
        )
    prediction = (alpha**3) * (k**3) / m3 if k else 0.0

    true_counts = np.zeros(trials, dtype=np.int64)
    false_counts = np.zeros(trials, dtype=np.int64)
    for trial, (_, rng) in enumerate(trial_streams(seed, "gate-survivor-stats", trials)):
        freqs = np.array(draw_support(rng, k, N), dtype=np.int64)
        bin_lists = []
        for m in triple.moduli:
            occupied = set((freqs % m).tolist())
            while len(occupied) < cap:
                occupied.add(int(rng.integers(0, m)))
            bin_lists.append(np.array(sorted(occupied), dtype=np.int64))

        if k == 0 or cap == 0:
            continue
        *_, passed = _gate_kernel(*bin_lists, triple)
        truth = np.zeros(passed.shape, dtype=bool)
        # the bin lists are sorted, so each planted bin's row is its rank
        truth[np.searchsorted(bin_lists[0], freqs % m1),
              np.searchsorted(bin_lists[1], freqs % m2)] = True
        true_counts[trial] = int(np.count_nonzero(passed & truth))
        false_counts[trial] = int(np.count_nonzero(passed & ~truth))

    if trials == 0:
        return GateStats(0, 0.0, 0.0, 0.0, 0, 0, prediction)
    stderr = float(false_counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return GateStats(
        trials=trials,
        mean_true_survivors=float(true_counts.mean()),
        mean_false_survivors=float(false_counts.mean()),
        stderr_false_survivors=stderr,
        min_true_survivors=int(true_counts.min()),
        max_true_survivors=int(true_counts.max()),
        prediction_false_survivors=prediction,
    )

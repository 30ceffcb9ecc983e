"""The keyed 2-of-3 gate over residue sets.

Given occupied-bin sets R1, R2, R3 from the three views, every (r1, r2) bin
pair is un-hashed to frequency residues, reconstructed to the unique
f12 in [0, m1*m2) by two-residue Garner, and retained only when the
predicted third-view bin hash3(f12 mod m3) is occupied.

True pairs pass deterministically provided the true frequencies lie in
[0, m1*m2): the two-view reconstruction is f mod m1*m2, so its predicted
third residue agrees with the actual one exactly when no wraparound
occurred.  This is why plans require the two smallest moduli to multiply
past the nominal length.  A spurious pair passes only when its
reconstruction happens to land on an occupied third-view bin.

The peeling fast path never enumerates pairs; this module is the analyzable
reference form, the worked-example reproduction, the cross-check oracle for
peeling, and the Monte Carlo harness for survivor statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import ModTriple
from .planner import ViewParams, rng_stream
from .views import ResidueSet


def _identity_params(triple: ModTriple, shifts: int = 3):
    return tuple(ViewParams(m=m, sigma=1, b=0, shift_count=shifts) for m in triple.moduli)


def _as_bins(residues) -> list[int]:
    if isinstance(residues, ResidueSet):
        return residues.indices.tolist()
    return [int(r) for r in residues]


@dataclass(frozen=True)
class GatedCandidate:
    """One (r1, r2) pair with its reconstruction and gate verdict.

    r1, r2 are frequency residues (bins un-hashed through the view maps),
    f12 is the two-view reconstruction in [0, m1*m2), and r3_hat is the
    predicted view-3 bin that was looked up in R3.
    """

    r1: int
    r2: int
    f12: int
    r3_hat: int
    passed: bool


def _gate_kernel(
    bins1: np.ndarray,
    bins2: np.ndarray,
    bins3: set[int] | np.ndarray,
    triple: ModTriple,
    params: tuple[ViewParams, ViewParams, ViewParams],
):
    """Vectorized verdicts for the full bin-pair grid.

    Returns (f12 grid, predicted view-3 bins, passed) with shape
    (len(bins1), len(bins2)).
    """
    p1, p2, p3 = params
    m1, m2, m3 = triple.m1, triple.m2, triple.m3
    r1 = np.asarray([p1.unhash_bin(b) for b in bins1], dtype=np.int64)
    r2 = np.asarray([p2.unhash_bin(b) for b in bins2], dtype=np.int64)
    u = (r2[None, :] - r1[:, None]) % m2 * triple.gamma12 % m2
    f12 = r1[:, None] + u * m1
    r3_hat = f12 % m3
    bin3_hat = (p3.a * r3_hat + p3.b) % m3
    occupied = np.zeros(m3, dtype=bool)
    if len(bins3):
        occupied[np.asarray(sorted(bins3), dtype=np.int64)] = True
    return f12, bin3_hat, occupied[bin3_hat]


def gate_pairs(
    R1,
    R2,
    R3,
    triple: ModTriple,
    view_params: tuple[ViewParams, ViewParams, ViewParams] | None = None,
) -> list[GatedCandidate]:
    """Gate every (r1, r2) pair; output order follows R1-major iteration."""
    params = view_params or _identity_params(triple)
    bins1, bins2, bins3 = _as_bins(R1), _as_bins(R2), set(_as_bins(R3))
    if not bins1 or not bins2:
        return []
    f12, bin3_hat, passed = _gate_kernel(
        np.asarray(bins1), np.asarray(bins2), bins3, triple, params
    )
    p1, p2 = params[0], params[1]
    out = []
    for i, b1 in enumerate(bins1):
        rho1 = int(p1.unhash_bin(b1))
        for j, b2 in enumerate(bins2):
            out.append(
                GatedCandidate(
                    r1=rho1,
                    r2=int(p2.unhash_bin(b2)),
                    f12=int(f12[i, j]),
                    r3_hat=int(bin3_hat[i, j]),
                    passed=bool(passed[i, j]),
                )
            )
    return out


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
    identity_hash: bool = True,
) -> GateStats:
    """Monte Carlo survivor counts for random k-sparse supports.

    Each trial plants k distinct frequencies in [0, N), fills every residue
    set up to alpha*k bins with uniform fillers over the unoccupied bins,
    and gates the full pair grid.  True survivors count planted pairs that
    pass (always k, since true pairs gate deterministically); false
    survivors count everything else that passed.  The prediction column is
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
    master = rng_stream(seed, "gate-survivor-stats")
    child_seeds = master.integers(0, 2**63 - 1, size=max(trials, 1))

    true_counts = np.zeros(trials, dtype=np.int64)
    false_counts = np.zeros(trials, dtype=np.int64)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(int(child_seeds[trial])))
        params = (
            _identity_params(triple)
            if identity_hash
            else tuple(
                ViewParams(
                    m=m,
                    sigma=int(rng.integers(1, m)),
                    b=int(rng.integers(0, m)),
                    shift_count=3,
                )
                for m in triple.moduli
            )
        )
        support = set()
        while len(support) < k:
            support.add(int(rng.integers(0, N)))
        freqs = np.array(sorted(support), dtype=np.int64)

        bin_lists = []
        for p in params:
            true_bins = np.unique(p.hash_frequency(freqs)) if k else np.array([], dtype=np.int64)
            occupied = set(int(b) for b in true_bins)
            while len(occupied) < cap:
                occupied.add(int(rng.integers(0, p.m)))
            bin_lists.append(np.array(sorted(occupied), dtype=np.int64))

        if k == 0 or cap == 0:
            continue
        f12, _, passed = _gate_kernel(
            bin_lists[0], bin_lists[1], set(bin_lists[2].tolist()), triple, params
        )
        index1 = {int(b): i for i, b in enumerate(bin_lists[0])}
        index2 = {int(b): i for i, b in enumerate(bin_lists[1])}
        truth = np.zeros(passed.shape, dtype=bool)
        for f in freqs:
            i = index1[int(params[0].hash_frequency(int(f)))]
            j = index2[int(params[1].hash_frequency(int(f)))]
            truth[i, j] = True
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

"""Moduli and hash-parameter planning.

A plan fixes everything the identification pipeline needs: three pairwise
coprime view moduli whose product M >= N defines the working grid, per-view
affine hash parameters (dilation sigma, offset b), and the verification view
parameters.  All randomness comes from a counter-based generator keyed by
(seed, label) so that identification and verification draws are provably
disjoint streams and every plan is replayable from its seed.

Verification views reuse the identification moduli with freshly drawn hash
parameters.  Exact decimation requires the view modulus to divide the grid
length, and M = m1*m2*m3 has exactly three prime divisors, so there are no
further exact moduli available; independence rests on the fresh (sigma, b)
draws and on the multi-shift phase structure of the residual test.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .config import Config
from .errors import DenseRegimeError, NotCoprimeError
from .numtheory import (
    ModTriple,
    coprime_divisor_capacity,
    factorize,
    find_coprime_moduli,
    mod_inverse,
)


class Regime(enum.Enum):
    SPARSE = "sparse"
    MODERATE = "moderate"
    DENSE = "dense"


@dataclass(frozen=True)
class RegimeParams:
    rho: float
    regime: Regime
    alpha: float
    lambda_threshold: float


@dataclass(frozen=True)
class ViewParams:
    """One decimated view: modulus m, dilation sigma, bin offset b, shifts S.

    The time-domain map j -> (sigma*j*d + s) mod M together with bin
    modulation by b realizes the frequency hash f -> (a*f + b) mod m with
    a = sigma mod m.
    """

    m: int
    sigma: int
    b: int
    shift_count: int

    @property
    def a(self) -> int:
        return self.sigma % self.m

    def hash_frequency(self, f):
        """Bin index that frequency f lands in (works on arrays too)."""
        return (self.a * f + self.b) % self.m

    def unhash_bin(self, bin_index):
        """Frequency residue mod m that occupies `bin_index`."""
        a_inv = mod_inverse(self.a, self.m) if self.m > 1 else 0
        return (bin_index - self.b) * a_inv % self.m


@dataclass(frozen=True)
class ModuliPlan:
    id_views: tuple[ViewParams, ViewParams, ViewParams]
    verify_views: tuple[ViewParams, ...]
    triple: ModTriple
    M: int
    N: int
    k: int
    regime: RegimeParams
    rng_seed: int


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent counter-based generator for one labeled domain."""
    digest = hashlib.blake2s(label.encode("utf-8")).digest()[:16]
    key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def classify_regime(N: int, k: int, config: Config | None = None) -> RegimeParams:
    """Regime from the sparsity ratio rho = k/sqrt(N)."""
    if N < 4:
        raise ValueError(f"N must be >= 4, got {N}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    cfg = config or Config()
    rho = k / math.sqrt(N)
    if rho < cfg.rho_sparse:
        regime = Regime.SPARSE
    elif rho < cfg.rho_dense:
        regime = Regime.MODERATE
    else:
        regime = Regime.DENSE
    return RegimeParams(
        rho=rho, regime=regime, alpha=cfg.alpha, lambda_threshold=cfg.lambda_threshold
    )


def _draw_view_params(m: int, M: int, rng: np.random.Generator, shifts: int) -> ViewParams:
    while True:
        sigma = int(rng.integers(1, M))
        if math.gcd(sigma, M) == 1:
            break
    b = int(rng.integers(0, m))
    return ViewParams(m=m, sigma=sigma, b=b, shift_count=shifts)


def make_plan(
    N: int,
    k: int,
    t: int | None = None,
    seed: int = 0,
    config: Config | None = None,
) -> ModuliPlan:
    """Build a reproducible plan for an N-point, k-sparse problem.

    Prime moduli are chosen near sqrt(N); when the load factor k/sqrt(N)
    exceeds the peeling threshold the target is raised to 10*k*log2(k) so
    the per-bin load drops back to about 1/(10*log2 k).  Explicit moduli can
    be pinned through config.moduli_override (they are validated for
    pairwise coprimality, not primality, so composite moduli are accepted).
    """
    cfg = config or Config()
    t = cfg.t if t is None else t
    regime = classify_regime(N, k, cfg)
    if regime.regime is Regime.DENSE:
        raise DenseRegimeError(
            f"rho = {regime.rho:.3f} >= {cfg.rho_dense}: no fast-path plan; use the dense transform"
        )

    if cfg.moduli_override is not None:
        moduli = sorted(int(m) for m in cfg.moduli_override)
        if len(moduli) != 3:
            raise ValueError("moduli_override must supply exactly 3 moduli")
    else:
        root = max(2, round(math.sqrt(N)))
        target = root
        if k >= 2 and k / root > cfg.lambda_threshold:
            target = max(root, math.ceil(10 * k * math.log2(k)))
        moduli = find_coprime_moduli(target, 3, min_product=N)

    triple = ModTriple.create(*moduli)
    if triple.M < N:
        raise ValueError(f"modulus product {triple.M} below N={N}")

    shifts = cfg.shift_count
    if cfg.identity_hash:
        id_views = tuple(ViewParams(m=m, sigma=1, b=0, shift_count=shifts) for m in moduli)
        verify_views = tuple(
            ViewParams(m=moduli[v % 3], sigma=1, b=0, shift_count=shifts) for v in range(t)
        )
    else:
        id_views = tuple(
            _draw_view_params(m, triple.M, rng_stream(seed, f"id-view-{i}"), shifts)
            for i, m in enumerate(moduli)
        )
        verify_views = tuple(
            _draw_view_params(
                moduli[v % 3], triple.M, rng_stream(seed, f"verify-view-{v}"), shifts
            )
            for v in range(t)
        )

    return ModuliPlan(
        id_views=id_views,  # type: ignore[arg-type]
        verify_views=verify_views,
        triple=triple,
        M=triple.M,
        N=N,
        k=k,
        regime=regime,
        rng_seed=int(seed),
    )


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
    if min(buckets) < 2:
        return None
    return tuple(sorted(buckets))  # type: ignore[return-value]


def rehash(plan: ModuliPlan, seed: int, round_index: int = 1) -> ModuliPlan:
    """Fresh identification hash parameters over the same moduli."""
    new_views = tuple(
        _draw_view_params(
            view.m,
            plan.M,
            rng_stream(seed, f"rehash-{round_index}-id-view-{i}"),
            view.shift_count,
        )
        for i, view in enumerate(plan.id_views)
    )
    return dc_replace(plan, id_views=new_views)


def validate_plan(plan: ModuliPlan) -> list[str]:
    """Empty list iff every plan invariant holds; entries name the failure."""
    violations = []
    m1, m2, m3 = plan.triple.moduli
    for a, b in ((m1, m2), (m1, m3), (m2, m3)):
        if math.gcd(a, b) != 1:
            violations.append(f"NotCoprime: moduli {a} and {b}")
    if plan.M != m1 * m2 * m3:
        violations.append("ProductMismatch: M != m1*m2*m3")
    if plan.M < plan.N:
        violations.append(f"ProductTooSmall: M={plan.M} < N={plan.N}")
    if (plan.triple.m1 * plan.triple.gamma12) % plan.triple.m2 != 1:
        violations.append("BadInverse: gamma12")
    if (plan.triple.m1 * plan.triple.m2 * plan.triple.gamma23) % plan.triple.m3 != 1:
        violations.append("BadInverse: gamma23")
    for label, views in (("id", plan.id_views), ("verify", plan.verify_views)):
        for i, view in enumerate(views):
            if plan.M % view.m != 0:
                violations.append(f"StrideMismatch: {label} view {i} modulus {view.m}")
            if math.gcd(view.sigma, plan.M) != 1:
                violations.append(f"NonInvertibleDilation: {label} view {i}")
            if not (0 <= view.b < view.m):
                violations.append(f"OffsetOutOfRange: {label} view {i}")
            if view.m > 1 and view.a == 0:
                violations.append(f"DegenerateHash: {label} view {i}")
    ids = tuple(v.m for v in plan.id_views)
    if sorted(ids) != sorted((m1, m2, m3)):
        violations.append("ViewModuliMismatch: id views do not cover the triple")
    return violations

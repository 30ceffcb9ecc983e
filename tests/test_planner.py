import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.config import Config
from crtfft.dft import fft_op_count
from crtfft.errors import DenseRegimeError, NotCoprimeError, OracleCapExceededError
from crtfft.gating import gate_survivor_stats
from crtfft.numtheory import ModTriple
from crtfft.planner import (
    LAMBDA_THRESHOLD,
    RHO_DENSE,
    choose_moduli,
    divisor_moduli,
    make_plan,
)


def assert_plan_invariants(plan, N, k):
    """Every invariant a plan made for (N, k) keeps: it is the ModTriple of
    its moduli, ascending, with M >= N and the per-bin load bound."""
    assert type(plan) is ModTriple
    m1, m2, m3 = plan.moduli
    assert m1 < m2 < m3
    assert math.gcd(m1, m2) == math.gcd(m1, m3) == math.gcd(m2, m3) == 1
    assert plan.M == m1 * m2 * m3 >= N
    assert plan == ModTriple.create(m1, m2, m3)
    assert m1 * plan.gamma12 % m2 == 1
    assert m1 * m2 * plan.gamma23 % m3 == 1
    assert m1 >= k / LAMBDA_THRESHOLD


@pytest.mark.parametrize(
    "N, k, dense",
    [(10**6, 50, False), (64, 2, False), (10**4, 40, False), (100, 4, False),
     (100, 5, True), (100, 6, True)],
    ids=["sparse-large", "sparse-toy", "moderate-band", "below-boundary", "at-boundary",
         "above-boundary"],
)
def test_dense_boundary(N, k, dense):
    """k/sqrt(N) >= RHO_DENSE (0.5) has no fast-path plan; anything below plans."""
    if dense:
        with pytest.raises(DenseRegimeError, match=r"rho = 0\.[56]00 >= 0\.5"):
            make_plan(N, k)
    else:
        assert_plan_invariants(make_plan(N, k), N, k)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(4, 2**30), k=st.integers(0, 500))
def test_make_plan_invariants(N, k):
    """A plan keeps every invariant, or make_plan refuses with a typed error:
    DenseRegimeError exactly when k/sqrt(N) >= RHO_DENSE."""
    try:
        plan = make_plan(N, k)
    except DenseRegimeError:
        assert k / math.sqrt(N) >= RHO_DENSE
    except OracleCapExceededError:
        pass
    else:
        assert k / math.sqrt(N) < RHO_DENSE
        assert_plan_invariants(plan, N, k)


class TestMakePlan:
    def test_toy_override(self):
        cfg = Config(moduli_override=(13, 7, 11))
        plan = make_plan(64, 2, config=cfg)
        # pinned moduli are sorted into a triple like any plan's
        assert plan == ModTriple.create(7, 11, 13)
        assert plan.M == 1001 >= 64

    def test_mega_plan_moduli(self):
        plan = make_plan(2**20, 20)
        assert plan.moduli == (81, 112, 125)  # 3^4, 2^4*7, 5^3
        assert plan.M >= 2**20

    def test_adaptive_moduli_when_load_high(self):
        # rho = 0.2 stays under the sparse threshold, and k/lambda = 607 is
        # above N^(1/3) = 100, so the load floor, not M >= N, sizes the views
        plan = make_plan(10**6, 200)
        assert plan.moduli == (616, 625, 729)  # 2^3*7*11, 5^4, 3^6
        assert min(plan.moduli) >= 200 / LAMBDA_THRESHOLD

    def test_moderate_load_bound(self):
        plan = make_plan(10**6, 200)
        k = 200
        assert k / min(plan.moduli) <= LAMBDA_THRESHOLD

    def test_determinism(self):
        a = make_plan(2**18, 10)
        b = make_plan(2**18, 10)
        assert a == b

    def test_t_is_not_positional(self):
        # config is keyword-only, so an old call that passed t third is
        # refused; no t and no seed reaches a plan
        with pytest.raises(TypeError):
            make_plan(2**14, 12, 3)
        with pytest.raises(TypeError):
            make_plan(2**14, 12, seed=1)

    @pytest.mark.parametrize("N, k, message", [
        (3, 1, "N must be >= 4, got 3"), (0, 0, "N must be >= 4, got 0"),
        (2**14, -1, "k must be >= 0, got -1"),
    ], ids=["n-3", "n-0", "negative-k"])
    def test_no_plan_below_min_length_or_for_negative_k(self, N, k, message):
        with pytest.raises(ValueError, match=message):
            make_plan(N, k)

    def test_pinned_product_below_n_raises(self):
        cfg = Config(moduli_override=(7, 11, 13))
        with pytest.raises(ValueError, match=r"modulus product 1001 below N=1002"):
            make_plan(1002, 2, config=cfg)
        assert make_plan(1001, 2, config=cfg).M == 1001

    def test_pinned_moduli_must_be_coprime(self):
        with pytest.raises(NotCoprimeError, match="moduli 6 and 10"):
            make_plan(64, 2, config=Config(moduli_override=(6, 7, 10)))

    @pytest.mark.parametrize("k", [1, 3, 12, 64])
    def test_planned_moduli_are_valid(self, k):
        for a in range(6, 21):
            if k / math.sqrt(2**a) < RHO_DENSE:
                assert_plan_invariants(make_plan(2**a, k), 2**a, k)


def test_gate_checks_its_own_no_wrap_condition():
    # 7*11 < 100: two-view reconstructions of frequencies in [77, 100)
    # wrap.  Peeling needs only M >= N, so the plan is valid; the gate
    # checks its own no-wrap precondition.
    plan = make_plan(100, 1, config=Config(moduli_override=(7, 11, 13)))
    assert_plan_invariants(plan, 100, 1)
    with pytest.raises(ValueError, match=r"N=100 exceeds m1\*m2=77"):
        gate_survivor_stats(100, 1, 1.0, ModTriple.create(7, 11, 13), trials=1)


def test_divisor_moduli():
    assert divisor_moduli(1001) == (7, 11, 13)
    assert divisor_moduli(1021) is None  # prime
    assert divisor_moduli(2**10) is None  # single prime factor
    assert divisor_moduli(7429) == (17, 19, 23)
    m = 16 * 27 * 25
    assert divisor_moduli(m) == (16, 25, 27)


def _view_cost(m):
    return 3 * m + fft_op_count(m)


def _brute_force_moduli(N, k, budget):
    """Cheapest qualifying triple costing at most `budget`, by exhaustion over
    every length, smooth or not.

    Every view costs at least 5*m, so no member reaches budget/5, and a
    member leaves room for two views of the cheapest length.  The int64 grid
    ceiling is left out: no triple this small reaches it.
    """
    floor = max(2, math.ceil(k / LAMBDA_THRESHOLD))
    values = np.arange(floor, budget // 5 + 1, dtype=np.int64)
    cost = np.array([_view_cost(int(m)) for m in values])
    keep = cost + 2 * cost.min() <= budget
    values, cost = values[keep], cost[keep]
    best = None
    for i, a in enumerate(values):
        b, c = values[i + 1 :, None], values[None, i + 1 :]
        ok = (b < c) & (a * b * c >= N) & (np.gcd(a, b) == 1) & (np.gcd(a * b, c) == 1)
        if ok.any():
            total = np.where(ok, cost[i] + cost[i + 1 :, None] + cost[None, i + 1 :], np.inf)
            for r, q in np.argwhere(total == total.min()):
                key = (total[r, q], int(a * b[r, 0] * c[0, q]), (int(a), int(b[r, 0]), int(c[0, q])))
                best = key if best is None or key < best else best
    return best


class TestChooseModuli:
    def test_benchmark_plans_are_smooth(self):
        assert choose_moduli(2**20, 64) == (243, 245, 256)  # 3^5, 5*7^2, 2^8
        assert choose_moduli(2**14, 12) == (44, 45, 49)  # 2^2*11, 3^2*5, 7^2

    @pytest.mark.parametrize(
        "N, k", [(4, 0), (20, 1), (64, 1), (100, 2), (500, 2), (1000, 2), (20_000, 4),
                 (100_003, 3), (2**17, 40), (40_000, 90), (10**6, 10), (10**6, 300),
                 (2**24, 16)]
    )
    def test_matches_exhaustive_search(self, N, k):
        # the search covers 11-smooth lengths only, the exhaustive one every length
        moduli = choose_moduli(N, k)
        assert _brute_force_moduli(N, k, sum(map(_view_cost, moduli)))[2] == moduli

    def test_int64_grid_ceiling_kept(self):
        for N in range(2_900_000_000, 2_990_000_001, 15_000_000):
            plan = make_plan(N, 64)
            assert plan.M <= 3_000_000_000
            assert_plan_invariants(plan, N, 64)

    def test_int64_grid_ceiling_edges(self):
        # the last N that a triple no costlier than the witness covers under
        # the ceiling: M = N exactly
        assert choose_moduli(2_993_760_000, 64) == (625, 1792, 2673)
        # one past it no such triple fits, and no plan is made
        with pytest.raises(OracleCapExceededError, match="grid ceiling"):
            choose_moduli(2_993_760_001, 64)
        with pytest.raises(OracleCapExceededError, match="grid ceiling"):
            make_plan(2_993_760_001, 64)

    def test_pinned_moduli_past_the_ceiling_are_refused(self):
        cfg = Config(moduli_override=(2048, 2187, 3125))  # M ~ 1.4e10
        with pytest.raises(OracleCapExceededError, match="grid ceiling"):
            make_plan(2**22, 64, config=cfg)
        cfg = Config(moduli_override=(625, 1792, 2673))  # M = 2,993,760,000
        assert make_plan(2**22, 64, config=cfg).M == 2_993_760_000

    def test_cached(self):
        choose_moduli(2**20, 64)
        before = choose_moduli.cache_info()
        make_plan(2**20, 64)
        make_plan(2**20, 64)
        after = choose_moduli.cache_info()
        assert after.hits == before.hits + 2 and after.misses == before.misses

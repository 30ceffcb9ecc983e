import math

import numpy as np
import pytest

from crtfft.config import Config
from crtfft.dft import fft_op_count
from crtfft.errors import DenseRegimeError
from crtfft.planner import (
    choose_moduli,
    divisor_moduli,
    make_plan,
    rehash,
    rng_stream,
    validate_plan,
)


@pytest.mark.parametrize(
    "N, k, dense",
    [(10**6, 50, False), (64, 2, False), (10**4, 40, False), (100, 4, False),
     (100, 5, True), (100, 6, True)],
    ids=["sparse-large", "sparse-toy", "moderate-band", "below-boundary", "at-boundary",
         "above-boundary"],
)
def test_dense_boundary(N, k, dense):
    """k/sqrt(N) >= rho_dense (0.5) has no fast-path plan; anything below plans."""
    if dense:
        with pytest.raises(DenseRegimeError, match=r"rho = 0\.[56]00 >= 0\.5"):
            make_plan(N, k)
    else:
        assert validate_plan(make_plan(N, k)) == []


class TestMakePlan:
    def test_toy_override(self):
        cfg = Config(moduli_override=(7, 11, 13), identity_hash=True)
        plan = make_plan(64, 2, 0, seed=0, config=cfg)
        assert plan.triple.moduli == (7, 11, 13)
        assert plan.M == 1001 >= 64
        assert all(v.sigma == 1 and v.b == 0 for v in plan.id_views)

    def test_mega_plan_moduli(self):
        plan = make_plan(2**20, 20, 3, seed=5)
        assert plan.triple.moduli == (1024, 1089, 1225)  # 2^10, 3^2*11^2, 5^2*7^2
        assert plan.M >= 2**20
        assert len(plan.verify_views) == 3

    def test_adaptive_moduli_when_load_high(self):
        # rho = 0.2 stays under the sparse threshold but the load factor
        # 200/1000 exceeds the peeling threshold, so the floor moves to
        # 10*k*log2(k) ~ 15288
        plan = make_plan(10**6, 200, 0, seed=1)
        assert plan.triple.moduli == (15309, 15625, 16384)  # 3^7*7, 5^6, 2^14
        assert min(plan.triple.moduli) >= 10 * 200 * math.log2(200)

    def test_moderate_load_bound(self):
        plan = make_plan(10**6, 200, 0, seed=1)
        k = 200
        bound = (1 / (10 * math.log2(k))) * 1.05
        assert k / min(plan.triple.moduli) <= bound

    def test_determinism(self):
        a = make_plan(2**18, 10, 3, seed=99)
        b = make_plan(2**18, 10, 3, seed=99)
        assert a == b

    def test_seed_changes_draws(self):
        a = make_plan(2**18, 10, 3, seed=1)
        b = make_plan(2**18, 10, 3, seed=2)
        assert a.triple == b.triple
        assert a.id_views != b.id_views

    def test_verification_independent_of_t(self):
        # identification draws come from their own stream: changing t must
        # not alter them
        a = make_plan(2**18, 10, 0, seed=7)
        b = make_plan(2**18, 10, 3, seed=7)
        c = make_plan(2**18, 10, 5, seed=7)
        assert a.id_views == b.id_views == c.id_views
        assert b.verify_views == c.verify_views[:3]

    def test_verify_views_reuse_triple_moduli(self):
        plan = make_plan(2**18, 10, 4, seed=3)
        for v in plan.verify_views:
            assert v.m in plan.triple.moduli
            assert plan.M % v.m == 0

    def test_sigma_invertible(self):
        plan = make_plan(2**16, 5, 3, seed=11)
        for v in plan.id_views + plan.verify_views:
            assert math.gcd(v.sigma, plan.M) == 1
            assert 1 <= v.a < v.m


class TestValidatePlan:
    def test_clean_plan(self):
        cfg = Config(moduli_override=(7, 11, 13), identity_hash=True)
        assert validate_plan(make_plan(64, 2, 0, seed=0, config=cfg)) == []
        assert validate_plan(make_plan(2**16, 4, 3, seed=0)) == []

    def test_not_coprime_flagged(self):
        plan = make_plan(2**16, 4, 0, seed=0)
        broken = plan.__class__(
            id_views=plan.id_views,
            verify_views=plan.verify_views,
            triple=plan.triple.__class__(
                m1=plan.triple.m1,
                m2=plan.triple.m1,  # duplicate modulus
                m3=plan.triple.m3,
                gamma12=plan.triple.gamma12,
                gamma23=plan.triple.gamma23,
                M=plan.M,
            ),
            M=plan.M,
            N=plan.N,
            k=plan.k,
        )
        assert any(v.startswith("NotCoprime") for v in validate_plan(broken))

    def test_gate_wrap_flagged(self):
        # 7*11 < 100: two-view reconstructions of frequencies in [77, 100) wrap
        plan = make_plan(100, 1, config=Config(moduli_override=(7, 11, 13)))
        assert plan.M >= plan.N
        assert [v for v in validate_plan(plan) if v.startswith("GateWrap")] == [
            "GateWrap: 7*11 < N=100"
        ]

    @pytest.mark.parametrize("k", [1, 3, 12, 64])
    def test_planned_moduli_are_valid(self, k):
        for a in range(6, 21):
            if k / math.sqrt(2**a) < Config().rho_dense:
                assert validate_plan(make_plan(2**a, k, seed=a)) == []

    def test_product_too_small_flagged(self):
        plan = make_plan(2**16, 4, 0, seed=0)
        import dataclasses

        shrunk = dataclasses.replace(plan, N=plan.M + 1)
        assert any(v.startswith("ProductTooSmall") for v in validate_plan(shrunk))


class TestRehash:
    def test_deterministic(self):
        plan = make_plan(2**16, 5, 2, seed=4)
        assert rehash(plan, 123, 1) == rehash(plan, 123, 1)

    def test_fresh_params_same_moduli(self):
        plan = make_plan(2**16, 5, 2, seed=4)
        new = rehash(plan, 123, 1)
        assert new.triple == plan.triple
        assert new.id_views != plan.id_views
        assert new.verify_views == plan.verify_views


class TestRngStream:
    def test_label_separation(self):
        a = rng_stream(1, "id-view-0").integers(0, 1 << 30, 4).tolist()
        b = rng_stream(1, "id-view-1").integers(0, 1 << 30, 4).tolist()
        c = rng_stream(1, "id-view-0").integers(0, 1 << 30, 4).tolist()
        assert a == c and a != b


def test_divisor_moduli():
    assert divisor_moduli(1001) == (7, 11, 13)
    assert divisor_moduli(1021) is None  # prime
    assert divisor_moduli(2**10) is None  # single prime factor
    assert divisor_moduli(7429) == (17, 19, 23)
    m = 16 * 27 * 25
    assert divisor_moduli(m) == (16, 25, 27)


def _view_cost(m):
    return 3 * m + fft_op_count(m)


def _brute_force_moduli(N, k, bound):
    """Cheapest qualifying triple with every member below `bound`, by exhaustion.

    The int64 grid ceiling is left out: no triple this small reaches it.
    """
    high_load = k >= 2 and k / round(math.sqrt(N)) > 0.1
    floor = max(2, math.ceil(10 * k * math.log2(k) if high_load else k / 0.1))
    values = np.arange(floor, bound, dtype=np.int64)
    cost = np.array([_view_cost(int(m)) for m in values])
    best = None
    for i, a in enumerate(values):
        b, c = values[i + 1 :, None], values[None, i + 1 :]
        ok = (b < c) & (a * b >= N) & (np.gcd(a, b) == 1) & (np.gcd(a * b, c) == 1)
        if ok.any():
            total = np.where(ok, cost[i] + cost[i + 1 :, None] + cost[None, i + 1 :], np.inf)
            for r, q in np.argwhere(total == total.min()):
                key = (total[r, q], int(a * b[r, 0] * c[0, q]), (int(a), int(b[r, 0]), int(c[0, q])))
                best = key if best is None or key < best else best
    return best


class TestChooseModuli:
    def test_benchmark_plans_are_smooth(self):
        assert choose_moduli(2**20, 64, 0.1) == (1024, 1089, 1225)
        assert choose_moduli(2**14, 12, 0.1) == (121, 147, 160)  # 11^2, 3*7^2, 2^5*5

    @pytest.mark.parametrize("N, k", [(4, 0), (20, 1), (64, 1), (100, 2), (500, 2), (1000, 2)])
    def test_matches_exhaustive_search(self, N, k):
        moduli = choose_moduli(N, k, 0.1)
        total = sum(map(_view_cost, moduli))
        # every view costs at least 5*m, so no cheaper triple has a member >= total/5
        assert _brute_force_moduli(N, k, total // 5 + 1)[2] == moduli

    def test_int64_grid_ceiling_kept(self):
        for N in range(1_000_000, 2_070_001, 10_000):
            plan = make_plan(N, 64)
            assert plan.M <= 3_000_000_000
            assert validate_plan(plan) == []

    def test_int64_grid_ceiling_edges(self):
        # N^1.5 > 3e9 for N = 2^22: no triple fits under the ceiling, so it is dropped
        assert choose_moduli(2**22, 64, 0.1) == (2048, 2187, 2401)
        # near the ceiling only non-smooth lengths fit: 1439 is prime, 1441 = 11*131
        assert choose_moduli(2_070_000, 64, 0.1) == (1439, 1440, 1441)

    def test_cached(self):
        choose_moduli(2**20, 64, 0.1)
        before = choose_moduli.cache_info()
        make_plan(2**20, 64, seed=1)
        make_plan(2**20, 64, seed=2)
        after = choose_moduli.cache_info()
        assert after.hits == before.hits + 2 and after.misses == before.misses

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.certificate import parse_certificate
from crtfft.errors import NotCoprimeError
from crtfft.gating import garner2
from crtfft.numtheory import ModTriple, coprime_divisor_capacity, factorize, mod_inverse


class TestModInverse:
    def test_7_mod_11(self):
        assert mod_inverse(7, 11) == 8

    def test_identity(self):
        for m in (2, 7, 97):
            assert mod_inverse(1, m) == 1

    def test_4_mod_7(self):
        # exhaustive: 2 is the only inverse of 4 in [0, 7)
        assert [c for c in range(7) if (4 * c) % 7 == 1] == [2]
        assert mod_inverse(4, 7) == 2

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            mod_inverse(6, 9)

    @pytest.mark.parametrize("m", [1, 0, -7])
    def test_modulus_below_2(self, m):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {m}"):
            mod_inverse(1, m)

    def test_negative_and_numpy_integers(self):
        assert mod_inverse(-4, 7) == 5
        inverse = mod_inverse(np.int64(7), np.int32(11))
        assert inverse == 8 and type(inverse) is int

    def test_exhaustive_up_to_1000(self):
        for m in range(2, 1001, 37):
            for a in range(1, m):
                if math.gcd(a, m) == 1:
                    assert (a * mod_inverse(a, m)) % m == 1


class TestGarner2:
    def test_published_rows(self):
        assert garner2(0, 7, 7, 11) == 7
        assert garner2(6, 8, 7, 11) == 41

    def test_corrected_row_by_exhaustion(self):
        expected = [f for f in range(77) if f % 7 == 3 and f % 11 == 1]
        assert expected == [45]
        assert garner2(3, 1, 7, 11) == 45

    def test_equal_residues(self):
        assert garner2(4, 4, 7, 11) == 4

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            garner2(1, 2, 6, 9)

    @pytest.mark.parametrize("r1, r2", [(7, 0), (0, 11), (-1, 0), (0, -1)])
    def test_residues_out_of_range(self, r1, r2):
        with pytest.raises(ValueError, match="out of range for \\(7, 11\\)"):
            garner2(r1, r2, 7, 11)

    @given(st.data())
    @settings(max_examples=200)
    def test_congruences_hold(self, data):
        m1 = data.draw(st.sampled_from([3, 5, 7, 11, 13, 16, 27]))
        m2 = data.draw(st.sampled_from([4, 9, 11, 13, 17, 25]))
        if math.gcd(m1, m2) != 1:
            return
        r1 = data.draw(st.integers(0, m1 - 1))
        r2 = data.draw(st.integers(0, m2 - 1))
        f = garner2(r1, r2, m1, m2)
        assert 0 <= f < m1 * m2
        assert f % m1 == r1 and f % m2 == r2


def _records(freqs, t):
    """A format-1 certificate payload for unit tones at `freqs` on t's grid,
    each with the CRT record format-1 writers gave it (residues and
    mixed-radix digits read from f by division), and those records as
    (r1, r2, r3, u2, u3)."""
    m1, m2, m3 = t.moduli
    records = [(f % m1, f % m2, f % m3, f // m1 % m2, f // (m1 * m2)) for f in freqs]
    keys = ("r1", "r2", "r3", "u2", "u3")
    payload = {
        "format": "crtfft-certificate/1", "grid_length": t.M, "amplitude_threshold": 0.0,
        "declared_n": None,
        "recovered": [{"f": f, "re": 1.0, "im": 0.0, "crt": dict(zip(keys, r))}
                      for f, r in zip(freqs, records)],
        "plan": {"m": t.M, "moduli": list(t.moduli), "gamma12": t.gamma12,
                 "gamma23": t.gamma23, "verify_views": None},
    }
    return payload, records


class TestGarner3:
    # the mixed-radix digits f = r1 + u2*m1 + u3*m1*m2 that format-1
    # certificates recorded, and that format-1 replay recomputes from the
    # residues by Garner's formula
    def test_published_value(self):
        t = ModTriple.create(7, 11, 13)
        _, [(r1, r2, r3, u2, u3)] = _records([41], t)
        assert (r1, r2, r3) == (6, 8, 2)
        assert r1 + u2 * 7 + u3 * 77 == 41

    def test_trivial_values(self):
        t = ModTriple.create(7, 11, 13)
        assert _records([0, 5], t)[1] == [(0, 0, 0, 0, 0), (5, 5, 5, 0, 0)]

    def test_full_sweep_1001(self):
        t = ModTriple.create(7, 11, 13)
        payload, records = _records(range(1001), t)
        for f, (r1, r2, r3, u2, u3) in enumerate(records):
            assert (r1, r2, r3) == (f % 7, f % 11, f % 13)
            assert r1 + u2 * 7 + u3 * 77 == f
            # the digits Garner's algorithm computes from the residues alone
            assert u2 == (r2 - r1) % 11 * t.gamma12 % 11
            assert u3 == (r3 - r1 - u2 * 7) % 13 * t.gamma23 % 13
        assert parse_certificate(payload).violations == []

    def test_random_small_triples_roundtrip(self):
        triples = [(3, 5, 7), (8, 9, 11), (16, 21, 25), (23, 29, 31), (32, 45, 49)]
        for m1, m2, m3 in triples:
            t = ModTriple.create(m1, m2, m3)
            assert t.M <= 10**5
            payload, records = _records(range(t.M), t)
            for f, (r1, r2, r3, u2, u3) in enumerate(records):
                assert type(r1) is type(r2) is type(r3) is type(u2) is type(u3) is int
                assert 0 <= u2 < m2 and 0 <= u3 < m3
                assert r1 + u2 * m1 + u3 * m1 * m2 == f
            assert parse_certificate(payload).violations == []

    def test_parts_recompose(self):
        t = ModTriple.create(7, 11, 13)
        _, [(r1, _, _, u2, u3)] = _records([41], t)
        assert r1 + u2 * 7 + u3 * 77 == 41

    def test_agreement_with_garner2_below_product(self):
        # below m1*m2 the top digit is 0 and the rest are garner2's
        t = ModTriple.create(7, 11, 13)
        _, records = _records(range(77), t)
        assert all(u3 == 0 for *_, u3 in records)
        assert [garner2(r1, r2, 7, 11) for r1, r2, *_ in records] == list(range(77))
        assert [r1 + u2 * 7 for r1, _, _, u2, _ in records] == list(range(77))


class TestModTriple:
    def test_invariants(self):
        t = ModTriple.create(7, 11, 13)
        assert (t.m1 * t.gamma12) % t.m2 == 1
        assert (t.m1 * t.m2 * t.gamma23) % t.m3 == 1
        assert t.M == 1001

    @pytest.mark.parametrize("moduli", [(1, 11, 13), (7, 0, 13), (7, 11, -13)])
    def test_rejects_modulus_below_2(self, moduli):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            ModTriple.create(*moduli)

    def test_rejects_shared_factor(self):
        with pytest.raises(NotCoprimeError):
            ModTriple.create(6, 9, 11)

    def test_rejects_oversized_product(self):
        p = (1 << 43) - 1  # not prime, but coprimality is what matters here
        with pytest.raises((ValueError, NotCoprimeError)):
            ModTriple.create(p, p - 2, p - 4)


class TestCapacity:
    def test_published_example(self):
        assert coprime_divisor_capacity(100000) == 2

    def test_prime(self):
        assert coprime_divisor_capacity(1009) == 1

    def test_three_prime_product(self):
        assert coprime_divisor_capacity(1001) == 3

    @pytest.mark.parametrize("n", [0, -6])
    def test_factorize_refuses_below_1(self, n):
        with pytest.raises(ValueError, match=f"cannot factorize {n}"):
            factorize(n)

    @pytest.mark.parametrize("n", [1, 0])
    def test_capacity_refuses_below_2(self, n):
        with pytest.raises(ValueError, match=f"capacity undefined for {n}"):
            coprime_divisor_capacity(n)

    def test_factorize_consistency(self):
        for n in (2, 12, 360, 1001, 2**10 * 3**4):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.items()) == n
            assert coprime_divisor_capacity(n) == len(f)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.errors import NotCoprimeError
from crtfft.gating import garner2
from crtfft.numtheory import (
    ModTriple,
    coprime_divisor_capacity,
    factorize,
    garner_digits,
    mod_inverse,
)


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


def _recompose(freqs, t):
    r1, r2, r3, u2, u3 = garner_digits(freqs, t)
    return r1 + u2 * t.m1 + u3 * t.m1 * t.m2


class TestGarner3:
    def test_published_value(self):
        t = ModTriple.create(7, 11, 13)
        r1, r2, r3, _, _ = garner_digits(np.array([41]), t)
        assert (r1[0], r2[0], r3[0]) == (6, 8, 2)
        assert _recompose(np.array([41]), t).tolist() == [41]

    def test_trivial_values(self):
        t = ModTriple.create(7, 11, 13)
        assert [d.tolist() for d in garner_digits(np.array([0, 5]), t)] == [
            [0, 5], [0, 5], [0, 5], [0, 0], [0, 0]]

    def test_full_sweep_1001(self):
        t = ModTriple.create(7, 11, 13)
        f = np.arange(1001)
        r1, r2, r3, u2, u3 = garner_digits(f, t)
        assert (r1 == f % 7).all() and (r2 == f % 11).all() and (r3 == f % 13).all()
        assert (_recompose(f, t) == f).all()
        # the digits Garner's algorithm computes from the residues alone
        assert (u2 == (r2 - r1) % 11 * t.gamma12 % 11).all()
        assert (u3 == (r3 - r1 - u2 * 7) % 13 * t.gamma23 % 13).all()

    def test_random_small_triples_roundtrip(self):
        triples = [(3, 5, 7), (8, 9, 11), (16, 21, 25), (23, 29, 31), (32, 45, 49)]
        for m1, m2, m3 in triples:
            t = ModTriple.create(m1, m2, m3)
            assert t.M <= 10**5
            f = np.arange(t.M)
            digits = garner_digits(f, t)
            assert all(d.dtype == np.int64 for d in digits)
            assert (0 <= digits[3]).all() and (digits[3] < m2).all()
            assert (0 <= digits[4]).all() and (digits[4] < m3).all()
            assert (_recompose(f, t) == f).all()

    def test_parts_recompose(self):
        t = ModTriple.create(7, 11, 13)
        r1, _, _, u2, u3 = (int(d[0]) for d in garner_digits(np.array([41]), t))
        assert r1 + u2 * 7 + u3 * 77 == 41

    def test_agreement_with_garner2_below_product(self):
        # below m1*m2 the top digit is 0 and the rest are garner2's
        t = ModTriple.create(7, 11, 13)
        f = np.arange(77)
        r1, r2, _, u2, u3 = garner_digits(f, t)
        assert (u3 == 0).all()
        assert [garner2(a, b, 7, 11) for a, b in zip(r1.tolist(), r2.tolist())] == f.tolist()
        assert (r1 + u2 * 7 == f).all()


class TestModTriple:
    def test_invariants(self):
        t = ModTriple.create(7, 11, 13)
        assert (t.m1 * t.gamma12) % t.m2 == 1
        assert (t.m1 * t.m2 * t.gamma23) % t.m3 == 1
        assert t.M == 1001

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

    def test_factorize_consistency(self):
        for n in (2, 12, 360, 1001, 2**10 * 3**4):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.items()) == n
            assert coprime_divisor_capacity(n) == len(f)

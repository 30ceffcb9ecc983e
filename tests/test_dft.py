import numpy as np
import pytest

from crtfft import dft
from crtfft.dft import (
    dft_direct,
    dft_forward,
    dft_inverse_sum,
    fft_op_count,
)
from crtfft.errors import NonFiniteError, OracleCapExceededError

# powers of two, primes, and mixed composites
SIZES = [1, 2, 4, 8, 64, 256, 7, 11, 13, 97, 101, 997, 12, 60, 1001, 1024]


def random_buffer(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_impulse_gives_flat_spectrum():
    out = dft_forward([1, 0, 0, 0])
    assert np.allclose(out, np.ones(4), atol=1e-12)


def test_single_tone_prime_length():
    n, f = 7, 3
    x = np.exp(2j * np.pi * f * np.arange(n) / n)
    out = dft_forward(x)
    assert abs(out[f] - n) < 1e-9
    others = np.delete(np.abs(out), f)
    assert others.max() < 1e-9


def test_flat_buffer_roundtrip():
    c = 0.5 - 2j
    x = np.full(16, c)
    spec = dft_forward(x)
    assert abs(spec[0] - 16 * c) < 1e-9
    assert np.abs(spec[1:]).max() < 1e-9
    assert np.allclose(dft_inverse_sum(spec) / 16, x, atol=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_engines_match_direct_oracle(rng, n):
    x = random_buffer(rng, n)
    fast = dft_forward(x)
    direct = dft_direct(x)
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() <= 1e-9 * max(scale, 1.0)


@pytest.mark.parametrize("n", [12, 13, 64, 101, 1001])
def test_inverse_sum_is_the_unscaled_inverse(rng, n):
    # the conjugate of the forward sum of the conjugate, row by row
    x = np.stack([random_buffer(rng, n) for _ in range(3)])
    want = np.conj(dft_direct(np.conj(x)))
    assert np.abs(dft_inverse_sum(x) - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("n", [12, 13, 64, 101, 1001])
def test_roundtrip(rng, n):
    x = random_buffer(rng, n)
    back = dft_inverse_sum(dft_forward(x)) / n
    assert np.abs(back - x).max() <= 1e-9 * np.abs(x).max()


@pytest.mark.parametrize("n", SIZES)
def test_parseval(rng, n):
    x = random_buffer(rng, n)
    spec = dft_forward(x)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(spec) ** 2) / n
    assert abs(time_energy - freq_energy) <= 1e-9 * time_energy


def test_linearity(rng):
    n = 97
    x, y = random_buffer(rng, n), random_buffer(rng, n)
    a, b = 1.5 - 0.25j, -2.0 + 1j
    lhs = dft_forward(a * x + b * y)
    rhs = a * dft_forward(x) + b * dft_forward(y)
    assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()


def test_matches_numpy(rng):
    for n in (8, 13, 100, 1021):
        x = random_buffer(rng, n)
        assert np.allclose(dft_forward(x), np.fft.fft(x), atol=1e-9 * n)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        dft_forward([1.0, np.nan, 0.0])
    with pytest.raises(NonFiniteError):
        dft_direct([np.inf + 0j, 0j])


@pytest.mark.parametrize("m", [1, 8, 13, 60])
def test_stack_is_transformed_row_by_row(rng, m):
    stack = np.stack([random_buffer(rng, m) for _ in range(3)])
    want = np.stack([dft_direct(row) for row in stack])
    tol = 1e-9 * max(np.abs(want).max(), 1.0)
    fast = dft_forward(stack)
    assert fast.shape == (3, m)
    assert np.abs(fast - want).max() <= tol
    assert np.abs(dft_direct(stack) - want).max() <= tol


def test_stack_contract_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        dft_forward(np.zeros((2, 3, 4), dtype=complex))
    stack = np.stack([random_buffer(rng, 5) for _ in range(3)])
    stack[2, 4] = np.nan
    with pytest.raises(NonFiniteError):
        dft_forward(stack)


def test_empty_buffer_rejected():
    with pytest.raises(ValueError, match="empty buffer"):
        dft_forward(np.zeros(0, dtype=complex))


def test_length_cap(monkeypatch):
    # the cap is 2^31 points; lowered to 8, a row of 8 is refused before any transform
    monkeypatch.setattr(dft, "_MAX_LENGTH", 8)
    assert dft_forward(np.ones(7)).shape == (7,)
    for x in (np.ones(8), np.ones((2, 8))):
        with pytest.raises(OracleCapExceededError, match="length 8 above supported maximum"):
            dft_forward(x)


def test_oracle_cap():
    with pytest.raises(OracleCapExceededError):
        dft_direct(np.zeros(10), cap=8)


def test_op_count_models():
    for a in range(1, 21):
        assert fft_op_count(2**a) == 2 * 2**a * a
    # chirp-z at a prime: three 2048-point transforms, the chirp and 3n multiplies
    assert fft_op_count(1021) == 3 * 2 * 2048 * 11 + 2048 + 3 * 1021 == 140279
    # mixed radix at 11-smooth lengths: n times the sum of the prime factors
    assert fft_op_count(1089) == 1089 * (3 + 3 + 11 + 11) == 30492
    assert fft_op_count(160) == 160 * (2 * 5 + 5) == 2400
    # a 13-smooth composite stays on chirp-z
    assert fft_op_count(1001) == 3 * 2 * 2048 * 11 + 2048 + 3 * 1001

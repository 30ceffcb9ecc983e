"""Complex DFT for arbitrary lengths.

Conventions, fixed globally: the forward transform is the plain unnormalized
sum X[r] = sum_n x[n] e^{-2pi i rn/N}; the inverse carries the 1/N factor.
`numpy.fft` is the only engine: `dft_forward` checks its input and hands it
to `np.fft.fft`, one transform per row of a 1-D buffer or a 2-D stack.
`dft_direct` is the quadratic-time literal evaluation of the definition,
kept as the independent test oracle and never used by fast paths.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonFiniteError, OracleCapExceededError

DEFAULT_ORACLE_CAP = 8192

# Longest accepted transform; longer rows are refused with a typed error.
_MAX_LENGTH = 1 << 31


def _as_buffer(x) -> np.ndarray:
    """A finite complex 1-D buffer, or a 2-D stack of equal-length buffers."""
    arr = np.ascontiguousarray(x, dtype=np.complex128)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D buffer or a 2-D stack, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty buffer")
    if arr.shape[-1] >= _MAX_LENGTH:
        raise OracleCapExceededError(f"length {arr.shape[-1]} above supported maximum")
    if not np.isfinite(arr.view(np.float64)).all():
        raise NonFiniteError("buffer contains NaN or Inf samples")
    return arr


def dft_forward(x, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized forward DFT of a finite buffer, or of each row of a stack.

    `out`, when given, is a complex128 array of the input's shape that
    receives the transform and is returned; passing the input buffer itself
    transforms it in place, with the same bits as a fresh output.
    """
    return np.fft.fft(_as_buffer(x), axis=-1, out=out)


def dft_inverse(x) -> np.ndarray:
    """Inverse DFT with 1/N normalization; dft_inverse(dft_forward(x)) == x."""
    return np.fft.ifft(_as_buffer(x), axis=-1)


def dft_direct(x, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Literal O(n^2) evaluation of the forward-transform definition.

    Independent oracle for the fast engine, row by row on a stack; refuses
    lengths above `cap`.
    """
    arr = _as_buffer(x)
    n = arr.shape[-1]
    if n > cap:
        raise OracleCapExceededError(f"direct oracle capped at {cap}, got {n}")
    out = np.empty(arr.shape, dtype=np.complex128)
    j = np.arange(n, dtype=np.int64)
    block = max(1, (1 << 21) // n)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n), dtype=np.int64)
        expo = (rows[:, None] * j[None, :]) % n
        out[..., start : start + rows.size] = arr @ np.exp(-2j * np.pi * expo / n).T
    return out


# Radices of the mixed-radix branch of the op model.
SMOOTH_PRIMES = (2, 3, 5, 7, 11)


@functools.lru_cache(maxsize=1024, typed=True)
def fft_op_count(n: int) -> int:
    """Fixed model complex-op cost of one length-n forward transform.

    The model is that of a mixed-radix kernel at 11-smooth lengths, n times
    the sum of the prime factors of n counted with multiplicity (2*n*log2(n),
    one multiply and one add pair per butterfly, at powers of two), and of a
    chirp-z reduction at every other length (three power-of-two transforms
    plus the chirp and pointwise multiplies).  It does not describe the work
    `numpy.fft` does; it stays fixed so that op counts remain comparable
    across commits, and the planner picks moduli by it.  A pure function of
    n, cached.
    """
    if n <= 1:
        return 1
    rest, radix_sum = n, 0
    for p in SMOOTH_PRIMES:
        while rest % p == 0:
            rest //= p
            radix_sum += p
    if rest == 1:
        return n * radix_sum
    conv_len = 1 << (2 * n - 1).bit_length()
    return 3 * fft_op_count(conv_len) + conv_len + 3 * n

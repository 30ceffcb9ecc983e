import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.dft import dft_direct
from crtfft.errors import (
    CrtFftError,
    DuplicateFrequencyError,
    NonFiniteError,
    OracleCapExceededError,
    OutOfRangeError,
    ParseError,
)
from crtfft.pipeline import sparse_fft
from crtfft.signal import (
    _MAX_GRID,
    SparseSpectrum,
    _progression_step,
    from_dense,
    load_dense_binary,
    load_dense_csv,
    load_spectrum,
    save_dense_binary,
    save_dense_csv,
    save_spectrum,
    synthesize,
)
from conftest import mutate_bytes, mutate_one_value, random_spectrum


def progression(m, dilation, M, shift):
    """Grid indices (dilation*j*d + shift) mod M, j < m, d = M/m: a row that
    wraps the grid with step dilation*d."""
    j = np.arange(m, dtype=np.int64)
    return (dilation * (j * (M // m)) + shift) % M


class TestSparseSpectrum:
    def test_sorted_and_deduped(self):
        s = SparseSpectrum.from_pairs([(5, 1j), (2, 1.0)], 8)
        assert [f for f, _ in s.entries] == [2, 5]

    def test_zero_coefficients_dropped(self):
        s = SparseSpectrum.from_pairs([(1, 0.0), (2, 1.0)], 8)
        assert len(s) == 1

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateFrequencyError):
            SparseSpectrum.from_pairs([(1, 1.0), (1, 2.0)], 8)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            SparseSpectrum.from_pairs([(8, 1.0)], 8)

    @pytest.mark.parametrize("f", [1.7, np.float64(2.9), True, "3"],
                             ids=["float", "numpy-float", "bool", "string"])
    def test_non_integer_frequency_rejected(self, f):
        # nothing is rounded or parsed onto the grid
        with pytest.raises(OutOfRangeError, match="not an integer"):
            SparseSpectrum.from_pairs([(f, 1.0)], 8)

    @pytest.mark.parametrize("grid_length", [2.5, "8", True, 0, -3, None],
                             ids=["float", "string", "bool", "zero", "negative", "none"])
    def test_bad_grid_length_rejected(self, grid_length):
        with pytest.raises(OutOfRangeError, match="grid_length"):
            SparseSpectrum.from_pairs([(1, 1.0)], grid_length)

    def test_grid_length_past_int64_refused(self):
        with pytest.raises(OracleCapExceededError, match="above supported maximum"):
            SparseSpectrum.from_pairs([(1, 1.0)], 1 << 63)

    @pytest.mark.parametrize("coeff", ["1", None, [1], b"1", True],
                             ids=["string", "none", "list", "bytes", "bool"])
    def test_non_number_coefficient_rejected(self, coeff):
        # nothing is parsed into a number
        with pytest.raises(OutOfRangeError, match="not a number"):
            SparseSpectrum.from_pairs([(1, coeff)], 8)

    def test_numpy_grid_length_stored_as_int(self):
        s = SparseSpectrum.from_pairs([(1, 1.0)], np.int64(8))
        assert type(s.grid_length) is int
        # the certificate of a run on it serializes
        json.loads(sparse_fft(synthesize(s), 1).certificate.to_json())

    def test_arrays_are_read_only(self):
        s = SparseSpectrum.from_pairs([(5, 1j), (2, 1.0)], 8)
        assert s.frequencies().dtype == np.int64 and s.coefficients().dtype == np.complex128
        for arr in (s.frequencies(), s.coefficients()):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_numpy_integer_frequencies(self):
        s = SparseSpectrum.from_pairs([(np.int64(5), 1j), (np.uint8(2), 1.0)], 8)
        assert s.entries == ((2, 1.0), (5, 1j))
        assert all(type(f) is int for f, _ in s.entries)

    def test_nonfinite_rejected(self):
        # in the real part and in the imaginary part alone
        for coeff in (complex("nan"), complex(1, float("nan")), complex("inf"),
                      complex(1, float("-inf"))):
            with pytest.raises(NonFiniteError):
                SparseSpectrum.from_pairs([(1, coeff)], 8)


class TestSynthesize:
    def test_dc_tone(self):
        src = synthesize(SparseSpectrum.from_pairs([(0, 1.0)], 8))
        assert all(src.sample(n) == 1.0 for n in range(8))

    def test_two_tone_worked_example_grid(self):
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], 1001)
        src = synthesize(spec)
        n = 17
        expected = np.exp(2j * np.pi * 7 * n / 1001) + np.exp(2j * np.pi * 41 * n / 1001)
        assert abs(src.sample(n) - expected) < 1e-12

    def test_dense_transform_recovers_coefficients(self, rng):
        spec = random_spectrum(rng, 5, 4096)
        src = synthesize(spec)
        dense = dft_direct(src.materialize()) / 4096
        for f, c in spec.entries:
            assert abs(dense[f] - c) < 1e-9
        mask = np.ones(4096, dtype=bool)
        mask[spec.frequencies()] = False
        norm = np.abs(spec.coefficients()).sum()
        assert np.abs(dense[mask]).max() <= 1e-9 * norm

    def test_repeat_access_bit_identical(self, rng):
        spec = random_spectrum(rng, 3, 1001)
        src = synthesize(spec)
        view_block = progression(11, 5, 1001, 2)
        for idx in (np.arange(50, dtype=np.int64), view_block):
            a = src.sample_block(idx)
            b = src.sample_block(idx)
            assert (a == b).all()

    def test_energy_identity(self, rng):
        # on-grid Parseval: sum |x[n]|^2 == M * sum |A_i|^2
        spec = random_spectrum(rng, 4, 1001)
        src = synthesize(spec)
        total = np.sum(np.abs(src.materialize()) ** 2)
        assert abs(total - 1001 * spec.energy()) <= 1e-9 * total

    def test_materialize_matches_index_reads(self, rng):
        # one length-M inverse transform equals reading every index
        M = 1001
        spec = random_spectrum(rng, 6, M)
        src = synthesize(spec)
        order = rng.permutation(M)  # not a progression: the O(k) per-sample read
        want = np.empty(M, dtype=np.complex128)
        want[order] = src.sample_block(order)
        tol = 1e-12 * np.abs(spec.coefficients()).sum()
        assert np.abs(src.materialize() - want).max() <= tol
        assert (synthesize(SparseSpectrum.from_pairs([], M)).materialize() == 0).all()

    def test_grid_above_supported_maximum_is_typed(self):
        M = 2048 * 2187 * 3125  # about 1.4e10, past exact int64 index products
        assert M > _MAX_GRID
        with pytest.raises(OracleCapExceededError, match="above supported maximum"):
            synthesize(SparseSpectrum.from_pairs([(1, 1.0)], M))


def generic_read(src, idx, rng):
    """The chunked per-index sum over idx, the reference for progression reads.

    A permuted block that is no cyclic progression takes the generic path;
    its values are put back in the original order.
    """
    while True:
        perm = rng.permutation(idx.size)
        if _progression_step(idx[perm], src.grid_length) is None:
            break
    out = np.empty(idx.size, dtype=np.complex128)
    out[perm] = src.sample_block(idx[perm])
    return out


class TestProgressionRead:
    """A block idx[j] = (n0 + j*step) mod M with n*step = 0 (mod M) is read as
    one aliased inverse DFT; it must agree with the generic sum."""

    TOL = 1e-12  # times sum |A_f|, fixed from float64 roundoff

    def assert_matches_generic(self, src, spec, idx, rng):
        assert _progression_step(idx, src.grid_length) is not None
        got = src.sample_block(idx)
        want = generic_read(src, idx, rng)
        assert np.abs(got - want).max() <= self.TOL * np.abs(spec.coefficients()).sum()

    @pytest.mark.parametrize(
        "moduli, k", [((7, 11, 13), 5), ((127, 131, 137), 12), ((1423, 1427, 1429), 200)]
    )
    def test_view_blocks(self, rng, moduli, k):
        M = moduli[0] * moduli[1] * moduli[2]
        spec = random_spectrum(rng, k, M)
        src = synthesize(spec)
        dilation = int(rng.integers(2, M))
        while math.gcd(dilation, M) != 1:
            dilation = int(rng.integers(2, M))
        for m in moduli:
            for step in (1, dilation):
                for shift in (0, 1, int(rng.integers(2, M))):
                    idx = progression(m, step, M, shift)
                    self.assert_matches_generic(src, spec, idx, rng)

    def test_zero_step_repeats_one_sample(self, rng):
        spec = random_spectrum(rng, 6, 1001)
        src = synthesize(spec)
        idx = np.full(9, 404, dtype=np.int64)
        assert _progression_step(idx, 1001) == 0
        got = src.sample_block(idx)
        tol = self.TOL * np.abs(spec.coefficients()).sum()
        assert np.abs(got - src.sample(404)).max() <= tol

    def test_step_of_order_below_block_size(self, rng):
        # step 143 has order 7 mod 1001, so a 21-index block wraps it 3 times
        spec = random_spectrum(rng, 6, 1001)
        src = synthesize(spec)
        idx = (5 + 143 * np.arange(21, dtype=np.int64)) % 1001
        self.assert_matches_generic(src, spec, idx, rng)

    def test_full_grid(self, rng):
        spec = random_spectrum(rng, 6, 1001)
        src = synthesize(spec)
        idx = np.arange(1001, dtype=np.int64)
        self.assert_matches_generic(src, spec, idx, rng)
        assert (src.materialize() == src.sample_block(idx)).all()

    def test_near_misses_take_generic_path(self, rng):
        M = 1001
        spec = random_spectrum(rng, 6, M)
        src = synthesize(spec)
        view = progression(13, 3, M, 1)
        one_off = view.copy()
        one_off[4] = (one_off[4] + 1) % M
        # one index changed; a progression that stops before it wraps the grid
        for idx in (one_off, view[:12]):
            assert _progression_step(idx, M) is None
            want = generic_read(src, idx, rng)
            tol = self.TOL * np.abs(spec.coefficients()).sum()
            assert np.abs(src.sample_block(idx) - want).max() <= tol


def per_index(src, idx):
    """sample() at every index of a block, one call each."""
    return np.vectorize(src.sample, otypes=[np.complex128])(idx)


def wrapping_steps(rows, M):
    """The literal test of each row: its step is its first gap mod M, every
    index follows from the first by that step, and n steps return to it.
    The steps when every row passes, else None."""
    steps = []
    for row in rows.reshape(-1, rows.shape[-1]).tolist():
        step = (row[1] - row[0]) % M
        if any(x != (row[0] + j * step) % M for j, x in enumerate(row)) or len(row) * step % M:
            return None
        steps.append(step)
    return steps


@st.composite
def progression_blocks(draw):
    """(M, block, moved): a 1-D or 2-D block of rows of n indices, each an
    exact cyclic progression mod M with its own step (zero steps included)
    that wraps the grid a whole number of times, and the same block with
    one index moved."""
    M = draw(st.integers(2, 3000))
    n = draw(st.integers(2, 48))
    unit = M // math.gcd(n, M)  # every step with n*step == 0 (mod M) is a multiple of it
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, M - 1))
        step = unit * draw(st.integers(0, M)) % M
        rows.append([(start + j * step) % M for j in range(n)])
    block = np.array(rows, dtype=np.int64)
    if block.shape[0] == 1 and draw(st.booleans()):
        block = block[0]
    moved = block.copy()
    at = draw(st.integers(0, moved.size - 1))
    moved.flat[at] = (moved.flat[at] + draw(st.integers(1, M - 1))) % M
    return M, block, moved


class TestProgressionProperty:
    """Random exact progressions and the same blocks with one index moved:
    `_progression_step` accepts exactly the blocks whose every row wraps the
    grid with its own step, and `sample_block` agrees with reading each
    index on its own either way."""

    @settings(max_examples=150, deadline=None)
    @given(case=progression_blocks(), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_index_reads(self, case, k, seed):
        M, block, moved = case
        spec = random_spectrum(np.random.default_rng(seed), min(k, M), M)
        src = synthesize(spec)
        tol = TestProgressionRead.TOL * np.abs(spec.coefficients()).sum()
        assert wrapping_steps(block, M) is not None
        for idx in (block, moved):
            steps = _progression_step(idx, M)
            want = wrapping_steps(idx, M)
            assert (steps is None and want is None) or steps.tolist() == want
            got = src.sample_block(idx)
            assert got.shape == idx.shape
            assert np.abs(got - per_index(src, idx)).max() <= tol


class TestRowsWithTheirOwnSteps:
    """A stack whose rows each wrap the grid with their own step (shifted
    progressions of one length under several dilations) is read as one
    aliased inverse DFT; near misses take the generic path.  Both must agree
    with sample()."""

    M = 1001

    def stack(self):
        """Rows of three progressions of length 13: dilations 1, 3 and 4, shifts 0-2."""
        rows = [progression(13, dilation, self.M, s)
                for dilation in (1, 3, 4) for s in range(3)]
        return np.stack(rows)

    def check(self, rng, idx, progression):
        spec = random_spectrum(rng, 50, self.M)
        src = synthesize(spec)
        assert (_progression_step(idx, self.M) is not None) == progression
        got = src.sample_block(idx)
        tol = TestProgressionRead.TOL * np.abs(spec.coefficients()).sum()
        assert np.abs(got - per_index(src, idx)).max() <= tol

    def test_per_row_steps(self, rng):
        idx = self.stack()
        steps = _progression_step(idx, self.M)
        assert steps.tolist() == [77] * 3 + [231] * 3 + [308] * 3
        self.check(rng, idx, progression=True)

    def test_one_index_off(self, rng):
        idx = self.stack()
        idx[4, 6] = (idx[4, 6] + 1) % self.M
        self.check(rng, idx, progression=False)

    def test_step_changes_midway_through_a_row(self, rng):
        idx = self.stack()
        # row 4 keeps step 231 up to j = 6, then moves on by 77
        idx[4, 7:] = (idx[4, 6] + 77 * np.arange(1, 7)) % self.M
        self.check(rng, idx, progression=False)

    def test_row_that_does_not_wrap_the_grid(self, rng):
        idx = self.stack()
        # 13 steps of 7 do not return to the start: 13 * 7 != 0 (mod 1001)
        idx[5] = (idx[5, 0] + 7 * np.arange(13)) % self.M
        self.check(rng, idx, progression=False)


def index_block(case, rng):
    """(grid length, index block) for each block-shape case."""
    if case == "16-point":
        return 16, np.arange(6, dtype=np.int64).reshape(2, 3)
    if case == "view-stack":
        M = 1423 * 1427 * 1429
        dilation = int(rng.integers(1, M))
        return M, np.stack([progression(1427, dilation, M, s) for s in range(3)])
    if case == "mixed-steps":
        # each row wraps 1001 exactly, but with steps 77 and 154
        j = np.arange(13, dtype=np.int64)
        return 1001, np.stack([(3 + 77 * j) % 1001, (5 + 154 * j) % 1001])
    return 1001, np.arange(24, dtype=np.int64).reshape(2, 3, 4)


class TestBlockShapes:
    """sample_block takes an index array of any shape and answers in that
    shape, agreeing with sample() index by index."""

    @pytest.mark.parametrize("kind", ["synthesize", "from_dense"])
    @pytest.mark.parametrize("case", ["16-point", "view-stack", "mixed-steps", "3-d"])
    def test_matches_per_index_sample(self, rng, case, kind):
        M, idx = index_block(case, rng)
        assert (_progression_step(idx, M) is not None) == (case in ("view-stack", "mixed-steps"))
        if kind == "synthesize":
            spec = random_spectrum(rng, 4 if M == 16 else 50, M)
            src, tol = synthesize(spec), TestProgressionRead.TOL * np.abs(spec.coefficients()).sum()
        else:
            # dense reads are exact; the view stack's indices wrap the buffer
            n = min(M, 1 << 12)
            src, tol = from_dense(rng.normal(size=n) + 1j * rng.normal(size=n)), 0.0
        got = src.sample_block(idx)
        assert got.shape == idx.shape
        assert np.abs(got - per_index(src, idx)).max() <= tol


class TestFromDense:
    """A dense source holds its buffer on the buffer's own grid: a grid
    length given beside the buffer must be an integer equal to its length."""

    def test_zero_padding(self):
        # nothing is padded or cut: a grid other than the buffer's length is refused
        x = np.array([1, 2, 3, 4], dtype=complex)
        for grid in (3, 5, 6):
            with pytest.raises(OutOfRangeError, match=f"{grid} is not the buffer's length 4"):
                from_dense(x, grid)
        src = from_dense(x, 4)
        assert src.grid_length == 4 and src.sample(5) == 2

    def test_identity_wrapper(self, rng):
        x = rng.normal(size=5) + 0j
        src = from_dense(x)
        assert np.allclose(src.materialize(), x)

    def test_padding_consistency_with_synthesize(self, rng):
        # a dense copy of a synthesized grid reads what the synthesized
        # source reads, and cannot be padded past that grid
        spec = random_spectrum(rng, 2, 1001, fmax=64)
        src = synthesize(spec)
        dense = from_dense(src.materialize())
        idx = rng.integers(0, 3000, size=(4, 5))
        assert np.allclose(dense.sample_block(idx), src.sample_block(idx), rtol=0, atol=1e-12)
        with pytest.raises(OutOfRangeError):
            from_dense(src.sample_block(np.arange(64, dtype=np.int64)), 1001)

    @pytest.mark.parametrize("padded", [10.7, np.float64(9.5), 10.0, "10", True, 10 + 0j],
                             ids=["float", "numpy-float", "integral-float", "string", "bool",
                                  "complex"])
    def test_non_integer_padded_length_is_refused(self, padded):
        # a non-integer is refused even where it equals the length (10.0, 10+0j)
        with pytest.raises(OutOfRangeError, match="is not the buffer's length 10"):
            from_dense(np.ones(10), padded)

    @pytest.mark.parametrize("padded", [2**63, np.uint64(2**63), 2**64])
    def test_padded_length_past_int64_is_refused(self, padded):
        with pytest.raises(OutOfRangeError, match="is not the buffer's length 8"):
            from_dense(np.ones(8), padded)

    def test_numpy_integer_padded_length(self):
        src = from_dense(np.ones(8), np.int64(8))
        assert src.grid_length == 8 and type(src.grid_length) is int


class TestMaterialize:
    """materialize() hands out a fresh grid buffer the caller may overwrite;
    the dense fallback transforms it in place."""

    @pytest.mark.parametrize("kind", ["dense", "synthesize"])
    def test_overwriting_the_buffer_leaves_the_source(self, rng, kind):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        if kind == "synthesize":
            src = synthesize(random_spectrum(rng, 4, 100))
        else:
            src = from_dense(x)
        idx = np.arange(src.grid_length, dtype=np.int64)
        before = src.sample_block(idx)
        src.materialize()[:] = 7
        assert (src.sample_block(idx) == before).all()

    @pytest.mark.parametrize("grid", [None, 100])
    def test_dense_grid_equals_index_reads(self, rng, grid):
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        src = from_dense(x, grid)
        got = src.materialize()
        assert got.shape == (100,) and (got == x).all()
        assert (got == src.sample_block(np.arange(src.grid_length, dtype=np.int64))).all()


class TestSpectrumFiles:
    def test_roundtrip(self, rng, tmp_path):
        spec = random_spectrum(rng, 6, 2048)
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        assert load_spectrum(path).entries == spec.entries

    def test_empty_roundtrip(self, tmp_path):
        spec = SparseSpectrum.from_pairs([], 16)
        path = tmp_path / "empty.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert len(loaded) == 0 and loaded.grid_length == 16

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"grid_length": 4, "entries": [{"f": 9, "re": 1.0, "im": 0.0}]}')
        with pytest.raises(OutOfRangeError):
            load_spectrum(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"grid_length": 4, "entries": ['
            '{"f": 1, "re": 1.0, "im": 0.0}, {"f": 1, "re": 2.0, "im": 0.0}]}'
        )
        with pytest.raises(DuplicateFrequencyError):
            load_spectrum(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            load_spectrum(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"grid_length": 0, "entries": []}',
            '{"grid_length": "16", "entries": []}',
            '{"grid_length": 16, "entries": {}}',
            '{"grid_length": 16, "entries": [{"f": "x", "re": 1.0, "im": 0.0}]}',
            '{"grid_length": 16, "entries": [{"f": 1.7, "re": 1.0, "im": 0.0}]}',
            '{"grid_length": 16, "entries": [{"f": 1, "re": true, "im": 0.0}]}',
            '{"grid_length": 16, "entries": [{"f": 1, "re": 1%s, "im": 0.0}]}' % ("0" * 400),
        ],
        ids=["zero-grid", "string-grid", "entries-object", "string-f",
             "fractional-f", "boolean-re", "huge-re"],
    )
    def test_malformed_value_rejected(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_spectrum(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError):
            load_spectrum(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_is_typed_error(self, tmp_path_factory, data):
        payload = {
            "grid_length": 16,
            "entries": [{"f": 1, "re": 1.0, "im": 0.5}, {"f": 5, "re": -2.0, "im": 0.0}],
        }
        mutate_one_value(payload, data)
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(json.dumps(payload))
        try:
            spec = load_spectrum(path)
        except CrtFftError:
            return
        assert isinstance(spec, SparseSpectrum)


class TestDenseFiles:
    def test_binary_roundtrip(self, rng, tmp_path):
        x = rng.normal(size=17) + 1j * rng.normal(size=17)
        path = tmp_path / "sig.bin"
        save_dense_binary(x, path)
        assert np.array_equal(load_dense_binary(path), x)

    def test_csv_roundtrip(self, rng, tmp_path):
        x = rng.normal(size=9) + 1j * rng.normal(size=9)
        path = tmp_path / "sig.csv"
        save_dense_csv(x, path)
        assert np.array_equal(load_dense_csv(path), x)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_dense_binary(np.ones(4, dtype=complex), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            load_dense_binary(path)

    @pytest.mark.parametrize(
        "raw",
        [b"index,re,im\n0,1.0,\xff\n", b"index,re,im\n0,1.0," + b"0" * 200_000 + b"\n"],
        ids=["undecodable-byte", "field-above-csv-limit"],
    )
    def test_unreadable_csv_rejected(self, tmp_path, raw):
        path = tmp_path / "sig.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError):
            load_dense_csv(path)

    @pytest.mark.parametrize(
        "save, load",
        [(save_dense_csv, load_dense_csv), (save_dense_binary, load_dense_binary)],
        ids=["csv", "binary"],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_is_parse_error(self, tmp_path_factory, save, load, data):
        path = tmp_path_factory.mktemp("sig") / "sig.dat"
        save(np.array([1.0, -2.5 + 0.5j, 3e-7j]), path)
        path.write_bytes(mutate_bytes(path.read_bytes(), data))
        try:
            samples = load(path)
        except ParseError:
            return
        assert samples.dtype == np.complex128 and samples.ndim == 1

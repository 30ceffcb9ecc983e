import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.errors import OracleCapExceededError, StrideMismatchError
from crtfft.planner import SHIFT_COUNT, make_plan
from crtfft.signal import SignalSource, SparseSpectrum, from_dense, synthesize
from crtfft.views import (
    build_view,
    build_view_from_spectrum,
    build_views,
    top_k_order,
)
from conftest import random_spectrum, shift_indices


def alias_oracle(spectrum, m, M):
    """Literal per-tone evaluation of the view contract."""
    bins = np.zeros((SHIFT_COUNT, m), dtype=np.complex128)
    for f, c in spectrum.entries:
        r = f % m
        for s in range(SHIFT_COUNT):
            bins[s, r] += c * np.exp(2j * np.pi * f * s / M)
    return bins


def raw_energy(source, m, M):
    """Energy of the raw shift-0 samples of the view on modulus m, read directly."""
    return float(np.sum(np.abs(source.sample_block(shift_indices(m, M, 0))) ** 2))


class TestBuildView:
    def test_single_tone_alias(self):
        M = 1001
        spec = SparseSpectrum.from_pairs([(5, 1.0)], M)
        view = build_view(synthesize(spec), 7)
        assert view.bins.shape == (SHIFT_COUNT, 7) == (3, 7)
        for s in range(3):
            expect = np.exp(2j * np.pi * 5 * s / M)
            assert abs(view.bins[s, 5] - expect) < 1e-9
            others = np.delete(np.abs(view.bins[s]), 5)
            assert others.max() < 1e-9

    def test_worked_example_occupied_bins(self):
        M = 1001
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], M)
        view = build_view(synthesize(spec), 7)
        occupied = sorted(np.flatnonzero(np.abs(view.bins[0]) > 1e-9).tolist())
        assert occupied == [0, 6]

    @pytest.mark.parametrize("kind", ["synthesize", "from_dense"])
    def test_fft_path_matches_alias_oracle(self, rng, kind):
        plan = make_plan(2**14, 8)
        M = plan.M
        spec = random_spectrum(rng, 8, M)
        src = synthesize(spec)
        if kind == "from_dense":
            src = from_dense(src.materialize())
        blocks = []
        read = src.sample_block
        src.sample_block = lambda idx: blocks.append(np.shape(idx)) or read(idx)
        for m in plan.moduli:
            blocks.clear()
            view = build_view(src, m)
            want = alias_oracle(spec, m, M)
            assert np.abs(view.bins - want).max() < 1e-9
            # every shift comes from one stacked read; row 0 gives the energy
            assert blocks == [(SHIFT_COUNT, m)]
            assert view.time_energy[0] == pytest.approx(raw_energy(src, m, M), rel=1e-12)

    def test_stride_mismatch(self):
        spec = SparseSpectrum.from_pairs([(1, 1.0)], 100)
        with pytest.raises(StrideMismatchError):
            build_view(synthesize(spec), 7)
        # refused before the (shifts, m) sample stack is allocated
        with pytest.raises(StrideMismatchError):
            build_view(synthesize(spec), 2**40)

    def test_predictor_equals_fft_path(self, rng):
        plan = make_plan(2**12, 6)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        for m in plan.moduli:
            a = build_view(src, m).bins
            b = build_view_from_spectrum(spec, m).bins
            assert np.abs(a - b).max() < 1e-9

    def test_sparsity_preserved(self, rng):
        plan = make_plan(2**12, 6)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        for m in plan.moduli:
            view = build_view(src, m)
            floor = 1e-9 * np.abs(view.bins[0]).max()
            assert np.count_nonzero(np.abs(view.bins[0]) > floor) <= len(spec)

    def test_singleton_shift_magnitude_consistency(self, rng):
        plan = make_plan(2**12, 4)
        spec = random_spectrum(rng, 4, plan.M)
        src = synthesize(spec)
        m = plan.m1
        view = build_view(src, m)
        bins = {}
        for f, _ in spec.entries:
            bins.setdefault(f % m, []).append(f)
        for r, tones in bins.items():
            if len(tones) == 1:
                mags = np.abs(view.bins[:, r])
                assert np.ptp(mags) <= 1e-9 * mags[0]


@st.composite
def spectra(draw):
    """Random, tie-heavy or partly sub-floor spectra, as shift-0 bin values."""
    n = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(("random", "ties", "floor")))
    if kind == "random":
        values = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    elif kind == "ties":
        values = st.sampled_from((0j, 1.0, -1.0, 1j, 2.0, 0.5 - 0.5j))
    else:  # a few bins at full scale, the rest at or below the 1e-12 occupancy floor
        values = st.sampled_from((1.0, 0.5j, 1e-13, 1e-15j, 0j))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.complex128)


class TestTopKOrder:
    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra(), k=st.integers(-1, 70))
    def test_equals_full_lexsort(self, spectrum, k):
        # magnitude descending, then position ascending: the first k rows of
        # a lexsort over all bins, and over the occupied ones
        mags = np.abs(spectrum)
        occupied = np.flatnonzero(mags > 1e-12 * max(float(mags.max(initial=0.0)), 1e-300))
        want = occupied[np.lexsort((occupied, -mags[occupied]))][: max(k, 0)]
        assert occupied[top_k_order(mags[occupied], k)].tolist() == want.tolist()
        full = np.lexsort((np.arange(mags.size), -mags))[: max(k, 0)]
        assert top_k_order(mags, k).tolist() == full.tolist()


class TestBuildViews:
    """Each view is read at SHIFT_COUNT shifts with one `sample_block` call
    and transformed once."""

    def test_one_read_and_one_transform_per_view(self, monkeypatch, rng):
        from crtfft import dft

        M = 1001
        src = synthesize(random_spectrum(rng, 3, M))
        reads, transforms = [], []

        def logged(shapes, fn):
            def call(x, **kwargs):
                shapes.append(x.shape)
                return fn(x, **kwargs)
            return call

        monkeypatch.setattr(src, "sample_block", logged(reads, src.sample_block))
        monkeypatch.setattr(dft, "dft_forward", logged(transforms, dft.dft_forward))
        build_views(src, [7, 11, 7])
        assert reads == transforms == [(3, 7), (3, 11), (3, 7)]

    def test_modulus_that_does_not_divide_the_source_grid_is_refused(self, rng):
        # views are built on the source's own grid, M = 44*45*49 = 97020 here:
        # a modulus that does not divide it (8, 27, or twice the grid) is
        # refused, never read on a grid the source is not on
        plan = make_plan(2**14, 12)
        spec = random_spectrum(rng, 12, plan.M, fmax=2**14)
        src = synthesize(spec)
        assert build_views(src, plan.moduli).M == plan.M
        for m in (8, 27, 2 * plan.M):
            with pytest.raises(StrideMismatchError):
                build_views(src, (*plan.moduli[:2], m))
            with pytest.raises(StrideMismatchError):
                build_view_from_spectrum(spec, m)


    def test_grid_past_exact_int64_indexing_is_refused_before_any_read(self):
        class Huge(SignalSource):
            grid_length = 2**32

            def sample_block(self, indices):
                pytest.fail("a sample was read")

        with pytest.raises(OracleCapExceededError, match="exact int64 index arithmetic"):
            build_views(Huge(), (2**10, 2**11, 2**12))


class TestViewEnergy:
    def test_zero_signal(self):
        src = synthesize(SparseSpectrum.from_pairs([], 1001))
        assert build_view(src, 7).time_energy[0] == raw_energy(src, 7, 1001) == 0

    def test_single_tone(self):
        src = synthesize(SparseSpectrum.from_pairs([(41, 2.0 + 1j)], 1001))
        e = build_view(src, 11).time_energy[0]
        assert abs(e - 11 * abs(2 + 1j) ** 2) < 1e-9
        assert e == pytest.approx(raw_energy(src, 11, 1001), rel=1e-12)

    def test_matches_bin_energy_identity(self, rng):
        # time energy equals m * sum_r |value(r, 0)|^2; both sides computed
        # through different code paths
        M = 1001
        spec = random_spectrum(rng, 2, M)
        src = synthesize(spec)
        e_time = raw_energy(src, 13, M)
        view = build_view(src, 13)
        e_bins = 13 * np.sum(np.abs(view.bins[0]) ** 2)
        assert abs(e_time - e_bins) <= 1e-9 * max(e_time, 1.0)
        # the view keeps the energy of the raw samples, before the transform
        assert view.time_energy[0] == e_time

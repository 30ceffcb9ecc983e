import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.config import Config
from crtfft.errors import StrideMismatchError
from crtfft.opcount import OpCounter
from crtfft.planner import ViewParams, make_plan
from crtfft.signal import SparseSpectrum, from_dense, synthesize
from crtfft.views import (
    _shift_indices,
    build_view,
    build_view_from_spectrum,
    build_views,
    extract_residues,
    top_k_order,
)
from conftest import random_spectrum


def alias_oracle(spectrum, params, M):
    """Literal per-tone evaluation of the view contract."""
    bins = np.zeros((params.shift_count, params.m), dtype=np.complex128)
    for f, c in spectrum.entries:
        r = (params.sigma % params.m * f + params.b) % params.m
        for s in range(params.shift_count):
            bins[s, r] += c * np.exp(2j * np.pi * f * s / M)
    return bins


def raw_energy(source, params, M):
    """Energy of the raw shift-0 samples of a view, read directly."""
    return float(np.sum(np.abs(source.sample_block(_shift_indices(params, M, 0))) ** 2))


class TestBuildView:
    def test_single_tone_alias(self):
        M = 1001
        spec = SparseSpectrum.from_pairs([(5, 1.0)], M)
        vp = ViewParams(m=7, sigma=1, b=0, shift_count=3)
        view = build_view(synthesize(spec), vp, M)
        for s in range(3):
            expect = np.exp(2j * np.pi * 5 * s / M)
            assert abs(view.bins[s, 5] - expect) < 1e-9
            others = np.delete(np.abs(view.bins[s]), 5)
            assert others.max() < 1e-9

    def test_worked_example_occupied_bins(self):
        M = 1001
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], M)
        vp = ViewParams(m=7, sigma=1, b=0, shift_count=3)
        view = build_view(synthesize(spec), vp, M)
        occupied = sorted(np.flatnonzero(np.abs(view.bins[0]) > 1e-9).tolist())
        assert occupied == [0, 6]

    @pytest.mark.parametrize("shift_count", [2, 3])
    @pytest.mark.parametrize("kind", ["synthesize", "from_dense"])
    def test_fft_path_matches_alias_oracle(self, rng, kind, shift_count):
        plan = make_plan(2**14, 8, 0, seed=3, config=Config(shift_count=shift_count))
        M = plan.M
        spec = random_spectrum(rng, 8, M)
        src = synthesize(spec)
        if kind == "from_dense":
            src = from_dense(src.materialize())
        blocks = []
        read = src.sample_block
        src.sample_block = lambda idx: blocks.append(np.shape(idx)) or read(idx)
        for vp in plan.id_views:
            assert vp.shift_count == shift_count
            blocks.clear()
            view = build_view(src, vp, M)
            want = alias_oracle(spec, vp, M)
            assert np.abs(view.bins - want).max() < 1e-9
            # every shift comes from one stacked read; row 0 gives the energy
            assert blocks == [(shift_count, vp.m)]
            assert view.time_energy == pytest.approx(raw_energy(src, vp, M), rel=1e-12)

    def test_offset_only_rotates_bins(self, rng):
        M = 1001
        spec = random_spectrum(rng, 5, M)
        src = synthesize(spec)
        base = build_view(src, ViewParams(7, 1, 0, 3), M).bins
        shifted = build_view(src, ViewParams(7, 1, 3, 3), M).bins
        assert np.abs(np.roll(base, 3, axis=1) - shifted).max() < 1e-9

    def test_stride_mismatch(self):
        spec = SparseSpectrum.from_pairs([(1, 1.0)], 100)
        with pytest.raises(StrideMismatchError):
            build_view(synthesize(spec), ViewParams(7, 1, 0, 3), 100)
        # refused before the (shifts, m) sample stack is allocated
        with pytest.raises(StrideMismatchError):
            build_view(synthesize(spec), ViewParams(2**40, 1, 0, 3), 100)

    def test_predictor_equals_fft_path(self, rng):
        plan = make_plan(2**12, 6, 0, seed=9)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        for vp in plan.id_views:
            a = build_view(src, vp, plan.M).bins
            b = build_view_from_spectrum(spec, vp, plan.M).bins
            assert np.abs(a - b).max() < 1e-9

    def test_sparsity_preserved(self, rng):
        plan = make_plan(2**12, 6, 0, seed=9)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        for vp in plan.id_views:
            view = build_view(src, vp, plan.M)
            floor = 1e-9 * np.abs(view.bins[0]).max()
            assert np.count_nonzero(np.abs(view.bins[0]) > floor) <= len(spec)

    def test_singleton_shift_magnitude_consistency(self, rng):
        plan = make_plan(2**12, 4, 0, seed=13)
        spec = random_spectrum(rng, 4, plan.M)
        src = synthesize(spec)
        vp = plan.id_views[0]
        view = build_view(src, vp, plan.M)
        bins = {}
        for f, _ in spec.entries:
            bins.setdefault(int(vp.hash_frequency(f)), []).append(f)
        for r, tones in bins.items():
            if len(tones) == 1:
                mags = np.abs(view.bins[:, r])
                assert np.ptp(mags) <= 1e-9 * mags[0]


class TestExtractResidues:
    def test_worked_example_sets_with_injected_noise(self):
        # true bins {0, 6} plus an injected bin 3, magnitudes distinct
        vp = ViewParams(m=7, sigma=1, b=0, shift_count=1)
        bins = np.zeros((1, 7), dtype=np.complex128)
        bins[0, 0] = 1.0
        bins[0, 6] = 0.8
        bins[0, 3] = 0.05
        from crtfft.views import ViewSpectrum

        rs = extract_residues(ViewSpectrum(vp, 1001, bins), alpha_k=30)
        assert sorted(rs.bins()) == [0, 3, 6]

    def test_all_zero_view(self):
        from crtfft.views import ViewSpectrum

        vp = ViewParams(m=5, sigma=1, b=0, shift_count=1)
        rs = extract_residues(ViewSpectrum(vp, 35, np.zeros((1, 5), complex)), 3)
        assert len(rs) == 0

    def test_capacity_and_tie_break(self):
        from crtfft.views import ViewSpectrum

        vp = ViewParams(m=8, sigma=1, b=0, shift_count=1)
        bins = np.zeros((1, 8), dtype=np.complex128)
        bins[0, [1, 4, 6]] = 2.0  # tied magnitudes
        bins[0, [2, 7]] = 1.0
        rs = extract_residues(ViewSpectrum(vp, 8, bins), alpha_k=4)
        # descending magnitude, ascending bin on ties; capacity 4
        assert rs.bins() == (1, 4, 6, 2)
        # independent oracle: python sort
        mags = np.abs(bins[0])
        want = sorted(np.flatnonzero(mags > 0), key=lambda r: (-mags[r], r))[:4]
        assert list(rs.bins()) == want


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
    @given(spectrum=spectra(), k=st.integers(-1, 70), shuffle=st.randoms(use_true_random=False))
    def test_equals_full_lexsort(self, spectrum, k, shuffle):
        # magnitude descending, then key ascending: the first k rows of a
        # lexsort over every occupied bin, whatever the keys' order
        mags = np.abs(spectrum)
        keys = np.arange(mags.size)
        shuffle.shuffle(keys)
        occupied = np.flatnonzero(mags > 1e-12 * max(float(mags.max(initial=0.0)), 1e-300))
        want = occupied[np.lexsort((keys[occupied], -mags[occupied]))][: max(k, 0)]
        got = occupied[top_k_order(mags[occupied], keys[occupied], k)]
        assert got.tolist() == want.tolist()
        full = np.lexsort((keys, -mags))[: max(k, 0)]
        assert top_k_order(mags, keys, k).tolist() == full.tolist()
        by_position = np.lexsort((np.arange(mags.size), -mags))[: max(k, 0)]
        assert top_k_order(mags, None, k).tolist() == by_position.tolist()


class TestBuildViews:
    """Views of one modulus read and transformed as one stack give the bits
    and op charges of building each view on its own."""

    @settings(max_examples=60, deadline=None)
    @given(
        moduli=st.sampled_from([(7, 11, 13), (121, 147, 160)]),
        t=st.sampled_from([0, 3, 5]),
        shift_count=st.sampled_from([2, 3]),
        identity_hash=st.booleans(),
        dense=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_separate_builds(self, moduli, t, shift_count, identity_hash, dense, seed):
        M = math.prod(moduli)
        cfg = Config(moduli_override=moduli, nominal_length=M, t=t, shift_count=shift_count,
                     identity_hash=identity_hash)
        plan = make_plan(M, 4, seed=seed, config=cfg)
        src = synthesize(random_spectrum(np.random.default_rng(seed), 4, M))
        if dense and M < 2000:
            src = from_dense(src.materialize())
        # identity_hash repeats parameters: each verify view equals an id view
        params = plan.id_views + plan.verify_views
        phases = ("views",) * 3 + ("verify",) * t
        batch_ops, alone_ops = OpCounter(), OpCounter()
        batch = build_views(src, params, M, batch_ops, phases)
        alone = [build_view(src, vp, M, alone_ops, ph) for vp, ph in zip(params, phases)]
        assert [v.params for v in batch] == list(params)
        for got, want in zip(batch, alone):
            assert got.bins.shape == want.bins.shape
            assert got.bins.tobytes() == want.bins.tobytes()
            assert got.time_energy == want.time_energy
        assert batch_ops.phases == alone_ops.phases

    def test_one_read_and_one_transform_per_modulus(self, monkeypatch, rng):
        from crtfft import dft

        M = 1001
        src = synthesize(random_spectrum(rng, 3, M))
        reads, transforms = [], []

        def logged(shapes, fn):
            def call(x):
                shapes.append(x.shape)
                return fn(x)
            return call

        monkeypatch.setattr(src, "sample_block", logged(reads, src.sample_block))
        monkeypatch.setattr(dft, "dft_forward", logged(transforms, dft.dft_forward))
        params = [ViewParams(7, 1, 0, 3), ViewParams(11, 2, 1, 2), ViewParams(7, 5, 3, 2)]
        build_views(src, params, M)
        assert reads == transforms == [(5, 7), (2, 11)]


class TestViewEnergy:
    def test_zero_signal(self):
        src = synthesize(SparseSpectrum.from_pairs([], 1001))
        vp = ViewParams(7, 1, 0, 3)
        assert build_view(src, vp, 1001).time_energy == raw_energy(src, vp, 1001) == 0

    def test_single_tone(self):
        src = synthesize(SparseSpectrum.from_pairs([(41, 2.0 + 1j)], 1001))
        vp = ViewParams(11, 1, 0, 3)
        e = build_view(src, vp, 1001).time_energy
        assert abs(e - 11 * abs(2 + 1j) ** 2) < 1e-9
        assert e == pytest.approx(raw_energy(src, vp, 1001), rel=1e-12)

    def test_matches_bin_energy_identity(self, rng):
        # time energy equals m * sum_r |value(r, 0)|^2; both sides computed
        # through different code paths
        M = 1001
        spec = random_spectrum(rng, 2, M)
        src = synthesize(spec)
        vp = ViewParams(m=13, sigma=3, b=5, shift_count=2)
        assert math.gcd(vp.sigma, M) == 1
        e_time = raw_energy(src, vp, M)
        view = build_view(src, vp, M)
        e_bins = 13 * np.sum(np.abs(view.bins[0]) ** 2)
        assert abs(e_time - e_bins) <= 1e-9 * max(e_time, 1.0)
        # the view keeps the energy of the raw samples, before modulation by b
        assert view.time_energy == e_time

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.config import Config, replace
from crtfft.numtheory import ModTriple
from crtfft.errors import DuplicateConflictError
from crtfft.peeling import (
    ROUND_CAP_C,
    SINGLETON_TOL,
    PeelState,
    PeelStatus,
    SingletonReading,
    _dedupe,
    detect_singletons,
    peel,
    run_peeling,
)
from crtfft.planner import _draw_view_params, make_plan, rehash, rng_stream
from crtfft.signal import SparseSpectrum, synthesize
from crtfft.views import build_view, build_view_from_spectrum
from crtfft.gating import gate_pairs
from conftest import random_spectrum, spectra_close

TOY_CFG = Config(moduli_override=(7, 11, 13), identity_hash=True)

# Four tones that pairwise collide in every view of the (7, 11, 13) system:
# residues mod 7 are (0,0,5,5), mod 11 are (0,7,0,7), mod 13 are (0,7,7,0).
# No view has a singleton bin, so peeling can make no progress.  (With
# three tones such an instance cannot exist: pairwise collision in all
# three views would force equality mod M.)
STUCK_SUPPORT = (0, 7, 33, 117)


def batch(*rows):
    """A SingletonReading batch from (view, bin, f_hat, coeff, error) rows."""
    view, bin_index, f_hat, coeff, err = zip(*rows)
    return SingletonReading(
        np.array(view, dtype=np.int64),
        np.array(bin_index, dtype=np.int64),
        np.array(f_hat, dtype=np.int64),
        np.array(coeff, dtype=np.complex128),
        np.array(err, dtype=np.float64),
    )


def toy_state(spectrum, seed=0, t=0, nominal=None):
    n = nominal if nominal is not None else (64 if len(spectrum) <= 2 else 1001)
    plan = make_plan(n, len(spectrum), t, seed, TOY_CFG)
    src = synthesize(spectrum)
    views = [build_view(src, vp, plan.M) for vp in plan.id_views]
    return plan, PeelState.create(views, plan.M)


class TestDetectSingletons:
    def test_single_tone(self):
        spec = SparseSpectrum.from_pairs([(5, 2 + 1j)], 1001)
        plan, state = toy_state(spec)
        readings = detect_singletons(state)
        assert len(readings) == 3  # isolated in every view
        assert (readings.f_hat == 5).all()
        assert np.abs(readings.coeff - (2 + 1j)).max() < 1e-9

    def test_collision_rejected_in_colliding_view_only(self):
        # 3 and 10 collide mod 7 but separate mod 11 and mod 13
        spec = SparseSpectrum.from_pairs([(3, 1.0), (10, 1.0)], 1001)
        plan, state = toy_state(spec)
        readings = detect_singletons(state)
        by_view = {}
        for view, f in zip(readings.view_index.tolist(), readings.f_hat.tolist()):
            by_view.setdefault(view, []).append(f)
        assert 0 not in by_view  # the view-1 bin holds both tones
        assert sorted(by_view[1]) == [3, 10]
        assert sorted(by_view[2]) == [3, 10]

    def test_worked_example_first_round(self):
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 0.5 - 1j)], 1001)
        plan, state = toy_state(spec)
        found = set(detect_singletons(state).f_hat.tolist())
        assert found == {7, 41}

    def test_nonidentity_hash_consistency(self, rng):
        plan = make_plan(2**14, 6, 0, seed=21)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        views = [build_view(src, vp, plan.M) for vp in plan.id_views]
        state = PeelState.create(views, plan.M)
        readings = detect_singletons(state)
        rows = zip(
            readings.view_index.tolist(), readings.bin_index.tolist(), readings.f_hat.tolist()
        )
        for view, b, f in rows:
            assert f in dict(spec.entries)
            vp = plan.id_views[view]
            assert int(vp.hash_frequency(f)) == b


def per_view_reference(state):
    """Singleton detection one view at a time, then the cleanest reading per
    frequency (least error, then lowest view): {(view, bin, f_hat, coeff)}."""
    best = {}
    for vi, view in enumerate(state.views):
        bins = view.bins
        mag0 = np.abs(bins[0])
        cand = np.flatnonzero(mag0 > state.noise_floor)
        y0, y1 = bins[0][cand], bins[1][cand]
        ok = np.abs(y1) > 0
        err = np.zeros(cand.size)
        for s in range(1, bins.shape[0]):
            err = np.maximum(err, np.abs(np.abs(bins[s][cand]) - mag0[cand]) / mag0[cand])
        ok &= err <= SINGLETON_TOL
        ratio1 = np.where(ok, y1 / np.where(y0 == 0, 1, y0), 0)
        f_hat = np.round(np.angle(ratio1) * state.M / (2 * np.pi)).astype(np.int64) % state.M
        ok &= view.params.hash_frequency(f_hat) == cand
        if bins.shape[0] >= 3:
            ratio2 = bins[2][cand] / np.where(y1 == 0, 1, y1)
            dev2 = np.abs(ratio2 - ratio1) / np.abs(np.where(ratio1 == 0, 1, ratio1))
            err = np.maximum(err, dev2)
            ok &= dev2 <= SINGLETON_TOL
        for i in np.flatnonzero(ok):
            f, key = int(f_hat[i]), (float(err[i]), vi)
            if f not in best or key < best[f][0]:
                best[f] = (key, (vi, int(cand[i]), f, complex(y0[i])))
    return {row for _, row in best.values()}


@st.composite
def toy_spectra(draw):
    """1 to 6 tones on the (7, 11, 13) grid; a later tone often shares a
    residue with an earlier one, so it collides with it in that view."""
    freqs = [draw(st.integers(0, 1000))]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            m = draw(st.sampled_from((7, 11, 13)))
            freqs.append((draw(st.sampled_from(freqs)) + m * draw(st.integers(1, 142))) % 1001)
        else:
            freqs.append(draw(st.integers(0, 1000)))
    pairs = [(f, draw(st.sampled_from((1.0, -1.0, 1j, 2.0, 0.5 - 1j)))) for f in set(freqs)]
    return SparseSpectrum.from_pairs(pairs, 1001)


class TestBatchDetection:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=toy_spectra(),
        identity=st.booleans(),
        shifts=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**16),
        misplaced=st.booleans(),
    )
    def test_matches_per_view_reference(self, spec, identity, shifts, seed, misplaced):
        # the same (view, bin, f_hat, coeff) set as testing each view on its
        # own, on the first rounds of peeling as well as on the fresh views
        cfg = replace(TOY_CFG, identity_hash=identity, shift_count=shifts)
        plan = make_plan(1001, len(spec), 0, seed, cfg)
        src = synthesize(spec)
        views = [build_view(src, vp, plan.M) for vp in plan.id_views]
        if misplaced:
            # every singleton of view 0 one bin off: each must fail the hash-back test
            views[0].bins = np.roll(views[0].bins, 1, axis=1)
        state = PeelState.create(views, plan.M)
        for _ in range(3):
            readings = _dedupe(detect_singletons(state))
            got = set(
                zip(
                    readings.view_index.tolist(),
                    readings.bin_index.tolist(),
                    readings.f_hat.tolist(),
                    readings.coeff.tolist(),
                )
            )
            assert got == per_view_reference(state)
            assert readings.f_hat.tolist() == sorted(set(readings.f_hat.tolist()))
            if not len(readings):
                break
            try:
                peel(state, readings)
            except DuplicateConflictError:
                break


class TestPeel:
    def test_complete_cancellation(self):
        spec = SparseSpectrum.from_pairs([(5, 2 + 1j)], 1001)
        plan, state = toy_state(spec)
        reading = detect_singletons(state).take([0])
        peel(state, reading)
        assert state.max_bin_magnitude() < 1e-12

    def test_peel_clears_other_views(self):
        # peeling tone 7 out of view 1 must also clear view-2 bin 7 and
        # view-3 bin 7
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], 1001)
        plan, state = toy_state(spec)
        readings = detect_singletons(state)
        reading = readings.take(np.flatnonzero(readings.f_hat == 7)[:1])
        peel(state, reading)
        assert abs(state.views[1].bins[0, 7]) < 1e-12
        assert abs(state.views[2].bins[0, 7]) < 1e-12
        assert abs(state.views[0].bins[0, 6] - 1.0) < 1e-12  # 41 still present


    def test_round_subtracts_colliding_readings(self):
        # 3 and 10 are singletons in views 2 and 3 but share bin 3 of view 1;
        # peeling both in one round must take both out of that bin, leaving
        # the alias sums of the unrecovered tone 41 in every view
        spec = SparseSpectrum.from_pairs([(3, 1.0), (10, 0.5 - 1j), (41, 2j)], 1001)
        plan, state = toy_state(spec)
        readings = detect_singletons(state)
        peel(state, readings.take([np.flatnonzero(readings.f_hat == f)[-1] for f in (3, 10)]))
        assert set(state.recovered) == {3, 10}
        residual = SparseSpectrum.from_pairs([(41, 2j)], 1001)
        for view in state.views:
            want = build_view_from_spectrum(residual, view.params, 1001).bins
            assert np.abs(view.bins - want).max() < 1e-9

    def test_conflict_mid_round_keeps_earlier_readings(self):
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 0.5 - 1j)], 1001)
        plan, state = toy_state(spec)
        state.recovered = {100: 1.0}
        readings = batch(
            (0, 0, 7, 1.0 + 0j, 0.0),
            (0, 2, 100, 0j, 0.0),  # re-detected below the floor
            (0, 6, 41, 0.5 - 1j, 0.0),
        )
        with pytest.raises(DuplicateConflictError):
            peel(state, readings)
        assert state.recovered == {100: 1.0, 7: 1.0}
        residual = SparseSpectrum.from_pairs([(41, 0.5 - 1j)], 1001)
        for view in state.views:
            want = build_view_from_spectrum(residual, view.params, 1001).bins
            assert np.abs(view.bins - want).max() < 1e-9


    def test_conflict_within_one_batch(self):
        # a frequency read twice in one batch, the second time below the
        # floor, conflicts exactly as it would in two separate rounds
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 0.5 - 1j)], 1001)
        plan, state = toy_state(spec)
        with pytest.raises(DuplicateConflictError):
            peel(state, batch((0, 0, 7, 1.0 + 0j, 0.0), (1, 7, 7, 0j, 0.0)))
        assert state.recovered == {7: 1.0}


class TestRunPeeling:
    def test_worked_example_completes_quickly(self):
        spec = SparseSpectrum.from_pairs([(7, 1.5), (41, -2j)], 1001)
        plan, state = toy_state(spec)
        out = run_peeling(state, plan)
        assert out.status is PeelStatus.COMPLETE
        assert out.rounds <= 2
        assert spectra_close(out.recovered, spec)

    def test_empty_spectrum(self):
        spec = SparseSpectrum.from_pairs([], 1001)
        plan, state = toy_state(spec)
        out = run_peeling(state, plan)
        assert out.status is PeelStatus.COMPLETE
        assert len(out.recovered) == 0

    def test_all_views_colliding_instance_is_two_core(self, rng):
        coeffs = np.exp(2j * np.pi * rng.random(4))
        spec = SparseSpectrum.from_pairs(list(zip(STUCK_SUPPORT, coeffs)), 1001)
        # verify the construction: every occupied bin in every view is multi
        for m in (7, 11, 13):
            residues = [f % m for f in STUCK_SUPPORT]
            assert all(residues.count(r) >= 2 for r in residues)
        plan, state = toy_state(spec)
        out = run_peeling(state, plan)
        assert out.status is PeelStatus.TWO_CORE
        assert len(out.recovered) == 0

    def test_two_core_survives_rehash(self, rng):
        # hashing permutes bins but cannot split collisions: the stuck
        # instance stays stuck under fresh parameters
        coeffs = np.exp(2j * np.pi * rng.random(4))
        spec = SparseSpectrum.from_pairs(list(zip(STUCK_SUPPORT, coeffs)), 1001)
        plan = make_plan(1001, 4, 0, 3, replace(TOY_CFG, identity_hash=False))
        plan = rehash(plan, seed=99, round_index=1)
        src = synthesize(spec)
        views = [build_view(src, vp, plan.M) for vp in plan.id_views]
        out = run_peeling(PeelState.create(views, plan.M), plan)
        assert out.status is PeelStatus.TWO_CORE

    def test_matches_gate_oracle_on_random_instances(self, rng):
        # peel-path recovery equals the gate-path reconstruction on
        # instances where both complete
        triple = ModTriple.create(31, 37, 41)
        cfg = Config(moduli_override=triple.moduli, identity_hash=True)
        for trial in range(10):
            k = int(rng.integers(1, 6))
            spec = random_spectrum(rng, k, triple.m1 * triple.m2)
            spec = SparseSpectrum.from_pairs(spec.entries, triple.M)
            plan = make_plan(triple.m1 * triple.m2, k, 0, trial, cfg)
            src = synthesize(spec)
            views = [build_view(src, vp, plan.M) for vp in plan.id_views]
            floor = 1e-9 * max(np.abs(v.bins[0]).max() for v in views)
            sets = [
                sorted(np.flatnonzero(np.abs(v.bins[0]) > floor).tolist())
                for v in views
            ]
            out = run_peeling(PeelState.create(views, plan.M), plan)
            if out.status is not PeelStatus.COMPLETE:
                continue
            assert spectra_close(out.recovered, spec)
            gate_hits = {
                g.f12
                for g in gate_pairs(sets[0], sets[1], sets[2], plan.triple)
                if g.passed
            }
            for f, _ in spec.entries:
                assert f in gate_hits

    def test_conservation_during_peeling(self, rng):
        # at every step the view bins equal the alias sums of the
        # still-unrecovered residual, against direct evaluation
        spec = random_spectrum(rng, 5, 1001)
        plan, state = toy_state(spec, t=0)
        for _ in range(6):
            readings = detect_singletons(state)
            if not readings:
                break
            peel(state, readings.take([0]))
            residual_entries = dict(spec.entries)
            for f, c in state.recovered.items():
                residual_entries[f] = residual_entries.get(f, 0) - c
            residual = SparseSpectrum.from_pairs(
                [(f, c) for f, c in residual_entries.items() if abs(c) > 1e-12], 1001
            )
            for view in state.views:
                want = build_view_from_spectrum(residual, view.params, 1001).bins
                assert np.abs(view.bins - want).max() < 1e-6


class TestRoundBound:
    def test_round_cap_respected(self, rng):
        plan = make_plan(2**16, 8, 0, seed=2)
        spec = random_spectrum(rng, 8, plan.M, fmax=2**16)
        src = synthesize(spec)
        views = [build_view(src, vp, plan.M) for vp in plan.id_views]
        out = run_peeling(PeelState.create(views, plan.M), plan)
        cap = math.ceil(ROUND_CAP_C * math.log2(8 + 2))
        assert out.rounds <= cap
        assert out.status is PeelStatus.COMPLETE


class TestPeelMonteCarlo:
    def test_completion_rate(self, rng):
        # random instances at load ~0.1 complete on one set of views nearly
        # always; measured rate must clear 0.99
        triple = ModTriple.create(97, 101, 103)
        cfg = Config(moduli_override=triple.moduli)
        trials, completed = 300, 0
        master = rng_stream(77, "test-rehash-mc")
        for t in range(trials):
            child = np.random.Generator(np.random.Philox(int(master.integers(0, 2**62))))
            spec = random_spectrum(child, 10, triple.M, unit=True)
            plan = make_plan(triple.M, 10, 0, t, cfg)
            views = [build_view_from_spectrum(spec, vp, plan.M) for vp in plan.id_views]
            out = run_peeling(PeelState.create(views, plan.M), plan)
            if out.status is PeelStatus.COMPLETE and spectra_close(out.recovered, spec):
                completed += 1
        assert completed / trials >= 0.99


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([7, 11, 13]),
    k=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_fresh_hash_only_relabels_bins(m, k, seed):
    # why the pipeline never rehashes: under either of two hashes over the
    # same modulus, the bin that residue class rho hashes to holds the same
    # tones, summed in the same order, so the views agree bit for bit
    rng = np.random.default_rng(seed)
    M = 1001
    spec = random_spectrum(rng, k, M)
    first, second = (_draw_view_params(m, M, rng, 3) for _ in range(2))
    rho = np.arange(m)
    a = build_view_from_spectrum(spec, first, M).bins
    b = build_view_from_spectrum(spec, second, M).bins
    assert np.array_equal(a[:, first.hash_frequency(rho)], b[:, second.hash_frequency(rho)])

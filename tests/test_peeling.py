import math

import numpy as np
import pytest

from crtfft.config import Config, replace
from crtfft.numtheory import ModTriple
from crtfft.errors import DuplicateConflictError
from crtfft.peeling import (
    ROUND_CAP_C,
    PeelState,
    PeelStatus,
    SingletonReading,
    detect_singletons,
    peel,
    rehash,
    run_peeling,
)
from crtfft.planner import ViewParams, make_plan, rng_stream
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
        for r in readings:
            assert r.f_hat == 5
            assert abs(r.coeff - (2 + 1j)) < 1e-9

    def test_collision_rejected_in_colliding_view_only(self):
        # 3 and 10 collide mod 7 but separate mod 11 and mod 13
        spec = SparseSpectrum.from_pairs([(3, 1.0), (10, 1.0)], 1001)
        plan, state = toy_state(spec)
        readings = detect_singletons(state)
        by_view = {}
        for r in readings:
            by_view.setdefault(r.view_index, []).append(r.f_hat)
        assert 0 not in by_view  # the view-1 bin holds both tones
        assert sorted(by_view[1]) == [3, 10]
        assert sorted(by_view[2]) == [3, 10]

    def test_worked_example_first_round(self):
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 0.5 - 1j)], 1001)
        plan, state = toy_state(spec)
        found = {r.f_hat for r in detect_singletons(state)}
        assert found == {7, 41}

    def test_nonidentity_hash_consistency(self, rng):
        plan = make_plan(2**14, 6, 0, seed=21)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        views = [build_view(src, vp, plan.M) for vp in plan.id_views]
        state = PeelState.create(views, plan.M)
        for r in detect_singletons(state):
            assert r.f_hat in dict(spec.entries)
            vp = plan.id_views[r.view_index]
            assert int(vp.hash_frequency(r.f_hat)) == r.bin_index


class TestPeel:
    def test_complete_cancellation(self):
        spec = SparseSpectrum.from_pairs([(5, 2 + 1j)], 1001)
        plan, state = toy_state(spec)
        reading = detect_singletons(state)[0]
        peel(state, [reading])
        assert state.max_bin_magnitude() < 1e-12

    def test_peel_clears_other_views(self):
        # peeling tone 7 out of view 1 must also clear view-2 bin 7 and
        # view-3 bin 7
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], 1001)
        plan, state = toy_state(spec)
        reading = next(r for r in detect_singletons(state) if r.f_hat == 7)
        peel(state, [reading])
        assert abs(state.views[1].bins[0, 7]) < 1e-12
        assert abs(state.views[2].bins[0, 7]) < 1e-12
        assert abs(state.views[0].bins[0, 6] - 1.0) < 1e-12  # 41 still present


    def test_round_subtracts_colliding_readings(self):
        # 3 and 10 are singletons in views 2 and 3 but share bin 3 of view 1;
        # peeling both in one round must take both out of that bin, leaving
        # the alias sums of the unrecovered tone 41 in every view
        spec = SparseSpectrum.from_pairs([(3, 1.0), (10, 0.5 - 1j), (41, 2j)], 1001)
        plan, state = toy_state(spec)
        readings = {r.f_hat: r for r in detect_singletons(state) if r.f_hat in (3, 10)}
        peel(state, [readings[3], readings[10]])
        assert set(state.recovered) == {3, 10}
        residual = SparseSpectrum.from_pairs([(41, 2j)], 1001)
        for view in state.views:
            want = build_view_from_spectrum(residual, view.params, 1001).bins
            assert np.abs(view.bins - want).max() < 1e-9

    def test_conflict_mid_round_keeps_earlier_readings(self):
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 0.5 - 1j)], 1001)
        plan, state = toy_state(spec)
        state.recovered = {100: 1.0}
        readings = [
            SingletonReading(0, 0, 7, 1.0 + 0j, 0.0),
            SingletonReading(0, 2, 100, 0j, 0.0),  # re-detected below the floor
            SingletonReading(0, 6, 41, 0.5 - 1j, 0.0),
        ]
        with pytest.raises(DuplicateConflictError):
            peel(state, readings)
        assert state.recovered == {100: 1.0, 7: 1.0}
        residual = SparseSpectrum.from_pairs([(41, 0.5 - 1j)], 1001)
        for view in state.views:
            want = build_view_from_spectrum(residual, view.params, 1001).bins
            assert np.abs(view.bins - want).max() < 1e-9


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
            peel(state, [readings[0]])
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


class TestRehashMonteCarlo:
    def test_completion_rate_with_one_rehash(self, rng):
        # random instances at load ~0.1 complete (with at most one rehash)
        # nearly always; measured rate must clear 0.99
        triple = ModTriple.create(97, 101, 103)
        cfg = Config(moduli_override=triple.moduli, max_rehash=1)
        trials, completed = 300, 0
        master = rng_stream(77, "test-rehash-mc")
        for t in range(trials):
            child = np.random.Generator(np.random.Philox(int(master.integers(0, 2**62))))
            spec = random_spectrum(child, 10, triple.M, unit=True)
            plan = make_plan(triple.M, 10, 0, t, cfg)
            views = [build_view_from_spectrum(spec, vp, plan.M) for vp in plan.id_views]
            out = run_peeling(PeelState.create(views, plan.M), plan)
            if out.status is not PeelStatus.COMPLETE:
                plan2 = rehash(plan, t, 1)
                views2 = [build_view_from_spectrum(spec, vp, plan2.M) for vp in plan2.id_views]
                residual = SparseSpectrum.from_pairs(
                    [
                        (f, c)
                        for f, c in spec.entries
                        if f not in out.recovered.as_dict()
                    ],
                    triple.M,
                )
                views2 = [
                    build_view_from_spectrum(residual, vp, plan2.M) for vp in plan2.id_views
                ]
                state2 = PeelState.create(views2, plan2.M)
                state2.recovered = dict(out.recovered.entries)
                out = run_peeling(state2, plan2)
            if out.status is PeelStatus.COMPLETE and spectra_close(out.recovered, spec):
                completed += 1
        assert completed / trials >= 0.99

import numpy as np
import pytest

from crtfft.config import Config
from crtfft.planner import make_plan
from crtfft.signal import SparseSpectrum, from_dense, synthesize
from crtfft.verification import check_view
from crtfft.views import build_view, build_view_from_spectrum
from conftest import random_spectrum, verify_plan


def collision_free_instance(rng, k, plan):
    """Random spectrum whose tones collide in no identification or
    verification view (so the textbook energy identity holds exactly)."""
    while True:
        spec = random_spectrum(rng, k, plan.M, fmax=plan.N)
        ok = True
        for vp in plan.id_views + plan.verify_views:
            bins = vp.hash_frequency(spec.frequencies())
            if len(set(bins.tolist())) != k:
                ok = False
                break
        if ok:
            return spec


class TestParsevalCheck:
    """The energy part of check_view: parseval_gap against epsilon."""

    def test_true_candidate_collision_free(self, rng):
        plan = make_plan(2**14, 5, 3, seed=8)
        spec = collision_free_instance(rng, 5, plan)
        src = synthesize(spec)
        for vp in plan.verify_views:
            view = build_view(src, vp, plan.M)
            e_time = view.time_energy
            check = check_view(view, spec)
            assert check.passed and check.parseval_gap <= 1e-9 * max(e_time, 1)
            assert check.epsilon == 1e-6 * max(e_time, 1)
            # collision-free: predicted view energy equals plain energy
            assert abs(e_time / vp.m - spec.energy()) <= 1e-9 * max(e_time, 1)

    def test_missing_unit_tone_fails(self, rng):
        plan = make_plan(2**14, 5, 3, seed=8)
        spec = collision_free_instance(rng, 5, plan)
        # normalize one tone to magnitude exactly 1, then drop it
        entries = list(spec.entries)
        f0, c0 = entries[0]
        entries[0] = (f0, c0 / abs(c0))
        spec = SparseSpectrum.from_pairs(entries, plan.M)
        short = SparseSpectrum.from_pairs(entries[1:], plan.M)
        src = synthesize(spec)
        vp = plan.verify_views[0]
        check = check_view(build_view(src, vp, plan.M), short)
        assert check.parseval_gap > check.epsilon and not check.passed
        assert check.parseval_gap >= 1 - 1e-6

    def test_empty_candidate_gap_is_signal_energy(self, rng):
        plan = make_plan(2**14, 3, 1, seed=9)
        spec = collision_free_instance(rng, 3, plan)
        src = synthesize(spec)
        vp = plan.verify_views[0]
        empty = SparseSpectrum.from_pairs([], plan.M)
        view = build_view(src, vp, plan.M)
        check = check_view(view, empty)
        assert check.parseval_gap > check.epsilon
        e_time = view.time_energy
        assert abs(check.parseval_gap - e_time / vp.m) < 1e-9 * max(e_time, 1)

    def test_true_candidate_with_collisions_still_passes(self):
        # two tones forced into the same verification bin: the prediction
        # includes the interference, so a correct candidate still passes
        plan = make_plan(2**14, 2, 3, seed=11)
        vp = plan.verify_views[0]
        f1 = 101
        f2 = f1 + vp.m * 3
        spec = SparseSpectrum.from_pairs([(f1, 1.0), (f2, 1.0)], plan.M)
        assert int(vp.hash_frequency(f1)) == int(vp.hash_frequency(f2))
        src = synthesize(spec)
        check = check_view(build_view(src, vp, plan.M), spec)
        assert check.parseval_gap <= check.epsilon, check

    def test_predicted_view_is_refused(self):
        plan = make_plan(2**14, 2, 1, seed=11)
        spec = SparseSpectrum.from_pairs([(5, 1.0)], plan.M)
        predicted = build_view_from_spectrum(spec, plan.verify_views[0], plan.M)
        with pytest.raises(ValueError):
            check_view(predicted, spec)


class TestResidualCheck:
    """The residual part of check_view: residual_energy against epsilon."""

    def test_correct_candidate(self, rng):
        plan = make_plan(2**14, 4, 2, seed=10)
        spec = random_spectrum(rng, 4, plan.M, fmax=plan.N)
        src = synthesize(spec)
        for vp in plan.verify_views:
            check = check_view(build_view(src, vp, plan.M), spec)
            assert check.residual_energy <= check.epsilon
            assert check.residual_energy < 1e-12 * max(spec.energy(), 1)

    def test_swapped_frequency_detected_without_bin_collision(self, rng):
        plan = make_plan(2**14, 4, 1, seed=10)
        spec = random_spectrum(rng, 4, plan.M, fmax=plan.N, unit=True)
        src = synthesize(spec)
        vp = plan.verify_views[0]
        entries = list(spec.entries)
        f0, c0 = entries[0]
        wrong = (f0 + 1) % plan.N
        if wrong in dict(entries):
            wrong = (f0 + 2) % plan.N
        corrupted = SparseSpectrum.from_pairs([(wrong, c0)] + entries[1:], plan.M)
        check = check_view(build_view(src, vp, plan.M), corrupted)
        if int(vp.hash_frequency(f0)) != int(vp.hash_frequency(wrong)):
            assert check.residual_energy > check.epsilon and not check.passed
            assert check.residual_energy >= (1 - 1e-6) * abs(c0) ** 2

    def test_same_bin_swap_caught_by_shifted_phases(self):
        # equal-magnitude swap inside one bin: shift 0 cancels exactly, the
        # phase structure at shifts 1 and 2 still exposes it
        plan = make_plan(2**14, 2, 1, seed=13)
        vp = plan.verify_views[0]
        f1 = 500
        f2 = f1 + vp.m * 40  # same bin, far apart on the grid
        spec = SparseSpectrum.from_pairs([(f1, 1.0), (1, 0.5)], plan.M)
        corrupted = SparseSpectrum.from_pairs([(f2, 1.0), (1, 0.5)], plan.M)
        src = synthesize(spec)
        check = check_view(build_view(src, vp, plan.M), corrupted)
        # the energy part cannot see the swap; the residual part alone fails it
        assert check.parseval_gap <= check.epsilon
        assert check.residual_energy > check.epsilon and not check.passed
        # exact value: the difference tones share a bin, so the residual is
        # the squared phase mismatch summed over the nonzero shifts
        want = sum(
            abs(np.exp(2j * np.pi * f1 * s / plan.M) - np.exp(2j * np.pi * f2 * s / plan.M)) ** 2
            for s in (1, 2)
        )
        assert check.residual_energy == pytest.approx(want, rel=1e-9)


class TestVerify:
    def test_correct_candidate_passes_t3(self, rng):
        plan = make_plan(2**14, 5, 3, seed=14)
        spec = random_spectrum(rng, 5, plan.M, fmax=plan.N)
        src = synthesize(spec)
        report = verify_plan(src, plan, spec, Config(nominal_length=2**14))
        assert report.overall and not report.unverified
        assert len(report.views) == 3

    def test_no_false_alarms_over_random_instances(self, rng):
        # correct candidates must pass regardless of collisions
        cfg = Config(nominal_length=2**14)
        for trial in range(40):
            k = int(rng.integers(1, 9))
            plan = make_plan(2**14, k, 3, seed=trial)
            spec = random_spectrum(rng, k, plan.M, fmax=plan.N)
            report = verify_plan(synthesize(spec), plan, spec, cfg)
            assert report.overall

    def test_missing_tone_rejected_always(self, rng):
        cfg = Config(nominal_length=2**14)
        for trial in range(25):
            k = int(rng.integers(2, 8))
            plan = make_plan(2**14, k, 3, seed=100 + trial)
            spec = random_spectrum(rng, k, plan.M, fmax=plan.N)
            short = SparseSpectrum.from_pairs(spec.entries[1:], plan.M)
            report = verify_plan(synthesize(spec), plan, short, cfg)
            assert not report.overall

    def test_t0_vacuous_pass_flagged(self, rng):
        plan = make_plan(2**14, 3, 0, seed=15)
        spec = random_spectrum(rng, 3, plan.M, fmax=plan.N)
        report = verify_plan(synthesize(spec), plan, spec, Config())
        assert report.overall and report.unverified
        assert report.views == ()

    def test_independent_of_identification_internals(self, rng):
        # verdicts depend only on candidate and verification views: altering
        # identification hash draws (different seed domain) cannot change them
        cfg = Config(nominal_length=2**14)
        plan_a = make_plan(2**14, 4, 2, seed=16)
        import dataclasses

        plan_b = dataclasses.replace(
            plan_a, id_views=make_plan(2**14, 4, 2, seed=17).id_views
        )
        spec = random_spectrum(rng, 4, plan_a.M, fmax=plan_a.N)
        src = synthesize(spec)
        ra = verify_plan(src, plan_a, spec, cfg)
        rb = verify_plan(src, plan_b, spec, cfg)
        assert ra == rb

    @pytest.mark.parametrize("kind", ["synthesized", "dense"])
    def test_repeat_call_gives_equal_report(self, rng, kind):
        # a verdict is a pure function of (source, view parameters, candidate):
        # rechecking the same views cannot turn a failed verification around
        cfg = Config(moduli_override=(7, 11, 13), nominal_length=1001)
        plan = make_plan(1001, 4, 3, seed=21, config=cfg)
        spec = random_spectrum(rng, 4, plan.M)
        src = synthesize(spec)
        if kind == "dense":
            src = from_dense(src.materialize())
        short = SparseSpectrum.from_pairs(spec.entries[1:], plan.M)
        for candidate, verdict in ((spec, True), (short, False)):
            first = verify_plan(src, plan, candidate, cfg)
            assert first.overall is verdict
            assert verify_plan(src, plan, candidate, cfg) == first

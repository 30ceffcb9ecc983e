from dataclasses import replace as dc_replace

import numpy as np
import pytest

from crtfft import pipeline
from crtfft.config import Config
from crtfft.pipeline import RecoveryPath, sparse_fft
from crtfft.planner import make_plan
from crtfft.signal import SparseSpectrum, from_dense, synthesize
from crtfft.verification import check_view, check_views, verify
from crtfft.views import build_view, build_view_from_spectrum, build_views
from conftest import random_spectrum, verify_plan

EPS_REL = Config().verify_eps_rel


def collision_free_instance(rng, k, plan, N=2**14):
    """Random spectrum on [0, N) whose tones collide in no view of the plan
    (the textbook energy identity holds exactly)."""
    while True:
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        ok = True
        for m in plan.moduli:
            bins = spec.frequencies() % m
            if len(set(bins.tolist())) != k:
                ok = False
                break
        if ok:
            return spec


class TestParsevalCheck:
    """The energy part of check_view: parseval_gap against epsilon."""

    def test_true_candidate_collision_free(self, rng):
        plan = make_plan(2**14, 5)
        spec = collision_free_instance(rng, 5, plan)
        src = synthesize(spec)
        for m in plan.moduli:
            view = build_view(src, m, plan.M)
            e_time = view.time_energy
            check = check_view(view, spec, EPS_REL)
            assert check.passed and check.parseval_gap <= 1e-9 * max(e_time, 1)
            assert check.epsilon == 1e-6 * max(e_time, 1)
            # collision-free: predicted view energy equals plain energy
            assert abs(e_time / m - spec.energy()) <= 1e-9 * max(e_time, 1)

    def test_missing_unit_tone_fails(self, rng):
        plan = make_plan(2**14, 5)
        spec = collision_free_instance(rng, 5, plan)
        # normalize one tone to magnitude exactly 1, then drop it
        entries = list(spec.entries)
        f0, c0 = entries[0]
        entries[0] = (f0, c0 / abs(c0))
        spec = SparseSpectrum.from_pairs(entries, plan.M)
        short = SparseSpectrum.from_pairs(entries[1:], plan.M)
        src = synthesize(spec)
        check = check_view(build_view(src, plan.m1, plan.M), short, EPS_REL)
        assert check.parseval_gap > check.epsilon and not check.passed
        assert check.parseval_gap >= 1 - 1e-6

    def test_empty_candidate_gap_is_signal_energy(self, rng):
        plan = make_plan(2**14, 3)
        spec = collision_free_instance(rng, 3, plan)
        src = synthesize(spec)
        empty = SparseSpectrum.from_pairs([], plan.M)
        view = build_view(src, plan.m1, plan.M)
        check = check_view(view, empty, EPS_REL)
        assert check.parseval_gap > check.epsilon
        e_time = view.time_energy
        assert abs(check.parseval_gap - e_time / plan.m1) < 1e-9 * max(e_time, 1)

    def test_true_candidate_with_collisions_still_passes(self):
        # two tones forced into the same verification bin: the prediction
        # includes the interference, so a correct candidate still passes
        plan = make_plan(2**14, 2)
        m = plan.m1
        f1 = 101
        f2 = f1 + m * 3
        spec = SparseSpectrum.from_pairs([(f1, 1.0), (f2, 1.0)], plan.M)
        assert f1 % m == f2 % m
        src = synthesize(spec)
        check = check_view(build_view(src, m, plan.M), spec, EPS_REL)
        assert check.parseval_gap <= check.epsilon, check

    def test_predicted_view_is_refused(self):
        plan = make_plan(2**14, 2)
        spec = SparseSpectrum.from_pairs([(5, 1.0)], plan.M)
        predicted = build_view_from_spectrum(spec, plan.m1, plan.M)
        with pytest.raises(ValueError):
            check_view(predicted, spec, EPS_REL)


class TestResidualCheck:
    """The residual part of check_view: residual_energy against epsilon."""

    def test_correct_candidate(self, rng):
        plan = make_plan(2**14, 4)
        spec = random_spectrum(rng, 4, plan.M, fmax=2**14)
        src = synthesize(spec)
        for m in plan.moduli:
            check = check_view(build_view(src, m, plan.M), spec, EPS_REL)
            assert check.residual_energy <= check.epsilon
            assert check.residual_energy < 1e-12 * max(spec.energy(), 1)

    def test_swapped_frequency_detected_without_bin_collision(self, rng):
        N = 2**14
        plan = make_plan(N, 4)
        spec = random_spectrum(rng, 4, plan.M, fmax=N, unit=True)
        src = synthesize(spec)
        m = plan.m1
        entries = list(spec.entries)
        f0, c0 = entries[0]
        wrong = (f0 + 1) % N
        if wrong in dict(entries):
            wrong = (f0 + 2) % N
        corrupted = SparseSpectrum.from_pairs([(wrong, c0)] + entries[1:], plan.M)
        check = check_view(build_view(src, m, plan.M), corrupted, EPS_REL)
        if f0 % m != wrong % m:
            assert check.residual_energy > check.epsilon and not check.passed
            assert check.residual_energy >= (1 - 1e-6) * abs(c0) ** 2

    def test_same_bin_swap_caught_by_shifted_phases(self):
        # equal-magnitude swap inside one bin: shift 0 cancels exactly, the
        # phase structure at shifts 1 and 2 still exposes it
        plan = make_plan(2**14, 2)
        m = plan.m1
        f1 = 500
        f2 = f1 + m * 40  # same bin, far apart on the grid
        spec = SparseSpectrum.from_pairs([(f1, 1.0), (1, 0.5)], plan.M)
        corrupted = SparseSpectrum.from_pairs([(f2, 1.0), (1, 0.5)], plan.M)
        src = synthesize(spec)
        check = check_view(build_view(src, m, plan.M), corrupted, EPS_REL)
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
        plan = make_plan(2**14, 5)
        spec = random_spectrum(rng, 5, plan.M, fmax=2**14)
        src = synthesize(spec)
        report = verify_plan(src, plan, spec, Config(nominal_length=2**14))
        assert report.overall
        assert [v.modulus for v in report.views] == list(plan.moduli)
        assert report.to_dict()["unverified"] is False

    def test_no_false_alarms_over_random_instances(self, rng):
        # correct candidates must pass regardless of collisions
        cfg = Config(nominal_length=2**14)
        for trial in range(40):
            k = int(rng.integers(1, 9))
            plan = make_plan(2**14, k)
            spec = random_spectrum(rng, k, plan.M, fmax=2**14)
            report = verify_plan(synthesize(spec), plan, spec, cfg)
            assert report.overall

    def test_missing_tone_rejected_always(self, rng):
        cfg = Config(nominal_length=2**14)
        for trial in range(25):
            k = int(rng.integers(2, 8))
            plan = make_plan(2**14, k)
            spec = random_spectrum(rng, k, plan.M, fmax=2**14)
            short = SparseSpectrum.from_pairs(spec.entries[1:], plan.M)
            report = verify_plan(synthesize(spec), plan, short, cfg)
            assert not report.overall

    @pytest.mark.parametrize("kind", ["synthesized", "dense"])
    def test_repeat_call_gives_equal_report(self, rng, kind):
        # a verdict is a pure function of (source, view parameters, candidate):
        # rechecking the same views cannot turn a failed verification around
        cfg = Config(moduli_override=(7, 11, 13), nominal_length=1001)
        plan = make_plan(1001, 4, config=cfg)
        spec = random_spectrum(rng, 4, plan.M)
        src = synthesize(spec)
        if kind == "dense":
            src = from_dense(src.materialize())
        short = SparseSpectrum.from_pairs(spec.entries[1:], plan.M)
        for candidate, verdict in ((spec, True), (short, False)):
            first = verify_plan(src, plan, candidate, cfg)
            assert first.overall is verdict
            assert verify_plan(src, plan, candidate, cfg) == first


def _corrupt(kind, rng, m1m2):
    """A map from a candidate to a copy with one corruption of kind `kind`."""

    def corrupt(candidate):
        entries = list(candidate.entries)
        M = candidate.grid_length
        i = int(rng.integers(len(entries)))
        f, c = entries[i]
        if kind == "amplitude":
            entries[i] = (f, 1.01 * c)
        elif kind == "drop":
            del entries[i]
        else:
            taken = {g for g, _ in entries}
            while True:
                if kind == "swap":
                    g = int(rng.integers(M))
                else:  # a bin shared with f in the views of m1 and m2
                    g = (f + m1m2 * int(rng.integers(1, M // m1m2))) % M
                if g not in taken:
                    break
            entries[i] = (g, c)
        return SparseSpectrum.from_pairs(entries, M)

    return corrupt


class TestSmallModuli:
    """Verification where the moduli are near k, so (2k/m)^t is a weak bound."""

    @pytest.mark.parametrize("kind", ["swap", "swap-m1m2", "drop", "amplitude"])
    def test_corruptions_never_pass(self, rng, kind, monkeypatch):
        N, k = 2**14, 12
        cfg = Config(nominal_length=N)
        plan = make_plan(N, k, config=cfg)
        # the paper's bound (2k/m1)^3 = 0.16 would allow one slip in six
        assert plan.moduli == (44, 45, 49)
        # the pipeline's own verify judges each candidate after corruption
        real_verify, corrupt = pipeline.verify, _corrupt(kind, rng, 44 * 45)
        monkeypatch.setattr(pipeline, "verify", lambda views, candidate, *rest: real_verify(
            views, corrupt(candidate), *rest))
        for trial in range(25):
            spec = random_spectrum(rng, k, plan.M, fmax=N)
            result = sparse_fft(synthesize(spec), k, cfg, seed=trial)
            assert result.path is RecoveryPath.FALLBACK
            assert result.certificate.payload["fallback_reason"] == "verification-failed"


def one_view_check(view, candidate, eps_rel):
    """(gap, residual, epsilon, passed) of one view, each part computed on
    its own from the alias-sum prediction of that view alone."""
    predicted = build_view_from_spectrum(candidate, view.m, view.M).bins
    gap = abs(view.time_energy / view.m - float(np.sum(np.abs(predicted[0]) ** 2)))
    residual = float(np.sum(np.abs(view.bins - predicted) ** 2))
    eps = eps_rel * max(view.time_energy, 1.0)
    return gap, residual, eps, gap <= eps and residual <= eps


class TestStackedChecks:
    """`verify` predicts all the views it is given from one scatter into their
    stack; each view's check must be the one it gets on its own."""

    @pytest.mark.parametrize("identity", [False, True], ids=["drawn", "identity"])
    @pytest.mark.parametrize("t", range(6))
    def test_matches_per_view_checks(self, rng, t, identity):
        # a stack of t views, the plan's three taken in turn (t > 3 stacks a
        # view twice); an empty stack has no verdict, so it never passes
        N, k = 2**14, 12
        cfg = Config(nominal_length=N)
        plan = make_plan(N, k, config=cfg)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        src = synthesize(spec)
        built = build_views(src, plan.moduli, plan.M)
        if identity:
            # views built one at a time, as replay builds its view, are the
            # views a run builds
            by_hand = [build_view(src, m, plan.M) for m in plan.moduli]
            assert all(a.m == b.m and np.array_equal(a.bins, b.bins)
                       and a.time_energy == b.time_energy for a, b in zip(by_hand, built))
            built = by_hand
        views = [built[i % 3] for i in range(t)]
        moved = dict(spec.entries)
        moved[(spec.entries[0][0] + 1) % plan.M] = moved.pop(spec.entries[0][0])
        wrong = SparseSpectrum.from_pairs(moved.items(), plan.M)
        for candidate, verdict in ((spec, True), (wrong, False)):
            if t == 0:
                with pytest.raises(ValueError):
                    verify(views, candidate, cfg)
                continue
            report = verify(views, candidate, cfg)
            assert report.overall is verdict
            assert len(report.views) == t
            for view, check in zip(views, report.views):
                gap, residual, eps, passed = one_view_check(view, candidate, cfg.verify_eps_rel)
                # roundoff of sums over one view's bins, at the view's energy scale
                scale = view.time_energy / view.m
                assert abs(check.parseval_gap - gap) <= 1e-12 * max(gap, scale)
                assert abs(check.residual_energy - residual) <= 1e-12 * max(residual, scale)
                assert check.epsilon == eps and check.passed is passed
                assert check == check_view(view, candidate, cfg.verify_eps_rel)

    def test_row_sliced_views_are_checked_on_their_rows(self, rng):
        # views built together and cut to their shift-0 row are checked on that
        # row alone, exactly as copies of the row are, never on the rows cut off
        N, k = 2**14, 12
        plan = make_plan(N, k)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        views = build_views(synthesize(spec), plan.moduli, plan.M)
        moved = dict(spec.entries)
        moved[(spec.entries[0][0] + 1) % plan.M] = moved.pop(spec.entries[0][0])
        wrong = SparseSpectrum.from_pairs(moved.items(), plan.M)
        sliced = check_views([dc_replace(v, bins=v.bins[:1]) for v in views], wrong, EPS_REL)
        copied = check_views([dc_replace(v, bins=v.bins[:1].copy()) for v in views], wrong,
                             EPS_REL)
        assert sliced == copied
        assert all(c.residual_energy > c.epsilon for c in sliced)

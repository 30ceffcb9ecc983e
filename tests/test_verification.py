from dataclasses import replace as dc_replace

import numpy as np
import pytest

from crtfft import pipeline
from crtfft.config import Config
from crtfft.pipeline import RecoveryPath, sparse_fft
from crtfft.planner import make_plan
from crtfft.signal import SparseSpectrum, from_dense, synthesize
from crtfft.verification import VERIFY_EPS_REL, check_view, check_views, verify
from crtfft.views import build_view, build_view_from_spectrum, build_views
from conftest import random_spectrum, verify_plan


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
            view = build_view(src, m)
            e_time = view.time_energy[0]
            check = check_view(view, spec)
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
        check = check_view(build_view(src, plan.m1), short)
        assert check.parseval_gap > check.epsilon and not check.passed
        assert check.parseval_gap >= 1 - 1e-6

    def test_empty_candidate_gap_is_signal_energy(self, rng):
        plan = make_plan(2**14, 3)
        spec = collision_free_instance(rng, 3, plan)
        src = synthesize(spec)
        empty = SparseSpectrum.from_pairs([], plan.M)
        view = build_view(src, plan.m1)
        check = check_view(view, empty)
        assert check.parseval_gap > check.epsilon
        e_time = view.time_energy[0]
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
        check = check_view(build_view(src, m), spec)
        assert check.parseval_gap <= check.epsilon, check

    def test_predicted_view_is_refused(self):
        plan = make_plan(2**14, 2)
        spec = SparseSpectrum.from_pairs([(5, 1.0)], plan.M)
        predicted = build_view_from_spectrum(spec, plan.m1)
        with pytest.raises(ValueError):
            check_view(predicted, spec)


class TestResidualCheck:
    """The residual part of check_view: residual_energy against epsilon."""

    def test_correct_candidate(self, rng):
        plan = make_plan(2**14, 4)
        spec = random_spectrum(rng, 4, plan.M, fmax=2**14)
        src = synthesize(spec)
        for m in plan.moduli:
            check = check_view(build_view(src, m), spec)
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
        check = check_view(build_view(src, m), corrupted)
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
        check = check_view(build_view(src, m), corrupted)
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
        report = verify_plan(src, plan, spec)
        assert report.overall
        assert [v.modulus for v in report.views] == list(plan.moduli)
        # the run's certificate records the same verdict, at the one tolerance
        result = sparse_fft(src, 5, Config(nominal_length=2**14))
        record = result.certificate.payload["verification"]
        assert record["overall"] is True and record["epsilon_rel"] == VERIFY_EPS_REL
        assert [v["modulus"] for v in record["views"]] == list(plan.moduli)

    def test_no_false_alarms_over_random_instances(self, rng):
        # correct candidates must pass regardless of collisions
        for trial in range(40):
            k = int(rng.integers(1, 9))
            plan = make_plan(2**14, k)
            spec = random_spectrum(rng, k, plan.M, fmax=2**14)
            report = verify_plan(synthesize(spec), plan, spec)
            assert report.overall

    def test_missing_tone_rejected_always(self, rng):
        for trial in range(25):
            k = int(rng.integers(2, 8))
            plan = make_plan(2**14, k)
            spec = random_spectrum(rng, k, plan.M, fmax=2**14)
            short = SparseSpectrum.from_pairs(spec.entries[1:], plan.M)
            report = verify_plan(synthesize(spec), plan, short)
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
            first = verify_plan(src, plan, candidate)
            assert first.overall is verdict
            assert verify_plan(src, plan, candidate) == first


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


def one_view_check(view, candidate):
    """(gap, residual, epsilon, passed) of a one-view stack, each part
    computed on its own from the alias-sum prediction of that view alone."""
    (m,), (e_time,) = view.moduli, view.time_energy.tolist()
    predicted = build_view_from_spectrum(candidate, m).bins
    gap = abs(e_time / m - float(np.sum(np.abs(predicted[0]) ** 2)))
    residual = float(np.sum(np.abs(view.bins - predicted) ** 2))
    eps = VERIFY_EPS_REL * max(e_time, 1.0)
    return gap, residual, eps, gap <= eps and residual <= eps


class TestStackedChecks:
    """`verify` predicts all the views of a stack from one scatter; each
    view's check must be the one it gets on its own."""

    @pytest.mark.parametrize("identity", [False, True], ids=["drawn", "identity"])
    @pytest.mark.parametrize("t", range(6))
    def test_matches_per_view_checks(self, rng, t, identity):
        # a stack of t views, the plan's three moduli taken in turn (t > 3
        # stacks a modulus twice); an empty stack has no verdict, so it never
        # passes
        N, k = 2**14, 12
        cfg = Config(nominal_length=N)
        plan = make_plan(N, k, config=cfg)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        src = synthesize(spec)
        moduli = [plan.moduli[i % 3] for i in range(t)]
        views = build_views(src, moduli)
        apart = [build_view(src, m) for m in moduli]
        if identity:
            # the stack holds, bit for bit, the views built one at a time, as
            # replay builds its view
            for (m, first), view in zip(views.layout.T.tolist(), apart):
                assert views.bins[:, first : first + m].tobytes() == view.bins.tobytes()
            assert views.time_energy.tobytes() == b"".join(v.time_energy.tobytes() for v in apart)
        moved = dict(spec.entries)
        moved[(spec.entries[0][0] + 1) % plan.M] = moved.pop(spec.entries[0][0])
        wrong = SparseSpectrum.from_pairs(moved.items(), plan.M)
        for candidate, verdict in ((spec, True), (wrong, False)):
            if t == 0:
                with pytest.raises(ValueError, match="the view set is empty"):
                    verify(views, candidate)
                continue
            report = verify(views, candidate)
            assert report.overall is verdict
            assert len(report.views) == t
            for view, check in zip(apart, report.views):
                gap, residual, eps, passed = one_view_check(view, candidate)
                # roundoff of sums over one view's bins, at the view's energy scale
                scale = view.time_energy[0] / view.moduli[0]
                assert abs(check.parseval_gap - gap) <= 1e-12 * max(gap, scale)
                assert abs(check.residual_energy - residual) <= 1e-12 * max(residual, scale)
                assert check.epsilon == eps and check.passed is passed
                assert check == check_view(view, candidate)

    def test_row_sliced_views_are_checked_on_their_rows(self, rng):
        # a stack cut to its shift-0 row is checked on that row alone, exactly
        # as a copy of the row is, never on the rows cut off
        N, k = 2**14, 12
        plan = make_plan(N, k)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        views = build_views(synthesize(spec), plan.moduli)
        moved = dict(spec.entries)
        moved[(spec.entries[0][0] + 1) % plan.M] = moved.pop(spec.entries[0][0])
        wrong = SparseSpectrum.from_pairs(moved.items(), plan.M)
        sliced = check_views(dc_replace(views, bins=views.bins[:1]), wrong)
        copied = check_views(dc_replace(views, bins=views.bins[:1].copy()), wrong)
        assert sliced == copied
        assert all(c.residual_energy > c.epsilon for c in sliced)

    def test_verify_reads_the_stack_as_built(self, rng, monkeypatch):
        # peeling empties its own copy: the stack a run verifies on is the
        # stack it built, unchanged bit for bit after run_peeling
        N, k = 2**14, 12
        plan = make_plan(N, k)
        built, checked = [], []

        def build(*args, **kwargs):
            views = real_build(*args, **kwargs)
            built.append((views, views.bins.tobytes(), views.time_energy.tobytes()))
            return views

        def check(views, *rest):
            checked.append(views)
            return real_verify(views, *rest)

        real_build, real_verify = pipeline.build_views, pipeline.verify
        monkeypatch.setattr(pipeline, "build_views", build)
        monkeypatch.setattr(pipeline, "verify", check)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        result = sparse_fft(synthesize(spec), k, Config(nominal_length=N))
        assert result.path is RecoveryPath.FAST and result.verification.overall
        ((views, bins, energy),) = built
        assert checked == [views]
        assert views.bins.tobytes() == bins and views.time_energy.tobytes() == energy

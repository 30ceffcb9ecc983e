import numpy as np
import pytest

from crtfft.config import Config
from crtfft.errors import OutOfRangeError
from crtfft.gating import (
    GateStats, draw_support, extract_residues, garner2, gate_pairs, gate_survivor_stats, rng_stream,
)
from crtfft.numtheory import ModTriple
from crtfft.planner import make_plan
from crtfft.signal import synthesize
from crtfft.views import ViewStack, build_view
from conftest import random_spectrum

TOY = ModTriple.create(7, 11, 13)
R1, R2, R3 = [0, 3, 6], [1, 7, 8, 10], [2, 5, 7, 11]

# the eight rows the published table gets right, and the four it gets wrong
PUBLISHED_CONSISTENT = {
    (0, 1): (56, 4, False),
    (0, 7): (7, 7, True),
    (0, 8): (63, 11, True),
    (0, 10): (21, 8, False),
    (6, 1): (34, 8, False),
    (6, 7): (62, 10, False),
    (6, 8): (41, 2, True),
    (6, 10): (76, 11, True),
}


def exhaustive_gate(r1_set, r2_set, r3_set, triple):
    """Independent oracle: search [0, m1*m2) for each congruence pair."""
    rows = {}
    for r1 in r1_set:
        for r2 in r2_set:
            f12 = next(
                f
                for f in range(triple.m1 * triple.m2)
                if f % triple.m1 == r1 and f % triple.m2 == r2
            )
            r3 = f12 % triple.m3
            rows[(r1, r2)] = (f12, r3, r3 in set(r3_set))
    return rows


class TestExtractResidues:
    def test_worked_example_sets_with_injected_noise(self):
        # true bins {0, 6} plus an injected bin 3, strongest first
        bins = np.zeros((1, 7), dtype=np.complex128)
        bins[0, [0, 6, 3]] = 1.0, 0.8, 0.05
        got = extract_residues(ViewStack(1001, (7,), bins), alpha_k=30)
        assert got.dtype == np.int64 and got.tolist() == [0, 6, 3]

    def test_all_zero_view(self):
        got = extract_residues(ViewStack(35, (5,), np.zeros((1, 5), complex)), 3)
        assert got.dtype == np.int64 and got.size == 0

    def test_capacity_and_tie_break(self):
        bins = np.zeros((1, 8), dtype=np.complex128)
        bins[0, [1, 4, 6]] = 2.0  # tied magnitudes
        bins[0, [2, 7]] = 1.0
        got = extract_residues(ViewStack(8, (8,), bins), alpha_k=4)
        # descending magnitude, ascending bin on ties; capacity 4
        assert got.tolist() == [1, 4, 6, 2]
        # independent oracle: python sort
        mags = np.abs(bins[0])
        want = sorted(np.flatnonzero(mags > 0), key=lambda r: (-mags[r], r))[:4]
        assert got.tolist() == want

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError, match="alpha_k"):
            extract_residues(ViewStack(35, (5,), np.ones((1, 5), complex)), 0)


class TestGatePairs:
    def test_worked_example_all_rows(self):
        oracle = exhaustive_gate(R1, R2, R3, TOY)
        table = gate_pairs(R1, R2, R3, TOY)
        assert len(table) == 12
        for g in table:
            assert (g.f12, g.r3_hat, g.passed) == oracle[(g.r1, g.r2)]
            assert g.f12 % 7 == g.r1 and g.f12 % 11 == g.r2

    def test_rows_consistent_with_published_table(self):
        table = {(g.r1, g.r2): (g.f12, g.r3_hat, g.passed) for g in gate_pairs(R1, R2, R3, TOY)}
        for pair, row in PUBLISHED_CONSISTENT.items():
            assert table[pair] == row

    def test_corrected_rows(self):
        table = {(g.r1, g.r2): (g.f12, g.r3_hat, g.passed) for g in gate_pairs(R1, R2, R3, TOY)}
        assert table[(3, 1)] == (45, 6, False)
        assert table[(3, 7)] == (73, 8, False)
        assert table[(3, 8)] == (52, 0, False)
        assert table[(3, 10)] == (10, 10, False)

    def test_survivor_set(self):
        passed = {(g.r1, g.r2) for g in gate_pairs(R1, R2, R3, TOY) if g.passed}
        assert passed == {(0, 7), (0, 8), (6, 8), (6, 10)}

    def test_empty_input(self):
        assert gate_pairs([], R2, R3, TOY) == []
        assert gate_pairs(R1, [], R3, TOY) == []

    def test_empty_r3_rejects_all(self):
        assert not any(g.passed for g in gate_pairs(R1, R2, [], TOY))

    def test_accepts_any_iterable_of_ints(self):
        want = gate_pairs(R1, R2, R3, TOY)
        assert gate_pairs(np.array(R1), iter(R2), set(R3), TOY) == want
        assert all(type(g.r1) is int and type(g.passed) is bool for g in want)

    def test_verdict_independent_of_r3_order(self):
        a = gate_pairs(R1, R2, R3, TOY)
        b = gate_pairs(R1, R2, list(reversed(R3)), TOY)
        assert [(g.r1, g.r2, g.passed) for g in a] == [(g.r1, g.r2, g.passed) for g in b]

    @pytest.mark.parametrize(
        "sets, message",
        [
            (([0], [1], [20]), "view-3 bin 20 is outside \\[0, 13\\)"),
            (([9], [1], [2]), "view-1 bin 9 is outside \\[0, 7\\)"),
            (([0], [1, -1], [2]), "view-2 bin -1 is outside \\[0, 11\\)"),
            (([0], [1], [2**70]), "view-3 bin is outside"),
        ],
        ids=["r3-past-m3", "r1-past-m1", "negative-r2", "r3-past-int64"],
    )
    def test_bin_out_of_range_is_typed(self, sets, message):
        # neither an IndexError from the occupancy table nor a silent
        # reduction mod m
        with pytest.raises(OutOfRangeError, match=message):
            gate_pairs(*sets, TOY)


class TestCompleteness:
    def test_true_pairs_always_pass(self, rng):
        # property over random supports and random coprime triples
        triples = [(97, 101, 103), (61, 64, 65), (11, 13, 17)]
        for m1, m2, m3 in triples:
            triple = ModTriple.create(m1, m2, m3)
            for _ in range(20):
                k = int(rng.integers(1, 6))
                # the gate's completeness premise: support within [0, m1*m2)
                freqs = rng.choice(m1 * m2, size=k, replace=False)
                r1 = sorted({int(f % m1) for f in freqs})
                r2 = sorted({int(f % m2) for f in freqs})
                r3 = sorted({int(f % m3) for f in freqs})
                passing = {(g.r1, g.r2) for g in gate_pairs(r1, r2, r3, triple) if g.passed}
                for f in freqs:
                    assert (int(f % m1), int(f % m2)) in passing

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_true_pairs_pass_on_pipeline_views(self, seed):
        # residue sets read off the identification views that the pipeline
        # builds, at the default capacity of 15k bins per view.  The
        # planner needs only M >= N, so the moduli are pinned to a triple that
        # meets the gate's no-wrap condition.
        N, k = 2**14, 12
        plan = make_plan(N, k, config=Config(moduli_override=(997, 1009, 1013)))
        spec = random_spectrum(np.random.default_rng(seed), k, plan.M, fmax=N)
        src = synthesize(spec)
        r1, r2, r3 = (extract_residues(build_view(src, m), 15 * k) for m in plan.moduli)
        table = gate_pairs(r1, r2, r3, plan)
        passing = {(g.r1, g.r2) for g in table if g.passed}
        m1, m2, _ = plan.moduli
        assert N <= m1 * m2
        for f, _ in spec.entries:
            assert (f % m1, f % m2) in passing


class TestSurvivorStats:
    def test_small_run_shape(self):
        triple = ModTriple.create(97, 101, 103)
        stats = gate_survivor_stats(9000, 4, 5.0, triple, trials=50, seed=1)
        assert stats.trials == 50
        assert stats.min_true_survivors == stats.max_true_survivors == 4
        assert stats.mean_false_survivors > 0

    def test_zero_sparsity(self):
        triple = ModTriple.create(97, 101, 103)
        stats = gate_survivor_stats(9000, 0, 5.0, triple, trials=10, seed=1)
        assert stats.mean_true_survivors == 0
        assert stats.mean_false_survivors == 0

    def test_zero_trials(self):
        # no trial: zero counts, and the prediction alpha^3 k^3 / m3 alone
        stats = gate_survivor_stats(9000, 4, 5.0, ModTriple.create(97, 101, 103), trials=0)
        assert stats == GateStats(0, 0.0, 0.0, 0.0, 0, 0, 125 * 64 / 103)

    @pytest.mark.parametrize("k, alpha, trials, message", [
        (4, 5.0, -1, "trials must be >= 0"),
        (-1, 5.0, 1, "k must be >= 0"),
        (20, 5.0, 1, "alpha\\*k = 100 exceeds the smallest modulus"),
    ], ids=["negative-trials", "negative-k", "cap-past-m1"])
    def test_refusals(self, k, alpha, trials, message):
        with pytest.raises(ValueError, match=message):
            gate_survivor_stats(9000, k, alpha, ModTriple.create(97, 101, 103), trials=trials)

    def test_draw_support_refuses_more_tones_than_frequencies(self):
        rng = np.random.default_rng(0)
        assert draw_support(rng, 5, 5) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError, match="cannot draw 6 distinct frequencies below 5"):
            draw_support(rng, 6, 5)

    def test_no_fillers_reduces_false_survivors(self):
        triple = ModTriple.create(97, 101, 103)
        loose = gate_survivor_stats(9000, 4, 5.0, triple, trials=100, seed=2)
        tight = gate_survivor_stats(9000, 4, 1.0, triple, trials=100, seed=2)
        assert tight.mean_false_survivors < loose.mean_false_survivors
        assert tight.min_true_survivors == 4

    def test_matches_gate_pairs_on_one_trial(self, rng):
        # the vectorized kernel and the object API must agree exactly
        triple = ModTriple.create(31, 37, 41)
        freqs = sorted(rng.choice(triple.m1 * triple.m2, size=5, replace=False).tolist())
        cap = 10
        sets = []
        for m in triple.moduli:
            bins = {f % m for f in freqs}
            while len(bins) < cap:
                bins.add(int(rng.integers(0, m)))
            sets.append(sorted(bins))
        table = gate_pairs(sets[0], sets[1], sets[2], triple)
        survivors = sum(g.passed for g in table)
        true_pairs = {(f % triple.m1, f % triple.m2) for f in freqs}
        true_passed = sum(g.passed and (g.r1, g.r2) in true_pairs for g in table)
        assert true_passed == len(true_pairs)
        # oracle recount via explicit garner2
        recount = 0
        occupied = set(sets[2])
        for r1 in sets[0]:
            for r2 in sets[1]:
                f12 = garner2(r1, r2, triple.m1, triple.m2)
                recount += (f12 % triple.m3) in occupied
        assert recount == survivors

    def test_mean_tracks_prediction_loosely(self):
        # full-scale statistical check lives in the acceptance suite
        triple = ModTriple.create(997, 1009, 1013)
        stats = gate_survivor_stats(10**6, 10, 15.0, triple, trials=60, seed=3)
        assert stats.prediction_false_survivors == pytest.approx(3375000 / 1013)
        assert abs(stats.mean_false_survivors - stats.prediction_false_survivors) \
            <= 0.25 * stats.prediction_false_survivors


class TestRngStream:
    def test_label_separation(self):
        a = rng_stream(1, "id-view-0").integers(0, 1 << 30, 4).tolist()
        b = rng_stream(1, "id-view-1").integers(0, 1 << 30, 4).tolist()
        c = rng_stream(1, "id-view-0").integers(0, 1 << 30, 4).tolist()
        assert a == c and a != b

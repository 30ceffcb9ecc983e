import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crtfft.config import Config
from crtfft.numtheory import ModTriple
from crtfft.peeling import (
    ROUND_CAP_C,
    SINGLETON_TOL,
    PeelOutcome,
    PeelState,
    PeelStatus,
    detect_singletons,
    peel,
    run_peeling,
)
from crtfft.planner import make_plan, rehash
from crtfft.gating import gate_pairs, rng_stream
from crtfft.signal import SparseSpectrum, synthesize
from crtfft.views import ViewStack, alias_stack, build_view, build_view_from_spectrum, build_views
from conftest import random_spectrum, spectra_close

TOY_CFG = Config(moduli_override=(7, 11, 13))

# Four tones that pairwise collide in every view of the (7, 11, 13) system:
# residues mod 7 are (0,0,5,5), mod 11 are (0,7,0,7), mod 13 are (0,7,7,0).
# No view has a singleton bin, so peeling can make no progress.  (With
# three tones such an instance cannot exist: pairwise collision in all
# three views would force equality mod M.)
STUCK_SUPPORT = (0, 7, 33, 117)


def recovered(out, grid):
    """The peeling outcome as a spectrum on `grid`."""
    return SparseSpectrum.from_pairs(zip(out.freqs.tolist(), out.coeffs.tolist()), grid)


def ledger(state):
    """The peeling ledger as {frequency: its readings' coefficients summed}."""
    summed = {}
    for f, c in zip(state.freqs.tolist(), state.coeffs.tolist()):
        summed[f] = summed.get(f, 0) + c
    return summed


def view_bins(state, i):
    """View i's columns of the peeling stack, found through its layout."""
    m, first = state.layout[:, i].tolist()
    return state.stack[:, first : first + m]


def predicted_stack(spectrum, moduli, M):
    """The views on `moduli` of a known spectrum as one stack: each view's
    `build_view_from_spectrum` bins, side by side."""
    bins = np.hstack([build_view_from_spectrum(spectrum, m).bins for m in moduli])
    return ViewStack(M, tuple(moduli), bins)


def toy_state(spectrum, nominal=None):
    n = nominal if nominal is not None else (64 if len(spectrum) <= 2 else 1001)
    plan = make_plan(n, len(spectrum), config=TOY_CFG)
    return plan, PeelState.create(build_views(synthesize(spectrum), plan.moduli))


class TestCreate:
    def test_leaves_the_built_views_unchanged(self, rng):
        # the pipeline verifies on the views it built; peeling empties its own
        # stacked copy of them and leaves every built view as it was read
        N, k = 2**14, 12
        plan = make_plan(N, k)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        built = build_views(synthesize(spec), plan.moduli)
        before = built.bins.copy()
        state = PeelState.create(built)
        assert not np.shares_memory(built.bins, state.stack)
        out = run_peeling(state, k)
        assert out.status is PeelStatus.COMPLETE
        assert np.abs(state.stack).max() <= state.noise_floor
        assert built.bins.tobytes() == before.tobytes()

    def test_copies_views_built_apart(self, rng):
        # peeling starts from the bins of each view built on its own, bit for
        # bit, and leaves the one-view stacks as they were read
        spec = random_spectrum(rng, 3, 1001)
        plan = make_plan(1001, 3, config=TOY_CFG)
        src = synthesize(spec)
        apart = [build_view(src, m) for m in plan.moduli]
        before = [v.bins.copy() for v in apart]
        state = PeelState.create(build_views(src, plan.moduli))
        assert state.stack.tobytes() == np.hstack(before).tobytes()
        run_peeling(state, 3)
        assert all(np.array_equal(v.bins, b) for v, b in zip(apart, before))


class TestDetectSingletons:
    def test_single_tone(self):
        spec = SparseSpectrum.from_pairs([(5, 2 + 1j)], 1001)
        plan, state = toy_state(spec)
        # isolated in every view, and read once
        fs, coeffs = detect_singletons(state)
        assert fs.tolist() == [5]
        assert np.abs(coeffs - (2 + 1j)).max() < 1e-9

    def test_collision_rejected_in_colliding_view_only(self):
        # 3 and 10 collide mod 7 but separate mod 11 and mod 13: a one-view
        # stack on 7 offers no reading, one on 11 or on 13 reads both
        src = synthesize(SparseSpectrum.from_pairs([(3, 1.0), (10, 1.0)], 1001))
        for m, want in ((7, []), (11, [3, 10]), (13, [3, 10])):
            fs, coeffs = detect_singletons(PeelState.create(build_views(src, (m,))))
            assert fs.tolist() == want and coeffs.size == len(want)

    def test_worked_example_first_round(self):
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 0.5 - 1j)], 1001)
        plan, state = toy_state(spec)
        fs, _ = detect_singletons(state)
        assert fs.tolist() == [7, 41]

    def test_nonidentity_hash_consistency(self, rng):
        plan = make_plan(2**14, 6)
        spec = random_spectrum(rng, 6, plan.M)
        src = synthesize(spec)
        state = PeelState.create(build_views(src, plan.moduli))
        fs, coeffs = detect_singletons(state)
        want = dict(spec.entries)
        assert fs.tolist() == sorted(set(fs.tolist()))
        for f, c in zip(fs.tolist(), coeffs.tolist()):
            assert abs(c - want[f]) < 1e-9


def per_view_reference(state):
    """Singleton detection one view at a time, then the cleanest reading per
    frequency (least error, then lowest view): {(f_hat, coeff)}."""
    best = {}
    for vi in range(state.layout.shape[1]):
        m, _ = state.layout[:, vi].tolist()
        bins = view_bins(state, vi)
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
        ok &= f_hat % m == cand
        ratio2 = bins[2][cand] / np.where(y1 == 0, 1, y1)
        dev2 = np.abs(ratio2 - ratio1) / np.abs(np.where(ratio1 == 0, 1, ratio1))
        err = np.maximum(err, dev2)
        ok &= dev2 <= SINGLETON_TOL
        for i in np.flatnonzero(ok):
            f, key = int(f_hat[i]), (float(err[i]), vi)
            if f not in best or key < best[f][0]:
                best[f] = (key, (f, complex(y0[i])))
    return {row for _, row in best.values()}


def reference_detect(state):
    """Singleton detection as written before the column table: the view of
    each candidate by `searchsorted` on the layout, and guarded divisions;
    then the cleanest reading per frequency (least error, then lowest view)
    by one lexsort, frequencies ascending: (fs, coeffs)."""
    stack, M = state.stack, state.M
    mag0 = np.abs(stack[0])
    cand = np.flatnonzero(mag0 > state.noise_floor)
    view = np.searchsorted(state.layout[1], cand, side="right") - 1
    m, offset = state.layout[:, view]
    bin_index = cand - offset
    y = stack[:, cand]
    y0, y1, mag = y[0], y[1], mag0[cand]
    ok = np.abs(y1) > 0
    err = np.max(np.abs(np.abs(y[1:]) - mag) / mag, axis=0, initial=0.0)
    ok &= err <= SINGLETON_TOL
    ratio1 = np.where(ok, y1 / np.where(y0 == 0, 1, y0), 0)
    f_hat = np.round(np.angle(ratio1) * M / (2 * np.pi)).astype(np.int64) % M
    ok &= f_hat % m == bin_index
    ratio2 = y[2] / np.where(y1 == 0, 1, y1)
    dev2 = np.abs(ratio2 - ratio1) / np.abs(np.where(ratio1 == 0, 1, ratio1))
    err = np.maximum(err, dev2)
    ok &= dev2 <= SINGLETON_TOL
    rows = np.flatnonzero(ok)
    view, f_hat, coeff, err = view[rows], f_hat[rows], y0[rows], err[rows]
    order = np.lexsort((view, err, f_hat))
    f = f_hat[order]
    first = np.ones(f.size, dtype=bool)
    first[1:] = f[1:] != f[:-1]
    return f[first], coeff[order[first]]


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
    @given(spec=toy_spectra(), misplaced=st.booleans())
    def test_matches_per_view_reference(self, spec, misplaced):
        # the same (f_hat, coeff) set as testing each view on its own, on
        # the first rounds of peeling as well as on the fresh views
        plan = make_plan(1001, len(spec), config=TOY_CFG)
        src = synthesize(spec)
        views = build_views(src, plan.moduli)
        if misplaced:
            # every singleton of view 0 one bin off: each must fail the bin-back test
            m, first = views.layout[:, 0].tolist()
            views.bins[:, first : first + m] = np.roll(views.bins[:, first : first + m], 1, axis=1)
        state = PeelState.create(views)
        for _ in range(3):
            fs, coeffs = detect_singletons(state)
            assert set(zip(fs.tolist(), coeffs.tolist())) == per_view_reference(state)
            assert fs.tolist() == sorted(set(fs.tolist()))
            # every reading clears the noise floor, so no reading can re-detect
            # a recovered tone at a vanishing residual
            assert (np.abs(coeffs) > state.noise_floor).all()
            if not fs.size:
                break
            peel(state, fs, coeffs)


def same_bits(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestDetectorMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=toy_spectra(),
        edits=st.lists(
            st.tuples(
                st.sampled_from(("zero-shift-1", "at-floor", "above-floor", "tone", "noise")),
                st.integers(0, 30),
                st.floats(-4.0, 4.0),
                st.floats(-4.0, 4.0),
            ),
            max_size=8,
        ),
    )
    def test_bit_for_bit(self, spec, edits):
        # frequencies and coefficients equal the reference's bit for bit,
        # on stacks with colliding tones, zeroed shift-1 bins, bins exactly at
        # and just above the noise floor, tone-like and noise bins, over
        # several rounds
        plan = make_plan(1001, len(spec), config=TOY_CFG)
        state = PeelState.create(predicted_stack(spec, plan.moduli, plan.M))
        stack, floor = state.stack, state.noise_floor
        for kind, column, re, im in edits:
            column %= stack.shape[1]
            if kind == "zero-shift-1":
                stack[1, column] = 0
            elif kind == "at-floor":
                stack[0, column] = floor
            elif kind == "above-floor":
                stack[0, column] = np.nextafter(floor, np.inf)
            elif kind == "tone":
                # a geometric sequence: a singleton if its phase lands back in its bin
                stack[:, column] = complex(re, im) * np.exp(1j * np.arange(3) * re)
            else:
                stack[:, column] = (complex(re, im), complex(im, re), complex(re * im, 1))
        for _ in range(3):
            fs, coeffs = detect_singletons(state)
            assert same_bits((fs, coeffs), reference_detect(state))
            if not fs.size:
                break
            peel(state, fs, coeffs)


def reference_run_peeling(state, k):
    """Peeling as written before one magnitude pass served a round: each
    round tests completion on its own |stack| pass, detects with
    `reference_detect`, and appends the readings to the ledger, the first
    round's onto its two empty arrays."""
    cap = max(1, math.ceil(ROUND_CAP_C * math.log2(k + 2)))
    while True:
        if float(np.abs(state.stack).max(initial=0.0)) <= state.noise_floor:
            status = PeelStatus.COMPLETE
            break
        if state.round >= cap:
            status = PeelStatus.STAGNATED
            break
        fs, coeffs = reference_detect(state)
        if fs.size == 0:
            status = PeelStatus.TWO_CORE
            break
        state.freqs = np.concatenate((state.freqs, fs))
        state.coeffs = np.concatenate((state.coeffs, coeffs))
        state.round += 1
        state.stack -= alias_stack(fs, coeffs, state.layout, state.stack.shape, state.M)
    peeled = state.freqs.size
    if state.round <= 1:
        return PeelOutcome(state.freqs, state.coeffs + 0.0, status, state.round, peeled)
    freqs, where = np.unique(state.freqs, return_inverse=True)
    coeffs = np.zeros(freqs.size, dtype=np.complex128)
    np.add.at(coeffs, where, state.coeffs)
    keep = np.abs(coeffs) > state.noise_floor
    return PeelOutcome(freqs[keep], coeffs[keep], status, state.round, peeled)


# Five unit tones on (7, 11, 13) that peel in three rounds.
THREE_ROUNDS = (24, 121, 563, 726, 912)


class TestRunPeelingMatchesReference:
    """`run_peeling` gives the reference loop's outcome bit for bit."""

    @staticmethod
    def assert_same_run(spec, edits, k):
        plan = make_plan(1001, len(spec), config=TOY_CFG)
        views = build_views(synthesize(spec), plan.moduli)
        got, want = PeelState.create(views), PeelState.create(views)
        for state in (got, want):
            stack = state.stack
            for kind, column, re, im in edits:
                column %= stack.shape[1]
                if kind == "tone":
                    stack[:, column] = complex(re, im) * np.exp(1j * np.arange(3) * re)
                else:
                    stack[:, column] = (complex(re, im), complex(im, re), complex(re * im, 1))
        out, ref = run_peeling(got, k), reference_run_peeling(want, k)
        assert same_bits((out.freqs, out.coeffs), (ref.freqs, ref.coeffs))
        assert (out.status, out.rounds, out.readings) == (ref.status, ref.rounds, ref.readings)
        assert same_bits((got.freqs, got.coeffs, got.stack), (want.freqs, want.coeffs, want.stack))
        return out

    @pytest.mark.parametrize(
        "support, k, status, rounds",
        [(THREE_ROUNDS, 5, PeelStatus.COMPLETE, 3), (STUCK_SUPPORT, 4, PeelStatus.TWO_CORE, 0),
         # k = -1 gives the smallest round cap, one round
         (THREE_ROUNDS, -1, PeelStatus.STAGNATED, 1)],
        ids=["multi-round", "two-core", "capped"],
    )
    def test_each_ending(self, support, k, status, rounds):
        spec = SparseSpectrum.from_pairs([(f, 1.0) for f in support], 1001)
        out = self.assert_same_run(spec, [], k)
        assert (out.status, out.rounds) == (status, rounds)

    @settings(max_examples=150, deadline=None)
    @given(
        spec=toy_spectra(),
        edits=st.lists(
            st.tuples(st.sampled_from(("tone", "noise")), st.integers(0, 30),
                      st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
            max_size=4,
        ),
        capped=st.booleans(),
    )
    @example(spec=SparseSpectrum.from_pairs([(f, 1.0) for f in THREE_ROUNDS], 1001),
             edits=[], capped=True)
    def test_bit_for_bit(self, spec, edits, capped):
        # drawn stacks peel in one or several rounds, stick two-core on
        # colliding tones or planted bins, or stop at a one-round cap
        self.assert_same_run(spec, edits, -1 if capped else len(spec))


class TestPeel:
    def test_complete_cancellation(self):
        spec = SparseSpectrum.from_pairs([(5, 2 + 1j)], 1001)
        plan, state = toy_state(spec)
        fs, coeffs = detect_singletons(state)
        peel(state, fs[:1], coeffs[:1])
        assert np.abs(state.stack).max() < 1e-12

    def test_peel_clears_other_views(self):
        # peeling tone 7 must clear its bin in every view, and leave tone 41,
        # which shares no bin with it, in place
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], 1001)
        plan, state = toy_state(spec)
        fs, coeffs = detect_singletons(state)
        seven = fs == 7
        peel(state, fs[seven], coeffs[seven])
        for i, m in enumerate(plan.moduli):
            bins = view_bins(state, i)
            assert abs(bins[0, 7 % m]) < 1e-12
            assert abs(bins[0, 41 % m] - 1.0) < 1e-12


    def test_round_subtracts_colliding_readings(self):
        # 3 and 10 are singletons in views 2 and 3 but share bin 3 of view 1;
        # peeling both in one round must take both out of that bin, leaving
        # the alias sums of the unrecovered tone 41 in every view
        spec = SparseSpectrum.from_pairs([(3, 1.0), (10, 0.5 - 1j), (41, 2j)], 1001)
        plan, state = toy_state(spec)
        fs, coeffs = detect_singletons(state)
        pair = np.isin(fs, (3, 10))
        peel(state, fs[pair], coeffs[pair])
        assert set(ledger(state)) == {3, 10}
        residual = SparseSpectrum.from_pairs([(41, 2j)], 1001)
        for i, m in enumerate(plan.moduli):
            want = build_view_from_spectrum(residual, m).bins
            assert np.abs(view_bins(state, i) - want).max() < 1e-9


class TestRunPeeling:
    def test_worked_example_completes_quickly(self):
        spec = SparseSpectrum.from_pairs([(7, 1.5), (41, -2j)], 1001)
        plan, state = toy_state(spec)
        out = run_peeling(state, len(spec))
        assert out.status is PeelStatus.COMPLETE
        assert out.rounds <= 2
        assert spectra_close(recovered(out, spec.grid_length), spec)

    def test_empty_spectrum(self):
        spec = SparseSpectrum.from_pairs([], 1001)
        plan, state = toy_state(spec)
        out = run_peeling(state, len(spec))
        assert out.status is PeelStatus.COMPLETE
        assert len(out.freqs) == len(out.coeffs) == 0

    def test_one_round_outcome_is_the_ledger_sum(self):
        # one tone whose shift-0 bins read exactly 1 - 0j peels in one round;
        # the outcome skips the sum but is bit for bit what summing the
        # ledger into zeros gives, -0.0 turned into +0.0 included
        plan = make_plan(1001, 1, config=TOY_CFG)
        views = predicted_stack(SparseSpectrum.from_pairs([], 1001), plan.moduli, 1001)
        f, coeff = 41, complex(1.0, -0.0)
        for m, first in views.layout.T.tolist():
            views.bins[:, first + f % m] = coeff * np.exp(2j * np.pi * f * np.arange(3) / 1001)
            views.bins[0, first + f % m] = coeff
        state = PeelState.create(views)
        out = run_peeling(state, 1)
        assert out.status is PeelStatus.COMPLETE and out.rounds == 1
        freqs, where = np.unique(state.freqs, return_inverse=True)
        summed = np.zeros(freqs.size, dtype=np.complex128)
        np.add.at(summed, where, state.coeffs)
        assert math.copysign(1.0, state.coeffs[0].imag) == -1.0
        assert out.freqs.tobytes() == freqs.tobytes() == np.array([f]).tobytes()
        assert out.coeffs.tobytes() == summed.tobytes()

    def test_all_views_colliding_instance_is_two_core(self, rng):
        coeffs = np.exp(2j * np.pi * rng.random(4))
        spec = SparseSpectrum.from_pairs(list(zip(STUCK_SUPPORT, coeffs)), 1001)
        # verify the construction: every occupied bin in every view is multi
        for m in (7, 11, 13):
            residues = [f % m for f in STUCK_SUPPORT]
            assert all(residues.count(r) >= 2 for r in residues)
        plan, state = toy_state(spec)
        out = run_peeling(state, len(spec))
        assert out.status is PeelStatus.TWO_CORE
        assert len(out.freqs) == len(out.coeffs) == 0

    def test_two_core_survives_rehash(self, rng):
        # the moduli alone decide which tones share a bin, so rehashing gives
        # the same views and the stuck instance stays stuck
        coeffs = np.exp(2j * np.pi * rng.random(4))
        spec = SparseSpectrum.from_pairs(list(zip(STUCK_SUPPORT, coeffs)), 1001)
        plan = make_plan(1001, 4, config=TOY_CFG)
        assert rehash(plan, seed=99, round_index=1) is plan
        src = synthesize(spec)
        out = run_peeling(PeelState.create(build_views(src, plan.moduli)), 4)
        assert out.status is PeelStatus.TWO_CORE

    def test_matches_gate_oracle_on_random_instances(self, rng):
        # peel-path recovery equals the gate-path reconstruction on
        # instances where both complete; the views' occupied bins are the
        # gate's residue sets
        triple = ModTriple.create(31, 37, 41)
        cfg = Config(moduli_override=triple.moduli)
        for trial in range(10):
            k = int(rng.integers(1, 6))
            spec = random_spectrum(rng, k, triple.m1 * triple.m2)
            spec = SparseSpectrum.from_pairs(spec.entries, triple.M)
            plan = make_plan(triple.m1 * triple.m2, k, config=cfg)
            src = synthesize(spec)
            views = build_views(src, plan.moduli)
            floor = 1e-9 * np.abs(views.bins[0]).max()
            sets = [
                sorted(np.flatnonzero(np.abs(views.bins[0, first : first + m]) > floor).tolist())
                for m, first in views.layout.T.tolist()
            ]
            out = run_peeling(PeelState.create(views), k)
            if out.status is not PeelStatus.COMPLETE:
                continue
            assert spectra_close(recovered(out, spec.grid_length), spec)
            gate_hits = {
                g.f12
                for g in gate_pairs(sets[0], sets[1], sets[2], plan)
                if g.passed
            }
            for f, _ in spec.entries:
                assert f in gate_hits

    def test_conservation_during_peeling(self, rng):
        # at every step the view bins equal the alias sums of the
        # still-unrecovered residual, against direct evaluation
        spec = random_spectrum(rng, 5, 1001)
        plan, state = toy_state(spec)
        for _ in range(6):
            fs, coeffs = detect_singletons(state)
            if not fs.size:
                break
            peel(state, fs[:1], coeffs[:1])
            residual_entries = dict(spec.entries)
            for f, c in ledger(state).items():
                residual_entries[f] = residual_entries.get(f, 0) - c
            residual = SparseSpectrum.from_pairs(
                [(f, c) for f, c in residual_entries.items() if abs(c) > 1e-12], 1001
            )
            for i, m in enumerate(plan.moduli):
                want = build_view_from_spectrum(residual, m).bins
                assert np.abs(view_bins(state, i) - want).max() < 1e-6


class TestRoundBound:
    def test_round_cap_respected(self, rng):
        plan = make_plan(2**16, 8)
        spec = random_spectrum(rng, 8, plan.M, fmax=2**16)
        src = synthesize(spec)
        out = run_peeling(PeelState.create(build_views(src, plan.moduli)), 8)
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
            plan = make_plan(triple.M, 10, config=cfg)
            out = run_peeling(PeelState.create(predicted_stack(spec, plan.moduli, plan.M)), 10)
            if out.status is PeelStatus.COMPLETE and spectra_close(recovered(out, plan.M), spec):
                completed += 1
        assert completed / trials >= 0.99

import functools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfft.config import Config
from crtfft.errors import CrtFftError, NonFiniteError, OracleCapExceededError, ParseError
from crtfft.peeling import PeelState, PeelStatus, run_peeling
from crtfft import pipeline
from crtfft.pipeline import (
    DENSE_BUDGET,
    Certificate,
    RecoveryPath,
    dense_fallback,
    sparse_fft,
    sparse_fft_dense,
    verify_certificate,
)
from crtfft.planner import SHIFT_COUNT, make_plan
from crtfft.signal import _MAX_GRID, SignalSource, SparseSpectrum, from_dense, synthesize
from crtfft.verification import VERIFY_EPS_REL
from crtfft.views import NOISE_FLOOR_REL, build_views
from conftest import (
    DELETE, mutate_one_value, random_spectrum, refuse_constant, set_json_value, spectra_close,
)

TOY_CFG = Config(moduli_override=(7, 11, 13), nominal_length=64)

# Runs recorded by earlier commits: the first three by planners that drew a
# keyed (sigma, b) per view, the fourth by one with plain views whose plans
# stored their views and a verification count t (3 by default).
PARENT_CASES = json.loads(
    (Path(__file__).parent / "fixtures" / "parent_certificates.json").read_text())


class Unreadable(SignalSource):
    """A source on `grid_length` points that fails the test on any read."""

    def __init__(self, grid_length):
        self.grid_length = grid_length

    def sample_block(self, indices):
        pytest.fail("a sample was read")


def toy_instance(rng=None, entries=((7, 1.0), (41, 1.0))):
    spec = SparseSpectrum.from_pairs(list(entries), 1001)
    return spec, synthesize(spec)


@st.composite
def fallback_buffers(draw):
    """Dense buffers whose spectra are exact, noisy, tied, faint (bins
    between 1e-12 and 1e-9 of the peak), or real-valued."""
    n = draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("exact", "noisy", "ties", "faint")))
    if kind == "ties":  # few distinct sample values: tied bin magnitudes
        values = st.sampled_from((0j, 1.0, -1.0, 1j, 0.5 - 0.5j))
        x = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.complex128)
    else:
        tones = draw(st.integers(0, min(n, 12)))
        spectrum = np.zeros(n, dtype=np.complex128)
        bins = rng.choice(n, tones, replace=False)
        spectrum[bins] = rng.normal(size=tones) + 1j * rng.normal(size=tones)
        if kind == "faint":  # every tone but the first scaled far below it
            spectrum[bins[1:]] *= 10.0 ** rng.uniform(-11.5, -9.5, size=max(tones - 1, 0))
        x = np.fft.ifft(spectrum) * n
        if kind == "noisy":
            x += 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    if draw(st.booleans()):  # real samples: conjugate bins tie in magnitude
        x = x.real.astype(np.complex128)
    return x


@functools.cache
def fast_certificate():
    """(certificate JSON, source) of one fast-path run."""
    spec = random_spectrum(np.random.default_rng(7), 3, 1001)
    src = synthesize(spec)
    result = sparse_fft(src, 3, replace(TOY_CFG, nominal_length=1001), seed=9)
    assert result.path is RecoveryPath.FAST
    return result.certificate.to_json(), src


@functools.cache
def fallback_certificate():
    """(certificate JSON, source) of one dense-fallback run."""
    rng = np.random.default_rng(11)
    src = from_dense(rng.normal(size=64) + 1j * rng.normal(size=64))
    result = sparse_fft(src, 3, seed=0)
    assert result.path is RecoveryPath.FALLBACK
    return result.certificate.to_json(), src


def assert_json_agrees(got, want, path="$"):
    """Decoded JSON trees with the same keys, ints, strings and bools, and
    floats within 1e-12 relative."""
    assert type(got) is type(want), path
    if type(want) is dict:
        assert got.keys() == want.keys(), path
        for key in want:
            assert_json_agrees(got[key], want[key], f"{path}.{key}")
    elif type(want) is list:
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_json_agrees(a, b, f"{path}[{i}]")
    elif type(want) is float:
        assert abs(got - want) <= 1e-12 * abs(want), (path, got, want)
    else:
        assert got == want, path


class TestSparseFft:
    def test_worked_example_fast_path(self):
        spec, src = toy_instance()
        result = sparse_fft(src, 2, TOY_CFG, seed=1)
        assert result.path is RecoveryPath.FAST
        assert [f for f, _ in result.spectrum.entries] == [7, 41]
        assert spectra_close(result.spectrum, spec)

    def test_medium_instance_exact_and_cheaper_than_dense(self, rng):
        # full-size cell (N=2^14, t=8) runs in the acceptance suite
        cfg = Config(nominal_length=2**12)
        plan = make_plan(2**12, 8, config=cfg)
        spec = random_spectrum(rng, 8, plan.M, fmax=2**12)
        src = synthesize(spec)
        result = sparse_fft(src, 8, cfg, seed=3)
        assert result.path is RecoveryPath.FAST
        assert spectra_close(result.spectrum, spec)
        dense = sparse_fft(src, 8, replace(cfg, force_fallback=True), seed=3)
        assert spectra_close(dense.spectrum, spec)
        assert result.op_counts["total"] < dense.op_counts["total"]

    @pytest.mark.parametrize("case, reason, want", [
        ("fast", None, {"peel": 630, "verify": 696, "views": 6351, "total": 7677}),
        ("two-core", "peeling-two-core",
         {"fallback": 142225, "peel": 93, "views": 3789, "total": 146107}),
        ("forced", "forced", {"fallback": 142223, "total": 142223}),
        ("empty", None, {"verify": 124, "views": 3789, "total": 3913}),
        ("candidate-overflow", "candidate-overflow",
         {"fallback": 4074852, "peel": 1548, "views": 6351, "total": 4082751}),
        ("verification-failed", "verification-failed",
         {"fallback": 4074852, "peel": 630, "verify": 696, "views": 6351, "total": 4082529}),
        ("many-rounds", None,
         {"peel": 41253, "verify": 4024, "views": 117411, "total": 162688}),
    ], ids=["fast", "two-core", "forced", "empty", "candidate-overflow", "verification-failed",
            "many-rounds"])
    def test_op_counts_pinned(self, rng, monkeypatch, case, reason, want):
        # The op model is a fixed cost model: any drift in these figures makes
        # op counts incomparable across commits.  One run down each path:
        # peeling's detection passes and readings, verification on the views
        # already built (it reads no sample), and the fallback's grid read,
        # transform and selection.
        cfg, k = Config(nominal_length=2**14), 12
        if case in ("fast", "verification-failed"):
            spec = random_spectrum(rng, 12, 44 * 45 * 49, fmax=2**14)
        elif case == "candidate-overflow":
            spec = random_spectrum(rng, 40, 44 * 45 * 49, fmax=2**14)
        elif case == "two-core":
            coeffs = np.exp(2j * np.pi * rng.random(4))
            spec = SparseSpectrum.from_pairs(list(zip((0, 7, 33, 117), coeffs)), 1001)
            cfg, k = replace(TOY_CFG, nominal_length=1001), 4
        elif case == "forced":
            spec, _ = toy_instance()
            cfg, k = replace(TOY_CFG, force_fallback=True), 2
        elif case == "empty":
            spec, cfg, k = SparseSpectrum.from_pairs([], 1001), TOY_CFG, 0
        else:  # many peel rounds, as in test_peeling_past_four_rounds_per_log_k_completes
            moduli, k = (97, 101, 103), 235
            M = math.prod(moduli)
            rng = np.random.default_rng(1000 + 32)
            support = np.sort(rng.choice(M, size=k, replace=False))
            spec = SparseSpectrum.from_pairs(
                zip(support, np.exp(2j * np.pi * rng.random(k))), M)
            cfg = Config(moduli_override=moduli, nominal_length=M)
        if case == "verification-failed":
            real_verify = pipeline.verify

            def corrupt_then_verify(views, candidate, *rest):
                entries = list(candidate.entries)
                entries[0] = ((entries[0][0] + 17) % candidate.grid_length, entries[0][1])
                return real_verify(views, SparseSpectrum.from_pairs(entries, spec.grid_length),
                                   *rest)

            monkeypatch.setattr(pipeline, "verify", corrupt_then_verify)
        result = sparse_fft(synthesize(spec), k, cfg, seed=5)
        got_reason = result.certificate.payload["fallback_reason"]
        assert (got_reason and got_reason.split(":")[0]) == reason
        if k >= len(spec):
            assert spectra_close(result.spectrum, spec)
        else:  # the fallback's top k
            assert len(result.spectrum) == k
        # the phases with a nonzero count in name order, then their total
        assert list(result.op_counts.items()) == list(want.items())
        # a fast run is verified, at the one tolerance no setting changes
        report = result.certificate.payload["verification"]
        assert (result.path is RecoveryPath.FALLBACK
                or report["epsilon_rel"] == VERIFY_EPS_REL), report

    def test_fast_path_reads_each_sample_once(self, rng):
        # verification checks the views peeling was given, so a fast run reads
        # each view's samples once: SHIFT_COUNT rows per modulus, no row twice
        class CountingSource(SignalSource):
            def __init__(self, inner):
                self.inner, self.rows = inner, []
                self.grid_length = inner.grid_length

            def sample_block(self, indices):
                self.rows += [tuple(row) for row in np.reshape(indices, (-1, indices.shape[-1]))]
                return self.inner.sample_block(indices)

        N, k = 2**14, 12
        cfg = Config(nominal_length=N)
        plan = make_plan(N, k, config=cfg)
        spec = random_spectrum(rng, k, plan.M, fmax=N)
        src = CountingSource(synthesize(spec))
        result = sparse_fft(src, k, cfg, seed=1)
        assert result.path is RecoveryPath.FAST and spectra_close(result.spectrum, spec)
        assert sum(map(len, src.rows)) == SHIFT_COUNT * sum(plan.moduli) == 414
        assert len(set(src.rows)) == len(src.rows) == SHIFT_COUNT * 3
        assert all(len(set(row)) == len(row) for row in src.rows)

    def test_synthesized_scaling(self, rng):
        # k = 16 from N = 2^15 to 2^24: every plan stays under the int64 grid
        # ceiling, every run is fast, exact and replays, and the op count
        # grows as about N^(1/3), not as the sqrt(N) of views sized to sqrt(N)
        lengths, totals = [], []
        for e in range(15, 25):
            N = 2**e
            cfg = Config(nominal_length=N)
            spec = random_spectrum(rng, 16, make_plan(N, 16, config=cfg).M, fmax=N)
            src = synthesize(spec)
            result = sparse_fft(src, 16, cfg, seed=e)
            assert result.path is RecoveryPath.FAST, N
            assert spectra_close(result.spectrum, spec), N
            assert verify_certificate(result.certificate, src) == [], N
            lengths.append(N)
            totals.append(result.op_counts["total"])
        assert np.polyfit(np.log(lengths), np.log(totals), 1)[0] <= 0.4

    @pytest.mark.parametrize("spacing", [44, 45, 49, 4])
    def test_comb_on_a_modulus_is_exact(self, rng, spacing):
        # 12 tones spaced by a modulus of the N = 2^14 plan, or by the power
        # of two inside its even modulus, share one bin of that view
        cfg = Config(nominal_length=2**14)
        plan = make_plan(2**14, 12, config=cfg)
        assert plan.moduli == (44, 45, 49)
        coeffs = np.exp(2j * np.pi * rng.random(12))
        spec = SparseSpectrum.from_pairs(
            [(17 + j * spacing, c) for j, c in enumerate(coeffs)], plan.M
        )
        src = synthesize(spec)
        result = sparse_fft(src, 12, cfg, seed=3)
        assert spectra_close(result.spectrum, spec)
        assert verify_certificate(result.certificate, src) == []

    def test_declared_sparsity_violation_falls_back(self, rng):
        # 2k true tones under a declared budget of k: top-k selection drops
        # half the energy, verification must catch it, fallback returns the
        # dense oracle's top-k
        cfg = Config(nominal_length=2**12)
        plan = make_plan(2**12, 4, config=cfg)
        spec = random_spectrum(rng, 8, plan.M, fmax=2**12)
        src = synthesize(spec)
        result = sparse_fft(src, 4, cfg, seed=4)
        assert result.path is RecoveryPath.FALLBACK
        dense, _ = dense_fallback(src, 4)
        assert result.spectrum.entries == dense.entries

    def test_corrupted_candidate_forces_exact_fallback(self, rng, monkeypatch):
        cfg = Config(nominal_length=2**12)
        plan = make_plan(2**12, 5, config=cfg)
        spec = random_spectrum(rng, 5, plan.M, fmax=2**12)
        src = synthesize(spec)

        corrupted = []
        real_verify = pipeline.verify

        def corrupt_then_verify(views, candidate, *rest):
            entries = list(candidate.entries)
            f, c = entries[0]
            entries[0] = ((f + 17) % candidate.grid_length, c)
            corrupted.append(SparseSpectrum.from_pairs(entries, candidate.grid_length))
            return real_verify(views, corrupted[-1], *rest)

        monkeypatch.setattr(pipeline, "verify", corrupt_then_verify)
        result = sparse_fft(src, 5, cfg, seed=5)
        assert result.path is RecoveryPath.FALLBACK
        assert spectra_close(result.spectrum, spec)
        assert result.certificate.payload["fallback_reason"] == "verification-failed"
        assert result.certificate.payload["escalation"]["extra_verify_views"] == 0
        # one verification pass over the three built views, nothing redrawn
        # after it fails: it costs what the pass of an uncorrupted run costs
        assert len(corrupted) == 1
        assert [v.modulus for v in result.verification.views] == list(plan.moduli)
        monkeypatch.undo()
        honest = sparse_fft(src, 5, cfg, seed=5)
        assert honest.path is RecoveryPath.FAST and len(honest.spectrum) == len(corrupted[0])
        assert result.op_counts["verify"] == honest.op_counts["verify"]

    def test_force_fallback_config(self):
        spec, src = toy_instance()
        result = sparse_fft(src, 2, replace(TOY_CFG, force_fallback=True), seed=1)
        assert result.path is RecoveryPath.FALLBACK
        assert spectra_close(result.spectrum, spec)

    def test_two_core_instance_falls_back_to_exact(self, rng):
        coeffs = np.exp(2j * np.pi * rng.random(4))
        spec = SparseSpectrum.from_pairs(list(zip((0, 7, 33, 117), coeffs)), 1001)
        src = synthesize(spec)
        cfg = replace(TOY_CFG, nominal_length=1001)
        result = sparse_fft(src, 4, cfg, seed=2)
        assert result.path is RecoveryPath.FALLBACK
        assert result.peel_status is PeelStatus.TWO_CORE
        assert result.certificate.payload["escalation"]["rehashes"] == 0
        assert spectra_close(result.spectrum, spec)

    @pytest.mark.parametrize("k, seed", [(235, 32), (245, 17), (245, 40)])
    def test_peeling_past_four_rounds_per_log_k_completes(self, k, seed):
        # at load ~2.4 per view these peel for more rounds than a cap of
        # 4*log2(k+2) allows; one set of views with the whole round budget
        # completes them on the fast path, exactly, with no rehash
        moduli = (97, 101, 103)
        M = math.prod(moduli)
        rng = np.random.default_rng(1000 + seed)
        support = np.sort(rng.choice(M, size=k, replace=False))
        spec = SparseSpectrum.from_pairs(zip(support, np.exp(2j * np.pi * rng.random(k))), M)
        src = synthesize(spec)
        cfg = Config(moduli_override=moduli, nominal_length=M)
        result = sparse_fft(src, k, cfg, seed)
        assert result.path is RecoveryPath.FAST
        assert result.peel_status is PeelStatus.COMPLETE
        assert spectra_close(result.spectrum, spec)
        assert result.certificate.payload["escalation"]["rehashes"] == 0
        assert verify_certificate(result.certificate, src, cfg) == []
        plan = make_plan(M, k, config=cfg)
        rounds = run_peeling(PeelState.create(build_views(src, plan.moduli)), k).rounds
        assert rounds > math.ceil(4 * math.log2(k + 2))

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None, True, -1])
    def test_k_that_is_not_a_count_is_rejected_before_any_read(self, monkeypatch, k):
        def no_plan(*args, **kwargs):
            raise AssertionError("made a plan")

        monkeypatch.setattr(pipeline, "make_plan", no_plan)
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            sparse_fft(Unreadable(1001), k, TOY_CFG, seed=1)

    def test_numpy_integer_k(self, rng):
        spec, src = toy_instance()
        result = sparse_fft(src, np.int64(2), replace(TOY_CFG, nominal_length=1001), seed=1)
        assert result.path is RecoveryPath.FAST
        assert spectra_close(result.spectrum, spec)
        assert json.loads(result.certificate.to_json())["k"] == 2

    def test_empty_spectrum(self):
        spec = SparseSpectrum.from_pairs([], 1001)
        result = sparse_fft(synthesize(spec), 0, TOY_CFG, seed=1)
        assert result.path is RecoveryPath.FAST
        assert len(result.spectrum) == 0

    def test_determinism_bytes(self, rng):
        cfg = Config(nominal_length=2**12)
        plan = make_plan(2**12, 4, config=cfg)
        spec = random_spectrum(rng, 4, plan.M, fmax=2**12)
        src = synthesize(spec)
        a = sparse_fft(src, 4, cfg, seed=6)
        b = sparse_fft(src, 4, cfg, seed=6)
        assert a.certificate.to_json() == b.certificate.to_json()
        assert a.op_counts == b.op_counts
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_seed_changes_nothing(self, rng):
        # the seed is only recorded in the certificate: seeds 0-7 give the
        # same answer bytes, op counts and certificate apart from its seed
        N, k = 2**14, 12
        cfg = Config(nominal_length=N)
        src = synthesize(random_spectrum(rng, k, make_plan(N, k, config=cfg).M, fmax=N))
        results = [sparse_fft(src, k, cfg, seed) for seed in range(8)]
        assert results[0].path is RecoveryPath.FAST

        def unseeded(result):
            payload = json.loads(result.certificate.to_json())
            return payload.pop("seed"), payload

        for seed, result in enumerate(results):
            for got, want in zip((result.spectrum.freqs, result.spectrum.coeffs),
                                 (results[0].spectrum.freqs, results[0].spectrum.coeffs)):
                assert got.tobytes() == want.tobytes()
            assert result.op_counts == results[0].op_counts
            assert unseeded(result) == (seed, unseeded(results[0])[1])

    def test_determinism_bytes_over_peeling_rounds(self, rng):
        # several peel rounds, each recovered entry with its CRT record
        cfg = Config(nominal_length=2**14)
        plan = make_plan(2**14, 12, config=cfg)
        src = synthesize(random_spectrum(rng, 12, plan.M, fmax=2**14))
        a, b = (sparse_fft(src, 12, cfg, seed=4) for _ in range(2))
        assert a.path is RecoveryPath.FAST
        assert a.certificate.to_json() == b.certificate.to_json()
        assert a.op_counts == b.op_counts

    @pytest.mark.parametrize("path", [RecoveryPath.FAST, RecoveryPath.FALLBACK])
    def test_certificate_floats_come_from_the_spectrum(self, rng, path):
        # the threshold is Python's abs over the answer's complexes: numpy's
        # abs differs from it in the last ulp on some unit-modulus values
        if path is RecoveryPath.FAST:  # several peel rounds
            cfg = Config(nominal_length=2**14)
            plan = make_plan(2**14, 12, config=cfg)
            src = synthesize(random_spectrum(rng, 12, plan.M, fmax=2**14))
            result = sparse_fft(src, 12, cfg, seed=4)
        else:  # dense, past the dense boundary
            n, k = 30000, 100
            bins = np.zeros(n, dtype=np.complex128)
            bins[rng.choice(n, size=k, replace=False)] = np.exp(2j * np.pi * rng.random(k))
            result = sparse_fft(from_dense(np.fft.ifft(bins) * n), k, Config(nominal_length=n))
        assert result.path is path
        payload = json.loads(result.certificate.to_json())
        coeffs = result.spectrum.coefficients().tolist()
        assert payload["amplitude_threshold"] == (
            NOISE_FLOOR_REL * max(abs(c) for c in coeffs))
        recovered = payload["recovered"]
        assert [(e["re"].hex(), e["im"].hex()) for e in recovered] == [
            (c.real.hex(), c.imag.hex()) for c in coeffs]
        assert [e["f"] for e in recovered] == result.spectrum.frequencies().tolist()

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_buffer_takes_the_fallback(self, rng, n, k):
        # no three-view plan exists below N = 4; the dense fallback answers
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        result = sparse_fft_dense(x, k)
        assert result.path is RecoveryPath.FALLBACK
        assert result.certificate.payload["fallback_reason"].startswith("too-short")
        dense = np.fft.fft(x) / n
        top = sorted(np.lexsort((np.arange(n), -np.abs(dense)))[:k])
        want = SparseSpectrum.from_pairs([(f, dense[f]) for f in top], n)
        assert spectra_close(result.spectrum, want)
        assert verify_certificate(result.certificate, from_dense(x)) == []

    def test_short_nominal_length_takes_the_fallback(self):
        spec = SparseSpectrum.from_pairs([(1, 2.0 - 1j)], 3)
        src = synthesize(spec)
        cfg = Config(nominal_length=3)
        result = sparse_fft(src, 1, cfg)
        assert result.certificate.payload["fallback_reason"].startswith("too-short")
        assert spectra_close(result.spectrum, spec)
        assert verify_certificate(result.certificate, src, cfg) == []

    def test_past_the_grid_ceiling_takes_the_fallback(self, rng):
        # no plan fits under the int64 grid ceiling: the planner refuses at
        # once and the buffer is answered on its own grid
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        result = sparse_fft(from_dense(x), 2, Config(nominal_length=10**19))
        assert result.path is RecoveryPath.FALLBACK
        assert result.certificate.payload["fallback_reason"].startswith("grid-ceiling")
        assert result.spectrum.grid_length == 64
        dense = np.fft.fft(x) / 64
        top = sorted(np.lexsort((np.arange(64), -np.abs(dense)))[:2])
        assert spectra_close(result.spectrum, SparseSpectrum.from_pairs([(f, dense[f]) for f in top], 64))
        assert verify_certificate(result.certificate, from_dense(x)) == []

    def test_grid_mismatch_falls_back_exactly(self, rng):
        spec = random_spectrum(rng, 2, 999)  # 999 is not a plan grid
        src = synthesize(spec)
        result = sparse_fft(src, 2, Config(nominal_length=900), seed=0)
        assert result.path is RecoveryPath.FALLBACK
        assert result.certificate.payload["fallback_reason"].startswith("grid-mismatch")
        assert result.certificate.payload["plan"] is None
        assert spectra_close(result.spectrum, spec)
        assert verify_certificate(result.certificate, src) == []

    def test_grid_mismatch_above_budget_reads_no_sample(self):
        # planned on N = 4096, whose plan grid is not the source's
        with pytest.raises(OracleCapExceededError, match="dense budget"):
            sparse_fft(Unreadable(DENSE_BUDGET + 1), 4, Config(nominal_length=4096), seed=0)

    def test_dense_regime_falls_back(self, rng):
        spec = random_spectrum(rng, 6, 100)
        src = from_dense(synthesize(spec).materialize())
        result = sparse_fft(src, 6, Config(), seed=0)
        assert result.path is RecoveryPath.FALLBACK
        assert "dense-regime" in result.certificate.payload["fallback_reason"]

    @pytest.mark.parametrize("n", [64, 2002, 2048])
    def test_dense_buffer_answers_on_its_own_grid(self, rng, n):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        result = sparse_fft_dense(x, 3, Config(), seed=1)
        assert result.path is RecoveryPath.FALLBACK
        assert result.certificate.payload["fallback_reason"].startswith("grid-mismatch")
        dense = np.fft.fft(x) / n
        top = sorted(np.lexsort((np.arange(n), -np.abs(dense)))[:3])
        want = SparseSpectrum.from_pairs([(f, dense[f]) for f in top], n)
        assert result.spectrum.grid_length == n
        assert spectra_close(result.spectrum, want)
        assert verify_certificate(result.certificate, from_dense(x)) == []

    def test_unpadded_sparse_regime_buffer_answers_on_its_own_grid(self, rng):
        n = 2048
        spec = random_spectrum(rng, 4, n)
        result = sparse_fft(from_dense(synthesize(spec).materialize()), 4, Config(), seed=2)
        assert result.spectrum.grid_length == n
        assert spectra_close(result.spectrum, spec)

    def test_index_guard_is_typed(self):
        # pinned moduli whose grid M ~ 1.4e10 is past exact int64 view indices
        # have no plan; the fallback on that grid is past the dense budget and
        # is refused before any sample is read
        moduli = (2048, 2187, 3125)
        M = math.prod(moduli)
        cfg = Config(nominal_length=2**22, moduli_override=moduli)
        assert M > _MAX_GRID
        with pytest.raises(OracleCapExceededError, match="grid ceiling"):
            make_plan(2**22, 64, config=cfg)
        with pytest.raises(OracleCapExceededError, match="dense budget"):
            sparse_fft(Unreadable(M), 64, cfg, seed=0)

    def test_pinned_moduli_past_the_grid_ceiling_fall_back(self, rng):
        # the pinned plan is refused like an unpinned one past the ceiling:
        # the buffer is answered on its own grid, and the answer replays
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        result = sparse_fft(from_dense(x), 3, Config(moduli_override=(2048, 2187, 3125)))
        assert result.path is RecoveryPath.FALLBACK
        assert result.certificate.payload["fallback_reason"].startswith("grid-ceiling")
        assert result.spectrum.grid_length == 64
        assert verify_certificate(result.certificate, from_dense(x)) == []


class TestDenseFallback:
    def test_exact_on_synthesized(self, rng):
        spec = random_spectrum(rng, 5, 1001)
        dense, selected = dense_fallback(synthesize(spec), 5)
        assert spectra_close(dense, spec) and selected == 5

    def test_k_above_occupancy_returns_occupied_only(self, rng):
        spec = random_spectrum(rng, 3, 1001)
        dense, selected = dense_fallback(synthesize(spec), 10)
        assert len(dense) == selected == 3

    def test_toy_support(self):
        spec, src = toy_instance()
        dense, _ = dense_fallback(src, 2)
        assert [f for f, _ in dense.entries] == [7, 41]

    def test_budget_respected(self):
        with pytest.raises(OracleCapExceededError, match="dense budget"):
            dense_fallback(Unreadable(DENSE_BUDGET + 1), 2)

    def test_tie_break_ascending_frequency(self):
        spec = SparseSpectrum.from_pairs([(3, 1.0), (900, 1.0), (41, 2.0)], 1001)
        dense, _ = dense_fallback(synthesize(spec), 2)
        assert [f for f, _ in dense.entries] == [3, 41]

    def test_caller_buffer_unchanged(self, rng):
        # the fallback transforms its grid buffer in place; that buffer must
        # never be the caller's samples
        x = rng.normal(size=2002) + 1j * rng.normal(size=2002)
        kept = x.copy()
        for run in (lambda: sparse_fft_dense(x, 3), lambda: sparse_fft(from_dense(x), 3)):
            assert run().path is RecoveryPath.FALLBACK
            assert (x == kept).all()

    def test_source_with_only_sample_block(self, rng):
        # a user source that implements only sample_block still falls back
        # exactly, through the base class's grid read, and keeps its samples
        spec = random_spectrum(rng, 5, 1001)
        grid = synthesize(spec).materialize()
        kept = grid.copy()

        class Indexed(SignalSource):
            grid_length = grid.size

            def sample_block(self, indices):
                return grid[np.asarray(indices, dtype=np.int64) % grid.size]

        src = Indexed()
        assert (src.materialize() == kept).all()
        assert spectra_close(dense_fallback(src, 5)[0], spec)
        assert (grid == kept).all()

    def test_back_to_back_fallbacks_identical(self, rng):
        src = from_dense(rng.normal(size=2002) + 1j * rng.normal(size=2002))
        first, second = (sparse_fft(src, 3, seed=1).certificate.to_json() for _ in range(2))
        assert first == second

    @pytest.mark.parametrize(
        "kind, bound", [("dense", 2.75), ("synthesize", 2.25)], ids=["dense", "synthesize"]
    )
    def test_peak_memory_in_grid_buffers(self, rng, kind, bound):
        # one owned grid buffer, transformed in place; only the reported bins
        # are normalized, and the noisy buffer's selection gathers no copies
        if kind == "dense":
            n = 1 << 16
            src = from_dense(rng.normal(size=n) + 1j * rng.normal(size=n))
        else:
            src = synthesize(random_spectrum(rng, 8, 3 * 5 * 7 * 11 * 13 * 17))
        dense_fallback(src, 8)  # warm: first-call allocations are not the fallback's
        tracemalloc.start()
        try:
            dense_fallback(src, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 16 * src.grid_length

    @settings(max_examples=150, deadline=None)
    @given(x=fallback_buffers(), k=st.integers(0, 40))
    def test_matches_the_fft_reference(self, x, k):
        # every bin of np.fft.fft above the floor of the peak, magnitude
        # descending then frequency ascending, first k kept, divided by N
        spectrum = np.fft.fft(x)
        mags = np.abs(spectrum)
        occupied = np.flatnonzero(mags > NOISE_FLOOR_REL * mags.max())
        top = np.sort(occupied[np.lexsort((occupied, -mags[occupied]))][:k])
        got, selected = dense_fallback(from_dense(x), k)
        assert selected == top.size
        assert got.grid_length == x.size
        assert got.frequencies().tolist() == top.tolist()
        assert got.coefficients().tobytes() == (spectrum[top] / x.size).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_transform_is_non_finite_error(self):
        # every sample is finite, but X[0] = 64e308 overflows; the true answer
        # X[0]/64 = 1e308 is representable, so an empty answer would be wrong
        x = np.full(64, 1e308 + 0j)
        with pytest.raises(NonFiniteError):
            dense_fallback(from_dense(x), 3)
        with pytest.raises(NonFiniteError):
            sparse_fft(from_dense(x), 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_tone_sum_is_non_finite_error(self):
        # three finite tones whose sum x[0] = 3e308 overflows: the views' read
        # and the fallback's grid read give Inf or NaN samples, and the
        # transform of the samples refuses them, with no numpy warning
        plan = make_plan(2**14, 3)
        src = synthesize(SparseSpectrum.from_pairs([(f, 1e308) for f in range(3)], plan.M))
        assert not np.isfinite(src.sample_block(np.arange(plan.M))).all()
        for cfg in (Config(), Config(force_fallback=True)):
            with pytest.raises(NonFiniteError):
                sparse_fft(src, 3, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amplitude", [1e306, 1e307, 1.7e308])
    def test_view_sum_past_float64_is_non_finite_error(self, amplitude):
        # one tone whose samples are finite: its view energies m*|A|^2 pass
        # float64 at every amplitude here, and its view sums m*A from about
        # 3.7e306 (Inf or NaN bins, with no numpy warning), so every view
        # fails and the fallback's grid transform, which overflows, raises
        # the typed error
        cfg = Config(nominal_length=2**14)
        plan = make_plan(2**14, 12, config=cfg)
        src = synthesize(SparseSpectrum.from_pairs([(700, amplitude)], plan.M))
        assert np.isfinite(src.sample_block(np.arange(plan.M))).all()
        with pytest.raises(NonFiniteError):
            sparse_fft(src, 12, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amplitude, freqs", [(1e160, (5, 700, 9000)), (5e153, (700,))])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_view_energy_past_float64_fails_verification(
            self, monkeypatch, amplitude, freqs, corrupt):
        # every sample is finite, but a view's shift-0 energy m*|A|^2 is not.
        # At 1e160 the squares overflowed with a numpy warning and the energy
        # gap was inf - inf; at 5e153 the energy gap and epsilon were both
        # inf, so the views passed any candidate.  Now such a view fails, with
        # no warning, and the fallback answers exactly.
        cfg = Config(nominal_length=2**14)
        plan = make_plan(2**14, 12, config=cfg)
        spec = SparseSpectrum.from_pairs([(f, amplitude) for f in freqs], plan.M)
        src = synthesize(spec)
        if corrupt:
            real_verify = pipeline.verify

            def corrupt_then_verify(views, candidate, *rest):
                f, c = candidate.entries[0]
                moved = SparseSpectrum.from_pairs([((f + 17) % plan.M, c)], plan.M)
                return real_verify(views, moved, *rest)

            monkeypatch.setattr(pipeline, "verify", corrupt_then_verify)
        result = sparse_fft(src, 12, cfg)
        assert result.peel_status is PeelStatus.COMPLETE
        assert result.certificate.payload["fallback_reason"] == "verification-failed"
        assert not any(v.passed for v in result.verification.views)
        assert result.spectrum.frequencies().tolist() == list(freqs)
        assert np.abs(result.spectrum.coefficients() - amplitude).max() <= 1e-12 * amplitude
        assert verify_certificate(result.certificate, src) == []
        # the certificate is strict JSON: a figure past float64 is null
        payload = json.loads(result.certificate.to_json(), parse_constant=refuse_constant)
        assert all(v["epsilon"] is None for v in payload["verification"]["views"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_magnitude_past_float64_still_answers(self):
        # X = (1.7e308 + 1.7e308j) * [1, 1] is finite though |X| is not
        x = np.array([1.7e308 * (1 + 1j), 0])
        got, _ = dense_fallback(from_dense(x), 3)
        assert got.entries == ((0, 8.5e307 * (1 + 1j)), (1, 8.5e307 * (1 + 1j)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_length_one_magnitude_past_float64_answers_and_replays(self):
        # the one bin of a length-1 grid is its sample, whose |c| passes
        # float64: the certificate takes its threshold from the halved
        # magnitude, is strict JSON and replays
        x = np.array([1.7e308 * (1 + 1j)])
        result = sparse_fft_dense(x, 1)
        assert result.path is RecoveryPath.FALLBACK
        assert result.spectrum.entries == ((0, 1.7e308 * (1 + 1j)),)
        text = result.certificate.to_json()
        payload = json.loads(text, parse_constant=refuse_constant)
        assert payload["amplitude_threshold"] == 2 * NOISE_FLOOR_REL * abs(0.85e308 * (1 + 1j))
        for cert in (result.certificate, Certificate.from_json(text)):
            assert verify_certificate(cert, from_dense(x)) == []

    def test_bin_that_underflows_is_dropped_but_charged(self):
        # X[r] = 1e-323 at every r, and 1e-323 / 4 rounds to 0: the four
        # selected bins are not reported, yet each division is charged
        # (2M + fft_op_count(M) + 4 = 28)
        x = np.array([1e-323, 0, 0, 0], dtype=np.complex128)
        got, selected = dense_fallback(from_dense(x), 4)
        assert len(got) == 0 and selected == 4
        assert sparse_fft_dense(x, 4).op_counts == {"fallback": 28, "total": 28}


class TestCertificates:
    def make_fast_result(self, rng):
        cfg = replace(TOY_CFG, nominal_length=1001)
        spec = random_spectrum(rng, 3, 1001)
        src = synthesize(spec)
        return sparse_fft(src, 3, cfg, seed=9), src

    def test_roundtrip_no_violations(self, rng):
        result, src = self.make_fast_result(rng)
        cert = Certificate.from_json(result.certificate.to_json())
        assert verify_certificate(cert, src) == []

    def test_signal_on_another_grid_flagged(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        fallback = sparse_fft(from_dense(x), 3, seed=0).certificate
        fast, src = self.make_fast_result(rng)
        assert fallback.payload["plan"] is None
        assert verify_certificate(fallback, from_dense(x)) == []
        for cert, grid in ((fallback, 64), (fast.certificate, 1001)):
            violations = verify_certificate(cert, from_dense(np.zeros(1000)))
            assert violations == [f"signal-grid-mismatch: signal grid 1000 != certificate grid {grid}"]

    @pytest.mark.parametrize(
        "case", PARENT_CASES[:3], ids=["n16384-k12", "toy-gate-trail", "synth-narrow-keyed"]
    )
    def test_certificate_from_one_stream_per_view_planner_replays(self, case):
        # Made by planners that drew a keyed (sigma, b) per view: the first two
        # cases drew each view from its own labeled stream, the third is a
        # synth_narrow op of the BLAKE2b-keyed planner.  A keyed view read the
        # same samples as the plain view on its modulus and held its bins
        # relabeled, so replay rebuilds the plain view and the certificate
        # replays; a run today gives the same answer to roundoff.
        cfg = Config(**case["config"])
        entries = case["spectrum"]["entries"]
        spec = SparseSpectrum.from_pairs(
            [(e["f"], complex(e["re"], e["im"])) for e in entries], case["spectrum"]["grid_length"]
        )
        cert = Certificate.from_json(case["certificate"])
        assert cert.payload["path"] == "fast"
        views = cert.payload["plan"]["verify_views"]
        assert all(v["shifts"] == 3 and (v["sigma"], v["b"]) != (1, 0) for v in views)
        assert verify_certificate(cert, synthesize(spec), cfg) == []
        # The planner has since picked smaller moduli; pin the recorded ones.
        cfg = replace(cfg, moduli_override=tuple(cert.payload["plan"]["moduli"]))
        result = sparse_fft(synthesize(spec), case["k"], cfg, seed=case["seed"])
        assert result.path is RecoveryPath.FAST
        assert [e["f"] for e in cert.payload["recovered"]] == spec.frequencies().tolist()
        assert spectra_close(result.spectrum, spec)

    @pytest.mark.parametrize("case", PARENT_CASES[3:], ids=["synth-narrow-plain"])
    def test_run_writes_the_recorded_plain_certificate(self, case):
        # A synth_narrow op (Generator seed 301, op 1) on the default config:
        # a run today writes the certificate the earlier commit recorded, with
        # every key, int and string equal and every float within 1e-12
        # relative.  A view's parseval_gap and residual_energy are zero in
        # exact arithmetic, so their roundoff, which another numpy may round
        # differently, is compared at the view's energy scale instead.  The
        # recorded amplitude_threshold is 1e-6 of the largest tone; a run
        # today records the amplitude floor's.
        spec = SparseSpectrum.from_pairs(
            [(e["f"], complex(e["re"], e["im"])) for e in case["spectrum"]["entries"]],
            case["spectrum"]["grid_length"])
        cfg = Config(**case["config"])
        assert (cfg, case["k"]) == (Config(nominal_length=2**14), 12)
        result = sparse_fft(synthesize(spec), case["k"], cfg, seed=case["seed"])
        assert result.path is RecoveryPath.FAST
        got, want = json.loads(result.certificate.to_json()), json.loads(case["certificate"])
        views = [{"m": m, "sigma": 1, "b": 0, "shifts": 3} for m in want["plan"]["moduli"]]
        assert want["plan"]["id_views"] == want["plan"]["verify_views"] == views
        scale = 1e-12 / want["verification"]["epsilon_rel"]
        for g, w in zip(got["verification"]["views"], want["verification"]["views"]):
            for key in ("parseval_gap", "residual_energy"):
                assert abs(g.pop(key) - w.pop(key)) <= scale * w["epsilon"], key
        coeffs = result.spectrum.coefficients().tolist()
        assert got.pop("amplitude_threshold") == NOISE_FLOOR_REL * max(abs(c) for c in coeffs)
        assert want.pop("amplitude_threshold") == pytest.approx(1e-6 * max(abs(c) for c in coeffs))
        assert_json_agrees(got, want)
        for cert in (result.certificate, Certificate.from_json(case["certificate"])):
            assert verify_certificate(cert, synthesize(spec), cfg) == []

    def test_replay_builds_the_answer_only_for_a_view(self):
        # replay reads the answer's arrays only to check it on a view, so a
        # certificate without a plan parses to none; entries listed out of
        # order parse to the ordered answer and replay as before
        for make, has_view in ((fast_certificate, True), (fallback_certificate, False)):
            text, src = make()
            payload = json.loads(text)
            fields = pipeline.parse_certificate(payload)
            assert fields.grid_length == payload["grid_length"]
            payload["recovered"].reverse()
            reordered = pipeline.parse_certificate(payload)
            if not has_view:
                assert fields.spectrum is None and reordered.spectrum is None
            else:
                assert reordered.spectrum.entries == fields.spectrum.entries
                assert fields.spectrum.freqs.tolist() == sorted(
                    e["f"] for e in json.loads(text)["recovered"])
            assert verify_certificate(Certificate(payload=payload), src) == []

    def test_records_no_residue_sets_or_gate_table(self, rng):
        fast, _ = self.make_fast_result(rng)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        fallback = sparse_fft(from_dense(x), 3, seed=0)
        for result in (fast, fallback):
            payload = json.loads(result.certificate.to_json())
            assert "residue_sets" not in payload and "gated_pairs" not in payload
        assert "alpha" not in fast.certificate.payload["plan"]

    def test_old_derived_keys_are_ignored(self):
        # certificates of the old format carried residue sets, a gate table
        # and plan.alpha; replay reads none of them, whatever they hold
        text, src = fast_certificate()
        payload = json.loads(text)
        payload["residue_sets"] = [{"bins": [-1]}]
        payload["gated_pairs"] = "x"
        payload["plan"]["alpha"] = None
        assert verify_certificate(Certificate.from_json(json.dumps(payload)), src) == []

    def test_tampered_frequency_detected(self, rng):
        result, src = self.make_fast_result(rng)
        payload = json.loads(result.certificate.to_json())
        payload["recovered"][0]["f"] += 1
        cert = Certificate(payload=payload)
        violations = verify_certificate(cert, src)
        assert violations  # residue replay and fresh residual both break

    def test_fresh_replay_runs_both_parts(self, rng):
        result, src = self.make_fast_result(rng)
        cert = result.certificate
        (f0, c0), *rest = src.spectrum.entries
        # a missing tone costs energy and leaves a residual: both parts fail
        short = synthesize(SparseSpectrum.from_pairs(rest, 1001))
        kinds = [v.split(":")[0] for v in verify_certificate(cert, short)]
        assert kinds == ["fresh-parseval-failed", "fresh-residual-failed"]
        # the same tone with a rotated phase keeps every bin's energy: only
        # the residual part fails
        turned = synthesize(SparseSpectrum.from_pairs([(f0, -c0)] + rest, 1001))
        kinds = [v.split(":")[0] for v in verify_certificate(cert, turned)]
        assert kinds == ["fresh-residual-failed"]

    def test_amplitude_below_threshold_detected(self, rng):
        result, src = self.make_fast_result(rng)
        payload = json.loads(result.certificate.to_json())
        f0 = payload["recovered"][0]["f"]
        tiny = payload["amplitude_threshold"] * 0.5
        payload["recovered"][0]["re"] = tiny
        payload["recovered"][0]["im"] = 0.0
        crt = payload["recovered"][0]["crt"]
        cert = Certificate(payload=payload)
        violations = verify_certificate(cert, src)
        assert any(v.startswith("amplitude-below-threshold") for v in violations)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [fast_certificate, fallback_certificate])
    def test_magnitude_past_float64_parses_and_replays(self, make):
        # re = im = 1.7e308 is well formed though |c| passes float64: such a
        # tone clears any threshold, and replay answers with a list
        text, src = make()
        payload = json.loads(text)
        payload["recovered"][0].update(re=1.7e308, im=1.7e308)
        cert = Certificate.from_json(json.dumps(payload))
        violations = verify_certificate(cert, src)
        assert not any(v.startswith("amplitude-below-threshold") for v in violations)
        if make is fast_certificate:  # the fresh view sees the changed tone
            assert [v.split(":")[0] for v in violations] == [
                "fresh-parseval-failed", "fresh-residual-failed"]
        else:
            assert violations == []

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from((2**10, 2**12, 2**14)), k=st.integers(1, 12),
           log_r=st.floats(-14, 0), seed=st.integers(0, 2**32 - 1))
    def test_weak_tone_certificates_replay_on_both_paths(self, n, k, log_r, seed):
        # unit tones but one scaled by r: on the default path and on the
        # forced fallback, every certificate replays as [], and the answer
        # holds every tone of at least twice the floor of the peak its path
        # reads, and no other tone.  The fallback's peak is the largest tone;
        # peeling's is the largest view bin, which colliding tones can lift
        # to a few times it.  Nearer the floor a tone may go either way.
        cfg = Config(nominal_length=n)
        plan = make_plan(n, k, config=cfg)
        rng = np.random.default_rng(seed)
        freqs = rng.choice(n, k, replace=False)
        coeffs = np.exp(2j * np.pi * rng.random(k))
        coeffs[0] *= 10.0 ** log_r
        src = synthesize(SparseSpectrum.from_pairs(list(zip(freqs, coeffs)), plan.M))
        largest = float(np.abs(coeffs).max())
        view_peak = float(np.abs(build_views(src, plan.moduli).bins[0]).max())
        for run_cfg, peak in ((cfg, max(largest, view_peak)),
                              (replace(cfg, force_fallback=True), largest)):
            result = sparse_fft(src, k, run_cfg)
            assert verify_certificate(result.certificate, src) == []
            got = dict(result.spectrum.entries)
            assert set(got) <= set(freqs.tolist())
            for f, c in zip(freqs.tolist(), coeffs.tolist()):
                if abs(c) >= 2 * NOISE_FLOOR_REL * peak:
                    assert abs(got[f] - c) <= NOISE_FLOOR_REL * largest, (f, c, result.path)

    def test_declared_n_range_check(self, rng):
        cfg = replace(TOY_CFG, nominal_length=40)
        spec = SparseSpectrum.from_pairs([(7, 1.0), (41, 1.0)], 1001)
        result = sparse_fft(synthesize(spec), 2, cfg, seed=9)
        violations = verify_certificate(result.certificate, synthesize(spec))
        assert any("frequency-above-declared-n" in v for v in violations)

    def test_malformed_certificate(self):
        with pytest.raises(Exception):
            Certificate.from_json("{not json")
        with pytest.raises(Exception):
            Certificate.from_json('{"format": "something-else"}')

    @pytest.mark.parametrize(
        "path, value",
        [
            (("plan", "m"), DELETE),
            (("recovered", 0, "crt", "r1"), DELETE),
            (("recovered", 0, "f"), "x"),
            (("grid_length",), 0),
            (("grid_length",), 2**63),
            (("recovered", 0, "f"), -1),
            (("plan", "verify_views", 0, "m"), 2**40),
        ],
        ids=["missing-plan-m", "missing-crt-r1", "string-f", "zero-grid", "int64-grid",
             "negative-f", "huge-verify-modulus"],
    )
    def test_malformed_replay_field_is_parse_error(self, path, value):
        payload = json.loads(fast_certificate()[0])
        set_json_value(payload, path, value)
        with pytest.raises(ParseError):
            Certificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, value",
        [("sigma", 2**70), ("b", 10**30), ("sigma", 0), ("b", -3), ("sigma", 7 * 13),
         ("sigma", 1001), ("b", "m")],
        ids=["huge-sigma", "huge-b", "zero-sigma", "negative-b", "sigma-not-a-unit",
             "sigma-at-grid", "b-at-modulus"],
    )
    def test_verify_view_hash_out_of_range_is_parse_error(self, field, value):
        # replay builds this view, so its sigma must be a unit in [1, M) and
        # its b a bin offset in [0, m)
        payload = json.loads(fast_certificate()[0])
        view = payload["plan"]["verify_views"][0]
        view[field] = view["m"] if value == "m" else value
        with pytest.raises(ParseError, match=f"verify_views\\[0\\]\\.{field}"):
            Certificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field, value", [("sigma", 2**70), ("b", "x")],
                             ids=["huge-sigma", "string-b"])
    def test_payload_verify_view_is_checked_on_replay(self, field, value):
        # a Certificate built from a payload skips from_json; replay parses it
        text, src = fast_certificate()
        payload = json.loads(text)
        payload["plan"]["verify_views"][0][field] = value
        with pytest.raises(ParseError, match=f"verify_views\\[0\\]\\.{field}"):
            verify_certificate(Certificate(payload=payload), src)

    @settings(max_examples=150, deadline=None)
    @given(
        sigma=st.one_of(st.integers(-3, 1004), st.integers(-2**80, 2**80)),
        b=st.one_of(st.integers(-3, 16), st.integers(-2**80, 2**80)),
    )
    def test_any_verify_view_hash_replays_or_is_typed(self, sigma, b):
        # a view with any valid recorded hash still confirms the exact answer,
        # and still rejects an answer with one coefficient 1% off
        text, src = fast_certificate()
        payload = json.loads(text)
        payload["plan"]["verify_views"][0].update(sigma=sigma, b=b)
        try:
            violations = verify_certificate(Certificate.from_json(json.dumps(payload)), src)
        except CrtFftError:
            return
        assert violations == []
        entry = payload["recovered"][0]
        entry.update(re=1.01 * entry["re"], im=1.01 * entry["im"])
        kinds = {v.split(":")[0] for v in verify_certificate(Certificate(payload=payload), src)}
        assert kinds and kinds <= {"fresh-parseval-failed", "fresh-residual-failed"}

    @pytest.mark.parametrize(
        "make, path, value",
        [
            (fast_certificate, ("plan", "moduli"), "x"),
            (fast_certificate, ("plan", "moduli", 2), 13.0),
            (fast_certificate, ("recovered", 0, "crt"), "x"),
            (fast_certificate, ("amplitude_threshold",), "x"),
            (fast_certificate, ("recovered", 0, "f"), "x"),
            (fast_certificate, ("declared_n",), "x"),
            (fallback_certificate, ("recovered", 0, "f"), lambda p: p["recovered"][0]["f"] + 0.7),
            (fallback_certificate, ("recovered", 1, "f"), lambda p: p["recovered"][0]["f"]),
            (fast_certificate, ("recovered", 0, "re"), math.inf),
        ],
        ids=["string-moduli", "float-modulus", "string-crt", "string-threshold", "string-f",
             "string-declared-n", "fractional-fallback-f", "duplicate-f", "infinite-re"],
    )
    def test_payload_replay_is_parse_error(self, make, path, value):
        # a payload-built certificate is refused as its JSON text is: not
        # with a raw TypeError or ValueError, not replayed on a truncated f
        text, src = make()
        payload = json.loads(text)
        set_json_value(payload, path, value(payload) if callable(value) else value)
        with pytest.raises(ParseError):
            verify_certificate(Certificate(payload=payload), src)
        with pytest.raises(ParseError):
            Certificate.from_json(json.dumps(payload))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_certificate_replays_or_is_parse_error(self, data):
        # Deleting, retyping or (for an integer) moving out of range any one
        # value gives a violation list or a ParseError, never a raw exception,
        # and the same outcome from the payload as from its JSON text.
        text, src = data.draw(st.sampled_from((fast_certificate, fallback_certificate)))()
        payload = json.loads(text)
        mutate_one_value(payload, data)
        try:
            violations = verify_certificate(Certificate(payload=payload), src)
        except ParseError:
            with pytest.raises(ParseError):
                Certificate.from_json(json.dumps(payload))
            return
        assert isinstance(violations, list)
        assert verify_certificate(Certificate.from_json(json.dumps(payload)), src) == violations

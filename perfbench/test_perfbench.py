"""Self-tests of the benchmark's oracle, tracer and input generator.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import types

import pytest

from run import load_crtfft

crtfft, _ = load_crtfft()

from measure import run_op  # noqa: E402
from oracle import COEFF_TOL, failure_kinds  # noqa: E402
from tracer import Target, Tracer, crtfft_targets  # noqa: E402
from workloads import WORKLOADS, Generator  # noqa: E402


def _small_op(seed=3):
    return Generator(WORKLOADS["synth_narrow"], seed).op(1)


def test_oracle_accepts_the_programs_correct_answer():
    record = run_op(crtfft, _small_op())
    assert record.ok, record.kinds
    assert record.replay_s is not None


def test_oracle_flags_perturbed_coefficient():
    op = _small_op()
    answer = op.recover(crtfft).spectrum
    entries = list(answer.entries)
    f, c = entries[0]
    entries[0] = (f, c + 10 * COEFF_TOL)
    perturbed = crtfft.SparseSpectrum.from_pairs(entries, answer.grid_length)
    assert failure_kinds(answer, op.truth, []) == []
    assert failure_kinds(perturbed, op.truth, []) == ["coeff_error"]


def test_oracle_flags_wrong_support_grid_and_replay():
    op = _small_op()
    answer = op.recover(crtfft).spectrum
    entries = list(answer.entries)
    f, c = entries[-1]
    moved = crtfft.SparseSpectrum.from_pairs(entries[:-1] + [(f + 1, c)], answer.grid_length)
    assert failure_kinds(moved, op.truth, []) == ["wrong_support"]
    other_grid = crtfft.SparseSpectrum.from_pairs(entries, answer.grid_length + 1)
    assert failure_kinds(other_grid, op.truth, []) == ["wrong_grid"]
    assert failure_kinds(answer, op.truth, ["fresh-residual-failed"]) == ["replay_violation"]


def test_tracer_restores_every_wrapped_name():
    targets = crtfft_targets(crtfft)
    originals = [vars(t.owner)[t.attr] for t in targets]
    tracer = Tracer(targets)
    with tracer.installed():
        assert all(vars(t.owner)[t.attr] is not o for t, o in zip(targets, originals))
        assert run_op(crtfft, _small_op()).ok
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))
    assert tracer.calls["pipeline.sparse_fft"] >= 1
    assert tracer.calls["signal.sample_block"] >= 1


def test_tracer_restores_after_an_exception():
    targets = crtfft_targets(crtfft)
    originals = [vars(t.owner)[t.attr] for t in targets]
    with pytest.raises(RuntimeError):
        with Tracer(targets).installed():
            raise RuntimeError("inside the traced region")
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))


def test_tracer_charges_self_time_net_of_children():
    calls = types.SimpleNamespace()
    calls.inner = lambda: sum(range(20000))
    calls.outer = lambda: calls.inner() + calls.inner()
    tracer = Tracer([Target(calls, "inner", "inner"), Target(calls, "outer", "outer")])
    with tracer.installed():
        calls.outer()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_ns["outer"] < tracer.self_ns["inner"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seed_deterministic(name):
    a, b = Generator(WORKLOADS[name], 7), Generator(WORKLOADS[name], 7)
    digests = [a.op(i).digest() for i in range(3)]
    assert digests == [b.op(i).digest() for i in range(3)]
    assert len(set(digests)) == 3
    assert Generator(WORKLOADS[name], 8).op(0).digest() != digests[0]


def test_same_seed_gives_identical_op_counts_and_path():
    first = run_op(crtfft, _small_op(5))
    again = run_op(crtfft, _small_op(5))
    assert first.fingerprint == again.fingerprint
    assert first.op_counts == again.op_counts

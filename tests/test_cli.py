import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crtfft
from crtfft.cli import main
from crtfft.signal import (
    SparseSpectrum,
    save_dense_binary,
    save_dense_csv,
    save_spectrum,
    synthesize,
)
from conftest import random_spectrum, refuse_constant, spectra_close


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one `crtfft` invocation."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_transform_synthesize_fast_path(capsys):
    code, out, _ = run(capsys, "transform", "--synthesize", "{7:1,41:1-2j}", "-k", "2")
    assert code == 0
    result = json.loads(out)
    assert result["path"] == "fast"
    grid = result["spectrum"]["grid_length"]
    got = SparseSpectrum.from_pairs(
        [(e["f"], complex(e["re"], e["im"])) for e in result["spectrum"]["entries"]], grid
    )
    assert spectra_close(got, SparseSpectrum.from_pairs([(7, 1), (41, 1 - 2j)], grid))


def test_transform_synthesize_bad_tone_exits_1(capsys):
    code, out, err = run(capsys, "transform", "--synthesize", "{7:x}", "-k", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: bad tone '7:x'")


def test_transform_synthesize_skips_an_empty_chunk(capsys):
    code, out, _ = run(capsys, "transform", "--synthesize", "{7:1,,41:2}", "-k", "2")
    assert code == 0
    assert [e["f"] for e in json.loads(out)["spectrum"]["entries"]] == [7, 41]


def test_transform_dense_regime_buffer_answers_on_its_own_grid(capsys, rng, tmp_path):
    # k / sqrt(N) = 0.6 is past the dense boundary: exit 2, answered on N
    n, k = 400, 12
    spec = random_spectrum(rng, k, n)
    signal = tmp_path / "sig.bin"
    save_dense_binary(synthesize(spec).materialize(), signal)
    code, out, _ = run(capsys, "transform", "--dense", str(signal), "-k", str(k))
    assert code == 2
    result = json.loads(out)
    assert result["spectrum"]["grid_length"] == n
    assert [e["f"] for e in result["spectrum"]["entries"]] == [f for f, _ in spec.entries]


def test_transform_synthesize_dense_regime_falls_back_on_nominal_grid(capsys):
    # 12 tones with --n 400: k / sqrt(N) = 0.6 is past the dense boundary
    tones = [(f, complex(1, f % 3)) for f in range(5, 400, 33)]
    tone_map = "{" + ",".join(f"{f}:{c.real:g}+{c.imag:g}j" for f, c in tones) + "}"
    code, out, _ = run(
        capsys, "transform", "--synthesize", tone_map, "-k", "12", "--n", "400"
    )
    assert code == 2
    result = json.loads(out)
    assert result["spectrum"]["grid_length"] == 400
    assert result["certificate"]["fallback_reason"].startswith("dense-regime")
    got = SparseSpectrum.from_pairs(
        [(e["f"], complex(e["re"], e["im"])) for e in result["spectrum"]["entries"]], 400
    )
    assert spectra_close(got, SparseSpectrum.from_pairs(tones, 400))


def test_transform_synthesize_past_the_grid_ceiling_is_a_typed_error(capsys):
    # --n 10^19 has no plan under the int64 grid ceiling, and the nominal grid
    # itself is past what the synthesizer reads: exit 1 at once
    code, out, err = run(
        capsys, "transform", "--synthesize", "{7:1}", "-k", "1", "--n", str(10**19)
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "above supported maximum" in err


def test_transform_t_flag_exits_1(capsys):
    # every run verifies on the three views it built, so the flag is gone and
    # argparse refuses it
    code, out, err = run(capsys, "transform", "--synthesize", "{7:1}", "-k", "1", "--t", "3")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --t" in err


def test_transform_identity_hash_flag_exits_1(capsys):
    # no plan draws keyed views any more, so the flag is gone and argparse refuses it
    code, out, err = run(capsys, "transform", "--synthesize", "{7:1}", "-k", "1",
                         "--identity-hash")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --identity-hash" in err


def test_transform_output_is_strict_json(capsys):
    # three tones of 1e160 overflow every view's energy: the run falls back,
    # and its verification record writes each figure past float64 as null
    code, out, _ = run(capsys, "transform", "--synthesize", "{5:1e160,700:1e160,9000:1e160}",
                       "-k", "12", "--n", "16384")
    assert code == 2
    result = json.loads(out, parse_constant=refuse_constant)
    assert result["certificate"]["fallback_reason"] == "verification-failed"
    assert [e["f"] for e in result["spectrum"]["entries"]] == [5, 700, 9000]
    assert all(v["epsilon"] is None for v in result["certificate"]["verification"]["views"])


def test_transform_synthesize_too_short_falls_back_on_nominal_grid(capsys):
    # N = 3 has no three-view plan: exit 2, answered on the 3-point grid
    code, out, _ = run(capsys, "transform", "--synthesize", "{2:1}", "-k", "1")
    assert code == 2
    result = json.loads(out)
    assert result["certificate"]["fallback_reason"].startswith("too-short")
    got = SparseSpectrum.from_pairs(
        [(e["f"], complex(e["re"], e["im"])) for e in result["spectrum"]["entries"]], 3
    )
    assert result["spectrum"]["grid_length"] == 3
    assert spectra_close(got, SparseSpectrum.from_pairs([(2, 1)], 3))


def test_transform_input_plans_on_the_file_grid(capsys, tmp_path):
    # the file's grid_length is N: planned on, recorded as declared_n, and
    # the answer is on the plan's grid
    spectrum = tmp_path / "spectrum.json"
    save_spectrum(SparseSpectrum.from_pairs([(7, 1), (41, 1 - 2j)], 4096), spectrum)
    code, out, _ = run(capsys, "transform", "--input", str(spectrum), "-k", "2")
    assert code == 0
    result = json.loads(out)
    grid = crtfft.make_plan(4096, 2).M
    assert result["certificate"]["declared_n"] == 4096
    assert result["certificate"]["grid_length"] == result["spectrum"]["grid_length"] == grid
    got = SparseSpectrum.from_pairs(
        [(e["f"], complex(e["re"], e["im"])) for e in result["spectrum"]["entries"]], grid
    )
    assert spectra_close(got, SparseSpectrum.from_pairs([(7, 1), (41, 1 - 2j)], grid))


def test_transform_moduli_pins_the_plan(capsys):
    code, out, _ = run(
        capsys, "transform", "--synthesize", "{7:1,41:1-2j}", "-k", "2", "--moduli", "11,13,16"
    )
    assert code == 0
    certificate = json.loads(out)["certificate"]
    assert certificate["moduli"] == [11, 13, 16]
    assert certificate["grid_length"] == 11 * 13 * 16
    assert certificate["f"] == [7, 41]


def test_transform_two_inputs_exit_1(capsys, tmp_path):
    signal = tmp_path / "sig.bin"
    save_dense_binary(np.ones(64, dtype=np.complex128), signal)
    code, out, err = run(
        capsys, "transform", "--synthesize", "{7:1}", "--dense", str(signal), "-k", "1"
    )
    assert code == 1 and out == ""
    assert "exactly one of" in err


def test_gate_table_formats_give_the_csv_rows(capsys):
    # the table and JSON formats print the rows the CSV format prints
    argv = ("gate-table", "--moduli", "7,11,13", "--r1", "0,3,6", "--r2", "1,7,8,10",
            "--r3", "2,5,7,11", "--diff-published", "--format")
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 0
    want = [tuple(row.values()) for row in csv.DictReader(io.StringIO(out))]
    assert len(want) == 12
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0
    assert [tuple(str(v) for v in (r["r1"], r["r2"], r["crt"], r["r3_hat"], r["verdict"],
                                   r["note"])) for r in json.loads(out)] == want
    code, out, _ = run(capsys, *argv, "table")
    assert code == 0
    got = []
    for line in out.splitlines()[2:]:
        pair, crt, r3_hat, rest = (part.strip() for part in line.split(" | "))
        verdict, _, note = rest.partition("  ")
        got.append((*pair.strip("()").split(", "), crt, r3_hat, verdict, note))
    assert got == want


def test_gate_table_diff_published(capsys):
    code, out, _ = run(
        capsys, "gate-table", "--moduli", "7,11,13", "--r1", "0,3,6",
        "--r2", "1,7,8,10", "--r3", "2,5,7,11", "--diff-published", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    corrected = {(r["r1"], r["r2"]) for r in rows if r["note"].startswith("corrected")}
    assert corrected == {("3", "1"), ("3", "7"), ("3", "8"), ("3", "10")}


@pytest.mark.parametrize("residues", [("0", "1", "20"), ("9", "1", "2"), ("0", " -1", "2")])
def test_gate_table_residue_out_of_range_exits_1(capsys, residues):
    r1, r2, r3 = residues
    code, out, err = run(
        capsys, "gate-table", "--moduli", "7,11,13", "--r1", r1, "--r2", r2, "--r3", r3
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "is outside" in err


@pytest.mark.parametrize(
    "experiment", ["gate-survivors", "singleton-fraction", "verify-miss", "peel-completion"]
)
def test_montecarlo_is_deterministic(capsys, experiment):
    argv = ("montecarlo", "--experiment", experiment, "--trials", "3", "--seed", "5")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(first)))
    assert len(rows) == 1 and rows[0]["experiment"] == experiment
    row = rows[0]
    for name, value in row.items():
        if name.endswith("_rate"):
            assert 0.0 <= float(value) <= 1.0, name
    if experiment == "verify-miss":
        # a slip of the full test is a slip of its shift-0 row, and a slip in
        # every view a slip in the first
        rate = {name: float(value) for name, value in row.items() if name.endswith("_rate")}
        assert rate["three_view_slip_rate"] <= rate["one_view_slip_rate"]
        assert rate["one_view_slip_rate"] <= rate["shift0_one_view_slip_rate"]
        assert rate["three_view_slip_rate"] <= rate["shift0_three_view_slip_rate"]
        assert rate["shift0_three_view_slip_rate"] <= rate["shift0_one_view_slip_rate"]
    if experiment == "peel-completion":
        assert float(row["completion_rate"]) == 1.0
    assert run(capsys, *argv)[1] == first


@pytest.mark.parametrize(
    "experiment, extra, k",
    [
        ("peel-completion", ("--load", "0.5"), 48),  # round(0.5 * 97) on 97*101*103
        ("peel-completion", ("--load", "0.5", "--k", "7"), 7),
        ("verify-miss", ("--load", "0.5"), 10),
    ],
)
def test_montecarlo_k_from_load_unless_given(capsys, experiment, extra, k):
    code, out, _ = run(
        capsys, "montecarlo", "--experiment", experiment, "--trials", "1", "--seed", "2", *extra
    )
    assert code == 0
    assert int(next(csv.DictReader(io.StringIO(out)))["k"]) == k


@pytest.mark.parametrize("experiment", ["singleton-fraction", "verify-miss"])
def test_montecarlo_rejects_k_below_one(capsys, experiment):
    code, out, err = run(capsys, "montecarlo", "--experiment", experiment, "--trials", "1",
                         "--k", "0")
    assert code == 1 and out == "" and err.startswith("error: --k must be >= 1")


@pytest.mark.parametrize("argv", [
    ("peel-completion", "--moduli", "2,3,5", "--k", "40"),
    ("singleton-fraction", "--moduli", "2,3,5", "--k", "40"),
    ("gate-survivors", "--moduli", "7,11,13", "--k", "5", "--alpha", "1", "--n", "3"),
], ids=["peel-completion", "singleton-fraction", "gate-survivors"])
def test_montecarlo_k_past_its_range_exits_1(argv):
    # k distinct frequencies cannot be drawn below n < k; a draw that never
    # ends would stall the suite, so the command runs in a child process
    env = {**os.environ, "PYTHONPATH": str(Path(crtfft.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "crtfft.cli", "montecarlo", "--experiment", *argv,
         "--trials", "2"], capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: cannot draw")


def test_montecarlo_verify_miss_reads_moduli(capsys):
    # view 0 is the smallest modulus, whatever order the moduli are given in
    for moduli in ("11,13,16", "16,13,11"):
        code, out, err = run(capsys, "montecarlo", "--experiment", "verify-miss", "--moduli",
                             moduli, "--k", "4", "--trials", "20", "--seed", "1")
        assert code == 0, err
        row = next(csv.DictReader(io.StringIO(out)))
        assert int(row["m_v"]) == 11 and float(row["bound_one_view"]) == 8 / 11
    # supports are drawn below --n, which cannot pass the moduli's grid 11*13*16
    code, out, err = run(capsys, "montecarlo", "--experiment", "verify-miss", "--moduli",
                         "11,13,16", "--n", "2289", "--trials", "1")
    assert code == 1 and out == "" and err.startswith("error: --n 2289 must be")


@pytest.mark.parametrize("argv", [
    ("gate-survivors", "--alpha", "inf"),
    ("gate-survivors", "--alpha", "-1"),
    ("gate-survivors", "--alpha", "nan"),
    ("singleton-fraction", "--load", "inf"),
    ("peel-completion", "--load", "inf"),
    ("singleton-fraction", "--load", "-5"),
    ("gate-survivors", "--n", "0"),
], ids=["alpha-inf", "alpha-negative", "alpha-nan", "load-inf-singleton", "load-inf-peel",
        "load-negative", "n-zero"])
def test_montecarlo_refuses_impossible_flag(capsys, argv):
    code, out, err = run(capsys, "montecarlo", "--experiment", *argv, "--trials", "1")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {argv[1]} must be") and "Traceback" not in err


@pytest.mark.parametrize("experiment", ["gate-survivors", "singleton-fraction",
                                        "verify-miss", "peel-completion"])
@pytest.mark.parametrize("moduli", ["7,11", "7,11,13,17"])
def test_montecarlo_needs_three_moduli(capsys, experiment, moduli):
    code, out, err = run(capsys, "montecarlo", "--experiment", experiment, "--trials", "1",
                         "--moduli", moduli)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {experiment} needs exactly 3 moduli")


def test_montecarlo_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "montecarlo", "--experiment", "verify-miss", "--trials", "-1")
    assert code == 1 and out == "" and err.startswith("error: --trials must be >= 0")
    code, out, _ = run(capsys, "montecarlo", "--experiment", "verify-miss", "--trials", "0")
    assert code == 0 and out.count("\n") == 1 and out.startswith("experiment,")


def test_verify_cert_replays_transform_certificate(capsys, tmp_path):
    result_path = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "transform", "--synthesize", "{7:1,41:1-2j}", "-k", "2",
        "--output", str(result_path),
    )
    assert code == 0
    certificate = json.loads(result_path.read_text())["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(certificate))
    signal = tmp_path / "signal.json"
    save_spectrum(
        SparseSpectrum.from_pairs([(7, 1), (41, 1 - 2j)], certificate["grid_length"]), signal
    )
    code, out, _ = run(
        capsys, "verify-cert", "--certificate", str(cert_path), "--signal", str(signal)
    )
    assert code == 0 and out == "certificate valid\n"


@pytest.mark.parametrize("force, want", [
    ((), (1, "fresh-parseval-failed: inf\nfresh-residual-failed: inf\n")),
    (("--force-fallback",), (0, "certificate valid\n")),
], ids=["fast", "fallback"])
def test_verify_cert_magnitude_past_float64_exits_with_a_verdict(capsys, tmp_path, force, want):
    # an entry with re = im = 1.7e308 is well formed though |c| passes
    # float64: verify-cert replays it to a verdict, with no traceback.  Only
    # the fast certificate's fresh view reads the changed tone.
    result_path = tmp_path / "result.json"
    code, _, _ = run(capsys, "transform", "--synthesize", "{7:1,41:1-2j}", "-k", "2",
                     *force, "--output", str(result_path))
    assert code == (2 if force else 0)
    certificate = json.loads(result_path.read_text())["certificate"]
    certificate["re"][0] = certificate["im"][0] = 1.7e308
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(certificate))
    signal = tmp_path / "signal.json"
    save_spectrum(
        SparseSpectrum.from_pairs([(7, 1), (41, 1 - 2j)], certificate["grid_length"]), signal
    )
    code, out, err = run(
        capsys, "verify-cert", "--certificate", str(cert_path), "--signal", str(signal)
    )
    assert (code, out) == want and err == ""


@pytest.mark.parametrize("n, save", [(50, save_dense_csv), (80, save_dense_binary)])
def test_verify_cert_dense_file_of_another_length(capsys, tmp_path, n, save):
    # the certificate is for a 64-sample buffer; a shorter or longer file is
    # read on its own length and flagged, never padded to the certificate's grid
    x = np.exp(2j * np.pi * 5 * np.arange(64) / 64)
    dense = tmp_path / "dense.bin"
    save_dense_binary(x, dense)
    result_path = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "transform", "--dense", str(dense), "-k", "1", "--output", str(result_path)
    )
    assert code == 2
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(result_path.read_text())["certificate"]))
    signal = tmp_path / ("other.csv" if save is save_dense_csv else "other.bin")
    save(np.ones(n), signal)
    code, out, _ = run(
        capsys, "verify-cert", "--certificate", str(cert_path), "--signal", str(signal)
    )
    assert code == 1
    assert out == f"signal-grid-mismatch: signal grid {n} != certificate grid 64\n"


def test_typed_error_exits_one_with_message(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text("not a certificate")
    signal = tmp_path / "sig.bin"
    save_dense_binary(np.ones(4), signal)
    code, out, err = run(
        capsys, "verify-cert", "--certificate", str(cert_path), "--signal", str(signal)
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "certificate" in err

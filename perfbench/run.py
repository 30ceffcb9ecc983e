"""crtfft benchmark: one caller, closed loop, every answer checked against the truth.

Run from the repository root:

    python3 perfbench/run.py --workload synth_wide --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics named in BENCHMARK.json with
nothing wrapped.  `--trace 1` is the separate traced run: it alternates
untraced ops with ops whose calls into crtfft's layers are wrapped by
perfbench/tracer.py, and reports the per-layer metrics, per traced op, plus
the tracing overhead.  Both modes print a readable report, the failure
tally and the environment first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The benchmark imports crtfft from `src/` beside this directory and exits
with an error, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

# The benchmark's own modules (measure, tracer, workloads) import numpy and
# crtfft, so they are imported inside functions, after load_crtfft() has
# put src/ on the path and timed `import crtfft` for the set-up probes.

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9         # fresh processes, spread over the timed loop
SETUP_PERCENTILE = 75    # of the probes' set-up times
TAIL_PERCENTILE = 90     # needs 100 samples for ten above it
MIN_OPS = 100            # timed ops per run, so the tail percentile is supported
MIN_TRACED_OPS = 11      # traced and untraced ops per traced run
MIN_NUMPY_CALLS = 11     # numpy.fft.fft timings per run
BASELINE_SHARE = 0.1     # numpy.fft.fft calls take at most this share of recovery time
PROBE_TIMEOUT_S = 60
# Printed in the report but not declared in BENCHMARK.json; perfbench/README.md says why.
REPORTED_UNITS = {"recover_p50_ms": "ms", "replay_p50_ms": "ms", "goodput_per_s": "1/s",
                  "error_rate": "ratio", "fallback_rate": "ratio"}


def load_crtfft():
    """Import crtfft from the checkout's src/; returns (module, import seconds)."""
    src = ROOT / "src"
    package = src / "crtfft"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: crtfft sources not found under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import crtfft
    import_s = time.perf_counter() - start
    if Path(crtfft.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported crtfft from {crtfft.__file__}, not {package}")
    return crtfft, import_s


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started its program.

    VmHWM belongs to the process's own address space.  ru_maxrss is not
    used: Linux carries it across exec, so a child would report the
    parent's size at fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SystemExit("perfbench: /proc/self/status has no VmHWM line")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: time import plus the cold first op in this fresh process")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup_probe(args) -> dict:
    """Run one set-up probe in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_loop(api, gen, seconds, baseline_inputs, probe):
    """Ops 1, 2, ... back to back for `seconds`, and at least MIN_OPS of them.

    numpy.fft.fft on a length-N input is timed right after an op, as often
    as BASELINE_SHARE allows, and the set-up probes run at evenly spaced
    times, so each sees the machine in the state the ops saw.  Returns
    (records, numpy time / recovery time per timed pair, probe reports).
    """
    import numpy as np

    from measure import run_op

    clock = time.perf_counter
    for buf in baseline_inputs:
        np.fft.fft(buf)  # numpy builds and caches its plan on the first call
    records, speedups, probes = [], [], []
    recover_total = numpy_total = 0.0
    index = 1
    start = clock()
    while (clock() < start + seconds or len(records) < MIN_OPS
           or len(speedups) < MIN_NUMPY_CALLS or len(probes) < SETUP_PROBES):
        if len(probes) < SETUP_PROBES and clock() >= start + len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        record = run_op(api, gen.op(index))
        records.append(record)
        recover_total += record.recover_s
        if numpy_total <= BASELINE_SHARE * recover_total:
            buf = baseline_inputs[index % len(baseline_inputs)]
            begin = clock()
            np.fft.fft(buf)
            elapsed = clock() - begin
            numpy_total += elapsed
            speedups.append(elapsed / record.recover_s)
        index += 1
    return records, speedups, probes


def traced_loop(api, gen, seconds, tracer):
    """Odd ops untraced and even ops traced, so both sides see the same machine.

    Runs for `seconds` and at least MIN_TRACED_OPS ops on each side.
    Returns (untraced, traced) records.
    """
    from measure import run_op

    untraced, traced = [], []
    index = 1
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_TRACED_OPS
           or len(traced) < MIN_TRACED_OPS):
        op = gen.op(index)
        if index % 2:
            untraced.append(run_op(api, op))
        else:
            with tracer.installed():
                traced.append(run_op(api, op))
        index += 1
    return untraced, traced


def rates(records) -> dict:
    n = len(records)
    return {
        "error_rate": sum(not r.ok for r in records) / n,
        "fallback_rate": sum(r.path == "fallback" for r in records) / n,
    }


def end_to_end(records, speedups, probes) -> tuple[dict, dict]:
    """End-to-end metrics and the notes printed beside them."""
    import numpy as np

    recover = [r.recover_s for r in records]
    replay = [r.replay_s for r in records if r.replay_s is not None] or [0.0]
    tail_s = float(np.percentile(recover, TAIL_PERCENTILE))
    metrics = {
        "recover_p50_ms": median(recover) * 1e3,
        "recover_tail_ms": tail_s * 1e3,
        "goodput_per_s": sum(r.ok for r in records) / sum(recover),
        "replay_p50_ms": median(replay) * 1e3,
        "replay_tail_ms": float(np.percentile(replay, TAIL_PERCENTILE)) * 1e3,
        "speedup_vs_numpy": median(speedups),
        "setup_s": float(np.percentile([p["setup_s"] for p in probes], SETUP_PERCENTILE)),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in probes]),
    }
    notes = {
        "recover_tail_ms": f"p{TAIL_PERCENTILE} of {len(recover)} samples, "
                           f"{sum(r > tail_s for r in recover)} above it",
        "replay_tail_ms": f"p{TAIL_PERCENTILE} of {len(replay)} replays",
        "speedup_vs_numpy": f"median of {len(speedups)} numpy.fft.fft calls, each over the recovery before it",
        "setup_s": f"p{SETUP_PERCENTILE} of {len(probes)} fresh processes",
        "peak_rss_mb": f"median of {len(probes)} fresh processes",
    }
    return metrics, notes


def per_layer(tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics, per traced op (recovery plus its replay)."""
    from tracer import COUNT_NAMES

    n = len(traced)
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    metrics = {}
    for span in {t.span for t in tracer.targets}:
        metrics[f"{span}.calls"] = calls[span] / n
        metrics[f"{span}.ms"] = self_ns[span] / 1e6 / n
    for name in COUNT_NAMES:
        metrics[name] = counts[name] / n
    peels = calls["peeling.peel"]
    verifies = calls["verification.verify"]
    metrics.update({
        "peeling.yield": sum(r.tones for r in traced) / peels if peels else 0.0,
        "verification.pass_rate": counts["verification.passed"] / verifies if verifies else 0.0,
        "pipeline.rehashes": sum(r.rehashes for r in traced) / n,
        "pipeline.extra_verify_views": sum(r.extra_views for r in traced) / n,
        "pipeline.fallback_rate": rates(traced)["fallback_rate"],
        "trace.overhead_ms": (median([r.recover_s for r in traced])
                              - median([r.recover_s for r in untraced])) * 1e3,
    })
    phases = {phase for r in traced for phase in r.op_counts}
    for phase in phases | {"views", "peel", "verify", "rehash", "fallback", "total"}:
        metrics[f"ops.{phase}"] = sum(r.op_counts.get(phase, 0) for r in traced) / n
    ranking = sorted(self_ns.items(), key=lambda kv: -kv[1])
    notes = {"self time per traced op": "; ".join(f"{span} {ns / 1e6 / n:.3f} ms"
                                                  for span, ns in ranking)}
    return metrics, notes


def select(computed: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declaration order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    crtfft, import_s = load_crtfft()
    from measure import environment, run_op
    from tracer import Tracer, crtfft_targets
    from workloads import WORKLOADS, Generator

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    gen = Generator(workload, args.seed)

    if args.probe:
        first = run_op(crtfft, gen.op(0))
        print(json.dumps({
            "setup_s": import_s + first.recover_s + (first.replay_s or 0.0),
            "peak_rss_mb": peak_rss_mb(),
            "fingerprint": first.fingerprint,
            "kinds": first.kinds,
        }))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first = run_op(crtfft, gen.op(0))  # this process's own cold op, untimed
    if args.trace:
        tracer = Tracer(crtfft_targets(crtfft))
        untraced, traced = traced_loop(crtfft, gen, args.seconds, tracer)
        records = untraced + traced
        metrics, notes = per_layer(tracer, traced, untraced)
        declared = spec["per_layer"]
        probes = []
    else:
        # numpy's time depends on N only; the first ops' inputs cover every N
        inputs = [gen.op(i).length_n_buffer() for i in range(1, 1 + len(workload.lengths))]
        records, speedups, probes = timed_loop(crtfft, gen, args.seconds, inputs,
                                               lambda: setup_probe(args))
        metrics, notes = end_to_end(records, speedups, probes)
        declared = spec["end_to_end"]
    metrics.update(rates(records))

    problems = []
    if any(p["fingerprint"] != first.fingerprint for p in probes):
        problems.append("op 0 differs between processes (inputs, path, support or op counts)")
    if run_op(crtfft, gen.op(1)).fingerprint != records[0].fingerprint:
        problems.append("op 1 differs when generated and run again (inputs, path, support or op counts)")

    failed = sum(not r.ok for r in records)
    tally = Counter(kind for r in records for kind in r.kinds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORTED_UNITS)

    print(f"perfbench {workload.name}: {workload.source} source, entry {workload.entry}, "
          f"N={'/'.join(map(str, workload.lengths))}, k={workload.k}, seed={args.seed}, "
          f"seconds={args.seconds:g}, trace={args.trace}, one caller, closed loop")
    print(f"environment: {json.dumps(environment())}")
    for name in sorted(metrics):
        note = notes.get(name)
        print(f"  {name:34s} {metrics[name]:.6g} {units.get(name, '')}"
              + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name}: {note}")
    print(f"attempted {len(records)}, failed {failed}, failures by kind: "
          + (", ".join(f"{k}={v}" for k, v in sorted(tally.items())) or "none"))
    print("paths: " + ", ".join(f"{p}={c}" for p, c in sorted(Counter(r.path for r in records).items(), key=str)))
    print("untimed op 0: " + (", ".join(first.kinds) or "correct"))
    print("determinism: " + ("; ".join(problems) if problems else "ok"))

    print(json.dumps({
        "correct": failed == 0 and first.ok and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": select(metrics, declared),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: import racsim from the checkout, build, play, report.

Started by ``run.py`` with BLAS threads pinned in its environment.  Modes:

* ``--mode setup``: import racsim, build the workload's inputs, print
  ``ready`` (``run.py`` times this as ``setup_s``), then the machine's speed
  relative to the reference, and exit;
* ``--mode run``: play whole rounds until the next one would end after
  ``--seconds``, probing the machine's speed between operations, then report
  the end-to-end metrics at the reference speed;
* ``--mode trace``: play one round to warm up, one untraced, then the same
  round with spans at every module boundary, and report the per-layer metrics.

The last line of stdout is one JSON object with the counts, metrics and a
record of the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import racsim as rs  # noqa: E402
import racsim.cli  # noqa: E402,F401  (the package does not import its CLI)

import tracing  # noqa: E402
from workloads import WORKLOADS, CliReports, InProcessRunner, Recorder, SubprocessRunner, speed_scale  # noqa: E402

STARTUP_PROBES = 5
SPAN_METRICS = (
    "qudit.self_s", "qudit.calls", "qudit.fourier_basis.calls", "qudit.born_distribution.calls",
    "qudit.born_distribution.s", "quantum.self_s", "quantum.exact_success.s",
    "quantum.encode_restricted.calls", "quantum.guess_matrix.calls", "quantum.answer_distribution.s",
    "report.self_s", "classical.self_s", "classical.optimal_classical_bruteforce.s",
    "classical.evaluate_strategy.s", "classical.majority_identity_strategy.s", "advantage.self_s",
    "advantage.scan.s", "advantage.advantage_holds.calls", "montecarlo.self_s", "montecarlo.simulate.s",
    "montecarlo.answer_counts.s", "cli.self_s", "cli.main.s",
)


def build(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    if cls is CliReports:
        return cls(seed, SubprocessRunner(ROOT, cls.MEMORY_LIMIT), workdir)
    return cls(rs, seed)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def play_for(workload, seconds: float):
    """Whole rounds until the next, if as long as the last, would pass ``seconds``.

    Returns the recorder and each round's (start, end) and primary and
    secondary samples.
    """
    rec, rounds, start = Recorder(), [], time.perf_counter()
    while True:
        marks = {k: len(rec.samples[k]) for k in ("primary", "secondary")}
        began = time.perf_counter()
        workload.play(rec, len(rounds))
        now = time.perf_counter()
        rounds.append({"span": (began, now), **{k: rec.samples[k][m:] for k, m in marks.items()}})
        if (now - start) + (now - began) > seconds:
            return rec, rounds


def measure(workload, seconds: float):
    """End-to-end metrics, each time taken at the reference machine speed."""
    rec, rounds = play_for(workload, seconds)
    ref = rec.reference_seconds
    round_s = [ref(*r["span"]) for r in rounds]
    per_round = {k: [sum(ref(*pair) for pair in r[k]) for r in rounds] for k in ("primary", "secondary")}
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliReports) else resource.RUSAGE_SELF
    metrics = {
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops_per_s": rec.attempted / sum(round_s),
        "primary_s": statistics.median(per_round["primary"]),
        "secondary_s": statistics.median(per_round["secondary"]),
    }
    raw = {k: statistics.median(sum(e - s for s, e in r[k]) for r in rounds) for k in ("primary", "secondary")}
    elapsed = rounds[-1]["span"][1] - rounds[0]["span"][0]
    return [rec], metrics, {
        "rounds": len(rounds), "elapsed_s": elapsed, "raw_ops_per_s": rec.attempted / elapsed,
        "raw_primary_s": raw["primary"], "raw_secondary_s": raw["secondary"],
        "speed_probes": len(rec.speed), "median_probe_s": statistics.median(k for _, k in rec.speed),
        "reference_round_s": round_s, **{f"reference_{k}_s": v for k, v in per_round.items()},
        "rounds_raw": rounds, "speed_probes_raw": rec.speed}


def peak_mb(fn, *args) -> float:
    """Peak traced allocation of one untraced call, numpy buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def startup_s() -> float:
    """Median wall time of a bare ``racsim --version`` process."""
    times = []
    for _ in range(STARTUP_PROBES):
        _, seconds = timed(subprocess.run, [sys.executable, "-m", "racsim", "--version"],
                           cwd=ROOT, capture_output=True, check=True, timeout=60)
        times.append(seconds)
    return statistics.median(times)


def trace(workload, name: str, seed: int):
    recs, metrics = [], {"cli.process_s": 0.0}
    if isinstance(workload, CliReports):
        rec = Recorder(calibrate=False)
        workload.play(rec, 0)
        recs.append(rec)
        metrics["cli.process_s"] = sum(end - start for start, end in rec.samples["process"])
        workload.run = InProcessRunner(rs, CliReports.MEMORY_LIMIT)

    # The untraced and traced rounds probe the machine's speed between
    # operations, outside every span, so their times compare at one speed.
    warmup, baseline, traced = Recorder(calibrate=False), Recorder(), Recorder()
    workload.play(warmup, 0)  # first calls pay one-time costs the baseline should not
    start = time.perf_counter()
    workload.play(baseline, 0)
    untraced_s = baseline.reference_seconds(start, time.perf_counter())
    tracer = tracing.Tracer(rs)
    tracer.install()
    try:
        start = time.perf_counter()
        workload.play(traced, 0)
        traced_s = traced.reference_seconds(start, time.perf_counter())
    finally:
        tracer.uninstall()
    recs += [warmup, baseline, traced]  # the traced round's counts are reported

    totals = tracing.span_totals(tracer.spans)
    metrics.update({key: totals.get(key, 0.0) for key in SPAN_METRICS})
    metrics["classical.strategy_text.s"] = (totals.get("classical.strategy_to_text.s", 0.0)
                                            + totals.get("classical.strategy_from_text.s", 0.0))
    calls = tracer.calls
    metrics["classical.strategies_examined"] = sum(
        result.strategies_examined for fn, _, result, _ in calls if fn.startswith("classical."))

    # Fixed cost of a Monte Carlo call: a one-trial simulate per protocol,
    # traced like the calls it is subtracted from, its spans discarded.
    mc_calls = [(fn, args, secs) for fn, args, _, secs in calls if fn.startswith("montecarlo.")]
    fixed: dict = {}
    tracer.install()
    try:
        for _, (protocol, _), _ in mc_calls:
            if protocol not in fixed:
                fixed[protocol] = timed(rs.simulate, protocol, rs.TrialConfig(1, 0))[1]
    finally:
        tracer.uninstall()
    trials = sum(config.trials for _, (_, config), _ in mc_calls)
    metrics["montecarlo.fixed_s"] = sum(fixed.values())
    metrics["montecarlo.per_trial_ns"] = (
        sum(secs - fixed[p] for _, (p, _), secs in mc_calls) / trials * 1e9 if trials else 0.0)

    # Peak memory of the largest calls, measured untraced.
    exact_specs = [args[0] for fn, args, _, _ in calls if fn == "quantum.exact_success"]
    metrics["quantum.exact_success.peak_mb"] = (
        peak_mb(rs.exact_success, max(exact_specs, key=lambda s: (s.d, s.d_prime))) if exact_specs else 0.0)
    largest = []
    if mc_calls:
        largest = [max(mc_calls, key=lambda call: call[1][1].trials),  # most trials
                   max(mc_calls, key=lambda call: call[1][0].d)]  # largest table
    metrics["montecarlo.peak_mb"] = max(
        (peak_mb(getattr(rs, fn.split(".")[1]), *args) for fn, args, _ in largest), default=0.0)

    metrics["cli.startup_s"] = startup_s()
    metrics["trace.untraced_round_s"] = untraced_s
    metrics["trace.traced_round_s"] = traced_s

    spans_path = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    extra = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "tracing_overhead": traced_s / untraced_s - 1.0}
    return recs, metrics, extra


def blas_info() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"numpy": numpy.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "commit": commit, "src_lines": src_lines}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    if Path(rs.__file__).resolve().parent != ROOT / "src" / "racsim":
        print(f"error: imported racsim from {rs.__file__}, not from this checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.mode == "setup":
            print("ready", flush=True)
            print(speed_scale(), flush=True)
            return 0
        if args.mode == "run":
            recs, metrics, extra = measure(workload, args.seconds)
        else:
            recs, metrics, extra = trace(workload, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reported = recs[-1]
    errors = [e for rec in recs for e in rec.errors]
    notes = {k: v for rec in recs for k, v in rec.failure_notes.items()}
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "attempted": reported.attempted, "failed": dict(reported.failed),
              "failure_notes": notes, "errors": errors[:10], "error_count": len(errors),
              **extra, **environment()}
    print(json.dumps({"correct": not errors, "attempted": reported.attempted,
                      "failed": sum(reported.failed.values()), "metrics": metrics, "record": record}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

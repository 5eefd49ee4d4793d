"""racsim benchmark: one command per workload run, or a quick pass over all.

    python3 bench/run.py --workload exact-staircase --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick

Run from the root of a checkout.  Each run starts fresh processes with the
BLAS thread count pinned to BLAS_THREADS:

* ``--trace 0``: one worker that plays the workload in a closed loop for
  ``--seconds`` and reports the end-to-end metrics of BENCHMARK.json, with
  set-up processes before and after it, whose median time to import racsim
  and build the inputs is ``setup_s``;
* ``--trace 1``: one worker that plays the round untraced, then traced, and
  reports the per-layer metrics of BENCHMARK.json.

The last line of stdout is the JSON result.  A record of the run (counts,
failures, environment) is printed before it and kept in ``.bench_out/``.
``--quick`` plays one round of every workload, untraced and traced, and exits
non-zero if a check fails or an operation other than the known-faulty one fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-staircase", "classical-oracle", "montecarlo-play", "cli-reports")
BLAS_THREADS = "1"
SETUP_PROBES = (4, 5)  # set-up processes before and after the worker
WORKER_TIMEOUT = 160
KNOWN_FAULTS = {"exact-oversized"}  # in cli-reports, once per round


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def worker_cmd(workload: str, seed: int, seconds: float, mode: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]


def setup_times(workload: str, seed: int, env, count: int) -> list[float]:
    """Times from process start to racsim imported and inputs built.

    Each is scaled to the reference machine speed that the set-up process
    measures right after it is ready (see README, "Times at the reference speed").
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(worker_cmd(workload, seed, 0, "setup"), cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            seconds = time.perf_counter() - start
            scale = proc.stdout.readline()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        times.append(seconds * float(scale))
    return times


def run_worker(cmd: list[str], env) -> dict:
    """Run one worker in its own process group; kill the group if it overruns."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker ran past {WORKER_TIMEOUT} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    setup = [] if trace else setup_times(workload, seed, env, SETUP_PROBES[0])
    result = run_worker(worker_cmd(workload, seed, seconds, "trace" if trace else "run"), env)
    metrics = result["metrics"]
    if not trace:
        setup += setup_times(workload, seed, env, SETUP_PROBES[1])
        metrics["setup_s"] = statistics.median(setup)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    record = dict(result["record"], seconds=seconds, blas_threads=BLAS_THREADS)
    (OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
            "record": record}


def print_result(result: dict) -> None:
    summary = {k: v for k, v in result["record"].items() if not k.endswith("_raw")}
    print("record: " + json.dumps(summary))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def quick(spec: dict) -> int:
    """One round of every workload, untraced and traced, with every check on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_once(spec, workload, 1, 0, trace)
            failed_ops = set(result["record"]["failure_notes"])
            expected = KNOWN_FAULTS if workload == "cli-reports" else set()
            good = result["correct"] and failed_ops == expected
            ok &= good
            print(f"{workload} trace={int(trace)}: attempted {result['attempted']}, "
                  f"failed {result['failed']} {sorted(failed_ops)}, correct {result['correct']}"
                  f"{'' if good else '  <-- unexpected'}")
            for error in result["record"]["errors"]:
                print(f"    {error}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one round of every workload")
    args = parser.parse_args()

    missing = [p for p in ("BENCHMARK.json", "src/racsim/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a racsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.quick:
        return quick(spec)
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    try:
        result = run_once(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

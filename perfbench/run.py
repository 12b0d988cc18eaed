"""Benchmark entry point for bosonpe.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and imports bosonpe from its
``src``.  Each workload runs in its own fresh worker process with BLAS
fixed to one thread.  With ``--trace 0`` the last line of standard output
is one JSON object with the end-to-end metrics (``setup_s``, ``headline_s``,
``sweep_s``, ``peak_rss_mb``); with ``--trace 1`` it carries the per-layer
metrics of one traced pass instead, and the spans go to
``perfbench/out/trace-<workload>-seed<n>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("activation", "monotone", "classical_bounds", "witness")
SETUP_PROBES = 2  # set-up-only processes; with the measured one, 3 set-up samples
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to READY, its JSON result).

    Set-up time runs from just before the process is started to the moment
    its READY line is read: interpreter start, imports, inputs, warm-up."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = perf_counter() - t0
                break
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if perf_counter() >= deadline:
        raise WorkerError("worker passed the deadline")
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"worker exited with status {proc.returncode}"
                          + ("" if ready is not None else " before READY"))
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return ready, (json.loads(lines[-1]) if lines else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bosonpe" / "__init__.py").is_file():
        print(f"error: no bosonpe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            setup, res = spawn(common + ["--trace", "1", "--out", str(trace_path)], deadline)
            setups = [setup]
            metrics = res["layers"]
            ov = res["overhead"]
            print(f"trace overhead on {args.workload}: {100.0 * ov['ratio']:+.1f}% "
                  f"(operations {ov['untraced_pass_s']:.3f} s untraced, "
                  f"{ov['traced_pass_s']:.3f} s traced, {ov['spans']} spans); "
                  f"spans in {trace_path.relative_to(ROOT)}")
        else:
            setups = [spawn(common + ["--setup-only"], deadline)[0]
                      for _ in range(SETUP_PROBES)]
            setup, res = spawn(common + ["--seconds", str(args.seconds)], deadline)
            setups.append(setup)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "headline_s": {"value": res["headline_s"], "unit": "s"},
                "sweep_s": {"value": res["sweep_s"], "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in res["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    res["setup_samples_s"] = setups
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

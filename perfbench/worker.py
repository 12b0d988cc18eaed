"""One workload in one fresh process.

Started by ``run.py``.  Builds the workload's inputs from the seed, warms
the program's lazy caches, prints ``READY`` (the parent times set-up up to
that line), then runs whole passes over the workload's operations and
prints one JSON line with the raw timings, or, in traced mode, the
per-layer numbers of one traced pass, each operation of which also runs
untraced just before it to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_pass(ops, call=None) -> dict:
    """Run every operation once; time the call into the program, then check
    its output outside the timed region.  A raise or a failed check fails
    the operation."""
    times, failures = {}, []
    gc.collect()
    for op in ops:
        t0 = perf_counter()
        try:
            out = call(op.name, op.run) if call else op.run()
        except Exception:
            times.setdefault(op.name, []).append(perf_counter() - t0)
            failures.append(f"{op.name}: {traceback.format_exc().strip().splitlines()[-1]}")
            continue
        times.setdefault(op.name, []).append(perf_counter() - t0)
        try:
            bad = op.check(out)
        except Exception:
            bad = "check raised " + traceback.format_exc().strip().splitlines()[-1]
        if bad is not None:
            failures.append(f"{op.name}: {bad}")
    return {"times": times, "failures": failures}


def summarise(wl, passes) -> dict:
    head = [t for p in passes for t in p["times"][wl.headline.name]]
    sweep = [sum(p["times"][op.name][r] for op in wl.sweep)
             for p in passes for r in range(wl.sweep_repeats)]
    failures = [f for p in passes for f in p["failures"]]
    return {
        "passes": len(passes),
        "attempted": sum(len(ts) for p in passes for ts in p["times"].values()),
        "failed": len(failures),
        "failures": failures[:20],
        "headline_s": statistics.median(head),
        "sweep_s": statistics.median(sweep),
        "headline_all": head,
        "sweep_all": sweep,
        "op_median_s": {name: statistics.median(t for p in passes for t in p["times"][name])
                        for name in passes[0]["times"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=None, help="trace file (traced mode)")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")  # before numpy loads
    sys.path.insert(0, str(HERE))
    import bosonpe

    src = (ROOT / "src").resolve()
    if src not in Path(bosonpe.__file__).resolve().parents:
        print(f"bosonpe imported from {bosonpe.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir))
        wl.warm()
        gc.collect()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        if not args.trace:
            passes = []
            t0 = perf_counter()
            while len(passes) < wl.min_passes or perf_counter() - t0 < args.seconds:
                passes.append(run_pass(wl.schedule()))
            result = summarise(wl, passes)
        else:
            import layertrace

            # each operation runs untraced, then traced, back to back, so that
            # drift in host speed does not pass for tracing overhead
            rec = layertrace.install()
            plain = {"times": {}, "failures": []}
            traced = {"times": {}, "failures": []}
            for op in wl.schedule():
                for acc, call in ((plain, None), (traced, rec.run_op)):
                    one = run_pass([op], call=call)
                    acc["times"].setdefault(op.name, []).extend(one["times"][op.name])
                    acc["failures"] += one["failures"]
            plain_s = sum(sum(ts) for ts in plain["times"].values())
            traced_s = sum(sum(ts) for ts in traced["times"].values())
            result = summarise(wl, [plain, traced])
            result["layers"] = rec.metrics()
            result["overhead"] = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
                                  "ratio": traced_s / plain_s - 1.0,
                                  "spans": len(rec.spans)}
            if args.out:
                rec.write(args.out, {"workload": args.workload, "seed": args.seed,
                                     "metrics": result["layers"],
                                     "overhead": result["overhead"]})
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

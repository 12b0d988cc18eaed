"""Run the benchmark several times per workload and report its spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload NAME ...]

For each workload and end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the bound in BENCHMARK.json.
Each run uses its own seed.  Raw results go to ``perfbench/out/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--label", default="steady")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for wl in args.workload:
        rows = []
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        (out_dir / f"{args.label}-{wl}.json").write_text(json.dumps(rows, indent=1))
        shares = {r["failed"] / r["attempted"] for r in rows}
        print(f"{wl}: correct {all(r['correct'] for r in rows)}, failed shares {sorted(shares)}")
        ok = ok and all(r["correct"] for r in rows) and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

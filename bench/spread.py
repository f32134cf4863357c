"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads cs_sweep opvalued --seeds 0-9 \\
        --seconds 20 [--json summary.json]

Runs ``run.py --trace 0`` once per workload and seed, one after another, and
prints, per end-to-end metric of each workload, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median.  The raw output of every run is
kept under ``.bench_out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_out" / "runs"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"{workload}-{seed}.out").write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--json", dest="json_path", default=None)
    args = ap.parse_args()
    summary = {}
    for workload in args.workloads:
        results = [run_one(workload, s, args.seconds) for s in args.seeds]
        if not all(r["correct"] for r in results):
            print(f"{workload}: some runs failed their checks", file=sys.stderr)
            return 1
        names = results[0]["metrics"]
        summary[workload] = {
            name: {"unit": results[0]["metrics"][name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in results])}
            for name in names}
        for name, s in summary[workload].items():
            print(f"{workload:14s} {name:45s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    if args.json_path:
        Path(args.json_path).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds,
             "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

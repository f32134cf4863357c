"""nclp verdict benchmark.

    python3 bench/run.py --workload cs_sweep --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: nclp is imported from ``src/``.
Workloads are ``cs_sweep``, ``opvalued``, ``radius_single`` and
``check_all`` (see ``workloads.py``).  One process, single-threaded BLAS,
one client issuing checks in a closed loop.

With ``--trace 0`` the run repeats the workload's fixed sweep of checks for
about ``--seconds`` and reports the end-to-end metrics.  Times are scaled
to a reference host speed (see ``hostspeed.py``); ``setup_s`` is the median
over fresh processes of the time from process start to the first timed
check.  With ``--trace 1`` it runs untraced sweeps for half the time,
then exactly one sweep with every nclp layer wrapped, and reports the
per-layer metrics at the same reference speed; the spans are written to
``.bench_out/``.

Every verdict is gated.  The second-to-last line of output is a JSON detail
record (environment, tail percentile, sample counts, failures); the last line
is the result object.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
SHOWN_FAILURES = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="nclp verdict benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("cs_sweep", "opvalued", "radius_single", "check_all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


class Tally:
    """Checks attempted and failure messages over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def set_up(workload: str, seed: int, tally: Tally):
    """Import nclp, build the workload's algebras and inputs, check the
    anchors and warm up with one check on a fixed input."""
    import nclp
    if Path(nclp.__file__).resolve().parent != SRC / "nclp":
        raise ImportError(f"nclp was imported from {nclp.__file__}, not from src/")
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    tally.add(workloads.ANCHOR_CHECKS, workloads.anchor_failures())
    wl.warm_up()
    return wl


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, reference-speed) seconds from starting a fresh process to its being
    ready for the first check, less the kernel time the process spent sampling."""
    from hostspeed import REFERENCE_S
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    word, *numbers = line.split()
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    kernel_mean, kernel_spent = map(float, numbers)
    raw = ready - kernel_spent
    return raw, raw * REFERENCE_S / kernel_mean


def probe_main(workload: str, seed: int) -> None:
    """Set up as a run would, sampling the host speed while doing so, and report
    the mean kernel time and the seconds spent on the kernel."""
    from hostspeed import Kernel, ReferenceClock
    t0 = time.perf_counter()
    kernel = Kernel()
    spent = time.perf_counter() - t0
    with ReferenceClock(kernel) as clock:
        set_up(workload, seed, Tally())
    spent += sum(end - start for start, end, _ in clock.samples)
    mean = statistics.fmean(cal for _, _, cal in clock.samples)
    print("ready", mean, spent, flush=True)


class Sweeps:
    """Timings of the sweeps of one run.

    A sweep's time is the sum of its outermost laps; a check's time is an
    innermost lap.  They differ only where a lap encloses the checks of a
    whole command (``check_all``).
    """

    def __init__(self) -> None:
        self.wall: list[float] = []        # whole sweep, kernel samples included
        self.raw_total: list[float] = []   # per sweep, wall seconds
        self.total: list[float] = []       # per sweep, reference seconds
        self.raw: list[list[float]] = []   # per check, wall seconds
        self.scaled: list[list[float]] = []  # per check, reference seconds

    def add(self, clock, wall: float) -> None:
        raw, scaled = clock.times()
        outer, inner = clock.outermost(), clock.innermost()
        self.wall.append(wall)
        self.raw_total.append(sum(itertools.compress(raw, outer)))
        self.total.append(sum(itertools.compress(scaled, outer)))
        self.raw.append(list(itertools.compress(raw, inner)))
        self.scaled.append(list(itertools.compress(scaled, inner)))


def run_sweeps(wl, kernel, budget_s: float, min_sweeps: int, tally: Tally, first=None):
    """Repeat the sweep while the next one is expected to end within budget_s.

    Returns the sweep timings and the outcomes of the run's first sweep.
    """
    from hostspeed import ReferenceClock
    sweeps = Sweeps()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with ReferenceClock(kernel) as clock:
            outcomes = wl.sweep(clock)
        took = time.perf_counter() - t0
        sweeps.add(clock, took)
        tally.add(*wl.gate(outcomes, first))
        if first is None:
            first = outcomes
        if len(sweeps.wall) >= min_sweeps and time.perf_counter() - start + took > budget_s:
            return sweeps, first


def end_to_end(args, tally: Tally, detail: dict) -> dict:
    from hostspeed import Kernel
    from measure import per_check_latency, tail
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = set_up(args.workload, args.seed, tally)
    sweeps, _ = run_sweeps(wl, Kernel(), args.seconds, wl.min_sweeps, tally)
    latencies = per_check_latency(sweeps.scaled)
    tail_s, pct, n = tail(latencies)
    detail.update(sweeps=len(sweeps.wall), sweep_s_each=sweeps.total,
                  sweep_raw_s_each=sweeps.raw_total, sweep_wall_s_each=sweeps.wall,
                  checks_per_sweep=n, check_ms_tail_percentile=pct,
                  check_ms_p50_raw=1e3 * statistics.median(per_check_latency(sweeps.raw)),
                  setup_s_each=[s for _, s in setup], setup_raw_s_each=[r for r, _ in setup])
    return {"sweep_s": (statistics.median(sweeps.total), "s"),
            "check_ms_p50": (1e3 * statistics.median(latencies), "ms"),
            "check_ms_tail": (1e3 * tail_s, "ms"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB")}


def per_layer(args, tally: Tally, detail: dict) -> dict:
    import recorder
    from hostspeed import Kernel, ReferenceClock
    wl = set_up(args.workload, args.seed, tally)
    kernel = Kernel()
    sweeps, first = run_sweeps(wl, kernel, args.seconds / 2, 1, tally)
    untraced = statistics.median(sweeps.total)
    rec = recorder.Recorder()
    patch = recorder.install(rec)
    try:
        with ReferenceClock(kernel) as clock:
            outcomes = wl.sweep(clock)
    finally:
        patch.restore()
    # spans in reference seconds; kernel samples inside a span add nothing to it
    rec.retime(clock.reference)
    traced = sum(itertools.compress(clock.times()[1], clock.outermost()))
    tally.add(*wl.gate(outcomes, first))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.npz"
    rec.save(str(spans_path))
    detail.update(untraced_sweeps=len(sweeps.wall), untraced_sweep_s=untraced,
                  traced_sweep_s=traced, spans=len(rec.name),
                  spans_file=str(spans_path.relative_to(ROOT)))
    return recorder.layer_metrics(rec, traced, untraced)


def environment(traced: bool) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: {"name": v.get("name"), "version": v.get("version"),
                         "config": v.get("openblas configuration")}
                     for k, v in deps.items() if k in ("blas", "lapack")},
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "traced": traced}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "nclp" / "__init__.py").is_file():
        print(f"error: no nclp sources at {SRC.relative_to(ROOT)}/nclp; run from a "
              "source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:       # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_main(args.workload, args.seed)
        return 0
    tally = Tally()

    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, tally, detail)
    failed = len(tally.failures)
    detail.update(attempted=tally.attempted, failed=failed,
                  failed_frac=failed / tally.attempted,
                  failures=tally.failures[:SHOWN_FAILURES],
                  environment=environment(bool(args.trace)))
    for msg in tally.failures[:SHOWN_FAILURES]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

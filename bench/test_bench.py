"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import itertools
import math
import random
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import nclp  # noqa: E402
from nclp import algebra, radius  # noqa: E402

import hostspeed  # noqa: E402
import recorder  # noqa: E402
from measure import per_check_latency, tail  # noqa: E402
from workloads import CheckAll, strip_wall_time  # noqa: E402


def test_self_time_subtracts_child_spans_exactly():
    parent = np.array([-1, 0, 0, 1, -1])
    dur = np.array([10.0, 3.0, 2.5, 1.0, 0.75])
    assert recorder.self_times(parent, dur).tolist() == [4.5, 2.0, 2.5, 1.0, 0.75]


def test_recorder_summary_uses_span_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(recorder.time, "perf_counter", lambda: float(next(ticks)))
    rec = recorder.Recorder()
    outer, inner = rec.name_id("a.outer"), rec.name_id("b.inner")
    o = rec.enter(outer)             # t = 0
    i = rec.enter(inner)             # t = 1
    rec.exit(i)                      # t = 2
    i = rec.enter(inner)             # t = 3
    rec.exit(i)                      # t = 4
    rec.exit(o)                      # t = 5
    summary = rec.summary()
    assert summary["a.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["b.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert not rec.active


@pytest.mark.parametrize("n, rank, pct", [(11, 1, 100 / 11), (20, 10, 50.0),
                                          (100, 90, 90.0), (1000, 990, 99.0)])
def test_tail_picks_the_order_statistic_with_ten_beyond(n, rank, pct):
    samples = [float(v) for v in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    value, percentile, count = tail(samples)
    assert value == float(rank)
    assert percentile == pytest.approx(pct)
    assert count == n
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_is_omitted_below_eleven_samples(n):
    assert tail([1.0] * n) is None


def test_per_check_latency_is_the_median_over_sweeps():
    assert per_check_latency([[1.0, 5.0], [3.0, 1.0], [2.0, 9.0]]) == [2.0, 5.0]


def _bindings():
    """Identity of every attribute the recorder may patch."""
    owners = [m for name, m in sys.modules.items()
              if name == "nclp" or name.startswith("nclp.")]
    owners += [radius.OperatorValuedMap, algebra.AlgebraElement, np.linalg]
    return {(id(o), attr): id(val) for o in owners for attr, val in vars(o).items()}


def test_wrapper_counts_calls_made_inside_the_package():
    rec = recorder.Recorder()
    patch = recorder.install(rec)
    try:
        # the by-name import in radius is patched along with the definition
        assert hasattr(nclp.radius.schatten_norm, "__wrapped__")
        assert nclp.radius.schatten_norm is nclp.algebra.schatten_norm
        alg = algebra.TracedAlgebra([3])
        rng = np.random.default_rng(5)
        f = alg.element([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
        radius.triple_norm(f, radius.SearchBudget(starts=1, iters=1))
    finally:
        patch.restore()
    summary = rec.summary()
    assert summary["radius.triple_norm"]["calls"] == 1
    assert summary["algebra.schatten_norm"]["calls"] > 0
    assert summary["linalg.svd"]["calls"] > 0
    assert rec.counts["algebra.elements_built"] > 0
    # every schatten_norm span descends from the triple_norm span
    names = rec.names
    for idx, nid in enumerate(rec.name):
        if names[nid] == "algebra.schatten_norm":
            p = rec.parent[idx]
            while p >= 0 and names[rec.name[p]] != "radius.triple_norm":
                p = rec.parent[p]
            assert p >= 0


def test_linalg_calls_outside_nclp_are_not_counted():
    rec = recorder.Recorder()
    patch = recorder.install(rec)
    try:
        np.linalg.svd(np.eye(2))
    finally:
        patch.restore()
    assert len(rec.name) == 0 and rec.counts["linalg.svd.matrices"] == 0


def test_wrapper_restores_every_binding():
    before = _bindings()
    rec = recorder.Recorder()
    patch = recorder.install(rec)
    try:
        during = _bindings()
    finally:
        patch.restore()
    changed = {k for k in before if during.get(k) != before[k]}
    assert len(changed) > 50
    assert _bindings() == before


def test_strip_wall_time_only_touches_that_field():
    text = '{\n "x": 1.5,\n "wall_time_s": 0.123\n}\n'
    assert strip_wall_time(text) == '{\n "x": 1.5,\n "wall_time_s": null\n}\n'


def _clock_with_samples(samples, laps):
    clock = hostspeed.ReferenceClock(kernel=None)
    clock.samples, clock.laps = samples, laps
    return clock


def test_reference_clock_scales_each_lap_by_the_kernel_time_around_it():
    ref = hostspeed.REFERENCE_S
    # kernel samples (start, end, kernel seconds): host at half speed, then full
    samples = [(0.0, 0.5, 2 * ref), (10.0, 11.0, 2 * ref), (20.0, 20.5, ref),
               (30.0, 30.5, ref)]
    clock = _clock_with_samples(samples, [
        (1.0, 3.0, 0),               # between two slow samples: half speed
        (9.0, 13.0, 0),              # the 1 s sample at 10.0 inside adds nothing
        (12.0, 22.0, 0)])            # slow-to-fast gap, then a fast one
    raw, scaled = clock.times()
    assert raw == pytest.approx([2.0, 3.0, 9.5], rel=1e-12)
    assert scaled == pytest.approx([1.0, 0.5 + 2 / 1.5, 8 / 1.5 + 1.5], rel=1e-12)


def test_reference_time_of_nested_spans_adds_up():
    ref = hostspeed.REFERENCE_S
    clock = _clock_with_samples([(0.0, 1.0, 2 * ref), (5.0, 6.0, ref), (9.0, 9.5, ref)], [])
    rec = recorder.Recorder()
    rec.name_id("a")
    rec.name_id("b")
    # span a from 2 to 8 holds span b from 4 to 7, which holds the sample at 5
    rec.name, rec.parent = array("i", [0, 1]), array("i", [-1, 0])
    rec.start, rec.end = array("d", [2.0, 4.0]), array("d", [8.0, 7.0])
    rec.retime(clock.reference)
    summary = rec.summary()
    b = 1 / 1.5 + 1.0                # 4-5 at 1/1.5, the sample none, 6-7 at 1
    a = 2 / 1.5 + b + 1.0
    assert summary["b"]["self_s"] == pytest.approx(b, rel=1e-12)
    assert summary["a"]["total_s"] == pytest.approx(a, rel=1e-12)
    assert summary["a"]["self_s"] == pytest.approx(a - b, rel=1e-12)


def test_nested_laps_split_into_sweep_and_checks():
    clock = hostspeed.ReferenceClock(kernel=None)
    clock.lap(lambda: [clock.lap(sum, [1]), clock.lap(sum, [2])])
    clock.lap(sum, [3])
    assert [d for _, _, d in clock.laps] == [1, 1, 0, 0]
    assert clock.outermost() == [False, False, True, True]
    assert clock.innermost() == [True, True, False, True]


def test_reference_clock_samples_the_kernel_around_and_inside_a_sweep():
    clock = hostspeed.ReferenceClock(hostspeed.Kernel())
    with clock:
        clock.lap(time.sleep, 0.25)  # resumed after each sample, to the same deadline
    raw, scaled = clock.times()
    samples_inside = len(clock.samples) - 2   # besides those on entry and exit
    assert samples_inside >= 1
    # the lap's 0.25 s of wall time holds the samples, which are left out
    assert 0.0 < raw[0] < 0.25 and scaled[0] > 0.0


def _check_all_outcome(drop: str | None = None):
    entries = [{"check": f"suite-{i}", "status": "holds"} for i in range(8)]
    entries += [{"check": "uncertainty_suite", "status": "holds",
                 "gamma": math.sqrt(20.0), "delta_product_at_zero": math.sqrt(89.0)},
                {"check": "gns-suite", "status": "holds",
                 "a11_quotient_dim": 2, "trace_quotient_dim": 4}]
    entries = [e for e in entries if e["check"] != drop]
    demo = [{"check": "kernel-demo", "status": "holds"}]
    return [(SimpleNamespace(results=entries), "{}"), (SimpleNamespace(results=demo), "{}")]


def test_check_all_gate_passes_a_whole_batch():
    assert CheckAll(0).gate(_check_all_outcome(), None) == (CheckAll.VERDICTS, [])


@pytest.mark.parametrize("drop", ["gns-suite", "uncertainty_suite", "suite-3"])
def test_check_all_gate_fails_a_batch_missing_an_entry(drop):
    attempted, fails = CheckAll(0).gate(_check_all_outcome(drop), None)
    assert any("entries, expected 10" in f for f in fails)
    assert any(drop in f for f in fails) == (drop in CheckAll.ONCE)

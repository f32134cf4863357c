"""The check-all suites compute each value once: call counts of the layers
they drive, and the types of what they report."""

import numpy as np
import pytest

from nclp import inequalities, radius, suites
from nclp.algebra import TracedAlgebra
from nclp.kernels import KernelMap, OnePlusXTKernel


def counted(monkeypatch, module, name):
    """Wrap ``module.name`` so the returned dict counts its calls in ``["n"]``."""
    calls = {"n": 0}
    f = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return f(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSuiteWork:
    def test_uncertainty_takes_each_delta_once(self, monkeypatch):
        calls = counted(monkeypatch, inequalities, "schatten_norm")
        r = suites.uncertainty_suite()
        assert r["grid_points"] == 42 * 42
        # per axis: one Delta per point of its 42-point grid and at most five
        # minimiser candidates (the two ends, three roots of the cubic slope);
        # one gamma per check; the commuting check's grids hold one point each
        assert calls["n"] <= 2 * (42 + 5) + 1 + (2 + 1)

    @pytest.mark.parametrize("trials", [1, 4])
    def test_tail_projections_once_per_anchor(self, monkeypatch, trials):
        calls = counted(monkeypatch, suites, "spectral_tail_projection")
        r = suites.tail_projection_suite(trials, seed=3)
        assert r["status"] == "holds"
        # 8 thresholds per anchor, shared by the three exponents
        assert calls["n"] == 8 * trials

    @pytest.mark.parametrize("instances", [1, 3])
    def test_operator_valued_builds_each_instance_once(self, monkeypatch, instances):
        calls = counted(monkeypatch, suites, "random_operator_valued")
        r = suites.operator_valued_suite(instances, seed=0, starts=2, iters=2)
        assert r["status"] == "holds"
        # 8 d = 1 probes, then one map per instance checked in both target norms
        assert calls["n"] == 8 + instances

    def test_operator_valued_certifies_once_per_step_per_shape(self, monkeypatch):
        calls = counted(monkeypatch, radius._TargetNorm, "certify")
        r = suites.operator_valued_suite(10, seed=7, starts=16, iters=24)
        assert r["status"] == "holds"
        # one stacked search per (source shape, norm): two shapes times two
        # norms at 24 steps, and one nr search per probe shape at 8 steps;
        # each certifies its chains once, then once per step; a check per
        # instance makes 362 calls
        assert calls["n"] <= 4 * (24 + 1) + 2 * (8 + 1), calls

    def test_operator_valued_draws_each_pool_once(self):
        # 10 instances, each with its own seed, and the two probe shapes,
        # whose probes share one budget; a probe order alternating the
        # shapes, or a draw per norm, misses the one-entry memo more often
        radius._draw_candidates.cache_clear()
        suites.operator_valued_suite(10, seed=7, starts=16, iters=24)
        assert radius._draw_candidates.cache_info().misses == 10 + 2

    @pytest.mark.parametrize("trials", [4, 12])
    def test_numerical_radius_grids_once_per_size(self, monkeypatch, trials):
        calls = counted(monkeypatch, radius, "_nr_grid")
        r = suites.numerical_radius_suite(trials, seed=5)
        assert r["status"] == "holds"
        # sizes 2..5: one stacked grid each, plus one for the shift block
        assert calls["n"] <= 4 + 1, calls

    def test_numerical_radius_grids_only_the_shift_whole(self, monkeypatch):
        # normal rows (the hermitian parts, 1x1 blocks) close on Kittaneh's
        # bracket before any grid; of the rows left, only the shift ties with
        # its mirror angle and fills its grid.  Without the bracket the 48
        # hermitian rows tie too and the suite solves 64,473 angles
        angles, tied = [], []

        def grid(mats, count, keep, _f=radius._nr_grid):
            out = _f(mats, count, keep)
            angles.append(int(np.isfinite(out).sum()))
            return out

        def ties(vals, count, _f=radius._tied):
            out = _f(vals, count)
            tied.append(int(out.sum()))
            return out
        monkeypatch.setattr(radius, "_nr_grid", grid)
        monkeypatch.setattr(radius, "_tied", ties)
        r = suites.numerical_radius_suite(50, seed=5)
        assert r["status"] == "holds"
        assert sum(angles) <= 16_000, angles
        # the first grid is the shift's, alone
        assert tied == [1, 0, 0, 0, 0], tied

    @pytest.mark.parametrize("samples", [3, 9])
    def test_triple_norm_climbs_once_per_algebra(self, monkeypatch, samples):
        climbs = []

        def ascend(alg, fh, starts, iters, _f=radius._ascend):
            climbs.append(iters)
            return _f(alg, fh, starts, iters)

        monkeypatch.setattr(radius, "_ascend", ascend)
        r = suites.triple_norm_suite(samples, seed=6)
        assert r["status"] == "holds"
        # M_2, M_3 and M_4: one climbing stack each; a zero-step ascent only
        # projects the winners
        assert 1 <= sum(1 for i in climbs if i > 0) <= 3, climbs

    def test_grid_eigensolves_are_chunked(self, linalg_calls):
        # the 30 non-normal rows of one size seed their peaks' arcs with
        # 1,860 angles in one call, which the grid eigensolves NR_CHUNK at a
        # time
        r = suites.numerical_radius_suite(40, seed=5)
        assert r["status"] == "holds"
        assert linalg_calls["matrices"] > 4 * radius.NR_CHUNK, linalg_calls
        assert linalg_calls["largest"] <= radius.NR_CHUNK, linalg_calls

    def test_radius_reports_hold_python_numbers(self):
        # the stacked kernels return arrays; the reports keep int and float
        km = KernelMap(TracedAlgebra([2]).diagonal([1.0, 2.0]), OnePlusXTKernel())
        for r in (suites.numerical_radius_suite(8, seed=5), suites.triple_norm_suite(3, seed=6),
                  suites.kernel_bound_suite(km, trials=3, seed=0)):
            for key, v in r.items():
                if not isinstance(v, (str, list)):
                    assert type(v) in (int, float), (r["name"], key, type(v))

"""The check-all suites compute each value once: call counts of the layers
they drive, and the types of what they report."""

import math

import numpy as np
import pytest

from nclp import inequalities, radius, suites
from nclp.algebra import TracedAlgebra, as_exponent
from nclp.errors import DomainError
from nclp.inequalities import check_cs_lp, check_re_im
from nclp.kernels import KernelMap, OnePlusXTKernel
from nclp.sampling import random_unit_vector, substreams
from nclp.sesquilinear import random_map


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


def lone_checks(trials, seed, pool, check):
    """``check(phi, x, y)`` of each sweep trial, one public map and check at
    a time, drawn as the sweeps drew them before they were stacked."""
    out = []
    for t, rng in enumerate(substreams(seed, trials)):
        target = pool[t % len(pool)]
        d = 1 + (t % 4)
        phi = random_map(d, target, rank=1 + (t % 3), seed=int(rng.integers(0, 2 ** 62)))
        x = random_unit_vector(rng, d)
        y = random_unit_vector(rng, d)
        out.append(check(phi, x, y))
    return out


POOLS = {"target": suites.target_pool, "commutative": suites.commutative_pool}


class TestStackedTrials:
    """The sweeps check their trials as one stack; every report is the one
    the public per-trial path gives, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("p", [1.25, 2.0, math.inf])
    def test_cs_lp_reports_are_the_lone_checks(self, seed, pool, p):
        targets = POOLS[pool]()
        offset = 0 if math.isinf(p) else round(1000 * p)
        lone = lone_checks(48, seed + offset, targets,
                           lambda phi, x, y: check_cs_lp(phi, x, y, p, constant=1.0))
        stacked = inequalities._cs_lp_trials(suites._map_trials(48, seed + offset, targets),
                                             as_exponent(p))
        assert [(r.lhs, r.rhs, r.status) for r in stacked] == \
            [(r.lhs, r.rhs, r.status) for r in lone]
        # the sweep's worst report is the first lone report of largest ratio
        stats = suites.cs_lp_sweep(48, [p], seed=seed, pool=targets)["per_p"][str(p)]
        ratios = [r.ratio if math.isfinite(r.ratio) else 0.0 for r in lone]
        worst = lone[ratios.index(max(ratios))]
        assert stats["max_ratio"] == max(ratios)
        assert stats["worst_report"] == {"lhs": worst.lhs, "rhs": worst.rhs,
                                         "ratio": max(ratios), "margin": worst.margin,
                                         "status": worst.status}

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_re_im_reports_are_the_lone_checks(self, seed, pool):
        targets = POOLS[pool]()
        lone = lone_checks(48, seed, targets, check_re_im)
        stacked = inequalities._re_im_trials(suites._map_trials(48, seed, targets))
        key = [[(r.lhs, r.rhs, r.status) for r in reps] for reps in lone]
        assert [[(r.lhs, r.rhs, r.status) for r in reps] for reps in stacked] == key
        if pool == "target":                 # the pool re_im_sweep draws from
            r = suites.re_im_sweep(48, seed=seed)
            assert r["worst_margin"] == min(rep.margin for reps in lone for rep in reps)
            assert r["violations"] == sum(not rep.ok for reps in lone for rep in reps)

    def test_ratio_sampler_rows_are_the_lone_checks(self):
        profile = inequalities.RatioProfile(p=3.0, target=TracedAlgebra([2, 1], [1.0, 0.5]),
                                            domain_dim=3, trials=12, seed=5)
        rows = inequalities.ratio_sampler(profile)
        for row, rng in zip(rows, substreams(profile.seed, profile.trials)):
            phi = random_map(3, profile.target, rank=2, seed=int(rng.integers(0, 2 ** 63 - 1)))
            rep = check_cs_lp(phi, random_unit_vector(rng, 3), random_unit_vector(rng, 3),
                              3.0, constant=1.0)
            assert (row["lhs"], row["rhs"], row["ratio"]) == (rep.lhs, rep.rhs, rep.ratio)

    def test_cs_lp_sweep_is_one_norm_per_exponent_and_target(self, linalg_calls):
        # one stacked norm per (p, target), which takes one SVD per block of
        # the target; a check per trial takes 500 norms
        ps = (1.25, 1.5, 2.0, 3.0, 4.0)
        r = suites.cs_lp_sweep(100, ps)
        assert r["status"] == "holds"
        blocks = sum(t.n_blocks for t in suites.target_pool())
        assert 0 < linalg_calls["svd"] <= len(ps) * blocks, linalg_calls
        assert linalg_calls["n"] == linalg_calls["svd"], linalg_calls

    def test_re_im_sweep_is_one_norm_per_target(self, linalg_calls):
        assert suites.re_im_sweep(50)["status"] == "holds"
        assert linalg_calls["svd"] <= sum(t.n_blocks for t in suites.target_pool())


class TestSweepInput:
    @pytest.mark.parametrize("call", [
        lambda: suites.cs_lp_sweep(0, [2.0]),
        lambda: suites.cs_normal_sweep(0, [2.0]),
        lambda: suites.cs_lp_sweep(3, []),
        lambda: suites.cs_normal_sweep(3, ()),
        lambda: suites.re_im_sweep(0),
        lambda: suites.re_im_sweep(-2),
        lambda: suites.cs_lp_sweep(3, [2.0, 0.5]),
        lambda: suites.cs_lp_sweep(3, [math.nan]),
        lambda: suites.cs_normal_sweep(3, [-math.inf]),
    ], ids=["cs-no-trials", "normal-no-trials", "cs-no-p", "normal-no-p", "re-im-no-trials",
            "re-im-negative", "cs-p-below-1", "cs-p-nan", "normal-p-neg-inf"])
    def test_empty_or_bad_sweeps_raise(self, call):
        # no AttributeError on a missing worst report, no "holds" over zero
        # trials, and every exponent passes through as_exponent
        with pytest.raises(DomainError):
            call()

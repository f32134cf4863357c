"""The check-all suites compute each value once: call counts of the layers
they drive, and the types of what they report."""

import math

import numpy as np
import pytest

from nclp import gns, inequalities, radius, suites, verdict
from nclp.algebra import (TracedAlgebra, _tail_projections, as_exponent, hermitian_part_of,
                          holder_check, operator_norm, psd_tol, schatten_norm,
                          spectral_tail_projection, trace)
from nclp.errors import DomainError
from nclp.inequalities import check_cs_lp, check_re_im
from nclp.kernels import KernelMap, OnePlusXTKernel
from nclp.sampling import (random_element, random_psd, random_psd_with_spectrum,
                           random_unit_vector, rng_from, substreams)
from nclp.sesquilinear import evaluate_stack, random_map
from nclp.star import cyclic_group_algebra, matrix_algebra


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

    @pytest.mark.parametrize("trials", [1, 4, 20])
    def test_tail_projections_one_eigh_per_target_block(self, linalg_calls, trials):
        r = suites.tail_projection_suite(trials, seed=3)
        assert r["status"] == "holds"
        # per target drawn: one eigh per block for the 8 thresholds, one SVD
        # per block for the operator norms and one for the 8 tails and the
        # three exponents; a projection per anchor and threshold takes 8 eigh
        # per block
        blocks = sum(t.n_blocks for t in suites.target_pool()[:trials])
        assert linalg_calls["eigh"] <= blocks, linalg_calls
        assert linalg_calls["svd"] <= 2 * blocks, linalg_calls
        assert linalg_calls["n"] == linalg_calls["eigh"] + linalg_calls["svd"]

    def test_pairing_is_seven_svds_per_target_block(self, linalg_calls):
        # per target and block: the 2-norms of a, b, g and h, then one SVD
        # of g, h and gh for all five Hoelder pairs; a check per trial takes
        # 19 norms
        r = suites.pairing_and_holder_suite(100, seed=3)
        assert r["status"] == "holds"
        blocks = sum(t.n_blocks for t in suites.target_pool())
        assert 0 < linalg_calls["svd"] <= 7 * blocks, linalg_calls
        assert linalg_calls["n"] == linalg_calls["svd"], linalg_calls

    def test_verification_takes_no_pi_per_trial(self, monkeypatch):
        rep = gns.gns_construct(suites.random_positive_linear_map(
            matrix_algebra(3), TracedAlgebra([2]), 2, np.random.default_rng(4)),
            matrix_algebra(3), TracedAlgebra([2]))
        lone = counted(monkeypatch, gns.GnsRepresentation, "pi_of")
        rows = counted(monkeypatch, gns.GnsRepresentation, "pi_rows")
        vr = gns.verify_representation(rep, trials=50, seed=1)
        assert vr.cyclic
        # pi(a), pi(b), pi(ab) and pi(a*) as four stacks
        assert (lone["n"], rows["n"]) == (0, 4)

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
        # M_2, M_3 and M_4 have unit weights, where |||F|||_2 = w(F): no climb
        assert climbs == []
        # a weight below 1 keeps the search: one climbing stack for the
        # algebra; a zero-step ascent only projects the winners
        alg = TracedAlgebra([2, 1], [1.0, 0.5])
        rng = np.random.default_rng(samples)
        fs = [random_element(alg, rng) for _ in range(samples)]
        radius._triple_norm_stack(alg, fs, radius.SearchBudget(starts=4, iters=25, seed=6))
        assert sum(1 for i in climbs if i > 0) == 1, climbs
        # on unit weights each element gets its numerical radius, bit for bit
        m3 = TracedAlgebra([3])
        fs = [random_element(m3, rng) for _ in range(samples)]
        got = radius._triple_norm_stack(m3, fs, radius.SearchBudget(starts=4, iters=25))
        assert [res.value for res in got] == [radius.numerical_radius(f) for f in fs]

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


# -- per-trial references: the suites as they were before they were stacked ------

def ref_pairing_and_holder(trials, seed):
    pool = suites.target_pool()
    worst_re, worst_im, holder_violations, worst_holder_margin = math.inf, 0.0, 0, math.inf
    for t, rng in enumerate(substreams(seed, trials)):
        alg = pool[t % len(pool)]
        a = random_psd(alg, rng)
        b = random_psd(alg, rng)
        a = (1.0 / schatten_norm(a, 2.0)) * a
        b = (1.0 / schatten_norm(b, 2.0)) * b
        val = trace(a @ b)
        worst_re = min(worst_re, val.real)
        worst_im = max(worst_im, abs(val.imag))
        g = random_element(alg, rng)
        h = random_element(alg, rng)
        g = (1.0 / schatten_norm(g, 2.0)) * g
        h = (1.0 / schatten_norm(h, 2.0)) * h
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            rep = holder_check(g, h, p)
            worst_holder_margin = min(worst_holder_margin, rep.rhs - rep.lhs)
            if not rep.holds:                   # holder_check: within(lhs, rhs, 1e-9)
                holder_violations += 1
    ok = worst_re >= -1e-10 and worst_im <= 1e-10 and holder_violations == 0
    return {"name": "pairing_and_holder", "trials": trials,
            "worst_re": worst_re, "worst_im": worst_im,
            "holder_violations": holder_violations,
            "worst_holder_margin": worst_holder_margin, "status": verdict.status(ok)}


def ref_tail_projection(w, t):
    """A spectral tail projection by one eigh per block and threshold."""
    tol = psd_tol(operator_norm(w))
    blocks = []
    for b in w.blocks:
        lam, q = np.linalg.eigh(hermitian_part_of(b))
        if lam.size and lam.min() < -tol:
            raise DomainError(f"element is not PSD: min eigenvalue {lam.min():.3e}")
        keep = lam > t
        blocks.append((q[:, keep]) @ (q[:, keep].conj().T))
    return w.algebra.element(blocks)


def ref_tail_suite(trials, seed):
    pool = suites.target_pool()
    monotone_failures, final_nonzero, worst_final = 0, 0, 0.0
    for t, rng in enumerate(substreams(seed, trials)):
        alg = pool[t % len(pool)]
        spectrum = [0.0 if rng.random() < 0.3 else float(rng.uniform(0.25, 3.0))
                    for _ in range(alg.total_dim)]
        w = random_psd_with_spectrum(alg, rng, spectrum)
        ident = alg.identity()
        tails = [w @ (ident - ref_tail_projection(w, 1.0 / n)) for n in range(1, 9)]
        zero_tol = 1e-12 * (1.0 + operator_norm(w))
        for p in (1.5, 2.0, 3.0):
            prev = math.inf
            for tail in tails:
                val = schatten_norm(tail, p)
                if val > prev + 1e-12 * (1.0 + prev):
                    monotone_failures += 1
                prev = val
            worst_final = max(worst_final, prev)
            if prev > zero_tol:
                final_nonzero += 1
    return {"name": "tail_projection", "trials": trials,
            "monotone_failures": monotone_failures,
            "final_nonzero": final_nonzero, "worst_final": worst_final,
            "status": verdict.status(monotone_failures == 0 and final_nonzero == 0)}


def ref_pi_of(rep, coords):
    out = np.zeros((rep.quotient_dim, rep.quotient_dim), dtype=complex)
    for c, m in zip(np.asarray(coords, dtype=complex).ravel(), rep.pi):
        if c != 0:
            out = out + c * m
    return out


def ref_cyclic_span_rank(rep):
    if not rep.quotient_dim:
        return 0
    span = np.stack([rep.pi[i] @ rep.cyclic for i in range(rep.domain.dim)], axis=1)
    return int(np.linalg.matrix_rank(span, tol=1e-10 * (1.0 + float(
        np.max(np.abs(span), initial=0.0)))))


def ref_residuals(rep):
    """The construction's residuals, one pi_of per basis product and involute."""
    domain, phi = rep.domain, rep.phi
    d = domain.dim
    scale = phi.gram_scale()
    vecs = np.array([rep.class_coords(rep.pi[i] @ rep.cyclic) for i in range(d)])
    rebuilt = evaluate_stack(phi, np.repeat(vecs, d, axis=0), np.tile(vecs, (d, 1)))
    diffs = [g - r for g, r in zip(phi.flat_gram(), rebuilt)]
    recon = float(np.max(gns._stacked_schatten(phi.target, diffs, 2.0))) / scale
    mult = adjoint = 0.0
    pscale = 1.0 + max(float(np.max(np.abs(m), initial=0.0)) for m in rep.pi)
    for i in range(d):
        star = ref_pi_of(rep, domain.involute(domain.basis_vector(i)))
        adjoint = max(adjoint, float(np.max(np.abs(star - rep.pi[i].conj().T),
                                            initial=0.0)) / pscale)
        for j in range(d):
            prod = ref_pi_of(rep, domain.multiply(domain.basis_vector(i),
                                                  domain.basis_vector(j)))
            mult = max(mult, float(np.max(np.abs(prod - rep.pi[i] @ rep.pi[j]),
                                          initial=0.0)) / (pscale * pscale))
    return {"reconstruction": recon, "multiplicativity": mult, "adjointness": adjoint,
            "cyclicity_rank": ref_cyclic_span_rank(rep),
            "invariance": gns.check_left_invariance(phi)}


def ref_verify(rep, trials, seed):
    """verify_representation's residuals, three pi_of calls per trial."""
    rng = rng_from(seed)
    d = rep.domain.dim
    phi = rep.phi
    scale = phi.gram_scale()
    mult = adj = 0.0
    draws = [(rng.standard_normal(d) + 1j * rng.standard_normal(d),
              rng.standard_normal(d) + 1j * rng.standard_normal(d))
             for _ in range(max(trials, 1))]
    classes = []
    for a, b in draws:
        pa, pb = ref_pi_of(rep, a), ref_pi_of(rep, b)
        pscale = 1.0 + float(np.max(np.abs(pa), initial=0.0)) \
            + float(np.max(np.abs(pb), initial=0.0))
        ab = rep.domain.multiply(a, b)
        mult = max(mult, float(np.max(np.abs(ref_pi_of(rep, ab) - pa @ pb), initial=0.0))
                   / (pscale * pscale))
        adj = max(adj, float(np.max(np.abs(ref_pi_of(rep, rep.domain.involute(a))
                                           - pa.conj().T), initial=0.0)) / pscale)
        classes.append((rep.class_coords(pa @ rep.cyclic), rep.class_coords(pb @ rep.cyclic)))
    n = len(draws)
    pairs = draws + classes
    vals = evaluate_stack(phi, [x for x, _ in pairs], [y for _, y in pairs])
    norms = gns._stacked_schatten(phi.target, [v[:n] - v[n:] for v in vals], 2.0).tolist()
    recon = 0.0
    for (a, b), norm in zip(draws, norms):
        norm_ab = 1.0 + float(np.linalg.norm(a)) * float(np.linalg.norm(b))
        recon = max(recon, norm / (scale * norm_ab))
    return gns.VerificationReport(trials=trials, reconstruction=recon, multiplicativity=mult,
                                  adjointness=adj, cyclic_span_dim=ref_cyclic_span_rank(rep),
                                  quotient_dim=rep.quotient_dim)


def gns_domains():
    return [("matrix_algebra(2)", matrix_algebra(2), TracedAlgebra([2])),
            ("matrix_algebra(3)", matrix_algebra(3), TracedAlgebra([1])),
            ("cyclic_group_algebra(4)", cyclic_group_algebra(4), TracedAlgebra([2]))]


def ref_gns_suite(per_domain, seed):
    """gns_suite with the per-trial residuals and verification."""
    scal = TracedAlgebra([1])
    m2 = matrix_algebra(2)
    worst = {"reconstruction": 0.0, "multiplicativity": 0.0, "adjointness": 0.0}
    cyclic_failures = count = 0
    for name, dom, target in gns_domains():
        for rng in substreams(seed + dom.dim, per_domain):
            omega = suites.random_positive_linear_map(dom, target, rank=2, rng=rng)
            rep = gns.gns_construct(omega, dom, target)
            res = ref_residuals(rep)
            assert repr(rep.residuals) == repr(res)
            vr = ref_verify(rep, trials=20, seed=int(rng.integers(0, 2 ** 62)))
            for key in worst:
                worst[key] = max(worst[key], res[key], getattr(vr, key))
            if not vr.cyclic:
                cyclic_failures += 1
            count += 1
    omega_a11 = [scal.element([np.array([[1.0 if i == 0 else 0.0]], dtype=complex)])
                 for i in range(4)]
    rep_a11 = gns.gns_construct(omega_a11, m2, scal)
    omega_tr = [scal.element([np.array([[1.0 if i in (0, 3) else 0.0]], dtype=complex)])
                for i in range(4)]
    rep_tr = gns.gns_construct(omega_tr, m2, scal)
    ok = (worst["reconstruction"] <= 1e-10 and worst["multiplicativity"] <= 1e-9
          and worst["adjointness"] <= 1e-9 and cyclic_failures == 0
          and rep_a11.quotient_dim == 2 and rep_tr.quotient_dim == 4)
    return {"name": "gns", "instances": count, "worst": worst,
            "cyclic_failures": cyclic_failures,
            "a11_quotient_dim": rep_a11.quotient_dim,
            "trace_quotient_dim": rep_tr.quotient_dim,
            "status": verdict.status(ok)}


class TestStackedSuites:
    """The pairing, tail-projection and GNS suites check their trials as
    stacks; every dict is the per-trial reference's, floats equal by repr,
    at the trial counts check-all gives them."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_pairing_and_holder_is_the_per_trial_loop(self, seed):
        assert repr(suites.pairing_and_holder_suite(100, seed=seed)) == \
            repr(ref_pairing_and_holder(100, seed))

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_tail_projection_is_the_per_trial_loop(self, seed):
        assert repr(suites.tail_projection_suite(20, seed=seed)) == \
            repr(ref_tail_suite(20, seed))

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_gns_is_the_per_trial_loop(self, seed):
        assert repr(suites.gns_suite(5, seed=seed)) == repr(ref_gns_suite(5, seed))

    @pytest.mark.parametrize("name, dom, target", gns_domains(), ids=[d[0] for d in gns_domains()])
    def test_verification_residuals_are_the_per_trial_ones(self, name, dom, target):
        rng = np.random.default_rng(dom.dim)
        rep = gns.gns_construct(suites.random_positive_linear_map(dom, target, 2, rng),
                                dom, target)
        for seed in (0, 5):
            got, want = gns.verify_representation(rep, 50, seed), ref_verify(rep, 50, seed)
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("name, dom, target", gns_domains(), ids=[d[0] for d in gns_domains()])
    def test_construction_is_the_per_pair_one(self, name, dom, target):
        # the gram of omega(e_j* e_i) and the columns of pi(e_i), one product
        # and one involute at a time
        def multiply(a, b):
            return np.einsum("i,j,ijk->k", a, b, dom.mult)

        def involute(a):
            return dom.invol @ np.conj(a)
        omega = suites.random_positive_linear_map(dom, target, 2, np.random.default_rng(1))
        rep = gns.gns_construct(omega, dom, target)
        basis = list(np.eye(dom.dim, dtype=complex))
        coords = np.array([multiply(involute(basis[j]), basis[i])
                           for i in range(dom.dim) for j in range(dom.dim)])
        values = [np.array([g.blocks[k] for g in omega]) for k in range(target.n_blocks)]
        for got, want in zip(rep.phi.flat_gram(), gns._combine_rows(coords, values)):
            assert np.array_equal(got, want)
        s, frame = gns._hermitian_scalar_gram(rep.phi), rep.quotient_frame
        for m, e in zip(rep.pi, basis):
            cols = [frame.conj().T @ (s @ multiply(e, frame[:, c]))
                    for c in range(rep.quotient_dim)]
            assert np.array_equal(m, np.stack(cols, axis=1))
        assert np.array_equal(rep.cyclic, frame.conj().T @ (s @ dom.unit))

    def test_pi_rows_are_lone_pi_of(self):
        dom, target = matrix_algebra(3), TracedAlgebra([2])
        rep = gns.gns_construct(suites.random_positive_linear_map(
            dom, target, 2, np.random.default_rng(2)), dom, target)
        coords = np.random.default_rng(3).standard_normal((12, dom.dim)) + 0j
        coords[::3, ::2] = 0.0                          # zero coefficients are skipped
        rows = rep.pi_rows(coords)
        for c, row in zip(coords, rows):
            assert np.array_equal(row, ref_pi_of(rep, c))
            assert np.array_equal(rep.pi_of(c), row)

    @pytest.mark.parametrize("at", [0, 2])
    def test_non_psd_anchor_raises_the_same_domain_error(self, at):
        alg = TracedAlgebra([2, 1], [0.5, 2.0])
        bad = alg.diagonal([1.0, 0.5, -0.25])
        good = alg.diagonal([2.0, 0.0, 1.0])
        with pytest.raises(DomainError) as lone:
            spectral_tail_projection(bad, 0.5)
        with pytest.raises(DomainError) as ref:
            ref_tail_projection(bad, 0.5)
        items = [good, good, good]
        items[at] = bad
        with pytest.raises(DomainError) as stacked:
            _tail_projections(alg, [np.stack(b) for b in zip(*(x.blocks for x in items))],
                              [1.0, 0.5])
        assert str(lone.value) == str(ref.value) == str(stacked.value) \
            == "element is not PSD: min eigenvalue -2.500e-01"

    def test_spectral_tail_projection_is_the_per_block_one(self):
        rng = np.random.default_rng(9)
        alg = TracedAlgebra([3, 2], [1.0, 0.5])
        w = random_psd_with_spectrum(alg, rng, [0.0, 0.4, 1.2, 2.0, 0.0])
        for t in (0.1, 0.5, 1.0, 3.0):
            got, want = spectral_tail_projection(w, t), ref_tail_projection(w, t)
            assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))


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
        lambda: suites.pairing_and_holder_suite(0),
        lambda: suites.tail_projection_suite(0),
        lambda: suites.numerical_radius_suite(0),
        lambda: suites.triple_norm_suite(0),
        lambda: suites.operator_valued_suite(0),
        lambda: suites.gns_suite(0),
    ], ids=["cs-no-trials", "normal-no-trials", "cs-no-p", "normal-no-p", "re-im-no-trials",
            "re-im-negative", "cs-p-below-1", "cs-p-nan", "normal-p-neg-inf",
            "pairing-no-trials", "tail-no-trials", "radius-no-trials", "triple-no-trials",
            "opvalued-no-trials", "gns-no-trials"])
    def test_empty_or_bad_sweeps_raise(self, call):
        # no AttributeError on a missing worst report, no "holds" over zero
        # trials, and every exponent passes through as_exponent
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda seed, km: suites.cs_lp_sweep(2, [2.0], seed=seed),
        lambda seed, km: suites.cs_lp_sweep(2, [math.inf], seed=seed),
        lambda seed, km: suites.cs_normal_sweep(2, [2.0], seed=seed),
        lambda seed, km: suites.re_im_sweep(2, seed=seed),
        lambda seed, km: suites.pairing_and_holder_suite(2, seed=seed),
        lambda seed, km: suites.tail_projection_suite(2, seed=seed),
        lambda seed, km: suites.numerical_radius_suite(2, seed=seed),
        lambda seed, km: suites.triple_norm_suite(2, seed=seed),
        lambda seed, km: suites.operator_valued_suite(2, seed=seed),
        lambda seed, km: suites.gns_suite(2, seed=seed),
        lambda seed, km: suites.kernel_bound_suite(km, 2, seed=seed),
    ], ids=["cs-lp-2", "cs-lp-inf", "cs-normal", "re-im", "pairing-holder", "tail",
            "numerical-radius", "triple-norm", "operator-valued", "gns", "kernel-bounds"])
    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_raises_before_drawing(self, monkeypatch, call, seed):
        # one answer for every suite and exponent: no shifted seed that
        # happens to be valid, no numpy error from the generator
        km = KernelMap(TracedAlgebra([2]).diagonal([1.0, 2.0]), OnePlusXTKernel())

        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the seed")
        for name in ("substreams", "rng_from"):
            monkeypatch.setattr(suites, name, no_draw)
        with pytest.raises(DomainError, match="seed >= 0"):
            call(seed, km)

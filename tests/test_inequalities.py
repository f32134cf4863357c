import math

import numpy as np
import pytest

from nclp.algebra import TracedAlgebra, schatten_norm
from nclp.errors import DomainError, PreconditionError, StructureError
from nclp.inequalities import (RatioProfile, _delta_polynomial, check_cs_lp,
                               check_cs_normal, check_re_im, default_cs_constant,
                               ratio_sampler, uncertainty_check)
from nclp.kernels import KernelMap, OnePlusXTKernel
from nclp.sesquilinear import (SesquilinearMap, check_positivity, evaluate_stack,
                               from_linear_map, random_map)
from nclp.star import matrix_algebra
from nclp.verdict import VIOLATED, report

from conftest import gram_of


@pytest.fixture
def phi3(tr2):
    return random_map(3, tr2, rank=2, seed=5)


@pytest.fixture
def kernel_phi():
    alg = TracedAlgebra([2])
    km = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel())
    return km.as_sesquilinear()


class TestCsLp:
    def test_default_constants(self):
        assert default_cs_constant(1.0) == 1.0
        assert default_cs_constant(2.0) == pytest.approx(math.sqrt(2.0))
        assert default_cs_constant(3.0) == 2.0

    def test_scalar_domain_ratio(self, tr2):
        phi = random_map(1, tr2, rank=1, seed=1)
        one = np.array([1.0])
        rep = check_cs_lp(phi, one, one, 3.0)
        assert rep.ratio == pytest.approx(0.5, abs=1e-12)   # lhs = geometric mean
        assert rep.status == "holds"

    def test_zero_rhs_zero_lhs(self, tr2):
        gram = [[tr2.zero()]]
        phi = SesquilinearMap(tr2, gram_of(tr2, gram))
        rep = check_cs_lp(phi, np.array([1.0]), np.array([1.0]), 2.0)
        assert rep.status == "holds" and rep.ratio == 0.0

    def test_violated_positivity_rejected(self, tr2):
        phi = SesquilinearMap(tr2, gram_of(tr2, [[tr2.diagonal([1.0, -1.0])]]))
        with pytest.raises(PreconditionError):
            check_cs_lp(phi, np.array([1.0]), np.array([1.0]), 2.0)

    def test_rejects_nonpositive_constant(self, phi3):
        with pytest.raises(DomainError):
            check_cs_lp(phi3, np.ones(3), np.ones(3), 2.0, constant=0.0)

    @pytest.mark.parametrize("constant", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_rejects_nonfinite_or_nonpositive_constant(self, constant):
        # nan used to report "violated" and inf "holds"
        phi = random_map(2, TracedAlgebra([2]), seed=1)
        with pytest.raises(DomainError, match="finite and positive"):
            check_cs_lp(phi, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2.0,
                        constant=constant)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("check", ["cs_lp", "re_im", "cs_normal"])
    def test_rejects_nonfinite_vectors(self, bad, check):
        # a NaN entry used to give a NaN value or an SVD that did not converge
        phi = random_map(2, TracedAlgebra([1, 1], [1.0, 2.0]), seed=1)
        run = {"cs_lp": lambda x, y: check_cs_lp(phi, x, y, 2.0),
               "re_im": lambda x, y: check_re_im(phi, x, y),
               "cs_normal": lambda x, y: check_cs_normal(phi, x, y, 2.0)}[check]
        good, v = np.array([1.0, 0.5]), np.array([bad, 0.0])
        for x, y in ((v, good), (good, v)):
            with pytest.raises(DomainError, match="finite"):
                run(x, y)

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_random_sweep_holds(self, phi3, rng, p):
        for _ in range(60):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rep = check_cs_lp(phi3, x, y, p)
            assert rep.ok, f"p={p}: ratio {rep.ratio}"

    def test_scaling_leaves_ratio_unchanged(self, phi3, rng):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = check_cs_lp(phi3, x, y, 2.0)
        scaled = check_cs_lp(phi3.scaled(3.7), x, y, 2.0)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert scaled.status == base.status


class TestCsNormal:
    def test_commutative_target_applies(self, rng):
        target = TracedAlgebra([1, 1, 1], [1.0, 0.5, 2.0])
        phi = random_map(2, target, rank=2, seed=8)
        for _ in range(60):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rep = check_cs_normal(phi, x, y, 2.5)
            assert rep.ok
            assert rep.witness["normality_residual"] <= 1e-12

    def test_hermitian_value_applies(self, kernel_phi):
        sx = np.array([0, 1, 1, 0], dtype=complex)
        rep = check_cs_normal(kernel_phi, sx, sx, 2.0)
        assert rep.status == "holds"

    def test_non_normal_value_rejected(self, tr2):
        # gram forcing Phi(e1, e2) = shift block (maximally non-normal)
        shift = tr2.element([np.array([[0, 1], [0, 0]])])
        ident = tr2.identity()
        gram = [[ident, shift], [shift.adjoint(), ident]]
        phi = SesquilinearMap(tr2, gram_of(tr2, gram))
        with pytest.raises(PreconditionError):
            check_cs_normal(phi, np.array([1.0, 0]), np.array([0, 1.0]), 2.0)


class TestReIm:
    def test_equal_arguments_equality(self, phi3, rng):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rep_re, rep_im = check_re_im(phi3, x, x)
        assert rep_re.lhs == pytest.approx(rep_re.rhs, rel=1e-9)
        assert rep_im.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep_re.ok and rep_im.ok

    def test_random_sweep(self, phi3, rng):
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rep_re, rep_im = check_re_im(phi3, x, y)
            assert rep_re.ok and rep_im.ok


class TestUncertainty:
    def test_kernel_instance_closed_form(self, kernel_phi):
        sx = np.array([0, 1, 1, 0], dtype=complex)
        sy = np.array([0, -1j, 1j, 0], dtype=complex)
        r = uncertainty_check(kernel_phi, sx, sy, [0.0], [0.0])
        assert r.lam_grid.tolist() == r.mu_grid.tolist() == [0.0]
        assert r.gamma == pytest.approx(math.sqrt(20.0), abs=1e-12)
        assert r.delta_a[0] * r.delta_b[0] == pytest.approx(math.sqrt(89.0), abs=1e-12)
        assert np.allclose(r.k_coords, [-2, 0, 0, 2])
        assert r.bound_failures == 0
        assert r.k_hermitian_defect <= 1e-12

    def test_equal_operators_trivial(self, kernel_phi):
        sx = np.array([0, 1, 1, 0], dtype=complex)
        r = uncertainty_check(kernel_phi, sx, sx, [0.0], [0.0])
        assert r.gamma == pytest.approx(0.0, abs=1e-12)
        assert r.bound_failures == 0

    def test_tracial_map_kills_commutators(self):
        dom = matrix_algebra(2)
        target = TracedAlgebra([2])
        f0 = target.diagonal([0.5, 1.5])
        hs = np.eye(4)
        gram = [[complex(hs[i, j]) * f0 for j in range(4)] for i in range(4)]
        phi = SesquilinearMap(target, gram_of(target, gram), domain_algebra=dom)
        sx = np.array([0, 1, 1, 0], dtype=complex)
        sy = np.array([0, -1j, 1j, 0], dtype=complex)
        r = uncertainty_check(phi, sx, sy, [0.0, 1.0], [0.0])
        # the lam axis gains its exact minimiser on [0, 1]
        assert len(r.lam_grid) == len(r.delta_a) == 3
        assert r.gamma == pytest.approx(0.0, abs=1e-12)
        assert r.bound_failures == 0

    def test_grid_boundced_everywhere(self, kernel_phi):
        sx = np.array([0, 1, 1, 0], dtype=complex)
        sy = np.array([0, -1j, 1j, 0], dtype=complex)
        r = uncertainty_check(kernel_phi, sx, sy)
        assert len(r.lam_grid) * len(r.mu_grid) >= 41 * 41
        assert r.delta_a.shape == r.lam_grid.shape and r.delta_b.shape == r.mu_grid.shape
        assert r.bound_failures == 0
        assert np.all(np.outer(r.delta_a, r.delta_b) >= 0.5 * r.gamma - 1e-8)

    @pytest.mark.parametrize("target", [TracedAlgebra([2]), TracedAlgebra([2, 1], [0.5, 2.0])],
                             ids=["M2", "M2+M1"])
    def test_axis_delta_is_the_per_point_delta_bit_for_bit(self, target, rng):
        # one stacked norm per axis gives each Delta of the element arithmetic
        phi = random_map(3, target, rank=2, seed=7)
        a, unit = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        ts = list(np.linspace(-3.0, 3.0, 41)) + (
            rng.standard_normal(20) * 10.0 ** rng.integers(-6, 7, 20)).tolist()
        delta, argmin = _delta_polynomial(phi, a, unit)
        vals = evaluate_stack(phi, [a, a, unit, unit], [a, unit, a, unit])
        g_aa, g_ae, g_ea, g_ee = (target.element([v[t] for v in vals]) for t in range(4))
        want = [math.sqrt(max(schatten_norm(g_aa - t * g_ae - t * g_ea + (t * t) * g_ee,
                                            2.0), 0.0)) for t in ts]
        assert delta(ts).tolist() == want
        t, v = argmin(-3.0, 3.0)
        assert -3.0 <= t <= 3.0 and v == delta([t])[0] <= min(want[:41])

    def test_rejects_non_symmetric(self, kernel_phi):
        with pytest.raises(PreconditionError):
            uncertainty_check(kernel_phi, np.array([0, 1j, 0, 0]),
                              np.array([0, 1, 1, 0]), [0.0], [0.0])

    @pytest.mark.parametrize("shift", [0.0, 10.0], ids=["sigma-x", "sigma-x+10e"])
    def test_rejects_non_positive_map(self, shift):
        # omega(X) = X_11 - 0.5 X_22 is not positive: the sweep would count
        # 816 bound failures at a = sigma_x and none at sigma_x + 10 e, a
        # silent pass
        dom, target = matrix_algebra(2), TracedAlgebra([1])
        phi = from_linear_map([target.diagonal([c]) for c in (1.0, 0.0, 0.0, -0.5)],
                              dom, target)
        assert check_positivity(phi).status == VIOLATED
        a = np.array([shift, 1, 1, shift], dtype=complex)
        with pytest.raises(PreconditionError, match="positivity"):
            uncertainty_check(phi, a, np.array([0, -1j, 1j, 0]))

    def test_rejects_non_invariant_map(self, tr2):
        dom = matrix_algebra(2)
        gram = [[tr2.identity() if i == j == 0 else tr2.zero()
                 for j in range(4)] for i in range(4)]
        phi = SesquilinearMap(tr2, gram_of(tr2, gram), domain_algebra=dom)
        sx = np.array([0, 1, 1, 0], dtype=complex)
        with pytest.raises(PreconditionError):
            uncertainty_check(phi, sx, sx, [0.0], [0.0])


class TestConstantAboveOneIsNeeded:
    def test_vector_positive_witness_exceeds_ratio_one(self, tr2):
        # a vector-positive (not block-PSD) map whose Cauchy-Schwarz ratio
        # lands strictly between 1 and sqrt(2) at p = 2: the enlarged
        # constant is genuinely necessary, and the sqrt(2) cap still holds
        g00 = np.array([[3.9636343009099915, 0.3326864190447443],
                        [0.3326864190447443, 0.5674280519108064]])
        g01 = np.array([[-1.0599668100245419 - 0.3719001092401855j,
                         -0.6236216354776332 + 1.2303030988199497j],
                        [0.2218020086388573 + 1.4318661061582727j,
                         -1.0371670174765368 + 0.6617992639372775j]])
        g11 = np.array([[0.4171458037605438, 0.28385501218623704],
                        [0.28385501218623704, 4.847048435906014]])
        gram = [[tr2.element([g00]), tr2.element([g01])],
                [tr2.element([g01.conj().T]), tr2.element([g11])]]
        phi = SesquilinearMap(tr2, gram_of(tr2, gram))
        cert = check_positivity(phi, trials=2048, seed=1)
        assert cert.status == "sampled"
        assert cert.witness_min_eig > 0.01          # robustly positive
        x = np.array([1.1617785346129808 - 1.8849685408761434j,
                      0.30821627896196985 - 1.722003007615824j])
        y = np.array([-1.0056143598568754 + 1.1748330182032303j,
                      1.1494444289186905 - 0.5562385559071928j])
        rep = check_cs_lp(phi, x, y, 2.0, certificate=cert)   # sqrt(2) default
        assert rep.ok
        ratio_vs_one = rep.ratio * math.sqrt(2.0)
        assert 1.05 < ratio_vs_one < math.sqrt(2.0)


class TestReportLogic:
    def test_zero_rhs_positive_lhs_violated(self):
        rep = report(0.5, 0.0, {})
        assert rep.status == "violated"
        assert rep.ratio == math.inf

    def test_within_tolerance_band(self):
        rep = report(1.0 + 5e-9, 1.0, {})
        assert rep.status == "holds_within_tol"
        rep2 = report(1.0 + 1e-6, 1.0, {})
        assert rep2.status == "violated"


class TestRatioSampler:
    def test_row_count_and_summary(self, tr2):
        rows = ratio_sampler(RatioProfile(p=2.0, target=tr2, domain_dim=2,
                                          trials=10, seed=3))
        assert len(rows) == 11
        assert rows[-1]["trial"] == "summary"
        assert rows[-1]["ratio"] == pytest.approx(
            max(r["ratio"] for r in rows[:-1]))

    def test_deterministic(self, tr2):
        p = RatioProfile(p=2.0, target=tr2, domain_dim=2, trials=5, seed=9)
        assert ratio_sampler(p) == ratio_sampler(p)

    def test_scalar_domain_all_ones(self, tr2):
        rows = ratio_sampler(RatioProfile(p=2.0, target=tr2, domain_dim=1,
                                          trials=5, seed=1))
        for row in rows[:-1]:
            assert row["ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_commutative_profile_capped_by_one(self):
        target = TracedAlgebra([1, 1], [1.0, 0.5])
        rows = ratio_sampler(RatioProfile(p=3.0, target=target, domain_dim=3,
                                          trials=50, seed=4))
        assert rows[-1]["ratio"] <= 1.0 + 1e-8

    @pytest.mark.parametrize("dims, rank, error", [(0, 2, StructureError),
                                                   (2, 0, DomainError)])
    def test_bad_profile_raises(self, tr2, dims, rank, error):
        # d = 0 is refused before a unit vector of C^0 is drawn
        with pytest.raises(error):
            ratio_sampler(RatioProfile(p=2.0, target=tr2, domain_dim=dims, trials=3,
                                       seed=0, rank=rank))

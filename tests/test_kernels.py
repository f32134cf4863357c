import math

import numpy as np
import pytest

from nclp.algebra import TracedAlgebra, operator_norm, trace
from nclp.errors import DomainError
from nclp.kernels import (ConstantKernel, ExpAbsDiffKernel, GridKernel, KernelMap,
                          OnePlusXTKernel, bound_checks, kernel_by_name)
from nclp.sesquilinear import check_left_invariance, check_positivity

from conftest import random_element_of


@pytest.fixture
def km12():
    alg = TracedAlgebra([2])
    return KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel())


class TestEta:
    def test_constant_kernel_gives_identity(self):
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), ConstantKernel(1.0))
        for x in (0.0, 1.0, 2.0):
            assert np.allclose(km.eta(x).blocks[0], np.eye(2))

    def test_affine_kernel_pointwise(self, km12):
        assert np.allclose(km12.eta(1.0).blocks[0], np.diag([2.0, 3.0]))

    def test_t_kernel_reproduces_w(self):
        alg = TracedAlgebra([2])
        w = alg.diagonal([1.0, 2.0])
        km = KernelMap(w, GridKernel(x_grid=(0.0, 2.0), t_grid=(0.0, 2.0),
                                     values=((0.0, 2.0), (0.0, 2.0))))  # k(x,t) = t
        assert np.allclose(km.eta(0.7).blocks[0], w.blocks[0])

    def test_out_of_range_rejected(self, km12):
        with pytest.raises(DomainError):
            km12.eta(5.0)

    def test_eta_psd_random_anchor(self, rng):
        alg = TracedAlgebra([2, 1], [1.0, 0.5])
        g = random_element_of(alg, rng)
        km = KernelMap(g @ g.adjoint(), ExpAbsDiffKernel())
        for x in np.linspace(0, km.w_norm, 7):
            assert km.eta(float(x)).is_psd()


class TestPhiFunction:
    def test_constant_kernel_constant_function(self, rng):
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), ConstantKernel(1.0))
        x_el = random_element_of(alg, rng)
        y_el = random_element_of(alg, rng)
        fs = km.phi_function(x_el, y_el, grid=[0.0, 1.0, 2.0])
        expected = trace(x_el @ y_el.adjoint())
        assert np.allclose(fs.values, expected)

    def test_affine_closed_form(self, km12):
        alg = km12.algebra
        fs = km12.phi_function(alg.identity(), alg.identity(), grid=[0.0, 0.5, 2.0])
        assert np.allclose(fs.values, [2.0, 3.5, 8.0])   # 2 + 3x

    def test_rank_one_nonnegative(self, km12, rng):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x_el = km12.algebra.element([np.outer(h, h.conj())])
        fs = km12.phi_function(x_el, x_el)
        assert np.min(fs.values.real) >= -1e-12
        assert np.max(np.abs(fs.values.imag)) <= 1e-12

    def test_sesquilinear_in_arguments(self, km12, rng):
        a = random_element_of(km12.algebra, rng)
        b = random_element_of(km12.algebra, rng)
        c = 0.7 - 1.2j
        lhs = km12.phi_function(c * a, b, grid=[1.0]).values
        rhs = c * km12.phi_function(a, b, grid=[1.0]).values
        assert np.allclose(lhs, rhs)
        lhs2 = km12.phi_function(a, c * b, grid=[1.0]).values
        assert np.allclose(lhs2, np.conj(c) * km12.phi_function(a, b, grid=[1.0]).values)


class TestPhiOperator:
    def test_constant_kernel_collapse(self, rng):
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), ConstantKernel(1.0))
        x_el = random_element_of(alg, rng)
        y_el = random_element_of(alg, rng)
        s = random_element_of(alg, rng)
        got = km.phi_operator(x_el, y_el, s)
        want = trace(x_el @ s @ y_el.adjoint()) * np.eye(2)
        assert np.allclose(got.dense(), want, atol=1e-10)

    def test_affine_identity_values(self, km12):
        alg = km12.algebra
        got = km12.phi_operator(alg.identity(), alg.identity(), alg.identity())
        assert np.allclose(got.blocks[0], np.diag([13.0, 34.0]))

    def test_zero_s(self, km12, rng):
        x_el = random_element_of(km12.algebra, rng)
        got = km12.phi_operator(x_el, x_el, km12.algebra.zero())
        assert operator_norm(got) == 0

    def test_diagonal_psd_on_psd_s(self, km12, rng):
        for _ in range(20):
            x_el = random_element_of(km12.algebra, rng)
            g = random_element_of(km12.algebra, rng)
            s = g @ g.adjoint()
            assert km12.phi_operator(x_el, x_el, s).is_psd()

    def test_linear_in_s(self, km12, rng):
        x_el = random_element_of(km12.algebra, rng)
        y_el = random_element_of(km12.algebra, rng)
        s1 = random_element_of(km12.algebra, rng)
        s2 = random_element_of(km12.algebra, rng)
        lhs = km12.phi_operator(x_el, y_el, s1 + 2.5 * s2)
        rhs = km12.phi_operator(x_el, y_el, s1) + 2.5 * km12.phi_operator(x_el, y_el, s2)
        assert np.allclose(lhs.dense(), rhs.dense(), atol=1e-9)


class TestInducedMaps:
    def test_sesquilinear_invariant_and_positive(self, km12):
        phi = km12.as_sesquilinear()
        assert check_left_invariance(phi) <= 1e-12
        assert check_positivity(phi, trials=64).status != "violated"

    def test_operator_valued_positivity_sampled(self, km12):
        ov = km12.as_operator_valued()
        assert ov.check_positivity(trials=16).status == "sampled"

    def test_t_conjugation(self, rng):
        alg = TracedAlgebra([2])
        t = random_element_of(alg, rng)
        km_t = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel(), t)
        km_i = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel())
        x_el = random_element_of(alg, rng)
        got = km_t.phi_element(x_el, x_el)
        base = km_i.phi_element(x_el, x_el)
        assert np.allclose(got.dense(), (t @ base @ t.adjoint()).dense(), atol=1e-9)


class TestBounds:
    def test_zero_t(self, rng):
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel(), alg.zero())
        x_el = random_element_of(alg, rng)
        got = km.phi_operator(x_el, x_el, alg.identity())
        assert operator_norm(got) == 0

    def test_sup_norm_analytic(self, km12):
        assert km12.sup_kernel_norm() == pytest.approx(5.0)   # 1 + 2*2

    def test_bound_sweep(self, km12):
        rep = bound_checks(km12, trials=25, seed=0)
        assert rep.nr_bound_failures == 0
        assert rep.triple_bound_failures == 0
        assert rep.invariance_residual <= 1e-9
        assert rep.positivity_status != "violated"
        assert rep.min_diag_eig >= -1e-9

    def test_bound_sweep_multiblock_with_t(self, rng):
        alg = TracedAlgebra([2, 1], [1.0, 0.5])
        g = random_element_of(alg, rng)
        km = KernelMap(g @ g.adjoint(), ExpAbsDiffKernel(),
                       random_element_of(alg, rng))
        rep = bound_checks(km, trials=15, seed=1)
        assert rep.nr_bound_failures == 0
        assert rep.triple_bound_failures == 0


class TestPropertySweeps:
    def test_phi_function_positive_1000(self, km12, rng):
        grid = [0.0, 0.7, 1.3, 2.0]
        worst = 0.0
        for _ in range(1000):
            x_el = random_element_of(km12.algebra, rng)
            vals = km12.phi_function(x_el, x_el, grid=grid).values
            worst = min(worst, float(np.min(vals.real)))
            assert np.max(np.abs(vals.imag)) <= 1e-10 * (1 + np.max(np.abs(vals)))
        assert worst >= -1e-12

    def test_phi_function_left_invariance_pointwise(self, km12, rng):
        grid = [0.0, 1.0, 2.0]
        for _ in range(100):
            a = random_element_of(km12.algebra, rng)
            x_el = random_element_of(km12.algebra, rng)
            y_el = random_element_of(km12.algebra, rng)
            lhs = km12.phi_function(a @ x_el, y_el, grid=grid).values
            rhs = km12.phi_function(x_el, a.adjoint() @ y_el, grid=grid).values
            scale = 1 + np.max(np.abs(lhs))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_phi_operator_psd_1000(self, km12, rng):
        worst = 0.0
        for _ in range(1000):
            x_el = random_element_of(km12.algebra, rng)
            g = random_element_of(km12.algebra, rng)
            s = g @ g.adjoint()
            val = km12.phi_operator(x_el, x_el, s)
            lam = min(np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min()
                      for b in val.blocks)
            scale = 1 + operator_norm(val)
            worst = min(worst, float(lam) / scale)
        assert worst >= -1e-9

    def test_sup_norm_dominates_sampled_eta(self, rng):
        alg = TracedAlgebra([3])
        g = random_element_of(alg, rng)
        km = KernelMap(g @ g.adjoint(), ExpAbsDiffKernel())
        cap = km.sup_kernel_norm()
        for x in np.linspace(0, km.w_norm, 33):
            assert operator_norm(km.eta(float(x))) <= cap + 1e-12


class TestKernelRegistry:
    def test_by_name(self):
        assert isinstance(kernel_by_name("constant", c=2.0), ConstantKernel)
        assert isinstance(kernel_by_name("one_plus_xt"), OnePlusXTKernel)
        assert isinstance(kernel_by_name("exp_abs_diff"), ExpAbsDiffKernel)
        with pytest.raises(DomainError):
            kernel_by_name("nope")

    def test_grid_kernel_validation(self):
        with pytest.raises(DomainError):
            GridKernel(x_grid=(0.0, 1.0), t_grid=(0.0, 1.0),
                       values=((0.0, -1.0), (0.0, 0.0)))
        # a NaN passes the order and sign tests and would reach the eigensolver
        for x_grid, values in [((0.0, math.nan), ((1.0, 1.0), (1.0, 1.0))),
                               ((0.0, 1.0), ((1.0, math.nan), (1.0, 1.0)))]:
            with pytest.raises(DomainError, match="finite"):
                GridKernel(x_grid=x_grid, t_grid=(0.0, 1.0), values=values)

    @pytest.mark.parametrize("c", [-1.0, math.nan, math.inf])
    def test_constant_kernel_needs_finite_nonnegative_c(self, c):
        with pytest.raises(DomainError, match="c="):
            ConstantKernel(c)

    def test_negative_kernel_rejected(self):
        from nclp.kernels import Kernel

        class Negative(Kernel):
            def eval(self, x, t):
                return np.full(np.broadcast_shapes(np.shape(x), np.shape(t)), -1.0)

            def sup_norm(self, bound):
                return 1.0

        alg = TracedAlgebra([2])
        with pytest.raises(DomainError):
            KernelMap(alg.diagonal([1.0, 2.0]), Negative())

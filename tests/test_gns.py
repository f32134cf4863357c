import numpy as np
import pytest

from nclp.algebra import TracedAlgebra, schatten_norm
from nclp.errors import ConditioningError, PreconditionError
from nclp import gns
from nclp.gns import gns_construct, null_space, verify_representation
from nclp.sesquilinear import (SesquilinearMap, check_left_invariance, evaluate,
                               from_linear_map)
from nclp.star import cyclic_group_algebra, matrix_algebra
from nclp.suites import random_positive_linear_map

from conftest import gram_of


@pytest.fixture
def scal():
    return TracedAlgebra([1])


def scalar(value):
    alg = TracedAlgebra([1])
    return alg.element([np.array([[value]], dtype=complex)])


def omega_trace():
    return [scalar(1.0 if i in (0, 3) else 0.0) for i in range(4)]


def omega_a11():
    return [scalar(1.0 if i == 0 else 0.0) for i in range(4)]


class TestNullSpace:
    def test_trace_full_rank(self, scal):
        phi = from_linear_map(omega_trace(), matrix_algebra(2), scal)
        assert null_space(phi).shape[1] == 0

    def test_a11_kernel_is_second_column_span(self, scal):
        # omega(a* a) = sum_k |a_k1|^2: kernel = matrices with zero first column
        phi = from_linear_map(omega_a11(), matrix_algebra(2), scal)
        kernel = null_space(phi)
        assert kernel.shape[1] == 2
        for v in kernel.T:
            assert abs(v[0]) <= 1e-12 and abs(v[2]) <= 1e-12   # e11, e21 coeffs
            assert schatten_norm(evaluate(phi, v, v), 2.0) <= 1e-12

    def test_zero_map_full_kernel(self, scal):
        phi = from_linear_map([scalar(0.0)] * 4, matrix_algebra(2), scal)
        assert null_space(phi).shape[1] == 4

    def test_gap_band_aborts(self, scal):
        # one eigenvalue inside (1e-10, 1e-6) * lambda_max must refuse
        m2 = matrix_algebra(2)
        omega = [scalar(1.0 if i == 0 else 0.0) for i in range(4)]
        omega[3] = scalar(1e-8)    # omega = a11 + 1e-8 a22
        phi = from_linear_map(omega, m2, scal)
        with pytest.raises(ConditioningError):
            null_space(phi)


class TestConstruction:
    def test_trace_omega_regular_representation(self, scal):
        rep = gns_construct(omega_trace(), matrix_algebra(2), scal)
        assert rep.quotient_dim == 4
        assert rep.residuals["reconstruction"] <= 1e-12
        assert rep.residuals["multiplicativity"] <= 1e-12
        assert rep.residuals["adjointness"] <= 1e-12
        assert rep.residuals["cyclicity_rank"] == 4

    def test_a11_two_dimensional_defining_rep(self, scal):
        rep = gns_construct(omega_a11(), matrix_algebra(2), scal)
        assert rep.quotient_dim == 2
        # pi is unitarily equivalent to the defining representation: check
        # dimensions, multiplicativity and the matrix-unit relations
        e11, e12 = rep.pi[0], rep.pi[1]
        assert np.allclose(e11 @ e11, e11, atol=1e-10)
        assert np.allclose(e11 @ e12, e12, atol=1e-10)
        vr = verify_representation(rep, trials=30, seed=2)
        assert vr.cyclic and vr.reconstruction <= 1e-10

    def test_z2_character(self, scal):
        z2 = cyclic_group_algebra(2)
        rep = gns_construct([scalar(1.0), scalar(1.0)], z2, scal)
        assert rep.quotient_dim == 1
        assert np.allclose(rep.pi[1], [[1.0]])

    def test_zero_omega_vacuous(self, scal):
        rep = gns_construct([scalar(0.0)] * 4, matrix_algebra(2), scal)
        assert rep.quotient_dim == 0
        vr = verify_representation(rep, trials=5, seed=0)
        assert vr.cyclic_span_dim == 0

    def test_reconstruction_identity_for_omega(self, scal, rng):
        # omega(a) = <pi(a) xi, xi>_Phi = Phi(class(pi(a) xi), class(xi))
        dom = matrix_algebra(2)
        target = TracedAlgebra([2])
        omega = random_positive_linear_map(dom, target, rank=2, rng=rng)
        rep = gns_construct(omega, dom, target)
        for i in range(4):
            lhs = omega[i]
            u = rep.class_coords(rep.pi[i] @ rep.cyclic)
            v = rep.class_coords(rep.cyclic)
            rhs = evaluate(rep.phi, u, v)
            assert np.allclose(lhs.dense(), rhs.dense(), atol=1e-10)

    def test_matrix3_and_cyclic4_random(self, rng):
        for dom, target in ((matrix_algebra(3), TracedAlgebra([1])),
                            (cyclic_group_algebra(4), TracedAlgebra([2, 1], [1, 0.5]))):
            omega = random_positive_linear_map(dom, target, rank=2, rng=rng)
            rep = gns_construct(omega, dom, target)
            assert rep.residuals["reconstruction"] <= 1e-10
            assert rep.residuals["multiplicativity"] <= 1e-9
            assert rep.residuals["adjointness"] <= 1e-9
            assert rep.residuals["cyclicity_rank"] == rep.quotient_dim

    def test_quotient_plus_null_is_domain(self, rng):
        dom = matrix_algebra(2)
        target = TracedAlgebra([1])
        omega = random_positive_linear_map(dom, target, rank=1, rng=rng)
        rep = gns_construct(omega, dom, target)
        assert rep.quotient_dim + rep.null_basis.shape[1] == dom.dim

    def test_rescaling_keeps_pi(self, scal, rng):
        dom = matrix_algebra(2)
        target = TracedAlgebra([1])
        omega = random_positive_linear_map(dom, target, rank=2, rng=rng)
        rep1 = gns_construct(omega, dom, target)
        rep2 = gns_construct([3.0 * o for o in omega], dom, target)
        assert rep1.quotient_dim == rep2.quotient_dim
        for m1, m2 in zip(rep1.pi, rep2.pi):
            assert np.allclose(m1, m2, atol=1e-10)

    def test_raw_invariant_map_source(self):
        # feed a left-invariant SesquilinearMap directly
        from nclp.kernels import KernelMap, OnePlusXTKernel
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel())
        phi = km.as_sesquilinear()
        rep = gns_construct(phi, phi.domain_algebra, alg)
        assert rep.quotient_dim == 4
        assert rep.residuals["reconstruction"] <= 1e-10

    @pytest.mark.parametrize("as_map", [True, False], ids=["map", "omega"])
    def test_invariance_is_measured_once(self, monkeypatch, as_map):
        # a map source reports the residual its precondition measured
        dom, target = matrix_algebra(2), TracedAlgebra([2, 1], [1.0, 0.5])
        omega = random_positive_linear_map(dom, target, rank=2, rng=np.random.default_rng(5))
        phi = from_linear_map(omega, dom, target)
        expected = check_left_invariance(phi)
        calls = []

        def counted(psi):
            calls.append(psi)
            return check_left_invariance(psi)

        monkeypatch.setattr(gns, "check_left_invariance", counted)
        rep = gns_construct(phi if as_map else omega, dom, target)
        assert len(calls) == 1
        assert rep.residuals["invariance"] == expected

    def test_scalar_gram_is_built_once(self, monkeypatch, scal):
        # the construction's null space is the one null_space gives, bit for
        # bit, from the scalar gram it built itself
        dom = matrix_algebra(2)
        phi = from_linear_map(omega_a11(), dom, scal)
        want = null_space(phi)
        calls = []

        def counted(psi, _f=gns.scalar_gram):
            calls.append(psi)
            return _f(psi)

        monkeypatch.setattr(gns, "scalar_gram", counted)
        rep = gns_construct(phi, dom, scal)
        assert len(calls) == 1
        assert want.shape[1] == 2 and rep.null_basis.tobytes() == want.tobytes()

    def test_non_invariant_map_rejected(self, tr2):
        dom = matrix_algebra(2)
        # gram with a non-invariant twist: Phi(x, y) = x_0 conj(y_0) * I only
        gram = [[tr2.identity() if i == j == 0 else tr2.zero()
                 for j in range(4)] for i in range(4)]
        phi = SesquilinearMap(tr2, gram_of(tr2, gram), domain_algebra=dom)
        with pytest.raises(PreconditionError):
            gns_construct(phi, dom, tr2)

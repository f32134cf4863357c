import numpy as np
import pytest

from nclp.errors import DomainError, StructureError
from nclp.star import (AlgebraVector, StarAlgebra, cyclic_group_algebra, matrix_algebra,
                       matrix_units_algebra)


class TestBuiltins:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_algebra_axioms(self, k):
        alg = matrix_algebra(k)
        assert alg.dim == k * k
        assert max(alg.axiom_residuals().values()) <= 1e-12
        assert alg.is_commutative() == (k == 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_algebra_is_one_block_of_matrix_units(self, k):
        alg, basis = matrix_units_algebra((k,))
        assert matrix_algebra(k) == alg
        # structure constants read off the basis matrices e_ab (orthonormal)
        flat = np.array(basis).reshape(k * k, -1)
        prods = np.einsum("iab,jbc->ijac", np.array(basis), np.array(basis))
        assert np.array_equal(alg.mult, prods.reshape(k * k, k * k, -1) @ flat.T)
        adjoints = np.array([e.conj().T for e in basis]).reshape(k * k, -1)
        assert np.array_equal(alg.invol, flat @ adjoints.T)
        assert np.array_equal(alg.unit, flat @ np.eye(k).ravel())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cyclic_axioms(self, n):
        alg = cyclic_group_algebra(n)
        assert alg.dim == n
        assert max(alg.axiom_residuals().values()) <= 1e-12
        assert alg.is_commutative()

    def test_matrix_unit_product(self):
        m2 = matrix_algebra(2)
        e11, e12 = m2.basis_vector(0), m2.basis_vector(1)
        assert np.allclose(m2.multiply(e11, e12), e12)

    def test_unit_element(self):
        m2 = matrix_algebra(2)
        # unit = e11 + e22 in row-major matrix-unit order
        assert np.allclose(m2.unit, [1, 0, 0, 1])
        a = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.allclose(m2.multiply(a, m2.unit), a)
        assert np.allclose(m2.multiply(m2.unit, a), a)

    def test_z2_zero_divisor(self):
        z2 = cyclic_group_algebra(2)
        one, g = z2.basis_vector(0), z2.basis_vector(1)
        prod = z2.multiply(one + g, one - g)
        assert np.allclose(prod, 0)  # (1+g)(1-g) = 1 - g^2 = 0

    def test_z4_involution(self):
        z4 = cyclic_group_algebra(4)
        g = z4.basis_vector(1)
        assert np.allclose(z4.involute(g), z4.basis_vector(3))  # g* = g^3


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["mult", "invol", "unit"])
    def test_non_finite_structure_rejected(self, name, bad):
        # a NaN makes every axiom residual NaN, which no residual test may pass
        parts = {k: getattr(matrix_algebra(1), k).copy() for k in ("mult", "invol", "unit")}
        parts[name].flat[0] = bad
        with pytest.raises(DomainError, match=name), np.errstate(invalid="ignore"):
            StarAlgebra(**parts)

    def test_overflowing_residual_is_not_a_pass(self):
        # finite constants whose associativity residual overflows to inf - inf
        with pytest.raises(StructureError, match="associativity"), \
                np.errstate(invalid="ignore", over="ignore"):
            StarAlgebra(mult=np.array([[[1e200]]]), invol=np.array([[1.0]]),
                        unit=np.array([1e-200]))


class TestInvolution:
    def test_matrix_unit_star(self):
        m2 = matrix_algebra(2)
        assert np.allclose(m2.involute(m2.basis_vector(1)), m2.basis_vector(2))

    def test_conjugate_linear(self):
        m2 = matrix_algebra(2)
        v = 1j * m2.unit
        assert np.allclose(m2.involute(v), -1j * m2.unit)

    def test_antimultiplicative_random(self):
        m3 = matrix_algebra(3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            lhs = m3.involute(m3.multiply(a, b))
            rhs = m3.multiply(m3.involute(b), m3.involute(a))
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestVectors:
    def test_operations(self):
        m2 = matrix_algebra(2)
        a = AlgebraVector(m2, [1, 0, 0, -1])
        b = AlgebraVector(m2, [0, 1, 1, 0])
        assert a.is_symmetric()
        assert (a @ b).coords is not None
        assert np.allclose((a @ b).coords, m2.multiply(a.coords, b.coords))
        assert np.allclose(a.star().coords, a.coords)

    def test_algebra_mismatch(self):
        a = AlgebraVector(matrix_algebra(2), [1, 0, 0, 1])
        b = AlgebraVector(cyclic_group_algebra(4), [1, 0, 0, 0])
        with pytest.raises(StructureError):
            a @ b


class TestMatrixUnits:
    def test_multi_block(self):
        alg, basis = matrix_units_algebra((2, 1))
        assert alg.dim == 5
        assert max(alg.axiom_residuals().values()) <= 1e-12
        # basis matrices multiply like the algebra says
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(0, 5, size=2)
            prod = basis[i] @ basis[j]
            coords = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
            rebuilt = sum(c * m for c, m in zip(coords, basis))
            assert np.allclose(prod, rebuilt)

    def test_unit_matches_identity(self):
        alg, basis = matrix_units_algebra((2, 2))
        ident = sum(c * m for c, m in zip(alg.unit, basis))
        assert np.allclose(ident, np.eye(4))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.algebra import (PExponent, TracedAlgebra, dual_norm_achiever,
                          functional_calculus, holder_check, jordan_split,
                          operator_norm, polar_decomposition, real_imag_parts,
                          schatten_norm, spectral_tail_projection, trace,
                          trace_pairing_checks)
from nclp.errors import DomainError, PreconditionError, StructureError

from nclp.sampling import random_psd_with_spectrum, rng_from

from conftest import random_element_of


def small_matrix(draw, n):
    re = draw(st.lists(st.lists(st.floats(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))
    im = draw(st.lists(st.lists(st.floats(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))
    return np.asarray(re) + 1j * np.asarray(im)


@st.composite
def elements(draw):
    alg = TracedAlgebra([2, 1], [1.0, 0.5])
    return alg.element([small_matrix(draw, 2), small_matrix(draw, 1)])


class TestConstruction:
    def test_invariants(self):
        with pytest.raises(StructureError):
            TracedAlgebra([])
        with pytest.raises(StructureError):
            TracedAlgebra([2, 0])
        with pytest.raises(StructureError):
            TracedAlgebra([2], [0.0])
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                TracedAlgebra([2, 1], [1.0, bad])
        alg = TracedAlgebra([2, 3], [1.0, 0.5])
        assert alg.trace_of_identity == pytest.approx(2 + 1.5)

    def test_block_shape_mismatch(self, tr2):
        with pytest.raises(StructureError):
            tr2.element([np.zeros((3, 3))])

    def test_coords_roundtrip(self, weighted, rng):
        x = random_element_of(weighted, rng)
        y = weighted.from_coords(x.coords())
        assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))

    def test_elements_immutable(self, tr2):
        x = tr2.identity()
        with pytest.raises(ValueError):
            x.blocks[0][0, 0] = 5.0


class TestLayout:
    """The block-major coordinate layout, on a weighted three-block algebra."""

    ALG = TracedAlgebra([2, 1, 3], [1.0, 0.5, 2.0])

    def test_element_round_trips(self, rng):
        x = random_element_of(self.ALG, rng)
        for y in (self.ALG.from_coords(x.coords()), self.ALG.from_dense(x.dense())):
            assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))

    def test_stacked_splits_match_single_items(self, rng):
        alg = self.ALG
        coords = rng.standard_normal((4, 5, alg.coord_dim)) \
            + 1j * rng.standard_normal((4, 5, alg.coord_dim))
        blocks = alg.split_coords(coords)
        assert [b.shape for b in blocks] == [(4, 5, n, n) for n in alg.block_sizes]
        for i in range(4):
            for j in range(5):
                x = alg.from_coords(coords[i, j])
                assert all(np.array_equal(b[i, j], xb) for b, xb in zip(blocks, x.blocks))
        spec = rng.standard_normal((3, alg.total_dim))
        for i in range(3):
            x = alg.diagonal(spec[i])
            for v, xb in zip(alg.split_spectrum(spec), x.blocks):
                assert np.array_equal(np.diag(v[i]), xb)

    def test_diagonal_blocks_of_block_diag(self, rng):
        alg = self.ALG
        blocks = [rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
                  for n in alg.block_sizes]
        mats = alg.block_diag(blocks)
        assert mats.shape == (2, 3, alg.total_dim, alg.total_dim)
        assert all(np.array_equal(a, b) for a, b in zip(alg.diagonal_blocks(mats), blocks))
        for view in alg.diagonal_blocks(mats):
            view[...] = 0.0
        assert not mats.any()                 # zero off the blocks; the views write through

    def test_matrix_units_in_coordinate_order(self):
        alg = self.ALG
        units = alg.matrix_units()
        assert units.shape == (alg.coord_dim, alg.total_dim, alg.total_dim)
        for u, e in zip(units, np.eye(alg.coord_dim)):
            assert np.array_equal(u, alg.from_coords(e).dense())

    @pytest.mark.parametrize("call", [
        lambda a: a.split_spectrum(np.zeros(a.total_dim + 1)),
        lambda a: a.split_coords(np.zeros((2, a.coord_dim - 1))),
        lambda a: a.diagonal_blocks(np.zeros((a.total_dim, a.total_dim + 1))),
        lambda a: a.from_coords(np.zeros(a.coord_dim + 1)),
        lambda a: a.from_dense(np.zeros((2, a.total_dim, a.total_dim))),
        lambda a: a.diagonal([1.0] * (a.total_dim - 1)),
        lambda a: random_psd_with_spectrum(a, rng_from(0), [1.0] * (a.total_dim + 1)),
    ], ids=["spectrum", "coords", "dense-blocks", "from-coords", "from-dense", "diagonal",
            "psd-spectrum"])
    def test_wrong_lengths_raise(self, call):
        with pytest.raises(StructureError):
            call(self.ALG)


class TestTrace:
    def test_identity(self, tr2):
        assert trace(tr2.identity()) == pytest.approx(2.0)

    def test_weighted_sum(self):
        alg = TracedAlgebra([1, 1], [2.0, 1.0])
        assert trace(alg.diagonal([1.0, 1.0])) == pytest.approx(3.0)

    def test_nilpotent(self, tr2):
        x = tr2.element([np.array([[0, 1], [0, 0]])])
        assert trace(x) == 0

    def test_cyclic(self, weighted, rng):
        x = random_element_of(weighted, rng)
        y = random_element_of(weighted, rng)
        assert trace(x @ y) == pytest.approx(trace(y @ x), abs=1e-10)


class TestSchattenNorm:
    def test_diag_3_4(self, tr2):
        d = tr2.diagonal([3.0, 4.0])
        assert schatten_norm(d, 1.0) == pytest.approx(7.0)
        assert schatten_norm(d, 2.0) == pytest.approx(5.0)
        assert schatten_norm(d, math.inf) == pytest.approx(4.0)

    def test_rejects_small_p(self, tr2):
        with pytest.raises(DomainError):
            schatten_norm(tr2.identity(), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(x=elements(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_adjoint_and_homogeneity(self, x, p):
        n = schatten_norm(x, p)
        assert schatten_norm(x.adjoint(), p) == pytest.approx(n, abs=1e-9 * (1 + n))
        assert schatten_norm(2.5 * x, p) == pytest.approx(2.5 * n, rel=1e-10, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(x=elements(), y=elements(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_triangle(self, x, y, p):
        lhs = schatten_norm(x + y, p)
        rhs = schatten_norm(x, p) + schatten_norm(y, p)
        assert lhs <= rhs + 1e-9 * (1 + rhs)

    def test_functional_calculus_oracle_for_noninteger_p(self, weighted, rng):
        # independent route: ||X||_p^p = rho((X*X)^(p/2)) via functional calculus
        from nclp.algebra import functional_calculus
        for _ in range(15):
            x = random_element_of(weighted, rng)
            for p in (1.25, 1.5, 2.5, 3.7):
                power = functional_calculus(x.adjoint() @ x,
                                            lambda lam, p=p: lam ** (p / 2.0),
                                            clip_psd=True)
                oracle = trace(power).real ** (1.0 / p)
                assert schatten_norm(x, p) == pytest.approx(oracle, rel=1e-10)

    def test_equal_norms_of_adjoint_and_modulus(self, weighted, rng):
        from nclp.algebra import abs_element
        for _ in range(20):
            x = random_element_of(weighted, rng)
            for p in (1.0, 1.7, 2.0, 3.0, math.inf):
                n = schatten_norm(x, p)
                assert schatten_norm(x.adjoint(), p) == pytest.approx(n, rel=1e-9)
                assert schatten_norm(abs_element(x), p) == pytest.approx(n, rel=1e-9)

    def test_finite_trace_containment(self, weighted, rng):
        # ||X||_p <= ||X||_r * rho(I)^(1/p - 1/r) for r > p
        rho_i = weighted.trace_of_identity
        for _ in range(25):
            x = random_element_of(weighted, rng)
            for p, r in ((1.0, 2.0), (1.5, 3.0), (2.0, math.inf)):
                lhs = schatten_norm(x, p)
                inv_r = 0.0 if math.isinf(r) else 1.0 / r
                rhs = schatten_norm(x, r) * rho_i ** (1.0 / p - inv_r)
                assert lhs <= rhs + 1e-9 * (1 + rhs)


class TestPolar:
    def test_shift(self, tr2):
        x = tr2.element([np.array([[0, 1], [0, 0]])])
        z, absx = polar_decomposition(x)
        assert np.allclose(z.blocks[0], [[0, 1], [0, 0]], atol=1e-12)
        assert np.allclose(absx.blocks[0], np.diag([0, 1]), atol=1e-12)

    def test_psd_fixed_point(self, tr2, rng):
        g = random_element_of(tr2, rng)
        p = g @ g.adjoint()
        z, absp = polar_decomposition(p)
        assert np.allclose(absp.blocks[0], p.blocks[0], atol=1e-10)
        support = z.adjoint() @ z
        assert support.is_projection()

    def test_sign_decomposition(self, tr2):
        z, a = polar_decomposition(tr2.diagonal([2.0, -1.0]))
        assert np.allclose(z.blocks[0], np.diag([1, -1]), atol=1e-12)
        assert np.allclose(a.blocks[0], np.diag([2, 1]), atol=1e-12)

    def test_zero(self, tr2):
        z, a = polar_decomposition(tr2.zero())
        assert operator_norm(z) == 0 and operator_norm(a) == 0

    def test_reconstruction_random(self, weighted, rng):
        for _ in range(30):
            x = random_element_of(weighted, rng)
            z, a = polar_decomposition(x)
            err = max(np.max(np.abs(b1 - b2)) for b1, b2 in
                      zip((z @ a).blocks, x.blocks))
            assert err <= 1e-10 * max(operator_norm(x), 1.0)
            assert a.is_psd()
            assert z.is_partial_isometry()


class TestSpectralTail:
    def test_thresholding(self):
        alg = TracedAlgebra([3])
        w = alg.diagonal([0.1, 0.5, 2.0])
        p = spectral_tail_projection(w, 1.0 / 3.0)
        assert np.allclose(p.blocks[0], np.diag([0, 1, 1]), atol=1e-12)
        resid = w @ (alg.identity() - p)
        assert schatten_norm(resid, 1.0) == pytest.approx(0.1)

    def test_above_norm_gives_zero(self, tr2):
        w = tr2.diagonal([1.0, 0.5])
        p = spectral_tail_projection(w, 2.0)
        assert operator_norm(p) == 0

    def test_identity(self, tr2):
        p = spectral_tail_projection(tr2.identity(), 0.5)
        assert np.allclose(p.blocks[0], np.eye(2))

    def test_rejects_non_psd(self, tr2):
        with pytest.raises(DomainError):
            spectral_tail_projection(tr2.diagonal([1.0, -1.0]), 0.5)

    def test_infinity_norm_bound(self, weighted, rng):
        for _ in range(20):
            g = random_element_of(weighted, rng)
            w = g @ g.adjoint()
            t = 0.4 * max(operator_norm(w), 1e-6)
            p = spectral_tail_projection(w, t)
            assert p.is_projection()
            assert operator_norm(w @ (weighted.identity() - p)) <= t + 1e-10

    def test_commutes_with_w(self, tr2, rng):
        g = random_element_of(tr2, rng)
        w = g @ g.adjoint()
        p = spectral_tail_projection(w, 0.5)
        comm = w @ p - p @ w
        assert operator_norm(comm) <= 1e-10 * (1 + operator_norm(w))


class TestFunctionalCalculus:
    def test_sqrt(self, tr2):
        w = tr2.diagonal([1.0, 4.0])
        r = functional_calculus(w, np.sqrt)
        assert np.allclose(r.blocks[0], np.diag([1, 2]))

    def test_constant_one(self, tr2, rng):
        g = random_element_of(tr2, rng)
        h = 0.5 * (g + g.adjoint())
        r = functional_calculus(h, lambda lam: np.ones_like(lam))
        assert np.allclose(r.blocks[0], np.eye(2), atol=1e-12)

    def test_affine(self, tr2):
        w = tr2.diagonal([1.0, 2.0])
        r = functional_calculus(w, lambda lam: 1 + 3 * lam)
        assert np.allclose(r.blocks[0], np.diag([4, 7]))

    def test_multiplicative(self, tr2, rng):
        g = random_element_of(tr2, rng)
        h = 0.5 * (g + g.adjoint())
        fg = functional_calculus(h, lambda lam: lam * np.exp(lam))
        f_then_g = functional_calculus(h, np.exp) @ h
        assert np.allclose(fg.blocks[0], f_then_g.blocks[0], atol=1e-9)

    def test_undefined_value_raises(self, tr2):
        w = tr2.diagonal([1.0, -4.0])
        with pytest.raises(DomainError):
            functional_calculus(w, np.sqrt)   # sqrt of a negative eigenvalue

    def test_requires_hermitian(self, tr2):
        x = tr2.element([np.array([[0, 1], [0, 0]])])
        with pytest.raises(DomainError):
            functional_calculus(x, np.sqrt)


class TestRealImag:
    def test_hermitian_input(self, tr2, rng):
        g = random_element_of(tr2, rng)
        h = 0.5 * (g + g.adjoint())
        re, im = real_imag_parts(h)
        assert np.allclose(re.blocks[0], h.blocks[0])
        assert np.allclose(im.blocks[0], 0)

    def test_i_identity(self, tr2):
        re, im = real_imag_parts(1j * tr2.identity())
        assert np.allclose(re.blocks[0], 0)
        assert np.allclose(im.blocks[0], np.eye(2))

    def test_shift_formula(self, tr2):
        x = tr2.element([np.array([[0, 1], [0, 0]])])
        re, im = real_imag_parts(x)
        assert np.allclose(re.blocks[0], 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.allclose(im.blocks[0], 0.5 * np.array([[0, -1j], [1j, 0]]))
        assert re.is_hermitian() and im.is_hermitian()

    @settings(max_examples=30, deadline=None)
    @given(x=elements())
    def test_reconstruction(self, x):
        re, im = real_imag_parts(x)
        back = re + 1j * im
        assert all(np.allclose(a, b, atol=1e-12) for a, b in zip(back.blocks, x.blocks))


class TestJordanSplit:
    def test_real_diagonal(self, tr2):
        x1, x2, x3, x4 = jordan_split(tr2.diagonal([1.0, -2.0]))
        assert np.allclose(x1.blocks[0], np.diag([1, 0]))
        assert np.allclose(x2.blocks[0], np.diag([0, 2]))
        assert operator_norm(x3) == pytest.approx(0, abs=1e-12)
        assert operator_norm(x4) == pytest.approx(0, abs=1e-12)

    def test_imaginary_diagonal(self, tr2):
        x1, x2, x3, x4 = jordan_split(1j * tr2.diagonal([1.0, -1.0]))
        assert operator_norm(x1) == pytest.approx(0, abs=1e-12)
        assert np.allclose(x3.blocks[0], np.diag([1, 0]))
        assert np.allclose(x4.blocks[0], np.diag([0, 1]))

    def test_shift_oracle(self, tr2):
        # oracle: dense eigendecomposition of Re X = [[0,.5],[.5,0]]
        x = tr2.element([np.array([[0, 1], [0, 0]])])
        lam, q = np.linalg.eigh(np.array([[0, 0.5], [0.5, 0]]))
        pos = (q * np.maximum(lam, 0)) @ q.conj().T
        x1 = jordan_split(x)[0]
        assert np.allclose(x1.blocks[0], pos, atol=1e-12)
        assert np.allclose(x1.blocks[0], 0.25 * np.ones((2, 2)), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(x=elements())
    def test_invariants(self, x):
        x1, x2, x3, x4 = jordan_split(x)
        tol = 1e-10 * (1 + x.max_abs_entry)
        for part in (x1, x2, x3, x4):
            assert part.is_psd()
        assert operator_norm(x1 @ x2) <= tol
        assert operator_norm(x3 @ x4) <= tol
        back = x1 - x2 + 1j * (x3 - x4)
        err = max(np.max(np.abs(a - b), initial=0.0)
                  for a, b in zip(back.blocks, x.blocks))
        assert err <= tol
        for p in (1.0, 2.0, math.inf):
            assert schatten_norm(x1 - x2, p) == pytest.approx(
                schatten_norm(x1 + x2, p), abs=1e-9 * (1 + x.max_abs_entry))


class TestHolder:
    def test_identity_equality(self, tr2):
        rep = holder_check(tr2.identity(), tr2.identity(), 2.0)
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.holds

    def test_zero(self, tr2, rng):
        rep = holder_check(random_element_of(tr2, rng), tr2.zero(), 3.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.holds

    def test_disjoint_supports(self, tr2):
        rep = holder_check(tr2.diagonal([1.0, 0.0]), tr2.diagonal([0.0, 1.0]), 1.5)
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.lhs < rep.rhs

    def test_random_sweep(self, weighted, rng):
        for _ in range(200):
            a = random_element_of(weighted, rng)
            b = random_element_of(weighted, rng)
            for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                rep = holder_check(a, b, p)
                assert rep.holds


class TestTracePairing:
    def test_psd_pair(self, tr2):
        d = tr2.diagonal([1.0, 2.0])
        rep = trace_pairing_checks(d, d, "psd")
        assert rep.value.real == pytest.approx(5.0)
        assert rep.real_part_ok and rep.imag_part_ok

    def test_hermitian_pair(self, tr2):
        d = tr2.diagonal([1.0, -1.0])
        rep = trace_pairing_checks(d, d, "hermitian")
        assert rep.value.real == pytest.approx(2.0)
        assert rep.imag_part_ok

    def test_rank_one_inner_product_oracle(self, tr2, rng):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = tr2.element([np.outer(x, x.conj())])
        b = tr2.element([np.outer(y, y.conj())])
        rep = trace_pairing_checks(a, b, "psd")
        assert rep.value.real == pytest.approx(abs(np.vdot(y, x)) ** 2, rel=1e-10)

    def test_declaration_validated(self, tr2):
        with pytest.raises(PreconditionError):
            trace_pairing_checks(tr2.diagonal([1.0, -1.0]), tr2.identity(), "psd")

    def test_flags_pass_on_generated_inputs(self, weighted, rng):
        for _ in range(100):
            g = random_element_of(weighted, rng)
            h = random_element_of(weighted, rng)
            psd_rep = trace_pairing_checks(g @ g.adjoint(), h @ h.adjoint(), "psd")
            assert psd_rep.real_part_ok and psd_rep.imag_part_ok
            herm_rep = trace_pairing_checks(0.5 * (g + g.adjoint()),
                                            0.5 * (h + h.adjoint()), "hermitian")
            assert herm_rep.imag_part_ok


class TestDualNormAchiever:
    def test_p3_closed_form(self, tr2):
        a = tr2.diagonal([2.0, -1.0])
        b, attained = dual_norm_achiever(a, 3.0)
        expected_b = np.diag([4.0, -1.0]) / 9 ** (2.0 / 3.0)
        assert np.allclose(b.blocks[0], expected_b, atol=1e-10)
        assert attained == pytest.approx(9 ** (1.0 / 3.0), rel=1e-12)

    def test_psd_p2(self, tr2, rng):
        g = random_element_of(tr2, rng)
        a = g @ g.adjoint()
        b, attained = dual_norm_achiever(a, 2.0)
        n2 = schatten_norm(a, 2.0)
        assert np.allclose(b.blocks[0], a.blocks[0] / n2, atol=1e-9)
        assert attained == pytest.approx(n2, rel=1e-10)

    def test_rank_one(self, tr2, rng):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = tr2.element([np.outer(u, u.conj())])
        for p in (1.5, 2.0, 3.0):
            b, attained = dual_norm_achiever(a, p)
            assert attained == pytest.approx(schatten_norm(a, p), rel=1e-9)
            assert schatten_norm(b, p / (p - 1)) == pytest.approx(1.0, rel=1e-9)

    def test_attains_duality_sweep(self, weighted, rng):
        for p in (1.5, 2.0, 3.0):
            for _ in range(200):
                a = random_element_of(weighted, rng)
                b, attained = dual_norm_achiever(a, p)
                norm_p = schatten_norm(a, p)
                assert schatten_norm(b, p / (p - 1)) == pytest.approx(1.0, rel=1e-9)
                assert attained == pytest.approx(norm_p, rel=1e-9)

    def test_rejects_zero_and_bad_p(self, tr2):
        with pytest.raises(DomainError):
            dual_norm_achiever(tr2.zero(), 2.0)
        with pytest.raises(DomainError):
            dual_norm_achiever(tr2.identity(), 1.0)


class TestPExponent:
    def test_conjugates(self):
        assert PExponent(2.0).q == pytest.approx(2.0)
        assert PExponent(1.0).q == math.inf
        assert PExponent(math.inf).q == 1.0
        assert PExponent(3.0).q == pytest.approx(1.5)

    def test_rejects_below_one(self):
        with pytest.raises(DomainError):
            PExponent(0.5)

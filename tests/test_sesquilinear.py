import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.algebra import AlgebraElement, TracedAlgebra, _stacked_schatten, schatten_norm, trace
from nclp.errors import DomainError, PreconditionError, StructureError
from nclp.gns import gns_construct
from nclp import sesquilinear
from nclp.inequalities import check_cs_lp
from nclp.sampling import random_complex_matrix, rng_from
from nclp.sesquilinear import (SesquilinearMap, _block_gram_matrices, _combine_rows,
                               check_left_invariance, check_positivity, evaluate,
                               evaluate_stack, from_linear_map, random_map, scalar_gram)
from nclp.star import cyclic_group_algebra, matrix_algebra
from nclp.suites import random_operator_valued, random_positive_linear_map, target_pool

from conftest import gram_of


@pytest.fixture
def kraus_map(tr2):
    return random_map(3, tr2, rank=2, seed=11)


class TestEvaluate:
    def test_basis_evaluation(self, kraus_map):
        x = np.array([0, 1, 0])
        y = np.array([0, 0, 1])
        val = evaluate(kraus_map, x, y)
        assert np.allclose(val.blocks[0], kraus_map.gram[0][1, 2])

    def test_zero_vector(self, kraus_map):
        val = evaluate(kraus_map, np.zeros(3), np.ones(3))
        assert np.allclose(val.blocks[0], 0)

    def test_diagonal_psd(self, kraus_map, rng):
        for _ in range(25):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert evaluate(kraus_map, x, x).is_psd()

    def test_sesquilinearity(self, kraus_map, rng):
        x1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = evaluate(kraus_map, a * x1 + b * x2, y)
        rhs = a * evaluate(kraus_map, x1, y) + b * evaluate(kraus_map, x2, y)
        assert np.allclose(lhs.blocks[0], rhs.blocks[0], atol=1e-10)
        lhs2 = evaluate(kraus_map, y, a * x1)
        rhs2 = np.conj(a) * evaluate(kraus_map, y, x1)
        assert np.allclose(lhs2.blocks[0], rhs2.blocks[0], atol=1e-10)

    def test_dimension_mismatch(self, kraus_map):
        with pytest.raises(StructureError):
            evaluate(kraus_map, np.ones(2), np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_vector_rejected(self, kraus_map, bad):
        v = np.array([bad, 0.0, 1.0])
        with pytest.raises(DomainError):
            evaluate(kraus_map, v, np.ones(3))
        with pytest.raises(DomainError):
            evaluate(kraus_map, np.ones(3), v)
        with pytest.raises(DomainError):
            evaluate_stack(kraus_map, np.ones((2, 3)), np.stack([np.ones(3), v]))

    def test_hermitian_kraus_1000(self, kraus_map, rng):
        for _ in range(1000):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = evaluate(kraus_map, y, x)
            rhs = evaluate(kraus_map, x, y).adjoint()
            assert np.allclose(lhs.blocks[0], rhs.blocks[0], atol=1e-10)

    def test_polarization(self, kraus_map, rng):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        acc = kraus_map.target.zero()
        for k in range(4):
            z = x + (1j ** k) * y
            acc = acc + (1j ** k) * evaluate(kraus_map, z, z)
        assert np.allclose((0.25 * acc).blocks[0],
                           evaluate(kraus_map, x, y).blocks[0], atol=1e-10)


class TestPositivity:
    def test_kraus_certified(self, kraus_map):
        cert = check_positivity(kraus_map)
        assert cert.status == "certified"

    def test_scalar_counterexample(self):
        alg = TracedAlgebra([2])
        gram = gram_of(alg, [[alg.diagonal([1.0, -1.0])]])
        cert = check_positivity(SesquilinearMap(alg, gram), trials=16, seed=0)
        assert cert.status == "violated"
        assert cert.witness is not None
        assert cert.witness_min_eig < 0

    def test_block_psd_sufficient(self, tr2, rng):
        # gram of a Kraus map, with the generator stripped
        phi = random_map(2, tr2, rank=2, seed=3)
        bare = SesquilinearMap(tr2, phi.gram)
        cert = check_positivity(bare)
        assert cert.status == "certified"
        assert "block gram" in cert.reason

    def test_generator_only_from_factors(self, tr2):
        # a (gram, generator) pair could certify a gram the factors never built
        phi = random_map(2, tr2, rank=1, seed=4)
        bad = [g.copy() for g in phi.gram]
        bad[0][0, 0] -= 10.0 * np.eye(2)
        with pytest.raises(TypeError):
            SesquilinearMap(tr2, bad, generator=phi.generator)
        assert SesquilinearMap(tr2, bad).generator is None
        assert check_positivity(SesquilinearMap(tr2, bad)).status == "violated"

    def test_kraus_entry_formula(self, weighted, rng):
        # Phi(x, y) must equal sum_r T_r(x) G_r G_r* T_r(y)*, read off the stacks
        phi = random_map(2, weighted, rank=2, seed=9)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        val = evaluate(phi, x, y)
        for a, g, b in zip(*phi.generator, val.blocks):
            tx = np.einsum("i,rikl->rkl", x, a)
            ty = np.einsum("i,rikl->rkl", y, a)
            acc = sum(t @ r @ r.conj().T @ u.conj().T for t, r, u in zip(tx, g, ty))
            assert np.allclose(acc, b, atol=1e-9)


class TestLeftInvariance:
    def test_trace_form_invariant(self):
        # Phi(a, b) = tr~(b* a) * F0 is left-invariant by trace cyclicity
        dom = matrix_algebra(2)
        target = TracedAlgebra([2])
        f0 = target.diagonal([1.0, 2.0])
        hs = np.eye(4)      # tr~(e_j* e_i) = HS inner product of matrix units
        gram = [[complex(hs[i, j]) * f0 for j in range(4)] for i in range(4)]
        phi = SesquilinearMap(target, gram_of(target, gram), domain_algebra=dom)
        assert check_left_invariance(phi) <= 1e-12

    def test_functional_square_not_invariant(self):
        # Phi(a, b) = omega(a) conj(omega(b)) F0 with non-multiplicative omega
        dom = matrix_algebra(2)
        target = TracedAlgebra([1])
        f0 = target.identity()
        w = np.array([1.0, 0.5, 0.25, -1.0], dtype=complex)  # not a homomorphism
        gram = [[complex(w[i] * np.conj(w[j])) * f0 for j in range(4)]
                for i in range(4)]
        phi = SesquilinearMap(target, gram_of(target, gram), domain_algebra=dom)
        assert check_left_invariance(phi) > 1e-3

    def test_from_linear_map_invariant(self, rng):
        dom = matrix_algebra(2)
        target = TracedAlgebra([2, 1], [1.0, 0.5])
        from nclp.suites import random_positive_linear_map
        omega = random_positive_linear_map(dom, target, rank=2, rng=rng)
        phi = from_linear_map(omega, dom, target)
        assert check_left_invariance(phi) <= 1e-12
        # gram-only maps may fall back to sampling; they must never be violated
        assert check_positivity(phi).status in ("certified", "sampled")

    def test_requires_domain(self, kraus_map):
        with pytest.raises(PreconditionError):
            check_left_invariance(kraus_map)


class TestRandomMap:
    def test_deterministic(self, tr2):
        a = random_map(2, tr2, rank=2, seed=42)
        b = random_map(2, tr2, rank=2, seed=42)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(a.gram[0][i, j], b.gram[0][i, j])

    def test_rank_one_scalar_domain(self, tr2):
        phi = random_map(1, tr2, rank=1, seed=0)
        (a,), (g,) = phi.generator
        assert a.shape == (1, 1, 2, 2) and g.shape == (1, 2, 2)
        expected = a[0, 0] @ (g[0] @ g[0].conj().T) @ a[0, 0].conj().T
        assert np.allclose(phi.gram[0][0, 0], expected)

    def test_gram_stack_is_the_factor_formula(self):
        # every stacked entry, bit for bit, is sum_r A_ri M_r A_rj* with
        # M_r = G_r G_r*, summed in factor order from zero
        for target in target_pool():
            for d in range(1, 5):
                for rank in range(1, 4):
                    phi = random_map(d, target, rank=rank, seed=10 * d + rank)
                    for k, (a, g) in enumerate(zip(*phi.generator)):
                        assert a.shape[:2] == (rank, d) and len(g) == rank
                        for i in range(d):
                            for j in range(d):
                                acc = np.zeros_like(phi.gram[k][i, j])
                                for r in range(rank):
                                    m = g[r] @ g[r].conj().T
                                    acc = acc + a[r, i] @ m @ a[r, j].conj().T
                                assert np.array_equal(phi.gram[k][i, j], acc)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 7.5])
    def test_one_draw_is_the_per_matrix_draw(self, scale):
        # the reference: one random_complex_matrix call per (factor, slot,
        # block) in that order, and AlgebraElement arithmetic for the gram
        for t, target in enumerate(target_pool()):
            for d in range(1, 5):
                for rank in range(1, 4):
                    seed = 100 * t + 10 * d + rank
                    rng = rng_from(seed)
                    factors = []
                    for _ in range(rank):
                        coeffs = [target.element([random_complex_matrix(rng, n, n, scale)
                                                  for n in target.block_sizes])
                                  for _ in range(d)]
                        g = target.element([random_complex_matrix(rng, n, n, scale)
                                            for n in target.block_sizes])
                        factors.append((coeffs, g @ g.adjoint()))
                    phi = random_map(d, target, rank=rank, seed=seed, scale=scale)
                    for i in range(d):
                        for j in range(d):
                            acc = target.zero()
                            for coeffs, middle in factors:
                                acc = acc + coeffs[i] @ middle @ coeffs[j].adjoint()
                            for g, b in zip(phi.gram, acc.blocks):
                                assert np.array_equal(g[i, j], b)

    def test_random_map_builds_no_element(self, weighted, monkeypatch):
        built = []
        init = AlgebraElement.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AlgebraElement, "__init__", counting)
        for d in (1, 4):
            random_map(d, weighted, rank=2, seed=d)
        assert built == []

    def test_generator_stacks_are_read_only(self, kraus_map):
        for s in (*kraus_map.generator[0], *kraus_map.generator[1]):
            with pytest.raises(ValueError):
                s[0] = 0.0

    def test_stacks_are_read_only(self, kraus_map):
        with pytest.raises(ValueError):
            kraus_map.gram[0][0, 0] = 0.0

    def test_rejects_misshapen_stacks(self, weighted):
        good = [np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 1, 1))]
        assert SesquilinearMap(weighted, good).domain_dim == 2
        for bad in ([good[0]], [good[0], np.zeros((3, 3, 1, 1))],
                    [np.zeros((2, 2)), good[1]], [np.zeros((0, 0, 2, 2)), good[1]]):
            with pytest.raises(StructureError):
                SesquilinearMap(weighted, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_nonfinite_gram(self, tr2, bad):
        g = np.array(random_map(2, tr2, rank=1, seed=4).gram[0])
        g[0, 1, 0, 1] = bad
        with pytest.raises(DomainError):
            SesquilinearMap(tr2, [g])

    def test_scaling_keeps_structure(self, kraus_map):
        # the roots take the factor sqrt(c), so the gram moves only in its last bits
        doubled = kraus_map.scaled(2.0)
        assert check_positivity(doubled).status == "certified"
        (a,), (g,) = kraus_map.generator
        (a2,), (g2,) = doubled.generator
        assert np.array_equal(a2, a)
        assert np.array_equal(g2, math.sqrt(2.0) * g)
        err = np.max(np.abs(doubled.gram[0] - 2.0 * kraus_map.gram[0]))
        assert err <= 1e-12 * np.max(np.abs(doubled.gram[0]))

    def test_scaling_gram_only_map(self, kraus_map):
        bare = SesquilinearMap(kraus_map.target, kraus_map.gram)
        tripled = bare.scaled(3.0)
        assert tripled.generator is None
        assert np.array_equal(tripled.gram[0][1, 2], 3.0 * kraus_map.gram[0][1, 2])


def _generator_stacks(target, rank, d, rng):
    coeffs = [rng.standard_normal((rank, d, n, n)) + 1j * rng.standard_normal((rank, d, n, n))
              for n in target.block_sizes]
    roots = [rng.standard_normal((rank, n, n)) + 1j * rng.standard_normal((rank, n, n))
             for n in target.block_sizes]
    return coeffs, roots


class TestFromGenerator:
    def test_stacks_are_kept(self, weighted, rng):
        coeffs, roots = _generator_stacks(weighted, 2, 3, rng)
        phi = SesquilinearMap.from_generator(weighted, coeffs, roots)
        assert phi.domain_dim == 3
        for given_, kept in zip((*coeffs, *roots), (*phi.generator[0], *phi.generator[1])):
            assert np.array_equal(given_, kept)
        assert check_positivity(phi).status == "certified"

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_nonfinite_factors(self, weighted, rng, bad):
        for which in (0, 1):
            stacks = _generator_stacks(weighted, 2, 2, rng)
            stacks[which][1][0, 0, 0] = bad
            with pytest.raises(DomainError):
                SesquilinearMap.from_generator(weighted, *stacks)

    def test_rejects_misshapen_stacks(self, weighted, rng):
        coeffs, roots = _generator_stacks(weighted, 2, 3, rng)
        empty = [a[:0] for a in coeffs], [g[:0] for g in roots]
        cases = [
            empty,                                                 # R = 0
            (coeffs[:1], roots),                                   # missing block
            (coeffs, roots[:1]),
            ([coeffs[0], coeffs[1][:1]], roots),                   # R differs across blocks
            ([coeffs[0], coeffs[1][:, :2]], roots),                # d differs across blocks
            (coeffs, [roots[0][:1], roots[1]]),                    # root R differs
            ([coeffs[0][..., :1], coeffs[1]], roots),              # wrong block shape
            (coeffs, [roots[0][:, :1], roots[1]]),
            ([a[:, 0] for a in coeffs], roots),                    # no slot axis
            ([a[:, :0] for a in coeffs], roots),                   # d = 0
        ]
        for c, r in cases:
            with pytest.raises(StructureError):
                SesquilinearMap.from_generator(weighted, c, r)

    def test_overflowing_gram_is_refused(self, weighted, rng):
        # finite factors near 1e160 whose gram overflows: refused, without a numpy warning
        coeffs, roots = _generator_stacks(weighted, 2, 2, rng)
        with pytest.raises(DomainError):
            SesquilinearMap.from_generator(weighted, [1e160 * a for a in coeffs], roots)

    def test_stacks_are_read_only_and_a_plain_gram(self, weighted, rng):
        coeffs, roots = _generator_stacks(weighted, 2, 3, rng)
        phi = SesquilinearMap.from_generator(weighted, coeffs, roots)
        for s in (*phi.gram, *phi.generator[0], *phi.generator[1]):
            assert not s.flags.writeable
            with pytest.raises(ValueError):
                s[(0,) * s.ndim] = 1.0
        plain = SesquilinearMap(weighted, phi.gram)
        xs, ys = rng.standard_normal((2, 9, 3)) + 1j * rng.standard_normal((2, 9, 3))
        xs[rng.random((9, 3)) < 0.3] = 0.0
        for a, b in zip(evaluate_stack(phi, xs, ys), evaluate_stack(plain, xs, ys)):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(t=st.sampled_from(range(len(target_pool()))), rank=st.integers(1, 3),
           d=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.floats(-6, 6))
    def test_diagonal_values_are_psd(self, t, rank, d, seed, log_scale):
        # the middles are formed as G G*, so no passed-in root can make them
        # indefinite
        target = target_pool()[t]
        rng = rng_from(seed)
        coeffs, roots = _generator_stacks(target, rank, d, rng)
        phi = SesquilinearMap.from_generator(
            target, coeffs, [10.0 ** log_scale * g for g in roots])
        for x in rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d)):
            assert evaluate(phi, x, x).is_psd()


class TestStackedLayout:
    def test_block_gram_matrices_are_the_block_assembly(self, weighted, rng):
        phi = SesquilinearMap(weighted, [rng.standard_normal((3, 3, n, n))
                                         + 1j * rng.standard_normal((3, 3, n, n))
                                         for n in weighted.block_sizes])
        for g, n, big in zip(phi.gram, weighted.block_sizes, _block_gram_matrices(phi)):
            expected = np.zeros((3 * n, 3 * n), dtype=complex)
            for i in range(3):
                for j in range(3):
                    expected[i * n:(i + 1) * n, j * n:(j + 1) * n] = g[i, j]
            assert np.array_equal(big, expected)

    def test_scalar_gram_is_the_trace_of_each_entry(self, weighted):
        phi = random_map(3, weighted, rank=2, seed=5)
        s = scalar_gram(phi)
        for a in range(3):
            for b in range(3):
                entry = weighted.element([g[b, a] for g in phi.gram])
                assert s[a, b] == trace(entry)


class TestScalarGram:
    def test_matches_trace_of_map(self, kraus_map, rng):
        s = scalar_gram(kraus_map)
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            direct = trace(evaluate(kraus_map, x, y))
            via_s = complex(y.conj() @ (s @ x))
            assert direct == pytest.approx(via_s, abs=1e-9)

    def test_null_space_coincidence(self):
        # degenerate map: {x: Phi(x,x)=0} found via the scalar gram must also
        # satisfy Phi(x, y) = 0 for every y (the two null-space descriptions
        # coincide under the generalized Cauchy-Schwarz inequality)
        alg = TracedAlgebra([2])
        dom = matrix_algebra(2)
        scal = TracedAlgebra([1])
        omega = [scal.element([np.array([[1.0 if i == 0 else 0.0]])]) for i in range(4)]
        phi = from_linear_map(omega, dom, scal)
        s = scalar_gram(phi)
        lam, q = np.linalg.eigh(0.5 * (s + s.conj().T))
        kernel = q[:, lam <= 1e-10 * lam[-1]]
        assert kernel.shape[1] == 2
        for v in kernel.T:
            assert schatten_norm(evaluate(phi, v, v), 2.0) <= 1e-12
            for j in range(4):
                ej = np.eye(4)[:, j]
                assert schatten_norm(evaluate(phi, v, ej), 2.0) <= 1e-12

    def test_random_map_profile_certified(self):
        phi = random_map(4, TracedAlgebra([3]), rank=3, seed=21)
        assert check_positivity(phi).status == "certified"
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert evaluate(phi, x, x).is_psd()


@st.composite
def stacked_pairs(draw):
    """A map into a pool target, a (T, d) stack of (x, y) pairs with exact
    zero and unit entries mixed in, and a permutation of the stack."""
    target = draw(st.sampled_from(target_pool()))
    d = draw(st.integers(1, 4))
    rng = rng_from(draw(st.integers(0, 2 ** 32 - 1)))
    phi = random_map(d, target, rank=draw(st.integers(1, 3)), seed=int(rng.integers(2 ** 31)))
    t = draw(st.integers(1, 12))
    xs, ys = (rng.standard_normal((2, t, d)) + 1j * rng.standard_normal((2, t, d)))
    for v in (xs, ys):
        v[rng.random((t, d)) < 0.3] = 0.0
        v[rng.random((t, d)) < 0.1] = 1.0
    order = draw(st.sampled_from(["same", "reversed", "shuffled"]))
    perm = {"same": np.arange(t), "reversed": np.arange(t)[::-1],
            "shuffled": rng.permutation(t)}[order]
    return phi, xs, ys, perm


class TestEvaluateStack:
    @settings(max_examples=60, deadline=None)
    @given(case=stacked_pairs())
    def test_rows_are_lone_evaluations_bit_for_bit(self, case):
        phi, xs, ys, perm = case
        stack = evaluate_stack(phi, xs, ys)
        moved = evaluate_stack(phi, xs[perm], ys[perm])
        for t, (x, y) in enumerate(zip(xs, ys)):
            lone = evaluate(phi, x, y)
            coeff = np.outer(x, np.conj(y)).ravel()
            for g, b, s in zip(phi.flat_gram(), lone.blocks, stack):
                assert np.array_equal(s[t], b)
                assert np.array_equal(b, _combine_rows(coeff[None], [g])[0][0])
        for s, m in zip(stack, moved):
            assert np.array_equal(s[perm], m)

    @settings(max_examples=60, deadline=None)
    @given(case=stacked_pairs())
    def test_stacked_schatten_is_schatten_norm_bit_for_bit(self, case):
        phi, xs, ys, _ = case
        stack = evaluate_stack(phi, xs, ys)
        for p in (1.0, 1.25, 2.0, 4.0, math.inf):
            norms = _stacked_schatten(phi.target, stack, p)
            for t in range(len(xs)):
                lone = phi.target.element([s[t] for s in stack])
                assert norms[t] == schatten_norm(lone, p)

    @pytest.mark.parametrize("coeffs", [1, 20, 9 * 7])
    def test_chunked_rows_are_the_whole_stack(self, weighted, monkeypatch, coeffs):
        # rows taken a few at a time (one at a time below d*d coefficients)
        phi = random_map(3, weighted, rank=2, seed=7)
        rng = rng_from(7)
        xs, ys = rng.standard_normal((2, 50, 3)) + 1j * rng.standard_normal((2, 50, 3))
        xs[rng.random((50, 3)) < 0.4] = 0.0
        whole = evaluate_stack(phi, xs, ys)
        monkeypatch.setattr(sesquilinear, "STACK_COEFFS", coeffs)
        for w, c in zip(whole, evaluate_stack(phi, xs, ys)):
            assert np.array_equal(w, c)

    def test_zero_rows_are_zero(self, weighted):
        phi = random_map(2, weighted, rank=1, seed=3)
        stack = evaluate_stack(phi, np.zeros((3, 2)), np.ones((3, 2)))
        assert all(np.array_equal(s, np.zeros_like(s)) for s in stack)

    def test_rejects_misshapen_stacks(self, kraus_map):
        for xs, ys in ((np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones((3, 3))),
                       (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(StructureError):
                evaluate_stack(kraus_map, xs, ys)


def _combine_rows_loop(coeffs, stacks):
    """Reference slot sum: each row accumulated from zero over the slots in
    index order, skipping its zero coefficients, one fancy-indexed add per
    live slot (a slot live in one row multiplied by the scalar coefficient)."""
    out = [np.zeros((len(coeffs), *g.shape[1:]), dtype=complex) for g in stacks]
    live = coeffs != 0
    slots = []
    for s, n in enumerate(live.sum(axis=0).tolist()):
        if n == 1:
            r = int(np.flatnonzero(live[:, s])[0])
            slots.append((s, r, coeffs[r, s]))
        elif n == len(coeffs):
            slots.append((s, slice(None), coeffs[:, s, None, None]))
        elif n:
            rows = np.flatnonzero(live[:, s])
            slots.append((s, rows, coeffs[rows, s, None, None]))
    for g, acc in zip(stacks, out):
        for s, rows, c in slots:
            acc[rows] += c * g[s]
    return out


def _signed_zeros(rng, a, frac):
    """Set a fraction of the real and of the imaginary parts of ``a`` to -0.0."""
    a.real[rng.random(a.shape) < frac] = -0.0
    a.imag[rng.random(a.shape) < frac] = -0.0
    return a


@st.composite
def slot_sums(draw):
    """(T, K) coefficients with zero, -0.0 and one-live-slot rows, a list of
    (K, n, m) stacks (gram blocks, 1x1 blocks, superop matrices or the
    zero-rank GNS (K, 0, 0)), and a chunk bound (None: the default)."""
    rng = rng_from(draw(st.integers(0, 2 ** 32 - 1)))
    t = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40]))
    k = draw(st.sampled_from([1, 2, 3, 4, 9, 16, 27, 64, 81]))
    n = draw(st.integers(1, 4))
    trailing = draw(st.sampled_from([[(n, n)], [(n, n), (1, 1)], [(n * n, 1 + n % 3)],
                                     [(0, 0)]]))
    coeffs = _signed_zeros(rng, rng.standard_normal((t, k)) + 1j * rng.standard_normal((t, k)),
                           draw(st.sampled_from([0.0, 0.2])))
    coeffs[rng.random((t, k)) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))] = 0.0
    if draw(st.booleans()):                              # -0.0 parts in zero coefficients
        coeffs[coeffs == 0] = complex(-0.0, -0.0)
    for r in np.flatnonzero(rng.random(t) < 0.3):        # rows with one live slot
        keep = coeffs[r, rng.integers(k)]
        coeffs[r] = 0.0
        coeffs[r, rng.integers(k)] = keep
    frac = draw(st.sampled_from([0.0, 0.3]))
    stacks = [_signed_zeros(rng, rng.standard_normal((k, *sh))
                            + 1j * rng.standard_normal((k, *sh)), frac) for sh in trailing]
    return coeffs, stacks, draw(st.sampled_from([None, 1, 5, 81, 300, 4096]))


class TestSlotSum:
    """The vectorised slot sum is the per-slot loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=slot_sums())
    def test_combine_rows_is_the_slot_loop_bit_for_bit(self, case):
        coeffs, stacks, chunk = case
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(sesquilinear, "STACK_COEFFS", chunk)
            got = _combine_rows(coeffs, stacks)
        for g, want in zip(got, _combine_rows_loop(coeffs, stacks)):
            assert g.shape == want.shape and g.flags.c_contiguous
            assert g.tobytes() == want.tobytes()


class TestLayout:
    """The stacks the package hands to norms and certificates are C-ordered:
    some of those results (the nr certificate's BLAS products) follow the
    memory layout of their input."""

    @pytest.mark.parametrize("coeffs", [None, 9], ids=["one-chunk", "chunked"])
    def test_evaluate_stack_rows(self, weighted, monkeypatch, coeffs):
        if coeffs is not None:
            monkeypatch.setattr(sesquilinear, "STACK_COEFFS", coeffs)
        phi = random_map(3, weighted, rank=2, seed=2)
        rng = rng_from(2)
        xs, ys = rng.standard_normal((2, 7, 3)) + 1j * rng.standard_normal((2, 7, 3))
        for rows in evaluate_stack(phi, xs, ys):
            assert rows.shape[0] == 7 and rows.flags.c_contiguous

    def test_superop_matrix(self):
        phi = random_operator_valued(TracedAlgebra([2, 1]), 2, 2, 2, 4)
        assert phi.superop([1, 0.5j], [0.3, 1]).matrix.flags.c_contiguous

    def test_pi_rows(self):
        dom, target = matrix_algebra(2), TracedAlgebra([2])
        omega = random_positive_linear_map(dom, target, rank=1, rng=rng_from(3))
        rep = gns_construct(omega, dom, target)
        rng = rng_from(3)
        rows = rep.pi_rows(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
        assert rows.shape == (5, rep.quotient_dim, rep.quotient_dim)
        assert rows.flags.c_contiguous


class TestRandomMapPairs:
    """The stacked trial kernel gives each trial the values of its own
    random map, bit for bit, whatever the other trials in the call."""

    @staticmethod
    def trials():
        rng = rng_from(29)
        pool = [TracedAlgebra([2]), TracedAlgebra([2, 1], [0.5, 2.0]),
                TracedAlgebra([1, 1, 1], [1.0, 0.5, 0.25])]
        out = []
        for t in range(30):
            d = 1 + t % 4
            x, y = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
            if t % 3 == 0:
                x = np.eye(d, dtype=complex)[0]          # zero coefficients
            if t % 5 == 0 and d > 1:
                y = np.eye(d, dtype=complex)[d - 1]
            out.append((pool[t % 3], d, 1 + (t // 3) % 3, int(rng.integers(0, 2 ** 62)), x, y))
        return out

    def test_values_are_evaluate_stack_bit_for_bit(self):
        trials = self.trials()
        seen = []
        for target, (order, vals) in sesquilinear._random_map_pairs(trials).items():
            assert [len(v) for v in vals] == [len(order)] * target.n_blocks
            for j, i in enumerate(order):
                tg, d, rank, seed, x, y = trials[i]
                assert tg == target
                phi = random_map(d, tg, rank=rank, seed=seed)
                lone = evaluate_stack(phi, [x, x, y], [y, x, y])
                # both are one _slot_sum, over a trial axis here
                for v, b in zip(vals, lone):
                    assert v[j].tobytes() == b.tobytes()
                for r, (u, w) in enumerate(((x, y), (x, x), (y, y))):
                    assert all(v[j, r].tobytes() == b.tobytes()
                               for v, b in zip(vals, evaluate(phi, u, w).blocks))
                seen.append(i)
        assert sorted(seen) == list(range(len(trials)))


class TestSvdBudget:
    """A check scores all of its pairs with one SVD call per target block,
    not one per pair."""

    @pytest.mark.parametrize("target", [TracedAlgebra([2]), TracedAlgebra([2, 1], [0.5, 2.0]),
                                        TracedAlgebra([1, 1, 1], [1.0, 0.5, 0.25])],
                             ids=["M2", "M2+M1", "C3"])
    def test_cs_lp_is_one_svd_per_block(self, linalg_calls, target):
        phi = random_map(3, target, rank=2, seed=1)
        rng = rng_from(4)
        x, y = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        check_cs_lp(phi, x, y, 1.5)
        assert linalg_calls["svd"] == target.n_blocks, linalg_calls

    @pytest.mark.parametrize("domain", [matrix_algebra(2), cyclic_group_algebra(3)],
                             ids=["M2", "Z3"])
    def test_left_invariance_is_one_svd_per_block(self, linalg_calls, domain):
        target = TracedAlgebra([2, 1], [1.0, 0.5])
        omega = random_positive_linear_map(domain, target, rank=2, rng=rng_from(6))
        phi = from_linear_map(omega, domain, target)
        check_left_invariance(phi)
        assert linalg_calls["svd"] == target.n_blocks, linalg_calls

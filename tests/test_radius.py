import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import radius, suites
from nclp.algebra import AlgebraElement, TracedAlgebra, _stacked_schatten, schatten_norm
from nclp.cli import main
from nclp.errors import DomainError, PreconditionError, StructureError
from nclp.kernels import KernelMap, OnePlusXTKernel
from nclp.radius import (OperatorValuedMap, SearchBudget, SuperOperator,
                         SuperOperatorNormResult, _TargetNorm, _triple2_pool,
                         check_cs_operator_valued, numerical_radius, superop_norm,
                         triple_norm)
from nclp.sampling import random_complex_matrix, random_element, rng_from

from conftest import random_element_of, strip_wall_time


_M2 = TracedAlgebra([2])
_NONFINITE = [np.array([[np.nan, 0], [0, 1]]), np.array([[np.inf, 0], [0, 1]]),
              np.array([[1, np.nan], [0, 1]])]
_TAKES_2X2 = {
    "nr-array": numerical_radius,
    "nr-element": lambda m: numerical_radius(_M2.element([m])),
    "triple-norm": lambda m: triple_norm(_M2.element([m])),
    "superop": lambda m: SuperOperator(_M2, 2, np.kron(m, m)),
    "opvalued-superop": lambda m: OperatorValuedMap(
        _M2, 2, np.kron(m, m)[None, None]).superop([1], [1]),
}
BAD_INPUTS = [pytest.param(fn, m, DomainError, id=f"{name}-{k}")
              for name, fn in _TAKES_2X2.items() for k, m in enumerate(_NONFINITE)] + [
    pytest.param(numerical_radius, m, StructureError, id=f"nr-shape-{k}")
    for k, m in enumerate([np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), np.ones(())])] + [
    pytest.param(lambda m, g=g: numerical_radius(m, grid=g), np.eye(2), DomainError,
                 id=f"nr-grid-{g}")
    for g in (0, -3, 2.5, True)] + [
    pytest.param(lambda m, kw=kw: SearchBudget(**kw), None, DomainError, id=f"budget-{name}")
    for name, kw in (("starts", {"starts": -1}), ("iters", {"iters": -1}),
                     ("starts-float", {"starts": 2.5}), ("starts-bool", {"starts": True}),
                     ("seed-negative", {"seed": -1}), ("seed-float", {"seed": 1.5}))]


@pytest.fixture(autouse=True)
def fresh_candidate_memo():
    """Each test draws its own candidate pools: a memo hit left by an earlier
    test would skip the linalg calls of a draw that a test counts."""
    radius._draw_candidates.cache_clear()


@pytest.mark.parametrize("fn, arg, error", BAD_INPUTS)
def test_radius_entry_points_reject_bad_input(fn, arg, error):
    # non-finite entries, non-square arrays, bad grids and negative budgets
    # fail loudly, never as a value
    with pytest.raises(error), np.errstate(invalid="ignore"):
        fn(arg)


class TestNumericalRadius:
    def test_shift_analytic(self, tr2):
        # |<e12 h, h>| = |h1 h2| is maximal at 1/2 on the unit sphere
        shift = tr2.element([np.array([[0, 1], [0, 0]])])
        assert numerical_radius(shift) == pytest.approx(0.5, abs=1e-10)

    def test_shift_sampling_oracle(self, rng):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        best = 0.0
        for _ in range(4000):
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h /= np.linalg.norm(h)
            best = max(best, abs(np.vdot(h, m @ h)))
        assert best <= 0.5 + 1e-12
        assert numerical_radius(m) == pytest.approx(0.5, abs=1e-8)
        assert numerical_radius(m) >= best - 1e-8

    def test_zero(self):
        assert numerical_radius(np.zeros((3, 3))) == 0.0

    def test_hermitian_diagonal(self, tr2):
        assert numerical_radius(tr2.diagonal([-3.0, 2.0])) == pytest.approx(3.0)

    def test_hermitian_is_spectral_radius(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (g + g.conj().T)
            expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            assert numerical_radius(h) == pytest.approx(expected, abs=1e-10)

    def test_operator_norm_sandwich(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = numerical_radius(m)
            opn = float(np.linalg.svd(m, compute_uv=False)[0])
            assert 0.5 * opn - 1e-9 <= w <= opn + 1e-9

    def test_adjoint_and_unitary_invariance(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        w = numerical_radius(m)
        assert numerical_radius(m.conj().T) == pytest.approx(w, abs=1e-9)
        assert numerical_radius(q @ m @ q.conj().T) == pytest.approx(w, abs=1e-9)

    def test_phase_invariance(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w = numerical_radius(m)
        assert numerical_radius(np.exp(0.7j) * m) == pytest.approx(w, abs=1e-9)

    def test_block_element_max(self, weighted):
        el = weighted.element([np.array([[0, 1], [0, 0]]), np.array([[2.0]])])
        assert numerical_radius(el) == pytest.approx(2.0, abs=1e-10)


class TestTripleNorm:
    def test_rank_one_projection_exact(self, tr2):
        res = triple_norm(tr2.diagonal([1.0, 0.0]))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.status == "exact"

    def test_identity_exact(self, tr2):
        res = triple_norm(tr2.identity())
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.status == "exact"
        assert res.upper_bound == pytest.approx(math.sqrt(2.0))

    def test_zero(self, tr2):
        res = triple_norm(tr2.zero())
        assert res.value == 0.0 and res.status == "exact"

    def test_shift_random_search_oracle(self, tr2):
        # 10^6 random feasible W, vectorized; true value is exactly 1/2
        res = triple_norm(tr2.element([np.array([[0, 1], [0, 0]])]),
                          SearchBudget(starts=8, iters=30, seed=2))
        rng = rng_from(77)
        best = 0.0
        for _ in range(1000):
            g = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
            h = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
            lam, q = np.linalg.eigh(h)
            lam = np.clip(lam, 0.0, 1.0)
            w = np.einsum("bij,bj,bkj->bik", q, lam, np.conj(q))
            n2 = np.sqrt(np.maximum(np.einsum("bij,bji->b", w, w).real, 1e-30))
            w = w / np.maximum(n2, 1.0)[:, None, None]
            m = w[:, :, 0:1] @ w[:, 1:2, :]     # W e12 W = (col 0)(row 1)
            sv = np.linalg.svd(m, compute_uv=False).sum(axis=1)
            best = max(best, float(sv.max()))
        assert 0.5 - 1e-9 <= res.value <= res.upper_bound + 1e-12
        assert res.value >= best - 1e-4
        assert res.rank1_bound == pytest.approx(0.5, abs=1e-9)
        assert res.status == "heuristic"

    def test_maximizer_feasible_and_consistent(self, weighted, rng):
        for _ in range(10):
            f = random_element_of(weighted, rng)
            res = triple_norm(f, SearchBudget(starts=4, iters=15, seed=1))
            w = res.maximizer
            # feasible: 0 <= W <= I and ||W||_2 <= 1, to 1e-9
            assert w.is_hermitian(1e-9 * (1.0 + w.max_abs_entry))
            for b in w.blocks:
                lam = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
                assert lam.min() >= -1e-9 and lam.max() <= 1.0 + 1e-9
            assert schatten_norm(w, 2.0) <= 1.0 + 1e-9
            assert res.value == pytest.approx(schatten_norm(w @ f @ w, 1.0),
                                              rel=1e-10, abs=1e-12)
            assert res.rank1_bound <= res.value + 1e-12
            assert res.value <= res.upper_bound + 1e-9

    def test_psd_knapsack_beats_sampling(self, rng):
        # exact fractional-knapsack optimum vs brute feasible sampling
        alg = TracedAlgebra([3])
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = alg.element([g @ g.conj().T])
        res = triple_norm(f)
        assert res.status == "exact"
        sampler = rng_from(5)
        for _ in range(2000):
            h = sampler.standard_normal((3, 3)) + 1j * sampler.standard_normal((3, 3))
            h = 0.5 * (h + h.conj().T)
            lam, q = np.linalg.eigh(h)
            w = (q * np.clip(lam, 0, 1)) @ q.conj().T
            n2 = math.sqrt(max(np.trace(w @ w).real, 0.0))
            if n2 > 1:
                w = w / n2
            val = np.abs(np.linalg.svd(w @ f.blocks[0] @ w, compute_uv=False)).sum()
            assert val <= res.value + 1e-9

    def test_psd_knapsack_weighted_blocks(self, rng):
        # weighted budget consumption: feasible sampling never beats the knapsack
        alg = TracedAlgebra([2, 1], [0.5, 2.0])
        f = random_element_of(alg, rng)
        f = f @ f.adjoint()
        res = triple_norm(f)
        assert res.status == "exact"
        w = res.maximizer
        assert res.value == pytest.approx(schatten_norm(w @ f @ w, 1.0), rel=1e-10)
        sampler = rng_from(17)
        from nclp.radius import _project_stack
        from nclp.sampling import random_hermitian
        for _ in range(500):
            h = random_hermitian(alg, sampler) + 0.4 * alg.identity()
            w = alg.element([b[0] for b in _project_stack(alg, [b[None] for b in h.blocks])])
            assert schatten_norm(w @ f @ w, 1.0) <= res.value + 1e-9

    def test_budget_monotone(self, tr2, rng):
        f = random_element_of(tr2, rng)
        vals = [triple_norm(f, SearchBudget(starts=s, iters=10, seed=3)).value
                for s in (0, 2, 8)]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12

    def test_homogeneity_and_phase(self, tr2, rng):
        f = random_element_of(tr2, rng)
        budget = SearchBudget(starts=4, iters=20, seed=9)
        base = triple_norm(f, budget).value
        assert triple_norm(2.0 * f, budget).value == pytest.approx(2 * base, abs=2e-6)
        assert triple_norm(np.exp(1.1j) * f, budget).value == pytest.approx(
            base, abs=2e-6)


class TestSuperOperator:
    def test_identity_apply(self, tr2, rng):
        op = SuperOperator.from_apply(tr2, 2, lambda s: s.dense())
        x = random_element_of(tr2, rng)
        assert np.allclose(op.apply(x), x.dense())

    def test_zero(self, tr2):
        op = SuperOperator(tr2, 2, np.zeros((4, 4)))
        assert op.is_zero
        assert superop_norm(op).value == 0.0

    def test_kraus_on_identity(self, tr2, rng):
        a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = OperatorValuedMap.from_generator(tr2, [[a1], [a2]]).superop([1], [1])
        got = op.apply(tr2.identity())
        assert np.allclose(got, a1 @ a1.conj().T + a2 @ a2.conj().T)

    def test_adjoint_matches_finite_differences(self, weighted, rng):
        op = SuperOperator.from_apply(
            weighted, 3,
            lambda s: np.kron(np.eye(1), np.zeros((3, 3))) + _random_linear(s))
        # a stack of three certificates: row i of each block stack pairs with C_i
        cs = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        ds = op.adjoint_at(cs)
        assert [d.shape for d in ds] == [(3, n, n) for n in weighted.block_sizes]
        t = random_element_of(weighted, rng)
        for i, c in enumerate(cs):
            f_direct = np.real(np.trace(c @ op.apply(t)))
            f_adj = sum(np.real(np.trace(d[i] @ b)) for d, b in zip(ds, t.blocks))
            assert f_direct == pytest.approx(f_adj, rel=1e-10, abs=1e-10)

    def test_norm_identity_map(self, tr2):
        op = SuperOperator.from_apply(tr2, 2, lambda s: s.dense())
        res = superop_norm(op, "nr", SearchBudget(starts=8, iters=8, seed=0))
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    @pytest.mark.parametrize("starts", [2, 8, 32])
    def test_kept_chain_steps_raise_their_value(self, tr2, rng, monkeypatch, norm, starts):
        # the first certify call scores the three chain starts, each later one
        # the chains still climbing, in order; a chain climbs on only if its
        # step raised its certified value, and the result is at least every
        # value a chain kept
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        seen = []

        def certify(self, mats, _f=_TargetNorm.certify):
            vals, certs = _f(self, mats)
            seen.append(vals.copy())
            return vals, certs
        monkeypatch.setattr(_TargetNorm, "certify", certify)
        res = superop_norm(SuperOperator(tr2, 2, mat), norm,
                           SearchBudget(starts=starts, iters=12, seed=4))
        assert len(seen[0]) == 3 and 2 <= len(seen) <= 13, seen
        chain, kept = seen[0], [seen[0]]
        for vals in seen[1:]:
            assert len(vals) == len(chain), (seen, chain)
            up = vals > chain + 1e-13 * (1.0 + chain)
            chain = vals[up]
            kept.append(chain)
        assert sum(len(k) for k in kept[1:]) >= 1, seen
        assert res.value >= np.concatenate(kept).max()

    def test_identity_candidate_lower_bound(self, tr2, rng):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = SuperOperator(tr2, 2, mat)
        res = superop_norm(op, "nr", SearchBudget(starts=4, iters=6, seed=0))
        at_identity = numerical_radius(op.apply(tr2.identity()))
        assert res.value >= at_identity - 1e-9


def _random_linear(s):
    d = s.dense()
    return d[:3, :3] * 0.7 + 0.1j * d[:3, :3].T


class TestOperatorValuedCs:
    def test_d1_exact_ratio(self):
        rng = rng_from(12)
        src = TracedAlgebra([3])
        factors = [[rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))]]
        phi = OperatorValuedMap.from_generator(src, factors)
        a = 1.3 - 0.4j
        rep = check_cs_operator_valued(phi, np.array([a]), np.array([0.6 * a]),
                                       "nr", SearchBudget(starts=6, iters=6, seed=0))
        assert rep.ratio == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("sizes, weights", [([2], None), ([3], None), ([2, 1], [1.0, 0.5])],
                             ids=["M2", "M3", "M2+M1"])
    def test_generator_gram_is_the_kraus_sum(self, sizes, weights):
        # column u of gram[i, j] is sum_r A_{r,i} E_u A_{r,j}* for the u-th
        # source matrix unit E_u, flattened
        rng = rng_from(5)
        src = TracedAlgebra(sizes, weights)
        units = [src.from_coords(e).dense() for e in np.eye(src.coord_dim)]
        for d, rank, n in [(1, 1, 2), (2, 2, 3), (3, 2, 2)]:
            a = rng.standard_normal((rank, d, n, src.total_dim)) \
                + 1j * rng.standard_normal((rank, d, n, src.total_dim))
            phi = OperatorValuedMap.from_generator(src, a)
            ref = np.array([[np.stack([sum(a[r, i] @ e @ a[r, j].conj().T for r in range(rank))
                                       .reshape(-1) for e in units], axis=1)
                             for j in range(d)] for i in range(d)])
            assert phi.gram.shape == ref.shape
            assert np.max(np.abs(phi.gram - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("target", ["nr", "triple2"])
    def test_positive_map_peaks_at_identity(self, target):
        # Russo-Dye: no contraction T beats T = I for Phi(v, v), so the
        # search never exceeds the exact value at the identity
        rng = rng_from(41)
        maps = []
        for sizes, weights, n in [([2], None, 2), ([3], None, 3), ([2, 1], [1.0, 0.5], 2)]:
            src = TracedAlgebra(sizes, weights)
            for rank in (1, 2):
                factors = [[rng.standard_normal((n, src.total_dim))
                            + 1j * rng.standard_normal((n, src.total_dim))
                            for _ in range(2)] for _ in range(rank)]
                maps.append(OperatorValuedMap.from_generator(src, factors))
        alg = TracedAlgebra([2])
        maps.append(KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel()).as_operator_valued())
        for k, phi in enumerate(maps):
            tn = _TargetNorm(target, phi.target_algebra)
            for _ in range(3):
                v = rng.standard_normal(phi.domain_dim) + 1j * rng.standard_normal(phi.domain_dim)
                op = phi.superop(v, v)
                at_identity = tn.batch_values(op.apply(phi.source.identity())[None])[0]
                found = superop_norm(op, target, SearchBudget(starts=8, iters=6, seed=k)).value
                assert found <= at_identity * (1.0 + 1e-12)

    @pytest.mark.parametrize("sizes, n", [([2], 2), ([3], 2), ([2, 1], 3), ([1], 1)])
    def test_gram_is_the_factor_formula(self, sizes, n):
        # gram[i, j] is, bit for bit, the superoperator of S -> sum_r A_ri S A_rj*
        src = TracedAlgebra(sizes)
        rng = rng_from(sum(sizes) + n)
        for d in (1, 2, 3):
            for rank in (1, 2):
                factors = [[rng.standard_normal((n, src.total_dim))
                            + 1j * rng.standard_normal((n, src.total_dim))
                            for _ in range(d)] for _ in range(rank)]
                phi = OperatorValuedMap.from_generator(src, factors)
                assert phi.gram.shape == (d, d, n * n, src.coord_dim)
                for i in range(d):
                    for j in range(d):
                        op = SuperOperator.from_apply(
                            src, n, lambda s: sum(fr[i] @ s.dense() @ fr[j].conj().T
                                                  for fr in factors))
                        assert np.array_equal(phi.gram[i, j], op.matrix)

    def test_one_draw_is_the_per_matrix_draw(self):
        # the reference: one random_complex_matrix call per (factor, slot)
        for sizes in ([1], [2], [3], [2, 1], [1, 1, 2]):
            src = TracedAlgebra(sizes)
            for n in (1, 2, 3):
                for d in (1, 2, 3):
                    for rank in (1, 2, 3):
                        seed = 7 * sum(sizes) + 3 * n + d + rank
                        rng = rng_from(seed)
                        factors = [[random_complex_matrix(rng, n, src.total_dim)
                                    for _ in range(d)] for _ in range(rank)]
                        ref = OperatorValuedMap.from_generator(src, factors)
                        phi = suites.random_operator_valued(src, n, d, rank, seed)
                        assert np.array_equal(phi.gram, ref.gram)
                        assert np.array_equal(phi.generator, ref.generator)

    def test_generator_is_one_read_only_array(self, tr2):
        phi = suites.random_operator_valued(tr2, 3, 2, 2, seed=1)
        assert isinstance(phi.generator, np.ndarray)
        assert phi.generator.shape == (2, 2, 3, 2)
        with pytest.raises(ValueError):
            phi.generator[0, 0] = 0.0

    def test_rejects_misshapen_gram(self, tr2):
        with pytest.raises(StructureError):
            OperatorValuedMap(tr2, 2, np.zeros((1, 1, 4, 3)))
        with pytest.raises(StructureError):
            OperatorValuedMap(tr2, 2, np.zeros((1, 2, 4, 4)))
        with pytest.raises(StructureError):
            OperatorValuedMap.from_generator(tr2, [[np.eye(3)]])
        with pytest.raises(StructureError, match="R >= 1"):          # not the zero map
            OperatorValuedMap.from_generator(tr2, np.zeros((0, 2, 2, 2)))

    def test_rejects_non_finite_entries(self, tr2):
        # a NaN factor must not reach the gram, where the generator would
        # still certify the map
        factors = np.ones((1, 1, 2, 2), dtype=complex)
        factors[0, 0, 1, 0] = math.nan
        with pytest.raises(DomainError, match="finite"):
            OperatorValuedMap.from_generator(tr2, factors)
        gram = np.zeros((1, 1, 4, 4), dtype=complex)
        gram[0, 0, 2, 1] = math.inf
        with pytest.raises(DomainError, match="finite"):
            OperatorValuedMap(tr2, 2, gram)

    def test_generator_form_positivity(self, tr2):
        rng = rng_from(3)
        factors = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(2)]]
        phi = OperatorValuedMap.from_generator(tr2, factors)
        assert phi.check_positivity().status == "certified"

    def test_non_positive_map_violated_and_rejected(self, tr2):
        neg = SuperOperator.from_apply(tr2, 2, lambda s: -s.dense())
        phi = OperatorValuedMap(tr2, 2, [[neg.matrix]])
        cert = phi.check_positivity(trials=8)
        assert cert.status == "violated"
        assert cert.witness.shape == (1,)
        assert cert.witness_min_eig < 0
        with pytest.raises(PreconditionError):
            check_cs_operator_valued(phi, np.array([1.0]), np.array([1.0]), "nr",
                                     SearchBudget(starts=2, iters=2))

    def test_non_positive_map_cannot_borrow_a_generator(self, tr2):
        neg = SuperOperator.from_apply(tr2, 2, lambda s: -s.dense())
        with pytest.raises(TypeError):
            OperatorValuedMap(tr2, 2, [[neg.matrix]], generator=[[np.eye(2)]])
        assert OperatorValuedMap(tr2, 2, [[neg.matrix]]).generator is None

    def test_positivity_needs_a_sample(self, tr2):
        # a zero-sample certificate would read "sampled" and pass this map
        neg = SuperOperator.from_apply(tr2, 2, lambda s: -s.dense())
        phi = OperatorValuedMap(tr2, 2, [[neg.matrix]])
        for trials in (0, -1):
            with pytest.raises(DomainError):
                phi.check_positivity(trials=trials)

    def test_excess_is_violated_after_one_search(self, tr2, monkeypatch):
        # 4% over the exact rhs at T = I is a violation: no slack, no re-run
        rng = rng_from(5)
        factors = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(2)]]
        phi = OperatorValuedMap.from_generator(tr2, factors)
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        at_identity = [float(np.linalg.eigvalsh(phi.superop(v, v).apply(tr2.identity()))[-1])
                       for v in (x, y)]
        rhs = math.sqrt(at_identity[0]) * math.sqrt(at_identity[1])
        calls = []

        def fake_search(ops, target_norm, budgets, pools=None):
            # the lhs Phi(x, y) comes first; any further search meets the value at T = I
            calls.append(ops)
            value = 1.04 * rhs if len(calls) == 1 else at_identity[len(calls) - 2]
            return [SuperOperatorNormResult(value, tr2.identity(), "heuristic")]

        monkeypatch.setattr(radius, "_superop_stack", fake_search)
        rep = check_cs_operator_valued(phi, x, y, "nr", SearchBudget(starts=2, iters=2))
        assert rep.status == "violated"
        assert len(calls) == 1 and len(calls[0]) == 1
        assert rep.rhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("target", ["nr", "triple2"])
    def test_generator_sweep_holds(self, tr2, target):
        rng = rng_from(31)
        for trial in range(6):
            factors = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                        for _ in range(2)] for _ in range(1 + trial % 2)]
            phi = OperatorValuedMap.from_generator(tr2, factors)
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rep = check_cs_operator_valued(phi, x, y, target,
                                           SearchBudget(starts=12, iters=8, seed=trial))
            assert rep.ok, rep

    @pytest.mark.parametrize("target", ["nr", "triple2"])
    def test_kernel_pipeline_instance(self, target):
        from nclp.kernels import KernelMap, OnePlusXTKernel
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel())
        phi = km.as_operator_valued()
        rng = rng_from(8)
        for _ in range(3):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rep = check_cs_operator_valued(phi, x, y, target,
                                           SearchBudget(starts=12, iters=8, seed=1))
            assert rep.ok, rep

    def test_kernel_pipeline_weighted_blocks(self, rng):
        # block-diagonal values over a weighted multi-block trace
        from nclp.kernels import ExpAbsDiffKernel, KernelMap
        alg = TracedAlgebra([2, 1], [1.0, 0.5])
        anchor = random_element_of(alg, rng)
        km = KernelMap(anchor @ anchor.adjoint(), ExpAbsDiffKernel())
        phi = km.as_operator_valued()
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for target in ("nr", "triple2"):
            rep = check_cs_operator_valued(phi, x, y, target,
                                           SearchBudget(starts=8, iters=6, seed=2))
            assert rep.ok, rep

    def test_sampled_positivity_counterexample(self, tr2):
        # Phi(x, y)(S) = x conj(y) * (-S) maps PSD inputs to negative values
        mat = -np.eye(4, dtype=complex)
        phi = OperatorValuedMap(tr2, 2, [[mat]])
        from nclp.errors import PreconditionError
        with pytest.raises(PreconditionError):
            check_cs_operator_valued(phi, np.array([1.0]), np.array([1.0]), "nr",
                                     SearchBudget(starts=2, iters=2, seed=0))


def _criterion9_pool():
    """Criterion 9's 97-candidate pool of 3 x 3 values: the identity, 64
    unitaries and 32 hermitian contractions under one map."""
    phi = suites.random_operator_valued(TracedAlgebra([3]), 3, 3, 2, seed=11)
    op = phi.superop(np.array([1.0, 0.5j, -0.2]), np.array([0.3, 1.0, 0.1j]))
    coords = radius._unitary_candidates(op.source, SearchBudget(starts=64))
    return (op.matrix @ coords.T).T.reshape(-1, 3, 3)


@pytest.fixture
def grid_angles(monkeypatch):
    """Angles each ``_nr_grid`` call solves (its finite values), in call order."""
    solved = []

    def counted(*args, _f=radius._nr_grid):
        out = _f(*args)
        solved.append(int(np.isfinite(out).sum()))
        return out

    monkeypatch.setattr(radius, "_nr_grid", counted)
    return solved


def _mixed_pool(alg, seed, size=24):
    """Seeded elements cycling through PSD, hermitian-indefinite, zero, generic."""
    rng = rng_from(seed)
    out = []
    for t in range(size):
        f = random_element(alg, rng)
        out.append([f @ f.adjoint(), f + f.adjoint(), alg.zero(), f][t % 4])
    return out


POOL_ALGEBRAS = [TracedAlgebra([2]), TracedAlgebra([3]), TracedAlgebra([2, 1], [1.0, 0.5])]
STACK_ALGEBRAS = [TracedAlgebra([2]), TracedAlgebra([3]), TracedAlgebra([4]),
                  TracedAlgebra([2, 1], [1.0, 0.5])]


class TestStackedPool:
    """The stacked kernels give each item its one-element result exactly."""

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    def test_certify_equals_stack_of_one(self, norm, alg):
        tn = _TargetNorm(norm, alg)
        stack = np.stack([f.dense() for f in _mixed_pool(alg, seed=41)])
        assert not stack[2].any()                    # the pool holds zero matrices
        vals, certs = tn.certify(stack)
        for m, v, c in zip(stack, vals, certs):
            one_v, one_c = tn.certify(m[None])
            assert v == one_v[0] and np.array_equal(c, one_c[0])
        rev_v, rev_c = tn.certify(stack[::-1])
        assert rev_v.tolist() == vals[::-1].tolist()
        assert np.array_equal(rev_c, certs[::-1])
        if norm == "triple2" and min(alg.weights) < 1.0:
            # the pool's quick path: certify's values are the scores
            assert vals.tolist() == tn.batch_values(stack).tolist()
        elif norm == "triple2":
            # unit weights: |||.|||_2 is w, certified and scored as nr does
            nr = _TargetNorm("nr", alg)
            nr_v, nr_c = nr.certify(stack)
            assert vals.tolist() == nr_v.tolist() and np.array_equal(certs, nr_c)
            assert tn.batch_values(stack).tolist() == nr.batch_values(stack).tolist()

    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    def test_certificates_touch_and_bound_the_norm(self, norm):
        # Re tr(C M) = value of M, and Re tr(C M') <= norm of M' <= an upper
        # bound (w itself for nr, ||M'||_2 for triple2) for every M'
        alg = POOL_ALGEBRAS[2]
        tn = _TargetNorm(norm, alg)
        stack = np.stack([f.dense() for f in _mixed_pool(alg, seed=43, size=12)])
        vals, certs = tn.certify(stack)
        pairing = np.real(np.einsum("bij,cji->bc", certs, stack))
        assert np.allclose(np.diag(pairing), vals, rtol=1e-10, atol=1e-12)
        if norm == "nr":
            bound = np.array([numerical_radius(m) for m in stack])
        else:
            bound = _triple2_pool(alg, radius._target_blocks(stack, alg)).upper   # ||M'||_2
        assert np.all(pairing <= bound[None, :] * (1 + 1e-9) + 1e-12)

    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    def test_chains_certify_once_per_step(self, monkeypatch, norm):
        # the refinement chains climb as one stack: one certify call per step,
        # not one per chain
        calls = {"n": 0}

        def counted(self, mats, _f=_TargetNorm.certify):
            calls["n"] += 1
            return _f(self, mats)

        monkeypatch.setattr(_TargetNorm, "certify", counted)
        phi = suites.random_operator_valued(TracedAlgebra([3]), 3, 2, 2, seed=5)
        op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
        for k in (0, 3, 12):
            calls["n"] = 0
            superop_norm(op, norm, SearchBudget(starts=8, iters=k))
            assert 1 <= calls["n"] <= k + 1, (k, calls["n"])

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    def test_triple_norm_quick_is_kernel_at_one_item(self, alg):
        for f in _mixed_pool(alg, seed=42, size=8):
            res = triple_norm(f, SearchBudget(starts=0, iters=0), quick=True)
            pool = _triple2_pool(alg, [b[None] for b in f.blocks])
            if min(alg.weights) >= 1.0 and not pool.exact[0]:
                # unit weights: w(F), its own rank-one bound, at a rank-one W
                assert res.value == res.rank1_bound == numerical_radius(f)
                assert np.linalg.matrix_rank(res.maximizer.dense()) == 1
                continue
            assert res.value == float(pool.values[0])
            assert res.rank1_bound == float(pool.upper[0] * pool.rank1[0])
            for got, want in zip(res.maximizer.blocks, pool.maximizer):
                assert np.array_equal(got, want[0])

    def test_linalg_calls_do_not_grow_with_pool(self, linalg_calls):
        # the ranking scores a pool of any size in two stacked passes, the
        # second only on the rows the first did not score (none of the 25
        # candidates at 16 starts, 4 of the 97 at 64), then certifies the
        # three chains in one: 22 and 31 calls.  A per-candidate loop makes
        # a pool's calls for each candidate it scores.
        phi = suites.random_operator_valued(TracedAlgebra([3]), 3, 2, 2, seed=5)
        op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
        counts = []
        for starts in (16, 64):
            linalg_calls["n"] = 0
            superop_norm(op, "triple2", SearchBudget(starts=starts, iters=0))
            counts.append(linalg_calls["n"])
        assert max(counts) <= 31, counts

    def test_nr_ranking_eigensolves_a_pruned_grid(self, linalg_calls):
        # criterion 9's pool: the identity, 64 unitaries and 32 hermitian
        # contractions, ranked on 256 angles; Kittaneh's bound (one SVD and
        # one eigvalsh per candidate) keeps the candidates out of the top
        # three off the grid, and the coarse-grid bound most angles of the
        # rest (447 grid angles; the unpruned grid solves 24,832)
        mats = _criterion9_pool()
        assert len(mats) == 97
        linalg_calls["matrices"] = 0
        vals = _TargetNorm("nr").batch_values(mats, top=3)
        assert linalg_calls["matrices"] <= 2 * 97 + 460, linalg_calls
        full = _full_nr_grid(mats, _TargetNorm.NR_GRID).max(axis=1)
        order = np.argsort(vals)[::-1]
        assert order[:3].tolist() == np.argsort(full)[::-1][:3].tolist()
        assert vals[order[:3]].tolist() == full[order[:3]].tolist()

    def test_triple2_ranking_scores_a_pruned_pool(self, monkeypatch):
        # the same 97-candidate pool ranked for |||.|||_2: the polar bound
        # keeps the candidates out of the top three from the quick-path kernel
        mats = _criterion9_pool()
        rows = []

        def counted(alg, blocks, *args, _f=radius._triple2_pool, **kwargs):
            rows.append(len(blocks[0]))
            return _f(alg, blocks, *args, **kwargs)

        monkeypatch.setattr(radius, "_triple2_pool", counted)
        vals = _TargetNorm("triple2").batch_values(mats, top=3)
        assert sum(rows) <= 0.25 * 97, rows
        full = _TargetNorm("triple2").batch_values(mats)
        order = np.argsort(vals)[::-1]
        assert order[:3].tolist() == np.argsort(full)[::-1][:3].tolist()
        assert vals[order[:3]].tolist() == full[order[:3]].tolist()

    def test_one_block_target_is_the_stack(self):
        # one target block needs no copy and no off-diagonal scan
        alg = POOL_ALGEBRAS[1]
        mats = np.stack([f.dense() for f in _mixed_pool(alg, seed=41)])
        (blocks,) = radius._target_blocks(mats, alg)
        assert blocks.flags.c_contiguous and blocks.tobytes() == mats.tobytes()

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    def test_pool_is_drawn_with_one_qr_per_block(self, linalg_calls, norm, alg):
        # the random unitaries of the whole pool come from one stacked QR per
        # source block, whatever the number of starts
        phi = suites.random_operator_valued(alg, 2, 2, 2, seed=5)
        op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
        for starts in (8, 64):
            linalg_calls["qr"] = 0
            superop_norm(op, norm, SearchBudget(starts=starts, iters=3))
            assert linalg_calls["qr"] == alg.n_blocks, (starts, linalg_calls["qr"])

    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    def test_search_builds_no_element_per_candidate(self, monkeypatch, norm):
        # the pool and the chains are coordinate rows; only the returned
        # maximizer is built as an element
        built = []
        init = AlgebraElement.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        phi = suites.random_operator_valued(POOL_ALGEBRAS[2], 3, 2, 2, seed=9)
        op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
        counts = []
        for starts in (8, 64):
            built.clear()
            monkeypatch.setattr(AlgebraElement, "__init__", counting)
            res = superop_norm(op, norm, SearchBudget(starts=starts, iters=6))
            monkeypatch.undo()
            counts.append(len(built))
            assert res.maximizer.algebra == op.source
        assert counts[0] == counts[1], counts

    @pytest.mark.parametrize("n", [2, 3])
    def test_linalg_calls_of_ascent_do_not_grow_with_starts(self, linalg_calls, n):
        # all starts ascend as one stack; a per-start loop makes about 10x the calls
        f = random_element(TracedAlgebra([n]), rng_from(7))
        counts = []
        for starts in (4, 64):
            linalg_calls["n"] = 0
            res = triple_norm(f, SearchBudget(starts=starts, iters=25))
            assert res.status == "heuristic"
            counts.append(linalg_calls["n"])
        assert counts[1] < 3 * counts[0], counts


def _full_nr_grid(mats, grid):
    """lambda_max(Re(e^{i theta} M)) on every angle of the grid, unpruned."""
    phases = np.exp(1j * (radius.TWO_PI * np.arange(grid) / grid))
    h = 0.5 * (phases[None, :, None, None] * mats[:, None, :, :]
               + np.conj(phases)[None, :, None, None]
               * np.conj(np.swapaxes(mats, -1, -2))[:, None, :, :])
    return np.linalg.eigvalsh(h)[..., -1]


def _matrix_of_kind(rng, kind, n):
    """A zero, hermitian, real, real symmetric, PSD, normal, c I, c U,
    shift, nearly normal or generic n x n matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "hermitian":
        return g + g.conj().T
    if kind == "real":
        return g.real + 0j
    if kind == "symmetric":
        return g.real + g.real.T + 0j
    if kind == "psd":
        return g @ g.conj().T
    if kind in ("normal", "nudged"):
        q = np.linalg.qr(g)[0]
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = (q * lam) @ q.conj().T
        # a non-normal nudge near the filter's 1e-12 relative commutator
        return m if kind == "normal" else m + 10.0 ** rng.uniform(-15, -11) * g
    if kind == "scalar":
        return complex(*rng.standard_normal(2)) * np.eye(n)
    if kind == "unitary":
        return complex(*rng.standard_normal(2)) * np.linalg.qr(g)[0]
    if kind == "shift":
        return np.eye(n, k=1, dtype=complex)
    return g


NR_KINDS = ["zero", "hermitian", "real", "normal", "scalar", "generic", "repeat"]


@st.composite
def nr_stacks(draw, alg=None, max_n=3, max_rows=40, kinds=NR_KINDS):
    """Stacks of matrices of ``kinds`` (``_matrix_of_kind``; by default zero,
    hermitian, real, normal, c I and generic) at scales 1e-12 .. 1e12, some
    rows repeated, so exact ties occur within and across rows.  Without
    ``alg`` the matrices are n x n, n at most ``max_n``; with it, each row is
    block-diagonal over it, every block of the row's kind."""
    sizes = [draw(st.integers(1, max_n))] if alg is None else alg.block_sizes
    rng = rng_from(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_rows)):
        if kind == "repeat" and mats:
            mats.append(mats[int(rng.integers(len(mats)))])
            continue
        blocks = [_matrix_of_kind(rng, kind, n) for n in sizes]
        m = blocks[0] if alg is None else alg.element(blocks).dense()
        mats.append(10.0 ** draw(st.floats(-12, 12)) * m)
    return np.stack(mats)


class TestPrunedNrGrid:
    """The pruned theta grid keeps the full grid's values and rankings bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(mats=nr_stacks(), grid=st.sampled_from([64, 256, 512, 1024, 100]),
           keep=st.sampled_from([1, 6, 11]))
    def test_equals_full_grid(self, mats, grid, keep):
        full = _full_nr_grid(mats, grid)
        got = radius._nr_grid(mats, grid, keep)
        done = np.isfinite(got)
        assert np.array_equal(got[done], full[done])
        assert np.array_equal(np.argsort(got, axis=1)[:, ::-1][:, :keep],
                              np.argsort(full, axis=1)[:, ::-1][:, :keep])
        if grid % radius.NR_COARSE:
            assert done.all()
        # the superop_norm ranking: order[:3] and best_val of the row maxima
        ranked = _TargetNorm("nr").batch_values(mats, top=3)
        want = _full_nr_grid(mats, _TargetNorm.NR_GRID).max(axis=1)
        order = np.argsort(ranked)[::-1]
        assert order[:3].tolist() == np.argsort(want)[::-1][:3].tolist()
        assert ranked[order[0]] == want[order[0]]
        finite = np.isfinite(ranked)
        assert np.array_equal(ranked[finite], want[finite])

    @pytest.mark.parametrize("c", [1.0, -0.7, 3.3])
    def test_tied_row_maxima_keep_the_full_grid_order(self, c):
        # 1x1 positive matrices peak at theta = 0 with their own value; these
        # tie in pairs like a cosine grid, and argsort orders such ties by the
        # rest of the vector, so the ranking must not drop rows there
        v = c * np.cos(radius.TWO_PI * np.arange(1024) / 1024)
        mats = (v - v.min() + 1.0).astype(complex)[:, None, None]
        ranked = _TargetNorm("nr").batch_values(mats, top=3)
        want = _full_nr_grid(mats, _TargetNorm.NR_GRID).max(axis=1)
        assert np.argsort(ranked)[::-1][:3].tolist() == np.argsort(want)[::-1][:3].tolist()


class TestPolarBound:
    """The polar mean (|F| + |F*|) / 2 bounds both target norms: its largest
    eigenvalue bounds the numerical radius (Kittaneh), its knapsack value
    K bounds the quick-path |||.|||_2 from above and ||F||_2 from below, and
    a ranking pruned by either is the unpruned one."""

    @settings(max_examples=60, deadline=None)
    @given(mats=nr_stacks())
    def test_kittaneh_bounds_the_full_grid(self, mats):
        lam, norm2 = radius._polar_mean(TracedAlgebra([mats.shape[-1]]), [mats])
        bound = lam[:, -1]
        full = _full_nr_grid(mats, _TargetNorm.NR_GRID).max(axis=1)
        assert np.all(full <= bound + 1e-12 * norm2)
        # equality for normal rows, where |F| = |F*| and w(F) = ||F||
        comm = np.abs(mats @ mats.conj().swapaxes(-1, -2)
                      - mats.conj().swapaxes(-1, -2) @ mats).max(axis=(1, 2))
        normal = comm <= 1e-12 * np.linalg.norm(mats, axis=(1, 2)) ** 2
        w = np.array([numerical_radius(m) for m in mats[normal]])
        assert np.all(np.abs(bound[normal] - w) <= 1e-12 * w)

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bounds_the_pool_and_keeps_the_ranking(self, alg, data):
        mats = data.draw(nr_stacks(alg))
        blocks = radius._target_blocks(mats, alg)
        want = _triple2_pool(alg, blocks).values
        lam, norm2 = radius._polar_mean(alg, blocks)
        bound = radius._knapsack_value(alg, lam)
        assert np.all(want <= bound + 1e-12 * norm2)
        assert np.all(bound <= norm2 * (1 + 1e-12))
        comm = np.abs(mats @ mats.conj().swapaxes(-1, -2)
                      - mats.conj().swapaxes(-1, -2) @ mats).max(axis=(1, 2))
        normal = comm <= 1e-12 * np.linalg.norm(mats, axis=(1, 2)) ** 2
        assert np.all(np.abs(bound - want)[normal] <= 1e-12 * bound[normal])
        # the superop_norm ranking: order[:3] and best_val, and every value scored
        ranked = _TargetNorm("triple2", alg).batch_values(mats, top=3)
        order = np.argsort(ranked)[::-1]
        if min(alg.weights) >= 1.0:
            # unit weights: the ranking is nr's, bit for bit
            nr = _TargetNorm("nr", alg)
            assert ranked.tobytes() == nr.batch_values(mats, top=3).tobytes()
            full = nr.batch_values(mats)
            assert order[:3].tolist() == np.argsort(full)[::-1][:3].tolist()
            return
        assert order[:3].tolist() == np.argsort(want)[::-1][:3].tolist()
        assert ranked[order[0]] == want[order[0]]
        finite = np.isfinite(ranked)
        assert np.array_equal(ranked[finite], want[finite])

    @pytest.mark.parametrize("c", [1.0, -0.7, 3.3])
    def test_tied_values_keep_the_unpruned_order(self, c):
        # positive 1x1 matrices are their own |||.|||_2; on a cosine these tie
        # in pairs, and argsort orders such ties by the rest of the vector, so
        # the ranking must not drop rows there
        v = c * np.cos(radius.TWO_PI * np.arange(1024) / 1024)
        mats = (v - v.min() + 1.0).astype(complex)[:, None, None]
        tn = _TargetNorm("triple2")
        ranked, want = tn.batch_values(mats, top=3), tn.batch_values(mats)
        assert np.argsort(ranked)[::-1][:3].tolist() == np.argsort(want)[::-1][:3].tolist()


@st.composite
def psd_stacks(draw, alg, max_rows=12):
    """Stacks of PSD G G*, rank-one g g* and zero elements over ``alg`` at
    scales 1e-12 .. 1e12, some rows repeated."""
    rng = rng_from(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["full", "rank-one", "zero", "repeat"]),
                              min_size=1, max_size=max_rows)):
        if kind == "repeat" and mats:
            mats.append(mats[int(rng.integers(len(mats)))])
            continue
        blocks = []
        for n in alg.block_sizes:
            g = random_complex_matrix(rng, n, n if kind == "full" else 1)
            blocks.append(g @ g.conj().T if kind != "zero" else np.zeros((n, n)))
        mats.append(10.0 ** draw(st.floats(-12, 12)) * alg.element(blocks).dense())
    return np.stack(mats)


def _pool_rows(pool):
    """Each item's values, rank-one objective, exactness and maximizer."""
    return [(v, r, e, [m[i].tobytes() for m in pool.maximizer])
            for i, (v, r, e) in enumerate(zip(pool.values.tolist(), pool.rank1.tolist(),
                                               pool.exact.tolist()))]


class TestStackedRadius:
    """The stacked kernels behind ``numerical_radius`` and ``triple_norm``
    give each matrix or element the result of a call on it alone, bit for
    bit."""

    @settings(max_examples=60, deadline=None)
    @given(mats=nr_stacks(max_n=5), grid=st.sampled_from([64, 256, 512, 1024, 100]),
           adjoints=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_nr_stack_is_numerical_radius_per_matrix(self, mats, grid, adjoints):
        want = [numerical_radius(m, grid=grid) for m in mats]
        assert radius._nr_stack(mats, grid).tolist() == want
        # a list may mix layouts: an adjoint is scored as the transposed view
        views = [m.conj().T if a else m for m, a in zip(mats, adjoints)]
        assert radius._nr_stack(views, grid).tolist() == [numerical_radius(v, grid=grid)
                                                          for v in views]

    @pytest.mark.parametrize("n", [4, 5])
    def test_adjoint_views_keep_their_bits(self, n):
        # <Mh, h> on a transposed view is another BLAS kernel than on its
        # contiguous copy; with OpenBLAS 0.3.31 the two differ in the last
        # bits for about one 4x4 or 5x5 adjoint in ten, as
        # numerical_radius_suite draws them
        rng = rng_from(123)
        adj = [random_complex_matrix(rng, n, n).conj().T for _ in range(40)]
        assert radius._nr_stack(adj, 1024).tolist() == [numerical_radius(a) for a in adj]

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    @pytest.mark.parametrize("alg", STACK_ALGEBRAS, ids=["M2", "M3", "M4", "M2+M1"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_triple_norm_stack_is_triple_norm_per_element(self, alg, quick, data):
        mats = np.concatenate([data.draw(nr_stacks(alg, max_rows=5)),
                               data.draw(psd_stacks(alg, max_rows=2))])
        mats = mats[data.draw(st.permutations(range(len(mats))))]
        fs = [alg.from_dense(m) for m in mats]
        budget = SearchBudget(starts=data.draw(st.sampled_from([0, 4])), iters=6,
                              seed=data.draw(st.integers(0, 9)))
        got = radius._triple_norm_stack(alg, fs, budget, quick)
        for f, res in zip(fs, got, strict=True):
            one = triple_norm(f, budget, quick)
            assert (res.value, res.upper_bound, res.rank1_bound, res.status) == (
                one.value, one.upper_bound, one.rank1_bound, one.status)
            assert [b.tobytes() for b in res.maximizer.blocks] == [
                b.tobytes() for b in one.maximizer.blocks]


BRACKET_KINDS = ["zero", "hermitian", "symmetric", "psd", "normal", "unitary", "shift",
                 "nudged", "generic", "repeat"]


def _grid_only_nr(mats, grid=1024):
    """``_nr_stack`` with the normal bracket switched off: every row on the grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius, "_nr_normal", lambda stack, mats, rows, out: rows)
        return radius._nr_stack(mats, grid)


class TestNormalBracket:
    """``_nr_stack`` settles normal rows on rho(M) <= w(M) <= || |M| + |M*| || / 2
    with no grid; every other row keeps the grid's value."""

    @settings(max_examples=60, deadline=None)
    @given(mats=nr_stacks(max_n=5, max_rows=12, kinds=BRACKET_KINDS))
    def test_settled_rows_close_the_bracket(self, mats):
        got = radius._nr_stack(mats, 1024)
        fro = np.linalg.norm(mats, axis=(1, 2))
        w, rows = np.zeros(len(mats)), fro.nonzero()[0]
        settled = np.setdiff1d(rows, radius._nr_normal(mats, mats, rows, w))
        vals = w[settled]
        assert got[settled].tolist() == vals.tolist()
        upper = radius._polar_mean(TracedAlgebra([mats.shape[-1]]), [mats])[0][:, -1]
        rho = np.abs(np.linalg.eigvals(mats)).max(axis=1)
        # |<Mh, h>| and the polar mean each carry rounding of order eps ||M||_F
        assert np.all(vals <= upper[settled] + 1e-12 * fro[settled])
        assert np.all(np.abs(vals - rho[settled]) <= 1e-12 * fro[settled])
        # non-normal rows, and normal rows left open, are the grid's bit for bit
        rest = np.setdiff1d(np.arange(len(mats)), settled)
        assert got[rest].tolist() == _grid_only_nr(mats)[rest].tolist()
        # a stacked value is the one the matrix gives alone
        assert got.tolist() == [numerical_radius(m) for m in mats]

    @pytest.mark.parametrize("kind", ["hermitian", "symmetric", "psd", "normal", "unitary"])
    def test_normal_rows_skip_the_grid(self, grid_angles, kind):
        rng = rng_from(31)
        for n in (1, 2, 3, 5):
            mats = np.stack([10.0 ** s * _matrix_of_kind(rng, kind, n) for s in (-12, 0, 12)])
            w = radius._nr_stack(mats, 1024)
            assert grid_angles == []
            # the bracket moves w by rounding only
            assert np.all(np.abs(w - _grid_only_nr(mats)) <= 1e-14 * w)
            grid_angles.clear()

    def test_open_rows_fall_back_to_the_grid(self, grid_angles, monkeypatch):
        # the closing test decides, not the filter: an angle taken at the
        # smallest eigenvalue, -1 here, leaves the hermitian rows open, and
        # the grid gives them its value
        rng = rng_from(33)
        q = np.linalg.qr(random_complex_matrix(rng, 2, 2))[0]
        mats = np.stack([s * (q * [3.0, -1.0]) @ q.conj().T for s in (1e-6, 1.0, 1e6)])
        monkeypatch.setattr(np.linalg, "eigvals", lambda a, _f=np.linalg.eigvals: 1.0 / _f(a))
        assert radius._nr_normal(mats, mats, np.arange(3), np.zeros(3)).tolist() == [0, 1, 2]
        w = radius._nr_stack(mats, 1024)
        assert len(grid_angles) == 1
        assert w.tolist() == _grid_only_nr(mats).tolist()
        assert np.allclose(w, [3e-6, 3.0, 3e6], rtol=1e-14)


@pytest.mark.parametrize("name, scale", [
    (name, scale) for name in ("jordan", "diagonal", "hermitian", "generic")
    for scale in (1e-150, 1e80, 1e150)] + [("diagonal", 1e160)])
def test_normal_test_scales_without_overflow(name, scale):
    # the normality test and the bracket run on each row scaled by a power
    # of two: no square overflows or underflows (RuntimeWarning is an error
    # here), and w(cM) / c is w(M); at 1e160 only a normal row, settled on
    # the bracket alone, is free of overflow: the grid's still overflows
    g = random_complex_matrix(rng_from(5), 3, 3)
    mat = {"jordan": np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex),
           "diagonal": np.diag([1.0, 2.0 + 1.0j]), "hermitian": g + g.conj().T,
           "generic": g}[name]
    assert numerical_radius(scale * mat) / scale == pytest.approx(numerical_radius(mat),
                                                                  rel=1e-14)


@st.composite
def weighted_elements(draw, low=1.0, high=4.0):
    """An element over 1-3 blocks of sizes 1-3, each block weight drawn in
    [low, high], at scales 1e-3 .. 1e3."""
    count = draw(st.integers(1, 3))
    alg = TracedAlgebra([draw(st.integers(1, 3)) for _ in range(count)],
                        [draw(st.floats(low, high)) for _ in range(count)])
    f = random_element(alg, rng_from(draw(st.integers(0, 2 ** 32 - 1))))
    return f * (10.0 ** draw(st.floats(-3, 3)))


WEIGHTED_ALGEBRAS = [TracedAlgebra([2, 1], [1.0, 0.5])] + [
    a for a in suites.target_pool() if min(a.weights) < 1.0]


class TestRadiusIdentity:
    """|||F|||_2 = w(F) when every block weight is >= 1: W = w_k^{-1/2} h h*
    attains w(F_k), and |tr(Z W_k F_k W_k)| <= w(F_k) tr(W_k^2) for unitary
    Z bounds ||W F W||_1 by w(F) ||W||_2^2.  For other weights the same
    argument gives max_k min(w_k, 1) w(F_k) <= |||F|||_2 <= w(F)."""

    @settings(max_examples=40, deadline=None)
    @given(f=weighted_elements(), seed=st.integers(0, 9))
    def test_weights_at_least_one_give_the_numerical_radius(self, f, seed):
        w = numerical_radius(f)
        budget = SearchBudget(starts=2, iters=5, seed=seed)
        for res in (triple_norm(f, budget, quick=True), triple_norm(f, budget)):
            assert res.value == res.rank1_bound == w
            assert res.upper_bound == pytest.approx(schatten_norm(f, 2.0), rel=1e-14)
            m = res.maximizer
            # feasible: W >= 0, ||W||_inf <= 1, ||W||_2 <= 1, and it attains w
            for b in m.blocks:
                assert np.array_equal(b, b.conj().T)
                lam = np.linalg.eigvalsh(b)
                assert lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12
            assert schatten_norm(m, 2.0) <= 1.0 + 1e-12
            assert schatten_norm(m @ f @ m, 1.0) == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("alg", WEIGHTED_ALGEBRAS, ids=str)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-3, 3))
    def test_other_weights_lie_between_the_block_radii(self, alg, seed, scale):
        f = random_element(alg, rng_from(seed)) * (10.0 ** scale)
        res = triple_norm(f, SearchBudget(starts=2, iters=10, seed=1))
        radii = [numerical_radius(b) for b in f.blocks]
        low = max(min(wt, 1.0) * r for wt, r in zip(alg.weights, radii))
        assert low * (1.0 - 1e-12) <= res.value <= max(radii) * (1.0 + 1e-12)


def _block_diagonal_map(source, target, seed):
    """A generator-form map, d = 2, whose values are block-diagonal over
    ``target``: one rank term per target block, its factors zero outside
    the block's rows."""
    rng = rng_from(seed)
    factors, lo = [], 0
    for n in target.block_sizes:
        a = np.zeros((2, target.total_dim, source.total_dim), dtype=complex)
        a[:, lo:lo + n] = (rng.standard_normal((2, n, source.total_dim))
                           + 1j * rng.standard_normal((2, n, source.total_dim)))
        factors.append(a)
        lo += n
    return OperatorValuedMap.from_generator(source, factors, target_algebra=target)


class TestTriple2IsNr:
    """On targets whose block weights are all >= 1 the triple2 target norm
    is nr: the same search, value and maximizer, and one search when a
    check asks for both."""

    TARGETS = [TracedAlgebra([2]), TracedAlgebra([3]), TracedAlgebra([2, 1], [1.0, 2.0])]
    X, Y = np.array([1.0, 0.5j]), np.array([0.3, 1.0])

    @pytest.mark.parametrize("target", TARGETS, ids=["M2", "M3", "M2+M1"])
    def test_superop_norm_is_nr(self, target):
        for seed in range(3):
            op = _block_diagonal_map(TracedAlgebra([2]), target, seed).superop(self.X, self.Y)
            budget = SearchBudget(starts=8, iters=4, seed=seed)
            tri, nr = superop_norm(op, "triple2", budget), superop_norm(op, "nr", budget)
            assert (tri.value, tri.status) == (nr.value, nr.status)
            assert [b.tobytes() for b in tri.maximizer.blocks] == [
                b.tobytes() for b in nr.maximizer.blocks]

    @pytest.mark.parametrize("target", TARGETS, ids=["M2", "M3", "M2+M1"])
    def test_check_searches_once_for_both_norms(self, target, monkeypatch):
        calls = []

        def counted(ops, norm, budgets, pools, _f=radius._superop_stack):
            calls.append(norm)
            return _f(ops, norm, budgets, pools)

        monkeypatch.setattr(radius, "_superop_stack", counted)
        phis = [_block_diagonal_map(TracedAlgebra([2]), target, seed) for seed in range(3)]
        budgets = [SearchBudget(starts=8, iters=4, seed=seed) for seed in range(3)]
        reps = radius._check_cs_stack(phis, [self.X] * 3, [self.Y] * 3, budgets,
                                      ("nr", "triple2"))
        assert len(calls) == 1
        for nr, tri in zip(reps["nr"], reps["triple2"], strict=True):
            assert (tri.lhs, tri.rhs, tri.ratio, tri.status) == (nr.lhs, nr.rhs, nr.ratio,
                                                                 nr.status)
            assert tri.witness == {**nr.witness, "target_norm": "triple2"}

    def test_a_weight_below_one_keeps_the_pool(self, monkeypatch):
        rows = []

        def counted(alg, blocks, *args, _f=radius._triple2_pool, **kwargs):
            rows.append(len(blocks[0]))
            return _f(alg, blocks, *args, **kwargs)

        monkeypatch.setattr(radius, "_triple2_pool", counted)
        target = TracedAlgebra([2, 1], [1.0, 0.5])
        phi = _block_diagonal_map(TracedAlgebra([2]), target, 0)
        reps = radius._check_cs_stack([phi], [self.X], [self.Y], [SearchBudget(starts=8, iters=4)],
                                      ("nr", "triple2"))
        assert sum(rows) > 0
        assert reps["triple2"][0].lhs != reps["nr"][0].lhs

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 0.5]])
    def test_values_off_the_blocks_are_refused(self, weights):
        target = TracedAlgebra([2, 1], weights)
        rng = rng_from(6)
        factors = [[random_complex_matrix(rng, 3, 2) for _ in range(2)]]
        phi = OperatorValuedMap.from_generator(TracedAlgebra([2]), factors, target_algebra=target)
        with pytest.raises(PreconditionError):
            superop_norm(phi.superop(self.X, self.Y), "triple2", SearchBudget(starts=4, iters=2))
        # also where a check shares one search between nr and triple2
        for norms in (("nr", "triple2"), ("triple2", "nr")):
            with pytest.raises(PreconditionError):
                radius._check_cs_stack([phi], [self.X], [self.Y],
                                       [SearchBudget(starts=4, iters=2)], norms)


class TestStackedSearch:
    """The stacked operator-valued search gives each instance the result of
    a search on it alone, bit for bit."""

    SOURCES = [(TracedAlgebra([2]), 2), (TracedAlgebra([3]), 3),
               (TracedAlgebra([2, 1], [1.0, 0.5]), 2)]

    @pytest.mark.parametrize("source, n", SOURCES, ids=["M2", "M3", "M2+M1"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_stack_is_the_check_per_instance(self, source, n, data):
        # 1-6 instances of one shape in a drawn order, each at its own budget
        # (starts 0 ranks a one-candidate pool whole); y = 0 makes a zero
        # operator
        phis, xs, ys, budgets = [], [], [], []
        for _ in range(data.draw(st.integers(1, 6))):
            rng = rng_from(data.draw(st.integers(0, 2 ** 32 - 1)))
            d = data.draw(st.integers(1, 3))
            phis.append(suites.random_operator_valued(source, n, d, data.draw(st.integers(1, 2)),
                                                      int(rng.integers(0, 2 ** 62))))
            xs.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            ys.append(np.zeros(d) if data.draw(st.booleans()) and data.draw(st.booleans())
                      else rng.standard_normal(d) + 1j * rng.standard_normal(d))
            budgets.append(SearchBudget(starts=data.draw(st.sampled_from([0, 2, 16])),
                                        iters=data.draw(st.sampled_from([0, 3])),
                                        seed=data.draw(st.integers(0, 9))))
        reports = radius._check_cs_stack(phis, xs, ys, budgets, ("nr", "triple2"))
        ops = [phi.superop(x, y) for phi, x, y in zip(phis, xs, ys)]
        for norm in ("nr", "triple2"):
            results = radius._superop_stack(ops, norm, budgets)
            for phi, x, y, b, op, rep, res in zip(phis, xs, ys, budgets, ops, reports[norm],
                                                  results, strict=True):
                one = check_cs_operator_valued(phi, x, y, norm, b)
                alone = superop_norm(op, norm, b)
                assert (rep.lhs, rep.rhs, rep.status) == (one.lhs, one.rhs, one.status)
                assert (res.value, res.status) == (alone.value, alone.status) == (
                    rep.lhs, "exact" if op.is_zero or source.coord_dim == 1 else "heuristic")
                assert [b.tobytes() for b in res.maximizer.blocks] == [
                    b.tobytes() for b in alone.maximizer.blocks]

    @pytest.mark.parametrize("norm", ["nr", "triple2"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_grouped_ranking_is_the_ranking_per_group(self, norm, data):
        # every value, -inf included, is the one the group's own ranking
        # gives; each group's top three and finite values are its unpruned ones
        alg = data.draw(st.sampled_from(POOL_ALGEBRAS)) if norm == "triple2" else None
        mats = data.draw(nr_stacks(alg, max_rows=30))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(mats)), max_size=4)))
        parts = [g for g in np.split(mats, cuts) if len(g)]
        tn = _TargetNorm(norm, alg)
        got = tn.batch_values(mats, top=3, groups=[len(g) for g in parts])
        assert np.array_equal(got, np.concatenate([tn.batch_values(g, top=3) for g in parts]))
        for g, ranked in zip(parts, np.split(got, np.cumsum([len(g) for g in parts])[:-1])):
            full = tn.batch_values(g)
            assert np.argsort(ranked)[::-1][:3].tolist() == np.argsort(full)[::-1][:3].tolist()
            seen = np.isfinite(ranked)
            assert ranked[seen].tolist() == full[seen].tolist()

    def test_tied_group_keeps_the_full_order(self):
        # the cosine-grid ties of TestPrunedNrGrid as one group beside a
        # generic one: argsort orders the tied values by the rest of their
        # group, so that group is scored whole and the other one is pruned
        v = np.cos(radius.TWO_PI * np.arange(1024) / 1024)
        tied = (v - v.min() + 1.0).astype(complex)[:, None, None]
        generic = rng_from(3).standard_normal((40, 1, 1)) + 0j
        got = _TargetNorm("nr").batch_values(np.concatenate([generic, tied]), top=3,
                                             groups=[40, 1024])
        assert np.isneginf(got[:40]).any() and np.isfinite(got[40:]).all()
        want = _full_nr_grid(tied, _TargetNorm.NR_GRID).max(axis=1)
        assert np.argsort(got[40:])[::-1][:3].tolist() == np.argsort(want)[::-1][:3].tolist()

    def test_mixed_shapes_are_refused(self):
        phis = [suites.random_operator_valued(TracedAlgebra([2]), 2, 2, 1, 1),
                suites.random_operator_valued(TracedAlgebra([3]), 2, 2, 1, 2)]
        v = np.array([1.0, 0.5j])
        with pytest.raises(StructureError):
            radius._check_cs_stack(phis, [v, v], [v, v], [SearchBudget()] * 2, ("nr",))


class TestCandidateMemo:
    """The last candidate pool drawn is kept, read-only, for the next search."""

    def test_hit_is_a_read_only_fresh_draw(self):
        src = TracedAlgebra([2, 1], [1.0, 0.5])
        drawn = radius._unitary_candidates(src, SearchBudget(starts=16, iters=3, seed=3))
        # the pool depends on block sizes, starts and seed, not weights or iters
        hit = radius._unitary_candidates(TracedAlgebra([2, 1]), SearchBudget(starts=16, seed=3))
        assert hit is drawn and radius._draw_candidates.cache_info().hits == 1
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0, 0] = 0.0
        fresh = radius._draw_candidates.__wrapped__((2, 1), 16, 3)
        assert hit.tobytes() == fresh.tobytes()

    def test_second_budget_evicts_the_first(self):
        a, b = SearchBudget(starts=8, seed=1), SearchBudget(starts=8, seed=2)
        for budget in (a, a, b, a):
            radius._unitary_candidates(_M2, budget)
        info = radius._draw_candidates.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 1)

    def test_target_norm_order_does_not_move_reports(self):
        # each norm's search meets a fresh draw in one order and a memo hit
        # in the other
        phi = suites.random_operator_valued(TracedAlgebra([3]), 3, 3, 2, seed=11)
        x, y = np.array([1.0, 0.5j, -0.2]), np.array([0.3, 1.0, 0.1j])
        budget = SearchBudget(starts=16, iters=4, seed=5)

        def reports(norms):
            radius._draw_candidates.cache_clear()
            return {n: check_cs_operator_valued(phi, x, y, n, budget) for n in norms}

        assert reports(("nr", "triple2")) == reports(("triple2", "nr"))


class TestPsdPool:
    """A PSD item's pool is its knapsack maximizer alone."""

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_psd_rows_are_the_knapsack(self, alg, data):
        psd = data.draw(psd_stacks(alg))
        other = data.draw(nr_stacks(alg))
        blocks = radius._target_blocks(psd, alg)
        pool = _triple2_pool(alg, blocks)
        assert pool.exact.all()
        lam = np.concatenate([np.maximum(np.linalg.eigvalsh(b), 0.0) for b in blocks], axis=1)
        knap = (np.repeat(alg.weights, alg.block_sizes) * lam
                * radius._knapsack_take(alg, lam)).sum(axis=1)
        assert np.allclose(pool.values, knap, rtol=1e-13, atol=0)
        assert np.all(pool.rank1 <= pool.best)
        # mixing PSD rows into a non-PSD stack, or reversing it, moves no row
        mixed = np.concatenate([other, psd])
        perm = data.draw(st.permutations(range(len(mixed))))
        alone = (_pool_rows(_triple2_pool(alg, radius._target_blocks(other, alg)))
                 + _pool_rows(pool))
        for order in (perm, perm[::-1]):
            got = _pool_rows(_triple2_pool(alg, radius._target_blocks(mixed[order], alg)))
            assert got == [alone[i] for i in order]

    def test_exact_rows_never_reach_the_rank_one_search(self, monkeypatch):
        calls = []

        def counted(*args, _f=radius._nr_peaks, **kwargs):
            calls.append(len(args[0]))
            return _f(*args, **kwargs)

        monkeypatch.setattr(radius, "_nr_peaks", counted)
        f = random_element(TracedAlgebra([3]), rng_from(4))
        assert triple_norm(f @ f.adjoint()).status == "exact"
        assert calls == []
        triple_norm(f, quick=True)
        assert calls, "the counter sees the non-PSD search"
        # the exact right-hand side of the operator-valued check, alone
        calls.clear()
        monkeypatch.setattr(radius, "_superop_stack", lambda ops, norm, budgets, pools: [
            SuperOperatorNormResult(0.0, op.source.identity(), "heuristic") for op in ops])
        phi = suites.random_operator_valued(POOL_ALGEBRAS[2], 3, 2, 2, seed=9)
        x, y = np.array([1.0, 0.5j]), np.array([0.3, 1.0])
        rep = check_cs_operator_valued(phi, x, y, "triple2")
        assert calls == []
        ident = phi.source.identity().coords()
        psd = np.stack([phi.superop(v, v).apply_coords(ident) for v in (x, y)])
        m3 = TracedAlgebra([3])                     # the map's dense 3 x 3 target
        lam = radius._polar_mean(m3, radius._target_blocks(psd, m3))[0]   # spectra of PSD F
        knap = radius._knapsack_value(m3, lam)
        assert rep.rhs == pytest.approx(math.sqrt(knap[0] * knap[1]), rel=1e-13)


class TestPoolFamilies:
    """Each item of a |||.|||_2 pool has 1 + 2 n_blocks + total_dim slots: the
    knapsack maximizer (of F for PSD F, of |F| otherwise), two rank-one
    directions per block in block order, then the spectral projections of
    |F| by decreasing level."""

    @staticmethod
    def _abs(m):
        lam, q = np.linalg.eigh(m.conj().T @ m)
        return (q * np.sqrt(np.maximum(lam, 0.0))) @ q.conj().T

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    @pytest.mark.parametrize("refine", [False, True], ids=["quick", "full"])
    def test_slots_are_knapsack_rank_one_then_projections(self, alg, refine):
        fs = []
        rng = rng_from(44)
        for t in range(16):                          # PSD, indefinite, zero, generic
            f = random_element(alg, rng)
            h = f + f.adjoint()
            lam = np.concatenate([np.linalg.eigvalsh(b) for b in h.blocks])
            h = h - alg.identity() * (0.4 * lam.min() + 0.6 * lam.max())
            fs.append([f @ f.adjoint(), h, alg.zero(), f][t % 4])
        blocks = [np.stack([f.blocks[k] for f in fs]) for k in range(alg.n_blocks)]
        pool = _triple2_pool(alg, blocks, grid=256 if refine else 64, refine=refine)
        nblk = alg.n_blocks
        nslot = 1 + 2 * nblk + alg.total_dim
        assert pool.objective.shape == (len(fs), nslot)
        assert all(c.shape[:2] == (len(fs), nslot) for c in pool.candidates)
        for i, f in enumerate(fs):
            kind = ("psd", "hermitian", "zero", "generic")[i % 4]
            assert bool(pool.exact[i]) == (kind in ("psd", "zero"))
            if kind == "hermitian":
                assert min(np.linalg.eigvalsh(b)[0] for b in f.blocks) < 0.0
            # slot 0: the knapsack maximizer of F (PSD) or of |F|
            base = f.blocks if pool.exact[i] else [self._abs(b) for b in f.blocks]
            want = radius._knapsack_stack(alg, [np.linalg.eigh(b[None]) for b in base])
            for c, w in zip(pool.candidates, want):
                assert np.allclose(c[i, 0], w[0], rtol=0, atol=1e-10)
            if kind == "zero":
                assert pool.objective[i, 0] == 0.0
            else:
                wf = AlgebraElement(alg, [c[i, 0] for c in pool.candidates])
                assert pool.objective[i, 0] == pytest.approx(
                    schatten_norm(wf @ f @ wf, 1.0) / schatten_norm(f, 2.0), rel=1e-12)
            # then two rank-one slots per block: c h h* in that block alone
            ones = pool.objective[i, 1:1 + 2 * nblk].reshape(nblk, 2)
            if pool.exact[i]:
                assert np.all(pool.objective[i, 1:] == -np.inf)
                continue
            for kb, (wt, b) in enumerate(zip(alg.weights, f.blocks)):
                assert np.isfinite(ones[kb, 0])
                cap = min(1.0, 1.0 / math.sqrt(wt))
                for j in np.isfinite(ones[kb]).nonzero()[0]:
                    slot = 1 + 2 * kb + j
                    for kc, c in enumerate(pool.candidates):
                        w = c[i, slot]
                        if kc != kb:
                            assert not w.any()
                            continue
                        assert np.allclose(np.linalg.eigvalsh(w),
                                           [0.0] * (len(w) - 1) + [cap], atol=1e-12)
                # the first direction is the numerical radius' own
                nr = wt * cap ** 2 * numerical_radius(b) / schatten_norm(f, 2.0)
                assert ones[kb].max() <= nr * (1.0 + 1e-12)
                if refine:
                    assert ones[kb, 0] == pytest.approx(nr, rel=1e-9)
            # then the projection of |F| onto each distinct positive level and
            # above, largest level first, shrunk to ||P||_2 = sqrt(sum w_k rank_k)
            decs = [np.linalg.eigh(self._abs(b)) for b in f.blocks]
            levels = np.sort(np.concatenate([lam for lam, _ in decs]))[::-1]
            levels = levels[levels > 1e-12]
            assert np.all(np.diff(levels) < -1e-9)       # distinct levels, no ties
            projs = pool.objective[i, 1 + 2 * nblk:]
            assert np.all(np.isfinite(projs[:len(levels)]))
            assert np.all(projs[len(levels):] == -np.inf)
            for lv, level in enumerate(levels):
                above = [(q * (lam >= level - 1e-9)) @ q.conj().T for lam, q in decs]
                sq = sum(wt * np.trace(a).real for wt, a in zip(alg.weights, above))
                shrink = min(1.0, 1.0 / math.sqrt(sq))
                for c, a in zip(pool.candidates, above):
                    assert np.allclose(c[i, 1 + 2 * nblk + lv], shrink * a, rtol=0, atol=1e-9)


class TestWeightedPoolValues:
    """On algebras with a block weight below 1 a spectral projection of |F|
    can be the best candidate of the pool, so the quick |||.|||_2 rests on it.
    Pinned: the 39th and 26th draws of rng_from(1003), as F = f - 0.3 f*."""

    @pytest.mark.parametrize("sizes, weights, draw, value", [
        ([2, 1], [1.0, 0.5], 38, 2.746524513253278),
        ([3, 1], [0.5, 1.0], 25, 2.602417446930636),
    ], ids=["M2+M1", "M3+M1"])
    def test_quick_value_of_a_projection_winner(self, sizes, weights, draw, value):
        alg = TracedAlgebra(sizes, weights)
        rng = rng_from(1003)
        for _ in range(draw + 1):
            f = random_element(alg, rng)
        f = f - f.adjoint() * 0.3
        pool = _triple2_pool(alg, [b[None] for b in f.blocks])
        assert np.argmax(pool.objective[0]) >= 1 + 2 * alg.n_blocks
        assert triple_norm(f, quick=True).value >= value * (1.0 - 1e-13)


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _unit_psd_2x2(x):
    """The PSD W on M_2 with ||W||_F = 1 at parameters x = (a, theta, phi):
    eigenvalues cos a >= sin a (a in [0, pi/4]) and top eigenvector the Bloch
    direction (theta, phi)."""
    a, th, ph = x[..., 0], x[..., 1], x[..., 2]
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    top = 0.5 * (np.eye(2) + np.einsum("...i,ijk->...jk", n, _PAULI))
    return (np.cos(a)[..., None, None] * top
            + np.sin(a)[..., None, None] * (np.eye(2) - top))


def _trace_norm_2x2(m):
    """||M||_1 = (||M||_F^2 + 2 |det M|)^{1/2} of a stack of 2 x 2 matrices."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1)) + 2.0 * np.abs(det))


def _brute_force_triple_2x2(f):
    """|||F|||_2 on M_2 with the plain trace, by brute force: ||W F W||_1 is
    homogeneous of degree 2 in W, so the sup sits on ||W||_F = 1 (which
    implies ||W||_inf <= 1).  A dense grid over (a, theta, phi), then a
    coordinate search polished down to steps of 1e-13."""
    axes = np.meshgrid(np.linspace(0.0, np.pi / 4, 24), np.linspace(0.0, np.pi, 32),
                       np.linspace(0.0, 2 * np.pi, 64, endpoint=False), indexing="ij")
    pts = np.stack(axes, axis=-1).reshape(-1, 3)

    def value(x):
        w = _unit_psd_2x2(x)
        return _trace_norm_2x2(w @ f @ w)

    vals = value(pts)
    x, best = pts[np.argmax(vals)], vals.max()
    lo, hi = np.array([0.0, -np.inf, -np.inf]), np.array([np.pi / 4, np.inf, np.inf])
    moves = np.concatenate([np.eye(3), -np.eye(3)])
    step = np.pi / 32
    while step > 1e-13:
        trial = np.clip(x + step * moves, lo, hi)
        tv = value(trial)
        if tv.max() > best:
            x, best = trial[np.argmax(tv)], tv.max()
        else:
            step *= 0.5
    return float(best)


class TestTripleNormGroundTruth:
    """The full |||.|||_2 search on M_2 against an independent brute force."""

    def test_matches_brute_force_on_m2(self):
        rng = rng_from(2024)
        for t in range(20):
            f = random_complex_matrix(rng, 2, 2)
            if t % 2:                                # indefinite hermitian
                q = np.linalg.qr(f)[0]
                f = (q * [rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)]) @ q.conj().T
            f = 10.0 ** rng.integers(-3, 4) * f
            ref = _brute_force_triple_2x2(f)
            got = triple_norm(_M2.element([f])).value
            assert got == pytest.approx(ref, rel=1e-9)
            assert got <= ref * (1.0 + 1e-13)


class TestEigensolveBudget:
    """The peak refinement and the projection take a bounded number of
    stacked eigensolves, not one per angle or per round."""

    @pytest.mark.parametrize("mat", [
        np.array([[0, 1], [0, 0]], dtype=complex),
        random_element(TracedAlgebra([3]), rng_from(3)).blocks[0],
        random_element(TracedAlgebra([5]), rng_from(5)).blocks[0],
    ], ids=["shift", "random-3x3", "random-5x5"])
    def test_numerical_radius_refines_in_few_eigh_calls(self, linalg_calls, mat):
        # the pruned grid takes at most three eigvalsh calls (coarse angles,
        # the seeded arcs around the peak, bounded angles); the three peaks
        # are refined as one stack, one eigh per Newton step, plus one for
        # the top eigenvector
        assert len(radius._nr_peaks(mat[None], 1024, 3)[1][0]) == 3
        linalg_calls["eigh"] = linalg_calls["eigvalsh"] = 0
        numerical_radius(mat)
        assert 1 <= linalg_calls["eigh"] <= 6, linalg_calls
        assert linalg_calls["eigvalsh"] <= 3, linalg_calls

    def test_generic_matrix_skips_the_normal_bracket(self, linalg_calls):
        # the normality filter runs no linalg and turns a generic 4x4 away
        # before any solve: the grid's two eigvalsh calls and the Newton and
        # top-vector eigh calls, as before the bracket
        numerical_radius(random_element(TracedAlgebra([4]), rng_from(0)).blocks[0])
        assert (linalg_calls["n"], linalg_calls["eigvalsh"], linalg_calls["eigh"]) == (6, 2, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_numerical_radius_solves_a_seeded_grid(self, grid_angles, seed):
        # the floor is the 11th best value around the peak, not the 11th best
        # coarse value: a generic 4x4 solves 94-99 of its 1,024 angles, where
        # the coarse floor alone solves 340-373
        numerical_radius(random_element(TracedAlgebra([4]), rng_from(seed)).blocks[0])
        assert grid_angles and sum(grid_angles) <= 120, grid_angles

    def test_nr_certify_keeps_the_coarse_floor(self, grid_angles):
        # at keep = 1 the best coarse value is the floor, unseeded: seeding
        # the arcs around the peak would solve more angles than it saves
        mats = _criterion9_pool()
        grid_angles.clear()
        for rows in ([0, 5, 9], [1, 2, 3], [10, 40, 90]):
            _TargetNorm("nr").certify(mats[rows])
        assert grid_angles == [107, 114, 116], grid_angles

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    def test_projection_is_one_eigh_per_block(self, linalg_calls, alg):
        rng = rng_from(8)
        blocks = [np.stack([random_complex_matrix(rng, n, n) * 3.0 for _ in range(7)])
                  for n in alg.block_sizes]
        radius._project_stack(alg, blocks)
        assert linalg_calls["eigh"] == alg.n_blocks
        assert linalg_calls["svd"] == 0

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    def test_ascent_step_is_one_svd_and_one_eigh_per_block(self, linalg_calls, alg):
        # from small multiples of I the first try of the first step rises for
        # every start; the step then costs one eigh (the projection) and one
        # SVD (the objective and the next gradient) per block
        f = random_element(alg, rng_from(5))
        up = _stacked_schatten(alg, [b[None] for b in f.blocks], 2.0)[0]
        fh = [np.repeat(b[None] / up, 3, axis=0) for b in f.blocks]     # one F per start
        starts = [np.stack([c * np.eye(n, dtype=complex) for c in (0.05, 0.1, 0.2)])
                  for n in alg.block_sizes]
        got = []
        for iters in (0, 1):
            linalg_calls["svd"] = linalg_calls["eigh"] = 0
            vals = radius._ascend(alg, fh, [s.copy() for s in starts], iters)[0]
            got.append((vals, linalg_calls["svd"], linalg_calls["eigh"]))
        (v0, svd0, eigh0), (v1, svd1, eigh1) = got
        assert np.all(v1 > v0 + 1e-14)
        assert (svd1 - svd0, eigh1 - eigh0) == (alg.n_blocks, alg.n_blocks), got

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), items=st.integers(1, 6), scale=st.floats(-3, 3))
    def test_norms_from_values_in_hand(self, seed, items, scale):
        # on weighted blocks, the gradient's weighted Frobenius norm and the
        # projection's norm from its clipped eigenvalues are ||.||_2
        alg = POOL_ALGEBRAS[2]
        rng = rng_from(seed)
        blocks = [10.0 ** scale * np.stack([random_complex_matrix(rng, n, n)
                                            for _ in range(items)])
                  for n in alg.block_sizes]
        want = _stacked_schatten(alg, blocks, 2.0)
        assert np.allclose(radius._norm2(alg, blocks), want, rtol=1e-14, atol=0)
        decs = [np.linalg.eigh(0.5 * (b + b.conj().swapaxes(-1, -2))) for b in blocks]
        clipped = [lam.clip(0.0, 1.0) for lam, _ in decs]
        want = _stacked_schatten(alg, [radius._spectral(q, c)
                                       for (_, q), c in zip(decs, clipped)], 2.0)
        assert np.allclose(radius._norm2(alg, clipped), want, rtol=1e-14, atol=0)


@st.composite
def square_matrices(draw, normal=False):
    """A generic (or normal) complex matrix of size 2..5 at scales 1e-3 .. 1e3."""
    n = draw(st.integers(2, 5))
    rng = rng_from(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_complex_matrix(rng, n, n)
    if normal:
        q = np.linalg.qr(g)[0]
        g = (q * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ q.conj().T
    return 10.0 ** draw(st.floats(-3, 3)) * g


def _dense_grid_max(mat, angles=65536, chunks=8):
    """max of lambda_max(Re(e^{i theta} M)) over ``angles`` equally spaced
    angles, eigensolved in ``chunks`` stacks."""
    best = -np.inf
    for part in np.array_split(np.exp(1j * radius.TWO_PI * np.arange(angles) / angles), chunks):
        rot = part[:, None, None] * mat
        h = 0.5 * (rot + rot.conj().swapaxes(-1, -2))
        best = max(best, float(np.linalg.eigvalsh(h)[:, -1].max()))
    return best


class TestRadiusProperties:
    @settings(max_examples=25, deadline=None)
    @given(mat=square_matrices())
    def test_numerical_radius_bounds(self, mat):
        w = numerical_radius(mat)
        opn = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert w >= _dense_grid_max(mat) - 1e-12 * np.linalg.norm(mat)
        assert 0.5 * opn * (1 - 1e-13) <= w <= opn * (1 + 1e-13)

    @settings(max_examples=40, deadline=None)
    @given(mat=square_matrices(normal=True))
    def test_numerical_radius_of_normal_is_norm(self, mat):
        opn = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert numerical_radius(mat) == pytest.approx(opn, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), items=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(-3, 3), weights=st.sampled_from([None, (1.0, 0.5), (0.3, 2.0)]))
    def test_projection_feasible_and_idempotent(self, n, items, seed, scale, weights):
        alg = TracedAlgebra([n]) if weights is None else TracedAlgebra([n, 1], list(weights))
        rng = rng_from(seed)
        blocks = [10.0 ** scale * np.stack([random_complex_matrix(rng, k, k)
                                            for _ in range(items)])
                  for k in alg.block_sizes]
        out = radius._project_stack(alg, blocks)
        for b in out:
            herm = 0.5 * (b + b.conj().swapaxes(-1, -2))
            assert np.abs(b - herm).max() <= 1e-12
            lam = np.linalg.eigvalsh(herm)
            assert lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12
        assert _stacked_schatten(alg, out, 2.0).max() <= 1.0 + 1e-12
        again = radius._project_stack(alg, [b.copy() for b in out])
        for a, b in zip(again, out):
            assert np.abs(a - b).max() <= 1e-14


_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]


@pytest.mark.skipif((np.__version__, _BLAS.get("name"), _BLAS.get("version"))
                    != ("2.4.6", "scipy-openblas", "0.3.31.188.0"),
                    reason="golden bits were captured on numpy 2.4.6 / scipy-openblas 0.3.31")
class TestGoldenResults:
    """Fixed-seed results pinned bit for bit (float literals written with repr).

    Captured on numpy 2.4.6 with scipy-openblas 0.3.31.188.0 (64-bit ints,
    DYNAMIC_ARCH, Haswell build target) on x86_64, before triple2 candidate
    pools were evaluated as one stack; the report digests were captured
    before gram tensors were stored as stacks.  The triple-norm, suite and
    check-all literals were captured again when the peak refinement became
    stacked Newton steps and the feasible-set projection one round, and the
    triple-norm, triple2 superoperator, suite and check-all ones when an
    ascent try became one SVD per block and a PSD pool its knapsack alone.
    The M_2 and M_3 triple-norm rows, the triple2 superoperator and suite
    literals and the report digests were captured again when |||.|||_2 on
    block weights >= 1 became the numerical radius (and triple2 there nr).
    Other numpy or BLAS builds may move the last bits, so the class runs
    only on that build.
    """

    TRIPLE = [
        (1.679983985062083, 1.679983985062083, "heuristic",
         1.679983985062083, 1.679983985062083, "heuristic"),
        (3.3361160022731102, 3.3361160022731102, "heuristic",
         3.3361160022731102, 3.3361160022731102, "heuristic"),
        (2.948326805852975, 2.948326805852975, "exact",
         2.948326805852975, 2.948326805852975, "exact"),
        (2.355966418875431, 2.355966418875431, "heuristic",
         2.355966418875431, 2.355966418875431, "heuristic"),
        (1.5717796371636983, 1.5717796371636983, "heuristic",
         1.5717796371636983, 1.5717796371636983, "heuristic"),
        (6.213100799272543, 6.213100799272543, "exact",
         6.213100799272543, 6.213100799272543, "exact"),
        (2.726433126890012, 2.726433126890012, "heuristic",
         2.726433126890012, 2.726433126890012, "heuristic"),
        (3.4639382078621743, 3.4639382078621743, "heuristic",
         3.4639382078621743, 3.4639382078621743, "heuristic"),
        (10.8058137824752, 10.8058137824752, "exact",
         10.8058137824752, 10.8058137824752, "exact"),
        (2.6388420660912137, 2.6388420660912137, "heuristic",
         2.6388420660912137, 2.6388420660912137, "heuristic"),
        (4.440900686965175, 4.440900686965175, "heuristic",
         4.440900686965175, 4.440900686965175, "heuristic"),
        (9.876164790306182, 9.876164790306182, "exact",
         9.876164790306182, 9.876164790306182, "exact"),
        (1.7411133611582876, 1.6799808694176859, "heuristic",
         1.7840586361372026, 1.679983985062084, "heuristic"),
        (3.3361160022731124, 3.3361160022731142, "heuristic",
         3.336116002273111, 3.3361160022731124, "heuristic"),
        (3.4593869212643136, 2.9483268058529775, "exact",
         3.4593869212643136, 2.9483268058529775, "exact"),
        (1.6621862548223076, 1.6621862548223076, "heuristic",
         1.6625835212300175, 1.662583521230019, "heuristic"),
        (3.2663393618369683, 3.2663393618369683, "heuristic",
         3.2663393618369683, 3.2663393618369683, "heuristic"),
        (3.954257865104871, 3.9542578651048705, "exact",
         3.954257865104871, 3.9542578651048705, "exact"),
    ]

    def test_triple_norm_quick_and_full(self):
        got = []
        for sizes, weights in (([2], None), ([3], None), ([2, 1], [1.0, 0.5])):
            alg = TracedAlgebra(sizes, weights)
            rng = rng_from(11)
            for i in range(2):
                f = random_element(alg, rng)
                for g in (f, f + f.adjoint(), f @ f.adjoint()):
                    q = triple_norm(g, SearchBudget(starts=0, iters=0), quick=True)
                    h = triple_norm(g, SearchBudget(starts=2, iters=10, seed=i))
                    got.append((q.value, q.rank1_bound, q.status,
                                h.value, h.rank1_bound, h.status))
        assert got == self.TRIPLE

    def test_superop_norm_triple2(self):
        got = []
        for t in range(4):
            src = TracedAlgebra([2]) if t % 2 == 0 else TracedAlgebra([3])
            phi = suites.random_operator_valued(src, src.total_dim, 2, 1 + t % 2, 100 + t)
            op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
            res = superop_norm(op, "triple2", SearchBudget(starts=8, iters=4, seed=t))
            got.append(res.value)
        assert got == [6.883795671166045, 26.345088720724277, 18.350466529744345,
                       21.13704436006641]

    def test_superop_norm_nr_weighted_blocks(self):
        # value and maximizer bytes, captured before the search ran on
        # coordinate rows
        src = TracedAlgebra([2, 1], [1.0, 0.5])
        phi = suites.random_operator_valued(src, 3, 2, 2, 9)
        op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
        res = superop_norm(op, "nr", SearchBudget(starts=16, iters=12, seed=2))
        assert (res.value, res.status) == (15.639022584948187, "heuristic")
        maximizer = b"".join(b.tobytes() for b in res.maximizer.blocks)
        assert hashlib.sha256(maximizer).hexdigest() == (
            "ca38d0f65db2fd803b8865bb0702e4406daaec325608dacdf98eecf96b0ccbef")

    def test_operator_valued_suite(self):
        assert suites.operator_valued_suite(4, seed=7, starts=16, iters=6) == {
            "name": "operator_valued", "instances": 4, "starts": 16,
            "d1_ratio_defect": 4.440892098500626e-16,
            "nr": {"violations": 0, "max_ratio": 0.9976673951732925},
            "triple2": {"violations": 0, "max_ratio": 0.9976673951732925},
            "status": "holds"}

    @pytest.mark.parametrize("argv, digest", [
        (["check-all", "--seed", "0"],
         "870836c3e49ec79d9f3447f92d4bba15812543dab49d05a471bbe6f7cdb2ae5e"),
        (["kernel-demo", "--seed", "0"],
         "f25224b1d7905408d010d774e91c8c4374b53a120a76dc39aad04ed8a62fc737"),
        (["check-all", "--seed", "3"],
         "3f6c5be30c488748550cc7141849e2931c6e572eb2349978d98c589e52947c92"),
        (["check-all", "--seed", "7"],
         "4444906b80941f334b4187c5439f1b3daeda1332085aad6cb7d78599365f0ac2"),
    ], ids=["check-all", "kernel-demo", "check-all-seed3", "check-all-seed7"])
    def test_report_bytes(self, capsys, argv, digest):
        # sha256 of the rendered report with wall_time_s zeroed
        assert main(argv) == 0
        text = strip_wall_time(capsys.readouterr().out)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_triple_norm_suite(self):
        assert suites.triple_norm_suite(5, seed=6) == {
            "name": "triple_norm", "anchor_diag10": 1.0, "anchor_identity": 1.0,
            "anchor_statuses": ["exact", "exact"], "samples": 5, "sandwich_failures": 0,
            "worst_low": 0.0, "worst_high": -0.3862300031540009,
            "cs_failures": 0, "worst_cs_excess": 5.684341886080802e-14,
            "status": "holds"}

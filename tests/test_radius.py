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
                         triple_norm, triple_norm_axioms)
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
    for name, kw in (("starts", {"starts": -1}), ("iters", {"iters": -1}))]


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

    def test_axioms_report(self):
        rep = triple_norm_axioms(samples=15, seed=0)
        assert rep.zero_value == 0.0
        assert rep.homogeneity_defect <= 1e-6
        assert rep.triangle_defect <= 2e-6
        assert rep.sandwich_failures == 0
        assert rep.min_nonzero_value > 0


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

    def test_norm_monotone_in_budget(self, tr2, rng):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = SuperOperator(tr2, 2, mat)
        vals = [superop_norm(op, "nr", SearchBudget(starts=s, iters=6, seed=4)).value
                for s in (2, 8, 32)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

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

    def test_rejects_misshapen_gram(self, tr2):
        with pytest.raises(StructureError):
            OperatorValuedMap(tr2, 2, np.zeros((1, 1, 4, 3)))
        with pytest.raises(StructureError):
            OperatorValuedMap(tr2, 2, np.zeros((1, 2, 4, 4)))
        with pytest.raises(StructureError):
            OperatorValuedMap.from_generator(tr2, [[np.eye(3)]])

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

        def fake_norm(op, target_norm="nr", budget=None, **kwargs):
            # the lhs Phi(x, y) comes first; any further search meets the value at T = I
            calls.append(op)
            value = 1.04 * rhs if len(calls) == 1 else at_identity[len(calls) - 2]
            return SuperOperatorNormResult(value, tr2.identity(), "heuristic")

        monkeypatch.setattr(radius, "superop_norm", fake_norm)
        rep = check_cs_operator_valued(phi, x, y, "nr", SearchBudget(starts=2, iters=2))
        assert rep.status == "violated"
        assert len(calls) == 1
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


def _mixed_pool(alg, seed, size=24):
    """Seeded elements cycling through PSD, hermitian-indefinite, zero, generic."""
    rng = rng_from(seed)
    out = []
    for t in range(size):
        f = random_element(alg, rng)
        out.append([f @ f.adjoint(), f + f.adjoint(), alg.zero(), f][t % 4])
    return out


POOL_ALGEBRAS = [TracedAlgebra([2]), TracedAlgebra([3]), TracedAlgebra([2, 1], [1.0, 0.5])]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts calls of np.linalg.svd, eigh and eigvalsh in ``["n"]`` and by
    name, and the matrices they solve (the product of the leading axes) in
    ``["matrices"]``; calls of np.linalg.qr in ``["qr"]``."""
    calls = {"n": 0, "matrices": 0, "qr": 0, "svd": 0, "eigh": 0, "eigvalsh": 0}
    for name in ("svd", "eigh", "eigvalsh"):
        def counted(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls["n"] += 1
            calls[_name] += 1
            calls["matrices"] += math.prod(np.shape(a)[:-2])
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def counted_qr(a, *args, _f=np.linalg.qr, **kwargs):
        calls["qr"] += 1
        return _f(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return calls


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
        if norm == "triple2":
            assert vals.tolist() == tn.batch_values(stack).tolist()

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
            assert res.value == float(pool.values[0])
            assert res.rank1_bound == float(pool.upper[0] * pool.rank1[0])
            for got, want in zip(res.maximizer.blocks, pool.maximizer):
                assert np.array_equal(got, want[0])

    def test_linalg_calls_do_not_grow_with_pool(self, linalg_calls):
        # a per-candidate loop would make the count grow with the number of starts
        phi = suites.random_operator_valued(TracedAlgebra([3]), 3, 2, 2, seed=5)
        op = phi.superop(np.array([1.0, 0.5j]), np.array([0.3, 1.0]))
        counts = []
        for starts in (16, 64):
            linalg_calls["n"] = 0
            superop_norm(op, "triple2", SearchBudget(starts=starts, iters=0))
            counts.append(linalg_calls["n"])
        assert counts[0] == counts[1], counts

    def test_nr_ranking_eigensolves_a_pruned_grid(self, linalg_calls):
        # criterion 9's pool: the identity, 64 unitaries and 32 hermitian
        # contractions, ranked on 256 angles; the coarse-grid bound leaves
        # most angles, and the candidates out of the top three, unsolved
        phi = suites.random_operator_valued(TracedAlgebra([3]), 3, 3, 2, seed=11)
        op = phi.superop(np.array([1.0, 0.5j, -0.2]), np.array([0.3, 1.0, 0.1j]))
        coords = radius._unitary_candidates(op.source, SearchBudget(starts=64))
        mats = (op.matrix @ coords.T).T.reshape(-1, 3, 3)
        assert len(mats) == 97
        linalg_calls["matrices"] = 0
        vals = _TargetNorm("nr").batch_values(mats, top=3)
        assert linalg_calls["matrices"] <= 0.4 * 97 * _TargetNorm.NR_GRID, linalg_calls
        full = _full_nr_grid(mats, _TargetNorm.NR_GRID).max(axis=1)
        order = np.argsort(vals)[::-1]
        assert order[:3].tolist() == np.argsort(full)[::-1][:3].tolist()
        assert vals[order[:3]].tolist() == full[order[:3]].tolist()

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


@st.composite
def nr_stacks(draw):
    """Stacks of zero, hermitian, normal, c I and generic matrices at scales
    1e-12 .. 1e12, some rows repeated, so exact ties occur within and across
    rows."""
    n = draw(st.integers(1, 3))
    rng = rng_from(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["zero", "hermitian", "normal", "scalar",
                                                "generic", "repeat"]), min_size=1, max_size=40)):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "repeat" and mats:
            mats.append(mats[int(rng.integers(len(mats)))])
            continue
        if kind == "zero":
            m = np.zeros((n, n), dtype=complex)
        elif kind == "hermitian":
            m = g + g.conj().T
        elif kind == "normal":
            q = np.linalg.qr(g)[0]
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = (q * lam) @ q.conj().T
        elif kind == "scalar":
            m = complex(*rng.standard_normal(2)) * np.eye(n)
        else:
            m = g
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
        # bounded angles, tied rows); the three peaks are refined as one
        # stack, one eigh per Newton step, plus one for the top eigenvector
        assert len(radius._nr_peaks(mat[None], 1024, 3)[1][0]) == 3
        linalg_calls["eigh"] = linalg_calls["eigvalsh"] = 0
        numerical_radius(mat)
        assert 1 <= linalg_calls["eigh"] <= 6, linalg_calls
        assert linalg_calls["eigvalsh"] <= 3, linalg_calls

    @pytest.mark.parametrize("alg", POOL_ALGEBRAS, ids=["M2", "M3", "M2+M1"])
    def test_projection_is_one_eigh_per_block(self, linalg_calls, alg):
        rng = rng_from(8)
        blocks = [np.stack([random_complex_matrix(rng, n, n) * 3.0 for _ in range(7)])
                  for n in alg.block_sizes]
        radius._project_stack(alg, blocks)
        assert linalg_calls["eigh"] == alg.n_blocks


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
    stacked Newton steps and the feasible-set projection one round.  Other
    numpy or BLAS builds may move the last bits, so the class runs only on
    that build.
    """

    TRIPLE = [
        (1.6799808694176859, 1.6799808694176872, "heuristic",
         1.6799839850620824, 1.6799839850620846, "heuristic"),
        (3.3361160022731116, 3.3361160022731124, "heuristic",
         3.3361160022731084, 3.3361160022731124, "heuristic"),
        (2.9483268058529775, 2.9483268058529775, "exact",
         2.948326805852975, 2.9483268058529766, "exact"),
        (2.355936640592555, 2.355936640592555, "heuristic",
         2.355966418875429, 2.3559664188754286, "heuristic"),
        (1.5717796371636976, 1.5717796371636976, "heuristic",
         1.5717796371636976, 1.5717796371636976, "heuristic"),
        (6.21310079927255, 6.213100799272551, "exact",
         6.213100799272549, 6.213100799272549, "exact"),
        (2.7261216912968216, 2.7261216912968225, "heuristic",
         2.72643312689001, 2.7264331268900106, "heuristic"),
        (3.463938207862175, 3.463938207862179, "heuristic",
         3.463938207862175, 3.463938207862179, "heuristic"),
        (10.8058137824752, 10.805813782475203, "exact",
         10.8058137824752, 10.805813782475203, "exact"),
        (2.638554103949752, 2.6385541039497524, "heuristic",
         2.638842066091213, 2.638842066091213, "heuristic"),
        (4.440900686965172, 4.440900686965179, "heuristic",
         4.440900686965172, 4.440900686965179, "heuristic"),
        (9.876164790306191, 9.876164790306188, "exact",
         9.876164790306191, 9.87616479030618, "exact"),
        (1.7411133611582876, 1.6799808694176859, "heuristic",
         1.7840586361372033, 1.679983985062084, "heuristic"),
        (3.3361160022731124, 3.3361160022731142, "heuristic",
         3.336116002273111, 3.3361160022731124, "heuristic"),
        (3.4593869212643136, 2.948326805852978, "exact",
         3.4593869212643136, 2.948326805852978, "exact"),
        (1.6621862548223076, 1.6621862548223076, "heuristic",
         1.6625835212300175, 1.662583521230019, "heuristic"),
        (3.2663393618369674, 3.2663393618369683, "heuristic",
         3.2663393618369674, 3.2663393618369683, "heuristic"),
        (3.9542578651048697, 3.9542578651048714, "exact",
         3.9542578651048697, 3.9542578651048714, "exact"),
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
        assert got == [6.880011270236953, 26.344871748921875, 18.35046280834671,
                       21.137999786163565]

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
            "triple2": {"violations": 0, "max_ratio": 0.9976673807436386},
            "status": "holds"}

    @pytest.mark.parametrize("argv, digest", [
        (["check-all", "--seed", "0"],
         "67ced714aa3eef2e10ff01ea17da418a312bdae1706f41d35b9bda42aabb6dcf"),
        (["kernel-demo", "--seed", "0"],
         "fc8a628165e4feb8ac5a31eca01fac8d336bce69d1f40ed5c5aa8793798a3468"),
    ], ids=["check-all", "kernel-demo"])
    def test_report_bytes(self, capsys, argv, digest):
        # sha256 of the rendered report with wall_time_s zeroed
        assert main(argv) == 0
        text = strip_wall_time(capsys.readouterr().out)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_triple_norm_suite(self):
        assert suites.triple_norm_suite(5, seed=6) == {
            "name": "triple_norm", "anchor_diag10": 1.0, "anchor_identity": 1.0,
            "anchor_statuses": ["exact", "exact"], "samples": 5, "sandwich_failures": 0,
            "worst_low": -3.1086244689504383e-15, "worst_high": -0.38623000315400247,
            "cs_failures": 0, "worst_cs_excess": 7.105427357601002e-15,
            "status": "holds"}

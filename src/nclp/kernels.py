"""Kernel-driven positive sesquilinear maps over the algebra itself.

From a PSD anchor W, a nonnegative continuous kernel k on
[0, ||W||] x [0, ||W||] and a conjugating factor T, the module builds

* eta_x(W) = k(x, W) by functional calculus (PSD for every x),
* the function-valued map  phi(X, Y)(x) = rho(X eta_x(W) Y*),
* its algebra-valued upgrade  Phi(X, Y) = T phi(X, Y)(W) T*,
* the operator-valued family  Phi(X, Y)(S) = T g(W) T* with
  g(x) = rho(X eta_x(W) S eta_x(W) Y*),

together with positivity/left-invariance verification and the explicit
norm bounds  ||Phi(X,Y)(S)||_nr <= ||T||_inf^2 ||k||_inf^2 ||X||_2 ||Y||_2 ||S||_inf
(and the same with ||T||_4^2 for the L^2 radius norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, eigh_blocks, hermitian_part_of,
                      operator_norm, schatten_norm, trace)
from .errors import ConditioningError, DomainError, StructureError
from .matrixio import _field, _is_number, _numbers
from .radius import OperatorValuedMap, SearchBudget, _nr_elements, _triple_norm_stack
from .sampling import random_element, random_psd, substreams
from .sesquilinear import SesquilinearMap, check_left_invariance, check_positivity
from .star import matrix_units_algebra
from .verdict import within

__all__ = ["Kernel", "ConstantKernel", "OnePlusXTKernel", "ExpAbsDiffKernel",
           "GridKernel", "KernelMap", "FunctionSample", "bound_checks", "KernelBoundReport"]

KERNEL_GRID = 64


# -- kernels ---------------------------------------------------------------------

class Kernel:
    """Nonnegative continuous function on [0, M]^2; subclasses are closed forms."""

    name = "kernel"

    def eval(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sup_norm(self, bound: float) -> float:
        """||k||_inf over [0, bound]^2 (analytic for builtins)."""
        raise NotImplementedError

    def check_nonnegative(self, bound: float) -> float:
        xs = np.linspace(0.0, bound, KERNEL_GRID)
        vals = self.eval(xs[:, None], xs[None, :])
        return float(np.min(vals))


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    c: float = 1.0
    name = "constant"

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise DomainError(f"constant kernel needs a finite c >= 0, got c={self.c!r}")

    def eval(self, x, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(t))
        return np.full(shape, self.c, dtype=float)

    def sup_norm(self, bound: float) -> float:
        return self.c


@dataclass(frozen=True)
class OnePlusXTKernel(Kernel):
    """k(x, t) = 1 + x t, nonnegative on the positive quadrant."""

    name = "one_plus_xt"

    def eval(self, x, t):
        return 1.0 + np.asarray(x, dtype=float) * np.asarray(t, dtype=float)

    def sup_norm(self, bound: float) -> float:
        return 1.0 + bound * bound


@dataclass(frozen=True)
class ExpAbsDiffKernel(Kernel):
    """k(x, t) = exp(-|x - t|)."""

    name = "exp_abs_diff"

    def eval(self, x, t):
        return np.exp(-np.abs(np.asarray(x, dtype=float) - np.asarray(t, dtype=float)))

    def sup_norm(self, bound: float) -> float:
        return 1.0


@dataclass(frozen=True)
class GridKernel(Kernel):
    """Bilinear interpolation of nonnegative samples on a rectangular grid."""

    x_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    name = "grid"

    def __post_init__(self):
        xg = np.asarray(self.x_grid, dtype=float)
        tg = np.asarray(self.t_grid, dtype=float)
        if xg.ndim != 1 or tg.ndim != 1 or xg.size < 2 or tg.size < 2:
            raise StructureError("grid kernel needs at least 2 points per axis")
        if np.any(np.diff(xg) <= 0) or np.any(np.diff(tg) <= 0):
            raise StructureError("kernel grids must be strictly increasing")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (xg.size, tg.size):
            raise StructureError("kernel values must be (len(x_grid), len(t_grid))")
        if not all(np.isfinite(a).all() for a in (xg, tg, vals)):
            raise DomainError("grid kernel grids and samples must be finite")
        if np.min(vals) < 0:
            raise DomainError("grid kernel samples must be nonnegative")

    def eval(self, x, t):
        xg = np.asarray(self.x_grid)
        tg = np.asarray(self.t_grid)
        vals = np.asarray(self.values, dtype=float)
        x = np.clip(np.asarray(x, dtype=float), xg[0], xg[-1])
        t = np.clip(np.asarray(t, dtype=float), tg[0], tg[-1])
        x, t = np.broadcast_arrays(x, t)
        ix = np.clip(np.searchsorted(xg, x, side="right") - 1, 0, xg.size - 2)
        it = np.clip(np.searchsorted(tg, t, side="right") - 1, 0, tg.size - 2)
        fx = (x - xg[ix]) / (xg[ix + 1] - xg[ix])
        ft = (t - tg[it]) / (tg[it + 1] - tg[it])
        v00 = vals[ix, it]
        v01 = vals[ix, it + 1]
        v10 = vals[ix + 1, it]
        v11 = vals[ix + 1, it + 1]
        return (1 - fx) * ((1 - ft) * v00 + ft * v01) + fx * ((1 - ft) * v10 + ft * v11)

    def sup_norm(self, bound: float) -> float:
        # bilinear interpolation attains its sup at grid nodes
        return float(np.max(np.asarray(self.values)))


def kernel_by_name(name: str, **params) -> Kernel:
    if name == "constant":
        c = params.get("c", 1.0)
        if not _is_number(c):
            raise StructureError(f"field 'c' must be a number, got {type(c).__name__}")
        return ConstantKernel(c=float(c))
    if name == "one_plus_xt":
        return OnePlusXTKernel()
    if name == "exp_abs_diff":
        return ExpAbsDiffKernel()
    if name == "grid":
        return GridKernel(x_grid=tuple(_numbers("x_grid", _field(params, "x_grid"))),
                          t_grid=tuple(_numbers("t_grid", _field(params, "t_grid"))),
                          values=tuple(tuple(_numbers(f"values[{i}]", r)) for i, r in
                                       enumerate(_field(params, "values", list))))
    raise DomainError(f"unknown kernel {name!r}")


# -- kernel maps --------------------------------------------------------------------

@dataclass
class FunctionSample:
    """Samples of a function on [0, ||W||]; the grid is strictly increasing."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or (g.size > 1 and np.any(np.diff(g) <= 0)):
            raise StructureError("sample grid must be strictly increasing")
        self.grid = g
        self.values = np.asarray(self.values, dtype=complex)


class KernelMap:
    """The family (W, k, T) with cached eigendata of W."""

    def __init__(self, w: AlgebraElement, kernel: Kernel, t: AlgebraElement | None = None):
        if not w.is_psd():
            raise DomainError("anchor W must be PSD")
        self.algebra = w.algebra
        self.w = w
        self.kernel = kernel
        self.t = t if t is not None else w.algebra.identity()
        if self.t.algebra != self.algebra:
            raise StructureError("T must live in the same algebra as W")
        self.w_norm = operator_norm(w)
        self.eigendata = eigh_blocks(w)
        neg = kernel.check_nonnegative(max(self.w_norm, 1e-12))
        if neg < -1e-12:
            raise DomainError(f"kernel is negative on its domain (min {neg:.3e})")

    # -- eta and the three map layers ---------------------------------------------

    def eta(self, x: float) -> AlgebraElement:
        """eta_x(W) = k(x, W), PSD by nonnegativity of the kernel."""
        if not (0.0 <= x <= self.w_norm + 1e-12):
            raise DomainError(f"x = {x} outside [0, ||W||] = [0, {self.w_norm}]")
        blocks = []
        for lam, q in self.eigendata:
            vals = self.kernel.eval(np.full(lam.shape, float(x)), np.maximum(lam, 0.0))
            blocks.append((q * vals) @ q.conj().T)
        return AlgebraElement(self.algebra, blocks)

    def phi_function(self, x_el: AlgebraElement, y_el: AlgebraElement,
                     grid: Sequence[float] | None = None) -> FunctionSample:
        """phi(X, Y)(x) = rho(X eta_x(W) Y*) sampled on a grid of x values."""
        if grid is None:
            grid = np.linspace(0.0, self.w_norm, 65)
        ystar = y_el.adjoint()
        vals = [trace(x_el @ self.eta(float(g)) @ ystar) for g in grid]
        return FunctionSample(grid=np.asarray(grid, dtype=float),
                              values=np.asarray(vals, dtype=complex))

    def _g_at_eigs(self, fn) -> AlgebraElement:
        """Assemble g(W) for a scalar function given by fn(eigenvalue)."""
        blocks = []
        for lam, q in self.eigendata:
            vals = np.asarray([fn(max(float(l), 0.0)) for l in lam], dtype=complex)
            blocks.append((q * vals) @ q.conj().T)
        return AlgebraElement(self.algebra, blocks)

    def phi_element(self, x_el: AlgebraElement, y_el: AlgebraElement) -> AlgebraElement:
        """Phi(X, Y) = T phi(X, Y)(W) T*, an element of the algebra."""
        ystar = y_el.adjoint()
        g = self._g_at_eigs(lambda l: trace(x_el @ self.eta(l) @ ystar))
        return self.t @ g @ self.t.adjoint()

    def phi_operator(self, x_el: AlgebraElement, y_el: AlgebraElement,
                     s: AlgebraElement) -> AlgebraElement:
        """Phi(X, Y)(S) = T g(W) T* with g(x) = rho(X eta_x(W) S eta_x(W) Y*)."""
        if s.algebra != self.algebra:
            raise StructureError("S must live in the same algebra")
        ystar = y_el.adjoint()

        def g(l: float) -> complex:
            e = self.eta(l)
            return trace(x_el @ e @ s @ e @ ystar)

        return self.t @ self._g_at_eigs(g) @ self.t.adjoint()

    # -- induced structured maps --------------------------------------------------

    def as_sesquilinear(self) -> SesquilinearMap:
        """The algebra-valued map over the matrix-unit *-algebra of the blocks."""
        dom, basis = matrix_units_algebra(self.algebra.block_sizes)
        els = [self.algebra.from_dense(b) for b in basis]
        vals = [[self.phi_element(x, y) for y in els] for x in els]
        gram = [np.array([[v.blocks[k] for v in row] for row in vals])
                for k in range(self.algebra.n_blocks)]
        return SesquilinearMap(self.algebra, gram, domain_algebra=dom)

    def as_operator_valued(self) -> OperatorValuedMap:
        """The operator-valued family S -> Phi(X, Y)(S), gram over matrix units."""
        alg = self.algebra
        els = [alg.from_dense(u) for u in alg.matrix_units()]
        gram = [[np.stack([self.phi_operator(x, y, s).dense().reshape(-1) for s in els],
                          axis=1) for y in els] for x in els]
        return OperatorValuedMap(alg, alg.total_dim, gram, target_algebra=alg)

    def sup_kernel_norm(self) -> float:
        """||k||_inf on [0, ||W||]^2, never under-estimated.

        Analytic for builtin kernels; on top of that the exact eigenvalue
        abscissae in actual use are sampled, which can only confirm the bound.
        """
        bound = self.kernel.sup_norm(self.w_norm)
        xs = np.linspace(0.0, self.w_norm, KERNEL_GRID)
        eigs = np.concatenate([np.maximum(lam, 0.0) for lam, _ in self.eigendata])
        if eigs.size:
            sampled = float(np.max(self.kernel.eval(xs[:, None], eigs[None, :])))
            bound = max(bound, sampled)
        return bound


# -- bound verification --------------------------------------------------------------

@dataclass
class KernelBoundReport:
    trials: int
    nr_bound_failures: int
    triple_bound_failures: int
    max_nr_ratio: float
    max_triple_ratio: float
    invariance_residual: float
    positivity_status: str
    min_diag_eig: float


def bound_checks(km: KernelMap, trials: int = 50, seed: int = 0) -> KernelBoundReport:
    """Verify the closed-form norm bounds of the operator-valued kernel family.

    On random X, Y, S:
      w(Phi(X,Y)(S))        <= ||T||_inf^2 ||k||_inf^2 ||X||_2 ||Y||_2 ||S||_inf
      |||Phi(X,Y)(S)|||_2   <= ||T||_4^2   ||k||_inf^2 ||X||_2 ||Y||_2 ||S||_inf
    (the radius-norm value is a certified lower bound, so a pass is honest),
    plus left-invariance and positivity of the induced sesquilinear map.
    All samples are drawn first; both norms of every Phi(X,Y)(S) then come
    from one stacked call each (``_nr_elements`` on ``numerical_radius``'s
    1024-angle grid, ``_triple_norm_stack``), each value the one a call per
    element gives.  A kernel value that
    overflows the float range raises ``ConditioningError``.
    """
    alg = km.algebra
    k_sup = km.sup_kernel_norm()
    t_inf = operator_norm(km.t)
    t_four = schatten_norm(km.t, 4.0)
    draws = []
    for rng in substreams(seed, trials):
        x_el = random_element(alg, rng)
        y_el = random_element(alg, rng)
        s = random_element(alg, rng)
        draws.append((x_el, y_el, s, random_psd(alg, rng)))
    with np.errstate(over="ignore", invalid="ignore"):      # refused just below
        vals = [km.phi_operator(x_el, y_el, s) for x_el, y_el, s, _ in draws]
        diags = [km.phi_operator(x_el, x_el, spsd) for x_el, _, _, spsd in draws]
    if not all(np.isfinite(b).all() for v in vals + diags for b in v.blocks):
        raise ConditioningError("a kernel value T g(W) T* overflows the float range")
    nr_vals = _nr_elements(vals, 1024).tolist()
    tr_vals = [r.value for r in _triple_norm_stack(alg, vals, SearchBudget(starts=0, iters=0))]
    nr_fail = tr_fail = 0
    max_nr = max_tr = 0.0
    for (x_el, y_el, s, _), nr_val, tr_val in zip(draws, nr_vals, tr_vals):
        cap = k_sup ** 2 * schatten_norm(x_el, 2.0) * schatten_norm(y_el, 2.0) \
            * operator_norm(s)
        nr_cap = t_inf ** 2 * cap
        if not within(nr_val, nr_cap, 1e-9):
            nr_fail += 1
        if nr_cap > 0:
            max_nr = max(max_nr, nr_val / nr_cap)
        tr_cap = t_four ** 2 * cap
        if not within(tr_val, tr_cap, 1e-9):
            tr_fail += 1
        if tr_cap > 0:
            max_tr = max(max_tr, tr_val / tr_cap)
    # positivity of the diagonal on a PSD probe, one eigvalsh per block
    min_eig = math.inf
    for k in range(alg.n_blocks if diags else 0):
        lam = np.linalg.eigvalsh(hermitian_part_of(np.stack([d.blocks[k] for d in diags])))
        min_eig = min(min_eig, float(lam.min()))
    phi = km.as_sesquilinear()
    inv = check_left_invariance(phi)
    pos = check_positivity(phi, trials=128, seed=seed)
    return KernelBoundReport(trials=trials, nr_bound_failures=nr_fail,
                             triple_bound_failures=tr_fail, max_nr_ratio=max_nr,
                             max_triple_ratio=max_tr, invariance_residual=inv,
                             positivity_status=pos.status, min_diag_eig=min_eig)

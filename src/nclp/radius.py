"""Numerical-radius-type norms and operator-valued Cauchy-Schwarz checks.

Three layers:

* ``numerical_radius``: w(T) = sup_{|h|=1} |<Th, h>| via a theta-grid over
  lambda_max(Re(e^{i theta} T)), whose peaks are refined together by
  safeguarded Newton steps (``_nr_newton``, one stacked ``eigh`` per step,
  f' and f'' from eigenvalue perturbation theory).  The grid is
  pruned (``_nr_grid``): lambda_max(Re(e^{i theta} T)) is the support
  function of the numerical range, so after a coarse grid of NR_COARSE
  angles the outer polygon of the range bounds every other angle, and only
  the angles whose bound can reach the values a caller ranks are
  eigensolved, at most NR_CHUNK matrices per ``eigvalsh`` call.  A search
  for several peaks first solves the two coarse arcs around the best coarse
  angle, so its floor is taken at the peak.  Each value computed is the
  full grid's, bit for bit.  One kernel, ``_nr_stack``, gives w of a whole
  stack of matrices in one grid, one Newton stack and one top-eigenvector
  call; ``numerical_radius`` is a stack of one per block, and the check-all
  suites call the kernel once per matrix size.  A normal matrix takes no
  grid: for it rho(M) <= w(M) <= || |M| + |M*| || / 2 (Kittaneh) is an
  equality, and ``_nr_normal`` settles it once a lower bound |<Mh, h>| at
  its top eigenvalue's angle reaches the upper bound, to a rounding margin
  of 1e-12 ||M||_F,
* ``triple_norm``: the L^2 radius norm  |||F|||_2 = sup ||W F W||_1 over
  PSD W with ||W||_2 <= 1 and ||W||_inf <= 1.  PSD inputs reduce exactly to a
  fractional knapsack over the spectrum (substituting V = W^2 makes the
  objective linear).  When every block weight w_k is >= 1, |||F|||_2 = w(F):
  for a unitary Z = sum_j z_j e_j e_j*, |tr(Z W_k F_k W_k)| =
  |sum_j z_j <F_k W_k e_j, W_k e_j>| <= w(F_k) tr(W_k^2), so ||W F W||_1 <=
  w(F) ||W||_2^2 <= w(F), and the feasible W = w_k^{-1/2} h h* attains
  w(F_k).  On such an algebra every other input goes to the numerical-radius
  kernel ``_nr_stack``, and the value is ``numerical_radius``'s bit for bit.
  For other weights the same argument gives max_k min(w_k, 1) w(F_k) <=
  |||F|||_2 <= w(F), and the value is certified from below by feasible
  maximizers (the knapsack maximizer of |F|, two rank-one directions per
  block, the spectral projections of |F|, projected ascent) and from above
  by ||F||_2.  The candidate maximizers of a whole stack of elements are
  built and scored by one kernel, ``_triple2_pool``, in a few
  stacked linalg calls, and each result is bit-identical whatever the size
  or order of the stack.  A PSD item's pool is its knapsack maximizer
  alone.  ``_triple_norm_stack`` takes a list of elements: on weights >= 1
  the PSD ones get their knapsack pool and the others one ``_nr_stack``
  call per block; otherwise it runs the whole search (``_triple_norm_search``):
  one pool, then the projected ascent on per-block stacks, where
  the starts of every element ascend together, each on its own F and each
  giving the result it would give alone; ``triple_norm`` is a list of one.
  Projection onto the feasible set is one clip of the spectrum to [0, 1]
  and one rescale (``_project_stack``).
  An ascent try is one ``eigh`` and one SVD per block; the SVD gives both
  the objective and the next gradient, and the 2-norms of a gradient and of
  a projection come from its entries and its clipped eigenvalues, so no
  linalg call is spent on a norm.  The polar form F = |F*|^{1/2} U |F|^{1/2}
  gives the upper bound |||F|||_2 <= K((|F| + |F*|) / 2), K the knapsack
  value of the polar mean (``_polar_mean``); only the pruning of pool
  rankings reads it,
* ``superop_norm``: operator norms of linear maps from a traced algebra into
  a matrix space, with the supremum over the unit ball searched on blockwise
  unitaries (the extreme points) and refined by alternating exact linearized
  maximization.  One kernel, ``_superop_stack``, searches a list of
  operators of one shape (source, target dimension and target algebra),
  each with its own budget and seeded pool, each giving the result it gives
  alone, bit for bit; ``superop_norm`` is a list of one.  The pools are
  coordinate rows, and one ``_TargetNorm.batch_values`` call ranks all of
  them, each pool on its own.  Ranking takes two passes for either target
  norm, behind an upper bound from the polar mean (|F| + |F*|) / 2: its
  largest eigenvalue for nr (Kittaneh), its knapsack value for |||.|||_2.
  The three best-bounded candidates of each pool are scored first, then only
  the others whose bound reaches the least of their values; a tie among a
  pool's four best values scores that pool whole, so each ranking is the
  unpruned one.  The refinement chains of all operators climb as one stack
  of certified values, one ``certify`` call per step.  On a target whose
  block weights are all >= 1, |||.|||_2 is w, and ``triple2`` is ``nr``
  there: the same ranking, certificates and polish.  The last pool drawn
  is kept (a one-entry memo), so the two target norms of one check search
  one draw,
* ``check_cs_operator_valued``: Cauchy-Schwarz for positive operator-valued
  maps.  A positive map peaks at T = I, so the right-hand side is exact at
  T = I and only the left-hand side is searched; a reported violation is
  proven, and no check is re-run at a larger budget.  One kernel,
  ``_check_cs_stack``, checks a list of instances of one shape: each
  instance's pool is drawn once for every target norm, and each norm makes
  one ``_superop_stack`` call and one stack of right-hand sides (one for
  both where ``triple2`` is ``nr``), each report the one the check gives
  alone; ``check_cs_operator_valued`` is a list of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# schatten_norm is not called here but stays importable from this module:
# the benchmark's recorder test reads nclp.radius.schatten_norm
from .algebra import (AlgebraElement, TracedAlgebra, _rank_projections, _stacked_schatten,
                      hermitian_part_of, psd_tol, schatten_norm, structure_tol)
from .errors import DomainError, PreconditionError, StructureError
from .sampling import (random_complex_matrix, random_hermitian, random_psd, rng_from,
                       substreams, unitaries_from_gaussian)
from .sesquilinear import _combine_rows, _generator_gram
from .verdict import (CERTIFIED, EXACT, HEURISTIC, InequalityReport, PositivityCertificate,
                      report)

__all__ = ["numerical_radius", "SearchBudget", "TripleNormResult", "triple_norm",
           "SuperOperator", "superop_norm",
           "SuperOperatorNormResult", "OperatorValuedMap", "check_cs_operator_valued"]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# numerical radius
# ---------------------------------------------------------------------------

NR_COARSE = 32            # coarse angles of the pruned theta grid
NR_NEWTON_STEPS = 8       # cap on the eigensolves of a peak refinement; converged rows take 3-4
NR_CHUNK = 1024           # most matrices one grid eigensolve takes


def _tied(vals: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``vals`` whose ``count + 1`` largest entries are not all distinct."""
    top = np.sort(vals, axis=1)[:, ::-1][:, :count + 1]
    return (top[:, 1:] == top[:, :-1]).any(axis=1)


def _nr_grid(mats: np.ndarray, grid: int, keep: int) -> np.ndarray:
    """f(theta) = lambda_max(Re(e^{i theta} M)) on ``grid`` equally spaced
    angles for a stack of matrices, (len(mats), grid), -inf where pruned.

    f is the support function of the numerical range W(M): f(theta) is the
    largest Re(e^{i theta} z) over z in W(M).  Between two angles a < b less
    than pi apart, e^{i theta} = alpha e^{ia} + beta e^{ib} with
    alpha = sin(b - theta) / sin(b - a) >= 0 and beta = sin(theta - a) /
    sin(b - a) >= 0, so f(theta) <= alpha f(a) + beta f(b): the outer polygon
    of W(M) (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).  The angles at
    every ``grid // NR_COARSE``-th index are eigensolved first.  With
    ``keep`` > 1 one more stacked call seeds each row at its peak: the fine
    angles of the two coarse arcs around its best coarse angle.  The floor
    is the row's ``keep``-th largest value computed so far, and a last
    stacked call eigensolves the angles left whose bound from their coarse
    arc's ends, plus a rounding margin of 1e-12 ||M||_F, reaches it.  Each
    row's ``keep`` largest values and their ``argsort`` prefix are then
    those of the full grid.  ``argsort`` orders exact ties by the rest of the
    array, so a row whose ranked values tie gets the full grid, as does a
    grid of at most 2 NR_COARSE angles or one that is not a multiple of
    NR_COARSE.  Every finite value is the full grid's, bit for bit, whatever
    the stack's size or order.
    """
    thetas = TWO_PI * np.arange(grid) / grid
    phases = np.exp(1j * thetas)
    adj = np.conj(np.swapaxes(mats, -1, -2))
    out = np.full((len(mats), grid), -np.inf)

    def solve(rows: np.ndarray, cols: np.ndarray) -> None:
        for at in range(0, rows.size, NR_CHUNK):
            r, c = rows[at:at + NR_CHUNK], cols[at:at + NR_CHUNK]
            p = phases[c][:, None, None]
            out[r, c] = np.linalg.eigvalsh(0.5 * (p * mats[r] + np.conj(p) * adj[r]))[:, -1]

    def fill(rows: np.ndarray) -> None:
        at, cols = np.isneginf(out[rows]).nonzero()
        solve(rows[at], cols)

    rows = np.arange(len(mats))
    if grid % NR_COARSE or grid <= 2 * NR_COARSE:
        fill(rows)
        return out
    stride = grid // NR_COARSE
    solve(np.repeat(rows, NR_COARSE), np.tile(np.arange(0, grid, stride), len(mats)))
    ends = out[:, ::stride].copy()                      # (B, NR_COARSE)
    if keep > 1:
        peak = np.argmax(ends, axis=1)[:, None]
        arcs = np.concatenate([(peak - 1) % NR_COARSE, peak], axis=1)
        seed = (arcs[:, :, None] * stride + np.arange(1, stride)).reshape(len(mats), -1)
        solve(np.repeat(rows, seed.shape[1]), seed.ravel())
    floor = np.partition(out, grid - keep, axis=1)[:, grid - keep]
    arc = TWO_PI / NR_COARSE
    step = np.arange(1, stride) * (arc / stride)
    alpha, beta = np.sin(arc - step) / math.sin(arc), np.sin(step) / math.sin(arc)
    margin = 1e-12 * np.linalg.norm(mats, axis=(1, 2))
    bound = (alpha * ends[:, :, None] + beta * np.roll(ends, -1, axis=1)[:, :, None]
             + margin[:, None, None])                   # (B, NR_COARSE, stride - 1)
    unsolved = np.isneginf(out.reshape(len(mats), NR_COARSE, stride)[:, :, 1:])
    at, a, j = ((bound >= floor[:, None, None]) & unsolved).nonzero()
    solve(at, a * stride + j + 1)
    fill(_tied(out, keep).nonzero()[0])
    return out


def _peak_prefix(count: int) -> int:
    """Length of the ``argsort`` prefix ``count`` grid peaks are picked from:
    each pick rules out at most 5 indices, so the j-th lies in the first
    5 (j - 1) + 1."""
    return 5 * count - 4


def _grid_peaks(vals: np.ndarray, count: int) -> list[list[int]]:
    """Up to ``count`` maxima per row of periodic grid values (rows, grid).

    Peaks are picked greedily in ``argsort(row)[::-1]`` order, each more than
    two grid steps from the ones already picked.
    """
    grid = vals.shape[-1]
    orders = np.argsort(vals, axis=-1)[:, ::-1][:, :_peak_prefix(count)].tolist()
    peaks = []
    for order in orders:
        picked: list[int] = []
        for idx in order:
            if len(picked) >= count:
                break
            if all(min((idx - p) % grid, (p - idx) % grid) > 2 for p in picked):
                picked.append(idx)
        peaks.append(picked)
    return peaks


def _nr_peaks(mats: np.ndarray, grid: int, count: int) -> tuple[np.ndarray, list[list[int]]]:
    """The pruned theta grid of a stack and up to ``count`` peaks per row,
    the ones the full grid gives."""
    vals = _nr_grid(mats, grid, _peak_prefix(count))
    return vals, _grid_peaks(vals, count)


def _nr_top(mats: np.ndarray | Sequence[np.ndarray], thetas: np.ndarray,
            vals: Sequence[float]) -> tuple[list[float], np.ndarray, list[float]]:
    """Top eigenvector h of Re(e^{i theta} M) at each item's angle, and (value,
    h, angle) per item: |<Mh, h>| is itself a lower bound, tight at the
    optimum, so it replaces the item's value in ``vals`` if it beats it.
    ``mats`` is a stack or a list of matrices; <Mh, h> is taken on each as
    given."""
    rot = np.exp(1j * thetas)[:, None, None] * np.asarray(mats)
    vecs = np.linalg.eigh(hermitian_part_of(rot))[1][..., -1]
    vals, thetas = list(vals), list(thetas)
    for i, (mat, vec) in enumerate(zip(mats, vecs)):
        quad = complex(np.conj(vec) @ (mat @ vec))
        if abs(quad) > vals[i]:
            vals[i], thetas[i] = abs(quad), -math.atan2(quad.imag, quad.real)
    return vals, vecs, thetas


def _nr_newton(mats: np.ndarray, thetas: np.ndarray,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of f(theta) = lambda_max(Re(e^{i theta} M)) for a stack of rows
    (M, theta0), each on [theta0 - step, theta0 + step].

    Safeguarded Newton, at most NR_NEWTON_STEPS stacked ``eigh`` calls, each
    for the rows still moving.  With H = Re(e^{i theta} M), H' = dH/dtheta = Re(i e^{i theta} M),
    H'' = -H and the eigenpairs (lambda_j, v_j) of H, v the top one,
    f' = v* H' v and f'' = -f + 2 sum_{j != top} |v_j* H' v|^2 / (f - lambda_j).
    Each row keeps a bracket shrunk by the sign of f'.  A step that is not a
    Newton step on a concave stretch, or that leaves the bracket, goes to the
    bracket's uphill end while that end is still theta0 +- step, and to the
    bracket's midpoint otherwise.  A row stops once f' is at rounding level,
    once its step is below 1e-12, or once it drives into its bracket edge: a
    shoulder "peak" has its maximum at the neighbouring grid angle.  Returns
    the best angle evaluated per row and f there.
    """
    theta = np.array(thetas, dtype=float)
    edge_lo, edge_hi = theta - step, theta + step
    lo, hi = edge_lo.copy(), edge_hi.copy()
    best_t, best_f = theta.copy(), np.full(len(theta), -np.inf)
    noise = 8.0 * np.finfo(float).eps * np.linalg.norm(mats, axis=(1, 2))
    live = np.arange(len(theta))
    for _ in range(NR_NEWTON_STEPS):
        if not live.size:
            break
        t, tiny = theta[live], noise[live]
        rot = np.exp(1j * t)[:, None, None] * mats[live]
        lam, q = np.linalg.eigh(hermitian_part_of(rot))
        f = lam[:, -1]
        up = f > best_f[live]
        best_t[live[up]], best_f[live[up]] = t[up], f[up]
        c = (q.conj().swapaxes(-1, -2) @ hermitian_part_of(1j * rot) @ q[..., -1:])[..., 0]
        d1 = c[:, -1].real
        gap = f[:, None] - lam[:, :-1]
        curv = np.divide(np.abs(c[:, :-1]) ** 2, gap, out=np.zeros_like(gap),
                         where=gap > tiny[:, None])
        d2 = 2.0 * curv.sum(axis=1) - f
        rising = d1 > 0.0
        lo[live[rising]] = t[rising]
        hi[live[d1 < 0.0]] = t[d1 < 0.0]
        l, h = lo[live], hi[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(d2 < 0.0, t - d1 / d2, np.where(rising, np.inf, -np.inf))
        mid = 0.5 * (l + h)
        nxt = np.where(nxt >= h, np.where(h == edge_hi[live], h, mid), nxt)
        nxt = np.where(nxt <= l, np.where(l == edge_lo[live], l, mid), nxt)
        done = (np.abs(d1) <= tiny) | (np.abs(nxt - t) < 1e-12)
        theta[live] = nxt
        live = live[~done]
    return best_t, best_f


def _nr_normal(stack: np.ndarray, mats: np.ndarray | Sequence[np.ndarray],
               rows: np.ndarray, out: np.ndarray, vecs: np.ndarray | None = None) -> np.ndarray:
    """Settle the ``rows`` of a stack that the normal bracket closes: write
    their w into ``out`` (and their h into ``vecs``, if given) and return
    the other rows.

    For normal M, rho(M) <= w(M) <= || |M| + |M*| || / 2 (Kittaneh, Studia
    Math. 158, 2003) is an equality.  Rows with ||M M* - M* M||_F <=
    1e-12 ||M||_F^2 are tried; the test only picks them and proves nothing.
    The value is |<Mh, h>| from ``_nr_top`` at theta = -arg lambda, lambda an
    eigenvalue of largest modulus, and the upper bound the largest eigenvalue
    of the polar mean (``_polar_mean``).  A row is settled when the value
    reaches the bound less 1e-12 ||M||_F; the others are left to the grid.
    The test and the bound are taken on each row scaled by 2^-e, e the
    exponent of its largest |entry|, so squares neither overflow nor
    underflow; a power of two scales them exactly, and the value comes from
    the row as given.
    """
    sub = stack[rows]
    exp = np.frexp(np.abs(sub).max(axis=(1, 2)))[1]
    unit = np.ldexp(1.0, -exp)[:, None, None] * sub
    adj = np.conj(np.swapaxes(unit, -1, -2))
    fro = np.sqrt((np.abs(unit) ** 2).sum(axis=(1, 2)))
    comm = np.sqrt((np.abs(unit @ adj - adj @ unit) ** 2).sum(axis=(1, 2)))
    pick = comm <= 1e-12 * fro ** 2
    if not pick.any():
        return rows
    sub, unit, exp = sub[pick], unit[pick], exp[pick]
    upper = _polar_mean(TracedAlgebra([sub.shape[-1]]), [unit])[0][:, -1]
    eig = np.linalg.eigvals(sub)
    top = eig[np.arange(len(sub)), np.argmax(np.abs(eig), axis=1)]
    vals, hs, _ = _nr_top([mats[i] for i in rows[pick]], -np.angle(top), [0.0] * len(sub))
    vals = np.array(vals)
    closed = np.ldexp(vals, -exp) >= upper - 1e-12 * fro[pick]
    out[rows[pick][closed]] = vals[closed]
    if vecs is not None:
        vecs[rows[pick][closed]] = hs[closed]
    pick[pick] = closed
    return rows[~pick]


def _nr_stack(mats: np.ndarray | Sequence[np.ndarray], grid: int,
              vecs: np.ndarray | None = None) -> np.ndarray:
    """w(M) of every matrix of a (B, n, n) stack or a list of n x n matrices;
    zero matrices give 0.  With ``vecs``, a (B, n) array, each nonzero
    matrix's unit vector h with |<Mh, h>| = w(M) is written into it.

    Normal matrices are settled first on rho(M) <= w(M) <= || |M| + |M*| || / 2
    (``_nr_normal``), with no grid.  For the others, one pruned grid
    (``_nr_peaks``) finds up to three peaks per matrix, one
    ``_nr_newton`` stack refines every (matrix, peak) pair within one grid
    step, and one ``_nr_top`` call scores each matrix's best angle, the first
    peak unless a later refined one beats it.  The grid and the refinement
    give each matrix the same bits whatever its memory layout, but
    ``_nr_top``'s <Mh, h> is a BLAS matrix-vector product whose last bits
    follow the layout, so it takes each matrix as given: a list may mix layouts (an adjoint as
    a transposed view), a row of a stack has the stack's.  Each value is the
    one ``numerical_radius`` gives that matrix alone, bit for bit.
    """
    stack = np.asarray(mats)
    out = np.zeros(len(stack))
    rows = stack.any(axis=(1, 2)).nonzero()[0]
    settle = _nr_normal if vecs is None else functools.partial(_nr_normal, vecs=vecs)
    rows = settle(stack, mats, rows, out)
    if not rows.size:
        return out
    if rows.size < len(stack):
        stack, mats = stack[rows], [mats[i] for i in rows]
    vals, found = _nr_peaks(stack, grid, 3)
    step = TWO_PI / grid
    owner = np.repeat(np.arange(len(stack)), [len(p) for p in found])
    thetas, tops = _nr_newton(stack[owner], np.concatenate(found) * step, step)
    best_theta = [p[0] * step for p in found]
    best_val = vals[np.arange(len(stack)), [p[0] for p in found]].tolist()
    for i, t, v in zip(owner.tolist(), thetas.tolist(), tops.tolist()):
        if v > best_val[i]:
            best_theta[i], best_val[i] = t, v
    out[rows], hs, _ = _nr_top(mats, np.array(best_theta), best_val)
    if vecs is not None:
        vecs[rows] = hs
    return out


def _require_finite(mats: Sequence[np.ndarray], what: str) -> None:
    if not all(np.isfinite(m).all() for m in mats):
        raise DomainError(f"{what} needs finite entries")


def numerical_radius(t: np.ndarray | AlgebraElement, grid: int = 1024) -> float:
    """w(T) = sup over unit vectors of |<Th, h>|.

    Block-diagonal elements reduce to the maximum over blocks, each block a
    stack of one for ``_nr_stack``.  Satisfies ||T||/2 <= w(T) <= ||T||
    with equality w(T) = ||T|| for normal T.  A normal block is settled on
    rho(T) <= w(T) <= || |T| + |T*| || / 2 without a grid (``_nr_normal``);
    for the others, the three highest peaks of
    lambda_max(Re(e^{i theta} T)) on ``grid`` angles are refined as one stack of safeguarded Newton steps
    (``_nr_newton``), each within one grid step of its peak.  Of the grid,
    only NR_COARSE coarse angles, the angles of the two coarse arcs around
    the best of them, and the angles whose bound from the two coarse angles
    around them (the outer polygon of the numerical range) reaches the 11th
    highest value solved so far are eigensolved, about a tenth of a
    generic grid of 1024; the peaks, and so w(T), are those of the full grid.
    Non-finite entries and a ``grid`` that is not an integer >= 1 raise
    ``DomainError``, an array that is not a square matrix ``StructureError``.
    """
    mats = list(t.blocks) if isinstance(t, AlgebraElement) else [np.asarray(t, dtype=complex)]
    if mats[0].ndim != 2 or mats[0].shape[0] != mats[0].shape[1]:
        raise StructureError(f"numerical radius needs a square matrix, got shape {mats[0].shape}")
    _require_finite(mats, "numerical radius")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise DomainError(f"numerical radius needs an integer grid >= 1, got {grid!r}")
    return max(float(_nr_stack(m[None], grid)[0]) for m in mats)


def _nr_elements(fs: Sequence[AlgebraElement], grid: int) -> np.ndarray:
    """``numerical_radius`` of each element of a list over one algebra: the
    largest over its blocks, one ``_nr_stack`` call per block.  Non-finite
    entries raise ``DomainError``."""
    if not fs:
        return np.zeros(0)
    _require_finite([b for f in fs for b in f.blocks], "numerical radius")
    return np.max([_nr_stack(np.stack([f.blocks[k] for f in fs]), grid)
                   for k in range(fs[0].algebra.n_blocks)], axis=0)


# ---------------------------------------------------------------------------
# the L^2 radius norm  |||F|||_2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Random starts, ascent steps and seed of a search; a field that is not
    an integer >= 0 (a bool is not) raises ``DomainError``."""
    starts: int = 16
    iters: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("starts", "iters", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
                raise DomainError(f"search budget needs an integer {name} >= 0, got {v!r}")


@dataclass
class TripleNormResult:
    value: float
    maximizer: AlgebraElement
    upper_bound: float
    rank1_bound: float
    status: str                     # EXACT | HEURISTIC


def _spectral(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q* for stacked eigenvector matrices and values."""
    return (q * vals[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _itemwise_max(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Largest entry of each item over all of its per-block (B, ...) arrays."""
    out = None
    for b in blocks:
        top = b.max(axis=tuple(range(1, b.ndim)))
        out = top if out is None else np.maximum(out, top)
    return out


def _norm2(alg: TracedAlgebra, parts: Sequence[np.ndarray]) -> np.ndarray:
    """||X||_2 = (sum_k w_k ||X_k||_F^2)^{1/2} of each item of a stack, from
    per-block (B, ...) arrays whose squared moduli sum to ||X_k||_F^2 per
    item: the blocks themselves, or the eigenvalues of hermitian blocks."""
    acc = 0.0
    for wt, p in zip(alg.weights, parts):
        acc = acc + wt * (np.abs(p) ** 2).sum(axis=tuple(range(1, p.ndim)))
    return np.sqrt(acc)


def _project_stack(alg: TracedAlgebra, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Map each item into {0 <= W <= I, ||W||_2 <= 1} in one step: clip the
    spectrum of its hermitian part to [0, 1] (one stacked ``eigh`` per block),
    then rescale to ||W||_2 <= 1, which keeps 0 <= W <= I.  ||W||_2 comes from
    the clipped eigenvalues, since W = Q diag(clip lambda) Q*."""
    decs = [np.linalg.eigh(hermitian_part_of(b)) for b in blocks]
    clipped = [lam.clip(0.0, 1.0) for lam, _ in decs]
    n2 = _norm2(alg, clipped)
    shrink = np.divide(1.0, n2, out=np.ones_like(n2), where=~(n2 <= 1.0))[:, None]
    return [_spectral(q, c * shrink) for (_, q), c in zip(decs, clipped)]


def _knapsack_take(alg: TracedAlgebra, lam: np.ndarray) -> np.ndarray:
    """Greedy fractional knapsack of a (B, total_dim) stack of nonnegative
    eigenvalue rows, each entry weighing its block's weight against a budget
    of 1: entries are taken in stable decreasing order, fully while the
    budget lasts and then in part.  Returns the taken fractions in the
    positions of ``lam``."""
    order = np.argsort(-lam, axis=1, kind="stable")
    rows = np.arange(len(lam))[:, None]
    lam_s = lam[rows, order]
    wt_s = np.repeat(alg.weights, alg.block_sizes)[order]
    take = np.zeros_like(lam)
    budget = np.ones(len(lam))
    alive = np.ones(len(lam), dtype=bool)
    for j in range(lam.shape[1]):
        alive &= (budget > 0.0) & (lam_s[:, j] > 0.0)
        if not alive.any():
            break
        take[:, j] = np.where(alive, np.minimum(1.0, budget / wt_s[:, j]), 0.0)
        budget = budget - wt_s[:, j] * take[:, j]
    v = np.empty_like(take)
    v[rows, order] = take
    return v


def _knapsack_stack(alg: TracedAlgebra,
                    decomps: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Exact maximizers of rho(F W^2) over the feasible set for a stack of PSD F.

    With V = W^2 the constraints become 0 <= V <= I, rho(V) <= 1 and the
    objective rho(F V) is linear, so the optimum is a fractional knapsack in
    the eigenbasis of F (``_knapsack_take``).  ``decomps`` holds the
    per-block stacked ``eigh`` of F.
    """
    v = _knapsack_take(alg, np.concatenate([np.maximum(l, 0.0) for l, _ in decomps], axis=1))
    return [_spectral(q, np.sqrt(vk)) for (_, q), vk in zip(decomps, alg.split_spectrum(v))]


def _knapsack_value(alg: TracedAlgebra, lam: np.ndarray) -> np.ndarray:
    """K = sup rho(F V) over 0 <= V <= I, rho(V) <= 1 for PSD F given by a
    (B, total_dim) stack of nonnegative eigenvalue rows: the value of the
    fractional knapsack ``_knapsack_take``."""
    wts = np.repeat(alg.weights, alg.block_sizes)
    return (wts * lam * _knapsack_take(alg, lam)).sum(axis=1)


def _polar_mean(alg: TracedAlgebra,
                blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of the polar means (|F_k| + |F_k*|) / 2 and the norms ||F||_2
    of a stack of elements given as per-block (B, n_k, n_k) arrays.

    One SVD F_k = U S V* per block gives |F_k| = V S V* and |F_k*| = U S U*,
    one ``eigvalsh`` the spectrum of their mean, ascending in each block and
    clipped at 0; the blocks' spectra are concatenated, (B, total_dim).  The
    mean bounds both target norms of a pool ranking from above:
    * Kittaneh's w(T) <= || |T| + |T*| || / 2 (Studia Math. 158, 2003) is the
      largest entry of a dense matrix's row,
    * |||F|||_2 <= K((|F| + |F*|) / 2), K the knapsack value
      (``_knapsack_value``): with the polar form F = |F*|^{1/2} U |F|^{1/2},
      Hoelder in each block and Cauchy-Schwarz over the blocks give
      ||W F W||_1 <= rho(W^2 |F*|)^{1/2} rho(W^2 |F|)^{1/2}, and AM-GM bounds
      that by rho(W^2 (|F| + |F*|) / 2), whose supremum over the feasible
      set is K.
    Both lie below ||F||_2 and equal the norm for normal F.
    """
    lams, sq = [], np.zeros(len(blocks[0]))
    for wt, b in zip(alg.weights, blocks):
        u, s, vh = np.linalg.svd(b)
        mean = 0.5 * (_spectral(vh.conj().swapaxes(-1, -2), s) + _spectral(u, s))
        lams.append(np.linalg.eigvalsh(mean))
        sq = sq + wt * (s ** 2).sum(axis=-1)
    return np.maximum(np.concatenate(lams, axis=1), 0.0), np.sqrt(sq)


@dataclass
class _TriplePool:
    """Quick-path |||.|||_2 of a stack of elements, with its candidate pool.

    Per item: ``upper`` = ||F||_2, ``exact`` for PSD input, ``scaled`` blocks
    F / ||F||_2 (zero for F = 0), the candidate maximizers in
    1 + 2 n_blocks + total_dim slots (the knapsack maximizer, two rank-one
    directions per block, the spectral projections of |F|; empty slots have
    objective -inf), the best rank-one objective ``rank1`` (in closed form
    for PSD input), and the projected best candidate ``maximizer`` with its
    objective ``best``; all objectives are at unit ||F||_2.
    """
    upper: np.ndarray
    exact: np.ndarray
    scaled: list[np.ndarray]
    candidates: list[np.ndarray]
    objective: np.ndarray
    rank1: np.ndarray
    maximizer: list[np.ndarray]
    best: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.upper * self.best


def _level_projections(alg: TracedAlgebra, dec_abs: Sequence[tuple[np.ndarray, np.ndarray]]
                       ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Spectral projections of |F| above each distinct positive level, for a
    stack of items given by the per-block stacked ``eigh`` ``dec_abs`` of |F|:
    (rows, level index from the top, per-block projection stacks), each
    projection shrunk to ||P||_2 <= 1."""
    lam_abs = np.concatenate([lam for lam, _ in dec_abs], axis=1)
    desc = np.sort(lam_abs, axis=1)[:, ::-1]
    fresh = np.ones(desc.shape, dtype=bool)
    fresh[:, 1:] = desc[:, 1:] != desc[:, :-1]
    level_ok = fresh & (desc > 0)
    at, col = level_ok.nonzero()                  # row-major: levels in decreasing order
    count = level_ok.sum(axis=1)
    lv = np.arange(len(at)) - (np.cumsum(count) - count)[at]
    thresh = desc[at, col] - 1e-14
    proj, sq = [], np.zeros(len(at))
    for (lam, q), wt in zip(dec_abs, alg.weights):
        rank = (lam[at] >= thresh[:, None]).sum(axis=1)           # eigh is ascending
        proj.append(_rank_projections(q, at, rank))
        sq = sq + wt * rank                       # ||P||_2^2 = sum_k w_k rank P_k
    shrink = np.minimum(1.0, 1.0 / np.sqrt(sq)).astype(complex)[:, None, None]
    return at, lv, [shrink * pk for pk in proj]


def _unit_norm2(alg: TracedAlgebra,
                blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """||F||_2 of each item of a stack given as per-block (B, n_k, n_k)
    arrays, and the blocks of F / ||F||_2 (zero for F = 0)."""
    fs = [np.ascontiguousarray(b, dtype=complex) for b in blocks]
    upper = _stacked_schatten(alg, fs, 2.0)
    inv = np.divide(1.0, upper, out=np.zeros(len(upper)), where=upper != 0.0)
    scale = inv.astype(complex)[:, None, None]
    return upper, [scale * b for b in fs]


def _psd_items(fh: Sequence[np.ndarray]) -> tuple[np.ndarray, list, np.ndarray]:
    """The hermitian rows of a stack of unit-||.||_2 items, the per-block
    stacked ``eigh`` of their hermitian parts and which of them are PSD: the
    predicates of AlgebraElement.is_hermitian and is_psd."""
    maxabs = _itemwise_max([np.abs(b) for b in fh])
    skew = _itemwise_max([np.abs(b - b.conj().swapaxes(-1, -2)) for b in fh])
    herm = (skew <= structure_tol(maxabs)).nonzero()[0]
    if not herm.size:
        return herm, [], np.zeros(0, dtype=bool)
    dec_h = [np.linalg.eigh(hermitian_part_of(b[herm])) for b in fh]
    opn = _itemwise_max([np.abs(lam) for lam, _ in dec_h])
    psd = np.all([lam[:, 0] >= -psd_tol(opn) for lam, _ in dec_h], axis=0)
    return herm, dec_h, psd


def _triple2_pool(alg: TracedAlgebra, blocks: Sequence[np.ndarray], grid: int = 64,
                  refine: bool = False) -> _TriplePool:
    """Candidate pool and quick-path |||.|||_2 for a stack of elements.

    ``blocks`` are per-block (B, n_k, n_k) arrays.  A PSD item is exact: its
    one candidate is the knapsack maximizer of F (slot 0), and its rank-one
    objective max_k min(w_k, 1) lambda_max(F_k) comes in closed form from the
    ``eigh`` the PSD test takes.  The other items have 1 + 2 n_blocks +
    total_dim slots, built in a few stacked linalg calls: the knapsack
    maximizer of |F| (slot 0, shared with the PSD items' knapsack in one
    stack), two rank-one directions per block in block order, then the
    spectral projections of |F| by decreasing level
    (``_level_projections``); a stack of PSD items builds none of these.
    Each item's result equals the one-element computation bit for bit,
    whatever the stack's size or order.  ``refine`` refines the rank-one
    angles of each block, all of its (item, peak) rows in one ``_nr_newton``
    stack.
    """
    upper, fh = _unit_norm2(alg, blocks)
    return _triple2_pool_of(alg, upper, fh, _psd_items(fh), grid, refine)


def _triple2_pool_of(alg: TracedAlgebra, upper: np.ndarray, fh: list[np.ndarray],
                     psd_items: tuple[np.ndarray, list, np.ndarray], grid: int,
                     refine: bool) -> _TriplePool:
    """``_triple2_pool`` from the items' ``_unit_norm2`` and ``_psd_items``."""
    sizes, weights = alg.block_sizes, alg.weights
    nblk = len(sizes)
    items = len(upper)

    nslot = 1 + 2 * nblk + alg.total_dim
    cands = [np.zeros((items, nslot, n, n), dtype=complex) for n in sizes]
    valid = np.zeros((items, nslot), dtype=bool)

    def put(at: np.ndarray, slot: np.ndarray | int, ws: Sequence[np.ndarray | None]) -> None:
        for c, w in zip(cands, ws):
            if w is not None:
                c[at, slot] = w
        valid[at, slot] = True

    herm, dec_h, psd = psd_items
    exact = np.zeros(items, dtype=bool)
    psd_rows, psd_rank1 = herm[psd], np.zeros(0)
    exact[psd_rows] = True

    # knapsack maximizers, in one stack: of F for PSD F, of |F| for the rest
    owners, decs = [], []
    if herm.size:
        psd_rank1 = np.max([min(wt, 1.0) * lam[psd, -1]
                            for wt, (lam, _) in zip(weights, dec_h)], axis=0)
        owners.append(psd_rows)
        decs.append([(lam[psd], q[psd]) for lam, q in dec_h])
    rest = (~exact).nonzero()[0]
    if rest.size:
        fr = [b[rest] for b in fh]
        dec_abs = [np.linalg.eigh(hermitian_part_of(_spectral(vh.conj().swapaxes(-1, -2), s)))
                   for _, s, vh in map(np.linalg.svd, fr)]
        owners.append(rest)
        decs.append(dec_abs)
        # rank-one W = h h* from numerical-radius directions, two per nonzero block
        step = TWO_PI / grid
        for kb, b in enumerate(fr):
            found = _nr_peaks(b, grid, 2)[1]
            peaks = np.array([p + [-1] * (2 - len(p)) for p in found], dtype=int).reshape(-1, 2)
            thetas = peaks * step
            if refine:
                i, j = (peaks >= 0).nonzero()
                thetas[i, j] = _nr_newton(b[i], thetas[i, j], step)[0]
            rot = np.exp(1j * thetas)[..., None, None] * b[:, None]
            h = np.linalg.eigh(hermitian_part_of(rot))[1][..., -1]
            outer = complex(min(1.0, 1.0 / math.sqrt(weights[kb]))) * (
                h[..., :, None] * h.conj()[..., None, :])
            at, j = ((b != 0).any(axis=(1, 2))[:, None] & (peaks >= 0)).nonzero()
            put(rest[at], 1 + 2 * kb + j, [outer[at, j] if k == kb else None for k in range(nblk)])
        at, lv, proj = _level_projections(alg, dec_abs)
        put(rest[at], 1 + 2 * nblk + lv, proj)
    knap = _knapsack_stack(alg, [(np.concatenate([d[k][0] for d in decs]),
                                  np.concatenate([d[k][1] for d in decs]))
                                 for k in range(nblk)])
    put(np.concatenate(owners), 0, knap)

    # objectives ||W F W||_1 of every candidate in one SVD per block
    flat = valid.ravel().nonzero()[0]
    of = flat // nslot
    pooled = [c.reshape(-1, n, n)[flat] for c, n in zip(cands, sizes)]
    objective = np.full(items * nslot, -np.inf)
    objective[flat] = _stacked_schatten(alg, [w @ b[of] @ w for w, b in zip(pooled, fh)], 1.0)
    objective = objective.reshape(items, nslot)

    pick = np.argmax(objective, axis=1)
    maximizer = _project_stack(alg, [c[np.arange(items), pick] for c in cands])
    best = _stacked_schatten(alg, [w @ b @ w for w, b in zip(maximizer, fh)], 1.0)
    ones = objective[:, 1:1 + 2 * nblk]
    rank1 = np.where(np.isfinite(ones).any(axis=1), ones.max(axis=1), 0.0)
    # a rank-one W is feasible, so the exact value bounds it; the cap keeps
    # rounding from putting it above
    rank1[psd_rows] = np.minimum(best[psd_rows], psd_rank1)
    return _TriplePool(upper=upper, exact=exact, scaled=fh, candidates=cands,
                       objective=objective, rank1=rank1, maximizer=maximizer, best=best)


def _trace_norm_polar(alg: TracedAlgebra,
                      ms: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """||M||_1 of each item of a stack given as per-block (B, n_k, n_k) arrays,
    and the per-block (U V*)* of M_k = U S V*, the subgradient of the trace
    norm at M_k, from one full SVD per block."""
    acc, polar = 0.0, []
    for wt, mk in zip(alg.weights, ms):
        u, s, vh = np.linalg.svd(mk)
        polar.append((u @ vh).conj().swapaxes(-1, -2))
        acc = acc + wt * s.sum(axis=-1)
    return acc, polar


def _ascend(alg: TracedAlgebra, fh: Sequence[np.ndarray], starts: Sequence[np.ndarray],
            iters: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Projected gradient ascent of ||W F W||_1 from a stack of starts.

    ``starts`` are per-block (S, n_k, n_k) stacks and ``fh`` the per-block
    (S, n_k, n_k) stacks of the F each start climbs on, so the starts of
    several elements advance together.  Each row takes the steps it would
    take alone: along its gradient G, W + (step / ||G||_2) G is projected for
    step = 0.5, 0.25, ... (ten tries) until the objective rises by more than
    1e-14; a row stops once its gradient vanishes or no try rises.  Each
    try is one ``eigh`` (the projection) and one SVD per block, which gives
    the objective and, for an accepted try, the subgradient (U V*)* the next
    gradient is built from; ||G||_2 is the weighted Frobenius norm, so a step
    takes no SVD of its own.  Returns the final objectives and the per-block
    stacks of final W.
    """
    w = _project_stack(alg, starts)
    best, dh = _trace_norm_polar(alg, [x @ b @ x for x, b in zip(w, fh)])
    live, fl = np.arange(len(best)), list(fh)      # fl: the F of each live row
    for _ in range(iters):
        if not live.size:
            break
        grad = []
        for wt, b, x, d in zip(alg.weights, fl, w, dh):
            x, d = x[live], d[live]
            grad.append(wt * hermitian_part_of(b @ x @ d + d @ x @ b))
        gnorm = _norm2(alg, grad)
        moving = ~(gnorm < 1e-14)
        if not moving.all():
            live, fl = live[moving], [b[moving] for b in fl]
        gnorm = gnorm[moving]
        grad = [g[moving] for g in grad]
        left = np.arange(len(live))                  # positions still line-searching
        step = 0.5
        for _ in range(10):
            if not left.size:
                break
            at = live[left]
            c = np.array([step / g for g in gnorm[left].tolist()], dtype=complex)[:, None, None]
            trial = _project_stack(alg, [x[at] + c * g[left] for x, g in zip(w, grad)])
            fb = fl if len(left) == len(live) else [b[left] for b in fl]
            val, tdh = _trace_norm_polar(alg, [t @ b @ t for t, b in zip(trial, fb)])
            up = val > best[at] + 1e-14
            for x, d, t, td in zip(w, dh, trial, tdh):
                x[at[up]] = t[up]
                d[at[up]] = td[up]
            best[at[up]] = val[up]
            left = left[~up]
            step *= 0.5
        if left.size:
            stay = np.ones(len(live), dtype=bool)
            stay[left] = False
            live, fl = live[stay], [b[stay] for b in fl]
    return best, w


def _triple2_is_nr(alg: TracedAlgebra) -> bool:
    """Whether |||.|||_2 is the numerical radius on ``alg``: every block
    weight is >= 1 (see ``triple_norm``)."""
    return min(alg.weights) >= 1.0


def triple_norm(f: AlgebraElement, budget: SearchBudget | None = None,
                quick: bool = False) -> TripleNormResult:
    """|||F|||_2 = sup { ||W F W||_1 : W >= 0, ||W||_2 <= 1, ||W||_inf <= 1 }.

    Returns a certified lower bound with a feasible maximizer plus the upper
    bound ||F||_2.  PSD inputs are solved exactly (status "exact").  When
    every block weight w_k is >= 1, |||F|||_2 = w(F), the numerical radius:
    for a unitary Z = sum_j z_j e_j e_j*, |tr(Z W_k F_k W_k)| =
    |sum_j z_j <F_k W_k e_j, W_k e_j>| <= w(F_k) tr(W_k^2), so
    ||W F W||_1 <= w(F) ||W||_2^2 <= w(F); and the feasible
    W = w_k^{-1/2} h h* in block k, h a unit vector with |<F_k h, h>| =
    w(F_k), attains w(F_k).  There the value is ``numerical_radius(F)`` bit
    for bit, with that maximizer and rank-one bound.  For other weights the
    same argument gives max_k min(w_k, 1) w(F_k) <= |||F|||_2 <= w(F), and
    the value combines rank-one directions, the knapsack maximizer and the
    spectral projections of |F|, and multi-start projected ascent from the
    best of them and from random points.  F goes through the stacked kernel
    ``_triple_norm_stack`` as a stack of one, so the value does not depend on
    whether F is evaluated alone or inside a larger stack.  With ``quick``
    the ascent phase is skipped.  Non-finite entries raise ``DomainError``.
    """
    return _triple_norm_stack(f.algebra, [f], budget, quick)[0]


def _triple_result(alg: TracedAlgebra, upper: float, value: float, rank1: float,
                   w: Sequence[np.ndarray], exact: bool) -> TripleNormResult:
    """The result for ||F||_2 = ``upper``; exact when ``exact`` or the value
    reaches the upper bound."""
    if upper == 0.0:
        return TripleNormResult(0.0, alg.zero(), 0.0, 0.0, EXACT)
    status = EXACT if (exact or value >= upper * (1.0 - 1e-11)) else HEURISTIC
    return TripleNormResult(value=value, maximizer=AlgebraElement(alg, w), upper_bound=upper,
                            rank1_bound=rank1, status=status)


def _triple_norm_stack(alg: TracedAlgebra, fs: Sequence[AlgebraElement],
                       budget: SearchBudget | None = None,
                       quick: bool = False) -> list[TripleNormResult]:
    """``triple_norm`` of every element of a list over ``alg``, each result
    the one a list of one gives, bit for bit.

    When every block weight w_k is >= 1 (``_triple2_is_nr``), |||F|||_2 =
    w(F): a unitary Z bounds |tr(Z W_k F_k W_k)| by w(F_k) tr(W_k^2), so
    ||W F W||_1 <= w(F) ||W||_2^2 <= w(F), and W = w_k^{-1/2} h h* attains
    w(F_k).  There PSD and zero elements get their knapsack pool
    (``_triple2_pool_of``), exact with no search, and every other element F
    gets w(F): one ``_nr_stack`` call per block on the 1024-angle grid, the
    largest over the blocks, the maximizer w_k^{-1/2} h h* from the top
    eigenvector h the winning block's refinement ends on, ``rank1_bound``
    the value and ``upper_bound`` ||F||_2; ``budget`` and ``quick`` change
    nothing there.
    With a weight below 1, where only max_k min(w_k, 1) w(F_k) <=
    |||F|||_2 <= w(F) is known, the whole search runs
    (``_triple_norm_search``).
    """
    for f in fs:
        _require_finite(f.blocks, "|||.|||_2")
    budget = budget or SearchBudget()
    if not fs:
        return []
    blocks = [np.stack([f.blocks[k] for f in fs]) for k in range(alg.n_blocks)]
    if not _triple2_is_nr(alg):
        pool = _triple2_pool(alg, blocks, grid=64 if quick else 256, refine=not quick)
        return _triple_norm_search(alg, pool, budget, quick)
    upper, fh = _unit_norm2(alg, blocks)
    herm, dec_h, psd = _psd_items(fh)
    out: list = [None] * len(fs)
    exact = np.zeros(len(fs), dtype=bool)
    at = herm[psd]
    exact[at] = True
    if at.size:
        only = (np.arange(at.size), [(lam[psd], q[psd]) for lam, q in dec_h],
                np.ones(at.size, dtype=bool))
        pool = _triple2_pool_of(alg, upper[at], [b[at] for b in fh], only, 64, False)
        for i, res in zip(at.tolist(), _triple_norm_search(alg, pool, budget, True)):
            out[i] = res
    rest = (~exact).nonzero()[0]
    if rest.size:
        vals, vecs = [], []
        for k, n in enumerate(alg.block_sizes):
            vecs.append(np.zeros((rest.size, n), dtype=complex))
            vals.append(_nr_stack([fs[i].blocks[k] for i in rest], 1024, vecs[-1]))
        win = np.argmax(vals, axis=0)                    # the first block of largest w
        for j, (i, kb) in enumerate(zip(rest.tolist(), win.tolist())):
            h = vecs[kb][j]
            w = [np.zeros((n, n), dtype=complex) for n in alg.block_sizes]
            w[kb] = complex(1.0 / math.sqrt(alg.weights[kb])) * hermitian_part_of(
                h[:, None] * h.conj()[None, :])
            value = float(vals[kb][j])
            out[i] = _triple_result(alg, float(upper[i]), value, value, w, False)
    return out


def _triple_norm_search(alg: TracedAlgebra, pool: _TriplePool, budget: SearchBudget,
                        quick: bool) -> list[TripleNormResult]:
    """The |||.|||_2 search of a stack of elements from their candidate
    pool, each result the one a stack of one gives, bit for bit.

    A PSD element is exact on its knapsack.  Without ``quick``, each non-exact
    element's ascent starts from its three best candidates and the
    ``budget.starts`` random points (drawn once, the same for every
    element), and the starts of all elements climb as one ``_ascend``
    stack, each on its own F.  An element's first start with the highest
    objective wins if it beats its pool; the winners are projected once more
    and scored in one more stack.
    """
    items = len(pool.upper)
    upper, best = pool.upper.tolist(), pool.best.tolist()
    w_final = [[m[i] for m in pool.maximizer] for i in range(items)]

    search = [] if quick else [i for i, u in enumerate(upper) if u != 0.0 and not pool.exact[i]]
    if search:
        drawn = [random_hermitian(alg, rng, 0.7).blocks
                 for rng in substreams(budget.seed, budget.starts)]
        rand = (_project_stack(alg, [np.stack([d[k] for d in drawn]) + 0.5 * np.eye(n)
                                     for k, n in enumerate(alg.block_sizes)])
                if drawn else [np.zeros((0, n, n), dtype=complex) for n in alg.block_sizes])
        owner, starts = [], [[] for _ in alg.block_sizes]
        for i in search:
            obj = pool.objective[i]
            order = [j for j in np.argsort(-obj, kind="stable")[:3] if np.isfinite(obj[j])]
            owner.append(np.full(len(order) + len(drawn), i))
            for s, c, r in zip(starts, pool.candidates, rand):
                s += [c[i, order], r]
        owner = np.concatenate(owner)
        vals, ws = _ascend(alg, [b[owner] for b in pool.scaled],
                           [np.concatenate(s) for s in starts], budget.iters)
        won, rows = [], []
        for i in search:
            at = (owner == i).nonzero()[0]
            win = at[int(np.argmax(vals[at]))]       # the first of equal maxima
            if vals[win] > pool.objective[i].max():
                won.append(i)
                rows.append(win)
        if won:
            # no steps: project the winners once more and score them
            one, w_win = _ascend(alg, [b[won] for b in pool.scaled], [x[rows] for x in ws], 0)
            for j, i in enumerate(won):
                best[i], w_final[i] = float(one[j]), [x[j] for x in w_win]

    return [_triple_result(alg, u, u * b, u * float(pool.rank1[i]), w, bool(pool.exact[i]))
            for i, (u, b, w) in enumerate(zip(upper, best, w_final))]


# ---------------------------------------------------------------------------
# superoperators B(M, matrix space)
# ---------------------------------------------------------------------------

class SuperOperator:
    """Linear map from a traced algebra into n x n matrices.

    Stored as a dense (n^2, coord_dim) matrix over the source coordinates
    (block-major, row-major inside blocks) and nothing else; Kraus factors
    enter only through ``OperatorValuedMap.from_generator``.  Non-finite
    entries raise ``DomainError``.
    """

    __slots__ = ("source", "target_dim", "matrix", "target_algebra")

    def __init__(self, source: TracedAlgebra, target_dim: int, matrix: np.ndarray,
                 target_algebra: TracedAlgebra | None = None):
        n = int(target_dim)
        mat = np.array(matrix, dtype=complex, copy=True)
        if mat.shape != (n * n, source.coord_dim):
            raise StructureError(
                f"superoperator matrix must be ({n * n}, {source.coord_dim}), got {mat.shape}")
        _require_finite([mat], "superoperator")
        mat.setflags(write=False)
        self.source = source
        self.target_dim = n
        self.matrix = mat
        if target_algebra is not None and target_algebra.total_dim != n:
            raise StructureError("target algebra dimension must equal target_dim")
        self.target_algebra = target_algebra

    @classmethod
    def from_apply(cls, source: TracedAlgebra, target_dim: int,
                   apply_fn: Callable[[AlgebraElement], np.ndarray]) -> "SuperOperator":
        cols = [np.asarray(apply_fn(source.from_coords(e)), dtype=complex).reshape(-1)
                for e in np.eye(source.coord_dim)]
        return cls(source, target_dim, np.stack(cols, axis=1))

    def apply(self, s: AlgebraElement) -> np.ndarray:
        if s.algebra != self.source:
            raise StructureError("element does not belong to the source algebra")
        return self.apply_coords(s.coords())

    def apply_coords(self, coords: np.ndarray) -> np.ndarray:
        n = self.target_dim
        return (self.matrix @ np.asarray(coords, dtype=complex)).reshape(n, n)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def adjoint_at(self, c: np.ndarray) -> list[np.ndarray]:
        """Per-source-block (L, n_k, n_k) stacks of D_k with Re tr(C L(T)) =
        Re sum_k tr(D_k T_k), one per C of an (L, n, n) stack."""
        # one matrix-vector product per vec_row(C^T): a matrix product rounds differently
        g = np.stack([self.matrix.T @ ci.T.reshape(-1) for ci in np.asarray(c, dtype=complex)])
        return [b.swapaxes(-1, -2) for b in self.source.split_coords(g)]


# -- target norms on matrices ---------------------------------------------------

def _target_blocks(mats: np.ndarray, alg: TracedAlgebra) -> list[np.ndarray]:
    """Per-block (B, n_k, n_k) stacks of a stack of dense target values; over
    one block, the contiguous stack itself."""
    mats = np.asarray(mats, dtype=complex)
    blocks = [np.ascontiguousarray(b) for b in alg.diagonal_blocks(mats)]
    if alg.n_blocks == 1:
        return blocks
    off = mats.copy()
    for b in alg.diagonal_blocks(off):
        b[...] = 0.0
    worst = np.max(np.abs(off), axis=(1, 2), initial=0.0)
    if np.any(worst > 1e-9 * (1.0 + np.max(np.abs(mats), axis=(1, 2), initial=0.0))):
        raise PreconditionError(
            "superoperator value is not block-diagonal over the target algebra")
    return blocks


class _TargetNorm:
    """Norm evaluation of stacks, plus linear certificates touching the value.

    ``batch_values`` scores whole candidate pools at once: ``nr`` on the
    pruned stacked theta grid (``_nr_grid``), ``triple2`` through the stacked
    quick-path kernel ``_triple2_pool``.  A ranking runs the scorer only on
    the items whose upper bound from the polar mean (``_polar_mean``) can
    reach their pool's ``top`` best: Kittaneh's || |F| + |F*| || / 2 for
    ``nr``, the knapsack value K((|F| + |F*|) / 2) for ``triple2``.
    ``certify`` adds each item's certificate, for the refinement chains of
    ``_superop_stack``, which climb together as one stack.
    Each item's result is the one a stack of one gives, bit for bit, so
    results do not depend on the stack's size or order.

    On a target algebra whose block weights are all >= 1 (the default
    TracedAlgebra([n]) included) |||F|||_2 = w(F): a unitary Z bounds
    |tr(Z W_k F_k W_k)| by w(F_k) tr(W_k^2), so ||W F W||_1 <= w(F)
    ||W||_2^2 <= w(F), and W = w_k^{-1/2} h h* attains w(F_k) (see
    ``triple_norm``); w of a block-diagonal matrix is the largest w of its
    blocks.  There ``triple2`` is ``nr``: ``radius`` is set, and it ranks,
    certifies and takes the 1024-angle polish of ``_superop_stack`` exactly
    as ``nr`` does, after ``_target_blocks`` has refused values that are not
    block-diagonal.  With a weight below 1, max_k min(w_k, 1) w(F_k) <=
    |||F|||_2 <= w(F), and ``triple2`` keeps its own pool.
    """

    NR_GRID = 256

    def __init__(self, kind: str, target_algebra: TracedAlgebra | None = None):
        if kind not in ("nr", "triple2"):
            raise DomainError(f"unknown target norm {kind!r}")
        self.kind = kind
        self.target_algebra = target_algebra
        self.radius = kind == "nr" or target_algebra is None or _triple2_is_nr(target_algebra)

    def _radius_stack(self, mats: np.ndarray) -> np.ndarray:
        """The dense matrices a ``radius`` norm scores: a ``triple2`` value
        that is not block-diagonal over the target algebra is refused."""
        if self.kind == "triple2" and self.target_algebra is not None:
            _target_blocks(mats, self.target_algebra)
        return mats

    def batch_values(self, mats: np.ndarray, top: int | None = None,
                     groups: Sequence[int] | None = None) -> np.ndarray:
        """Norms of a (B, n, n) stack.  With ``top``, the stack is ranked
        per group: ``groups`` gives the lengths of consecutive runs of items
        (one run by default), each ranked on its own, and an item whose upper
        bound rules it out of its group's ``top`` best may be -inf.  Each
        group's ``argsort`` prefix of length ``top`` and every finite value
        are those of the group's unpruned stack, bit for bit.

        ``nr``, and ``triple2`` with ``radius`` set, score the dense
        matrices on the pruned theta grid (``_nr_grid``); ``triple2``
        otherwise scores the target blocks with ``_triple2_pool``.
        A ranking takes two passes over an upper bound from ``_polar_mean``:
        the largest eigenvalue of the polar mean of the dense matrix for
        the former (Kittaneh), its knapsack value for the latter.  In each group
        the ``top`` items with the largest bounds (in stable order) are
        scored first, and the least of their values is the floor; then every
        other item whose bound, plus a rounding margin of 1e-12 ||F||_2,
        reaches the floor is scored.  The rest cannot reach the ``top`` best
        and are -inf.  ``argsort`` orders exact ties by the rest of the
        array, so a group whose ``top + 1`` best values tie is scored whole,
        as is a group of at most ``top`` items.  Each pass is one stacked
        call over every group, so one polar mean and three scoring stacks at
        most rank any number of groups.
        """
        if self.radius:
            alg, blocks = TracedAlgebra([mats.shape[-1]]), [self._radius_stack(mats)]

            def score(bs: list[np.ndarray]) -> np.ndarray:
                return np.max(_nr_grid(bs[0], self.NR_GRID, 1), axis=1)
        else:
            alg = self.target_algebra
            blocks = _target_blocks(mats, alg)

            def score(bs: list[np.ndarray]) -> np.ndarray:
                return _triple2_pool(alg, bs).values
        if top is None:
            return score(blocks)
        vals = np.full(len(mats), -np.inf)
        scored = np.zeros(len(mats), dtype=bool)

        def fill(parts: list[np.ndarray]) -> None:
            rows = np.concatenate(parts) if parts else np.zeros(0, dtype=int)
            if rows.size:
                vals[rows] = score([b[rows] for b in blocks])
                scored[rows] = True

        sizes = [len(mats)] if groups is None else list(groups)
        spans = [(end - k, end) for k, end in zip(sizes, np.cumsum(sizes).tolist())]
        ranked = [(a, b) for a, b in spans if b - a > top]
        bound, reach, tops = np.zeros(len(mats)), np.zeros(len(mats)), []
        if ranked:
            rows = np.concatenate([np.arange(a, b) for a, b in ranked])
            lam, norm2 = _polar_mean(alg, [b[rows] for b in blocks])
            bound[rows] = lam[:, -1] if self.radius else _knapsack_value(alg, lam)
            reach[rows] = bound[rows] + 1e-12 * norm2
            tops = [a + np.argsort(-bound[a:b], kind="stable")[:top] for a, b in ranked]
        fill([np.arange(a, b) for a, b in spans if b - a <= top] + tops)
        fill([a + (~scored[a:b] & (reach[a:b] >= vals[t].min())).nonzero()[0]
              for (a, b), t in zip(ranked, tops)])
        fill([a + (~scored[a:b]).nonzero()[0]
              for a, b in ranked if _tied(vals[None, a:b], top)[0]])
        return vals

    def certify(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and certificates C of a (B, n, n) stack of matrices M.

        Re tr(C M) = value and Re tr(C M') <= norm(M') for every M'.
        """
        if self.radius:
            # C = e^{i theta} h h* at the top grid angle; a zero M gives C = 0
            grid, found = _nr_peaks(self._radius_stack(mats), self.NR_GRID, 1)
            top = np.array([p[0] for p in found])
            vals, vecs, thetas = _nr_top(mats, top * (TWO_PI / self.NR_GRID),
                                         grid[np.arange(len(mats)), top].tolist())
            certs = np.exp(1j * np.array(thetas))[:, None, None] * (
                vecs[:, :, None] * vecs.conj()[:, None, :])
            zero = ~mats.any(axis=(1, 2))
            certs[zero] = 0.0
            return np.where(zero, 0.0, vals), certs
        alg = self.target_algebra
        blocks = _target_blocks(mats, alg)
        pool = _triple2_pool(alg, blocks)
        # Re tr_rho(D* W M W) = Re tr(C M) with C = blockdiag(w_k W_k D_k* W_k),
        # D the unitary polar factor of W M W
        polar = _trace_norm_polar(alg, [w @ f @ w for w, f in zip(pool.maximizer, blocks)])[1]
        return pool.values, alg.block_diag([wt * (w @ d @ w) for wt, w, d in
                                            zip(alg.weights, pool.maximizer, polar)])


# -- unit-ball search -------------------------------------------------------------

@dataclass
class SuperOperatorNormResult:
    value: float
    maximizer: AlgebraElement
    status: str                      # EXACT | HEURISTIC


def _unitary_candidates(source: TracedAlgebra, budget: SearchBudget) -> np.ndarray:
    """Coordinate rows of the identity, seeded random blockwise unitaries u_i
    (one stacked QR per block) and hermitian contractions h_i, in the order
    identity, u_0, h_0, u_1, u_2, h_2, ... of substream i's draws.

    The pool depends on the block sizes, starts and seed alone, and the last
    one drawn is kept, read-only (a one-entry memo): an operator-valued check
    searches the same pool for each target norm."""
    return _draw_candidates(source.block_sizes, int(budget.starts), int(budget.seed))


@functools.lru_cache(maxsize=1)
def _draw_candidates(sizes: tuple[int, ...], starts: int, seed: int) -> np.ndarray:
    items, unitary_at = [[np.eye(n, dtype=complex) for n in sizes]], []
    for i, rng in enumerate(substreams(seed, starts)):
        unitary_at.append(len(items))
        items.append([random_complex_matrix(rng, n, n) for n in sizes])
        if i % 2 == 0:
            items.append([hermitian_part_of(random_complex_matrix(rng, n, n)) for n in sizes])
    herm_at = [i + 1 for i in unitary_at[::2]]
    blocks = [np.stack(b) for b in zip(*items)]
    for b in blocks:
        b[unitary_at] = unitaries_from_gaussian(b[unitary_at])
    norms = _itemwise_max([np.linalg.svd(b[herm_at], compute_uv=False) for b in blocks])
    for i, hn in zip(herm_at, norms.tolist()):
        if not hn <= 1.0:
            for b in blocks:
                b[i] = complex(1.0 / hn) * b[i]
    coords = np.concatenate([b.reshape(len(items), -1) for b in blocks], axis=1)
    coords.setflags(write=False)
    return coords


def superop_norm(op: SuperOperator, target_norm: str = "nr",
                 budget: SearchBudget | None = None) -> SuperOperatorNormResult:
    """sup of target_norm(L(T)) over contractions T in the source algebra.

    The unit ball is the closed convex hull of the blockwise unitaries and the
    target norms are convex, so the search runs over seeded random unitaries
    (plus the identity and hermitian contractions) and refines the best finds
    by alternating exact maximization of the linearized objective over the
    unitary group.  The pool and the chains are coordinate rows of the source,
    and the chains from the three best candidates climb together; a chain
    step is kept only if it raises that chain's certified value.  The result
    is a certified lower bound with a feasible maximizer (the only element
    built).  ``op`` goes through the stacked kernel ``_superop_stack`` as a
    list of one.
    """
    return _superop_stack([op], target_norm, [budget or SearchBudget()])[0]


def _superop_stack(ops: Sequence[SuperOperator], target_norm: str,
                   budgets: Sequence[SearchBudget],
                   pools: Sequence[np.ndarray | None] | None = None
                   ) -> list[SuperOperatorNormResult]:
    """``superop_norm`` of every operator of a list of one shape (source,
    target dimension and target algebra), each at its own budget, each result
    the one a list of one gives, bit for bit.

    Each nonzero operator searches its own pool: ``pools[i]``, or its
    ``_unitary_candidates`` draw.  One ``batch_values`` call ranks every pool
    (a group each).  The chains of every operator then climb as one stack:
    per step, one ``adjoint_at`` per operator on its live chains (one
    matrix-vector product per chain), one stacked SVD per source block and
    one ``certify`` call.  A chain stops once a step does not raise its
    value, and an operator's chains stop after its ``budget.iters`` steps.
    For ``nr``, and ``triple2`` where it is ``nr`` (``_TargetNorm.radius``),
    one ``_nr_stack`` call on the 1024-angle grid scores every operator's
    best T, so the two give the same result there, bit for bit.
    """
    tn = _TargetNorm(target_norm, ops[0].target_algebra)
    search = [i for i, op in enumerate(ops) if not op.is_zero]
    out = [SuperOperatorNormResult(0.0, op.source.identity(), EXACT) if op.is_zero else None
           for op in ops]
    if not search:
        return out
    pool = [pools[i] if pools is not None else _unitary_candidates(ops[i].source, budgets[i])
            for i in search]
    n = ops[0].target_dim
    vals = tn.batch_values(np.concatenate([(ops[i].matrix @ c.T).T.reshape(len(c), n, n)
                                           for i, c in zip(search, pool)]),
                           top=3, groups=[len(c) for c in pool])
    best_val, best_t, chain_t, at = [], [], [], 0
    for c in pool:
        order = np.argsort(vals[at:at + len(c)])[::-1]      # only order[:3] is read
        best_val.append(float(vals[at + order[0]]))
        best_t.append(c[order[0]])
        chain_t.append(c[order[:3]])
        at += len(c)
    owner = np.repeat(np.arange(len(search)), [len(t) for t in chain_t])
    chain_t = np.concatenate(chain_t)
    ops_of = [ops[search[o]] for o in owner.tolist()]
    iters = np.array([budgets[i].iters for i in search])

    # one matrix-vector product per chain: a matrix product rounds differently
    chain_val, certs = tn.certify(np.stack([op.apply_coords(t) for op, t in zip(ops_of, chain_t)]))
    live = np.arange(len(chain_t))
    for step in range(int(iters.max())):
        live = live[iters[owner[live]] > step]
        if not live.size:
            break
        # blockwise unitaries Q P* maximizing Re tr(C L(T)), D_k = P S Q*
        own = owner[live]
        cuts = [0, *((own[1:] != own[:-1]).nonzero()[0] + 1).tolist(), len(live)]
        adj = [ops_of[live[a]].adjoint_at(certs[live[a:b]]) for a, b in zip(cuts, cuts[1:])]
        nxt = []
        for d in (np.concatenate(ds) for ds in zip(*adj)):
            p, _, qh = np.linalg.svd(d)
            nxt.append((qh.conj().swapaxes(-1, -2) @ p.conj().swapaxes(-1, -2))
                       .reshape(len(d), -1))
        nxt = np.concatenate(nxt, axis=1)
        nxt_val, nxt_cert = tn.certify(np.stack([ops_of[j].apply_coords(t)
                                                 for j, t in zip(live.tolist(), nxt)]))
        up = nxt_val > chain_val[live] + 1e-13 * (1.0 + chain_val[live])
        live = live[up]
        chain_t[live], chain_val[live], certs[live] = nxt[up], nxt_val[up], nxt_cert[up]
    for o, t, v in zip(owner.tolist(), chain_t, chain_val.tolist()):
        if v > best_val[o]:
            best_val[o], best_t[o] = v, t

    if tn.radius:
        mats = [ops[i].apply_coords(t) for i, t in zip(search, best_t)]
        _require_finite(mats, "numerical radius")
        best_val = [max(v, w) for v, w in zip(best_val, _nr_stack(np.stack(mats), 1024).tolist())]
    for i, v, t in zip(search, best_val, best_t):
        src = ops[i].source
        out[i] = SuperOperatorNormResult(value=v, maximizer=src.from_coords(t),
                                         status=EXACT if src.coord_dim == 1 else HEURISTIC)
    return out


# -- operator-valued maps ----------------------------------------------------------

class OperatorValuedMap:
    """Sesquilinear map with values in B(source algebra, n x n matrices).

    ``gram`` is one read-only (d, d, n^2, coord_dim) array: ``gram[i, j]`` is
    the ``SuperOperator`` matrix of Phi(e_i, e_j).  Only ``from_generator``
    builds a map with a generator, the read-only (R, d, n, source total_dim)
    factor array of ``Phi(x,y)(S) = sum_r A_r(x) S A_r(y)*`` with
    ``A_r(x) = sum_i x_i A[r, i]`` its gram is built from; it certifies
    positivity (PSD S gives PSD values).  A non-finite gram entry or factor
    raises ``DomainError``.
    """

    def __init__(self, source: TracedAlgebra, target_dim: int, gram: np.ndarray,
                 target_algebra: TracedAlgebra | None = None):
        n = int(target_dim)
        arr = np.array(gram, dtype=complex)
        d = arr.shape[0] if arr.ndim == 4 else 0
        if d == 0 or arr.shape != (d, d, n * n, source.coord_dim):
            raise StructureError(f"gram must be a non-empty (d, d, {n * n}, "
                                 f"{source.coord_dim}) array, got {arr.shape}")
        if target_algebra is not None and target_algebra.total_dim != n:
            raise StructureError("target algebra dimension must equal target_dim")
        if not np.isfinite(arr).all():
            raise DomainError("gram entries must be finite")
        arr.setflags(write=False)
        self.gram = arr
        self.domain_dim = d
        self.source = source
        self.target_dim = n
        self.target_algebra = target_algebra
        self.generator = None

    @classmethod
    def from_generator(cls, source: TracedAlgebra, factors: Sequence[Sequence[np.ndarray]],
                       target_algebra: TracedAlgebra | None = None) -> "OperatorValuedMap":
        a = np.array(factors, dtype=complex)                 # (rank, d, n, source dim)
        if a.ndim != 4 or min(a.shape[:3]) < 1 or a.shape[3] != source.total_dim:
            raise StructureError("generator factors must be a non-empty (R, d, n, "
                                 f"{source.total_dim}) array, R >= 1, got {a.shape}")
        if not np.isfinite(a).all():
            raise DomainError("generator factors must be finite")
        _, d, n, _ = a.shape
        # the (U, d, d, n, n) gram of every source matrix unit E_u as the middle factor
        acc = _generator_gram(a[:, None], source.matrix_units()[None])
        phi = cls(source, n, acc.transpose(1, 2, 3, 4, 0).reshape(d, d, n * n, -1),
                  target_algebra=target_algebra)
        a.setflags(write=False)
        phi.generator = a
        return phi

    def superop(self, x: np.ndarray, y: np.ndarray) -> SuperOperator:
        x = np.asarray(x, dtype=complex).ravel()
        y = np.asarray(y, dtype=complex).ravel()
        if x.shape != (self.domain_dim,) or y.shape != (self.domain_dim,):
            raise StructureError(f"vectors must have length {self.domain_dim}")
        # one scalar product per coefficient: a vectorised outer product rounds
        # differently
        coeff = np.array([xi * np.conj(yj) for xi in x for yj in y])
        flat = self.gram.reshape(-1, *self.gram.shape[2:])
        return SuperOperator(self.source, self.target_dim,
                             _combine_rows(coeff[None], [flat])[0][0],
                             target_algebra=self.target_algebra)

    def check_positivity(self, trials: int = 64, seed: int = 0) -> PositivityCertificate:
        """Certify positivity by the generator, or sample Phi(x, x)(S) on PSD S."""
        if trials < 1:
            raise DomainError("positivity sampling needs trials >= 1")
        if self.generator is not None:
            return PositivityCertificate(status=CERTIFIED, reason="factored generator")
        rng = rng_from(seed)
        worst = math.inf
        worst_x = None
        for _ in range(trials):
            x = rng.standard_normal(self.domain_dim) + 1j * rng.standard_normal(self.domain_dim)
            x /= np.linalg.norm(x)
            s = random_psd(self.source, rng)
            val = self.superop(x, x).apply(s)
            defect = float(np.max(np.abs(val - val.conj().T), initial=0.0))
            lam = float(np.linalg.eigvalsh(hermitian_part_of(val)).min()) - defect
            if lam < worst:
                worst, worst_x = lam, x
        return PositivityCertificate.sampled(worst, worst_x, trials,
                                             1.0 + float(np.max(np.abs(self.gram))))


def check_cs_operator_valued(phi: OperatorValuedMap, x: np.ndarray, y: np.ndarray,
                             target_norm: str = "nr",
                             budget: SearchBudget | None = None) -> InequalityReport:
    """Cauchy-Schwarz in the operator norm of B(source, target norm).

    A positive map L peaks at T = I over the unit ball: for ``nr``,
    w(L(T)) <= ||L(T)|| <= ||L(I)|| = w(L(I)) (Russo-Dye), and for
    ``triple2`` each W L(.) W is positive, so ||W L(T) W||_1 <= ||W L(I) W||_1.
    The right-hand side is therefore the target norm of the PSD matrices
    Phi(x,x)(I) and Phi(y,y)(I), which ``_TargetNorm.batch_values`` gives
    exactly (for ``triple2``, the knapsack alone); only the left-hand side is
    searched.  Its value is attained at a feasible T, so a reported violation
    is proven, and nothing is re-run.  The check goes through the stacked
    kernel ``_check_cs_stack`` as a list of one.
    """
    return _check_cs_stack([phi], [x], [y], [budget or SearchBudget()],
                           [target_norm])[target_norm][0]


def _check_cs_stack(phis: Sequence[OperatorValuedMap], xs: Sequence[np.ndarray],
                    ys: Sequence[np.ndarray], budgets: Sequence[SearchBudget],
                    norms: Sequence[str]) -> dict[str, list[InequalityReport]]:
    """``check_cs_operator_valued`` of every instance (phi, x, y, budget) of
    lists of one shape (source, target dimension and target algebra), for
    each target norm of ``norms``; each report is the one a list of one
    gives, bit for bit.

    Each instance's pool is drawn once and searched for every norm, and each
    norm takes one ``_superop_stack`` call and one ``batch_values`` stack of
    right-hand sides; ``triple2`` on a target where it is ``nr``
    (``_TargetNorm.radius``) takes nr's, so with both norms asked for there
    the search runs once.  Maps of another shape than the first raise
    ``StructureError``.
    """
    head = phis[0]
    if any((p.source, p.target_dim, p.target_algebra)
           != (head.source, head.target_dim, head.target_algebra) for p in phis):
        raise StructureError("a stacked check needs maps of one shape")
    for phi, budget in zip(phis, budgets):
        phi.check_positivity(seed=budget.seed).require()
    ops = [phi.superop(x, y) for phi, x, y in zip(phis, xs, ys)]
    pools = [None if op.is_zero else _unitary_candidates(op.source, b)
             for op, b in zip(ops, budgets)]
    ident = head.source.identity().coords()
    at_identity = np.stack([phi.superop(v, v).apply_coords(ident)
                            for phi, x, y in zip(phis, xs, ys) for v in (x, y)])
    out, searched = {}, {}
    # triple2 first: a search shared with nr then refuses values that are
    # not block-diagonal, as triple2's own search does
    for norm in sorted(norms, key=lambda n: n != "triple2"):
        tn = _TargetNorm(norm, head.target_algebra)
        key = "nr" if tn.radius else norm
        if key not in searched:
            searched[key] = (_superop_stack(ops, norm, budgets, pools),
                             tn.batch_values(at_identity))
        results, sides = searched[key]
        out[norm] = [report(res.value, math.sqrt(max(v_x, 0.0)) * math.sqrt(max(v_y, 0.0)),
                            {"target_norm": norm, "budget_starts": budget.starts,
                             "heuristic": res.status == HEURISTIC})
                     for res, (v_x, v_y), budget in zip(results, sides.reshape(-1, 2).tolist(),
                                                        budgets)]
    return {norm: out[norm] for norm in norms}

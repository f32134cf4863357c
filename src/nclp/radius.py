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
  eigensolved; each value computed is the full grid's, bit for bit,
* ``triple_norm``: the L^2 radius norm  |||F|||_2 = sup ||W F W||_1 over
  PSD W with ||W||_2 <= 1 and ||W||_inf <= 1.  PSD inputs reduce exactly to a
  fractional knapsack over the spectrum (substituting V = W^2 makes the
  objective linear); everything else is certified from below by feasible
  maximizers (rank-one directions, spectral projections, projected ascent)
  and from above by ||F||_2.  The candidate maximizers of a whole stack of
  elements are built and scored by one kernel, ``_triple2_pool``, in a few
  stacked linalg calls; single elements go through it as a stack of one, and
  each result is bit-identical whatever the size or order of the stack.  The
  projected ascent runs on the same per-block stacks: all of its starts
  ascend together, each giving the result it would give alone.  Projection
  onto the feasible set is one clip of the spectrum to [0, 1] and one
  rescale (``_project_stack``),
* ``superop_norm``: operator norms of linear maps from a traced algebra into
  a matrix space, with the supremum over the unit ball searched on blockwise
  unitaries (the extreme points) and refined by alternating exact linearized
  maximization.  The candidate pool is drawn and scored as one stack of
  coordinate rows, and the refinement chains climb together as one stack of
  certified values, so the result does not depend on a stack's size or order,
* ``check_cs_operator_valued``: Cauchy-Schwarz for positive operator-valued
  maps.  A positive map peaks at T = I, so the right-hand side is exact at
  T = I and only the left-hand side is searched; a reported violation is
  proven, and no check is re-run at a larger budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# schatten_norm is not called here but stays importable from this module:
# the benchmark's recorder test reads nclp.radius.schatten_norm
from .algebra import (AlgebraElement, TracedAlgebra, _stacked_schatten,
                      hermitian_part_of, psd_tol, schatten_norm, structure_tol)
from .errors import DomainError, PreconditionError, StructureError
from .inequalities import InequalityReport, _report
from .sampling import (random_complex_matrix, random_element, random_hermitian,
                       random_psd, rng_from, substreams, unitaries_from_gaussian)
from .sesquilinear import PositivityCertificate, _combine

__all__ = ["numerical_radius", "SearchBudget", "TripleNormResult", "triple_norm",
           "triple_norm_axioms", "SuperOperator", "superop_norm",
           "SuperOperatorNormResult", "OperatorValuedMap", "check_cs_operator_valued"]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# numerical radius
# ---------------------------------------------------------------------------

NR_COARSE = 32            # coarse angles of the pruned theta grid
NR_NEWTON_STEPS = 8       # cap on the eigensolves of a peak refinement; converged rows take 3-4


def _tied(vals: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``vals`` whose ``count + 1`` largest entries are not all distinct."""
    top = np.sort(vals, axis=1)[:, ::-1][:, :count + 1]
    return (top[:, 1:] == top[:, :-1]).any(axis=1)


def _nr_grid(mats: np.ndarray, grid: int, keep: int, top: int | None = None) -> np.ndarray:
    """f(theta) = lambda_max(Re(e^{i theta} M)) on ``grid`` equally spaced
    angles for a stack of matrices, (len(mats), grid), -inf where pruned.

    f is the support function of the numerical range W(M): f(theta) is the
    largest Re(e^{i theta} z) over z in W(M).  Between two angles a < b less
    than pi apart, e^{i theta} = alpha e^{ia} + beta e^{ib} with
    alpha = sin(b - theta) / sin(b - a) >= 0 and beta = sin(theta - a) /
    sin(b - a) >= 0, so f(theta) <= alpha f(a) + beta f(b): the outer polygon
    of W(M) (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).  The angles at
    every ``grid // NR_COARSE``-th index are eigensolved first; one more
    stacked call eigensolves the angles whose bound from their coarse arc's
    ends, plus a rounding margin of 1e-12 ||M||_F, reaches the row's
    ``keep``-th largest coarse value.  Each row's ``keep`` largest values
    and their ``argsort`` prefix are then those of the full grid.  With
    ``top``, a row whose bounds all fall below the ``top``-th best coarse row
    maximum is all -inf, so the ``top`` best row maxima and their ``argsort``
    prefix are those of the full grid too.  ``argsort`` orders exact ties by
    the rest of the array, so a row, or with ``top`` the stack, whose ranked
    values tie gets the full grid, as does a grid that is not a multiple of
    NR_COARSE above it.  Every finite value is the full grid's, bit for bit,
    whatever the stack's size or order.
    """
    thetas = TWO_PI * np.arange(grid) / grid
    phases = np.exp(1j * thetas)
    adj = np.conj(np.swapaxes(mats, -1, -2))
    out = np.full((len(mats), grid), -np.inf)

    def solve(rows: np.ndarray, cols: np.ndarray) -> None:
        if rows.size:
            p = phases[cols][:, None, None]
            h = 0.5 * (p * mats[rows] + np.conj(p) * adj[rows])
            out[rows, cols] = np.linalg.eigvalsh(h)[:, -1]

    def fill(rows: np.ndarray) -> None:
        at, cols = np.isneginf(out[rows]).nonzero()
        solve(rows[at], cols)

    rows = np.arange(len(mats))
    if grid % NR_COARSE or grid <= NR_COARSE:
        fill(rows)
        return out
    stride = grid // NR_COARSE
    solve(np.repeat(rows, NR_COARSE), np.tile(np.arange(0, grid, stride), len(mats)))
    ends = out[:, ::stride].copy()                      # (B, NR_COARSE)
    arc = TWO_PI / NR_COARSE
    step = np.arange(1, stride) * (arc / stride)
    alpha, beta = np.sin(arc - step) / math.sin(arc), np.sin(step) / math.sin(arc)
    margin = 1e-12 * np.linalg.norm(mats, axis=(1, 2))
    bound = (alpha * ends[:, :, None] + beta * np.roll(ends, -1, axis=1)[:, :, None]
             + margin[:, None, None])                   # (B, NR_COARSE, stride - 1)
    live = np.ones(len(mats), dtype=bool)
    if top is not None and len(mats) > top:
        reach = np.maximum(ends.max(axis=1), bound.max(axis=(1, 2)))
        live = reach >= np.sort(ends.max(axis=1))[-top]
    floor = np.sort(ends, axis=1)[:, -keep]
    at, a, j = ((bound >= floor[:, None, None]) & live[:, None, None]).nonzero()
    solve(at, a * stride + j + 1)
    out[~live] = -np.inf
    if top is not None and _tied(out.max(axis=1)[None], top)[0]:
        return _nr_grid(mats, grid, keep)
    fill((_tied(out, keep) & live).nonzero()[0])
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


def _nr_top(mats: np.ndarray, thetas: np.ndarray,
            vals: Sequence[float]) -> tuple[list[float], np.ndarray, list[float]]:
    """Top eigenvector h of Re(e^{i theta} M) at each item's angle, and (value,
    h, angle) per item: |<Mh, h>| is itself a lower bound, tight at the
    optimum, so it replaces the item's value in ``vals`` if it beats it."""
    rot = np.exp(1j * thetas)[:, None, None] * mats
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


def _nr_dense(mat: np.ndarray, grid: int) -> float:
    """w(M) of one dense matrix: the grid peaks refined as one ``_nr_newton``
    stack."""
    if mat.shape[0] == 0 or not np.any(mat):
        return 0.0
    grid_vals, found = _nr_peaks(mat[None], grid, 3)
    vals, peaks = grid_vals[0], found[0]
    step = TWO_PI / grid
    best_theta, best_val = peaks[0] * step, float(vals[peaks[0]])
    thetas, tops = _nr_newton(np.repeat(mat[None], len(peaks), axis=0),
                              np.array(peaks) * step, step)
    for t, v in zip(thetas.tolist(), tops.tolist()):
        if v > best_val:
            best_theta, best_val = t, v
    return _nr_top(mat[None], np.array([best_theta]), [best_val])[0][0]


def _require_finite(mats: Sequence[np.ndarray], what: str) -> None:
    if not all(np.isfinite(m).all() for m in mats):
        raise DomainError(f"{what} needs finite entries")


def numerical_radius(t: np.ndarray | AlgebraElement, grid: int = 1024) -> float:
    """w(T) = sup over unit vectors of |<Th, h>|.

    Block-diagonal elements reduce to the maximum over blocks.  Satisfies
    ||T||/2 <= w(T) <= ||T|| with equality w(T) = ||T|| for normal T.
    The three highest peaks of lambda_max(Re(e^{i theta} T)) on ``grid``
    angles are refined as one stack of safeguarded Newton steps
    (``_nr_newton``), each within one grid step of its peak.  Of the grid,
    only NR_COARSE coarse angles and the angles whose bound from the two
    coarse angles around them (the outer polygon of the numerical range)
    reaches the 11th highest coarse value are eigensolved; the peaks, and so
    w(T), are those of the full grid.
    Non-finite entries and a ``grid`` that is not an integer >= 1 raise
    ``DomainError``, an array that is not a square matrix ``StructureError``.
    """
    mats = list(t.blocks) if isinstance(t, AlgebraElement) else [np.asarray(t, dtype=complex)]
    if mats[0].ndim != 2 or mats[0].shape[0] != mats[0].shape[1]:
        raise StructureError(f"numerical radius needs a square matrix, got shape {mats[0].shape}")
    _require_finite(mats, "numerical radius")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise DomainError(f"numerical radius needs an integer grid >= 1, got {grid!r}")
    return max(_nr_dense(m, grid) for m in mats)


# ---------------------------------------------------------------------------
# the L^2 radius norm  |||F|||_2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Random starts and ascent steps of a search; a negative count raises
    ``DomainError``."""
    starts: int = 16
    iters: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 0 or self.iters < 0:
            raise DomainError(f"search budget needs starts >= 0 and iters >= 0, "
                              f"got {self.starts} and {self.iters}")


@dataclass
class TripleNormResult:
    value: float
    maximizer: AlgebraElement
    upper_bound: float
    rank1_bound: float
    status: str                     # "exact" | "heuristic"


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


def _project_stack(alg: TracedAlgebra, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Map each item into {0 <= W <= I, ||W||_2 <= 1} in one step: clip the
    spectrum of its hermitian part to [0, 1] (one stacked ``eigh`` per block),
    then rescale to ||W||_2 <= 1, which keeps 0 <= W <= I."""
    out = []
    for b in blocks:
        lam, q = np.linalg.eigh(hermitian_part_of(b))
        out.append(_spectral(q, lam.clip(0.0, 1.0)))
    n2 = _stacked_schatten(alg, out, 2.0)
    big = (~(n2 <= 1.0)).nonzero()[0]
    shrink = (1.0 / n2[big]).astype(complex)[:, None, None]
    for b in out:
        b[big] = shrink * b[big]
    return out


def _knapsack_stack(alg: TracedAlgebra,
                    decomps: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Exact maximizers of rho(F W^2) over the feasible set for a stack of PSD F.

    With V = W^2 the constraints become 0 <= V <= I, rho(V) <= 1 and the
    objective rho(F V) is linear, so the optimum is a fractional knapsack in
    the eigenbasis of F.  ``decomps`` holds the per-block stacked ``eigh`` of
    F; eigenvalues are taken greedily in stable decreasing order.
    """
    lam = np.concatenate([np.maximum(l, 0.0) for l, _ in decomps], axis=1)
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
    out, at = [], 0
    for (_, q), n in zip(decomps, alg.block_sizes):
        out.append(_spectral(q, np.sqrt(v[:, at:at + n])))
        at += n
    return out


@dataclass
class _TriplePool:
    """Quick-path |||.|||_2 of a stack of elements, with its candidate pool.

    Per item: ``upper`` = ||F||_2, ``exact`` for PSD input, ``scaled`` blocks
    F / ||F||_2 (zero for F = 0), the candidate maximizers in a fixed slot
    order (empty slots have objective -inf), the best rank-one objective
    ``rank1``, and the projected best candidate ``maximizer`` with its
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


def _triple2_pool(alg: TracedAlgebra, blocks: Sequence[np.ndarray], grid: int = 64,
                  refine: bool = False) -> _TriplePool:
    """Candidate pool and quick-path |||.|||_2 for a stack of elements.

    ``blocks`` are per-block (B, n_k, n_k) arrays.  Every candidate family of
    ``triple_norm`` is built for the whole stack in a few stacked linalg
    calls, in the slot order [knapsack of F (PSD F), knapsack of F+ and F-
    (other hermitian F), knapsack of |F|, two rank-one directions per block,
    spectral projections of |F| by decreasing level].  Each item's result
    equals the one-element computation bit for bit, whatever the stack's
    size or order.  ``refine`` refines the rank-one angles of each block,
    all of its (item, peak) rows in one ``_nr_newton`` stack.
    """
    sizes, weights = alg.block_sizes, alg.weights
    nblk = len(sizes)
    fs = [np.ascontiguousarray(b, dtype=complex) for b in blocks]
    items = len(fs[0])
    upper = _stacked_schatten(alg, fs, 2.0)
    inv = np.divide(1.0, upper, out=np.zeros(items), where=upper != 0.0)
    scale = inv.astype(complex)[:, None, None]
    fh = [scale * b for b in fs]                  # unit ||F||_2; homogeneous objective

    nslot = 4 + 2 * nblk + alg.total_dim
    cands = [np.zeros((items, nslot, n, n), dtype=complex) for n in sizes]
    valid = np.zeros((items, nslot), dtype=bool)

    def put(at: np.ndarray, slot: np.ndarray | int, ws: Sequence[np.ndarray | None]) -> None:
        for c, w in zip(cands, ws):
            if w is not None:
                c[at, slot] = w
        valid[at, slot] = True

    # hermitian / PSD predicates, as AlgebraElement.is_hermitian / is_psd
    maxabs = _itemwise_max([np.abs(b) for b in fh])
    skew = _itemwise_max([np.abs(b - b.conj().swapaxes(-1, -2)) for b in fh])
    herm = (skew <= structure_tol(maxabs)).nonzero()[0]
    exact = np.zeros(items, dtype=bool)

    # knapsack maximizers, in one stack: of |F| for every F, of F for PSD F,
    # and of F+ and F- (where nonzero) for the other hermitian F
    absf = []
    for b in fh:
        _, s, vh = np.linalg.svd(b)
        absf.append(hermitian_part_of((vh.conj().swapaxes(-1, -2) * s[..., None, :]) @ vh))
    dec_abs = [np.linalg.eigh(hermitian_part_of(a)) for a in absf]
    owners, slots, decs = [np.arange(items)], [np.full(items, 3)], [dec_abs]
    if herm.size:
        fhh = [b[herm] for b in fh]
        opn = _itemwise_max([np.linalg.svd(b, compute_uv=False) for b in fhh])
        psd = np.all([np.linalg.eigvalsh(hermitian_part_of(b)).min(axis=-1) >= -psd_tol(opn)
                      for b in fhh], axis=0)
        exact[herm[psd]] = True
        dec_h = [np.linalg.eigh(hermitian_part_of(b)) for b in fhh]
        owners.append(herm[psd])
        slots.append(np.zeros(psd.sum(), dtype=int))
        decs.append([(lam[psd], q[psd]) for lam, q in dec_h])
        mixed = ~psd
        if mixed.any():
            parts = [_spectral(np.concatenate([q[mixed], q[mixed]]),
                               np.concatenate([np.maximum(lam[mixed], 0.0),
                                               np.maximum(-lam[mixed], 0.0)]))
                     for lam, q in dec_h]
            nz = _stacked_schatten(alg, parts, 2.0) > 0
            owners.append(np.tile(herm[mixed], 2)[nz])
            slots.append(np.repeat([1, 2], mixed.sum())[nz])
            decs.append([np.linalg.eigh(hermitian_part_of(b[nz])) for b in parts])
    knap = _knapsack_stack(alg, [(np.concatenate([d[k][0] for d in decs]),
                                  np.concatenate([d[k][1] for d in decs]))
                                 for k in range(nblk)])
    put(np.concatenate(owners), np.concatenate(slots), knap)

    # rank-one W = h h* from numerical-radius directions, two per nonzero block
    step = TWO_PI / grid
    for kb, b in enumerate(fh):
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
        ws: list[np.ndarray | None] = [None] * nblk
        ws[kb] = outer[at, j]
        put(at, 4 + 2 * kb + j, ws)

    # spectral projections of |F| above each distinct positive level
    lam_abs = np.concatenate([lam for lam, _ in dec_abs], axis=1)
    desc = np.sort(lam_abs, axis=1)[:, ::-1]
    fresh = np.ones(desc.shape, dtype=bool)
    fresh[:, 1:] = desc[:, 1:] != desc[:, :-1]
    level_ok = fresh & (desc > 0)
    at, col = level_ok.nonzero()                  # row-major: levels in decreasing order
    count = level_ok.sum(axis=1)
    lv = np.arange(len(at)) - (np.cumsum(count) - count)[at]
    thresh = desc[at, col] - 1e-14
    proj = []
    for (lam, q), n in zip(dec_abs, sizes):
        rank = (lam[at] >= thresh[:, None]).sum(axis=1)           # eigh is ascending
        pk = np.zeros((len(at), n, n), dtype=complex)
        for r in sorted(set(rank.tolist()) - {0}):
            sel = (rank == r).nonzero()[0]
            top = q[at[sel]][:, :, np.arange(n) >= n - r]
            pk[sel] = top @ top.conj().swapaxes(-1, -2)
        proj.append(pk)
    n2 = _stacked_schatten(alg, proj, 2.0)
    big = (~(n2 <= 1.0)).nonzero()[0]
    shrink = (1.0 / n2[big]).astype(complex)[:, None, None]
    for pk in proj:
        pk[big] = shrink * pk[big]
    keep = n2 > 0
    put(at[keep], 4 + 2 * nblk + lv[keep], [pk[keep] for pk in proj])

    # objectives ||W F W||_1 of every candidate in one SVD per block
    flat = valid.ravel().nonzero()[0]
    of = flat // nslot
    pooled = [c.reshape(-1, n, n)[flat] for c, n in zip(cands, sizes)]
    objective = np.full(items * nslot, -np.inf)
    objective[flat] = _stacked_schatten(alg, [w @ b[of] @ w for w, b in zip(pooled, fh)], 1.0)
    objective = objective.reshape(items, nslot)

    ones = objective[:, 4:4 + 2 * nblk]
    rank1 = np.where(np.isfinite(ones).any(axis=1), ones.max(axis=1), 0.0)
    pick = np.argmax(objective, axis=1)
    maximizer = _project_stack(alg, [c[np.arange(items), pick] for c in cands])
    best = _stacked_schatten(alg, [w @ b @ w for w, b in zip(maximizer, fh)], 1.0)
    return _TriplePool(upper=upper, exact=exact, scaled=fh, candidates=cands,
                       objective=objective, rank1=rank1, maximizer=maximizer, best=best)


def _ascend(alg: TracedAlgebra, fh: Sequence[np.ndarray], starts: Sequence[np.ndarray],
            iters: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Projected gradient ascent of ||W F W||_1 from a stack of starts.

    ``fh`` holds F's (1, n_k, n_k) blocks and ``starts`` per-block (S, n_k, n_k)
    stacks, all advanced together.  Each item takes the steps it would take
    alone: along its gradient G, W + (step / ||G||_2) G is projected for step
    = 0.5, 0.25, ... (ten tries) until the objective rises by more than
    1e-14; an item stops once its gradient vanishes or no try rises.  Returns
    the final objectives and the per-block stacks of final W.
    """
    w = _project_stack(alg, starts)
    m = [x @ b @ x for x, b in zip(w, fh)]
    best = _stacked_schatten(alg, m, 1.0)
    live = np.arange(len(best))
    for _ in range(iters):
        if not live.size:
            break
        grad = []
        for wt, b, x, mk in zip(alg.weights, fh, w, m):
            x = x[live]
            u, _, vh = np.linalg.svd(mk[live])
            dh = (u @ vh).conj().swapaxes(-1, -2)    # subgradient of the trace norm at M_k
            grad.append(wt * hermitian_part_of(b @ x @ dh + dh @ x @ b))
        gnorm = _stacked_schatten(alg, grad, 2.0)
        moving = ~(gnorm < 1e-14)
        live, gnorm = live[moving], gnorm[moving]
        grad = [g[moving] for g in grad]
        left = np.arange(len(live))                  # positions still line-searching
        step = 0.5
        for _ in range(10):
            if not left.size:
                break
            at = live[left]
            c = np.array([step / g for g in gnorm[left].tolist()], dtype=complex)[:, None, None]
            trial = _project_stack(alg, [x[at] + c * g[left] for x, g in zip(w, grad)])
            tm = [t @ b @ t for t, b in zip(trial, fh)]
            val = _stacked_schatten(alg, tm, 1.0)
            up = val > best[at] + 1e-14
            for x, mk, t, tmk in zip(w, m, trial, tm):
                x[at[up]] = t[up]
                mk[at[up]] = tmk[up]
            best[at[up]] = val[up]
            left = left[~up]
            step *= 0.5
        live = np.delete(live, left)
    return best, w


def triple_norm(f: AlgebraElement, budget: SearchBudget | None = None,
                quick: bool = False) -> TripleNormResult:
    """|||F|||_2 = sup { ||W F W||_1 : W >= 0, ||W||_2 <= 1, ||W||_inf <= 1 }.

    Returns a certified lower bound with a feasible maximizer plus the upper
    bound ||F||_2.  PSD inputs are solved exactly (status "exact"); otherwise
    the value combines rank-one directions (for single weight-1 blocks these
    reproduce the numerical radius), spectral projections of |F|, knapsack
    solutions on the hermitian parts, and multi-start projected ascent.  The
    candidates are built and evaluated as one stacked pool (``_triple2_pool``
    at a stack of one), so the value does not depend on whether F is
    evaluated alone or inside a larger pool.  The ascent then starts from the
    three best candidates and ``budget.starts`` random points, all advanced
    as one stack (``_ascend``); each start ends where it would end alone, and
    the first start with the highest objective wins if it beats the pool.
    With ``quick`` the ascent phase is skipped.  Non-finite entries raise
    ``DomainError``.
    """
    _require_finite(f.blocks, "|||.|||_2")
    alg = f.algebra
    budget = budget or SearchBudget()
    pool = _triple2_pool(alg, [b[None] for b in f.blocks],
                         grid=64 if quick else 256, refine=not quick)
    upper = float(pool.upper[0])
    if upper == 0.0:
        return TripleNormResult(0.0, alg.zero(), 0.0, 0.0, "exact")
    exact = bool(pool.exact[0])
    best = float(pool.best[0])
    w_final = AlgebraElement(alg, [m[0] for m in pool.maximizer])

    if not exact and not quick:
        obj = pool.objective[0]
        order = [i for i in np.argsort(-obj, kind="stable")[:3] if np.isfinite(obj[i])]
        starts = [c[0, order] for c in pool.candidates]
        drawn = [random_hermitian(alg, rng, 0.7).blocks
                 for rng in substreams(budget.seed, budget.starts)]
        if drawn:
            rand = _project_stack(alg, [np.stack([d[k] for d in drawn]) + 0.5 * np.eye(n)
                                        for k, n in enumerate(alg.block_sizes)])
            starts = [np.concatenate(pair) for pair in zip(starts, rand)]
        vals, ws = _ascend(alg, pool.scaled, starts, budget.iters)
        win = int(np.argmax(vals))                   # the first of equal maxima
        if vals[win] > obj.max():
            # no steps: project the winner once more and score it
            one, w_win = _ascend(alg, pool.scaled, [x[win:win + 1] for x in ws], 0)
            best, w_final = float(one[0]), AlgebraElement(alg, [x[0] for x in w_win])

    value = upper * best
    rank1 = upper * float(pool.rank1[0])
    status = "exact" if (exact or value >= upper * (1.0 - 1e-11)) else "heuristic"
    return TripleNormResult(value=value, maximizer=w_final, upper_bound=upper,
                            rank1_bound=rank1, status=status)


@dataclass
class TripleNormAxiomReport:
    samples: int
    homogeneity_defect: float
    triangle_defect: float
    sandwich_failures: int
    min_nonzero_value: float
    zero_value: float


def triple_norm_axioms(samples: int = 50, seed: int = 0,
                       algebra: TracedAlgebra | None = None,
                       budget: SearchBudget | None = None) -> TripleNormAxiomReport:
    """Empirical norm axioms for |||.|||_2 on random elements.

    Homogeneity and the triangle inequality are checked up to optimizer noise
    (the computed values are lower bounds); the sandwich
    w(F) <= |||F|||_2 <= ||F||_2 and faithfulness on nonzero inputs are
    verified per sample.
    """
    alg = algebra or TracedAlgebra([2])
    budget = budget or SearchBudget(starts=4, iters=25)
    rngs = substreams(seed, samples)
    hom = tri = 0.0
    sandwich_bad = 0
    min_nz = math.inf
    for rng in rngs:
        f = random_element(alg, rng)
        g = random_element(alg, rng)
        c = float(rng.uniform(0.5, 2.0))
        tf = triple_norm(f, budget)
        tg = triple_norm(g, budget)
        tcf = triple_norm(c * f, budget)
        tfg = triple_norm(f + g, budget)
        hom = max(hom, abs(tcf.value - c * tf.value) / (1.0 + c * tf.value))
        tri = max(tri, (tfg.value - tf.value - tg.value) / (1.0 + tf.value + tg.value))
        wf = numerical_radius(f, grid=512)
        if not (wf - 1e-6 <= tf.value <= tf.upper_bound + 1e-9):
            sandwich_bad += 1
        if tf.value > 0:
            min_nz = min(min_nz, tf.value)
    zero_val = triple_norm(alg.zero(), budget).value
    return TripleNormAxiomReport(samples=samples, homogeneity_defect=hom,
                                 triangle_defect=tri, sandwich_failures=sandwich_bad,
                                 min_nonzero_value=min_nz, zero_value=zero_val)


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
                   apply_fn: Callable[[AlgebraElement], np.ndarray],
                   target_algebra: TracedAlgebra | None = None) -> "SuperOperator":
        cols = []
        m = source.coord_dim
        for i in range(m):
            e = np.zeros(m, dtype=complex)
            e[i] = 1.0
            cols.append(np.asarray(apply_fn(source.from_coords(e)),
                                   dtype=complex).reshape(-1))
        mat = np.stack(cols, axis=1)
        return cls(source, target_dim, mat, target_algebra=target_algebra)

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
        out, at = [], 0
        for n in self.source.block_sizes:
            out.append(g[:, at:at + n * n].reshape(len(g), n, n).swapaxes(-1, -2))
            at += n * n
        return out


# -- target norms on matrices ---------------------------------------------------

def _target_blocks(mats: np.ndarray, alg: TracedAlgebra) -> list[np.ndarray]:
    """Per-block (B, n_k, n_k) stacks of a stack of dense target values."""
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[1:] != (alg.total_dim, alg.total_dim):
        raise StructureError("dense matrix has wrong shape for this algebra")
    blocks, at = [], 0
    off = mats.copy()
    for n in alg.block_sizes:
        blocks.append(np.ascontiguousarray(mats[:, at:at + n, at:at + n]))
        off[:, at:at + n, at:at + n] = 0.0
        at += n
    worst = np.max(np.abs(off), axis=(1, 2), initial=0.0)
    if np.any(worst > 1e-9 * (1.0 + np.max(np.abs(mats), axis=(1, 2), initial=0.0))):
        raise PreconditionError(
            "superoperator value is not block-diagonal over the target algebra")
    return blocks


class _TargetNorm:
    """Norm evaluation of stacks, plus linear certificates touching the value.

    ``batch_values`` scores a whole candidate pool at once: ``nr`` on the
    pruned stacked theta grid, ``triple2`` through the stacked quick-path kernel
    ``_triple2_pool``.  ``certify`` adds each item's certificate, for the
    refinement chains of ``superop_norm``, which climb together as one stack.
    Each item's result is the one a stack of one gives, bit for bit, so
    results do not depend on the stack's size or order.
    """

    NR_GRID = 256

    def __init__(self, kind: str, target_algebra: TracedAlgebra | None = None):
        if kind not in ("nr", "triple2"):
            raise DomainError(f"unknown target norm {kind!r}")
        self.kind = kind
        self.target_algebra = target_algebra

    def batch_values(self, mats: np.ndarray, top: int | None = None) -> np.ndarray:
        """Norms of a (B, n, n) stack.  With ``top``, ``nr`` may return -inf
        for an item its grid bound rules out of the ``top`` best, which keeps
        the ``argsort`` prefix of length ``top`` and its values."""
        if self.kind == "nr":
            return np.max(_nr_grid(mats, self.NR_GRID, 1, top), axis=1)
        alg = self.target_algebra or TracedAlgebra([mats.shape[-1]])
        return _triple2_pool(alg, _target_blocks(mats, alg)).values

    def certify(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and certificates C of a (B, n, n) stack of matrices M.

        Re tr(C M) = value and Re tr(C M') <= norm(M') for every M'.
        """
        if self.kind == "nr":
            # C = e^{i theta} h h* at the top grid angle; a zero M gives C = 0
            grid, found = _nr_peaks(mats, self.NR_GRID, 1)
            top = np.array([p[0] for p in found])
            vals, vecs, thetas = _nr_top(mats, top * (TWO_PI / self.NR_GRID),
                                         grid[np.arange(len(mats)), top].tolist())
            certs = np.exp(1j * np.array(thetas))[:, None, None] * (
                vecs[:, :, None] * vecs.conj()[:, None, :])
            zero = ~mats.any(axis=(1, 2))
            certs[zero] = 0.0
            return np.where(zero, 0.0, vals), certs
        alg = self.target_algebra or TracedAlgebra([mats.shape[-1]])
        blocks = _target_blocks(mats, alg)
        pool = _triple2_pool(alg, blocks)
        # Re tr_rho(D* W M W) = Re tr(C M) with C = blockdiag(w_k W_k D_k* W_k),
        # D the unitary polar factor of W M W
        certs = np.zeros(mats.shape, dtype=complex)
        at = 0
        for wt, w, f, n in zip(alg.weights, pool.maximizer, blocks, alg.block_sizes):
            u, _, vh = np.linalg.svd(w @ f @ w)
            certs[:, at:at + n, at:at + n] = wt * (w @ (u @ vh).conj().swapaxes(-1, -2) @ w)
            at += n
        return pool.values, certs


# -- unit-ball search -------------------------------------------------------------

@dataclass
class SuperOperatorNormResult:
    value: float
    maximizer: AlgebraElement
    status: str                      # "exact" | "heuristic"


def _unitary_candidates(source: TracedAlgebra, budget: SearchBudget) -> np.ndarray:
    """Coordinate rows of the identity, seeded random blockwise unitaries u_i
    (one stacked QR per block) and hermitian contractions h_i, in the order
    identity, u_0, h_0, u_1, u_2, h_2, ... of substream i's draws."""
    sizes = source.block_sizes
    items, unitary_at = [[np.eye(n, dtype=complex) for n in sizes]], []
    for i, rng in enumerate(substreams(budget.seed, budget.starts)):
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
    return np.concatenate([b.reshape(len(items), -1) for b in blocks], axis=1)


def superop_norm(op: SuperOperator, target_norm: str = "nr",
                 budget: SearchBudget | None = None) -> SuperOperatorNormResult:
    """sup of target_norm(L(T)) over contractions T in the source algebra.

    The unit ball is the closed convex hull of the blockwise unitaries and the
    target norms are convex, so the search runs over seeded random unitaries
    (plus the identity and hermitian contractions) and refines the best finds
    by alternating exact maximization of the linearized objective over the
    unitary group.  The pool and the chains are coordinate rows of the source,
    and the chains from the three best candidates climb together, one stacked
    SVD per block and one ``_TargetNorm.certify`` call per step; a chain stops
    once a step does not raise its value, so each takes the steps it would
    take alone.  The result is a certified lower bound with a feasible
    maximizer (the only element built); it never decreases with the budget.
    """
    budget = budget or SearchBudget()
    tn = _TargetNorm(target_norm, op.target_algebra)
    if op.is_zero:
        return SuperOperatorNormResult(0.0, op.source.identity(), "exact")
    coords = _unitary_candidates(op.source, budget)
    vals_raw = (op.matrix @ coords.T).T.reshape(len(coords), op.target_dim, op.target_dim)
    vals = tn.batch_values(vals_raw, top=3)          # only order[:3] is read
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_t = coords[order[0]]

    # one matrix-vector product per chain: a matrix product rounds differently
    chain_t = coords[order[:3]]
    chain_val, certs = tn.certify(np.stack([op.apply_coords(t) for t in chain_t]))
    live = np.arange(len(chain_t))
    for _ in range(budget.iters):
        if not live.size:
            break
        # blockwise unitaries Q P* maximizing Re tr(C L(T)), D_k = P S Q*
        nxt = []
        for d in op.adjoint_at(certs[live]):
            p, _, qh = np.linalg.svd(d)
            nxt.append((qh.conj().swapaxes(-1, -2) @ p.conj().swapaxes(-1, -2))
                       .reshape(len(d), -1))
        nxt = np.concatenate(nxt, axis=1)
        nxt_val, nxt_cert = tn.certify(np.stack([op.apply_coords(t) for t in nxt]))
        up = nxt_val > chain_val[live] + 1e-13 * (1.0 + chain_val[live])
        live = live[up]
        chain_t[live], chain_val[live], certs[live] = nxt[up], nxt_val[up], nxt_cert[up]
    for t, v in zip(chain_t, chain_val.tolist()):
        if v > best_val:
            best_val, best_t = v, t

    if target_norm == "nr":
        best_val = max(best_val, numerical_radius(op.apply_coords(best_t), grid=1024))
    return SuperOperatorNormResult(value=best_val, maximizer=op.source.from_coords(best_t),
                                   status="exact" if op.source.coord_dim == 1 else "heuristic")


# -- operator-valued maps ----------------------------------------------------------

class OperatorValuedMap:
    """Sesquilinear map with values in B(source algebra, n x n matrices).

    ``gram`` is one read-only (d, d, n^2, coord_dim) array: ``gram[i, j]`` is
    the ``SuperOperator`` matrix of Phi(e_i, e_j).  Only ``from_generator``
    builds a map with a generator, the factors
    ``Phi(x,y)(S) = sum_r A_r(x) S A_r(y)*`` with ``A_r(x) = sum_i x_i A[r][i]``
    its gram is built from; they certify positivity (PSD S gives PSD values).
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
        if a.ndim != 4 or a.shape[3] != source.total_dim:
            raise StructureError("generator factors must be (target_dim, source total_dim)")
        _, d, n, _ = a.shape
        units = np.stack([source.from_coords(e).dense() for e in np.eye(source.coord_dim)])
        # (A_i E) A_j* for every factor and source basis element E at once,
        # summed in factor order
        terms = (a[:, None] @ units[None, :, None])[:, :, :, None] \
            @ a.conj().swapaxes(-1, -2)[:, None, None]
        acc = np.zeros(terms.shape[1:], dtype=complex)
        for t in terms:
            acc = acc + t
        phi = cls(source, n, acc.transpose(1, 2, 3, 4, 0).reshape(d, d, n * n, -1),
                  target_algebra=target_algebra)
        phi.generator = tuple(tuple(row) for row in a)
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
        return SuperOperator(self.source, self.target_dim, _combine(coeff, flat),
                             target_algebra=self.target_algebra)

    def check_positivity(self, trials: int = 64, seed: int = 0) -> PositivityCertificate:
        """Certify positivity by the generator, or sample Phi(x, x)(S) on PSD S.

        A sampled certificate carries the worst unit vector x as ``witness``
        and its least eigenvalue as ``witness_min_eig``.
        """
        if trials < 1:
            raise DomainError("positivity sampling needs trials >= 1")
        if self.generator is not None:
            return PositivityCertificate(status="certified", reason="factored generator")
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
        scale = 1.0 + float(np.max(np.abs(self.gram)))
        if worst < -1e-8 * scale:
            return PositivityCertificate(status="violated", samples=trials, witness=worst_x,
                                         witness_min_eig=worst,
                                         reason="sampled value on a PSD input with "
                                                "negative eigenvalue")
        return PositivityCertificate(status="sampled", samples=trials, witness=worst_x,
                                     witness_min_eig=worst,
                                     reason="no violation among sampled unit vectors")


def check_cs_operator_valued(phi: OperatorValuedMap, x: np.ndarray, y: np.ndarray,
                             target_norm: str = "nr",
                             budget: SearchBudget | None = None,
                             certificate: PositivityCertificate | None = None) -> InequalityReport:
    """Cauchy-Schwarz in the operator norm of B(source, target norm).

    A positive map L peaks at T = I over the unit ball: for ``nr``,
    w(L(T)) <= ||L(T)|| <= ||L(I)|| = w(L(I)) (Russo-Dye), and for
    ``triple2`` each W L(.) W is positive, so ||W L(T) W||_1 <= ||W L(I) W||_1.
    The right-hand side is therefore the target norm of the PSD matrices
    Phi(x,x)(I) and Phi(y,y)(I), which ``_TargetNorm.batch_values`` gives
    exactly; only the left-hand side is searched.  Its value is attained at a
    feasible T, so a reported violation is proven, and nothing is re-run.
    """
    budget = budget or SearchBudget()
    cert = certificate if certificate is not None else phi.check_positivity(seed=budget.seed)
    if cert.status == "violated":
        raise PreconditionError("operator-valued map failed positivity sampling")
    res = superop_norm(phi.superop(x, y), target_norm, budget)
    ident = phi.source.identity().coords()
    at_identity = np.stack([phi.superop(v, v).apply_coords(ident) for v in (x, y)])
    v_x, v_y = _TargetNorm(target_norm, phi.target_algebra).batch_values(at_identity).tolist()
    rhs = math.sqrt(max(v_x, 0.0)) * math.sqrt(max(v_y, 0.0))
    return _report(res.value, rhs, {"target_norm": target_norm, "budget_starts": budget.starts,
                                    "heuristic": res.status == "heuristic"})

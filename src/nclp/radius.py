"""Numerical-radius-type norms and operator-valued Cauchy-Schwarz checks.

Four layers:

* ``numerical_radius``: w(T) = sup_{|h|=1} |<Th, h>| via a theta-grid over
  f(theta) = lambda_max(Re(e^{i theta} T)), whose peaks are refined together
  by safeguarded Newton steps (``_nr_newton``, one stacked ``eigh`` per
  step).  f is the support function of the numerical range, so after
  NR_COARSE coarse angles the outer polygon of the range bounds every other
  angle, and ``_nr_grid`` eigensolves only the angles whose bound reaches
  the values a caller ranks, at most NR_CHUNK matrices per ``eigvalsh``
  call; a search for several peaks first solves the two coarse arcs around
  the best coarse angle.  For one peak the floor is the best coarse value,
  the tie test reads a row's top two values and the peak is an ``argmax``.
  Each value computed is the full grid's, bit for bit.  One kernel,
  ``_nr_stack``, gives w of one C-contiguous stack (the same bits in any
  layout) in one grid and one Newton stack: at most 3 ``eigvalsh`` calls and
  one ``eigh`` per Newton step, the top eigenvector from the winning step.  A normal
  matrix takes no grid: for it rho(M) <= w(M) <= || |M| + |M*| || / 2
  (Kittaneh) is an equality, settled by ``_nr_normal``,
* ``triple_norm``: the L^2 radius norm |||F|||_2 = sup ||W F W||_1 over
  PSD W with ||W||_2 <= 1 and ||W||_inf <= 1.  PSD inputs reduce exactly to
  a fractional knapsack over the spectrum.  When every block weight is
  >= 1, |||F|||_2 = w(F) (see ``triple_norm``), and the value is
  ``numerical_radius``'s bit for bit.  For other weights the value is
  certified from below by feasible maximizers (the knapsack maximizer of
  |F|, the witness of the rank-one bound L (``_rank1_witness``), the
  spectral projections of |F|, projected ascent from each), built and
  scored for a whole stack by ``_triple2_pool``, and from above by
  ||F||_2; the polar mean (``_polar_mean``) bounds it for pool rankings,
* ``superop_norm``: operator norms of linear maps from a traced algebra into
  a matrix space, searched over a seeded pool of blockwise unitaries (the
  extreme points of the unit ball) and refined by alternating exact
  linearized maximization.  ``_unitary_candidates`` draws a pool with one
  ``standard_normal`` call per seed substream and builds it as one stack.
  ``_superop_stack`` searches a list of operators of one shape, each result
  the one it gives alone, bit for bit: one ``_TargetNorm.batch_values``
  call ranks every pool behind a polar-mean upper bound, and the
  refinement chains of all operators climb as one stack, each step one
  stacked matrix-vector product for the adjoints, one for the values and
  one ``certify`` call.  Where every block weight of the target is >= 1,
  ``triple2`` runs the ``nr`` search (``_TargetNorm.key``); on a target of
  several blocks it refuses an operator whose values leave the blocks,
* ``check_cs_operator_valued``: Cauchy-Schwarz for positive operator-valued
  maps.  A positive map peaks at T = I over the unit ball, so the
  right-hand side is exact and only the left-hand side is searched; a
  reported violation is proven.  ``_check_cs_stack`` checks a list of
  instances of one shape: those that share a budget share one pool draw,
  x and y far from unit scale are checked as 2^-e x and 2^-f y with both
  sides multiplied back by 2^(e + f), exactly, and each map keeps its last
  searched left-hand side, so ``nr`` then ``triple2`` on one map searches
  once where the two are one search.  Nothing else is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# schatten_norm is not called here but stays importable from this module:
# the benchmark's recorder test reads nclp.radius.schatten_norm
from .algebra import (AlgebraElement, TracedAlgebra, _ldexp_complex, _rank_projections,
                      _stacked_schatten, _unit_exponents, hermitian_part_of, psd_tol,
                      schatten_norm, structure_tol)
from .errors import DomainError, PreconditionError, StructureError
from .sampling import random_hermitian, random_psd, rng_from, substreams, unitaries_from_gaussian
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
    """Rows of ``vals`` whose ``count + 1`` largest entries are not all
    distinct; for ``count`` 1, whose top two, by ``np.partition``."""
    if count == 1 and vals.shape[1] > 1:
        top = np.partition(vals, -2, axis=1)[:, -2:]
    else:
        top = np.sort(vals, axis=1)[:, -count - 1:]
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
    is the row's ``keep``-th largest value computed so far (with ``keep`` 1,
    a row max of the coarse values, every fine angle still unsolved), and a
    last stacked call eigensolves the angles left whose bound from their
    coarse arc's ends, plus a rounding margin of 1e-12 ||M||_F, reaches it;
    each call is one ``eigvalsh`` when it fits in NR_CHUNK matrices.  Each
    row's ``keep`` largest values and their ``argsort`` prefix are then
    those of the full grid.  ``argsort`` orders exact ties by the rest of the
    array, so a row whose ranked values tie (``_tied``) gets the full grid,
    as does a grid of at most 2 NR_COARSE angles or one that is not a
    multiple of NR_COARSE.  Only the phases of the angles solved are formed,
    each as exp(i 2 pi k / grid).  Every finite value is the full grid's,
    bit for bit, whatever the stack's size or order.
    """
    count = len(mats)
    adj = np.conj(np.swapaxes(mats, -1, -2))
    out = np.full((count, grid), -np.inf)

    def solve(rows: np.ndarray, cols: np.ndarray) -> None:
        # the angles cols (R, K), or (1, K) for every row, of rows (R, 1):
        # at most NR_CHUNK matrices per eigvalsh call
        wide = min(cols.shape[1], NR_CHUNK)
        span = NR_CHUNK // wide
        for at in range(0, len(rows), span):
            r = rows[at:at + span]
            cr = cols if len(cols) == 1 else cols[at:at + span]
            for j in range(0, cols.shape[1], wide):
                c = cr[:, j:j + wide]
                p = np.exp(1j * (TWO_PI * c / grid))[..., None, None]
                out[r, c] = np.linalg.eigvalsh(
                    0.5 * (p * mats[r] + np.conj(p) * adj[r]))[..., -1]

    every = np.arange(count)[:, None]
    if grid % NR_COARSE or grid <= 2 * NR_COARSE:
        solve(every, np.arange(grid)[None])
        return out
    stride = grid // NR_COARSE
    coarse = np.arange(0, grid + 1, stride) % grid          # wraps to angle 0
    solve(every, coarse[None, :-1])
    ends = out[:, coarse]                               # (B, NR_COARSE + 1)
    if keep > 1:
        peak = np.argmax(ends[:, :-1], axis=1)[:, None]
        arcs = np.concatenate([(peak - 1) % NR_COARSE, peak], axis=1)
        solve(every, (arcs[:, :, None] * stride + np.arange(1, stride)).reshape(count, -1))
        floor = np.sort(out, axis=1)[:, grid - keep]
    else:
        floor = ends.max(axis=1)                        # only the coarse angles are solved
    arc = TWO_PI / NR_COARSE
    step = np.arange(1, stride) * (arc / stride)
    alpha, beta = np.sin(arc - step) / math.sin(arc), np.sin(step) / math.sin(arc)
    margin = 1e-12 * np.linalg.norm(mats, axis=(1, 2))
    bound = (alpha * ends[:, :-1, None] + beta * ends[:, 1:, None]
             + margin[:, None, None])                   # (B, NR_COARSE, stride - 1)
    reach = bound >= floor[:, None, None]
    if keep > 1:
        reach &= np.isneginf(out.reshape(count, NR_COARSE, stride)[:, :, 1:])
    at, a, j = reach.nonzero()
    solve(at[:, None], (a * stride + j + 1)[:, None])
    tied = _tied(out, keep).nonzero()[0]
    if tied.size:
        at, cols = np.isneginf(out[tied]).nonzero()
        solve(tied[at, None], cols[:, None])
    return out


def _peak_prefix(count: int) -> int:
    """Length of the ``argsort`` prefix ``count`` grid peaks are picked from:
    each pick rules out at most 5 indices, so the j-th lies in the first
    5 (j - 1) + 1."""
    return 5 * count - 4


def _grid_peaks(vals: np.ndarray, count: int) -> list[list[int]]:
    """Up to ``count`` maxima per row of periodic grid values (rows, grid).

    Peaks are picked greedily in ``argsort(row)[::-1]`` order, each more than
    two grid steps from the ones already picked, from that order's prefix
    of ``_peak_prefix(count)``.  A prefix of several indices is found
    without a full sort of indices when every row's prefix + 1 largest
    values are distinct: it is the row's values above the (prefix + 1)-th,
    in decreasing order.  ``argsort`` orders ties by the rest of the row,
    so otherwise the rows take it whole.  A one-index prefix is the row's
    ``argmax`` where its top two values differ (``_tied``), and its
    ``argsort`` where they tie.
    """
    rows, grid = vals.shape
    if count == 1:
        top = np.argmax(vals, axis=1)
        tied = _tied(vals, 1)
        if tied.any():
            top[tied] = np.argsort(vals[tied], axis=-1)[:, -1]
        return [[i] for i in top.tolist()]
    size = _peak_prefix(count)
    head = np.sort(vals, axis=1)[:, -size - 1:] if 1 < size < grid else None
    if head is not None and (head[:, 1:] != head[:, :-1]).all():
        at, col = (vals > head[:, :1]).nonzero()        # ``size`` per row, row-major
        orders = col[np.lexsort((-vals[at, col], at))].reshape(rows, size)
    else:
        orders = np.argsort(vals, axis=-1)[:, ::-1][:, :size]
    peaks = []
    for order in orders.tolist():
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


def _nr_top(mats: np.ndarray, thetas: Sequence[float], vals: Sequence[float],
            vecs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenvector h of Re(e^{i theta} M) at each row's angle of a C-contiguous
    stack, and (values, h, angles): |<Mh, h>|, a lower bound tight at the optimum,
    replaces a row's value in ``vals`` if it beats it (``vecs``, if given, holds
    h).  Bit rule: <Mh, h> is two stacked matrix-vector products, each row's bits
    conj(h) @ (M @ h)'s alone; |<Mh, h>| is ``np.hypot`` (as ``abs``, not
    ``np.abs``), an angle ``-math.atan2`` (not ``np.arctan2``)."""
    if vecs is None:
        rot = np.exp(1j * np.asarray(thetas))[:, None, None] * mats
        vecs = np.linalg.eigh(hermitian_part_of(rot))[1][..., -1]
    quad = (np.conj(vecs)[:, None, :] @ (mats @ vecs[..., None]))[:, 0, 0]
    mod = np.hypot(quad.real, quad.imag)
    up = (mod > vals).nonzero()[0]
    vals, thetas = np.array(vals, dtype=float), np.array(thetas, dtype=float)
    vals[up] = mod[up]
    thetas[up] = [-math.atan2(q.imag, q.real) for q in quad[up].tolist()]
    return vals, vecs, thetas


def _nr_newton(mats: np.ndarray, thetas: Sequence[float], step: float,
               best: Sequence[float]) -> tuple[list[float], list[float], np.ndarray]:
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
    shoulder "peak" has its maximum at the neighbouring grid angle.  The
    eigensolves and f', f'' are stacked; each row's bracket is kept in
    Python floats, the same IEEE operations row by row.  ``best`` is a value
    per row already held at theta0 (-inf for none): an angle replaces theta0
    only if f there is larger.  Returns per row the best angle, its value
    and the top eigenvector v there, one (B, n) array of ``eigh`` columns.
    """
    theta = [float(t) for t in thetas]
    count = len(theta)
    edge_lo, edge_hi = [t - step for t in theta], [t + step for t in theta]
    lo, hi = list(edge_lo), list(edge_hi)
    best_t = list(theta)
    best_f = [float(v) for v in best]
    noise = 8.0 * np.finfo(float).eps * np.linalg.norm(mats, axis=(1, 2))[:, None]
    tiny = noise[:, 0].tolist()
    src: list = [None] * count          # (eigh vectors, row) at each row's best angle
    live = list(range(count))
    for _ in range(NR_NEWTON_STEPS):
        if not live:
            break
        t = [theta[i] for i in live]
        every = len(live) == count
        rot = np.exp(1j * np.array(t))[:, None, None] * (mats if every else mats[live])
        lam, q = np.linalg.eigh(hermitian_part_of(rot))
        f = lam[:, -1]
        c = (q.conj().swapaxes(-1, -2) @ hermitian_part_of(1j * rot) @ q[..., -1:])[..., 0]
        gap = f[:, None] - lam[:, :-1]
        # |c_j|^2 / gap_j where the gap clears the noise floor, and 0 (over inf) elsewhere
        curv = np.abs(c[:, :-1]) ** 2 / np.where(gap > (noise if every else noise[live]),
                                                 gap, np.inf)
        d1, s2 = c[:, -1].real.tolist(), curv.sum(axis=1).tolist()
        moved = []
        for k, (i, tk, fk) in enumerate(zip(live, t, f.tolist())):
            if fk > best_f[i]:
                best_t[i], best_f[i] = tk, fk
                src[i] = (q, k)
            elif src[i] is None:        # theta0 keeps the value ``best`` gave it
                src[i] = (q, k)
            g1, g2 = d1[k], 2.0 * s2[k] - fk
            if g1 > 0.0:
                lo[i] = tk
            elif g1 < 0.0:
                hi[i] = tk
            l, h = lo[i], hi[i]
            nxt = tk - g1 / g2 if g2 < 0.0 else (math.inf if g1 > 0.0 else -math.inf)
            if nxt >= h:
                nxt = h if h == edge_hi[i] else 0.5 * (l + h)
            if nxt <= l:
                nxt = l if l == edge_lo[i] else 0.5 * (l + h)
            if not (abs(g1) <= tiny[i] or abs(nxt - tk) < 1e-12):
                theta[i] = nxt
                moved.append(i)
        live = moved
    return best_t, best_f, np.array([q[k, :, -1] for q, k in src])


def _nr_normal(stack: np.ndarray, rows: np.ndarray, out: np.ndarray,
               vecs: np.ndarray | None = None) -> np.ndarray:
    """Settle the ``rows`` of a C-contiguous stack that the normal bracket
    closes: write their w into ``out`` (and their h into ``vecs``, if given)
    and return the other rows.

    For normal M, rho(M) <= w(M) <= || |M| + |M*| || / 2 (Kittaneh, Studia
    Math. 158, 2003) is an equality.  Rows with ||M M* - M* M||_F <=
    1e-12 ||M||_F^2 are tried; the test only picks them and proves nothing.
    The value is |<Mh, h>| from ``_nr_top`` at theta = -arg lambda, lambda an
    eigenvalue of largest modulus, and the upper bound the largest eigenvalue
    of the polar mean (``_polar_mean``).  A row is settled when the value
    reaches the bound less 1e-12 ||M||_F; the others are left to the grid.
    ``_nr_stack`` passes rows whose largest |entry| lies in [2^-64, 2^64]
    alone, so the squares taken here neither overflow nor underflow.
    """
    sub = stack[rows]
    adj = np.conj(np.swapaxes(sub, -1, -2))
    fro = np.sqrt((np.abs(sub) ** 2).sum(axis=(1, 2)))
    comm = np.sqrt((np.abs(sub @ adj - adj @ sub) ** 2).sum(axis=(1, 2)))
    pick = comm <= 1e-12 * fro ** 2
    if not pick.any():
        return rows
    sub = sub[pick]
    upper = _polar_mean(TracedAlgebra([sub.shape[-1]]), [sub])[0][:, -1]
    eig = np.linalg.eigvals(sub)
    top = eig[np.arange(len(sub)), np.argmax(np.abs(eig), axis=1)]
    vals, hs, _ = _nr_top(sub, -np.angle(top), np.zeros(len(sub)))
    closed = vals >= upper - 1e-12 * fro[pick]
    out[rows[pick][closed]] = vals[closed]
    if vecs is not None:
        vecs[rows[pick][closed]] = hs[closed]
    pick[pick] = closed
    return rows[~pick]


def _nr_stack(mats: np.ndarray, grid: int, vecs: np.ndarray | None = None) -> np.ndarray:
    """w(M) of every matrix of a (B, n, n) stack; zero matrices give 0.
    With ``vecs``, a (B, n) array, each nonzero matrix's unit vector h with
    |<Mh, h>| = w(M) is written into it.

    Normal matrices are settled first on rho(M) <= w(M) <= || |M| + |M*| || / 2
    (``_nr_normal``), with no grid.  For the others, one pruned grid
    (``_nr_peaks``, at most 3 ``eigvalsh`` calls) finds up to three peaks
    per matrix, and one ``_nr_newton`` stack (one ``eigh`` per step) refines
    every (matrix, peak) pair within one grid step.  A matrix's best angle is
    its first peak, at its grid value, unless a refined angle beats it; the
    top eigenvector h there is the one of the Newton step that evaluated
    that angle, the same ``eigh`` input bit for bit, so no ``eigh`` is spent
    on it, and ``_nr_top`` only forms <Mh, h>.  Every step runs on the one
    C-contiguous stack ``_unit_rows`` makes, so a matrix's value does not
    depend on its memory layout, and each value is the one
    ``numerical_radius`` gives that matrix alone, bit for bit.

    Scaling rule: w(cM) = |c| w(M), and the grid's margin and the Newton
    noise floor square entries, so a row whose largest |entry| lies outside
    [2^-64, 2^64] (``_unit_rows``) goes through the kernel as 2^-e M,
    e its exponent, and its value is multiplied back by 2^e.  Both steps are
    ``ldexp``, which is exact; the other rows keep their bits.
    """
    stack, exp = _unit_rows(mats)
    if exp is not None:
        return np.ldexp(_nr_stack(stack, grid, vecs), exp)
    out = np.zeros(len(stack))
    rows = _nr_normal(stack, stack.any(axis=(1, 2)).nonzero()[0], out, vecs)
    if not rows.size:
        return out
    if rows.size < len(stack):
        stack = stack[rows]
    vals, found = _nr_peaks(stack, grid, 3)
    step = TWO_PI / grid
    owner, angles, held = [], [], []
    for i, p in enumerate(found):
        owner += [i] * len(p)
        angles += [k * step for k in p]
        held += [vals[i, p[0]]] + [-math.inf] * (len(p) - 1)
    # the first peak's row holds the grid value: a refined angle wins only above it
    thetas, tops, hs = _nr_newton(stack[owner], angles, step, held)
    win, at = [], 0
    for p in found:
        j = at
        for r in range(at + 1, at + len(p)):
            if tops[r] > tops[j]:
                j = r
        win.append(j)
        at += len(p)
    out[rows], hs, _ = _nr_top(stack, [thetas[j] for j in win], [tops[j] for j in win], hs[win])
    if vecs is not None:
        vecs[rows] = hs
    return out


def _unit_rows(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A (B, n, n) stack as one C-contiguous complex stack, each M whose largest
    |entry| lies outside [2^-64, 2^64] (``_unit_exponents``) as 2^-e M, and
    the exponents e, None when no matrix lies outside."""
    stack = np.ascontiguousarray(mats, dtype=complex)
    exp = _unit_exponents(np.abs(stack).max(axis=(1, 2), initial=0.0))
    if exp is None:
        return stack, None
    return _ldexp_complex(stack, -exp[:, None, None]), exp


def _require_finite(mats: Sequence[np.ndarray], what: str) -> None:
    if not all(np.isfinite(m).all() for m in mats):
        raise DomainError(f"{what} needs finite entries")


def numerical_radius(t: np.ndarray | AlgebraElement, grid: int = 1024) -> float:
    """w(T) = sup over unit vectors of |<Th, h>|.

    An element is one ``_nr_elements`` call, a matrix a stack of one for
    ``_nr_stack``.  Satisfies ||T||/2 <= w(T) <= ||T||, an equality for normal T, which is
    settled on rho(T) <= w(T) <= || |T| + |T*| || / 2 without a grid
    (``_nr_normal``); for the others, the three highest peaks of
    lambda_max(Re(e^{i theta} T)) on ``grid`` angles are refined as one
    stack of safeguarded Newton steps (``_nr_newton``), each within one
    grid step of its peak.  Of the grid, only NR_COARSE coarse angles, the
    angles of the two coarse arcs around the best of them, and the angles
    whose bound from the two coarse angles around them (the outer polygon of
    the numerical range) reaches the 11th highest value solved so far are
    eigensolved, about a tenth of a generic grid of 1024; the peaks, and so
    w(T), are those of the full grid.
    Per block that is at most 3 ``eigvalsh`` calls and one ``eigh`` per
    Newton step (at most NR_NEWTON_STEPS); the maximizing vector comes from
    the Newton step at the winning angle, with no ``eigh`` of its own.
    Non-finite entries and a ``grid`` that is not an integer >= 1 raise
    ``DomainError``, an array that is not a square matrix ``StructureError``.
    """
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise DomainError(f"numerical radius needs an integer grid >= 1, got {grid!r}")
    if isinstance(t, AlgebraElement):
        return float(_nr_elements([t], grid)[0])
    mat = np.asarray(t, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructureError(f"numerical radius needs a square matrix, got shape {mat.shape}")
    _require_finite([mat], "numerical radius")
    return float(_nr_stack(mat[None], grid)[0])


def _nr_elements(fs: Sequence[AlgebraElement], grid: int) -> np.ndarray:
    """``numerical_radius`` of each element of a list over one algebra: the
    largest over its blocks, one ``_nr_stack`` call per block.  Non-finite
    entries raise ``DomainError``."""
    if not fs:
        return np.zeros(0)
    _require_finite([b for f in fs for b in f.blocks], "numerical radius")
    return np.maximum.reduce([_nr_stack(np.array([f.blocks[k] for f in fs]), grid)
                              for k in range(fs[0].algebra.n_blocks)])


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
    """rank1_bound <= value <= upper_bound = ||F||_2, ``value`` attained by
    ``maximizer`` and ``rank1_bound`` L, by a W of rank one in each block."""
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


def _block_knapsack(alg: TracedAlgebra, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L = sup sum_k w_k t_k r_k over 0 <= t_k <= 1, sum_k w_k t_k <= 1, for
    a (B, n_blocks) stack of block rates (the knapsack ``_knapsack_take``
    with capacities w_k), and the coefficients t_k^{1/2}.  With every weight
    >= 1 that is the first block of largest rate alone, at w_k^{-1/2}."""
    if _triple2_is_nr(alg):
        first = np.arange(alg.n_blocks) == rates.argmax(axis=1)[:, None]
        return rates.max(axis=1), first / np.sqrt(alg.weights)
    take = _knapsack_take(TracedAlgebra([1] * alg.n_blocks, alg.weights), rates)
    return (np.asarray(alg.weights) * rates * take).sum(axis=1), np.sqrt(take)


def _rank1_witness(alg: TracedAlgebra,
                   blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rank-one bound L of |||F|||_2 and the per-block (B, n_k, n_k)
    stacks of a feasible W attaining it, for elements given as one
    C-contiguous (B, n_k, n_k) stack per block.
    W_k = t_k^{1/2} h_k h_k*, |<F_k h_k, h_k>| = w(F_k), has objective
    sum_k w_k t_k w(F_k) and ||W||_2^2 = sum_k w_k t_k, so L is the block
    knapsack on the rates w(F_k), each from one ``_nr_stack(..., 1024,
    vecs)`` call per block; with every weight >= 1, L is w(F) bit for bit."""
    vecs = [np.zeros((len(b), n), dtype=complex) for b, n in zip(blocks, alg.block_sizes)]
    rates = np.array([_nr_stack(b, 1024, v) for b, v in zip(blocks, vecs)]).T
    value, coef = _block_knapsack(alg, rates)
    return value, [np.where(c[:, None, None] > 0.0, c[:, None, None] * hermitian_part_of(
        h[:, :, None] * h.conj()[:, None, :]), 0.0) for c, h in zip(coef.T, vecs)]


@dataclass
class _TriplePool:
    """Pool-only |||.|||_2 of a stack of elements, with its candidate pool.

    Per item: ``upper`` = ||F||_2, ``exact`` for PSD input, ``scaled`` blocks
    F / ||F||_2 (zero for F = 0), the candidate maximizers in
    2 + total_dim slots (the knapsack maximizer, the rank-one witness of
    ``_rank1_witness``, the spectral projections of |F|; empty slots have
    objective -inf), the rank-one lower bound ``rank1`` = L (in closed form
    for PSD input), and the projected best candidate ``maximizer`` with its
    objective ``best``, which caps ``rank1``; all are at unit ||F||_2.
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
    arrays, and the blocks of F / ||F||_2 (zero for F = 0).  A norm outside
    [2^-64, 2^64] (``_unit_exponents``), whose reciprocal may be subnormal or
    infinite, divides as 2^-e F by 2^-e ||F||_2, both exact ``ldexp``."""
    fs = [np.ascontiguousarray(b, dtype=complex) for b in blocks]
    upper = _stacked_schatten(alg, fs, 2.0)
    unit, exp = upper, _unit_exponents(upper)
    if exp is not None:
        unit = np.ldexp(upper, -exp)
        fs = [_ldexp_complex(b, -exp[:, None, None]) for b in fs]
    inv = np.divide(1.0, unit, out=np.zeros(len(unit)), where=unit != 0.0)
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


def _triple2_pool(alg: TracedAlgebra, blocks: Sequence[np.ndarray]) -> _TriplePool:
    """Candidate pool and pool-only |||.|||_2 for a stack of elements.

    ``blocks`` are per-block (B, n_k, n_k) arrays.  A PSD item is exact: its
    one candidate is the knapsack maximizer of F (slot 0), and its rank-one
    bound L the block knapsack of lambda_max(F_k) from the ``eigh`` the PSD
    test takes (``_block_knapsack``).  The other items have 2 + total_dim
    slots, built in a few stacked linalg calls: the knapsack maximizer of
    |F| (slot 0, shared with the PSD items' knapsack in one stack), the
    rank-one witness of L (slot 1, ``_rank1_witness``), then the spectral
    projections of |F| by decreasing level
    (``_level_projections``); a stack of PSD items builds none of these.
    Each item's result equals the one-element computation bit for bit,
    whatever the stack's size or order.
    """
    upper, fh = _unit_norm2(alg, blocks)
    return _triple2_pool_of(alg, upper, fh, _psd_items(fh))


def _triple2_pool_of(alg: TracedAlgebra, upper: np.ndarray, fh: list[np.ndarray],
                     psd_items: tuple[np.ndarray, list, np.ndarray]) -> _TriplePool:
    """``_triple2_pool`` from the items' ``_unit_norm2`` and ``_psd_items``."""
    sizes = alg.block_sizes
    nblk = len(sizes)
    items = len(upper)

    nslot = 2 + alg.total_dim
    cands = [np.zeros((items, nslot, n, n), dtype=complex) for n in sizes]
    valid = np.zeros((items, nslot), dtype=bool)
    rank1 = np.zeros(items)

    def put(at: np.ndarray, slot: np.ndarray | int, ws: Sequence[np.ndarray]) -> None:
        for c, w in zip(cands, ws):
            c[at, slot] = w
        valid[at, slot] = True

    herm, dec_h, psd = psd_items
    exact = np.zeros(items, dtype=bool)
    psd_rows = herm[psd]
    exact[psd_rows] = True

    # knapsack maximizers, in one stack: of F for PSD F, of |F| for the rest
    owners, decs = [], []
    if herm.size:
        rank1[psd_rows] = _block_knapsack(alg, np.array([lam[psd, -1] for lam, _ in dec_h]).T)[0]
        owners.append(psd_rows)
        decs.append([(lam[psd], q[psd]) for lam, q in dec_h])
    rest = (~exact).nonzero()[0]
    if rest.size:
        fr = [b[rest] for b in fh]
        dec_abs = [np.linalg.eigh(hermitian_part_of(_spectral(vh.conj().swapaxes(-1, -2), s)))
                   for _, s, vh in map(np.linalg.svd, fr)]
        owners.append(rest)
        decs.append(dec_abs)
        rank1[rest], witness = _rank1_witness(alg, fr)
        put(rest, 1, witness)
        at, lv, proj = _level_projections(alg, dec_abs)
        put(rest[at], 2 + lv, proj)
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
    return _TriplePool(upper=upper, exact=exact, scaled=fh, candidates=cands,
                       objective=objective, rank1=np.minimum(best, rank1),
                       maximizer=maximizer, best=best)


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


def triple_norm(f: AlgebraElement, budget: SearchBudget | None = None) -> TripleNormResult:
    """|||F|||_2 = sup { ||W F W||_1 : W >= 0, ||W||_2 <= 1, ||W||_inf <= 1 }.

    Returns a certified lower bound with a feasible maximizer plus the upper
    bound ||F||_2.  PSD inputs are solved exactly (status "exact").  For a
    unitary Z = sum_j z_j e_j e_j*, |tr(Z W_k F_k W_k)| =
    |sum_j z_j <F_k W_k e_j, W_k e_j>| <= w(F_k) tr(W_k^2), and
    W_k = t_k^{1/2} h h*, |<F_k h, h>| = w(F_k), attains that for t_k <= 1,
    so L <= |||F|||_2 <= w(F), L (``rank1_bound``) the fractional knapsack
    over the blocks with rate w(F_k) and capacity w_k (``_rank1_witness``).
    When every block weight w_k is >= 1, L = w(F) = |||F|||_2, the value is
    ``numerical_radius(F)`` bit for bit, with the maximizer w_k^{-1/2} h h*.
    For other weights the value is the best of the pool (the knapsack
    maximizer of |F|, the witness of L, the spectral projections of |F|)
    and of projected ascent from each of them and from random points.  F
    goes through the stacked kernel ``_triple_norm_stack`` as a stack of
    one, so the value does not depend on whether F is evaluated alone or
    inside a larger stack.  Non-finite entries raise ``DomainError``.
    """
    return _triple_norm_stack(f.algebra, [f], budget)[0]


def _triple_result(alg: TracedAlgebra, upper: float, value: float, rank1: float,
                   w: Sequence[np.ndarray], exact: bool) -> TripleNormResult:
    """The result for ||F||_2 = ``upper``; exact when ``exact`` or the value
    reaches the upper bound.  The value is a feasible W's, so either bound
    on the wrong side of it is rounding and takes the value."""
    if upper == 0.0:
        return TripleNormResult(0.0, alg.zero(), 0.0, 0.0, EXACT)
    status = EXACT if (exact or value >= upper * (1.0 - 1e-11)) else HEURISTIC
    return TripleNormResult(value=value, maximizer=AlgebraElement(alg, w),
                            upper_bound=max(upper, value), rank1_bound=min(rank1, value),
                            status=status)


def _triple_norm_stack(alg: TracedAlgebra, fs: Sequence[AlgebraElement],
                       budget: SearchBudget | None = None) -> list[TripleNormResult]:
    """``triple_norm`` of every element of a list over ``alg``, each result
    the one a list of one gives, bit for bit.

    When every block weight w_k is >= 1 (``_triple2_is_nr``), |||F|||_2 =
    w(F) (see ``triple_norm``).  There PSD and zero elements get their
    knapsack pool (``_triple2_pool_of``), exact with no search, and every
    other element F gets L = w(F), its maximizer and its rank-one bound
    from one ``_rank1_witness`` call on one C-contiguous stack per block,
    and ``upper_bound`` ||F||_2, or the value where rounding puts it above (a
    1 x 1 block's |f| from ``hypot`` against LAPACK's); ``budget`` changes
    nothing there.  With a weight below 1 the whole search runs
    (``_triple_norm_search``).
    """
    for f in fs:
        _require_finite(f.blocks, "|||.|||_2")
    budget = budget or SearchBudget()
    if not fs:
        return []
    blocks = [np.stack([f.blocks[k] for f in fs]) for k in range(alg.n_blocks)]
    if not _triple2_is_nr(alg):
        return _triple_norm_search(alg, _triple2_pool(alg, blocks), budget)
    upper, fh = _unit_norm2(alg, blocks)
    herm, dec_h, psd = _psd_items(fh)
    out: list = [None] * len(fs)
    exact = np.zeros(len(fs), dtype=bool)
    at = herm[psd]
    exact[at] = True
    if at.size:
        only = (np.arange(at.size), [(lam[psd], q[psd]) for lam, q in dec_h],
                np.ones(at.size, dtype=bool))
        pool = _triple2_pool_of(alg, upper[at], [b[at] for b in fh], only)
        for i, res in zip(at.tolist(), _triple_norm_search(alg, pool, budget)):
            out[i] = res
    rest = (~exact).nonzero()[0]
    if rest.size:
        vals, wit = _rank1_witness(alg, [b[rest] for b in blocks])
        for j, (i, value) in enumerate(zip(rest.tolist(), vals.tolist())):
            out[i] = _triple_result(alg, float(upper[i]), value, value, [x[j] for x in wit],
                                    False)
    return out


def _triple_norm_search(alg: TracedAlgebra, pool: _TriplePool,
                        budget: SearchBudget) -> list[TripleNormResult]:
    """The |||.|||_2 search of a stack of elements from their candidate
    pool, each result the one a stack of one gives, bit for bit.

    A PSD element is exact on its knapsack.  Each other element's ascent
    starts from every candidate of its pool, in slot order, and from the
    ``budget.starts`` random points (drawn once, the same for every
    element), and the starts of all elements climb as one ``_ascend``
    stack, each on its own F.  An element's first start with the highest
    objective wins if it beats its pool, which holds the witness of L; the
    winners are projected once more and scored in one more stack.
    """
    items = len(pool.upper)
    upper, best = pool.upper.tolist(), pool.best.tolist()
    w_final = [[m[i] for m in pool.maximizer] for i in range(items)]

    search = [i for i, u in enumerate(upper) if u != 0.0 and not pool.exact[i]]
    if search:
        drawn = [random_hermitian(alg, rng, 0.7).blocks
                 for rng in substreams(budget.seed, budget.starts)]
        rand = (_project_stack(alg, [np.stack([d[k] for d in drawn]) + 0.5 * np.eye(n)
                                     for k, n in enumerate(alg.block_sizes)])
                if drawn else [np.zeros((0, n, n), dtype=complex) for n in alg.block_sizes])
        owner, starts = [], [[] for _ in alg.block_sizes]
        for i in search:
            slots = np.isfinite(pool.objective[i]).nonzero()[0]
            owner.append(np.full(len(slots) + len(drawn), i))
            for s, c, r in zip(starts, pool.candidates, rand):
                s += [c[i, slots], r]
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
        return _adjoint_stack(self.source, self.matrix, np.asarray(c, dtype=complex))


def _adjoint_stack(source: TracedAlgebra, mats: np.ndarray, c: np.ndarray) -> list[np.ndarray]:
    """``adjoint_at`` of an (n^2, coord_dim) matrix, or of an (L, ...) stack,
    at an (L, n, n) stack of C: a stacked matrix-vector product per
    vec_row(C^T), each with the bits of its own; a gemm rounds differently."""
    g = (np.swapaxes(mats, -1, -2) @ c.swapaxes(-1, -2).reshape(len(c), -1, 1))[..., 0]
    return [b.swapaxes(-1, -2) for b in source.split_coords(g)]


# -- target norms on matrices ---------------------------------------------------

def _target_blocks(mats: np.ndarray, alg: TracedAlgebra) -> list[np.ndarray]:
    """Per-block (B, n_k, n_k) stacks of a stack of dense target values; over
    one block, the contiguous stack itself."""
    return [np.ascontiguousarray(b)
            for b in alg.diagonal_blocks(np.asarray(mats, dtype=complex))]


class _TargetNorm:
    """Norm evaluation of stacks, plus linear certificates touching the value.

    ``batch_values`` scores whole candidate pools at once: ``nr`` on the
    pruned stacked theta grid (``_nr_grid``), ``triple2`` through the stacked
    pool kernel ``_triple2_pool``.  A ranking runs the scorer only on
    the items whose upper bound from the polar mean (``_polar_mean``) can
    reach their pool's ``top`` best: Kittaneh's || |F| + |F*| || / 2 for
    ``nr``, the knapsack value K((|F| + |F*|) / 2) for ``triple2``.
    ``certify`` adds each item's certificate, for the refinement chains of
    ``_superop_stack``, which climb together as one stack.
    Each item's result is the one a stack of one gives, bit for bit, so
    results do not depend on the stack's size or order.

    On a target algebra whose block weights are all >= 1 (the default
    TracedAlgebra([n]) included) |||F|||_2 = w(F) (see ``triple_norm``),
    and w of a block-diagonal matrix is the largest w of its blocks.  There
    ``triple2`` is ``nr``, and ``key``, the search that runs, is ``nr``: it
    ranks, certifies and takes the 1024-angle polish of ``_superop_stack``
    exactly as ``nr`` does.  With a weight below 1 ``key`` is ``triple2``,
    which keeps its own pool.  |||.|||_2 is defined on block-diagonal
    values alone, so ``triple2`` on a target of several blocks refuses a map
    whose values leave the blocks (``require_block_diagonal``) before
    anything is scored.
    """

    NR_GRID = 256

    def __init__(self, norm: str, target_algebra: TracedAlgebra | None = None):
        if norm not in ("nr", "triple2"):
            raise DomainError(f"unknown target norm {norm!r}")
        self.target_algebra = target_algebra
        radius = norm == "nr" or target_algebra is None or _triple2_is_nr(target_algebra)
        self.key = "nr" if radius else "triple2"
        self.blockwise = (norm == "triple2" and target_algebra is not None
                          and target_algebra.n_blocks > 1)

    def require_block_diagonal(self, columns: np.ndarray) -> None:
        """Refuse a linear map whose values at a basis, the columns of
        (..., n^2, m) ``columns``, include a V with max |off-block entry| >
        1e-9 (1 + max |V|): every value is a combination of them.  Only
        ``triple2`` on a target of several blocks checks."""
        if not self.blockwise:
            return
        n = self.target_algebra.total_dim
        vals = np.swapaxes(columns, -1, -2).reshape(-1, n, n)
        off = vals.copy()
        for b in self.target_algebra.diagonal_blocks(off):
            b[...] = 0.0
        worst = np.max(np.abs(off), axis=(1, 2), initial=0.0)
        if np.any(worst > 1e-9 * (1.0 + np.max(np.abs(vals), axis=(1, 2), initial=0.0))):
            raise PreconditionError(
                "superoperator value is not block-diagonal over the target algebra")

    def batch_values(self, mats: np.ndarray, top: int | None = None,
                     groups: Sequence[int] | None = None) -> np.ndarray:
        """Norms of a (B, n, n) stack.  With ``top``, the stack is ranked
        per group: ``groups`` gives the lengths of consecutive runs of items
        (one run by default), each ranked on its own, and an item whose upper
        bound rules it out of its group's ``top`` best may be -inf.  Each
        group's ``argsort`` prefix of length ``top`` and every finite value
        are those of the group's unpruned stack, bit for bit.

        The ``nr`` search scores the dense matrices on the pruned theta
        grid (``_nr_grid``), the ``triple2`` one the target blocks with
        ``_triple2_pool``.  For either key, a row whose largest |entry|
        lies outside [2^-64, 2^64] is scored and bounded as 2^-e M
        (``_unit_rows``), and both are multiplied back by 2^e, exactly; the
        other rows keep their bits.
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
        unit, exp = _unit_rows(mats)
        if self.key == "nr":
            alg, blocks = TracedAlgebra([unit.shape[-1]]), [unit]

            def score(bs: list[np.ndarray]) -> np.ndarray:
                return np.max(_nr_grid(bs[0], self.NR_GRID, 1), axis=1)
        else:
            alg = self.target_algebra
            blocks = _target_blocks(unit, alg)

            def score(bs: list[np.ndarray]) -> np.ndarray:
                return _triple2_pool(alg, bs).values

        def back(v: np.ndarray, rows: np.ndarray | slice) -> np.ndarray:
            return v if exp is None else np.ldexp(v, exp[rows])
        if top is None:
            return back(score(blocks), slice(None))
        vals = np.full(len(mats), -np.inf)
        scored = np.zeros(len(mats), dtype=bool)

        def fill(parts: list[np.ndarray]) -> None:
            rows = np.concatenate(parts) if parts else np.zeros(0, dtype=int)
            if rows.size:
                vals[rows] = back(score([b[rows] for b in blocks]), rows)
                scored[rows] = True

        sizes = [len(mats)] if groups is None else list(groups)
        spans = [(end - k, end) for k, end in zip(sizes, np.cumsum(sizes).tolist())]
        ranked = [(a, b) for a, b in spans if b - a > top]
        bound, reach, tops = np.zeros(len(mats)), np.zeros(len(mats)), []
        if ranked:
            rows = np.concatenate([np.arange(a, b) for a, b in ranked])
            lam, norm2 = _polar_mean(alg, [b[rows] for b in blocks])
            bound[rows] = back(lam[:, -1] if self.key == "nr" else _knapsack_value(alg, lam), rows)
            reach[rows] = bound[rows] + 1e-12 * back(norm2, rows)
            tops = [a + np.argsort(-bound[a:b], kind="stable")[:top] for a, b in ranked]
        fill([np.arange(a, b) for a, b in spans if b - a <= top] + tops)
        fill([a + (~scored[a:b] & (reach[a:b] >= vals[t].min())).nonzero()[0]
              for (a, b), t in zip(ranked, tops)])
        fill([a + (~scored[a:b]).nonzero()[0]
              for a, b in ranked if _tied(vals[None, a:b], top)[0]])
        return vals

    def certify(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and certificates C of a (B, n, n) stack of matrices M,
        taken as one C-contiguous stack (``_unit_rows``), whatever its layout.

        Re tr(C M) = value and Re tr(C M') <= norm(M') for every M'.  For
        either key, a row whose largest |entry| lies outside [2^-64, 2^64]
        is certified as 2^-e M: C is unchanged, the value multiplied by 2^e.
        """
        unit, exp = _unit_rows(mats)
        if self.key == "nr":
            # C = e^{i theta} h h* at the top grid angle; a zero M gives C = 0
            grid, found = _nr_peaks(unit, self.NR_GRID, 1)
            top = np.array([p[0] for p in found])
            vals, vecs, thetas = _nr_top(unit, top * (TWO_PI / self.NR_GRID),
                                         grid[np.arange(len(unit)), top])
            certs = np.exp(1j * thetas)[:, None, None] * (
                vecs[:, :, None] * vecs.conj()[:, None, :])
            zero = ~unit.any(axis=(1, 2))
            certs[zero] = 0.0
            return np.where(zero, 0.0, vals if exp is None else np.ldexp(vals, exp)), certs
        alg = self.target_algebra
        blocks = _target_blocks(unit, alg)
        pool = _triple2_pool(alg, blocks)
        # Re tr_rho(D* W M W) = Re tr(C M) with C = blockdiag(w_k W_k D_k* W_k),
        # D the unitary polar factor of W M W
        polar = _trace_norm_polar(alg, [w @ f @ w for w, f in zip(pool.maximizer, blocks)])[1]
        vals = pool.values
        return (vals if exp is None else np.ldexp(vals, exp),
                alg.block_diag([wt * (w @ d @ w) for wt, w, d in
                                zip(alg.weights, pool.maximizer, polar)]))


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

    Substream i makes one ``standard_normal`` call, u_i's Gaussians then on
    even i h_i's, each the real then the imaginary part of each block: the
    draws of one ``random_complex_matrix`` call per block and item.  All
    items are built as coordinate rows at once, then per block one stacked
    ``hermitian_part_of``, QR and SVD; an h_i of norm above 1 is divided by
    it.  The pool depends on the block sizes, starts and seed alone, and it
    is read-only, so ``_check_cs_stack`` hands one draw to every instance of
    a call that shares a budget."""
    sizes = source.block_sizes
    spans = np.cumsum([0, *(n * n for n in sizes)]).tolist()
    width = spans[-1]
    draws = [rng.standard_normal((2 if i % 2 else 4) * width)
             for i, rng in enumerate(substreams(budget.seed, budget.starts))]
    gauss = np.concatenate([np.zeros(0), *draws]).reshape(-1, 2 * width)   # a row per item
    # block k of an item: its n_k^2 real parts at 2 spans[k], then the imaginary ones
    re = np.concatenate([np.arange(2 * a, a + b) for a, b in zip(spans, spans[1:])])
    im = re + np.repeat(np.diff(spans), np.diff(spans))
    coords = np.empty((1 + len(gauss), width), dtype=complex)
    coords[0] = np.concatenate([np.eye(n, dtype=complex).ravel() for n in sizes])
    coords[1:] = gauss[:, re] + 1j * gauss[:, im]
    unitary_at = [1 + i + (i + 1) // 2 for i in range(budget.starts)]
    herm_at = [i + 1 for i in unitary_at[::2]]
    svals = []
    for n, a, b in zip(sizes, spans, spans[1:]):
        block = coords[:, a:b].reshape(-1, n, n)             # a view: writes go to coords
        block[herm_at] = hermitian_part_of(block[herm_at])
        block[unitary_at] = unitaries_from_gaussian(block[unitary_at])
        svals.append(np.linalg.svd(block[herm_at], compute_uv=False))
    norms = _itemwise_max(svals)
    big = ~(norms <= 1.0)
    coords[np.array(herm_at, dtype=int)[big]] *= (1.0 / norms[big]).astype(complex)[:, None]
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
    per step, one stacked matrix-vector product gives ``adjoint_at`` of
    every live chain and one more their next values, each the bits of a
    product per chain, then one stacked SVD per source block and one
    ``certify`` call.  A chain stops once a step does not raise its
    value by more than 1e-13 of it, a relative margin, so the chains of c L
    are those of L; an operator's chains stop after its ``budget.iters`` steps.
    For the ``nr`` search, which ``triple2`` runs where it is ``nr``
    (``_TargetNorm.key``), one ``_nr_stack`` call on the 1024-angle grid
    scores every operator's best T, so the two give the same result there,
    bit for bit.  ``triple2`` on a target of several blocks first refuses
    an operator whose values leave the blocks (checked on its columns).
    """
    tn = _TargetNorm(target_norm, ops[0].target_algebra)
    for op in ops:
        tn.require_block_diagonal(op.matrix)
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
    chain_op = np.stack([ops[i].matrix for i in search])[owner]
    iters = np.array([budgets[i].iters for i in search])

    # a matrix-vector product per chain: a matrix product rounds differently
    chain_val, certs = tn.certify((chain_op @ chain_t[..., None]).reshape(-1, n, n))
    live = np.arange(len(chain_t))
    for step in range(int(iters.max())):
        live = live[iters[owner[live]] > step]
        if not live.size:
            break
        # blockwise unitaries Q P* maximizing Re tr(C L(T)), D_k = P S Q*
        nxt = []
        for d in _adjoint_stack(ops[0].source, chain_op[live], certs[live]):
            p, _, qh = np.linalg.svd(d)
            nxt.append((qh.conj().swapaxes(-1, -2) @ p.conj().swapaxes(-1, -2))
                       .reshape(len(d), -1))
        nxt = np.concatenate(nxt, axis=1)
        nxt_val, nxt_cert = tn.certify((chain_op[live] @ nxt[..., None]).reshape(-1, n, n))
        up = nxt_val > chain_val[live] + 1e-13 * np.abs(chain_val[live])
        live = live[up]
        chain_t[live], chain_val[live], certs[live] = nxt[up], nxt_val[up], nxt_cert[up]
    for o, t, v in zip(owner.tolist(), chain_t, chain_val.tolist()):
        if v > best_val[o]:
            best_val[o], best_t[o] = v, t

    if tn.key == "nr":
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
        # (x, y, budget) of the last left-hand side searched, and its
        # (result, (v_x, v_y)) under each search run (``_TargetNorm.key``)
        self._last_lhs: tuple | None = None

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
    is proven, and nothing is re-run.  ``triple2`` on a target of several
    blocks refuses a map with a value off the blocks, on every call.  The
    check goes through the stacked kernel ``_check_cs_stack`` as a list of
    one, so ``phi`` keeps its last search (key (x, y, budget)): checking the
    other target norm next, at the same x, y and budget, reuses it where
    that norm runs the same search (see ``_check_cs_stack``).
    """
    return _check_cs_stack([phi], [x], [y], [budget or SearchBudget()],
                           [target_norm])[target_norm][0]


def _unit_vectors(vs: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Each vector of a list, raveled complex, as 2^-e v, e the exponent of
    its largest |entry| when that lies outside [2^-64, 2^64]
    (``_unit_exponents``) and 0 otherwise, exactly, and the e."""
    vs = [np.asarray(v, dtype=complex).ravel() for v in vs]
    exp = _unit_exponents(np.array([np.abs(v).max(initial=0.0) for v in vs]))
    if exp is None:
        return vs, [0] * len(vs)
    return [_ldexp_complex(v, -e) for v, e in zip(vs, exp.tolist())], exp.tolist()


def _check_cs_stack(phis: Sequence[OperatorValuedMap], xs: Sequence[np.ndarray],
                    ys: Sequence[np.ndarray], budgets: Sequence[SearchBudget],
                    norms: Sequence[str]) -> dict[str, list[InequalityReport]]:
    """``check_cs_operator_valued`` of every instance (phi, x, y, budget) of
    lists of one shape (source, target dimension and target algebra), for
    each target norm of ``norms``; each report is the one a list of one
    gives, bit for bit.

    Each call first checks every map, whatever its memo holds: positivity,
    then, for ``triple2`` on a target of several blocks, that its gram's
    columns are block-diagonal (``_TargetNorm.require_block_diagonal``).
    Scaling rule: Phi(2^e x, 2^f y) = 2^(e + f) Phi(x, y), so a vector whose
    largest |entry| lies outside [2^-64, 2^64] is checked as 2^-e x
    (``_unit_vectors``) and both sides are multiplied back by 2^(e + f),
    exactly; in-range vectors keep their bits, and a side above the float
    range is refused by ``report``.  Each map keeps a one-entry memo of its
    last searched left-hand side: the key is (x, y, budget), the scaled x
    and y as complex raveled bytes, and the value maps each search run
    (``_TargetNorm.key``) to its ``SuperOperatorNormResult`` and right-hand
    sides (v_x, v_y).  A new key replaces the entry.  Only the instances that miss are searched: those
    that share a budget share one pool draw, and each search takes one
    ``_superop_stack`` call and one ``batch_values`` stack of right-hand
    sides.  Maps of another shape than the first raise ``StructureError``.
    """
    head = phis[0]
    if any((p.source, p.target_dim, p.target_algebra)
           != (head.source, head.target_dim, head.target_algebra) for p in phis):
        raise StructureError("a stacked check needs maps of one shape")
    for phi, budget in zip(phis, budgets):
        phi.check_positivity(seed=budget.seed).require()
    tns = {norm: _TargetNorm(norm, head.target_algebra) for norm in norms}
    for phi in phis:
        for tn in tns.values():
            tn.require_block_diagonal(phi.gram)
    (xs, ex), (ys, ey) = _unit_vectors(xs), _unit_vectors(ys)
    keys = [(x.tobytes(), y.tobytes(), budget) for x, y, budget in zip(xs, ys, budgets)]
    found = [dict(phi._last_lhs[1]) if phi._last_lhs and phi._last_lhs[0] == key else {}
             for phi, key in zip(phis, keys)]
    runs = {tn.key: tn for tn in tns.values()}
    need = [i for i, f in enumerate(found) if not f.keys() >= runs.keys()]
    if need:
        ops = [phis[i].superop(xs[i], ys[i]) for i in need]
        shared = {(budgets[i].starts, budgets[i].seed): budgets[i]
                  for i, op in zip(need, ops) if not op.is_zero}
        drawn = {k: _unitary_candidates(head.source, b) for k, b in shared.items()}
        pools = [drawn.get((budgets[i].starts, budgets[i].seed)) for i in need]
        ident = head.source.identity().coords()
        at_identity = np.stack([phis[i].superop(v, v).apply_coords(ident)
                                for i in need for v in (xs[i], ys[i])])
        at_identity = at_identity.reshape(len(need), 2, *at_identity.shape[1:])
    for key, tn in runs.items():
        miss = [j for j, i in enumerate(need) if key not in found[i]]
        if not miss:
            continue
        results = _superop_stack([ops[j] for j in miss], key, [budgets[need[j]] for j in miss],
                                 [pools[j] for j in miss])
        sides = tn.batch_values(np.concatenate(at_identity[miss])).reshape(-1, 2).tolist()
        for j, res, side in zip(miss, results, sides):
            found[need[j]][key] = (res, side)
    for phi, key, f in zip(phis, keys, found):
        phi._last_lhs = (key, f)
    out: dict[str, list[InequalityReport]] = {norm: [] for norm in norms}
    for norm in norms:
        for (res, (v_x, v_y)), budget, e in zip((f[tns[norm].key] for f in found), budgets,
                                                np.add(ex, ey).tolist()):
            with np.errstate(over="ignore"):        # report refuses a side above the range
                sides = np.ldexp([res.value, math.sqrt(max(v_x, 0.0)) * math.sqrt(max(v_y, 0.0))],
                                 e).tolist()
            out[norm].append(report(*sides, {"target_norm": norm, "budget_starts": budget.starts,
                                             "heuristic": res.status == HEURISTIC}))
    return out

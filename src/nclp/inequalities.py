"""Cauchy-Schwarz and uncertainty checkers for L^p-valued positive maps.

Implemented inequalities, for a positive sesquilinear map Phi into L^p(rho):

* generalized Cauchy-Schwarz with constant 2 for p > 1 (constant sqrt(2)
  at p = 2, constant 1 at p = 1),
* the proper (constant 1) Cauchy-Schwarz whenever Phi(x, y) is normal,
* real/imaginary part estimates at p = 2,
* the uncertainty relation Delta_a(lambda) Delta_b(mu) >= gamma/2 for
  symmetric elements of a *-algebra admitting a Phi-commutator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, PExponent, TracedAlgebra, _stacked_schatten,
                      as_exponent, hermitian_part_of, operator_norm, schatten_norm)
from .errors import DomainError, PreconditionError, StructureError
from .sampling import random_unit_vector, substreams
from .sesquilinear import (SesquilinearMap, _random_map_pairs, check_left_invariance,
                           check_positivity, evaluate, evaluate_stack)
from .verdict import InequalityReport, PositivityCertificate, report

__all__ = ["UncertaintyReport", "check_cs_lp", "check_cs_normal",
           "check_re_im", "uncertainty_check",
           "ratio_sampler", "default_cs_constant"]

INVARIANCE_TOL = 1e-8


def default_cs_constant(p: PExponent | float) -> float:
    """Constant of the generalized Cauchy-Schwarz inequality at exponent p."""
    pe = as_exponent(p)
    if pe.value == 1.0:
        return 1.0
    if pe.value == 2.0:
        return math.sqrt(2.0)
    return 2.0


def _pair_stack(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Phi(x, y), Phi(x, x) and Phi(y, y) as per-block (3, n_k, n_k) stacks."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.shape != y.shape:
        raise StructureError("x and y must have the same length")
    return evaluate_stack(phi, [x, x, y], [y, x, y])


def check_cs_lp(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray,
                p: PExponent | float, constant: float | None = None,
                certificate: PositivityCertificate | None = None) -> InequalityReport:
    """||Phi(x,y)||_p <= constant * ||Phi(x,x)||_p^(1/2) ||Phi(y,y)||_p^(1/2).

    The default constant is 2 for p > 1, sqrt(2) at p = 2 and 1 at p = 1.
    """
    pe = as_exponent(p)
    if constant is None:
        constant = default_cs_constant(pe)
    if not (math.isfinite(constant) and constant > 0):
        raise DomainError(f"the Cauchy-Schwarz constant must be finite and positive, "
                          f"got {constant}")
    cert = certificate if certificate is not None else check_positivity(phi)
    cert.require()
    norms = _stacked_schatten(phi.target, _pair_stack(phi, x, y), pe.value)
    return _cs_report(*norms.tolist(), pe, constant, x, y)


def _cs_report(lhs: float, dx: float, dy: float, pe: PExponent, constant: float,
               x: np.ndarray, y: np.ndarray) -> InequalityReport:
    """The Cauchy-Schwarz report from ||Phi(x,y)||_p, ||Phi(x,x)||_p and ||Phi(y,y)||_p."""
    rhs = constant * math.sqrt(max(dx, 0.0)) * math.sqrt(max(dy, 0.0))
    witness = {"p": pe.value, "constant": constant, "x": np.asarray(x), "y": np.asarray(y)}
    return report(lhs, rhs, witness)


def check_cs_normal(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray,
                    p: PExponent | float) -> InequalityReport:
    """Constant-1 Cauchy-Schwarz for pairs whose value Phi(x,y) is normal."""
    pe = as_exponent(p)
    if pe.value <= 1.0:
        raise DomainError("the normal-value check applies for p > 1")
    cert = check_positivity(phi)
    cert.require()
    val = evaluate(phi, x, y)
    resid = max(np.max(np.abs(b @ b.conj().T - b.conj().T @ b), initial=0.0)
                for b in val.blocks)
    tol_normal = 1e-8 * max(operator_norm(val) ** 2, 1e-300)
    if resid > tol_normal:
        raise PreconditionError(
            f"Phi(x,y) is not normal: commutator residual {resid:.3e} > {tol_normal:.3e}")
    rep = check_cs_lp(phi, x, y, pe, constant=1.0, certificate=cert)
    rep.witness["normality_residual"] = resid
    return rep


def check_re_im(phi: SesquilinearMap, x: np.ndarray,
                y: np.ndarray) -> tuple[InequalityReport, InequalityReport]:
    """||Re Phi(x,y)||_2^2 <= ||Phi(x,x)||_2 ||Phi(y,y)||_2, and the same for Im."""
    check_positivity(phi).require()
    norms = _stacked_schatten(phi.target, _re_im_parts(_pair_stack(phi, x, y)), 2.0)
    return _re_im_reports(*norms.tolist(), x, y)


def _re_im_parts(vals: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-block (..., 4, n, n) stacks of Re Phi(x,y), Im Phi(x,y), Phi(x,x) and
    Phi(y,y) from (..., 3, n, n) stacks of Phi(x,y), Phi(x,x) and Phi(y,y)."""
    return [np.concatenate([hermitian_part_of(v[..., :1, :, :]),
                            (v[..., :1, :, :] - v[..., :1, :, :].conj().swapaxes(-1, -2)) / 2j,
                            v[..., 1:, :, :]], axis=-3)
            for v in vals]


def _re_im_reports(n_re: float, n_im: float, n_x: float, n_y: float, x: np.ndarray,
                   y: np.ndarray) -> tuple[InequalityReport, InequalityReport]:
    """The Re and Im reports from the 2-norms of the four ``_re_im_parts``."""
    rhs = n_x * n_y
    wit = {"x": np.asarray(x), "y": np.asarray(y)}
    return (report(n_re ** 2, rhs, {**wit, "part": "re"}),
            report(n_im ** 2, rhs, {**wit, "part": "im"}))


# -- stacked random-map trials ------------------------------------------------------

def _trial_norms(trials: Sequence[tuple], p: float, parts=None) -> list[list[float]]:
    """Per trial ``(target, d, rank, map_seed, x, y)``, the p-norms of its
    three values from ``_random_map_pairs`` (or of ``parts`` of them), taken
    in one ``_stacked_schatten`` call per target."""
    norms: list = [None] * len(trials)
    for target, (order, vals) in _random_map_pairs(trials).items():
        blocks = parts(vals) if parts is not None else vals
        flat = _stacked_schatten(target, [b.reshape(-1, *b.shape[-2:]) for b in blocks], p)
        for i, row in zip(order, flat.reshape(len(order), -1).tolist()):
            norms[i] = row
    return norms


def _cs_lp_trials(trials: Sequence[tuple], pe: PExponent) -> list[InequalityReport]:
    """``check_cs_lp(random_map(d, target, rank, map_seed), x, y, pe, constant=1.0)``
    of each trial ``(target, d, rank, map_seed, x, y)``, bit for bit.

    Generator maps are positive by construction, so no certificate is drawn.
    """
    return [_cs_report(*row, pe, 1.0, t[4], t[5])
            for t, row in zip(trials, _trial_norms(trials, pe.value))]


def _re_im_trials(trials: Sequence[tuple]) -> list[tuple[InequalityReport, InequalityReport]]:
    """``check_re_im(random_map(d, target, rank, map_seed), x, y)`` of each
    trial ``(target, d, rank, map_seed, x, y)``, bit for bit."""
    return [_re_im_reports(*row, t[4], t[5])
            for t, row in zip(trials, _trial_norms(trials, 2.0, _re_im_parts))]


# -- uncertainty ------------------------------------------------------------------

@dataclass
class UncertaintyReport:
    """Delta_a(lam) over ``lam_grid`` and Delta_b(mu) over ``mu_grid``, each
    taken once per grid point.  The relation separates, so its products over
    the grid are ``np.outer(delta_a, delta_b)``; ``bound_failures`` counts the
    pairs below gamma/2 - 1e-8."""
    lam_grid: np.ndarray
    delta_a: np.ndarray
    mu_grid: np.ndarray
    delta_b: np.ndarray
    gamma: float
    bound_failures: int
    k_coords: np.ndarray
    commutator_residual: float
    invariance_residual: float
    k_hermitian_defect: float


def _delta_polynomial(phi: SesquilinearMap, a: np.ndarray, unit: np.ndarray):
    """ts -> Delta(t) = ||phi(a - t e, a - t e)||_2^(1/2) at each real t of a
    sequence, and (lo, hi) -> the minimiser of Delta on [lo, hi] with its
    Delta.

    phi(a - t e, a - t e) = A - t E + t^2 D with A = phi(a, a),
    E = phi(a, e) + phi(e, a) and D = phi(e, e), so Delta(t)^4 is the real
    quartic ||A||^2 - 2t <A, E> + t^2 (||E||^2 + 2 <A, D>) - 2t^3 <E, D>
    + t^4 ||D||^2 in the inner product <X, Y> = Re rho(X* Y) of ||.||_2.  Its
    minimum on [lo, hi] lies at an end or at a real root of its derivative.
    The norms of a sequence are one ``_stacked_schatten`` call, each the
    ``schatten_norm`` of A - t phi(a, e) - t phi(e, a) + t^2 D bit for bit.
    """
    vals = evaluate_stack(phi, [a, a, unit, unit], [a, unit, a, unit])
    g_aa, g_ae, g_ea, g_ee = (phi.target.element([v[t] for v in vals]) for t in range(4))

    def delta(ts: Sequence[float]) -> np.ndarray:
        c = np.array([complex(t) for t in ts])[:, None, None]
        c2 = np.array([complex(t * t) for t in ts])[:, None, None]
        stack = [aa - c * ae - c * ea + c2 * ee
                 for aa, ae, ea, ee in zip(g_aa.blocks, g_ae.blocks, g_ea.blocks, g_ee.blocks)]
        return np.sqrt(np.maximum(_stacked_schatten(phi.target, stack, 2.0), 0.0))

    def inner(x: AlgebraElement, y: AlgebraElement) -> float:
        return sum(w * float(np.vdot(bx, by).real)
                   for w, bx, by in zip(x.algebra.weights, x.blocks, y.blocks))

    e = g_ae + g_ea
    slope = [4.0 * inner(g_ee, g_ee), -6.0 * inner(e, g_ee),
             2.0 * (inner(e, e) + 2.0 * inner(g_aa, g_ee)), -2.0 * inner(g_aa, e)]

    def argmin(lo: float, hi: float) -> tuple[float, float]:
        # a complex root's real part is one more candidate, never a worse pick
        ends = [lo, hi] + np.clip(np.roots(slope).real, lo, hi).tolist()
        vals = delta(ends)
        i = int(np.argmin(vals))                        # the first least, as min()
        return ends[i], float(vals[i])

    return delta, argmin


def uncertainty_check(phi: SesquilinearMap, a: np.ndarray, b: np.ndarray,
                      lam_grid: Sequence[float] | None = None,
                      mu_grid: Sequence[float] | None = None) -> UncertaintyReport:
    """Uncertainty relation Delta_a(lam) * Delta_b(mu) >= gamma/2 on a grid.

    Requires a left-invariant positive hermitian map over a unital *-algebra
    (a ``check_positivity`` violation raises ``PreconditionError``) and
    symmetric a, b.  The commutator k = i(ab - ba) is recomputed from the
    algebra and the defining identity
    Phi(a x, b* y) - Phi(b x, a* y) = Phi(i k x, y) is verified on all basis
    pairs rather than assumed.  Phi(k, e) must come out self-adjoint.  The
    identity's residual and the bound are tested with slack 1e-8.  Returns
    one report over the two grids.
    """
    tol = 1e-8
    alg = phi.domain_algebra
    if alg is None:
        raise PreconditionError("uncertainty check needs a StarAlgebra domain")
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    sa, sb = alg.vector(a), alg.vector(b)
    if not sa.is_symmetric() or not sb.is_symmetric():
        raise PreconditionError("a and b must be symmetric (a* = a, b* = b)")
    inv_resid = check_left_invariance(phi)
    if inv_resid > INVARIANCE_TOL:
        raise PreconditionError(f"map is not left-invariant: residual {inv_resid:.3e}")
    check_positivity(phi).require()

    ab = alg.multiply(a, b)
    ba = alg.multiply(b, a)
    k = 1j * (ab - ba)

    # residual of the Phi-commutator identity over basis pairs
    scale = phi.gram_scale()
    scale *= (1.0 + float(np.max(np.abs(a))) ) * (1.0 + float(np.max(np.abs(b))))
    bstar = alg.involute(b)
    astar = alg.involute(a)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    ax, bx, ikx, bstar_e, astar_e = (np.array([alg.multiply(u, e) for e in basis])
                                     for u in (a, b, 1j * k, bstar, astar))
    i, j = np.indices((alg.dim, alg.dim)).reshape(2, -1)
    vals = evaluate_stack(phi, np.concatenate([ax[i], bx[i], ikx[i]]),
                          np.concatenate([bstar_e[j], astar_e[j], np.array(basis)[j]]))
    n = alg.dim ** 2
    diffs = [v[:n] - v[n:2 * n] - v[2 * n:] for v in vals]
    comm_resid = float(np.max(_stacked_schatten(phi.target, diffs, 2.0)) / scale)
    if comm_resid > tol:
        raise PreconditionError(f"Phi-commutator identity fails: residual {comm_resid:.3e}")

    unit = alg.unit
    g_ke = evaluate(phi, k, unit)
    herm_defect = max(np.max(np.abs(m - m.conj().T), initial=0.0) for m in g_ke.blocks)
    gamma = schatten_norm(g_ke, 2.0)

    axes = []
    for op, grid in ((a, lam_grid), (b, mu_grid)):
        delta, argmin = _delta_polynomial(phi, op, unit)
        grid = list(np.linspace(-3.0, 3.0, 41) if grid is None else grid)
        vals = delta(grid).tolist()
        # add Delta's exact minimiser between the neighbours of its grid
        # minimum; Delta need not be convex, so only that stretch is claimed
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        if hi > lo:
            t, v = argmin(lo, hi)
            grid.append(t)
            vals.append(v)
        axes.append((np.array(grid, dtype=float), np.array(vals)))
    (lams, delta_a), (mus, delta_b) = axes
    failures = int(np.count_nonzero(~(np.outer(delta_a, delta_b) >= 0.5 * gamma - tol)))
    return UncertaintyReport(
        lam_grid=lams, delta_a=delta_a, mu_grid=mus, delta_b=delta_b, gamma=gamma,
        bound_failures=failures, k_coords=k, commutator_residual=comm_resid,
        invariance_residual=inv_resid, k_hermitian_defect=float(herm_defect))


# -- sweeps -----------------------------------------------------------------------

@dataclass(frozen=True)
class RatioProfile:
    p: float
    target: TracedAlgebra
    domain_dim: int
    trials: int
    seed: int
    rank: int = 2


def ratio_sampler(profile: RatioProfile) -> list[dict]:
    """Empirical Cauchy-Schwarz ratios against constant 1, one row per trial.

    The final row is a summary carrying the maximum ratio.  Deterministic for
    a fixed profile; trials use independent seed substreams.
    """
    if profile.trials < 1:
        raise DomainError("ratio sampler needs trials >= 1")
    pe = as_exponent(profile.p)
    d = profile.domain_dim
    if d < 1:                           # before a unit vector of C^0 is drawn
        raise StructureError("random map needs d >= 1")
    trials = []
    for rng in substreams(profile.seed, profile.trials):
        trial_seed = int(rng.integers(0, 2 ** 63 - 1))
        trials.append((profile.target, d, profile.rank, trial_seed,
                       random_unit_vector(rng, d), random_unit_vector(rng, d)))
    dims = "+".join(str(n) for n in profile.target.block_sizes)
    rows = []
    max_ratio = 0.0
    for t, rep in enumerate(_cs_lp_trials(trials, pe)):
        ratio = rep.ratio if math.isfinite(rep.ratio) else 0.0
        max_ratio = max(max_ratio, ratio)
        rows.append({"trial": t, "p": pe.value, "d": d,
                     "target_dims": dims, "ratio": ratio, "lhs": rep.lhs,
                     "rhs": rep.rhs, "seed": profile.seed})
    rows.append({"trial": "summary", "p": pe.value, "d": d,
                 "target_dims": dims, "ratio": max_ratio, "lhs": None,
                 "rhs": None, "seed": profile.seed})
    return rows

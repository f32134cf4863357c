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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, PExponent, TracedAlgebra, as_exponent,
                      operator_norm, real_imag_parts, schatten_norm)
from .errors import DomainError, PreconditionError
from .sampling import random_unit_vector, substreams
from .sesquilinear import (PositivityCertificate, SesquilinearMap, check_left_invariance,
                           check_positivity, evaluate, from_linear_map, random_map)
from .star import StarAlgebra

__all__ = ["InequalityReport", "UncertaintyReport", "check_cs_lp", "check_cs_normal",
           "check_re_im", "check_cs_linear_normal", "uncertainty_check",
           "ratio_sampler", "default_cs_constant"]

REPORT_TOL_COEFF = 1e-8
INVARIANCE_TOL = 1e-8


@dataclass
class InequalityReport:
    lhs: float
    rhs: float
    ratio: float
    margin: float
    status: str                      # "holds" | "holds_within_tol" | "violated" | "inconclusive"
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("holds", "holds_within_tol")


def _report(lhs: float, rhs: float, witness: dict,
            zero_tol: float = 1e-12) -> InequalityReport:
    """Division-free status logic; rhs = 0 forces lhs = 0 for a pass."""
    tol = REPORT_TOL_COEFF * (1.0 + rhs)
    margin = rhs - lhs
    if rhs <= zero_tol:
        if lhs <= max(zero_tol, tol):
            return InequalityReport(lhs, rhs, 0.0, margin, "holds", witness)
        return InequalityReport(lhs, rhs, math.inf, margin, "violated", witness)
    ratio = lhs / rhs
    if margin >= 0.0:
        status = "holds"
    elif margin >= -tol:
        status = "holds_within_tol"
    else:
        status = "violated"
    return InequalityReport(lhs, rhs, ratio, margin, status, witness)


def default_cs_constant(p: PExponent | float) -> float:
    """Constant of the generalized Cauchy-Schwarz inequality at exponent p."""
    pe = as_exponent(p)
    if pe.value == 1.0:
        return 1.0
    if pe.value == 2.0:
        return math.sqrt(2.0)
    return 2.0


def _require_not_violated(cert: PositivityCertificate) -> None:
    if cert.status == "violated":
        raise PreconditionError(
            f"positivity certificate is violated (min eig {cert.witness_min_eig:.3e})")


def check_cs_lp(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray,
                p: PExponent | float, constant: float | None = None,
                certificate: PositivityCertificate | None = None) -> InequalityReport:
    """||Phi(x,y)||_p <= constant * ||Phi(x,x)||_p^(1/2) ||Phi(y,y)||_p^(1/2).

    The default constant is 2 for p > 1, sqrt(2) at p = 2 and 1 at p = 1.
    """
    pe = as_exponent(p)
    if constant is None:
        constant = default_cs_constant(pe)
    if constant <= 0:
        raise DomainError("the Cauchy-Schwarz constant must be positive")
    cert = certificate if certificate is not None else check_positivity(phi)
    _require_not_violated(cert)
    lhs = schatten_norm(evaluate(phi, x, y), pe)
    dx = schatten_norm(evaluate(phi, x, x), pe)
    dy = schatten_norm(evaluate(phi, y, y), pe)
    rhs = constant * math.sqrt(max(dx, 0.0)) * math.sqrt(max(dy, 0.0))
    witness = {"p": pe.value, "constant": constant, "x": np.asarray(x), "y": np.asarray(y)}
    return _report(lhs, rhs, witness)


def check_cs_normal(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray,
                    p: PExponent | float,
                    certificate: PositivityCertificate | None = None) -> InequalityReport:
    """Constant-1 Cauchy-Schwarz for pairs whose value Phi(x,y) is normal."""
    pe = as_exponent(p)
    if pe.value <= 1.0:
        raise DomainError("the normal-value check applies for p > 1")
    cert = certificate if certificate is not None else check_positivity(phi)
    _require_not_violated(cert)
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


def check_re_im(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray,
                certificate: PositivityCertificate | None = None
                ) -> tuple[InequalityReport, InequalityReport]:
    """||Re Phi(x,y)||_2^2 <= ||Phi(x,x)||_2 ||Phi(y,y)||_2, and the same for Im."""
    cert = certificate if certificate is not None else check_positivity(phi)
    _require_not_violated(cert)
    val = evaluate(phi, x, y)
    re, im = real_imag_parts(val)
    rhs = schatten_norm(evaluate(phi, x, x), 2.0) * schatten_norm(evaluate(phi, y, y), 2.0)
    wit = {"x": np.asarray(x), "y": np.asarray(y)}
    rep_re = _report(schatten_norm(re, 2.0) ** 2, rhs, {**wit, "part": "re"})
    rep_im = _report(schatten_norm(im, 2.0) ** 2, rhs, {**wit, "part": "im"})
    return rep_re, rep_im


def check_cs_linear_normal(omega: Sequence[AlgebraElement], domain: StarAlgebra,
                            x: np.ndarray, y: np.ndarray,
                            p: PExponent | float) -> InequalityReport:
    """||omega(y* x)||_p <= ||omega(x* x)||_p^(1/2) ||omega(y* y)||_p^(1/2).

    The linear map omega is given by its values on the domain basis; the check
    routes through the induced map Phi_omega(x, y) = omega(y* x) and requires
    omega(y* x) to be normal.
    """
    phi = from_linear_map(omega, domain, phi_target_of(omega))
    return check_cs_normal(phi, x, y, p)


def phi_target_of(omega: Sequence[AlgebraElement]) -> TracedAlgebra:
    if not omega:
        raise DomainError("omega needs at least one value")
    return omega[0].algebra


# -- uncertainty ------------------------------------------------------------------

@dataclass
class UncertaintyReport:
    lam: float
    mu: float
    delta_a: float
    delta_b: float
    gamma: float
    bound_ok: bool
    k_coords: np.ndarray
    commutator_residual: float
    invariance_residual: float
    k_hermitian_defect: float


def _delta_polynomial(phi: SesquilinearMap, a: np.ndarray, unit: np.ndarray):
    """t -> Delta(t) = ||phi(a - t e, a - t e)||_2^(1/2) for real t, and
    (lo, hi) -> the minimiser of Delta on [lo, hi].

    phi(a - t e, a - t e) = A - t E + t^2 D with A = phi(a, a),
    E = phi(a, e) + phi(e, a) and D = phi(e, e), so Delta(t)^4 is the real
    quartic ||A||^2 - 2t <A, E> + t^2 (||E||^2 + 2 <A, D>) - 2t^3 <E, D>
    + t^4 ||D||^2 in the inner product <X, Y> = Re rho(X* Y) of ||.||_2.  Its
    minimum on [lo, hi] lies at an end or at a real root of its derivative.
    """
    g_aa = evaluate(phi, a, a)
    g_ae = evaluate(phi, a, unit)
    g_ea = evaluate(phi, unit, a)
    g_ee = evaluate(phi, unit, unit)

    def delta(t: float) -> float:
        v = g_aa - t * g_ae - t * g_ea + (t * t) * g_ee
        return math.sqrt(max(schatten_norm(v, 2.0), 0.0))

    def inner(x: AlgebraElement, y: AlgebraElement) -> float:
        return sum(w * float(np.vdot(bx, by).real)
                   for w, bx, by in zip(x.algebra.weights, x.blocks, y.blocks))

    e = g_ae + g_ea
    slope = [4.0 * inner(g_ee, g_ee), -6.0 * inner(e, g_ee),
             2.0 * (inner(e, e) + 2.0 * inner(g_aa, g_ee)), -2.0 * inner(g_aa, e)]

    def argmin(lo: float, hi: float) -> float:
        # a complex root's real part is one more candidate, never a worse pick
        ends = [lo, hi] + np.clip(np.roots(slope).real, lo, hi).tolist()
        return min(ends, key=delta)

    return delta, argmin


def uncertainty_check(phi: SesquilinearMap, a: np.ndarray, b: np.ndarray,
                      lam_grid: Sequence[float] | None = None,
                      mu_grid: Sequence[float] | None = None,
                      tol: float = 1e-8) -> list[UncertaintyReport]:
    """Uncertainty relation Delta_a(lam) * Delta_b(mu) >= gamma/2 on a grid.

    Requires a left-invariant hermitian map over a unital *-algebra and
    symmetric a, b.  The commutator k = i(ab - ba) is recomputed from the
    algebra and the defining identity
    Phi(a x, b* y) - Phi(b x, a* y) = Phi(i k x, y) is verified on all basis
    pairs rather than assumed.  Phi(k, e) must come out self-adjoint.
    """
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

    ab = alg.multiply(a, b)
    ba = alg.multiply(b, a)
    k = 1j * (ab - ba)
    k_defect = float(np.max(np.abs(alg.involute(k) - k), initial=0.0))

    # residual of the Phi-commutator identity over basis pairs
    scale = phi.gram_scale()
    scale *= (1.0 + float(np.max(np.abs(a))) ) * (1.0 + float(np.max(np.abs(b))))
    bstar = alg.involute(b)
    astar = alg.involute(a)
    comm_resid = 0.0
    for i in range(alg.dim):
        ei = alg.basis_vector(i)
        ax = alg.multiply(a, ei)
        bx = alg.multiply(b, ei)
        ikx = alg.multiply(1j * k, ei)
        for j in range(alg.dim):
            ej = alg.basis_vector(j)
            lhs = evaluate(phi, ax, alg.multiply(bstar, ej)) \
                - evaluate(phi, bx, alg.multiply(astar, ej))
            rhs = evaluate(phi, ikx, ej)
            comm_resid = max(comm_resid, schatten_norm(lhs - rhs, 2.0) / scale)
    if comm_resid > tol:
        raise PreconditionError(f"Phi-commutator identity fails: residual {comm_resid:.3e}")

    unit = alg.unit
    g_ke = evaluate(phi, k, unit)
    herm_defect = max(np.max(np.abs(m - m.conj().T), initial=0.0) for m in g_ke.blocks)
    gamma = schatten_norm(g_ke, 2.0)

    delta_a, argmin_a = _delta_polynomial(phi, a, unit)
    delta_b, argmin_b = _delta_polynomial(phi, b, unit)
    if lam_grid is None:
        lam_grid = list(np.linspace(-3.0, 3.0, 41))
    if mu_grid is None:
        mu_grid = list(np.linspace(-3.0, 3.0, 41))
    # add each Delta's exact minimiser between the neighbours of its grid
    # minimum; Delta need not be convex, so only that stretch is claimed
    lam_grid = list(lam_grid)
    mu_grid = list(mu_grid)
    for grid, delta, argmin in ((lam_grid, delta_a, argmin_a), (mu_grid, delta_b, argmin_b)):
        vals = [delta(t) for t in grid]
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        if hi > lo:
            grid.append(argmin(lo, hi))

    reports = []
    for lam in lam_grid:
        da = delta_a(lam)
        for mu in mu_grid:
            db = delta_b(mu)
            reports.append(UncertaintyReport(
                lam=float(lam), mu=float(mu), delta_a=da, delta_b=db, gamma=gamma,
                bound_ok=bool(da * db >= 0.5 * gamma - tol), k_coords=k,
                commutator_residual=comm_resid, invariance_residual=inv_resid,
                k_hermitian_defect=float(herm_defect)))
    return reports


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
    streams = substreams(profile.seed, profile.trials)
    dims = "+".join(str(n) for n in profile.target.block_sizes)
    rows = []
    max_ratio = 0.0
    for t, rng in enumerate(streams):
        trial_seed = int(rng.integers(0, 2 ** 63 - 1))
        phi = random_map(profile.domain_dim, profile.target, rank=profile.rank,
                         seed=trial_seed)
        x = random_unit_vector(rng, profile.domain_dim)
        y = random_unit_vector(rng, profile.domain_dim)
        rep = check_cs_lp(phi, x, y, pe, constant=1.0)
        ratio = rep.ratio if math.isfinite(rep.ratio) else 0.0
        max_ratio = max(max_ratio, ratio)
        rows.append({"trial": t, "p": pe.value, "d": profile.domain_dim,
                     "target_dims": dims, "ratio": ratio, "lhs": rep.lhs,
                     "rhs": rep.rhs, "seed": profile.seed})
    rows.append({"trial": "summary", "p": pe.value, "d": profile.domain_dim,
                 "target_dims": dims, "ratio": max_ratio, "lhs": None,
                 "rhs": None, "seed": profile.seed})
    return rows

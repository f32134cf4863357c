"""Positive sesquilinear maps Phi: X x X -> L^p(rho), linear in the first slot.

A map is stored through its gram tensor ``G[i][j] = Phi(e_i, e_j)`` over a
coordinate domain C^d (optionally identified with a StarAlgebra).  Only
``SesquilinearMap.from_generator`` gives a map a factored generator

    Phi(x, y) = sum_r T_r(x) C_r T_r(y)*,   T_r(x) = sum_i x_i A_{r,i},

with each C_r PSD, and it builds the gram from those factors, so the two
cannot disagree.  Generator-backed maps are positive by construction; plain
gram tensors get a sufficient block-PSD test or honest sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra, schatten_norm, trace
from .errors import DomainError, InconsistencyError, PreconditionError, StructureError
from .sampling import random_complex_matrix, random_unit_vector, rng_from
from .star import StarAlgebra

__all__ = ["KrausFactor", "SesquilinearMap", "PositivityCertificate",
           "evaluate", "check_positivity", "check_left_invariance",
           "random_map", "from_linear_map", "scalar_gram"]

DEFAULT_POSITIVITY_SAMPLES = 512


@dataclass(frozen=True)
class KrausFactor:
    """One factored term: coefficients A_{r,i} and a PSD middle element C_r."""

    coeffs: tuple[AlgebraElement, ...]
    middle: AlgebraElement

    def apply(self, x: np.ndarray) -> AlgebraElement:
        acc = self.coeffs[0].algebra.zero()
        for xi, a in zip(np.asarray(x, dtype=complex), self.coeffs):
            if xi != 0:
                acc = acc + xi * a
        return acc


class SesquilinearMap:
    """Gram-tensor representation of a sesquilinear map into a traced algebra.

    ``generator`` is None unless the map was built by ``from_generator``,
    which builds the gram from the factors and attaches them.
    """

    def __init__(self, target: TracedAlgebra,
                 gram: Sequence[Sequence[AlgebraElement]],
                 domain_algebra: StarAlgebra | None = None):
        d = len(gram)
        if d == 0 or any(len(row) != d for row in gram):
            raise StructureError("gram tensor must be square and non-empty")
        for row in gram:
            for g in row:
                if g.algebra != target:
                    raise StructureError("gram entries must live in the target algebra")
        if domain_algebra is not None and domain_algebra.dim != d:
            raise StructureError("domain algebra dimension does not match the gram tensor")
        self.target = target
        self.domain_dim = d
        self.gram = tuple(tuple(row) for row in gram)
        self.generator = None
        self.domain_algebra = domain_algebra

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_generator(cls, target: TracedAlgebra, factors: Sequence[KrausFactor],
                       domain_algebra: StarAlgebra | None = None) -> "SesquilinearMap":
        if not factors:
            raise StructureError("generator needs at least one factor")
        d = len(factors[0].coeffs)
        gram = [[_kraus_entry(factors, i, j) for j in range(d)] for i in range(d)]
        phi = cls(target, gram, domain_algebra=domain_algebra)
        phi.generator = tuple(factors)
        return phi

    # -- basic structure --------------------------------------------------------

    def gram_scale(self) -> float:
        """1 + the largest 2-norm of a gram entry, the scale residuals are
        measured against."""
        return 1.0 + max(schatten_norm(g, 2.0) for row in self.gram for g in row)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        scale = 1.0 + max(g.max_abs_entry for row in self.gram for g in row)
        for i in range(self.domain_dim):
            for j in range(self.domain_dim):
                diff = max(np.max(np.abs(a - b.conj().T), initial=0.0)
                           for a, b in zip(self.gram[j][i].blocks, self.gram[i][j].blocks))
                if diff > tol * scale:
                    return False
        return True

    def scaled(self, c: float) -> "SesquilinearMap":
        """c * Phi for c > 0 (keeps the generator middles PSD)."""
        if not c > 0:
            raise DomainError("scaling keeps positivity only for c > 0")
        if self.generator is not None:
            return SesquilinearMap.from_generator(
                self.target, [KrausFactor(coeffs=f.coeffs, middle=c * f.middle)
                              for f in self.generator],
                domain_algebra=self.domain_algebra)
        gram = [[c * g for g in row] for row in self.gram]
        return SesquilinearMap(self.target, gram, domain_algebra=self.domain_algebra)


def _kraus_entry(factors: Sequence[KrausFactor], i: int, j: int) -> AlgebraElement:
    acc = factors[0].middle.algebra.zero()
    for f in factors:
        acc = acc + f.coeffs[i] @ f.middle @ f.coeffs[j].adjoint()
    return acc


@dataclass
class PositivityCertificate:
    status: str                      # "certified" | "sampled" | "violated"
    samples: int = 0
    witness: np.ndarray | None = None
    witness_min_eig: float | None = None
    reason: str = ""

    def __post_init__(self):
        if self.status == "violated" and self.witness is None:
            raise InconsistencyError("a violated certificate must carry a witness")


# -- operations -----------------------------------------------------------------

def evaluate(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray) -> AlgebraElement:
    """Phi(x, y) = sum_ij x_i conj(y_j) G[i][j]."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.shape != (phi.domain_dim,) or y.shape != (phi.domain_dim,):
        raise StructureError(f"vectors must have length {phi.domain_dim}")
    coeff = np.outer(x, np.conj(y))
    blocks = [np.zeros((n, n), dtype=complex) for n in phi.target.block_sizes]
    for i in range(phi.domain_dim):
        for j in range(phi.domain_dim):
            c = coeff[i, j]
            if c != 0:
                for b, g in zip(blocks, phi.gram[i][j].blocks):
                    b += c * g
    return AlgebraElement(phi.target, blocks)


def _block_gram_matrices(phi: SesquilinearMap) -> list[np.ndarray]:
    """One (d*n_k) x (d*n_k) block matrix [G[i][j]_k] per target block."""
    d = phi.domain_dim
    out = []
    for kb, n in enumerate(phi.target.block_sizes):
        big = np.zeros((d * n, d * n), dtype=complex)
        for i in range(d):
            for j in range(d):
                big[i * n:(i + 1) * n, j * n:(j + 1) * n] = phi.gram[i][j].blocks[kb]
        out.append(big)
    return out


def check_positivity(phi: SesquilinearMap, trials: int = DEFAULT_POSITIVITY_SAMPLES,
                     seed: int = 0) -> PositivityCertificate:
    """Certify or sample vector-positivity of Phi.

    A generator certifies positivity algebraically.  Otherwise PSD-ness of the
    block gram matrix is a sufficient condition; failing that, ``trials``
    Haar-uniform unit vectors are sampled and the worst eigenvalue reported.
    """
    if trials < 1:
        raise DomainError("positivity sampling needs trials >= 1")
    if phi.generator is not None:
        return PositivityCertificate(status="certified", reason="factored generator")
    scale = 1.0 + max(g.max_abs_entry for row in phi.gram for g in row)
    if phi.is_hermitian():
        psd = True
        for big in _block_gram_matrices(phi):
            lam = np.linalg.eigvalsh(0.5 * (big + big.conj().T))
            if lam.size and lam.min() < -1e-10 * scale:
                psd = False
                break
        if psd:
            return PositivityCertificate(status="certified", reason="block gram matrix is PSD")
    rng = rng_from(seed)
    worst = np.inf
    worst_x = None
    for _ in range(trials):
        x = random_unit_vector(rng, phi.domain_dim)
        v = evaluate(phi, x, x)
        herm_defect = max(np.max(np.abs(b - b.conj().T), initial=0.0) for b in v.blocks)
        lam_min = min(np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() for b in v.blocks)
        lam_min -= herm_defect  # a non-hermitian diagonal value counts against positivity
        if lam_min < worst:
            worst, worst_x = lam_min, x
    if worst < -1e-9 * scale:
        return PositivityCertificate(status="violated", samples=trials, witness=worst_x,
                                     witness_min_eig=float(worst),
                                     reason="sampled diagonal value with negative eigenvalue")
    return PositivityCertificate(status="sampled", samples=trials,
                                 witness_min_eig=float(worst),
                                 reason="no violation among sampled unit vectors")


def check_left_invariance(phi: SesquilinearMap) -> float:
    """Max residual of Phi(a c, d) = Phi(c, a* d) over basis triples, 2-norm.

    Requires the map to carry a StarAlgebra domain.  Residuals are normalised
    by 1 + the largest gram 2-norm so the value is scale-free.
    """
    alg = phi.domain_algebra
    if alg is None:
        raise PreconditionError("left-invariance needs a StarAlgebra domain")
    d = phi.domain_dim
    scale = phi.gram_scale()
    resid = 0.0
    for a in range(d):
        ea = alg.basis_vector(a)
        astar = alg.involute(ea)
        for c in range(d):
            ac = alg.multiply(ea, alg.basis_vector(c))
            for dd in range(d):
                ad = alg.multiply(astar, alg.basis_vector(dd))
                lhs = evaluate(phi, ac, alg.basis_vector(dd))
                rhs = evaluate(phi, alg.basis_vector(c), ad)
                resid = max(resid, schatten_norm(lhs - rhs, 2.0) / scale)
    return float(resid)


def random_map(d: int, target: TracedAlgebra, rank: int = 1, seed: int = 0,
               domain_algebra: StarAlgebra | None = None,
               scale: float = 1.0) -> SesquilinearMap:
    """Deterministic Kraus-form map with `rank` factors and Gaussian coefficients."""
    if rank < 1:
        raise DomainError("random map needs rank >= 1")
    rng = rng_from(seed)
    factors = []
    for _ in range(rank):
        coeffs = tuple(
            target.element([random_complex_matrix(rng, n, n, scale)
                            for n in target.block_sizes])
            for _ in range(d))
        g = target.element([random_complex_matrix(rng, n, n, scale)
                            for n in target.block_sizes])
        middle = g @ g.adjoint()
        factors.append(KrausFactor(coeffs=coeffs, middle=middle))
    return SesquilinearMap.from_generator(target, factors, domain_algebra=domain_algebra)


def from_linear_map(omega: Sequence[AlgebraElement], domain: StarAlgebra,
                    target: TracedAlgebra) -> SesquilinearMap:
    """Phi_omega(x, y) = omega(y* x) for a linear map given by omega(e_i).

    Left-invariance holds identically: omega(d*(a c)) = omega((a* d)* c).
    """
    if len(omega) != domain.dim:
        raise StructureError("need one target element per domain basis vector")
    for g in omega:
        if g.algebra != target:
            raise StructureError("omega values must live in the target algebra")

    def omega_of(coords: np.ndarray) -> AlgebraElement:
        acc = target.zero()
        for c, g in zip(np.asarray(coords, dtype=complex), omega):
            if c != 0:
                acc = acc + c * g
        return acc

    d = domain.dim
    gram = [[omega_of(domain.multiply(domain.involute(domain.basis_vector(j)),
                                      domain.basis_vector(i)))
             for j in range(d)] for i in range(d)]
    return SesquilinearMap(target, gram, domain_algebra=domain)


def scalar_gram(phi: SesquilinearMap) -> np.ndarray:
    """Matrix S with x* S x = rho(Phi(x, x)); S[a, b] = rho(Phi(e_b, e_a))."""
    d = phi.domain_dim
    s = np.empty((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            s[a, b] = trace(phi.gram[b][a])
    return s

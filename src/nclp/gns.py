"""GNS-type representations from left-invariant positive sesquilinear maps.

Given a positive hermitian map ``Phi`` on a finite unital *-algebra (or a
positive linear map ``omega`` via ``Phi(x, y) = omega(y* x)``), the
construction computes

* the null space N = {x : Phi(x, x) = 0}, found as the kernel of the scalar
  gram ``S[a,b] = rho(Phi(e_b, e_a))`` (faithfulness of the trace makes
  ``rho(Phi(x,x)) = 0`` equivalent to ``Phi(x,x) = 0``),
* an S-orthonormal frame for the quotient, built by rank-revealing pivoted
  Gram-Schmidt so that rescaling Phi leaves the frame direction choices and
  hence the representation matrices unchanged,
* the representation pi(a) Lambda(b) = Lambda(a b) as matrices on the frame,
  with cyclic vector Lambda(e),
* residuals of adjointness, multiplicativity, cyclicity and of the
  reconstruction identity Phi(a, b) = <pi(a) xi, pi(b) xi>_Phi.

The representation is evaluated on stacks of coordinate rows
(``GnsRepresentation.pi_rows``, through ``sesquilinear._combine_rows``), so
the construction's residuals and ``verify_representation`` take all their
basis products, involutes and random trials in a few stacked calls, each row
the matrix a lone ``pi_of`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra, _stacked_schatten
from .errors import ConditioningError, InconsistencyError, PreconditionError
from .sampling import rng_from
from .sesquilinear import (SesquilinearMap, _combine_rows, check_left_invariance,
                           check_positivity, evaluate_stack, from_linear_map, scalar_gram)
from .star import StarAlgebra

__all__ = ["GnsRepresentation", "null_space", "gns_construct", "verify_representation",
           "VerificationReport"]

KERNEL_THRESHOLD = 1e-10
GAP_CEILING = 1e-6
INVARIANCE_TOL = 1e-8


def _hermitian_scalar_gram(phi: SesquilinearMap) -> np.ndarray:
    s = scalar_gram(phi)
    defect = float(np.max(np.abs(s - s.conj().T), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(s), initial=0.0))
    if defect > 1e-9 * scale:
        raise InconsistencyError(
            f"scalar gram is not hermitian (defect {defect:.3e}); map must be hermitian")
    return 0.5 * (s + s.conj().T)


def null_space(phi: SesquilinearMap) -> np.ndarray:
    """Orthonormal basis (columns) of N_Phi = {x : Phi(x, x) = 0}.

    Computed as the kernel of the scalar gram by eigenvalue thresholding at
    1e-10 * lambda_max; each basis vector is post-verified to annihilate the
    map.  Eigenvalues inside (1e-10, 1e-6) * lambda_max abort with a
    conditioning error because the null-space decision would be ambiguous.
    """
    return _null_space_of(phi, _hermitian_scalar_gram(phi))


def _null_space_of(phi: SesquilinearMap, s: np.ndarray) -> np.ndarray:
    """``null_space`` of ``phi`` from its hermitian scalar gram ``s``."""
    lam, q = np.linalg.eigh(s)
    lam_max = float(lam[-1]) if lam.size else 0.0
    if lam_max <= 0.0:
        return np.eye(phi.domain_dim, dtype=complex)
    thr = KERNEL_THRESHOLD * lam_max
    in_gap = (lam > thr) & (lam < GAP_CEILING * lam_max)
    if np.any(in_gap):
        raise ConditioningError(
            "scalar gram has eigenvalues in the ambiguous band "
            f"({thr:.3e}, {GAP_CEILING * lam_max:.3e}); refusing to pick a kernel")
    kernel = q[:, lam <= thr]
    scale = phi.gram_scale()
    for resid in _stacked_schatten(phi.target, evaluate_stack(phi, kernel.T, kernel.T),
                                   2.0).tolist():
        if resid > 1e-8 * scale:
            raise InconsistencyError(
                f"kernel vector of the scalar gram does not annihilate the map ({resid:.3e})")
    return kernel


def _pivoted_frame(s: np.ndarray, kernel: np.ndarray, rank: int) -> np.ndarray:
    """S-orthonormal frame (columns) spanning the quotient, deterministic pivots.

    Standard basis vectors are projected off the kernel, then chosen greedily
    by largest remaining S-norm (ties resolved by lowest index) and
    orthonormalized in the S-inner product <u, v>_S = v* S u.
    """
    d = s.shape[0]
    proj_kernel = kernel @ kernel.conj().T if kernel.size else np.zeros((d, d))
    pool = [np.eye(d, dtype=complex)[:, i] - proj_kernel @ np.eye(d, dtype=complex)[:, i]
            for i in range(d)]
    frame: list[np.ndarray] = []

    def s_ip(u: np.ndarray, v: np.ndarray) -> complex:
        return complex(v.conj() @ (s @ u))

    for _ in range(rank):
        norms = [max(s_ip(u, u).real, 0.0) for u in pool]
        pick = int(np.argmax(norms))
        u = pool[pick]
        n = np.sqrt(norms[pick])
        if n <= 0.0:
            raise ConditioningError("frame construction ran out of independent directions")
        f = u / n
        frame.append(f)
        pool = [v - s_ip(v, f) * f for v in pool]
        # one re-orthogonalization pass for numerical stability
        pool = [v - s_ip(v, f) * f for v in pool]
    return np.stack(frame, axis=1)


@dataclass
class GnsRepresentation:
    domain: StarAlgebra
    target: TracedAlgebra
    phi: SesquilinearMap
    null_basis: np.ndarray            # (d, d - r), euclidean-orthonormal columns
    quotient_frame: np.ndarray        # (d, r), S-orthonormal columns
    pi: tuple[np.ndarray, ...]        # matrices of pi(e_i) on the frame
    cyclic: np.ndarray                # frame coordinates of Lambda(e)
    residuals: dict = field(default_factory=dict)

    @property
    def quotient_dim(self) -> int:
        return self.quotient_frame.shape[1]

    @cached_property
    def cyclic_span_dim(self) -> int:
        """Rank of the vectors pi(e_i) xi, i.e. the dimension of the cyclic span."""
        if not self.quotient_dim:
            return 0
        span = np.stack([m @ self.cyclic for m in self.pi], axis=1)
        return int(np.linalg.matrix_rank(span, tol=1e-10 * (1.0 + float(
            np.max(np.abs(span), initial=0.0)))))

    def pi_of(self, coords: np.ndarray) -> np.ndarray:
        return self.pi_rows(np.asarray(coords, dtype=complex).ravel()[None])[0]

    def pi_rows(self, coords: np.ndarray) -> np.ndarray:
        """The (T, r, r) stack of pi(a_t) for (T, d) coordinates: each row
        accumulated from zero over the basis in order, skipping zero
        coefficients, so it is the matrix ``pi_of`` gives alone."""
        return _combine_rows(coords, [np.array(self.pi)])[0]

    def class_coords(self, frame_vecs: np.ndarray) -> np.ndarray:
        """Algebra coordinates of representatives of (..., r) frame vectors."""
        return (self.quotient_frame @ np.asarray(frame_vecs, dtype=complex)[..., None])[..., 0]


def gns_construct(source: Sequence[AlgebraElement] | SesquilinearMap,
                  domain: StarAlgebra, target: TracedAlgebra,
                  seed: int = 0) -> GnsRepresentation:
    """Build the cyclic representation of a positive linear map or invariant Phi.

    ``source`` is either the list of values ``omega(e_i)`` of a positive
    linear map (turned into ``Phi(x,y) = omega(y* x)``, left-invariant by
    construction) or an already-assembled left-invariant SesquilinearMap over
    ``domain``.  Positivity is sampled at 256 points drawn from ``seed``.
    """
    resid = None
    if isinstance(source, SesquilinearMap):
        phi = source
        if phi.domain_algebra is None or phi.domain_algebra.dim != domain.dim:
            raise PreconditionError("map must carry the StarAlgebra domain")
        resid = check_left_invariance(phi)
        if resid > INVARIANCE_TOL:
            raise PreconditionError(f"map is not left-invariant: residual {resid:.3e}")
    else:
        phi = from_linear_map(list(source), domain, target)
    check_positivity(phi, trials=256, seed=seed).require()

    s = _hermitian_scalar_gram(phi)
    kernel = _null_space_of(phi, s)
    d = domain.dim
    rank = d - kernel.shape[1]

    if rank == 0:
        rep = GnsRepresentation(domain=domain, target=target, phi=phi,
                                null_basis=kernel,
                                quotient_frame=np.zeros((d, 0), dtype=complex),
                                pi=tuple(np.zeros((0, 0), dtype=complex) for _ in range(d)),
                                cyclic=np.zeros(0, dtype=complex))
        rep.residuals = {"reconstruction": 0.0, "multiplicativity": 0.0,
                         "adjointness": 0.0, "cyclicity_rank": 0,
                         "invariance": 0.0}
        return rep

    frame = _pivoted_frame(s, kernel, rank)

    def s_coords(vecs: np.ndarray) -> np.ndarray:
        """Frame coordinates of Lambda(v) for (..., d) rows v: <v, f_b>_S = f_b* S v,
        each row by matrix-vector products."""
        return (frame.conj().T @ (s @ vecs[..., None]))[..., 0]

    # column c of pi(e_i) is Lambda(e_i f_c), row i rank + c
    cols = s_coords(domain.multiply(np.repeat(np.eye(d, dtype=complex), rank, axis=0),
                                    np.tile(frame.T, (d, 1))))
    pi = tuple(np.ascontiguousarray(m.T) for m in cols.reshape(d, rank, rank))
    xi = s_coords(domain.unit)

    rep = GnsRepresentation(domain=domain, target=target, phi=phi, null_basis=kernel,
                            quotient_frame=frame, pi=pi, cyclic=xi)
    rep.residuals = _residuals(rep, resid)
    return rep


def _residuals(rep: GnsRepresentation, invariance: float | None) -> dict:
    """The construction's residuals; ``invariance`` is a left-invariance
    residual already measured on ``rep.phi``, if any."""
    domain, phi = rep.domain, rep.phi
    d = domain.dim
    scale = phi.gram_scale()
    pis = np.array(rep.pi)

    vecs = rep.class_coords(pis @ rep.cyclic)
    rebuilt = evaluate_stack(phi, np.repeat(vecs, d, axis=0), np.tile(vecs, (d, 1)))
    diffs = [g - r for g, r in zip(phi.flat_gram(), rebuilt)]
    recon = float(np.max(_stacked_schatten(phi.target, diffs, 2.0))) / scale

    # pi(e_i e_j) against pi(e_i) pi(e_j), row i d + j, and pi(e_i*) against pi(e_i)*
    eye = np.eye(d, dtype=complex)
    prods = rep.pi_rows(domain.multiply(np.repeat(eye, d, axis=0), np.tile(eye, (d, 1))))
    stars = rep.pi_rows(domain.involute(eye))
    pscale = 1.0 + float(np.max(np.abs(pis), initial=0.0))
    mult = _max_abs(prods - (pis[:, None] @ pis[None]).reshape(prods.shape)) / (pscale * pscale)
    adjoint = _max_abs(stars - pis.conj().swapaxes(-1, -2)) / pscale

    if invariance is None:
        invariance = check_left_invariance(phi)
    return {"reconstruction": recon, "multiplicativity": float(mult.max(initial=0.0)),
            "adjointness": float(adjoint.max(initial=0.0)),
            "cyclicity_rank": rep.cyclic_span_dim, "invariance": invariance}


def _max_abs(mats: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of a (T, r, r) stack (0 when r = 0)."""
    return np.max(np.abs(mats), axis=(1, 2), initial=0.0)


@dataclass
class VerificationReport:
    trials: int
    reconstruction: float
    multiplicativity: float
    adjointness: float
    cyclic_span_dim: int
    quotient_dim: int

    @property
    def cyclic(self) -> bool:
        return self.cyclic_span_dim == self.quotient_dim


def verify_representation(rep: GnsRepresentation, trials: int = 50,
                          seed: int = 0) -> VerificationReport:
    """Residuals of the representation identities on random algebra elements."""
    rng = rng_from(seed)
    d = rep.domain.dim
    phi = rep.phi
    scale = phi.gram_scale()
    draws = [(rng.standard_normal(d) + 1j * rng.standard_normal(d),
              rng.standard_normal(d) + 1j * rng.standard_normal(d))
             for _ in range(max(trials, 1))]
    a, b = (np.array(v) for v in zip(*draws))
    pa, pb = rep.pi_rows(a), rep.pi_rows(b)
    pab = rep.pi_rows(rep.domain.multiply(a, b))
    pstar = rep.pi_rows(rep.domain.involute(a))
    pscale = 1.0 + _max_abs(pa) + _max_abs(pb)
    mult = float(np.max(_max_abs(pab - pa @ pb) / (pscale * pscale)))
    adj = float(np.max(_max_abs(pstar - pa.conj().swapaxes(-1, -2)) / pscale))
    # Phi(a, b) - Phi(va, vb) of every trial, as one stack
    vals = evaluate_stack(phi, np.concatenate([a, rep.class_coords(pa @ rep.cyclic)]),
                          np.concatenate([b, rep.class_coords(pb @ rep.cyclic)]))
    n = len(draws)
    norms = _stacked_schatten(phi.target, [v[:n] - v[n:] for v in vals], 2.0).tolist()
    recon = 0.0
    for (x, y), norm in zip(draws, norms):
        norm_ab = 1.0 + float(np.linalg.norm(x)) * float(np.linalg.norm(y))
        recon = max(recon, norm / (scale * norm_ab))
    return VerificationReport(trials=trials, reconstruction=recon, multiplicativity=mult,
                              adjointness=adj, cyclic_span_dim=rep.cyclic_span_dim,
                              quotient_dim=rep.quotient_dim)

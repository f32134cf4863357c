"""Positive sesquilinear maps Phi: X x X -> L^p(rho), linear in the first slot.

A map is stored through its gram tensor ``Phi(e_i, e_j)`` over a coordinate
domain C^d (optionally identified with a StarAlgebra), kept as one read-only
``(d, d, n_k, n_k)`` complex stack per target block: ``gram[k][i, j]`` is
block k of ``Phi(e_i, e_j)``.  Only ``SesquilinearMap.from_generator`` gives a
map a factored generator

    Phi(x, y) = sum_r T_r(x) C_r T_r(y)*,   T_r(x) = sum_i x_i A_{r,i},
    C_r = G_r G_r*,

held as arrays too: per target block one (R, d, n_k, n_k) coefficient stack
of the A_{r,i} and one (R, n_k, n_k) root stack of the G_r.  It builds the
gram stacks from those in a few batched matmuls, so the two cannot disagree,
and every C_r it forms is PSD.  ``_generator_gram`` is the one place a Kraus
gram is summed: ``radius.OperatorValuedMap.from_generator`` calls it too,
with the source's matrix units as the middle factors.  Generator-backed
maps are positive by construction; plain gram stacks get a sufficient
block-PSD test or honest sampling.

Every value sum_ij x_i conj(y_j) Phi(e_i, e_j) is one ``_slot_sum``: the
products with the d*d gram slots in one broadcast multiply, added left to
right by ``np.add.accumulate``.  Sweeps over many ``random_map`` draws take
``_random_map_pairs``: it builds the gram stacks of every (target, d, rank)
shape with ``from_generator``'s helper over a trial axis and sums Phi(x, y),
Phi(x, x), Phi(y, y) of its trials at once, each as ``evaluate_stack`` alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra, _stacked_schatten, hermitian_part_of
from .errors import ConditioningError, DomainError, PreconditionError, StructureError
from .sampling import random_unit_vector, rng_from
from .star import StarAlgebra
from .verdict import CERTIFIED, PositivityCertificate

__all__ = ["SesquilinearMap", "evaluate", "evaluate_stack", "check_positivity",
           "check_left_invariance", "random_map", "from_linear_map", "scalar_gram"]

DEFAULT_POSITIVITY_SAMPLES = 512
# slot products a slot sum forms at once; numpy buffers broadcast operands up to
# 8192 elements, so larger chunks would take more scratch than per-slot products
STACK_COEFFS = 1 << 11


class SesquilinearMap:
    """Gram-stack representation of a sesquilinear map into a traced algebra.

    ``gram[k]`` is the read-only (d, d, n_k, n_k) stack of block k of the
    entries Phi(e_i, e_j).  ``generator`` is None unless the map was built by
    ``from_generator``, which builds the stacks from the read-only
    ``(coeffs, roots)`` stacks it attaches.
    """

    def __init__(self, target: TracedAlgebra, gram: Sequence[np.ndarray],
                 domain_algebra: StarAlgebra | None = None):
        self._adopt(target, tuple(np.array(g, dtype=complex) for g in gram), domain_algebra)

    def _adopt(self, target: TracedAlgebra, stacks: tuple[np.ndarray, ...],
               domain_algebra: StarAlgebra | None) -> None:
        """Take ``stacks`` as the map's own gram: checked, then set read-only."""
        d = stacks[0].shape[0] if stacks and stacks[0].ndim == 4 else 0
        if d == 0 or len(stacks) != target.n_blocks or any(
                g.shape != (d, d, n, n) for g, n in zip(stacks, target.block_sizes)):
            raise StructureError("gram must hold one non-empty (d, d, n_k, n_k) stack "
                                 "per target block")
        if domain_algebra is not None and domain_algebra.dim != d:
            raise StructureError("domain algebra dimension does not match the gram tensor")
        if not all(np.isfinite(g).all() for g in stacks):
            raise DomainError("gram entries must be finite")
        for g in stacks:
            g.setflags(write=False)
        self.target = target
        self.domain_dim = d
        self.gram = stacks
        self.generator = None
        self.domain_algebra = domain_algebra

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_generator(cls, target: TracedAlgebra, coeffs: Sequence[np.ndarray],
                       roots: Sequence[np.ndarray],
                       domain_algebra: StarAlgebra | None = None) -> "SesquilinearMap":
        """Phi(x, y) = sum_r T_r(x) G_r G_r* T_r(y)* from per-block stacks.

        ``coeffs[k]`` is the (R, d, n_k, n_k) stack of block k of A_{r,i} and
        ``roots[k]`` the (R, n_k, n_k) stack of block k of G_r.  The map keeps
        the C-contiguous gram stacks as built, checked like a given gram.
        """
        a_stacks = tuple(np.array(a, dtype=complex) for a in coeffs)
        g_stacks = tuple(np.array(g, dtype=complex) for g in roots)
        r, d = a_stacks[0].shape[:2] if a_stacks and a_stacks[0].ndim == 4 else (0, 0)
        if r < 1 or d < 1 or len(a_stacks) != target.n_blocks \
                or len(g_stacks) != target.n_blocks or any(
                    a.shape != (r, d, n, n) or g.shape != (r, n, n)
                    for a, g, n in zip(a_stacks, g_stacks, target.block_sizes)):
            raise StructureError("generator needs one (R, d, n_k, n_k) coefficient stack "
                                 "and one (R, n_k, n_k) root stack per target block, R >= 1")
        if not all(np.isfinite(s).all() for s in (*a_stacks, *g_stacks)):
            raise DomainError("generator factors must be finite")
        phi = cls.__new__(cls)
        with np.errstate(over="ignore", invalid="ignore"):     # _adopt refuses an overflow
            gram = tuple(_generator_gram(a, g @ g.conj().swapaxes(-1, -2))
                         for a, g in zip(a_stacks, g_stacks))
        phi._adopt(target, gram, domain_algebra)
        for s in (*a_stacks, *g_stacks):
            s.setflags(write=False)
        phi.generator = (a_stacks, g_stacks)
        return phi

    # -- basic structure --------------------------------------------------------

    def flat_gram(self) -> list[np.ndarray]:
        """Per-block (d*d, n_k, n_k) views, entry (i, j) at row-major index i*d + j."""
        d = self.domain_dim
        return [g.reshape(d * d, *g.shape[2:]) for g in self.gram]

    @property
    def max_abs_entry(self) -> float:
        return max(float(np.max(np.abs(g))) for g in self.gram)

    def gram_scale(self) -> float:
        """1 + the largest 2-norm of a gram entry, the scale residuals are
        measured against; ``ConditioningError`` if it or its square
        overflows.  The gns and uncertainty residual checks multiply the
        scale by further factors and are not known to keep headroom past
        sqrt(DBL_MAX), so such maps are refused."""
        scale = 1.0 + float(np.max(_stacked_schatten(self.target, self.flat_gram(), 2.0)))
        if not math.isfinite(scale * scale):
            raise ConditioningError("the gram scale overflows the float range")
        return scale

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        bound = tol * (1.0 + self.max_abs_entry)
        return all(np.max(np.abs(g - g.conj().transpose(1, 0, 3, 2))) <= bound
                   for g in self.gram)

    def scaled(self, c: float) -> "SesquilinearMap":
        """c * Phi for c > 0; a generator map scales its roots by sqrt(c)."""
        if not c > 0:
            raise DomainError("scaling keeps positivity only for c > 0")
        if self.generator is not None:
            coeffs, roots = self.generator
            return SesquilinearMap.from_generator(
                self.target, coeffs, [math.sqrt(c) * g for g in roots],
                domain_algebra=self.domain_algebra)
        return SesquilinearMap(self.target, [complex(c) * g for g in self.gram],
                               domain_algebra=self.domain_algebra)


def _generator_gram(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The (..., d, d, n, n) gram stack sum_r A_{r,i} M_r A_{r,j}* of
    (R, ..., d, n, m) coefficients and (R, ..., m, m) middle factors, the one
    place a Kraus gram is summed.

    Sesquilinear maps pass M_r = G_r G_r*; ``OperatorValuedMap`` passes the
    source's matrix units on an axis after the factor axis.  Every factor's
    (A_i M) A_j* comes from one batched matmul, and the factors are summed in
    order from zeros, so a trial axis after the factor axis gives each map
    the stack it gets alone.
    """
    terms = (a @ m[..., None, :, :])[..., None, :, :] \
        @ a.conj().swapaxes(-1, -2)[..., None, :, :, :]
    acc = np.zeros(terms.shape[1:], dtype=complex)
    for t in terms:
        acc = acc + t
    return acc


def _slot_sum(coeffs: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The (T, ..., n, m) rows sum_s coeffs[t, ..., s] slots[t, ..., s] of
    (T, ..., K, 1, 1) coefficients and slots broadcastable to (T, ..., K, n, m),
    over the rows too when their leading axis has length 1.

    The products of ``STACK_COEFFS`` at a time are summed over the slot axis
    left to right by ``np.add.accumulate``, in place, and added into a zeroed
    C-contiguous output.  That is the sum a loop from zero over the slots
    gives, skipping zero coefficients or not: they add zeros to rows never -0.
    """
    out = np.zeros(coeffs.shape[:-3] + slots.shape[-2:], dtype=complex)
    per_row = math.prod(coeffs.shape[1:-2]) * math.prod(slots.shape[-2:])
    step = max(1, STACK_COEFFS // max(1, per_row))
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        terms = coeffs[rows] * (slots if len(slots) == 1 else slots[rows])
        out[rows] += np.add.accumulate(terms, axis=-3, out=terms)[..., -1, :, :]
    return out


def _combine_rows(coeffs: np.ndarray, stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per (K, n, m) stack, the ``_slot_sum`` rows sum_s coeffs[t, s] stack[s] of
    (T, K) coefficients, the stack broadcast over a leading row axis whatever T:
    without that axis numpy rounds some products of 1x1 blocks apart."""
    t, k = coeffs.shape
    return [_slot_sum(coeffs.reshape(t, k, 1, 1), g[None]) for g in stacks]


# -- operations -----------------------------------------------------------------

def evaluate_stack(phi: SesquilinearMap, xs: np.ndarray,
                   ys: np.ndarray) -> list[np.ndarray]:
    """Per-block (T, n_k, n_k) C-contiguous stacks of Phi(xs[t], ys[t]) for
    (T, d) inputs.

    Each row is a ``_combine_rows`` row over the d*d gram slots, so it equals
    a lone ``evaluate`` bit for bit.  Rows go ``STACK_COEFFS`` slot products of
    the largest block at a time; a single chunk is returned as it comes.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    d = phi.domain_dim
    if xs.ndim != 2 or xs.shape[1] != d or ys.shape != xs.shape:
        raise StructureError(f"vectors must have length {d}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DomainError("vectors need finite entries")
    flat = phi.flat_gram()
    step = max(1, STACK_COEFFS // (d * d * max(phi.target.block_sizes) ** 2))
    # the coefficient products as np.outer forms them, one row per pair
    chunks = [_combine_rows((xs[lo:lo + step, :, None]
                             * np.conj(ys[lo:lo + step])[:, None, :]).reshape(-1, d * d), flat)
              for lo in range(0, max(1, len(xs)), step)]
    if len(chunks) == 1:
        return chunks[0]
    return [np.concatenate(rows) for rows in zip(*chunks)]


def evaluate(phi: SesquilinearMap, x: np.ndarray, y: np.ndarray) -> AlgebraElement:
    """Phi(x, y) = sum_ij x_i conj(y_j) G[i, j]."""
    rows = [np.asarray(v, dtype=complex).ravel()[None] for v in (x, y)]
    return AlgebraElement(phi.target, [b[0] for b in evaluate_stack(phi, *rows)])


def _block_gram_matrices(phi: SesquilinearMap) -> list[np.ndarray]:
    """One (d*n_k) x (d*n_k) block matrix [G[i, j]_k] per target block."""
    d = phi.domain_dim
    return [g.transpose(0, 2, 1, 3).reshape(d * n, d * n)
            for g, n in zip(phi.gram, phi.target.block_sizes)]


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh``, raising ``ConditioningError`` instead of
    solving matrices that overflowed, or where LAPACK does not converge."""
    if not np.isfinite(mats).all():
        raise ConditioningError("positivity eigensolve failed: the hermitian part "
                                "overflows the float range")
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"positivity eigensolve failed: {exc}") from None


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
        return PositivityCertificate(status=CERTIFIED, reason="factored generator")
    scale = 1.0 + phi.max_abs_entry
    with np.errstate(over="ignore", invalid="ignore"):      # _eigvalsh refuses an overflow
        psd_gram = phi.is_hermitian() and all(
            _eigvalsh(0.5 * (big + big.conj().T)).min() >= -1e-10 * scale
            for big in _block_gram_matrices(phi))
    if psd_gram:
        return PositivityCertificate(status=CERTIFIED, reason="block gram matrix is PSD")
    rng = rng_from(seed)
    xs = np.array([random_unit_vector(rng, phi.domain_dim) for _ in range(trials)])
    vals = evaluate_stack(phi, xs, xs)
    # a non-hermitian diagonal value counts against positivity
    herm_defect = np.maximum.reduce([np.abs(v - v.conj().swapaxes(-1, -2)).max(axis=(1, 2))
                                     for v in vals])
    lam_min = np.minimum.reduce([_eigvalsh(hermitian_part_of(v)).min(axis=-1)
                                 for v in vals]) - herm_defect
    at = int(np.argmin(lam_min))
    return PositivityCertificate.sampled(lam_min[at], xs[at], trials, scale)


def check_left_invariance(phi: SesquilinearMap) -> float:
    """Max residual of Phi(a c, d) = Phi(c, a* d) over basis triples, 2-norm.

    Requires the map to carry a StarAlgebra domain.  Residuals are normalised
    by 1 + the largest gram 2-norm so the value is scale-free.
    """
    alg = phi.domain_algebra
    if alg is None:
        raise PreconditionError("left-invariance needs a StarAlgebra domain")
    d = phi.domain_dim
    eye = np.eye(d, dtype=complex)
    # every basis triple (a, c, e): a c = mult[a, c] and a* e = sum_i invol[i, a] mult[i, e]
    a, c, e = np.indices((d, d, d)).reshape(3, -1)
    astar_e = np.einsum("ia,iek->aek", alg.invol, alg.mult)
    vals = evaluate_stack(phi, np.concatenate([alg.mult[a, c], eye[c]]),
                          np.concatenate([eye[e], astar_e[a, e]]))
    # the gram entries ride in the same SVD stack for the scale of gram_scale
    norms = _stacked_schatten(phi.target, [np.concatenate([g, v[:d ** 3] - v[d ** 3:]])
                                           for g, v in zip(phi.flat_gram(), vals)], 2.0)
    return float(np.max(norms[d * d:]) / (1.0 + float(np.max(norms[:d * d]))))


def random_map(d: int, target: TracedAlgebra, rank: int = 1, seed: int = 0,
               scale: float = 1.0) -> SesquilinearMap:
    """Deterministic Kraus-form map with `rank` factors and Gaussian coefficients.

    One draw holds, per factor r and slot i (slot d is the root G_r), the real
    then the imaginary parts of each block in turn: the order of one
    ``random_complex_matrix`` call per (r, i, block).
    """
    coeffs, roots = _kraus_factors(_kraus_draw(d, target, rank, seed), target, d, scale)
    return SesquilinearMap.from_generator(target, coeffs, roots)


def _kraus_draw(d: int, target: TracedAlgebra, rank: int, seed: int) -> np.ndarray:
    """The (rank, d + 1, 2 * coord_dim) Gaussian draw of ``random_map``."""
    if rank < 1:
        raise DomainError("random map needs rank >= 1")
    if d < 1:
        raise StructureError("random map needs d >= 1")
    return rng_from(seed).standard_normal((rank, d + 1, 2 * target.coord_dim))


def _kraus_factors(z: np.ndarray, target: TracedAlgebra, d: int,
                   scale: float = 1.0) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per target block, the (R, ..., d, n, n) coefficients and (R, ..., n, n)
    roots that a (R, ..., d + 1, 2 * coord_dim) ``_kraus_draw`` draw, or a
    stack of them on axis 1, holds."""
    lead = z.shape[:-1]
    coeffs, roots, at = [], [], 0
    for n in target.block_sizes:
        parts = z[..., at:at + 2 * n * n].reshape(lead + (2, n, n))
        at += 2 * n * n
        block = scale * (parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
        coeffs.append(block[..., :d, :, :])
        roots.append(block[..., d, :, :])
    return coeffs, roots


def _random_map_pairs(trials: Sequence[tuple]) -> dict:
    """Phi(x, y), Phi(x, x) and Phi(y, y) of many random maps, grouped by target.

    Each trial is a ``(target, d, rank, map_seed, x, y)`` tuple and Phi is
    ``random_map(d, target, rank, map_seed)``.  Returns, per target in order
    of first appearance, the indices of its trials and per-block
    (T, 3, n_k, n_k) stacks of their three values, in that index order.

    Each draw still takes its own generator, so the draws are those of
    ``random_map``.  Per (target, d, rank) shape, the gram stacks come from
    one ``_generator_gram`` call over a trial axis and the values from one
    ``_slot_sum`` of every trial's coefficients with its own gram slots, so
    each is ``evaluate_stack(random_map(...), [x, x, y], [y, x, y])`` bit for bit.
    """
    shapes: dict = {}
    for i, (target, d, rank, *_) in enumerate(trials):
        shapes.setdefault((target, d, rank), []).append(i)
    by_target: dict = {}
    for (target, d, rank), ids in shapes.items():
        x = np.array([trials[i][4] for i in ids], dtype=complex)
        y = np.array([trials[i][5] for i in ids], dtype=complex)
        # the coefficient products as evaluate_stack forms them
        coeffs = (np.stack([x, x, y], axis=1)[..., :, None] * np.conj(
            np.stack([y, x, y], axis=1))[..., None, :]).reshape(len(ids), 3, d * d, 1, 1)
        z = np.stack([_kraus_draw(d, target, rank, trials[i][3]) for i in ids], axis=1)
        vals = [_slot_sum(coeffs, _generator_gram(a, g @ g.conj().swapaxes(-1, -2))
                          .reshape(len(ids), 1, d * d, n, n))
                for a, g, n in zip(*_kraus_factors(z, target, d), target.block_sizes)]
        by_target.setdefault(target, []).append((ids, vals))
    return {target: ([i for ids, _ in groups for i in ids],
                     [np.concatenate(v) for v in zip(*(vals for _, vals in groups))])
            for target, groups in by_target.items()}


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
    d = domain.dim
    eye = np.eye(d, dtype=complex)
    # row i d + j: the coordinates of e_j* e_i
    coords = domain.multiply(np.tile(domain.involute(eye), (d, 1)), np.repeat(eye, d, axis=0))
    values = [np.array([g.blocks[k] for g in omega]) for k in range(target.n_blocks)]
    rows = _combine_rows(coords, values)
    return SesquilinearMap(target, [r.reshape(d, d, *r.shape[1:]) for r in rows],
                           domain_algebra=domain)


def scalar_gram(phi: SesquilinearMap) -> np.ndarray:
    """Matrix S with x* S x = rho(Phi(x, x)); S[a, b] = rho(Phi(e_b, e_a))."""
    s = sum(w * np.trace(g, axis1=2, axis2=3) for w, g in zip(phi.target.weights, phi.gram))
    return np.array(s.T, dtype=complex, order="C")

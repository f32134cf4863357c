"""Finite direct sums of matrix blocks with a weighted trace.

A ``TracedAlgebra`` is a finite von Neumann algebra of the form
``M_{n_1} + ... + M_{n_K}`` (block-diagonal complex matrices) carrying the
faithful finite trace ``rho(X) = sum_k w_k * Tr(X_k)`` with strictly positive
weights ``w_k``.  Elements live in every L^p space of the trace, with
``||X||_p = rho(|X|^p)^(1/p)`` and ``||X||_inf`` the operator norm.

The module provides the spectral toolkit used throughout the package:
Schatten norms, polar decomposition, spectral tail projections, functional
calculus, hermitian real/imaginary splitting, the four-positive-parts Jordan
splitting, Hoelder and trace-pairing checks, and the dual-norm achiever for
1 < p < infinity.

``TracedAlgebra`` owns the coordinate layout, block-major and row-major inside
each block: other modules slice and assemble it for stacks only through
``split_spectrum``, ``split_coords``, ``diagonal_blocks``, ``block_diag`` and
``matrix_units``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, StructureError
from .verdict import within

__all__ = [
    "TracedAlgebra",
    "AlgebraElement",
    "PExponent",
    "trace",
    "schatten_norm",
    "polar_decomposition",
    "spectral_tail_projection",
    "functional_calculus",
    "real_imag_parts",
    "jordan_split",
    "holder_check",
    "trace_pairing_checks",
    "dual_norm_achiever",
    "HolderReport",
    "TracePairingReport",
]


def structure_tol(scale: float) -> float:
    """Tolerance for recomputable structural predicates."""
    return 1e-10 * (1.0 + scale)


def psd_tol(op_norm: float) -> float:
    """An element counts as PSD when its minimum eigenvalue exceeds -psd_tol."""
    return 1e-9 * (1.0 + op_norm)


@dataclass(frozen=True)
class TracedAlgebra:
    """Direct sum of full matrix blocks with per-block trace weights."""

    block_sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __init__(self, block_sizes: Iterable[int], weights: Iterable[float] | None = None):
        sizes = tuple(int(n) for n in block_sizes)
        if not sizes:
            raise StructureError("at least one block is required")
        if any(n < 1 for n in sizes):
            raise StructureError(f"block sizes must be >= 1, got {sizes}")
        if weights is None:
            w = tuple(1.0 for _ in sizes)
        else:
            w = tuple(float(x) for x in weights)
        if len(w) != len(sizes):
            raise StructureError("weights and block_sizes must have equal length")
        if not all(math.isfinite(x) for x in w):
            raise DomainError(f"trace weights must be finite, got {w}")
        if any(not (x > 0.0) for x in w):
            raise StructureError(f"trace weights must be strictly positive, got {w}")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "weights", w)
        # the layout's slices, of the Hilbert space and of the coordinates
        object.__setattr__(self, "_dim_spans", _spans(sizes))
        object.__setattr__(self, "_coord_spans", _spans([n * n for n in sizes]))

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def total_dim(self) -> int:
        """Dimension of the Hilbert space the algebra acts on."""
        return sum(self.block_sizes)

    @property
    def coord_dim(self) -> int:
        """Complex dimension of the algebra as a vector space."""
        return sum(n * n for n in self.block_sizes)

    @property
    def trace_of_identity(self) -> float:
        return float(sum(w * n for w, n in zip(self.weights, self.block_sizes)))

    def element(self, blocks: Sequence[np.ndarray]) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.block_sizes])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), dtype=complex) for n in self.block_sizes])

    def diagonal(self, entries: Sequence[float | complex]) -> "AlgebraElement":
        """Element with the given diagonal, filled block after block."""
        vals = np.asarray(list(entries), dtype=complex)
        return AlgebraElement(self, [np.diag(v) for v in self.split_spectrum(vals)])

    def from_coords(self, coords: np.ndarray) -> "AlgebraElement":
        """Inverse of ``AlgebraElement.coords`` (block-major, row-major)."""
        return AlgebraElement(self, self.split_coords(np.asarray(coords, dtype=complex).ravel()))

    def from_dense(self, mat: np.ndarray) -> "AlgebraElement":
        """Extract the block-diagonal part of a dense total_dim x total_dim matrix."""
        return AlgebraElement(self, self.diagonal_blocks(np.asarray(mat, dtype=complex)))

    # -- the coordinate layout, on stacks over any leading axes -----------------

    def split_spectrum(self, vals: np.ndarray) -> list[np.ndarray]:
        """Per-block (..., n_k) views of a (..., total_dim) array."""
        vals = np.asarray(vals)
        if vals.shape[-1:] != (self.total_dim,):
            raise StructureError("need one entry per Hilbert space dimension "
                                 f"({self.total_dim}), got shape {vals.shape}")
        return [vals[..., s] for s in self._dim_spans]

    def split_coords(self, coords: np.ndarray) -> list[np.ndarray]:
        """Per-block (..., n_k, n_k) views of (..., coord_dim) coordinates."""
        coords = np.asarray(coords)
        if coords.shape[-1:] != (self.coord_dim,):
            raise StructureError(f"expected {self.coord_dim} coordinates, "
                                 f"got shape {coords.shape}")
        lead = coords.shape[:-1]
        return [coords[..., s].reshape(lead + (n, n))
                for s, n in zip(self._coord_spans, self.block_sizes)]

    def diagonal_blocks(self, mats: np.ndarray) -> list[np.ndarray]:
        """Per-block (..., n_k, n_k) views of the diagonal blocks of (..., D, D)
        matrices, D = total_dim."""
        n = self.total_dim
        if mats.shape[-2:] != (n, n):
            raise StructureError("dense matrix has wrong shape for this algebra")
        return [mats[..., s, s] for s in self._dim_spans]

    def block_diag(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The (..., D, D) complex block-diagonal matrices of per-block
        (..., n_k, n_k) stacks, zero off the blocks."""
        n = self.total_dim
        out = np.zeros(np.shape(blocks[0])[:-2] + (n, n), dtype=complex)
        for view, b in zip(self.diagonal_blocks(out), blocks):
            view[...] = b
        return out

    def matrix_units(self) -> np.ndarray:
        """The (coord_dim, D, D) stack of dense matrix units, in coordinate order."""
        return self.block_diag(self.split_coords(np.eye(self.coord_dim, dtype=complex)))


def _spans(sizes: Sequence[int]) -> list[slice]:
    """Consecutive slices of the given lengths, starting at 0."""
    return [slice(end - n, end) for n, end in zip(sizes, itertools.accumulate(sizes))]


class AlgebraElement:
    """A block-diagonal complex matrix belonging to a TracedAlgebra.

    Instances are immutable: the stored blocks are copies with the writeable
    flag cleared, so elements can be shared freely.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: TracedAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.n_blocks:
            raise StructureError(f"expected {algebra.n_blocks} blocks, got {len(blocks)}")
        frozen = []
        for n, b in zip(algebra.block_sizes, blocks):
            arr = np.array(b, dtype=complex, copy=True)
            if arr.shape != (n, n):
                raise StructureError(f"block has shape {arr.shape}, expected {(n, n)}")
            arr.setflags(write=False)
            frozen.append(arr)
        self.algebra = algebra
        self.blocks = tuple(frozen)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_algebra(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise StructureError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_algebra(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_algebra(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, c: complex) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [complex(c) * a for a in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_algebra(other)
        return AlgebraElement(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.blocks])

    # -- views --------------------------------------------------------------

    def coords(self) -> np.ndarray:
        """Flatten to a coord_dim vector, block-major and row-major in blocks."""
        return np.concatenate([b.ravel() for b in self.blocks])

    def dense(self) -> np.ndarray:
        """Embed as a dense block-diagonal total_dim x total_dim matrix."""
        return self.algebra.block_diag(self.blocks)

    @property
    def max_abs_entry(self) -> float:
        return max(float(np.max(np.abs(b))) if b.size else 0.0 for b in self.blocks)

    def __repr__(self) -> str:
        return f"AlgebraElement(blocks={self.algebra.block_sizes}, weights={self.algebra.weights})"

    # -- recomputable predicates ---------------------------------------------

    def is_hermitian(self, tol: float | None = None) -> bool:
        t = structure_tol(self.max_abs_entry) if tol is None else tol
        return all(np.max(np.abs(b - b.conj().T), initial=0.0) <= t for b in self.blocks)

    def is_psd(self) -> bool:
        if not self.is_hermitian():
            return False
        t = psd_tol(operator_norm(self))
        return all(b.size == 0 or np.linalg.eigvalsh(hermitian_part_of(b)).min() >= -t
                   for b in self.blocks)

    def is_projection(self) -> bool:
        t = structure_tol(self.max_abs_entry)
        return self.is_hermitian() and all(
            np.max(np.abs(b @ b - b), initial=0.0) <= t for b in self.blocks)

    def is_partial_isometry(self) -> bool:
        t = structure_tol(self.max_abs_entry)
        for b in self.blocks:
            p = b.conj().T @ b
            if np.max(np.abs(p @ p - p), initial=0.0) > t or np.max(np.abs(p - p.conj().T), initial=0.0) > t:
                return False
        return True


class PExponent:
    """An exponent p in [1, inf] together with its conjugate q, 1/p + 1/q = 1."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v) or v < 1.0:
            raise DomainError(f"p must satisfy 1 <= p <= inf, got {value}")
        self.value = v

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def q(self) -> float:
        """Conjugate exponent; q = inf when p = 1, q = 1 when p = inf."""
        if self.is_inf:
            return 1.0
        if self.value == 1.0:
            return math.inf
        return self.value / (self.value - 1.0)

    def __repr__(self) -> str:
        return f"PExponent({self.value})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PExponent) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("PExponent", self.value))


def as_exponent(p: "PExponent | float | str") -> PExponent:
    if isinstance(p, PExponent):
        return p
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity", "oo"):
            return PExponent(math.inf)
        return PExponent(float(p))
    return PExponent(p)


# -- helpers on raw blocks ----------------------------------------------------

def hermitian_part_of(mat: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 for a matrix or a stack of matrices (last two axes)."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def eigh_blocks(x: AlgebraElement) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-block hermitian eigendecomposition (W assumed hermitian within tol)."""
    return [np.linalg.eigh(hermitian_part_of(b)) for b in x.blocks]


# -- trace and norms ----------------------------------------------------------

def trace(x: AlgebraElement) -> complex:
    """Weighted trace rho(X) = sum_k w_k Tr(X_k)."""
    return complex(sum(w * np.trace(b) for w, b in zip(x.algebra.weights, x.blocks)))


def operator_norm(x: AlgebraElement) -> float:
    return schatten_norm(x, math.inf)


def schatten_norm(x: AlgebraElement, p: PExponent | float | str) -> float:
    """||X||_p = rho(|X|^p)^(1/p); the operator norm for p = inf."""
    return float(_stacked_schatten(x.algebra, [b[None] for b in x.blocks],
                                   as_exponent(p).value)[0])


def _stacked_schatten(alg: TracedAlgebra, blocks: Sequence[np.ndarray],
                      p: float) -> np.ndarray:
    """||X_t||_p of each item X_t of a stack given as per-block (T, n_k, n_k)
    arrays: one SVD call per block, the weighted block sums added in block
    order and the final root taken per item; the largest singular value over
    the blocks for p = inf."""
    return _schatten_from_svals(alg, [np.linalg.svd(b, compute_uv=False) for b in blocks], p)


def _schatten_from_svals(alg: TracedAlgebra, svals: Sequence[np.ndarray],
                         p: float) -> np.ndarray:
    """``_stacked_schatten``'s formula on per-block (T, n_k) singular values
    (descending), so several exponents can share one SVD per block."""
    if math.isinf(p):
        return np.maximum.reduce([s[:, 0] for s in svals])
    terms = [wt * (s ** p).sum(axis=-1) for wt, s in zip(alg.weights, svals)]
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return np.array([a ** (1.0 / p) for a in acc.tolist()])


# -- spectral toolkit ----------------------------------------------------------

def polar_decomposition(x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """X = Z |X| with Z a partial isometry whose initial space is range(X*).

    Z*Z is the support projection of |X|; the zero matrix yields Z = 0.
    """
    zs, abss = [], []
    for b in x.blocks:
        u, s, vh = np.linalg.svd(b)
        cut = 1e-12 * (s[0] if s.size else 0.0)
        keep = s > cut
        z = (u[:, keep]) @ (vh[keep, :])
        absb = (vh.conj().T * s) @ vh
        zs.append(z)
        abss.append(hermitian_part_of(absb))
    return AlgebraElement(x.algebra, zs), AlgebraElement(x.algebra, abss)


def spectral_tail_projection(w: AlgebraElement, t: float) -> AlgebraElement:
    """Spectral projection of a PSD element onto eigenvalues strictly above t.

    The returned projection P commutes with W and ||W(I - P)||_inf <= t.
    """
    if not t > 0.0:
        raise DomainError(f"threshold must be positive, got {t}")
    proj, _ = _tail_projections(w.algebra, [b[None] for b in w.blocks], [t])
    return AlgebraElement(w.algebra, [pk[0, 0] for pk in proj])


def _tail_projections(alg: TracedAlgebra, blocks: Sequence[np.ndarray],
                      thresholds: Sequence[float]) -> tuple[list[np.ndarray], np.ndarray]:
    """Spectral projections above each positive threshold of a stack of PSD
    items given as per-block (T, n_k, n_k) arrays: per-block
    (len(thresholds), T, n_k, n_k) projection stacks, and the items'
    operator norms.

    One ``eigh`` per block serves every threshold.  An item whose block has
    an eigenvalue below ``-psd_tol`` raises ``DomainError``, checked in item
    then block order.
    """
    opn = _stacked_schatten(alg, blocks, math.inf)
    decs = [np.linalg.eigh(hermitian_part_of(b)) for b in blocks]
    lows = np.stack([lam.min(axis=1) for lam, _ in decs], axis=1)
    bad = np.argwhere(lows < -psd_tol(opn)[:, None])
    if len(bad):
        raise DomainError(f"element is not PSD: min eigenvalue {lows[tuple(bad[0])]:.3e}")
    lead = (len(thresholds), len(opn))
    rows = np.tile(np.arange(len(opn)), len(thresholds))
    proj = []
    for lam, q in decs:
        rank = (lam[None] > np.asarray(thresholds, dtype=float)[:, None, None]).sum(axis=2)
        proj.append(_rank_projections(q, rows, rank.ravel()).reshape(lead + q.shape[1:]))
    return proj, opn


def _rank_projections(q: np.ndarray, rows: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """(S, n, n) projections onto the top ``rank[s]`` eigenvectors of item
    ``rows[s]`` of a stacked ascending ``eigh`` basis ``q`` (T, n, n): grouped
    by rank, so each is the product ``Q_r Q_r*`` a lone projection takes."""
    n = q.shape[-1]
    out = np.zeros((len(rows), n, n), dtype=complex)
    for r in sorted(set(rank.tolist()) - {0}):
        sel = (rank == r).nonzero()[0]
        top = q[rows[sel]][:, :, np.arange(n) >= n - r]
        out[sel] = top @ top.conj().swapaxes(-1, -2)
    return out


def functional_calculus(w: AlgebraElement,
                        f: Callable[[np.ndarray], np.ndarray],
                        clip_psd: bool = False) -> AlgebraElement:
    """Q f(diag(lambda)) Q* from the eigendecomposition of a hermitian element.

    ``f`` receives a 1-d array of eigenvalues and must return finite values on
    all of them; with ``clip_psd`` eigenvalues in [-psd_tol, 0) are clipped to 0
    first so that positivity-dependent functions (sqrt, powers) stay real.
    """
    if not w.is_hermitian():
        raise DomainError("functional calculus requires a hermitian element")
    tol = psd_tol(operator_norm(w))
    blocks = []
    for b in w.blocks:
        lam, q = np.linalg.eigh(hermitian_part_of(b))
        if clip_psd:
            lam = np.where((lam < 0.0) & (lam >= -tol), 0.0, lam)
        try:
            with np.errstate(invalid="ignore", divide="ignore"):
                vals = np.asarray(f(lam), dtype=complex)
        except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
            raise DomainError(f"function undefined on the spectrum: {exc}") from exc
        if vals.shape != lam.shape:
            vals = np.broadcast_to(vals, lam.shape)
        if not np.all(np.isfinite(vals)):
            raise DomainError("function returned non-finite values on the spectrum")
        blocks.append((q * vals) @ q.conj().T)
    return AlgebraElement(w.algebra, blocks)


def abs_element(x: AlgebraElement) -> AlgebraElement:
    _, a = polar_decomposition(x)
    return a


def real_imag_parts(x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """Hermitian parts with X = Re X + i Im X exactly."""
    re = AlgebraElement(x.algebra, [0.5 * (b + b.conj().T) for b in x.blocks])
    im = AlgebraElement(x.algebra, [(b - b.conj().T) / 2j for b in x.blocks])
    return re, im


def positive_negative_parts(h: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """Jordan decomposition h = h+ - h- with h+ h- = 0, both PSD."""
    pos, neg = [], []
    for b in h.blocks:
        lam, q = np.linalg.eigh(hermitian_part_of(b))
        pos.append((q * np.maximum(lam, 0.0)) @ q.conj().T)
        neg.append((q * np.maximum(-lam, 0.0)) @ q.conj().T)
    return AlgebraElement(h.algebra, pos), AlgebraElement(h.algebra, neg)


def jordan_split(x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement,
                                             AlgebraElement, AlgebraElement]:
    """Four PSD parts with X = x1 - x2 + i(x3 - x4), x1 x2 = x3 x4 = 0.

    Orthogonal supports give ||x1 - x2||_p = ||x1 + x2||_p for every p, and
    likewise for the imaginary pair.
    """
    re, im = real_imag_parts(x)
    x1, x2 = positive_negative_parts(re)
    x3, x4 = positive_negative_parts(im)
    return x1, x2, x3, x4


# -- pairing checks -------------------------------------------------------------

@dataclass
class HolderReport:
    lhs: float
    rhs: float
    holds: bool
    p: float
    q: float


def holder_check(a: AlgebraElement, b: AlgebraElement, p: PExponent | float) -> HolderReport:
    """Check ||AB||_1 <= ||A||_p ||B||_q."""
    pe = as_exponent(p)
    lhs = schatten_norm(a @ b, 1.0)
    rhs = schatten_norm(a, pe) * schatten_norm(b, pe.q)
    return HolderReport(lhs=lhs, rhs=rhs, holds=within(lhs, rhs, 1e-9), p=pe.value, q=pe.q)


@dataclass
class TracePairingReport:
    value: complex
    declared: str
    real_part_ok: bool
    imag_part_ok: bool
    tol: float


def trace_pairing_checks(a: AlgebraElement, b: AlgebraElement,
                         declared: str) -> TracePairingReport:
    """rho(AB) for a declared PSD pair (value >= 0) or hermitian pair (value real).

    The declaration is validated against the inputs before the pairing is
    evaluated.
    """
    if declared not in ("psd", "hermitian"):
        raise DomainError(f"declared case must be 'psd' or 'hermitian', got {declared!r}")
    if declared == "psd":
        if not (a.is_psd() and b.is_psd()):
            raise PreconditionError("declared PSD pair but an input is not PSD")
    else:
        if not (a.is_hermitian() and b.is_hermitian()):
            raise PreconditionError("declared hermitian pair but an input is not hermitian")
    val = trace(a @ b)
    tol = 1e-10 * max(schatten_norm(a, 2.0) * schatten_norm(b, 2.0), 1e-300)
    imag_ok = abs(val.imag) <= tol
    real_ok = (val.real >= -tol) if declared == "psd" else True
    return TracePairingReport(value=val, declared=declared,
                              real_part_ok=real_ok, imag_part_ok=imag_ok, tol=tol)


def dual_norm_achiever(a: AlgebraElement, p: PExponent | float) -> tuple[AlgebraElement, float]:
    """B with ||B||_q = 1 and rho(AB) = ||A||_p, for 1 < p < inf.

    Built from the polar decomposition A = u|A| as B = |A|^(p-1) u* / ||A||_p^(p-1).
    """
    pe = as_exponent(p)
    if pe.is_inf or pe.value <= 1.0:
        raise DomainError("dual norm achiever requires 1 < p < inf")
    norm_p = schatten_norm(a, pe)
    if norm_p == 0.0:
        raise DomainError("zero element has no dual norm achiever")
    u, absa = polar_decomposition(a)
    power = functional_calculus(absa, lambda lam: lam ** (pe.value - 1.0), clip_psd=True)
    b = (norm_p ** (1.0 - pe.value)) * (power @ u.adjoint())
    attained = trace(a @ b).real
    return b, float(attained)

"""Finite unital *-algebras in structure-constant form.

A ``StarAlgebra`` stores a basis-free description of a finite-dimensional
*-algebra: the multiplication tensor ``mult[i, j, k]`` with
``e_i e_j = sum_k mult[i, j, k] e_k``, the matrix of the conjugate-linear
involution, and the coordinates of the unit.  Matrix algebras and cyclic
group algebras share this single code path; both are available as builtins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TracedAlgebra
from .errors import DomainError, StructureError

__all__ = ["StarAlgebra", "AlgebraVector", "matrix_algebra", "cyclic_group_algebra",
           "matrix_units_algebra"]

AXIOM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StarAlgebra:
    """Structure constants, involution matrix and unit coordinates."""

    mult: np.ndarray      # (d, d, d) complex, e_i e_j = sum_k mult[i,j,k] e_k
    invol: np.ndarray     # (d, d) complex, (a*)_coords = invol @ conj(a_coords)
    unit: np.ndarray      # (d,) complex

    def __eq__(self, other) -> bool:
        return (isinstance(other, StarAlgebra)
                and self.mult.shape == other.mult.shape
                and np.array_equal(self.mult, other.mult)
                and np.array_equal(self.invol, other.invol)
                and np.array_equal(self.unit, other.unit))

    def __hash__(self) -> int:
        return hash(("StarAlgebra", self.mult.shape))

    def __post_init__(self):
        mult = np.asarray(self.mult, dtype=complex)
        d = mult.shape[0]
        if mult.shape != (d, d, d):
            raise StructureError(f"multiplication tensor must be (d,d,d), got {mult.shape}")
        invol = np.asarray(self.invol, dtype=complex)
        unit = np.asarray(self.unit, dtype=complex).ravel()
        if invol.shape != (d, d) or unit.shape != (d,):
            raise StructureError("involution/unit shapes inconsistent with dimension")
        for name, arr in (("mult", mult), ("invol", invol), ("unit", unit)):
            if not np.isfinite(arr).all():
                raise DomainError(f"star algebra {name} needs finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        errs = self.axiom_residuals()
        bad = {k: v for k, v in errs.items() if not v <= AXIOM_TOL}
        if bad:
            raise StructureError(f"*-algebra axioms violated: {bad}")

    @property
    def dim(self) -> int:
        return self.mult.shape[0]

    # -- coordinate operations ---------------------------------------------

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinates of a b; for (T, d) rows, of each a_t b_t as a lone call
        gives it (one einsum)."""
        return np.einsum("...i,...j,ijk->...k", np.asarray(a, dtype=complex),
                         np.asarray(b, dtype=complex), self.mult)

    def involute(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of a*; for (T, d) rows, of each a_t* as a lone call
        gives it (one matmul of matrix-vector products)."""
        return (self.invol @ np.conj(np.asarray(a, dtype=complex))[..., None])[..., 0]

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> a x in the basis coordinates."""
        # L[k, j] = sum_i a_i mult[i, j, k]
        return np.einsum("i,ijk->kj", np.asarray(a, dtype=complex), self.mult)

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return v

    # -- axioms ---------------------------------------------------------------

    def axiom_residuals(self) -> dict[str, float]:
        """Max residuals of associativity, involution laws and unit laws."""
        d = self.dim
        m = self.mult
        # (e_i e_j) e_k vs e_i (e_j e_k)
        left = np.einsum("ijp,pkq->ijkq", m, m)
        right = np.einsum("jkp,ipq->ijkq", m, m)
        assoc = float(np.max(np.abs(left - right), initial=0.0))
        # (e_i e_j)* vs e_j* e_i*
        prod_star = np.einsum("ijk,lk->ijl", np.conj(m), self.invol)
        star_prod = np.zeros((d, d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                star_prod[i, j] = self.multiply(self.involute(self.basis_vector(j)),
                                                self.involute(self.basis_vector(i)))
        antimult = float(np.max(np.abs(prod_star - star_prod), initial=0.0))
        invol2 = float(np.max(np.abs(self.invol @ np.conj(self.invol) - np.eye(d)), initial=0.0))
        unit_left = max(float(np.max(np.abs(self.multiply(self.unit, self.basis_vector(i))
                                            - self.basis_vector(i)))) for i in range(d))
        unit_right = max(float(np.max(np.abs(self.multiply(self.basis_vector(i), self.unit)
                                             - self.basis_vector(i)))) for i in range(d))
        return {"associativity": assoc, "anti_multiplicativity": antimult,
                "involutive": invol2, "unit_left": unit_left, "unit_right": unit_right}

    def is_commutative(self) -> bool:
        return (float(np.max(np.abs(self.mult - self.mult.transpose(1, 0, 2)), initial=0.0))
                <= AXIOM_TOL)

    def vector(self, coords: np.ndarray) -> "AlgebraVector":
        return AlgebraVector(self, coords)


class AlgebraVector:
    """An element of a StarAlgebra, held as a coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StarAlgebra, coords: np.ndarray):
        c = np.array(coords, dtype=complex, copy=True).ravel()
        if c.shape != (algebra.dim,):
            raise StructureError(f"coordinate vector must have length {algebra.dim}")
        c.setflags(write=False)
        self.algebra = algebra
        self.coords = c

    def _same(self, other: "AlgebraVector") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise StructureError("vectors belong to different algebras")

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._same(other)
        return AlgebraVector(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._same(other)
        return AlgebraVector(self.algebra, self.coords - other.coords)

    def __mul__(self, c: complex) -> "AlgebraVector":
        return AlgebraVector(self.algebra, complex(c) * self.coords)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._same(other)
        return AlgebraVector(self.algebra, self.algebra.multiply(self.coords, other.coords))

    def star(self) -> "AlgebraVector":
        return AlgebraVector(self.algebra, self.algebra.involute(self.coords))

    def is_symmetric(self) -> bool:
        return bool(np.max(np.abs(self.star().coords - self.coords), initial=0.0)
                    <= 1e-12 * (1.0 + np.max(np.abs(self.coords), initial=0.0)))

    def __repr__(self) -> str:
        return f"AlgebraVector(dim={self.algebra.dim})"


# -- builtins ------------------------------------------------------------------

def matrix_algebra(k: int) -> StarAlgebra:
    """Full matrix algebra M_k in the matrix-unit basis e_{ab}, row-major order."""
    if k < 1:
        raise StructureError("matrix algebra needs k >= 1")
    return matrix_units_algebra((k,))[0]


def cyclic_group_algebra(n: int) -> StarAlgebra:
    """Group algebra of Z_n with basis g^0, ..., g^(n-1); g* = g^(n-1)."""
    if n < 1:
        raise StructureError("cyclic group algebra needs n >= 1")
    mult = np.zeros((n, n, n), dtype=complex)
    invol = np.zeros((n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    for i in range(n):
        invol[(n - i) % n, i] = 1.0
        for j in range(n):
            mult[i, j, (i + j) % n] = 1.0
    return StarAlgebra(mult=mult, invol=invol, unit=unit)


def builtin(kind: str, size: int) -> StarAlgebra:
    """Dispatch by name: ``matrix_algebra`` or ``cyclic_group_algebra``."""
    if kind == "matrix_algebra":
        return matrix_algebra(size)
    if kind == "cyclic_group_algebra":
        return cyclic_group_algebra(size)
    raise StructureError(f"unknown builtin algebra kind {kind!r}")


def matrix_units_algebra(block_sizes: tuple[int, ...]) -> tuple[StarAlgebra, list[np.ndarray]]:
    """*-algebra of block-diagonal matrices over the given block layout.

    Returns the StarAlgebra together with the list of basis matrices (as dense
    block-diagonal arrays) so that coordinate vectors can be mapped back to
    concrete matrices.  Basis order is block-major, row-major inside blocks.
    """
    layout = TracedAlgebra(block_sizes)
    d = layout.coord_dim
    mult = np.zeros((d, d, d), dtype=complex)
    invol = np.zeros((d, d), dtype=complex)
    unit = np.zeros(d, dtype=complex)
    # within a block, ix[a, b] is the coordinate of e_ab
    for ix in layout.split_coords(np.arange(d)):
        unit[ix.diagonal()] = 1.0
        invol[ix.T, ix] = 1.0
        mult[ix[:, :, None], ix[None], ix[:, None]] = 1.0     # e_ab e_be = e_ae
    return StarAlgebra(mult=mult, invol=invol, unit=unit), list(layout.matrix_units())

"""Seeded random generators and deterministic sweep plumbing.

Every sweep in the package draws from per-trial substreams spawned from a
single 64-bit seed, so results do not depend on evaluation order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra, hermitian_part_of


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def substreams(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators; stream i is the same for every n >= i."""
    root = np.random.SeedSequence(int(seed))
    return [np.random.default_rng(s) for s in root.spawn(n)]


# -- random matrix material ----------------------------------------------------

def random_complex_matrix(rng: np.random.Generator, rows: int, cols: int,
                          scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def random_element(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return alg.element([random_complex_matrix(rng, n, n) for n in alg.block_sizes])


def random_hermitian(alg: TracedAlgebra, rng: np.random.Generator,
                     scale: float = 1.0) -> AlgebraElement:
    return alg.element([hermitian_part_of(random_complex_matrix(rng, n, n, scale))
                        for n in alg.block_sizes])


def random_psd(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    blocks = []
    for n in alg.block_sizes:
        g = random_complex_matrix(rng, n, n)
        blocks.append(g @ g.conj().T)
    return alg.element(blocks)


def random_psd_with_spectrum(alg: TracedAlgebra, rng: np.random.Generator,
                             spectrum: Sequence[float]) -> AlgebraElement:
    """Random PSD element with the prescribed eigenvalues (Haar-rotated), one
    per Hilbert space dimension in block order; a wrong count raises
    ``StructureError``."""
    blocks = []
    for v in alg.split_spectrum(np.asarray(list(spectrum))):
        q = random_unitary_matrix(rng, len(v))
        blocks.append((q * v) @ q.conj().T)
    return alg.element(blocks)


def unitaries_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (S, n, n) Gaussian stack: one stacked QR with phase fixing."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(np.where(d == 0, 1.0, d)))[..., None, :]


def random_unitary_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    return unitaries_from_gaussian(random_complex_matrix(rng, n, n)[None])[0]


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-uniform point on the unit sphere of C^dim."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    nrm = np.linalg.norm(v)
    while nrm == 0.0:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        nrm = np.linalg.norm(v)
    return v / nrm

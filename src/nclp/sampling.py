"""Seeded random generators and deterministic sweep plumbing.

Every sweep in the package draws from per-trial substreams spawned from a
single 64-bit seed, so results do not depend on evaluation order.  Stream i
of ``substreams(seed, n)`` is, bit for bit, ``default_rng(child)`` for the
i-th child of ``SeedSequence(seed).spawn(n)``; all n children are hashed in
one array pass instead of one ``SeedSequence`` each (see ``substreams``).
``numpy.random`` is reached only when a generator is made, so importing the
package does not load it.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra, hermitian_part_of

# The constants of NumPy's SeedSequence hash (NEP 19): its entropy hash
# (A), its output hash (B) and its pool mix.  The k-th call of a hash is
# keyed by INIT * MULT**k mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_A_STEPS = np.array([pow(_MULT_A, k, 1 << 32) for k in range(5)], dtype=np.uint32)
_B_KEYS = np.array([_INIT_B * pow(_MULT_B, k, 1 << 32) % (1 << 32) for k in range(9)],
                   dtype=np.uint32)


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


class _SeedWords:
    """The four uint64 words ``PCG64`` asks of a child SeedSequence."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a substream holds only PCG64's four uint64 seed words")
        return self.row


def substreams(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators; stream i is the same for every n > i.

    Stream i draws exactly what ``default_rng(SeedSequence(seed).spawn(n)[i])``
    draws.  A child's entropy is the seed's 32-bit words, zero-padded to the
    4-word pool, then its spawn word i.  Padding hashes like the pool's own
    zero fill, so the root's ``SeedSequence(seed).pool`` is every child's
    pool before word i, and the hash has run 16 + 4 max(0, words - 4) times.
    One (n, 4) pass mixes the words 0..n-1 into that pool, one (n, 8) pass
    forms each child's ``generate_state(4, np.uint64)``, and each ``PCG64``
    is seeded from its row.  The arithmetic stays on uint32 arrays, which
    wrap mod 2**32 as the hash does.

    ``rng.bit_generator.seed_seq`` is therefore a ``_SeedWords``, a holder of
    the four seed words, not a ``SeedSequence``: the generators pickle and
    copy, but ``Generator.spawn`` is not available on them.  A negative n
    raises ``OverflowError``, as ``spawn`` does.
    """
    seed = int(seed)
    root = np.random.SeedSequence(seed)
    n = operator.index(n)
    if not 0 <= n < 1 << 32:
        raise OverflowError(f"cannot spawn {n} substreams; n must lie in [0, 2**32)")
    spent = 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4)
    keys = _INIT_A * pow(_MULT_A, spent, 1 << 32) % (1 << 32) * _A_STEPS
    hashed = (np.arange(n, dtype=np.uint32)[:, None] ^ keys[:4]) * keys[1:]
    hashed ^= hashed >> _XSHIFT
    pool = root.pool * np.uint32(_MIX_L) - hashed * np.uint32(_MIX_R)
    pool ^= pool >> _XSHIFT
    state = (np.concatenate((pool, pool), axis=1) ^ _B_KEYS[:8]) * _B_KEYS[1:]
    state ^= state >> _XSHIFT
    # PCG64 reads its seed words from the raw buffer, so every row must be
    # C-contiguous: the concatenation above is, and so is each row of it.
    rows = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)

    # numpy.random is imported here, not with the package, so the words
    # holder becomes a (virtual) ISeedSequence here; registering is idempotent
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_SeedWords(row))) for row in rows]


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

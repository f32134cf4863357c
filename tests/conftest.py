import math
import re

import numpy as np
import pytest

from nclp.algebra import TracedAlgebra


@pytest.fixture
def tr2():
    """M_2 with the plain trace."""
    return TracedAlgebra([2])


@pytest.fixture
def weighted():
    """Two weighted blocks, total dimension 3."""
    return TracedAlgebra([2, 1], [0.5, 2.0])


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts calls of np.linalg.svd, eigh, eigvalsh and eigvals in ``["n"]``
    and by name, and the matrices they solve (the product of the leading axes) in
    ``["matrices"]``, the most that one call solves in ``["largest"]``;
    calls of np.linalg.qr in ``["qr"]``."""
    calls = {"n": 0, "matrices": 0, "largest": 0, "qr": 0, "svd": 0, "eigh": 0,
             "eigvalsh": 0, "eigvals": 0}
    for name in ("svd", "eigh", "eigvalsh", "eigvals"):
        def counted(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls["n"] += 1
            calls[_name] += 1
            calls["matrices"] += math.prod(np.shape(a)[:-2])
            calls["largest"] = max(calls["largest"], math.prod(np.shape(a)[:-2]))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def counted_qr(a, *args, _f=np.linalg.qr, **kwargs):
        calls["qr"] += 1
        return _f(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def gram_of(target, entries):
    """Per-block (d, d, n_k, n_k) gram stacks of a nested grid of elements."""
    return [np.array([[e.blocks[k] for e in row] for row in entries])
            for k in range(target.n_blocks)]


def strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9eE+.\-]+', '"wall_time_s": 0', text)


def random_element_of(alg, rng, scale=1.0):
    return alg.element([scale * (rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))
                        for n in alg.block_sizes])

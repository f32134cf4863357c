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

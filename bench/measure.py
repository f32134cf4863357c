"""Order statistics behind the end-to-end latency metrics."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """Highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n)``: the (n - 10)-th smallest sample, the
    percentile it sits at, and the sample count.  Below eleven samples no
    order statistic has ten beyond it, so the result is ``None``.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def per_check_latency(rounds: Sequence[Sequence[float]]) -> list[float]:
    """Latency of each check: the median of its timings over repeated sweeps.

    Every sweep issues the same checks in the same order, so ``rounds[r][i]``
    is check ``i`` in sweep ``r``.  The result has one entry per check, so
    the sample count, and with it the tail percentile, does not depend on how
    many sweeps fitted into the run.
    """
    return [statistics.median(times) for times in zip(*rounds)]

"""Reference-speed timing for a host whose CPU speed changes during a run.

On a shared virtual machine the speed of a vCPU is not constant: on a
2-vCPU KVM guest (Xeon, Sapphire Rapids) a fixed kernel took either about
4.4 ms or about 7.3 ms, switching every 1 to 20 s, and a sweep of the same
600 CS checks took between 0.70 s and 1.94 s.  Raw wall times then measure
the host more than the program.

So while a sweep runs, a timer signal times a fixed calibration kernel every
``INTERVAL_S``, and wall-clock instants are mapped to a reference clock that
stands still while the kernel runs and, between two samples, runs at
``REFERENCE_S / kernel time`` with the mean kernel time of those two samples.
A check's time is the reference time between its start and its end: its time
at the reference speed, where the kernel takes ``REFERENCE_S``.  Traced spans
are mapped the same way, so a kernel sample that lands inside a span adds
nothing to it.  The kernel mixes what nclp does: interpreted Python, small
LAPACK calls and a stacked eigensolve.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

import numpy as np

# Bound at import, before any tracing patches numpy.linalg.
_eigh, _eigvalsh, _svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd

REFERENCE_S = 0.0014
INTERVAL_S = 0.1
REPEATS = 3
ROUNDS = 6


class Kernel:
    """A fixed computation whose time tracks the host's current speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for n in (2, 3, 4)]
        self.stack = rng.standard_normal((32, 3, 3))
        self._once()                 # first calls load the LAPACK paths

    def _once(self) -> None:
        for _ in range(ROUNDS):
            for m in self.mats:
                h = 0.5 * (m + m.conj().T)
                _eigh(h)
                _svd(m)
            _eigvalsh(self.stack + np.swapaxes(self.stack, -1, -2))
            sum(i * i for i in range(300))

    def seconds(self) -> float:
        """Fastest of a few timings, since interruptions only add time."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._once()
            best = min(best, time.perf_counter() - t0)
        return best


class ReferenceClock:
    """Times calls and converts their wall times to reference-speed seconds.

    Use as a context manager around the calls: inside it, SIGALRM samples the
    kernel every ``INTERVAL_S``.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.laps: list[tuple[float, float, int]] = []        # start, end, depth
        self.samples: list[tuple[float, float, float]] = []   # start, end, kernel s
        self._depth = 0
        self._busy = False
        self._old_handler = None

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        cal = self.kernel.seconds()
        self.samples.append((t0, time.perf_counter(), cal))
        self._busy = False

    def __enter__(self) -> "ReferenceClock":
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def lap(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` and record its start, end and nesting depth.

        Laps may nest; a lap is recorded when it ends, so a lap's inner laps
        come right before it.
        """
        depth = self._depth
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.laps.append((t0, time.perf_counter(), depth))
            self._depth -= 1

    def reference(self, t: np.ndarray, scaled: bool = True) -> np.ndarray:
        """Reference seconds at the wall-clock instants ``t``, from the first sample.

        Kernel samples take no time.  With ``scaled=False`` the time between
        samples runs at wall speed, so differences are raw seconds without the
        kernel.  The instants must lie between the first and the last sample,
        as every instant inside the ``with`` block does.
        """
        s = np.array(self.samples)
        gaps = s[1:, 0] - s[:-1, 1]
        if scaled:
            gaps = gaps * REFERENCE_S / (0.5 * (s[1:, 2] + s[:-1, 2]))
        at = np.zeros(2 * len(s))               # at each sample's start and end
        at[2::2] = np.cumsum(gaps)
        at[1::2] = at[0::2]
        return np.interp(t, s[:, :2].ravel(), at)

    def times(self) -> tuple[list[float], list[float]]:
        """(raw seconds, reference seconds) of every lap, in order."""
        edges = np.array([lap[:2] for lap in self.laps])
        raw, scaled = (np.diff(self.reference(edges, s), axis=1)[:, 0].tolist()
                       for s in (False, True))
        return raw, scaled

    def outermost(self) -> list[bool]:
        """For each lap, whether no other lap encloses it."""
        return [depth == 0 for _, _, depth in self.laps]

    def innermost(self) -> list[bool]:
        """For each lap, whether it encloses no other lap."""
        return [i == 0 or self.laps[i - 1][2] <= depth
                for i, (_, _, depth) in enumerate(self.laps)]

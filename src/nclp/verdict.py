"""The one place numbers become a status: the status words, ``status`` for a
suite's pass test, ``report`` for an inequality lhs <= rhs, the slack rule
``within`` and the positivity certificate.  A side that is inf or NaN gets no
verdict but ``ConditioningError``: it would pass or fail by accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, InconsistencyError, PreconditionError

HOLDS, WITHIN_TOL, VIOLATED = "holds", "holds_within_tol", "violated"
OK_STATUSES = (HOLDS, WITHIN_TOL)           # the statuses that pass a check
EXACT, HEURISTIC = "exact", "heuristic"     # how a searched optimum was found
CERTIFIED, SAMPLED = "certified", "sampled"     # how positivity is known

REPORT_TOL_COEFF = 1e-8


def status(ok: bool) -> str:
    return HOLDS if ok else VIOLATED


@dataclass
class InequalityReport:
    lhs: float
    rhs: float
    ratio: float
    margin: float
    status: str                      # HOLDS | WITHIN_TOL | VIOLATED
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES


def report(lhs: float, rhs: float, witness: dict) -> InequalityReport:
    """Division-free status logic; rhs = 0 (at most 1e-12) forces lhs = 0 for a pass."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ConditioningError(f"no verdict on a non-finite side: lhs {lhs}, rhs {rhs}")
    tol = REPORT_TOL_COEFF * (1.0 + rhs)
    margin = rhs - lhs
    if rhs <= 1e-12:
        if lhs <= max(1e-12, tol):
            return InequalityReport(lhs, rhs, 0.0, margin, HOLDS, witness)
        return InequalityReport(lhs, rhs, math.inf, margin, VIOLATED, witness)
    ratio = lhs / rhs
    if margin >= 0.0:
        verdict = HOLDS
    elif margin >= -tol:
        verdict = WITHIN_TOL
    else:
        verdict = VIOLATED
    return InequalityReport(lhs, rhs, ratio, margin, verdict, witness)


def within(lhs, rhs, coeff: float):
    """lhs <= rhs + coeff (1 + rhs) elementwise: a bool for scalars, else an array."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise ConditioningError("no verdict on a non-finite side of a bound")
    ok = lhs <= rhs + coeff * (1.0 + rhs)
    return bool(ok) if ok.ndim == 0 else ok


@dataclass
class PositivityCertificate:
    status: str                      # CERTIFIED | SAMPLED | VIOLATED
    samples: int = 0
    witness: np.ndarray | None = None
    witness_min_eig: float | None = None
    reason: str = ""

    def __post_init__(self):
        if self.status == VIOLATED and self.witness is None:
            raise InconsistencyError("a violated certificate must carry a witness")

    @classmethod
    def sampled(cls, worst: float, witness: np.ndarray, trials: int,
                scale: float) -> "PositivityCertificate":
        """``trials`` samples whose least eigenvalue ``worst`` was met at the
        unit vector ``witness``: violated below ``-1e-9 * scale``."""
        if worst < -1e-9 * scale:
            return cls(VIOLATED, trials, witness, float(worst),
                       "sampled value with a negative eigenvalue")
        return cls(SAMPLED, trials, witness, float(worst),
                   "no violation among sampled unit vectors")

    def require(self) -> None:
        """Refuse a map whose certificate is violated (``PreconditionError``)."""
        if self.status == VIOLATED:
            raise PreconditionError(
                f"map failed positivity sampling (min eig {self.witness_min_eig:.3e})")

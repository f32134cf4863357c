"""The four verdict workloads.

Each workload builds its inputs from the run seed and issues its checks one
after another through nclp's public functions: a closed loop with one client,
so a check starts only after the previous verdict is in.  Verdicts are gated
after the sweep, outside the timed region.  A sweep always issues the same
checks in the same order, so repeated sweeps in one run must agree exactly.
"""

from __future__ import annotations

import math
import re

import numpy as np

from nclp import cli, inequalities, radius, sesquilinear, suites
from nclp.algebra import TracedAlgebra
from nclp.sampling import random_complex_matrix, random_unit_vector, substreams

from hostspeed import ReferenceClock
from recorder import SUITES, Patch

OK_STATUSES = ("holds", "holds_within_tol")
# Warm-up inputs come from a fixed seed, so set-up work is the same every run.
WARMUP_SEED = 2 ** 32 + 17
ANCHOR_CHECKS = 3


def anchor_failures() -> list[str]:
    """w([[0,1],[0,0]]) = 1/2 and |||diag(1,0)|||_2 = |||I_2|||_2 = 1, exact."""
    fails = []
    shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    w = radius.numerical_radius(shift)
    if abs(w - 0.5) > 1e-8:
        fails.append(f"anchor w(shift) = {w!r}, expected 0.5")
    m2 = TracedAlgebra([2])
    for label, el in (("diag(1,0)", m2.diagonal([1.0, 0.0])), ("I_2", m2.identity())):
        res = radius.triple_norm(el)
        if res.status != "exact" or abs(res.value - 1.0) > 1e-9:
            fails.append(f"anchor |||{label}|||_2 = {res.value!r} ({res.status}), "
                         "expected 1 (exact)")
    return fails


class Workload:
    """A fixed list of checks, issued in order by ``sweep``."""

    name = ""
    min_sweeps = 1

    def __init__(self, seed: int):
        self.inputs = self.make_inputs(seed, self.size)
        self.warmup_input = self.make_inputs(WARMUP_SEED, 1)[0]

    def warm_up(self) -> None:
        self.check(self.warmup_input)

    def sweep(self, clock: ReferenceClock) -> list:
        """Issue every check once, timed by ``clock``; returns the outcomes."""
        return [clock.lap(self._attempt, inp) for inp in self.inputs]

    def _attempt(self, inp):
        try:
            return self.check(inp)
        except Exception as exc:              # a raising check is a failed check
            return exc

    def gate(self, outcomes: list, first: list | None) -> tuple[int, list[str]]:
        """(checks attempted, one message per failed check).

        ``first`` holds the outcomes of the run's first sweep; a later sweep
        whose outcome differs from it fails that check.
        """
        fails = []
        for i, (inp, res) in enumerate(zip(self.inputs, outcomes)):
            if isinstance(res, Exception):
                msg = f"raised {type(res).__name__}: {res}"
            else:
                msg = self.verdict_error(inp, res)
                if msg is None and first is not None \
                        and not isinstance(first[i], Exception) \
                        and self.fingerprint(res) != self.fingerprint(first[i]):
                    msg = "differs from the same check in the first sweep"
            if msg:
                fails.append(f"{self.name}[{i}]: {msg}")
        return len(outcomes), fails

    # -- per workload ----------------------------------------------------------

    size = 0

    def make_inputs(self, seed: int, n: int) -> list:
        raise NotImplementedError

    def check(self, inp):
        raise NotImplementedError

    def verdict_error(self, inp, res) -> str | None:
        raise NotImplementedError

    def fingerprint(self, res) -> tuple:
        raise NotImplementedError


def _report_error(rep) -> str | None:
    if rep.status not in OK_STATUSES:
        return f"status {rep.status} (lhs {rep.lhs!r}, rhs {rep.rhs!r})"
    if not (math.isfinite(rep.lhs) and math.isfinite(rep.rhs) and rep.rhs > 0.0):
        return f"non-finite or zero sides (lhs {rep.lhs!r}, rhs {rep.rhs!r})"
    return None


class CsSweep(Workload):
    """Criterion 1's shape: build a random Kraus map, check CS in L^p."""

    name = "cs_sweep"
    size = 600                       # a multiple of 8 targets x 4 dims x 3 ranks x 5 p
    P_CYCLE = (1.25, 1.5, 2.0, 3.0, 4.0)

    def __init__(self, seed: int):
        self.pool = suites.target_pool()
        super().__init__(seed)

    def make_inputs(self, seed: int, n: int) -> list:
        out = []
        for t, rng in enumerate(substreams(seed, n)):
            d = 1 + t % 4
            out.append((self.pool[t % len(self.pool)], d, 1 + t % 3,
                        int(rng.integers(0, 2 ** 62)), random_unit_vector(rng, d),
                        random_unit_vector(rng, d), self.P_CYCLE[t % len(self.P_CYCLE)]))
        return out

    def check(self, inp):
        target, d, rank, map_seed, x, y, p = inp
        phi = sesquilinear.random_map(d, target, rank=rank, seed=map_seed)
        return inequalities.check_cs_lp(phi, x, y, p,
                                        constant=inequalities.default_cs_constant(p))

    def verdict_error(self, inp, rep) -> str | None:
        return _report_error(rep)

    def fingerprint(self, rep) -> tuple:
        return rep.lhs, rep.rhs, rep.status


class OpValued(Workload):
    """Criterion 9's shape: one generator-form map, CS for the nr and triple2 norms."""

    name = "opvalued"
    size = 24                        # three rounds of 2 sources x 2 dims x 2 ranks
    BUDGET = dict(starts=64, iters=12)
    WARMUP_BUDGET = dict(starts=2, iters=2)

    def __init__(self, seed: int):
        self.sources = (TracedAlgebra([2]), TracedAlgebra([3]))
        super().__init__(seed)

    def make_inputs(self, seed: int, n: int) -> list:
        out = []
        for t, rng in enumerate(substreams(seed, n)):
            source = self.sources[t % 2]
            dim = source.total_dim
            d = 2 + (t // 2) % 2
            rank = 1 + (t // 4) % 2
            factors = [[random_complex_matrix(rng, dim, dim) for _ in range(d)]
                       for _ in range(rank)]
            out.append((source, factors, random_unit_vector(rng, d),
                        random_unit_vector(rng, d),
                        radius.SearchBudget(seed=int(rng.integers(0, 2 ** 31)),
                                            **self.BUDGET)))
        return out

    def warm_up(self) -> None:
        *inp, budget = self.warmup_input
        self.check((*inp, radius.SearchBudget(seed=budget.seed, **self.WARMUP_BUDGET)))

    def check(self, inp):
        source, factors, x, y, budget = inp
        phi = radius.OperatorValuedMap.from_generator(source, factors)
        return tuple(radius.check_cs_operator_valued(phi, x, y, norm, budget)
                     for norm in ("nr", "triple2"))

    def verdict_error(self, inp, reps) -> str | None:
        for norm, rep in zip(("nr", "triple2"), reps):
            msg = _report_error(rep)
            if msg:
                return f"{norm}: {msg}"
        return None

    def fingerprint(self, reps) -> tuple:
        return tuple((r.lhs, r.rhs, r.status) for r in reps)


class RadiusSingle(Workload):
    """One element at a time: w(F), the heuristic |||F|||_2 and the exact |||F F*|||_2."""

    name = "radius_single"
    size = 90                        # thirty each of M_2, M_3, M_4
    BUDGET = dict(starts=4, iters=25)

    def __init__(self, seed: int):
        self.algebras = tuple(TracedAlgebra([n]) for n in (2, 3, 4))
        super().__init__(seed)

    def make_inputs(self, seed: int, n: int) -> list:
        out = []
        for t, rng in enumerate(substreams(seed, n)):
            alg = self.algebras[t % 3]
            dim = alg.total_dim
            out.append((alg.element([random_complex_matrix(rng, dim, dim)]),
                        int(rng.integers(0, 2 ** 31))))
        return out

    def check(self, inp):
        f, budget_seed = inp
        w = radius.numerical_radius(f)
        heur = radius.triple_norm(f, radius.SearchBudget(seed=budget_seed, **self.BUDGET))
        exact = radius.triple_norm(f @ f.adjoint())
        return w, heur, exact

    def verdict_error(self, inp, res) -> str | None:
        w, heur, exact = res
        s = np.linalg.svd(inp[0].blocks[0], compute_uv=False)
        op, two = float(s[0]), float(np.sqrt(np.sum(s ** 2)))
        if not (0.5 * op - 1e-9 * (1 + op) <= w <= op + 1e-9 * (1 + op)):
            return f"w(F) = {w!r} outside [||F||/2, ||F||] with ||F|| = {op!r}"
        if not (w - 1e-6 <= heur.value <= two + 1e-9):
            return f"|||F|||_2 = {heur.value!r} outside [w(F), ||F||_2] = [{w!r}, {two!r}]"
        if exact.status != "exact" or abs(exact.value - op ** 2) > 1e-9 * (1 + op ** 2):
            return (f"|||F F*|||_2 = {exact.value!r} ({exact.status}), "
                    f"expected ||F||^2 = {op ** 2!r} (exact)")
        return None

    def fingerprint(self, res) -> tuple:
        w, heur, exact = res
        return w, heur.value, heur.status, exact.value


_WALL_TIME = re.compile(r'"wall_time_s": [^\n]*')


def strip_wall_time(text: str) -> str:
    return _WALL_TIME.sub('"wall_time_s": null', text)


class _SuiteClock(Patch):
    """Times each outermost call of a check-all suite as one lap of ``clock``;
    ``restore`` puts the suites back."""

    def __init__(self, clock: ReferenceClock) -> None:
        super().__init__()
        self.clock = clock
        self._depth = 0
        for name in SUITES:
            self.set(suites, name, self._timed(getattr(suites, name)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            try:
                if self._depth == 1:
                    return self.clock.lap(fn, *args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return timed


class CheckAll(Workload):
    """One in-process CLI batch: ``check-all --seed s`` then ``kernel-demo --seed s``.

    Each command, run and rendered, is one lap, so the sweep's time covers
    the CLI glue and the rendering too.  A check is one verdict of the batch:
    each of the ten check-all suites (a lap inside the check-all lap, timed at
    its outermost call) and the kernel-demo command.  The batch runs at least
    three times per run, so each verdict's time is a median and the renders
    can be compared byte for byte with ``wall_time_s`` stripped.
    """

    name = "check_all"
    min_sweeps = 3
    VERDICTS = len(SUITES) + 1
    # check-all's entries: one per suite, the uncertainty and GNS ones once each
    ENTRIES = len(SUITES)
    ONCE = ("uncertainty_suite", "gns-suite")

    def __init__(self, seed: int):
        self.argv = (["check-all", "--seed", str(seed)], ["kernel-demo", "--seed", str(seed)])

    def warm_up(self) -> None:
        cli.emit_report(cli.execute(cli.parse_config(
            ["kernel-demo", "--trials", "2", "--seed", str(WARMUP_SEED)])))

    def sweep(self, clock: ReferenceClock) -> list:
        suite_clock = _SuiteClock(clock)
        try:
            return [clock.lap(self._command, argv) for argv in self.argv]
        finally:
            suite_clock.restore()

    @staticmethod
    def _command(argv: list[str]):
        try:
            report = cli.execute(cli.parse_config(argv))
            return report, cli.emit_report(report)
        except Exception as exc:              # a raising command fails the batch
            return exc

    def gate(self, outcomes: list, first: list | None) -> tuple[int, list[str]]:
        attempted = self.VERDICTS
        fails = []
        bad = [o for o in outcomes if isinstance(o, Exception)]
        if bad:
            return attempted, [f"{self.name}: raised {type(e).__name__}: {e}" for e in bad]
        (batch, _), (demo, _) = outcomes
        names = [entry.get("check") for entry in batch.results]
        if len(names) != self.ENTRIES:
            fails.append(f"{self.name}: check-all gave {len(names)} entries, "
                         f"expected {self.ENTRIES}")
        for once in self.ONCE:
            if names.count(once) != 1:
                fails.append(f"{self.name}: check-all gave {names.count(once)} "
                             f"{once} entries, expected 1")
        for entry in batch.results + demo.results:
            msg = None
            if entry.get("status") not in OK_STATUSES:
                msg = f"status {entry.get('status')}"
            elif entry["check"] == "uncertainty_suite" and not (
                    abs(entry["gamma"] - math.sqrt(20.0)) <= 1e-9
                    and abs(entry["delta_product_at_zero"] - math.sqrt(89.0)) <= 1e-9):
                msg = (f"gamma {entry['gamma']!r} / delta product "
                       f"{entry['delta_product_at_zero']!r}, expected sqrt(20) / sqrt(89)")
            elif entry["check"] == "gns-suite" and (
                    entry["a11_quotient_dim"], entry["trace_quotient_dim"]) != (2, 4):
                msg = (f"quotient dims {entry['a11_quotient_dim']}, "
                       f"{entry['trace_quotient_dim']}, expected 2, 4")
            if msg:
                fails.append(f"{self.name}[{entry['check']}]: {msg}")
        if first is not None:
            attempted += 1
            same = all(not isinstance(f, Exception)
                       and strip_wall_time(o[1]) == strip_wall_time(f[1])
                       for o, f in zip(outcomes, first))
            if not same:
                fails.append(f"{self.name}: renders of the same seed differ "
                             "with wall_time_s stripped")
        return attempted, fails


WORKLOADS = {cls.name: cls for cls in (CsSweep, OpValued, RadiusSingle, CheckAll)}

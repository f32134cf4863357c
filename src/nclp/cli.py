"""Batch driver: parse a run configuration, dispatch checks, emit reports.

Every command is deterministic for a fixed (command, seed) pair: sweeps draw
from per-trial seed substreams, reports serialize floats as round-trip decimal
strings, and the wall-time field is the only part of a report that varies
between runs.  The process exits 0 exactly when no sub-result is violated.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

import numpy as np

from . import suites
from .algebra import TracedAlgebra, as_exponent, schatten_norm, trace
from .errors import (ConditioningError, DomainError, InconsistencyError, PreconditionError,
                     StructureError)
from .gns import gns_construct, verify_representation
from .inequalities import RatioProfile, default_cs_constant, ratio_sampler
from .kernels import KernelMap, kernel_by_name
from .matrixio import (_field, algebra_from_json, dump_deterministic, element_from_json,
                       fmt_float, gns_to_json, load_elements, load_json,
                       star_from_json)
from .radius import SearchBudget, numerical_radius, triple_norm
from .star import builtin as star_builtin
from .verdict import HOLDS, OK_STATUSES, status

VERSION = "1"

# flag and argparse options per RunConfig field; defaults are RunConfig's
FLAGS = {
    "seed": ("--seed", {"type": int}),
    "p": ("--p", {"type": str, "help": "exponent in [1, inf]; accepts 'inf'"}),
    "trials": ("--trials", {"type": int}),
    "dims": ("--dims", {"type": int, "help": "domain dimension"}),
    "budget_starts": ("--budget-starts", {"type": int}),
    "budget_iters": ("--budget-iters", {"type": int}),
    "constant": ("--constant", {"type": float}),
    "input_path": ("--input", {}),
    "output_path": ("--output", {}),
    "fmt": ("--format", {"choices": ("json", "csv")}),
    "tol": ("--tol", {"type": float}),
}

# faults of the input, not verdicts: main reports them on one line with exit 2
INPUT_ERRORS = (DomainError, StructureError, PreconditionError, InconsistencyError,
                ConditioningError, OSError)


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    p: float | None = None
    trials: int | None = None
    dims: int | None = None
    budget_starts: int = 16
    budget_iters: int = 24
    constant: float | None = None
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "json"
    tol: float | None = None

    def echo(self) -> dict:
        return {"command": self.command, "seed": self.seed, "p": self.p,
                "trials": self.trials, "dims": self.dims,
                "budget": {"starts": self.budget_starts, "iters": self.budget_iters},
                "constant": self.constant, "input": self.input_path,
                "output": self.output_path, "format": self.fmt, "tol": self.tol}


@dataclass
class RunReport:
    config: RunConfig
    results: list = field(default_factory=list)
    overall: str = HOLDS
    wall_time_s: float = 0.0

    def to_doc(self) -> dict:
        return {"version": VERSION, "config": _jsonable(self.config.echo()),
                "results": self.results, "summary": {"overall": self.overall},
                "wall_time_s": self.wall_time_s}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal, -1e-3 and
    -inf included, as a value and not as a flag (argparse's own test only
    knows -1 and -.5)."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nclp",
        description="Checkers for trace-normed matrix algebras: Cauchy-Schwarz "
                    "sweeps, radius norms, GNS constructions, kernel families.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, fields) in COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for dest in fields + ("output_path",):
            flag, opts = FLAGS[dest]
            p.add_argument(flag, dest=dest, **opts)
    return ap


def parse_config(argv: Sequence[str]) -> RunConfig:
    """The run configuration; a flag the command does not read is an error,
    and fields left unset keep their RunConfig defaults."""
    given = vars(build_parser().parse_args(argv))
    if "p" in given:
        given["p"] = as_exponent(given["p"]).value       # rejects p < 1
    cfg = RunConfig(**given)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    needs_input = {"norms", "numerical-radius", "triple-norm", "gns"}
    if cfg.command in needs_input and not cfg.input_path:
        raise DomainError(f"command {cfg.command!r} requires --input")
    if cfg.seed < 0:
        raise DomainError("--seed must be >= 0")
    if cfg.trials is not None and cfg.trials < 1:
        raise DomainError("--trials must be >= 1")
    if cfg.dims is not None and cfg.dims < 1:
        raise DomainError("--dims must be >= 1")
    for flag, count in (("--budget-starts", cfg.budget_starts),
                        ("--budget-iters", cfg.budget_iters)):
        if count < 0:
            raise DomainError(f"{flag} must be >= 0")
    if cfg.constant is not None and not 0.0 < cfg.constant < math.inf:
        raise DomainError("--constant must be a finite number > 0")
    if cfg.tol is not None and not math.isfinite(cfg.tol):
        raise DomainError("--tol must be finite")


# -- command implementations --------------------------------------------------------

def _tol(cfg: RunConfig) -> float:
    """Slack of the user-set ratio caps: --tol, or its default."""
    return cfg.tol if cfg.tol is not None else 1e-8


def _fields(r: dict) -> dict:
    """A suite's result without its name and wall time, which reports leave out."""
    return {k: v for k, v in r.items() if k not in ("name", "elapsed_s")}


def _named_entry(r: dict) -> dict:
    """The entry check-uncertainty and check-cs-opvalued print: the suite's
    fields, then its name as ``check``, then its status."""
    entry = _fields(r)
    verdict = entry.pop("status")
    return {**entry, "check": r["name"], "status": verdict}


def _cmd_norms(cfg: RunConfig) -> list:
    alg, elements = load_elements(cfg.input_path)
    ps = [1.0, 2.0, math.inf] + ([cfg.p] if cfg.p else [])
    results = []
    for name, el in elements.items():
        entry = {"check": "norms", "element": name,
                 "trace_re": trace(el).real, "trace_im": trace(el).imag}
        for p in ps:
            key = "norm_inf" if math.isinf(p) else f"norm_{p:g}"
            entry[key] = schatten_norm(el, p)
        entry["status"] = HOLDS
        results.append(entry)
    return results


def _cmd_numerical_radius(cfg: RunConfig) -> list:
    alg, elements = load_elements(cfg.input_path)
    return [{"check": "numerical-radius", "element": name,
             "value": numerical_radius(el), "status": HOLDS}
            for name, el in elements.items()]


def _cmd_triple_norm(cfg: RunConfig) -> list:
    alg, elements = load_elements(cfg.input_path)
    budget = SearchBudget(starts=cfg.budget_starts, iters=cfg.budget_iters,
                          seed=cfg.seed)
    out = []
    for name, el in elements.items():
        res = triple_norm(el, budget)
        out.append({"check": "triple-norm", "element": name, "value": res.value,
                    "upper_bound": res.upper_bound, "rank1_bound": res.rank1_bound,
                    "optimum": res.status, "status": HOLDS})
    return out


def _cmd_cs_lp(cfg: RunConfig) -> list:
    p = cfg.p if cfg.p is not None else 2.0
    trials = cfg.trials or 200
    constant = cfg.constant if cfg.constant is not None else default_cs_constant(p)
    stats = suites.cs_lp_sweep(trials, [p], seed=cfg.seed)["per_p"][str(p)]
    return [{"check": "check-cs-lp", "p": p, "constant": constant,
             "trials": trials, "max_ratio": stats["max_ratio"],
             "status": status(stats["max_ratio"] <= constant + _tol(cfg))}]


def _cmd_cs_normal(cfg: RunConfig) -> list:
    p = cfg.p if cfg.p is not None else 2.0
    trials = cfg.trials or 200
    stats = suites.cs_normal_sweep(trials, [p], seed=cfg.seed)["per_p"][str(p)]
    return [{"check": "check-cs-normal", "p": p, "trials": trials,
             "max_ratio": stats["max_ratio"],
             "status": status(stats["max_ratio"] <= 1.0 + _tol(cfg))}]


def _cmd_re_im(cfg: RunConfig) -> list:
    trials = cfg.trials or 200
    r = suites.re_im_sweep(trials, seed=cfg.seed)
    return [{"check": "check-re-im", "trials": trials, **_fields(r)}]


def _cmd_uncertainty(cfg: RunConfig) -> list:
    return [_named_entry(suites.uncertainty_suite())]


def _cmd_opvalued(cfg: RunConfig) -> list:
    return [_named_entry(suites.operator_valued_suite(
        cfg.trials or 20, seed=cfg.seed, starts=cfg.budget_starts, iters=cfg.budget_iters))]


def _cmd_gns(cfg: RunConfig) -> list:
    doc = load_json(cfg.input_path)
    dom_doc = _field(doc, "domain", dict)
    if "kind" in dom_doc:
        domain = star_builtin(_field(dom_doc, "kind", str), _field(dom_doc, "size", int))
    else:
        domain = star_from_json(dom_doc)
    target = algebra_from_json(_field(doc, "target", dict))
    omega = [element_from_json(target, blocks) for blocks in _field(doc, "omega", list)]
    if len(omega) != domain.dim:
        raise StructureError("omega must list one value per domain basis vector")
    rep = gns_construct(omega, domain, target, seed=cfg.seed)
    ver = verify_representation(rep, trials=cfg.trials or 50, seed=cfg.seed)
    entry = {"check": "gns", "representation": gns_to_json(rep),
             "verification": {"reconstruction": ver.reconstruction,
                              "multiplicativity": ver.multiplicativity,
                              "adjointness": ver.adjointness,
                              "cyclic_span_dim": ver.cyclic_span_dim},
             "status": suites.gns_status(rep, ver)}
    return [entry]


def _cmd_kernel_demo(cfg: RunConfig) -> list:
    if cfg.input_path:
        doc = load_json(cfg.input_path)
        alg = algebra_from_json(_field(doc, "algebra", dict))
        w = element_from_json(alg, _field(doc, "W"))
        t = element_from_json(alg, doc["T"]) if "T" in doc else None
        kdoc = _field(doc, "kernel", dict)
        kern = kernel_by_name(_field(kdoc, "name", str),
                              **{k: v for k, v in kdoc.items() if k != "name"})
        km = KernelMap(w, kern, t)
    else:
        alg = TracedAlgebra([2])
        km = KernelMap(alg.diagonal([1.0, 2.0]), kernel_by_name("one_plus_xt"))
    r = suites.kernel_bound_suite(km, trials=cfg.trials or 25, seed=cfg.seed)
    return [{"check": "kernel-demo", **_fields(r)}]


def _cmd_sample_ratios(cfg: RunConfig) -> list:
    profile = RatioProfile(p=cfg.p if cfg.p is not None else 2.0,
                           target=TracedAlgebra([2]),
                           domain_dim=cfg.dims if cfg.dims is not None else 2,
                           trials=cfg.trials or 10,
                           seed=cfg.seed)
    rows = ratio_sampler(profile)
    for row in rows:
        row["check"] = "sample-ratios"
        row["status"] = HOLDS
    return rows


def _cmd_check_all(cfg: RunConfig) -> list:
    """Reduced acceptance matrix for CI; deterministic per seed.

    One row per suite: the check name, the suite, its trial count as
    ``max(trials // divisor, floor)`` and the offset of its seed (None: the
    suite takes neither).  Each suite decides its own status.  The
    uncertainty row has no check name: its entry is the one
    check-uncertainty prints.
    """
    trials = cfg.trials or 100
    table = (
        ("cs-lp-matrix", partial(suites.cs_lp_sweep, p_values=(1.25, 1.5, 2.0, 3.0, 4.0)),
         (1, 1), 0),
        ("cs-normal-matrix", partial(suites.cs_normal_sweep, p_values=(1.5, 2.0, 3.0)),
         (1, 1), 1),
        ("re-im", suites.re_im_sweep, (1, 1), 2),
        (None, suites.uncertainty_suite, None, None),
        ("pairing-holder", suites.pairing_and_holder_suite, (1, 1), 3),
        ("tail-projections", suites.tail_projection_suite, (5, 5), 4),
        ("numerical-radius-suite", suites.numerical_radius_suite, (2, 10), 5),
        ("triple-norm-suite", suites.triple_norm_suite, (5, 5), 6),
        ("operator-valued-suite",
         partial(suites.operator_valued_suite, starts=cfg.budget_starts,
                 iters=cfg.budget_iters), (10, 4), 7),
        ("gns-suite", suites.gns_suite, (20, 3), 8),
    )
    results = []
    for check, suite, rule, offset in table:
        r = suite() if rule is None else suite(max(trials // rule[0], rule[1]),
                                               seed=cfg.seed + offset)
        results.append(_named_entry(r) if check is None else {"check": check, **_fields(r)})
    return results


# per command: its handler and the RunConfig fields it reads, besides
# output_path, which all read
COMMANDS = {
    "norms": (_cmd_norms, ("p", "input_path")),
    "check-cs-lp": (_cmd_cs_lp, ("seed", "p", "trials", "constant", "tol")),
    "check-cs-normal": (_cmd_cs_normal, ("seed", "p", "trials", "tol")),
    "check-re-im": (_cmd_re_im, ("seed", "trials")),
    "check-uncertainty": (_cmd_uncertainty, ()),
    "check-cs-opvalued": (_cmd_opvalued, ("seed", "trials", "budget_starts", "budget_iters")),
    "triple-norm": (_cmd_triple_norm, ("seed", "budget_starts", "budget_iters", "input_path")),
    "numerical-radius": (_cmd_numerical_radius, ("input_path",)),
    "gns": (_cmd_gns, ("seed", "trials", "input_path")),
    "kernel-demo": (_cmd_kernel_demo, ("seed", "trials", "input_path")),
    "sample-ratios": (_cmd_sample_ratios, ("seed", "p", "trials", "dims", "fmt")),
    "check-all": (_cmd_check_all, ("seed", "trials", "budget_starts", "budget_iters")),
}


def execute(cfg: RunConfig) -> RunReport:
    t0 = time.perf_counter()
    results = COMMANDS[cfg.command][0](cfg)
    report = RunReport(config=cfg, results=_jsonable(results))
    report.overall = status(all(r.get("status") in OK_STATUSES for r in results))
    report.wall_time_s = time.perf_counter() - t0
    return report


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


RATIO_CSV_COLUMNS = ("trial", "p", "d", "target_dims", "ratio", "lhs", "rhs", "seed")


def emit_report(report: RunReport, fmt: str = "json", path: str | None = None) -> str:
    """Render and optionally write the report; returns the rendered text."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RATIO_CSV_COLUMNS)
        for row in report.results:
            writer.writerow([row.get(c, "") if not isinstance(row.get(c), float)
                             else fmt_float(row.get(c)) for c in RATIO_CSV_COLUMNS])
        text = buf.getvalue()
    else:
        text = dump_deterministic(report.to_doc()) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
        report = execute(cfg)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_report(report, fmt=cfg.fmt, path=cfg.output_path)
    if not cfg.output_path:
        sys.stdout.write(text)
    return 0 if report.overall in OK_STATUSES else 1


if __name__ == "__main__":
    sys.exit(main())

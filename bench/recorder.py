"""Span recorder for the traced run, and the patcher that wraps nclp's layers.

The recorder keeps spans in flat in-memory arrays (name, parent, start, end)
and derives per-layer figures from them after the run.  ``install`` wraps,
from outside the package, every public module-level function of each ``nclp``
layer module, the methods in ``METHODS``, and the ``numpy.linalg``
eigensolvers and SVD.  Other methods are not wrapped: their time stays in
the self time of the public function that called them, and ``AlgebraElement``
constructions get a bare counter.  A function imported by name into other
modules (``schatten_norm`` is bound in ``radius``, ``suites``, ``kernels``,
...) is replaced in every ``nclp`` module that binds it, so calls made inside
the package are seen.  ``Patch.restore`` puts every binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

LAYERS = ("algebra", "star", "sesquilinear", "inequalities", "radius", "gns",
          "kernels", "sampling", "suites", "matrixio", "cli")
LINALG = ("eigvalsh", "eigh", "svd")

# Methods traced besides the module-level functions: (layer, class, method).
METHODS = (("radius", "OperatorValuedMap", "from_generator"),)

# The suites that ``check-all`` runs, reported by inclusive time.
SUITES = ("cs_lp_sweep", "cs_normal_sweep", "re_im_sweep", "uncertainty_suite",
          "pairing_and_holder_suite", "tail_projection_suite",
          "numerical_radius_suite", "triple_norm_suite", "operator_valued_suite",
          "gns_suite")


class Recorder:
    """Spans with parent links, plus bare counters, all kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @property
    def active(self) -> bool:
        """True while some span is open."""
        return bool(self._stack)

    def enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def retime(self, to: Callable[[np.ndarray], np.ndarray]) -> None:
        """Map every span's start and end through ``to``, e.g. to reference time."""
        a = self.arrays()
        self.start = array("d", to(a["start"]).tolist())
        self.end = array("d", to(a["end"]).tolist())

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["parent"], dur)
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def outermost_total(self, names: set[str]) -> dict[str, float]:
        """Inclusive seconds of spans named in ``names`` that are not nested in
        another span from ``names`` (a suite that calls another suite owns it)."""
        ids = {self._ids[nm] for nm in names if nm in self._ids}
        out = {nm: 0.0 for nm in names}
        for idx, nid in enumerate(self.name):
            if nid not in ids:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                out[self.names[nid]] += self.end[idx] - self.start[idx]
        return out


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    The run is single-threaded, so the children of a span are disjoint
    intervals inside it and their sum is the time they cover.
    """
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


class Patch:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _wrap(rec: Recorder, fn: Callable, name: str,
          on_result: Callable | None = None,
          name_of: Callable | None = None) -> Callable:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name_of(args, kwargs) if name_of else nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _wrap_linalg(rec: Recorder, fn: Callable, short: str) -> Callable:
    """Count calls and stacked matrices made from inside an nclp span."""
    nid = rec.name_id(f"linalg.{short}")
    key = f"linalg.{short}.matrices"

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if not rec.active:
            return fn(a, *args, **kwargs)
        rec.counts[key] += math.prod(np.shape(a)[:-2])
        idx = rec.enter(nid)
        try:
            return fn(a, *args, **kwargs)
        finally:
            rec.exit(idx)

    return wrapper


def _hooks(rec: Recorder) -> dict[str, dict]:
    """Extra bookkeeping for spans whose result or arguments carry a metric."""

    def triple_result(res) -> None:
        rec.counts["radius.triple_norm.exact"] += res.status == "exact"

    def opvalued_result(rep) -> None:
        rec.counts["radius.check_cs_operator_valued.escalated"] += \
            bool(rep.witness.get("escalated"))

    def report_text(text: str) -> None:
        rec.counts["matrixio.report_bytes"] += len(text.encode("utf-8"))

    superop_ids = {kind: rec.name_id(f"radius.superop_norm.{kind}")
                   for kind in ("nr", "triple2", "schatten")}
    superop_other = rec.name_id("radius.superop_norm")

    def superop_name(args, kwargs) -> int:
        kind = kwargs.get("target_norm", args[1] if len(args) > 1 else "nr")
        return superop_ids.get(kind, superop_other)

    return {"radius.triple_norm": {"on_result": triple_result},
            "radius.check_cs_operator_valued": {"on_result": opvalued_result},
            "radius.superop_norm": {"name_of": superop_name},
            "cli.emit_report": {"on_result": report_text}}


def install(rec: Recorder) -> Patch:
    """Wrap every layer of the loaded nclp package; returns the undo record."""
    patch = Patch()
    hooks = _hooks(rec)
    modules = {layer: importlib.import_module(f"nclp.{layer}") for layer in LAYERS}
    # every binding of every object in every nclp module, by identity
    bound: dict[int, list[tuple[object, str]]] = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "nclp" or modname.startswith("nclp."):
            for attr, obj in vars(mod).items():
                bound.setdefault(id(obj), []).append((mod, attr))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapper = _wrap(rec, obj, name, **hooks.get(name, {}))
            for owner, owner_attr in bound[id(obj)]:
                patch.set(owner, owner_attr, wrapper)
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        member = vars(cls)[meth]
        wrapped = _wrap(rec, member.__func__, f"{layer}.{cls_name}.{meth}")
        patch.set(cls, meth, type(member)(wrapped))

    element_cls = modules["algebra"].AlgebraElement
    init = element_cls.__init__

    def counting_init(self, *args, **kwargs):
        rec.counts["algebra.elements_built"] += 1
        init(self, *args, **kwargs)

    patch.set(element_cls, "__init__", counting_init)
    for short in LINALG:
        patch.set(np.linalg, short, _wrap_linalg(rec, getattr(np.linalg, short), short))
    return patch


# Spans reported by call count and self time, and by self time alone.
CALLS_AND_SELF = ("algebra.schatten_norm", "algebra.polar_decomposition",
                  "sesquilinear.random_map", "sesquilinear.evaluate",
                  "sesquilinear.check_positivity", "sesquilinear.check_left_invariance",
                  "inequalities.check_cs_lp", "radius.numerical_radius",
                  "radius.triple_norm", "radius.superop_norm.nr",
                  "radius.superop_norm.triple2", "radius.check_cs_operator_valued",
                  "gns.gns_construct")
SELF_ONLY = ("inequalities.uncertainty_check", "radius.OperatorValuedMap.from_generator",
             "gns.verify_representation", "kernels.bound_checks",
             "sampling.parallel_map", "matrixio.dump_deterministic", "cli.execute",
             "cli.emit_report")


def layer_metrics(rec: Recorder, traced_sweep_s: float,
                  untraced_sweep_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced sweep, as ``name -> (value, unit)``.

    ``<layer>.self_s`` sums the self time of every span of the layer; for
    ``sampling`` it leaves out ``parallel_map``, which is reported on its own.
    """
    spans = rec.summary()

    def stat(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    calls = matrices = 0
    for short in LINALG:
        c = stat(f"linalg.{short}", "calls")
        m = rec.counts[f"linalg.{short}.matrices"]
        out[f"linalg.{short}.calls"] = (c, "count")
        out[f"linalg.{short}.matrices"] = (m, "count")
        calls, matrices = calls + c, matrices + m
    out["linalg.matrices_per_call"] = (matrices / calls if calls else 0.0, "ratio")
    for layer in ("linalg",) + LAYERS:
        total = sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))
        if layer == "sampling":
            total -= stat("sampling.parallel_map", "self_s")
        out[f"{layer}.self_s"] = (total, "s")
    out["algebra.elements_built"] = (rec.counts["algebra.elements_built"], "count")
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for name, key in (("radius.triple_norm", "exact"),
                      ("radius.check_cs_operator_valued", "escalated")):
        n = stat(name, "calls")
        out[f"{name}.{key}_share"] = (rec.counts[f"{name}.{key}"] / n if n else 0.0, "ratio")
    suites = rec.outermost_total({f"suites.{s}" for s in SUITES})
    for s in SUITES:
        out[f"suites.{s}.total_s"] = (suites[f"suites.{s}"], "s")
    out["matrixio.report_bytes"] = (rec.counts["matrixio.report_bytes"], "bytes")
    out["trace.overhead_frac"] = (traced_sweep_s / untraced_sweep_s - 1.0, "ratio")
    return out

"""Shared structured-text (JSON) formats for algebras, elements, star algebras
and reports.

Floats are serialized as shortest round-trip decimal strings (at most 17
significant digits), so IEEE-754 doubles survive a save/load cycle bit-exactly.
All writers emit keys in a fixed order, making reports byte-reproducible.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra
from .errors import DomainError, StructureError
from .star import StarAlgebra

__all__ = ["fmt_float", "save_elements", "load_elements", "element_to_json",
           "element_from_json", "algebra_to_json", "algebra_from_json",
           "star_from_json", "save_json", "load_json", "gns_to_json", "dump_deterministic"]

FORMAT_ELEMENTS = "nclp-matrix/1"
FORMAT_STAR = "nclp-star/1"


def fmt_float(x: float) -> str:
    """Shortest decimal that parses back to the exact same double."""
    return repr(float(x))


def _real_matrix(rows: Sequence[Sequence[float]]) -> np.ndarray:
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise StructureError("matrix entries must be nested lists of numbers") from None


def algebra_to_json(alg: TracedAlgebra) -> dict:
    return {"blocks": list(alg.block_sizes), "weights": [float(w) for w in alg.weights]}


def algebra_from_json(doc: dict) -> TracedAlgebra:
    blocks = _numbers("blocks", _field(doc, "blocks"), int)
    weights = None if doc.get("weights") is None else _numbers("weights", doc["weights"])
    return TracedAlgebra(blocks, weights)


def _complex_to_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def element_to_json(el: AlgebraElement) -> list[dict]:
    return [_complex_to_json(b) for b in el.blocks]


def _field(doc: Any, key: str, kind: type = object) -> Any:
    """``doc[key]``, or StructureError when doc is not an object holding key or
    the value is not a ``kind`` (JSON true/false is not an int)."""
    if not isinstance(doc, dict) or key not in doc:
        raise StructureError(f"document has no {key!r} field")
    val = doc[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise StructureError(f"field {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


def _is_number(val: Any, kind: type = float) -> bool:
    """Whether ``val`` is a JSON ``kind``; a float may be written as an integer,
    and true/false is neither."""
    return isinstance(val, (int, float) if kind is float else kind) and not isinstance(val, bool)


def _numbers(key: str, vals: Any, kind: type = float) -> list:
    """``vals``, or StructureError when it is not a list of ``kind`` items."""
    if not isinstance(vals, list) or not all(_is_number(v, kind) for v in vals):
        what = "int" if kind is int else "number"
        raise StructureError(f"field {key!r} must be a list of {what}s")
    return vals


def _complex_array(doc: Any) -> np.ndarray:
    """The complex array stored as ``{"re": ..., "im": ...}``; both parts must
    have one shape (no broadcasting)."""
    re, im = (_real_matrix(_field(doc, key, list)) for key in ("re", "im"))
    if re.shape != im.shape:
        raise StructureError(f"'re' and 'im' must have one shape, got {re.shape} and {im.shape}")
    return re + 1j * im


def element_from_json(alg: TracedAlgebra, blocks: Sequence[dict]) -> AlgebraElement:
    if not isinstance(blocks, list):
        raise StructureError(f"element blocks must be a list, got {type(blocks).__name__}")
    mats = [_complex_array(b) for b in blocks]
    if not all(np.isfinite(m).all() for m in mats):
        raise DomainError("element entries must be finite")
    return AlgebraElement(alg, mats)


def save_elements(path: str, alg: TracedAlgebra,
                  elements: dict[str, AlgebraElement]) -> None:
    doc = {"format": FORMAT_ELEMENTS,
           "algebra": algebra_to_json(alg),
           "elements": [{"name": name, "blocks": element_to_json(el)}
                        for name, el in elements.items()]}
    save_json(path, doc)


def load_elements(path: str) -> tuple[TracedAlgebra, dict[str, AlgebraElement]]:
    doc = load_json(path)
    if _field(doc, "format") != FORMAT_ELEMENTS:
        raise StructureError(f"not an element file: format={doc['format']!r}")
    alg = algebra_from_json(_field(doc, "algebra", dict))
    out = {}
    for entry in _field(doc, "elements", list):
        out[_field(entry, "name", str)] = element_from_json(alg, _field(entry, "blocks"))
    return alg, out


def star_from_json(doc: dict) -> StarAlgebra:
    if _field(doc, "format") != FORMAT_STAR:
        raise StructureError(f"not a star-algebra document: {doc['format']!r}")
    return StarAlgebra(**{k: _complex_array(_field(doc, k)) for k in ("mult", "invol", "unit")})


def gns_to_json(rep) -> dict:
    """Serializable summary of a GnsRepresentation (frame, pi, residuals)."""
    return {
        "quotient_dim": rep.quotient_dim,
        "null_dim": rep.null_basis.shape[1],
        "null_basis": _complex_to_json(rep.null_basis),
        "frame": _complex_to_json(rep.quotient_frame),
        "pi": [_complex_to_json(m) for m in rep.pi],
        "cyclic": _complex_to_json(rep.cyclic),
        "residuals": {k: (v if isinstance(v, int) else float(v))
                      for k, v in rep.residuals.items()},
    }


def dump_deterministic(doc: Any) -> str:
    """JSON text with fixed separators and preserved key order."""
    return json.dumps(doc, indent=1, separators=(",", ": "), allow_nan=False)


def save_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_deterministic(doc))
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructureError(f"{path} is not JSON: {exc}") from None

"""Shared structured-text (JSON) formats for algebras, elements and maps.

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
from .sesquilinear import SesquilinearMap
from .star import StarAlgebra

__all__ = ["fmt_float", "save_elements", "load_elements", "element_to_json",
           "element_from_json", "algebra_to_json", "algebra_from_json",
           "save_gram", "load_gram", "superop_to_json", "superop_from_json",
           "star_to_json", "star_from_json", "save_json", "load_json",
           "gns_to_json", "dump_deterministic"]

FORMAT_ELEMENTS = "nclp-matrix/1"
FORMAT_GRAM = "nclp-gram/1"
FORMAT_SUPEROP = "nclp-superop/1"
FORMAT_STAR = "nclp-star/1"


def fmt_float(x: float) -> str:
    """Shortest decimal that parses back to the exact same double."""
    return repr(float(x))


def _real_matrix(rows: Sequence[Sequence[float]]) -> np.ndarray:
    return np.asarray(rows, dtype=float)


def algebra_to_json(alg: TracedAlgebra) -> dict:
    return {"blocks": list(alg.block_sizes), "weights": [float(w) for w in alg.weights]}


def algebra_from_json(doc: dict) -> TracedAlgebra:
    return TracedAlgebra(_field(doc, "blocks"), doc.get("weights"))


def element_to_json(el: AlgebraElement) -> list[dict]:
    return [{"re": b.real.tolist(), "im": b.imag.tolist()} for b in el.blocks]


def _field(doc: Any, key: str) -> Any:
    """``doc[key]``, or StructureError when doc is not an object holding key."""
    if not isinstance(doc, dict) or key not in doc:
        raise StructureError(f"document has no {key!r} field")
    return doc[key]


def _complex_array(doc: Any) -> np.ndarray:
    """The complex array stored as ``{"re": ..., "im": ...}``."""
    return _real_matrix(_field(doc, "re")) + 1j * _real_matrix(_field(doc, "im"))


def element_from_json(alg: TracedAlgebra, blocks: Sequence[dict]) -> AlgebraElement:
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
    alg = algebra_from_json(_field(doc, "algebra"))
    out = {}
    for entry in _field(doc, "elements"):
        out[_field(entry, "name")] = element_from_json(alg, _field(entry, "blocks"))
    return alg, out


def save_gram(path: str, phi: SesquilinearMap) -> None:
    entries = []
    for i in range(phi.domain_dim):
        for j in range(phi.domain_dim):
            entries.append({"i": i, "j": j, "blocks": element_to_json(phi.gram[i][j])})
    doc = {"format": FORMAT_GRAM,
           "algebra": algebra_to_json(phi.target),
           "gram": {"domain_dim": phi.domain_dim, "entries": entries}}
    save_json(path, doc)


def load_gram(path: str) -> SesquilinearMap:
    doc = load_json(path)
    if doc.get("format") != FORMAT_GRAM:
        raise StructureError(f"not a gram file: format={doc.get('format')!r}")
    alg = algebra_from_json(doc["algebra"])
    d = int(doc["gram"]["domain_dim"])
    gram: list[list[AlgebraElement | None]] = [[None] * d for _ in range(d)]
    for entry in doc["gram"]["entries"]:
        gram[int(entry["i"])][int(entry["j"])] = element_from_json(alg, entry["blocks"])
    if any(g is None for row in gram for g in row):
        raise StructureError("gram file is missing entries")
    return SesquilinearMap(alg, gram)  # type: ignore[arg-type]


def superop_to_json(source: TracedAlgebra, target_dim: int, matrix: np.ndarray) -> dict:
    return {"format": FORMAT_SUPEROP,
            "source": algebra_to_json(source),
            "target_dim": int(target_dim),
            "basis": "source coordinates block-major, row-major inside blocks",
            "matrix": {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}}


def superop_from_json(doc: dict):
    from .radius import SuperOperator
    if _field(doc, "format") != FORMAT_SUPEROP:
        raise StructureError(f"not a superoperator document: {doc['format']!r}")
    source = algebra_from_json(_field(doc, "source"))
    return SuperOperator(source, int(_field(doc, "target_dim")),
                         _complex_array(_field(doc, "matrix")))


def star_to_json(alg: StarAlgebra) -> dict:
    return {"format": FORMAT_STAR, "dim": alg.dim,
            "mult": {"re": alg.mult.real.tolist(), "im": alg.mult.imag.tolist()},
            "invol": {"re": alg.invol.real.tolist(), "im": alg.invol.imag.tolist()},
            "unit": {"re": alg.unit.real.tolist(), "im": alg.unit.imag.tolist()}}


def star_from_json(doc: dict) -> StarAlgebra:
    if _field(doc, "format") != FORMAT_STAR:
        raise StructureError(f"not a star-algebra document: {doc['format']!r}")
    return StarAlgebra(**{k: _complex_array(_field(doc, k)) for k in ("mult", "invol", "unit")})


def gns_to_json(rep) -> dict:
    """Serializable summary of a GnsRepresentation (frame, pi, residuals)."""
    return {
        "quotient_dim": rep.quotient_dim,
        "null_dim": rep.null_basis.shape[1],
        "null_basis": {"re": rep.null_basis.real.tolist(),
                       "im": rep.null_basis.imag.tolist()},
        "frame": {"re": rep.quotient_frame.real.tolist(),
                  "im": rep.quotient_frame.imag.tolist()},
        "pi": [{"re": m.real.tolist(), "im": m.imag.tolist()} for m in rep.pi],
        "cyclic": {"re": rep.cyclic.real.tolist(), "im": rep.cyclic.imag.tolist()},
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

import json
import math

import numpy as np
import pytest

from nclp.algebra import TracedAlgebra
from nclp.errors import StructureError
from nclp.matrixio import (algebra_from_json, algebra_to_json, dump_deterministic,
                           element_from_json, element_to_json, fmt_float,
                           load_elements, load_gram, save_elements, save_gram, save_json,
                           star_from_json, star_to_json)
from nclp.sesquilinear import random_map
from nclp.star import cyclic_group_algebra, matrix_algebra

from conftest import random_element_of


def awkward_floats():
    return [0.1, 1.0 / 3.0, math.pi, 2.0 ** -1074, 1.7976931348623157e308,
            -0.0, 1e-300, 123456789.123456789]


class TestFloatRoundTrip:
    def test_fmt_float_bit_exact(self):
        for x in awkward_floats():
            assert float(fmt_float(x)) == x

    def test_json_bit_exact(self):
        doc = {"values": awkward_floats()}
        back = json.loads(dump_deterministic(doc))
        assert all(a == b for a, b in zip(back["values"], doc["values"]))


class TestElementsFile:
    def test_round_trip(self, tmp_path, weighted, rng):
        x = random_element_of(weighted, rng)
        y = random_element_of(weighted, rng)
        path = str(tmp_path / "elements.json")
        save_elements(path, weighted, {"X": x, "Y": y})
        alg, loaded = load_elements(path)
        assert alg == weighted
        for name, orig in (("X", x), ("Y", y)):
            for a, b in zip(loaded[name].blocks, orig.blocks):
                assert np.array_equal(a, b)      # bit-exact

    def test_algebra_round_trip(self):
        alg = TracedAlgebra([2, 3], [0.1, 1.0 / 3.0])
        back = algebra_from_json(json.loads(dump_deterministic(algebra_to_json(alg))))
        assert back == alg

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"format": "other"}, fh)
        with pytest.raises(StructureError):
            load_elements(path)


class TestGramFile:
    def test_round_trip(self, tmp_path, tr2):
        phi = random_map(3, tr2, rank=2, seed=7)
        path = str(tmp_path / "gram.json")
        save_gram(path, phi)
        loaded = load_gram(path)
        assert loaded.domain_dim == 3
        for i in range(3):
            for j in range(3):
                assert np.array_equal(loaded.gram[0][i, j], phi.gram[0][i, j])

    def _saved_doc(self, tmp_path, tr2):
        path = str(tmp_path / "gram.json")
        save_gram(path, random_map(2, tr2, rank=1, seed=3))
        with open(path) as fh:
            return path, json.load(fh)

    def test_missing_entry_rejected(self, tmp_path, tr2):
        path, doc = self._saved_doc(tmp_path, tr2)
        del doc["gram"]["entries"][1]
        save_json(path, doc)
        with pytest.raises(StructureError, match="missing entries"):
            load_gram(path)

    def test_missing_gram_section_rejected(self, tmp_path, tr2):
        path, doc = self._saved_doc(tmp_path, tr2)
        del doc["gram"]
        save_json(path, doc)
        with pytest.raises(StructureError, match="'gram'"):
            load_gram(path)


class TestStarFile:
    @pytest.mark.parametrize("alg", [matrix_algebra(2), cyclic_group_algebra(5)])
    def test_round_trip(self, alg):
        back = star_from_json(json.loads(dump_deterministic(star_to_json(alg))))
        assert back == alg


class TestDeterminism:
    def test_identical_bytes(self, weighted, rng):
        x = random_element_of(weighted, rng)
        a = dump_deterministic({"algebra": algebra_to_json(weighted),
                                "el": element_to_json(x)})
        b = dump_deterministic({"algebra": algebra_to_json(weighted),
                                "el": element_to_json(x)})
        assert a == b

    def test_element_json_parse(self, weighted, rng):
        x = random_element_of(weighted, rng)
        doc = json.loads(dump_deterministic({"blocks": element_to_json(x)}))
        back = element_from_json(weighted, doc["blocks"])
        assert all(np.array_equal(a, b) for a, b in zip(back.blocks, x.blocks))

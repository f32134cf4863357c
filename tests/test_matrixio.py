import json
import math

import numpy as np
import pytest

from nclp.algebra import TracedAlgebra
from nclp.errors import StructureError
from nclp.matrixio import (algebra_from_json, algebra_to_json, dump_deterministic,
                           element_from_json, element_to_json, fmt_float,
                           load_elements, save_elements, star_from_json)
from nclp.star import cyclic_group_algebra

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


# nclp-star/1 documents of Z_2 and Z_3, written out by hand
STAR_DOCS = {2: """{"format": "nclp-star/1",
 "mult": {"re": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
          "im": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
 "invol": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
 "unit": {"re": [1, 0], "im": [0, 0]}}""",
             3: """{"format": "nclp-star/1",
 "mult": {"re": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                 [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
          "im": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]},
 "invol": {"re": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
           "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
 "unit": {"re": [1, 0, 0], "im": [0, 0, 0]}}"""}


class TestStarFile:
    @pytest.mark.parametrize("alg", [cyclic_group_algebra(2), cyclic_group_algebra(3)])
    def test_round_trip(self, alg):
        # a literal document, not one this package wrote, reads back as the builtin
        assert star_from_json(json.loads(STAR_DOCS[alg.dim])) == alg


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

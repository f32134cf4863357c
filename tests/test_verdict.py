"""The verdict module: its rules, its refusals and its ownership of the status words."""

import ast
import math
import pathlib

import numpy as np
import pytest

import nclp
from nclp import verdict
from nclp.errors import ConditioningError, InconsistencyError, PreconditionError
from nclp.verdict import PositivityCertificate, report, within

STATUS_WORDS = {verdict.HOLDS, verdict.WITHIN_TOL, verdict.VIOLATED, verdict.CERTIFIED,
                verdict.SAMPLED, verdict.EXACT, verdict.HEURISTIC}


class TestReport:
    @pytest.mark.parametrize("lhs, rhs", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                          (0.5, math.nan), (-math.inf, 0.0)])
    def test_non_finite_side_is_refused(self, lhs, rhs):
        with pytest.raises(ConditioningError, match="non-finite"):
            report(lhs, rhs, {})

    def test_statuses(self):
        assert report(1.0, 1.0, {}).status == verdict.HOLDS
        assert report(0.0, 0.0, {}).ratio == 0.0
        assert report(1.0 + 5e-9, 1.0, {}).ok


class TestWithin:
    def test_scalars_give_a_bool(self):
        assert within(1.0, 1.0, 1e-9) is True
        assert within(1.0 + 1e-6, 1.0, 1e-9) is False

    def test_arrays_elementwise_relative_slack(self):
        lhs = np.array([1.0, 1e6 + 1e-4, 1e6 + 1e-2, 0.5])
        rhs = np.array([1.0, 1e6, 1e6, 0.0])
        np.testing.assert_array_equal(within(lhs, rhs, 1e-9), [True, True, False, False])

    @pytest.mark.parametrize("lhs, rhs", [(1.0, math.inf), (math.nan, 1.0),
                                          ([0.0, math.inf], [1.0, 1.0])])
    def test_non_finite_side_is_refused(self, lhs, rhs):
        with pytest.raises(ConditioningError, match="non-finite"):
            within(lhs, rhs, 1e-9)


class TestPositivityCertificate:
    def test_sampled_decides_at_the_threshold(self):
        x = np.array([1.0 + 0j])
        # scale 10: the threshold is -1e-9 * 10 = -1e-8
        held = PositivityCertificate.sampled(-0.9e-8, x, 64, 10.0)
        assert held.status == verdict.SAMPLED and held.samples == 64
        assert held.witness_min_eig == -0.9e-8
        failed = PositivityCertificate.sampled(-1.1e-8, x, 64, 10.0)
        assert failed.status == verdict.VIOLATED
        assert failed.witness is x

    def test_require_refuses_only_a_violated_certificate(self):
        PositivityCertificate(status=verdict.CERTIFIED).require()
        PositivityCertificate.sampled(0.0, np.ones(1), 8, 1.0).require()
        cert = PositivityCertificate.sampled(-0.25, np.ones(1), 8, 1.0)
        with pytest.raises(PreconditionError) as exc:
            cert.require()
        assert str(exc.value) == "map failed positivity sampling (min eig -2.500e-01)"

    def test_violated_needs_a_witness(self):
        with pytest.raises(InconsistencyError):
            PositivityCertificate(status=verdict.VIOLATED)

    def test_package_exports(self):
        assert nclp.PositivityCertificate is PositivityCertificate
        assert nclp.InequalityReport is verdict.InequalityReport


def _status_literals(path: pathlib.Path) -> list[str]:
    """Status words spelled as string constants in a module, leaving out
    docstrings and dict keys (a witness may carry a ``"heuristic"`` key)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                skip.add(id(body[0].value))
        elif isinstance(node, ast.Dict):
            skip.update(id(k) for k in node.keys if k is not None)
    return [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in STATUS_WORDS and id(node) not in skip]


def test_status_words_are_spelled_only_in_verdict():
    src = pathlib.Path(nclp.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) if path.name != "verdict.py"
             for hit in _status_literals(path)]
    assert found == []

"""The check-all suites compute each value once: call counts of the layers
they drive."""

import pytest

from nclp import inequalities, suites


def counted(monkeypatch, module, name):
    """Wrap ``module.name`` so the returned dict counts its calls in ``["n"]``."""
    calls = {"n": 0}
    f = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return f(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSuiteWork:
    def test_uncertainty_takes_each_delta_once(self, monkeypatch):
        calls = counted(monkeypatch, inequalities, "schatten_norm")
        r = suites.uncertainty_suite()
        assert r["grid_points"] == 42 * 42
        # per axis: one Delta per point of its 42-point grid and at most five
        # minimiser candidates (the two ends, three roots of the cubic slope);
        # one gamma per check; the commuting check's grids hold one point each
        assert calls["n"] <= 2 * (42 + 5) + 1 + (2 + 1)

    @pytest.mark.parametrize("trials", [1, 4])
    def test_tail_projections_once_per_anchor(self, monkeypatch, trials):
        calls = counted(monkeypatch, suites, "spectral_tail_projection")
        r = suites.tail_projection_suite(trials, seed=3)
        assert r["status"] == "holds"
        # 8 thresholds per anchor, shared by the three exponents
        assert calls["n"] == 8 * trials

    @pytest.mark.parametrize("instances", [1, 3])
    def test_operator_valued_builds_each_instance_once(self, monkeypatch, instances):
        calls = counted(monkeypatch, suites, "random_operator_valued")
        r = suites.operator_valued_suite(instances, seed=0, starts=2, iters=2)
        assert r["status"] == "holds"
        # 8 d = 1 probes, then one map per instance checked in both target norms
        assert calls["n"] == 8 + instances

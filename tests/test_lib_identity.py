"""Smoke test of tools/lib_identity.py on a few cases of its panel."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "lib_identity", os.path.join(ROOT, "tools", "lib_identity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lib_identity_finds_no_difference_between_a_tree_and_itself():
    tool = _tool()
    results = tool.run(ROOT, links=6, pairs=3, groups=1)
    assert [len(results[name]) for name in tool.FUNCTIONS] == [6, 24, 6, 6, 3, 1]
    report = tool.compare(results, tool.run(ROOT, links=6, pairs=3, groups=1))
    assert report == {name: (len(results[name]), 0, 0.0, []) for name in tool.FUNCTIONS}


def test_compare_sorts_results_by_point_and_rate_bits():
    tool = _tool()
    old = {name: [[[3, 7, []], [1.0]]] for name in tool.FUNCTIONS}
    new = {name: [[[3, 7, []], [1.0]]] for name in tool.FUNCTIONS}
    new["discretize"] = [[[3, 7, []], [1.0000000000000002]]]
    new["exhaustive_search"] = [[[3, 8, []], [1.0]]]
    report = tool.compare(old, new)
    assert report["solve_continuous"] == (1, 0, 0.0, [])
    same, bits, worst, moved = report["discretize"]
    assert (same, bits, moved) == (0, 1, []) and worst == pytest.approx(2.22e-16, rel=1e-3)
    assert report["exhaustive_search"] == (0, 0, 0.0, [0])

"""The verify suites as one run: shared solves, and the work each run makes."""

from __future__ import annotations

import pytest

from bicmaps import paths
from bicmaps.suites import SUITES, CheckResult, SuiteRun, run_suite, suite_paths


@pytest.mark.parametrize("order", [1, 2, 5])
def test_all_equals_single_suites(order):
    # at quad order 1 the shared ladder has order + p + 1 = 3 entries, as
    # many as suite_slices' two-point table reads
    singles = [check for name in SUITES for check in run_suite(name, order, 1)]
    together = run_suite("all", order, 1)
    assert [(c.name, c.passed, c.detail) for c in together] == [
        (c.name, c.passed, c.detail) for c in singles
    ]


def test_check_result_fields_by_name():
    passed, failed = CheckResult("a/b", True), CheckResult("a/c", False, "why")
    assert (passed.name, passed.passed, passed.detail) == ("a/b", True, "")
    assert (failed.name, failed.passed, failed.detail) == ("a/c", False, "why")


def test_run_solves_each_ladder_once(monkeypatch):
    import bicmaps.suites as suites

    solved = []
    real = suites.ladder_solve

    def counting(g, ring, height=None):
        solved.append(g)
        return real(g, ring, height)

    monkeypatch.setattr(suites, "ladder_solve", counting)
    run_suite("all", 3, 1)
    assert len(solved) == len(set(solved)) == 4  # quad, hex, mixed, oct


def test_run_reads_tails_from_its_ladders(monkeypatch):
    from bicmaps import closedform, hankel, slices, suites

    def refuse(*args):
        raise AssertionError("a second solve of the tails")

    for module in (slices, hankel, closedform, suites):
        monkeypatch.setattr(module, "tail_solve", refuse, raising=False)
    assert all(check.passed for check in run_suite("all", 3, 1))


def test_dimers_alone_solves_no_ladder(monkeypatch):
    import bicmaps.suites as suites

    def refuse(*args, **kwargs):
        raise AssertionError("a ladder solve for tails alone")

    monkeypatch.setattr(suites, "ladder_solve", refuse)
    assert all(check.passed for check in run_suite("dimers", 3, 1))


def test_run_suite_all_product_count(series_products):
    # one recursion solve per family, whose tails every other route reads:
    # 5591 products when each suite solved its own ladders and tails, 4559
    # before inv_unit stopped multiplying series, 3585 before the slice rows
    # went by first passage, 3181 before the dimer column walked the brackets,
    # 3175 before suite_hankel built one Hankel family per moment list and
    # tricolor_closed_check left the rotation and the characteristic
    # identity to their own checks, 3147 with a graded sweep at the order,
    # 2952 before cf_expand walked the ladder's Dyck paths
    run_suite("all", 7, 1)
    assert series_products[0] <= 2872


def _counting(monkeypatch, name):
    calls = [0]
    real = getattr(paths, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(paths, name, counting)
    return calls


def test_suite_paths_rat_path_count(monkeypatch):
    # each unconstrained drop once per point: 1931 calls when each use computes its own
    calls = _counting(monkeypatch, "rat_path")
    suite_paths(SuiteRun(7, 1))
    assert calls[0] <= 496


def test_suite_paths_tallies_each_shape_once(monkeypatch):
    # 102 path shapes reach the brute oracle; 506 word sets with one per point
    calls = _counting(monkeypatch, "word_tally")
    suite_paths(SuiteRun(7, 1))
    assert calls[0] == 102

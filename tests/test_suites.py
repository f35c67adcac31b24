"""The verify suites as one run: shared solves, and the work each run makes."""

from __future__ import annotations

import pytest

from bicmaps import dimers, paths, slices
from bicmaps.series import variable
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
    # every series product of a full verify run, with one recursion solve
    # per family, whose tails every other route reads
    run_suite("all", 7, 1)
    assert series_products[0] <= 2570


def _counting(monkeypatch, name):
    calls = [0]
    real = getattr(paths, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(paths, name, counting)
    return calls


def test_suite_paths_rational_walk_count(monkeypatch):
    # the balanced-sum walks: at each of 5 points one per floored start and
    # color (3 odd white starts, 4 even black ones) and one free walk from 0
    # for the drops, each read at every end and length
    calls = _counting(monkeypatch, "_balanced_walk")
    suite_paths(SuiteRun(7, 1))
    assert calls[0] <= 40


def test_suite_paths_tallies_each_shape_once(monkeypatch):
    # 102 path shapes reach the brute oracle; 506 word sets with one per point
    calls = _counting(monkeypatch, "word_tally")
    suite_paths(SuiteRun(7, 1))
    assert calls[0] == 102


POINTS = range(5)


def _wrong_drop(monkeypatch):
    real = paths.BalancedSums.drop

    def drop(self, j, length):
        value = real(self, j, length)
        return value + 1 if (abs(j), length) == (1, 8) else value

    monkeypatch.setattr(paths.BalancedSums, "drop", drop)


def _wrong_walk_value(start):
    """A fault in the floored balanced walk from ``start``: one more at
    its start height after 8 steps (read by the walks, not the brute
    oracle, which serves lengths up to 6)."""

    def plant(monkeypatch):
        real = paths._balanced_walk

        def walk(*args):
            for step, cur in enumerate(real(*args)):
                if (args[0], args[3], step) == (start, 0, 8):
                    cur = {**cur, start: cur.get(start, 0) + 1}
                yield cur

        monkeypatch.setattr(paths, "_balanced_walk", walk)

    return plant


def _wrong_strip(monkeypatch):
    # the strips down from height 3 serve offset d = 1 only; a multiple of
    # t_black t_white keeps the division by the root weight exact
    real = slices._series_walk

    def walk(start, ends, *args):
        for cur in real(start, ends, *args):
            if start == 3 and ends[0] < start and ends[0] in cur:
                value = cur[ends[0]]
                nv, order = value.num_vars, value.order
                fault = variable(nv, order, 0) * variable(nv, order, 1)
                cur = {**cur, ends[0]: value + fault}
            yield cur

    monkeypatch.setattr(slices, "_series_walk", walk)


def _wrong_closed_value(monkeypatch):
    real = dimers.zhd_closed_values

    def values(*args, **kwargs):
        out = real(*args, **kwargs)
        out[3] += 1
        return out

    monkeypatch.setattr(dimers, "zhd_closed_values", values)


def _wrong_segment_polynomial(monkeypatch):
    # one more on the constant term of the 5-link polynomial of each walk
    from bicmaps import suites

    real = suites.zhd

    def zhd(*args, **kwargs):
        polys = real(*args, **kwargs)
        polys[5] = polys[5] + 1
        return polys

    monkeypatch.setattr(suites, "zhd", zhd)


@pytest.mark.parametrize(
    "plant, suites, failing",
    [
        (
            _wrong_drop,
            ("paths",),
            {f"paths/reflection-{kind}-point-{p}" for kind in ("odd", "even") for p in POINTS},
        ),
        (
            _wrong_walk_value(0),
            ("paths",),
            {f"paths/reflection-even-point-{p}" for p in POINTS} | {"paths/dp-vs-brute"},
        ),
        (_wrong_walk_value(1), ("paths",), {f"paths/reflection-odd-point-{p}" for p in POINTS}),
        (
            _wrong_strip,
            ("slices", "general"),
            {
                "slices/quad/conserved-offset-independence",
                "slices/hex/conserved-offset-independence",
                "slices/mixed/conserved-offset-independence",
                "general/oct/conserved-independence",
            },
        ),
        (_wrong_closed_value, ("dimers",), {"dimers/closed-forms-at-rational-points"}),
        (_wrong_segment_polynomial, ("dimers",), {"dimers/transfer-vs-brute"}),
    ],
    ids=["drop", "even-walk", "odd-walk", "strip", "closed-value", "segment-polynomial"],
)
def test_each_one_walk_check_can_fail(monkeypatch, plant, suites, failing):
    # one planted fault per restructured check: every check passes without
    # it, and with it the named ones fail, and nothing else
    def failed():
        results = [check for name in suites for check in run_suite(name, 7, 1)]
        return {check.name for check in results if not check.passed}

    assert failed() == set()
    plant(monkeypatch)
    assert failed() == failing

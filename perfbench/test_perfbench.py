"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def test_upper_is_the_sample_with_ten_beyond_it():
    values = list(range(1, 51))  # 50 samples
    value, percentile = run.upper(reversed(values))
    assert value == 40
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(40 / 50)


def test_upper_of_a_short_run_is_the_third_quartile():
    assert run.upper([3.0]) == (3.0, 0.75)
    assert run.upper([4.0, 1.0, 3.0, 2.0, 5.0]) == (4.0, 0.75)
    assert run.upper(range(1, 40)) == (29.5, 0.75)
    assert run.upper(range(1, 41))[0] == 30


def test_spread_is_interquartile_range_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, _, q3 = 2.75, 5.5, 8.25
    assert run.spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping) and [8, 9];
    # the first child has its own child [1.5, 2].
    synthetic = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 3.0),
        ("b", 0, 2.0, 6.0),
        ("a", 0, 8.0, 9.0),
        ("c", 1, 1.5, 2.0),
    ]
    stats = spans.aggregate(synthetic)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert stats["a"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}
    assert stats["b"]["self_s"] == 4.0
    assert stats["c"]["self_s"] == 0.5


def test_nested_same_name_counts_calls_but_not_time_twice():
    synthetic = [("f", -1, 0.0, 4.0), ("g", 0, 1.0, 3.0), ("f", 1, 1.5, 2.5)]
    stats = spans.aggregate(synthetic)
    assert stats["f"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert stats["g"]["self_s"] == 1.0


def test_covered_clips_to_the_span():
    assert spans.covered(0.0, 5.0, [(-1.0, 1.0), (4.0, 9.0), (0.5, 2.0)]) == 3.0


def _document(argv):
    from bicmaps.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _tamper(text: str) -> str:
    doc = json.loads(text)
    term = doc["records"][0]["terms"][-1]
    term["numerator"] = str(int(term["numerator"]) + 1)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_tampered_document_fails_and_counts_in_failed_share():
    workload = workloads.WORKLOADS["twopoint-quad"]
    text = _document(["twopoint", "--family", "quad", "--order", "5", "--i-max", "3"])
    verdicts = workloads.judge(workload, 1, ROOT, [text, text, _tamper(text), None])
    # the small order is not the golden document, so only the route checks speak
    route_only = [[p for p in v if "golden" not in p] for v in verdicts]
    assert route_only[0] == [] and route_only[1] == []
    assert any("independent route" in p for p in route_only[2])
    assert any("first run" in p for p in route_only[2])
    assert route_only[3] == ["no document"]


def test_golden_digest_catches_any_change():
    workload = workloads.WORKLOADS["closed-hex"]
    verdicts = workloads.judge(workload, 1, ROOT, ['{"records": []}\n'])
    assert any("golden" in p for p in verdicts[0])


def test_independent_routes_accept_small_documents():
    hex_doc = _document(
        ["ladder", "--family", "hex", "--route", "closed", "--order", "6", "--i-max", "4"]
    )
    assert workloads.check_closed_hex(ROOT, json.loads(hex_doc)) == []
    mixed = _document(
        ["ladder", "--family", "general", "--g", "2/5,1", "--route", "determinant",
         "--order", "5", "--i-max", "4"]
    )
    assert workloads.check_determinant_mixed(ROOT, json.loads(mixed)) == []
    assert workloads.check_determinant_mixed(ROOT, json.loads(_tamper(mixed)))


def test_verify_all_needs_every_check_and_the_recorded_count():
    checks = [{"name": str(i), "passed": True, "detail": ""} for i in range(74)]
    assert workloads.check_verify_all(ROOT, {"passed": True, "checks": checks}) == []
    assert workloads.check_verify_all(ROOT, {"passed": True, "checks": checks[:-1]})
    assert workloads.check_verify_all(ROOT, {"passed": False, "checks": checks})


def test_child_past_its_timeout_is_a_failed_run():
    argv = ["twopoint", "--family", "quad", "--order", "12", "--i-max", "6"]
    crashed = run.spawn(argv, False, timeout=0.01)
    assert crashed == {"crash": ["timeout after 0.01 s"]}
    assert run.run_problems(crashed) == ["child crashed: ['timeout after 0.01 s']"]


def test_unknown_workload_is_rejected():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "no-such-workload"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert proc.stdout == ""


def test_tracer_replaces_every_binding():
    import bicmaps.cli
    import bicmaps.extensions
    import bicmaps.series
    import bicmaps.suites

    tricolor = bicmaps.extensions.tricolor_solve
    suite = bicmaps.suites.SUITES["series"]
    try:
        tracer = spans.Tracer()
        tracer.install()
        assert bicmaps.cli.tricolor_solve is not tricolor
        assert bicmaps.cli.tricolor_solve is bicmaps.extensions.tricolor_solve
        assert bicmaps.suites.SUITES["series"] is not suite
        x, y = bicmaps.series.SeriesRing(2, 3).gens()
        _ = (x + y) * (x - y)
        stats = spans.aggregate(tracer.spans())
        assert stats["series.mul"]["calls"] == 1
        assert stats["series.add"]["calls"] == 2
    finally:
        # fresh, unwrapped modules for the tests that follow
        for name in [m for m in sys.modules if m == "bicmaps" or m.startswith("bicmaps.")]:
            del sys.modules[name]


def test_benchmark_json_lists_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == spans.layer_metrics()

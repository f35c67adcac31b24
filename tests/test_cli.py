"""Command-line interface: documents, determinism, exit codes, round trips."""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicmaps
from bicmaps import cli
from bicmaps.cli import main
from bicmaps.rational import rat
from bicmaps.series import MSeries, SeriesRing
from bicmaps.slices import FaceWeights, ladder_solve

from helpers import S, assert_series
from printed import QUAD_G1


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def record_to_series(record, num_vars, order) -> MSeries:
    coeffs = {}
    for term in record["terms"]:
        coeffs[tuple(term["exponents"])] = rat(
            int(term["numerator"]), int(term["denominator"])
        )
    return MSeries(num_vars, order, coeffs, record["reliable"])


def test_twopoint_quad_document(capsys):
    code, out = run_cli(
        capsys, "twopoint", "--family", "quad", "--order", "5", "--i-max", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["variables"] == ["t_black", "t_white"]
    byname = {r["name"]: r for r in doc["records"]}
    assert set(byname) == {f"G_{c}_{i}" for c in ("black", "white") for i in (1, 2, 3)}
    g1 = record_to_series(byname["G_black_1"], 2, 5)
    assert_series(g1, S(2, 5, QUAD_G1), label="emitted G_black_1")


def test_record_terms_sorted(capsys):
    _, out = run_cli(capsys, "twopoint", "--family", "hex", "--order", "6")
    doc = json.loads(out)
    for record in doc["records"]:
        keys = [(sum(t["exponents"]), tuple(t["exponents"])) for t in record["terms"]]
        assert keys == sorted(keys)
        assert all(t["numerator"] != "0" for t in record["terms"])


def test_json_round_trip_matches_memory(capsys):
    _, out = run_cli(
        capsys, "ladder", "--family", "quad", "--order", "6", "--i-max", "4"
    )
    doc = json.loads(out)
    ladder = ladder_solve(FaceWeights.quadrangulations(), SeriesRing(2, 6))
    byname = {r["name"]: r for r in doc["records"]}
    for i in range(1, 5):
        assert record_to_series(byname[f"B_{i}"], 2, 6) == ladder.black_weight(i)
        assert record_to_series(byname[f"W_{i}"], 2, 6) == ladder.white_weight(i)


def test_routes_agree_through_cli(capsys):
    outputs = {}
    for route in ("recursion", "closed", "determinant"):
        _, out = run_cli(
            capsys,
            "ladder", "--family", "quad", "--order", "6", "--i-max", "3",
            "--route", route,
        )
        doc = json.loads(out)
        outputs[route] = {r["name"]: record_to_series(r, 2, 6) for r in doc["records"]}
    for name in outputs["recursion"]:
        a = outputs["recursion"][name]
        for route in ("closed", "determinant"):
            b = outputs[route][name]
            bound = min(a.reliable, b.reliable)
            assert a.truncate(bound) == b.truncate(bound), (name, route)


def test_determinism_byte_identical(capsys):
    args = ("twopoint", "--family", "hex", "--order", "6", "--seed", "11")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    args = ("verify", "--suite", "series", "--order", "5", "--seed", "3")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_csv_layout(capsys):
    _, out = run_cli(
        capsys, "twopoint", "--family", "quad", "--order", "4", "--format", "csv"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "exp_t_black", "exp_t_white", "numerator", "denominator"]
    assert all(len(row) == 5 for row in rows[1:])
    assert any(row[0] == "G_black_1" for row in rows[1:])


def test_csv_verify_rows_are_the_json_checks(capsys):
    args = ("verify", "--suite", "series", "--order", "3")
    _, out = run_cli(capsys, *args, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "passed", "detail"]
    _, out = run_cli(capsys, *args)
    checks = json.loads(out)["checks"]
    assert checks and rows[1:] == [
        [c["name"], "1" if c["passed"] else "0", c["detail"]] for c in checks
    ]


# -- the document writer against json.dumps of per-term dicts ----------------


def dict_record(name, f):
    """A record as a dict per term, as json.dumps would be handed it."""
    terms = [
        {"exponents": list(e), "numerator": str(c.numerator), "denominator": str(c.denominator)}
        for e, c in f.terms()
    ]
    return {"name": name, "reliable": f.reliable, "terms": terms}


def csv_rows(variables, records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name"] + [f"exp_{v}" for v in variables] + ["numerator", "denominator"])
    for record in records:
        for term in record["terms"]:
            writer.writerow(
                [record["name"]]
                + [str(x) for x in term["exponents"]]
                + [term["numerator"], term["denominator"]]
            )
    return buf.getvalue()


@st.composite
def named_series(draw, num_vars):
    """A name and a series, often the zero series or one with Fractions."""
    order = draw(st.integers(0, 5))
    expos = st.tuples(*(st.integers(0, 5) for _ in range(num_vars)))
    coeffs = st.one_of(
        st.integers(-10**12, 10**12),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60)),
    )
    terms = draw(st.dictionaries(expos, coeffs, max_size=6))
    return draw(st.text(max_size=6)), MSeries(num_vars, order, terms, draw(st.integers(0, order)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(named_series(n), max_size=4)), st.data())
def test_document_writer_equals_json_dumps_and_the_csv_rows(pairs, data):
    header = {
        "command": "ladder",
        "order": data.draw(st.integers(1, 9)),
        "seed": data.draw(st.integers(-5, 5)),
        "variables": ["t_black", "t_white", "t_third"],
        "face_weights": data.draw(st.lists(st.sampled_from(["1/5", "-1/2", "1"]), max_size=3)),
    }
    records = [cli.series_record(name, f) for name, f in pairs]
    dicts = [dict_record(name, f) for name, f in pairs]
    text = cli._render(header, records, argparse.Namespace(fmt="json"))
    assert text == json.dumps({**header, "records": dicts}, indent=2, sort_keys=True) + "\n"
    text = cli._render(header, records, argparse.Namespace(fmt="csv"))
    assert text == csv_rows(header["variables"], dicts)


def test_document_writer_writes_a_zero_series_and_a_check_list():
    header = {"command": "verify", "checks": [{"name": "a", "passed": True, "detail": "x\ny"}]}
    text = cli._render(header, None, argparse.Namespace(fmt="json"))
    assert text == json.dumps(header, indent=2, sort_keys=True) + "\n"
    record = cli.series_record("Z", MSeries(2, 3, {}))
    text = cli._render({"order": 3}, [record], argparse.Namespace(fmt="json"))
    assert '"terms": []' in text
    assert json.loads(text) == {"order": 3, "records": [{"name": "Z", "reliable": 3, "terms": []}]}


def test_dimers_document(capsys):
    code, out = run_cli(capsys, "dimers", "--links", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["variables"] == ["s1", "s2"]
    byname = {r["name"]: r for r in doc["records"]}
    assert "zhd_bw_3" in byname and "zhd_bb_2" in byname
    three = {tuple(t["exponents"]): t["numerator"] for t in byname["zhd_bw_3"]["terms"]}
    assert three == {(0, 0): "1", (1, 0): "2", (0, 1): "1", (2, 0): "1"}


def test_tricolor_document(capsys):
    code, out = run_cli(capsys, "tricolor", "--order", "4", "--i-max", "3")
    assert code == 0
    doc = json.loads(out)
    names = {r["name"] for r in doc["records"]}
    assert {"T_1", "U_2", "V_3", "y", "d", "e", "a_hat"} <= names
    assert doc["variables"] == ["t_black", "t_white", "t_third"]


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "series", "--order", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_dimers_many_seeds(capsys):
    # the sampled (c, x) points must dodge the degenerate x = 1 for any seed
    for seed in (0, 1, 7, 99, 1234):
        code, _ = run_cli(
            capsys, "verify", "--suite", "dimers", "--order", "4", "--seed", str(seed)
        )
        assert code == 0, seed


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["twopoint", "--family", "quad", "--order", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["twopoint", "--family", "general", "--order", "4"])  # missing --g
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["twopoint", "--family", "general", "--g", "1,0", "--order", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["dimers", "verify"])
def test_i_max_rejected_where_unused(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--order", "4", "--i-max", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --i-max" in capsys.readouterr().err


@pytest.mark.parametrize(
    "env, argv, message",
    [
        ({"BICMAPS_ORDER": "abc"}, ["twopoint", "--family", "quad"], "BICMAPS_ORDER"),
        ({}, ["twopoint", "--family", "general", "--g", "1,1"], "g_1 = 1"),
        ({}, ["ladder", "--family", "general", "--g", "1,0,1"], "g_1 = 1"),
        ({}, ["twopoint", "--family", "quad", "--g", "0,1"], "--g applies only"),
        ({}, ["hankel", "--family", "hex", "--g", "0,0,1"], "--g applies only"),
        ({}, ["ladder", "--family", "ternary", "--g", "1"], "--g applies only"),
        ({}, ["twopoint", "--family", "general", "--g=1/0"], "bad face weight list"),
        ({}, ["twopoint", "--family", "general", "--g=x"], "bad face weight list"),
        ({}, ["twopoint", "--family", "general", "--g=,"], "face weight list is empty"),
        ({}, ["twopoint", "--family", "general", "--g", "0,,1"], "bad face weight list"),
        ({}, ["twopoint", "--family", "general", "--g", "0,1,"], "bad face weight list"),
        ({}, ["twopoint", "--family", "general", "--g=,0,1"], "bad face weight list"),
        ({}, ["twopoint", "--family", "general", "--g", "1,0"], "nonzero last entry"),
        ({}, ["ladder", "--family", "ternary", "--route", "determinant"],
         "route 'determinant' is not defined for ternary"),
        ({}, ["twopoint", "--family", "quad", "--i-max", "0"], "--i-max must be at least 1"),
        ({}, ["ladder", "--family", "tricolor", "--route", "closed"],
         "family tricolor supports --route recursion"),
        ({}, ["dimers", "--links", "-1"], "--links must be non-negative"),
    ],
    ids=["order-env-not-int", "g1-one-twopoint", "g1-one-ladder", "g-with-quad",
         "g-with-hex", "g-with-ternary", "g-zero-denominator", "g-not-a-number",
         "g-empty", "g-blank-middle", "g-blank-last", "g-blank-first", "g-zero-last",
         "ternary-determinant", "i-max-zero", "tricolor-closed", "links-negative"],
)
def test_usage_errors_are_clean(capsys, monkeypatch, series_products, env, argv, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert series_products[0] == 0  # refused before any solve


@pytest.mark.parametrize("g", ["0,2", "0,1/2", "0,0,3"])
def test_closed_route_refuses_other_face_weights(capsys, series_products, g):
    # the closed forms assume a top face weight of 1 and no lower weights;
    # refused before the tails are solved (6 products at order 4 when after)
    with pytest.raises(SystemExit) as exc:
        main(["ladder", "--family", "general", "--g", g, "--route", "closed", "--order", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "closed forms cover" in err and "Traceback" not in err
    assert series_products[0] == 0


@pytest.mark.parametrize("g, family", [("0,1", "quad"), ("0,0,1", "hex")])
def test_closed_route_general_weights_of_a_named_family(capsys, g, family):
    args = ("ladder", "--route", "closed", "--order", "5", "--i-max", "3")
    _, general = run_cli(capsys, *args, "--family", "general", "--g", g)
    _, named = run_cli(capsys, *args, "--family", family)
    assert json.loads(general)["records"] == json.loads(named)["records"]

def test_env_var_default_order(capsys, monkeypatch):
    monkeypatch.setenv("BICMAPS_ORDER", "4")
    _, out = run_cli(capsys, "twopoint", "--family", "quad")
    assert json.loads(out)["order"] == 4
    # explicit flag wins over the environment
    _, out = run_cli(capsys, "twopoint", "--family", "quad", "--order", "3")
    assert json.loads(out)["order"] == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code = main(
        ["twopoint", "--family", "quad", "--order", "4", "--output", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["command"] == "twopoint"
    assert capsys.readouterr().out == ""


def test_output_under_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.json"
    with pytest.raises(SystemExit) as exc:
        main(["twopoint", "--family", "quad", "--order", "3", "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(target) in err and "No such file or directory" in err
    assert "Traceback" not in err


def test_importing_the_cli_skips_dataclasses():
    # dataclasses imports inspect and ast, and each decorated class execs
    # generated methods: a fixed cost in the start-up of every command
    src = str(Path(bicmaps.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bicmaps.cli; "
        "print('dataclasses' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"


# -- every command, family and route at the lowest orders ----------------------

SWEEP = (
    [["twopoint", "--family", f] for f in ("quad", "hex")]
    + [["twopoint", "--family", "general", "--g", "0,0,0,1"]]
    + [
        ["ladder", "--family", f, "--route", r]
        for f in ("quad", "hex")
        for r in ("recursion", "closed", "determinant")
    ]
    + [
        ["ladder", "--family", "general", "--g", "0,0,0,1", "--route", r]
        for r in ("recursion", "determinant")
    ]
    + [
        ["ladder", "--family", f, "--route", r]
        for f in ("ternary", "binary")
        for r in ("recursion", "closed")
    ]
    + [["ladder", "--family", "tricolor"]]
    + [["hankel", "--family", f] for f in ("quad", "hex")]
    + [["hankel", "--family", "general", "--g", "0,0,0,1"]]
    + [["dimers"], ["tricolor"]]
    + [["verify", "--suite", s] for s in ("series", "paths", "slices", "hankel",
                                          "closedform", "dimers", "extensions",
                                          "general", "all")]
)
# (command line, order) pairs that must be refused with a usage error
REFUSED = {("ladder --family hex --route closed", 1): "truncation order at least 2"}
# verify checks whose compared series are reliable to degree 0 only, by order
SKIPPED = {
    1: {
        "hankel/quad/extraction-vs-recursion",
        "hankel/hex/extraction-vs-recursion",
        "closedform/quad/closed-vs-recursion",
        "closedform/quad/uncolored-collapse",
        "extensions/ternary/closed-vs-perturbative",
        "extensions/binary/closed-vs-perturbative",
        "general/oct/extraction-vs-recursion",
        "general/oct/conserved-independence",
        "dimers/quad/segment-vs-determinant",
        "dimers/hex/segment-vs-determinant",
        "hankel/quad/expansion-vs-direct",
        "hankel/hex/expansion-vs-direct",
        "closedform/quad/y-relation",
    }
    | {f"series/division-roundtrip-{trial}" for trial in range(4)}
    | {
        f"slices/{label}/conserved-{check}"
        for label in ("quad", "hex", "mixed")
        for check in ("offset-independence", "equals-direct")
    },
    2: {
        "closedform/quad/uncolored-collapse",
        "closedform/hex/closed-vs-recursion",
        "closedform/hex/uncolored-collapse",
        "closedform/hex/weights-resolve-unity",
    },
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "argv", SWEEP, ids=lambda argv: "-".join(a for a in argv if a[0] != "-" and "," not in a)
)
def test_every_command_runs_at_low_order(capsys, argv, order):
    message = REFUSED.get((" ".join(argv), order))
    if message:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--order", str(order)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        return
    code, out = run_cli(capsys, *argv, "--order", str(order))
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == order
    if argv[0] == "verify":
        assert doc["passed"]
        suite = argv[2]
        skipped = {c["name"] for c in doc["checks"] if c["detail"].startswith("skipped: ")}
        assert skipped == {n for n in SKIPPED[order] if suite in ("all", n.split("/")[0])}


def test_pairs_reliable_to_degree_zero_still_compare_constant_terms():
    from bicmaps.suites import SuiteRun

    def const(c, reliable):
        return MSeries(2, 3, {(0, 0): c, (1, 0): reliable}, reliable)

    run = SuiteRun(3, 0)
    run.pairs_agree("equal", [(const(1, 0), const(1, 0))])
    run.pairs_agree("constants-differ", [(const(1, 0), const(2, 0))])
    run.pairs_agree("reliable", [(const(1, 1), const(1, 1))])
    run.pairs_agree("told-why", [(const(1, 0), const(2, 0))], "index 0 disagrees")
    run.pairs_agree("passed-why", [(const(1, 1), const(1, 1))], "index 0 disagrees")
    got = [(c.name, c.passed, c.detail.split(":")[0]) for c in run.results]
    assert got == [
        ("equal", True, "skipped"),
        ("constants-differ", False, "first differing coefficient at (0, 0)"),
        ("reliable", True, ""),
        ("told-why", False, "index 0 disagrees"),
        ("passed-why", True, ""),
    ]

"""Command-line interface: documents, determinism, exit codes, round trips."""

from __future__ import annotations

import csv
import io
import json

import pytest

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
    ],
    ids=["order-env-not-int", "g1-one-twopoint", "g1-one-ladder", "g-with-quad",
         "g-with-hex", "g-with-ternary"],
)
def test_usage_errors_are_clean(capsys, monkeypatch, env, argv, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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

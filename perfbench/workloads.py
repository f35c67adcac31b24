"""The four benchmark workloads and the checks that judge their documents.

Each workload is one ``bicmaps`` command line.  ``--order`` is always given
explicitly so that ``BICMAPS_ORDER`` cannot change a workload; the benchmark
seed varies only the inputs named in ``argv`` below.

A document is judged three ways: it must be byte-identical across the runs
of one workload and seed, equal to the golden digest recorded at the commit
that introduced the benchmark (where the document does not depend on the
seed), and agree with an independent route through each entry's
``reliable`` bound.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# g_1 for determinant-mixed.  All share denominator 5, which keeps the
# coefficient sizes and run time of different seeds comparable; 4/5 is left
# out because 1/(1 - 4/5) = 5 makes every output coefficient an integer.
MIXED_G1 = ("1/5", "2/5", "3/5")

# Independent recursion solves for closed-hex stop at this order: the full
# order-14 solve costs about twice the timed call.  The golden digest pins
# every coefficient of the document.
HEX_CHECK_ORDER = 10

VERIFY_CHECK_COUNT = 74


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the JSON document, recorded at the commit that introduced the
# benchmark.  determinant-mixed has one per choice of g_1; verify-all echoes
# its seed and has none.
GOLDEN = {
    "twopoint-quad": "d8f843fc9bc4714dbff50ca11cb4bcfc0c00eb74644ee029dcb7953c2a4fea7b",
    "closed-hex": "79c95d23b45bf10721a35b4d4530722db2b91492eeb517cb456da2bd40f42ba0",
    "determinant-mixed 1/5": (
        "087b73ba6e4f8e2a48fcfb85b316ebc53cfb0dba016455b7ddff8eb89c2be43e"
    ),
    "determinant-mixed 2/5": (
        "d0bfcf7d2fb87c3fe02ea2624c1fc5bbafe13329d731471cc7a8eb5ac21f7142"
    ),
    "determinant-mixed 3/5": (
        "b10d1e2f23bd1551387d1916b3f2a725370bbb18ce7a254cbc85f540bbc93bde"
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    golden_key: Callable[[int], str | None]
    check: Callable[[str, dict], list[str]]


def mixed_g1(seed: int) -> str:
    return MIXED_G1[seed % len(MIXED_G1)]


# -- reading documents -------------------------------------------------------


def records(doc: dict) -> dict[str, tuple[int, dict[tuple, Fraction]]]:
    """name -> (reliable, {exponents: coefficient}) for a series document."""
    out = {}
    for rec in doc.get("records", []):
        coeffs = {
            tuple(t["exponents"]): Fraction(int(t["numerator"]), int(t["denominator"]))
            for t in rec["terms"]
        }
        out[rec["name"]] = (rec["reliable"], coeffs)
    return out


def output_stats(doc: dict) -> tuple[float, int]:
    """(share of non-integer coefficients, largest numerator/denominator bits)."""
    terms = [t for rec in doc.get("records", []) for t in rec["terms"]]
    if not terms:
        return 0.0, 0
    nonint = sum(1 for t in terms if t["denominator"] != "1")
    bits = max(
        max(abs(int(t["numerator"])).bit_length(), int(t["denominator"]).bit_length())
        for t in terms
    )
    return nonint / len(terms), bits


def _differs(coeffs: dict, want: dict, through: int) -> tuple | None:
    """First exponent of total degree <= through where the two disagree."""
    for e in sorted(set(coeffs) | set(want), key=lambda e: (sum(e), e)):
        if sum(e) > through:
            break
        if coeffs.get(e, 0) != want.get(e, 0):
            return e
    return None


def _compare(problems: list[str], recs: dict, name: str, want: dict, through: int) -> None:
    if name not in recs:
        problems.append(f"record {name} is missing")
        return
    reliable, coeffs = recs[name]
    e = _differs(coeffs, want, min(reliable, through))
    if e is not None:
        problems.append(f"{name} differs from the independent route at {list(e)}")


def _compare_series(problems, recs, name, series) -> None:
    _compare(problems, recs, name, dict(series.coeffs), series.reliable)


def _printed_tables(root: str):
    """The frozen expansions of tests/printed.py, loaded by path."""
    path = os.path.join(root, "tests", "printed.py")
    spec = importlib.util.spec_from_file_location("bicmaps_printed_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- independent routes --------------------------------------------------------


def check_twopoint_quad(root: str, doc: dict) -> list[str]:
    """Against the closed-form pipeline and the printed two-point tables."""
    from bicmaps.closedform import twopoint_closed
    from bicmaps.series import SeriesRing
    from bicmaps.slices import FaceWeights

    recs, problems = records(doc), []
    i_max = doc["i_max"]
    table = twopoint_closed(FaceWeights.quadrangulations(), SeriesRing(2, doc["order"]), i_max)
    for i in range(1, i_max + 1):
        _compare_series(problems, recs, f"G_black_{i}", table.g_black(i))
        _compare_series(problems, recs, f"G_white_{i}", table.g_white(i))
    for i, (want, deg) in _printed_tables(root).QUAD_TWOPOINT.items():
        if i <= i_max:
            _compare(problems, recs, f"G_black_{i}", want, min(deg, doc["order"]))
    return problems


def check_closed_hex(root: str, doc: dict) -> list[str]:
    """Against the recursion route and the printed hexangulation ladder."""
    from bicmaps.series import SeriesRing
    from bicmaps.slices import FaceWeights, ladder_solve

    recs, problems = records(doc), []
    i_max = doc["i_max"]
    g = FaceWeights.hexangulations()
    order = min(doc["order"], HEX_CHECK_ORDER)
    ladder = ladder_solve(g, SeriesRing(2, order), height=max(order + g.p + 1, i_max + 1))
    for i in range(1, i_max + 1):
        _compare_series(problems, recs, f"B_{i}", ladder.black_weight(i))
        _compare_series(problems, recs, f"W_{i}", ladder.white_weight(i))
    for i, want in _printed_tables(root).HEX_LADDER.items():
        if i <= i_max:
            _compare(problems, recs, f"B_{i}", want, min(5, doc["order"]))
    return problems


def check_determinant_mixed(root: str, doc: dict) -> list[str]:
    """Against the recursion route on the same face weights."""
    from bicmaps.rational import rat
    from bicmaps.series import SeriesRing
    from bicmaps.slices import FaceWeights, ladder_solve

    recs, problems = records(doc), []
    i_max = doc["i_max"]
    g = FaceWeights(tuple(rat(x) for x in doc["face_weights"]))
    order = doc["order"]
    ladder = ladder_solve(g, SeriesRing(2, order), height=max(order + g.p + 1, i_max + 1))
    for i in range(1, i_max + 1):
        _compare_series(problems, recs, f"B_{i}", ladder.black_weight(i))
        _compare_series(problems, recs, f"W_{i}", ladder.white_weight(i))
    return problems


def check_verify_all(root: str, doc: dict) -> list[str]:
    problems = []
    if doc.get("passed") is not True:
        failed = [c["name"] for c in doc.get("checks", []) if not c["passed"]]
        problems.append(f"verify reports failures: {failed}")
    if len(doc.get("checks", [])) != VERIFY_CHECK_COUNT:
        problems.append(
            f"verify ran {len(doc.get('checks', []))} checks, expected {VERIFY_CHECK_COUNT}"
        )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "twopoint-quad",
            lambda seed: ["twopoint", "--family", "quad", "--order", "12", "--i-max", "6"],
            lambda seed: "twopoint-quad",
            check_twopoint_quad,
        ),
        Workload(
            "closed-hex",
            lambda seed: [
                "ladder", "--family", "hex", "--route", "closed",
                "--order", "14", "--i-max", "8",
            ],
            lambda seed: "closed-hex",
            check_closed_hex,
        ),
        Workload(
            "determinant-mixed",
            lambda seed: [
                "ladder", "--family", "general", "--g", f"{mixed_g1(seed)},1",
                "--route", "determinant", "--order", "10", "--i-max", "10",
            ],
            lambda seed: f"determinant-mixed {mixed_g1(seed)}",
            check_determinant_mixed,
        ),
        Workload(
            "verify-all",
            lambda seed: ["verify", "--suite", "all", "--order", "7", "--seed", str(seed)],
            lambda seed: None,
            check_verify_all,
        ),
    )
}


def judge(workload: Workload, seed: int, root: str, texts: list[str | None]) -> list[list[str]]:
    """Problems of each run's document; an empty list means the run passed.

    ``None`` stands for a run that produced no document.  The independent
    route is consulted once per distinct document.
    """
    golden = GOLDEN.get(workload.golden_key(seed) or "")
    reference = next((digest(t) for t in texts if t is not None), None)
    verdicts: dict[str, list[str]] = {}
    out = []
    for text in texts:
        if text is None:
            out.append(["no document"])
            continue
        d = digest(text)
        if d not in verdicts:
            problems = []
            if d != reference:
                problems.append("document differs from the first run's")
            if golden is not None and d != golden:
                problems.append("document differs from the golden digest")
            try:
                doc = json.loads(text)
            except ValueError as exc:
                problems.append(f"document is not JSON: {exc}")
            else:
                try:
                    problems.extend(workload.check(root, doc))
                except (KeyError, TypeError, ValueError) as exc:
                    problems.append(f"document is malformed: {exc!r}")
            verdicts[d] = problems
        out.append(verdicts[d])
    return out

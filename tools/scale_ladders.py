"""Scaling curves of a series product, inverse and quadratic root, the ladder solvers, the dimer and the path checks over order.

Times one series product ``B * W`` of the quadrangulation tails
``tail_solve(quad, SeriesRing(2, order))``, integral, and one product
``beta1 * beta2`` of the hexangulation parameters ``hex_params`` that
``closed_ladder`` multiplies, fractional (both solved before the timing,
so only the product is timed), ``inv_unit`` of the hexangulation's
``1 + d1`` and ``solve_quadratic_branch`` of its first characteristic
quadratic, the two series layers under ``closed_ladder`` (the inputs again
solved before the timing), ``ladder_solve`` (quadrangulations,
hexangulations and octangulations, g = (0, 0, 0, 1)), the ladder that
``twopoint --i-max 6`` solves (quadrangulations and hexangulations, through
``cli._ladder``: only the rows that entries 1..6 need), ``closed_ladder``
(hexangulations, entries 1..8), ``ternary_solve``, ``tricolor_solve``,
``determinant_ladder`` (face weights g = (1/5, 1) and g = (0, 0, 0, 1),
entries 1..10), the ``verify`` suites ``dimers`` (seed 1: transfer
against brute force, closed forms at five rational points, and the
segment reconstruction of the quad and hex determinants of every index
from one column walk each, against the moment determinants) and
``paths`` (seed 1: the reflection identities at five
rational points, partly through the brute-force path oracle, and the path
DPs against each other), and every suite in one run (``all``, seed 1) at
several orders, and counts the series products each call makes, for one
or more source trees of bicmaps.  The suites run through
``suites.run_suite``, so each run includes the ladder solves it needs.
Each (tree, case) pair runs in a fresh interpreter that imports bicmaps
from that tree's ``src`` directory, ROUNDS times: the rounds interleave the
trees, and the tree that runs first rotates from case to case, so drift of
the host hits them alike.

    python tools/scale_ladders.py --tree parent=/path/to/old/src --tree change=src

times each case RUNS times in each of its ROUNDS interpreters per tree and
writes ``BENCH_ladders.json`` at the root of this checkout.  Each curve point
reports the least of its ROUNDS x RUNS timings as ``best_s`` and the median
over the rounds of each round's least timing as ``median_min_s`` (all of
them under ``seconds``, round by round): noise on the host only ever adds
time, and for calls under a few tenths of a second it swamps a median of
three, but the least of all timings can also be one rare fast sample,
which the median of the per-round minima does not hinge on.  ``spread_s``
is the max minus the min of those per-round minima: a difference between
two trees smaller than their spreads is not resolved by the curve.  Uses
the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 3
ROUNDS = 3
OUT = Path(__file__).resolve().parents[1] / "BENCH_ladders.json"
LADDER_ORDERS = (8, 10, 12, 14, 16, 18, 24, 30)
CASES = (
    [("series_mul", "quad tails", order) for order in (12, 18, 26)]
    + [("series_mul", "hex beta1*beta2", order) for order in (10, 14, 18)]
    + [("inv_unit", "hex 1+d1", order) for order in (10, 14, 18)]
    + [("solve_quadratic_branch", "hex first root", order) for order in (10, 14, 18)]
    + [("ladder_solve", family, order) for family in ("quad", "hex") for order in LADDER_ORDERS]
    + [("twopoint_ladder", family, order) for family in ("quad", "hex") for order in LADDER_ORDERS]
    + [("ladder_solve", "oct", order) for order in (8, 10, 12, 14)]
    + [("closed_ladder", "hex", order) for order in (10, 14, 18)]
    + [("ternary_solve", "ternary", order) for order in (8, 12, 16)]
    + [("tricolor_solve", "tricolor", order) for order in (4, 6, 8)]
    + [("determinant_ladder", "g1=1/5", order) for order in (8, 10, 12, 14)]
    + [("determinant_ladder", "g=0,0,0,1", order) for order in (10, 14)]
    + [("suite_dimers", "seed=1", order) for order in (5, 7, 9)]
    + [("suite_paths", "seed=1", order) for order in (5, 7, 9)]
    + [("run_suite", "all seed=1", order) for order in (5, 7, 9)]
)
DETERMINANT_I_MAX = 10
CLOSED_I_MAX = 8
TWOPOINT_I_MAX = 6


def _child(solver: str, family: str, order: int) -> dict:
    """Run one case in this process: timed runs, then one counted run."""
    from argparse import Namespace
    from functools import partial
    from operator import mul
    from time import perf_counter

    from bicmaps.cli import _ladder
    from bicmaps.closedform import closed_ladder, hex_params
    from bicmaps.extensions import ternary_solve, tricolor_solve
    from bicmaps.hankel import determinant_ladder
    from bicmaps.rational import rat
    from bicmaps.series import MSeries, SeriesRing, inv_unit, solve_quadratic_branch
    from bicmaps.slices import FaceWeights, ladder_solve, tail_solve
    from bicmaps.suites import run_suite

    if solver == "series_mul" and family == "quad tails":
        call = partial(mul, *tail_solve(FaceWeights.quadrangulations(), SeriesRing(2, order)))
    elif solver == "series_mul":
        params = hex_params(*tail_solve(FaceWeights.hexangulations(), SeriesRing(2, order)))
        call = partial(mul, params.beta1, params.beta2)
    elif solver in ("inv_unit", "solve_quadratic_branch"):
        b, w = tail_solve(FaceWeights.hexangulations(), SeriesRing(2, order))
        params = hex_params(b, w)
        if solver == "inv_unit":
            call = partial(inv_unit, 1 + params.d1)
        else:
            call = partial(solve_quadratic_branch, w, -params.wz1, b)
    elif solver == "ladder_solve":
        weights = {"quad": (0, 1), "hex": (0, 0, 1), "oct": (0, 0, 0, 1)}[family]
        g = FaceWeights(tuple(rat(x) for x in weights))
        call = partial(ladder_solve, g, SeriesRing(2, order))
    elif solver == "twopoint_ladder":
        config = Namespace(family=family, order=order, i_max=TWOPOINT_I_MAX, g=())
        call = partial(_ladder, config, None, "recursion")
    elif solver == "closed_ladder":
        g = FaceWeights.hexangulations()
        call = partial(closed_ladder, g, SeriesRing(2, order), CLOSED_I_MAX)
    elif solver == "ternary_solve":
        call = partial(ternary_solve, SeriesRing(2, order))
    elif solver == "determinant_ladder":
        weights = (rat(1, 5), 1) if family == "g1=1/5" else (0, 0, 0, 1)
        g = FaceWeights(tuple(rat(x) for x in weights))
        call = partial(determinant_ladder, g, SeriesRing(2, order), DETERMINANT_I_MAX)
    elif solver in ("suite_dimers", "suite_paths"):
        call = partial(run_suite, solver.removeprefix("suite_"), order, 1)
    elif solver == "run_suite":
        call = partial(run_suite, "all", order, 1)
    else:
        call = partial(tricolor_solve, SeriesRing(3, order))

    seconds = []
    for _ in range(RUNS):
        start = perf_counter()
        call()
        seconds.append(perf_counter() - start)

    counts = {"products": 0, "series_products": 0}
    real = MSeries.__mul__

    def counting(self, other):
        counts["products"] += 1
        counts["series_products"] += isinstance(other, MSeries)
        return real(self, other)

    MSeries.__mul__ = MSeries.__rmul__ = counting
    call()
    return {"seconds": seconds, **counts}


def _measure(src: str, case: tuple) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, __file__, "--child", json.dumps(case)]
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", action="append", default=[], metavar="NAME=SRC",
        help="a name and the src directory of a bicmaps tree (repeatable)",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.child:
        print(json.dumps(_child(*json.loads(ns.child))))
        return 0
    trees = [t.split("=", 1) for t in ns.tree]
    if not trees or any(len(t) != 2 for t in trees):
        parser.error("give at least one --tree NAME=SRC")
    curves = []
    for n, case in enumerate(CASES):
        solver, family, order = case
        first = n % len(trees)
        rotated = trees[first:] + trees[:first]
        results = {name: [] for name, _ in trees}
        for _ in range(ROUNDS):
            for name, src in rotated:
                results[name].append(_measure(src, case))
        for name, _ in trees:
            runs = results[name]
            seconds = [s for result in runs for s in result["seconds"]]
            minima = [min(result["seconds"]) for result in runs]
            median_min = statistics.median(minima)
            spread = max(minima) - min(minima)
            curves.append({
                "tree": name,
                "solver": solver,
                "family": family,
                "order": order,
                "best_s": round(min(seconds), 6),
                "median_min_s": round(median_min, 6),
                "spread_s": round(spread, 6),
                "seconds": [round(s, 6) for s in seconds],
                "products": runs[0]["products"],
                "series_products": runs[0]["series_products"],
            })
            print(f"{name:>10} {solver} {family} order {order}: {min(seconds):.4f} s best, "
                  f"{median_min:.4f} s median min, {spread:.4f} s spread, "
                  f"{runs[0]['products']} products", file=sys.stderr)
    doc = {
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "runs": RUNS,
        "rounds": ROUNDS,
        "trees": [name for name, _ in trees],
        "curves": curves,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

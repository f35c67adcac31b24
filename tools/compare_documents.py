"""Compare the CLI documents of bicmaps source trees over a fixed grid of command lines.

    python tools/compare_documents.py --tree parent=/path/to/old/src --tree change=src

runs every command line of the grid in one fresh interpreter per tree,
which imports bicmaps from that tree's ``src`` directory and calls
``bicmaps.cli.main`` in process for each line, and records the exit code,
the sha256 of the document written to stdout and the sha256 of what went
to stderr (a refusal's message).  It prints every command whose exit
code or either digest differs between the trees and exits 1 if any does,
0 if none does.

The grid: ``ladder`` by every route for quadrangulations, hexangulations,
the general face weights of ``WEIGHTS``, ternary, binary and tricolor;
``twopoint`` and ``hankel`` for the map families; ``tricolor``;
``verify --suite all`` at seeds 1-3, and ``verify --suite`` with each
single suite of ``SUITES`` at seed 1.  Each runs in JSON and CSV at
orders 1-8 (1-10 for the determinant route and ``hankel``), with i_max
3, 10 and 11 where the command takes one, so that both parities of
i_max reach the determinant route (an even i_max ends on a B entry and
reads one shift-1 determinant fewer).  ``dimers`` ignores ``--order``, so
it runs at each link count of ``DIMER_LINKS`` instead, at orders 1 and 8
only.  The face weights of ``REFUSED_WEIGHTS``, which the CLI refuses, run
through ``twopoint``, ``hankel`` and ``ladder --route determinant`` at
orders 1 and 4.  Commands that exit 2 (a route a family lacks, refused
face weights) are compared by their exit code and messages like any other.  The grid
has 3004 command lines.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from itertools import product

# (0,0,0,0,1) reaches p = 4; (1/3,1/7,2) weighs every strip length
WEIGHTS = ("1/5,1", "0,1/3,2", "0,0,0,1", "1/2", "0,0,0,0,1", "1/3,1/7,2")
# g_1 = 1 diverges; a zero last weight would misstate the top degree p;
# a blank entry is a typo, not a zero
REFUSED_WEIGHTS = ("1,1", "1,0", "0,0", "0,,1", "0,1,")
MAP_FAMILIES = [["--family", "quad"], ["--family", "hex"]] + [
    ["--family", "general", f"--g={g}"] for g in WEIGHTS
]
LADDER_FAMILIES = MAP_FAMILIES + [["--family", f] for f in ("ternary", "binary", "tricolor")]
ORDERS = range(1, 9)
DETERMINANT_ORDERS = range(1, 11)
FORMATS = ("json", "csv")
I_MAX = (3, 10, 11)
DIMER_LINKS = (0, 1, 2, 7, 13)
SUITES = ("series", "paths", "slices", "hankel", "closedform", "dimers", "extensions", "general")


def _sweep(args: list[str], orders, i_max=I_MAX) -> list[list[str]]:
    """``args`` at every order and format, and every i_max if given."""
    return [
        args + ["--order", str(order), "--format", fmt]
        + ([] if top is None else ["--i-max", str(top)])
        for order, fmt, top in product(orders, FORMATS, i_max)
    ]


def grid() -> list[list[str]]:
    lines = []
    for route, family in product(("recursion", "closed", "determinant"), LADDER_FAMILIES):
        orders = DETERMINANT_ORDERS if route == "determinant" else ORDERS
        lines += _sweep(["ladder", *family, "--route", route], orders)
    for family in MAP_FAMILIES:
        lines += _sweep(["twopoint", *family], ORDERS)
        lines += _sweep(["hankel", *family], DETERMINANT_ORDERS)
    for g in REFUSED_WEIGHTS:
        for command in (["twopoint"], ["hankel"], ["ladder", "--route", "determinant"]):
            lines += _sweep([*command, "--family", "general", f"--g={g}"], (1, 4))
    for links in DIMER_LINKS:
        lines += _sweep(["dimers", "--links", str(links)], (1, 8), (None,))
    lines += _sweep(["tricolor"], ORDERS)
    for seed in (1, 2, 3):
        lines += _sweep(["verify", "--suite", "all", "--seed", str(seed)], ORDERS, (None,))
    for suite in SUITES:
        lines += _sweep(["verify", "--suite", suite, "--seed", "1"], ORDERS, (None,))
    return lines


def _child() -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of every grid line,
    run in this process."""
    import contextlib
    import hashlib
    import io

    from bicmaps.cli import main

    out = []
    for argv in grid():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a difference like any other
                code = f"raised {type(exc).__name__}: {exc}"
        digests = [hashlib.sha256(f.getvalue().encode()).hexdigest() for f in (stdout, stderr)]
        out.append([code, *digests])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", action="append", default=[], metavar="NAME=SRC",
        help="a name and the src directory of a bicmaps tree (repeatable)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.child:
        print(json.dumps(_child()))
        return 0
    trees = [t.split("=", 1) for t in ns.tree]
    if len(trees) < 2 or any(len(t) != 2 for t in trees):
        parser.error("give at least two --tree NAME=SRC")
    children = {
        name: subprocess.Popen(
            [sys.executable, __file__, "--child"],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for name, src in trees
    }
    outputs = {name: child.communicate()[0] for name, child in children.items()}
    for name, child in children.items():
        if child.returncode:
            parser.exit(2, f"tree {name}: the grid run exited {child.returncode}\n")
    results = {name: json.loads(stdout) for name, stdout in outputs.items()}
    lines = grid()
    differ = 0
    for n, argv in enumerate(lines):
        outcomes = {name: tuple(results[name][n]) for name, _ in trees}
        if len(set(outcomes.values())) > 1:
            differ += 1
            print("bicmaps " + " ".join(argv))
            for name, (code, out, err) in outcomes.items():
                print(f"  {name}: exit {code}, stdout sha256 {out}, stderr sha256 {err}")
    print(f"{len(lines)} command lines, {differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

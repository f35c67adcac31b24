"""Command-line front end: series tables and verification reports.

Every command emits one deterministic JSON or CSV document (for a fixed
configuration and seed the output is byte-identical between runs).  Series
coefficients travel as decimal numerator/denominator strings; exponent
vectors follow the variable order listed in the document header.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .closedform import closed_ladder
from .dimers import SegmentSpec, zhd
from .extensions import (
    binary_closed_ladder,
    binary_solve,
    ternary_closed_ladder,
    ternary_solve,
    tricolor_solve,
)
from .hankel import boundary_hankel_family, determinant_ladder
from .paths import WeightLadder
from .rational import rat
from .series import MSeries, SeriesRing
from .slices import FaceWeights, ladder_solve, twopoint_from_ladder
from .suites import SUITES, run_suite

MAP_FAMILIES = ("quad", "hex", "general")
LADDER_FAMILIES = MAP_FAMILIES + ("ternary", "binary", "tricolor")
ROUTES = ("recursion", "closed", "determinant")
ENTRY_NAMES = {"ternary": ("P", "Q"), "binary": ("R", "S")}
DEFAULT_ORDER_ENV = "BICMAPS_ORDER"


@dataclass
class JobConfig:
    command: str
    family: str = ""
    g: tuple = ()
    order: int = 6
    i_max: int = 3
    fmt: str = "json"
    seed: int = 7
    route: str = "recursion"
    links: int = 6
    suite: str = "all"
    output: str | None = None


def _parse_face_weights(text: str) -> tuple:
    try:
        weights = tuple(rat(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad face weight list {text!r}: {exc}")
    if not weights:
        raise argparse.ArgumentTypeError("face weight list is empty")
    return weights


def _face_weights(config: JobConfig, parser: argparse.ArgumentParser) -> FaceWeights:
    if config.family == "quad":
        return FaceWeights.quadrangulations()
    if config.family == "hex":
        return FaceWeights.hexangulations()
    if not config.g:
        parser.error("--family general requires --g")
    if not config.g[-1]:
        parser.error("the last face weight must be nonzero")
    if config.g[0] == 1:
        parser.error("the degree-two face weight g_1 = 1 makes the series divergent")
    return FaceWeights(config.g)


def _variables(num_vars: int, family: str) -> list[str]:
    if family == "ternary":
        return ["z_black", "z_white"]
    if family == "binary":
        return ["y_black", "y_white"]
    return ["t_black", "t_white", "t_third"][:num_vars]


def series_record(name: str, f: MSeries) -> dict:
    terms = [
        {
            "exponents": list(e),
            "numerator": str(rat(c).numerator),
            "denominator": str(rat(c).denominator),
        }
        for e, c in f.terms()
    ]
    return {"name": name, "reliable": f.reliable, "terms": terms}


def _ladder_records(ladder: WeightLadder, i_max: int, names=("B", "W")) -> list[dict]:
    out = []
    for i in range(1, i_max + 1):
        out.append(series_record(f"{names[0]}_{i}", ladder.black_weight(i)))
        out.append(series_record(f"{names[1]}_{i}", ladder.white_weight(i)))
    return out


def _tricolor_records(state, i_max: int) -> list[dict]:
    out = []
    for i in range(1, i_max + 1):
        out.append(series_record(f"T_{i}", state.t_at(i)))
        out.append(series_record(f"U_{i}", state.u_at(i)))
        out.append(series_record(f"V_{i}", state.v_at(i)))
    return out


def _ladder(config: JobConfig, parser: argparse.ArgumentParser) -> WeightLadder:
    """The two-family ladder of config.family by config.route."""
    ring = SeriesRing(2, config.order)
    if config.family in ENTRY_NAMES:
        ternary = config.family == "ternary"
        if config.route == "determinant":
            parser.error(f"route {config.route!r} is not defined for {config.family}")
        solve = ternary_solve if ternary else binary_solve
        ladder = solve(ring, height=max(ring.order + 2, config.i_max))
        if config.route == "closed":
            closed = ternary_closed_ladder if ternary else binary_closed_ladder
            ladder = closed(ladder, config.i_max)
        return ladder
    g = _face_weights(config, parser)
    if config.route == "recursion":
        return ladder_solve(g, ring, height=max(ring.order + g.p + 1, config.i_max + 1))
    if config.route == "closed":
        try:
            return closed_ladder(g, ring, config.i_max)
        except ValueError as exc:
            parser.error(str(exc))
    return determinant_ladder(g, ring, config.i_max)


def _tricolor_state(config: JobConfig):
    return tricolor_solve(SeriesRing(3, config.order), height=max(config.order + 2, config.i_max))


def run(config: JobConfig, parser: argparse.ArgumentParser) -> tuple[int, str]:
    """Execute a job; returns (exit code, document text)."""
    if config.order < 1:
        parser.error("--order must be at least 1")
    if config.i_max < 1:
        parser.error("--i-max must be at least 1")
    if config.g and config.family != "general":
        parser.error("--g applies only to --family general")
    records: list[dict] = []
    meta: dict = {
        "command": config.command,
        "order": config.order,
        "seed": config.seed,
        "tool": "bicmaps",
        "version": __version__,
    }
    if config.g:
        meta["face_weights"] = [str(rat(x)) for x in config.g]

    if config.command == "twopoint":
        table = twopoint_from_ladder(_ladder(config, parser), config.i_max)
        for i in range(1, config.i_max + 1):
            records.append(series_record(f"G_black_{i}", table.g_black(i)))
            records.append(series_record(f"G_white_{i}", table.g_white(i)))
        meta.update(family=config.family, i_max=config.i_max, variables=_variables(2, config.family))

    elif config.command == "ladder":
        meta.update(family=config.family, i_max=config.i_max, route=config.route)
        if config.family == "tricolor":
            if config.route != "recursion":
                parser.error("family tricolor supports --route recursion here; see the tricolor command")
            records.extend(_tricolor_records(_tricolor_state(config), config.i_max))
            meta["variables"] = _variables(3, config.family)
        else:
            names = ENTRY_NAMES.get(config.family, ("B", "W"))
            records.extend(_ladder_records(_ladder(config, parser), config.i_max, names))
            meta["variables"] = _variables(2, config.family)

    elif config.command == "hankel":
        g = _face_weights(config, parser)
        fam = boundary_hankel_family(g, SeriesRing(2, config.order), config.i_max)
        for i in range(config.i_max + 1):
            records.append(series_record(f"h0_{i}", fam.h0[i]))
            records.append(series_record(f"h1_{i}", fam.h1[i]))
            records.append(series_record(f"h0_tilde_{i}", fam.h0_tilde[i]))
            records.append(series_record(f"h1_tilde_{i}", fam.h1_tilde[i]))
        meta.update(family=config.family, i_max=config.i_max, variables=_variables(2, config.family))

    elif config.command == "dimers":
        if config.links < 0:
            parser.error("--links must be non-negative")
        for links in range(config.links + 1):
            for ends in ("bb", "ww") if links % 2 == 0 else ("bw", "wb"):
                poly = zhd(SegmentSpec(links, ends))
                terms = [
                    {
                        "exponents": list(e),
                        "numerator": str(c),
                        "denominator": "1",
                    }
                    for e, c in poly.terms()
                ]
                records.append({"name": f"zhd_{ends}_{links}", "reliable": links, "terms": terms})
        meta.update(links=config.links, variables=["s1", "s2"])

    elif config.command == "tricolor":
        state = _tricolor_state(config)
        records.extend(_tricolor_records(state, config.i_max))
        for name, f in (
            ("T", state.t),
            ("U", state.u),
            ("V", state.v),
            ("y", state.y),
            ("d", state.d),
            ("e", state.e),
            ("a_hat", state.a_hat),
        ):
            records.append(series_record(name, f))
        meta.update(i_max=config.i_max, variables=_variables(3, "tricolor"))

    elif config.command == "verify":
        checks = run_suite(config.suite, config.order, config.seed)
        meta.update(suite=config.suite)
        passed = all(c.passed for c in checks)
        doc = dict(meta)
        doc["checks"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
        doc["passed"] = passed
        text = _render(doc, config, check_mode=True)
        return (0 if passed else 1), text

    else:  # pragma: no cover - argparse restricts the choices
        parser.error(f"unknown command {config.command!r}")

    doc = dict(meta)
    doc["records"] = records
    return 0, _render(doc, config, check_mode=False)


def _render(doc: dict, config: JobConfig, check_mode: bool) -> str:
    if config.fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if check_mode:
        writer.writerow(["name", "passed", "detail"])
        for c in doc["checks"]:
            writer.writerow([c["name"], "1" if c["passed"] else "0", c["detail"]])
        return buf.getvalue()
    variables = doc.get("variables", [])
    writer.writerow(["name"] + [f"exp_{v}" for v in variables] + ["numerator", "denominator"])
    for record in doc["records"]:
        for term in record["terms"]:
            writer.writerow(
                [record["name"]]
                + [str(x) for x in term["exponents"]]
                + [term["numerator"], term["denominator"]]
            )
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicmaps",
        description="Exact two-point functions of vertex-bicolored planar maps.",
    )
    parser.add_argument("--version", action="version", version=f"bicmaps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, i_max_default=3):
        p.add_argument(
            "--order",
            type=int,
            default=None,
            help=f"truncation order (default: ${DEFAULT_ORDER_ENV} or 6)",
        )
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=7, help="seed for sampled rational points")
        if i_max_default is not None:
            p.add_argument("--i-max", type=int, default=i_max_default, help="largest ladder index")
        p.add_argument("--output", default=None, help="write the document here instead of stdout")

    p = sub.add_parser("twopoint", help="distance-dependent two-point tables")
    common(p)
    p.add_argument("--family", choices=MAP_FAMILIES, required=True)
    p.add_argument("--g", type=_parse_face_weights, default=(), help="face weights, e.g. '0,0,0,1'")

    p = sub.add_parser("ladder", help="slice series by any route")
    common(p)
    p.add_argument("--family", choices=LADDER_FAMILIES, required=True)
    p.add_argument("--g", type=_parse_face_weights, default=())
    p.add_argument("--route", choices=ROUTES, default="recursion")

    p = sub.add_parser("hankel", help="the four determinant sequences")
    common(p)
    p.add_argument("--family", choices=MAP_FAMILIES, required=True)
    p.add_argument("--g", type=_parse_face_weights, default=())

    p = sub.add_parser("dimers", help="hard-dimer polynomials on segments")
    common(p, i_max_default=None)
    p.add_argument("--links", type=int, default=6)

    p = sub.add_parser("tricolor", help="tricolored ladder and height parameters")
    common(p, i_max_default=6)

    p = sub.add_parser("verify", help="run a named cross-validation suite")
    common(p, i_max_default=None)
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    order = ns.order
    if order is None:
        text = os.environ.get(DEFAULT_ORDER_ENV, "6")
        try:
            order = int(text)
        except ValueError:
            parser.error(f"${DEFAULT_ORDER_ENV} must be an integer, not {text!r}")
    config = JobConfig(
        command=ns.command,
        family=getattr(ns, "family", ""),
        g=getattr(ns, "g", ()),
        order=order,
        i_max=getattr(ns, "i_max", 3),
        fmt=ns.fmt,
        seed=ns.seed,
        route=getattr(ns, "route", "recursion"),
        links=getattr(ns, "links", 6),
        suite=getattr(ns, "suite", "all"),
        output=ns.output,
    )
    code, text = run(config, parser)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

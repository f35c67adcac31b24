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
import re
import sys
from math import gcd

from . import __version__
from .closedform import closed_ladder
from .dimers import zhd
from .extensions import (
    binary_closed_ladder,
    binary_solve,
    ternary_closed_ladder,
    ternary_solve,
    tricolor_solve,
)
from .hankel import determinant_ladder, hankel_family
from .paths import WeightLadder
from .rational import rat
from .series import MSeries, SeriesRing
from .slices import FaceWeights, f_sequence, ladder_solve, tail_solve, twopoint_from_ladder
from .suites import SUITES, run_suite

MAP_FAMILIES = ("quad", "hex", "general")
LADDER_FAMILIES = MAP_FAMILIES + ("ternary", "binary", "tricolor")
ROUTES = ("recursion", "closed", "determinant")
ENTRY_NAMES = {"ternary": ("P", "Q"), "binary": ("R", "S")}
DEFAULT_ORDER_ENV = "BICMAPS_ORDER"
WEIGHT_DIGITS = 4300  # Python's default limit on int <-> str conversion
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def _parse_weight(text: str):
    """One face weight, whose numerator and denominator have at most
    WEIGHT_DIGITS digits.  An exponent beyond 3 * WEIGHT_DIGITS is refused
    before the value is built: with at most WEIGHT_DIGITS digits on each
    side of the point, the entry is then zero or breaks that bound."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > 3 * WEIGHT_DIGITS:
        raise ValueError(f"{text!r} has an exponent beyond ±{3 * WEIGHT_DIGITS}")
    value = rat(text)
    if max(abs(value.numerator), value.denominator) >= 10**WEIGHT_DIGITS:
        raise ValueError(f"{text!r} needs more than {WEIGHT_DIGITS} digits")
    return value


def _parse_face_weights(text: str) -> tuple:
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise argparse.ArgumentTypeError("face weight list is empty")
    try:
        return tuple(map(_parse_weight, parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad face weight list {text!r}: {exc}")


def _face_weights(config: argparse.Namespace, parser: argparse.ArgumentParser) -> FaceWeights:
    if config.family == "quad":
        return FaceWeights.quadrangulations()
    if config.family == "hex":
        return FaceWeights.hexangulations()
    if not config.g:
        parser.error("--family general requires --g")
    try:
        return FaceWeights(config.g)
    except ValueError as exc:
        parser.error(str(exc))


def _variables(num_vars: int, family: str) -> list[str]:
    if family == "ternary":
        return ["z_black", "z_white"]
    if family == "binary":
        return ["y_black", "y_white"]
    return ["t_black", "t_white", "t_third"][:num_vars]


def series_record(name: str, f: MSeries) -> tuple:
    """The record of one series: (name, reliable, terms), each term an
    (exponents, numerator, denominator) triple with the coefficient in
    lowest terms and both numbers as decimal strings, in the order of
    ``MSeries.terms``.  Both document formats write these triples."""
    nums, den = f.nums, f.den
    terms = []
    for e in sorted(nums, key=lambda e: (sum(e), e)):
        n = nums[e]
        g = gcd(n, den)
        terms.append((e, str(n // g), str(den // g)))
    return name, f.reliable, terms


def _indexed_records(indices, columns) -> list[tuple]:
    """The records ``name_i`` of every index i, and at each index one per
    (name, at) column in the given order, of the series ``at(i)``."""
    return [series_record(f"{name}_{i}", at(i)) for i in indices for name, at in columns]


def _tricolor_records(state, i_max: int) -> list[tuple]:
    columns = (("T", state.t_at), ("U", state.u_at), ("V", state.v_at))
    return _indexed_records(range(1, i_max + 1), columns)


def _ladder(
    config: argparse.Namespace, parser: argparse.ArgumentParser, route: str
) -> WeightLadder:
    """The two-family ladder of config.family by the given route."""
    ring = SeriesRing(2, config.order)
    if config.family in ENTRY_NAMES:
        ternary = config.family == "ternary"
        if route == "determinant":
            parser.error(f"route {route!r} is not defined for {config.family}")
        solve = ternary_solve if ternary else binary_solve
        if route == "recursion":
            return solve(ring, height=config.i_max)
        closed = ternary_closed_ladder if ternary else binary_closed_ladder
        return closed(solve(ring, height=0), config.i_max)
    g = _face_weights(config, parser)
    if route == "recursion":
        return ladder_solve(g, ring, height=config.i_max)
    if route == "closed":
        try:
            return closed_ladder(g, ring, config.i_max)
        except ValueError as exc:
            parser.error(str(exc))
    return determinant_ladder(g, ring, config.i_max)


def _tricolor_state(config: argparse.Namespace):
    return tricolor_solve(SeriesRing(3, config.order), height=config.i_max)


def run(config: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[int, str]:
    """Execute the parsed command line; returns (exit code, document text).

    ``config`` is the parsed namespace.  It holds only the options of its
    command, so an option that the command lacks is absent, not defaulted.
    """
    if config.order < 1:
        parser.error("--order must be at least 1")
    if "i_max" in config and config.i_max < 1:
        parser.error("--i-max must be at least 1")
    weights = config.g if "g" in config else ()
    if weights and config.family != "general":
        parser.error("--g applies only to --family general")
    records: list[tuple] = []
    meta: dict = {
        "command": config.command,
        "order": config.order,
        "seed": config.seed,
        "tool": "bicmaps",
        "version": __version__,
    }
    if weights:
        meta["face_weights"] = [str(rat(x)) for x in weights]

    if config.command == "twopoint":
        table = twopoint_from_ladder(_ladder(config, parser, "recursion"), config.i_max)
        columns = (("G_black", table.g_black), ("G_white", table.g_white))
        records.extend(_indexed_records(range(1, config.i_max + 1), columns))
        meta.update(family=config.family, i_max=config.i_max, variables=_variables(2, config.family))

    elif config.command == "ladder":
        meta.update(family=config.family, i_max=config.i_max, route=config.route)
        if config.family == "tricolor":
            if config.route != "recursion":
                parser.error("family tricolor supports --route recursion here; see the tricolor command")
            records.extend(_tricolor_records(_tricolor_state(config), config.i_max))
            meta["variables"] = _variables(3, config.family)
        else:
            black, white = ENTRY_NAMES.get(config.family, ("B", "W"))
            ladder = _ladder(config, parser, config.route)
            columns = ((black, ladder.black_weight), (white, ladder.white_weight))
            records.extend(_indexed_records(range(1, config.i_max + 1), columns))
            meta["variables"] = _variables(2, config.family)

    elif config.command == "hankel":
        g = _face_weights(config, parser)
        b, w = tail_solve(g, SeriesRing(2, config.order))
        fam = hankel_family(f_sequence(2 * config.i_max + 1, g, b, w))
        columns = (
            ("h0", fam.h0.__getitem__),
            ("h1", fam.h1.__getitem__),
            ("h0_tilde", lambda i: fam.h0[i].swap_vars()),
            ("h1_tilde", lambda i: fam.h1[i].swap_vars()),
        )
        records.extend(_indexed_records(range(config.i_max + 1), columns))
        meta.update(family=config.family, i_max=config.i_max, variables=_variables(2, config.family))

    elif config.command == "dimers":
        if config.links < 0:
            parser.error("--links must be non-negative")
        # one walk per start color; a record is named by its end-node colors
        walks = {colors: zhd(config.links, black_start=colors == "bw") for colors in ("bw", "wb")}
        for links in range(config.links + 1):
            for colors, polys in walks.items():
                name = f"zhd_{colors[0]}{colors[links % 2]}_{links}"
                records.append(series_record(name, polys[links]))
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
        meta["checks"] = [c._asdict() for c in checks]
        meta["passed"] = passed
        return (0 if passed else 1), _render(meta, None, config)

    return 0, _render(meta, records, config)


# Templates of a record and of a term inside the document's "records" list,
# indented as json.dumps(doc, indent=2, sort_keys=True) indents them.
_RECORD = '    {\n      "name": %s,\n      "reliable": %d,\n      "terms": %s\n    }'
_TERM = (
    '        {\n          "denominator": "%s",\n          "exponents": [\n            %s'
    '\n          ],\n          "numerator": "%s"\n        }'
)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already written items, closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _record_json(name: str, reliable: int, terms) -> str:
    exponents = ",\n            ".join
    written = [_TERM % (d, exponents(map(str, e)), n) for e, n, d in terms]
    return _RECORD % (json.dumps(name), reliable, _json_list(written, "      "))


def _json_document(header: dict, records) -> str:
    """What json.dumps(doc, indent=2, sort_keys=True) + "\\n" writes for doc =
    ``header`` plus, unless ``records`` is None, the "records" list.

    The records go through the fixed templates.  A raw newline in
    json.dumps's output can only come from its indentation, so a header
    value dumped alone moves to depth 1 by indenting each of its lines.
    """
    fields = {
        key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        for key, value in header.items()
    }
    if records is not None:
        fields["records"] = _json_list([_record_json(*r) for r in records], "  ")
    body = ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    return "{\n" + body + "\n}\n"


def _render(header: dict, records, config: argparse.Namespace) -> str:
    """The document of ``header`` and the series ``records``; a ``verify``
    document has no records (None) and its checks in the header."""
    if config.fmt == "json":
        return _json_document(header, records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if records is None:
        writer.writerow(["name", "passed", "detail"])
        for c in header["checks"]:
            writer.writerow([c["name"], "1" if c["passed"] else "0", c["detail"]])
        return buf.getvalue()
    variables = header.get("variables", [])
    writer.writerow(["name"] + [f"exp_{v}" for v in variables] + ["numerator", "denominator"])
    for name, _, terms in records:
        for e, n, d in terms:
            writer.writerow([name, *e, n, d])
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

    g_help = "face weights g_1,g_2,..., e.g. '0,0,0,1'; a negative g_1 as --g=-1/2,1"
    p = sub.add_parser("twopoint", help="distance-dependent two-point tables")
    common(p)
    p.add_argument("--family", choices=MAP_FAMILIES, required=True)
    p.add_argument("--g", type=_parse_face_weights, default=(), help=g_help)

    p = sub.add_parser("ladder", help="slice series by any route")
    common(p)
    p.add_argument("--family", choices=LADDER_FAMILIES, required=True)
    p.add_argument("--g", type=_parse_face_weights, default=(), help=g_help)
    p.add_argument("--route", choices=ROUTES, default="recursion")

    p = sub.add_parser("hankel", help="the four determinant sequences")
    common(p)
    p.add_argument("--family", choices=MAP_FAMILIES, required=True)
    p.add_argument("--g", type=_parse_face_weights, default=(), help=g_help)

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
    config = parser.parse_args(argv)
    if config.order is None:
        text = os.environ.get(DEFAULT_ORDER_ENV, "6")
        try:
            config.order = int(text)
        except ValueError:
            parser.error(f"${DEFAULT_ORDER_ENV} must be an integer, not {text!r}")
    # parsing keeps Python's limit on int <-> str conversion (0, no limit,
    # before 3.10.7); the document writes every integer it computes in full
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code, text = run(config, parser)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write {config.output}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

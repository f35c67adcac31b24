"""Spans around the calls into each bicmaps layer, for the traced run.

The tracer wraps the public functions listed in ``LAYERS`` from outside the
package.  ``cli``, ``suites``, ``closedform``, ``dimers`` and ``extensions``
bind names with ``from .x import f``, and ``suites.SUITES`` holds the suite
functions in a dict, so every binding of an original function is replaced,
not only the one in its defining module.

A span records its name, its parent span, and its start and end.  A call
made directly inside a span of the same name (``__sub__`` calls
``__add__``) is merged into that span.  Spans stay in memory; ``aggregate``
turns them into per-name calls, total and self time after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attributes bound to it); "Class.method" names a method.
LAYERS = {
    "series.mul": ("series", ("MSeries.__mul__", "MSeries.__rmul__")),
    "series.add": ("series", ("MSeries.__add__", "MSeries.__radd__", "MSeries.__sub__")),
    "series.inv_unit": ("series", ("inv_unit",)),
    "series.exact_div": ("series", ("exact_div",)),
    "series.sqrt_unit": ("series", ("sqrt_unit",)),
    "series.solve_quadratic_branch": ("series", ("solve_quadratic_branch",)),
    "paths.z_strip": ("paths", ("z_strip",)),
    "paths.z_plus": ("paths", ("z_plus",)),
    "paths.z_plus_profile": ("paths", ("z_plus_profile",)),
    "paths.l_zero": ("paths", ("l_zero",)),
    "paths.rat_path": ("paths", ("rat_path",)),
    "slices.tail_solve": ("slices", ("tail_solve",)),
    "slices.ladder_solve": ("slices", ("ladder_solve",)),
    "slices.f_sequence": ("slices", ("f_sequence",)),
    "slices.alpha_coeffs": ("slices", ("alpha_coeffs",)),
    "slices.conserved": ("slices", ("conserved",)),
    "slices.twopoint_from_ladder": ("slices", ("twopoint_from_ladder",)),
    "hankel.det_division_free": ("hankel", ("det_division_free",)),
    "hankel.hankel_family": ("hankel", ("hankel_family",)),
    "hankel.cf_extract": ("hankel", ("cf_extract",)),
    "hankel.cf_expand": ("hankel", ("cf_expand",)),
    "closedform.quad_params": ("closedform", ("quad_params",)),
    "closedform.hex_params": ("closedform", ("hex_params",)),
    "closedform.quad_ladder_closed": ("closedform", ("quad_ladder_closed",)),
    "closedform.hex_ladder_closed": ("closedform", ("hex_ladder_closed",)),
    "dimers.zhd": ("dimers", ("zhd",)),
    "dimers.zhd_brute": ("dimers", ("zhd_brute",)),
    "dimers.lgv_quad": ("dimers", ("lgv_quad",)),
    "dimers.lgv_hex": ("dimers", ("lgv_hex",)),
    "extensions.ternary_solve": ("extensions", ("ternary_solve",)),
    "extensions.binary_solve": ("extensions", ("binary_solve",)),
    "extensions.tricolor_solve": ("extensions", ("tricolor_solve",)),
    "extensions.solve_height_params": ("extensions", ("solve_height_params",)),
    "cli.run": ("cli", ("run",)),
    "cli.series_record": ("cli", ("series_record",)),
}
SUITE_NAMES = (
    "series", "paths", "slices", "hankel", "closedform", "dimers", "extensions", "general",
)
for _suite in SUITE_NAMES:
    LAYERS[f"suites.{_suite}"] = ("suites", (f"suite_{_suite}",))


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for name in LAYERS:
        if name.startswith("suites."):
            out[f"{name}.total_s"] = ("s", "lower")
            continue
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.total_s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        if name == "series.mul":
            out["series.mul.terms_in"] = ("count", "lower")
            out["series.mul.terms_out"] = ("count", "lower")
        elif name == "series.exact_div":
            out["series.exact_div.degrees_lost"] = ("count", "lower")
        elif name == "hankel.cf_extract":
            out["hankel.cf_extract.useful_share"] = ("share", "higher")
    out["rational.fraction_operand_share"] = ("share", "lower")
    out["rational.output_noninteger_share"] = ("share", "lower")
    out["rational.output_coeff_bits.max"] = ("bits", "lower")
    return out


# -- counters ---------------------------------------------------------------


def _operand(counts, x) -> None:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        counts["mul.terms_in"] += 1
        fractional = type(x) is not int
    else:
        counts["mul.terms_in"] += len(coeffs)
        fractional = any(type(c) is not int for c in coeffs.values())
    counts["mul.operands"] += 1
    counts["mul.fraction_operands"] += fractional


def _count_mul(counts, args, result) -> None:
    _operand(counts, args[0])
    _operand(counts, args[1])
    counts["mul.terms_out"] += len(result.coeffs)


def _count_exact_div(counts, args, result) -> None:
    f, g = args[0], args[1]
    counts["exact_div.degrees_lost"] += min(f.reliable, g.reliable) - result.reliable


def _count_cf_extract(counts, args, result) -> None:
    entries = result.black + result.white
    counts["cf_extract.entries"] += len(entries)
    counts["cf_extract.useful"] += sum(1 for e in entries if e.reliable > 0)


COUNTERS = {
    "series.mul": _count_mul,
    "series.exact_div": _count_exact_div,
    "hankel.cf_extract": _count_cf_extract,
}


class Tracer:
    """Records spans and counters while installed; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def spans(self) -> list[tuple[str, int, float, float]]:
        return list(zip(self.names, self.parents, self.starts, self.ends))

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None and result is not NotImplemented:
                count(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each listed function in bicmaps' modules."""
        replace = {}
        for name, (module, attrs) in LAYERS.items():
            owner = importlib.import_module(f"bicmaps.{module}")
            for attr in attrs:
                holder = owner
                if "." in attr:
                    cls, attr = attr.split(".")
                    holder = getattr(owner, cls)
                original = vars(holder)[attr]
                replace[id(original)] = (original, self.wrap(name, original))
        missed = _rebind(replace)
        if missed:
            raise RuntimeError(f"bindings the tracer cannot replace: {missed}")


def _rebind(replace: dict) -> list[str]:
    """Swap originals for wrappers everywhere; return bindings that could not be."""

    def swap(value):
        hit = replace.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    missed = []
    for modname, module in list(sys.modules.items()):
        if modname != "bicmaps" and not modname.startswith("bicmaps."):
            continue
        for key, value in list(vars(module).items()):
            new = swap(value)
            if new is not None:
                setattr(module, key, new)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    new = swap(dvalue)
                    if new is not None:
                        value[dkey] = new
            elif isinstance(value, type) and value.__module__.startswith("bicmaps"):
                for ckey, cvalue in list(vars(value).items()):
                    new = swap(cvalue)
                    if new is not None:
                        setattr(value, ckey, new)
            elif isinstance(value, (list, tuple)) and any(swap(v) is not None for v in value):
                missed.append(f"{modname}.{key}")
    return missed


# -- aggregation ----------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per-name calls, total_s and self_s from (name, parent, start, end) spans.

    Self time is a span's duration minus the part its child spans cover.  A
    span nested anywhere inside a span of the same name adds its call but
    not its duration to total_s, which would otherwise count twice.
    """
    children = defaultdict(list)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            st["total_s"] += end - start
        st["self_s"] += (end - start) - covered(start, end, children[i])
    return stats


def layer_values(stats: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics measurable from one traced run (not the document)."""
    out = {}
    for name in LAYERS:
        st = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if name.startswith("suites."):
            out[f"{name}.total_s"] = st["total_s"]
            continue
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.total_s"] = st["total_s"]
        out[f"{name}.self_s"] = st["self_s"]
    out["series.mul.terms_in"] = counts.get("mul.terms_in", 0)
    out["series.mul.terms_out"] = counts.get("mul.terms_out", 0)
    out["series.exact_div.degrees_lost"] = counts.get("exact_div.degrees_lost", 0)
    entries = counts.get("cf_extract.entries", 0)
    out["hankel.cf_extract.useful_share"] = (
        counts.get("cf_extract.useful", 0) / entries if entries else 0.0
    )
    operands = counts.get("mul.operands", 0)
    out["rational.fraction_operand_share"] = (
        counts.get("mul.fraction_operands", 0) / operands if operands else 0.0
    )
    return out

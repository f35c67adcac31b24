"""Named cross-validation suites behind the command-line verify command.

Each suite re-derives a family of identities at a caller-chosen truncation
order and seed, comparing independent computational routes coefficient by
coefficient.  Results are plain records; the first differing coefficient is
reported on failure.  Random rational sample points are small integers over
small primes drawn from the seeded generator, so reports are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .closedform import closed_ladder, hex_params, quad_params
from .dimers import SegmentSpec, lgv, segment_ends, zhd, zhd_brute, zhd_closed_check
from .extensions import (
    binary_closed_ladder,
    binary_solve,
    rotate_colors,
    ternary_closed_ladder,
    ternary_solve,
    tricolor_characteristic_residual,
    tricolor_closed_check,
    tricolor_solve,
)
from .hankel import (
    cf_expand,
    cf_extract,
    det_division_free,
    det_leibniz,
    determinant_ladder,
    hankel_det,
    hankel_family,
)
from .paths import (
    RatPathWeights,
    WeightLadder,
    check_reflection_even,
    check_reflection_odd,
    ladder_pairs,
    rat_path,
    rat_path_brute,
    z_plus,
)
from .rational import Rat, rat
from .series import (
    MSeries,
    SeriesRing,
    agree,
    common_reliable,
    exact_div,
    first_difference,
    inv_unit,
    one,
    solve_quadratic_branch,
    sqrt_unit,
    variable,
    zero,
)
from .slices import (
    FaceWeights,
    alpha_coeffs,
    conserved,
    f_direct,
    f_sequence,
    ladder_solve,
    tail_solve,
    twopoint_from_ladder,
)

_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Suite:
    """Collects named pass/fail outcomes with coefficient-level diagnostics."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def ok(self, name: str, condition: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(condition), "" if condition else detail))

    def pairs_agree(self, name: str, pairs: list, order: int, detail: str = ""):
        """Each pair of series agrees through its common reliable degree.

        A passing check whose pairs are all reliable to degree 0 only
        compared constant terms; its detail says it was skipped.  A failing
        check reports ``detail``, or else the first differing coefficient
        of the first pair that disagrees.
        """
        diffs = [d for d in (first_difference(f, g) for f, g in pairs) if d is not None]
        if not diffs and all(common_reliable(f, g) == 0 for f, g in pairs):
            detail = f"skipped: no compared pair is reliable above degree 0 at order {order}"
            self.results.append(CheckResult(name, True, detail))
            return
        if diffs and not detail:
            e, cf, cg = diffs[0]
            detail = f"first differing coefficient at {e}: {cf} != {cg}"
        self.ok(name, not diffs, detail)


def _sample_rat(rng: random.Random) -> Rat:
    return rat(rng.randint(1, 9), rng.choice(_PRIMES))


def _sample_poly(rng: random.Random, ring: SeriesRing, unit: bool) -> MSeries:
    coeffs = {}
    for _ in range(6):
        e = (rng.randint(0, 2), rng.randint(0, 2))
        if sum(e) <= ring.order:
            coeffs[e] = rat(rng.randint(-4, 4))
    coeffs[(0, 0)] = rat(1) if unit else rat(0)
    return MSeries(ring.num_vars, ring.order, coeffs)


QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()
MIXED = FaceWeights((rat(1, 2), rat(1)))
OCT = FaceWeights((rat(0), rat(0), rat(0), rat(1)))


def suite_series(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    rng = random.Random(seed)
    ring = SeriesRing(2, order)
    for trial in range(4):
        u = _sample_poly(rng, ring, unit=True)
        s.pairs_agree(
            f"series/inverse-roundtrip-{trial}", [(u * inv_unit(u), ring.one())], order
        )
        g = variable(2, order, 0) * u
        f = g * _sample_poly(rng, ring, unit=True)
        s.pairs_agree(f"series/division-roundtrip-{trial}", [(exact_div(f, g) * g, f)], order)
        sq = sqrt_unit(u * u)
        s.pairs_agree(f"series/sqrt-roundtrip-{trial}", [(sq * sq, u * u)], order)
    a2 = _sample_poly(rng, ring, unit=True)
    a1 = _sample_poly(rng, ring, unit=True)
    a0 = variable(2, order, 1) * _sample_poly(rng, ring, unit=True)
    mu = solve_quadratic_branch(a2, a1, a0)
    s.pairs_agree(
        "series/quadratic-residual", [(a2 * mu * mu + a1 * mu + a0, ring.zero())], order
    )
    return s.results


def suite_paths(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    rng = random.Random(seed)
    points = [RatPathWeights(_sample_rat(rng), _sample_rat(rng)) for _ in range(5)]
    for p, wt in enumerate(points):
        odd_ok = all(
            check_reflection_odd(k, l, q, wt, brute=(q <= 3))
            for k in range(1, 4)
            for l in range(1, 4)
            for q in range(6)
        )
        even_ok = all(
            check_reflection_even(k, l, q, wt, brute=(q <= 3))
            for k in range(4)
            for l in range(4)
            for q in range(6)
        )
        s.ok(f"paths/reflection-odd-point-{p}", odd_ok)
        s.ok(f"paths/reflection-even-point-{p}", even_ok)
    wt = points[0]
    s.ok(
        "paths/dp-vs-brute",
        all(
            rat_path("bb", 0, 2 * dh, length, 0, wt)
            == rat_path_brute("bb", 0, 2 * dh, length, 0, wt)
            for dh in (0, 1)
            for length in (4, 6, 8)
        ),
    )
    ring = SeriesRing(2, order)
    tb, tw = ring.gens()
    const = WeightLadder.constant_ladder(tb, tw)
    s.ok(
        "paths/translation-invariance",
        all(
            z_plus(d, d, 6, const, floor=d) == z_plus(0, 0, 6, const) for d in (1, 2, 3)
        ),
    )
    return s.results


def suite_slices(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    ring = SeriesRing(2, order)
    tb, tw = ring.gens()
    for label, g in (("quad", QUAD), ("hex", HEX), ("mixed", MIXED)):
        # the two-point table below needs a height above its i_max of 3
        ladder = ladder_solve(g, ring, height=4)
        b, w = ladder.tail_black, ladder.tail_white
        s.pairs_agree(
            f"slices/{label}/first-entry-color-identity",
            [(tw * ladder.black_weight(1), tb * ladder.white_weight(1))],
            order,
        )
        for i in (1, 2, 3):
            s.pairs_agree(
                f"slices/{label}/color-swap-{i}",
                [(ladder.black_weight(i).swap_vars(), ladder.white_weight(i))],
                order,
            )
        base = {n: conserved(n, 0, ladder, g) for n in (1, 2, 3)}
        s.pairs_agree(
            f"slices/{label}/conserved-offset-independence",
            [(conserved(n, d, ladder, g), base[n]) for n in (1, 2, 3) for d in range(1, 5)],
            order,
        )
        s.pairs_agree(
            f"slices/{label}/conserved-equals-direct",
            [(f_direct(n, g, b, w), base[n]) for n in (1, 2, 3)],
            order,
        )
        if label != "mixed":  # fractional face weights do not produce counts
            table = twopoint_from_ladder(ladder, 3)
            s.ok(
                f"slices/{label}/two-point-counts",
                all(
                    c > 0 and rat(c).denominator == 1
                    for series in table.black + table.white
                    for _, c in series.terms()
                ),
            )
    return s.results


def suite_hankel(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    rng = random.Random(seed)
    ring = SeriesRing(2, order)
    for n in (2, 3):
        rows = [[rat(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        s.ok(
            f"hankel/det-vs-leibniz-{n}x{n}",
            det_division_free(rows) == det_leibniz(rows),
        )
    for label, g in (("quad", QUAD), ("hex", HEX)):
        ladder = ladder_solve(g, ring)
        b, w = ladder.tail_black, ladder.tail_white
        fb = f_sequence(7, g, b, w, color="black")
        fw = f_sequence(7, g, b, w, color="white")
        s.ok(
            f"hankel/{label}/det-vs-leibniz-series",
            all(hankel_det(fb, 0, i) == det_leibniz(
                [[fb[n + m] for m in range(i + 1)] for n in range(i + 1)]
            ) for i in (1, 2)),
        )
        extracted = cf_extract(hankel_family(fb, fw, 3), 6)
        s.pairs_agree(
            f"hankel/{label}/extraction-vs-recursion", ladder_pairs(extracted, ladder, 6), order
        )
        expanded = cf_expand(ladder, depth=8, n_max=5)
        s.pairs_agree(
            f"hankel/{label}/expansion-vs-direct",
            [(expanded[n], fb[n]) for n in range(6)],
            order,
        )
    return s.results


def suite_closedform(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    ring = SeriesRing(2, order)
    b, w = tail_solve(QUAD, ring)
    params = quad_params(b, w)
    s.pairs_agree(
        "closedform/quad/characteristic-residual",
        [(w * params.d * params.d + (2 * (b + w) - 1) * params.d + b, ring.zero())],
        order,
    )
    s.pairs_agree(
        "closedform/quad/y-relation", [(params.y * b, params.d * params.d * w)], order
    )
    families = [("quad", QUAD, 6)]
    if order >= 2:  # below it hex_params refuses, its weights vouch for nothing
        families.append(("hex", HEX, 4))
        hb, hw = tail_solve(HEX, ring)
        hx = hex_params(hb, hw)
        s.pairs_agree(
            "closedform/hex/branch-relation",
            [(hw * hx.d1 * hx.d1 - hx.wz1 * hx.d1 + hb, ring.zero())],
            order,
        )
        s.pairs_agree(
            "closedform/hex/weights-resolve-unity",
            [(hx.lam1 + hx.lam2 + hx.wd, ring.one())],
            order,
        )
    for label, g, top in families:
        ladder = ladder_solve(g, ring)
        closed = closed_ladder(g, ring, top)
        s.pairs_agree(
            f"closedform/{label}/closed-vs-recursion", ladder_pairs(closed, ladder, top), order
        )
        s.pairs_agree(
            f"closedform/{label}/uncolored-collapse",
            [
                (closed.black_weight(i).collapse_vars(), closed.white_weight(i).collapse_vars())
                for i in range(1, top + 1)
            ],
            order,
        )
    return s.results


def suite_dimers(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    rng = random.Random(seed)
    s.ok(
        "dimers/transfer-vs-brute",
        all(
            zhd(SegmentSpec(links, ends)) == zhd_brute(SegmentSpec(links, ends))
            for links in range(13)
            for ends in segment_ends(links)
        ),
    )
    def sample_x() -> Rat:
        while True:
            x = _sample_rat(rng)
            if x != 1:  # positive samples, so only x = 1 is degenerate
                return x

    points = [(rat(1), sample_x())]  # always include the uncolored collapse
    while len(points) < 5:
        points.append((_sample_rat(rng), sample_x()))
    s.ok(
        "dimers/closed-forms-at-rational-points",
        all(
            zhd_closed_check(SegmentSpec(links, ends), c, x)
            for c, x in points
            for links in range(11)
            for ends in segment_ends(links)
        ),
    )
    ring = SeriesRing(2, order)
    for label, g, top in (("quad", QUAD, 3), ("hex", HEX, 2)):
        b, w = tail_solve(g, ring)
        alpha = alpha_coeffs(g, b, w)
        fb = f_sequence(2 * top + 2, g, b, w)
        pairs = []  # pairs 2i and 2i + 1 are the determinants of index i
        for i in range(top + 1):
            h0, h1 = lgv(i, b, w, alpha)
            pairs += [(h0, hankel_det(fb, 0, i)), (h1, hankel_det(fb, 1, i))]
        bad = [k // 2 for k, (got, want) in enumerate(pairs) if not agree(got, want)]
        s.pairs_agree(
            f"dimers/{label}/segment-vs-determinant",
            pairs,
            order,
            f"index {bad[0]} disagrees" if bad else "",
        )
    return s.results


def suite_extensions(order: int, seed: int) -> list[CheckResult]:
    s = _Suite()
    ring = SeriesRing(2, order)
    for label, solve, closed_form in (
        ("ternary", ternary_solve, ternary_closed_ladder),
        ("binary", binary_solve, binary_closed_ladder),
    ):
        ladder = solve(ring)
        s.ok(f"extensions/{label}/unit-seeds", ladder.black_weight(1) == one(2, order))
        s.pairs_agree(
            f"extensions/{label}/closed-vs-perturbative",
            ladder_pairs(closed_form(ladder, 6), ladder, 6),
            order,
        )
    tri_order = min(order, 8)
    state = tricolor_solve(SeriesRing(3, tri_order))
    s.ok("extensions/tricolor/closed-and-symmetry", tricolor_closed_check(state, 6))
    s.pairs_agree(
        "extensions/tricolor/characteristic-identity",
        [(tricolor_characteristic_residual(state), zero(3, tri_order))],
        order,
    )
    s.ok(
        "extensions/tricolor/rotation",
        all(
            rotate_colors(state.t_at(i)) == state.u_at(i)
            and rotate_colors(state.u_at(i)) == state.v_at(i)
            for i in range(1, state.height + 1)
        ),
    )
    return s.results


def suite_general(order: int, seed: int) -> list[CheckResult]:
    """The p = 3 family has no closed form; recursion and determinants must agree."""
    s = _Suite()
    ring = SeriesRing(2, order)
    ladder = ladder_solve(OCT, ring)
    extracted = determinant_ladder(OCT, ring, 4)
    s.pairs_agree(
        "general/oct/extraction-vs-recursion", ladder_pairs(extracted, ladder, 4), order
    )
    base = conserved(1, 0, ladder, OCT)
    s.pairs_agree(
        "general/oct/conserved-independence",
        [(conserved(1, d, ladder, OCT), base) for d in range(1, 4)],
        order,
    )
    return s.results


SUITES = {
    "series": suite_series,
    "paths": suite_paths,
    "slices": suite_slices,
    "hankel": suite_hankel,
    "closedform": suite_closedform,
    "dimers": suite_dimers,
    "extensions": suite_extensions,
    "general": suite_general,
}


def run_suite(name: str, order: int, seed: int) -> list[CheckResult]:
    if name == "all":
        out: list[CheckResult] = []
        for key in SUITES:
            out.extend(SUITES[key](order, seed))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](order, seed)

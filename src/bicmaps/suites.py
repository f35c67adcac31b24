"""Named cross-validation suites behind the command-line verify command.

Each suite re-derives a family of identities at a caller-chosen truncation
order and seed, comparing independent computational routes coefficient by
coefficient.  Results are plain records; the first differing coefficient is
reported on failure.  Random rational sample points are small integers over
small primes drawn from the seeded generator, so reports are reproducible.

Every suite records its checks on one ``SuiteRun`` and returns None.  The
run holds the order, the seed, the ring, the checks, and the recursion
ladder of each face-weight family, solved the first time a suite asks for
it.  So ``run_suite("all", ...)`` solves each family's recursion once, and
the suites that compare other routes with it share it.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .closedform import hex_ladder_closed, hex_params, quad_ladder_closed, quad_params
from .dimers import lgv, zhd, zhd_brute, zhd_closed_check
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
    hankel_family,
    moment_ladder,
)
from .paths import (
    BalancedSums,
    RatPathWeights,
    WeightLadder,
    check_reflection_even,
    check_reflection_odd,
    ladder_pairs,
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
    conserved,
    f_sequence,
    ladder_solve,
    tail_solve,
    twopoint_from_ladder,
)

_PRIMES = (2, 3, 5, 7, 11, 13)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


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


class SuiteRun:
    """One verify run: the order, the seed, the ring, the recursion ladder
    of each face-weight family, and the checks its suites record."""

    __slots__ = ("order", "seed", "ring", "ladders", "results")

    def __init__(self, order: int, seed: int):
        self.order, self.seed = order, seed
        self.ring = SeriesRing(2, order)
        self.ladders = {}
        self.results: list[CheckResult] = []

    def ok(self, name: str, condition: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(condition), "" if condition else detail))

    def pairs_agree(self, name: str, pairs: list, detail: str = ""):
        """Each pair of series agrees through its common reliable degree.

        A passing check whose pairs are all reliable to degree 0 only
        compared constant terms; its detail says it was skipped.  A failing
        check reports ``detail``, or else the first differing coefficient
        of the first pair that disagrees.
        """
        diffs = [d for d in (first_difference(f, g) for f, g in pairs) if d is not None]
        if not diffs and all(common_reliable(f, g) == 0 for f, g in pairs):
            detail = f"skipped: no compared pair is reliable above degree 0 at order {self.order}"
            self.results.append(CheckResult(name, True, detail))
            return
        if diffs and not detail:
            e, cf, cg = diffs[0]
            detail = f"first differing coefficient at {e}: {cf} != {cg}"
        self.ok(name, not diffs, detail)

    def ladder(self, g: FaceWeights) -> WeightLadder:
        """The recursion ladder of ``g``, solved on first use in this run."""
        if g not in self.ladders:
            self.ladders[g] = ladder_solve(g, self.ring)
        return self.ladders[g]

    def tails(self, g: FaceWeights) -> tuple[MSeries, MSeries]:
        """The tails B, W of ``g``: those of its ladder if this run has
        solved it, else ``tail_solve``'s, which solves no ladder entries."""
        if g in self.ladders:
            ladder = self.ladders[g]
            return ladder.tail_black, ladder.tail_white
        return tail_solve(g, self.ring)


def suite_series(run: SuiteRun) -> None:
    order, ring = run.order, run.ring
    rng = random.Random(run.seed)
    for trial in range(4):
        u = _sample_poly(rng, ring, unit=True)
        run.pairs_agree(f"series/inverse-roundtrip-{trial}", [(u * inv_unit(u), ring.one())])
        g = variable(2, order, 0) * u
        f = g * _sample_poly(rng, ring, unit=True)
        run.pairs_agree(f"series/division-roundtrip-{trial}", [(exact_div(f, g) * g, f)])
        sq = sqrt_unit(u * u)
        run.pairs_agree(f"series/sqrt-roundtrip-{trial}", [(sq * sq, u * u)])
    a2 = _sample_poly(rng, ring, unit=True)
    a1 = _sample_poly(rng, ring, unit=True)
    a0 = variable(2, order, 1) * _sample_poly(rng, ring, unit=True)
    mu = solve_quadratic_branch(a2, a1, a0)
    run.pairs_agree("series/quadratic-residual", [(a2 * mu * mu + a1 * mu + a0, ring.zero())])


def suite_paths(run: SuiteRun) -> None:
    """The reflection identities at five sample points, and the path DPs.

    Each point walks each of its starts once, through length 10, and reads
    every end and length from that walk: seven floored starts and the free
    walk of the drops, 40 walks in all.  The brute oracle's word tallies do
    not depend on the sample point, so one dict of them serves all five.
    """
    rng = random.Random(run.seed)
    tallies: dict = {}
    points = [
        BalancedSums(RatPathWeights(_sample_rat(rng), _sample_rat(rng)), 10, tallies)
        for _ in range(5)
    ]
    for p, sums in enumerate(points):
        odd_ok = all(
            check_reflection_odd(k, l, q, sums, brute=(q <= 3))
            for k in range(1, 4)
            for l in range(1, 4)
            for q in range(6)
        )
        even_ok = all(
            check_reflection_even(k, l, q, sums, brute=(q <= 3))
            for k in range(4)
            for l in range(4)
            for q in range(6)
        )
        run.ok(f"paths/reflection-odd-point-{p}", odd_ok)
        run.ok(f"paths/reflection-even-point-{p}", even_ok)
    sums = points[0]
    run.ok(
        "paths/dp-vs-brute",
        all(
            sums.path(0, 2 * dh, length, 0) == sums.path(0, 2 * dh, length, 0, brute=True)
            for dh in (0, 1)
            for length in (4, 6, 8)
        ),
    )
    tb, tw = run.ring.gens()
    tails = WeightLadder((), (), tb, tw)
    run.ok(
        "paths/translation-invariance",
        all(
            z_plus(d, d, 6, tails, floor=d) == z_plus(0, 0, 6, tails) for d in (1, 2, 3)
        ),
    )


def suite_slices(run: SuiteRun) -> None:
    tb, tw = run.ring.gens()
    for label, g in (("quad", QUAD), ("hex", HEX), ("mixed", MIXED)):
        ladder = run.ladder(g)
        b, w = ladder.tail_black, ladder.tail_white
        run.pairs_agree(
            f"slices/{label}/first-entry-color-identity",
            [(tw * ladder.black_weight(1), tb * ladder.white_weight(1))],
        )
        for i in (1, 2, 3):
            run.pairs_agree(
                f"slices/{label}/color-swap-{i}",
                [(ladder.black_weight(i).swap_vars(), ladder.white_weight(i))],
            )
        base, *offsets = (conserved(3, d, ladder, g) for d in range(5))
        run.pairs_agree(
            f"slices/{label}/conserved-offset-independence",
            [(f[n], base[n]) for n in (1, 2, 3) for f in offsets],
        )
        direct = f_sequence(3, g, b, w)
        run.pairs_agree(
            f"slices/{label}/conserved-equals-direct",
            [(direct[n], base[n]) for n in (1, 2, 3)],
        )
        if label != "mixed":  # fractional face weights do not produce counts
            table = twopoint_from_ladder(ladder, 3)
            run.ok(
                f"slices/{label}/two-point-counts",
                all(
                    c > 0 and rat(c).denominator == 1
                    for series in table.black + table.white
                    for _, c in series.terms()
                ),
            )


def suite_hankel(run: SuiteRun) -> None:
    rng = random.Random(run.seed)
    for n in (2, 3):
        rows = [[rat(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        run.ok(
            f"hankel/det-vs-leibniz-{n}x{n}",
            det_division_free(rows) == det_leibniz(rows),
        )
    for label, g in (("quad", QUAD), ("hex", HEX)):
        ladder = run.ladder(g)
        b, w = ladder.tail_black, ladder.tail_white
        fb = f_sequence(6, g, b, w)
        fam = hankel_family(fb)  # serves the Leibniz check and the extraction
        run.ok(
            f"hankel/{label}/det-vs-leibniz-series",
            all(fam.h0[i] == det_leibniz(
                [[fb[n + m] for m in range(i + 1)] for n in range(i + 1)]
            ) for i in (1, 2)),
        )
        run.pairs_agree(
            f"hankel/{label}/extraction-vs-recursion", ladder_pairs(cf_extract(fam), ladder, 6)
        )
        expanded = cf_expand(ladder, n_max=5)
        run.pairs_agree(
            f"hankel/{label}/expansion-vs-direct",
            [(expanded[n], fb[n]) for n in range(6)],
        )


def suite_closedform(run: SuiteRun) -> None:
    order, ring = run.order, run.ring
    quad = run.ladder(QUAD)
    b, w = quad.tail_black, quad.tail_white
    params = quad_params(b, w)
    run.pairs_agree(
        "closedform/quad/characteristic-residual",
        [(w * params.d * params.d + (2 * (b + w) - 1) * params.d + b, ring.zero())],
    )
    run.pairs_agree("closedform/quad/y-relation", [(params.y * b, params.d * params.d * w)])
    families = [("quad", quad, 6, quad_ladder_closed(params, 6))]
    if order >= 2:  # below it hex_params refuses, its weights vouch for nothing
        hexa = run.ladder(HEX)
        hb, hw = hexa.tail_black, hexa.tail_white
        hx = hex_params(hb, hw)
        families.append(("hex", hexa, 4, hex_ladder_closed(hx, 4)))
        run.pairs_agree(
            "closedform/hex/branch-relation",
            [(hw * hx.d1 * hx.d1 - hx.wz1 * hx.d1 + hb, ring.zero())],
        )
        run.pairs_agree(
            "closedform/hex/weights-resolve-unity",
            [(hx.lam1 + hx.lam2 + hx.wd, ring.one())],
        )
    for label, ladder, top, closed in families:
        run.pairs_agree(
            f"closedform/{label}/closed-vs-recursion", ladder_pairs(closed, ladder, top)
        )
        run.pairs_agree(
            f"closedform/{label}/uncolored-collapse",
            [
                (closed.black_weight(i).collapse_vars(), closed.white_weight(i).collapse_vars())
                for i in range(1, top + 1)
            ],
        )


def suite_dimers(run: SuiteRun) -> None:
    rng = random.Random(run.seed)
    run.ok(
        "dimers/transfer-vs-brute",
        all(
            poly == zhd_brute(links, black_start=black_start)
            for black_start in (True, False)
            for links, poly in enumerate(zhd(12, black_start=black_start))
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
    run.ok(
        "dimers/closed-forms-at-rational-points",
        all(
            zhd_closed_check(10, c, x, black_start=black_start)
            for c, x in points
            for black_start in (True, False)
        ),
    )
    for label, g, top in (("quad", QUAD, 3), ("hex", HEX, 2)):
        b, w = run.tails(g)
        walked = lgv(top, g, b, w)
        dets = hankel_family(f_sequence(2 * top + 1, g, b, w))
        pairs = []  # pairs 2i and 2i + 1 are the determinants of index i
        for i in range(top + 1):
            pairs += [(walked.h0[i], dets.h0[i]), (walked.h1[i], dets.h1[i])]
        bad = [k // 2 for k, (got, want) in enumerate(pairs) if not agree(got, want)]
        run.pairs_agree(
            f"dimers/{label}/segment-vs-determinant",
            pairs,
            f"index {bad[0]} disagrees" if bad else "",
        )


def suite_extensions(run: SuiteRun) -> None:
    order, ring = run.order, run.ring
    for label, solve, closed_form in (
        ("ternary", ternary_solve, ternary_closed_ladder),
        ("binary", binary_solve, binary_closed_ladder),
    ):
        ladder = solve(ring)
        run.ok(f"extensions/{label}/unit-seeds", ladder.black_weight(1) == one(2, order))
        run.pairs_agree(
            f"extensions/{label}/closed-vs-perturbative",
            ladder_pairs(closed_form(ladder, 6), ladder, 6),
        )
    tri_order = min(order, 8)
    state = tricolor_solve(SeriesRing(3, tri_order))
    run.ok("extensions/tricolor/closed-and-symmetry", tricolor_closed_check(state, 6))
    run.pairs_agree(
        "extensions/tricolor/characteristic-identity",
        [(tricolor_characteristic_residual(state), zero(3, tri_order))],
    )
    run.ok(
        "extensions/tricolor/rotation",
        all(
            rotate_colors(state.t_at(i)) == state.u_at(i)
            and rotate_colors(state.u_at(i)) == state.v_at(i)
            for i in range(1, state.height + 1)
        ),
    )


def suite_general(run: SuiteRun) -> None:
    """The p = 3 family has no closed form; recursion and determinants must agree."""
    ladder = run.ladder(OCT)
    b, w = ladder.tail_black, ladder.tail_white
    extracted = moment_ladder(f_sequence(4, OCT, b, w))
    run.pairs_agree("general/oct/extraction-vs-recursion", ladder_pairs(extracted, ladder, 4))
    base, *offsets = (conserved(1, d, ladder, OCT)[1] for d in range(4))
    run.pairs_agree("general/oct/conserved-independence", [(f, base) for f in offsets])


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
    """The checks of suite ``name``, or of every suite in turn for ``"all"``."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    run = SuiteRun(order, seed)
    for key in SUITES if name == "all" else (name,):
        SUITES[key](run)
    return run.results

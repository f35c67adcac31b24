"""Perturbative solvers for the nonlinear slice systems and two-point assembly.

The slice series B_i, W_i (and their common large-i limits B, W) satisfy
nonlinear recursions whose right-hand sides are weighted strip-path sums.
They are solved order by order: every right-hand-side monomial beyond the
seed either involves at least two ladder entries or carries an explicit
vertex weight, so each full Jacobi sweep pins one more total degree.  A
nonzero degree-two face weight g_1 contributes a term proportional to the
unknown itself at the same degree; the sweep divides it out through the
scalar 1/(1 - g_1), which is why g_1 = 1 is rejected as divergent.

The recursion is written once, as the rule of row i, which sums its strips
by first passage: every strip from i first reaches i - 1 by one descent
from i, so the strips of all lengths share that descent's weight and the
row takes one product by it (``paths.strip_sum``; ``z_strip``, one length
at a time, is its oracle).  The limits B, W are
its i -> infinity limit: row p + 1 of the ladder with no entries, the
first row whose strips reach neither index 0 nor the floor, reads only the
tails, and B, W are its fixed point.  ``paths.solve_ladder`` solves the
tails and the entries together, in one fixed point of that one rule, and
its docstring states the sweep schedule and proves it.

The boundary functions F_n and their coefficients alpha_q are built for one
root color: black unless the keyword-only ``black_start`` is False.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .paths import (
    WeightLadder,
    _parity,
    _series_walk,
    color_swap,
    solve_ladder,
    strip_sum,
    z_plus_profile,
)
from .rational import is_rational, rat
from .series import MSeries, SeriesRing, exact_div, variable


class ConvergenceError(Exception):
    """A fixed-point sweep failed to stabilize (mis-weighted path sum)."""


class FaceWeights:
    """Weights g_1..g_{p+1}, entry k applying to faces of degree 2k.

    The list is non-empty, its entries are exact rationals, its last one is
    nonzero, and g_1 != 1, which would make the series divergent.  Equal
    and hashed by ``g``, stored as a tuple: a verify run keys its ladders
    by them."""

    __slots__ = ("g",)

    def __init__(self, g):
        g = tuple(g)
        if not g or not g[-1]:
            raise ValueError("face weight list must be non-empty with nonzero last entry")
        if not all(is_rational(x) for x in g):
            raise ValueError("face weights must be exact rationals")
        if g[0] == 1:
            raise ValueError("the degree-two face weight g_1 = 1 makes the series divergent")
        self.g = g

    def __eq__(self, other):
        return self.g == other.g if other.__class__ is FaceWeights else NotImplemented

    def __hash__(self):
        return hash(self.g)

    @classmethod
    def quadrangulations(cls) -> "FaceWeights":
        return cls((rat(0), rat(1)))

    @classmethod
    def hexangulations(cls) -> "FaceWeights":
        return cls((rat(0), rat(0), rat(1)))

    @property
    def p(self) -> int:
        return len(self.g) - 1

    def weight(self, k: int):
        """Weight of a face of degree 2k (zero beyond the stored list)."""
        return self.g[k - 1] if 1 <= k <= len(self.g) else rat(0)


def _slice_system(g: FaceWeights, ring: SeriesRing) -> tuple:
    """The slice recursion as ``solve_ladder`` takes it: (rows, mirror,
    far, ring, error).

    Row i is B_i = (t_black + sum_k g_k Z(2k - 1)) / (1 - g_1), with Z the
    strip paths of length 2k - 1 from height i down to i - 1, floored at
    zero and starting black, and W_i the same with the colors exchanged.
    ``strip_sum`` forms the sum over k >= 2 by first passage, with one
    pair of walks for every k; the k = 1 term is g_1 B_i itself, divided
    out.
    The face weights do not depend on color, so exchanging the colors
    together with t_black and t_white maps the system onto itself: W_i is
    B_i with the two variables swapped.  Row p + 1 is the first whose
    strips, of length at most 2p + 1, reach neither index 0 nor the floor.
    """
    scale = rat(1, 1 - g.g[0])
    tb, tw = ring.gens()[:2]
    # strips of length 2k - 1 weigh g_k; the g_1 term is divided out by scale
    weights = (0, *g.g[1:])

    def rows(entries, tails):
        lad = WeightLadder(*entries, *tails)

        def family(black_start, t):
            return lambda i: (t + strip_sum(i, weights, lad, black_start=black_start)) * scale

        return family(True, tb), family(False, tw)

    error = ConvergenceError("slice recursion did not reach a fixed point")
    return rows, color_swap, g.p + 1, ring, error


def tail_solve(g: FaceWeights, ring: SeriesRing) -> tuple[MSeries, MSeries]:
    """Height-independent limits B, W of the slice series, exact to ring.order."""
    return solve_ladder(*_slice_system(g, ring), 0)[1]


def ladder_solve(g: FaceWeights, ring: SeriesRing, height: int | None = None) -> WeightLadder:
    """Solve the slice recursion for B_1..B_h, W_1..W_h with tail boundary.

    ``height`` h, order + p + 1 by default, is the number of entries
    returned, each exact through the order, and h = 0 returns the tails
    alone.  ``paths.solve_ladder`` solves them, raising ConvergenceError
    when its stability sweep fails, and its docstring states the sweep
    schedule and proves it.
    """
    system = _slice_system(g, ring)
    (blacks, whites), (tail_b, tail_w) = solve_ladder(*system, height)
    return WeightLadder(blacks, whites, tail_b, tail_w)


def alpha_brackets(g: FaceWeights, b: MSeries, w: MSeries) -> tuple[MSeries, ...]:
    """The brackets delta_{q,0} - sum_{k>q} g_k L_0(2k-2q-2), q = 0..p, of ``alpha_coeffs``:
    the same for both root colors, the last one the constant -g_{p+1}.

    L_0(0), L_0(2), ..., L_0(2p) come from one profile walk from height p,
    black: on the tails' ladder a round trip of length 2j <= 2p from there
    never reads an index below 1 and never meets the floor."""
    nv, order = b.num_vars, b.order
    closed = z_plus_profile(g.p, 2 * g.p, WeightLadder((), (), b, w), floor=0)[::2]
    brackets = []
    for q in range(g.p + 1):
        bracket = MSeries(nv, order, {(0,) * nv: 1} if q == 0 else {})
        for k in range(q + 1, g.p + 2):
            gk = g.weight(k)
            if gk:
                bracket = bracket - gk * closed[k - q - 1]
        brackets.append(bracket)
    return tuple(brackets)


def alpha_coeffs(
    g: FaceWeights, b: MSeries, w: MSeries, *, black_start: bool = True
) -> tuple[MSeries, ...]:
    """alpha_0..alpha_p for a black root, or a white one when black_start is
    False: the ``alpha_brackets`` times the unit B/t_black, or W/t_white, so
    t_white*alpha_q(white)/W = t_black*alpha_q(black)/B identically."""
    root, index = (b, 0) if black_start else (w, 1)
    unit = exact_div(root, variable(b.num_vars, b.order, index))
    return tuple(unit * bracket for bracket in alpha_brackets(g, b, w))


def f_sequence(
    n_max: int, g: FaceWeights, b: MSeries, w: MSeries, *, black_start: bool = True
) -> list[MSeries]:
    """All boundary generating functions F_0..F_{n_max} from one path sweep."""
    weights = alpha_coeffs(g, b, w, black_start=black_start)
    lad = WeightLadder((), (), b, w)
    profile = z_plus_profile(0, 2 * n_max + 2 * g.p, lad, floor=0, black_start=black_start)
    out = []
    for n in range(n_max + 1):
        total = weights[0] * profile[2 * n]
        for q in range(1, g.p + 1):
            total = total + weights[q] * profile[2 * n + 2 * q]
        out.append(total)
    return out


def conserved(
    n_max: int, d: int, ladder: WeightLadder, g: FaceWeights, *, black_start: bool = True
) -> list[MSeries]:
    """The boundary generating functions F_0..F_{n_max} computed at height
    offset d, indexed like ``f_sequence``.

    The value is independent of d: the d-dependence of the round trips is
    cancelled by subtracting the configurations whose root sits strictly
    closer to the marked vertex, resolved through strips dropping to d-1.
    F_n is main - outer_j * strip_j / t_root summed over j = 1..min(n, p):
    main sums the paths of length 2n from d back to d, outer_j those to
    d + 2j, both floored at d, and strip_j is sum_{k>j} g_k times the paths
    of length 2k - 1 from d + 2j down to d - 1; strips of length at most
    2p + 1 cannot drop that far for j > p.  One walk from d of 2 n_max
    steps, pruned to the ends d..d + 2 min(n_max, p), gives main and every
    outer_j at every n, and one walk from each d + 2j every strip length.
    The division by the root vertex weight is exact by construction;
    DivisibilityError here means a mis-weighted path sum.
    """
    if n_max < 0 or d < 0:
        raise ValueError("need n_max >= 0 and d >= 0")
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    root_weight = variable(nv, order, 0 if black_start else 1)
    nothing = MSeries(nv, order, {})
    parity = _parity(d, black_start)
    top = min(n_max, g.p)
    strips = []
    below = d - 1
    for j in range(1, top + 1):
        down = _series_walk(d + 2 * j, (below, below), 2 * g.p + 1, min(0, below), parity, ladder)
        drops = [cur.get(below, nothing) for cur in down]
        strip = nothing
        for k in range(j + 1, g.p + 2):
            if g.weight(k):
                strip = strip + g.weight(k) * drops[2 * k - 1]
        strips.append(strip)
    out = []
    walk = _series_walk(d, (d, d + 2 * top), 2 * n_max, d, parity, ladder)
    for n, cur in enumerate(islice(walk, None, None, 2)):
        correction = nothing
        for j, strip in enumerate(strips[:n], 1):
            outer = cur.get(d + 2 * j)
            if outer is not None and not outer.is_zero():
                correction = correction + outer * strip
        out.append(cur[d] - exact_div(correction, root_weight))
    return out


class TwoPointTable(NamedTuple):
    """Distance-indexed two-point generating functions, both root colors."""

    black: tuple[MSeries, ...]
    white: tuple[MSeries, ...]

    def g_black(self, i: int) -> MSeries:
        return self.black[i - 1]

    def g_white(self, i: int) -> MSeries:
        return self.white[i - 1]


def twopoint_from_ladder(ladder: WeightLadder, i_max: int) -> TwoPointTable:
    """Two-point functions as differences of consecutive slice series.

    A root edge at distances (i, i-1) cuts into an i-slice of maximal left
    boundary; removing shorter-boundary slices leaves B_i - B_{i-1}, and the
    marked vertex restores one vertex weight of the opposite color at odd i.
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    if ladder.height < i_max:
        raise ValueError("ladder height must reach i_max")
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    tb = variable(nv, order, 0)
    tw = variable(nv, order, 1)
    blacks = [tw * (ladder.black_weight(1) - tb)]
    whites = [tb * (ladder.white_weight(1) - tw)]
    for i in range(2, i_max + 1):
        db = ladder.black_weight(i) - ladder.black_weight(i - 1)
        dw = ladder.white_weight(i) - ladder.white_weight(i - 1)
        if i % 2 == 0:
            blacks.append(tb * db)
            whites.append(tw * dw)
        else:
            blacks.append(tw * db)
            whites.append(tb * dw)
    return TwoPointTable(tuple(blacks), tuple(whites))

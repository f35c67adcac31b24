"""Weighted bicolored lattice-path enumerators.

Paths are sequences of +-1 steps on integer heights, colored alternately in
black and white.  Two weighting conventions coexist:

* series-valued sums weight only descending steps, by the color and height
  of the step's upper end (weight ladder entries B_i / W_i, or the constant
  tail values B / W for the height-independent variant);
* exact-rational "balanced" sums weight both ascending and descending
  steps by the color of the step's lower end (b on white, w on black).

Both run on one dynamic program over heights, ``_walk``; only the
brute-force oracle ``rat_path_brute`` enumerates step words on its own.

The square-root weights of the second convention are never materialized as
series; they only appear through rational sample values, which is where the
reflection identities are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .rational import Rat
from .series import MSeries, agree, one, zero

BLACK_WHITE = "bw"
WHITE_BLACK = "wb"


def ladder_entry(entries: tuple, tail: MSeries, i: int) -> MSeries:
    """Entry i of a ladder: zero at i <= 0, entries[i-1] up to the height, tail above."""
    if i <= 0:
        return zero(tail.num_vars, tail.order)
    return entries[i - 1] if i <= len(entries) else tail


@dataclass(frozen=True)
class WeightLadder:
    """Slice series B_1..B_H, W_1..W_H plus tail values used above height H.

    Index 0 (and below) always weighs zero, matching the convention
    B_0 = W_0 = 0.  A *constant* ladder returns the tail at every height,
    including non-positive ones; it models the height-independent weighting
    where paths may descend below zero.
    """

    black: tuple[MSeries, ...]
    white: tuple[MSeries, ...]
    tail_black: MSeries
    tail_white: MSeries
    constant: bool = False

    def __post_init__(self):
        if len(self.black) != len(self.white):
            raise ValueError("black and white entry lists must have equal length")

    @classmethod
    def constant_ladder(cls, b: MSeries, w: MSeries) -> "WeightLadder":
        return cls((), (), b, w, constant=True)

    @property
    def height(self) -> int:
        return len(self.black)

    def black_weight(self, i: int) -> MSeries:
        if self.constant:
            return self.tail_black
        return ladder_entry(self.black, self.tail_black, i)

    def white_weight(self, i: int) -> MSeries:
        if self.constant:
            return self.tail_white
        return ladder_entry(self.white, self.tail_white, i)

    def step_weight(self, h: int, black_parity: int) -> MSeries:
        """Weight of the descending step with upper end at height h."""
        if h % 2 == black_parity:
            return self.black_weight(h)
        return self.white_weight(h)

    def swapped(self) -> "WeightLadder":
        """Exchange the two colors (black entries become white and vice versa)."""
        return WeightLadder(
            self.white, self.black, self.tail_white, self.tail_black, self.constant
        )


def ladders_agree(a: WeightLadder, b: WeightLadder, i_max: int) -> bool:
    """Entries 1..i_max of both colors agree through their common reliable order."""
    return all(
        agree(a.black_weight(i), b.black_weight(i))
        and agree(a.white_weight(i), b.white_weight(i))
        for i in range(1, i_max + 1)
    )


@dataclass(frozen=True)
class RatPathWeights:
    """Rational sample values for the balanced square-root step weights."""

    b: object
    w: object

    def __post_init__(self):
        if not (self.b > 0 and self.w > 0):
            raise ValueError("step weights must be positive")


def _walk(start, end, length, floor, up, down, unit):
    """Height -> weight maps of +-1 paths after 0, 1, ..., length steps.

    Only heights from which end is still reachable are kept.  up(h) and
    down(h) weigh the step leaving height h upwards or downwards; None means
    weight one and skips the multiplication.  floor=None means no floor.
    """
    cur = {start: unit}
    yield cur
    for step in range(length):
        remaining = length - step - 1
        nxt = {}
        for h, val in cur.items():
            for nh, weight in ((h + 1, up), (h - 1, down)):
                if (floor is not None and nh < floor) or abs(nh - end) > remaining:
                    continue
                piece = val if weight is None else val * weight(h)
                nxt[nh] = nxt[nh] + piece if nh in nxt else piece
        cur = nxt
        yield cur


def _series_walk(start, end, length, floor, black_parity, ladder):
    """_walk with descending steps weighted by the ladder at their upper height."""
    down = partial(ladder.step_weight, black_parity=black_parity)
    unit = one(ladder.tail_black.num_vars, ladder.tail_black.order)
    return _walk(start, end, length, floor, None, down, unit)


def _series_path_sum(
    start: int,
    end: int,
    length: int,
    floor: int | None,
    black_parity: int,
    ladder: WeightLadder,
) -> MSeries:
    """Sum over +-1 paths, descending steps weighted by their upper height."""
    if floor is not None and (start < floor or end < floor):
        raise ValueError("endpoints must not lie below the floor")
    if (start - end - length) % 2 or length < abs(start - end):
        raise ValueError(
            f"no path of length {length} from height {start} to {end}"
        )
    for cur in _series_walk(start, end, length, floor, black_parity, ladder):
        pass
    return cur.get(end, zero(ladder.tail_black.num_vars, ladder.tail_black.order))


def z_plus(
    d: int,
    d2: int,
    length: int,
    ladder: WeightLadder,
    floor: int | None = None,
    black_start: bool = True,
) -> MSeries:
    """Paths from height d to d2 staying at or above the floor.

    The floor defaults to min(d, d2).  Heights with the parity of d carry
    the start color (black unless black_start is False); descending steps
    are weighted by the ladder at their upper height.
    """
    if floor is None:
        floor = min(d, d2)
    parity = d % 2 if black_start else (d + 1) % 2
    return _series_path_sum(d, d2, length, floor, parity, ladder)


def z_plus_profile(
    d: int,
    max_length: int,
    ladder: WeightLadder,
    floor: int | None = None,
    black_start: bool = True,
) -> list[MSeries]:
    """Round-trip sums Z_{d,d}(s) for every s = 0..max_length in one sweep.

    Entry s of the returned list is z_plus(d, d, s, ...); odd entries are
    zero.  One forward pass serves all lengths, which matters when building
    long moment sequences.
    """
    if floor is None:
        floor = d
    parity = d % 2 if black_start else (d + 1) % 2
    nothing = zero(ladder.tail_black.num_vars, ladder.tail_black.order)
    walk = _series_walk(d, d, max_length, floor, parity, ladder)
    return [cur.get(d, nothing) for cur in walk]


def z_strip(colors: str, i: int, length: int, ladder: WeightLadder) -> MSeries:
    """Paths from height i down to i-1, floored at zero (slice recursions).

    colors is "bw" (black start) or "wb" (white start); length must be odd.
    """
    if colors not in (BLACK_WHITE, WHITE_BLACK):
        raise ValueError("colors must be 'bw' or 'wb'")
    if length % 2 == 0:
        raise ValueError("strip paths have odd length")
    if i < 1:
        raise ValueError("strip start height must be at least 1")
    parity = i % 2 if colors == BLACK_WHITE else (i + 1) % 2
    return _series_path_sum(i, i - 1, length, 0, parity, ladder)


def l_zero(length: int, b: MSeries, w: MSeries) -> MSeries:
    """Closed unconstrained round trips with height-independent weights."""
    if length % 2 or length < 0:
        raise ValueError("need an even non-negative length")
    ladder = WeightLadder.constant_ladder(b, w)
    return _series_path_sum(0, 0, length, None, 0, ladder)


# -- exact-rational balanced paths -------------------------------------------


def _start_parity(colors: str, start: int) -> int:
    if colors[0] not in "bw":
        raise ValueError(f"bad colors {colors!r}")
    return start % 2 if colors[0] == "b" else (start + 1) % 2


def rat_path(
    colors: str,
    start: int,
    end: int,
    length: int,
    floor: int | None,
    wt: RatPathWeights,
):
    """Total balanced weight over admissible paths, as an exact rational.

    Every step is weighted by its lower end: b on white, w on black.
    Returns 0 (never raises) when no path fits the endpoints and length.
    """
    parity = _start_parity(colors, start)
    if (start - end - length) % 2 or length < abs(start - end):
        return Rat(0)
    if floor is not None and (start < floor or end < floor):
        return Rat(0)

    def lower_weight(h: int):
        return wt.w if h % 2 == parity else wt.b

    for cur in _walk(
        start, end, length, floor, lower_weight, lambda h: lower_weight(h - 1), Rat(1)
    ):
        pass
    return cur.get(end, Rat(0))


def rat_path_brute(
    colors: str,
    start: int,
    end: int,
    length: int,
    floor: int | None,
    wt: RatPathWeights,
):
    """Oracle for rat_path: direct enumeration of all 2^length step words."""
    parity = _start_parity(colors, start)

    def lower_weight(h: int):
        return wt.w if h % 2 == parity else wt.b

    total = Rat(0)
    for word in product((1, -1), repeat=length):
        h = start
        weight = Rat(1)
        ok = True
        for s in word:
            nh = h + s
            if floor is not None and nh < floor:
                ok = False
                break
            weight *= lower_weight(min(h, nh))
            h = nh
        if ok and h == end:
            total += weight
    return total


def unconstrained_drop(j: int, length: int, wt: RatPathWeights):
    """Balanced weight of unconstrained paths with height decrease 2j."""
    return rat_path("bb", 2 * abs(j), 0, length, None, wt)


def check_reflection_odd(
    k: int, l: int, q: int, wt: RatPathWeights, brute: bool = False
) -> bool:
    """Floor-zero paths between odd (white) heights vs a two-term difference."""
    if min(k, l) < 1 or q < 0:
        raise ValueError("need k, l >= 1 and q >= 0")
    path = rat_path_brute if brute else rat_path
    lhs = path("ww", 2 * k - 1, 2 * l - 1, 2 * q, 0, wt)
    rhs = unconstrained_drop(k - l, 2 * q, wt) - unconstrained_drop(k + l, 2 * q, wt)
    return lhs == rhs


def check_reflection_even(
    k: int, l: int, q: int, wt: RatPathWeights, brute: bool = False
) -> bool:
    """Floor-zero paths between even (black) heights vs the alternating sum.

    The subtraction term acquires a color-ratio correction c = b/w and an
    alternating geometric tail, reflecting that the first step below the
    floor flips one step weight.
    """
    if min(k, l) < 0 or q < 0:
        raise ValueError("need k, l >= 0 and q >= 0")
    path = rat_path_brute if brute else rat_path
    lhs = path("bb", 2 * k, 2 * l, 2 * q, 0, wt)
    c = Rat(wt.b) / Rat(wt.w)
    rhs = unconstrained_drop(k - l, 2 * q, wt) - c * unconstrained_drop(
        k + l + 1, 2 * q, wt
    )
    m = 2
    while k + l + m <= q:
        rhs += (c * c - 1) * (-c) ** (m - 2) * unconstrained_drop(k + l + m, 2 * q, wt)
        m += 1
    return lhs == rhs

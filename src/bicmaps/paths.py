"""Weighted bicolored lattice-path enumerators.

Paths are sequences of +-1 steps on integer heights, colored alternately in
black and white.  Every sum takes the color of its start height as a
keyword-only ``black_start``: the heights of the start's parity are black
when it is True (the default) and white when it is False.  Two weighting
conventions coexist:

* series-valued sums weight only descending steps, by the color and height
  of the step's upper end (weight ladder entries B_i / W_i, with the tail
  values B / W above them, so a ladder with no entries is height-independent);
* exact-rational "balanced" sums weight both ascending and descending
  steps by the color of the step's lower end (b on white, w on black).

Both run on one dynamic program over heights, ``_walk``: the floored and
free series sums (``z_plus``, ``z_plus_profile``, ``z_strip``, ``l_zero``;
``hankel.cf_expand`` is ``z_plus_profile`` from height 0),
the two walks of each slice row (``strip_sum``: the excursions above the
row's height, then the round trips below it, into which each excursion
joins at the walk's start height), and the exact-rational balanced sums
(``BalancedSums``, which reads every end and length of one walk per
start, and ``rat_path``, one read of such a walk).  Only the brute-force
oracle of the balanced sums enumerates step words on its own, tallying
them without weights (``word_tally``) so that one enumeration of a path
shape serves every sample point.
The ladder solvers of ``slices`` and ``extensions`` state each system once,
as one row rule per family next to the system's color symmetry, and share
one solver, ``solve_ladder``, whose one fixed point solves the tails and
the entries together; its docstring states the sweep schedule and proves it.

The square-root weights of the second convention are never materialized as
series; they only appear through rational sample values, which is where the
reflection identities are checked.
"""

from __future__ import annotations

from functools import partial
from itertools import islice, product
from math import lcm

from .rational import Rat
from .series import MSeries, SeriesRing, _graded, fixed_point, zero

def ladder_entry(entries: tuple, tail: MSeries, i: int) -> MSeries:
    """Entry i of a ladder: zero at i <= 0, entries[i-1] up to the height, tail above."""
    if i <= 0:
        return zero(tail.num_vars, tail.order)
    return entries[i - 1] if i <= len(entries) else tail


def color_swap(b: MSeries) -> tuple[MSeries, MSeries]:
    """The symmetry of a two-color ladder system: the white value is the
    black one with the first two variables exchanged."""
    return b, b.swap_vars()


def solve_ladder(
    rows, mirror, far: int, ring: SeriesRing, error: Exception, height: int | None = None
):
    """Entries 1..h and tails of the ladder system given by ``rows``.

    ``rows(entries, tails)`` reads a ladder, one tuple of entries and one
    tail per family, and returns one row function per family, in family
    order: ``row[f](i)`` is the right-hand side of family f at row i.
    ``mirror(x)`` is the system's symmetry: it maps a value of family 0 to
    the values of every family at the same row (the color swap, or the
    cyclic rotation of three colors).  Row ``far`` is the first whose paths
    reach neither index 0 nor a floor, so on the ladder with no entries it
    reads only the tails: the tails are its fixed point.  One fixed point
    solves the tails and the entries of a ladder of H rows together.
    ``height`` h = None means h = order + far; otherwise h >= 0, and
    h = 0 solves the tails alone.  H is max(h, ceil((order + h - 1) / 2))
    for h >= 1, and the rows above h are dropped.  Returns (entries,
    tails), with one tuple of entries 1..h per family.

    The degree-0 sweep depends on nothing, so the start does not matter.
    The sweep of degree d < order first evaluates row ``far`` of the ladder
    with no entries: the tail row gains one degree per sweep, so the tails
    it returns, at order d like everything the sweep computes, are exact
    through degree d.  In every system solved here entry i agrees with its
    tail through degree i - 1 at least (the slice entries through degree i,
    measured at order 10 for quadrangulations, hexangulations and
    g = (1/5, 1), (0, 1/3, 2), (0, 0, 0, 1)), so the sweep then evaluates
    rows 1..min(H, d) only, on those tails, and fills the rows above with
    them.
    It evaluates family 0 only and takes the other families from ``mirror``:
    the symmetry maps the system onto itself and the fixed point is unique
    through the order, so the fixed point is symmetric too.  The stability
    sweep, the last one (``fixed_point``), evaluates row ``far`` and every
    stored row of every family, each by its own rule, so wrong tails, a
    wrong fill or a wrong ``mirror`` below the top degree cannot reproduce
    itself there and raises ``error``: every solve proves the symmetry it
    used.  A fault at the top degree only is never read: the graded sweeps
    stop one degree below the order.

    Row k needs to be exact only through need(k) = order + h - k (below),
    which is the order or more for k <= h.  So a graded sweep of degree
    d > need(k) keeps row k as it is, and the stability sweep evaluates
    row k on the ladder cut to need(k).  Row k > h then holds no term above
    need(k) on either side of the stability check, which so proves it
    exact through need(k).

    Why entry i <= h is exact through the order.
    Let e_j be entry j as solved minus its value on the unbounded ladder:
    - above H the solve reads the tails, and entry j differs from its tail
      only from degree j on (above), so e_j has valuation >= j >=
      2(H + 1) - j > need(j) for every j > H;
    - a term of row i that reads entry k carries other factors of total
      valuation at least max(1, k - i): a slice strip from i that descends
      from k descends k - i more times to end at i - 1, and at least once
      more in any case (the strip of length 1 is divided out), every
      descent weighted by an entry of valuation >= 1; the other systems
      read k = i - 1, i, i + 1 next to a factor of valuation >= 1.  So
      degree d of e_i depends only on degrees up to d - max(1, k - i) of
      e_k: an error at entry j reaches entry i < j only j - i degrees
      higher;
    - so, by induction on the degree, e_i has valuation > need(i) for
      every i: an error of row k > h at degree need(k) + 1 reaches row
      i < k at degree need(k) + 1 + k - i = need(i) + 1 at the lowest,
      and row i > k at need(k) + 2 > need(i).  Cutting row k > h to
      need(k) is such an error too.  For i <= h, need(i) >= order.
    """
    order = ring.order
    if height is None:
        height = order + far
    elif height < 0:
        raise ValueError("ladder height must be non-negative")
    solved = height and max(height, (order + height) // 2)
    zeros = mirror(ring.zero())
    bare = ((),) * len(zeros)

    def sweep(state, degree):
        tails, entries = state
        if degree is None:
            tails_out = tuple(family(far) for family in rows(bare, tails))
            ladder = (entries, tails)
            ladders = [rows(*ladder)] * height
            for i in range(height + 1, solved + 1):  # on the ladder cut to need(i)
                ladder = _graded(ladder, order + height - i)
                ladders.append(rows(*ladder))
            return tails_out, tuple(
                tuple(row[f](i) for i, row in enumerate(ladders, 1)) for f in range(len(tails))
            )
        tails = mirror(rows(bare, tails)[0](far))
        row = rows(entries, tails)[0]
        top = min(solved, degree)  # the tails fill the rows above
        last = min(top, order + height - degree)  # rows last + 1..top are kept
        computed = [mirror(row(i)) for i in range(1, last + 1)]
        return tails, tuple(
            tuple(values[f] for values in computed) + column[last:top] + (tail,) * (solved - top)
            for f, (column, tail) in enumerate(zip(entries, tails))
        )

    tails, entries = fixed_point(sweep, (zeros, bare), order, error)
    return tuple(family[:height] for family in entries), tails


class WeightLadder:
    """Slice series B_1..B_H, W_1..W_H plus tail values used above height H.

    Index 0 (and below) always weighs zero, matching the convention
    B_0 = W_0 = 0.  A ladder with no entries, ``WeightLadder((), (), B, W)``,
    weighs every index >= 1 by its tails: the height-independent weighting.
    """

    __slots__ = ("black", "white", "tail_black", "tail_white")

    def __init__(
        self,
        black: tuple[MSeries, ...],
        white: tuple[MSeries, ...],
        tail_black: MSeries,
        tail_white: MSeries,
    ):
        if len(black) != len(white):
            raise ValueError("black and white entry lists must have equal length")
        self.black, self.white = black, white
        self.tail_black, self.tail_white = tail_black, tail_white

    @property
    def height(self) -> int:
        return len(self.black)

    def black_weight(self, i: int) -> MSeries:
        return ladder_entry(self.black, self.tail_black, i)

    def white_weight(self, i: int) -> MSeries:
        return ladder_entry(self.white, self.tail_white, i)

    def step_weight(self, h: int, black_parity: int) -> MSeries:
        """Weight of the descending step with upper end at height h."""
        if h % 2 == black_parity:
            return self.black_weight(h)
        return self.white_weight(h)


def ladder_pairs(a: WeightLadder, b: WeightLadder, i_max: int) -> list:
    """Entries 1..i_max of two ladders, paired color by color."""
    return [
        pair
        for i in range(1, i_max + 1)
        for pair in (
            (a.black_weight(i), b.black_weight(i)),
            (a.white_weight(i), b.white_weight(i)),
        )
    ]


class RatPathWeights:
    """Rational sample values for the balanced square-root step weights."""

    __slots__ = ("b", "w")

    def __init__(self, b, w):
        if not (b > 0 and w > 0):
            raise ValueError("step weights must be positive")
        self.b, self.w = b, w


def _walk(start, ends, length, floor, up, down, unit, cut=None, joins=None):
    """Height -> weight maps of +-1 paths after 0, 1, ..., length steps.

    ``ends`` is an interval (lo, hi) of end heights: only heights from which
    one of them is still reachable are kept, so with lo = hi a walk serves
    one end, and with (start - length, start + length) it is not pruned by
    end.  The value at a kept height sums every path that reaches it, so a
    walk pruned to an interval holds the same values as a walk to any end
    in it, at every length.  up(h) and
    down(h) weigh the step leaving height h upwards or downwards; None means
    weight one and skips the multiplication, and so does a value that is
    still the ``unit`` object itself (a path with no weighted step yet),
    which takes the step weight as it is.  floor=None means no floor.
    ``joins``, when given, holds values that join a walk ending where it
    starts: joins[s] is added at the start height after s steps, for
    s = 1..length, and None adds nothing (joins[0] is not read; the walk
    starts from ``unit``).
    ``cut(h)``, when given, is the degree through which a series value at
    height h can still reach the result; its terms above that degree are
    dropped after each step, and its order and reliable are kept.  The
    ``unit`` object is left as it is, so that it keeps taking step
    weights without a product.
    """
    lo, hi = ends
    cur = {start: unit}
    yield cur
    for step in range(length):
        remaining = length - step - 1
        low, high = lo - remaining, hi + remaining
        if floor is not None and low < floor:
            low = floor
        nxt = {}
        for h, val in cur.items():
            for nh, weight in ((h + 1, up), (h - 1, down)):
                if nh < low or nh > high:
                    continue
                if weight is None:
                    piece = val
                elif val is unit:
                    piece = weight(h)
                else:
                    piece = val * weight(h)
                nxt[nh] = nxt[nh] + piece if nh in nxt else piece
        if joins is not None and (joined := joins[step + 1]) is not None:
            nxt[start] = nxt[start] + joined if start in nxt else joined
        if cut is not None:
            nxt = {
                h: val if val is unit else val._cut(cut(h), val.order, val.reliable)
                for h, val in nxt.items()
            }
        cur = nxt
        yield cur


def _series_walk(start, ends, length, floor, black_parity, ladder, cut=None, joins=None):
    """_walk with descending steps weighted by the ladder at their upper height."""
    down = partial(ladder.step_weight, black_parity=black_parity)
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    unit = MSeries._wrap(nv, order, {(0,) * nv: 1}, 1, order, 0)
    return _walk(start, ends, length, floor, None, down, unit, cut, joins)


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
    for cur in _series_walk(start, (end, end), length, floor, black_parity, ladder):
        pass
    return cur.get(end, zero(ladder.tail_black.num_vars, ladder.tail_black.order))


def _parity(start: int, black_start: bool) -> int:
    """Parity of the black heights of a path whose start is black or not."""
    return start % 2 if black_start else (start + 1) % 2


def z_plus(
    d: int,
    d2: int,
    length: int,
    ladder: WeightLadder,
    floor: int | None = None,
    *,
    black_start: bool = True,
) -> MSeries:
    """Paths from height d to d2 staying at or above the floor.

    The floor defaults to min(d, d2).  Heights with the parity of d carry
    the start color (black unless black_start is False); descending steps
    are weighted by the ladder at their upper height.
    """
    if floor is None:
        floor = min(d, d2)
    return _series_path_sum(d, d2, length, floor, _parity(d, black_start), ladder)


def z_plus_profile(
    d: int,
    max_length: int,
    ladder: WeightLadder,
    floor: int | None = None,
    *,
    black_start: bool = True,
) -> list[MSeries]:
    """Round-trip sums Z_{d,d}(s) for every s = 0..max_length in one sweep.

    Entry s of the returned list is z_plus(d, d, s, ...); odd entries are
    zero.  One forward pass serves all lengths, which matters when building
    long moment sequences.

    When every nonzero weight of the ladder, entries and tails, has
    valuation v >= 1, a path at height h > d still takes at least h - d
    descents back to d, so a value there reaches the result only
    v * (h - d) degrees up: the walk keeps it through degree
    order - v * (h - d) only, and the result is unchanged.
    """
    if floor is None:
        floor = d
    order = ladder.tail_black.order
    nothing = zero(ladder.tail_black.num_vars, order)
    cut = None
    weights = (*ladder.black, *ladder.white, ladder.tail_black, ladder.tail_white)
    v = min((t.valuation() for t in weights if t), default=order + 1)
    if v >= 1:

        def cut(h):
            return order - v * max(0, h - d)

    walk = _series_walk(d, (d, d), max_length, floor, _parity(d, black_start), ladder, cut)
    return [cur.get(d, nothing) for cur in walk]


def z_strip(i: int, length: int, ladder: WeightLadder, *, black_start: bool = True) -> MSeries:
    """Paths from height i >= 1 down to i-1, floored at zero (slice recursions).

    The start i is black unless black_start is False; length must be odd.
    The slice rows call ``strip_sum``; this stays as its oracle, and because
    ``perfbench/spans.py`` binds it in ``LAYERS``, whose ``Tracer.install``
    raises KeyError without it.
    """
    if i < 1:
        raise ValueError("strip start height must be at least 1")
    if length % 2 == 0:
        raise ValueError("strip paths have odd length")
    return _series_path_sum(i, i - 1, length, 0, _parity(i, black_start), ladder)


def strip_sum(i: int, weights, ladder: WeightLadder, *, black_start: bool = True) -> MSeries:
    """sum_m weights[m] * z_strip(i, 2m + 1, ladder), by first passage, from
    a start i >= 1 of the color black_start names.

    A strip path from i reaches i - 1 first by one descent from i, of
    weight w_i.  Before it lies an excursion from i back to i that stays
    at or above i, E(a) after a steps; after it, a round trip from i - 1
    back to i - 1 over the floor 0, R(b) after b steps.  So the strips of
    length L sum to w_i * Y(L), Y(L) = sum over a + b = L - 1 of E(a) R(b).
    One walk gives E(0..2M), M the last m with a nonzero weight; the walk
    of R from i - 1, into which each E(a) joins after a steps, holds Y(s + 1)
    at height i - 1 after s steps.  The weighted sum of the Y then takes one
    product by w_i, not one per strip length and path class.
    """
    if i < 1:
        raise ValueError("strip start height must be at least 1")
    parity = _parity(i, black_start)
    top = max((m for m, c in enumerate(weights) if c), default=None)
    if top is None:
        return zero(ladder.tail_black.num_vars, ladder.tail_black.order)
    excursions = [cur.get(i) for cur in _series_walk(i, (i, i), 2 * top, i, parity, ladder)]
    returns = _series_walk(i - 1, (i - 1, i - 1), 2 * top, 0, parity, ladder, joins=excursions)
    y = [c * cur[i - 1] for c, cur in zip(weights, islice(returns, None, None, 2)) if c]
    return ladder.step_weight(i, parity) * sum(y[1:], y[0])


def l_zero(length: int, b: MSeries, w: MSeries) -> MSeries:
    """Closed unconstrained round trips with height-independent weights.

    Walked from height length // 2, which is black, so that every descent
    reads an index >= 1 of the ladder of the tails.  ``slices.alpha_brackets``
    takes these sums from one ``z_plus_profile`` walk; this stays as its
    oracle, and because ``perfbench/spans.py`` binds it in ``LAYERS``, whose
    ``Tracer.install`` raises KeyError without it.
    """
    if length % 2 or length < 0:
        raise ValueError("need an even non-negative length")
    start = length // 2
    return _series_path_sum(start, start, length, None, start % 2, WeightLadder((), (), b, w))


# -- exact-rational balanced paths -------------------------------------------


def _numerators(wt: RatPathWeights) -> tuple[int, int, int]:
    """(nb, nw, D): b = nb / D and w = nw / D over D, the lcm of their
    denominators."""
    b, w = Rat(wt.b), Rat(wt.w)
    den = lcm(b.denominator, w.denominator)
    return b.numerator * (den // b.denominator), w.numerator * (den // w.denominator), den


def _balanced_walk(start, ends, length, floor, nb, nw, black_start):
    """The ``_walk`` of the balanced sums: every step weighted by its lower
    end, nw on black and nb on white, so that step s holds the numerators
    of the sums over D**s."""
    parity = _parity(start, black_start)

    def lower_weight(h: int):
        return nw if h % 2 == parity else nb

    return _walk(start, ends, length, floor, lower_weight, lambda h: lower_weight(h - 1), 1)


def rat_path(
    start: int,
    end: int,
    length: int,
    floor: int | None,
    wt: RatPathWeights,
    *,
    black_start: bool = True,
):
    """Total balanced weight over admissible paths, as an exact rational:
    one read of a ``BalancedSums(wt, length)`` walk.

    Every step is weighted by its lower end: b on white, w on black, with
    the start black unless black_start is False.  Returns 0 when no path
    fits the endpoints and length.
    """
    if length < 0:
        return Rat(0)
    return BalancedSums(wt, length).path(start, end, length, floor, black_start=black_start)


def word_tally(
    start: int, end: int, length: int, floor: int | None, *, black_start: bool = True
) -> tuple[int, ...]:
    """The weight-free half of the oracle for rat_path: all 2^length step words.

    Each word is walked on its own and dropped at its first step below the
    floor.  Entry k counts the surviving words that end at ``end`` with k
    steps whose lower end is a black height; such a word weighs
    w^k b^(length - k) (``weigh_tally``).
    """
    parity = _parity(start, black_start)
    tally = [0] * (length + 1)
    if floor is not None and start < floor:
        return tuple(tally)
    for word in product((1, -1), repeat=length):
        h, k = start, 0
        for s in word:
            nh = h + s
            if floor is not None and nh < floor:
                break
            k += min(h, nh) % 2 == parity
            h = nh
        else:
            if h == end:
                tally[k] += 1
    return tuple(tally)


def weigh_tally(tally: tuple[int, ...], wt: RatPathWeights):
    """Balanced weight of the words in a ``word_tally``: w^k b^(length - k) each.

    Summed in integers over one denominator D^length, as ``BalancedSums`` does.
    """
    length = len(tally) - 1
    nb, nw, den = _numerators(wt)
    total = sum(n * nw**k * nb ** (length - k) for k, n in enumerate(tally) if n)
    return Rat(total, den**length)


class BalancedSums:
    """The balanced path sums of at most ``length`` steps at one sample point.

    Each (start, floor, start color) is walked once, through ``length``
    steps and not pruned by end, and every (end, length) is read from that
    walk, each value as a ``Rat`` once.  ``c`` is the color ratio b/w.
    ``tallies`` maps a path shape to its ``word_tally``.  A tally does not
    depend on the weights, so one dict can serve several sample points.
    """

    __slots__ = ("wt", "length", "tallies", "c", "_weights", "_walks", "_values")

    def __init__(self, wt: RatPathWeights, length: int, tallies: dict | None = None):
        self.wt, self.length = wt, length
        self.tallies = {} if tallies is None else tallies
        self._weights = nb, nw, _ = _numerators(wt)
        self.c = Rat(nb, nw)
        self._walks, self._values = {}, {}

    def path(self, start, end, length, floor, *, black_start=True, brute=False):
        """rat_path at this point, or the brute oracle when ``brute``."""
        shape = (start, end, length, floor, black_start)
        if brute:
            if shape not in self.tallies:
                self.tallies[shape] = word_tally(*shape[:4], black_start=black_start)
            return weigh_tally(self.tallies[shape], self.wt)
        if shape in self._values:
            return self._values[shape]
        if not 0 <= length <= self.length:
            raise ValueError(f"path length must lie in 0..{self.length}")
        if floor is not None and start < floor:
            return Rat(0)
        nb, nw, den = self._weights
        key = (start, floor, black_start)
        if key not in self._walks:
            ends = (start - self.length, start + self.length)  # every end
            walk = _balanced_walk(start, ends, self.length, floor, nb, nw, black_start)
            self._walks[key] = list(walk)
        value = self._values[shape] = Rat(self._walks[key][length].get(end, 0), den**length)
        return value

    def drop(self, j: int, length: int):
        """The free paths of height decrease 2|j|: end -2|j| of the free walk
        from height 0.  Weights depend only on the parity of a step's lower
        end, so the shift by 2|j| maps the paths from 2|j| down to 0 onto
        the paths from 0 down to -2|j|, weights included."""
        return self.path(0, -2 * abs(j), length, None)


def check_reflection_odd(
    k: int, l: int, q: int, sums: BalancedSums, brute: bool = False
) -> bool:
    """Floor-zero paths between odd (white) heights vs a two-term difference."""
    if min(k, l) < 1 or q < 0:
        raise ValueError("need k, l >= 1 and q >= 0")
    lhs = sums.path(2 * k - 1, 2 * l - 1, 2 * q, 0, black_start=False, brute=brute)
    return lhs == sums.drop(k - l, 2 * q) - sums.drop(k + l, 2 * q)


def check_reflection_even(
    k: int, l: int, q: int, sums: BalancedSums, brute: bool = False
) -> bool:
    """Floor-zero paths between even (black) heights vs the alternating sum.

    The subtraction term acquires a color-ratio correction c = b/w and an
    alternating geometric tail, reflecting that the first step below the
    floor flips one step weight.
    """
    if min(k, l) < 0 or q < 0:
        raise ValueError("need k, l >= 0 and q >= 0")
    lhs = sums.path(2 * k, 2 * l, 2 * q, 0, brute=brute)
    c = sums.c
    rhs = sums.drop(k - l, 2 * q) - c * sums.drop(k + l + 1, 2 * q)
    m = 2
    while k + l + m <= q:
        rhs += (c * c - 1) * (-c) ** (m - 2) * sums.drop(k + l + m, 2 * q)
        m += 1
    return lhs == rhs

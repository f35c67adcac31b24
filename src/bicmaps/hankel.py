"""Hankel determinants of the boundary moments and continued fractions.

The moment sequences F_n feed two kinds of matrices, shifted by 0 or 1
along the antidiagonal.  Their determinants recover the slice series as
quotients of consecutive determinant ratios, and conversely the truncated
continued fraction built from a slice ladder reproduces the moments.

Determinants are computed division-free: the truncated series ring has
zero divisors (any monomial of degree above half the order squares to
zero), so fraction-free elimination is unsound there.  The subset dynamic
program visits 2^n column sets, but it forms each minor only through the
degrees that can still reach the determinant, by the entry valuations.
F_n has valuation n, so the Hankel determinant of index i has valuation
at least i(i+1): past the order it is zero and costs no product, and
below it the minors are cut short, the result exact through the order.

Only the black moments are walked.  The face weights do not depend on
color, so exchanging the two colors together with their vertex weights
maps the whole problem onto itself: the white moments, the determinants
built from them (the ``hankel`` command's tilde records), and the other
color of every ladder entry are the color swaps (``MSeries.swap_vars``)
of what is computed.  This is exact, not a limit: the swap is a ring
automorphism that preserves total degree, so it commutes with
truncation, ``exact_div``, the valuation pruning of ``det_division_free``
and the degree cut of the moment walk, and carries ``order`` and
``reliable`` over unchanged.  The recursion route still solves both
colors in its stability sweep, so agreement with it (the ``verify``
suites and the tests), and a test that walks the white moments on their
own, keep checking the symmetry.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .paths import WeightLadder, color_swap
from .series import MSeries, SeriesRing, exact_div, one, zero
from .slices import FaceWeights, f_sequence, tail_solve


def det_division_free(rows) -> object:
    """Determinant over any commutative ring, by the column-subset recursion.

    f(S) is the minor of the first |S| rows on column set S; cofactors along
    row |S|-1 give f(S) = sum over j in S of (-1)^(|S|-1+pos) A[|S|-1][j] f(S-j).
    Masks are visited in numeric order, which refines popcount order since
    clearing a bit always decreases the mask.

    Series entries are pruned by valuation, and the result is still exact
    through the least order of the entries; its ``order`` and ``reliable``
    are the least over the entries, as for any ring result.  A term of
    degree k in f(S) reaches the determinant only through a complementary
    minor (rows |S|.. on the columns outside S), whose valuation is at
    least rest[S], so f(S) is formed through degree order - rest[S] only,
    from entries cut to that degree, and dropped when nothing is left.
    rest comes from the same recursion in (min, +) over the entry
    valuations, and rest[{}] bounds the valuation of the determinant.  The
    sum over the rows (or the columns) of the least valuation in each is a
    weaker bound that costs no recursion: past the order, the determinant
    is zero without a product.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    entries = [x for row in rows for x in row]
    if not all(isinstance(x, MSeries) for x in entries):
        return _minors(rows, None)
    order = min(x.order for x in entries)
    dead = order + 1
    vals = [[dead if x.is_zero() else min(x.valuation(), dead) for x in row] for row in rows]
    det = None
    if max(sum(map(min, vals)), sum(map(min, zip(*vals)))) <= order:
        full = (1 << n) - 1
        rest = [0] * (full + 1)
        for mask in range(full - 1, -1, -1):
            row = vals[mask.bit_count()]
            rest[mask] = min(
                [dead] + [row[j] + rest[mask | 1 << j] for j in range(n) if not mask >> j & 1]
            )
        if rest[0] <= order:
            det = _minors(rows, [order - r for r in rest])
    reliable = min(x.reliable for x in entries)
    if det is None:
        return MSeries(entries[0].num_vars, order, None, reliable)
    return det.with_reliable(reliable)


def _minors(rows, caps) -> object:
    """f(S) of det_division_free for the full column set, None if dropped.

    With ``caps`` None this is the plain recursion.  Otherwise f(S) is
    formed through degree caps[S], the entries cut to it; a mask with a
    negative cap or a zero cut sum is dropped, and a kept one is stored at
    the order of the matrix, caps[full], so that a product for a larger
    set is not cut below that set's cap.
    """
    n = len(rows)
    cut: dict[tuple[int, int, int], MSeries] = {}
    memo: dict[int, object] = {0: None}  # None stands for the scalar 1
    for mask in range(1, 1 << n):
        cap = None if caps is None else caps[mask]
        if cap is not None and cap < 0:
            continue
        size = mask.bit_count()
        acc = None
        sign = 1 if (size - 1) % 2 == 0 else -1
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            if mask ^ bit in memo:
                a = rows[size - 1][j]
                if cap is not None:
                    key = (size - 1, j, cap)
                    if key not in cut:
                        cut[key] = a.truncate(cap)
                    a = cut[key]
                sub = memo[mask ^ bit]
                term = a if sub is None else a * sub
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
        if cap is not None:
            if not acc:
                continue
            acc = acc.truncate(caps[-1])
        memo[mask] = acc
    return memo.get((1 << n) - 1)


def det_leibniz(rows) -> object:
    """Permanent-style expansion, as an independent cross-check for n <= 4."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def hankel_det(moments: list[MSeries], shift: int, i: int) -> MSeries:
    """det of the (i+1) x (i+1) matrix with entry (n, m) = moments[n+m+shift]."""
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    if len(moments) < 2 * i + 1 + shift:
        raise ValueError(
            f"need {2 * i + 1 + shift} moments for index {i}, got {len(moments)}"
        )
    rows = [[moments[n + m + shift] for m in range(i + 1)] for n in range(i + 1)]
    return det_division_free(rows)


class HankelFamily(NamedTuple):
    """The determinant sequences of the black moments (index -1 is 1), from
    the moments (``hankel_family``) or the dimer column walk (``dimers.lgv``).
    F_0..F_n reach shift 0 through index n//2 and shift 1 through (n-1)//2,
    so ``h1`` is one shorter than ``h0`` when the moment count is odd."""

    h0: tuple[MSeries, ...]
    h1: tuple[MSeries, ...]


def hankel_family(moments: list[MSeries]) -> HankelFamily:
    """Every determinant of the black moment sequence that it reaches."""
    n = len(moments) - 1
    return HankelFamily(
        tuple(hankel_det(moments, 0, i) for i in range(n // 2 + 1)),
        tuple(hankel_det(moments, 1, i) for i in range((n + 1) // 2)),
    )


def boundary_hankel_family(g: FaceWeights, ring: SeriesRing, n_max: int) -> HankelFamily:
    """The Hankel family of the black moments F_0..F_{n_max} of g."""
    b, w = tail_solve(g, ring)
    return hankel_family(f_sequence(n_max, g, b, w, "black"))


def cf_extract(h: HankelFamily, i_max: int) -> WeightLadder:
    """Recover the slice ladder 1..i_max from determinant ratios, h[-1] = 1:

        B_2i   = (h0[i]/h0[i-1]) / (h1[i-1]/h1[i-2]),
        W_2i+1 = (h1[i]/h1[i-1]) / (h0[i]/h0[i-1]),

    the other color of each entry by the color swap.  Each ratio is formed
    once and divided by ``exact_div``, so an entry carries exactly the
    reliable order that survives the determinants' valuations.  Past the
    reach of the truncation the determinants are zero: a division by a
    zero series, or of a ratio that came out of one, gives the zero series
    with reliable order 0, which compares vacuously downstream; raise the
    working order to recover it.
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    if len(h.h0) <= i_max // 2 or len(h.h1) < (i_max + 1) // 2:
        raise ValueError(
            f"i_max {i_max} needs h0 through index {i_max // 2} and h1 through"
            f" {(i_max - 1) // 2}; the family reaches {len(h.h0) - 1} and {len(h.h1) - 1}"
        )
    ref = h.h0[0]
    no_content = zero(ref.num_vars, ref.order).with_reliable(0)

    def div(num: MSeries, den: MSeries) -> MSeries:
        if den.is_zero() or num is no_content:
            return no_content
        return exact_div(num, den)

    r0 = [h.h0[0]] + [div(h.h0[i], h.h0[i - 1]) for i in range(1, i_max // 2 + 1)]
    r1 = [h.h1[0]] + [div(h.h1[i], h.h1[i - 1]) for i in range(1, (i_max + 1) // 2)]
    blacks: list[MSeries] = []
    whites: list[MSeries] = []
    for idx in range(1, i_max + 1):
        i, odd = divmod(idx, 2)
        if odd:
            white, black = color_swap(div(r1[i], r0[i]))
        else:
            black, white = color_swap(div(r0[i], r1[i - 1]))
        blacks.append(black)
        whites.append(white)
    return WeightLadder(tuple(blacks), tuple(whites), blacks[-1], whites[-1])


def moment_ladder(moments: list[MSeries], i_max: int) -> WeightLadder:
    """The determinant route from the black moments: entries 1..i_max from
    the family of F_0..F_{i_max}, all that ``cf_extract`` reads of them."""
    return cf_extract(hankel_family(moments[: i_max + 1]), i_max)


def determinant_ladder(g: FaceWeights, ring: SeriesRing, i_max: int) -> WeightLadder:
    """``moment_ladder`` of the moments on the tails of ``tail_solve``."""
    return moment_ladder(f_sequence(i_max, g, *tail_solve(g, ring), "black"), i_max)


def cf_expand(ladder: WeightLadder, depth: int, n_max: int) -> list[MSeries]:
    """Moments F_0..F_{n_max} of the truncated continued fraction.

    Level j of the fraction carries W_j at odd j and B_j at even j (the
    black-rooted resolvent); evaluate bottom-up as polynomials in the
    boundary-length marker.  Level j enters F_0..F_{n_max} times z^(j - 1),
    so it is needed only through degree n_max - j + 1 in the marker: level
    n_max + 1 only through degree 0, where it is 1, and deeper levels not
    at all.  Any depth above n_max gives the same moments.
    """
    if depth <= n_max:
        raise ValueError("depth must exceed n_max")
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    tail = [one(nv, order)]
    for j in range(n_max, 0, -1):
        coeff = ladder.white_weight(j) if j % 2 else ladder.black_weight(j)
        top = n_max - j + 1
        # u = z * coeff * tail, then  next = 1/(1 - u)  via next = 1 + u*next
        u = [zero(nv, order)] + [coeff * tail[m] for m in range(top)]
        nxt = [one(nv, order)] + [zero(nv, order)] * top
        for m in range(1, top + 1):
            acc = zero(nv, order)
            for r in range(1, m + 1):
                acc = acc + u[r] * nxt[m - r]
            nxt[m] = acc
        tail = nxt
    return tail

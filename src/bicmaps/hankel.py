"""Hankel determinants of the boundary moments and continued fractions.

The moment sequences F_n feed two kinds of matrices, shifted by 0 or 1
along the antidiagonal.  Their determinants recover the slice series as
quotients of consecutive determinant ratios, and conversely the continued
fraction of a slice ladder reproduces the moments: they are its weighted
Dyck paths, summed by the path engine (``paths.z_plus_profile``).

Determinants are computed division-free: the truncated series ring has
zero divisors (any monomial of degree above half the order squares to
zero), so fraction-free elimination is unsound there.  The subset dynamic
program visits 2^n column sets, but it forms each minor only through the
degrees that can still reach the determinant, by the entry valuations.
F_n has valuation n, so the Hankel determinant of index i has valuation
at least i(i+1): past the order it is zero and costs no product, and
below it the minors are cut short, the result exact through the order.
The determinant route (``determinant_ladder``) states before it walks
which entries the order leaves empty: it walks F_0..F_min(i_max, m), m the
last moment that a determinant within reach reads, and gives every later
entry the no-content marker of ``cf_extract`` without computing it.

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
from math import isqrt
from typing import NamedTuple

from .paths import WeightLadder, color_swap, z_plus_profile
from .series import MSeries, SeriesRing, exact_div, zero
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
    so ``h1`` is one shorter than ``h0`` when the moment count is odd;
    ``lgv(top)`` is the family of F_0..F_{2 top + 1}."""

    h0: tuple[MSeries, ...]
    h1: tuple[MSeries, ...]


def hankel_family(moments: list[MSeries]) -> HankelFamily:
    """Every determinant of the black moment sequence that it reaches."""
    n = len(moments) - 1
    return HankelFamily(
        tuple(hankel_det(moments, 0, i) for i in range(n // 2 + 1)),
        tuple(hankel_det(moments, 1, i) for i in range((n + 1) // 2)),
    )


def cf_extract(h: HankelFamily) -> WeightLadder:
    """Recover the slice ladder 1..n from determinant ratios, h[-1] = 1, for
    the family of F_0..F_n, n = len(h.h0) + len(h.h1) - 1 >= 1:

        B_2i   = (h0[i]/h0[i-1]) / (h1[i-1]/h1[i-2]),
        W_2i+1 = (h1[i]/h1[i-1]) / (h0[i]/h0[i-1]),

    the other color of each entry by the color swap.  Each ratio is formed
    once and divided by ``exact_div``, so an entry carries exactly the
    reliable order that survives the determinants' valuations.  Past the
    reach of the truncation the determinants are zero: a division by a
    zero series gives the zero series with reliable order 0, which compares
    vacuously downstream (``exact_div`` of it gives it again); raise the
    working order to recover it.
    """
    n = len(h.h0) + len(h.h1) - 1
    if n < 1:
        raise ValueError("need the family of F_0 and F_1 at least")
    no_content = zero(h.h0[0].num_vars, h.h0[0].order).with_reliable(0)

    def div(num: MSeries, den: MSeries) -> MSeries:
        return no_content if den.is_zero() else exact_div(num, den)

    r0 = [h.h0[0]] + [div(h.h0[i], h.h0[i - 1]) for i in range(1, len(h.h0))]
    r1 = [h.h1[0]] + [div(h.h1[i], h.h1[i - 1]) for i in range(1, len(h.h1))]
    blacks: list[MSeries] = []
    whites: list[MSeries] = []
    for idx in range(1, n + 1):
        i, odd = divmod(idx, 2)
        if odd:
            white, black = color_swap(div(r1[i], r0[i]))
        else:
            black, white = color_swap(div(r0[i], r1[i - 1]))
        blacks.append(black)
        whites.append(white)
    return WeightLadder(tuple(blacks), tuple(whites), blacks[-1], whites[-1])


def moment_ladder(moments: list[MSeries]) -> WeightLadder:
    """The determinant route from the black moments F_0..F_n: entries 1..n,
    ``cf_extract`` of their Hankel family."""
    return cf_extract(hankel_family(moments))


def determinant_ladder(g: FaceWeights, ring: SeriesRing, i_max: int) -> WeightLadder:
    """Entries 1..i_max of the determinant route: ``moment_ladder`` of the
    moments F_0..F_n, n = min(i_max, m), on the tails of ``tail_solve``,
    with ``cf_extract``'s no-content marker (the zero series with reliable
    0) at entries n+1..i_max and in both tails.

    m is the last moment that a determinant within reach reads.  Every
    slice entry has valuation exactly 1 (leading term t/(1 - g_1)), so
    h0[i] has valuation i(i+1) and h1[i] valuation (i+1)^2, and the
    determinant that ends on F_k, h0[k/2] or h1[(k-1)/2], has valuation
    floor((k+1)^2/4).  So m = max(2 i0, 2 i1 + 1) for the largest i0 with
    i0(i0+1) <= order and the largest i1 with (i1+1)^2 <= order: the
    largest k with (k+1)^2 <= 4 order + 3, and m >= 1 at order >= 1.

    The walk of all of F_0..F_{i_max} gives the same ladder.  Entries 1..n
    read the same determinants.  Let R <= order - 1 be the moments'
    reliable bound (``alpha_coeffs`` divides by the root weight; the
    argument holds for R = order too).  The first entry past n divides
    a zero determinant by nonzero ones, and ``exact_div`` loses their
    valuations: B_2i = (0 / h0[i-1]) / r1[i-1] is reliable through at most
    R + 1 - i(i+1) <= 0 and W_2i+1 = (0 / h1[i-1]) / r0[i] through at most
    R + 1 - (i+1)^2 <= 0, so it is the marker.  Every later entry divides
    by a zero series, which ``cf_extract`` answers with the marker, and
    the tails, the last entry, are the marker whenever i_max > n.
    """
    reach = isqrt(4 * ring.order + 3) - 1
    ladder = moment_ladder(f_sequence(min(i_max, reach), g, *tail_solve(g, ring)))
    if i_max <= reach:
        return ladder
    pad = (ring.zero().with_reliable(0),) * (i_max - reach)
    return WeightLadder(ladder.black + pad, ladder.white + pad, pad[0], pad[0])


def cf_expand(ladder: WeightLadder, n_max: int) -> list[MSeries]:
    """Moments F_0..F_{n_max} of the continued fraction of the ladder.

    Level j of the fraction carries W_j at odd j and B_j at even j (the
    black-rooted resolvent), so by Flajolet's theorem F_n sums the Dyck
    paths of length 2n from height 0, each descent from height j weighted
    by level j: the even round trips of ``z_plus_profile``.  ``f_sequence``
    builds the same moments from the tails alone, as α-weighted round trips
    on the height-independent ladder, so a check of one against the other
    still compares two formulas of the slice decomposition.
    """
    return z_plus_profile(0, 2 * n_max, ladder, floor=0)[::2]

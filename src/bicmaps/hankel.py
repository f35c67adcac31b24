"""Hankel determinants of the boundary moments and continued fractions.

The moment sequences F_n feed two kinds of matrices, shifted by 0 or 1
along the antidiagonal.  Their determinants recover the slice series as
quotients of consecutive determinant ratios, and conversely the truncated
continued fraction built from a slice ladder reproduces the moments.

Determinants are computed division-free: the truncated series ring has
zero divisors (any monomial of degree above half the order squares to
zero), so fraction-free elimination is unsound there.  The subset dynamic
program costs O(2^n * n) ring products, irrelevant at the n <= 8 sizes
that truncation makes meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .paths import WeightLadder
from .series import MSeries, SeriesRing, exact_div, one, zero
from .slices import FaceWeights, f_sequence, tail_solve


def det_division_free(rows) -> object:
    """Determinant over any commutative ring, by the column-subset recursion.

    f(S) is the minor of the first |S| rows on column set S; cofactors along
    row |S|-1 give f(S) = sum over j in S of (-1)^(|S|-1+pos) A[|S|-1][j] f(S-j).
    Masks are visited in numeric order, which refines popcount order since
    clearing a bit always decreases the mask.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    memo: dict[int, object] = {0: None}  # None stands for the scalar 1
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        row = rows[size - 1]
        acc = None
        sign = 1 if (size - 1) % 2 == 0 else -1
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            sub = memo[mask ^ bit]
            term = row[j] if sub is None else row[j] * sub
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
            sign = -sign
        memo[mask] = acc
    return memo[(1 << n) - 1]


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


@dataclass(frozen=True)
class HankelFamily:
    """The four determinant sequences, indices 0..i_max (index -1 is 1)."""

    h0: tuple[MSeries, ...]
    h1: tuple[MSeries, ...]
    h0_tilde: tuple[MSeries, ...]
    h1_tilde: tuple[MSeries, ...]

    @property
    def i_max(self) -> int:
        return len(self.h0) - 1


def hankel_family(
    moments_black: list[MSeries], moments_white: list[MSeries], i_max: int
) -> HankelFamily:
    """All four determinant sequences from the two moment sequences."""
    return HankelFamily(
        tuple(hankel_det(moments_black, 0, i) for i in range(i_max + 1)),
        tuple(hankel_det(moments_black, 1, i) for i in range(i_max + 1)),
        tuple(hankel_det(moments_white, 0, i) for i in range(i_max + 1)),
        tuple(hankel_det(moments_white, 1, i) for i in range(i_max + 1)),
    )


def boundary_hankel_family(g: FaceWeights, ring: SeriesRing, i_max: int) -> HankelFamily:
    """Determinant sequences 0..i_max of the black and white moments F_n of g."""
    b, w = tail_solve(g, ring)
    n_top = 2 * i_max + 1
    fb = f_sequence(n_top, g, b, w, "black")
    fw = f_sequence(n_top, g, b, w, "white")
    return hankel_family(fb, fw, i_max)


def _ratio(seq: tuple[MSeries, ...], i: int, unit: MSeries) -> MSeries | None:
    """seq[i]/seq[i-1] with seq[-1] = 1, or None once truncation kills it.

    Determinant valuations grow quadratically with the index, so beyond a
    truncation-dependent depth the stored determinants are identically zero
    and their ratios carry no information at all.
    """
    num = seq[i]
    den = seq[i - 1] if i >= 1 else unit
    if den.is_zero():
        return None
    return exact_div(num, den)


def cf_extract(h: HankelFamily, i_max: int) -> WeightLadder:
    """Recover the slice ladder from determinant ratios.

    Every division routes through exact_div, so each extracted entry
    carries exactly the reliable order that survives the valuations of the
    determinants involved.  Entries whose information content is wiped out
    by truncation come back as zero series with reliable order 0 and
    compare vacuously downstream; raise the working order to recover them.
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    ref = h.h0[0]
    unit = one(ref.num_vars, ref.order)
    no_content = zero(ref.num_vars, ref.order).with_reliable(0)

    def entry(num_ratio: MSeries | None, den_ratio: MSeries | None) -> MSeries:
        if num_ratio is None or den_ratio is None or den_ratio.is_zero():
            return no_content
        return exact_div(num_ratio, den_ratio)

    blacks: list[MSeries] = []
    whites: list[MSeries] = []
    for idx in range(1, i_max + 1):
        i, parity = divmod(idx, 2)
        if parity == 0:
            # even index: plain family for black, tilde for white
            blacks.append(entry(_ratio(h.h0, i, unit), _ratio(h.h1, i - 1, unit)))
            whites.append(
                entry(_ratio(h.h0_tilde, i, unit), _ratio(h.h1_tilde, i - 1, unit))
            )
        else:
            # odd index 2i+1: shift-1 over shift-0 ratios
            blacks.append(
                entry(_ratio(h.h1_tilde, i, unit), _ratio(h.h0_tilde, i, unit))
            )
            whites.append(entry(_ratio(h.h1, i, unit), _ratio(h.h0, i, unit)))
    return WeightLadder(tuple(blacks), tuple(whites), blacks[-1], whites[-1])


def determinant_ladder(g: FaceWeights, ring: SeriesRing, i_max: int) -> WeightLadder:
    """The determinant route: entries 1..i_max from the moments' Hankel data."""
    return cf_extract(boundary_hankel_family(g, ring, i_max // 2), i_max)


def cf_expand(ladder: WeightLadder, depth: int, n_max: int) -> list[MSeries]:
    """Moments F_0..F_{n_max} of the truncated continued fraction.

    Level j of the fraction carries W_j at odd j and B_j at even j (the
    black-rooted resolvent); evaluate bottom-up as polynomials in the
    boundary-length marker, truncated at degree n_max.
    """
    if depth <= n_max:
        raise ValueError("depth must exceed n_max")
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    tail = [one(nv, order)] + [zero(nv, order)] * n_max
    for j in range(depth, 0, -1):
        coeff = ladder.white_weight(j) if j % 2 else ladder.black_weight(j)
        # u = z * coeff * tail, then  next = 1/(1 - u)  via next = 1 + u*next
        u = [zero(nv, order)] + [coeff * tail[m] for m in range(n_max)]
        nxt = [one(nv, order)] + [zero(nv, order)] * n_max
        for m in range(1, n_max + 1):
            acc = zero(nv, order)
            for r in range(1, m + 1):
                acc = acc + u[r] * nxt[m - r]
            nxt[m] = acc
        tail = nxt
    return tail

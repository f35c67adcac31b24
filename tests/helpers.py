"""Small shared helpers for the test suite."""

from __future__ import annotations

import hashlib

from hypothesis import strategies as st

from bicmaps import paths
from bicmaps.hankel import moment_ladder
from bicmaps.paths import weigh_tally, word_tally, z_plus
from bicmaps.rational import Rat, rat
from bicmaps.series import (
    MSeries,
    SeriesError,
    VariableMismatchError,
    agree,
    exact_div,
    first_difference,
    one,
    variable,
    zero,
)
from bicmaps.slices import FaceWeights, f_sequence, tail_solve

DRAWN_WEIGHTS = (rat(0), rat(1), rat(2), rat(-1, 2), rat(1, 3), rat(-2), rat(3, 4))


@st.composite
def drawn_face_weights(draw):
    """g_1..g_{p+1} for p = 1..4: g_1 != 1, the top weight nonzero."""
    p = draw(st.integers(1, 4))
    first = draw(st.sampled_from([x for x in DRAWN_WEIGHTS if x != 1]))
    middle = draw(st.lists(st.sampled_from(DRAWN_WEIGHTS), min_size=p - 1, max_size=p - 1))
    top = draw(st.sampled_from([x for x in DRAWN_WEIGHTS if x]))
    return FaceWeights((first, *middle, top))


def S(num_vars, order, terms, reliable=None):
    """Build a series from an {exponents: coefficient} dict (ints allowed)."""
    return MSeries(num_vars, order, terms, reliable)


def series_digest(values) -> str:
    """sha256 over the order, reliable bound and coefficients of each series."""
    h = hashlib.sha256()
    for f in values:
        h.update(repr((f.order, f.reliable, sorted(f.coeffs.items()))).encode())
    return h.hexdigest()


def assert_series(actual, expected, through=None, label=""):
    diff = first_difference(actual, expected, through)
    if diff is not None:
        e, ca, ce = diff
        raise AssertionError(
            f"{label or 'series'} differ at exponent {e}: got {ca}, expected {ce}\n"
            f"actual:   {actual}\nexpected: {expected}"
        )


def assert_stable(low, high, reliable):
    """``low`` reports ``reliable`` and agrees with ``high`` through it."""
    assert low.reliable == reliable
    assert agree(low, high), (low, high)


def assert_ladder_stable(low, high, i_max):
    """Entries 1..i_max of ``low`` agree with ``high`` through their own reliable.

    ``high`` is the same route at a higher order, so it must vouch for at
    least as many degrees as ``low``.
    """
    for i in range(1, i_max + 1):
        for a, b in (
            (low.black_weight(i), high.black_weight(i)),
            (low.white_weight(i), high.white_weight(i)),
        ):
            assert b.reliable >= a.reliable, (i, a.reliable, b.reliable)
            assert first_difference(a, b, a.reliable) is None, (i, a, b)


def rat_path_brute(start, end, length, floor, wt, *, black_start=True):
    """Oracle for rat_path: direct enumeration of all 2^length step words.

    The words are tallied by their count of black lower ends in integers
    (``word_tally``) and the weights enter once per tally.  No height DP
    and no common denominator is involved, so the oracle shares no
    arithmetic with rat_path.
    """
    return weigh_tally(word_tally(start, end, length, floor, black_start=black_start), wt)


def rat_path_one_end(start, end, length, floor, wt, *, black_start=True):
    """Oracle for BalancedSums.path: one balanced walk of its own, pruned to
    the one end, so that every kept height can still reach ``end``.

    The integer numerators after ``length`` steps are divided by D**length
    once, D the lcm of the two weights' denominators."""
    if (start - end - length) % 2 or length < abs(start - end):
        return Rat(0)
    if floor is not None and (start < floor or end < floor):
        return Rat(0)
    nb, nw, den = paths._numerators(wt)
    for cur in paths._balanced_walk(start, (end, end), length, floor, nb, nw, black_start):
        pass
    return Rat(cur.get(end, 0), den**length)


def conserved_at(n, d, ladder, g, *, black_start=True):
    """Oracle for slices.conserved: F_n alone at height offset d,
    main - sum_j outer_j * strip_j / t_root, with one ``z_plus`` walk for
    main, for each outer_j and for each strip length."""
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    root_weight = variable(nv, order, 0 if black_start else 1)
    main = z_plus(d, d, 2 * n, ladder, floor=d, black_start=black_start)
    correction = MSeries(nv, order, {})
    for j in range(1, min(n, g.p) + 1):
        outer = z_plus(d, d + 2 * j, 2 * n, ladder, floor=d, black_start=black_start)
        if outer.is_zero():
            continue
        strip = MSeries(nv, order, {})
        for k in range(j + 1, g.p + 2):
            gk = g.weight(k)
            if gk:
                strip = strip + gk * z_plus(
                    d + 2 * j, d - 1, 2 * k - 1, ladder, floor=min(0, d - 1),
                    black_start=black_start,
                )
        correction = correction + outer * strip
    return main - exact_div(correction, root_weight)


def zhd_closed_value(links, c, x, *, black_start=True):
    """Oracle for dimers.zhd_closed_values: the closed form of one segment
    at the (c, x) point from its own powers, a white start by s1 <-> s2."""
    c, x = Rat(c), Rat(x)
    den = (c + x) * (1 + c * x)
    if not black_start:
        c, den = 1 / c, den / (c * c)
    pref = c / den
    if links % 2 == 0:
        i = links // 2
        return pref**i * (1 - x ** (2 * i + 2)) / (1 - x * x)
    i = (links - 1) // 2
    ratio = (c + x) / (1 + c * x)
    return (1 + c * x) * pref ** (i + 1) * (1 - ratio * x ** (2 * i + 3)) / (1 - x * x)


def determinant_ladder_full_walk(g, ring, i_max):
    """Oracle for determinant_ladder: the extraction of all of F_0..F_{i_max},
    the moments past the reach of the truncation included."""
    return moment_ladder(f_sequence(i_max, g, *tail_solve(g, ring)))


def cf_expand_recurrence(ladder, n_max):
    """Oracle for cf_expand: the continued fraction evaluated bottom-up as
    polynomials in the boundary-length marker z, with no path walk.

    Level j carries W_j at odd j and B_j at even j.  It enters
    F_0..F_{n_max} times z^(j - 1), so it is needed only through degree
    n_max - j + 1 in z: level n_max + 1 only through degree 0, where it is
    1, and deeper levels not at all, so the evaluation starts at level n_max.
    """
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


def substitute(f, values):
    """f with series of positive valuation plugged in for its variables.

    Positive valuation is required to keep truncation sound: a term of
    degree d then only feeds degrees >= d of the result.
    """
    if len(values) != f.num_vars:
        raise ValueError("wrong number of substitution values")
    nv = values[0].num_vars
    order = min([f.order] + [v.order for v in values])
    reliable = min([f.reliable] + [v.reliable for v in values])
    for v in values:
        if v.num_vars != nv:
            raise VariableMismatchError("substitution values disagree on arity")
        if v.constant_term():
            raise SeriesError("substitution requires positive valuation")
    unit = one(nv, order)
    powers: list[list[MSeries]] = []
    for j, v in enumerate(values):
        top = max((e[j] for e in f.nums), default=0)
        col = [unit]
        for _ in range(top):
            col.append(col[-1] * v)
        powers.append(col)
    acc = zero(nv, order)
    for e, c in f.coeffs.items():
        term = unit * c
        for j, k in enumerate(e):
            if k:
                term = term * powers[j][k]
        acc = acc + term
    return acc.with_reliable(reliable)

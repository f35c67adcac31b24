"""Hard dimers on bicolored oriented segments; LGV determinant reconstruction.

A segment of n links has n+1 nodes colored alternately, the first black
unless ``black_start`` is False.  A configuration occupies links so that no
node touches two dimers; a dimer on a link oriented black-to-white weighs
s1, white-to-black weighs s2.  One transfer walk, at weights in any ring,
yields the sum of every segment up to its length: at the generators these
are the segment polynomials, ``MSeries`` in (s1, s2) of order and
``reliable`` equal to the link count, checked against a brute-force subset
sum; at rational points they meet exact closed forms in an auxiliary (c, x)
parametrization.  The mutually avoiding path systems of the moment
determinants are rigid outside p central columns, whose freedom projects
onto hard dimers weighted by the p roots x of sum_q (-1)^q c_q x^q, c_q the
``alpha_brackets``.  The same walk runs one column modulo that polynomial,
once for the whole family of indices 0..top, and each moment determinant is
a prefactor times the p x p determinant of the components of p of the
walk's states, so no root and no product over the roots is built.
"""

from __future__ import annotations

from .hankel import HankelFamily, det_division_free
from .rational import Rat, rat
from .series import MSeries, SeriesRing, exact_div, one, variable, zero
from .slices import FaceWeights, alpha_brackets

def _walk(first, second, links, unit, times_x=lambda v: v):
    """Yield Z_0 .. Z_links, the dimer sums of the first L links, on links
    that weigh first, second, first, ...

    State after node j: configurations with node j free vs covered; a link
    may only be occupied if its lower node was free.  Link L's weight enters
    only after Z_L is yielded, so Z_L reads the weights of links 0..L-1
    alone.  With ``times_x`` the sums are phi_L = x^ceil(L/2) Z_L(s/x)
    instead: the free state is scaled by x^floor(L/2) and the covered one by
    x^ceil(L/2), so a dimer weighs s and the free state takes one factor x
    after every odd link.
    """
    free, covered = unit, unit * 0
    for j in range(links + 1):
        total = (times_x(free) if j % 2 else free) + covered
        yield total
        if j < links:
            free, covered = total, free * (second if j % 2 else first)


def transfer(links_max: int, s1, s2, unit, *, black_start: bool = True) -> list:
    """The dimer sums at weights (s1, s2), in any ring whose one is ``unit``,
    of the segments of 0..links_max links whose first node is black (white
    when ``black_start`` is False), from one walk: a link oriented
    black-to-white weighs s1, white-to-black s2."""
    if links_max < 0:
        raise ValueError("link count must be non-negative")
    first, second = (s1, s2) if black_start else (s2, s1)
    return list(_walk(first, second, links_max, unit))


def zhd(links_max: int, *, black_start: bool = True) -> list[MSeries]:
    """The segment polynomials of 0..links_max links: the transfer at the
    generators, entry L cut to order L, which keeps every term (at most
    ceil(L/2) links carry dimers)."""
    ring = SeriesRing(2, max(links_max, 0))
    sums = transfer(links_max, *ring.gens(), ring.one(), black_start=black_start)
    return [z.truncate(links) for links, z in enumerate(sums)]


def zhd_brute(links: int, *, black_start: bool = True) -> MSeries:
    """Independence oracle: explicit sum over all 2^links occupancies.

    Occupancy ``occ`` is a mask with bit j set when link j carries a dimer.
    It is dropped when two adjacent links are occupied, and otherwise
    tallied by its numbers of occupied s1 and s2 links, the s1 links being
    the even ones on a black start and the odd ones on a white start.  Each
    occupancy is tested on its own, with no transfer state, so the oracle
    shares nothing with ``transfer``.
    """
    if links < 0:
        raise ValueError("link count must be non-negative")
    if links > 20:
        raise ValueError("brute force capped at 20 links")
    first = sum(1 << j for j in range(0 if black_start else 1, links, 2))
    out: dict[tuple[int, int], int] = {}
    for occ in range(1 << links):
        if occ & (occ >> 1):
            continue
        key = ((occ & first).bit_count(), (occ & ~first).bit_count())
        out[key] = out.get(key, 0) + 1
    return MSeries(2, links, out)


def _cx_point(c, x) -> tuple:
    """(c, x, (c + x)(1 + c x)) as rationals; ValueError where degenerate."""
    c, x = Rat(c), Rat(x)
    den = (c + x) * (1 + c * x)
    if not c or not x or not den or x * x == 1:
        raise ValueError("degenerate (c, x) parameters")
    return c, x, den


def dimer_weights_from_cx(c, x) -> tuple:
    """The (s1, s2) point parametrized by the auxiliary rationals (c, x)."""
    c, x, den = _cx_point(c, x)
    return -x / den, -c * c * x / den


def zhd_closed_values(links_max: int, c, x, *, black_start: bool = True) -> list:
    """Closed forms of the segment polynomials of 0..links_max links at the
    (c, x) point, with pref = c / den and ratio = (c + x) / (1 + c x):
    pref^i (1 - x^(2i+2)) / (1 - x^2) at 2i links, and
    (1 + c x) pref^(i+1) (1 - ratio x^(2i+3)) / (1 - x^2) at 2i + 1.  A
    white start exchanges s1 and s2, which at that point is c -> 1/c: den
    scales by 1/c^2, so pref is unchanged and ratio inverts."""
    c, x, den = _cx_point(c, x)
    if not black_start:
        c, den = 1 / c, den / (c * c)
    pref, scale = c / den, 1 / (1 - x * x)
    odd = (1 + c * x) * scale
    ratio_x = (c + x) / (1 + c * x) * x
    values, power, x_power = [], 1, x * x  # pref^i and x^(2i+2) at 2i or 2i + 1 links
    for links in range(links_max + 1):
        if links % 2 == 0:
            values.append(power * (1 - x_power) * scale)
        else:
            power *= pref
            values.append(odd * power * (1 - ratio_x * x_power))
            x_power *= x * x
    return values


def zhd_closed_check(links_max: int, c, x, *, black_start: bool = True) -> bool:
    """The transfer at the (c, x) point vs the closed form, plus the two
    stated invariances x -> 1/x and (c, x) -> (-c, -x), at every link count
    0..links_max, all read from one ``transfer`` walk."""
    s1, s2 = dimer_weights_from_cx(c, x)
    walked = transfer(links_max, s1, s2, Rat(1), black_start=black_start)
    closed = zhd_closed_values(links_max, c, x, black_start=black_start)
    inverted = zhd_closed_values(links_max, c, 1 / Rat(x), black_start=black_start)
    negated = zhd_closed_values(links_max, -Rat(c), -Rat(x), black_start=black_start)
    return walked == closed == inverted == negated


# -- determinant reconstruction ----------------------------------------------


class _Residue:
    """A polynomial in the column weight x modulo the monic characteristic
    polynomial x^p - sum_q low[q] x^q: its components over 1, x, ..., x^(p-1)."""

    def __init__(self, parts: list, low: list):
        self.parts, self.low = parts, low

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue([a + b for a, b in zip(self.parts, other.parts)], self.low)

    def __mul__(self, s) -> "_Residue":
        return _Residue([a * s for a in self.parts], self.low)

    def times_x(self) -> "_Residue":
        top = self.parts[-1]
        shifted = [top * 0] + self.parts[:-1]
        return _Residue([a + top * r for a, r in zip(shifted, self.low)], self.low)


def _column(links: int, b: MSeries, w: MSeries, brackets: tuple[MSeries, ...]) -> list:
    """phi_0 .. phi_links from one walk, where phi_L = x^ceil(L/2) Z_L(W/x, B/x),
    Z_L on the segment of L links that starts black, and x is a root of the
    brackets' polynomial: each phi_L as its components modulo it, made monic by 1/c_p."""
    p = len(brackets) - 1
    lead = rat(1, brackets[p].constant_term())
    low = [c * lead if (p - q) % 2 else -c * lead for q, c in enumerate(brackets[:p])]
    nv, order = b.num_vars, b.order
    unit = _Residue([one(nv, order)] + [zero(nv, order)] * (p - 1), low)
    return list(_walk(w, b, links, unit, _Residue.times_x))


def lgv(top: int, g: FaceWeights, b: MSeries, w: MSeries) -> HankelFamily:
    """Shift-0 and shift-1 Hankel determinants of indices 0..top for the face
    weights g, p = g.p >= 1, from one walk of the column on g's brackets.
    Shift s of index i is (BW)^(i(i+1)/2) a_p^(i+1) W^(s(i+1)) U_s, where
    a_p = -g_(p+1) B/t_black is the black-root alpha_p and U_s is the p x p
    determinant whose row k holds the components of phi_(2i+1+s+2k):
    det phi_(2i+1+s+2k)(x_j) over the Vandermonde determinant of the roots
    x_j.  A state of the walk does not depend on the links after it, so every
    index reads the phi a walk of its own would give."""
    p = g.p
    if top < 0:
        raise ValueError("determinant index must be non-negative")
    if p < 1:
        raise ValueError("the column needs faces of degree 4 or more: p >= 1")
    brackets = alpha_brackets(g, b, w)
    phi = _column(2 * top + 2 * p, b, w, brackets)
    a_p = exact_div(b, variable(b.num_vars, b.order, 0)) * -g.g[-1]
    h0, h1, pref, step, wpow = [], [], 1, a_p, 1
    for i in range(top + 1):
        pref, step = pref * step, step * b * w  # (BW)^(i(i+1)/2) a_p^(i+1), (BW)^(i+1) a_p
        wpow = wpow * w  # W^(i+1)
        u0, u1 = (
            det_division_free([phi[2 * i + 1 + s + 2 * k].parts for k in range(p)])
            for s in (0, 1)
        )
        h0.append(pref * u0)
        h1.append(wpow * pref * u1)
    return HankelFamily(tuple(h0), tuple(h1))


# kept because perfbench/spans.py traces the dimer layer under these names
lgv_quad = lgv_hex = lgv

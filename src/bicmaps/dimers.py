"""Hard dimers on bicolored oriented segments; LGV determinant reconstruction.

A segment of n links has n+1 nodes colored alternately.  A configuration
occupies links so that no node touches two dimers; a dimer on a link
oriented black-to-white weighs s1, white-to-black weighs s2.  One transfer
recursion evaluates the sum at weights in any ring: at the generators it is
the segment polynomial, an ``MSeries`` in (s1, s2) of order and ``reliable``
equal to the link count, checked against a brute-force subset sum; at
rational points it meets exact closed forms in an auxiliary (c, x)
parametrization.  The mutually avoiding path systems of the moment
determinants are rigid outside p central columns, whose freedom projects
onto hard dimers weighted by the p roots x of a_0 - a_1 x + a_2 x^2 - ...
The same recursion walks a column modulo that polynomial, and the product
over the roots is the determinant of multiplication, so no root is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hankel import det_division_free
from .rational import Rat
from .series import MSeries, SeriesRing, inv_unit, one, zero

_ENDS = ("bb", "bw", "wb", "ww")


def segment_ends(links: int) -> tuple[str, str]:
    """The end colors a segment of ``links`` links can join: like colors for
    an even count, unlike for an odd one (the nodes alternate in color)."""
    return ("bb", "ww") if links % 2 == 0 else ("bw", "wb")


@dataclass(frozen=True)
class SegmentSpec:
    """A bicolored oriented segment: link count plus end-node colors."""

    links: int
    ends: str

    def __post_init__(self):
        if self.links < 0:
            raise ValueError("link count must be non-negative")
        if self.ends not in _ENDS:
            raise ValueError(f"ends must be one of {_ENDS}")
        if self.ends not in segment_ends(self.links):
            raise ValueError(
                f"{self.links} links cannot join end colors {self.ends!r}"
            )

    def link_weights(self) -> list[int]:
        """Per link: 1 for black-to-white (s1), 2 for white-to-black (s2)."""
        start = 0 if self.ends[0] == "b" else 1
        return [1 + (start + j) % 2 for j in range(self.links)]


def _walk(weights, unit, times_x=lambda v: v):
    """Yield the free state after each link: the dimer sum of the links before it.

    State after node j: configurations with node j free vs covered; a link
    may only be occupied if its lower node was free.  With ``times_x`` the
    sums are phi_L = x^ceil(L/2) Z_L(s/x) instead: the free state is scaled
    by x^floor(L/2) and the covered one by x^ceil(L/2), so a dimer weighs s
    and the free state takes one factor x after every odd link.
    """
    free, covered = unit, unit * 0
    for j, s in enumerate(weights):
        free, covered = (times_x(free) if j % 2 else free) + covered, free * s
        yield free


def transfer(spec: SegmentSpec, s1, s2, unit):
    """The segment's dimer sum at weights (s1, s2) in any ring whose one is ``unit``:
    the walk's free state after one more link, of weight 0."""
    s = (s1, s2)
    *_, total = _walk([s[k - 1] for k in spec.link_weights()] + [0], unit)
    return total


def zhd(spec: SegmentSpec) -> MSeries:
    """The segment polynomial: the transfer at the generators of a ring whose
    order ``links`` keeps every term (at most half the links carry dimers)."""
    ring = SeriesRing(2, spec.links)
    return transfer(spec, *ring.gens(), ring.one())


def zhd_brute(spec: SegmentSpec) -> MSeries:
    """Independence oracle: explicit sum over all 2^links occupancies.

    Occupancy ``occ`` is a mask with bit j set when link j carries a dimer.
    It is dropped when two adjacent links are occupied, and otherwise
    tallied by its numbers of occupied s1 and s2 links.  Each occupancy is
    tested on its own, with no transfer state, so the oracle shares only
    the link orientations with ``transfer``.
    """
    if spec.links > 20:
        raise ValueError("brute force capped at 20 links")
    first = sum(1 << j for j, weight in enumerate(spec.link_weights()) if weight == 1)
    out: dict[tuple[int, int], int] = {}
    for occ in range(1 << spec.links):
        if occ & (occ >> 1):
            continue
        key = ((occ & first).bit_count(), (occ & ~first).bit_count())
        out[key] = out.get(key, 0) + 1
    return MSeries(2, spec.links, out)


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


def zhd_closed_value(spec: SegmentSpec, c, x):
    """Closed form of the segment polynomial at the (c, x) point."""
    c, x, den = _cx_point(c, x)
    pref = c / den
    ratio = (c + x) / (1 + c * x)
    if spec.ends in ("bb", "ww"):
        i = spec.links // 2
        return pref ** i * (1 - x ** (2 * i + 2)) / (1 - x * x)
    i = (spec.links - 1) // 2
    if spec.ends == "bw":
        return (
            (1 + c * x)
            * pref ** (i + 1)
            * (1 - ratio * x ** (2 * i + 3))
            / (1 - x * x)
        )
    return (
        (1 + x / c)
        * pref ** (i + 1)
        * (1 - x ** (2 * i + 3) / ratio)
        / (1 - x * x)
    )


def zhd_closed_check(spec: SegmentSpec, c, x) -> bool:
    """The transfer at the (c, x) point vs closed form, plus the two stated invariances."""
    value = transfer(spec, *dimer_weights_from_cx(c, x), Rat(1))
    closed = zhd_closed_value(spec, c, x)
    inverted = zhd_closed_value(spec, c, Rat(1) / Rat(x))
    negated = zhd_closed_value(spec, -Rat(c), -Rat(x))
    return value == closed == inverted == negated


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

    def norm(self) -> MSeries:
        """The product over the roots: the determinant of multiplication by self."""
        rows = [self]
        while len(rows) < len(self.parts):
            rows.append(rows[-1].times_x())
        return det_division_free([r.parts for r in rows])


def _column(i: int, b: MSeries, w: MSeries, alpha: tuple[MSeries, ...]) -> tuple:
    """(BW)^(i(i+1)/2) a_p^(i+1) and phi_0 .. phi_(2i+2) from one walk, where
    phi_L = x^ceil(L/2) Z_L(W/x, B/x), Z_L on the segment of L links that
    starts black, and x is a root of sum_q (-1)^q a_q x^q.  N_L is the norm
    of phi_L, its product over the roots."""
    p = len(alpha) - 1
    lead = inv_unit(alpha[p])
    low = [a * lead if (p - q) % 2 else -a * lead for q, a in enumerate(alpha[:p])]
    nv, order = b.num_vars, b.order
    unit = _Residue([one(nv, order)] + [zero(nv, order)] * (p - 1), low)
    weights = [(w, b)[j % 2] for j in range(2 * i + 2)] + [0]
    pref = (b * w) ** (i * (i + 1) // 2) * alpha[p] ** (i + 1)
    return pref, list(_walk(weights, unit, _Residue.times_x))


def lgv_quad(
    i: int, b: MSeries, w: MSeries, alpha: tuple[MSeries, ...]
) -> tuple[MSeries, MSeries]:
    """Shift-0 and shift-1 determinants of index i for quadrangulations: one
    column, whose detours are hard dimers on 2i+1 and 2i+2 links.  alpha
    holds the black-root a0, a1 of ``alpha_coeffs``."""
    pref, phi = _column(i, b, w, alpha)
    return pref * phi[2 * i + 1].norm(), w ** (i + 1) * pref * phi[2 * i + 2].norm()


def lgv_hex(
    i: int, b: MSeries, w: MSeries, alpha: tuple[MSeries, ...]
) -> tuple[MSeries, MSeries]:
    """Hexangulation determinants of index i: two columns, whose term r is
    (BW)^(i+1-r) N_L with L = 2r - 1 links for shift 0 (0 at r = 0) and
    L = 2r for shift 1.  alpha holds the black-root a0, a1, a2."""
    pref, phi = _column(i, b, w, alpha)
    norms = [f.norm() for f in phi]
    bw = b * w

    def r_sum(terms: list[MSeries]) -> MSeries:
        # the sum over r of (BW)^(i+1-r) terms[r], by Horner's rule
        total = terms[0]
        for term in terms[1:]:
            total = total * bw + term
        return total

    h0 = pref * r_sum(norms[:1] + norms[1::2])
    h1 = pref * w ** (i + 1) * r_sum(norms[::2])
    return h0, h1

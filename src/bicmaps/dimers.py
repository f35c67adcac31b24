"""Hard dimers on bicolored oriented segments; LGV determinant reconstruction.

A segment of n links has n+1 nodes colored alternately.  A configuration
occupies links so that no node touches two dimers; a dimer on a link
oriented black-to-white weighs s1, white-to-black weighs s2.  One transfer
recursion evaluates the sum at weights in any ring: at the generators it is
the segment polynomial, an ``MSeries`` in (s1, s2) of order and ``reliable``
equal to the link count, checked against a brute-force subset sum; at
rational points it meets exact closed forms in an auxiliary (c, x)
parametrization; at series weights it reconstructs the moment determinants,
whose mutually avoiding path systems are rigid outside a central strip
whose freedom projects onto hard dimers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        start_black = self.ends[0] == "b"
        out = []
        for j in range(self.links):
            from_black = (j % 2 == 0) == start_black
            out.append(1 if from_black else 2)
        return out


def transfer(spec: SegmentSpec, s1, s2, unit):
    """The segment's dimer sum at weights (s1, s2) in any ring whose one is ``unit``.

    State after node j: configurations with node j free vs covered; a link
    may only be occupied if its lower node was free.
    """
    s = (s1, s2)
    free, covered = unit, unit * 0
    for weight in spec.link_weights():
        free, covered = free + covered, free * s[weight - 1]
    return free + covered


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


def _triangle(i: int) -> int:
    return i * (i + 1) // 2


def lgv_quad(
    i: int, b: MSeries, w: MSeries, alpha: tuple[MSeries, ...]
) -> tuple[MSeries, MSeries]:
    """Shift-0 and shift-1 determinants of index i for quadrangulations.

    The avoiding-path freedom sits in one central column whose up/down and
    down/up detours act as hard dimers with series weights W*a1/a0 and
    B*a1/a0 on segments of 2i+1 (shift 0) and 2i+2 (shift 1) links; the
    a_q are ``alpha_coeffs`` for a black root.
    """
    a0, a1 = alpha[0], alpha[1]
    ratio = a1 * inv_unit(a0)
    s1, s2 = w * ratio, b * ratio
    unit = one(b.num_vars, min(s1.order, s2.order))
    pref = (b * w) ** _triangle(i) * a0 ** (i + 1)
    h0 = pref * transfer(SegmentSpec(2 * i + 1, "bw"), s1, s2, unit)
    h1 = w ** (i + 1) * pref * transfer(SegmentSpec(2 * i + 2, "bb"), s1, s2, unit)
    return h0, h1


def lgv_hex(
    i: int, b: MSeries, w: MSeries, alpha: tuple[MSeries, ...]
) -> tuple[MSeries, MSeries]:
    """Hexangulation determinants from paired dimer segments.

    Two central columns carry horizontal weights p1, p2 that are only known
    through e1 = p1 + p2 = a1/a2 and e2 = p1*p2 = a0/a2.  The r-th term
    needs phi_r(p) = p^r * Z(W/p, B/p), a genuine polynomial in p; the
    symmetric product phi_r(p1)*phi_r(p2) is evaluated by reducing phi_r in
    the quotient by p^2 - e1*p + e2 and taking the norm
    (A + C p1)(A + C p2) = A^2 + A C e1 + C^2 e2, so the individual roots
    never need to exist.  alpha holds the black-root a0, a1, a2.
    """
    a0, a1, a2 = alpha
    inv_a2 = inv_unit(a2)
    e1, e2 = a1 * inv_a2, a0 * inv_a2
    nv, order = b.num_vars, b.order
    # p^k reduced mod p^2 - e1 p + e2, as (constant, linear) component pairs
    p_pow = [(one(nv, order), zero(nv, order))]
    for _ in range(i + 1):
        pa, pc = p_pow[-1]
        p_pow.append((-pc * e2, pa + pc * e1))
    bw = b * w

    bw_pow = [one(nv, order)]
    for _ in range(i + 1):
        bw_pow.append(bw_pow[-1] * bw)

    def r_sum(segments: list[SegmentSpec]) -> MSeries:
        total = zero(nv, order)
        for r, spec in enumerate(segments):
            comp_a, comp_c = zero(nv, order), zero(nv, order)
            for (a, b2), n in zhd(spec).coeffs.items():
                mono = (w ** a) * (b ** b2) * n
                pa, pc = p_pow[r - a - b2]
                comp_a = comp_a + mono * pa
                comp_c = comp_c + mono * pc
            norm = comp_a * comp_a + comp_a * comp_c * e1 + comp_c * comp_c * e2
            total = total + bw_pow[i + 1 - r] * norm
        return total

    # the r = 0 term of h0 is the zero-link segment, whose polynomial is 1
    h0_segments = [SegmentSpec(0, "bb")] + [SegmentSpec(2 * r - 1, "bw") for r in range(1, i + 2)]
    base = a2 ** (i + 1) * (b * w) ** _triangle(i)
    h0 = base * r_sum(h0_segments)
    h1 = base * w ** (i + 1) * r_sum([SegmentSpec(2 * r, "bb") for r in range(i + 2)])
    return h0, h1

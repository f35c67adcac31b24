"""Hard dimers on bicolored oriented segments; LGV determinant reconstruction.

A segment of n links has n+1 nodes colored alternately.  A configuration
occupies links so that no node touches two dimers; a dimer on a link
oriented black-to-white weighs s1, white-to-black weighs s2.  The transfer
recursion along the segment, the brute-force subset sum, and exact closed
forms in an auxiliary (c, x) parametrization all live here, together with
the reconstruction of the moment determinants from dimer polynomials: the
mutually avoiding path systems counted by those determinants are rigid
outside a central strip whose freedom projects onto hard dimers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .rational import Rat
from .series import MSeries, inv_unit, one, zero
from .slices import AlphaCoeffs

_ENDS = ("bb", "bw", "wb", "ww")


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
        same = self.ends in ("bb", "ww")
        if same != (self.links % 2 == 0):
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


class DimerPoly:
    """Polynomial in the two dimer weights, exponents (s1 power, s2 power)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def one(cls) -> "DimerPoly":
        return cls({(0, 0): 1})

    def __add__(self, other: "DimerPoly") -> "DimerPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return DimerPoly(out)

    def shifted(self, weight: int) -> "DimerPoly":
        """Multiply by s1 (weight 1) or s2 (weight 2)."""
        da, db = (1, 0) if weight == 1 else (0, 1)
        return DimerPoly({(a + da, b + db): c for (a, b), c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, DimerPoly) and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]))

    def evaluate(self, s1, s2):
        total = Rat(0)
        for (a, b), c in self.coeffs.items():
            total += c * Rat(s1) ** a * Rat(s2) ** b
        return total

    def eval_series(self, s1: MSeries, s2: MSeries) -> MSeries:
        """The polynomial at two series of positive valuation.

        Terms above the working order vanish there, so they are dropped.
        """
        return MSeries(2, min(s1.order, s2.order), self.coeffs).substitute([s1, s2])

    def __repr__(self):
        body = " + ".join(
            f"{c}*s1^{a}*s2^{b}" if (a or b) else str(c) for (a, b), c in self.terms()
        )
        return f"DimerPoly({body or '0'})"


def zhd(spec: SegmentSpec) -> DimerPoly:
    """Hard-dimer generating polynomial by transfer along the segment.

    State after node j: configurations with node j free vs covered; a link
    may only be occupied if its lower node was free.
    """
    free, covered = DimerPoly.one(), DimerPoly()
    for weight in spec.link_weights():
        free, covered = free + covered, free.shifted(weight)
    return free + covered


def zhd_brute(spec: SegmentSpec) -> DimerPoly:
    """Independence oracle: explicit sum over all 2^links occupancies."""
    if spec.links > 20:
        raise ValueError("brute force capped at 20 links")
    weights = spec.link_weights()
    out: dict[tuple[int, int], int] = {}
    for occ in product((0, 1), repeat=spec.links):
        if any(occ[j] and occ[j + 1] for j in range(spec.links - 1)):
            continue
        a = sum(1 for j in range(spec.links) if occ[j] and weights[j] == 1)
        b = sum(1 for j in range(spec.links) if occ[j] and weights[j] == 2)
        out[(a, b)] = out.get((a, b), 0) + 1
    return DimerPoly(out)


def dimer_weights_from_cx(c, x) -> tuple:
    """The (s1, s2) point parametrized by the auxiliary rationals (c, x)."""
    c, x = Rat(c), Rat(x)
    den = (c + x) * (1 + c * x)
    if not c or not x or not den or x * x == 1:
        raise ValueError("degenerate (c, x) parameters")
    return -x / den, -c * c * x / den


def zhd_closed_value(spec: SegmentSpec, c, x):
    """Closed form of the segment polynomial at the (c, x) point."""
    c, x = Rat(c), Rat(x)
    den = (c + x) * (1 + c * x)
    if not c or not x or not den or x * x == 1:
        raise ValueError("degenerate (c, x) parameters")
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
    """Transfer polynomial vs closed form, plus the two stated invariances."""
    s1, s2 = dimer_weights_from_cx(c, x)
    value = zhd(spec).evaluate(s1, s2)
    closed = zhd_closed_value(spec, c, x)
    inverted = zhd_closed_value(spec, c, Rat(1) / Rat(x))
    negated = zhd_closed_value(spec, -Rat(c), -Rat(x))
    return value == closed == inverted == negated


# -- determinant reconstruction ----------------------------------------------


def _triangle(i: int) -> int:
    return i * (i + 1) // 2


def lgv_quad(
    i: int, b: MSeries, w: MSeries, coeffs: AlphaCoeffs
) -> tuple[MSeries, MSeries]:
    """Shift-0 and shift-1 determinants of index i for quadrangulations.

    The avoiding-path freedom sits in one central column whose up/down and
    down/up detours act as hard dimers with series weights W*a1/a0 and
    B*a1/a0 on segments of 2i+1 (shift 0) and 2i+2 (shift 1) links.
    """
    a0, a1 = coeffs.alpha[0], coeffs.alpha[1]
    ratio = a1 * inv_unit(a0)
    s1, s2 = w * ratio, b * ratio
    pref = (b * w) ** _triangle(i) * a0 ** (i + 1)
    h0 = pref * zhd(SegmentSpec(2 * i + 1, "bw")).eval_series(s1, s2)
    h1 = w ** (i + 1) * pref * zhd(SegmentSpec(2 * i + 2, "bb")).eval_series(s1, s2)
    return h0, h1


def lgv_hex(
    i: int, b: MSeries, w: MSeries, coeffs: AlphaCoeffs
) -> tuple[MSeries, MSeries]:
    """Hexangulation determinants from paired dimer segments.

    Two central columns carry horizontal weights p1, p2 that are only known
    through e1 = p1 + p2 = a1/a2 and e2 = p1*p2 = a0/a2.  The r-th term
    needs phi_r(p) = p^r * Z(W/p, B/p), a genuine polynomial in p; the
    symmetric product phi_r(p1)*phi_r(p2) is evaluated by reducing phi_r in
    the quotient by p^2 - e1*p + e2 and taking the norm
    (A + C p1)(A + C p2) = A^2 + A C e1 + C^2 e2, so the individual roots
    never need to exist.
    """
    a0, a1, a2 = coeffs.alpha[0], coeffs.alpha[1], coeffs.alpha[2]
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

    def r_sum(segment_for_r) -> MSeries:
        total = zero(nv, order)
        for r in range(i + 2):
            poly = DimerPoly.one() if segment_for_r(r) is None else zhd(segment_for_r(r))
            comp_a, comp_c = zero(nv, order), zero(nv, order)
            for (a, b2), n in poly.coeffs.items():
                mono = (w ** a) * (b ** b2) * n
                pa, pc = p_pow[r - a - b2]
                comp_a = comp_a + mono * pa
                comp_c = comp_c + mono * pc
            norm = comp_a * comp_a + comp_a * comp_c * e1 + comp_c * comp_c * e2
            total = total + bw_pow[i + 1 - r] * norm
        return total

    def h0_segment(r: int) -> SegmentSpec | None:
        return None if r == 0 else SegmentSpec(2 * r - 1, "bw")

    def h1_segment(r: int) -> SegmentSpec:
        return SegmentSpec(2 * r, "bb")

    base = a2 ** (i + 1) * (b * w) ** _triangle(i)
    h0 = base * r_sum(h0_segment)
    h1 = base * w ** (i + 1) * r_sum(h1_segment)
    return h0, h1

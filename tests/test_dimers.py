"""Hard dimers: transfer vs brute force, closed forms, determinant routes."""

from __future__ import annotations

import pytest

from bicmaps.dimers import (
    SegmentSpec,
    dimer_weights_from_cx,
    lgv_hex,
    lgv_quad,
    zhd,
    zhd_brute,
    zhd_closed_check,
    zhd_closed_value,
)
from bicmaps.hankel import hankel_det
from bicmaps.rational import rat
from bicmaps.series import MSeries, SeriesRing, agree, first_difference, one
from bicmaps.slices import FaceWeights, alpha_coeffs, f_sequence, tail_solve

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()


def times(f: MSeries, gen: int, ring: SeriesRing) -> MSeries:
    """f times s1 (gen 0) or s2 (gen 1) in ``ring``; f is lifted to the
    ring's order first, so a zero-link factor is not cut to order 0."""
    return MSeries(2, ring.order, f.coeffs) * ring.gens()[gen]


def test_segment_parity_validation():
    SegmentSpec(0, "bb")
    SegmentSpec(3, "bw")
    with pytest.raises(ValueError):
        SegmentSpec(3, "bb")
    with pytest.raises(ValueError):
        SegmentSpec(2, "wb")


def test_zhd_base_cases():
    assert zhd(SegmentSpec(0, "bb")) == MSeries(2, 0, {(0, 0): 1})
    assert zhd(SegmentSpec(2, "bb")) == MSeries(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert zhd(SegmentSpec(1, "bw")) == MSeries(2, 1, {(0, 0): 1, (1, 0): 1})


def test_zhd_brute_frozen_three_links():
    # b-w-b-w segment: empty, three singletons (two s1, one s2), one s1 pair
    want = MSeries(2, 3, {(0, 0): 1, (1, 0): 2, (0, 1): 1, (2, 0): 1})
    assert zhd_brute(SegmentSpec(3, "bw")) == want
    assert zhd(SegmentSpec(3, "bw")) == want


def test_zhd_equals_brute_all_families():
    for links in range(0, 13):
        for ends in ("bb", "ww") if links % 2 == 0 else ("bw", "wb"):
            spec = SegmentSpec(links, ends)
            assert zhd(spec) == zhd_brute(spec), spec


def test_zhd_counts_and_bounds():
    for links in (5, 8, 11):
        for ends in ("bb", "ww") if links % 2 == 0 else ("bw", "wb"):
            poly = zhd(SegmentSpec(links, ends))
            assert poly.reliable == links
            for (a, b), c in poly.terms():
                assert c > 0 and isinstance(c, int)
                assert a + b <= (links + 1) // 2


def test_appendix_recursions_as_polynomial_identities():
    for i in range(1, 7):
        lhs = zhd(SegmentSpec(2 * i, "bb"))
        rhs = zhd(SegmentSpec(2 * i - 1, "bw")) + times(
            zhd(SegmentSpec(2 * i - 2, "bb")), 1, SeriesRing(2, lhs.order)
        )
        assert lhs == rhs, i
        lhs = zhd(SegmentSpec(2 * i + 1, "bw"))
        rhs = zhd(SegmentSpec(2 * i, "bb")) + times(
            zhd(SegmentSpec(2 * i - 1, "bw")), 0, SeriesRing(2, lhs.order)
        )
        assert lhs == rhs, i


def test_color_reversal_symmetries():
    for links in range(0, 13, 2):
        assert zhd(SegmentSpec(links, "bb")) == zhd(SegmentSpec(links, "ww"))
    for links in range(1, 12, 2):
        assert zhd(SegmentSpec(links, "bw")).swap_vars() == zhd(SegmentSpec(links, "wb"))


CX_POINTS = [
    (rat(1), rat(1, 3)),  # uncolored collapse
    (rat(2), rat(1, 3)),
    (rat(5, 2), rat(1, 7)),
    (rat(1, 3), rat(2, 5)),
    (rat(7, 5), rat(5, 11)),
    (rat(-3, 2), rat(1, 4)),
]


def test_closed_forms_at_rational_points():
    for c, x in CX_POINTS:
        for links in range(0, 11):
            for ends in ("bb", "ww") if links % 2 == 0 else ("bw", "wb"):
                assert zhd_closed_check(SegmentSpec(links, ends), c, x), (c, x, links, ends)


def test_closed_form_invariances_explicit():
    spec = SegmentSpec(4, "bb")
    v = zhd_closed_value(spec, rat(2), rat(1, 3))
    assert v == zhd_closed_value(spec, rat(2), rat(3))
    assert v == zhd_closed_value(spec, rat(-2), rat(-1, 3))
    s1, s2 = dimer_weights_from_cx(rat(2), rat(1, 3))
    assert zhd(spec).evaluate((s1, s2)) == v


def test_closed_form_rejects_degenerate_parameters():
    for c, x in [(rat(0), rat(1, 2)), (rat(2), rat(1)), (rat(2), rat(-1, 2))]:
        with pytest.raises(ValueError):
            zhd_closed_value(SegmentSpec(2, "bb"), c, x)


def test_uncolored_collapse_matches_plain_dimers():
    # at c = 1 both orientations weigh alike, so the polynomial collapses
    # to the single-weight hard-dimer count evaluated at s = s1 = s2
    c, x = rat(1), rat(1, 5)
    s1, s2 = dimer_weights_from_cx(c, x)
    assert s1 == s2
    for links in (4, 6):
        poly = zhd(SegmentSpec(links, "bb"))
        total = sum(cc * s1 ** (a + b) for (a, b), cc in poly.coeffs.items())
        assert total == zhd_closed_value(SegmentSpec(links, "bb"), c, x)


@pytest.fixture(scope="module")
def quad_moments():
    ring = SeriesRing(2, 8)
    b, w = tail_solve(QUAD, ring)
    coeffs = alpha_coeffs(QUAD, b, w)
    fb = f_sequence(7, QUAD, b, w)
    return b, w, coeffs, fb


@pytest.fixture(scope="module")
def hex_moments():
    ring = SeriesRing(2, 8)
    b, w = tail_solve(HEX, ring)
    coeffs = alpha_coeffs(HEX, b, w)
    fb = f_sequence(7, HEX, b, w)
    return b, w, coeffs, fb


def test_lgv_quad_index_zero(quad_moments):
    b, w, coeffs, fb = quad_moments
    h0, h1 = lgv_quad(0, b, w, coeffs)
    assert agree(h0, one(2, 8))  # alpha_0 + W*alpha_1 telescopes to F_0 = 1
    assert agree(h1, hankel_det(fb, 1, 0))


def test_lgv_quad_matches_determinants(quad_moments):
    b, w, coeffs, fb = quad_moments
    for i in range(4):
        h0, h1 = lgv_quad(i, b, w, coeffs)
        d0, d1 = hankel_det(fb, 0, i), hankel_det(fb, 1, i)
        assert agree(h0, d0), (i, first_difference(h0, d0))
        assert agree(h1, d1), (i, first_difference(h1, d1))


def test_lgv_hex_matches_determinants(hex_moments):
    b, w, coeffs, fb = hex_moments
    for i in range(3):
        h0, h1 = lgv_hex(i, b, w, coeffs)
        d0, d1 = hankel_det(fb, 0, i), hankel_det(fb, 1, i)
        assert agree(h0, d0), (i, first_difference(h0, d0))
        assert agree(h1, d1), (i, first_difference(h1, d1))


def test_lgv_hex_r_zero_convention(hex_moments):
    # at i = 0 the r = 0 term contributes exactly (BW)^{i+1} * a2^{i+1}
    b, w, coeffs, _ = hex_moments
    h0, _ = lgv_hex(0, b, w, coeffs)
    assert h0.valuation() == 0  # the determinant is 1 + higher order

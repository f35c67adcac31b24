"""Hard dimers: transfer vs brute force, closed forms, determinant routes."""

from __future__ import annotations

from itertools import product

import pytest
import sympy as sp

from bicmaps import dimers
from bicmaps.dimers import (
    dimer_weights_from_cx,
    lgv,
    lgv_hex,
    lgv_quad,
    transfer,
    zhd,
    zhd_brute,
    zhd_closed_check,
    zhd_closed_values,
)
from bicmaps.hankel import det_division_free, hankel_det, hankel_family
from bicmaps.rational import Rat, rat
from bicmaps.series import (
    MSeries,
    SeriesRing,
    agree,
    first_difference,
    inv_unit,
    one,
    sqrt_unit,
    zero,
)
from bicmaps.slices import FaceWeights, alpha_brackets, alpha_coeffs, f_sequence, tail_solve
from bicmaps.suites import SuiteRun, suite_dimers

from helpers import series_digest, substitute, zhd_closed_value

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()


def times(f: MSeries, gen: int, ring: SeriesRing) -> MSeries:
    """f times s1 (gen 0) or s2 (gen 1) in ``ring``; f is lifted to the
    ring's order first, so a zero-link factor is not cut to order 0."""
    return MSeries(2, ring.order, f.coeffs) * ring.gens()[gen]


def test_segment_parity_validation():
    assert len(transfer(0, 1, 1, 1)) == 1 and len(zhd(3, black_start=False)) == 4
    zhd_brute(20, black_start=False)
    for sums in (lambda: transfer(-1, 1, 1, 1), lambda: zhd(-1), lambda: zhd_brute(-1)):
        with pytest.raises(ValueError, match="non-negative"):
            sums()
    with pytest.raises(ValueError, match="capped at 20"):
        zhd_brute(21)


def test_zhd_base_cases():
    polys = zhd(2)
    assert polys[0] == MSeries(2, 0, {(0, 0): 1})
    assert polys[2] == MSeries(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert polys[1] == MSeries(2, 1, {(0, 0): 1, (1, 0): 1})
    assert [(f.order, f.reliable) for f in polys] == [(0, 0), (1, 1), (2, 2)]


def test_zhd_brute_frozen_three_links():
    # b-w-b-w segment: empty, three singletons (two s1, one s2), one s1 pair
    want = MSeries(2, 3, {(0, 0): 1, (1, 0): 2, (0, 1): 1, (2, 0): 1})
    assert zhd_brute(3) == want
    assert zhd(3)[3] == want


def occupancy_sum(links: int, black_start: bool) -> MSeries:
    """Reference for zhd_brute: one occupancy tuple at a time.  Link j runs
    black-to-white (weight s1) when its lower node j is black: j even on a
    black start, odd on a white one."""
    black_to_white = [(j % 2 == 0) == black_start for j in range(links)]
    out = {}
    for occ in product((0, 1), repeat=links):
        if any(occ[j] and occ[j + 1] for j in range(links - 1)):
            continue
        a = sum(1 for j in range(links) if occ[j] and black_to_white[j])
        b = sum(1 for j in range(links) if occ[j] and not black_to_white[j])
        out[(a, b)] = out.get((a, b), 0) + 1
    return MSeries(2, links, out)


def test_zhd_brute_equals_occupancy_sum():
    for links in range(13):
        for black_start in (True, False):
            got = zhd_brute(links, black_start=black_start)
            want = occupancy_sum(links, black_start)
            assert (got.coeffs, got.order, got.reliable) == (want.coeffs, want.order, want.reliable)


def test_zhd_equals_brute_all_families():
    for black_start in (True, False):
        polys = zhd(12, black_start=black_start)
        assert len(polys) == 13
        for links, poly in enumerate(polys):
            want = zhd_brute(links, black_start=black_start)
            assert poly == want, (links, black_start)
            assert (poly.order, poly.reliable) == (want.order, want.reliable), links


def test_zhd_counts_and_bounds():
    for black_start in (True, False):
        polys = zhd(11, black_start=black_start)
        for links in (5, 8, 11):
            poly = polys[links]
            assert poly.reliable == links
            for (a, b), c in poly.terms():
                assert c > 0 and isinstance(c, int)
                assert a + b <= (links + 1) // 2


def test_appendix_recursions_as_polynomial_identities():
    z = zhd(13)
    for i in range(1, 7):
        lhs = z[2 * i]
        rhs = z[2 * i - 1] + times(z[2 * i - 2], 1, SeriesRing(2, lhs.order))
        assert lhs == rhs, i
        lhs = z[2 * i + 1]
        rhs = z[2 * i] + times(z[2 * i - 1], 0, SeriesRing(2, lhs.order))
        assert lhs == rhs, i


def test_color_reversal_symmetries():
    black, white = zhd(12), zhd(12, black_start=False)
    for links in range(0, 13, 2):
        assert black[links] == white[links]
    for links in range(1, 12, 2):
        assert black[links].swap_vars() == white[links]


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
        for black_start in (True, False):
            assert zhd_closed_check(10, c, x, black_start=black_start), (c, x, black_start)


def test_closed_form_invariances_explicit():
    v = zhd_closed_values(4, rat(2), rat(1, 3))[4]
    assert v == zhd_closed_values(4, rat(2), rat(3))[4]
    assert v == zhd_closed_values(4, rat(-2), rat(-1, 3))[4]
    s1, s2 = dimer_weights_from_cx(rat(2), rat(1, 3))
    assert zhd(4)[4].evaluate((s1, s2)) == v


def test_closed_form_rejects_degenerate_parameters():
    for c, x in [(rat(0), rat(1, 2)), (rat(2), rat(1)), (rat(2), rat(-1, 2))]:
        with pytest.raises(ValueError):
            zhd_closed_values(2, c, x)


def test_uncolored_collapse_matches_plain_dimers():
    # at c = 1 both orientations weigh alike, so the polynomial collapses
    # to the single-weight hard-dimer count evaluated at s = s1 = s2
    c, x = rat(1), rat(1, 5)
    s1, s2 = dimer_weights_from_cx(c, x)
    assert s1 == s2
    for links in (4, 6):
        poly = zhd(links)[links]
        total = sum(cc * s1 ** (a + b) for (a, b), cc in poly.coeffs.items())
        assert total == zhd_closed_values(links, c, x)[links]


@pytest.mark.parametrize("black_start", [True, False], ids=["black", "white"])
def test_closed_check_covers_every_link_count(monkeypatch, black_start):
    # one walk and one closed pass per point: every link count against the
    # transfer and the per-segment closed form
    passes = []
    real = dimers.zhd_closed_values

    def counting(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dimers, "zhd_closed_values", counting)
    for c, x in CX_POINTS:
        passes.clear()
        assert zhd_closed_check(10, c, x, black_start=black_start)
        assert len(passes) == 3
        s1, s2 = dimer_weights_from_cx(c, x)
        closed = real(10, c, x, black_start=black_start)
        walked = transfer(10, s1, s2, Rat(1), black_start=black_start)
        assert len(walked) == 11
        for links in range(11):
            want = zhd_closed_value(links, c, x, black_start=black_start)
            assert walked[links] == closed[links] == want, (c, x, links)


TOP = 10
STARTS = (True, False)


def test_transfer_at_generators_is_zhd():
    # at the ring of each link count, the walk's last entry is zhd's entry;
    # one longer walk gives the same coefficients, cut only in metadata
    for black_start in STARTS:
        polys = zhd(TOP, black_start=black_start)
        for links in range(TOP + 1):
            ring = SeriesRing(2, links)
            got = transfer(links, *ring.gens(), ring.one(), black_start=black_start)[-1]
            want = polys[links]
            assert got == want, (links, black_start)
            assert (got.order, got.reliable) == (want.order, want.reliable), links


def test_transfer_at_rational_points_sums_the_terms():
    for c, x in CX_POINTS:
        s1, s2 = dimer_weights_from_cx(c, x)
        for black_start in STARTS:
            walked = transfer(TOP, s1, s2, Rat(1), black_start=black_start)
            for links, poly in enumerate(zhd(TOP, black_start=black_start)):
                total = sum(n * s1 ** a * s2 ** b for (a, b), n in poly.coeffs.items())
                assert walked[links] == total, (c, x, links, black_start)


def test_transfer_at_series_weights_is_substitution(quad_moments):
    # reference: the polynomial lifted to the working order, then the series
    # substituted into it.  Substitution bounds ``reliable`` by both
    # weights; the walk bounds entry L only by the weights of links 0..L-1,
    # though it goes on past them, so the two bounds differ at 0 and 1 link.
    b, w, _, _ = quad_moments
    alpha = alpha_coeffs(QUAD, b, w)
    ratio = alpha[1] * inv_unit(alpha[0])
    for s1, s2 in ((w * ratio, b * ratio), (w, b.truncate(5)), (w, b.with_reliable(6))):
        order = min(s1.order, s2.order)
        for black_start in STARTS:
            walked = transfer(TOP, s1, s2, one(2, order), black_start=black_start)
            weights = (s1, s2) if black_start else (s2, s1)  # links 0 and 1
            for links, poly in enumerate(zhd(TOP, black_start=black_start)):
                got = walked[links]
                want = substitute(MSeries(2, order, poly.coeffs), [s1, s2])
                assert got == want, (links, black_start)
                assert got.order == want.order, (links, black_start)
                used = [f.reliable for f in weights[: min(links, 2)]]
                assert got.reliable == min([order] + used), (links, black_start)
                if links >= 2:
                    assert got.reliable == want.reliable, (links, black_start)


# sha256 of (order, reliable, coefficients) per series, recorded before the
# determinant reconstruction evaluated the segments through ``transfer``:
# the alpha tuple of each root color and the pair (h0, h1) of each index
PINNED_DIGESTS = {
    ("alpha-quad", "black", 1): "f95b400c55837caff94deb69c4ad5c117c15d40777c6d4b30c6c9e5ae5d4da00",
    ("alpha-quad", "white", 1): "f95b400c55837caff94deb69c4ad5c117c15d40777c6d4b30c6c9e5ae5d4da00",
    ("lgv_quad", 0, 1): "a96e133ac2dab3ce470e9756f68b3cfc8d507d472bb2ed4132c4da234b86efcf",
    ("lgv_quad", 1, 1): "7070cee49d38c9dbed3641b780cd5ae22548d7925f301acc5b34bb82bb3d5f5d",
    ("lgv_quad", 2, 1): "7070cee49d38c9dbed3641b780cd5ae22548d7925f301acc5b34bb82bb3d5f5d",
    ("lgv_quad", 3, 1): "7070cee49d38c9dbed3641b780cd5ae22548d7925f301acc5b34bb82bb3d5f5d",
    ("alpha-hex", "black", 1): "3a96d209a5401e00bb3a320d9adf5d06c63720e8af7f106e9f8bd714aa99904e",
    ("alpha-hex", "white", 1): "3a96d209a5401e00bb3a320d9adf5d06c63720e8af7f106e9f8bd714aa99904e",
    ("lgv_hex", 0, 1): "b9c11936c5607f5bdd116b95834e672a7638792053f9f5533be7e33818113d00",
    ("lgv_hex", 1, 1): "7070cee49d38c9dbed3641b780cd5ae22548d7925f301acc5b34bb82bb3d5f5d",
    ("lgv_hex", 2, 1): "7070cee49d38c9dbed3641b780cd5ae22548d7925f301acc5b34bb82bb3d5f5d",
    ("alpha-quad", "black", 2): "9719da86b56df5a489894f53c10a8d5cd7981cda2f51a6c80111377b237a581c",
    ("alpha-quad", "white", 2): "f5769ad8983f161667f8cea6e61c01c07e0420ef8e10604c3769ff320c621cc3",
    ("lgv_quad", 0, 2): "8fd8114e3a38aaacb25b4ce1303af99f497e3c2855bfab062b31dcd916326753",
    ("lgv_quad", 1, 2): "12badbe509bf31f72ace206a13895a9a36618d581f1af0591b553570f5f55d7b",
    ("lgv_quad", 2, 2): "cdb54c2487d47a30bfa9a82a62f0c55746c2b08838d1822578b0cfff61cf90e4",
    ("lgv_quad", 3, 2): "cdb54c2487d47a30bfa9a82a62f0c55746c2b08838d1822578b0cfff61cf90e4",
    ("alpha-hex", "black", 2): "9051eb685fd8f19971ebcb3003a918b494a0fbcb81c0a268b643e931af495eb8",
    ("alpha-hex", "white", 2): "9051eb685fd8f19971ebcb3003a918b494a0fbcb81c0a268b643e931af495eb8",
    ("lgv_hex", 0, 2): "84e70b9caf6407a03d0e9c2eec47e276119d3b1b2246668d4bddde8e76dcc138",
    ("lgv_hex", 1, 2): "12badbe509bf31f72ace206a13895a9a36618d581f1af0591b553570f5f55d7b",
    ("lgv_hex", 2, 2): "cdb54c2487d47a30bfa9a82a62f0c55746c2b08838d1822578b0cfff61cf90e4",
    ("alpha-quad", "black", 8): "225dee6f690678f484c3ce9d3a27a3f8f44ae6f2e48949865f8f02ebf9213710",
    ("alpha-quad", "white", 8): "fbdc8ebbdb1f80897d5a6b760f546e346fc02cab2e4941f50abb706102cd45ab",
    ("lgv_quad", 0, 8): "48566ed6adf93ee746a2c9ce1341c6f05376e683227ea0220e53c537805041b6",
    ("lgv_quad", 1, 8): "a9ef5626dab5c82c147b89a4f5105973ab2fea218d42be72c086acf4c81098b3",
    ("lgv_quad", 2, 8): "eb696c0c0a4d9aa1eef90486feb89ac7b68ddd60dd68e04c8353f0779d44c45a",
    ("lgv_quad", 3, 8): "15538c69cb126b6e5caa75a7a563c90a2a39b928cb9cb99e8ccac4e1f28e18fb",
    ("alpha-hex", "black", 8): "bb64f466e3e21887f3bedbdc4e310bd291e7282099e89f296ba6317a1b6b7286",
    ("alpha-hex", "white", 8): "d24dee4fac850c1fb4dcce396399e73b2ff9704d0f5faffec33a9ae473be7eeb",
    ("lgv_hex", 0, 8): "7fa037e1cac5eb4d67a125324f00c09065acc1ef72feb6effb79d1331a9bbc42",
    ("lgv_hex", 1, 8): "787fdf78114065152316061e610895af140eef9ce0210e9197f26c49bc780908",
    ("lgv_hex", 2, 8): "e49bbd283d01404196f3051106ce33282888d2d510c2566b3c8d850f91e9f609",
}


@pytest.mark.parametrize("order", [1, 2, 8])
def test_reconstruction_pinned(order):
    ring = SeriesRing(2, order)
    got = {}
    for label, g, top, reconstruct in (("quad", QUAD, 3, lgv_quad), ("hex", HEX, 2, lgv_hex)):
        b, w = tail_solve(g, ring)
        for color, black_start in (("black", True), ("white", False)):
            alpha = alpha_coeffs(g, b, w, black_start=black_start)
            got[f"alpha-{label}", color, order] = series_digest(alpha)
        fam = reconstruct(top, g, b, w)
        for i in range(top + 1):
            got[f"lgv_{label}", i, order] = series_digest((fam.h0[i], fam.h1[i]))
    assert got == {k: v for k, v in PINNED_DIGESTS.items() if k[2] == order}


@pytest.fixture(scope="module")
def quad_moments():
    ring = SeriesRing(2, 8)
    b, w = tail_solve(QUAD, ring)
    fb = f_sequence(7, QUAD, b, w)
    return b, w, alpha_brackets(QUAD, b, w), fb


@pytest.fixture(scope="module")
def hex_moments():
    ring = SeriesRing(2, 8)
    b, w = tail_solve(HEX, ring)
    fb = f_sequence(7, HEX, b, w)
    return b, w, alpha_brackets(HEX, b, w), fb


def test_lgv_quad_index_zero(quad_moments):
    b, w, _, fb = quad_moments
    fam = lgv_quad(0, QUAD, b, w)
    assert agree(fam.h0[0], one(2, 8))  # alpha_0 + W*alpha_1 telescopes to F_0 = 1
    assert agree(fam.h1[0], hankel_det(fb, 1, 0))


@pytest.mark.parametrize(
    "moments, build, weights, top",
    [("quad_moments", lgv_quad, QUAD, 3), ("hex_moments", lgv_hex, HEX, 2)],
    ids=["quad", "hex"],
)
def test_lgv_matches_determinants(request, moments, build, weights, top):
    b, w, _, fb = request.getfixturevalue(moments)
    fam = build(top, weights, b, w)
    for i in range(top + 1):
        h0, h1 = fam.h0[i], fam.h1[i]
        d0, d1 = hankel_det(fb, 0, i), hankel_det(fb, 1, i)
        assert agree(h0, d0), (i, first_difference(h0, d0))
        assert agree(h1, d1), (i, first_difference(h1, d1))


def test_lgv_hex_r_zero_convention(hex_moments):
    # at i = 0 the r = 0 term contributes exactly (BW)^{i+1} * a2^{i+1}
    b, w, _, _ = hex_moments
    h0 = lgv_hex(0, HEX, b, w).h0[0]
    assert h0.valuation() == 0  # the determinant is 1 + higher order


# -- the column walk modulo the characteristic polynomial ----------------------


def column_norms(b, w, brackets, links):
    """N_0 .. N_links: the product of phi_L over the roots, as the determinant
    of multiplication by phi_L on the walk's residues."""
    norms = []
    for phi in dimers._column(links, b, w, brackets):
        rows = [phi]
        while len(rows) < len(phi.parts):
            rows.append(rows[-1].times_x())
        norms.append(det_division_free([r.parts for r in rows]))
    return norms


def segment_at_root(links: int, x, b, w) -> MSeries:
    """x^ceil(L/2) Z_L(W/x, B/x) on the segment of L links that starts black."""
    inv_x = inv_unit(x)
    z = transfer(links, w * inv_x, b * inv_x, one(2, x.order))[links]
    return x ** ((links + 1) // 2) * z


@pytest.mark.parametrize("label", ["quad", "hex"])
def test_column_norms_match_explicit_roots(label, quad_moments, hex_moments):
    b, w, brackets, _ = quad_moments if label == "quad" else hex_moments
    if label == "quad":
        roots = [brackets[0] * inv_unit(brackets[1])]
    else:
        # c0 - c1 x + c2 x^2 is 1 - x^2 at t = 0: two series roots, near 1 and -1
        c0, c1, c2 = brackets
        root_disc = sqrt_unit(c1 * c1 - 4 * c0 * c2)
        roots = [(c1 + sign * root_disc) * inv_unit(2 * c2) for sign in (1, -1)]
        assert {x.constant_term() for x in roots} == {1, -1}
    for x in roots:
        char = sum(((-1) ** q * c * x ** q for q, c in enumerate(brackets)), zero(2, 8))
        assert agree(char, zero(2, 8))
    norms = column_norms(b, w, brackets, 8)
    for links in range(9):
        want = one(2, 8)
        for x in roots:
            want = want * segment_at_root(links, x, b, w)
        assert agree(norms[links], want), (links, first_difference(norms[links], want))
        assert norms[links].reliable >= min(f.reliable for f in (b, w, *brackets)), links


def test_column_norms_are_resultants_at_p3():
    # constant brackets, W and B: the product over the three roots of phi_L is
    # Res(F, phi_L) / lc(F)^deg(phi_L), with phi_L summed from the brute-force
    # occupancies, so neither the walk nor the transfer is used
    x = sp.Symbol("x")
    a, w_val, b_val = [rat(3), rat(1, 2), rat(-2, 3), rat(5, 4)], rat(2, 3), rat(-5, 7)
    brackets = tuple(MSeries(2, 2, {(0, 0): c}) for c in a)
    b, w = MSeries(2, 2, {(0, 0): b_val}), MSeries(2, 2, {(0, 0): w_val})
    char = sum((-1) ** q * sp.Rational(str(c)) * x ** q for q, c in enumerate(a))
    sw, sb = sp.Rational(str(w_val)), sp.Rational(str(b_val))
    norms = column_norms(b, w, brackets, 8)
    for links in range(9):
        half = (links + 1) // 2
        poly = zhd_brute(links)
        phi = sum(n * sw ** i * sb ** j * x ** (half - i - j) for (i, j), n in poly.coeffs.items())
        phi = sp.expand(phi)
        want = sp.resultant(char, phi, x) / sp.LC(char, x) ** sp.degree(phi, x)
        assert norms[links].constant_term() == rat(str(want)), links


def test_reconstructions_build_no_segment_polynomial(monkeypatch, quad_moments, hex_moments):
    def refuse(*args, **kwargs):
        raise AssertionError(f"segment polynomials built for {args}")

    monkeypatch.setattr(dimers, "zhd", refuse)
    b, w, _, _ = quad_moments
    lgv_quad(3, QUAD, b, w)
    b, w, _, _ = hex_moments
    lgv_hex(2, HEX, b, w)


@pytest.mark.parametrize(
    "g",
    [(0, 0, 0, 1), (rat(1, 5), 0, 0, 1), (0, 1, 1), (0, 0, 0, 0, 1)],
    ids=["oct", "oct-g1", "irrational-roots", "deg10"],
)
def test_lgv_matches_determinants_for_every_p(g):
    # (0, 1, 1): a0 - a1 x + a2 x^2 = 1 + x - x^2 at t = 0, roots (1 +- sqrt 5)/2
    g = FaceWeights(tuple(rat(c) for c in g))
    order = 10
    b, w = tail_solve(g, SeriesRing(2, order))
    fam = lgv(2, g, b, w)
    dets = hankel_family(f_sequence(5, g, b, w))
    for s, (walked, moments) in enumerate(((fam.h0, dets.h0), (fam.h1, dets.h1))):
        for i, (got, want) in enumerate(zip(walked, moments, strict=True)):
            assert got == want, (i, s, first_difference(got, want))
            assert got.reliable == want.reliable, (i, s)
            low = i * (i + 1) + s * (i + 1)
            if low <= got.reliable:
                assert got.valuation() == low, (i, s)


@pytest.mark.parametrize(
    "g",
    [(0, 1), (0, 0, 1), (0, 0, 0, 1), (rat(1, 5), 0, 0, 1), (0, 1, 1), (0, 0, 0, 0, 1)],
    ids=["quad", "hex", "oct", "oct-g1", "irrational-roots", "deg10"],
)
def test_column_is_exact_through_the_order(monkeypatch, g):
    # the walk reads the brackets, whose last one is a nonzero rational, so
    # no component loses a degree, and neither does any unit determinant
    g = FaceWeights(tuple(rat(c) for c in g))
    order, top = 10, 3
    b, w = tail_solve(g, SeriesRing(2, order))
    phi = dimers._column(2 * top + 2 * g.p, b, w, alpha_brackets(g, b, w))
    assert {part.reliable for state in phi for part in state.parts} == {order}
    units = []
    real = dimers.det_division_free

    def recording(rows):
        units.append(real(rows))
        return units[-1]

    monkeypatch.setattr(dimers, "det_division_free", recording)
    lgv(top, g, b, w)
    assert len(units) == 2 * (top + 1)
    assert {u.reliable for u in units} == {order}


def test_lgv_walks_the_column_once(monkeypatch, quad_moments, hex_moments):
    calls = []
    real = dimers._column

    def counting(links, *args):
        calls.append(links)
        return real(links, *args)

    monkeypatch.setattr(dimers, "_column", counting)
    for g, (b, w, _, _), top in ((QUAD, quad_moments, 3), (HEX, hex_moments, 2)):
        calls.clear()
        fam = lgv(top, g, b, w)
        assert calls == [2 * top + 2 * g.p]
        assert len(fam.h0) == len(fam.h1) == top + 1


def test_suite_dimers_product_count(series_products, monkeypatch):
    # one column walk per reconstruction, on the brackets; one closed check
    # of every link count per (point, start color); one segment walk of
    # every link count per start color
    from bicmaps import suites

    calls = {"zhd_closed_check": [], "zhd": []}

    def counting(name):
        real = getattr(suites, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(suites, name, counting(name))
    suite_dimers(SuiteRun(7, 1))
    assert series_products[0] <= 295
    assert len(calls["zhd_closed_check"]) == 10
    assert calls["zhd"] == [(12,), (12,)]


@pytest.mark.parametrize("i", [-1, -2])
def test_lgv_rejects_negative_index(i, quad_moments):
    b, w, _, _ = quad_moments
    with pytest.raises(ValueError, match="non-negative"):
        lgv(i, QUAD, b, w)


def test_lgv_rejects_p_zero():
    # g = (1/2,): only bigons, so the brackets are (c_0,) and there is no column
    g = FaceWeights((rat(1, 2),))
    b, w = tail_solve(g, SeriesRing(2, 4))
    assert len(alpha_brackets(g, b, w)) == 1
    with pytest.raises(ValueError, match="p >= 1"):
        lgv(0, g, b, w)

"""Acceptance criteria: every comparison is exact rational arithmetic.

Each criterion prints one PASS/FAIL line (run with -s to see them live)
and enforces its stated runtime bound where one exists.
"""

from __future__ import annotations

import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product

from bicmaps.closedform import (
    hex_ladder_closed,
    hex_params,
    quad_ladder_closed,
    quad_params,
)
from bicmaps.dimers import SegmentSpec, lgv_hex, lgv_quad, zhd, zhd_brute, zhd_closed_check
from bicmaps.extensions import (
    binary_closed_ladder,
    binary_solve,
    rotate_colors,
    ternary_closed_ladder,
    ternary_solve,
    tricolor_characteristic_residual,
    tricolor_closed_t,
    tricolor_solve,
)
from bicmaps.hankel import cf_extract, determinant_ladder, hankel_det, hankel_family
from bicmaps.paths import RatPathWeights, check_reflection_even, check_reflection_odd
from bicmaps.rational import rat
from bicmaps.series import SeriesRing, agree, first_difference, one, zero
from bicmaps.slices import (
    FaceWeights,
    alpha_coeffs,
    conserved,
    f_sequence,
    ladder_solve,
    tail_solve,
    twopoint_from_ladder,
)

from helpers import S, assert_series
from printed import (
    HEX_D1,
    HEX_D2,
    HEX_LADDER,
    HEX_TWOPOINT,
    HEX_Y1,
    HEX_Y2,
    QUAD_D,
    QUAD_LADDER,
    QUAD_TWOPOINT,
    QUAD_Y,
)

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()


@contextmanager
def criterion(num: int, description: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"FAIL criterion {num:2d}: {description} (took {elapsed:.2f}s, limit {limit}s)")
        raise AssertionError(f"criterion {num} exceeded its {limit}s budget: {elapsed:.2f}s")
    print(f"PASS criterion {num:2d}: {description} ({elapsed:.2f}s)")


def ladders_agree(a, b, i_top, context=""):
    for i in range(1, i_top + 1):
        for side in ("black_weight", "white_weight"):
            f, g = getattr(a, side)(i), getattr(b, side)(i)
            diff = first_difference(f, g)
            assert diff is None, f"{context} {side} {i}: differ at {diff}"


def test_criterion_01_quad_parametrization():
    with criterion(1, "quadrangulation parametrization d, y vs printed values", 1.0):
        ring = SeriesRing(2, 8)
        params = quad_params(*tail_solve(QUAD, ring))
        assert_series(params.d.truncate(4), S(2, 8, QUAD_D), label="d")
        assert_series(params.y.truncate(3), S(2, 8, QUAD_Y), label="y")


def test_criterion_02_quad_ladder_and_twopoint():
    with criterion(2, "quadrangulation ladder and two-point printed tables", 5.0):
        ring = SeriesRing(2, 8)
        ladder = ladder_solve(QUAD, ring)
        for i, table in QUAD_LADDER.items():
            assert_series(ladder.black_weight(i).truncate(4), S(2, 8, table), label=f"B_{i}")
        table = twopoint_from_ladder(ladder, 3)
        for i, (want, deg) in QUAD_TWOPOINT.items():
            assert_series(table.g_black(i).truncate(deg), S(2, 8, want), label=f"G_{i}")


def test_criterion_03_hex_parametrization_ladder_twopoint():
    with criterion(3, "hexangulation branches, ladder and two-point tables", 10.0):
        ring = SeriesRing(2, 8)
        params = hex_params(*tail_solve(HEX, ring))
        assert_series(params.d1.truncate(4), S(2, 8, HEX_D1), label="d1")
        assert_series(params.d2.truncate(4), S(2, 8, HEX_D2), label="d2")
        assert_series(params.y1.truncate(3), S(2, 8, HEX_Y1), label="y1")
        assert_series(params.y2.truncate(3), S(2, 8, HEX_Y2), label="y2")
        assert params.d1.coefficient((3, 0)) == rat(-29, 8)
        assert params.d2.coefficient((1, 2)) == rat(45, 8)
        assert params.d2.coefficient((2, 0)) == rat(3, 2)
        ladder = ladder_solve(HEX, ring)
        for i, table in HEX_LADDER.items():
            assert_series(ladder.black_weight(i).truncate(5), S(2, 8, table), label=f"B_{i}")
        table = twopoint_from_ladder(ladder, 3)
        for i, (want, deg) in HEX_TWOPOINT.items():
            assert_series(table.g_black(i).truncate(deg), S(2, 8, want), label=f"G_{i}")


def test_criterion_04_quad_four_routes():
    with criterion(4, "quad: recursion = determinants = closed form; dimers = determinants", 60.0):
        ring = SeriesRing(2, 10)
        ladder = ladder_solve(QUAD, ring)
        b, w = ladder.tail_black, ladder.tail_white
        fb = f_sequence(11, QUAD, b, w, color="black")
        fw = f_sequence(11, QUAD, b, w, color="white")
        extracted = cf_extract(hankel_family(fb, fw, 3), 6)
        closed = quad_ladder_closed(quad_params(b, w), 6)
        ladders_agree(ladder, extracted, 6, "recursion-vs-determinant")
        ladders_agree(ladder, closed, 6, "recursion-vs-closed")
        ladders_agree(extracted, closed, 6, "determinant-vs-closed")
        coeffs = alpha_coeffs(QUAD, b, w)
        for i in range(6):
            h0, h1 = lgv_quad(i, b, w, coeffs)
            assert agree(h0, hankel_det(fb, 0, i)), f"h0 index {i}"
            assert agree(h1, hankel_det(fb, 1, i)), f"h1 index {i}"


def test_criterion_05_hex_three_routes():
    with criterion(5, "hex: recursion = determinants = closed form; dimers = determinants", 120.0):
        ring = SeriesRing(2, 10)
        ladder = ladder_solve(HEX, ring)
        b, w = ladder.tail_black, ladder.tail_white
        fb = f_sequence(9, HEX, b, w, color="black")
        fw = f_sequence(9, HEX, b, w, color="white")
        extracted = cf_extract(hankel_family(fb, fw, 2), 4)
        closed = hex_ladder_closed(hex_params(b, w), 4)
        ladders_agree(ladder, extracted, 4, "recursion-vs-determinant")
        ladders_agree(ladder, closed, 4, "recursion-vs-closed")
        coeffs = alpha_coeffs(HEX, b, w)
        for i in range(4):
            h0, h1 = lgv_hex(i, b, w, coeffs)
            assert agree(h0, hankel_det(fb, 0, i)), f"h0 index {i}"
            assert agree(h1, hankel_det(fb, 1, i)), f"h1 index {i}"


def test_criterion_06_general_family_routes():
    with criterion(6, "degree-8 faces (p = 3): recursion = determinant extraction"):
        ring = SeriesRing(2, 8)
        g = FaceWeights((rat(0), rat(0), rat(0), rat(1)))
        ladder = ladder_solve(g, ring)
        extracted = determinant_ladder(g, ring, 4)
        ladders_agree(ladder, extracted, 4, "general-p3")


def test_criterion_07_conserved_quantities():
    with criterion(7, "conserved quantities independent of offset and equal to direct"):
        ring = SeriesRing(2, 8)
        for g in (QUAD, HEX):
            ladder = ladder_solve(g, ring)
            b, w = ladder.tail_black, ladder.tail_white
            for n in (1, 2, 3):
                values = [conserved(n, d, ladder, g) for d in range(5)]
                for d in range(1, 5):
                    assert agree(values[d], values[0]), (g.g, n, d)
                direct = f_sequence(n, g, b, w)[n]
                assert agree(direct, values[0]), (g.g, n)


def test_criterion_08_symmetries():
    with criterion(8, "color-exchange and collapse symmetries"):
        ring = SeriesRing(2, 8)
        tb, tw = ring.gens()
        for g in (QUAD, HEX):
            ladder = ladder_solve(g, ring)
            b, w = ladder.tail_black, ladder.tail_white
            assert tw * ladder.black_weight(1) == tb * ladder.white_weight(1)
            fb = f_sequence(4, g, b, w, color="black")
            fw = f_sequence(4, g, b, w, color="white")
            for n in range(1, 5):
                assert agree(tb * fb[n], tw * fw[n]), (g.g, n)
            for i in range(1, 7):
                assert ladder.black_weight(i).swap_vars() == ladder.white_weight(i), i
                collapsed_b = ladder.black_weight(i).collapse_vars()
                collapsed_w = ladder.white_weight(i).collapse_vars()
                assert collapsed_b == collapsed_w, i


def test_criterion_09_dimers():
    with criterion(9, "hard dimers: transfer = brute force; closed forms at rational points", 5.0):
        for links in range(13):
            for ends in ("bb", "ww") if links % 2 == 0 else ("bw", "wb"):
                spec = SegmentSpec(links, ends)
                assert zhd(spec) == zhd_brute(spec), spec
        points = [
            (rat(1), rat(1, 3)),  # uncolored collapse included
            (rat(2), rat(1, 3)),
            (rat(5, 2), rat(1, 7)),
            (rat(1, 3), rat(2, 5)),
            (rat(7, 5), rat(5, 11)),
        ]
        for c, x in points:
            for links in range(11):
                for ends in ("bb", "ww") if links % 2 == 0 else ("bw", "wb"):
                    # the check also enforces invariance under x -> 1/x
                    assert zhd_closed_check(SegmentSpec(links, ends), c, x), (c, x, links)


def test_criterion_10_reflection_identities():
    with criterion(10, "reflection identities via brute-force constrained paths"):
        points = [
            RatPathWeights(rat(2), rat(3)),
            RatPathWeights(rat(1, 2), rat(5, 3)),
            RatPathWeights(rat(7, 4), rat(1, 7)),
            RatPathWeights(rat(3, 5), rat(4, 3)),
            RatPathWeights(rat(9, 2), rat(2, 11)),
        ]
        for wt in points:
            for k, l in product(range(1, 4), repeat=2):
                for q in range(6):
                    assert check_reflection_odd(k, l, q, wt, brute=True), (k, l, q)
            for k, l in product(range(4), repeat=2):
                for q in range(6):
                    assert check_reflection_even(k, l, q, wt, brute=True), (k, l, q)


def test_criterion_11_extensions():
    with criterion(11, "ternary/binary/tricolor systems: closed = perturbative", 120.0):
        ring = SeriesRing(2, 8)
        ternary = ternary_solve(ring)
        assert ternary.black_weight(1) == one(2, 8)
        assert ternary.white_weight(1) == one(2, 8)
        closed = ternary_closed_ladder(ternary, 6)
        for i in range(1, 7):
            assert agree(closed.black_weight(i), ternary.black_weight(i)), i
            assert agree(closed.white_weight(i), ternary.white_weight(i)), i
        binary = binary_solve(ring)
        assert binary.black_weight(1) == one(2, 8)
        assert binary.white_weight(1) == one(2, 8)
        closed = binary_closed_ladder(binary, 6)
        for i in range(1, 7):
            assert agree(closed.black_weight(i), binary.black_weight(i)), i
            assert agree(closed.white_weight(i), binary.white_weight(i)), i
        state = tricolor_solve(SeriesRing(3, 6))
        for i in (0, 1, 2):
            closed = tricolor_closed_t(state, i)
            assert agree(closed, state.t_at(3 * i)), i
        for i in range(1, state.height + 1):
            assert rotate_colors(state.t_at(i)) == state.u_at(i), i
            assert rotate_colors(state.u_at(i)) == state.v_at(i), i
        deep = tricolor_solve(SeriesRing(3, 8))
        assert agree(tricolor_characteristic_residual(deep), zero(3, 8))


def test_criterion_12_cli_determinism_and_verify():
    with criterion(12, "CLI determinism and full verification suite", 300.0):
        base = [sys.executable, "-m", "bicmaps.cli"]
        args = base + ["twopoint", "--family", "hex", "--order", "6", "--seed", "5"]
        first = subprocess.run(args, capture_output=True, check=True)
        second = subprocess.run(args, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout
        verify = subprocess.run(
            base + ["verify", "--suite", "all", "--order", "6"], capture_output=True
        )
        assert verify.returncode == 0, verify.stdout.decode()[-2000:]

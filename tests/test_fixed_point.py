"""The graded fixed-point engine, integer coefficients, and order stability."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps import extensions, slices
from bicmaps.extensions import binary_solve, ternary_solve, tricolor_solve
from bicmaps.paths import WeightLadder, ladder_entry, ladder_tails, solve_ladder, z_plus
from bicmaps.rational import rat
from bicmaps.series import (
    MSeries,
    SeriesRing,
    agree,
    fixed_point,
    inv_unit,
    solve_quadratic_branch,
    variable,
)
from bicmaps.slices import ConvergenceError, FaceWeights, ladder_solve, tail_solve

from helpers import S, assert_series, assert_stable
from printed import MIXED_HALF_B, MIXED_THIRD_B

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()
MIXED = FaceWeights((rat(1, 2), rat(1)))
THIRD = FaceWeights((rat(1, 3), rat(1)))

R = SeriesRing(2, 5)
tb, tw = R.gens()


def all_coefficients(*series):
    return [c for f in series for c in f.coeffs.values()]


# -- the engine ----------------------------------------------------------------


def test_fixed_point_grades_the_sweeps():
    seen = []

    def catalan(f, degree):
        seen.append((f.order, f.reliable, degree))
        return 1 + tb * f * f

    f = fixed_point(catalan, R.zero(), R.order, ConvergenceError("no"))
    assert_series(f, S(2, 5, {(k, 0): c for k, c in enumerate((1, 1, 2, 5, 14, 42))}))
    # sweep k sees the state cut to degree k and is told k; the stability
    # sweep sees the full state and is told None
    assert seen == [(k, k, k) for k in range(R.order + 1)] + [(R.order, R.order, None)]


def test_fixed_point_raises_the_given_error_without_contraction():
    error = ConvergenceError("the step does not gain a degree")
    with pytest.raises(ConvergenceError) as exc:
        fixed_point(lambda f, _: f + 1, R.zero(), R.order, error)
    assert exc.value is error


# -- the ladder sweep --------------------------------------------------------------


def test_solve_ladder_sweeps_only_the_rows_a_degree_reaches():
    # F_i = 1 + tb * F_{i-1} * F_{i+1}, F_0 = 0, tail the Catalan series
    tail = fixed_point(lambda f, _: 1 + tb * f * f, R.one(), R.order, ConvergenceError("no"))
    height = R.order + 2
    evaluated = []

    def rows(entries, tails):
        at = partial(ladder_entry, entries[0], tails[0])
        evaluated.append(0)

        def row(i):
            evaluated[-1] += 1
            return 1 + tb * at(i - 1) * at(i + 1)

        return (row,)

    (entries,), tails = solve_ladder(rows, lambda f: (f,), 2, R, ConvergenceError("no"))
    # the tail sweeps evaluate row 2 once each; then sweep d evaluates rows
    # 1..d and the stability sweep evaluates every row
    assert evaluated == [1] * (R.order + 2) + list(range(R.order + 1)) + [height]
    assert tails == (tail,)
    assert entries[0] == R.one()
    for i in range(2, height + 1):
        assert agree(entries[i - 1], tail, through=i - 1)


@pytest.fixture
def strip_calls(monkeypatch):
    """The argument tuples of every ``strip_sum`` call the slice solvers
    make: one per row evaluated."""
    calls = []
    real = slices.strip_sum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(slices, "strip_sum", counting)
    return calls


def test_ladder_solve_evaluates_only_reachable_rows(strip_calls):
    calls = strip_calls
    ladder_solve(QUAD, SeriesRing(2, 12))
    # height 14, one strip sum per row: the 13 graded tail sweeps evaluate
    # the black row 2, sweeps of degree 0..12 evaluate black rows 1..d, and
    # the two stability sweeps evaluate row 2 and all 14 rows of both colors
    assert len(calls) == 13 + sum(range(13)) + 2 * (1 + 14) == 121


def test_tail_solve_solves_no_entries(strip_calls):
    calls = strip_calls
    tail_solve(QUAD, SeriesRing(2, 12))
    # only row 2 of the ladder with no entries: black in the 13 graded
    # sweeps, both colors in the stability sweep
    assert {args[1] for args in calls} == {2}
    assert len(calls) == 13 + 2


@pytest.mark.parametrize("asked", [0, 1, 9, 10, 15])
def test_solvers_raise_the_height_to_order_plus_far(asked):
    # far is p + 1 for the slice recursion and 2 for the other systems
    assert ladder_solve(QUAD, SeriesRing(2, 8), height=asked).height == max(asked, 10)
    assert ladder_solve(HEX, SeriesRing(2, 8), height=asked).height == max(asked, 11)
    assert ternary_solve(SeriesRing(2, 8), height=asked).height == max(asked, 10)
    assert binary_solve(SeriesRing(2, 8), height=asked).height == max(asked, 10)
    assert tricolor_solve(SeriesRing(3, 3), height=asked).height == max(asked, 5)


SYSTEMS = [
    (lambda: ladder_solve(QUAD, SeriesRing(2, 4)), slices, "slice recursion"),
    (lambda: ladder_solve(MIXED, SeriesRing(2, 4)), slices, "slice recursion"),
    (lambda: ternary_solve(SeriesRing(2, 4)), extensions, "ternary ladder"),
    (lambda: binary_solve(SeriesRing(2, 4)), extensions, "binary ladder"),
    (lambda: tricolor_solve(SeriesRing(3, 4)), extensions, "tricolor ladder"),
]
SYSTEM_IDS = ["quad", "mixed", "ternary", "binary", "tricolor"]


@pytest.mark.parametrize("solve, module, message", SYSTEMS, ids=SYSTEM_IDS)
def test_graded_sweeps_evaluate_family_zero_only(monkeypatch, solve, module, message):
    # one count per family and sweep: the tails' sweeps, then the entries'
    sweeps = []
    heights = []

    def counted(rows, mirror, far, ring, error, height=0):
        def counting(entries, tails):
            row = rows(entries, tails)
            counts = [0] * len(row)
            sweeps.append(counts)

            def family(f, i):
                counts[f] += 1
                return row[f](i)

            return tuple(partial(family, f) for f in range(len(row)))

        entries, tails = solve_ladder(counting, mirror, far, ring, error, height)
        heights.append(len(entries[0]))
        return entries, tails

    monkeypatch.setattr(module, "solve_ladder", counted)
    solve()
    order, (height,) = 4, heights
    families = len(sweeps[0])
    rest = [0] * (families - 1)
    graded_tails = [[1] + rest] * (order + 1)
    graded_entries = [[min(height, d)] + rest for d in range(order + 1)]
    assert sweeps == (
        graded_tails + [[1] * families] + graded_entries + [[height] * families]
    )


@pytest.mark.parametrize("wrong", ["identity", "top-degree"])
@pytest.mark.parametrize("solve, module, message", SYSTEMS, ids=SYSTEM_IDS)
def test_stability_sweep_rejects_a_wrong_symmetry(monkeypatch, solve, module, message, wrong):
    # the graded sweeps take every family but the first from the symmetry,
    # so only the stability sweep, which evaluates every family, can see a
    # symmetry that does not map the fixed point onto itself
    def mistaken(rows, mirror, far, ring, error, height=0):
        bump = variable(ring.num_vars, ring.order, 0) ** ring.order

        def wrong_mirror(x):
            if wrong == "identity":
                return (x,) * len(mirror(x))
            return tuple(v + bump if f else v for f, v in enumerate(mirror(x)))

        return solve_ladder(rows, wrong_mirror, far, ring, error, height)

    monkeypatch.setattr(module, "solve_ladder", mistaken)
    with pytest.raises(ConvergenceError, match=message):
        solve()


@pytest.mark.parametrize("solve, module, message", SYSTEMS, ids=SYSTEM_IDS)
def test_stability_sweep_rejects_a_fill_wrong_at_the_top_degree(
    monkeypatch, solve, module, message
):
    # tails off by tb^order and its mirror images (the bare ladder's rows
    # are off by them): every row the sweeps fill is wrong at the top degree
    # only, and only the full-height stability sweep can see it
    def perturbed(rows, mirror, far, ring, error, height=0):
        bumps = mirror(variable(ring.num_vars, ring.order, 0) ** ring.order)

        def bumped(entries, tails):
            row = rows(entries, tails)
            if entries[0]:
                return row
            return tuple(partial(lambda r, b, i: r(i) + b, r, b) for r, b in zip(row, bumps))

        ladder_tails(bumped, mirror, far, ring, error)  # the tails still solve
        return solve_ladder(bumped, mirror, far, ring, error, height)

    monkeypatch.setattr(module, "solve_ladder", perturbed)
    with pytest.raises(ConvergenceError, match=message):
        solve()


# -- the tails: the far row of a ladder with no entries ---------------------------

TAIL_FAMILIES = {
    "quad": QUAD,
    "hex": HEX,
    "1/5,1": FaceWeights((rat(1, 5), rat(1))),
    "0,1/3,2": FaceWeights((rat(0), rat(1, 3), rat(2))),
    "0,0,0,1": FaceWeights((rat(0), rat(0), rat(0), rat(1))),
}


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("name", sorted(TAIL_FAMILIES))
def test_slice_tails_solve_the_tail_equations(name, order):
    # B = (t_black + sum_k g_k Z(2k - 1)) / (1 - g_1), Z the strip sums from
    # k down to k - 1 on the ladder of the tails (B, W), too short to reach
    # the floor 0; W the same
    g = TAIL_FAMILIES[name]
    ring = SeriesRing(2, order)
    b, w = tail_solve(g, ring)
    ladder = ladder_solve(g, ring)
    assert (ladder.tail_black, ladder.tail_white) == (b, w)
    lad = WeightLadder((), (), b, w)
    rb, rw = ring.gens()
    for k in range(2, g.p + 2):
        rb = rb + g.weight(k) * z_plus(k, k - 1, 2 * k - 1, lad, floor=0)
        rw = rw + g.weight(k) * z_plus(
            k, k - 1, 2 * k - 1, lad, floor=0, black_start=False
        )
    assert (1 - g.weight(1)) * b == rb
    assert (1 - g.weight(1)) * w == rw


@pytest.mark.parametrize("order", range(1, 9))
def test_tree_and_tricolor_tails_solve_the_tail_equations(order):
    zb, zw = SeriesRing(2, order).gens()
    ternary = ternary_solve(SeriesRing(2, order))
    p, q = ternary.tail_black, ternary.tail_white
    assert p == 1 + zw * q * p * q
    assert q == 1 + zb * p * q * p
    binary = binary_solve(SeriesRing(2, order))
    r, s = binary.tail_black, binary.tail_white
    assert r == 1 + zb * s * s
    assert s == 1 + zw * r * r
    tb, tw, tg = SeriesRing(3, order).gens()
    tricolor = tricolor_solve(SeriesRing(3, order))
    t, u, v = tricolor.t, tricolor.u, tricolor.v
    assert t == tb + t * (u + v)
    assert u == tw + u * (v + t)
    assert v == tg + v * (t + u)


# -- integer coefficients --------------------------------------------------------


@pytest.mark.parametrize("g", [QUAD, HEX], ids=["quad", "hex"])
def test_integer_families_solve_in_int(g):
    ring = SeriesRing(2, 6)
    b, w = tail_solve(g, ring)
    ladder = ladder_solve(g, ring)
    coeffs = all_coefficients(b, w, *ladder.black, *ladder.white)
    assert coeffs and all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("c0", [1, -1])
def test_inv_unit_of_integer_unit_stays_int(c0):
    u = c0 + 3 * tb - 2 * tb * tw + tw * tw
    inverse = inv_unit(u)
    assert u * inverse == R.one()
    assert all(type(c) is int for c in all_coefficients(inverse))


def test_inv_unit_of_non_monic_unit_is_fractional():
    inverse = inv_unit(2 + tb)
    assert inverse.constant_term() == rat(1, 2)
    assert type(inverse.constant_term()) is not int


def test_mixed_families_match_recorded_tails():
    half, _ = tail_solve(MIXED, SeriesRing(2, 4))
    assert_series(half, S(2, 4, MIXED_HALF_B), label="g1 = 1/2 tail")
    assert all(type(c) is int for c in all_coefficients(half))  # sweep scale 2
    third, _ = tail_solve(THIRD, SeriesRing(2, 3))
    assert_series(third, S(2, 3, MIXED_THIRD_B), label="g1 = 1/3 tail")
    assert all(c.denominator > 1 for c in all_coefficients(third))


# -- metamorphic: raising the order never changes a reliable coefficient --------

families = st.sampled_from(
    [QUAD, HEX, MIXED, THIRD, FaceWeights((rat(0), rat(-1, 2), rat(1)))]
)


@settings(max_examples=12, deadline=None)
@given(families, st.integers(1, 4), st.integers(1, 3))
def test_slice_solvers_stable_under_higher_order(g, n, k):
    low = ladder_solve(g, SeriesRing(2, n))
    high = ladder_solve(g, SeriesRing(2, n + k))
    assert_stable(low.tail_black, high.tail_black, n)
    assert_stable(low.tail_white, high.tail_white, n)
    for i in range(1, low.height + 1):
        assert_stable(low.black_weight(i), high.black_weight(i), n)
        assert_stable(low.white_weight(i), high.white_weight(i), n)
    tail = tail_solve(g, SeriesRing(2, n + k))
    assert (high.tail_black, high.tail_white) == tail


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small, max_size=5
)


@settings(max_examples=30, deadline=None)
@given(
    poly_terms, poly_terms, poly_terms, small.filter(bool), st.integers(1, 5), st.integers(1, 3)
)
def test_quadratic_branch_stable_under_higher_order(t2, t1, t0, c1, n, k):
    def coefficients(order):
        a1 = MSeries(2, order, {**t1, (0, 0): c1})
        a0 = MSeries(2, order, {e: c for e, c in t0.items() if e != (0, 0)})
        return MSeries(2, order, t2), a1, a0

    low = solve_quadratic_branch(*coefficients(n))
    high = solve_quadratic_branch(*coefficients(n + k))
    assert_stable(low, high, n)
    a2, a1, a0 = coefficients(n + k)
    assert a2 * high * high + a1 * high + a0 == SeriesRing(2, n + k).zero()


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2))
def test_tricolor_stable_under_higher_order(n, k):
    low = tricolor_solve(SeriesRing(3, n))
    high = tricolor_solve(SeriesRing(3, n + k))
    for name in ("t", "u", "v", "y", "d", "e", "a_hat"):
        assert_stable(getattr(low, name), getattr(high, name), n)
    for i in range(1, low.height + 1):
        for at in ("t_at", "u_at", "v_at"):
            assert_stable(getattr(low, at)(i), getattr(high, at)(i), n)

"""The graded fixed-point engine, integer coefficients, and order stability."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps import cli, extensions, slices
from bicmaps.extensions import binary_solve, ternary_solve, tricolor_solve
from bicmaps.paths import WeightLadder, ladder_entry, solve_ladder, z_plus
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

from helpers import S, assert_series, assert_stable, drawn_face_weights
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
    # sweep k < order sees the state cut to degree k and is told k; the
    # stability sweep, the last, sees that state extended to the order and
    # is told None
    assert seen == [(k, k, k) for k in range(R.order)] + [(R.order, R.order, None)]


def test_fixed_point_at_order_zero_runs_the_stability_sweep_alone():
    seen = []

    def catalan(f, degree):
        seen.append((f.order, degree))
        return 1 + tb * f * f

    ring = SeriesRing(2, 0)
    assert fixed_point(catalan, ring.zero(), 0, ConvergenceError("no")) == ring.one()
    assert seen == [(0, None)]


def test_fixed_point_raises_the_given_error_without_contraction():
    error = ConvergenceError("the step does not gain a degree")
    with pytest.raises(ConvergenceError) as exc:
        fixed_point(lambda f, _: f + 1, R.zero(), R.order, error)
    assert exc.value is error


# -- the ladder sweep --------------------------------------------------------------


def catalan_ladder():
    """The rows of F_i = 1 + tb * F_{i-1} * F_{i+1}, F_0 = 0, whose tail is
    the Catalan series, and the list of rows each ladder read evaluates."""
    evaluated = []

    def rows(entries, tails):
        at = partial(ladder_entry, entries[0], tails[0])
        read = []
        evaluated.append(read)

        def row(i):
            read.append(i)
            return 1 + tb * at(i - 1) * at(i + 1)

        return (row,)

    return rows, evaluated


def test_solve_ladder_sweeps_only_the_rows_a_degree_reaches():
    tail = fixed_point(lambda f, _: 1 + tb * f * f, R.one(), R.order, ConvergenceError("no"))
    height = R.order + 2
    rows, evaluated = catalan_ladder()
    (entries,), tails = solve_ladder(rows, lambda f: (f,), 2, R, ConvergenceError("no"))
    # sweep d = 0..4 evaluates the tail row 2 of the ladder with no entries,
    # then rows 1..d on the tails it just solved; the stability sweep
    # evaluates row 2 and every row
    graded = [read for d in range(R.order) for read in ([2], list(range(1, d + 1)))]
    assert evaluated == graded + [[2], list(range(1, height + 1))]
    assert tails == (tail,)
    assert entries[0] == R.one()
    for i in range(2, height + 1):
        assert agree(entries[i - 1], tail, through=i - 1)


def test_solve_ladder_stops_the_rows_above_the_height_at_their_degree():
    # entry 1 is solved on max(1, ceil(5 / 2)) = 3 rows, and row k > 1 needs
    # only degrees through 5 + 1 - k: sweep 4 keeps row 3 as it is, and the
    # stability sweep evaluates rows 2 and 3 on ladders cut to degrees 4 and 3
    rows, evaluated = catalan_ladder()
    (entries,), _ = solve_ladder(rows, lambda f: (f,), 2, R, ConvergenceError("no"), 1)
    graded = [[2], [], [2], [1], [2], [1, 2], [2], [1, 2, 3], [2], [1, 2]]
    assert evaluated == graded + [[2], [1], [2], [3]]
    (full,), _ = solve_ladder(rows, lambda f: (f,), 2, R, ConvergenceError("no"))
    assert stored(entries[0]) == stored(full[0])


@pytest.fixture
def strip_calls(monkeypatch):
    """The argument tuples of every ``strip_sum`` call the slice solvers
    make: one per row evaluated."""
    calls = []
    real = slices.strip_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(slices, "strip_sum", counting)
    return calls


def test_ladder_solve_evaluates_only_reachable_rows(strip_calls):
    calls = strip_calls
    ladder_solve(QUAD, SeriesRing(2, 12))
    # height 14, one strip sum per row: the sweep of degree d = 0..11
    # evaluates the black row 2 of the ladder with no entries and black rows
    # 1..d, and the stability sweep row 2 and all 14 rows of both colors
    assert len(calls) == 12 + sum(range(12)) + 2 * (1 + 14) == 108


def test_twopoint_solves_only_the_rows_it_reads(strip_calls, capsys):
    calls = strip_calls
    cli.main(["twopoint", "--family", "quad", "--order", "12", "--i-max", "6"])
    capsys.readouterr()
    # entries 1..6 are read, so the ladder is solved on max(6, ceil(17 / 2))
    # = 9 rows, not 14, and row k > 6 needs only degrees through 18 - k:
    # sweep d = 0..11 evaluates black rows 1..min(9, d, 18 - d) and the
    # stability sweep all 9 rows of both colors
    graded = sum(min(9, d, 18 - d) for d in range(12))
    assert len(calls) == 12 + graded + 2 * (1 + 9) == 92


def test_tail_solve_solves_no_entries(strip_calls):
    calls = strip_calls
    tail_solve(QUAD, SeriesRing(2, 12))
    # only row 2 of the ladder with no entries: black in the 12 graded
    # sweeps, both colors in the stability sweep
    assert {args[0] for args in calls} == {2}
    assert len(calls) == 12 + 2


def test_height_zero_solves_only_the_tails(strip_calls):
    ring = SeriesRing(2, 12)
    bare = ladder_solve(QUAD, ring, height=0)
    assert bare.height == 0
    assert (bare.tail_black, bare.tail_white) == tail_solve(QUAD, ring)
    # row 2 only, 12 + 2 times for each of the two solves
    assert {args[0] for args in strip_calls} == {2}
    assert len(strip_calls) == 2 * (12 + 2)


def tails(solved):
    if isinstance(solved, WeightLadder):
        return solved.tail_black, solved.tail_white
    return solved.t, solved.u, solved.v


# (solve, ring, far): far is p + 1 for the slice recursion and 2 for the
# other systems
HEIGHT_SYSTEMS = {
    "quad": (partial(ladder_solve, QUAD), SeriesRing(2, 8), 2),
    "hex": (partial(ladder_solve, HEX), SeriesRing(2, 8), 3),
    "ternary": (ternary_solve, SeriesRing(2, 8), 2),
    "binary": (binary_solve, SeriesRing(2, 8), 2),
    "tricolor": (tricolor_solve, SeriesRing(3, 3), 2),
}


@pytest.mark.parametrize("name", HEIGHT_SYSTEMS)
def test_solvers_return_the_height_asked_for(name):
    # the default is order + far entries; height h gives exactly h entries,
    # h = 0 the tails alone, and a negative h is refused
    solve, ring, far = HEIGHT_SYSTEMS[name]
    full = solve(ring)
    assert full.height == ring.order + far
    for asked in (1, 4, 9, 10, 15):
        assert solve(ring, height=asked).height == asked
    bare = solve(ring, height=0)
    assert bare.height == 0
    assert tails(bare) == tails(full)
    with pytest.raises(ValueError, match="non-negative"):
        solve(ring, height=-1)


def stored(f):
    return f.nums, f.den, f.reliable


def ladder_entries(ladder, i):
    return ladder.black_weight(i), ladder.white_weight(i)


def tricolor_entries(state, i):
    return state.t_at(i), state.u_at(i), state.v_at(i)


def slice_solver(*g):
    return partial(ladder_solve, FaceWeights(tuple(map(rat, g))))


# (solve, number of variables, orders, entries at an index) of every ladder
# system; costlier systems run at fewer orders
CUT_SYSTEMS = {
    "quad": (slice_solver(0, 1), 2, (4, 12, 15), ladder_entries),
    "hex": (slice_solver(0, 0, 1), 2, (5, 9), ladder_entries),
    "oct": (slice_solver(0, 0, 0, 1), 2, (5, 8), ladder_entries),
    "1/5,1": (slice_solver("1/5", 1), 2, (5, 11), ladder_entries),
    "0,1/3,2": (slice_solver(0, "1/3", 2), 2, (3, 7), ladder_entries),
    "0,2": (slice_solver(0, 2), 2, (7, 12), ladder_entries),
    "0,0,0,0,1": (slice_solver(0, 0, 0, 0, 1), 2, (3, 6), ladder_entries),
    "ternary": (ternary_solve, 2, (6, 12), ladder_entries),
    "binary": (binary_solve, 2, (5, 15), ladder_entries),
    "tricolor": (tricolor_solve, 3, (3, 6), tricolor_entries),
}


@pytest.mark.parametrize("name", CUT_SYSTEMS)
def test_cut_ladder_keeps_every_entry_it_reads(name):
    # height h returns entries 1..h, solved on max(h, ceil((order + h - 1)
    # / 2)) rows, and every entry returned must equal the full-height
    # solve's in nums, den and reliable
    solve, num_vars, orders, entries = CUT_SYSTEMS[name]
    for order in orders:
        ring = SeriesRing(num_vars, order)
        full = solve(ring)
        for height in range(1, 10):
            cut = solve(ring, height=height)
            assert cut.height == height
            for i in range(1, height + 1):
                for a, b in zip(entries(cut, i), entries(full, i)):
                    assert stored(a) == stored(b), (order, height, i)


@settings(max_examples=25, deadline=None)
@given(drawn_face_weights(), st.data())
def test_cut_ladder_keeps_every_entry_over_random_face_weights(g, data):
    # the per-row cut over face weights beyond the named systems, g_1 != 0
    # among them: every entry returned equals the full-height solve's
    order = data.draw(st.integers(3, 9), label="order")
    height = data.draw(st.integers(1, order), label="height")
    ring = SeriesRing(2, order)
    full = ladder_solve(g, ring)
    cut = ladder_solve(g, ring, height=height)
    assert cut.height == height
    for i in range(1, height + 1):
        for a, b in zip(ladder_entries(cut, i), ladder_entries(full, i)):
            assert stored(a) == stored(b), (g.g, order, height, i)


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
    # one count per family and ladder read: each sweep reads the ladder
    # with no entries for the tail row, then the solved rows
    sweeps = []
    heights = []

    def counted(rows, mirror, far, ring, error, height=None):
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
    graded = [c for d in range(order) for c in ([1] + rest, [min(height, d)] + rest)]
    assert sweeps == graded + [[1] * families, [height] * families]


def bumped_mirror(mirror, ring, degree):
    """``mirror`` with every family but the first off by tb^degree."""
    bump = variable(ring.num_vars, ring.order, 0) ** degree
    return lambda x: tuple(v + bump if f else v for f, v in enumerate(mirror(x)))


def bumped_tails(rows, mirror, ring, degree):
    """``rows`` with the rows of the ladder with no entries, the tail rows,
    off by tb^degree and its mirror images."""
    bumps = mirror(variable(ring.num_vars, ring.order, 0) ** degree)

    def bumped(entries, tails):
        row = rows(entries, tails)
        if entries[0]:
            return row
        return tuple(partial(lambda r, b, i: r(i) + b, r, b) for r, b in zip(row, bumps))

    return bumped


@pytest.mark.parametrize("wrong", ["identity", "top-degree"])
@pytest.mark.parametrize("solve, module, message", SYSTEMS, ids=SYSTEM_IDS)
def test_stability_sweep_rejects_a_wrong_symmetry(monkeypatch, solve, module, message, wrong):
    # the graded sweeps take every family but the first from the symmetry,
    # so only the stability sweep, which evaluates every family, can see a
    # symmetry that does not map the fixed point onto itself, down to one
    # wrong only at order - 1, the top degree the graded sweeps solve
    def mistaken(rows, mirror, far, ring, error, height=None):
        def identity(x):
            return (x,) * len(mirror(x))

        if wrong == "identity":
            return solve_ladder(rows, identity, far, ring, error, height)
        wrong_mirror = bumped_mirror(mirror, ring, ring.order - 1)
        return solve_ladder(rows, wrong_mirror, far, ring, error, height)

    monkeypatch.setattr(module, "solve_ladder", mistaken)
    with pytest.raises(ConvergenceError, match=message):
        solve()


@pytest.mark.parametrize("solve, module, message", SYSTEMS, ids=SYSTEM_IDS)
def test_stability_sweep_rejects_a_fill_wrong_at_the_top_degree(
    monkeypatch, solve, module, message
):
    # tails off by tb^(order - 1) and its mirror images (the bare ladder's
    # rows are off by them): every row the sweeps fill is wrong at order - 1
    # only, the top degree the graded sweeps solve, and only the full-height
    # stability sweep can see it
    def perturbed(rows, mirror, far, ring, error, height=None):
        bumped = bumped_tails(rows, mirror, ring, ring.order - 1)
        solve_ladder(bumped, mirror, far, ring, error, 0)  # the tails still solve
        return solve_ladder(bumped, mirror, far, ring, error, height)

    monkeypatch.setattr(module, "solve_ladder", perturbed)
    with pytest.raises(ConvergenceError, match=message):
        solve()


@pytest.mark.parametrize("fault", ["symmetry", "fill"])
@pytest.mark.parametrize("solve, module, message", SYSTEMS, ids=SYSTEM_IDS)
def test_faults_at_the_order_itself_never_reach_the_entries(
    monkeypatch, solve, module, message, fault
):
    # the faults above, moved to degree order: the graded sweeps stop at
    # order - 1 and the stability sweep evaluates every row by its own rule,
    # so the returned entries equal the unperturbed solve's
    expected = solve()

    def perturbed(rows, mirror, far, ring, error, height=None):
        if fault == "symmetry":
            mirror = bumped_mirror(mirror, ring, ring.order)
        else:
            rows = bumped_tails(rows, mirror, ring, ring.order)
        return solve_ladder(rows, mirror, far, ring, error, height)

    monkeypatch.setattr(module, "solve_ladder", perturbed)
    solved = solve()
    entries = ladder_entries if isinstance(solved, WeightLadder) else tricolor_entries
    assert solved.height == expected.height
    for i in range(1, solved.height + 1):
        for a, b in zip(entries(solved, i), entries(expected, i), strict=True):
            assert stored(a) == stored(b), i


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

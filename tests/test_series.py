"""Core series ring: arithmetic, inversion, division, roots, bookkeeping."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicmaps.series as series_module
from bicmaps.rational import rat
from bicmaps.series import (
    DivisibilityError,
    MSeries,
    NoSeriesRootError,
    NotASquareError,
    NotAUnitError,
    SeriesRing,
    VariableMismatchError,
    agree,
    constant,
    exact_div,
    first_difference,
    fixed_point,
    inv_unit,
    one,
    solve_quadratic_branch,
    sqrt_unit,
    valuation_split,
    variable,
    zero,
)

from helpers import S, assert_stable, substitute

R = SeriesRing(2, 4)
tb, tw = R.gens()


def test_mul_basic():
    f = (1 + tb) * (1 + tw)
    assert f == S(2, 4, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_mul_by_zero_preserves_reliable():
    f = (1 + tb).with_reliable(3)
    z = f * R.zero()
    assert z.is_zero()
    assert z.reliable == 3


def test_truncation_by_total_degree():
    f = (tb + tw).truncate(1)
    assert (f * f).is_zero()  # every degree-2 term falls beyond order 1


def test_add_symmetry_and_cancellation():
    f = tb + tw
    assert f - f == R.zero()
    assert (f + 1) - 1 == f


def test_variable_mismatch_raises():
    with pytest.raises(VariableMismatchError):
        tb + variable(3, 4, 0)


def test_inv_unit_geometric():
    f = inv_unit(one(2, 3) - variable(2, 3, 0))
    assert f == S(2, 3, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})


def test_inv_unit_two_vars():
    f = inv_unit(one(2, 2) + variable(2, 2, 0) + variable(2, 2, 1))
    assert f == S(
        2, 2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    )


def test_inv_unit_rejects_non_unit():
    with pytest.raises(NotAUnitError):
        inv_unit(tb)


def test_inv_unit_roundtrip():
    f = 1 + 2 * tb - tw + 3 * tb * tw + tw ** 2
    assert f * inv_unit(f) == R.one()


def test_exact_div_monomial():
    f = tb * tw + tb ** 2 * tw
    assert exact_div(f, tb) == tw + tb * tw


def test_exact_div_detects_non_divisible():
    with pytest.raises(DivisibilityError):
        exact_div(tb + tw, tb)


def test_exact_div_reliable_drop():
    g = tb * (1 + tw)  # valuation 1
    f = g * (1 + tb + tw)
    q = exact_div(f, g)
    assert q.reliable == 3  # order 4 minus valuation 1
    assert q == 1 + tb + tw


def test_exact_div_roundtrip_up_to_reliable():
    g = tb ** 2 * (2 + tw)
    f = g * (3 + tb - tw ** 2)
    q = exact_div(f, g)
    assert agree(q * g, f)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(tb, R.zero())


def test_exact_div_ignores_garbage_beyond_reliable():
    # a non-divisible term above the reliable bound is unknowable anyway and
    # must be dropped silently, not raised on
    f = (tb * tw + tw ** 3).with_reliable(2)
    q = exact_div(f, tb)
    assert q == tw
    assert q.reliable == 1
    with pytest.raises(DivisibilityError):
        exact_div(tb * tw + tw ** 3, tb)  # fully reliable: now it is an error


def test_exact_div_vacuous_quotient_convention():
    # divisor valuation eats the whole reliable range: zero series, reliable 0
    f = (tb ** 3).with_reliable(1)
    q = exact_div(f, tb ** 2)
    assert q.is_zero()
    assert q.reliable == 0


def test_mixed_order_operations_take_minimum():
    low = MSeries(2, 2, {(0, 0): 1, (1, 0): 1})
    high = MSeries(2, 5, {(0, 0): 1, (2, 0): 1, (3, 0): 4})
    total = low + high
    assert total.order == 2 and total.reliable == 2
    assert total == S(2, 2, {(0, 0): 2, (1, 0): 1, (2, 0): 1})
    prod = low * high
    assert prod.order == 2
    assert prod == S(2, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1})


def test_str_rendering():
    f = 1 - 3 * tb * tw ** 2 + tb
    assert str(f) == "1 + tb - 3*tb*tw^2"
    assert str(R.zero()) == "0"


def test_valuation_split():
    monomial, unit = valuation_split(tb ** 2 * tw * (5 + tw))
    assert monomial == (2, 1)
    assert unit == 5 + tw
    with pytest.raises(NotAUnitError):
        valuation_split(tb + tw)  # minimal support is not a single monomial


def test_sqrt_unit_trivial_and_perfect_square():
    assert sqrt_unit(R.one()) == R.one()
    assert sqrt_unit((1 + tb) ** 2) == 1 + tb


def test_sqrt_unit_frozen_expansion():
    # Oracle: the square of the result must reproduce 1 - tb; the frozen
    # coefficients below were fixed from that identity.
    f = one(2, 2) - variable(2, 2, 0)
    s = sqrt_unit(f)
    assert s == S(2, 2, {(0, 0): 1, (1, 0): rat(-1, 2), (2, 0): rat(-1, 8)})
    assert s * s == f


def test_sqrt_unit_rejects_non_square():
    with pytest.raises(NotASquareError):
        sqrt_unit(constant(2, 4, 2) + tb)
    with pytest.raises(NotASquareError):
        sqrt_unit(tb)


def test_sqrt_unit_rational_square_constant():
    f = constant(2, 3, rat(9, 4)) + tb
    s = sqrt_unit(f)
    assert s.constant_term() == rat(3, 2)
    assert s * s == f


def test_solve_quadratic_degenerate_linear():
    root = solve_quadratic_branch(R.zero(), -R.one(), tb)
    assert root == tb


def test_solve_quadratic_satisfies_equation():
    a2 = 1 + tw
    a1 = -(2 + tb)
    a0 = tb + 3 * tb * tw
    mu = solve_quadratic_branch(a2, a1, a0)
    assert mu.constant_term() == 0
    assert a2 * mu * mu + a1 * mu + a0 == R.zero()


def test_solve_quadratic_preconditions():
    with pytest.raises(NotAUnitError):
        solve_quadratic_branch(R.one(), tb, tb)
    with pytest.raises(NoSeriesRootError):
        solve_quadratic_branch(R.one(), R.one(), R.one())


def test_first_difference_respects_reliable():
    f = (1 + tb).with_reliable(1)
    g = (1 + tb + tb ** 2).with_reliable(1)
    assert agree(f, g)  # degree-2 mismatch is beyond the reliable bound
    assert first_difference(f, g, through=2) == ((2, 0), 0, 1)


def test_permute_and_collapse():
    f = tb + 2 * tw ** 2
    assert f.swap_vars() == tw + 2 * tb ** 2
    assert f.collapse_vars() == tb + 2 * tb ** 2


def test_substitute_composition():
    f = 1 + tb + tb * tw
    g = substitute(f, [tw, tb])  # swap via substitution
    assert g == 1 + tw + tb * tw
    h = substitute(1 + tb, [tb + tb * tw, tw])
    assert h == 1 + tb + tb * tw


def test_evaluate():
    f = 1 + 2 * tb + 3 * tb * tw ** 2
    assert f.evaluate([rat(1, 2), rat(1, 3)]) == 1 + 1 + rat(3, 18)


def test_pow_matches_repeated_mul():
    f = 1 + tb - tw
    assert f ** 3 == f * f * f
    assert f ** 0 == R.one()


# -- ring laws on random small polynomials ------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)


def polys(num_vars=2, order=4):
    expos = st.tuples(*(st.integers(0, 2) for _ in range(num_vars)))
    return st.dictionaries(expos, coeffs, max_size=6).map(
        lambda d: MSeries(num_vars, order, {e: c for e, c in d.items() if sum(e) <= order})
    )


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_inverse_and_division(f):
    u = f + 1 if f.constant_term() == 0 else f
    if u.constant_term() == 0:  # coefficient happened to cancel; skip
        return
    assert u * inv_unit(u) == one(2, 4)
    g = variable(2, 4, 0) * u
    prod = g * (1 + variable(2, 4, 1))
    assert agree(exact_div(prod, g), 1 + variable(2, 4, 1))


# -- the rational kernel: Fraction coefficients, mixed order and reliable ------

# Fraction(k, 1) is drawn on purpose: it must multiply like the int k.
fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
rationals = st.one_of(st.integers(-4, 4), fractions)
rational_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=8
)


@st.composite
def rational_series(draw):
    order = draw(st.integers(0, 5))
    return MSeries(2, order, draw(rational_terms), draw(st.integers(0, order)))


def model_product(a: dict, b: dict, order: int) -> dict:
    """Reference convolution of two coefficient dicts: every pair of
    terms, then cut to ``order``."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def naive_product(f, g) -> dict:
    """Reference convolution: every pair of terms, in Fraction, then cut."""
    a, b = ({e: Fraction(c) for e, c in h.coeffs.items()} for h in (f, g))
    return model_product(a, b, min(f.order, g.order))


def assert_exact_types(f):
    """Every coefficient is an int when integral and a Fraction otherwise."""
    for c in f.coeffs.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


def assert_naive_product(f, g):
    prod = f * g
    assert prod.coeffs == naive_product(f, g)  # so no zero is stored either
    assert prod.order == min(f.order, g.order)
    assert prod.reliable == min(f.reliable, g.reliable)
    assert_exact_types(prod)


@settings(max_examples=150, deadline=None)
@given(rational_series(), rational_series())
def test_rational_product_matches_naive_convolution(f, g):
    assert_naive_product(f, g)


@st.composite
def series_of_arity(draw, num_vars):
    """Orders up to 6 with exponents up to 6 in each variable, so a term of
    one operand often lies past order + 1 of the product it enters."""
    order = draw(st.integers(0, 6))
    expos = st.tuples(*(st.integers(0, 6) for _ in range(num_vars)))
    terms = draw(st.dictionaries(expos, rationals, max_size=6))
    return MSeries(num_vars, order, terms, draw(st.integers(0, order)))


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_naive_convolution_in_any_arity(num_vars, data):
    f, g = data.draw(series_of_arity(num_vars)), data.draw(series_of_arity(num_vars))
    assert_naive_product(f, g)


def _var(num_vars, order, j, power=1):
    e = [0] * num_vars
    e[j] = power
    return MSeries(num_vars, order, {tuple(e): 1})


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_product_edge_cases_in_any_arity(num_vars):
    x, y = _var(num_vars, 6, 0), _var(num_vars, 6, num_vars - 1)
    half = Fraction(1, 2)
    low = MSeries(num_vars, 2, {(0,) * num_vars: 3}, 1) + _var(num_vars, 2, 0) * half
    cases = [
        # a term past order + 1 of the product, in the operand of higher order
        (_var(num_vars, 6, 0, 5) + 1, low),
        (low, _var(num_vars, 6, num_vars - 1, 6) * half + x),
        # (x + y)(x - y): the cross terms cancel, or all of it when x is y
        (x + y, x - y),
        ((x + 1) * half, (x - 1) * 2),
        # an empty operand and a constant one
        (MSeries(num_vars, 4, {}), x + 1),
        (MSeries(num_vars, 3, {(0,) * num_vars: Fraction(2, 3)}), low + y * half),
        (MSeries(num_vars, 0, {(0,) * num_vars: 2}), x * half + 1),
    ]
    for f, g in cases:
        assert_naive_product(f, g)
        assert_naive_product(g, f)


def test_ring_results_turn_integral_fractions_into_ints():
    f = MSeries(2, 3, {(1, 0): 2, (0, 1): Fraction(1, 2)})
    assert type((f + f).coeffs[(0, 1)]) is int
    assert type((f - (-f)).coeffs[(0, 1)]) is int
    assert type((f * Fraction(1, 2)).coeffs[(1, 0)]) is int
    assert all(type(c) is int for c in (f * Fraction(2, 1)).coeffs.values())
    assert type(MSeries(1, 0, {(0,): Fraction(4, 2)}).coeffs[(0,)]) is int


@settings(max_examples=40, deadline=None)
@given(rational_series(), rational_series(), rationals)
def test_ring_operations_leave_no_integral_fraction(f, g, c):
    for h in (f, f + g, f - g, -f, f + c, c - f, f * c, c * f, f * g):
        assert_exact_types(h)


@settings(max_examples=60, deadline=None)
@given(rational_terms, rational_series(), rationals.filter(bool))
def test_series_keeps_no_reference_to_the_callers_dict(terms, h, extra):
    terms = dict(terms)
    f = MSeries(2, 4, terms)
    before = f * h
    terms[(0, 0)] = terms.get((0, 0), 0) + extra  # f must not see this
    g = MSeries(2, 4, terms)  # same dict, new contents
    assert (g * h).coeffs == naive_product(g, h)
    assert (f * h).coeffs == before.coeffs == naive_product(f, h)
    assert (f.with_reliable(2) * h).coeffs == naive_product(f.with_reliable(2), h)


# -- the stored form: integer numerators over one canonical denominator ---------


def assert_canonical(f):
    """Nonzero int numerators whose gcd with den is 1, and den 1 exactly
    when every coefficient is integral."""
    assert type(f.den) is int and f.den >= 1
    assert all(type(n) is int and n for n in f.nums.values())
    assert gcd(f.den, *f.nums.values()) == 1
    assert (f.den == 1) == all(Fraction(c).denominator == 1 for c in f.coeffs.values())


def model_cut(terms: dict, degree: int) -> dict:
    return {e: c for e, c in terms.items() if sum(e) <= degree}


def model_sum(a: dict, b: dict, sign: int, order: int) -> dict:
    out = dict(model_cut(a, order))
    for e, c in model_cut(b, order).items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


@st.composite
def modelled_series(draw, num_vars):
    """A series and its coefficients as a dict of Fractions, built apart."""
    order = draw(st.integers(0, 5))
    expos = st.tuples(*(st.integers(0, 4) for _ in range(num_vars)))
    terms = draw(st.dictionaries(expos, rationals, max_size=6))
    f = MSeries(num_vars, order, terms, draw(st.integers(0, order)))
    return f, {e: Fraction(c) for e, c in terms.items() if sum(e) <= order and c}


def assert_models(f, terms: dict, order: int, reliable: int):
    assert f.coeffs == terms
    assert (f.order, f.reliable) == (order, reliable)
    assert_exact_types(f)
    assert_canonical(f)


negative_fractions = st.builds(Fraction, st.integers(-7, -1), st.sampled_from([2, 3, 4, 5]))


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_operations_match_fraction_arithmetic(num_vars, data):
    (f, a), (g, b) = data.draw(modelled_series(num_vars)), data.draw(modelled_series(num_vars))
    k = data.draw(st.integers(-3, 3))
    q = data.draw(negative_fractions)
    cut = data.draw(st.integers(0, 6))
    r = data.draw(st.integers(-1, 7))
    order, reliable = min(f.order, g.order), min(f.reliable, g.reliable)
    assert_models(f, a, f.order, f.reliable)
    assert_models(f + g, model_sum(a, b, 1, order), order, reliable)
    assert_models(f - g, model_sum(a, b, -1, order), order, reliable)
    assert_models(-f, {e: -c for e, c in a.items()}, f.order, f.reliable)
    assert_models(f * k, {e: c * k for e, c in a.items() if k}, f.order, f.reliable)
    assert_models(q * f, {e: c * q for e, c in a.items()}, f.order, f.reliable)
    assert_models(f * g, model_product(a, b, order), order, reliable)
    assert_models(f.truncate(cut), model_cut(a, cut), cut, min(f.reliable, cut))
    assert_models(f.with_reliable(r), a, f.order, max(0, min(r, f.order)))
    assert (f == g) == (a == b)
    # full cancellation, by three routes
    for zero in (f - f, f + (-f), f + f * -1):
        assert_models(zero, {}, f.order, f.reliable)
        assert zero == 0 and not zero and zero.den == 1
    diff = first_difference(f, g, order)
    keys = sorted(model_cut(a, order).keys() | model_cut(b, order).keys(), key=lambda e: (sum(e), e))
    want = next(((e, a.get(e, 0), b.get(e, 0)) for e in keys if a.get(e, 0) != b.get(e, 0)), None)
    assert diff == want


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_values_built_by_different_routes_compare_equal(num_vars, data):
    (f, a), (g, _), (h, _) = (data.draw(modelled_series(num_vars)) for _ in range(3))
    half = Fraction(1, 2)
    pairs = [
        (f * half + f * half, f),
        ((f * 3) * Fraction(1, 3), f),
        ((f + g) - g, f.truncate(min(f.order, g.order))),
        ((f + g) * h, f * h + g * h),
        (f - g, -(g - f)),
        (MSeries(num_vars, f.order, {e: Fraction(2 * c.numerator, 2 * c.denominator) for e, c in a.items()}), f),
        (MSeries(num_vars, f.order, {e: int(c) if c.denominator == 1 else c for e, c in a.items()}), f),
    ]
    for x, y in pairs:
        assert x == y
        assert (x.nums, x.den) == (y.nums, y.den)
        assert_canonical(x)


@pytest.mark.parametrize("num_vars", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_structural_operations_on_fractional_series(num_vars, data):
    f, a = data.draw(modelled_series(num_vars))
    point = data.draw(st.lists(rationals, min_size=num_vars, max_size=num_vars))
    swapped = {(e[1], e[0], *e[2:]): c for e, c in a.items()}
    assert_models(f.swap_vars(), swapped, f.order, f.reliable)
    collapsed = {}
    for e, c in a.items():
        ne = (sum(e),) + (0,) * (num_vars - 1)
        collapsed[ne] = collapsed.get(ne, 0) + c
    assert_models(f.collapse_vars(), {e: c for e, c in collapsed.items() if c}, f.order, f.reliable)
    want = sum((c * Fraction(point[0]) ** e[0] * Fraction(point[1]) ** e[1]
                * (Fraction(point[2]) ** e[2] if num_vars == 3 else 1)
                for e, c in a.items()), Fraction(0))
    assert f.evaluate(point) == want
    for e, c in a.items():
        assert f.coefficient(e) == c
    assert f.constant_term() == a.get((0,) * num_vars, 0)
    assert f.valuation() == min(map(sum, a), default=None)


def test_fractional_ring_operations_build_no_rational(monkeypatch):
    # sums and products of fractional series run on the numerators alone:
    # with rat and Fraction arithmetic made to raise, the chain still runs
    fa = {(0, 0): Fraction(1), (1, 0): Fraction(1, 3), (0, 1): Fraction(-2, 5)}
    ga = {(0, 0): Fraction(2), (1, 1): Fraction(1, 7), (0, 1): Fraction(3, 2)}
    f, g = MSeries(2, 7, fa), MSeries(2, 7, ga)
    c, d = Fraction(-3, 4), Fraction(-3, 1)

    def forbidden(*args):
        raise AssertionError("a rational was built")

    with monkeypatch.context() as m:
        m.setattr(series_module, "rat", forbidden)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__"):
            m.setattr(Fraction, name, forbidden)
        p = f
        for _ in range(3):
            p = (p * g - f) * c + p * p
        got = p.truncate(5) - (-g).with_reliable(3) + (f * g) * d
        assert got == got * 1 and got.den > 1

    def scaled(a, k):
        return {e: v * k for e, v in a.items()}

    p = fa
    for _ in range(3):
        p = model_sum(scaled(model_sum(model_product(p, ga, 7), fa, -1, 7), c), model_product(p, p, 7), 1, 7)
    want = model_sum(model_sum(model_cut(p, 5), scaled(ga, -1), -1, 5), scaled(model_product(fa, ga, 7), d), 1, 5)
    assert_models(got, want, 5, 3)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_product_layout_is_sized_by_the_operands_top_degrees(monkeypatch, num_vars):
    # a 10-term by 1-term shift at order 40 walks the cube of side 12 + 1,
    # not 40 + 1: no product term lies above the top degrees added up
    seen = []
    real = series_module._layout
    monkeypatch.setattr(series_module, "_layout", lambda *shape: seen.append(shape) or real(*shape))
    poly = MSeries(num_vars, 40, {(k,) + (0,) * (num_vars - 1): k + 1 for k in range(1, 11)})
    shift = MSeries(num_vars, 40, {(0,) * (num_vars - 1) + (2,): Fraction(1, 3)})
    prod = poly * shift
    assert seen == [(num_vars, 12)]
    assert_models(prod, model_product(dict(poly.coeffs), dict(shift.coeffs), 40), 40, 40)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constant_operand_product_is_the_convolution(num_vars, data):
    # a one-term series at the origin, of any order and reliable bound, only
    # scales the other operand: on either side the product is the
    # convolution, cut to the lower order, with the lower reliable bound,
    # and records its top degree when that is within the order
    f, a = data.draw(modelled_series(num_vars))
    c = data.draw(rationals.filter(bool))
    order = data.draw(st.integers(0, 6))
    origin = (0,) * num_vars
    const = MSeries(num_vars, order, {origin: c}, data.draw(st.integers(0, order)))
    low, reliable = min(f.order, order), min(f.reliable, const.reliable)
    want = model_product(a, {origin: Fraction(c)}, low)
    top = max(map(sum, a), default=None)
    for prod in (f * const, const * f):
        assert_models(prod, want, low, reliable)
        assert recorded_top_holds(prod)
        if top is not None and top <= low:
            assert prod._top == top


# -- metamorphic: raising the order never changes a reliable coefficient --------

units = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3, 5, 7]))
squares = st.builds(lambda p, q: Fraction(p * p, q * q), st.integers(1, 3), st.integers(1, 3))
orders = st.tuples(st.integers(0, 5), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(rational_terms, units, orders, st.data())
def test_inv_unit_stable_under_higher_order(terms, c0, nk, data):
    n, k = nk
    r = data.draw(st.integers(0, n))
    terms = {**terms, (0, 0): c0}
    low = inv_unit(MSeries(2, n, terms, r))
    high = inv_unit(MSeries(2, n + k, terms))
    assert_stable(low, high, r)
    assert low.order == n and high.order == n + k
    assert MSeries(2, n + k, terms) * high == one(2, n + k)


@settings(max_examples=60, deadline=None)
@given(rational_terms, squares, orders, st.data())
def test_sqrt_unit_stable_under_higher_order(terms, c0, nk, data):
    n, k = nk
    r = data.draw(st.integers(0, n))
    terms = {**terms, (0, 0): c0}
    low = sqrt_unit(MSeries(2, n, terms, r))
    high = sqrt_unit(MSeries(2, n + k, terms))
    assert_stable(low, high, r)
    assert high * high == MSeries(2, n + k, terms)


@settings(max_examples=60, deadline=None)
@given(
    rational_terms,
    rational_terms,
    units,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    orders,
    st.data(),
)
def test_exact_div_stable_under_higher_order(quotient, cofactor, c0, mono, nk, data):
    # f = mono * quotient and g = mono * unit, so every coefficient divides
    n, k = nk
    v = sum(mono)
    n = max(n, v)  # below that not even the constant term of f/g is known
    r = data.draw(st.integers(v, n))

    def shifted(terms):
        return {(e[0] + mono[0], e[1] + mono[1]): c for e, c in terms.items()}

    unit = {**cofactor, (0, 0): c0}
    low = exact_div(MSeries(2, n, shifted(quotient), r), MSeries(2, n, shifted(unit)))
    high = exact_div(MSeries(2, n + k, shifted(quotient)), MSeries(2, n + k, shifted(unit)))
    assert_stable(low, high, r - v)
    assert_stable(high, MSeries(2, n + k, quotient) * inv_unit(MSeries(2, n + k, unit)), n + k - v)


def _full_precision_quotient(f, g):
    """exact_div's oracle: f / unit at full order, cut to the reliable bound."""
    mono, unit = valuation_split(g)
    bound = min(f.reliable, g.reliable)
    kept = {e: c for e, c in (f * inv_unit(unit)).coeffs.items() if sum(e) <= bound}
    if any(x < y for e in kept for x, y in zip(e, mono)):
        return DivisibilityError
    shifted = {tuple(x - y for x, y in zip(e, mono)): c for e, c in kept.items()}
    return MSeries(2, min(f.order, g.order), shifted, bound - sum(mono))


@settings(max_examples=100, deadline=None)
@given(
    rational_terms.filter(any),
    rational_terms,
    units,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.data(),
)
def test_exact_div_equals_the_full_precision_quotient(fterms, cofactor, c0, mono, fshift, data):
    # f's terms are shifted by fshift, so f is divisible by mono when
    # fshift >= mono and usually is not otherwise; some f are zero or of
    # valuation above the reliable bound, where nothing is inverted
    f_order = data.draw(st.integers(4, 8))
    g_order = data.draw(st.integers(sum(mono) + 1, 8))
    f = MSeries(
        2,
        f_order,
        {(e[0] + fshift[0], e[1] + fshift[1]): c for e, c in fterms.items()},
        f_order - data.draw(st.integers(0, 3)),
    )
    unit = {**cofactor, (0, 0): c0}
    g = MSeries(
        2,
        g_order,
        {(e[0] + mono[0], e[1] + mono[1]): c for e, c in unit.items()},
        g_order - data.draw(st.integers(0, 3)),
    )
    want = _full_precision_quotient(f, g)
    if want is DivisibilityError:
        with pytest.raises(DivisibilityError):
            exact_div(f, g)
        return
    got = exact_div(f, g)
    assert (got.coeffs, got.order, got.reliable) == (want.coeffs, want.order, want.reliable)


# -- oracles: the inverse and the quadratic root against the iterations ------
# -- they replaced, field by field ----------------------------------------------

nonzero_constants = st.one_of(rationals.filter(bool), negative_fractions)


@st.composite
def graded_series(draw, num_vars, order, constant_term=None):
    """A series at ``order`` with reliable often below it; its constant
    term is ``constant_term`` when given.  Exponents stay low, so that
    most terms lie within the order."""
    expos = st.tuples(*(st.integers(0, 2) for _ in range(num_vars)))
    terms = draw(st.dictionaries(expos, rationals, min_size=1, max_size=6))
    if constant_term is not None:
        terms[(0,) * num_vars] = constant_term
    return MSeries(num_vars, order, terms, draw(st.integers(0, order)))


def newton_inverse(f):
    """g <- g*(2 - f*g) from g = 1/f(0), doubling the exact degrees."""
    g = constant(f.num_vars, 0, rat(1, f.constant_term()))
    exact = 1
    while exact <= f.order:
        exact = min(2 * exact, f.order + 1)
        ge = MSeries(f.num_vars, exact - 1, g.coeffs)
        g = ge * (2 - f.truncate(exact - 1) * ge)
    return g.with_reliable(f.reliable)


def fixed_point_root(a2, a1, a0):
    """mu <- -(a0 + a2*mu^2)/a1 from mu = 0, one exact degree per sweep."""
    order = min(a2.order, a1.order, a0.order)
    inv_a1 = newton_inverse(a1.truncate(order))
    root = fixed_point(
        lambda mu, _: -(a0 + a2 * mu * mu) * inv_a1,
        zero(a2.num_vars, order),
        order,
        AssertionError("the iteration did not stabilize"),
    )
    return root.with_reliable(min(a2.reliable, a1.reliable, a0.reliable))


def fields(f):
    return f.nums, f.den, f.order, f.reliable


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inv_unit_equals_the_newton_inverse(num_vars, data):
    order = data.draw(st.integers(0, 6))
    f = data.draw(graded_series(num_vars, order, data.draw(nonzero_constants)))
    assert fields(inv_unit(f)) == fields(newton_inverse(f))


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quadratic_branch_equals_the_fixed_point_root(num_vars, data):
    # orders differ by at most one, so the mu^2 term often lies within all three
    order = data.draw(st.integers(0, 6))
    orders = st.integers(order, order + 1)
    a2 = data.draw(graded_series(num_vars, data.draw(orders)))
    a1 = data.draw(graded_series(num_vars, data.draw(orders), data.draw(nonzero_constants)))
    a0 = data.draw(graded_series(num_vars, data.draw(orders), 0))
    assert fields(solve_quadratic_branch(a2, a1, a0)) == fields(fixed_point_root(a2, a1, a0))


# -- sums, renamings and recorded top degrees against reference loops ---------


@st.composite
def sized_series(draw, num_vars):
    """A modelled series of up to 12 terms, zero now and then."""
    order = draw(st.integers(0, 5))
    expos = st.tuples(*(st.integers(0, 3) for _ in range(num_vars)))
    terms = draw(st.dictionaries(expos, rationals, max_size=draw(st.sampled_from([0, 2, 12]))))
    f = MSeries(num_vars, order, terms, draw(st.integers(0, order)))
    return f, {e: Fraction(c) for e, c in terms.items() if sum(e) <= order and c}


def recorded_top_holds(f):
    """A recorded top degree is the highest total degree of a stored term."""
    return f._top is None or f._top == max(map(sum, f.nums))


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sums_equal_the_reference_sum(num_vars, data):
    # operands of different sizes, zero operands and different denominators,
    # added and subtracted in both orders
    (f, a), (g, b) = data.draw(sized_series(num_vars)), data.draw(sized_series(num_vars))
    order, reliable = min(f.order, g.order), min(f.reliable, g.reliable)
    for got, want in (
        (f + g, model_sum(a, b, 1, order)),
        (g + f, model_sum(b, a, 1, order)),
        (f - g, model_sum(a, b, -1, order)),
        (g - f, model_sum(b, a, -1, order)),
    ):
        assert_models(got, want, order, reliable)
        assert recorded_top_holds(got)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_adding_zero_shares_the_numerators(num_vars):
    f = MSeries(num_vars, 4, {(1,) * num_vars: Fraction(2, 3), (0,) * num_vars: 5}, 3)
    nothing = zero(num_vars, 4)
    for total in (f + nothing, nothing + f, f - nothing):
        assert total.nums is f.nums
        assert (total.den, total.order, total.reliable) == (f.den, 4, 3)
    # a zero of lower order cuts f to it; its reliable bounds the result
    low = MSeries(num_vars, 1, {}, 0) + f
    assert low == f.truncate(1) and (low.order, low.reliable) == (1, 0)
    assert fields(nothing - f) == fields(-f)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cut_returns_self_or_shares_the_numerators(num_vars, data):
    # truncate, with_reliable, _graded and the path walks' degree cut all go
    # through _cut: each gives the model's terms, order and reliable, in the
    # canonical (nums, den) of a series built from them; a cut that drops no
    # term shares f's numerator dict, and one that changes nothing is f
    f, a = data.draw(sized_series(num_vars))
    degree, order = data.draw(st.integers(-1, 6)), data.draw(st.integers(0, 6))
    r = data.draw(st.integers(-1, 7))
    for got, want, o, rel in (
        (f.truncate(order), model_cut(a, order), order, min(f.reliable, order)),
        (f.with_reliable(r), a, f.order, max(0, min(r, f.order))),
        (series_module._graded(f, order), model_cut(a, order), order, order),
        (f._cut(degree, f.order, f.reliable), model_cut(a, degree), f.order, f.reliable),
    ):
        assert_models(got, want, o, rel)
        assert fields(got) == fields(MSeries(num_vars, o, want, rel))
        assert recorded_top_holds(got)
        if len(want) == len(a):
            assert got.nums is f.nums
            assert (got is f) == ((o, rel) == (f.order, f.reliable))


def placed_exponent(e, perm):
    """The exponent with its entry j moved to place perm[j]."""
    out = [0] * len(e)
    for j, x in enumerate(e):
        out[perm[j]] = x
    return tuple(out)


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_permute_vars_equals_the_placement_loop(num_vars, data):
    f, a = data.draw(sized_series(num_vars))
    for perm in permutations(range(num_vars)):
        want = {placed_exponent(e, perm): c for e, c in a.items()}
        got = f.permute_vars(perm)
        assert_models(got, want, f.order, f.reliable)
        assert recorded_top_holds(got)
    with pytest.raises(ValueError):
        f.permute_vars((0,) * (num_vars + 1))


@pytest.mark.parametrize("num_vars", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_record_their_top_degree(num_vars, data):
    f, g = data.draw(series_of_arity(num_vars)), data.draw(series_of_arity(num_vars))
    prod = f * g
    assert recorded_top_holds(prod)
    if f and g and max(map(sum, f.nums)) + max(map(sum, g.nums)) <= prod.order:
        assert prod._top == max(map(sum, prod.nums))

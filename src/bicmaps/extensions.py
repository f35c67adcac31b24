"""Further integrable ladder systems solved by the same closed-form machinery.

Three systems share the structure of the slice recursions: the ternary
system P_i = 1 + z_white Q_{i-1} P_i Q_{i+1} (and its color mirror), the
binary system R_i = 1 + y_black S_{i-1} S_{i+1}, and the trivariate
tricolored system T_i = t_black + T_i (U_{i-1} + V_{i+1}) with cyclic
companions.  Each gets a perturbative ladder solver plus a closed-form
cross-check built on series-valued (D, Y, beta, gamma) data, where D plays
the role the quantity c*x plays for quadrangulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .closedform import quad_pattern_ladder, unit_factors
from .paths import WeightLadder, ladder_entry, ladders_agree
from .series import (
    MSeries,
    SeriesRing,
    agree,
    exact_div,
    fixed_point,
    inv_unit,
    one,
    solve_quadratic_branch,
    zero,
)
from .slices import ConvergenceError

ROTATE = (1, 2, 0)  # rename black->white->third->black


def rotate_colors(f: MSeries) -> MSeries:
    return f.permute_vars(ROTATE)


def _two_var_solve(ring: SeriesRing, kind: str, height: int | None) -> WeightLadder:
    """Solve a two-family ladder with unit seeds; index-0 entries are zero."""
    n = ring.order
    if height is None:
        height = n + 2
    z_black, z_white = ring.gens()[:2]
    unit = ring.one()

    if kind == "ternary":

        def tail_step(p, q):
            return 1 + z_white * q * p * q, 1 + z_black * p * q * p

        def entry_rhs(first_at, second_at, i):
            return (
                1 + z_white * second_at(i - 1) * first_at(i) * second_at(i + 1),
                1 + z_black * first_at(i - 1) * second_at(i) * first_at(i + 1),
            )

    else:

        def tail_step(r, s):
            return 1 + z_black * s * s, 1 + z_white * r * r

        def entry_rhs(first_at, second_at, i):
            return (
                1 + z_black * second_at(i - 1) * second_at(i + 1),
                1 + z_white * first_at(i - 1) * first_at(i + 1),
            )

    p, q = fixed_point(
        lambda state: tail_step(*state),
        (unit, unit),
        n,
        ConvergenceError(f"{kind} tail equations did not stabilize"),
    )

    def sweep(state):
        lad = WeightLadder(*state, p, q)
        pairs = [entry_rhs(lad.black_weight, lad.white_weight, i) for i in range(1, height + 1)]
        return tuple(a for a, _ in pairs), tuple(b for _, b in pairs)

    firsts, seconds = fixed_point(
        sweep,
        ((unit,) * height, (unit,) * height),
        n,
        ConvergenceError(f"{kind} ladder did not stabilize"),
    )
    return WeightLadder(firsts, seconds, p, q)


def ternary_solve(ring: SeriesRing, height: int | None = None) -> WeightLadder:
    """Embedded-ternary-tree ladder P_i (black) and Q_i (white)."""
    return _two_var_solve(ring, "ternary", height)


def binary_solve(ring: SeriesRing, height: int | None = None) -> WeightLadder:
    """Embedded-binary-tree ladder R_i (black) and S_i (white)."""
    return _two_var_solve(ring, "binary", height)


def _check_quadratic(a2, a1, a0, root):
    assert agree(a2 * root * root + a1 * root + a0, zero(root.num_vars, root.order)), (
        "derived quadratic residual does not vanish"
    )


def ternary_closed_ladder(sys: WeightLadder, i_max: int) -> WeightLadder:
    """Closed entries from (P-1) D^2 - D + (Q-1) = 0 and Y = D^2 (P-1)/(Q-1).

    The color ratio satisfies c^2 = (Q-1)/(P-1) and c(x+1/x) = 1/(P-1);
    clearing denominators against D = c*x yields the quadratic, whose
    residual is asserted.  The entry pattern is the quadrangulation one.
    """
    p, q = sys.tail_black, sys.tail_white
    ring_one = one(p.num_vars, p.order)
    d = solve_quadratic_branch(p - 1, -ring_one, q - 1)
    _check_quadratic(p - 1, -ring_one, q - 1, d)
    y = exact_div(d * d * (p - 1), q - 1)
    beta = (d + y) * inv_unit(1 + d)
    gamma = exact_div(y, beta)
    firsts, seconds = quad_pattern_ladder(p, q, y, beta, gamma, i_max)
    return WeightLadder(tuple(firsts), tuple(seconds), p, q)


def ternary_closed(sys: WeightLadder, i_max: int) -> bool:
    return ladders_agree(ternary_closed_ladder(sys, i_max), sys, i_max)


def binary_closed_ladder(sys: WeightLadder, i_max: int) -> WeightLadder:
    """Closed entries from S(S-1) D^2 - RS D + R(R-1) = 0.

    Here c^2 = R(R-1)/(S(S-1)) and c(x+1/x) = R/(S-1); the factor pattern
    is shifted relative to the quadrangulation one because these entries
    are triple products of consecutive ternary ones.
    """
    r, s = sys.tail_black, sys.tail_white
    a2 = s * (s - 1)
    a1 = -(r * s)
    a0 = r * (r - 1)
    d = solve_quadratic_branch(a2, a1, a0)
    _check_quadratic(a2, a1, a0, d)
    y = exact_div(d * d * a2, a0)
    beta = (d + y) * inv_unit(1 + d)
    gamma = exact_div(y, beta)
    u, ub, ug = unit_factors(y, beta, gamma, i_max // 2 + 3)
    firsts, seconds = [], []
    for idx in range(1, i_max + 1):
        m, odd = divmod(idx, 2)
        if not odd:
            firsts.append(r * u[m] * ug[m + 2] * inv_unit(u[m + 1] * ug[m + 1]))
            seconds.append(s * u[m] * ub[m + 2] * inv_unit(u[m + 1] * ub[m + 1]))
        else:
            firsts.append(r * ub[m] * u[m + 3] * inv_unit(ub[m + 1] * u[m + 2]))
            seconds.append(s * ug[m] * u[m + 3] * inv_unit(ug[m + 1] * u[m + 2]))
    return WeightLadder(tuple(firsts), tuple(seconds), r, s)


def binary_closed(sys: WeightLadder, i_max: int) -> bool:
    return ladders_agree(binary_closed_ladder(sys, i_max), sys, i_max)


# -- the tricolored system -----------------------------------------------------


@dataclass(frozen=True)
class TriColorState:
    """Solved tricolored ladder plus its height parametrization."""

    t_list: tuple[MSeries, ...]
    u_list: tuple[MSeries, ...]
    v_list: tuple[MSeries, ...]
    t: MSeries
    u: MSeries
    v: MSeries
    y: MSeries
    d: MSeries
    e: MSeries
    a_hat: MSeries

    def t_at(self, i: int) -> MSeries:
        return ladder_entry(self.t_list, self.t, i)

    def u_at(self, i: int) -> MSeries:
        return ladder_entry(self.u_list, self.u, i)

    def v_at(self, i: int) -> MSeries:
        return ladder_entry(self.v_list, self.v, i)

    @property
    def height(self) -> int:
        return len(self.t_list)


def solve_height_params(t: MSeries, u: MSeries, v: MSeries):
    """Fixed point of the linear height system in (y, d, e).

    y = U(y+d) + V y (1+e), d = V(d+e) + T(d+y), e = T(e+1) + U(e+d); all
    right-hand terms carry a T/U/V factor, so sweeps gain a degree each.
    Works for any positive-valuation T, U, V, in particular for the formal
    generators themselves.
    """
    if t.constant_term() or u.constant_term() or v.constant_term():
        raise ValueError("height parameters need positive-valuation inputs")

    def sweep(state):
        y, d, e = state
        return (
            u * (y + d) + v * y * (1 + e),
            v * (d + e) + t * (d + y),
            t * (e + 1) + u * (e + d),
        )

    seed = zero(t.num_vars, t.order)
    return fixed_point(
        sweep,
        (seed, seed, seed),
        t.order,
        ConvergenceError("height parametrization did not stabilize"),
    )


def tricolor_solve(ring: SeriesRing, height: int | None = None) -> TriColorState:
    """Perturbative solution of the three-color ladder system.

    The closed forms only ever consume (y, d, e) and a_hat; the cube root
    hiding behind y is never materialized, so its root-of-unity ambiguity
    never arises.
    """
    if ring.num_vars != 3:
        raise ValueError("the tricolored system needs three vertex weights")
    n = ring.order
    if height is None:
        height = n + 2
    tb, tw, tg = ring.gens()

    def tail_step(t, u, v):
        return tb + t * (u + v), tw + u * (v + t), tg + v * (t + u)

    t, u, v = fixed_point(
        lambda state: tail_step(*state),
        (tb, tw, tg),
        n,
        ConvergenceError("tricolor tail equations did not stabilize"),
    )

    def sweep(state):
        t_at, u_at, v_at = (
            partial(ladder_entry, entries, tail) for entries, tail in zip(state, (t, u, v))
        )
        rows = range(1, height + 1)
        return (
            tuple(tb + t_at(i) * (u_at(i - 1) + v_at(i + 1)) for i in rows),
            tuple(tw + u_at(i) * (v_at(i - 1) + t_at(i + 1)) for i in rows),
            tuple(tg + v_at(i) * (t_at(i - 1) + u_at(i + 1)) for i in rows),
        )

    ts, us, vs = fixed_point(
        sweep,
        ((tb,) * height, (tw,) * height, (tg,) * height),
        n,
        ConvergenceError("tricolor ladder did not stabilize"),
    )

    y, d, e = solve_height_params(t, u, v)
    a_hat = (e + d + y) * inv_unit(1 + e + d)
    return TriColorState(ts, us, vs, t, u, v, y, d, e, a_hat)


def tricolor_closed_t(state: TriColorState, i: int) -> MSeries:
    """Closed form of the index-3i entry of the first color family."""
    y, a = state.y, state.a_hat
    yi = y ** i
    yi1 = y ** (i + 1)
    return state.t * (1 - yi) * (1 - a * yi1) * inv_unit((1 - a * yi) * (1 - yi1))


def tricolor_characteristic_residual(state: TriColorState) -> MSeries:
    """T U V (1+y)^2 - y (1 - T - U - V)^2, identically zero on solutions."""
    t, u, v, y = state.t, state.u, state.v, state.y
    lhs = t * u * v * (1 + y) * (1 + y)
    gap = 1 - t - u - v
    return lhs - y * gap * gap


def tricolor_closed_check(state: TriColorState, i_max: int) -> bool:
    """Closed multiples-of-three entries, their rotations, the characteristic
    identity, and the cyclic symmetry of the solved ladder."""
    checks = []
    for i in range(0, i_max // 3 + 1):
        closed = tricolor_closed_t(state, i)
        checks.append(agree(closed, state.t_at(3 * i)))
        checks.append(agree(rotate_colors(closed), state.u_at(3 * i)))
        checks.append(agree(rotate_colors(rotate_colors(closed)), state.v_at(3 * i)))
    for i in range(1, state.height + 1):
        checks.append(agree(rotate_colors(state.t_at(i)), state.u_at(i)))
        checks.append(agree(rotate_colors(state.u_at(i)), state.v_at(i)))
    residual = tricolor_characteristic_residual(state)
    checks.append(agree(residual, zero(3, state.t.order)))
    return all(checks)

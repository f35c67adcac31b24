"""Further integrable ladder systems solved by the same closed-form machinery.

Three systems share the structure of the slice recursions: the ternary
system P_i = 1 + z_white Q_{i-1} P_i Q_{i+1} (and its color mirror), the
binary system R_i = 1 + y_black S_{i-1} S_{i+1}, and the trivariate
tricolored system T_i = t_black + T_i (U_{i-1} + V_{i+1}) with cyclic
companions.  Each gets a perturbative ladder solver plus a closed-form
cross-check built on series-valued (D, Y, beta, gamma) data, where D plays
the role the quantity c*x plays for quadrangulations.

Each solver states its row rule once.  Row 2 is the first that reads no
index 0, so on the ladder with no entries it reads only the tails and is
the tail equation (P = 1 + z_white Q P Q and so on), next to the system's
color symmetry (the swap for the trees, the cyclic rotation for the
tricolored system).  ``paths.solve_ladder`` solves the tails and as many
entries as each solver's ``height`` asks for (order + 2 by default)
together from it, in one fixed point, and its docstring states the sweep
schedule and proves it.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .closedform import characteristic, quad_pattern_ladder, unit_factors
from .paths import WeightLadder, color_swap, ladder_entry, solve_ladder
from .series import (
    MSeries,
    SeriesRing,
    agree,
    fixed_point,
    inv_unit,
    one,
    zero,
)
from .slices import ConvergenceError

ROTATE = (1, 2, 0)  # rename black->white->third->black


def rotate_colors(f: MSeries) -> MSeries:
    return f.permute_vars(ROTATE)


def ternary_solve(ring: SeriesRing, height: int | None = None) -> WeightLadder:
    """Embedded-ternary-tree ladder P_i (black) and Q_i (white).

    Exchanging the colors together with z_black and z_white maps the
    system onto itself, so Q_i is P_i with the two variables swapped.
    """
    z_black, z_white = ring.gens()[:2]

    def rows(entries, tails):
        lad = WeightLadder(*entries, *tails)
        p, q = lad.black_weight, lad.white_weight
        return (
            lambda i: 1 + z_white * q(i - 1) * p(i) * q(i + 1),
            lambda i: 1 + z_black * p(i - 1) * q(i) * p(i + 1),
        )

    # Row 2 is the first that reads no index 0.
    error = ConvergenceError("ternary ladder did not stabilize")
    (ps, qs), (p, q) = solve_ladder(rows, color_swap, 2, ring, error, height)
    return WeightLadder(ps, qs, p, q)


def binary_solve(ring: SeriesRing, height: int | None = None) -> WeightLadder:
    """Embedded-binary-tree ladder R_i (black) and S_i (white).

    Exchanging the colors together with y_black and y_white maps the
    system onto itself, so S_i is R_i with the two variables swapped.
    """
    y_black, y_white = ring.gens()[:2]

    def rows(entries, tails):
        lad = WeightLadder(*entries, *tails)
        r, s = lad.black_weight, lad.white_weight
        return (
            lambda i: 1 + y_black * s(i - 1) * s(i + 1),
            lambda i: 1 + y_white * r(i - 1) * r(i + 1),
        )

    # Row 2 is the first that reads no index 0.
    error = ConvergenceError("binary ladder did not stabilize")
    (rs, ss), (r, s) = solve_ladder(rows, color_swap, 2, ring, error, height)
    return WeightLadder(rs, ss, r, s)


def ternary_closed_ladder(sys: WeightLadder, i_max: int) -> WeightLadder:
    """Closed entries from (P-1) D^2 - D + (Q-1) = 0 and Y = D^2 (P-1)/(Q-1).

    The color ratio satisfies c^2 = (Q-1)/(P-1) and c(x+1/x) = 1/(P-1);
    clearing denominators against D = c*x yields the quadratic, whose
    residual is asserted.  The entry pattern is the quadrangulation one.
    """
    p, q = sys.tail_black, sys.tail_white
    _, y, beta, gamma = characteristic(p - 1, -one(p.num_vars, p.order), q - 1)
    return quad_pattern_ladder(p, q, [(y, 1, beta, gamma)], i_max)


def binary_closed_ladder(sys: WeightLadder, i_max: int) -> WeightLadder:
    """Closed entries from S(S-1) D^2 - RS D + R(R-1) = 0.

    Here c^2 = R(R-1)/(S(S-1)) and c(x+1/x) = R/(S-1); the factor pattern
    is shifted relative to the quadrangulation one because these entries
    are triple products of consecutive ternary ones.
    """
    r, s = sys.tail_black, sys.tail_white
    _, y, beta, gamma = characteristic(s * (s - 1), -(r * s), r * (r - 1))
    u, ub, ug = unit_factors([(y, 1, beta, gamma)], i_max // 2 + 3)
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


# -- the tricolored system -----------------------------------------------------


class TriColorState(NamedTuple):
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

    def sweep(state, _degree):
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


def color_rotation(t: MSeries) -> tuple[MSeries, MSeries, MSeries]:
    """The symmetry of the tricolored system: U is T with the colors
    rotated once, and V is U rotated once more."""
    u = rotate_colors(t)
    return t, u, rotate_colors(u)


def tricolor_solve(ring: SeriesRing, height: int | None = None) -> TriColorState:
    """Perturbative solution of the three-color ladder system.

    Rotating the colors maps the system onto itself, so U_i and V_i are
    T_i rotated once and twice (``color_rotation``).  The closed forms only
    ever consume (y, d, e) and a_hat; the cube root hiding behind y is
    never materialized, so its root-of-unity ambiguity never arises.
    """
    if ring.num_vars != 3:
        raise ValueError("the tricolored system needs three vertex weights")
    tb, tw, tg = ring.gens()

    def rows(entries, tails):
        t_at, u_at, v_at = (
            partial(ladder_entry, column, tail) for column, tail in zip(entries, tails)
        )
        return (
            lambda i: tb + t_at(i) * (u_at(i - 1) + v_at(i + 1)),
            lambda i: tw + u_at(i) * (v_at(i - 1) + t_at(i + 1)),
            lambda i: tg + v_at(i) * (t_at(i - 1) + u_at(i + 1)),
        )

    # Row 2 is the first that reads no index 0.
    error = ConvergenceError("tricolor ladder did not stabilize")
    (ts, us, vs), (t, u, v) = solve_ladder(rows, color_rotation, 2, ring, error, height)

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
    """Closed multiples-of-three entries against the solved ladder, and
    their rotations against the other two color families."""
    checks = []
    for i in range(0, i_max // 3 + 1):
        closed = tricolor_closed_t(state, i)
        checks.append(agree(closed, state.t_at(3 * i)))
        checks.append(agree(rotate_colors(closed), state.u_at(3 * i)))
        checks.append(agree(rotate_colors(rotate_colors(closed)), state.v_at(3 * i)))
    return all(checks)

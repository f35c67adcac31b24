"""Truncated multivariate formal power series over exact rationals.

Series are truncated by *total* degree and every value carries two bounds:
``order``, the hard truncation degree, and ``reliable``, the highest total
degree at which coefficients are guaranteed exact.  Ring operations keep
``reliable`` at the minimum of the operands; exact division by a series of
valuation v (a monomial of degree v times a unit) loses exactly the top v
degrees.  Nothing in this module ever compares coefficients beyond the
reliable bound, and consumers should not either: use ``agree`` or
``first_difference`` which take the bound into account.

A series is stored as integer numerators over one common denominator
(one integer polynomial over one denominator, the layout of FLINT's
fmpq_poly): ``nums`` maps each exponent tuple to a nonzero int and
``den`` > 0 is shared by every term.  The form is canonical: den and the
numerators have no common factor, so den is the lcm of the reduced
denominators, den is 1 exactly when every coefficient is integral, and
two equal series have equal (nums, den).  Ring operations work on the
numerators in plain ints (a sum scales each side to the lcm of the two
denominators, a product multiplies them) and divide out the gcd of den
and the numerators once per result, so none of them builds a rational.
``coeffs`` reads the coefficients as values, ints where integral and
Fractions otherwise (never floats); it is the numerator dict itself when
den is 1, and otherwise a new dict is built on each read.

The product's convolution accumulates in a flat list, not in a dict
keyed by exponent tuples.  The list covers the cube of side s + 1, where
s is the product's order, or the sum of the operands' top degrees when
that is lower, and the index of an exponent vector reads the vector in
base s + 1.  Every term a product keeps has total degree at most s, so
each coordinate of it is at most s and no digit carries: the index of a
product term is the sum of its factors' indices.  The cells' exponent
tuples are built on the first product of each (arity, s) and cached.
Storage stays tuple-keyed: the dict is built once from the nonzero cells.

``inv_unit`` runs the degree recurrence of the inverse once over that flat
accumulator, in ints: with this schoolbook product a Newton inversion
costs about two full products and the recurrence about one (Newton wins
only over fast products; Brent & Kung, J. ACM 1978).  ``sqrt_unit`` and
``solve_quadratic_branch`` share one Newton schedule that doubles the
working precision: step j runs in the ring cut to degree
min(2^j, order+1) - 1 and only the last step works at full order.  All
values are immutable after construction and safe to share: results that
keep every term of an operand share its numerator dict.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, product
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .rational import Rat, is_rational, rat

Expo = tuple  # exponent vector, one entry per variable


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class VariableMismatchError(SeriesError):
    """Operands live in rings with different variable counts."""


class NotAUnitError(SeriesError):
    """Inversion or unit decomposition applied to a non-unit."""


class NotASquareError(SeriesError):
    """Square root of a series whose constant term is not a rational square."""


class DivisibilityError(SeriesError):
    """Exact division left a coefficient the divisor monomial cannot absorb.

    This signals a formula or branch-selection bug upstream, not bad input.
    """


class NoSeriesRootError(SeriesError):
    """The requested quadratic has no series root with zero constant term."""


_VAR_NAMES = {2: ("tb", "tw"), 3: ("tb", "tw", "tg")}


def _zero_expo(num_vars: int) -> Expo:
    return (0,) * num_vars


@cache
def _layout(
    num_vars: int, order: int
) -> tuple[tuple[Expo, ...], dict[Expo, tuple[int, int]], tuple[tuple[int, int], ...]]:
    """The dense accumulator of a product truncated at ``order``.

    Cells cover the cube of side order + 1, one per exponent vector in
    lexicographic order, so a cell's index reads its exponent in base
    order + 1.  Returns the cells' exponents, for each exponent of total
    degree at most ``order`` its (degree, index), and those (degree,
    index) pairs sorted.
    """
    cells = tuple(product(range(order + 1), repeat=num_vars))
    place = {}
    for index, e in enumerate(cells):
        degree = sum(e)
        if degree <= order:
            place[e] = (degree, index)
    return cells, place, tuple(sorted(place.values()))


class MSeries:
    """A truncated power series: finite map from exponent vectors to rationals.

    ``nums`` and ``den`` are the stored form (see the module docstring);
    like every attribute of a series they are read only.
    """

    __slots__ = ("num_vars", "order", "reliable", "nums", "den", "_top")

    def __init__(
        self,
        num_vars: int,
        order: int,
        coeffs: Mapping[Expo, object] | None = None,
        reliable: int | None = None,
    ):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if order < 0:
            raise ValueError("order must be non-negative")
        self.num_vars = num_vars
        self.order = order
        if reliable is None:
            reliable = order
        self.reliable = max(0, min(reliable, order))
        clean: dict[Expo, object] = {}
        if coeffs:
            for e, c in coeffs.items():
                if len(e) != num_vars:
                    raise ValueError(f"exponent {e} has wrong arity")
                if sum(e) <= order and c:
                    clean[tuple(e)] = c
        den = 1
        if not all(type(c) is int for c in clean.values()):
            den = lcm(*(c.denominator for c in clean.values()))
            clean = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.nums = clean
        self.den = den
        self._top = None

    @classmethod
    def _wrap(
        cls, num_vars: int, order: int, nums: dict, den: int, reliable: int, top=None
    ) -> "MSeries":
        """A ring result in canonical form, taken as is: the caller hands
        over ``nums`` (no zero values, every exponent of the right arity
        and total degree at most ``order``, no factor shared with ``den``
        unless den is 1), guarantees 0 <= reliable <= order, and passes
        ``top`` only if it is the highest total degree in ``nums``."""
        f = object.__new__(cls)
        f.num_vars = num_vars
        f.order = order
        f.reliable = reliable
        f.nums = nums
        f.den = den
        f._top = top
        return f

    @classmethod
    def _make(
        cls, num_vars: int, order: int, nums: dict, den: int, reliable: int, top=None
    ) -> "MSeries":
        """A ring result, put in canonical form: as ``_wrap``, but ``nums``
        and ``den`` may share a factor, which is divided out here."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        return cls._wrap(num_vars, order, nums, den, reliable, top)

    def _top_degree(self) -> int:
        """The highest total degree of a stored term (the series is not zero).

        Computed on first use and cached, since the series never changes.
        """
        if self._top is None:
            self._top = max(map(sum, self.nums))
        return self._top

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[Expo, object]:
        """The coefficients as values: ints where integral, Fractions otherwise."""
        if self.den == 1:
            return self.nums
        den = self.den
        return {e: rat(n, den) for e, n in self.nums.items()}

    def coefficient(self, expo: Sequence[int]):
        n = self.nums.get(tuple(expo), 0)
        return n if self.den == 1 else rat(n, self.den)

    def constant_term(self):
        return self.coefficient(_zero_expo(self.num_vars))

    def is_zero(self) -> bool:
        return not self.nums

    def valuation(self) -> int | None:
        """Minimal total degree of a stored term, or None for the zero series."""
        if not self.nums:
            return None
        return min(map(sum, self.nums))

    def terms(self) -> Iterator[tuple[Expo, object]]:
        """Terms sorted by total degree, then lexicographic exponents."""
        coeffs = self.coeffs
        for e in sorted(coeffs, key=lambda e: (sum(e), e)):
            yield e, coeffs[e]

    # -- structural helpers -------------------------------------------------

    def with_reliable(self, reliable: int) -> "MSeries":
        return self._cut(self.order, self.order, max(0, min(reliable, self.order)))

    def truncate(self, order: int) -> "MSeries":
        if order < 0:
            raise ValueError("order must be non-negative")
        return self._cut(order, order, min(self.reliable, order))

    def _cut(self, degree: int, order: int, reliable: int) -> "MSeries":
        """The terms of total degree at most ``degree``, at ``order`` and
        ``reliable``: self when that changes nothing, and a series sharing
        the numerator dict when it drops no term."""
        kept = self._through(degree)
        if len(kept) < len(self.nums):
            return MSeries._make(self.num_vars, order, kept, self.den, reliable)
        if order == self.order and reliable == self.reliable:
            return self
        return MSeries._wrap(self.num_vars, order, self.nums, self.den, reliable, self._top)

    def _through(self, degree: int) -> dict[Expo, int]:
        """The numerators of total degree at most ``degree``: ``nums``
        itself when the order is within ``degree``, else a new dict."""
        if degree >= self.order:
            return self.nums
        return {e: n for e, n in self.nums.items() if sum(e) <= degree}

    def permute_vars(self, perm: Sequence[int]) -> "MSeries":
        """Rename variable j to perm[j]; perm must be a permutation."""
        identity = list(range(self.num_vars))
        if sorted(perm) != identity:
            raise ValueError(f"not a permutation of the variables: {perm}")
        # entry k of a new exponent is entry inverse[k] of the old one
        inverse = sorted(identity, key=perm.__getitem__)
        if inverse == identity:
            return self
        nums = self.nums
        out = dict(zip(map(itemgetter(*inverse), nums), nums.values()))
        return MSeries._wrap(self.num_vars, self.order, out, self.den, self.reliable, self._top)

    def swap_vars(self) -> "MSeries":
        """Exchange the first two variables (the black/white color swap)."""
        perm = (1, 0) + tuple(range(2, self.num_vars))
        return self.permute_vars(perm)

    def collapse_vars(self) -> "MSeries":
        """Identify all variables with the first one (same arity is kept)."""
        out: dict[Expo, int] = {}
        tail = (0,) * (self.num_vars - 1)
        for e, n in self.nums.items():
            ne = (sum(e),) + tail
            out[ne] = out.get(ne, 0) + n
        out = {e: n for e, n in out.items() if n}
        return MSeries._make(self.num_vars, self.order, out, self.den, self.reliable)

    def evaluate(self, point: Sequence):
        """Evaluate the truncated polynomial at exact rational arguments."""
        if len(point) != self.num_vars:
            raise ValueError("wrong number of values")
        total = Rat(0)
        for e, n in self.nums.items():
            term = Rat(n)
            for p, k in zip(point, e):
                if k:
                    term *= Rat(p) ** k
            total += term
        return total / self.den

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "MSeries") -> None:
        if self.num_vars != other.num_vars:
            raise VariableMismatchError(
                f"{self.num_vars}-variable series combined with {other.num_vars}-variable series"
            )

    def _add(self, other, sign: int):
        """self + sign * other, for sign 1 or -1."""
        if not isinstance(other, MSeries):
            if not is_rational(other):
                return NotImplemented
            other = constant(self.num_vars, self.order, other)
        self._check_compatible(other)
        order = min(self.order, other.order)
        reliable = min(self.reliable, other.reliable)
        # a zero operand leaves the other one, cut to the lower order
        if not other.nums:
            return self._cut(order, order, reliable)
        if not self.nums and sign == 1:
            return other._cut(order, order, reliable)
        # both operands are cut to the lower order before the terms meet
        a, b = self._through(order), other._through(order)
        da, db = self.den, other.den
        if da == db:
            den, fa, fb = da, 1, sign
            if sign == 1 and len(a) < len(b):
                a, b = b, a  # copy the larger dict, loop over the smaller
        else:
            den = lcm(da, db)
            fa, fb = den // da, sign * (den // db)
        out = dict(a) if fa == 1 else {e: n * fa for e, n in a.items()}
        get = out.get
        for e, n in b.items():
            s = get(e, 0) + n * fb
            if s:
                out[e] = s
            else:
                del out[e]
        return MSeries._make(self.num_vars, order, out, den, reliable)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MSeries._wrap(
            self.num_vars,
            self.order,
            {e: -n for e, n in self.nums.items()},
            self.den,
            self.reliable,
            self._top,
        )

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MSeries):
            if not is_rational(other):
                return NotImplemented
            if not other:
                return MSeries._wrap(self.num_vars, self.order, {}, 1, self.reliable)
            p = other.numerator
            nums = self.nums if p == 1 else {e: n * p for e, n in self.nums.items()}
            return MSeries._make(
                self.num_vars, self.order, nums, self.den * other.denominator, self.reliable
            )
        self._check_compatible(other)
        order = min(self.order, other.order)
        reliable = min(self.reliable, other.reliable)
        a, b = self.nums, other.nums
        if not a or not b:
            return MSeries._wrap(self.num_vars, order, {}, 1, reliable)
        # No product term lies above the operands' top degrees added up.  When
        # that sum is within the order it is the product's top degree: the
        # top homogeneous parts multiply to a nonzero part over the rationals.
        top = self._top_degree() + other._top_degree()
        side = min(order, top)
        cells, place, _ = _layout(self.num_vars, side)
        # Iterate the sparser operand outside; keep the other sorted by degree
        # so the inner loop can stop as soon as the truncation bound is hit.
        # Terms above the order have no place and drop out here.
        if len(a) > len(b):
            a, b = b, a
        b = sorted([(*at, c) for e, c in b.items() if (at := place.get(e))])
        acc = [0] * len(cells)
        for e, ca in a.items():
            at = place.get(e)
            if at is None:
                continue
            deg_a, ia = at
            room = side - deg_a
            for deg, ib, cb in b:
                if deg > room:
                    break
                acc[ia + ib] += ca * cb
        # compress and filter walk the nonzero cells in the same order
        out = dict(zip(compress(cells, acc), filter(None, acc)))
        return MSeries._make(
            self.num_vars, order, out, self.den * other.den, reliable,
            top if top <= order else None,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers")
        result = constant(self.num_vars, self.order, 1).with_reliable(self.reliable)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        """Coefficient equality; order/reliable metadata is not compared."""
        if not isinstance(other, MSeries):
            if not is_rational(other):
                return NotImplemented
            other = constant(self.num_vars, self.order, other)
        return (
            self.num_vars == other.num_vars
            and self.den == other.den
            and self.nums == other.nums
        )

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self):
        return bool(self.nums)

    def __str__(self):
        if not self.nums:
            return "0"
        names = _VAR_NAMES.get(self.num_vars) or tuple(
            f"x{j}" for j in range(self.num_vars)
        )
        parts = []
        for e, c in self.terms():
            factors = [
                names[j] if k == 1 else f"{names[j]}^{k}" for j, k in enumerate(e) if k
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts).replace("+ -", "- ")
        return text

    def __repr__(self):
        return f"MSeries({self.num_vars}, order={self.order}, reliable={self.reliable}, {self})"


# -- factories ---------------------------------------------------------------


def zero(num_vars: int, order: int) -> MSeries:
    return MSeries(num_vars, order, {})


def one(num_vars: int, order: int) -> MSeries:
    return constant(num_vars, order, 1)


def constant(num_vars: int, order: int, value) -> MSeries:
    return MSeries(num_vars, order, {_zero_expo(num_vars): value})


def variable(num_vars: int, order: int, index: int) -> MSeries:
    e = [0] * num_vars
    e[index] = 1
    return MSeries(num_vars, order, {tuple(e): 1})


class SeriesRing(NamedTuple):
    """A (number of variables, truncation order) context with factories."""

    num_vars: int
    order: int

    def zero(self) -> MSeries:
        return zero(self.num_vars, self.order)

    def one(self) -> MSeries:
        return one(self.num_vars, self.order)

    def gens(self) -> tuple[MSeries, ...]:
        return tuple(variable(self.num_vars, self.order, j) for j in range(self.num_vars))


class Valuation(NamedTuple):
    """Decomposition f = monomial * unit_part with an invertible unit part."""

    monomial: Expo
    unit_part: MSeries


def valuation_split(f: MSeries) -> Valuation:
    """Split f as monomial times unit, or raise if no such form exists."""
    if f.is_zero():
        raise NotAUnitError("zero series has no monomial-times-unit form")
    support = list(f.nums)
    m = tuple(min(e[j] for e in support) for j in range(f.num_vars))
    if m not in f.nums:
        raise NotAUnitError(
            "series is not a monomial times a unit (minimal support is not a single monomial)"
        )
    shifted = {tuple(x - y for x, y in zip(e, m)): n for e, n in f.nums.items()}
    return Valuation(m, MSeries._wrap(f.num_vars, f.order, shifted, f.den, f.reliable))


# -- the four nontrivial ring operations -------------------------------------


def _newton(f, seed, step) -> MSeries:
    """Newton iteration for a function of f, from a constant seed.

    ``f`` is a series or a tuple of series, and the work runs to the lowest
    order among them.  ``step(f, g)`` must double the number of exact
    degrees of g, so ceil(log2(order+1)) steps suffice.  Step j runs on f
    and g cut (or extended) to degree min(2^j, order+1) - 1, the most that
    can be exact after it; the last step works at full order.
    """
    series = (f,) if isinstance(f, MSeries) else f
    order = min(s.order for s in series)
    g = constant(series[0].num_vars, 0, seed)
    exact = 1
    while exact <= order:
        exact = min(2 * exact, order + 1)
        g = step(_graded(f, exact - 1), _graded(g, exact - 1))
    return g


def inv_unit(f: MSeries) -> MSeries:
    """Multiplicative inverse of a series with nonzero constant term.

    One pass of the degree recurrence over the product accumulator.  With
    f = F/D and F0 the constant numerator, H = F0^(order+1)/F is integral
    through the order: H_0 = F0^order and, for e of positive degree,
    H_e = -(sum of F_a H_(e-a) over a != 0)/F0, an exact division in ints.
    Each H_b, once final, is pushed into the cells b + a it feeds.  The
    inverse is D*H over F0^(order+1).
    """
    num_vars, order = f.num_vars, f.order
    origin = _zero_expo(num_vars)
    f0 = f.nums.get(origin)
    if not f0:
        raise NotAUnitError("cannot invert a series with zero constant term")
    cells, place, ranked = _layout(num_vars, order)
    rest = sorted([(*place[e], n) for e, n in f.nums.items() if e != origin])
    power = f0 ** (order + 1)
    scale = f.den if power > 0 else -f.den  # the denominator stays positive
    acc = [0] * len(cells)
    acc[0] = -power  # so that H_0 = -acc[0] // f0 = F0^order
    nums = {}
    for deg, i in ranked:
        s = acc[i]
        if not s:
            continue
        h = -s // f0
        nums[cells[i]] = h * scale
        room = order - deg
        for deg_a, ia, n in rest:
            if deg_a > room:
                break
            acc[i + ia] += n * h
    return MSeries._make(num_vars, order, nums, abs(power), f.reliable)


def exact_div(f: MSeries, g: MSeries) -> MSeries:
    """Quotient q with f = q*g, for g a monomial of degree v times a unit.

    The quotient is reliable (and stored) only up to
    min(f.reliable, g.reliable) - v: dividing by valuation v destroys the
    top v degrees of information.  A surviving coefficient not divisible by
    the monomial raises DivisibilityError.  When nothing at all survives the
    result is the zero series with reliable 0, i.e. only its constant term
    (zero) is vouched for.

    Only f / unit through that bound (before the shift by the monomial) is
    formed.  Its degree k takes the unit's inverse through degree
    k - val(f) only, so the unit is inverted through bound - val(f); when
    f is zero or val(f) > bound no degree survives and nothing is inverted.
    """
    f._check_compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("exact_div by the zero series")
    mono, unit = valuation_split(g)
    vdeg = sum(mono)
    bound = min(f.reliable, g.reliable)
    vf = f.valuation()
    out: dict[Expo, int] = {}
    den = 1
    if vf is not None and vf <= bound:
        # the inverse, extended to order bound, stops the product there
        q0 = f * _graded(inv_unit(_graded(unit, bound - vf)), bound)
        den = q0.den
        for e, n in q0.nums.items():
            if any(x < y for x, y in zip(e, mono)):
                raise DivisibilityError(
                    f"coefficient at {e} (degree {sum(e)}) not divisible by monomial {mono}"
                )
            out[tuple(x - y for x, y in zip(e, mono))] = n
    order = min(f.order, g.order)
    return MSeries._wrap(f.num_vars, order, out, den, max(0, min(bound - vdeg, order)))


def sqrt_unit(f: MSeries) -> MSeries:
    """Square root with positive constant term.

    The constant term must be the square of a rational; otherwise the square
    root is not a series over the rationals and NotASquareError is raised.
    """
    c0 = f.constant_term()
    if not c0 or c0 < 0:
        raise NotASquareError(f"constant term {c0} is not a nonzero rational square")
    num, den = Rat(c0).numerator, Rat(c0).denominator
    rn, rd = isqrt(int(num)), isqrt(int(den))
    if rn * rn != num or rd * rd != den:
        raise NotASquareError(f"constant term {c0} is not a rational square")
    # Newton on the inverse square root avoids repeated series inversions:
    # v <- v*(3 - f*v^2)/2 doubles the exact layers, then sqrt(f) = f*v.
    half = Rat(1, 2)
    v = _newton(f, rat(rd, rn), lambda f, v: v * (3 - f * v * v) * half)
    return (f * v).with_reliable(f.reliable)


def solve_quadratic_branch(a2: MSeries, a1: MSeries, a0: MSeries) -> MSeries:
    """The unique series root mu with mu(0) = 0 of P(mu) = a2*mu^2 + a1*mu + a0.

    Requires a1 to be a unit and a0 to have zero constant term.  Newton's
    mu <- mu - P(mu)/P'(mu) from mu = 0 doubles the exact degrees each
    step, since P'(mu) = 2*a2*mu + a1 is a unit along the way.
    """
    a2._check_compatible(a1)
    a1._check_compatible(a0)
    if not a1.constant_term():
        raise NotAUnitError("linear coefficient must be a unit")
    if a0.constant_term():
        raise NoSeriesRootError("constant coefficient must have zero constant term")

    def step(coeffs, mu):
        a2, a1, a0 = coeffs
        a2mu = a2 * mu
        slope = a2mu + a1  # P(mu) = slope*mu + a0 and P'(mu) = slope + a2*mu
        return mu - (slope * mu + a0) * inv_unit(slope + a2mu)

    root = _newton((a2, a1, a0), 0, step)
    return root.with_reliable(min(a2.reliable, a1.reliable, a0.reliable))


# -- the fixed-point engine ----------------------------------------------------


def _graded(state, degree: int):
    """The state (a series or nested tuples of them) at order and reliable
    ``degree``: cut to it, or extended to it with no new terms."""
    if isinstance(state, MSeries):
        return state._cut(degree, degree, degree)
    return type(state)(_graded(s, degree) for s in state)


def fixed_point(step, seed, order: int, error: Exception):
    """Solve state = step(state) through total degree ``order``.

    ``state`` is a series or nested tuples of series, and ``step``
    must gain one exact degree per application: degree k of its result may
    depend only on degrees below k of its argument.  So after k sweeps no
    degree above k can be exact yet, and sweep k runs on the state cut to
    degree k (order and reliable k); ``step`` then works at that order,
    because ring operations truncate to the lower order of their operands.
    ``step(state, degree)`` is told the degree of its sweep.

    The graded sweeps run for degrees 0..order - 1; the last sweep, the
    stability sweep, is told None and runs on their state extended to the
    order.  It must evaluate the whole state, and its result must equal
    its argument through degree order - 1, otherwise ``error`` is raised.
    That agreement proves the argument is the fixed point through
    order - 1, since degree k of a step depends only on degrees below k;
    one more step is then exact through the order, and it is returned.
    At order 0 no degree lies below the top one, and the step's premise
    alone makes the one sweep exact.  This is the one place that sets how
    many sweeps the solvers run.
    """
    state = seed
    for degree in range(order):
        state = step(_graded(state, degree), degree)
    state = _graded(state, order)
    result = step(state, None)
    # the extended state holds no term above order - 1
    if order and _graded(result, order - 1) != state:
        raise error
    return result


# -- comparison helpers -------------------------------------------------------


def common_reliable(*series: MSeries) -> int:
    return min(s.reliable for s in series)


def first_difference(
    f: MSeries, g: MSeries, through: int | None = None
) -> tuple[Expo, object, object] | None:
    """Smallest-degree coefficient where f and g differ, or None.

    Compares only up to ``through`` (default: the common reliable order).
    """
    f._check_compatible(g)
    if through is None:
        through = common_reliable(f, g)
    (nf, df), (ng, dg) = (f.nums, f.den), (g.nums, g.den)
    for e in sorted(nf.keys() | ng.keys(), key=lambda e: (sum(e), e)):
        if sum(e) > through:
            break
        if nf.get(e, 0) * dg != ng.get(e, 0) * df:
            return e, f.coefficient(e), g.coefficient(e)
    return None


def agree(f: MSeries, g: MSeries, through: int | None = None) -> bool:
    """Exact coefficient agreement up to the common reliable order."""
    return first_difference(f, g, through) is None

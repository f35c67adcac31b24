"""The start color convention: every sum that takes ``black_start`` gives, for
a white start, the color swap of its value for a black start."""

from __future__ import annotations

import inspect

import pytest

from bicmaps.dimers import transfer, zhd, zhd_brute
from bicmaps.paths import (
    BalancedSums,
    RatPathWeights,
    rat_path,
    strip_sum,
    word_tally,
    z_plus,
    z_plus_profile,
    z_strip,
)
from bicmaps.rational import rat
from bicmaps.series import MSeries, SeriesRing
from bicmaps.slices import FaceWeights, alpha_coeffs, conserved, f_sequence, ladder_solve

FAMILIES = {
    "quad": FaceWeights.quadrangulations(),
    "hex": FaceWeights.hexangulations(),
    "1/5,0,2": FaceWeights((rat(1, 5), rat(0), rat(2))),
}
ORDER = 7
# start, end, length, floor of the balanced paths; the last start is below its floor
SHAPES = [(0, 0, 6, 0), (1, 3, 4, 0), (2, 1, 5, None), (3, 0, 7, 0), (2, 2, 4, 1), (0, 2, 2, 1)]
STEPS = (rat(2), rat(3, 4))


def series_sums(total):
    """A case whose white value is the color swap of its black value."""
    return lambda g, lad: (total(g, lad, black_start=False), [f.swap_vars() for f in total(g, lad)])


def balanced_sums(g, lad):
    """Each balanced sum with a white start, and with a black start and the
    two step weights exchanged; the brute tallies go through ``BalancedSums``."""
    wt, swapped = RatPathWeights(*STEPS), RatPathWeights(*reversed(STEPS))
    white, black = [], []
    for shape in SHAPES:
        white.append(rat_path(*shape, wt, black_start=False))
        black.append(rat_path(*shape, swapped))
        for brute in (False, True):
            white.append(BalancedSums(wt, 7).path(*shape, black_start=False, brute=brute))
            black.append(BalancedSums(swapped, 7).path(*shape, brute=brute))
    return white, black


CASES = {
    "z_strip": series_sums(
        lambda g, lad, **kw: [z_strip(i, 2 * k - 1, lad, **kw) for i in (1, 2, 3) for k in (1, 2, 3)]
    ),
    "strip_sum": series_sums(
        lambda g, lad, **kw: [strip_sum(i, (0, *g.g[1:]), lad, **kw) for i in (1, 2, 3, 4)]
    ),
    "z_plus": series_sums(
        lambda g, lad, **kw: [
            z_plus(d, d2, length, lad, floor, **kw)
            for d, d2, length, floor in ((0, 0, 6, None), (1, 3, 4, 0), (3, 0, 5, 0), (2, 2, 4, -2))
        ]
    ),
    "z_plus_profile": series_sums(
        lambda g, lad, **kw: z_plus_profile(1, 8, lad, floor=0, **kw)
    ),
    "f_sequence": series_sums(
        lambda g, lad, **kw: f_sequence(5, g, lad.tail_black, lad.tail_white, **kw)
    ),
    "alpha_coeffs": series_sums(
        lambda g, lad, **kw: list(alpha_coeffs(g, lad.tail_black, lad.tail_white, **kw))
    ),
    "conserved": series_sums(
        lambda g, lad, **kw: [f for d in (0, 1, 2) for f in conserved(3, d, lad, g, **kw)]
    ),
    "rat_path": balanced_sums,
    # the white tally counts the words by their white lower ends
    "word_tally": lambda g, lad: (
        [word_tally(*shape, black_start=False) for shape in SHAPES],
        [word_tally(*shape)[::-1] for shape in SHAPES],
    ),
    # the transfer at the tails, the two link weights exchanged
    "transfer": lambda g, lad: (
        transfer(7, lad.tail_black, lad.tail_white, 1, black_start=False),
        transfer(7, lad.tail_white, lad.tail_black, 1),
    ),
}


@pytest.mark.parametrize(
    "fn",
    [
        *(z_plus, z_plus_profile, z_strip, strip_sum, rat_path, word_tally, BalancedSums.path),
        *(alpha_coeffs, f_sequence, conserved, transfer, zhd, zhd_brute),
    ],
    ids=lambda fn: fn.__qualname__,
)
def test_start_color_is_keyword_only(fn):
    # a positional start color, such as a leftover string, must not bind
    param = inspect.signature(fn).parameters["black_start"]
    assert (param.kind, param.default) == (param.KEYWORD_ONLY, True)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def solved(request):
    g = FAMILIES[request.param]
    return g, ladder_solve(g, SeriesRing(2, ORDER))


def fields(value):
    """Everything a series stores, ``reliable`` included; other values as they are."""
    if isinstance(value, MSeries):
        return value.nums, value.den, value.order, value.reliable
    return value


@pytest.mark.parametrize("name", sorted(CASES))
def test_white_start_is_the_color_swap_of_black_start(solved, name):
    white, black = CASES[name](*solved)
    assert len(white) == len(black) > 0
    assert [fields(v) for v in white] == [fields(v) for v in black]

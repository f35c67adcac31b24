"""Map-level oracle: small vertex-bicolored planar maps counted one by one.

Every route of the library starts from the slice decomposition, so they
could all agree with each other and still all be wrong.  Here the two-point
functions are counted from the maps themselves.  Labeled polygons, one of
degree 2k per face of weight g_k, are glued along their sides by every
perfect matching.  A side is a dart running along its face, and the darts
leaving one vertex are a cycle of d -> next(alpha(d)), with alpha the
matching and next the following side of the same face.  A gluing is a
planar map if it is connected and V - E + F = 2; it is kept if it is also
bipartite, and then counted with both colorings.  Each (gluing, root dart,
marked vertex) weighs prod_k g_k^n_k / (n_k! (2k)^n_k), which is the
weight of the rooted pointed map once the labelings are summed over.

G_black_i then collects the root darts that run from a black vertex at
distance i from the marked vertex to one at distance i - 1, as a
polynomial in t_black and t_white counting the vertices of each color
(``twopoint_from_ladder``); G_white_i does the same for white.  The white
counts come from the maps directly, not from the color swap the ladder
solvers use.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from bicmaps.rational import rat
from bicmaps.series import SeriesRing
from bicmaps.slices import FaceWeights, ladder_solve, twopoint_from_ladder


def gluings(size: int):
    """Every perfect matching of the sides 0..size-1, as an involution."""
    alpha = [-1] * size

    def extend(first):
        while first < size and alpha[first] >= 0:
            first += 1
        if first == size:
            yield alpha
            return
        for other in range(first + 1, size):
            if alpha[other] < 0:
                alpha[first], alpha[other] = other, first
                yield from extend(first + 1)
                alpha[first] = alpha[other] = -1

    return extend(0)


def distances(adjacent, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adjacent[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def count_faces(degrees, weight, table):
    """Add the maps glued from faces of the given degrees to ``table``.

    ``table[color, i]`` maps (black vertices, white vertices) to the summed
    weight of the root darts of that color at distance i.
    """
    nxt = []
    for deg in degrees:
        first = len(nxt)
        nxt += [first + (j + 1) % deg for j in range(deg)]
    size = len(nxt)
    edges, faces = size // 2, len(degrees)
    for alpha in gluings(size):
        vertex = [-1] * size
        count = 0
        for d in range(size):
            if vertex[d] >= 0:
                continue
            e = d
            while vertex[e] < 0:
                vertex[e] = count
                e = nxt[alpha[e]]
            count += 1
        if count - edges + faces != 2:
            continue
        tail, head = vertex, [vertex[nxt[d]] for d in range(size)]
        adjacent = defaultdict(set)
        for a, b in zip(tail, head):
            adjacent[a].add(b)
        parity = distances(adjacent, 0)
        if len(parity) < count or any(parity[a] % 2 == parity[b] % 2 for a, b in zip(tail, head)):
            continue  # not connected, or not bipartite
        for marked in range(count):
            dist = distances(adjacent, marked)
            for a, b in zip(tail, head):
                if dist[b] != dist[a] - 1:
                    continue
                for flip in (0, 1):  # both colorings, 0 the color of vertex 0
                    black = sum((parity[v] + flip) % 2 == 0 for v in range(count))
                    color = (parity[a] + flip) % 2
                    table[color, dist[a]][black, count - black] += weight


def twopoint_census(g: FaceWeights, order: int) -> dict:
    """G_{color}_i (color 0 black, 1 white) through ``order`` vertices."""
    if g.weight(1):
        raise ValueError("bigons add no vertex, so no order bounds their number")
    kinds = [k for k in range(2, g.p + 2) if g.weight(k)]
    table = defaultdict(lambda: defaultdict(Fraction))
    ranges = [range((order - 2) // (k - 1) + 1) for k in kinds]
    for counts in product(*ranges):
        if not any(counts) or 2 + sum((k - 1) * n for k, n in zip(kinds, counts)) > order:
            continue
        weight = Fraction(1)
        degrees = []
        for k, n in zip(kinds, counts):
            weight *= Fraction(g.weight(k)) ** n / (factorial(n) * (2 * k) ** n)
            degrees += [2 * k] * n
        count_faces(degrees, weight, table)
    return table


# face weights, order, and how many nonzero coefficients the census finds
CASES = {
    "quad": (FaceWeights.quadrangulations(), 5, 38),
    "hex": (FaceWeights.hexangulations(), 6, 42),
    "0,1/3,2": (FaceWeights((rat(0), rat(1, 3), rat(2))), 4, 18),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_point_functions_count_small_maps(name):
    g, order, nonzero = CASES[name]
    census = twopoint_census(g, order)
    assert sum(1 for terms in census.values() for c in terms.values() if c) == nonzero
    ladder = ladder_solve(g, SeriesRing(2, order), height=order + 1)
    table = twopoint_from_ladder(ladder, order)
    for i in range(1, order + 1):
        for color, series in enumerate((table.g_black(i), table.g_white(i))):
            assert series.reliable == order
            counted = {e: c for e, c in census[color, i].items() if c}
            assert dict(series.terms()) == counted, (name, color, i)

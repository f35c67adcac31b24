"""Map-level oracle: small vertex-bicolored planar maps counted one by one.

Every route of the library starts from the slice decomposition, so they
could all agree with each other and still all be wrong.  Here the two-point
functions are counted from the maps themselves, which a peeling generates,
each rooted map exactly once.  A side is a dart running along its face, the
sides of a face are numbered in face order, and the root dart is side 0 of
the root face.  A hole is the cyclic list of open sides around an
unexplored region, and the peeling keeps a stack of them, starting from the
root face's sides.  The first side of the top hole is glued either to a
side at odd distance along the same hole, which splits it into the sides
between and the sides after, each filled in turn, or to side 0 of a new
face, whose other sides enter the hole in face order ahead of its remaining
sides.  Sides of different holes are never glued, so every map is planar,
and the map forces each choice, so none comes twice.  The darts leaving one
vertex are a cycle of d -> next(alpha(d)), with alpha the gluing and next
the following side of the same face.  Every face has even degree, so every
map is bipartite and is counted with both colorings, each with every marked
vertex, and weighs prod_k g_k^n_k.  The generator's own check is Tutte's
census of slicings (Canad. J. Math. 1962): 2 e!/v! prod_k C(2k - 1, k)^n_k /
n_k! rooted maps with n_k faces of degree 2k, e edges and v vertices.

G_black_i then collects the root darts that run from a black vertex at
distance i from the marked vertex to one at distance i - 1, as a
polynomial in t_black and t_white counting the vertices of each color
(``twopoint_from_ladder``); G_white_i does the same for white.  The white
counts come from the maps directly, not from the color swap the ladder
solvers use.  The same pass counts the rooted maps with no marked vertex,
which t_b F_1 - t_b t_w must equal on the maps whose root dart leaves a
black vertex.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest

from bicmaps.rational import rat
from bicmaps.series import SeriesRing
from bicmaps.slices import FaceWeights, f_sequence, ladder_solve, twopoint_from_ladder


def rooted_maps(degrees, room: int):
    """Every rooted planar map whose faces have degrees in ``degrees``, all
    even and at least 4, and whose vertex excess sum_faces (degree/2 - 1)
    is at most ``room``, once each, as (next, alpha, face degrees).

    The lists are reused: read each map before asking for the next one.
    """
    nxt, alpha, faces = [], [], []

    def new_face(deg):
        first = len(nxt)
        nxt.extend(first + (j + 1) % deg for j in range(deg))
        alpha.extend([-1] * deg)
        faces.append(deg)
        return list(range(first, first + deg))

    def drop_face():
        deg = faces.pop()
        del nxt[-deg:], alpha[-deg:]

    def fill(holes, room):
        if not holes:
            yield nxt, alpha, faces
            return
        *below, hole = holes
        a, rest = hole[0], hole[1:]
        for m in range(0, len(rest), 2):  # rest[m] lies at odd distance m + 1
            alpha[a], alpha[rest[m]] = rest[m], a
            yield from fill(below + [h for h in (rest[m + 1 :], rest[:m]) if h], room)
        for deg in degrees:
            if deg // 2 - 1 <= room:
                sides = new_face(deg)
                alpha[a], alpha[sides[0]] = sides[0], a
                yield from fill(below + [sides[1:] + rest], room - deg // 2 + 1)
                drop_face()

    for deg in degrees:
        if deg // 2 - 1 <= room:
            yield from fill([new_face(deg)], room - deg // 2 + 1)
            drop_face()


def vertices(nxt, alpha) -> list[int]:
    """The vertex each side leaves: the orbits of d -> next(alpha(d))."""
    vertex = [-1] * len(nxt)
    count = 0
    for d in range(len(nxt)):
        if vertex[d] < 0:
            e = d
            while vertex[e] < 0:
                vertex[e] = count
                e = nxt[alpha[e]]
            count += 1
    return vertex


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


def twopoint_census(g: FaceWeights, order: int) -> tuple[dict, dict]:
    """G_{color}_i (color 0 black, 1 white) and the rooted maps with no
    marked vertex, through ``order`` vertices, from one pass over the maps.

    ``table[color, i]`` maps (black vertices, white vertices) to the summed
    weight of the maps whose root dart has that color at distance i;
    ``rooted`` maps them to the summed weight of the maps whose root dart
    leaves a black vertex.
    """
    if g.weight(1):
        raise ValueError("bigons add no vertex, so no order bounds their number")
    weight = {2 * k: Fraction(g.weight(k)) for k in range(2, g.p + 2) if g.weight(k)}
    table = defaultdict(lambda: defaultdict(Fraction))
    rooted = defaultdict(Fraction)
    for nxt, alpha, faces in rooted_maps(sorted(weight), order - 2):
        vertex = vertices(nxt, alpha)
        count = max(vertex) + 1
        adjacent = defaultdict(set)
        for d, v in enumerate(vertex):
            adjacent[v].add(vertex[nxt[d]])
        parity = distances(adjacent, 0)
        tail, head = vertex[0], vertex[nxt[0]]
        value = prod(weight[deg] for deg in faces)
        black = sum(parity[v] % 2 == parity[tail] % 2 for v in range(count))
        rooted[black, count - black] += value
        for marked in range(count):
            dist = distances(adjacent, marked)
            if dist[head] != dist[tail] - 1:
                continue
            for flip in (0, 1):  # both colorings, 0 the color of vertex 0
                black = sum((parity[v] + flip) % 2 == 0 for v in range(count))
                table[(parity[tail] + flip) % 2, dist[tail]][black, count - black] += value
    return table, rooted


def test_peeling_meets_tutte_census():
    # every face multiset over degrees 4, 6 and 8 with vertex excess at most
    # 5, each map with v - e + f = 2
    found = Counter()
    for nxt, alpha, faces in rooted_maps((4, 6, 8), 5):
        assert max(vertices(nxt, alpha)) + 1 - len(nxt) // 2 + len(faces) == 2
        found[tuple(sorted(faces))] += 1
    tutte = {}
    for n in range(1, 6):
        for faces in combinations_with_replacement((4, 6, 8), n):
            if sum(deg // 2 - 1 for deg in faces) <= 5:
                e = sum(faces) // 2
                count = Fraction(2 * factorial(e), factorial(e - n + 2))
                for deg, n_k in Counter(faces).items():
                    count *= Fraction(comb(deg - 1, deg // 2) ** n_k, factorial(n_k))
                tutte[faces] = count
    assert (len(found), sum(found.values())) == (15, 16478)
    assert found == tutte


# face weights, order, and how many nonzero coefficients the census finds in
# the two-point table and in the rooted maps through F_1's reliable bound
CASES = {
    "quad": (FaceWeights.quadrangulations(), 7, 110, 14),
    "hex": (FaceWeights.hexangulations(), 8, 98, 8),
    "0,1/3,2": (FaceWeights((rat(0), rat(1, 3), rat(2))), 6, 68, 9),
    "oct": (FaceWeights((rat(0), rat(0), rat(0), rat(1))), 8, 76, 4),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_point_functions_count_small_maps(name):
    g, order, nonzero, rooted_nonzero = CASES[name]
    census, rooted = twopoint_census(g, order)
    assert sum(1 for terms in census.values() for c in terms.values() if c) == nonzero
    ring = SeriesRing(2, order)
    ladder = ladder_solve(g, ring, height=order + 1)
    table = twopoint_from_ladder(ladder, order)
    for i in range(1, order + 1):
        for color, series in enumerate((table.g_black(i), table.g_white(i))):
            assert series.reliable == order
            counted = {e: c for e, c in census[color, i].items() if c}
            assert dict(series.terms()) == counted, (name, color, i)
    # t_b F_1 - t_b t_w counts the rooted maps whose root dart leaves a black
    # vertex: the moment route's input against the maps, not the slices
    tb, tw = ring.gens()
    f1 = f_sequence(1, g, ladder.tail_black, ladder.tail_white)[1]
    assert f1.reliable == order - 1
    moment = {e: c for e, c in (tb * f1 - tb * tw).terms() if sum(e) <= f1.reliable}
    counted = {e: c for e, c in rooted.items() if c and sum(e) <= f1.reliable}
    assert len(counted) == rooted_nonzero
    assert moment == counted, name

"""Layered upward drawings of planarly ordered graphs.

The layout stacks the elementary layers of a graph as horizontal bands,
flow running down the page or up it.  The lines between the bands are the
lines of the peel walk of the elementary decomposition, one band per
internal vertex, with no factor built and no name made: line 0 lists the
inputs in order, and line j the outputs of the j-th layer from the top,
which are the interface the decomposition glues there.  Each edge sits on
each line it lies on at its place, 1-based, in that line.  Each vertex's
legs are one block of the line above it and one block of the line below
it; routing them to the mean of their places and everything else
straight across keeps the drawing planar.
All coordinates are exact: points on the crossing lines, the box and the
bands are plain ints, and only the vertices (x at the centroid of their
legs, y halfway between two lines) and the st apexes carry a ``Fraction``.

Each variant, either flow with or without the st apexes, is placed in one
pass: flowing up puts line k at y = K - k in place of k, and the apexes are
placed before the routes that start or end at them.  No drawing is copied
from another.

``check_drawing`` verifies monotonicity, boundary attachment, and that no
two routes meet except at a vertex where both of them start or end.  It
reads each point once, as the ints (X, Y, W) with x = X/W and y = Y/W (a
point of two ints as itself, any other once per call, memoized by the
point object), and every test after that is on ints: the route points'
lines, the monotone and boundary tests, and a sweep of the horizontal
strips between the lines, where every x on a line is an int over that
line's own denominator.  Only the segment pairs that may meet in a strip
(their left-to-right order changes or ties there, but for two legs
leaving a vertex apart; they share a point that is no vertex or lies
inside a route; or one is horizontal) reach the exact intersection test,
scaled to the denominators of that pair alone.  No pair is decided with
floats or a tolerance, and no ``Fraction`` is built, compared or hashed
per segment.  The checker, ``read_back`` and the renderers refuse a
coordinate that is not an int or a ``Fraction`` with ``PpgError``, and the
renderers one too large for their floats; a drawing of plain tuples, ints
and ``Fraction`` objects passes that gate in C-level passes.
``read_back`` recovers the vertex orders and anchors from coordinates
alone, keying route ends and vertices by the same ints, which ties the
picture back to the combinatorics it came from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress, count, islice, product, repeat
from math import gcd, lcm, log10
from operator import and_, attrgetter, eq, ge, gt, itemgetter, le, lt, ne, not_, sub

from .composition import _walk
from .core import ProgressiveGraph, _apexes
from .errors import PpgError, _expect_type
from .order import POPGraph
from .synthesis import Anchor, PAGraph, VertexOrder

# a coordinate is an int on the crossing lines, a Fraction where a
# denominator can arise (vertex centroids and half-integer y, st apexes)
Point = tuple[Fraction | int, Fraction | int]

_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)
_NUM = attrgetter("numerator")


@dataclass(frozen=True)
class Drawing:
    """A routed drawing: polylines per edge, one point per internal vertex.

    ``flow`` says which way the y axis carries the graph ("down": tails at
    smaller y).  ``box`` frames the banded region; the source/sink apexes of
    an st drawing sit outside it.  Route points run tail to head.
    """
    flow: str
    box: tuple[Fraction | int, Fraction | int, Fraction | int, Fraction | int]
    bands: tuple[tuple[Fraction | int, Fraction | int], ...]
    vertices: dict[str, Point]
    routes: dict[str, tuple[Point, ...]]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    st: bool = False
    source: str | None = None
    sink: str | None = None

    @property
    def width(self) -> Fraction | int:
        return self.box[2] - self.box[0]

    @property
    def height(self) -> Fraction | int:
        return self.box[3] - self.box[1]


def layout(pop: POPGraph, up: bool = False) -> Drawing:
    """Layered drawing of a planarly ordered graph, one band per internal
    vertex (one band in all when there is none).

    The lines between the bands are those of the peel walk of the
    elementary decomposition: the j-th vertex peeled (0-based, most
    downstream first) sits in band K - j, between the walk's line after it
    (line K - j - 1) and its line before it (line K - j).  Line k lies at
    y = k, or with ``up`` at y = K - k, so that the flow runs up the page
    without a flipped copy of the drawing.
    """
    return _layout(_expect_type(pop, "layout", POPGraph), up, st=False)


def layout_st(pop: POPGraph, up: bool = False) -> Drawing:
    """Drawing of the graph with its boundary gathered into apexes s and t."""
    return _layout(_expect_type(pop, "layout_st", POPGraph), up, st=True)


def _layout(pop: POPGraph, up: bool, st: bool) -> Drawing:
    """``layout`` or, with ``st``, ``layout_st``: every point is placed once,
    at its final coordinates."""
    _expect_type(up, "up", bool)
    source, sink = _apexes(pop.graph) if st else (None, None)
    steps = list(_walk(pop))
    steps.reverse()  # upstream first: steps[j] lies between lines j and j + 1
    k_bands = max(len(steps), 1)
    inputs, outputs = pop.inputs_ordered, pop.outputs_ordered
    lines = [inputs, *[step.before for step in steps]] if steps else [inputs, outputs]
    width = max(map(len, lines)) + 1
    ys = list(range(k_bands, -1, -1) if up else range(k_bands + 1))  # a list indexes faster

    # each route is its tail's point, its places on the lines it lies on,
    # top to bottom, and its head's point
    routes: dict[str, list[Point]] = {e: [] for e in pop.order.sequence}
    vertices: dict[str, Point] = {}
    if st:
        # centred, one unit beyond the input and the output line
        unit = ys[1] - ys[0]
        top = (Fraction(width, 2), Fraction(ys[0] - unit))
        bottom = (Fraction(width, 2), Fraction(ys[-1] + unit))
        for e in inputs:
            routes[e].append(top)
    for j, line in enumerate(lines):
        if j and steps:
            # the mean of the places of the legs, which are the block
            # k + 1 .. k + i of line j - 1 and k + 1 .. k + o of line j
            v, k, ins, outs, _, _ = steps[j - 1]
            i, o = len(ins), len(outs)
            n = i + o
            p = vertices[v] = (Fraction(n * k + (i * i + i + o * o + o) // 2, n),
                               Fraction(ys[j - 1] + ys[j], 2))
            for e in chain(ins, outs):
                routes[e].append(p)
        y = ys[j]
        for x, e in enumerate(line, 1):
            routes[e].append((x, y))
    if st:
        vertices[source], vertices[sink] = top, bottom
        for e in outputs:
            routes[e].append(bottom)

    # the box and the bands, all whole numbers, are the same in both flows
    return Drawing(
        flow="up" if up else "down",
        box=(0, 0, width, k_bands),
        # a tuple of a list, not of an iterator: see POPGraph.inputs_ordered
        bands=tuple(list(zip(range(k_bands), range(1, k_bands + 1)))),
        vertices=vertices,
        routes={e: tuple(route) for e, route in routes.items()},
        inputs=inputs,
        outputs=outputs,
        st=st,
        source=source,
        sink=sink,
    )


@dataclass(frozen=True)
class DrawingReport:
    ok: bool
    problems: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def check_drawing(d: Drawing) -> DrawingReport:
    """Exact verification: monotone routes, boundary attachment, no crossings.

    Every point is read once, as ints (``_read``), and every test is decided
    on those ints.  Crossings are found by a sweep over horizontal strips,
    not by testing every pair of segments: see ``_crossings``.  The problems
    are listed in the order of a pair scan, route by route, then segment by
    segment.  Two routes may meet only at a drawn vertex where each of them
    starts or ends.
    """
    _require_coordinates(_expect_type(d, "check_drawing", Drawing))
    problems: list[str] = []
    down, y_in, y_out = _boundary_ys(d)
    names = list(d.routes)
    sizes = list(map(len, d.routes.values()))
    # the points of the routes of two points or more, route by route
    pts = list(chain.from_iterable(compress(d.routes.values(), map(ge, sizes, repeat(2)))))
    memo: dict[int, tuple] = {}
    qs, ys = zip(*_read(pts, memo)) if pts else ((), ())
    # the lines: the distinct y, in increasing order, as (n, m) with y = n/m
    lines = [(y, 1) if type(y) is int else y for y in set(ys)]
    w = lcm(*[m for _, m in lines])
    lines.sort(key=lambda y: y[0] * (w // y[1]))
    line = {(n if m == 1 else (n, m)): k for k, (n, m) in enumerate(lines)}
    ks = list(map(line.__getitem__, ys))

    step = lt if down else gt
    o = 0
    for e, n in zip(names, sizes):
        if n < 2:
            problems.append(f"route {e}: fewer than two points")
            continue
        k = ks[o:o + n]
        if not all(map(step, k, k[1:])):
            problems.append(f"route {e}: not monotone in the flow direction")
        o += n

    vertex = dict(zip(d.vertices, map(_FIRST, _read(d.vertices.values(), memo))))
    if d.st:
        problems += [f"apex {v}: not among the vertices"
                     for v in (d.source, d.sink) if v not in d.vertices]
    for start, side, edges, y in ((True, "input", d.inputs, y_in),
                                  (False, "output", d.outputs, y_out)):
        verb, kind, apex = ("start", "source", d.source) if start else ("end", "sink", d.sink)
        y = _y_of(y)
        for e in edges:
            if e not in d.routes:
                problems.append(f"{side} {e}: has no route")
            elif len(d.routes[e]) < 2:
                continue
            elif d.st and (_read([d.routes[e][0 if start else -1]], memo)[0][0]
                           != vertex.get(apex)):
                problems.append(f"{side} {e}: does not {verb} at the {kind} apex")
            elif _read([_attachment(d, e, start)], memo)[0][1] != y:
                problems.append(f"{side} {e}: does not "
                                f"{'meet' if d.st else verb + ' on'} the {side} boundary")

    allowed = set(vertex.values())
    problems += _crossings(names, sizes, qs, ks, lines, allowed)
    return DrawingReport(not problems, tuple(problems))


def _read(points, memo: dict[int, tuple]) -> list[tuple[tuple[int, int, int], int | tuple]]:
    """Each point as its ``_ints`` triple and its y as ``_y_of`` gives it,
    so that equal points read alike whatever the types of their
    coordinates.  A point of two ints is its own reading; any other is read
    once per ``memo``, keyed by the point object, which the caller keeps
    alive.  No coordinate is hashed or compared."""
    out = []
    for p in points:
        x, y = p
        if type(x) is int and type(y) is int:
            out.append(((x, y, 1), y))
            continue
        r = memo.get(id(p))
        if r is None:
            r = memo[id(p)] = _ints(p), _y_of(y)
        out.append(r)
    return out


def _y_of(y: Fraction | int) -> int | tuple[int, int]:
    """y as an int, or as (n, m) with y = n/m in lowest terms and m > 1."""
    n, m = y.numerator, y.denominator
    return n if m == 1 else (n, m)


def _crossings(names: list[str], sizes: list[int], qs: tuple[tuple[int, int, int], ...],
               ks: list[int], lines: list[tuple[int, int]],
               allowed: set[tuple[int, int, int]]) -> list[str]:
    """One problem per pair of segments on distinct routes that meet, other
    than at a drawn vertex where both routes start or end.

    ``qs`` and ``ks`` give, per point of the routes whose ``sizes`` are two
    or more, route by route, its ``_ints`` triple and its line: the index of
    its y in ``lines``, the distinct y as (n, m) with y = n/m, increasing.
    ``allowed`` holds the triples of the vertices.

    The plane is cut into strips between consecutive lines; inside a strip
    every segment that is not horizontal runs straight from the top line to
    the bottom line.  Two segments can meet only if (a) in some strip their
    order by x changes between the top and the bottom line, or ties at
    either line, (b) they share an endpoint, which covers two segments
    meeting at one point from opposite sides of a line, or (c) one is
    horizontal (a single point included) and the other's closed y-range
    holds its y.  Only those candidates reach the exact test ``_meet``.
    Sorting a strip by (top x, bottom x descending) and inserting each
    segment by bottom x past every earlier one at or right of it lists every
    pair of (a), at a cost of the pairs listed.

    Two legs of a vertex, on routes that start or end there, meet only
    there, which is allowed, unless they run along one ray.  So (b) lists
    only the segments at a point that is no vertex or lies inside a route:
    legs on one side of a vertex tie in (a), and legs on opposite sides meet
    only at it.  And at a free point, a vertex where every segment meeting
    its spot is such a leg, a leg's x counts as (x, its x at the strip's
    other line): the tie breaks the way the legs leave the vertex, and (a)
    lists two legs only when they share a ray.  A strip whose order at the
    bottom line is its order at the top is not swept at all; in a clean
    layout no strip is swept and no pair is listed.

    Exactness is kept on ints.  On line k every x is an int over
    ``scale[k]``, the lcm of the denominators of the x on that line alone,
    so strips sort on ints, and each candidate pair is scaled to the lcm of
    its own four ``W``: the cost of a pair never depends on the rest of the
    drawing.
    """
    # segment g runs from point a to point a + 1 of one route
    first, edge = [True] * len(qs), [False] * len(qs)
    route, ends = [], {}
    o = 0
    for i, n in enumerate(sizes):
        if n >= 2:
            first[o + n - 1] = False
            edge[o] = edge[o + n - 1] = True
            route += [i] * (n - 1)
            ends[i] = qs[o], qs[o + n - 1]
            o += n
    qa, qb = list(compress(qs, first)), list(compress(qs[1:], first))
    ka, kb = list(compress(ks, first)), list(compress(ks[1:], first))

    # the x of a segment on each line it crosses between its ends, and each
    # line's scale
    scale = [1] * len(lines)
    for k, w in set(zip(ks, map(_THIRD, qs))):
        scale[k] = lcm(scale[k], w)
    inner = []  # (segment, line, numerator, denominator)
    for g, p, q, lo, hi in compress(zip(count(), qa, qb, ka, kb),
                                    map(gt, map(abs, map(sub, kb, ka)), repeat(1))):
        if lo > hi:
            p, q, lo, hi = q, p, hi, lo
        (xp, yp, wp), (xq, yq, wq) = p, q
        for k in range(lo + 1, hi):
            # x = (xp (yq - y) + xq (y - yp)) / (yq - yp) at y = n/m, on ints
            n, m = lines[k]
            den = m * (yq * wp - yp * wq)
            inner.append((g, k, xp * (yq * m - n * wq) + xq * (n * wp - yp * m), den))
            scale[k] = lcm(scale[k], den)
    keys = [x * (scale[k] // w) for (x, _, w), k in zip(qs, ks)]
    inner = [(g, k, num * (scale[k] // den), False) for g, k, num, den in inner]

    # the free points: ends of routes at a vertex, with no other point or
    # crossing on their spot
    ok = list(map(and_, edge, map(allowed.__contains__, qs)))
    taken = set(compress(zip(ks, keys), ok)).intersection(
        chain(compress(zip(ks, keys), map(not_, ok)), ((k, x) for _, k, x, _ in inner)))
    free = (list(map(and_, ok, map(not_, map(taken.__contains__, zip(ks, keys)))))
            if taken else ok)

    # every point where a segment meets a line, as (segment, line, x, free),
    # and per strip its segments as (strip, top x, tie, -bottom x, tie,
    # segment): a tie is 0 but at a free point, where it is the x at the
    # other line, negated at the bottom
    steep = list(map(ne, ka, kb))
    meets = inner + list(compress(zip(count(), ka, compress(keys, first),
                                      compress(free, first)), steep))
    meets += compress(zip(count(), kb, compress(keys[1:], first), compress(free[1:], first)),
                      steep)
    meets.sort()
    entries = [(k, x, y * f, -y, -x * e, g)
               for (g, k, x, f), (h, _, y, e) in zip(meets, islice(meets, 1, None)) if g == h]
    del meets, inner  # the largest lists but the entries: freed before their sort
    entries.sort()

    found = []  # pairs of segments, either way round
    strip = list(map(_FIRST, entries))
    below = list(zip(map(itemgetter(3), entries), map(itemgetter(4), entries)))
    # only a strip where some segment ends at or right of the next is swept
    for k in set(compress(strip[1:], map(and_, map(eq, strip, strip[1:]),
                                         map(le, below, below[1:])))):
        bottoms, placed = [], []
        for i in range(bisect_left(strip, k), bisect_right(strip, k)):
            # the placed segments ending at or right of this one
            j = bisect_right(bottoms, below[i])
            if j:
                found += zip(placed[:j], repeat(entries[i][5]))
            bottoms.insert(j, below[i])
            placed.insert(j, entries[i][5])
    flat = list(compress(count(), map(eq, ka, kb)))
    if flat:
        strips: list[list[int]] = [[] for _ in lines]
        for k, g in zip(strip, map(itemgetter(5), entries)):
            strips[k].append(g)
        level: dict[int, list[int]] = {}
        for g in flat:
            level.setdefault(ka[g], []).append(g)
        for k, group in level.items():
            found += product(group, group + (strips[k - 1] if k else []) + strips[k])
    pairs = {(g, h) if g < h else (h, g) for g, h in found if g != h}
    # (b): the segments at a point listed twice or more that is no vertex or
    # lies inside a route
    seen = Counter(qs)
    shared = set(compress(qs, map(gt, map(seen.__getitem__, qs), repeat(1))))
    shared = shared - allowed | shared.intersection(compress(qs, map(not_, edge)))
    if shared:
        at: dict[tuple[int, int, int], list[int]] = {}
        for g, (p, q) in enumerate(zip(qa, qb)):
            if p in shared:
                at.setdefault(p, []).append(g)
            if q != p and q in shared:
                at.setdefault(q, []).append(g)
        for group in at.values():
            pairs.update(combinations(group, 2))

    problems = []
    for g, h in pairs:
        i, j = route[g], route[h]
        if i == j:
            continue
        hit = _meet(qa[g], qb[g], qa[h], qb[h])
        if hit is None:
            continue
        kind, p = hit
        if kind == "point" and p in allowed and p in ends[i] and p in ends[j]:
            continue
        problems.append(((i, j, g, h), f"routes {names[i]} and {names[j]} cross near "
                                       f"({_decimal(p[0], p[2])}, {_decimal(p[1], p[2])})"))
    return [message for _, message in sorted(problems)]


def _decimal(n: int, w: int) -> str:
    """n/w to three decimals, rounded once as float of a Fraction is; beyond
    the float range, as "d.ddde+E", E first estimated by logarithms."""
    try:
        return f"{n / w:.3f}"
    except OverflowError:
        e = int(log10(abs(n)) - log10(w))
        mantissa, exponent = f"{n / (w * 10 ** e):.3e}".split("e")
        return f"{mantissa}e+{e + int(exponent)}"


def _ints(p: Point) -> tuple[int, int, int]:
    """The point (x, y) as ints (X, Y, W) with x = X/W, y = Y/W and W the
    lcm of the denominators: one triple per point, so it can key a dict."""
    x, y = p
    dx, dy = x.denominator, y.denominator
    w = lcm(dx, dy)
    return x.numerator * (w // dx), y.numerator * (w // dy), w


def _meet(q1, q2, q3, q4):
    """Exact intersection of two closed segments, their points given as
    ``_ints`` triples.

    None when disjoint; ("point", P) for a single shared point; for
    collinear overlap beyond a point, ("overlap", P) with P in the overlap,
    as a reduced triple.  Either segment may be a single point; whether they
    meet does not depend on which one comes first.  The four points are
    scaled to the lcm of their own ``W`` (1 for two segments between
    crossing lines), so every test is a sign test on ints: with t = tn/den
    along the first segment and u = un/den along the second, they meet when
    0 <= tn <= den and 0 <= un <= den.  A meeting point at an end of a
    segment is that end; any other is reduced by a gcd.
    """
    w = lcm(q1[2], q2[2], q3[2], q4[2])
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = [
        (x * (w // c), y * (w // c)) for x, y, c in (q1, q2, q3, q4)]
    dx1, dy1, dx2, dy2 = x2 - x1, y2 - y1, x4 - x3, y4 - y3
    wx, wy = x3 - x1, y3 - y1
    den = dx1 * dy2 - dy1 * dx2
    un = wx * dy1 - wy * dx1
    if den == 0:
        if un != 0:
            return None
        # collinear: compare parameter intervals along the first segment,
        # scaled by its squared length l2
        l2 = dx1 * dx1 + dy1 * dy1
        if l2 == 0:
            # the first segment is a single point: meet it from the second's
            # side, so that the answer does not depend on the argument order
            if dx2 == dy2 == 0:
                return ("point", q1) if (x1, y1) == (x3, y3) else None
            return _meet(q3, q4, q1, q2)
        t3 = wx * dx1 + wy * dy1
        t4 = (x4 - x1) * dx1 + (y4 - y1) * dy1
        lo, hi = max(min(t3, t4), 0), min(max(t3, t4), l2)
        if lo > hi:
            return None
        # the midpoint of the overlap, at t = (lo + hi) / (2 l2)
        s = 2 * l2
        p = _reduced(x1 * s + (lo + hi) * dx1, y1 * s + (lo + hi) * dy1, s * w)
        return ("point", p) if lo == hi else ("overlap", p)
    tn = wx * dy2 - wy * dx2
    if den < 0:
        den, tn, un = -den, -tn, -un
    if not (0 <= tn <= den and 0 <= un <= den):
        return None
    if tn == 0 or tn == den:
        return ("point", q1 if tn == 0 else q2)
    if un == 0 or un == den:
        return ("point", q3 if un == 0 else q4)
    return ("point", _reduced(x1 * den + tn * dx1, y1 * den + tn * dy1, den * w))


def _reduced(x: int, y: int, w: int) -> tuple[int, int, int]:
    """(x, y, w) divided by their gcd, w > 0: the ``_ints`` of x/w, y/w."""
    g = gcd(x, y, w)
    return x // g, y // g, w // g


def _boundary_ys(d: Drawing) -> tuple[bool, Fraction, Fraction]:
    """Whether the flow runs down, and the y of the input and output lines."""
    down = d.flow == "down"
    y_in, y_out = (d.box[1], d.box[3]) if down else (d.box[3], d.box[1])
    return down, y_in, y_out


# the fields the checks and renderers read, with the types they take
_FIELDS = (("flow", (str,)), ("box", (tuple,)), ("vertices", (dict,)), ("routes", (dict,)),
           ("inputs", (tuple,)), ("outputs", (tuple,)), ("st", (bool,)),
           ("source", (str, type(None))), ("sink", (str, type(None))))

# below this magnitude a renderer's floats (coordinates scaled, offset and
# squared in an arrow) stay finite
_RENDER_BOUND = 10 ** 100


def _require_coordinates(d: Drawing, render: bool = False, routes: bool = False) -> None:
    """Raise PpgError, in this order, naming the first field of another type
    than its annotation (an O(1) check each; ``flow`` is "down" or "up"),
    the first member of ``inputs`` or ``outputs`` that is no string (one C
    pass), the first route that is not a tuple or, with ``routes``, has
    fewer than two points, then the first route, vertex or box with a
    point that is not an (x, y) tuple, a coordinate that is not an int or a
    ``Fraction`` (every check here is exact), or, for a renderer, a coordinate of
    magnitude ``_RENDER_BOUND`` or more.  A drawing of plain tuples, ints
    and ``Fraction`` objects is accepted by C-level passes over its points
    and coordinates; only another is walked point by point, to name the
    first one at fault (a subclass of int or ``Fraction`` passes there)."""
    for field, want in _FIELDS:
        value = getattr(d, field)
        if not isinstance(value, want):
            raise PpgError(f"drawing {field} is of type {type(value).__name__}, not "
                           + " or ".join(t.__name__ for t in want))
    if d.flow not in ("down", "up"):
        raise PpgError("drawing flow is neither 'down' nor 'up'")
    if len(d.box) != 4:
        raise PpgError(f"drawing box has {len(d.box)} coordinates, not 4")
    try:
        "".join(d.inputs + d.outputs)  # in one C pass: every member is a string
    except TypeError:
        field, bad = next((f, e) for f in ("inputs", "outputs") for e in getattr(d, f)
                          if not isinstance(e, str))
        raise PpgError(f"drawing {field} has a member of type {type(bad).__name__}, "
                       "not str") from None
    if set(map(type, d.routes.values())) <= {tuple} and (
            not routes or min(map(len, d.routes.values()), default=2) >= 2):
        pts = [*chain.from_iterable(d.routes.values()), *d.vertices.values(),
               d.box[:2], d.box[2:]]
        if set(map(type, pts)) == {tuple} and set(map(len, pts)) == {2}:
            coords = list(chain.from_iterable(pts))
            # a numerator under the bound bounds the value, as denominators are positive
            if set(map(type, coords)) <= {int, Fraction} and (
                    not render or max(map(abs, map(_NUM, coords))) < _RENDER_BOUND):
                return
    for e, pts in d.routes.items():
        if type(pts) is not tuple:
            raise PpgError(f"route of edge {e} is not a tuple of points")
        if routes and len(pts) < 2:
            raise PpgError(f"route of edge {e} has fewer than two points")
    where = [("route of edge", e, pts) for e, pts in d.routes.items()]
    where += [("vertex", v, (p,)) for v, p in d.vertices.items()]
    where.append(("drawing", "box", (d.box[:2], d.box[2:])))
    for kind, name, pts in where:
        for p in pts:
            if type(p) is not tuple or len(p) != 2:
                raise PpgError(f"{kind} {name} has a point that is not an (x, y) tuple")
            for c in p:
                if not isinstance(c, (int, Fraction)):
                    raise PpgError(f"{kind} {name} has a coordinate of type "
                                   f"{type(c).__name__}, not an int or a Fraction")
                if render and not (-_RENDER_BOUND < c < _RENDER_BOUND if type(c) is int
                                   else abs(c.numerator) < _RENDER_BOUND * c.denominator):
                    raise PpgError(f"{kind} {name} has a coordinate too large "
                                   f"to render (magnitude 1e100 or more)")


def _attachment(d: Drawing, e: str, start: bool) -> Point:
    """Where boundary edge e meets its boundary line: the first (``start``)
    or last point of its route, or in an st drawing the one next to the apex.
    Raises PpgError when e has no route; a route has at least two points."""
    pts = d.routes.get(e)
    if pts is None:
        raise PpgError(f"edge {e} has no route")
    skip = 1 if d.st else 0
    return pts[skip] if start else pts[-1 - skip]


def read_back(d: Drawing, g: ProgressiveGraph) -> PAGraph:
    """Recover vertex orders and anchors from coordinates alone.

    Only point positions are consulted (never the planar order), so agreement
    with the order the drawing came from is evidence, not tautology.  A
    route with fewer than two points, or a boundary edge with no route or one
    that does not meet its boundary, raises PpgError.
    """
    _require_coordinates(_expect_type(d, "read_back", Drawing), routes=True)
    _, y_in, y_out = _boundary_ys(d)

    def boundary_x(e: str, start: bool, y: int | tuple[int, int]) -> Fraction | int:
        p = _attachment(d, e, start)
        if _y_of(p[1]) != y:
            raise PpgError(f"edge {e} is not attached to the boundary")
        return p[0]

    y_in, y_out = _y_of(y_in), _y_of(y_out)
    anchor = Anchor(
        tuple(sorted(d.inputs, key=lambda e: boundary_x(e, True, y_in))),
        tuple(sorted(d.outputs, key=lambda e: boundary_x(e, False, y_out))))

    # (x next to the point, edge) per route endpoint, keyed by its triple
    ends: dict[tuple[int, int, int], list] = {}
    starts: dict[tuple[int, int, int], list] = {}
    memo: dict[int, tuple] = {}
    routes = d.routes.values()
    for e, pts, (last, _), (first, _) in zip(d.routes, routes,
                                            _read(map(itemgetter(-1), routes), memo),
                                            _read(map(_FIRST, routes), memo)):
        ends.setdefault(last, []).append((pts[-2][0], e))
        starts.setdefault(first, []).append((pts[1][0], e))
    vertex_orders: dict[str, VertexOrder] = {}
    apexes = {d.source, d.sink}
    for v, (q, _) in zip(d.vertices, _read(d.vertices.values(), memo)):
        if v in apexes:
            continue
        vertex_orders[v] = VertexOrder(
            tuple(e for _, e in sorted(ends.get(q, ()))),
            tuple(e for _, e in sorted(starts.get(q, ()))))
    return PAGraph(g, vertex_orders, anchor)


def _minus(x: Fraction | int, off: Fraction | int) -> float:
    """``float(x - off)`` without building a Fraction: ints and Fractions
    both carry a numerator and a denominator, and int / int rounds the
    exact quotient once, as ``float`` of a Fraction does."""
    return ((x.numerator * off.denominator - off.numerator * x.denominator)
            / (x.denominator * off.denominator))


def _between(a: Fraction | int, b: Fraction | int, k: int) -> float:
    """``float((k a + b) / (k + 1))`` as one int division, which rounds the
    exact value once, as ``float`` of a Fraction does."""
    return ((k * a.numerator * b.denominator + b.numerator * a.denominator)
            / ((k + 1) * a.denominator * b.denominator))


def _fmt(x: Fraction | int | float) -> str:
    return f"{float(x):.2f}"


def render_svg(d: Drawing) -> str:
    """Self-contained SVG: one path per edge, arrowheads at route midpoints,
    filled circles for vertices, a dashed frame around the banded region."""
    _require_coordinates(_expect_type(d, "render_svg", Drawing), render=True, routes=True)
    s = 48.0
    pad = 30.0
    points = list(chain.from_iterable(d.routes.values()))
    ys = [*map(_SECOND, points), d.box[1], d.box[3]]
    # no Fraction is hashed, as its hash is costly: the ints are a set of
    # their own (a mixed set could keep Fraction(3) and drop the int 3), and
    # every other value counts once per object
    int_ys = {y for y in ys if type(y) is int}
    span = [*int_ys, *{id(y): y for y in ys if type(y) is not int}.values()]
    x0, y0 = d.box[0], min(span)
    w = float(d.box[2] - d.box[0]) * s + 2 * pad
    h = float(max(span) - y0) * s + 2 * pad

    def px(p: Point) -> tuple[float, float]:
        return (_minus(p[0], x0) * s + pad, _minus(p[1], y0) * s + pad)

    # each distinct int coordinate of the routes is formatted once, any
    # other where it stands
    fx = {x: f"{_minus(x, x0) * s + pad:.2f}"
          for x in {x for x in map(_FIRST, points) if type(x) is int}}
    fy = {y: f"{_minus(y, y0) * s + pad:.2f}" for y in int_ys}

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
           f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">']
    bx, by = px((d.box[0], d.box[1]))
    out.append(f'<rect x="{bx:.2f}" y="{by:.2f}" '
               f'width="{float(d.width) * s:.2f}" height="{float(d.height) * s:.2f}" '
               f'fill="none" stroke="#999" stroke-dasharray="7 5"/>')
    for e, pts in d.routes.items():
        coords = " L ".join([
            f"{fx[x] if type(x) is int else f'{_minus(x, x0) * s + pad:.2f}'} "
            f"{fy[y] if type(y) is int else f'{_minus(y, y0) * s + pad:.2f}'}" for x, y in pts])
        out.append(f'<path d="M {coords}" fill="none" stroke="#000" '
                   f'stroke-width="1.6"/>')
        out.append(_svg_arrow(pts, px))
    for v, p in d.vertices.items():
        x, y = px(p)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4.5" fill="#000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_arrow(pts: tuple[Point, ...], px) -> str:
    i = (len(pts) - 1) // 2
    ax, ay = px(pts[i])
    bx, by = px(pts[i + 1])
    mx, my = (ax + bx) / 2, (ay + by) / 2
    dx, dy = bx - ax, by - ay
    n = (dx * dx + dy * dy) ** 0.5 or 1.0
    dx, dy = dx / n, dy / n
    ln, wd = 8.0, 3.4
    tipx, tipy = mx + dx * ln / 2, my + dy * ln / 2
    bkx, bky = tipx - dx * ln, tipy - dy * ln
    p1 = (bkx - dy * wd, bky + dx * wd)
    p2 = (bkx + dy * wd, bky - dx * wd)
    return (f'<polygon points="{tipx:.2f},{tipy:.2f} {p1[0]:.2f},{p1[1]:.2f} '
            f'{p2[0]:.2f},{p2[1]:.2f}" fill="#000"/>')


def render_tikz(d: Drawing) -> str:
    """TikZ picture with the same content; y is mirrored for TikZ's up axis."""
    _require_coordinates(_expect_type(d, "render_tikz", Drawing), render=True, routes=True)
    out = [r"\begin{tikzpicture}[x=1.1cm,y=1.1cm,yscale=-1]"]
    out.append(rf"\draw[densely dashed, gray] ({_fmt(d.box[0])},{_fmt(d.box[1])}) "
               rf"rectangle ({_fmt(d.box[2])},{_fmt(d.box[3])});")
    for e, pts in d.routes.items():
        path = " -- ".join(f"({_fmt(p[0])},{_fmt(p[1])})" for p in pts)
        out.append(rf"\draw {path};")
        i = (len(pts) - 1) // 2
        a, b = pts[i], pts[i + 1]
        # a quarter of the way along the segment and halfway
        out.append(rf"\draw[->] ({_fmt(_between(a[0], b[0], 3))},"
                   rf"{_fmt(_between(a[1], b[1], 3))}) -- "
                   rf"({_fmt(_between(a[0], b[0], 1))},{_fmt(_between(a[1], b[1], 1))});")
    for v, p in d.vertices.items():
        out.append(rf"\filldraw ({_fmt(p[0])},{_fmt(p[1])}) circle (2.2pt);")
    out.append(r"\end{tikzpicture}")
    return "\n".join(out) + "\n"

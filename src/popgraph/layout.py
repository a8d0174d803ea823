"""Layered upward drawings of planarly ordered graphs.

The layout stacks the elementary layers of a graph as horizontal bands,
flow running down the page (or up, when flipped).  The bands are read from
the peel order of the elementary decomposition, one band per internal
vertex, without building the factors: an edge crosses every band boundary
from the band of its tail to the band before its head's.  At each boundary
the edges crossing it sit at integer x positions given by their rank in
the planar order restricted to that boundary; because each layer's spider
legs form a contiguous block of its order, routing the legs to a vertex
centroid and everything else straight across keeps the drawing planar.
All coordinates are exact: points on the crossing lines are plain ints, and
only the vertices (x at the centroid of their legs, y halfway between two
lines) and the st apexes carry a ``Fraction``, so the crossing checker can be
exact too.

``check_drawing`` verifies monotonicity, boundary attachment, and that no
two routes meet except at a vertex where both of them start or end.  It
sweeps the horizontal strips between the y values of the route points, so
only the segment pairs that may meet there (their left-to-right order
changes or ties within a strip, they share an endpoint, or one is
horizontal) reach the exact intersection test; no pair is decided with
floats or a tolerance.  ``read_back`` recovers the vertex orders and anchors
from coordinates alone, which ties the picture back to the combinatorics it
came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .composition import _peel_order
from .core import ProgressiveGraph
from .errors import PpgError, ReservedVertexName
from .order import POPGraph
from .synthesis import Anchor, PAGraph, VertexOrder

# a coordinate is an int on the crossing lines, a Fraction where a
# denominator can arise (vertex centroids and half-integer y, st apexes)
Point = tuple[Fraction | int, Fraction | int]


@dataclass(frozen=True)
class Drawing:
    """A routed drawing: polylines per edge, one point per internal vertex.

    ``flow`` says which way the y axis carries the graph ("down": tails at
    smaller y).  ``box`` frames the banded region; the source/sink apexes of
    an st drawing sit outside it.  Route points run tail to head.
    """
    flow: str
    box: tuple[Fraction, Fraction, Fraction, Fraction]
    bands: tuple[tuple[Fraction, Fraction], ...]
    vertices: dict[str, Point]
    routes: dict[str, tuple[Point, ...]]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    st: bool = False
    source: str | None = None
    sink: str | None = None

    @property
    def width(self) -> Fraction:
        return self.box[2] - self.box[0]

    @property
    def height(self) -> Fraction:
        return self.box[3] - self.box[1]


def layout(pop: POPGraph, up: bool = False) -> Drawing:
    """Layered drawing of a planarly ordered graph, one band per internal
    vertex (one band in all when there is none).

    Bands follow the peel order of the elementary decomposition: the j-th
    vertex peeled (0-based, most downstream first) sits in band K - j.
    """
    g = pop.graph
    peeled = list(_peel_order(pop))
    k_bands = max(len(peeled), 1)
    band_of = {v: k_bands - j for j, v in enumerate(peeled)}

    # Crossing lines y=0..K: line k carries the outputs of layer k (equally
    # the inputs of layer k+1), positioned by rank within that line.
    crossed: dict[str, range] = {}
    lines: list[list[str]] = [[] for _ in range(k_bands + 1)]
    for eid in pop.order.sequence:
        edge = g.edge(eid)
        crossed[eid] = range(band_of.get(edge.src, 0), band_of.get(edge.dst, k_bands + 1))
        for k in crossed[eid]:
            lines[k].append(eid)
    pos = [{e: i + 1 for i, e in enumerate(line)} for line in lines]
    width = Fraction(max(len(line) for line in lines) + 1)

    vertices: dict[str, Point] = {}
    for v in reversed(peeled):
        k = band_of[v]
        xs = [pos[k - 1][e.id] for e in g.in_edges(v)]
        xs += [pos[k][e.id] for e in g.out_edges(v)]
        vertices[v] = (Fraction(sum(xs), len(xs)), Fraction(2 * k - 1, 2))

    routes: dict[str, tuple[Point, ...]] = {}
    for eid in pop.order.sequence:
        edge = g.edge(eid)
        pts: list[Point] = []
        if edge.src in band_of:
            pts.append(vertices[edge.src])
        pts += [(pos[k][eid], k) for k in crossed[eid]]
        if edge.dst in band_of:
            pts.append(vertices[edge.dst])
        routes[eid] = tuple(pts)

    line_ys = [Fraction(k) for k in range(k_bands + 1)]
    d = Drawing(
        flow="down",
        box=(line_ys[0], line_ys[0], width, line_ys[-1]),
        bands=tuple(zip(line_ys[:-1], line_ys[1:])),
        vertices=vertices,
        routes=routes,
        inputs=pop.inputs_ordered,
        outputs=pop.outputs_ordered,
    )
    return _flip(d) if up else d


def layout_st(pop: POPGraph, up: bool = False) -> Drawing:
    """Drawing of the graph with its boundary gathered into apexes s and t."""
    for name in ("s", "t"):
        if name in pop.graph.vertices:
            raise ReservedVertexName(name)
    d = layout(pop)
    cx = Fraction(d.box[0] + d.box[2], 2)
    s: Point = (cx, d.box[1] - 1)
    t: Point = (cx, d.box[3] + 1)
    routes = dict(d.routes)
    for e in d.inputs:
        routes[e] = (s,) + routes[e]
    for e in d.outputs:
        routes[e] = routes[e] + (t,)
    vertices = dict(d.vertices)
    vertices["s"] = s
    vertices["t"] = t
    d = Drawing(flow="down", box=d.box, bands=d.bands, vertices=vertices,
                routes=routes, inputs=d.inputs, outputs=d.outputs,
                st=True, source="s", sink="t")
    return _flip(d) if up else d


def _flip(d: Drawing) -> Drawing:
    """Mirror the drawing in y, so the flow runs the other way."""
    h = d.box[1] + d.box[3]
    if h.denominator == 1:
        h = int(h)  # so the points on the lines stay ints

    def f(p: Point) -> Point:
        return (p[0], h - p[1])

    return Drawing(
        flow="up" if d.flow == "down" else "down",
        box=d.box,
        bands=tuple(sorted((h - b, h - a) for a, b in d.bands)),
        vertices={v: f(p) for v, p in d.vertices.items()},
        routes={e: tuple(f(p) for p in pts) for e, pts in d.routes.items()},
        inputs=d.inputs, outputs=d.outputs,
        st=d.st, source=d.source, sink=d.sink)


@dataclass(frozen=True)
class DrawingReport:
    ok: bool
    problems: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def check_drawing(d: Drawing) -> DrawingReport:
    """Exact verification: monotone routes, boundary attachment, no crossings.

    Crossings are found by a sweep over horizontal strips, not by testing
    every pair of segments: see ``_crossings``.  Each candidate pair is
    decided by the exact ``_segment_meet``, and the problems are listed in
    the order of a pair scan, route by route, then segment by segment.  Two
    routes may meet only at a drawn vertex where each of them starts or ends.
    """
    problems: list[str] = []
    down, y_in, y_out = _boundary_ys(d)
    short = {e for e, pts in d.routes.items() if len(pts) < 2}

    for e, pts in d.routes.items():
        if e in short:
            problems.append(f"route {e}: fewer than two points")
            continue
        for a, b in zip(pts, pts[1:]):
            if (b[1] > a[1]) != down or b[1] == a[1]:
                problems.append(f"route {e}: not monotone in the flow direction")
                break

    if d.st:
        problems += [f"apex {v}: not among the vertices"
                     for v in (d.source, d.sink) if v not in d.vertices]
    for start, side, edges, y in ((True, "input", d.inputs, y_in),
                                  (False, "output", d.outputs, y_out)):
        verb, kind, apex = ("start", "source", d.source) if start else ("end", "sink", d.sink)
        for e in edges:
            if e not in d.routes:
                problems.append(f"{side} {e}: has no route")
            elif e in short:
                continue
            elif d.st and d.routes[e][0 if start else -1] != d.vertices.get(apex):
                problems.append(f"{side} {e}: does not {verb} at the {kind} apex")
            elif _attachment(d, e, start)[1] != y:
                problems.append(f"{side} {e}: does not "
                                f"{'meet' if d.st else verb + ' on'} the {side} boundary")

    problems += _crossings(d, set(d.vertices.values()))
    return DrawingReport(not problems, tuple(problems))


def _crossings(d: Drawing, allowed: set[Point]) -> list[str]:
    """One problem per pair of segments on distinct routes that meet, other
    than at a point of ``allowed`` where both routes start or end.

    The plane is cut into strips between consecutive distinct y values of
    the segment endpoints; inside a strip every segment that is not
    horizontal runs straight from the top line to the bottom line.  Two
    segments can meet only if (a) in some strip their order by x changes
    between the top and the bottom line, or ties at either line, (b) they
    share an endpoint, which covers two segments meeting at one point from
    opposite sides of a line, or (c) one is horizontal (a single point
    included) and the other's closed y-range holds its y.  Only those
    candidates reach ``_segment_meet``.  Sorting a strip by (top x, bottom x
    descending) and inserting each segment by bottom x past every earlier
    one at or right of it lists every pair of (a), at a cost of the pairs
    listed.
    """
    names = list(d.routes)
    segs = [(i, a, b) for i, pts in enumerate(d.routes.values())
            for a, b in zip(pts, pts[1:])]
    ends = [pts[:1] + pts[-1:] for pts in d.routes.values()]
    ys = sorted({p[1] for _, a, b in segs for p in (a, b)})
    line = {y: k for k, y in enumerate(ys)}
    strips: list[list[int]] = [[] for _ in ys]  # strip k lies between ys[k] and ys[k + 1]
    flat: dict[int, list[int]] = {}
    at: dict[Point, list[int]] = {}
    spans = []  # per segment: line lo, its end there, line hi >= lo, its end there
    for g, (_, a, b) in enumerate(segs):
        for p in {a, b}:
            at.setdefault(p, []).append(g)
        ka, kb = line[a[1]], line[b[1]]
        spans.append((ka, a, kb, b) if ka <= kb else (kb, b, ka, a))
        lo, _, hi, _ = spans[g]
        if lo == hi:
            flat.setdefault(lo, []).append(g)
        for k in range(lo, hi):
            strips[k].append(g)

    def x_at(g: int, k: int) -> Fraction:
        lo, p, hi, q = spans[g]
        if k == lo:
            return p[0]
        if k == hi:
            return q[0]
        return p[0] + Fraction((q[0] - p[0]) * (ys[k] - p[1]), q[1] - p[1])

    pairs: set[tuple[int, int]] = set()
    for group in at.values():
        pairs.update(combinations(group, 2))
    for k, group in flat.items():
        near = group + (strips[k - 1] if k else []) + strips[k]
        pairs.update((min(g, h), max(g, h)) for g in group for h in near if g != h)
    for k, group in enumerate(strips):
        if len(group) < 2:
            continue
        top = {g: x_at(g, k) for g in group}
        bottom = {g: x_at(g, k + 1) for g in group}
        placed: list[tuple[Fraction, int]] = []  # sorted by bottom x
        for g in sorted(group, key=lambda g: (top[g], -bottom[g])):
            j = len(placed)
            while j and placed[j - 1][0] >= bottom[g]:
                j -= 1
                pairs.add((min(g, placed[j][1]), max(g, placed[j][1])))
            placed.insert(j, (bottom[g], g))

    problems = []
    for g, h in sorted(pairs, key=lambda gh: (segs[gh[0]][0], segs[gh[1]][0]) + gh):
        (i, a1, b1), (j, a2, b2) = segs[g], segs[h]
        if i == j:
            continue
        hit = _segment_meet(a1, b1, a2, b2)
        if hit is None:
            continue
        kind, p = hit
        if kind == "point" and p in allowed and p in ends[i] and p in ends[j]:
            continue
        problems.append(f"routes {names[i]} and {names[j]} cross near "
                        f"({float(p[0]):.3f}, {float(p[1]):.3f})")
    return problems


def _segment_meet(p1: Point, p2: Point, p3: Point, p4: Point):
    """Exact intersection of two closed segments.

    None when disjoint; ("point", P) for a single shared point; for
    collinear overlap beyond a point, ("overlap", P) with P in the overlap.
    Either segment may be a single point; whether they meet does not depend
    on which one comes first.
    """
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    w = (p3[0] - p1[0], p3[1] - p1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        if w[0] * d1[1] - w[1] * d1[0] != 0:
            return None
        # collinear: compare parameter intervals along d1
        dot = lambda u, v: u[0] * v[0] + u[1] * v[1]
        l2 = dot(d1, d1)
        if l2 == 0:
            # the first segment is a single point: meet it from the second's
            # side, so that the answer does not depend on the argument order
            if d2 == (0, 0):
                return ("point", p1) if p1 == p3 else None
            return _segment_meet(p3, p4, p1, p2)
        t3 = Fraction(dot(w, d1), l2)
        t4 = Fraction(dot((p4[0] - p1[0], p4[1] - p1[1]), d1), l2)
        lo, hi = min(t3, t4), max(t3, t4)
        lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
        if lo > hi:
            return None
        mid = (lo + hi) / 2
        p = (p1[0] + mid * d1[0], p1[1] + mid * d1[1])
        return ("point", p) if lo == hi else ("overlap", p)
    t = Fraction(w[0] * d2[1] - w[1] * d2[0], denom)
    u = Fraction(w[0] * d1[1] - w[1] * d1[0], denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", (p1[0] + t * d1[0], p1[1] + t * d1[1]))
    return None


def _boundary_ys(d: Drawing) -> tuple[bool, Fraction, Fraction]:
    """Whether the flow runs down, and the y of the input and output lines."""
    down = d.flow == "down"
    y_in, y_out = (d.box[1], d.box[3]) if down else (d.box[3], d.box[1])
    return down, y_in, y_out


def _require_routes(d: Drawing) -> None:
    for e, pts in d.routes.items():
        if len(pts) < 2:
            raise PpgError(f"route of edge {e} has fewer than two points")


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
    _require_routes(d)
    _, y_in, y_out = _boundary_ys(d)

    def boundary_x(e: str, start: bool, y: Fraction) -> Fraction:
        p = _attachment(d, e, start)
        if p[1] != y:
            raise PpgError(f"edge {e} is not attached to the boundary")
        return p[0]

    anchor = Anchor(
        tuple(sorted(d.inputs, key=lambda e: boundary_x(e, True, y_in))),
        tuple(sorted(d.outputs, key=lambda e: boundary_x(e, False, y_out))))

    ends, starts = {}, {}  # (x next to the point, edge) per route endpoint
    for e, pts in d.routes.items():
        ends.setdefault(pts[-1], []).append((pts[-2][0], e))
        starts.setdefault(pts[0], []).append((pts[1][0], e))
    vertex_orders: dict[str, VertexOrder] = {}
    apexes = {d.source, d.sink}
    for v, p in d.vertices.items():
        if v in apexes:
            continue
        vertex_orders[v] = VertexOrder(
            tuple(e for _, e in sorted(ends.get(p, ()))),
            tuple(e for _, e in sorted(starts.get(p, ()))))
    return PAGraph(g, vertex_orders, anchor)


def _minus(x: Fraction | int, off: Fraction | int) -> float:
    """``float(x - off)`` without building a Fraction: ints and Fractions
    both carry a numerator and a denominator, and int / int rounds the
    exact quotient once, as ``float`` of a Fraction does."""
    return ((x.numerator * off.denominator - off.numerator * x.denominator)
            / (x.denominator * off.denominator))


def _fmt(x: Fraction | int | float, scale: float = 1.0, off: float = 0.0) -> str:
    return f"{float(x) * scale + off:.2f}"


def render_svg(d: Drawing) -> str:
    """Self-contained SVG: one path per edge, arrowheads at route midpoints,
    filled circles for vertices, a dashed frame around the banded region."""
    _require_routes(d)
    s = 48.0
    pad = 30.0
    ys = {p[1] for pts in d.routes.values() for p in pts}
    ys.update((d.box[1], d.box[3]))
    x0, y0 = d.box[0], min(ys)
    w = float(d.box[2] - d.box[0]) * s + 2 * pad
    h = float(max(ys) - y0) * s + 2 * pad

    def px(p: Point) -> tuple[float, float]:
        return (_minus(p[0], x0) * s + pad, _minus(p[1], y0) * s + pad)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
           f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">']
    bx, by = px((d.box[0], d.box[1]))
    out.append(f'<rect x="{bx:.2f}" y="{by:.2f}" '
               f'width="{float(d.width) * s:.2f}" height="{float(d.height) * s:.2f}" '
               f'fill="none" stroke="#999" stroke-dasharray="7 5"/>')
    for e, pts in d.routes.items():
        coords = " L ".join(f"{x:.2f} {y:.2f}" for x, y in map(px, pts))
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
    _require_routes(d)
    out = [r"\begin{tikzpicture}[x=1.1cm,y=1.1cm,yscale=-1]"]
    out.append(rf"\draw[densely dashed, gray] ({_fmt(d.box[0])},{_fmt(d.box[1])}) "
               rf"rectangle ({_fmt(d.box[2])},{_fmt(d.box[3])});")
    for e, pts in d.routes.items():
        path = " -- ".join(f"({_fmt(p[0])},{_fmt(p[1])})" for p in pts)
        out.append(rf"\draw {path};")
        i = (len(pts) - 1) // 2
        a, b = pts[i], pts[i + 1]
        # halfway along the segment and a quarter of the way, each rounded
        # once from its exact value (int / int does that, or stays a Fraction)
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        near = ((3 * a[0] + b[0]) / 4, (3 * a[1] + b[1]) / 4)
        out.append(rf"\draw[->] ({_fmt(near[0])},{_fmt(near[1])}) -- "
                   rf"({_fmt(mid[0])},{_fmt(mid[1])});")
    for v, p in d.vertices.items():
        out.append(rf"\filldraw ({_fmt(p[0])},{_fmt(p[1])}) circle (2.2pt);")
    out.append(r"\end{tikzpicture}")
    return "\n".join(out) + "\n"

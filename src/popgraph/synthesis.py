"""Recovering planar orders from local data, and brute-force enumeration.

A progressive graph rarely wears its planar order openly; what a drawing
determines directly is *local*: the left-to-right order of edges around each
internal vertex (the vertex orders) and the left-to-right order of the
boundary edges (the anchors).  This module reconstructs the unique planar
order consistent with such data, or proves there is none.

The comparator decides each pair of distinct edges by exactly one of three
disjoint cases:

1. one strictly reaches the other: reachability decides;
2. no vertex reaches the tails of both: the edges live over disjoint parts
   of the input boundary, and the anchor decides via input windows (with the
   dual output-window comparison applied when no vertex is reachable from
   the heads of both; a disagreement or overlapping windows means no planar
   order exists);
3. some vertex reaches both tails: a maximal such vertex sees the two edges
   through distinct outgoing legs, and its vertex order decides.

Each case is read off two bit rows per edge, the edges it reaches and the
edges reaching it: a vertex reaches an edge's tail exactly when one of its
legs reaches that edge, so ancestors, descendants and windows are
intersections of rows.

Every pair is compared once (never sorting with a comparator), and each edge
keeps a bit row of the edges it precedes.  Ranking by popcount gives the
order, which is validated against both planar-order axioms and re-extracted
and compared with the given data, so every inconsistency, comparisons that
cycle included, surfaces as NoConsistentOrder with witnesses.

Local data has one check, which takes partial data too (:class:`PAGraph`
adds completeness), and one read, a walk over the order (unchecked).

The enumerator extends prefixes of linear extensions in lexicographic order
of edge declaration, with one frame of bit masks per depth (placed, ready,
banned, still to try); a prefix that bans an unplaced edge is cut.  It is the
oracle the rest of the test suite leans on, so it is deliberately simple.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Mapping, NamedTuple

from .core import ProgressiveGraph
from .errors import NoConsistentOrder, PpgError, TooLarge, UnknownVertex
from .order import (PlanarOrder, POPGraph, _expect_permutation, _members,
                    validate_planar_order)


class VertexOrder(NamedTuple):
    """Ordered incident edges of one internal vertex (left to right)."""
    incoming: tuple[str, ...]
    outgoing: tuple[str, ...]


class Anchor(NamedTuple):
    """Ordered boundary edges of the whole graph (left to right)."""
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


def _check_local_data(graph: ProgressiveGraph, vertex_orders: Mapping[str, VertexOrder | tuple],
                      anchor: Anchor | tuple | None) -> None:
    """Check whatever local data is given (no anchor, partial vertex orders):
    each side is a permutation of its boundary or of an internal vertex's legs."""
    if anchor is not None:
        _expect_permutation(anchor[0], graph.inputs)
        _expect_permutation(anchor[1], graph.outputs)
    for v, vo in vertex_orders.items():
        if v not in graph.internal_vertices:
            raise UnknownVertex(v)
        _expect_permutation(vo[0], (e.id for e in graph.in_edges(v)))
        _expect_permutation(vo[1], (e.id for e in graph.out_edges(v)))


class PAGraph:
    """A progressive graph with vertex orders at every internal vertex and
    anchors on the boundary; the combinatorial shadow of a plane drawing."""

    def __init__(self, graph: ProgressiveGraph,
                 vertex_orders: Mapping[str, VertexOrder | tuple],
                 anchor: Anchor | tuple):
        self.graph = graph
        self.vertex_orders: dict[str, VertexOrder] = {
            v: VertexOrder(tuple(vo[0]), tuple(vo[1])) for v, vo in vertex_orders.items()}
        self.anchor = Anchor(tuple(anchor[0]), tuple(anchor[1]))
        _check_local_data(graph, self.vertex_orders, self.anchor)
        missing = graph.internal_vertices.difference(self.vertex_orders)
        if missing:
            raise PpgError(f"missing vertex order for internal vertex {min(missing)!r}")

    @cached_property
    def _anchor_rows(self) -> tuple[tuple[dict[int, int], int], ...]:
        """Per anchor side: position by edge index, and the side as a bitset;
        only the comparator reads them, so its first call builds them."""
        sides = [{self.graph.edge_index(e): k for k, e in enumerate(side)} for side in self.anchor]
        return tuple((pos, sum(1 << i for i in pos)) for pos in sides)

    def __eq__(self, other):
        if isinstance(other, PAGraph):
            return (self.graph == other.graph
                    and self.vertex_orders == other.vertex_orders
                    and self.anchor == other.anchor)
        return NotImplemented

    def __repr__(self):
        return f"PAGraph({len(self.graph.edges)} edges)"


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    INCONSISTENT = "inconsistent"


def _window_verdict(side: tuple[dict[int, int], int], x1: int, x2: int) -> Comparison:
    """Compare the windows of two edges: the anchor spans of the anchored
    edges in their rows ``x1`` and ``x2``, on one side of the anchor."""
    pos, mask = side
    w1, w2 = ([pos[i] for i in _members(x & mask)] for x in (x1, x2))
    if max(w1) < min(w2):
        return Comparison.LESS
    if max(w2) < min(w1):
        return Comparison.GREATER
    return Comparison.INCONSISTENT


def compare_edges(pa: PAGraph, e1: str, e2: str) -> Comparison:
    """Decide the relative planar-order position of two distinct edges.

    Antisymmetric by construction; INCONSISTENT means the vertex orders and
    anchors admit no planar order that relates this pair.
    """
    g = pa.graph
    if e1 == e2:
        raise PpgError("compare_edges requires two distinct edges")
    b1, b2 = 1 << g.edge_index(e1), 1 << g.edge_index(e2)
    # r: the edges e reaches, t: the edges reaching e, both reflexive
    r1, r2 = g.reach_bits(e1) | b1, g.reach_bits(e2) | b2
    if r1 & b2:
        return Comparison.LESS
    if r2 & b1:
        return Comparison.GREATER

    # A vertex reaches e's tail iff it has a leg in t, so t1 & t2 holds the
    # legs of the vertices reaching both tails.  It is empty only if no such
    # vertex exists: a tail with two legs is internal and has in-edges.
    t1, t2 = g.reacher_bits(e1) | b1, g.reacher_bits(e2) | b2
    both = t1 & t2
    if not both:
        ins, outs = pa._anchor_rows
        verdict = _window_verdict(ins, t1, t2)
        if not r1 & r2 and _window_verdict(outs, r1, r2) != verdict:
            return Comparison.INCONSISTENT
        return verdict

    # A maximal common ancestor has legs into t1 and t2 and none into both
    # (its head would be a lower common ancestor), so it is the tail of an
    # edge in t1 ^ t2; the least by name decides, through its first leg.
    edges = g.edges
    tails = ({edges[i].src for i in _members(t1 & ~t2)}
             & {edges[i].src for i in _members(t2 & ~t1)})
    v = min(v for v in tails
            if not any(both >> g.edge_index(h) & 1 for h in pa.vertex_orders[v].outgoing))
    first = next(i for i in map(g.edge_index, pa.vertex_orders[v].outgoing)
                 if (t1 | t2) >> i & 1)
    return Comparison.LESS if t1 >> first & 1 else Comparison.GREATER


def synthesize_order(pa: PAGraph) -> PlanarOrder:
    """The unique planar order consistent with the given data.

    Every pair is compared once, and each edge keeps a bit row of the edges
    it precedes; ranking by that row's popcount gives the order when the
    comparisons are a strict total order.  The ranking is validated against
    both axioms and re-extracted to confirm it reproduces the input data, so
    any failure, cyclic comparisons included, raises NoConsistentOrder
    naming witnesses.
    """
    g = pa.graph
    ids = g.edge_ids
    witnesses: list[str] = []
    later = [0] * len(ids)
    for i, a in enumerate(ids):
        for j, b in enumerate(ids[i + 1:], i + 1):
            c = compare_edges(pa, a, b)
            if c is Comparison.INCONSISTENT:
                witnesses.append(f"no consistent position for pair ({a}, {b})")
            elif c is Comparison.LESS:
                later[i] |= 1 << j
            else:
                later[j] |= 1 << i
    if witnesses:
        raise NoConsistentOrder(tuple(witnesses))

    seq = sorted(ids, key=lambda e: -later[g.edge_index(e)].bit_count())
    try:
        pop = validate_planar_order(g, seq)
    except PpgError as err:
        raise NoConsistentOrder((f"synthesized order is not planar: {err}",)) from err
    if _local_data(pop) != (pa.vertex_orders, pa.anchor):
        raise NoConsistentOrder(
            ("synthesized order does not reproduce the given vertex orders/anchors",))
    return pop.order


def _local_data(pop: POPGraph) -> tuple[dict[str, VertexOrder], Anchor]:
    """The vertex orders and anchors of a planar order, unchecked, in one walk
    that appends each edge to the legs of its tail and of its head."""
    g = pop.graph
    legs = {v: ([], []) for v in sorted(g.internal_vertices)}
    boundary = ([], [])  # one vertex for the rest: outputs come in, inputs go out
    for eid in pop.order.sequence:
        e = g.edge(eid)
        legs.get(e.src, boundary)[1].append(eid)
        legs.get(e.dst, boundary)[0].append(eid)
    vertex_orders = {v: VertexOrder(tuple(a), tuple(b)) for v, (a, b) in legs.items()}
    return vertex_orders, Anchor(tuple(boundary[1]), tuple(boundary[0]))


def extract_pa(pop: POPGraph) -> PAGraph:
    """Read the vertex orders and anchors off a planar order, checked."""
    return PAGraph(pop.graph, *_local_data(pop))


class EnumerationResult(NamedTuple):
    orders: tuple[PlanarOrder, ...]
    truncated: bool


DEFAULT_EDGE_BOUND = 10


def _search(g: ProgressiveGraph, max_edges: int, force: bool):
    """Generate planar orders as index tuples, lexicographic by declaration.

    Linear-extension backtracking with one frame per depth of four edge
    masks: placed, ready (unplaced, every reacher placed), banned, and the
    ready edges still to try.  Placing b after a placed a that does not reach
    b bans every edge a reaches and b does not: by betweenness none may come
    after b.  A ban never lifts, so a prefix that bans an unplaced edge cannot
    be completed and gets no candidates; every full sequence is a planar
    order, and none is missed.  The frames are an explicit stack, so depth is
    bounded by memory, not by the recursion limit.
    """
    if len(g.edges) > max_edges and not force:
        raise TooLarge(len(g.edges), max_edges)
    reach = [g.reach_bits(e) for e in g.edge_ids]
    reachers = [g.reacher_bits(e) for e in g.edge_ids]
    succ = [sum(1 << g.edge_index(c.id) for c in g.out_edges(e.dst)) for e in g.edges]
    ready = sum(1 << i for i, row in enumerate(reachers) if not row)
    prefix: list[int] = []
    frames = [[0, ready, 0, ready]]
    while True:
        frame = frames[-1]
        placed, ready, banned, todo = frame
        if len(prefix) == len(reach):
            yield tuple(prefix)
        if not todo:  # every candidate tried at this depth: backtrack
            if not prefix:
                return
            frames.pop()
            prefix.pop()
            continue
        b = (todo & -todo).bit_length() - 1
        frame[3] = todo & (todo - 1)
        for a in _members(placed & ~reachers[b]):
            banned |= reach[a] & ~reach[b]
        placed |= 1 << b
        ready &= ~(1 << b)
        ready |= sum(1 << c for c in _members(succ[b]) if not reachers[c] & ~placed)
        frames.append([placed, ready, banned, 0 if banned & ~placed else ready])
        prefix.append(b)


def enumerate_planar_orders(g: ProgressiveGraph, limit: int | None = None, *,
                            max_edges: int = DEFAULT_EDGE_BOUND,
                            force: bool = False) -> EnumerationResult:
    """All planar orders of g, lexicographic by edge declaration order.

    Refuses graphs above ``max_edges`` unless forced; with ``limit`` the
    result is cut off there and flagged as truncated.
    """
    ids = g.edge_ids
    out = []
    for perm in _search(g, max_edges, force):
        out.append(PlanarOrder(ids[i] for i in perm))
        if limit is not None and len(out) > limit:
            return EnumerationResult(tuple(out[:limit]), True)
    return EnumerationResult(tuple(out), False)


def count_planar_orders(g: ProgressiveGraph, *,
                        max_edges: int = DEFAULT_EDGE_BOUND,
                        force: bool = False) -> int:
    """Number of planar orders of g, without materializing them."""
    return sum(1 for _ in _search(g, max_edges, force))

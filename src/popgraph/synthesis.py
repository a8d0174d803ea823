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

Materializing the full pairwise relation (never sorting with a comparator)
keeps failures observable: the relation is checked to be a strict total
order, validated against both planar-order axioms, and finally re-extracted
and compared with the given data, so every inconsistency surfaces as
NoConsistentOrder with witnesses.

Local data has one check, which takes partial data too (:class:`PAGraph`
adds completeness), and one read, a walk over the order (unchecked).

The enumerator generates every planar order by extending prefixes of linear
extensions with a betweenness pruning step, in lexicographic order of edge
declaration; it is the oracle the rest of the test suite leans on, so it is
deliberately simple.
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

    The full pairwise relation is materialized, checked to be a strict total
    order, validated against both axioms, and finally re-extracted to confirm
    it reproduces the input data; any failure raises NoConsistentOrder naming
    witnesses.
    """
    g = pa.graph
    ids = g.edge_ids
    witnesses: list[str] = []
    less: dict[str, set[str]] = {e: set() for e in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            c = compare_edges(pa, a, b)
            if c is Comparison.INCONSISTENT:
                witnesses.append(f"no consistent position for pair ({a}, {b})")
            elif c is Comparison.LESS:
                less[a].add(b)
            else:
                less[b].add(a)
    if witnesses:
        raise NoConsistentOrder(tuple(witnesses))

    seq = sorted(ids, key=lambda e: len(ids) - len(less[e]))
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if b not in less[a]:
                witnesses.append(f"comparisons cycle through ({a}, {b})")
    if witnesses:
        raise NoConsistentOrder(tuple(witnesses))

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


def _search(g: ProgressiveGraph):
    """Generate planar orders as index tuples, lexicographic by declaration.

    Linear-extension backtracking over strict reachability, with the
    betweenness axiom enforced on every prefix: appending e is vetoed when
    some already-placed pair (a before b) has a reaching e but b unrelated
    to both.  Any full sequence emitted is therefore a planar order, and no
    planar order is missed because pruning only removes sequences whose
    violation is already frozen in the prefix.  The prefix is the explicit
    stack, so depth is bounded by memory, not by the recursion limit.
    """
    m = len(g.edges)
    reach = [g.reach_bits(e) for e in g.edge_ids]
    reachers = [g.reacher_bits(e) for e in g.edge_ids]
    prefix: list[int] = []
    used = 0

    def ok_to_append(e: int) -> bool:
        if reachers[e] & ~used:
            return False  # an unplaced edge still reaches e
        before = 0
        for b in prefix:
            if not (reach[b] >> e & 1) and (before & reachers[e] & ~reachers[b]):
                return False
            before |= 1 << b
        return True

    start = 0  # the first candidate to try at depth len(prefix)
    while True:
        if len(prefix) == m:
            yield tuple(prefix)
            start = m
        for e in range(start, m):
            if not used >> e & 1 and ok_to_append(e):
                prefix.append(e)
                used |= 1 << e
                start = 0
                break
        else:  # no candidate left at this depth: backtrack
            if not prefix:
                return
            last = prefix.pop()
            used &= ~(1 << last)
            start = last + 1


def enumerate_planar_orders(g: ProgressiveGraph, limit: int | None = None, *,
                            max_edges: int = DEFAULT_EDGE_BOUND,
                            force: bool = False) -> EnumerationResult:
    """All planar orders of g, lexicographic by edge declaration order.

    Refuses graphs above ``max_edges`` unless forced; with ``limit`` the
    result is cut off there and flagged as truncated.
    """
    if len(g.edges) > max_edges and not force:
        raise TooLarge(len(g.edges), max_edges)
    ids = g.edge_ids
    out = []
    for perm in _search(g):
        out.append(PlanarOrder(ids[i] for i in perm))
        if limit is not None and len(out) > limit:
            return EnumerationResult(tuple(out[:limit]), True)
    return EnumerationResult(tuple(out), False)


def count_planar_orders(g: ProgressiveGraph, *,
                        max_edges: int = DEFAULT_EDGE_BOUND,
                        force: bool = False) -> int:
    """Number of planar orders of g, without materializing them."""
    if len(g.edges) > max_edges and not force:
        raise TooLarge(len(g.edges), max_edges)
    return sum(1 for _ in _search(g))

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

Materializing the full pairwise relation (never sorting with a comparator)
keeps failures observable: the relation is checked to be a strict total
order, validated against both planar-order axioms, and finally re-extracted
and compared with the given data, so every inconsistency surfaces as
NoConsistentOrder with witnesses.

The enumerator generates every planar order by extending prefixes of linear
extensions with a betweenness pruning step, in lexicographic order of edge
declaration; it is the oracle the rest of the test suite leans on, so it is
deliberately simple.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple

from .core import ProgressiveGraph
from .errors import NoConsistentOrder, PpgError, TooLarge, UnknownVertex
from .order import PlanarOrder, POPGraph, _expect_permutation, validate_planar_order


class VertexOrder(NamedTuple):
    """Ordered incident edges of one internal vertex (left to right)."""
    incoming: tuple[str, ...]
    outgoing: tuple[str, ...]


class Anchor(NamedTuple):
    """Ordered boundary edges of the whole graph (left to right)."""
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


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
        for v in self.vertex_orders:
            if v not in graph.internal_vertices:
                raise UnknownVertex(v)
        for v in sorted(graph.internal_vertices):
            if v not in self.vertex_orders:
                raise PpgError(f"missing vertex order for internal vertex {v!r}")
            vo = self.vertex_orders[v]
            _expect_permutation(vo.incoming, [e.id for e in graph.in_edges(v)])
            _expect_permutation(vo.outgoing, [e.id for e in graph.out_edges(v)])
        _expect_permutation(self.anchor.inputs, graph.inputs)
        _expect_permutation(self.anchor.outputs, graph.outputs)
        self._in_pos = {e: i for i, e in enumerate(self.anchor.inputs)}
        self._out_pos = {e: i for i, e in enumerate(self.anchor.outputs)}

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


def _common_tail_ancestors(g: ProgressiveGraph, e1: str, e2: str) -> list[str]:
    """Vertices from which directed paths lead to the tails of both edges."""
    s1, s2 = g.edge(e1).src, g.edge(e2).src
    return [v for v in g.vertices
            if g.vertex_reaches(v, s1) and g.vertex_reaches(v, s2)]


def _has_common_head_descendant(g: ProgressiveGraph, e1: str, e2: str) -> bool:
    d1, d2 = g.edge(e1).dst, g.edge(e2).dst
    return any(g.vertex_reaches(d1, v) and g.vertex_reaches(d2, v)
               for v in g.vertices)


def _window(g: ProgressiveGraph, pos: dict[str, int], boundary: frozenset[str],
            e: str, forward: bool) -> tuple[int, int]:
    """Anchor-position window of e over the inputs (forward) or outputs."""
    if e in boundary:
        return (pos[e], pos[e])
    if forward:
        hits = [pos[i] for i in boundary if g.strictly_reaches(i, e)]
    else:
        hits = [pos[o] for o in boundary if g.strictly_reaches(e, o)]
    assert hits, f"edge {e} is not connected to the boundary"
    return (min(hits), max(hits))


def _window_verdict(w1: tuple[int, int], w2: tuple[int, int]) -> Comparison:
    if w1[1] < w2[0]:
        return Comparison.LESS
    if w2[1] < w1[0]:
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
    if g.strictly_reaches(e1, e2):
        return Comparison.LESS
    if g.strictly_reaches(e2, e1):
        return Comparison.GREATER

    ancestors = _common_tail_ancestors(g, e1, e2)
    if not ancestors:
        verdict = _window_verdict(
            _window(g, pa._in_pos, g.inputs, e1, True),
            _window(g, pa._in_pos, g.inputs, e2, True))
        if not _has_common_head_descendant(g, e1, e2):
            dual = _window_verdict(
                _window(g, pa._out_pos, g.outputs, e1, False),
                _window(g, pa._out_pos, g.outputs, e2, False))
            if dual != verdict:
                return Comparison.INCONSISTENT
        return verdict

    # A maximal common ancestor sees e1 and e2 through outgoing legs; take
    # the lexicographically least maximal one so the choice is deterministic.
    maximal = [v for v in ancestors
               if not any(w != v and g.vertex_reaches(v, w) for w in ancestors)]
    v = min(maximal)
    legs = pa.vertex_orders[v].outgoing
    h1 = next(h for h in legs if g.reaches(h, e1))
    h2 = next(h for h in legs if g.reaches(h, e2))
    if h1 == h2:
        return Comparison.INCONSISTENT
    return Comparison.LESS if legs.index(h1) < legs.index(h2) else Comparison.GREATER


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
    if extract_pa(pop) != pa:
        raise NoConsistentOrder(
            ("synthesized order does not reproduce the given vertex orders/anchors",))
    return pop.order


def extract_pa(pop: POPGraph) -> PAGraph:
    """Read the vertex orders and anchors off a planar order."""
    g = pop.graph
    rank = pop.order.rank
    vertex_orders = {}
    for v in sorted(g.internal_vertices):
        vertex_orders[v] = VertexOrder(
            tuple(sorted((e.id for e in g.in_edges(v)), key=rank)),
            tuple(sorted((e.id for e in g.out_edges(v)), key=rank)))
    anchor = Anchor(pop.inputs_ordered, pop.outputs_ordered)
    return PAGraph(g, vertex_orders, anchor)


class EnumerationResult(NamedTuple):
    orders: tuple[PlanarOrder, ...]
    truncated: bool


DEFAULT_EDGE_BOUND = 10


def _search(g: ProgressiveGraph, limit: int | None):
    """Generate planar orders as index tuples, lexicographic by declaration.

    Linear-extension backtracking over strict reachability, with the
    betweenness axiom enforced on every prefix: appending e is vetoed when
    some already-placed pair (a before b) has a reaching e but b unrelated
    to both.  Any full sequence emitted is therefore a planar order, and no
    planar order is missed because pruning only removes sequences whose
    violation is already frozen in the prefix.
    """
    m = len(g.edges)
    ids = g.edge_ids
    reach = [g.reach_bits(e) for e in ids]
    reachers = [0] * m
    for i in range(m):
        for j in range(m):
            if reach[i] >> j & 1:
                reachers[j] |= 1 << i
    emitted = 0
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

    def walk():
        nonlocal used, emitted
        if len(prefix) == m:
            emitted += 1
            yield tuple(prefix)
            return
        for e in range(m):
            if used >> e & 1 or not ok_to_append(e):
                continue
            prefix.append(e)
            used |= 1 << e
            yield from walk()
            used &= ~(1 << e)
            prefix.pop()
            if limit is not None and emitted > limit:
                return

    return walk()


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
    for perm in _search(g, limit):
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
    return sum(1 for _ in _search(g, None))

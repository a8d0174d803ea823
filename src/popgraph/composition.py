"""Gluing and splitting planarly ordered progressive graphs.

Composition glues the k-th output (by the order) of one factor to the k-th
input of the next, fusing each such pair into one new edge; the composite
order shuffles the two orders around the fused edges:

    Q_1, f_1, P_1, Q_2, f_2, P_2, ..., Q_n, f_n, P_n

where Q_k collects the upper factor's non-output edges before its k-th
output and P_k the lower factor's non-input edges after its k-th input.  A
chain is glued in one pass, each glued output giving way to its fused edge
and P block, recursively.  Planar orders are closed under composition, so
the result is not re-validated (the test suite validates thousands of
composites); the glued graph goes once through validate_progressive.

Decomposition is the inverse: splitting off an order-maximal internal vertex
leaves a remainder and an elementary factor (one internal vertex plus
pass-through bare edges) whose composition restores the original, and
repeating until no internal vertex is left writes the graph as a chain of
single-vertex layers.  That is one walk over the order which builds only the
factors: each is validated as a progressive graph like any other, and
ordered by restricting the planar order, which the theory makes planar, so
no order is checked again and no remainder is built.  The layout reads the
same peel order for its bands and builds no factor.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from .core import (DirectedMultigraph, Edge, _fresh, _induces_vertex_bijection,
                   validate_progressive)
from .errors import ArityMismatch, NoInternalVertex, PpgError, _expect_type
from .order import PlanarOrder, POPGraph, interval_partition, validate_planar_order


def compose(*factors: POPGraph) -> POPGraph:
    """Glue each factor's outputs onto the next one's inputs, upstream first.

    Arities must match; one factor is returned as it is.  A fused edge keeps
    its id when both halves agree on it (which is how decomposition factors
    are labelled) and is otherwise named "output~input"; surviving edges
    keep their ids, with a "'" suffix appended on collision.  A factor's
    vertex ids are suffixed the same way when they clash with those above
    it, so the result is that of composing two factors at a time.
    """
    if not factors:
        raise PpgError("compose needs at least one factor")
    for pop in factors:
        _expect_type(pop, "compose", POPGraph)
    if len(factors) == 1:
        return factors[0]
    tables = [glue_table(a, b) for a, b in zip(factors, factors[1:])]
    edges = {e.id: e for e in factors[0].graph.edges}  # the running composite
    names, ids = set(factors[0].graph.vertices), set(edges)
    local = [dict(zip(edges, edges))]  # per factor: local id -> composite id
    follow = []  # per glue: upper output -> lower input and its P block
    for pairs, pop in zip(tables, factors[1:]):
        g, upper, after = pop.graph, local[-1], interval_partition(pop)[0]
        follow.append({o: (i, *after[i]) for o, i in pairs})
        glued = [edges.pop(upper[o]) for o, _ in pairs]
        ids.difference_update(e.id for e in glued)
        names.difference_update(e.dst for e in glued)
        tails = {g.edge(i).src for _, i in pairs}
        vmap = {v: _fresh(v, names) for v in g.vertices if v not in tails}
        ours: dict[str, str] = {}
        for e, (_, i) in zip(glued, pairs):
            ours[i] = _fresh(e.id if e.id == i else f"{e.id}~{i}", ids)
            edges[ours[i]] = Edge(ours[i], e.src, vmap[g.edge(i).dst])
        for e in g.edges:
            if e.id not in g.inputs:
                ours[e.id] = _fresh(e.id, ids)
                edges[ours[e.id]] = Edge(ours[e.id], vmap[e.src], vmap[e.dst])
        local.append(ours)

    # Q_k f_k P_k, recursively: each glued output gives way to its follow
    order: list[str] = []
    stack = [(0, e) for e in reversed(factors[0].order.sequence)]
    while stack:
        k, e = stack.pop()
        if k < len(follow) and e in follow[k]:
            stack.extend((k + 1, x) for x in reversed(follow[k][e]))
        else:
            order.append(local[k][e])
    graph = validate_progressive(DirectedMultigraph(edges.values()))
    return POPGraph(graph, PlanarOrder(order))


def glue_table(first: POPGraph, second: POPGraph) -> tuple[tuple[str, str], ...]:
    """The (output id, input id) pairs :func:`compose` would fuse, in order."""
    outs = _expect_type(first, "glue_table", POPGraph).outputs_ordered
    ins = _expect_type(second, "glue_table", POPGraph).inputs_ordered
    if len(outs) != len(ins):
        raise ArityMismatch(len(outs), len(ins))
    return tuple(zip(outs, ins))


def pop_isomorphic(a: POPGraph, b: POPGraph) -> bool:
    """Isomorphism of ordered graphs: the k-th edge of one must map to the
    k-th edge of the other, and that forced edge map must extend to a
    src/dst-preserving vertex bijection."""
    _expect_type(a, "pop_isomorphic", POPGraph)
    _expect_type(b, "pop_isomorphic", POPGraph)
    if len(a.order) != len(b.order):
        return False
    if len(a.graph.vertices) != len(b.graph.vertices):
        return False
    return _induces_vertex_bijection(
        (a.graph.edge(x), b.graph.edge(y)) for x, y in zip(a.order, b.order))


def _peel_order(pop: POPGraph):
    """Internal vertices in peel order, downstream first.

    Each step takes the maximal internal vertex (every out-edge on the line
    of current outputs) whose first out-edge comes earliest in the order.  A
    vertex becomes maximal once its last internal successor has been peeled.
    """
    g = pop.graph
    internal = g.internal_vertices
    # out-edges of each internal vertex whose head is not yet peeled
    pending = {v: sum(e.dst in internal for e in g.out_edges(v)) for v in internal}
    first_out = {v: min(pop.rank(e.id) for e in g.out_edges(v)) for v in internal}
    ready = [(first_out[v], v) for v in internal if not pending[v]]
    heapq.heapify(ready)
    while ready:
        _, v = heapq.heappop(ready)
        yield v
        for e in g.in_edges(v):
            if e.src in internal:
                pending[e.src] -= 1
                if not pending[e.src]:
                    heapq.heappush(ready, (first_out[e.src], e.src))


def _peel(pop: POPGraph):
    """Split off one maximal internal vertex per step, building no remainder.

    The vertices come from :func:`_peel_order`.  The walk keeps the current
    head of every edge, the current outputs (the line), the dropped edges
    and the vertex names the remainder would have, and yields
    ``(factor, head, dropped)`` per step; the next step updates ``head`` and
    ``dropped`` in place.
    """
    g = pop.graph
    head = {e.id: e.dst for e in g.edges}
    line = set(g.outputs)
    dropped: set[str] = set()
    names = set(g.vertices)
    for v in _peel_order(pop):
        spider_in = [e.id for e in g.in_edges(v)]
        spider_out = [e.id for e in g.out_edges(v)]

        ids = line.union(spider_in)
        taken = {v} | {head[e] for e in line} | {g.edge(e).src for e in ids & g.inputs}
        edges = []
        for e in sorted(ids, key=g.edge_index):
            # input tails are degree-one sources already; keeping them lets
            # recomposition restore the original graph vertex for vertex
            src = g.edge(e).src
            if src != v and e not in g.inputs:
                src = _fresh(f"s@{e}", taken)
            edges.append(Edge(e, src, head[e]))
        factor = POPGraph(validate_progressive(DirectedMultigraph(edges)),
                          PlanarOrder(sorted(ids, key=pop.rank)))

        # fresh heads avoid every name of the graph the step started from,
        # the vertex and its output heads included
        for e in spider_in:
            head[e] = _fresh(f"t@{e}", names)
        names.difference_update([v, *(head[e] for e in spider_out)])
        line.difference_update(spider_out)
        line.update(spider_in)
        dropped.update(spider_out)
        yield factor, head, dropped


def decompose_step(pop: POPGraph) -> tuple[POPGraph, POPGraph]:
    """Split off one maximal internal vertex; compose(remainder, factor)
    restores ``pop`` edge for edge.

    Among the maximal internal vertices (those whose out-edges are all
    outputs) the one whose first out-edge in the order comes earliest is
    chosen, which makes repeated decomposition deterministic.  This is the
    first step of :func:`elementary_decomposition`; unlike it, the remainder
    is built and validated.
    """
    if not _expect_type(pop, "decompose_step", POPGraph).graph.internal_vertices:
        raise NoInternalVertex()
    factor, head, dropped = next(_peel(pop))
    remainder_graph = validate_progressive(DirectedMultigraph(
        Edge(e.id, e.src, head[e.id]) for e in pop.graph.edges if e.id not in dropped))
    remainder = validate_planar_order(
        remainder_graph, [e for e in pop.order if e not in dropped])
    return remainder, factor


class ElementaryDecomposition:
    """Factors listed upstream-to-downstream, plus the interface pairings.

    ``interfaces[k]`` pairs the outputs of ``factors[k]`` with the inputs of
    ``factors[k+1]`` position by position; in a decomposition both sides of
    each pair carry the same original edge id.
    """

    def __init__(self, factors):
        self.factors: tuple[POPGraph, ...] = tuple(
            _expect_type(factors, "ElementaryDecomposition", Iterable))
        for f in self.factors:
            _expect_type(f, "ElementaryDecomposition", POPGraph)
        self.interfaces: tuple[tuple[tuple[str, str], ...], ...] = tuple(
            glue_table(a, b) for a, b in zip(self.factors, self.factors[1:]))

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        return f"ElementaryDecomposition({len(self.factors)} factors)"


def elementary_decomposition(pop: POPGraph) -> ElementaryDecomposition:
    """Peel maximal internal vertices until none remain.

    Yields exactly one factor per internal vertex (the final all-bare
    remainder is absorbed into the most upstream factor's inputs); a graph
    with no internal vertex at all is its own single factor.
    """
    if not _expect_type(pop, "elementary_decomposition", POPGraph).graph.internal_vertices:
        return ElementaryDecomposition([pop])
    factors = [factor for factor, _, _ in _peel(pop)]
    factors.reverse()
    return ElementaryDecomposition(factors)


def recompose(decomposition) -> POPGraph:
    """:func:`compose` of the factors, upstream first."""
    return compose(*_expect_type(decomposition, "recompose", Iterable))

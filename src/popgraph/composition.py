"""Gluing and splitting planarly ordered progressive graphs.

Composition glues the k-th output (by the order) of the first factor to the
k-th input of the second, fusing each such pair into one new edge; the
composite order shuffles the two orders around the fused edges:

    Q_1, f_1, P_1, Q_2, f_2, P_2, ..., Q_n, f_n, P_n

where Q_k collects the first factor's non-output edges before its k-th
output and P_k the second factor's non-input edges after its k-th input.
Planar orders are closed under this composition, so the result is not
re-validated (the test suite validates thousands of composites); only the
glued graph goes through validate_progressive, which builds its closure.

Decomposition is the inverse: splitting off an order-maximal internal vertex
leaves a remainder and an elementary factor (one internal vertex plus
pass-through bare edges) whose composition restores the original, and
repeating until no internal vertex is left writes the graph as a chain of
single-vertex layers.  That is one walk over the order which builds only the
factors, each ordered by restricting the planar order; the restriction and
every remainder are planar by the theory, and a factor is one spider plus
bare edges, whose reach rows are read off the spider (the legs into the
vertex reach the legs out of it), so nothing in the walk is validated or
closed again.  The layout reads the same peel order for its bands and builds
no factor.
"""

from __future__ import annotations

import heapq

from .core import (DirectedMultigraph, Edge, ProgressiveGraph, _fresh,
                   _induces_vertex_bijection, validate_progressive)
from .errors import ArityMismatch, NoInternalVertex
from .order import PlanarOrder, POPGraph, interval_partition, validate_planar_order


def is_elementary(g: ProgressiveGraph) -> bool:
    """True when every connected component has at most one internal vertex.

    Components of a progressive graph are spiders (one internal vertex and
    its legs) or bare edges exactly under this condition.
    """
    parent: dict[str, str] = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        a, b = find(e.src), find(e.dst)
        if a != b:
            parent[a] = b
    count: dict[str, int] = {}
    for v in g.internal_vertices:
        r = find(v)
        count[r] = count.get(r, 0) + 1
        if count[r] > 1:
            return False
    return True


def compose(first: POPGraph, second: POPGraph) -> POPGraph:
    """Glue the outputs of ``first`` onto the inputs of ``second``.

    Arities must match.  A fused edge keeps its id when both halves agree on
    it (which is how decomposition factors are labelled) and is otherwise
    named "lower~upper"; surviving edges keep their ids, with a "'" suffix
    appended on collision.  Vertex ids from the second factor are suffixed
    the same way when they clash with the first's.
    """
    pairs = glue_table(first, second)
    g1, g2 = first.graph, second.graph

    sinks1 = {g1.edge(o).dst for o, _ in pairs}
    sources2 = {g2.edge(i).src for _, i in pairs}
    vmap2: dict[str, str] = {}
    taken = {v for v in g1.vertices if v not in sinks1}
    for v in g2.vertices:
        if v not in sources2:
            vmap2[v] = _fresh(v, taken)

    survivors1 = [e for e in g1.edges if e.id not in g1.outputs]
    survivors2 = [e for e in g2.edges if e.id not in g2.inputs]
    used = {e.id for e in survivors1}
    fused_id: dict[str, str] = {}
    for o, i in pairs:
        fused_id[o] = _fresh(o if o == i else f"{o}~{i}", used)
    emap2 = {e.id: _fresh(e.id, used) for e in survivors2}

    edges = list(survivors1)
    for o, i in pairs:
        edges.append(Edge(fused_id[o], g1.edge(o).src, vmap2[g2.edge(i).dst]))
    for e in survivors2:
        edges.append(Edge(emap2[e.id], vmap2[e.src], vmap2[e.dst]))

    # Shuffle the two orders around the fused edges: Q_k f_k P_k.
    q_blocks = interval_partition(first)[1]
    p_blocks = interval_partition(second)[0]
    order: list[str] = []
    for o, i in pairs:
        order.extend(q_blocks[o])
        order.append(fused_id[o])
        order.extend(emap2[e] for e in p_blocks[i])

    graph = validate_progressive(DirectedMultigraph(edges))
    return POPGraph(graph, PlanarOrder(order))


def glue_table(first: POPGraph, second: POPGraph) -> tuple[tuple[str, str], ...]:
    """The (output id, input id) pairs :func:`compose` would fuse, in order."""
    outs = first.outputs_ordered
    ins = second.inputs_ordered
    if len(outs) != len(ins):
        raise ArityMismatch(len(outs), len(ins))
    return tuple(zip(outs, ins))


def pop_isomorphic(a: POPGraph, b: POPGraph) -> bool:
    """Isomorphism of ordered graphs: the k-th edge of one must map to the
    k-th edge of the other, and that forced edge map must extend to a
    src/dst-preserving vertex bijection."""
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
        factor = POPGraph(ProgressiveGraph._spider(DirectedMultigraph(edges), v),
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
    if not pop.graph.internal_vertices:
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
        self.factors: tuple[POPGraph, ...] = tuple(factors)
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
    if not pop.graph.internal_vertices:
        return ElementaryDecomposition([pop])
    factors = [factor for factor, _, _ in _peel(pop)]
    factors.reverse()
    return ElementaryDecomposition(factors)


def recompose(decomposition) -> POPGraph:
    """Fold :func:`compose` over the factors, upstream first."""
    factors = list(decomposition)
    result = factors[0]
    for factor in factors[1:]:
        result = compose(result, factor)
    return result

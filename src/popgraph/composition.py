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
single-vertex layers, each one spider between identity wires.  That is one
walk of steps over the peel order which builds no remainder and no name.
It keeps the line of current outputs as a list in order: the out-legs of
the vertex peeled are a contiguous block of it, the in-legs take their
place, and the factor's order is the line with the in-legs spliced in
before the out-legs.  That splice is the planar order restricted to the
factor, which the theory makes planar, got without sorting by rank.  The
decomposition names each factor's edges on top of the walk.  Peeling
leaves one spider between identity wires, so every factor is progressive
by construction: :func:`elementary_decomposition` still builds and
validates each factor graph, but checks no order again, and ``ppg
decompose`` writes the factors' texts straight from the named steps and
checks nothing again (the test suite validates every factor of its
oracle).  The layout draws the walk's lines as the lines between its
bands, and names nothing.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from typing import NamedTuple

from .core import (DirectedMultigraph, Edge, _fresh, _induces_vertex_bijection,
                   validate_progressive)
from .errors import ArityMismatch, NoInternalVertex, PpgError, _expect_type
from .order import PlanarOrder, POPGraph, interval_partition, validate_planar_order
from .synthesis import _local_data


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


class _Step(NamedTuple):
    """One peel step.  The line before it lists the factor's outputs in
    order, the line after it the factor's inputs: the ``outs`` of ``vertex``
    are the block ``before[k:k + len(outs)]``, which ``ins`` replace in
    ``after``."""
    vertex: str
    k: int
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    before: list[str]
    after: list[str]

    @property
    def order(self) -> list[str]:
        """The factor's planar order: the in-legs spliced in before the out-legs."""
        return [*self.before[:self.k], *self.ins, *self.before[self.k:]]


def _walk(pop: POPGraph):
    """Split off one maximal internal vertex per step, downstream first,
    building no remainder and no name.

    A vertex is maximal (every out-leg on the line) once its last internal
    successor has been peeled; each step takes the maximal vertex whose
    first out-leg comes earliest in the order.  The legs in order come from
    the local data of the planar order.  The line (the current outputs) is
    kept as a list in order: the out-legs of the vertex peeled are a
    contiguous block of it, and the in-legs take their place.
    """
    edges, ix, rank = pop.graph.edges, pop.graph._eix, pop.order._index
    legs, anchor = _local_data(pop)
    # out-legs of each internal vertex whose head is not yet peeled
    pending = {v: sum(edges[ix[e]].dst in legs for e in outs) for v, (_, outs) in legs.items()}
    ready = [(rank[outs[0]], v) for v, (_, outs) in legs.items() if not pending[v]]
    heapq.heapify(ready)
    line = list(anchor.outputs)
    while ready:
        v = heapq.heappop(ready)[1]
        ins, outs = legs[v]
        k = line.index(outs[0])
        after = [*line[:k], *ins, *line[k + len(outs):]]
        yield _Step(v, k, ins, outs, line, after)
        line = after
        for e in ins:
            u = edges[ix[e]].src
            if u in pending:
                pending[u] -= 1
                if not pending[u]:
                    heapq.heappush(ready, (rank[legs[u][1][0]], u))


def _named_steps(pop: POPGraph):
    """The steps of :func:`_walk`, each with its factor's edges in
    declaration order and ``head``, which maps each edge to its current head
    once the step is taken: the walk's own dict, which the next step updates
    in place.  Fresh tails ``s@e`` avoid the names of the factor; fresh heads
    ``t@e`` avoid every name of the graph the step started from, the vertex
    and its output heads included.
    """
    g = pop.graph
    edges, ix, inputs = g.edges, g._eix, g.inputs
    head = {e.id: e.dst for e in edges}
    names = set(g.vertices)
    for step in _walk(pop):
        v, line = step.vertex, step.before
        ids = [*line, *step.ins]
        taken = {v, *map(head.__getitem__, line)}
        taken.update(edges[ix[e]].src for e in ids if e in inputs)
        factor = []
        for e in sorted(ids, key=ix.__getitem__):
            # input tails are degree-one sources already; keeping them lets
            # recomposition restore the original graph vertex for vertex
            src = edges[ix[e]].src
            if src != v and e not in inputs:
                src = _fresh(f"s@{e}", taken)
            factor.append(Edge(e, src, head[e]))

        for e in g.in_edges(v):
            head[e.id] = _fresh(f"t@{e.id}", names)
        names.difference_update([v, *map(head.__getitem__, step.outs)])
        yield step, factor, head


def _factor(step: _Step, edges: list[Edge]) -> POPGraph:
    """The step's factor as an ordered graph, validated as a progressive graph."""
    return POPGraph(validate_progressive(DirectedMultigraph(edges)), PlanarOrder(step.order))


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
    step, edges, head = next(_named_steps(pop))
    dropped = set(step.outs)
    remainder_graph = validate_progressive(DirectedMultigraph(
        Edge(e.id, e.src, head[e.id]) for e in pop.graph.edges if e.id not in dropped))
    remainder = validate_planar_order(
        remainder_graph, [e for e in pop.order if e not in dropped])
    return remainder, _factor(step, edges)


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
    factors = [_factor(step, edges) for step, edges, _ in _named_steps(pop)]
    factors.reverse()
    return ElementaryDecomposition(factors)


def recompose(decomposition) -> POPGraph:
    """:func:`compose` of the factors, upstream first."""
    return compose(*_expect_type(decomposition, "recompose", Iterable))

"""Directed multigraphs and the progressive-graph validity layer.

A progressive graph is a finite acyclic directed multigraph in which every
source and every sink has degree exactly one.  Degree-one vertices are the
boundary; everything else is internal.  Edges whose tail is a boundary vertex
are the graph's inputs, edges whose head is a boundary vertex are its outputs;
a bare edge (boundary at both ends) is both.  Connectivity is not required.
``ProgressiveGraph`` and ``StGraph`` are each a ``DirectedMultigraph`` sharing
the adjacency and the id index (id to declaration index) of the graph it
validates: one per graph.

Reachability here is between *edges*: edge a strictly reaches edge b when a
directed path starts with a and ends with b, a != b; this is the precedence
order that planar orders must extend.  It is kept in one form, integer
bitsets over edge declaration indexes: the rows of the edges each edge
reaches and their transpose, the rows of the edges reaching each edge.
Validation finds a topological order and builds neither; each is built on
first use in one pass over that order, so parsing, decomposing or drawing a
graph never pays O(m^2) for them.  Queries are then O(1); treat the objects
as immutable.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import (
    BadBoundaryDegree,
    CycleDetected,
    DuplicateId,
    PpgError,
    ReservedVertexName,
    UnknownEdge,
    UnknownVertex,
    _expect_type,
)


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class DirectedMultigraph:
    """Edge-labelled directed multigraph.

    Vertices are inferred from edge endpoints, so none is isolated.  Edge ids
    must be unique strings and vertex names strings; an edge that is not an
    (id, src, dst) triple of hashable names, an id or a vertex name that is
    no string, raises PpgError naming it.
    Declaration order of edges is preserved for presentation (``edges``,
    ``in_edges``, ``out_edges``) but is not part of the value: two graphs
    are equal when they have the same set of edges, which gives the vertices.
    The incoming and outgoing edges of every vertex, and the declaration
    index of every edge id (the one id index), are built once, at
    construction.
    """

    def __init__(self, edges: Iterable[Edge | tuple[str, str, str]]):
        try:
            edges = tuple(edges)
            self.edges: tuple[Edge, ...] = tuple(map(_edge, edges))
            self._eix = {e.id: i for i, e in enumerate(self.edges)}
            # an insertion-ordered set: tails and heads in declaration order
            self.vertices: tuple[str, ...] = tuple(dict.fromkeys(
                v for e in self.edges for v in (e.src, e.dst)))
        except TypeError:
            raise _malformed(edges) from None
        try:
            "".join(chain(self._eix, self.vertices))  # in one C pass: every name is a string
        except TypeError:
            bad = next(n for n in chain(self._eix, self.vertices) if not isinstance(n, str))
            kind = "edge id" if bad in self._eix else "vertex"  # chain yields the ids first
            raise PpgError(f"{kind} {bad!r} is not a string") from None
        if len(self._eix) != len(self.edges):
            seen: set[str] = set()
            for e in self.edges:
                if e.id in seen:
                    raise DuplicateId("edge", e.id)
                seen.add(e.id)
        self.edge_ids: tuple[str, ...] = tuple(self._eix)
        ins: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        outs: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            outs[e.src].append(e)
            ins[e.dst].append(e)
        self._in: dict[str, tuple[Edge, ...]] = {v: tuple(es) for v, es in ins.items()}
        self._out: dict[str, tuple[Edge, ...]] = {v: tuple(es) for v, es in outs.items()}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._eix[edge_id]]
        except (KeyError, TypeError):  # unknown, or unhashable so no id
            raise UnknownEdge(edge_id) from None

    def edge_index(self, edge_id: str) -> int:
        """The place of edge ``edge_id`` in declaration order."""
        try:
            return self._eix[edge_id]
        except (KeyError, TypeError):  # unknown, or unhashable so no id
            raise UnknownEdge(edge_id) from None

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._in[v]
        except (KeyError, TypeError):  # unknown, or unhashable so no id
            raise UnknownVertex(v) from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._out[v]
        except (KeyError, TypeError):  # unknown, or unhashable so no id
            raise UnknownVertex(v) from None

    def __eq__(self, other) -> bool:
        # declaration order is presentation, not identity; an st graph equals
        # only an st graph, as it also compares its source and sink
        if not isinstance(other, DirectedMultigraph) or isinstance(other, StGraph):
            return NotImplemented
        return frozenset(self.edges) == frozenset(other.edges)

    def __hash__(self):
        return hash(frozenset(self.edges))

    def __repr__(self):
        return f"DirectedMultigraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def _edge(e) -> Edge:
    """``e`` as an Edge; TypeError unless it unpacks into three fields and is
    no string (a three-character string would unpack into one)."""
    if isinstance(e, Edge):
        return e
    if isinstance(e, str):
        raise TypeError(e)
    return Edge(*e)


def _malformed(edges) -> PpgError:
    """The error for ``edges``, which is not iterable or has a member that
    is not an (id, src, dst) triple of hashable names: it names the first
    such member."""
    if isinstance(edges, tuple):
        for e in edges:
            try:
                hash(_edge(e))
            except TypeError:
                return PpgError(f"edge {e!r} is not an (id, src, dst) triple of hashable names")
    return PpgError(f"{edges!r} is not a collection of edges")


def _toposort(g: DirectedMultigraph) -> list[str]:
    """Vertices in a topological order; raises CycleDetected with a witness."""
    indeg = {v: len(es) for v, es in g._in.items()}
    ready = [v for v in g.vertices if indeg[v] == 0]
    order: list[str] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for e in g._out[v]:
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                ready.append(e.dst)
    if len(order) == len(g.vertices):
        return order
    # Walk predecessors inside the leftover set until a vertex repeats; every
    # stuck vertex keeps at least one unprocessed incoming edge, so the walk
    # cannot leave the set.
    stuck = {v for v in g.vertices if indeg[v] > 0}
    pred: dict[str, str] = {}
    for e in g.edges:
        if e.src in stuck and e.dst in stuck:
            pred.setdefault(e.dst, e.src)
    path: list[str] = []
    at: dict[str, int] = {}
    v = next(iter(sorted(stuck)))
    while v not in at:
        at[v] = len(path)
        path.append(v)
        v = pred[v]
    cycle = path[at[v]:]
    cycle.reverse()
    raise CycleDetected(tuple(cycle) + (cycle[0],))


class ProgressiveGraph(DirectedMultigraph):
    """A validated progressive graph, equal to the multigraph it was validated
    from, whose edges, vertices, adjacency and id index it shares rather than
    builds; its edge reachability rows are built on first use.

    Build via :func:`validate_progressive`; the constructor itself performs
    the checks, so every instance is valid.  Treat instances as immutable.
    """

    def __init__(self, graph: DirectedMultigraph):
        self._topo = _toposort(_expect_type(graph, "ProgressiveGraph", DirectedMultigraph))
        ins, outs = graph._in, graph._out
        for v in graph.vertices:
            if not ins[v] and len(outs[v]) != 1:
                raise BadBoundaryDegree(v, "source", len(outs[v]))
            if not outs[v] and len(ins[v]) != 1:
                raise BadBoundaryDegree(v, "sink", len(ins[v]))

        self.edges, self.vertices, self.edge_ids = graph.edges, graph.vertices, graph.edge_ids
        self._in, self._out, self._eix = ins, outs, graph._eix
        self.internal_vertices: frozenset[str] = frozenset(
            v for v in graph.vertices if ins[v] and outs[v])
        self.inputs: frozenset[str] = frozenset(
            e.id for e in graph.edges if e.src not in self.internal_vertices)
        self.outputs: frozenset[str] = frozenset(
            e.id for e in graph.edges if e.dst not in self.internal_vertices)

    @cached_property
    def _ereach(self) -> tuple[int, ...]:
        """The reach rows, in one downstream pass over the stored order."""
        return tuple(self._downstream(self._eix))

    def _downstream(self, index: dict[str, int]) -> list[int]:
        """Per edge, at its place in ``index``, the edges it strictly reaches,
        as bits over ``index``; ``down[v]`` gathers the edges whose tail v reaches."""
        out, down = self._out, {}
        rows = [0] * len(index)
        for v in reversed(self._topo):
            acc = 0
            for e in out[v]:
                i = index[e.id]
                rows[i] = row = down[e.dst]
                acc |= 1 << i | row
            down[v] = acc
        return rows

    @cached_property
    def _ereachers(self) -> tuple[int, ...]:
        """The transpose of the reach rows, in one upstream pass over the
        stored order."""
        head_union: dict[str, int] = {}  # edges whose head reaches v, reflexively
        for v in self._topo:
            acc = 0
            for e in self._in[v]:
                acc |= 1 << self._eix[e.id] | head_union[e.src]
            head_union[v] = acc
        return tuple(head_union[e.src] for e in self.edges)

    # -- queries ----------------------------------------------------------

    def strictly_reaches(self, e1: str, e2: str) -> bool:
        return bool(self.reach_bits(e1) >> self.edge_index(e2) & 1)

    def reach_bits(self, e1: str) -> int:
        """Strict reachability row as a bitset over edge declaration indexes."""
        return self._ereach[self.edge_index(e1)]

    def reacher_bits(self, e2: str) -> int:
        """The edges that strictly reach e2, as a bitset over edge declaration
        indexes: the transpose of :meth:`reach_bits`."""
        return self._ereachers[self.edge_index(e2)]

    def __repr__(self):
        return (f"ProgressiveGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.internal_vertices)} internal)")


def validate_progressive(graph: DirectedMultigraph) -> ProgressiveGraph:
    """Check acyclicity and boundary degrees."""
    return ProgressiveGraph(graph)


def _sides(value, what: str) -> tuple[tuple, tuple]:
    """The two sides of ``what`` (a vertex order, a rotation or the anchor)
    as tuples; PpgError naming it unless there are exactly two, each a
    collection of ids (a string is refused, not split into characters)."""
    try:
        first, second = value  # a string of two characters gives two strings
        if not isinstance(first, str) and not isinstance(second, str):
            return tuple(first), tuple(second)
    except (TypeError, ValueError):
        pass
    raise PpgError(f"{what} must have exactly two sides of edge ids")


class StGraph(DirectedMultigraph):
    """A planar-st-style graph: one source ``s``, one sink ``t``, acyclic.
    It shares the edges, vertices, adjacency and id index of the multigraph
    it validates, and equals only an st graph with the same edges, source
    and sink.

    ``rotation`` optionally records, per vertex, the circular order of
    incident edges as (incoming tuple, outgoing tuple); it is carried through
    parsing and emission untouched.  Each key must be a vertex
    (UnknownVertex), each value two sides (PpgError) of declared edge ids
    (UnknownEdge), so that emitting and parsing give the rotation back;
    incidence is not checked, and a vertex with both sides empty is dropped.
    """

    def __init__(self, graph: DirectedMultigraph, source: str, sink: str,
                 rotation: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] | None = None):
        _expect_type(graph, "StGraph", DirectedMultigraph)
        _expect_type(rotation, "StGraph", Mapping, type(None))
        if source not in graph.vertices:
            raise UnknownVertex(source)
        if sink not in graph.vertices:
            raise UnknownVertex(sink)
        _toposort(graph)
        # an acyclic graph has a vertex with no in-edge and one with no
        # out-edge, so the loop also refuses a source with an in-edge and a
        # sink with an out-edge
        ins, outs = graph._in, graph._out
        for v in graph.vertices:
            if not ins[v] and v != source:
                raise BadBoundaryDegree(v, "source", len(outs[v]), declared=source)
            if not outs[v] and v != sink:
                raise BadBoundaryDegree(v, "sink", len(ins[v]), declared=sink)
        self.edges, self.vertices, self.edge_ids = graph.edges, graph.vertices, graph.edge_ids
        self._in, self._out, self._eix = ins, outs, graph._eix
        self.source = source
        self.sink = sink
        self.rotation = {}
        for v, value in (rotation or {}).items():
            if v not in ins:
                raise UnknownVertex(v)
            incoming, outgoing = sides = _sides(value, f"the rotation at {v!r}")
            for e in incoming + outgoing:
                self.edge(e)  # UnknownEdge unless declared
            if incoming or outgoing:
                self.rotation[v] = sides

    def __eq__(self, other) -> bool:
        if not isinstance(other, StGraph):
            return NotImplemented
        return ((frozenset(self.edges), self.source, self.sink)
                == (frozenset(other.edges), other.source, other.sink))

    def __repr__(self):
        return f"StGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def hat(p: ProgressiveGraph) -> StGraph:
    """Merge all boundary sources into a fresh vertex ``s`` and all boundary
    sinks into a fresh ``t``.  Edge ids are preserved; the names ``s`` and
    ``t`` must not already be in use."""
    s, t = _apexes(_expect_type(p, "hat", ProgressiveGraph))
    edges = []
    for e in p.edges:
        src = s if e.id in p.inputs else e.src
        dst = t if e.id in p.outputs else e.dst
        edges.append(Edge(e.id, src, dst))
    return StGraph(DirectedMultigraph(edges), s, t)


def _apexes(p: ProgressiveGraph) -> tuple[str, str]:
    """The names ``s`` and ``t`` of the source and sink apexes that
    :func:`hat` and st drawings add; ReservedVertexName when p uses one."""
    for name in ("s", "t"):
        if name in p.vertices:
            raise ReservedVertexName(name)
    return "s", "t"


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def circ(st: StGraph) -> ProgressiveGraph:
    """Split ``s`` and ``t`` back off: every edge leaving the source gets its
    own fresh degree-one tail, every edge entering the sink its own fresh
    head.  Inverse of :func:`hat` up to isomorphism."""
    taken = set(_expect_type(st, "circ", StGraph).vertices)
    edges = []
    for e in st.edges:
        src = _fresh(f"s@{e.id}", taken) if e.src == st.source else e.src
        dst = _fresh(f"t@{e.id}", taken) if e.dst == st.sink else e.dst
        edges.append(Edge(e.id, src, dst))
    return validate_progressive(DirectedMultigraph(edges))


def _induces_vertex_bijection(pairs: Iterable[tuple[Edge, Edge]]) -> bool:
    """True when mapping each edge's endpoints onto its partner's endpoints
    (tail to tail, head to head) is a well-defined bijection of vertices."""
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}
    for ea, eb in pairs:
        for va, vb in ((ea.src, eb.src), (ea.dst, eb.dst)):
            if fwd.setdefault(va, vb) != vb or rev.setdefault(vb, va) != va:
                return False
    return True

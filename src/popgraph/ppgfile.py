"""The .ppg and .stg text formats.

Both are line-oriented: tokens separated by whitespace, ``#`` starts a
comment, blank lines ignored.  A .ppg file is

    ppg 1
    edge <id> <src> <dst>        # one per edge, any number
    inputs <edge> ...            # optional boundary anchors
    outputs <edge> ...
    in <vertex> <edge> ...       # optional vertex orders, internal
    out <vertex> <edge> ...      #   vertices only
    order <edge> ...             # optional planar order

and a .stg file replaces the anchors with ``source <v>`` / ``sink <v>``
lines (mandatory) and allows ``in``/``out`` rotation lines at any vertex,
which are carried through untouched.

One scanner reads both formats: edge lines first, then the rest in one pass.
Each format passes a reader per single-use directive; the in/out lines of
both fill one per-vertex table (in edges, out edges, first line), read as
vertex orders by ``parse_ppg`` and as rotations by ``parse_stg``.

Grammar violations (bad header, malformed lines, references to undeclared
ids, duplicated sections, vertex-order lines at boundary vertices) raise
ParseError with the line number.  Everything the grammar cannot see is
checked semantically after parsing: the graph must be progressive, anchors
and vertex orders must be permutations of the actual boundary and incident
edges (the one check :class:`PAGraph` runs, applied to partial data too),
and an ``order`` line must be a valid planar order; those failures raise the
corresponding validation errors, which carry no line numbers.  Last, an
``order`` line must give back whatever anchors and vertex orders the file
has, or a PpgError names the first anchor side or vertex that differs.

Emission is canonical and deterministic: header, edges in declaration
order, anchors, vertex orders sorted by vertex id, order line; emitting a
parsed document reproduces it value for value.
"""

from __future__ import annotations

from .core import DirectedMultigraph, ProgressiveGraph, StGraph, validate_progressive
from .errors import ParseError, PpgError
from .order import PlanarOrder, POPGraph, validate_planar_order
from .synthesis import (Anchor, PAGraph, VertexOrder, _check_local_data, _local_data,
                        synthesize_order)


class PpgDocument:
    """Parsed .ppg contents: a progressive graph plus whatever optional
    annotations the file carried, each validated on construction."""

    def __init__(self, graph: ProgressiveGraph,
                 vertex_orders: dict[str, VertexOrder] | None = None,
                 anchor: Anchor | None = None,
                 order: PlanarOrder | None = None):
        self.graph = graph
        # empty and absent vertex orders mean the same thing; normalize so
        # round-tripping through text compares equal
        self.vertex_orders = dict(vertex_orders) if vertex_orders else None
        self.anchor = anchor
        self.order = order
        self._pop = validate_planar_order(graph, order.sequence) if order is not None else None
        self._pa: PAGraph | None = None
        if anchor is not None and set(vertex_orders or ()) == set(graph.internal_vertices):
            self._pa = PAGraph(graph, vertex_orders or {}, anchor)
        else:
            _check_local_data(graph, vertex_orders or {}, anchor)
        if self._pop is not None:  # last, so the checks above keep their precedence
            read_orders, read_anchor = _local_data(self._pop)
            for side, given, read in zip(("inputs", "outputs"), anchor or (), read_anchor):
                if tuple(given) != read:
                    raise PpgError(f"the order line disagrees with the {side} line")
            for v in sorted(self.vertex_orders or ()):
                if tuple(map(tuple, self.vertex_orders[v])) != read_orders[v]:
                    raise PpgError(f"the order line disagrees with the vertex order at {v!r}")

    def has_pa(self) -> bool:
        return self._pa is not None

    def pa(self) -> PAGraph:
        if self._pa is None:
            raise PpgError("document carries no complete vertex-order/anchor data")
        return self._pa

    def pop(self) -> POPGraph:
        if self._pop is None:
            raise PpgError("document carries no order line")
        return self._pop

    def pop_or_synthesized(self) -> POPGraph:
        """The declared planar order, or the one synthesized from the
        vertex orders and anchors."""
        if self._pop is not None:
            return self._pop
        return POPGraph(self.graph, synthesize_order(self.pa()))

    def __eq__(self, other):
        if not isinstance(other, PpgDocument):
            return NotImplemented
        return ((self.graph, self.vertex_orders, self.anchor, self.order) ==
                (other.graph, other.vertex_orders, other.anchor, other.order))

    def __repr__(self):
        return f"PpgDocument({len(self.graph.edges)} edges)"


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), 1):
        hash_at = raw.find("#")
        if hash_at != -1:
            raw = raw[:hash_at]
        tokens = raw.split()
        if tokens:
            yield no, tokens


def _parse_common(text: str, kind: str, directives: dict):
    """Header and edge lines, then every other line.  ``directives`` maps
    each single-use directive to ``read(no, tokens, ids)``; those found map to
    (line, value).  In/out lines fill vertex -> [ins, outs, first line, key]."""
    rows = list(_lines(text))
    if not rows:
        raise ParseError(1, f"empty file, expected a '{kind} 1' header")
    no, tokens = rows[0]
    if tokens != [kind, "1"]:
        raise ParseError(no, f"expected header '{kind} 1'")
    edges: list[tuple[str, str, str]] = []
    ids: set[str] = set()
    for no, tokens in rows[1:]:
        if tokens[0] == "edge":
            if len(tokens) != 4:
                raise ParseError(no, "edge lines take exactly: edge <id> <src> <dst>")
            _, eid, src, dst = tokens
            if eid in ids:
                raise ParseError(no, f"duplicate edge id {eid!r}")
            ids.add(eid)
            edges.append((eid, src, dst))

    found: dict[str, tuple[int, object]] = {}
    legs: dict[str, list] = {}
    for no, tokens in rows[1:]:
        key = tokens[0]
        if key == "edge":
            continue
        if key in directives:
            if key in found:
                raise ParseError(no, f"duplicate {key} line")
            found[key] = (no, directives[key](no, tokens, ids))
        elif key in ("in", "out"):
            if len(tokens) < 2:
                raise ParseError(no, f"{key} lines take: {key} <vertex> <edge> ...")
            v = tokens[1]
            entry = legs.setdefault(v, [None, None, no, key])
            slot = 0 if key == "in" else 1
            if entry[slot] is not None:
                raise ParseError(no, f"duplicate {key} line for vertex {v!r}")
            entry[slot] = _edge_list(no, tokens[2:], ids)
        else:
            raise ParseError(no, f"unknown directive {key!r}")
    return edges, found, legs


def _edge_list(no: int, tokens: list[str], ids: set[str]) -> tuple[str, ...]:
    for t in tokens:
        if t not in ids:
            raise ParseError(no, f"undeclared edge id {t!r}")
    return tuple(tokens)


def _one_vertex(no: int, tokens: list[str], ids: set[str]) -> str:
    if len(tokens) != 2:
        raise ParseError(no, f"{tokens[0]} lines take exactly one vertex")
    return tokens[1]


def parse_ppg(text: str) -> PpgDocument:
    edges, found, legs = _parse_common(text, "ppg", dict.fromkeys(
        ("inputs", "outputs", "order"), lambda no, tokens, ids: _edge_list(no, tokens[1:], ids)))
    graph = validate_progressive(DirectedMultigraph(edges))
    for v, (_, _, no, key) in legs.items():
        if v not in graph.vertices:
            raise ParseError(no, f"unknown vertex {v!r}")
        if v not in graph.internal_vertices:
            raise ParseError(no, f"vertex {v!r} is on the boundary and takes no {key} line")

    if ("inputs" in found) != ("outputs" in found):
        raise ParseError((found.get("inputs") or found["outputs"])[0],
                         "inputs and outputs lines must appear together")
    anchor = Anchor(found["inputs"][1], found["outputs"][1]) if "inputs" in found else None
    lone = sorted(v for v, (i, o, _, _) in legs.items() if i is None or o is None)
    if lone:
        raise ParseError(legs[lone[0]][2], f"vertex {lone[0]!r} needs both an in and an out line")
    vertex_orders = {v: VertexOrder(*legs[v][:2]) for v in sorted(legs)}
    order = found.get("order")
    return PpgDocument(graph, vertex_orders, anchor,
                       PlanarOrder(order[1]) if order is not None else None)


def emit_ppg(doc: PpgDocument | POPGraph | PAGraph | ProgressiveGraph) -> str:
    """Canonical text for a document, ordered graph, or annotated graph.

    A POPGraph is written in full form (anchors and vertex orders derived
    from the order); nothing is validated again.
    """
    if isinstance(doc, POPGraph):
        (vertex_orders, anchor), graph, order = _local_data(doc), doc.graph, doc.order
    elif isinstance(doc, PAGraph):
        graph, vertex_orders, anchor, order = doc.graph, doc.vertex_orders, doc.anchor, None
    elif isinstance(doc, ProgressiveGraph):
        graph, vertex_orders, anchor, order = doc, None, None, None
    else:
        graph, vertex_orders, anchor, order = doc.graph, doc.vertex_orders, doc.anchor, doc.order

    out = ["ppg 1"]
    for e in graph.edges:
        out.append(f"edge {e.id} {e.src} {e.dst}")
    if anchor is not None:
        out.append("inputs " + " ".join(anchor.inputs))
        out.append("outputs " + " ".join(anchor.outputs))
    for v in sorted(vertex_orders or {}):
        out.append(f"in {v} " + " ".join(vertex_orders[v].incoming))
        out.append(f"out {v} " + " ".join(vertex_orders[v].outgoing))
    if order is not None:
        out.append("order " + " ".join(order.sequence))
    return "\n".join(out) + "\n"


def parse_stg(text: str) -> StGraph:
    edges, found, legs = _parse_common(text, "stg", dict.fromkeys(("source", "sink"), _one_vertex))
    if "source" not in found or "sink" not in found:
        raise ParseError(len(text.splitlines()) or 1,
                         "stg files need source and sink lines")
    graph = DirectedMultigraph(edges)
    for v, (_, _, no, _) in legs.items():
        if v not in graph.vertices:
            raise ParseError(no, f"unknown vertex {v!r}")
    rotation = {v: (i or (), o or ()) for v, (i, o, _, _) in legs.items()}
    return StGraph(graph, found["source"][1], found["sink"][1], rotation or None)


def emit_stg(st: StGraph) -> str:
    out = ["stg 1"]
    for e in st.graph.edges:
        out.append(f"edge {e.id} {e.src} {e.dst}")
    out.append(f"source {st.source}")
    out.append(f"sink {st.sink}")
    for v in sorted(st.rotation):
        incoming, outgoing = st.rotation[v]
        if incoming:
            out.append(f"in {v} " + " ".join(incoming))
        if outgoing:
            out.append(f"out {v} " + " ".join(outgoing))
    return "\n".join(out) + "\n"

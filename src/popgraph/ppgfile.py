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

Grammar violations (bad header, malformed lines, references to undeclared
ids, duplicated sections, vertex-order lines at boundary vertices) raise
ParseError with the line number.  Everything the grammar cannot see is
checked semantically after parsing: the graph must be progressive, anchors
and vertex orders must be permutations of the actual boundary and incident
edges, and an ``order`` line must be a valid planar order; those failures
raise the corresponding validation errors, which carry no line numbers.

Emission is canonical and deterministic: header, edges in declaration
order, anchors, vertex orders sorted by vertex id, order line; emitting a
parsed document reproduces it value for value.
"""

from __future__ import annotations

from .core import DirectedMultigraph, ProgressiveGraph, StGraph, validate_progressive
from .errors import ParseError, PpgError
from .order import PlanarOrder, POPGraph, _expect_permutation, validate_planar_order
from .synthesis import Anchor, PAGraph, VertexOrder, extract_pa, synthesize_order


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
        self._pop: POPGraph | None = None
        self._pa: PAGraph | None = None

        if order is not None:
            self._pop = validate_planar_order(graph, order.sequence)
        if anchor is not None:
            _expect_permutation(anchor.inputs, graph.inputs)
            _expect_permutation(anchor.outputs, graph.outputs)
        if vertex_orders:
            for v, vo in vertex_orders.items():
                _expect_permutation(vo.incoming, (e.id for e in graph.in_edges(v)))
                _expect_permutation(vo.outgoing, (e.id for e in graph.out_edges(v)))
        if anchor is not None and set(vertex_orders or ()) == set(graph.internal_vertices):
            self._pa = PAGraph(graph, vertex_orders or {}, anchor)

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
        return ((self.graph, self.vertex_orders, self.anchor) ==
                (other.graph, other.vertex_orders, other.anchor)
                and (self.order is None) == (other.order is None)
                and (self.order is None or self.order == other.order))

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


def _parse_common(text: str, kind: str):
    """Shared scanner: header, edge lines, and per-directive token lists."""
    rows = list(_lines(text))
    if not rows:
        raise ParseError(1, f"empty file, expected a '{kind} 1' header")
    no, tokens = rows[0]
    if tokens != [kind, "1"]:
        raise ParseError(no, f"expected header '{kind} 1'")
    edges: list[tuple[str, str, str]] = []
    ids: set[str] = set()
    rest: list[tuple[int, list[str]]] = []
    for no, tokens in rows[1:]:
        if tokens[0] == "edge":
            if len(tokens) != 4:
                raise ParseError(no, "edge lines take exactly: edge <id> <src> <dst>")
            _, eid, src, dst = tokens
            if eid in ids:
                raise ParseError(no, f"duplicate edge id {eid!r}")
            ids.add(eid)
            edges.append((eid, src, dst))
        else:
            rest.append((no, tokens))
    return edges, ids, rest


def _edge_list(no: int, tokens: list[str], ids: set[str]) -> tuple[str, ...]:
    for t in tokens:
        if t not in ids:
            raise ParseError(no, f"undeclared edge id {t!r}")
    return tuple(tokens)


def parse_ppg(text: str) -> PpgDocument:
    edges, ids, rest = _parse_common(text, "ppg")
    inputs = outputs = order = None
    ins: dict[str, tuple[str, ...]] = {}
    outs: dict[str, tuple[str, ...]] = {}
    for no, tokens in rest:
        key = tokens[0]
        if key in ("inputs", "outputs", "order"):
            seen = {"inputs": inputs, "outputs": outputs, "order": order}[key]
            if seen is not None:
                raise ParseError(no, f"duplicate {key} line")
            val = _edge_list(no, tokens[1:], ids)
            if key == "inputs":
                inputs = val
            elif key == "outputs":
                outputs = val
            else:
                order = val
        elif key in ("in", "out"):
            if len(tokens) < 2:
                raise ParseError(no, f"{key} lines take: {key} <vertex> <edge> ...")
            v = tokens[1]
            table = ins if key == "in" else outs
            if v in table:
                raise ParseError(no, f"duplicate {key} line for vertex {v!r}")
            table[v] = _edge_list(no, tokens[2:], ids)
        else:
            raise ParseError(no, f"unknown directive {key!r}")

    graph = validate_progressive(DirectedMultigraph(edges))
    for no, tokens in rest:
        if tokens[0] in ("in", "out"):
            v = tokens[1]
            if v not in graph.vertices:
                raise ParseError(no, f"unknown vertex {v!r}")
            if v not in graph.internal_vertices:
                raise ParseError(no, f"vertex {v!r} is on the boundary and takes no "
                                     f"{tokens[0]} line")

    if (inputs is None) != (outputs is None):
        no = next(n for n, t in rest if t[0] in ("inputs", "outputs"))
        raise ParseError(no, "inputs and outputs lines must appear together")
    anchor = Anchor(inputs, outputs) if inputs is not None else None
    vertex_orders = None
    if ins or outs:
        if set(ins) != set(outs):
            lone = sorted(set(ins) ^ set(outs))[0]
            no = next(n for n, t in rest if t[0] in ("in", "out") and t[1] == lone)
            raise ParseError(no, f"vertex {lone!r} needs both an in and an out line")
        vertex_orders = {v: VertexOrder(ins[v], outs[v]) for v in sorted(ins)}
    return PpgDocument(graph, vertex_orders, anchor,
                       PlanarOrder(order) if order is not None else None)


def emit_ppg(doc: PpgDocument | POPGraph | PAGraph | ProgressiveGraph) -> str:
    """Canonical text for a document, ordered graph, or annotated graph.

    A POPGraph is written in full form (anchors and vertex orders derived
    from the order); nothing is validated again.
    """
    if isinstance(doc, POPGraph):
        pa = extract_pa(doc)
        graph, vertex_orders, anchor, order = doc.graph, pa.vertex_orders, pa.anchor, doc.order
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
    edges, ids, rest = _parse_common(text, "stg")
    source = sink = None
    rotation: dict[str, list[tuple[str, ...] | None]] = {}
    for no, tokens in rest:
        key = tokens[0]
        if key in ("source", "sink"):
            if len(tokens) != 2:
                raise ParseError(no, f"{key} lines take exactly one vertex")
            if (source if key == "source" else sink) is not None:
                raise ParseError(no, f"duplicate {key} line")
            if key == "source":
                source = tokens[1]
            else:
                sink = tokens[1]
        elif key in ("in", "out"):
            if len(tokens) < 2:
                raise ParseError(no, f"{key} lines take: {key} <vertex> <edge> ...")
            v = tokens[1]
            slot = 0 if key == "in" else 1
            entry = rotation.setdefault(v, [None, None])
            if entry[slot] is not None:
                raise ParseError(no, f"duplicate {key} line for vertex {v!r}")
            entry[slot] = _edge_list(no, tokens[2:], ids)
        else:
            raise ParseError(no, f"unknown directive {key!r}")
    if source is None or sink is None:
        raise ParseError(len(text.splitlines()) or 1,
                         "stg files need source and sink lines")
    graph = DirectedMultigraph(edges)
    rot = {v: (pair[0] or (), pair[1] or ()) for v, pair in rotation.items()}
    for v in rot:
        if v not in graph.vertices:
            no = next(n for n, t in rest if t[0] in ("in", "out") and t[1] == v)
            raise ParseError(no, f"unknown vertex {v!r}")
    return StGraph(graph, source, sink, rot or None)


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

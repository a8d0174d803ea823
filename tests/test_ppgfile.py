from __future__ import annotations

import random
import time

import pytest

import popgraph as pg
from conftest import FIXTURES, load


MINI = """\
ppg 1
edge 1 p v
edge 2 v q
inputs 1
outputs 2
in v 1
out v 2
order 1 2
"""

STG = """\
stg 1
edge a s v
edge b s v
edge c v t
source s
sink t
in v a b
out v c
in t c
"""


class TestParsePpg:
    def test_canonical_fixture(self):
        doc = pg.parse_ppg((FIXTURES / "canonical19.ppg").read_text())
        assert len(doc.graph.edges) == 19
        assert len(doc.graph.internal_vertices) == 6
        assert doc.anchor.inputs == ("1", "2", "3", "4", "10", "11", "17", "19")
        assert set(doc.vertex_orders) == {"A", "B", "C", "D", "E", "F"}
        assert doc.order.sequence == tuple(str(i) for i in range(1, 20))
        assert doc.has_pa()

    def test_minimal(self):
        doc = pg.parse_ppg(MINI)
        assert doc.pop().order.sequence == ("1", "2")
        assert doc.pa().vertex_orders["v"] == (("1",), ("2",))

    def test_edges_only(self):
        doc = pg.parse_ppg("ppg 1\nedge 1 p v\nedge 2 v q\n")
        assert doc.anchor is None and doc.vertex_orders is None and doc.order is None
        assert not doc.has_pa()
        with pytest.raises(pg.PpgError, match="no order line"):
            doc.pop()
        with pytest.raises(pg.PpgError, match="vertex-order"):
            doc.pa()

    def test_comments_and_blanks(self):
        text = "\n# banner\n  ppg 1  # trailing\n\nedge 1 p q # bare\n   \n"
        doc = pg.parse_ppg(text)
        assert doc.graph.edge("1") == ("1", "p", "q")

    def test_synthesis_fallback(self):
        doc = pg.parse_ppg((FIXTURES / "spider22.ppg").read_text())
        assert doc.order is None and doc.has_pa()
        pop = doc.pop_or_synthesized()
        assert pop.order.sequence == ("i1", "i2", "o1", "o2")

    def test_declared_order_wins_over_synthesis(self):
        doc = pg.parse_ppg(MINI)
        assert doc.pop_or_synthesized() is doc.pop()


class TestParseErrors:
    def err(self, text):
        with pytest.raises(pg.ParseError) as exc:
            pg.parse_ppg(text)
        return exc.value

    def test_empty(self):
        assert self.err("").line == 1

    def test_bad_header(self):
        e = self.err("pgg 1\n")
        assert e.line == 1 and "header" in str(e)

    def test_wrong_version(self):
        assert "header" in str(self.err("ppg 2\n"))

    def test_edge_arity(self):
        e = self.err("ppg 1\nedge 1 p\n")
        assert e.line == 2 and "edge <id> <src> <dst>" in str(e)

    def test_duplicate_edge(self):
        e = self.err("ppg 1\nedge 1 p q\nedge 1 r s\n")
        assert e.line == 3 and "duplicate edge id '1'" in str(e)

    def test_unknown_directive(self):
        e = self.err("ppg 1\nedge 1 p q\nsource p\n")
        assert e.line == 3 and "unknown directive" in str(e)

    def test_undeclared_edge_in_order(self):
        e = self.err("ppg 1\nedge 1 p q\norder 1 7\n")
        assert e.line == 3 and "undeclared edge id '7'" in str(e)

    def test_duplicate_section(self):
        e = self.err("ppg 1\nedge 1 p q\norder 1\norder 1\n")
        assert e.line == 4 and "duplicate order line" in str(e)

    def test_duplicate_in_line(self):
        text = "ppg 1\nedge 1 p v\nedge 2 v q\nin v 1\nin v 1\n"
        assert "duplicate in line" in str(self.err(text))

    def test_boundary_vertex_rejected(self):
        e = self.err("ppg 1\nedge 1 p q\nin p 1\nout p 1\n")
        assert "boundary" in str(e) and e.line == 3

    def test_unknown_vertex(self):
        e = self.err("ppg 1\nedge 1 p q\nin w 1\nout w 1\n")
        assert "unknown vertex 'w'" in str(e)

    def test_lone_in_line(self):
        e = self.err("ppg 1\nedge 1 p v\nedge 2 v q\nin v 1\n")
        assert "both an in and an out line" in str(e) and e.line == 4

    def test_inputs_without_outputs(self):
        e = self.err("ppg 1\nedge 1 p q\ninputs 1\n")
        assert "must appear together" in str(e) and e.line == 3

    def test_str_carries_line(self):
        assert str(self.err("ppg 1\nedge 1 p\n")).startswith("line 2:")


class TestSemanticErrors:
    def test_cycle(self):
        with pytest.raises(pg.CycleDetected):
            pg.parse_ppg("ppg 1\nedge 1 p v\nedge 2 v w\nedge 3 w v\nedge 4 w q\n")

    def test_bad_boundary_degree(self):
        with pytest.raises(pg.BadBoundaryDegree):
            pg.parse_ppg("ppg 1\nedge 1 p q\nedge 2 p r\n")

    def test_anchor_not_a_permutation(self):
        with pytest.raises(pg.NotAPermutation):
            pg.parse_ppg("ppg 1\nedge 1 p v\nedge 2 v q\ninputs 2\noutputs 1\n")

    def test_vertex_order_not_a_permutation(self):
        with pytest.raises(pg.NotAPermutation):
            pg.parse_ppg("ppg 1\nedge 1 p v\nedge 2 v q\nin v 2\nout v 1\n")

    def test_duplicate_order_ids(self):
        with pytest.raises(pg.NotAPermutation):
            pg.parse_ppg("ppg 1\nedge 1 p q\nedge 2 r s\norder 1 1\n")

    @pytest.mark.parametrize("lines", ["order" + " e" * 100_000,
                                       "inputs" + " e" * 100_000 + "\noutputs f"],
                             ids=["order", "inputs"])
    def test_long_duplicate_lines_are_refused_quickly(self, lines):
        start = time.perf_counter()
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.parse_ppg(f"ppg 1\nedge e p v\nedge f v q\n{lines}\n")
        assert exc.value.duplicated == ("e",)
        assert time.perf_counter() - start < 1.0

    def test_invalid_planar_order(self, canonical):
        text = (FIXTURES / "canonical19.ppg").read_text()
        swapped = text.replace("order 1 2 3 4 5 6 7 8 9",
                               "order 1 2 3 4 5 6 7 9 8")
        with pytest.raises(pg.InvalidPlanarOrder) as exc:
            pg.parse_ppg(swapped)
        assert ("5", "9", "8") in exc.value.betweenness_violations

    @pytest.mark.parametrize("edits, named", [
        ({"outputs 7 13": "outputs 13 7"}, "the outputs line"),
        ({"inputs 1 2": "inputs 2 1"}, "the inputs line"),
        ({"inputs 1 2": "inputs 2 1", "out B 7 8": "out B 8 7"}, "the inputs line"),
        ({"out C 13 14": "out C 14 13", "out B 7 8": "out B 8 7"}, "the vertex order at 'B'"),
    ], ids=["outputs", "inputs", "anchor-first", "first-vertex"])
    def test_order_line_disagrees_with_local_data(self, edits, named):
        text = (FIXTURES / "canonical19.ppg").read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        with pytest.raises(pg.PpgError, match=f"^the order line disagrees with {named}$"):
            pg.parse_ppg(text)
        # partial local data is compared too
        partial = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith(("in C", "out C")))
        with pytest.raises(pg.PpgError, match=f"^the order line disagrees with {named}$"):
            pg.parse_ppg(partial)

    def test_an_invalid_order_line_is_reported_first(self):
        text = (FIXTURES / "canonical19.ppg").read_text()
        text = text.replace("order 1 2 3 4 5 6 7 8 9", "order 1 2 3 4 5 6 7 9 8")
        with pytest.raises(pg.InvalidPlanarOrder):
            pg.parse_ppg(text.replace("outputs 7 13", "outputs 13 7"))


# full-form canonical19 with a valid order line but for the edits, and the
# error the parse raises: order errors first, then local-data errors, then
# "the order line disagrees with ..."
PRECEDENCE = {
    "anchor-missing": ({"inputs 1 2 3 4 10 11 17 19": "inputs 1 2 3 4 10 11 17"},
                       pg.NotAPermutation, "not a permutation of the edge set: missing 19"),
    "anchor-repeat": ({"outputs 7 13 14 16 18 19": "outputs 7 13 14 16 18 18"},
                      pg.NotAPermutation,
                      "not a permutation of the edge set: missing 19; duplicated 18"),
    "foreign-leg": ({"out B 7 8": "out B 7 9"},
                    pg.NotAPermutation, "not a permutation of the edge set: missing 8; extra 9"),
    "missing-leg": ({"in A 2 3 4": "in A 2 3"},
                    pg.NotAPermutation, "not a permutation of the edge set: missing 4"),
    "swapped-legs": ({"out B 7 8": "out B 8 7"},
                     pg.PpgError, "the order line disagrees with the vertex order at 'B'"),
    "reversed-outputs": ({"outputs 7 13 14 16 18 19": "outputs 19 18 16 14 13 7"},
                         pg.PpgError, "the order line disagrees with the outputs line"),
    "reversed-inputs": ({"inputs 1 2 3 4 10 11 17 19": "inputs 19 17 11 10 4 3 2 1"},
                        pg.PpgError, "the order line disagrees with the inputs line"),
    "foreign-leg-then-reversed": (
        {"out B 7 8": "out B 7 9", "outputs 7 13 14 16 18 19": "outputs 19 18 16 14 13 7"},
        pg.NotAPermutation, "not a permutation of the edge set: missing 8; extra 9"),
    "swapped-then-foreign": (
        {"out B 7 8": "out B 8 7", "out C 13 14": "out C 13 7"},
        pg.NotAPermutation, "not a permutation of the edge set: missing 14; extra 7"),
    "bad-order-then-foreign": (
        {"order 1 2 3 4 5 6 7 8 9": "order 1 2 3 4 5 6 7 9 8", "out B 7 8": "out B 7 9"},
        pg.InvalidPlanarOrder,
        "not a planar order: 9 sits between 1 and 8 but relates to neither; 9 sits between "
        "5 and 8 but relates to neither; 9 sits between 6 and 8 but relates to neither"),
}

# the same for a document built directly: each entry edits the parsed
# (vertex orders, anchor) of canonical19
DIRECT = {
    "extra-key": (lambda vo, a: ({**vo, "p1": (("1",), ("1",))}, a),
                  pg.UnknownVertex, "unknown vertex id 'p1'"),
    "foreign-key": (lambda vo, a: ({**{v: o for v, o in vo.items() if v != "A"},
                                    "zz": vo["A"]}, a),
                    pg.UnknownVertex, "unknown vertex id 'zz'"),
    "string-side": (lambda vo, a: ({**vo, "E": ("15", ("16",))}, a),
                    pg.PpgError, "the vertex order at 'E' must have exactly two sides of edge ids"),
    "set-side": (lambda vo, a: ({**vo, "E": ({"15"}, ("16",))}, a),
                 pg.PpgError, "the vertex order at 'E' must have exactly two sides of edge ids"),
    "one-side": (lambda vo, a: ({**vo, "E": (("15",),)}, a),
                 pg.PpgError, "the vertex order at 'E' must have exactly two sides of edge ids"),
    "set-anchor": (lambda vo, a: (vo, (set(a[0]), a[1])),
                   pg.PpgError, "the anchor must have exactly two sides of edge ids"),
    "string-anchor": (lambda vo, a: (vo, (" ".join(a[0]), a[1])),
                      pg.PpgError, "the anchor must have exactly two sides of edge ids"),
    "swapped-then-string": (lambda vo, a: ({**vo, "B": (("1", "5", "6"), ("8", "7")),
                                            "E": ("15", ("16",))}, a),
                            pg.PpgError,
                            "the vertex order at 'E' must have exactly two sides of edge ids"),
    "not-a-mapping": (lambda vo, a: (list(vo.items()), a), pg.PpgError,
                      "vertex orders must be a mapping from internal vertex to its order, "
                      "not list"),
}


class TestParseComparison:
    """A full-form file is compared with the local data its order line
    reads; only what differs goes through the permutation checks, which
    keep their precedence and messages."""

    @pytest.mark.parametrize("name", PRECEDENCE)
    def test_a_fault_in_a_full_form_file(self, name):
        edits, kind, message = PRECEDENCE[name]
        text = (FIXTURES / "canonical19.ppg").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(pg.PpgError) as exc:
            pg.parse_ppg(text)
        assert (type(exc.value), str(exc.value)) == (kind, message)

    @pytest.mark.parametrize("name", DIRECT)
    def test_a_fault_in_a_document_built_directly(self, name):
        edit, kind, message = DIRECT[name]
        doc = load("canonical19.ppg")
        vertex_orders, anchor = edit(doc.vertex_orders, doc.anchor)
        with pytest.raises(pg.PpgError) as exc:
            pg.PpgDocument(doc.graph, vertex_orders, anchor, doc.order)
        assert (type(exc.value), str(exc.value)) == (kind, message)

    def test_sides_given_as_lists_are_accepted(self):
        doc = load("canonical19.ppg")
        listed = {v: [list(i), list(o)] for v, (i, o) in doc.vertex_orders.items()}
        again = pg.PpgDocument(doc.graph, listed, [list(s) for s in doc.anchor], doc.order)
        assert again.has_pa() and again.pa() == doc.pa()

    def test_vertex_orders_that_are_no_mapping_with_no_internal_vertex(self):
        doc = pg.parse_ppg("ppg 1\nedge a p q\ninputs a\noutputs a\norder a\n")
        with pytest.raises(pg.PpgError, match="^vertex orders must be a mapping"):
            pg.PpgDocument(doc.graph, [("v", ((), ()))], doc.anchor, doc.order)

    def test_the_checked_local_data_of_every_fixture_and_random_graph(self):
        for path in sorted(FIXTURES.glob("*.ppg")):
            doc = pg.parse_ppg(path.read_text())
            assert doc.has_pa(), path.name
            if doc.order is not None:
                assert doc.pa() == pg.extract_pa(doc.pop()), path.name
        rng = random.Random(36)
        for i in range(300):
            pop = pg.random_pop(rng, tag=f"r{i}.")
            doc = pg.parse_ppg(pg.emit_ppg(pop))
            assert doc.has_pa() and doc.pa() == pg.extract_pa(pop), i


class TestEmitPpg:
    def test_round_trip_fixtures(self):
        for name in ("canonical19.ppg", "spider22.ppg", "layer_top.ppg",
                     "layer_mid.ppg", "layer_bot.ppg"):
            doc = pg.parse_ppg((FIXTURES / name).read_text())
            assert pg.parse_ppg(pg.emit_ppg(doc)) == doc, name

    def test_emission_is_canonical(self):
        doc = pg.parse_ppg(MINI)
        assert pg.emit_ppg(pg.parse_ppg(pg.emit_ppg(doc))) == pg.emit_ppg(doc)

    def test_graph_only_round_trip(self):
        doc = pg.parse_ppg("ppg 1\nedge 1 p q\n")
        assert pg.emit_ppg(doc) == "ppg 1\nedge 1 p q\n"

    def test_pop_emits_full_form(self, canonical):
        text = pg.emit_ppg(canonical)
        assert "inputs 1 2 3 4 10 11 17 19" in text
        assert "in C 8 9 12" in text
        assert "out C 13 14" in text
        assert text.rstrip().endswith("order " + " ".join(str(i) for i in range(1, 20)))
        doc = pg.parse_ppg(text)
        assert doc.pop().graph == canonical.graph
        assert doc.pop().order == canonical.order

    def test_pa_and_plain_graph_emit(self, canonical):
        pa = pg.extract_pa(canonical)
        doc = pg.parse_ppg(pg.emit_ppg(pa))
        assert doc.order is None and doc.has_pa()
        bare = pg.parse_ppg(pg.emit_ppg(canonical.graph))
        assert bare.anchor is None and bare.vertex_orders is None

    def test_empty_vertex_orders_normalize(self):
        pop = pg.bare_edges(2)
        doc = pg.parse_ppg(pg.emit_ppg(pop))
        assert doc.vertex_orders is None
        assert doc == pg.PpgDocument(pop.graph, {}, pg.Anchor(("w1", "w2"), ("w1", "w2")),
                                     pop.order)

    @pytest.mark.parametrize("edge, bad", [
        (("a s t\nedge b", "s2", "t2"), "a s t\nedge b"),
        (("a", "", "t"), ""),
        (("a", "s", "x#y"), "x#y"),
        (("a\tb", "s", "t"), "a\tb"),
        (("a", "s", "\u2028"), "\u2028"),
    ], ids=["newline", "empty", "hash", "tab", "line separator"])
    def test_a_name_no_line_can_hold_is_refused(self, edge, bad):
        # written out, the newline case would parse as two edges, a and b
        g = pg.validate_progressive(pg.DirectedMultigraph([edge, ("ok", "u", "w")]))
        with pytest.raises(pg.PpgError) as exc:
            pg.emit_ppg(g)
        assert str(exc.value) == (f"name {bad!r} is empty or holds whitespace or '#', "
                                  "which a .ppg line cannot hold")
        st = pg.StGraph(pg.DirectedMultigraph([edge]), edge[1], edge[2])
        with pytest.raises(pg.PpgError, match="which a .stg line cannot hold$"):
            pg.emit_stg(st)

    def test_library_names_round_trip(self, canonical):
        # fresh apex tails and heads, glue ids, primes and the L./R. of side_by_side
        circ = pg.circ(pg.hat(canonical.graph))
        glued = pg.compose(pg.spider(1, 2), pg.spider(2, 1))
        twice = pg.compose(glued, pg.compose(pg.spider(1, 1), pg.spider(1, 1)))
        side = pg.side_by_side(twice, pg.spider(2, 2))
        names = set()
        for g in (circ, glued.graph, twice.graph, side.graph):
            assert pg.parse_ppg(pg.emit_ppg(g)).graph == g
            names.update(g.edge_ids + g.vertices)
        assert {"s@1", "t@19"} <= names
        assert any("~" in n for n in names) and any("'" in n for n in names)
        assert any(n.startswith("L.") for n in names) and any(n.startswith("R.") for n in names)


class TestStg:
    def test_parse(self):
        st = pg.parse_stg(STG)
        assert st.source == "s" and st.sink == "t"
        assert st.rotation["v"] == (("a", "b"), ("c",))
        assert st.rotation["t"] == (("c",), ())

    def test_round_trip(self):
        st = pg.parse_stg(STG)
        back = pg.parse_stg(pg.emit_stg(st))
        assert back == st
        assert (back.source, back.sink) == (st.source, st.sink)
        assert back.rotation == st.rotation

    def test_missing_sink(self):
        with pytest.raises(pg.ParseError, match="source and sink"):
            pg.parse_stg("stg 1\nedge a s t\nsource s\n")

    def test_duplicate_source(self):
        with pytest.raises(pg.ParseError, match="duplicate source"):
            pg.parse_stg("stg 1\nedge a s t\nsource s\nsource s\nsink t\n")

    def test_unknown_rotation_vertex(self):
        with pytest.raises(pg.ParseError, match="unknown vertex 'w'"):
            pg.parse_stg("stg 1\nedge a s t\nsource s\nsink t\nin w a\n")

    @pytest.mark.parametrize("rotation, error, match", [
        ({"zz": (("a",), ())}, pg.UnknownVertex, "unknown vertex id 'zz'"),
        ({5: (("a",), ())}, pg.UnknownVertex, "unknown vertex id 5"),
        ({"t": (("zz",), ())}, pg.UnknownEdge, "unknown edge id 'zz'"),
        ({"t": ((5,), ())}, pg.UnknownEdge, "unknown edge id 5"),
        ({"t": (([],), ())}, pg.UnknownEdge, r"unknown edge id \[\]"),
        ({"t": 5}, pg.PpgError, "^the rotation at 't' must have exactly two sides of edge ids$"),
        ({"t": (("a",),)}, pg.PpgError, "^the rotation at 't' must have exactly two sides"),
        # a string is not split into one-character sides
        ({"t": "aa"}, pg.PpgError, "^the rotation at 't' must have exactly two sides of edge ids$"),
        ({"t": ("a", ("a",))}, pg.PpgError, "^the rotation at 't' must have exactly two sides"),
        # nor is a set, which iterates in an order that depends on the hash seed
        ({"t": ({"a"}, ())}, pg.PpgError, "^the rotation at 't' must have exactly two sides"),
        ({"t": {("a",), ()}}, pg.PpgError, "^the rotation at 't' must have exactly two sides"),
    ], ids=["vertex", "int_vertex", "edge", "int_edge", "unhashable_edge", "no_sides",
            "one_side", "string", "string_side", "set_side", "set_of_sides"])
    def test_a_rotation_that_cannot_round_trip_is_refused(self, rotation, error, match):
        graph = pg.DirectedMultigraph([("a", "s", "t")])
        with pytest.raises(error, match=match):
            pg.StGraph(graph, "s", "t", rotation)

    def test_every_rotation_round_trips(self):
        # incidence stays unchecked, and a vertex with no edges is dropped
        graph = pg.DirectedMultigraph([("a", "s", "v"), ("b", "s", "v"), ("c", "v", "t")])
        st = pg.StGraph(graph, "s", "t", {"v": [["b", "a"], ["c", "c"]], "s": ((), ("a",)),
                                          "t": ((), ())})
        assert st.rotation == {"v": (("b", "a"), ("c", "c")), "s": ((), ("a",))}
        back = pg.parse_stg(pg.emit_stg(st))
        assert back == st and back.rotation == st.rotation

    def test_rotation_bytes(self):
        # a side that is empty writes no line: v has only in-legs, w only
        # out-legs and u both, each listed in its rotation's order
        graph = pg.DirectedMultigraph([("a", "s", "u"), ("b", "s", "u"), ("c", "u", "v"),
                                       ("d", "u", "w"), ("e", "w", "v"), ("f", "v", "t")])
        st = pg.StGraph(graph, "s", "t", {"w": ((), ("e",)), "v": (("e", "c"), ()),
                                          "u": (("b", "a"), ("d", "c"))})
        assert pg.emit_stg(st) == ("stg 1\nedge a s u\nedge b s u\nedge c u v\nedge d u w\n"
                                   "edge e w v\nedge f v t\nsource s\nsink t\n"
                                   "in u b a\nout u d c\nin v e c\nout w e\n")

    def test_no_rotation(self):
        st = pg.parse_stg("stg 1\nedge a s t\nsource s\nsink t\n")
        assert st.rotation == {}
        assert pg.emit_stg(st) == "stg 1\nedge a s t\nsource s\nsink t\n"

    def test_hat_then_emit_then_parse(self, canonical):
        st = pg.hat(canonical.graph)
        back = pg.parse_stg(pg.emit_stg(st))
        assert back == st

    def test_wrong_header_kind(self):
        with pytest.raises(pg.ParseError, match="expected header 'stg 1'"):
            pg.parse_stg(MINI)

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgraph as pg
from conftest import isomorphic_by_edges, slow_reaches

NO_TRIPLE = " is not an (id, src, dst) triple of hashable names"


def graph(*triples):
    return pg.DirectedMultigraph([pg.Edge(*t) for t in triples])


class TestValidation:
    def test_duplicate_edge_id(self):
        with pytest.raises(pg.DuplicateId):
            graph(("e", "a", "b"), ("e", "c", "d"))

    def test_cycle_witness_closes(self):
        g = graph(("1", "p", "a"), ("2", "a", "b"), ("3", "b", "c"), ("4", "c", "a"))
        with pytest.raises(pg.CycleDetected) as exc:
            pg.validate_progressive(g)
        cyc = exc.value.cycle
        assert cyc[0] == cyc[-1] and len(set(cyc[:-1])) == len(cyc) - 1
        ids = {e.id: e for e in g.edges}
        for u, v in zip(cyc, cyc[1:]):
            assert any(e.src == u and e.dst == v for e in ids.values())

    def test_source_degree(self):
        # a vertex with two out-edges and no in-edges is a malformed source
        with pytest.raises(pg.BadBoundaryDegree) as exc:
            pg.validate_progressive(graph(("1", "p", "a"), ("2", "p", "b")))
        assert exc.value.vertex == "p"

    def test_sink_degree(self):
        with pytest.raises(pg.BadBoundaryDegree):
            pg.validate_progressive(graph(("1", "a", "q"), ("2", "b", "q")))

    def test_chain_vertex_is_internal(self):
        g = pg.validate_progressive(graph(("1", "a", "v"), ("2", "v", "b")))
        assert g.internal_vertices == frozenset({"v"})
        assert g.inputs == frozenset({"1"}) and g.outputs == frozenset({"2"})

    def test_bare_edge_is_input_and_output(self):
        g = pg.validate_progressive(graph(("e", "a", "b")))
        assert g.inputs == g.outputs == frozenset({"e"})

    def test_empty_graph_ok(self):
        g = pg.validate_progressive(graph())
        assert g.inputs == frozenset() and not g.internal_vertices

    @pytest.mark.parametrize("edges, message", [
        ([("x", "a")], "edge ('x', 'a')" + NO_TRIPLE),
        ([pg.Edge(["x"], "a", "b")], "edge Edge(id=['x'], src='a', dst='b')" + NO_TRIPLE),
        ([("e", "a", "b"), ("f", ["a"], "c"), ("g",)], "edge ('f', ['a'], 'c')" + NO_TRIPLE),
        (iter([("e", "a", "b"), 5]), "edge 5" + NO_TRIPLE),
        (5, "5 is not a collection of edges"),
        (["abc", "dbe"], "edge 'abc'" + NO_TRIPLE),
        # from a vertex 1, compose could make no fresh name, and "edge a 1 2"
        # parses back to a graph whose vertex is "1"
        ([("a", 1, 2)], "vertex 1 is not a string"),
        ([("b", "x", None)], "vertex None is not a string"),
        ([("a", "x", "y"), ("b", ("y",), "z")], "vertex ('y',) is not a string"),
        ([(1, 2, "y")], "edge id 1 is not a string"),
    ], ids=["two fields", "unhashable id", "unhashable vertex", "not a triple", "not iterable",
            "a string", "int vertex", "none vertex", "tuple vertex", "id before vertex"])
    def test_a_malformed_edge_is_named(self, edges, message):
        # the first edge that is no (id, src, dst) triple of hashable names,
        # then the first id and the first vertex name that is no string;
        # before, TypeError escaped from Edge.__new__ or from hashing the id
        with pytest.raises(pg.PpgError) as exc:
            pg.DirectedMultigraph(edges)
        assert str(exc.value) == message


class TestWrongTypes:
    """The entries that take an ordered graph name the type of anything
    else; before, each raised AttributeError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: pg.compose(5, pg.spider(1, 1)), "compose expects POPGraph, not int"),
        (lambda: pg.compose("ab"), "compose expects POPGraph, not str"),
        (lambda: pg.recompose([pg.spider(1, 1), None]), "compose expects POPGraph, not NoneType"),
        (lambda: pg.recompose(5), "recompose expects Iterable, not int"),
        (lambda: pg.elementary_decomposition(5),
         "elementary_decomposition expects POPGraph, not int"),
        (lambda: pg.decompose_step(5), "decompose_step expects POPGraph, not int"),
        (lambda: pg.layout(5), "layout expects POPGraph, not int"),
        (lambda: pg.layout_st(pg.spider(1, 1).graph),
         "layout_st expects POPGraph, not ProgressiveGraph"),
        (lambda: pg.emit_ppg(5),
         "emit_ppg expects PpgDocument or POPGraph or PAGraph or ProgressiveGraph, not int"),
    ], ids=["compose", "compose one", "recompose factor", "recompose", "decomposition",
            "decompose step", "layout", "layout st", "emit"])
    def test_the_type_is_named(self, call, message):
        with pytest.raises(pg.PpgError) as exc:
            call()
        assert str(exc.value) == message


class TestAdjacency:
    def test_incidence_in_declaration_order(self):
        g = graph(("b", "u", "v"), ("a", "u", "v"), ("c", "v", "w"),
                  ("d", "u", "w"), ("e", "x", "v"))
        assert [e.id for e in g.in_edges("v")] == ["b", "a", "e"]
        assert [e.id for e in g.out_edges("u")] == ["b", "a", "d"]
        assert [e.id for e in g.in_edges("w")] == ["c", "d"]
        assert g.in_edges("u") == () and g.out_edges("w") == ()

    def test_unknown_vertex(self):
        g = graph(("a", "u", "v"), ("b", "u", "v"))
        for lookup in (g.in_edges, g.out_edges):
            with pytest.raises(pg.UnknownVertex):
                lookup("nowhere")


class TestAProgressiveGraphIsAMultigraph:
    def test_it_equals_and_hashes_like_its_multigraph(self):
        m = graph(("1", "p", "v"), ("2", "v", "q"), ("3", "v", "r"))
        g = pg.validate_progressive(m)
        assert isinstance(g, pg.DirectedMultigraph)
        assert g == m and m == g and hash(g) == hash(m)
        assert g != graph(("1", "p", "v"), ("2", "v", "q"))
        # the indexes are shared, not rebuilt: one id index per graph
        assert g._eix is m._eix and g._in is m._in and g._out is m._out

    def test_validating_it_again_gives_an_equal_graph(self, canonical):
        g = pg.validate_progressive(canonical.graph)
        assert g == canonical.graph and g is not canonical.graph
        assert g.inputs == canonical.graph.inputs and g.outputs == canonical.graph.outputs

    def test_a_multigraph_indexes_its_edges_in_declaration_order(self):
        m = graph(("b", "x", "y"), ("a", "y", "z"), ("c", "x", "z"))
        assert [m.edge_index(e) for e in ("b", "a", "c")] == [0, 1, 2]
        for e in ("nope", ["b"]):
            with pytest.raises(pg.UnknownEdge) as exc:
                m.edge_index(e)
            assert exc.value.name == e


class TestReachability:
    def test_reflexive_convention(self, canonical):
        # rows are strict: no edge is in its own row
        g = canonical.graph
        assert not g.strictly_reaches("5", "5")
        assert not g.reacher_bits("5") >> g.edge_index("5") & 1

    def test_frozen_pairs(self, canonical):
        g = canonical.graph
        assert g.strictly_reaches("5", "13")
        assert not g.strictly_reaches("7", "8")

    def test_matches_slow_oracle_canonical(self, canonical):
        g = canonical.graph
        for a in g.edge_ids:
            for b in g.edge_ids:
                assert g.strictly_reaches(a, b) == slow_reaches(g, a, b), (a, b)
                assert (g.reacher_bits(b) >> g.edge_index(a) & 1) == slow_reaches(g, a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_slow_oracle_random(self, seed):
        g = pg.random_pop(random.Random(seed), max_layers=3).graph
        ids = g.edge_ids
        rng = random.Random(seed + 1)
        for _ in range(80):
            a, b = rng.choice(ids), rng.choice(ids)
            assert g.strictly_reaches(a, b) == slow_reaches(g, a, b), (a, b)

    def test_graph_is_sorted_once(self, canonical, monkeypatch):
        # the transpose walks the topological order that validation found
        calls = []
        toposort = pg.core._toposort
        monkeypatch.setattr(pg.core, "_toposort", lambda g: calls.append(g) or toposort(g))
        g = pg.validate_progressive(canonical.graph)
        assert [g.reacher_bits(e) for e in g.edge_ids] == [
            canonical.graph.reacher_bits(e) for e in g.edge_ids]
        assert len(calls) == 1

    def test_unknown_edge(self, canonical):
        g = canonical.graph
        for a, b in (("5", "nope"), ("nope", "nope")):
            with pytest.raises(pg.UnknownEdge):
                g.strictly_reaches(a, b)
        for row in (g.reach_bits, g.reacher_bits):
            with pytest.raises(pg.UnknownEdge):
                row("nope")

    @pytest.mark.parametrize("lookup", [
        lambda pop: pop.graph.edge_index(["x"]),
        lambda pop: pg.DirectedMultigraph(pop.graph.edges).edge(["x"]),
        lambda pop: pop.graph.edge(["x"]),
        lambda pop: pop.graph.reach_bits(["x"]),
        lambda pop: pop.graph.reacher_bits(["x"]),
        lambda pop: pop.graph.strictly_reaches(["x"], "i1"),
        lambda pop: pop.graph.strictly_reaches("i1", ["x"]),
        lambda pop: pop.order.rank(["x"]),
        lambda pop: pop.rank(["x"]),
    ], ids=["edge_index", "multigraph_edge", "edge", "reach_bits", "reacher_bits",
            "strictly_reaches_from", "strictly_reaches_to", "order_rank", "pop_rank"])
    def test_an_unhashable_id_is_unknown(self, lookup):
        with pytest.raises(pg.UnknownEdge) as exc:
            lookup(pg.spider(2, 2))
        assert exc.value.name == ["x"]

    @pytest.mark.parametrize("lookup", [
        lambda pop: pg.DirectedMultigraph(pop.graph.edges).in_edges(["v"]),
        lambda pop: pg.DirectedMultigraph(pop.graph.edges).out_edges(["v"]),
        lambda pop: pop.graph.in_edges(["v"]),
        lambda pop: pop.graph.out_edges(["v"]),
    ], ids=["multigraph_in_edges", "multigraph_out_edges", "in_edges", "out_edges"])
    def test_an_unhashable_vertex_is_unknown(self, lookup):
        with pytest.raises(pg.UnknownVertex) as exc:
            lookup(pg.spider(2, 2))
        assert exc.value.name == ["v"]


class TestHatCirc:
    def test_hat_counts(self, canonical):
        h = pg.hat(canonical.graph)
        assert len(h.vertices) == 8
        assert len(h.edges) == 19
        assert sum(1 for e in h.edges if e.src == "s") == 8
        assert sum(1 for e in h.edges if e.dst == "t") == 6

    def test_hat_reserved_name(self):
        g = pg.validate_progressive(graph(("1", "a", "s"), ("2", "s", "b")))
        with pytest.raises(pg.ReservedVertexName):
            pg.hat(g)

    def test_hat_of_no_edge_is_refused(self):
        # there is no boundary to gather, and the apexes would be named
        # though no edge meets them
        with pytest.raises(pg.PpgError) as exc:
            pg.hat(pg.bare_edges(0).graph)
        assert type(exc.value) is pg.PpgError
        assert str(exc.value) == "the graph has no edge to gather into the apexes s and t"

    def test_circ_round_trip(self, suite):
        for name, pop in suite:
            g = pop.graph
            assert isomorphic_by_edges(pg.circ(pg.hat(g)), g), name

    def test_circ_avoids_taken_names(self):
        # an existing vertex literally named like a fresh head gets dodged
        g = pg.validate_progressive(graph(("1", "t@1", "v"), ("2", "v", "b")))
        h = pg.hat(g)
        back = pg.circ(h)
        assert len(set(back.vertices)) == len(back.vertices)
        assert isomorphic_by_edges(back, g)

    def test_st_graph_validation(self):
        with pytest.raises(pg.BadBoundaryDegree):
            # the claimed source is not actually a source
            pg.StGraph(graph(("1", "s", "t")), "t", "s")
        with pytest.raises(pg.UnknownVertex):
            pg.StGraph(graph(("1", "s", "t")), "s", "missing")

    @pytest.mark.parametrize("edges, source, sink, message", [
        ([("1", "s", "t")], "t", "s",
         "vertex 's' has no in-edge and is not the declared source 't'"),
        ([("1", "s", "t"), ("2", "a", "t")], "s", "t",
         "vertex 'a' has no in-edge and is not the declared source 's'"),
        ([("1", "s", "t"), ("2", "s", "b")], "s", "t",
         "vertex 'b' has no out-edge and is not the declared sink 't'"),
    ], ids=["swapped", "second source", "second sink"])
    def test_a_second_source_or_sink_is_named_as_such(self, edges, source, sink, message):
        with pytest.raises(pg.BadBoundaryDegree) as exc:
            pg.StGraph(graph(*edges), source, sink)
        assert str(exc.value) == message

    def test_an_st_graph_is_a_multigraph_sharing_its_indexes(self, canonical, monkeypatch):
        validated = []  # the multigraph each StGraph is built from
        init = pg.StGraph.__init__
        monkeypatch.setattr(pg.StGraph, "__init__", lambda self, graph, *rest:
                            validated.append(graph) or init(self, graph, *rest))
        st = pg.StGraph(graph(("1", "s", "v"), ("2", "v", "t"), ("3", "s", "t")), "s", "t")
        for got in (st, pg.hat(canonical.graph), pg.parse_stg(pg.emit_stg(st))):
            m = validated.pop(0)
            assert isinstance(got, pg.DirectedMultigraph) and type(got) is pg.StGraph
            assert got._eix is m._eix and got._in is m._in and got._out is m._out
            assert got.edges is m.edges and got.vertices is m.vertices
        assert not hasattr(st, "graph") and not hasattr(canonical.graph, "graph")

    def test_an_st_graph_equals_only_an_st_graph(self):
        m = graph(("1", "s", "v"), ("2", "v", "t"), ("3", "s", "t"))
        st = pg.StGraph(m, "s", "t")
        assert st != m and m != st and not st == m and not m == st
        assert st == pg.StGraph(graph(("3", "s", "t"), ("2", "v", "t"), ("1", "s", "v")),
                                "s", "t")
        assert st != pg.StGraph(graph(("1", "s", "v"), ("2", "v", "t")), "s", "t")
        # a single edge is both an st graph and a progressive graph
        one = graph(("1", "s", "t"))
        assert pg.StGraph(one, "s", "t") != pg.validate_progressive(one)
        assert pg.validate_progressive(one) != pg.StGraph(one, "s", "t")
        with pytest.raises(TypeError):
            hash(st)


class TestIsomorphism:
    def test_positive_relabelled(self):
        a = graph(("1", "p", "v"), ("2", "v", "q"))
        b = graph(("1", "pp", "vv"), ("2", "vv", "qq"))
        assert isomorphic_by_edges(a, b)

    def test_negative_structure(self):
        a = graph(("1", "p", "v"), ("2", "v", "q"))
        b = graph(("1", "p", "v"), ("2", "w", "q"))
        assert not isomorphic_by_edges(a, b)

    def test_negative_vertex_merge(self):
        # same shape but one side fuses two vertices into one
        a = graph(("1", "p1", "q1"), ("2", "p2", "q2"))
        b = graph(("1", "p1", "q1"), ("2", "p2", "q1"))
        assert not isomorphic_by_edges(a, b)

    def test_pop_isomorphic_vs_bares(self):
        assert not pg.pop_isomorphic(pg.spider(2, 2), pg.bare_edges(4))

    def test_pop_isomorphic_mirror_orders(self):
        s = pg.spider(2, 2)
        other = pg.validate_planar_order(s.graph, ["i1", "i2", "o2", "o1"])
        # the mirror image is abstractly the same ordered shape
        assert pg.pop_isomorphic(s, other)

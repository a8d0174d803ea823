from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings, strategies as st

import popgraph as pg
from conftest import (FIXTURES, both_ways_scan, brute_orders, compare_edges_scan,
                      linear_extension_orders, run_optimized)


def graph(*triples):
    return pg.ProgressiveGraph(pg.DirectedMultigraph([pg.Edge(*t) for t in triples]))


# two vertices u and w that both reach x and y, neither reaching the other:
# no planar order exists
NO_ORDER = (("iu", "s1", "u"), ("iw", "s2", "w"), ("a1", "u", "x"), ("a2", "u", "y"),
            ("b1", "w", "x"), ("b2", "w", "y"), ("e1", "x", "t1"), ("e2", "y", "t2"))

# three such vertices m, k and p, numbered in that order by the comparator's
# reverse topological order, so that k, the least by name, is neither the
# first nor the last; k's vertex order puts e1 first, the others put e2 first
TIES = (("im", "sm", "m"), ("ik", "sk", "k"), ("ip", "sp", "p"),
        ("a1", "m", "x"), ("a2", "m", "y"), ("b1", "k", "x"), ("b2", "k", "y"),
        ("c1", "p", "x"), ("c2", "p", "y"), ("e1", "x", "t1"), ("e2", "y", "t2"))
TIE_ORDERS = {"m": (("im",), ("a2", "a1")), "k": (("ik",), ("b1", "b2")),
              "p": (("ip",), ("c2", "c1")), "x": (("a1", "b1", "c1"), ("e1",)),
              "y": (("a2", "b2", "c2"), ("e2",))}
TIE_ANCHOR = (("im", "ik", "ip"), ("e1", "e2"))


class TestPAGraph:
    def test_extract_from_canonical(self, canonical):
        pa = pg.extract_pa(canonical)
        assert pa.vertex_orders["C"] == (("8", "9", "12"), ("13", "14"))
        assert pa.anchor.inputs == ("1", "2", "3", "4", "10", "11", "17", "19")
        assert pa.anchor.outputs == ("7", "13", "14", "16", "18", "19")

    def test_boundary_vertex_rejected(self):
        g = graph(("1", "p", "v"), ("2", "v", "q"))
        with pytest.raises(pg.UnknownVertex):
            pg.PAGraph(g, {"v": (("1",), ("2",)), "p": ((), ("1",))},
                       (("1",), ("2",)))

    def test_missing_vertex_order(self):
        g = graph(("1", "p", "v"), ("2", "v", "q"))
        with pytest.raises(pg.PpgError, match="missing vertex order"):
            pg.PAGraph(g, {}, (("1",), ("2",)))

    def test_vertex_order_not_a_permutation(self):
        g = graph(("1", "p", "v"), ("1b", "p2", "v"), ("2", "v", "q"))
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.PAGraph(g, {"v": (("1", "1"), ("2",))}, (("1", "1b"), ("2",)))
        assert exc.value.duplicated == ("1",)

    def test_anchor_not_a_permutation(self):
        g = graph(("1", "p", "v"), ("2", "v", "q"))
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.PAGraph(g, {"v": (("1",), ("2",))}, (("1",), ("ghost",)))
        assert exc.value.missing == ("2",)
        assert exc.value.extra == ("ghost",)

    def test_vertex_orders_must_be_a_mapping(self):
        g = pg.spider(2, 2).graph
        orders = [("v", (("i1", "i2"), ("o1", "o2")))]
        message = "vertex orders must be a mapping from internal vertex to its order, not list"
        for build in (pg.PAGraph, pg.PpgDocument):
            with pytest.raises(pg.PpgError) as exc:
                build(g, orders, (("i1", "i2"), ("o1", "o2")))
            assert str(exc.value) == message

    @pytest.mark.parametrize("orders, anchor, what", [
        ({"v": [["i1", "i2"]]}, (("i1", "i2"), ("o1", "o2")), "the vertex order at 'v'"),
        ({"v": (("i1", "i2"), ("o1", "o2"), ())}, (("i1", "i2"), ("o1", "o2")),
         "the vertex order at 'v'"),
        ({"v": (("i1", "i2"), ("o1", "o2"))}, (("i1", "i2"),), "the anchor"),
        ({"v": (("i1", "i2"), ("o1", "o2"))}, None, "the anchor"),
    ], ids=["one-sided-vertex", "three-sided-vertex", "one-sided-anchor", "no-anchor"])
    def test_local_data_has_two_sides(self, orders, anchor, what):
        g = pg.spider(2, 2).graph
        message = f"{what} must have exactly two sides of edge ids"
        with pytest.raises(pg.PpgError) as exc:
            pg.PAGraph(g, orders, anchor)
        assert str(exc.value) == message

    @pytest.mark.parametrize("orders, anchor, what", [
        ({"v": [["i1", "i2"]]}, None, "the vertex order at 'v'"),
        ({}, (("i1", "i2"),), "the anchor"),
    ], ids=["vertex", "anchor"])
    def test_partial_local_data_has_two_sides(self, orders, anchor, what):
        with pytest.raises(pg.PpgError) as exc:
            pg.PpgDocument(pg.spider(2, 2).graph, orders, anchor)
        assert str(exc.value) == f"{what} must have exactly two sides of edge ids"

    @pytest.mark.parametrize("orders, anchor, what", [
        ({"v": ("ab", "c")}, ("ab", "c"), "the anchor"),
        ({"v": ("ab", "c")}, (("a", "b"), ("c",)), "the vertex order at 'v'"),
        ({"v": "ab"}, (("a", "b"), ("c",)), "the vertex order at 'v'"),
        ({"v": (("a", "b"), ("c",))}, "ac", "the anchor"),
    ], ids=["string-sides", "string-vertex-sides", "string-vertex-order", "string-anchor"])
    def test_a_string_is_not_split_into_sides(self, orders, anchor, what):
        # with one-letter ids a string would read as a side of its characters
        g = graph(("a", "in:0", "v"), ("b", "in:1", "v"), ("c", "v", "out:0"))
        with pytest.raises(pg.PpgError) as exc:
            pg.PAGraph(g, orders, anchor)
        assert str(exc.value) == f"{what} must have exactly two sides of edge ids"
        sides = (("a", "b"), ("c",))
        assert pg.PAGraph(g, {"v": sides}, sides).anchor == sides


def tampered_pas(pop: pg.POPGraph, rng: random.Random):
    """The local data of ``pop``, intact, with every vertex's outgoing legs
    shuffled, and with the input and with the output anchor shuffled."""
    pa = pg.extract_pa(pop)
    yield "intact", pa
    legs = {v: pg.VertexOrder(vo.incoming, tuple(rng.sample(vo.outgoing, len(vo.outgoing))))
            for v, vo in pa.vertex_orders.items()}
    yield "legs", pg.PAGraph(pa.graph, legs, pa.anchor)
    ins, outs = pa.anchor
    yield "inputs", pg.PAGraph(pa.graph, pa.vertex_orders,
                               (rng.sample(ins, len(ins)), outs))
    yield "outputs", pg.PAGraph(pa.graph, pa.vertex_orders,
                                (ins, rng.sample(outs, len(outs))))


def synthesize_by_scan(pa: pg.PAGraph) -> pg.PlanarOrder:
    """``synthesize_order`` with the local lists checked by
    ``both_ways_scan`` and every pair decided by ``compare_edges_scan``: the
    same witnesses, the same ranking by the number of later edges, and the
    same checks of the ranking."""
    both_ways_scan(pa)
    g = pa.graph
    ids = g.edge_ids
    witnesses, later = [], dict.fromkeys(ids, 0)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            c = compare_edges_scan(pa, a, b)
            if c is pg.Comparison.INCONSISTENT:
                witnesses.append(f"no consistent position for pair ({a}, {b})")
            else:
                later[a if c is pg.Comparison.LESS else b] += 1
    if witnesses:
        raise pg.NoConsistentOrder(tuple(witnesses))
    seq = sorted(ids, key=lambda e: -later[e])
    try:
        pop = pg.validate_planar_order(g, seq)
    except pg.PpgError as err:
        raise pg.NoConsistentOrder((f"synthesized order is not planar: {err}",)) from err
    if pg.extract_pa(pop) != pa:
        raise pg.NoConsistentOrder(
            ("synthesized order does not reproduce the given vertex orders/anchors",))
    return pop.order


def synthesis_outcome(synthesize, pa: pg.PAGraph):
    """The order ``synthesize(pa)`` returns, or the type, message,
    witnesses and total of the NoConsistentOrder it raises."""
    try:
        return synthesize(pa)
    except pg.NoConsistentOrder as exc:
        return type(exc), str(exc), exc.witnesses, exc.total


class TestCompareEdges:
    def test_reachability_decides(self, canonical):
        pa = pg.extract_pa(canonical)
        assert pg.compare_edges(pa, "8", "13") is pg.Comparison.LESS
        assert pg.compare_edges(pa, "13", "8") is pg.Comparison.GREATER

    def test_anchor_decides_disjoint_edges(self, canonical):
        # 8 and 19 share no ancestor vertex; input windows settle it
        pa = pg.extract_pa(canonical)
        assert pg.compare_edges(pa, "8", "19") is pg.Comparison.LESS
        assert pg.compare_edges(pa, "19", "8") is pg.Comparison.GREATER

    def test_vertex_order_decides_siblings(self, canonical):
        # 5 and 6 both leave A; A's outgoing order puts 5 first
        pa = pg.extract_pa(canonical)
        assert pg.compare_edges(pa, "5", "6") is pg.Comparison.LESS
        assert pg.compare_edges(pa, "6", "5") is pg.Comparison.GREATER

    @pytest.mark.parametrize("edges, orders, anchor, maximal", [
        (NO_ORDER, {"u": (("iu",), ("a1", "a2")), "w": (("iw",), ("b2", "b1")),
                    "x": (("a1", "b1"), ("e1",)), "y": (("a2", "b2"), ("e2",))},
         (("iu", "iw"), ("e1", "e2")), "uw"),
        (TIES, TIE_ORDERS, TIE_ANCHOR, "mkp"),
    ], ids=["two", "three"])
    def test_the_least_maximal_common_ancestor_decides(self, edges, orders, anchor, maximal):
        # the maximal common ancestors of the tails x and y of e1 and e2, in
        # the comparator's reverse topological order, each reach x and y and
        # none reaches another (the graph has no planar order); their vertex
        # orders disagree, and the least by name decides e1 before e2
        g = graph(*edges)
        assert [v for v in reversed(g._topo) if v in maximal] == list(maximal)
        pa = pg.PAGraph(g, orders, anchor)
        assert pg.compare_edges(pa, "e1", "e2") is pg.Comparison.LESS
        ids = g.edge_ids
        for a in ids:
            for b in ids:
                if a != b:
                    assert pg.compare_edges(pa, a, b) is compare_edges_scan(pa, a, b), (a, b)
        got = synthesis_outcome(pg.synthesize_order, pa)
        assert got[0] is pg.NoConsistentOrder
        assert got == synthesis_outcome(synthesize_by_scan, pa)

    def test_one_comparison_per_pair(self, canonical, monkeypatch):
        calls = []
        compare = pg.synthesis.compare_edges
        monkeypatch.setattr(pg.synthesis, "compare_edges",
                            lambda *a: calls.append(a[1:]) or compare(*a))
        assert pg.synthesize_order(pg.extract_pa(canonical)) == canonical.order
        assert len(calls) == 19 * 18 // 2 == len(set(map(frozenset, calls)))

    def test_an_unhashable_id_is_unknown(self):
        pa = pg.extract_pa(pg.spider(2, 2))
        for e1, e2 in ((["x"], "i1"), ("i1", ["x"])):
            with pytest.raises(pg.UnknownEdge) as exc:
                pg.compare_edges(pa, e1, e2)
            assert exc.value.name == ["x"]

    def test_equal_edge_rejected(self, canonical):
        pa = pg.extract_pa(canonical)
        with pytest.raises(pg.PpgError):
            pg.compare_edges(pa, "8", "8")

    def test_antisymmetry_everywhere(self, canonical):
        pa = pg.extract_pa(canonical)
        ids = canonical.graph.edge_ids
        flip = {pg.Comparison.LESS: pg.Comparison.GREATER,
                pg.Comparison.GREATER: pg.Comparison.LESS}
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                assert pg.compare_edges(pa, a, b) is flip[pg.compare_edges(pa, b, a)]

    def test_comparisons_match_the_order(self):
        rng = random.Random(31)
        for i in range(25):
            pop = pg.random_pop(rng, tag=f"s{i}.")
            pa = pg.extract_pa(pop)
            ids = list(pop.graph.edge_ids)
            for _ in range(40):
                a, b = rng.sample(ids, 2)
                want = pg.Comparison.LESS if pop.rank(a) < pop.rank(b) \
                    else pg.Comparison.GREATER
                assert pg.compare_edges(pa, a, b) is want, (i, a, b)

    def test_agrees_with_the_scan_oracle(self, suite):
        # the suite and 400 random graphs, every other one with its edges
        # declared in shuffled order, each with intact and tampered local
        # data: every pair, both ways round, gets the scan's verdict.  Four
        # layers give some pairs a common ancestor above the maximal one,
        # which the comparator must pass over.
        rng = random.Random(41)
        pops = [pop for _, pop in suite]
        for k in range(400):
            pop = pg.random_pop(random.Random(k))
            if k % 2:
                g = pg.ProgressiveGraph(pg.DirectedMultigraph(
                    rng.sample(pop.graph.edges, len(pop.graph.edges))))
                pop = pg.validate_planar_order(g, pop.order.sequence)
            pops.append(pop)
        verdicts = dict.fromkeys(pg.Comparison, 0)
        for k, pop in enumerate(pops):
            ids = pop.graph.edge_ids
            for kind, pa in tampered_pas(pop, rng):
                for i, a in enumerate(ids):
                    for b in ids[i + 1:]:
                        for x, y in ((a, b), (b, a)):
                            got = pg.compare_edges(pa, x, y)
                            assert got is compare_edges_scan(pa, x, y), (k, kind, x, y)
                            verdicts[got] += 1
        assert min(verdicts.values()) > 1000, verdicts


class TestSynthesize:
    def test_round_trip_canonical(self, canonical):
        assert pg.synthesize_order(pg.extract_pa(canonical)) == canonical.order

    def test_round_trip_suite(self, suite):
        for name, pop in suite:
            assert pg.synthesize_order(pg.extract_pa(pop)) == pop.order, name

    def test_round_trip_random(self):
        rng = random.Random(8)
        for i in range(30):
            pop = pg.random_pop(rng, tag=f"t{i}.")
            assert pg.synthesize_order(pg.extract_pa(pop)) == pop.order, i

    def test_agrees_with_a_pair_loop_over_the_scan(self, suite):
        # the suite, and 100 random graphs with intact and tampered local
        # data: the same order, or the same refusal and witnesses
        rng = random.Random(43)
        pas = [pg.extract_pa(pop) for _, pop in suite]
        for k in range(100):
            pas += [pa for _, pa in tampered_pas(pg.random_pop(random.Random(3000 + k)), rng)]
        refused = 0
        for k, pa in enumerate(pas):
            got = synthesis_outcome(pg.synthesize_order, pa)
            assert got == synthesis_outcome(synthesize_by_scan, pa), k
            refused += not isinstance(got, pg.PlanarOrder)
        assert refused > 100, refused

    def test_crossed_anchors_have_no_order(self):
        g = graph(("a", "p", "q"), ("b", "r", "s"))
        pa = pg.PAGraph(g, {}, (("a", "b"), ("b", "a")))
        with pytest.raises(pg.NoConsistentOrder) as exc:
            pg.synthesize_order(pa)
        assert exc.value.witnesses

    def test_scrambled_vertex_order_has_no_order(self, canonical):
        # C sees 8 and 9 through B's and A's legs; reversing C's incoming
        # order contradicts the order at A and B upstream
        pa = pg.extract_pa(canonical)
        orders = dict(pa.vertex_orders)
        orders["C"] = pg.VertexOrder(("12", "9", "8"), orders["C"].outgoing)
        bad = pg.PAGraph(pa.graph, orders, pa.anchor)
        with pytest.raises(pg.NoConsistentOrder):
            pg.synthesize_order(bad)

    def test_witness_names_a_pair(self):
        g = graph(("a", "p", "q"), ("b", "r", "s"))
        pa = pg.PAGraph(g, {}, (("a", "b"), ("b", "a")))
        with pytest.raises(pg.NoConsistentOrder) as exc:
            pg.synthesize_order(pa)
        assert any("a" in w and "b" in w for w in exc.value.witnesses)


class TestEnumerate:
    def test_matches_brute_force(self, suite):
        for name, pop in suite:
            if len(pop.graph.edges) > 6:
                continue
            got = pg.enumerate_planar_orders(pop.graph)
            assert not got.truncated
            assert [o.sequence for o in got.orders] == brute_orders(pop.graph), name

    def test_matches_the_linear_extension_oracle(self):
        # 7-9 edges over at least two layers, where brute force cannot go and
        # prefixes that betweenness dooms arise
        rng = random.Random(3)
        graphs = []
        while len(graphs) < 50:
            g = pg.random_pop(rng, min_layers=2).graph
            if 7 <= len(g.edges) <= 9:
                graphs.append(g)
        for g in graphs:
            got = [o.sequence for o in pg.enumerate_planar_orders(g).orders]
            assert got == linear_extension_orders(g), g.edge_ids

    def test_the_empty_graph_has_one_order(self):
        g = pg.validate_progressive(pg.DirectedMultigraph([]))
        assert pg.count_planar_orders(g) == 1
        assert pg.enumerate_planar_orders(g) == ((pg.PlanarOrder(()),), False)

    def test_a_few_orders_of_a_larger_graph_come_quickly(self):
        # prefixes that no completion can save are cut, not walked
        text = (FIXTURES.parent / "golden" / "inputs" / "layered_3x7.ppg").read_text(encoding="utf-8")
        g = pg.parse_ppg(text).graph
        t0 = time.perf_counter()
        res = pg.enumerate_planar_orders(g, limit=3, force=True)
        assert time.perf_counter() - t0 < 2.0
        assert len(res.orders) == 3 and res.truncated
        for o in res.orders:
            pg.validate_planar_order(g, o.sequence)

    def test_lexicographic_by_declaration(self):
        res = pg.enumerate_planar_orders(pg.spider(2, 2).graph)
        seqs = [o.sequence for o in res.orders]
        assert seqs == sorted(seqs, key=lambda s: [s.index(e) for e in ("i1", "i2", "o1", "o2")]) \
            or seqs == sorted(seqs)
        assert seqs[0] == ("i1", "i2", "o1", "o2")

    def test_two_vertex_chain_counts(self):
        # frozen: the 5-edge two-spider chain admits exactly these four
        g = graph(("10", "p5", "D"), ("11", "p6", "D"), ("12", "D", "C"),
                  ("15", "D", "E"), ("16", "E", "q4"))
        res = pg.enumerate_planar_orders(g)
        assert [o.sequence for o in res.orders] == [
            ("10", "11", "12", "15", "16"),
            ("10", "11", "15", "16", "12"),
            ("11", "10", "12", "15", "16"),
            ("11", "10", "15", "16", "12"),
        ]

    def test_limit_and_truncation(self):
        g = pg.bare_edges(4).graph           # 24 orders
        res = pg.enumerate_planar_orders(g, limit=5)
        assert len(res.orders) == 5 and res.truncated
        res = pg.enumerate_planar_orders(g, limit=24)
        assert len(res.orders) == 24 and not res.truncated

    def test_a_limit_past_sys_maxsize_lists_every_order(self, canonical):
        # islice takes no bound past sys.maxsize; no listing gets that far
        full = pg.enumerate_planar_orders(canonical.graph)
        for limit in (sys.maxsize, sys.maxsize + 1, 2**100):
            assert pg.enumerate_planar_orders(canonical.graph, limit) == full
        assert len(full.orders) == 576 and not full.truncated

    def test_negative_limit_refused(self):
        g = pg.bare_edges(2).graph
        for limit in (-1, -2):
            with pytest.raises(pg.PpgError, match=f"^limit must be 0 or more, not {limit}$"):
                pg.enumerate_planar_orders(g, limit)
        assert pg.enumerate_planar_orders(g, 0) == ((), True)

    @pytest.mark.parametrize("limit", ["3", 1.5, [1], True])
    def test_a_limit_that_is_no_int_is_refused(self, limit):
        with pytest.raises(pg.PpgError, match=f"^limit must be None or an int, not "
                                              f"{type(limit).__name__}$"):
            pg.enumerate_planar_orders(pg.bare_edges(2).graph, limit)

    def test_the_count_bounds_the_placed_sets_it_remembers(self, monkeypatch):
        # 2^5 - 2 placed sets of 5 bare edges are remembered: every set but
        # the empty and the full one, each alone in its layer
        g = pg.bare_edges(5).graph
        monkeypatch.setattr(pg.synthesis, "_STATES", 29)
        with pytest.raises(pg.TooLarge, match="more than 29 placed sets remembered") as exc:
            pg.count_planar_orders(g)
        assert exc.value.bound == 29
        monkeypatch.setattr(pg.synthesis, "_STATES", 30)
        assert pg.count_planar_orders(g) == 120
        monkeypatch.setattr(pg.synthesis, "_STATES", 0)
        assert pg.count_planar_orders(g, force=True) == 120

    def test_the_listing_bounds_the_prefixes_it_searches(self, monkeypatch):
        # 4 + 12 + 24 prefixes of 4 bare edges are pushed before the 24 orders
        g = pg.bare_edges(4).graph
        monkeypatch.setattr(pg.synthesis, "_STATES", 39)
        with pytest.raises(pg.TooLarge, match="more than 39 prefixes searched") as exc:
            pg.enumerate_planar_orders(g)
        assert exc.value.bound == 39
        assert len(pg.enumerate_planar_orders(g, limit=3).orders) == 3
        monkeypatch.setattr(pg.synthesis, "_STATES", 40)
        assert len(pg.enumerate_planar_orders(g).orders) == 24
        monkeypatch.setattr(pg.synthesis, "_STATES", 0)
        res = pg.enumerate_planar_orders(g, force=True)
        assert len(res.orders) == 24 and not res.truncated

    def test_a_path_counts_without_remembering(self, monkeypatch):
        # a set alone in its layer is not remembered, and every layer of a
        # path holds one set
        g = pg.validate_progressive(pg.DirectedMultigraph(
            pg.Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(1200)))
        monkeypatch.setattr(pg.synthesis, "_STATES", 0)
        assert pg.count_planar_orders(g) == 1

    def test_the_default_bound(self):
        # 2^16 - 2 placed sets for 16 bare edges, 2^17 - 2 for 17: all but
        # the empty and the full one, each alone in its layer
        assert pg.count_planar_orders(pg.bare_edges(16).graph) == math.factorial(16)
        with pytest.raises(pg.TooLarge, match=f"more than {1 << 16} placed sets"):
            pg.count_planar_orders(pg.bare_edges(17).graph)

    @pytest.mark.parametrize("make, bound", [
        (lambda: pg.bare_edges(60), 100),
        (lambda: pg.bare_edges(300), None),
        (lambda: pg.spider(1, 300), None),
    ], ids=["bare60-bound100", "bare300", "spider1_300"])
    def test_the_count_stops_inside_a_wide_layer(self, monkeypatch, make, bound):
        # the bound is checked as each placed set is met, not once its layer
        # is whole: layer 3 of 300 bare edges alone holds C(300, 3) sets
        g = make().graph
        if bound is not None:
            monkeypatch.setattr(pg.synthesis, "_STATES", bound)
        bound = pg.synthesis._STATES
        met = set()
        step = pg.synthesis._step

        def counting_step(moves, placed, ready, b):
            nxt, nxt_ready, cut = step(moves, placed, ready, b)
            if not cut:
                met.add(nxt)
            return nxt, nxt_ready, cut

        monkeypatch.setattr(pg.synthesis, "_step", counting_step)
        with pytest.raises(pg.TooLarge, match=f"more than {bound} placed sets remembered"):
            pg.count_planar_orders(g)
        # the remembered sets, the one past the bound, and the sets alone in
        # their layers
        assert len(met) <= bound + 1 + len(g.edges)

    def test_limits_cut_the_full_enumeration(self, suite):
        for name, pop in suite:
            full = pg.enumerate_planar_orders(pop.graph)
            assert not full.truncated, name
            for limit in (1, 5):
                res = pg.enumerate_planar_orders(pop.graph, limit)
                assert res.orders == full.orders[:limit], (name, limit)
                assert res.truncated == (len(full.orders) > limit), (name, limit)

    def test_count(self):
        assert pg.count_planar_orders(pg.spider(2, 2).graph) == 4

    def test_long_path_counts_without_recursion(self):
        # deeper than the default recursion limit: neither the count nor the
        # listing recurses
        g = pg.validate_progressive(pg.DirectedMultigraph(
            pg.Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(2000)))
        t0 = time.perf_counter()
        assert pg.count_planar_orders(g, force=True) == 1
        assert time.perf_counter() - t0 < 5.0
        assert pg.enumerate_planar_orders(g, force=True) == (
            (pg.PlanarOrder(g.edge_ids),), False)

    def test_count_matches_the_linear_extension_oracle(self):
        rng = random.Random(11)
        graphs = []
        while len(graphs) < 60:
            g = pg.random_pop(rng, max_layers=1 + len(graphs) % 4).graph
            if len(g.edges) <= 8:
                graphs.append(g)
        for g in graphs:
            n = len(linear_extension_orders(g))
            assert pg.count_planar_orders(g) == n, g.edge_ids
            # the placed sets are masks over declaration indexes: the same
            # graph with its edges declared in another order counts the same
            edges = list(g.edges)
            rng.shuffle(edges)
            shuffled = pg.validate_progressive(pg.DirectedMultigraph(edges))
            assert pg.count_planar_orders(shuffled) == n, shuffled.edge_ids

    def test_count_matches_the_enumeration(self):
        rng = random.Random(12)
        graphs = []
        while len(graphs) < 30:
            g = pg.random_pop(rng, min_layers=1 + len(graphs) % 3).graph
            if 9 <= len(g.edges) <= 11:
                graphs.append(g)
        for g in graphs:
            assert pg.count_planar_orders(g, force=True) == len(
                pg.enumerate_planar_orders(g, force=True).orders), g.edge_ids

    def test_count_of_a_layered_graph(self):
        text = (FIXTURES.parent / "golden" / "inputs" / "layered_2x9.ppg").read_text(encoding="utf-8")
        assert pg.count_planar_orders(pg.parse_ppg(text).graph, force=True) == 442_368

    def test_dead_prefixes_count_once(self):
        # interleaving 9 bare edges multiplies the doomed prefixes by 9!
        # orders of them; each set of placed edges is counted once
        g = graph(*NO_ORDER, *((f"z{k}", f"p{k}", f"q{k}") for k in range(9)))
        t0 = time.perf_counter()
        assert pg.count_planar_orders(g, force=True) == 0
        assert time.perf_counter() - t0 < 5.0

    def test_a_long_path_beside_bare_edges(self):
        # betweenness keeps each bare edge off the inside of the path, so the
        # 4 blocks go in any order; a bare edge after a path prefix is cut at
        # the first placed path edge, and the path steps are forced
        g = graph(*((f"e{k}", f"v{k}", f"v{k + 1}") for k in range(2000)),
                  *((f"z{k}", f"p{k}", f"q{k}") for k in range(3)))
        t0 = time.perf_counter()
        assert pg.count_planar_orders(g, force=True) == 24
        assert time.perf_counter() - t0 < 5.0

    def test_forced_steps_below_a_branch_count_once(self, monkeypatch):
        # 4 inputs meet at v0 in any order, and every order goes on down the
        # same 2000 forced steps: the path is walked once, not 4 times
        g = graph(*((f"i{k}", f"s{k}", "v0") for k in range(4)),
                  *((f"e{k}", f"v{k}", f"v{k + 1}") for k in range(2000)))
        steps = []
        step = pg.synthesis._step
        monkeypatch.setattr(pg.synthesis, "_step", lambda *a: steps.append(1) or step(*a))
        assert pg.count_planar_orders(g, force=True) == 24
        assert len(steps) < 2100

    def test_same_answers_under_O(self):
        # counts, listings, and the orders and refusals synthesized on the
        # suite and on the tie graph, the same with asserts stripped
        script = textwrap.dedent(f"""\
            import popgraph as pg
            for g in (pg.bare_edges(5).graph, pg.spider(3, 2).graph):
                print(pg.count_planar_orders(g), len(pg.enumerate_planar_orders(g).orders),
                      " ".join(pg.enumerate_planar_orders(g, 1).orders[0].sequence))
            pas = [pg.extract_pa(pop) for _, pop in pg.generator_suite()]
            ties = pg.validate_progressive(pg.DirectedMultigraph({TIES!r}))
            pas.append(pg.PAGraph(ties, {TIE_ORDERS!r}, {TIE_ANCHOR!r}))
            for pa in pas:
                try:
                    print(*pg.synthesize_order(pa))
                except pg.NoConsistentOrder as exc:
                    print(exc)
            """)
        proc = run_optimized("print(__debug__)\n" + script)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:3] == ["False", "120 120 w1 w2 w3 w4 w5", "12 12 i1 i2 i3 o1 o2"]
        assert lines[-1].startswith("no consistent planar order: ")
        plain = io.StringIO()
        with contextlib.redirect_stdout(plain):
            exec(script, {})
        assert lines[1:] == plain.getvalue().splitlines()

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=9, deadline=None)
    def test_spider_counts(self, p, q):
        got = pg.count_planar_orders(pg.spider(p, q).graph)
        assert got == math.factorial(p) * math.factorial(q)

    def test_bare_counts(self):
        # 14! orders, but only 2**14 sets of placed edges to count them over
        for k in range(15):
            assert pg.count_planar_orders(pg.bare_edges(k).graph, force=True) == math.factorial(k)

    def test_every_enumerated_order_validates(self, canonical):
        # the 19-edge graph is too big to enumerate fully; cap and validate
        res = pg.enumerate_planar_orders(canonical.graph, limit=50, force=True)
        assert res.truncated
        for o in res.orders:
            pg.validate_planar_order(canonical.graph, o.sequence)

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import popgraph as pg
from conftest import FIXTURES, brute_orders, compare_edges_scan, linear_extension_orders


def graph(*triples):
    return pg.ProgressiveGraph(pg.DirectedMultigraph([pg.Edge(*t) for t in triples]))


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

    def test_size_guard(self):
        g = pg.bare_edges(11).graph
        with pytest.raises(pg.TooLarge):
            pg.enumerate_planar_orders(g)
        res = pg.enumerate_planar_orders(g, limit=3, force=True)
        assert len(res.orders) == 3 and res.truncated
        assert pg.enumerate_planar_orders(g, limit=3, max_edges=12).truncated

    def test_limits_cut_the_full_enumeration(self, suite):
        for name, pop in suite:
            if len(pop.graph.edges) > 10:  # the default size guard
                continue
            full = pg.enumerate_planar_orders(pop.graph)
            assert not full.truncated, name
            for limit in (1, 5):
                res = pg.enumerate_planar_orders(pop.graph, limit)
                assert res.orders == full.orders[:limit], (name, limit)
                assert res.truncated == (len(full.orders) > limit), (name, limit)

    def test_count(self):
        assert pg.count_planar_orders(pg.spider(2, 2).graph) == 4

    def test_long_path_counts_without_recursion(self):
        g = pg.validate_progressive(pg.DirectedMultigraph(
            pg.Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(1200)))
        t0 = time.perf_counter()
        assert pg.count_planar_orders(g, force=True) == 1
        assert time.perf_counter() - t0 < 5.0

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=9, deadline=None)
    def test_spider_counts(self, p, q):
        got = pg.count_planar_orders(pg.spider(p, q).graph)
        assert got == math.factorial(p) * math.factorial(q)

    @given(st.integers(1, 5))
    @settings(max_examples=5, deadline=None)
    def test_bare_counts(self, k):
        assert pg.count_planar_orders(pg.bare_edges(k).graph) == math.factorial(k)

    def test_every_enumerated_order_validates(self, canonical):
        # the 19-edge graph is too big to enumerate fully; cap and validate
        res = pg.enumerate_planar_orders(canonical.graph, limit=50, force=True)
        assert res.truncated
        for o in res.orders:
            pg.validate_planar_order(canonical.graph, o.sequence)

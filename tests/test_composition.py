from __future__ import annotations

import random

import pytest

import popgraph as pg
from conftest import perturbed, spider_layer_with_outputs


class TestCompose:
    def test_three_layers_build_the_canonical_graph(self, layers, canonical):
        top, mid, bot = layers
        result = pg.compose(pg.compose(top, mid), bot)
        assert pg.pop_isomorphic(result, canonical)

    def test_arity_mismatch(self, layers):
        top, mid, bot = layers
        with pytest.raises(pg.ArityMismatch) as exc:
            pg.compose(top, bot)
        assert (exc.value.outputs, exc.value.inputs) == (8, 7)

    def test_glue_table(self, layers):
        top, mid, _ = layers
        table = pg.glue_table(top, mid)
        assert table == tuple(zip(top.outputs_ordered, mid.inputs_ordered))

    def test_fused_ids_keep_shared_names(self):
        # gluing o onto i names the fused edge "o~i"; equal names collapse
        a = pg.spider(1, 2, name="va")
        b = pg.spider(2, 1, name="vb")
        c = pg.compose(a, b)
        assert set(c.graph.edge_ids) == {"i1", "o1~i1", "o2~i2", "o1"}
        # interior endpoints survive the glue
        fused = c.graph.edge("o1~i1")
        assert fused.src == "va" and fused.dst == "vb"

    def test_fused_id_collision_freshened(self):
        first = pg.validate_planar_order(pg.ProgressiveGraph(pg.DirectedMultigraph(
            [pg.Edge("a", "p", "q")])), ["a"])
        plain = pg.validate_planar_order(pg.ProgressiveGraph(
            pg.DirectedMultigraph([pg.Edge("b", "r", "v"), pg.Edge("c", "v", "y")])),
            ["b", "c"])
        # sanity: without collision the fused name is just a~b
        assert "a~b" in pg.compose(first, plain).graph.edge_ids

        # second factor owns a *surviving* edge spelled like the fused one
        clash = pg.validate_planar_order(pg.ProgressiveGraph(pg.DirectedMultigraph(
            [pg.Edge("b", "r", "v"), pg.Edge("a~b", "v", "y")])), ["b", "a~b"])
        out = pg.compose(first, clash)
        ids = list(out.graph.edge_ids)
        assert sorted(ids) == ["a~b", "a~b'"]
        assert out.graph.edge("a~b").src == "p"        # the glue edge
        assert out.graph.edge("a~b'").dst == "y"       # the renamed survivor

    def test_vertex_name_collision_freshened(self):
        # both factors use an internal vertex called v
        first = pg.validate_planar_order(pg.ProgressiveGraph(pg.DirectedMultigraph(
            [pg.Edge("1", "p", "v"), pg.Edge("2", "v", "q")])), ["1", "2"])
        second = pg.validate_planar_order(pg.ProgressiveGraph(pg.DirectedMultigraph(
            [pg.Edge("3", "r", "v"), pg.Edge("4", "v", "s")])), ["3", "4"])
        out = pg.compose(first, second)
        assert len(out.graph.internal_vertices) == 2
        assert "v" in out.graph.internal_vertices
        assert "v'" in out.graph.internal_vertices

    def test_compose_of_bares_is_bares(self):
        a, b = pg.bare_edges(3, "x"), pg.bare_edges(3, "y")
        out = pg.compose(a, b)
        assert len(out.graph.edges) == 3 and not out.graph.internal_vertices

    def test_associativity_on_fixture(self, layers):
        top, mid, bot = layers
        left = pg.compose(pg.compose(top, mid), bot)
        right = pg.compose(top, pg.compose(mid, bot))
        assert pg.pop_isomorphic(left, right)


class TestIsElementary:
    def test_layers_are_elementary(self, layers):
        for f in layers:
            assert pg.is_elementary(f.graph)

    def test_canonical_is_not(self, canonical):
        assert not pg.is_elementary(canonical.graph)

    def test_two_spiders_one_component(self):
        assert not pg.is_elementary(pg.two_level_tree().graph)

    def test_two_spiders_two_components(self):
        g = pg.side_by_side(pg.spider(2, 1), pg.spider(1, 2))
        assert pg.is_elementary(g.graph)

    def test_bares_are_elementary(self):
        assert pg.is_elementary(pg.bare_edges(4).graph)


class TestDecompose:
    def test_first_split_is_frozen(self, canonical):
        remainder, factor = pg.decompose_step(canonical)
        assert factor.order.sequence == ("7", "8", "9", "12", "13", "14", "16", "18", "19")
        assert factor.graph.internal_vertices == frozenset({"C"})
        assert len(remainder.graph.edges) == 17
        assert len(remainder.graph.internal_vertices) == 5

    def test_split_recomposes_literally(self, canonical):
        remainder, factor = pg.decompose_step(canonical)
        glued = pg.compose(remainder, factor)
        assert glued.graph == canonical.graph
        assert glued.order == canonical.order

    def test_no_internal_vertex(self):
        with pytest.raises(pg.NoInternalVertex):
            pg.decompose_step(pg.bare_edges(2))

    def test_factor_count_equals_internal_vertices(self, canonical):
        d = pg.elementary_decomposition(canonical)
        assert len(d.factors) == len(canonical.graph.internal_vertices) == 6
        for f in d.factors:
            assert pg.is_elementary(f.graph)
            assert len(f.graph.internal_vertices) == 1

    def test_peel_order_frozen(self, canonical):
        d = pg.elementary_decomposition(canonical)
        spiders = [sorted(f.graph.internal_vertices)[0] for f in d.factors]
        assert spiders == ["F", "D", "E", "A", "B", "C"]

    def test_interfaces_pair_identical_ids(self, canonical):
        d = pg.elementary_decomposition(canonical)
        assert len(d.interfaces) == len(d.factors) - 1
        for pairs in d.interfaces:
            for o, i in pairs:
                assert o == i

    def test_all_bare_graph_decomposes_to_itself(self):
        pop = pg.bare_edges(3)
        d = pg.elementary_decomposition(pop)
        assert len(d.factors) == 1 and d.factors[0] is pop

    def test_recompose_canonical(self, canonical):
        d = pg.elementary_decomposition(canonical)
        back = pg.recompose(d)
        assert back.graph == canonical.graph and back.order == canonical.order

    def test_recompose_random_literal(self):
        rng = random.Random(42)
        for i in range(40):
            pop = pg.random_pop(rng, tag=f"r{i}.")
            d = pg.elementary_decomposition(pop)
            assert len(d.factors) == len(pop.graph.internal_vertices), i
            back = pg.recompose(d)
            assert back.graph == pop.graph and back.order == pop.order, i

    def test_steps_match_the_walk(self, canonical):
        # decompose_step builds and validates every remainder, which the walk
        # in elementary_decomposition skips; both must peel the same factors
        rng = random.Random(5)
        pops = [canonical] + [pg.random_pop(rng, tag=f"r{i}.") for i in range(200)]
        for i, pop in enumerate(pops):
            stepped = []
            current = pop
            while current.graph.internal_vertices:
                remainder, factor = pg.decompose_step(current)
                glued = pg.compose(remainder, factor)
                assert glued.graph == current.graph and glued.order == current.order, i
                stepped.append(factor)
                current = remainder
            walked = pg.elementary_decomposition(pop).factors
            assert ([(f.graph.edges, f.order) for f in walked]
                    == [(f.graph.edges, f.order) for f in reversed(stepped)]), i

    def test_long_path(self):
        edges = [pg.Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(1200)]
        pop = pg.validate_planar_order(
            pg.validate_progressive(pg.DirectedMultigraph(edges)), [e.id for e in edges])
        d = pg.elementary_decomposition(pop)
        assert len(d.factors) == 1199
        for f in d.factors:
            assert pg.is_elementary(f.graph)
            assert len(f.graph.internal_vertices) == 1
        for pairs in d.interfaces:
            assert [o for o, _ in pairs] == [i for _, i in pairs]


class TestCancellation:
    def test_distinct_graphs_stay_distinct(self):
        rng = random.Random(99)
        done = 0
        tries = 0
        while done < 30 and tries < 300:
            tries += 1
            x = pg.random_pop(rng, tag=f"x{tries}.")
            y = perturbed(x, rng)
            if y is None:
                continue
            h = spider_layer_with_outputs(rng, f"h{tries}.", len(x.graph.inputs))
            hx, hy = pg.compose(h, x), pg.compose(h, y)
            assert pg.pop_isomorphic(hx, hy) == pg.pop_isomorphic(x, y), tries
            g = pg.random_single_spider_layer(rng, f"g{tries}.",
                                              n_inputs=len(x.graph.outputs))
            xg, yg = pg.compose(x, g), pg.compose(y, g)
            assert pg.pop_isomorphic(xg, yg) == pg.pop_isomorphic(x, y), tries
            done += 1
        assert done >= 30

    def test_identical_factors_compose_identically(self):
        rng = random.Random(7)
        x = pg.random_pop(rng, tag="a.")
        h = pg.random_single_spider_layer(rng, "h.", n_inputs=len(x.graph.outputs))
        assert pg.pop_isomorphic(pg.compose(x, h), pg.compose(x, h))

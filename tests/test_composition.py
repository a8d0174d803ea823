from __future__ import annotations

import random

import pytest

import popgraph as pg
from popgraph.composition import _walk
from conftest import (FIXTURES, compose_fold, decomposition_corpus, decomposition_oracle,
                      is_elementary, perturbed, random_single_spider_layer, recipe_graph,
                      spider_layer_with_outputs)


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


def same_literally(a: pg.POPGraph, b: pg.POPGraph) -> bool:
    """Equal edges in declaration order, vertices and order sequence; ``==``
    ignores declaration order."""
    return (a.graph.edges == b.graph.edges and a.graph.vertices == b.graph.vertices
            and a.order.sequence == b.order.sequence)


class TestComposeMany:
    def test_no_factors_is_a_ppg_error(self):
        with pytest.raises(pg.PpgError, match="at least one factor"):
            pg.compose()
        with pytest.raises(pg.PpgError, match="at least one factor"):
            pg.recompose([])

    def test_one_factor_is_itself(self, canonical):
        assert pg.compose(canonical) is canonical

    def test_matches_the_fold_on_decompositions(self):
        rng = random.Random(16)
        for k in range(300):
            factors = tuple(pg.elementary_decomposition(pg.random_pop(rng)))
            assert same_literally(pg.compose(*factors), compose_fold(*factors)), k

    def test_matches_the_fold_on_chains_with_clashing_names(self):
        # every tag is drawn from three, so ids and vertex names collide
        # between layers and get freshened, at each glue of a chain
        rng = random.Random(61)
        for k in range(300):
            chain = [pg.random_elementary_layer(rng, rng.choice(["", "a", "L1."]))]
            for _ in range(rng.randint(1, 5)):
                chain.append(pg.random_elementary_layer(
                    rng, rng.choice(["", "a", "L1."]),
                    n_inputs=len(chain[-1].graph.outputs)))
            assert same_literally(pg.compose(*chain), compose_fold(*chain)), k

    def test_first_mismatch_raises_as_the_fold_does(self, layers):
        top, mid, bot = layers
        chain = (top, mid, pg.bare_edges(3), bot)
        with pytest.raises(pg.ArityMismatch) as folded:
            compose_fold(*chain)
        with pytest.raises(pg.ArityMismatch) as exc:
            pg.compose(*chain)
        assert str(exc.value) == str(folded.value) == "cannot glue 7 outputs onto 3 inputs"


class TestIsElementary:
    # is_elementary and random_single_spider_layer are helpers of the
    # suite (tests/conftest.py); these keep them honest

    def test_single_spider_layers(self):
        rng = random.Random(4)
        for k in range(200):
            n = rng.choice((None, rng.randint(1, 9)))
            layer = random_single_spider_layer(rng, f"t{k}.", n_inputs=n)
            assert len(layer.graph.internal_vertices) == 1, k
            assert n is None or len(layer.graph.inputs) == n, k
            assert is_elementary(layer.graph), k

    def test_layers_are_elementary(self, layers):
        for f in layers:
            assert is_elementary(f.graph)

    def test_canonical_is_not(self, canonical):
        assert not is_elementary(canonical.graph)

    def test_two_spiders_one_component(self):
        assert not is_elementary(pg.two_level_tree().graph)

    def test_two_spiders_two_components(self):
        g = pg.side_by_side(pg.spider(2, 1), pg.spider(1, 2))
        assert is_elementary(g.graph)

    def test_bares_are_elementary(self):
        assert is_elementary(pg.bare_edges(4).graph)


class TestDecompose:
    @pytest.mark.parametrize("text", [
        (FIXTURES / "canonical19.ppg").read_text(encoding="utf-8"),
        pg.emit_ppg(recipe_graph(16, 16)),
    ], ids=["canonical19", "recipe16x16"])
    def test_the_drawing_path_builds_no_reach_rows(self, text):
        # parse, decompose, recompose, lay out and emit never read a reach
        # row, so none is built; the first comparison builds them
        doc = pg.parse_ppg(text)
        pop = doc.pop()
        d = pg.elementary_decomposition(pop)
        back = pg.recompose(d)
        pg.layout(back)
        pg.emit_ppg(back)
        for g in (pop.graph, back.graph, *(f.graph for f in d.factors)):
            assert "_ereach" not in g.__dict__
        pg.synthesize_order(doc.pa())
        assert "_ereach" in doc.graph.__dict__

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
            assert is_elementary(f.graph)
            assert len(f.graph.internal_vertices) == 1
            pg.validate_planar_order(f.graph, f.order.sequence)

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
            assert is_elementary(f.graph)
            assert len(f.graph.internal_vertices) == 1
            pg.validate_planar_order(f.graph, f.order.sequence)
        for pairs in d.interfaces:
            assert [o for o, _ in pairs] == [i for _, i in pairs]


class TestStepWalk:
    """The factors come from one walk over the peel order that keeps the line
    in order and splices each factor's order from it; the oracle sorts the
    line and the in-legs by rank and by declaration index instead."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return decomposition_corpus()

    def test_factors_and_interfaces_equal_the_oracle(self, corpus):
        for name, pop in corpus:
            factors, interfaces = decomposition_oracle(pop)
            d = pg.elementary_decomposition(pop)
            assert ([(f.graph.edges, f.order) for f in d.factors]
                    == [(f.graph.edges, f.order) for f in factors]), name
            assert d.interfaces == interfaces, name

    def test_out_legs_are_one_block_of_the_line(self, corpus):
        for name, pop in corpus:
            g = pop.graph
            line = list(pop.outputs_ordered)
            for step in _walk(pop):
                assert step.before == line, name
                legs = [e.id for e in g.out_edges(step.vertex)]
                assert sorted(step.outs) == sorted(legs), name
                assert tuple(step.before[step.k:step.k + len(legs)]) == step.outs, name
                assert sorted(step.ins) == sorted(e.id for e in g.in_edges(step.vertex)), name
                line = step.after
            assert line == list(pop.inputs_ordered), name


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
            g = random_single_spider_layer(rng, f"g{tries}.",
                                           n_inputs=len(x.graph.outputs))
            xg, yg = pg.compose(x, g), pg.compose(y, g)
            assert pg.pop_isomorphic(xg, yg) == pg.pop_isomorphic(x, y), tries
            done += 1
        assert done >= 30

    def test_identical_factors_compose_identically(self):
        rng = random.Random(7)
        x = pg.random_pop(rng, tag="a.")
        h = random_single_spider_layer(rng, "h.", n_inputs=len(x.graph.outputs))
        assert pg.pop_isomorphic(pg.compose(x, h), pg.compose(x, h))

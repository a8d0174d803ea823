from __future__ import annotations

import dataclasses
import random
import textwrap
from fractions import Fraction

import pytest

import popgraph as pg
from popgraph.layout import _flip, _segment_meet
from conftest import run_optimized


F = Fraction


def all_variants(pop):
    yield pg.layout(pop)
    yield pg.layout(pop, up=True)
    yield pg.layout_st(pop)
    yield pg.layout_st(pop, up=True)


class TestLayout:
    def test_canonical_clean_in_all_variants(self, canonical):
        for d in all_variants(canonical):
            report = pg.check_drawing(d)
            assert report.ok, report.problems

    def test_suite_clean_in_all_variants(self, suite):
        for name, pop in suite:
            for d in all_variants(pop):
                report = pg.check_drawing(d)
                assert report.ok, (name, report.problems)

    def test_random_pops_clean(self):
        rng = random.Random(12)
        for i in range(25):
            pop = pg.random_pop(rng, tag=f"l{i}.")
            for d in all_variants(pop):
                report = pg.check_drawing(d)
                assert report.ok, (i, report.problems)

    def test_read_back_recovers_local_data(self, canonical, suite):
        for name, pop in [("canonical", canonical)] + suite:
            want = pg.extract_pa(pop)
            for d in all_variants(pop):
                assert pg.read_back(d, pop.graph) == want, name

    def test_lines_and_bands_match_the_decomposition(self, canonical, suite):
        rng = random.Random(7)
        pops = [canonical, pg.bare_edges(3)] + [pop for _, pop in suite]
        pops += [pg.random_pop(rng, tag=f"o{i}.") for i in range(40)]
        for i, pop in enumerate(pops):
            factors = pg.elementary_decomposition(pop).factors
            d = pg.layout(pop)
            assert len(d.bands) == len(factors)
            for k in range(len(factors) + 1):
                at_k = sorted((x, e) for e, pts in d.routes.items()
                              for x, y in pts if y == k)
                want = factors[k - 1].outputs_ordered if k else factors[0].inputs_ordered
                assert tuple(e for _, e in at_k) == want, (i, k)
            for k, f in enumerate(factors, 1):
                in_band = {v for v, (_, y) in d.vertices.items() if k - 1 < y < k}
                assert in_band == set(f.graph.internal_vertices), (i, k)

    def test_read_back_refuses_a_detached_boundary(self, canonical):
        d = pg.layout(canonical)
        (x, y), *rest = d.routes["1"]
        routes = dict(d.routes, **{"1": ((x, y + F(1, 7)), *rest)})
        with pytest.raises(pg.PpgError, match="not attached"):
            pg.read_back(dataclasses.replace(d, routes=routes), canonical.graph)

    def test_read_back_refuses_a_detached_boundary_under_O(self):
        script = textwrap.dedent("""\
            import dataclasses
            from fractions import Fraction
            import popgraph as pg
            pop = pg.spider(2, 1)
            d = pg.layout(pop)
            e = d.inputs[0]
            (x, y), *rest = d.routes[e]
            routes = dict(d.routes, **{e: ((x, y + Fraction(1, 7)), *rest)})
            print(__debug__)
            try:
                pg.read_back(dataclasses.replace(d, routes=routes), pop.graph)
            except pg.PpgError as exc:
                print(exc)
            """)
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False", "edge i1 is not attached to the boundary"]

    @pytest.mark.parametrize("keep", [0, 1], ids=["empty", "first_point"])
    @pytest.mark.parametrize("draw", [pg.layout, pg.layout_st], ids=["plain", "st"])
    def test_short_route_is_reported(self, draw, keep):
        pop = pg.spider(2, 1)
        d = draw(pop)
        short = dataclasses.replace(d, routes=dict(d.routes, i1=d.routes["i1"][:keep]))
        assert pg.check_drawing(short).problems == ("route i1: fewer than two points",)
        for refuse in (lambda: pg.read_back(short, pop.graph),
                       lambda: pg.render_svg(short), lambda: pg.render_tikz(short)):
            with pytest.raises(pg.PpgError, match="^route of edge i1 has fewer than two points$"):
                refuse()

    def test_short_route_is_reported_under_O(self):
        script = textwrap.dedent("""\
            import dataclasses
            import popgraph as pg
            pop = pg.spider(2, 1)
            print(__debug__)
            for draw in (pg.layout, pg.layout_st):
                d = draw(pop)
                for keep in (0, 1):
                    routes = dict(d.routes, i1=d.routes["i1"][:keep])
                    short = dataclasses.replace(d, routes=routes)
                    print(pg.check_drawing(short).problems)
                    try:
                        pg.read_back(short, pop.graph)
                    except pg.PpgError as exc:
                        print(exc)
            """)
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False"] + 4 * [
            "('route i1: fewer than two points',)",
            "route of edge i1 has fewer than two points"]

    def test_one_band_per_internal_vertex(self, canonical):
        d = pg.layout(canonical)
        assert len(d.bands) == 6
        assert d.height == 6

    def test_bare_only_graph_draws(self):
        pop = pg.bare_edges(3)
        d = pg.layout(pop)
        assert pg.check_drawing(d).ok
        assert not d.vertices
        assert len(d.bands) == 1

    def test_vertices_sit_between_their_legs(self, canonical):
        d = pg.layout(canonical)
        for v, (x, y) in d.vertices.items():
            legs = [d.routes[e.id] for e in canonical.graph.in_edges(v)]
            xs = [r[-2][0] for r in legs]
            assert min(xs) <= x <= max(xs), v

    def test_flip_is_an_involution(self, canonical):
        d = pg.layout(canonical)
        assert _flip(_flip(d)) == d
        flipped = _flip(d)
        assert flipped.flow == "up"
        assert pg.check_drawing(flipped).ok

    def test_st_reserves_apex_names(self):
        pop = pg.validate_planar_order(pg.ProgressiveGraph(pg.DirectedMultigraph(
            [pg.Edge("1", "p", "s"), pg.Edge("2", "s", "q")])), ["1", "2"])
        with pytest.raises(pg.ReservedVertexName):
            pg.layout_st(pop)

    def test_st_apexes_outside_the_box(self, canonical):
        d = pg.layout_st(canonical)
        s, t = d.vertices["s"], d.vertices["t"]
        assert s[1] < d.box[1] and t[1] > d.box[3]
        for e in d.inputs:
            assert d.routes[e][0] == s
        for e in d.outputs:
            assert d.routes[e][-1] == t


class TestCheckDrawing:
    def test_crossing_detected(self):
        d = pg.Drawing(
            flow="down", box=(F(0), F(0), F(3), F(1)), bands=((F(0), F(1)),),
            vertices={},
            routes={"a": ((F(1), F(0)), (F(2), F(1))),
                    "b": ((F(2), F(0)), (F(1), F(1)))},
            inputs=("a", "b"), outputs=("a", "b"))
        report = pg.check_drawing(d)
        assert not report.ok
        assert any("cross" in p for p in report.problems)

    def test_tampered_route_detected(self, canonical):
        d = pg.layout(canonical)
        routes = dict(d.routes)
        routes["5"] = tuple(reversed(routes["5"]))
        bad = dataclasses.replace(d, routes=routes)
        report = pg.check_drawing(bad)
        assert not report.ok
        assert any("monotone" in p for p in report.problems)

    def test_detached_boundary_detected(self, canonical):
        d = pg.layout(canonical)
        routes = dict(d.routes)
        first = routes["1"]
        routes["1"] = ((first[0][0], first[0][1] + F(1, 7)),) + first[1:]
        bad = dataclasses.replace(d, routes=routes)
        report = pg.check_drawing(bad)
        assert any("boundary" in p for p in report.problems)

    def test_overlapping_routes_detected(self):
        d = pg.Drawing(
            flow="down", box=(F(0), F(0), F(3), F(1)), bands=((F(0), F(1)),),
            vertices={},
            routes={"a": ((F(1), F(0)), (F(1), F(1))),
                    "b": ((F(1), F(0)), (F(1), F(1)))},
            inputs=("a", "b"), outputs=("a", "b"))
        assert not pg.check_drawing(d).ok

    def test_shared_vertex_touch_allowed(self):
        # two edges meeting head-on at a drawn vertex is not a crossing
        pop = pg.spider(2, 1)
        assert pg.check_drawing(pg.layout(pop)).ok


class TestSegmentMeet:
    def test_disjoint(self):
        assert _segment_meet((F(0), F(0)), (F(1), F(0)),
                             (F(0), F(1)), (F(1), F(1))) is None

    def test_proper_crossing(self):
        kind, p = _segment_meet((F(0), F(0)), (F(2), F(2)),
                                (F(0), F(2)), (F(2), F(0)))
        assert kind == "point" and p == (F(1), F(1))

    def test_endpoint_touch(self):
        kind, p = _segment_meet((F(0), F(0)), (F(1), F(1)),
                                (F(1), F(1)), (F(2), F(0)))
        assert kind == "point" and p == (F(1), F(1))

    def test_collinear_overlap(self):
        kind, _ = _segment_meet((F(0), F(0)), (F(2), F(0)),
                                (F(1), F(0)), (F(3), F(0)))
        assert kind == "overlap"

    def test_collinear_disjoint(self):
        assert _segment_meet((F(0), F(0)), (F(1), F(0)),
                             (F(2), F(0)), (F(3), F(0))) is None

    def test_parallel(self):
        assert _segment_meet((F(0), F(0)), (F(1), F(1)),
                             (F(0), F(1)), (F(1), F(2))) is None


class TestRender:
    def test_svg_structure(self, canonical):
        svg = pg.render_svg(pg.layout(canonical))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<path ") == 19
        assert svg.count("<polygon ") == 19
        assert svg.count("<circle ") == 6
        assert "stroke-dasharray" in svg
        assert "<text" not in svg

    def test_svg_st_has_apex_circles(self, canonical):
        svg = pg.render_svg(pg.layout_st(canonical))
        assert svg.count("<circle ") == 8

    def test_tikz_structure(self, canonical):
        tikz = pg.render_tikz(pg.layout(canonical))
        assert tikz.startswith("\\begin{tikzpicture}")
        assert tikz.rstrip().endswith("\\end{tikzpicture}")
        assert tikz.count("\\filldraw") == 6
        assert tikz.count("[->]") == 19
        assert "densely dashed" in tikz

    def test_rendering_is_deterministic(self, canonical):
        assert pg.render_svg(pg.layout(canonical)) == \
            pg.render_svg(pg.layout(canonical))
        assert pg.render_tikz(pg.layout_st(canonical, up=True)) == \
            pg.render_tikz(pg.layout_st(canonical, up=True))

    def test_up_flow_renders(self, canonical):
        svg = pg.render_svg(pg.layout(canonical, up=True))
        assert svg.count("<path ") == 19


def without(d: pg.Drawing, *, route: str | None = None, vertex: str | None = None):
    """``d`` with one route or one vertex deleted."""
    routes = {e: pts for e, pts in d.routes.items() if e != route}
    vertices = {v: p for v, p in d.vertices.items() if v != vertex}
    return dataclasses.replace(d, routes=routes, vertices=vertices)


class TestMalformedDrawings:
    """Missing parts are reported by the checker and refused with PpgError
    by read_back, never raised as KeyError."""

    @pytest.mark.parametrize("draw", [pg.layout, pg.layout_st], ids=["plain", "st"])
    @pytest.mark.parametrize("edge,side", [("i1", "input"), ("o1", "output")])
    def test_boundary_edge_without_route(self, draw, edge, side):
        pop = pg.spider(2, 1)
        bad = without(draw(pop), route=edge)
        assert pg.check_drawing(bad).problems == (f"{side} {edge}: has no route",)
        with pytest.raises(pg.PpgError, match=f"^edge {edge} has no route$"):
            pg.read_back(bad, pop.graph)

    @pytest.mark.parametrize("apex,want", [
        ("s", ["input i1: does not start at the source apex",
               "input i2: does not start at the source apex"]),
        ("t", ["output o1: does not end at the sink apex",
               "output o2: does not end at the sink apex"])])
    def test_st_drawing_without_apex_is_reported(self, apex, want):
        bad = without(pg.layout_st(pg.spider(2, 2)), vertex=apex)
        problems = pg.check_drawing(bad).problems
        assert list(problems[:3]) == [f"apex {apex}: not among the vertices"] + want

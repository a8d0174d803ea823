from __future__ import annotations

import dataclasses
import random
import sys
import textwrap
import time
from fractions import Fraction
from itertools import chain

import pytest

import popgraph as pg
from popgraph.layout import _ints, _meet
from conftest import (check_drawing_scan, mirror, moved_by_primes, recipe_graph,
                      run_optimized, segment_meet_scan, with_apexes)


F = Fraction


def all_variants(pop):
    yield pg.layout(pop)
    yield pg.layout(pop, up=True)
    yield pg.layout_st(pop)
    yield pg.layout_st(pop, up=True)


class TestLayout:
    # clean layouts: the strip sweep and the pair scan both find nothing

    def test_canonical_clean_in_all_variants(self, canonical):
        for d in all_variants(canonical):
            report = pg.check_drawing(d)
            assert report.ok, report.problems
            assert check_drawing_scan(d) == ()

    def test_suite_clean_in_all_variants(self, suite):
        for name, pop in suite:
            for d in all_variants(pop):
                report = pg.check_drawing(d)
                assert report.ok, (name, report.problems)
                assert check_drawing_scan(d) == (), name

    def test_random_pops_clean(self):
        rng = random.Random(12)
        for i in range(25):
            pop = pg.random_pop(rng, tag=f"l{i}.")
            for d in all_variants(pop):
                report = pg.check_drawing(d)
                assert report.ok, (i, report.problems)
                assert check_drawing_scan(d) == (), i

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

    def test_points_on_lines_are_ints(self, canonical):
        # a denominator arises only at the vertices and the st apexes
        for d in all_variants(canonical):
            for pts in d.routes.values():
                for p in pts:
                    if p not in d.vertices.values():
                        assert type(p[0]) is int and type(p[1]) is int, p
            for p in d.vertices.values():
                assert type(p[0]) is type(p[1]) is Fraction, p
            # the box and the bands are whole numbers too
            assert {type(c) for c in (*d.box, *chain.from_iterable(d.bands))} == {int}

    def test_vertices_sit_between_their_legs(self, canonical):
        d = pg.layout(canonical)
        for v, (x, y) in d.vertices.items():
            legs = [d.routes[e.id] for e in canonical.graph.in_edges(v)]
            xs = [r[-2][0] for r in legs]
            assert min(xs) <= x <= max(xs), v

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


def typed(x):
    """x with every coordinate paired with its type name and every dict as
    its item list, so that == also compares types and key order."""
    if isinstance(x, tuple):
        return tuple(map(typed, x))
    if isinstance(x, dict):
        return [(k, typed(v)) for k, v in x.items()]
    return type(x).__name__, x


def variant_corpus(suite):
    empty = pg.validate_planar_order(pg.ProgressiveGraph(pg.DirectedMultigraph([])), [])
    rng = random.Random(0)
    return ([pop for _, pop in suite] + [empty]
            + [pg.random_pop(rng, 1, 6, tag=f"v{i}.") for i in range(300)])


class TestVariants:
    """The upward and st drawings against their definitions from the plain
    drawing: every field, coordinate type and key order."""

    def test_variants_match_their_definitions(self, canonical, suite):
        for i, pop in enumerate([canonical] + variant_corpus(suite)):
            d = pg.layout(pop)
            for got, want in ((pg.layout(pop, up=True), mirror(d)),
                              (pg.layout_st(pop), with_apexes(d)),
                              (pg.layout_st(pop, up=True), mirror(with_apexes(d)))):
                assert typed(dataclasses.astuple(got)) == typed(dataclasses.astuple(want)), i

    def test_mirrored_drawings_check(self, canonical, suite):
        rng = random.Random(3)
        pops = [canonical] + [pop for _, pop in suite]
        pops += [pg.random_pop(rng, 1, 6, tag=f"m{i}.") for i in range(20)]
        for i, pop in enumerate(pops):
            for d in (mirror(pg.layout(pop)), mirror(with_apexes(pg.layout(pop)))):
                assert d.flow == "up"
                report = pg.check_drawing(d)
                assert report.ok, (i, report.problems)


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

    def test_route_through_a_foreign_vertex_detected(self, canonical):
        # a bend placed exactly on a vertex the edge does not touch meets
        # that vertex's legs there: both are segment ends, neither route ends
        tried = 0
        for draw in (pg.layout, pg.layout_st):
            d = draw(canonical)
            for v, (vx, vy) in d.vertices.items():
                near = f"cross near ({float(vx):.3f}, {float(vy):.3f})"
                for e, pts in d.routes.items():
                    if (vx, vy) in (pts[0], pts[-1]):
                        continue
                    i = next((i for i, (a, b) in enumerate(zip(pts, pts[1:]))
                              if a[1] < vy < b[1]), None)
                    if i is None:
                        continue
                    routes = dict(d.routes, **{e: pts[:i + 1] + ((vx, vy),) + pts[i + 1:]})
                    bad = dataclasses.replace(d, routes=routes)
                    problems = pg.check_drawing(bad).problems
                    assert any(p.endswith(near) and (p.startswith(f"routes {e} and ")
                                                     or f" and {e} cross" in p)
                               for p in problems), (v, e, problems)
                    tried += 1
        assert tried > 20

    def test_segments_meeting_across_a_line_detected(self):
        # a ends at (1, 1) from above, b starts there going below: the two
        # share no strip, only the point
        d = pg.Drawing(
            flow="down", box=(F(0), F(0), F(3), F(2)), bands=((F(0), F(2)),),
            vertices={},
            routes={"a": ((F(0), F(0)), (F(1), F(1))),
                    "b": ((F(1), F(1)), (F(2), F(2))),
                    "c": ((F(3), F(0)), (F(3), F(2)))},
            inputs=("a", "c"), outputs=("b", "c"))
        assert pg.check_drawing(d).problems == check_drawing_scan(d) == (
            "routes a and b cross near (1.000, 1.000)",)

    def test_collinear_legs_meeting_at_a_vertex_allowed(self):
        # as above, but a vertex sits at the meeting point, whose x and y
        # have different denominators (1/4, 1/2)
        v = (F(1, 4), F(1, 2))
        d = pg.Drawing(
            flow="down", box=(F(0), F(0), F(1), F(1)), bands=((F(0), F(1)),),
            vertices={"v": v},
            routes={"a": ((0, 0), v), "b": (v, (F(1, 2), 1)), "c": ((1, 0), (1, 1))},
            inputs=("a", "c"), outputs=("b", "c"))
        assert pg.check_drawing(d).problems == check_drawing_scan(d) == ()

    def test_single_point_route_meets_in_either_order(self):
        # a route whose two points coincide, lying on another route, meets
        # it whichever of the two is listed first
        e, f = ((1, 1), (1, 1)), ((0, 0), (2, 2))
        for routes, first, second in (({"e": e, "f": f}, "e", "f"),
                                      ({"f": f, "e": e}, "f", "e")):
            d = pg.Drawing(flow="down", box=(F(0), F(0), F(2), F(2)),
                           bands=((F(0), F(2)),), vertices={}, routes=routes,
                           inputs=("f",), outputs=("f",))
            assert pg.check_drawing(d).problems == check_drawing_scan(d) == (
                "route e: not monotone in the flow direction",
                f"routes {first} and {second} cross near (1.000, 1.000)")

    def test_crossing_beyond_the_float_range_reported(self):
        # the meeting point's x overflows a float: it is written in
        # scientific form, where three decimals would need 400 digits
        d = pg.layout(pg.spider(2, 2))
        routes = dict(d.routes, i1=((10**400, 0), (F(3, 2), F(1, 2))),
                      i2=((2, 0), (10**400, F(1, 4)), (F(3, 2), F(1, 2))))
        assert pg.check_drawing(dataclasses.replace(d, routes=routes)).problems == (
            "routes i1 and i2 cross near (6.667e+399, 0.167)",)

    def test_a_clean_layout_sends_no_pair_to_the_segment_test(self, suite, monkeypatch):
        # legs leaving a vertex apart do not tie in the sweep, and legs on
        # opposite sides of it are no candidates: nothing reaches _meet
        calls = []
        # the module, which the function pg.layout shadows as an attribute
        module = sys.modules["popgraph.layout"]
        monkeypatch.setattr(module, "_meet", lambda *q: calls.append(q) or _meet(*q))
        for name, pop in suite:
            for d in all_variants(pop):
                assert pg.check_drawing(d).ok, name
        assert not calls

    def test_a_large_layout_checks_quickly(self):
        # the 16x16 composition of random layers: 249 edges, 2 788 segments;
        # a pair scan takes minutes here
        pop = recipe_graph(16, 16)
        d = pg.layout(pop)
        assert len(pop.graph.edges) == 249
        assert sum(len(pts) - 1 for pts in d.routes.values()) == 2788
        t0 = time.perf_counter()
        report = pg.check_drawing(d)
        assert time.perf_counter() - t0 < 10.0
        assert report.ok, report.problems[:3]


def swapped_x(d: pg.Drawing) -> pg.Drawing:
    # two neighbouring points on the line with the most distinct x values
    at: dict[Fraction, list] = {}
    for e, pts in d.routes.items():
        for i, (x, y) in enumerate(pts):
            at.setdefault(y, []).append((x, e, i))
    y, row = max(at.items(), key=lambda yr: len({x for x, _, _ in yr[1]}))
    row.sort()
    (x1, e1, i1), (x2, e2, i2) = next((p, q) for p, q in zip(row, row[1:]) if p[0] != q[0])
    routes = dict(d.routes)
    routes[e1] = routes[e1][:i1] + ((x2, y),) + routes[e1][i1 + 1:]
    routes[e2] = routes[e2][:i2] + ((x1, y),) + routes[e2][i2 + 1:]
    return dataclasses.replace(d, routes=routes)


def moved_vertex(d: pg.Drawing) -> pg.Drawing:
    v = sorted(d.vertices)[0]
    old = d.vertices[v]
    new = (old[0] + F(3, 2), old[1])
    routes = {e: tuple(new if p == old else p for p in pts) for e, pts in d.routes.items()}
    return dataclasses.replace(d, routes=routes, vertices=dict(d.vertices, **{v: new}))


def copied_route(d: pg.Drawing) -> pg.Drawing:
    return dataclasses.replace(d, routes=dict(d.routes, copy=d.routes[sorted(d.routes)[0]]))


def horizontal_segment(d: pg.Drawing) -> pg.Drawing:
    # the first output runs flat along the output line past its neighbour's
    # end, which lies inside the flat segment, not at one of its ends
    e = d.outputs[0]
    i = len(d.routes[e]) - (2 if d.st else 1)
    x, y = d.routes[e][i]
    routes = dict(d.routes, **{e: d.routes[e][:i + 1] + ((x + F(3, 2), y),)
                               + d.routes[e][i + 1:]})
    return dataclasses.replace(d, routes=routes)


def reversed_route(d: pg.Drawing) -> pg.Drawing:
    e = sorted(d.routes)[len(d.routes) // 2]
    return dataclasses.replace(d, routes=dict(d.routes, **{e: d.routes[e][::-1]}))


def ghost_route(d: pg.Drawing) -> pg.Drawing:
    # a zigzag listed first: its segments meet later routes in an order
    # other than route by route
    x0, y0, x1, y1 = d.box
    ghost = ((x0 + 1, y0), (x1 - 1, F(y0 + y1, 2)), (x0 + 1, y1))
    return dataclasses.replace(d, routes={"ghost": ghost, **d.routes})


CORRUPTIONS = [swapped_x, moved_vertex, copied_route, horizontal_segment,
               reversed_route, ghost_route]


class TestCheckerAgreesWithScan:
    """The strip sweep reports exactly what the pair scan reports, in the
    same order, on corrupted drawings (clean ones: ``TestLayout``)."""

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_corrupted_drawings(self, canonical, corrupt):
        rng = random.Random(6)
        pops = [canonical] + [pg.random_pop(rng, min_layers=2, max_layers=3, tag=f"k{i}.")
                              for i in range(3)]
        flagged = 0
        for pop in pops:
            for d in all_variants(pop):
                bad = corrupt(d)
                problems = pg.check_drawing(bad).problems
                assert problems == check_drawing_scan(bad)
                flagged += bool(problems)
        assert flagged

    def test_points_moved_by_distinct_primes(self):
        # one interior point per route moved by +-k/p, with a prime p of its
        # own: small moves keep the drawing clean, large ones make crossings
        d = pg.layout(recipe_graph(4, 8))
        flagged = []
        for seed, most in enumerate((F(1, 8), F(1, 8), F(2), F(2))):
            bad = moved_by_primes(d, random.Random(seed), most)
            problems = pg.check_drawing(bad).problems
            assert problems == check_drawing_scan(bad)
            flagged.append(bool(problems))
        assert True in flagged and False in flagged


def as_fraction(c):
    """An equal Fraction that is another object."""
    return F(c) if type(c) is int else F(c.numerator, c.denominator)


def as_int(c):
    """An int if c is a whole number, else an equal Fraction that is another
    object."""
    return c if type(c) is int else c.numerator if c.denominator == 1 else as_fraction(c)


def rebuilt(d: pg.Drawing, route=as_fraction, vertex=as_fraction) -> pg.Drawing:
    """``d`` with every point built anew from equal values, by ``route`` for
    the coordinates of route points and by ``vertex`` for those of vertices
    and the box.  No point is then shared between a vertex and a route."""
    return dataclasses.replace(
        d, box=tuple(map(vertex, d.box)),
        vertices={v: tuple(map(vertex, p)) for v, p in d.vertices.items()},
        routes={e: tuple(tuple(map(route, p)) for p in pts) for e, pts in d.routes.items()})


def outcome(f, *args):
    """What ``f(*args)`` returns, or the message of the PpgError it raises."""
    try:
        return f(*args)
    except pg.PpgError as exc:
        return f"PpgError: {exc}"


class TestPointsReadByValue:
    """The checker and ``read_back`` go by the values of the coordinates,
    not by their types or by which objects hold them."""

    def test_suite_rebuilt(self, suite):
        # every coordinate a Fraction; then the route points as ints where
        # they can be, against vertices of Fractions: (2, 1) is (F(2), F(1))
        for name, pop in suite:
            for d in all_variants(pop):
                for again in (rebuilt(d), rebuilt(d, route=as_int)):
                    assert again.routes == d.routes and again.vertices == d.vertices
                    problems = pg.check_drawing(again).problems
                    assert problems == pg.check_drawing(d).problems == check_drawing_scan(again)
                    assert pg.read_back(again, pop.graph) == pg.read_back(d, pop.graph), name

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_corrupted_drawings_rebuilt(self, canonical, corrupt):
        rng = random.Random(6)
        pops = [canonical] + [pg.random_pop(rng, min_layers=2, max_layers=3, tag=f"k{i}.")
                              for i in range(3)]
        for pop in pops:
            for d in all_variants(pop):
                bad = corrupt(d)
                for again in (rebuilt(bad), rebuilt(bad, route=as_int)):
                    problems = pg.check_drawing(again).problems
                    assert problems == pg.check_drawing(bad).problems == check_drawing_scan(again)
                    assert (outcome(pg.read_back, again, pop.graph)
                            == outcome(pg.read_back, bad, pop.graph))


def random_coordinate(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    d = rng.randint(1, 4)
    return F(rng.randint(-3 * d, 3 * d), d)


def random_quadruple(rng: random.Random):
    """Four points of ints and Fractions (denominators 1-4); a segment may
    be a single point, share an end with the other, or lie on its line."""
    p1, p2, p3, p4 = [(random_coordinate(rng), random_coordinate(rng)) for _ in range(4)]
    r = rng.random()
    if r < 0.1:
        p2 = p1
    elif r < 0.2:
        p3 = p4
    elif r < 0.4:
        p3 = rng.choice((p1, p2))
    elif r < 0.6:
        p3, p4 = ((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
                  for t in (F(rng.randint(-4, 8), 4) for _ in range(2)))
    return p1, p2, p3, p4


def meet(*points):
    """``_meet`` on four points of ints and ``Fraction``s."""
    return _meet(*map(_ints, points))


class TestSegmentMeet:
    def test_disjoint(self):
        assert meet((0, 0), (1, 0), (0, 1), (1, 1)) is None

    def test_proper_crossing(self):
        assert meet((0, 0), (2, 2), (0, 2), (2, 0)) == ("point", (1, 1, 1))

    def test_endpoint_touch(self):
        assert meet((0, 0), (1, 1), (1, 1), (2, 0)) == ("point", (1, 1, 1))

    def test_collinear_overlap(self):
        kind, _ = meet((0, 0), (2, 0), (1, 0), (3, 0))
        assert kind == "overlap"

    def test_collinear_disjoint(self):
        assert meet((0, 0), (1, 0), (2, 0), (3, 0)) is None

    def test_parallel(self):
        assert meet((0, 0), (1, 1), (0, 1), (1, 2)) is None

    def test_single_point_meets_in_either_order(self):
        point, diagonal = ((1, 1), (1, 1)), ((0, 0), (2, 2))
        assert meet(*point, *diagonal) == ("point", (1, 1, 1))
        assert meet(*diagonal, *point) == ("point", (1, 1, 1))
        off = ((1, 0), (1, 0))
        assert meet(*off, *diagonal) is None
        assert meet(*diagonal, *off) is None
        assert meet(*point, *point) == ("point", (1, 1, 1))
        assert meet(*point, *off) is None

    def test_agrees_with_the_fraction_scan(self):
        # the integer kernel against the Fraction arithmetic it replaced
        rng = random.Random(15)
        kinds = {None: 0, "point": 0, "overlap": 0}
        for _ in range(100_000):
            q = random_quadruple(rng)
            hit = segment_meet_scan(*q)
            assert meet(*q) == (hit and (hit[0], _ints(hit[1]))), q
            kinds[hit and hit[0]] += 1
        assert min(kinds.values()) > 10_000, kinds


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

    @staticmethod
    def with_x(d: pg.Drawing, where: str, x) -> pg.Drawing:
        """``d`` with the first x of route i1, or the x of vertex v, set to x."""
        if where == "route":
            pts = d.routes["i1"]
            return dataclasses.replace(
                d, routes=dict(d.routes, i1=((x, pts[0][1]),) + pts[1:]))
        return dataclasses.replace(d, vertices=dict(d.vertices, v=(x, d.vertices["v"][1])))

    @pytest.mark.parametrize("where,name", [("route", "route of edge i1"), ("vertex", "vertex v")])
    @pytest.mark.parametrize("x", [0.5, float("nan"), float("inf"), "1", None], ids=repr)
    @pytest.mark.parametrize("use", ["check_drawing", "read_back", "render_svg", "render_tikz"])
    def test_coordinate_neither_int_nor_fraction_refused(self, use, x, where, name):
        pop = pg.spider(2, 2)
        bad = self.with_x(pg.layout(pop), where, x)
        fn = getattr(pg, use)
        with pytest.raises(pg.PpgError, match=f"^{name} has a coordinate of type "
                                              f"{type(x).__name__}, not an int or a Fraction$"):
            fn(bad, pop.graph) if use == "read_back" else fn(bad)

    def test_huge_coordinates_are_checked_but_not_rendered(self):
        pop = pg.spider(2, 2)
        bad = self.with_x(pg.layout(pop), "route", 10 ** 400)
        assert pg.check_drawing(bad).ok
        assert pg.read_back(bad, pop.graph).anchor.inputs == ("i2", "i1")
        for render in (pg.render_svg, pg.render_tikz):
            with pytest.raises(pg.PpgError, match="^route of edge i1 has a coordinate "
                                                  "too large to render"):
                render(bad)
            render(self.with_x(pg.layout(pop), "route", 10 ** 99))

    @pytest.mark.parametrize("member", [["i1"], 1, None], ids=repr)
    @pytest.mark.parametrize("field", ["inputs", "outputs"])
    @pytest.mark.parametrize("use", ["check_drawing", "read_back", "render_svg", "render_tikz"])
    def test_boundary_member_that_is_not_a_string_refused(self, use, field, member):
        # a list is unhashable, and the checker and read_back hash the members
        pop = pg.spider(2, 2)
        d = pg.layout(pop)
        bad = dataclasses.replace(d, **{field: getattr(d, field)[:1] + (member,)})
        fn = getattr(pg, use)
        with pytest.raises(pg.PpgError, match=f"^drawing {field} has a member of type "
                                              f"{type(member).__name__}, not str$"):
            fn(bad, pop.graph) if use == "read_back" else fn(bad)

    @pytest.mark.parametrize("use", ["check_drawing", "read_back", "render_svg", "render_tikz"])
    def test_point_that_is_not_a_pair_refused(self, use):
        pop = pg.spider(2, 2)
        d = pg.layout(pop)
        bad = dataclasses.replace(d, routes=dict(d.routes, i1=((1, 0, 0),) + d.routes["i1"][1:]))
        fn = getattr(pg, use)
        with pytest.raises(pg.PpgError, match="^route of edge i1 has a point that is not "
                                              r"an \(x, y\) tuple$"):
            fn(bad, pop.graph) if use == "read_back" else fn(bad)

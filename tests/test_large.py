"""End to end on a graph of about a thousand edges.

The 40x28 graph of the corpus recipe (1 176 edges, 33 212 layout segments)
goes through the text format, decomposition, layout and the drawing checker
in one test, under a generous wall-time bound that a stage going back to
cubic work would break (the drawing checker's old pair scan had 5.5e8
segment pairs to test here).  A second test checks its drawing with a
denominator of its own on nearly every route.  A third checks and reads
back the 16x16 layout with no Fraction hashed.  A fourth recomposes the
1 560 factors of the 60x40 graph (3 161 edges) in one pass, validated once,
and a fifth bounds the traced memory of ``ppg decompose`` on that graph.
Two more refuse a shuffled order of the 40x28 graph and a scrambled
relation on the 24x20 graph (379 edges), each with millions of witnesses,
in bounded time: only the first SHOWN witnesses are built, the rest counted.
Two refuse near misses, one adjacent swap and one flipped pair, with a
count that follows chains and reads few rows member by member.  The
conjugate of the 40x28 graph (504 230 pairs) is accepted by membership,
with no triple counted.  Two refuse local data that orders an edge pair
both ways before any edge comparison: one swapped pair of the 40x28 graph,
and 2 000 bare edges whose outputs are anchored in reverse (1 999 000 such
pairs).  One checks that synthesis reads the graph's own strict reach rows
and builds no reacher rows.  The last parses a path through 20 000
vertices with their in and out lines in a time bounded by that of building
and validating its graph.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import popgraph as pg
import popgraph.composition
from popgraph import cli
import popgraph.order
from popgraph.errors import SHOWN
from conftest import check_conjugacy_scan, load, moved_by_primes, recipe_graph


@pytest.fixture(scope="module")
def pop() -> pg.POPGraph:
    return recipe_graph(40, 28)


def test_a_thousand_edges_end_to_end(pop):
    assert len(pop.graph.edges) == 1176
    t0 = time.perf_counter()
    text = pg.emit_ppg(pop)
    assert text.splitlines()[-1].startswith("order ")
    doc = pg.parse_ppg(text)
    assert doc.pop() == pop
    back = pg.recompose(pg.elementary_decomposition(doc.pop()))
    assert back.graph == pop.graph and back.order == pop.order
    d = pg.layout(pop)
    report = pg.check_drawing(d)
    assert report.ok, report.problems[:3]
    assert pg.read_back(d, pop.graph) == pg.extract_pa(pop)
    assert time.perf_counter() - t0 < 30.0


def test_points_moved_by_distinct_primes_check_quickly(pop):
    # one interior point per route moved by +-k/p, a prime p of its own per
    # route: the lcm of all denominators is the product of 1 172 primes; a
    # prototype that scaled the whole drawing to it took 24 s (Python 3.11),
    # where scaling each candidate pair to its own takes about 0.5 s
    d = pg.layout(pop)
    bad = moved_by_primes(d, random.Random(0), Fraction(2))
    assert sum(bad.routes[e] != pts for e, pts in d.routes.items()) == 1172
    t0 = time.perf_counter()
    report = pg.check_drawing(bad)
    assert time.perf_counter() - t0 < 10.0
    assert not report.ok


def test_the_drawing_path_hashes_no_fraction(monkeypatch):
    # each point is read once as ints, and read_back keys route ends and
    # vertices by those ints: the 16x16 layout of 2 788 segments is checked
    # and read back with no Fraction hashed
    pop = recipe_graph(16, 16)
    d = pg.layout(pop)
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: calls.append(1) or fraction_hash(self))
    report = pg.check_drawing(d)
    back = pg.read_back(d, pop.graph)
    assert not calls
    monkeypatch.undo()
    assert report.ok, report.problems[:3]
    assert back == pg.extract_pa(pop)


def test_recompose_sixty_layers_validates_once(monkeypatch):
    # folding two factors at a time rebuilt and validated the running
    # composite per factor: 12.4 s here on Python 3.11
    pop = recipe_graph(60, 40)
    assert len(pop.graph.edges) == 3161
    d = pg.elementary_decomposition(pop)
    assert len(d) == 1560
    calls = []

    def counted(graph):
        calls.append(graph)
        return pg.validate_progressive(graph)

    monkeypatch.setattr(popgraph.composition, "validate_progressive", counted)
    t0 = time.perf_counter()
    back = pg.recompose(d)
    assert time.perf_counter() - t0 < 10.0
    assert len(calls) == 1
    assert back.graph == pop.graph and back.order == pop.order


def test_decompose_sixty_layers_holds_the_text_not_the_factors(tmp_path, capsys):
    # ppg decompose builds each factor's text from its peel step and drops
    # the factor; holding all 1 560 factors as ordered graphs, with their
    # interface table, peaked at 81.4 MiB traced here on Python 3.11
    src = tmp_path / "in.ppg"
    src.write_text(pg.emit_ppg(recipe_graph(60, 40)), encoding="utf-8")
    tracemalloc.start()
    try:
        code = cli.main(["decompose", str(src), "-o", str(tmp_path / "factors")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 1560 + 1
    assert peak < 40 * 2**20, peak / 2**20


def test_a_shuffled_order_is_refused_in_bounded_time(pop):
    # listing every violation built 16.6 million triples to print 1.8 KB and
    # took 12.7 s (Python 3.11); the totals are those of a pair and a triple
    # count straight from the definition of the two axioms
    g = pop.graph
    seq = list(pop.order.sequence)
    random.Random(0).shuffle(seq)
    rank = {e: r for r, e in enumerate(seq)}
    t0 = time.perf_counter()
    with pytest.raises(pg.InvalidPlanarOrder) as exc:
        pg.validate_planar_order(g, seq)
    assert time.perf_counter() - t0 < 3.0
    err = exc.value
    assert (err.extension_total, err.betweenness_total) == (99_418, 16_612_845)
    assert len(err.extension_violations) == len(err.betweenness_violations) == SHOWN
    for a, b in err.extension_violations:
        assert g.strictly_reaches(a, b) and rank[a] > rank[b]
    for a, b, c in err.betweenness_violations:
        assert rank[a] < rank[b] < rank[c] and g.strictly_reaches(a, c)
        assert not g.strictly_reaches(a, b) and not g.strictly_reaches(b, c)
    assert str(err).endswith(f"... and {99_418 + 16_612_845 - SHOWN} more "
                             f"({99_418 + 16_612_845} in all)")


def test_a_scrambled_relation_is_refused_in_bounded_time():
    # the conjugate with one pair in twenty reversed, and the "conjugate" of
    # a shuffled sequence: listing every problem of the first built 0.9
    # million strings; the totals are those of conftest.check_conjugacy_scan
    pop = recipe_graph(24, 20)
    g = pop.graph
    assert len(g.edges) == 379
    rng = random.Random(0)
    flipped = {p[::-1] if rng.random() < 0.05 else p for p in sorted(pg.conjugate_order(pop))}
    seq = list(pop.order.sequence)
    random.Random(0).shuffle(seq)
    shuffled = {(a, b) for i, a in enumerate(seq) for b in seq[i + 1:]
                if not g.strictly_reaches(a, b)}
    for rel, total, first in ((flipped, 938_990, "("), (shuffled, 675_999, "pair (")):
        t0 = time.perf_counter()
        report = pg.check_conjugacy(g, rel)
        with pytest.raises(pg.NotConjugate) as exc:
            pg.order_from_conjugate(g, rel)
        assert time.perf_counter() - t0 < 3.0
        assert report.total == exc.value.total == total
        assert len(report.problems) == SHOWN and exc.value.problems == report.problems
        assert all(p.startswith(first) for p in report.problems)


def test_one_adjacent_swap_is_refused_without_walking_the_rows(pop, monkeypatch):
    # counting betweenness triples member by member walked 453 674 members
    # of the conjugate rows here and found no triple; along chains, every
    # member is covered without being read on its own
    g = pop.graph
    seq = list(pop.order.sequence)
    i = next(i for i in range(len(seq) - 1) if g.strictly_reaches(seq[i], seq[i + 1]))
    swapped = seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2:]
    walked = []
    members = popgraph.order._members

    def counted(bits):
        for j in members(bits):
            walked.append(j)
            yield j

    monkeypatch.setattr(popgraph.order, "_members", counted)
    with pytest.raises(pg.InvalidPlanarOrder) as exc:
        pg.validate_planar_order(g, swapped)
    err = exc.value
    assert (err.extension_total, err.betweenness_total) == (1, 0)
    assert err.extension_violations == ((seq[i], seq[i + 1]),)
    assert len(walked) < len(seq)


def test_the_conjugate_is_accepted_by_membership(pop, monkeypatch):
    # each edge is placed by its reach and its out-degree in the relation,
    # and the relation holds exactly the conjugate pairs of that placement;
    # the triple count of a refusal never runs
    rel = pg.conjugate_order(pop)
    assert len(rel) == 504230
    calls = []
    intransitive = popgraph.order._intransitive
    monkeypatch.setattr(popgraph.order, "_intransitive",
                        lambda rows: calls.append(1) or intransitive(rows))
    t0 = time.perf_counter()
    assert pg.order_from_conjugate(pop.graph, rel) == pop.order
    assert time.perf_counter() - t0 < 10.0
    assert not calls


def test_one_flipped_pair_keeps_its_total():
    # the middle pair of the sorted conjugate reversed: every pair is still
    # related once, and 209 triples lose their transitive closure
    pop = recipe_graph(24, 20)
    g = pop.graph
    rel = sorted(pg.conjugate_order(pop))
    mid = rel[len(rel) // 2]
    flipped = set(rel) - {mid} | {mid[::-1]}
    report = pg.check_conjugacy(g, flipped)
    with pytest.raises(pg.NotConjugate) as exc:
        pg.order_from_conjugate(g, flipped)
    assert report.total == exc.value.total == 209
    assert exc.value.problems == report.problems
    assert report.problems == check_conjugacy_scan(g, flipped).problems


def test_a_pair_ordered_both_ways_is_refused_before_any_comparison(pop, monkeypatch):
    # two adjacent out-legs of one vertex that also share their head's
    # in-legs, swapped: refusing them after 690 900 comparisons, a ranking
    # and a re-extraction took 0.9 s (Python 3.11); the lists alone do it
    g = pop.graph
    pa = pg.extract_pa(pop)
    v, a, b = next((v, a, b) for v, vo in sorted(pa.vertex_orders.items())
                   for a, b in zip(vo.outgoing, vo.outgoing[1:])
                   if g.edge(a).dst == g.edge(b).dst)
    vo = pa.vertex_orders[v]
    legs = list(vo.outgoing)
    i = legs.index(a)
    legs[i:i + 2] = b, a
    bad = pg.PAGraph(g, {**pa.vertex_orders, v: pg.VertexOrder(vo.incoming, tuple(legs))},
                     pa.anchor)
    calls = []
    compare = pg.synthesis.compare_edges
    monkeypatch.setattr(pg.synthesis, "compare_edges", lambda *c: calls.append(1) or compare(*c))
    t0 = time.perf_counter()
    with pytest.raises(pg.NoConsistentOrder) as exc:
        pg.synthesize_order(bad)
    assert time.perf_counter() - t0 < 1.0
    assert not calls and "_rows" not in vars(bad)
    assert exc.value.total == 1
    assert exc.value.witnesses == (
        f"pair ({b}, {a}) is ordered ({b}, {a}) by the out-legs of {v} "
        f"and ({a}, {b}) by the in-legs of {g.edge(a).dst}",)


def test_synthesis_reads_the_graphs_own_reach_rows():
    # one synthesis holds one m^2-bit row set, the graph's strict reach
    # rows, which the comparator reads uncopied; no reacher row is built
    for pop in (load("canonical19.ppg").pop(), recipe_graph(16, 16)):
        pa = pg.extract_pa(pop)
        g = pa.graph
        assert pg.synthesize_order(pa) == pop.order
        assert "_ereachers" not in vars(g)
        assert pa._rows.reach is g._ereach


def test_bare_edges_anchored_in_reverse_are_refused_in_bounded_time():
    # every pair of 2 000 bare edges is ordered one way by the inputs and
    # the other by the outputs; building a witness for each took 0.7 s at
    # 1 000 edges (Python 3.11), where the count needs no string at all
    g = pg.bare_edges(2000).graph
    ids = g.edge_ids
    t0 = time.perf_counter()
    with pytest.raises(pg.NoConsistentOrder) as exc:
        pg.synthesize_order(pg.PAGraph(g, {}, (ids, ids[::-1])))
    assert time.perf_counter() - t0 < 3.0
    assert exc.value.total == 1_999_000
    assert len(exc.value.witnesses) == SHOWN
    assert exc.value.witnesses[-1] == ("pair (w1, w21) is ordered (w1, w21) by the inputs "
                                       "and (w21, w1) by the outputs")
    assert str(exc.value).endswith(f"... and {1_999_000 - SHOWN} more (1999000 in all)")


def _best_of(runs: int, call) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def test_a_long_path_with_vertex_orders_parses_in_linear_time():
    # a path through 20 000 internal vertices, each with an in and an out
    # line; testing each line's vertex against the tuple of all vertices
    # made the parse 45 times as slow as building and validating the
    # graph alone (5.6 s against 0.12 s, Python 3.11), where the vertex
    # index makes it about 6 times as slow
    n = 20_000
    names = ["s", *(f"v{k}" for k in range(1, n + 1)), "t"]
    edges = [pg.Edge(f"e{k}", names[k], names[k + 1]) for k in range(n + 1)]
    text = "\n".join(["ppg 1", *(f"edge {e.id} {e.src} {e.dst}" for e in edges),
                      *(f"{key} v{k} e{k - (key == 'in')}"
                        for k in range(1, n + 1) for key in ("in", "out"))]) + "\n"
    doc = pg.parse_ppg(text)
    assert len(doc.vertex_orders) == n
    assert doc.vertex_orders["v7"] == pg.VertexOrder(("e6",), ("e7",))
    build = _best_of(3, lambda: pg.validate_progressive(pg.DirectedMultigraph(edges)))
    parse = _best_of(2, lambda: pg.parse_ppg(text))
    assert parse < 20 * build, (parse, build)

"""End to end on a graph of about a thousand edges.

The 40x28 graph of the corpus recipe (1 176 edges, 33 212 layout segments)
goes through the text format, decomposition, layout and the drawing checker
in one test, under a generous wall-time bound that a stage going back to
cubic work would break (the drawing checker's old pair scan had 5.5e8
segment pairs to test here).  A second test checks its drawing with a
denominator of its own on nearly every route.  A third recomposes the
1 560 factors of the 60x40 graph (3 161 edges) in one pass, validated once.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import popgraph as pg
import popgraph.composition
from conftest import moved_by_primes, recipe_graph


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

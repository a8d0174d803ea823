"""End to end on a graph of about a thousand edges.

The 40x28 graph of the corpus recipe (1 176 edges, 33 212 layout segments)
goes through the text format, decomposition, layout and the drawing checker
in one test, under a generous wall-time bound that a stage going back to
cubic work would break (the drawing checker's old pair scan had 5.5e8
segment pairs to test here).
"""

from __future__ import annotations

import time

import popgraph as pg
from conftest import recipe_graph


def test_a_thousand_edges_end_to_end():
    pop = recipe_graph(40, 28)
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

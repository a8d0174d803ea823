"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test prints ``criterion N PASS/FAIL: ...`` on the real terminal (the
lines bypass pytest's capture, so they appear in any run); run

    pytest tests/test_acceptance.py -v

to see the verdicts alongside the test results.  Criteria with a stated
time budget measure wall time and fail when over it.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import popgraph as pg
from conftest import (FIXTURES, is_elementary, isomorphic_by_edges, perturbed,
                      random_single_spider_layer, spider_layer_with_outputs)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def crit(n: int, summary: str):
        t0 = time.monotonic()
        try:
            yield
        except BaseException as exc:
            with capsys.disabled():
                print(f"criterion {n:2d} FAIL: {summary}"
                      f" [{time.monotonic() - t0:.2f}s] ({exc})")
            raise
        with capsys.disabled():
            print(f"criterion {n:2d} PASS: {summary} [{time.monotonic() - t0:.2f}s]")
    return crit


@pytest.fixture(scope="module")
def suite_orders(suite):
    """Every planar order of every generator-suite graph (25 graphs of at
    most 7 edges, 780 orders), enumerated once and shared."""
    out = []
    for name, pop in suite:
        seqs = [o.sequence for o in pg.enumerate_planar_orders(pop.graph).orders]
        assert seqs, name
        out.append((name, pop.graph, seqs))
    return out


def test_criterion_01_cli_order_on_the_reference_file(announce):
    want = " ".join(str(i) for i in range(1, 20)) + "\n"
    with announce(1, "ppg order prints 1..19 for the 19-edge reference file, "
                     "under the 1s budget"):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "popgraph", "order",
             str(FIXTURES / "canonical19.ppg")],
            capture_output=True, text=True, timeout=10)
        dt = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want
        assert dt < 1.0, f"took {dt:.2f}s"


def test_criterion_02_layer_composition_rebuilds_the_reference(announce, layers,
                                                               canonical):
    with announce(2, "composing the three layer files yields the reference graph "
                     "up to isomorphism"):
        top, mid, bot = layers
        assert pg.pop_isomorphic(pg.compose(pg.compose(top, mid), bot), canonical)


def test_criterion_03_a_thousand_random_compositions(announce):
    rng = random.Random(2026)
    with announce(3, "1000 random composable pairs compose to valid ordered graphs, "
                     "under the 30s budget"):
        t0 = time.monotonic()
        for i in range(1000):
            x = pg.random_pop(rng, tag=f"a{i}.")
            y = pg.random_pop(rng, tag=f"b{i}.", n_inputs=len(x.graph.outputs))
            z = pg.compose(x, y)
            pg.validate_planar_order(z.graph, z.order.sequence)
            assert len(z.graph.edges) == (len(x.graph.edges) + len(y.graph.edges)
                                          - len(y.graph.inputs)), i
        dt = time.monotonic() - t0
        assert dt < 30.0, f"took {dt:.2f}s"


def test_criterion_04_associativity_and_cancellation(announce):
    rng = random.Random(4)
    with announce(4, "200 triples associate both ways and 200 perturbed pairs "
                     "cancel iff isomorphic"):
        for i in range(200):
            a = pg.random_pop(rng, tag=f"x{i}.")
            b = pg.random_pop(rng, tag=f"y{i}.", n_inputs=len(a.graph.outputs))
            c = pg.random_pop(rng, tag=f"z{i}.", n_inputs=len(b.graph.outputs))
            left = pg.compose(pg.compose(a, b), c)
            right = pg.compose(a, pg.compose(b, c))
            for z in (left, right):
                pg.validate_planar_order(z.graph, z.order.sequence)
            assert pg.pop_isomorphic(left, right), i

        done = tries = 0
        while done < 200:
            tries += 1
            assert tries < 2000, "perturbable graphs too rare"
            x = pg.random_pop(rng, tag=f"p{tries}.")
            y = perturbed(x, rng)
            if y is None:
                continue
            same = pg.pop_isomorphic(x, y)
            down = random_single_spider_layer(
                rng, f"d{tries}.", n_inputs=len(x.graph.outputs))
            assert pg.pop_isomorphic(pg.compose(x, down),
                                     pg.compose(y, down)) == same, tries
            up = spider_layer_with_outputs(rng, f"u{tries}.", len(x.graph.inputs))
            assert pg.pop_isomorphic(pg.compose(up, x),
                                     pg.compose(up, y)) == same, tries
            done += 1


def test_criterion_05_decomposition_recomposes(announce, canonical):
    rng = random.Random(5)
    with announce(5, "200 random graphs and the reference peel into one factor per "
                     "internal vertex and recompose to themselves"):
        pops = [pg.random_pop(rng, tag=f"r{i}.") for i in range(200)] + [canonical]
        for i, pop in enumerate(pops):
            d = pg.elementary_decomposition(pop)
            assert len(d.factors) == len(pop.graph.internal_vertices), i
            for f in d.factors:
                assert is_elementary(f.graph), i
                # the walk orders factors by restriction and never checks the order
                pg.validate_planar_order(f.graph, f.order.sequence)
                # each factor is validated like any graph: it has the rows of a fresh one
                g, ref = f.graph, pg.validate_progressive(f.graph)
                assert ([g.reach_bits(e) for e in g.edge_ids]
                        == [ref.reach_bits(e) for e in ref.edge_ids]), i
                assert ([g.reacher_bits(e) for e in g.edge_ids]
                        == [ref.reacher_bits(e) for e in ref.edge_ids]), i
                assert ((g.inputs, g.outputs, g.internal_vertices)
                        == (ref.inputs, ref.outputs, ref.internal_vertices)), i
            back = pg.recompose(d)
            assert back.graph == pop.graph and back.order == pop.order, i
            assert pg.pop_isomorphic(back, pop), i


def test_criterion_06_synthesis_inverts_extraction_everywhere(announce,
                                                              suite_orders):
    with announce(6, "synthesis inverts extraction for all 780 orders of the "
                     "25-graph suite, under the 60s budget"):
        t0 = time.monotonic()
        n = 0
        for name, g, seqs in suite_orders:
            for seq in seqs:
                pop = pg.validate_planar_order(g, seq)
                got = pg.synthesize_order(pg.extract_pa(pop))
                assert got == pop.order, (name, seq)
                n += 1
        dt = time.monotonic() - t0
        assert n == 780, n
        assert dt < 60.0, f"took {dt:.2f}s"


def test_criterion_07_reference_counts(announce):
    with announce(7, "order counts are p!q! for spiders (p,q<=3) and k! for "
                     "k<=5 bare edges"):
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                got = pg.count_planar_orders(pg.spider(p, q).graph)
                assert got == math.factorial(p) * math.factorial(q), (p, q)
        for k in range(1, 6):
            assert pg.count_planar_orders(pg.bare_edges(k).graph) == math.factorial(k), k


def test_criterion_08_conjugates_check_and_round_trip(announce, suite_orders):
    with announce(8, "every suite order has a checkable conjugate that restores "
                     "the order"):
        for name, g, seqs in suite_orders:
            for seq in seqs:
                pop = pg.validate_planar_order(g, seq)
                rel = pg.conjugate_order(pop)
                report = pg.check_conjugacy(g, rel)
                assert report.ok, (name, seq, report.problems)
                assert pg.order_from_conjugate(g, rel) == pop.order, (name, seq)


def test_criterion_09_apex_round_trip(announce, suite, canonical):
    with announce(9, "splitting apexes undoes gathering them on the whole suite; "
                     "the reference gathers to 8 vertices and 19 edges"):
        for name, pop in suite + [("canonical", canonical)]:
            st = pg.hat(pop.graph)
            back = pg.circ(st)
            assert isomorphic_by_edges(back, pop.graph), name
        st = pg.hat(canonical.graph)
        assert len(st.vertices) == 8
        assert len(st.edges) == 19
        assert len(st.out_edges("s")) == 8
        assert len(st.in_edges("t")) == 6


def test_criterion_10_drawings_verify_and_read_back(announce, suite, canonical):
    with announce(10, "layered drawings of the suite and the reference pass the "
                      "exact checker and read back to their local data"):
        for name, pop in suite + [("canonical", canonical)]:
            d = pg.layout(pop)
            report = pg.check_drawing(d)
            assert report.ok, (name, report.problems)
            assert pg.read_back(d, pop.graph) == pg.extract_pa(pop), name

"""Fuzz tests: every failure that escapes the public API is a PpgError.

Two halves.  Mutated .ppg and .stg text goes through the whole pipeline
(parse, emit, synthesis, decomposition, both layouts, the checker, read-back,
the renderers, the conjugate, hat and circ).  Mutated drawings go through the
checker, read-back and the renderers.  Any other exception fails the test, and
the checker must report what the pair scan ``check_drawing_scan`` reports.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

import popgraph as pg
from conftest import FIXTURES, check_drawing_scan

KEYWORDS = ["edge", "inputs", "outputs", "in", "out", "order", "source", "sink",
            "ppg", "stg", "1", "#", "s", "t"]


def _seed_texts() -> list[tuple[str, str]]:
    texts = [("ppg", p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.ppg"))]
    rng = random.Random(3)
    for i in range(4):
        pop = pg.random_pop(rng, max_layers=2, tag=f"f{i}.")
        pa = pg.extract_pa(pop)
        texts.append(("ppg", pg.emit_ppg(pop)))
        texts.append(("ppg", pg.emit_ppg(pa)))
        rotation = dict(pa.vertex_orders, s=((), pa.anchor.inputs), t=(pa.anchor.outputs, ()))
        texts.append(("stg", pg.emit_stg(pg.StGraph(pg.hat(pop.graph), "s", "t",
                                                    rotation))))
    return texts


SEED_TEXTS = _seed_texts()
# an op is (kind, line, position, token); indexes are taken modulo the sizes
OPS = st.tuples(st.integers(0, 5), st.integers(0, 999), st.integers(0, 999),
                st.integers(0, 999))


def mutate_text(text: str, ops) -> str:
    """Replace, delete or insert a token, swap two tokens, or duplicate or
    delete a line, once per op."""
    lines = [line.split() for line in text.splitlines()]
    pool = [t for line in lines for t in line] + KEYWORDS
    for kind, k, j, t in ops:
        if not lines:
            break
        line = lines[k % len(lines)]
        token = pool[t % len(pool)]
        if kind == 0 and line:
            line[j % len(line)] = token
        elif kind == 1 and line:
            del line[j % len(line)]
        elif kind == 2:
            line.insert(j % (len(line) + 1), token)
        elif kind == 3 and line:
            a, b = j % len(line), t % len(line)
            line[a], line[b] = line[b], line[a]
        elif kind == 4:
            lines.insert(j % (len(lines) + 1), list(line))
        elif kind == 5:
            del lines[k % len(lines)]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def attempt(fn, *args):
    """``fn(*args)``, or None when it raises PpgError."""
    try:
        return fn(*args)
    except pg.PpgError:
        return None


def run_ppg(text: str) -> None:
    doc = attempt(pg.parse_ppg, text)
    if doc is None:
        return
    assert pg.parse_ppg(pg.emit_ppg(doc)) == doc
    pop = attempt(doc.pop_or_synthesized)
    if pop is None:
        return
    assert pg.parse_ppg(pg.emit_ppg(pop)).pop() == pop
    assert pg.recompose(pg.elementary_decomposition(pop)) == pop
    want = pg.extract_pa(pop)
    for d in (pg.layout(pop), attempt(pg.layout_st, pop, True)):
        if d is None:
            continue
        assert pg.check_drawing(d).ok
        assert pg.read_back(d, pop.graph) == want
        pg.render_svg(d)
        pg.render_tikz(d)
    pg.conjugate_order(pop)
    hat = attempt(pg.hat, pop.graph)
    if hat is not None:
        pg.circ(hat)


def run_stg(text: str) -> None:
    stg = attempt(pg.parse_stg, text)
    if stg is None:
        return
    assert pg.parse_stg(pg.emit_stg(stg)) == stg
    g = attempt(pg.circ, stg)
    if g is not None:
        attempt(pg.hat, g)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SEED_TEXTS), st.lists(OPS, max_size=3))
def test_mutated_text_raises_only_ppg_errors(seed, ops):
    kind, text = seed
    (run_ppg if kind == "ppg" else run_stg)(mutate_text(text, ops))


def _seed_drawings() -> list[tuple[pg.ProgressiveGraph, pg.Drawing]]:
    pops = [pg.spider(2, 2), pg.random_pop(random.Random(4), max_layers=2)]
    return [(pop.graph, draw(pop, up)) for pop in pops
            for draw in (pg.layout, pg.layout_st) for up in (False, True)]


SEED_DRAWINGS = _seed_drawings()


def mutate_drawing(d: pg.Drawing, ops) -> pg.Drawing:
    """Drop, duplicate or move a point, reverse or delete a route, delete a
    vertex, or add a route for an unknown edge, once per op."""
    routes = dict(d.routes)
    vertices = dict(d.vertices)
    for kind, k, j, t in ops:
        names = sorted(routes)
        e = names[k % len(names)] if names else None
        pts = list(routes.get(e, ()))
        if kind == 0 and pts:
            del pts[j % len(pts)]
        elif kind == 1 and pts:
            pts.insert(j % len(pts), pts[j % len(pts)])
        elif kind == 2 and pts:
            x, y = pts[j % len(pts)]
            pts[j % len(pts)] = (x + Fraction(t % 7 - 3, 2), y + Fraction(t % 5 - 2, 3))
        elif kind == 3:
            pts.reverse()
        elif kind == 4 and e is not None:
            del routes[e]
            continue
        elif kind == 5:
            if vertices and t % 2:
                del vertices[sorted(vertices)[j % len(vertices)]]
            else:
                routes[f"ghost{t}"] = ((Fraction(j % 5), Fraction(0)),
                                       (Fraction(k % 5), Fraction(1)))
            continue
        if e is not None:
            routes[e] = tuple(pts)
    return dataclasses.replace(d, routes=routes, vertices=vertices)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SEED_DRAWINGS), st.lists(OPS, min_size=1, max_size=4))
def test_mutated_drawings_raise_only_ppg_errors(seed, ops):
    graph, d = seed
    bad = mutate_drawing(d, ops)
    assert pg.check_drawing(bad).problems == check_drawing_scan(bad)
    attempt(pg.read_back, bad, graph)
    attempt(pg.render_svg, bad)
    attempt(pg.render_tikz, bad)

"""Constructors and random generators for progressive graphs.

Everything here exists to feed tests and examples: small named families
(bare edges, spiders, a theta, a two-level tree), a deterministic suite of
graphs small enough to enumerate in full, and seeded random
generators that build planarly ordered graphs layer by layer.

Random layers come with their planar orders for free: an elementary layer
is a left-to-right row of blocks (each a bare edge or a single spider), and
concatenating the blocks' edges in row order always satisfies both axioms.
Deeper graphs are made by composing layers, which preserves validity by
construction.
"""

from __future__ import annotations

import random

from .composition import compose
from .core import DirectedMultigraph, Edge, ProgressiveGraph
from .errors import _expect_count, _expect_type
from .order import POPGraph, validate_planar_order


def bare_edges(k: int, prefix: str = "w") -> POPGraph:
    """k disjoint bare edges, ordered left to right."""
    _expect_count(k, "k")
    edges = [Edge(f"{prefix}{i}", f"{prefix}{i}s", f"{prefix}{i}t")
             for i in range(1, k + 1)]
    g = ProgressiveGraph(DirectedMultigraph(edges))
    return validate_planar_order(g, [e.id for e in edges])


def spider(p: int, q: int, name: str = "v") -> POPGraph:
    """One internal vertex with p inputs and q outputs, legs left to right."""
    _expect_count(p, "p")
    _expect_count(q, "q")
    ins = [Edge(f"i{k}", f"a{k}", name) for k in range(1, p + 1)]
    outs = [Edge(f"o{k}", name, f"b{k}") for k in range(1, q + 1)]
    g = ProgressiveGraph(DirectedMultigraph(ins + outs))
    return validate_planar_order(g, [e.id for e in ins + outs])


def theta() -> POPGraph:
    """Two internal vertices joined by parallel edges, one input, one output."""
    edges = [Edge("in", "p", "x"), Edge("l", "x", "y"), Edge("r", "x", "y"),
             Edge("out", "y", "q")]
    g = ProgressiveGraph(DirectedMultigraph(edges))
    return validate_planar_order(g, ["in", "l", "r", "out"])


def two_level_tree() -> POPGraph:
    """A spider feeding a spider, with a bystander edge to the right.

    The sink leg 4 must leave x before the leg 3 into y, else it would be
    trapped between 3 and everything downstream of y.
    """
    edges = [Edge("1", "p1", "x"), Edge("2", "p2", "x"), Edge("3", "x", "y"),
             Edge("4", "x", "q1"), Edge("5", "p3", "y"), Edge("6", "y", "q2"),
             Edge("7", "p4", "q3")]
    g = ProgressiveGraph(DirectedMultigraph(edges))
    return validate_planar_order(g, ["1", "2", "4", "3", "5", "6", "7"])


def side_by_side(left: POPGraph, right: POPGraph) -> POPGraph:
    """Disjoint union, left graph entirely before the right one.

    Edge and vertex names are prefixed (``L.``/``R.``) so the two halves can
    never collide.
    """
    _expect_type(left, "side_by_side", POPGraph)
    _expect_type(right, "side_by_side", POPGraph)
    edges = [Edge(f"L.{e.id}", f"L.{e.src}", f"L.{e.dst}") for e in left.graph.edges]
    edges += [Edge(f"R.{e.id}", f"R.{e.src}", f"R.{e.dst}") for e in right.graph.edges]
    g = ProgressiveGraph(DirectedMultigraph(edges))
    seq = [f"L.{e}" for e in left.order.sequence]
    seq += [f"R.{e}" for e in right.order.sequence]
    return validate_planar_order(g, seq)


def generator_suite() -> list[tuple[str, POPGraph]]:
    """Named small graphs of at most 7 edges, small enough to enumerate in full."""
    suite: list[tuple[str, POPGraph]] = []
    for k in range(1, 6):
        suite.append((f"bare{k}", bare_edges(k)))
    for p in range(1, 6):
        for q in range(1, 6):
            if p + q <= 6:
                suite.append((f"spider{p}{q}", spider(p, q)))
    suite.append(("spider34", spider(3, 4)))
    suite.append(("theta", theta()))
    suite.append(("tree", two_level_tree()))
    suite.append(("spider21+bare", side_by_side(spider(2, 1), bare_edges(1))))
    suite.append(("bare+theta", side_by_side(bare_edges(1), theta())))
    return suite


def random_elementary_layer(rng: random.Random, tag: str,
                            n_inputs: int | None = None) -> POPGraph:
    """A random row of blocks (bare edges and spiders), left to right.

    With ``n_inputs`` (None or an int of 0 or more) the row consumes exactly
    that many inputs.  Names carry ``tag`` so layers compose without
    accidental collisions.  PpgError for an ``rng`` that is no Random.
    """
    _expect_type(rng, "random_elementary_layer", random.Random)
    if n_inputs is not None:
        _expect_count(n_inputs, "n_inputs")
    remaining = n_inputs if n_inputs is not None else rng.randint(1, 6)
    blocks: list[tuple[int, int]] = []
    while remaining > 0:
        if rng.random() < 0.6:
            p = rng.randint(1, min(3, remaining))
            blocks.append((p, rng.randint(1, 3)))
            remaining -= p
        else:
            blocks.append((0, 0))
            remaining -= 1
    return _row(blocks, tag)


def _row(blocks: list[tuple[int, int]], tag: str) -> POPGraph:
    """The layer of ``blocks`` (p, q), left to right: a spider with p inputs
    and q outputs, or a bare edge where p is 0; its order is the row's."""
    edges: list[Edge] = []
    n = 0
    for b, (p, q) in enumerate(blocks):
        if p == 0:
            n += 1
            edges.append(Edge(f"{tag}e{n}", f"{tag}s{n}", f"{tag}t{n}"))
        else:
            v = f"{tag}v{b}"
            for _ in range(p):
                n += 1
                edges.append(Edge(f"{tag}e{n}", f"{tag}s{n}", v))
            for _ in range(q):
                n += 1
                edges.append(Edge(f"{tag}e{n}", v, f"{tag}t{n}"))
    g = ProgressiveGraph(DirectedMultigraph(edges))
    return validate_planar_order(g, [e.id for e in edges])


def random_pop(rng: random.Random, min_layers: int = 1, max_layers: int = 4,
               tag: str = "", n_inputs: int | None = None) -> POPGraph:
    """A random planarly ordered graph built by composing 1..4 random layers.

    Always contains at least one internal vertex, so it decomposes into at
    least one elementary factor; ``n_inputs`` pins the input arity.  PpgError
    unless ``rng`` is a Random, 1 <= min_layers <= max_layers are ints and
    ``n_inputs`` is None or 1 or more (a row of no inputs has no internal vertex).
    """
    _expect_type(rng, "random_pop", random.Random)
    _expect_count(min_layers, "min_layers", 1)
    _expect_count(max_layers, "max_layers", min_layers)
    if n_inputs is not None:
        _expect_count(n_inputs, "n_inputs", 1)
    while True:
        depth = rng.randint(min_layers, max_layers)
        pop = random_elementary_layer(rng, f"{tag}L1.", n_inputs=n_inputs)
        for k in range(2, depth + 1):
            nxt = random_elementary_layer(rng, f"{tag}L{k}.",
                                          n_inputs=len(pop.graph.outputs))
            pop = compose(pop, nxt)
            if len(pop.graph.edges) > 60:
                break
        if pop.graph.internal_vertices:
            return pop


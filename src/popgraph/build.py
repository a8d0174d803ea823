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
from .order import POPGraph, validate_planar_order


def bare_edges(k: int, prefix: str = "w") -> POPGraph:
    """k disjoint bare edges, ordered left to right."""
    edges = [Edge(f"{prefix}{i}", f"{prefix}{i}s", f"{prefix}{i}t")
             for i in range(1, k + 1)]
    g = ProgressiveGraph(DirectedMultigraph(edges))
    return validate_planar_order(g, [e.id for e in edges])


def spider(p: int, q: int, name: str = "v") -> POPGraph:
    """One internal vertex with p inputs and q outputs, legs left to right."""
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
                            n_inputs: int | None = None,
                            spider_slots: int | None = None) -> POPGraph:
    """A random row of blocks (bare edges and spiders), left to right.

    With ``n_inputs`` the row consumes exactly that many inputs; with
    ``spider_slots`` at most that many blocks are spiders (None means no
    cap, 0 forces an all-bare row).  Names carry ``tag`` so layers compose
    without accidental collisions.
    """
    remaining = n_inputs if n_inputs is not None else rng.randint(1, 6)
    blocks: list[tuple[int, int]] = []  # (p, q); p == 0 marks a bare edge
    spiders_left = spider_slots
    while remaining > 0:
        can_spider = spiders_left is None or spiders_left > 0
        if can_spider and rng.random() < 0.6:
            p = rng.randint(1, min(3, remaining))
            q = rng.randint(1, 3)
            blocks.append((p, q))
            remaining -= p
            if spiders_left is not None:
                spiders_left -= 1
        else:
            blocks.append((0, 0))
            remaining -= 1
    if spider_slots and not any(p for p, _ in blocks):
        # force one spider in: it consumes p inputs, so drop p-1 bare blocks
        p = rng.randint(1, min(3, len(blocks)))
        blocks[rng.randrange(len(blocks))] = (p, rng.randint(1, 3))
        for _ in range(p - 1):
            del blocks[next(i for i, (pp, _) in enumerate(blocks) if pp == 0)]

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
    least one elementary factor; ``n_inputs`` pins the input arity.
    """
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


def random_single_spider_layer(rng: random.Random, tag: str,
                               n_inputs: int | None = None) -> POPGraph:
    """A random layer with exactly one internal vertex (rest bare edges)."""
    if n_inputs is None:
        n_inputs = rng.randint(1, 6)
    return random_elementary_layer(rng, tag, n_inputs=n_inputs, spider_slots=1)

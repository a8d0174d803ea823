from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, takewhile
from pathlib import Path

import pytest

import popgraph as pg
from popgraph.build import _row
from popgraph.composition import _peel_order
from popgraph.core import _fresh
from popgraph.layout import Point
from popgraph.order import _expect_permutation, _members

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str) -> pg.PpgDocument:
    return pg.parse_ppg((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def canonical() -> pg.POPGraph:
    return load("canonical19.ppg").pop()


@pytest.fixture(scope="session")
def layers() -> tuple[pg.POPGraph, pg.POPGraph, pg.POPGraph]:
    return tuple(load(n).pop()
                 for n in ("layer_top.ppg", "layer_mid.ppg", "layer_bot.ppg"))


@pytest.fixture(scope="session")
def suite() -> list[tuple[str, pg.POPGraph]]:
    return pg.generator_suite()


def recipe_graph(layers: int, width: int) -> pg.POPGraph:
    """The layered graph of the corpus recipe, seed 0: an elementary layer
    of ``width`` inputs, then ``layers`` - 1 more composed below it."""
    rng = random.Random(0)
    rows = [pg.random_elementary_layer(rng, "L0.", n_inputs=width)]
    for k in range(1, layers):
        rows.append(pg.random_elementary_layer(
            rng, f"L{k}.", n_inputs=len(rows[-1].graph.outputs)))
    return pg.compose(*rows)


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` under ``python -O`` (asserts stripped) on this package."""
    src = str(Path(pg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


# Independent oracles.  These re-derive the definitions with none of the
# bitset machinery, so agreement with the library is evidence.

def slow_reaches(g: pg.ProgressiveGraph, a: str, b: str) -> bool:
    """Strict edge reachability by plain DFS over vertices."""
    if a == b:
        return False
    target = g.edge(b).src
    seen = set()
    stack = [g.edge(a).dst]
    while stack:
        v = stack.pop()
        if v == target:
            return True
        if v in seen:
            continue
        seen.add(v)
        stack.extend(e.dst for e in g.out_edges(v))
    return False


def slow_planar(g: pg.ProgressiveGraph, seq) -> bool:
    """Both axioms checked straight from their statements."""
    seq = list(seq)
    pos = {e: i for i, e in enumerate(seq)}
    for a in seq:
        for b in seq:
            if a != b and slow_reaches(g, a, b) and pos[a] > pos[b]:
                return False
    for a in seq:
        for c in seq:
            if a == c or not slow_reaches(g, a, c):
                continue
            for b in seq:
                if pos[a] < pos[b] < pos[c]:
                    if not slow_reaches(g, a, b) and not slow_reaches(g, b, c):
                        return False
    return True


def order_violations_scan(g: pg.ProgressiveGraph, sequence) -> tuple[list, list]:
    """Enumerate every violation of the two planar-order axioms.

    Returns (extension pairs, betweenness triples); the sequence must be a
    permutation of the edge set.  Pairs are (a, b) with a reaching b but
    ranked later; triples (a, b, c) are listed in sequence order.  This is
    the O(m^3) definitional scan, the oracle for ``order.order_violations``.
    """
    seq = tuple(sequence)
    _expect_permutation(seq, g.edge_ids)
    m = len(seq)
    pos = {e: i for i, e in enumerate(seq)}
    pairs = []
    for a in seq:
        for b in seq:
            if g.strictly_reaches(a, b) and pos[a] > pos[b]:
                pairs.append((a, b))
    triples = []
    for i in range(m):
        for j in range(i + 1, m):
            if g.strictly_reaches(seq[i], seq[j]):
                continue
            for k in range(j + 1, m):
                if g.strictly_reaches(seq[i], seq[k]) and not g.strictly_reaches(seq[j], seq[k]):
                    triples.append((seq[i], seq[j], seq[k]))
    return pairs, triples


def intransitive_scan(rows: list[int]) -> tuple[int, list[int]]:
    """``order._intransitive`` member by member: the number of triples
    (i, j, k) with j in row i, k in row j and k not in row i, and the rows i
    that have one, ascending."""
    total, escaping = 0, []
    for i, row in enumerate(rows):
        n = sum((rows[j] & ~row).bit_count() for j in _members(row))
        if n:
            total += n
            escaping.append(i)
    return total, escaping


def compose_fold(*factors: pg.POPGraph) -> pg.POPGraph:
    """``compose`` by its two-factor definition, folded upstream first: each
    step rebuilds, validates and re-reads the whole running composite.

    The vertices of the lower factor are freshened against the upper one's
    minus the heads of its outputs, the fused and surviving edge ids against
    the upper one's non-outputs; the edges are declared as the upper
    survivors, the fused edges in glue order, then the lower survivors; the
    order is Q_k f_k P_k over the glue pairs.
    """
    result = factors[0]
    for second in factors[1:]:
        pairs = pg.glue_table(result, second)
        g1, g2 = result.graph, second.graph
        sinks1 = {g1.edge(o).dst for o, _ in pairs}
        sources2 = {g2.edge(i).src for _, i in pairs}
        taken = {v for v in g1.vertices if v not in sinks1}
        vmap2 = {v: _fresh(v, taken) for v in g2.vertices if v not in sources2}
        survivors1 = [e for e in g1.edges if e.id not in g1.outputs]
        survivors2 = [e for e in g2.edges if e.id not in g2.inputs]
        used = {e.id for e in survivors1}
        fused_id = {o: _fresh(o if o == i else f"{o}~{i}", used) for o, i in pairs}
        emap2 = {e.id: _fresh(e.id, used) for e in survivors2}
        edges = list(survivors1)
        edges += [pg.Edge(fused_id[o], g1.edge(o).src, vmap2[g2.edge(i).dst])
                  for o, i in pairs]
        edges += [pg.Edge(emap2[e.id], vmap2[e.src], vmap2[e.dst]) for e in survivors2]
        q_blocks = pg.interval_partition(result)[1]
        p_blocks = pg.interval_partition(second)[0]
        order: list[str] = []
        for o, i in pairs:
            order += [*q_blocks[o], fused_id[o], *(emap2[e] for e in p_blocks[i])]
        graph = pg.validate_progressive(pg.DirectedMultigraph(edges))
        result = pg.POPGraph(graph, pg.PlanarOrder(order))
    return result


def peel_oracle(pop: pg.POPGraph):
    """The elementary factors, downstream first, each ordered by sorting its
    edges by rank: the library's first peel walk.  It keeps the current head
    of every edge and the line of current outputs as a set, builds each
    factor's edges by sorting the line and the in-legs by declaration
    index, and freshens names as the library does."""
    g = pop.graph
    head = {e.id: e.dst for e in g.edges}
    line = set(g.outputs)
    names = set(g.vertices)
    for v in _peel_order(pop):
        spider_in = [e.id for e in g.in_edges(v)]
        spider_out = [e.id for e in g.out_edges(v)]
        ids = line.union(spider_in)
        taken = {v} | {head[e] for e in line} | {g.edge(e).src for e in ids & g.inputs}
        edges = []
        for e in sorted(ids, key=g.edge_index):
            src = g.edge(e).src
            if src != v and e not in g.inputs:
                src = _fresh(f"s@{e}", taken)
            edges.append(pg.Edge(e, src, head[e]))
        yield pg.POPGraph(pg.validate_progressive(pg.DirectedMultigraph(edges)),
                          pg.PlanarOrder(sorted(ids, key=pop.rank)))
        for e in spider_in:
            head[e] = _fresh(f"t@{e}", names)
        names.difference_update([v, *(head[e] for e in spider_out)])
        line.difference_update(spider_out)
        line.update(spider_in)


def decomposition_oracle(pop: pg.POPGraph):
    """(factors upstream first, interfaces) of the oracle's decomposition."""
    factors = list(peel_oracle(pop))[::-1] or [pop]
    return factors, tuple(pg.glue_table(a, b) for a, b in zip(factors, factors[1:]))


def decompose_files_oracle(pop: pg.POPGraph) -> dict[str, str]:
    """The files ``ppg decompose`` writes for ``pop``, by name, in the order
    it prints their names: each factor's emit_ppg text, then the manifest."""
    factors, interfaces = decomposition_oracle(pop)
    files = {f"factor_{k:02d}.ppg": pg.emit_ppg(f) for k, f in enumerate(factors, 1)}
    manifest = ["ppg-manifest 1", f"factors {len(factors)}"]
    manifest += [f"factor {k} {name}" for k, name in enumerate(files, 1)]
    manifest += [f"interface {k} " + " ".join(f"{o}={i}" for o, i in pairs)
                 for k, pairs in enumerate(interfaces, 1)]
    files["manifest.txt"] = "\n".join(manifest) + "\n"
    return files


def chain_pop(m: int) -> pg.POPGraph:
    """A path of ``m`` edges e0 .. e(m-1) through the vertices v0 .. vm."""
    edges = [pg.Edge(f"e{k}", f"v{k}", f"v{k + 1}") for k in range(m)]
    return pg.validate_planar_order(
        pg.validate_progressive(pg.DirectedMultigraph(edges)), [e.id for e in edges])


def decomposition_corpus() -> list[tuple[str, pg.POPGraph]]:
    """The five fixtures (spider22 with its synthesized order), 300 seeded
    ``random_pop`` graphs, every other one with its edges declared in
    shuffled order, a 250-edge chain and the 40x28 recipe graph."""
    corpus = [(p.stem, pg.parse_ppg(p.read_text(encoding="utf-8")).pop_or_synthesized())
              for p in sorted(FIXTURES.glob("*.ppg"))]
    rng = random.Random(34)
    for i in range(300):
        pop = pg.random_pop(rng, tag=f"r{i}.")
        if i % 2:
            edges = list(pop.graph.edges)
            rng.shuffle(edges)
            pop = pg.validate_planar_order(
                pg.validate_progressive(pg.DirectedMultigraph(edges)), pop.order.sequence)
        corpus.append((f"random{i}", pop))
    corpus.append(("chain250", chain_pop(250)))
    corpus.append(("recipe40x28", recipe_graph(40, 28)))
    return corpus


def conjugate_pairs_scan(pop: pg.POPGraph) -> frozenset[tuple[str, str]]:
    """The conjugate order straight from its definition, pair by pair."""
    seq = pop.order.sequence
    g = pop.graph
    out = set()
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if not g.strictly_reaches(a, b):
                out.add((a, b))
    return frozenset(out)


def check_conjugacy_scan(g: pg.ProgressiveGraph, rel) -> pg.ConjugacyReport:
    """Is ``rel`` a conjugate order for g?  Pair by pair, the oracle for
    ``order.check_conjugacy``.

    Required: irreflexive; transitive; and together with strict reachability
    it relates every unordered pair of distinct edges exactly once.  Reports
    every witness rather than stopping at the first.
    """
    rel = set(rel)
    problems = []
    ids = set(g.edge_ids)
    for a, b in sorted(rel):
        if a not in ids or b not in ids:
            problems.append(f"({a}, {b}) names an unknown edge")
        elif a == b:
            problems.append(f"({a}, {a}) is reflexive")
    if problems:
        return pg.ConjugacyReport(problems)
    seq = g.edge_ids
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            hits = (g.strictly_reaches(a, b) + g.strictly_reaches(b, a)
                    + ((a, b) in rel) + ((b, a) in rel))
            if hits != 1:
                problems.append(
                    f"pair ({a}, {b}) is related {hits} times, expected exactly once")
    # after[a]: the edges c with (a, c) in rel, as bits over edge indexes
    after = dict.fromkeys(seq, 0)
    for a, b in rel:
        after[a] |= 1 << g.edge_index(b)
    for a, b in sorted(rel):
        problems.extend(f"({a}, {b}) and ({b}, {seq[k]}) without ({a}, {seq[k]})"
                        for k in _members(after[b] & ~after[a]))
    return pg.ConjugacyReport(problems)


def order_from_conjugate_scan(g: pg.ProgressiveGraph, rel) -> pg.PlanarOrder:
    """``order.order_from_conjugate`` by counting predecessors pair by pair
    and validating the result, on top of :func:`check_conjugacy_scan`."""
    report = check_conjugacy_scan(g, rel)
    if not report:
        raise pg.NotConjugate(report.problems, report.total)
    rel = set(rel)
    ids = g.edge_ids
    preds = Counter(b for a in ids for b in ids
                    if g.strictly_reaches(a, b) or (a, b) in rel)
    seq = sorted(ids, key=preds.__getitem__)
    return pg.validate_planar_order(g, seq).order


def conjugate_pop(pop: pg.POPGraph) -> pg.POPGraph:
    """The paper's conjugate as an ordered graph: every edge reversed, and e
    before f when f reaches e, or e comes first and does not reach f.  Not
    validated here; the tests check that it is a planar order."""
    g = pop.graph
    rank = pop.order.rank
    opposite = pg.ProgressiveGraph(pg.DirectedMultigraph(
        pg.Edge(e.id, e.dst, e.src) for e in g.edges))
    preds = {e: sum(g.strictly_reaches(e, f)
                    or (rank(f) < rank(e) and not g.strictly_reaches(f, e))
                    for f in g.edge_ids) for e in g.edge_ids}
    return pg.POPGraph(opposite, pg.PlanarOrder(sorted(g.edge_ids, key=preds.__getitem__)))


@lru_cache(maxsize=4)
def vertex_reach_dfs(g: pg.ProgressiveGraph) -> dict[str, frozenset[str]]:
    """Per vertex, the vertices a directed path (possibly empty) leads to, by
    one DFS from each vertex."""
    out = {}
    for v in g.vertices:
        seen, stack = set(), [v]
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(e.dst for e in g.out_edges(w))
        out[v] = frozenset(seen)
    return out


def _scan_window(g, below, pos: dict[str, int], boundary, e: str,
                 forward: bool) -> tuple[int, int]:
    """Anchor-position window of e over the inputs (forward) or outputs."""
    if e in boundary:
        return (pos[e], pos[e])
    if forward:
        tail = g.edge(e).src
        hits = [pos[i] for i in boundary if tail in below[g.edge(i).dst]]
    else:
        after = below[g.edge(e).dst]
        hits = [pos[o] for o in boundary if g.edge(o).src in after]
    assert hits, f"edge {e} is not connected to the boundary"
    return (min(hits), max(hits))


def _scan_window_verdict(w1, w2) -> pg.Comparison:
    if w1[1] < w2[0]:
        return pg.Comparison.LESS
    if w2[1] < w1[0]:
        return pg.Comparison.GREATER
    return pg.Comparison.INCONSISTENT


def compare_edges_scan(pa: pg.PAGraph, e1: str, e2: str) -> pg.Comparison:
    """``synthesis.compare_edges`` by scanning vertices, with vertex
    reachability found by DFS: the oracle for the bit-row comparator.

    Reachability decides related edges.  Otherwise, when no vertex reaches
    both tails, the input windows decide, and when also no vertex is reached
    from both heads the output windows must agree.  Otherwise a maximal
    common ancestor of the tails (the least by name) decides by the order of
    its legs towards e1 and e2; one leg towards both is INCONSISTENT.
    """
    g = pa.graph
    below = vertex_reach_dfs(g)
    if e1 == e2:
        raise pg.PpgError("compare_edges requires two distinct edges")
    (s1, d1), (s2, d2) = g.edge(e1)[1:], g.edge(e2)[1:]
    if s2 in below[d1]:
        return pg.Comparison.LESS
    if s1 in below[d2]:
        return pg.Comparison.GREATER

    ancestors = [v for v in g.vertices if s1 in below[v] and s2 in below[v]]
    if not ancestors:
        in_pos = {e: k for k, e in enumerate(pa.anchor.inputs)}
        verdict = _scan_window_verdict(
            _scan_window(g, below, in_pos, g.inputs, e1, True),
            _scan_window(g, below, in_pos, g.inputs, e2, True))
        if not below[d1] & below[d2]:
            out_pos = {e: k for k, e in enumerate(pa.anchor.outputs)}
            dual = _scan_window_verdict(
                _scan_window(g, below, out_pos, g.outputs, e1, False),
                _scan_window(g, below, out_pos, g.outputs, e2, False))
            if dual != verdict:
                return pg.Comparison.INCONSISTENT
        return verdict

    maximal = [v for v in ancestors
               if not any(w != v and w in below[v] for w in ancestors)]
    legs = pa.vertex_orders[min(maximal)].outgoing
    h1 = next(h for h in legs if s1 in below[g.edge(h).dst] or h == e1)
    h2 = next(h for h in legs if s2 in below[g.edge(h).dst] or h == e2)
    if h1 == h2:
        return pg.Comparison.INCONSISTENT
    return pg.Comparison.LESS if legs.index(h1) < legs.index(h2) else pg.Comparison.GREATER


def both_ways_scan(pa: pg.PAGraph) -> None:
    """Raise NoConsistentOrder when two local lists order an edge pair both
    ways, testing every ordered pair of edges against every list that holds
    both: the oracle for the check that opens ``synthesize_order``.

    The tail-side lists (the inputs, the out-legs) come first; a witness
    names the pair as the first list holding it orders it.
    """
    lists = [("the inputs", pa.anchor.inputs)]
    lists += [(f"the out-legs of {v}", vo.outgoing) for v, vo in pa.vertex_orders.items()]
    lists += [(f"the in-legs of {v}", vo.incoming) for v, vo in pa.vertex_orders.items()]
    lists.append(("the outputs", pa.anchor.outputs))
    witnesses = []
    for a in pa.graph.edge_ids:
        for b in pa.graph.edge_ids:
            holding = [(name, seq.index(a) < seq.index(b)) for name, seq in lists
                       if a != b and a in seq and b in seq]
            for k, (first, ab) in enumerate(holding):
                for second, ab_too in holding[k + 1:]:
                    if ab and not ab_too:
                        witnesses.append(f"pair ({a}, {b}) is ordered ({a}, {b}) by {first} "
                                         f"and ({b}, {a}) by {second}")
    if witnesses:
        raise pg.NoConsistentOrder(witnesses)


def brute_orders(g: pg.ProgressiveGraph) -> list[tuple[str, ...]]:
    """Every planar order by filtering all permutations.  Keep it tiny."""
    assert len(g.edges) <= 6, "brute force is factorial, use small graphs"
    return [p for p in permutations(g.edge_ids) if slow_planar(g, p)]


def linear_extension_orders(g: pg.ProgressiveGraph) -> list[tuple[str, ...]]:
    """Every planar order, lexicographic by declaration: each linear extension
    of strict reachability by a plain DFS, kept when ``order_violations``
    finds nothing.  Linear extensions are many; keep the graphs small."""
    out = []

    def extend(prefix: list[str], rest: list[str]) -> None:
        if not rest:
            if not any(pg.order_violations(g, prefix)):
                out.append(tuple(prefix))
        for e in rest:
            if not any(g.strictly_reaches(r, e) for r in rest):
                extend(prefix + [e], [r for r in rest if r != e])

    extend([], list(g.edge_ids))
    return out


def segment_meet_scan(p1: Point, p2: Point, p3: Point, p4: Point):
    """Exact intersection of two closed segments, in ``Fraction`` arithmetic:
    the oracle for ``popgraph.layout._meet``, which decides on ints.

    None when disjoint; ("point", P) for a single shared point; for
    collinear overlap beyond a point, ("overlap", P) with P in the overlap.
    Either segment may be a single point; whether they meet does not depend
    on which one comes first.
    """
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    w = (p3[0] - p1[0], p3[1] - p1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        if w[0] * d1[1] - w[1] * d1[0] != 0:
            return None
        # collinear: compare parameter intervals along d1
        dot = lambda u, v: u[0] * v[0] + u[1] * v[1]
        l2 = dot(d1, d1)
        if l2 == 0:
            # the first segment is a single point: meet it from the second's
            # side, so that the answer does not depend on the argument order
            if d2 == (0, 0):
                return ("point", p1) if p1 == p3 else None
            return segment_meet_scan(p3, p4, p1, p2)
        t3 = Fraction(dot(w, d1), l2)
        t4 = Fraction(dot((p4[0] - p1[0], p4[1] - p1[1]), d1), l2)
        lo, hi = min(t3, t4), max(t3, t4)
        lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
        if lo > hi:
            return None
        mid = (lo + hi) / 2
        p = (p1[0] + mid * d1[0], p1[1] + mid * d1[1])
        return ("point", p) if lo == hi else ("overlap", p)
    t = Fraction(w[0] * d2[1] - w[1] * d2[0], denom)
    u = Fraction(w[0] * d1[1] - w[1] * d1[0], denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", (p1[0] + t * d1[0], p1[1] + t * d1[1]))
    return None


def check_drawing_scan(d: pg.Drawing) -> tuple[str, ...]:
    """``check_drawing(d).problems`` with the crossings found by testing every
    pair of segments on distinct routes, route by route, then segment by
    segment.  The other problems (monotone routes, boundary attachment) are
    taken from the library: crossing messages are the ones starting
    "routes ".  O(S^2) in the S segments; keep the drawings small."""
    problems = [p for p in pg.check_drawing(d).problems if not p.startswith("routes ")]
    allowed = set(d.vertices.values())
    ids = list(d.routes)
    for i, e1 in enumerate(ids):
        r1 = d.routes[e1]
        segs1 = list(zip(r1, r1[1:]))
        for e2 in ids[i + 1:]:
            r2 = d.routes[e2]
            for a1, b1 in segs1:
                for a2, b2 in zip(r2, r2[1:]):
                    hit = segment_meet_scan(a1, b1, a2, b2)
                    if hit is None:
                        continue
                    kind, p = hit
                    if (kind == "point" and p in allowed
                            and p in (r1[0], r1[-1]) and p in (r2[0], r2[-1])):
                        continue
                    problems.append(
                        f"routes {e1} and {e2} cross near "
                        f"({float(p[0]):.3f}, {float(p[1]):.3f})")
    return tuple(problems)


def mirror(d: pg.Drawing) -> pg.Drawing:
    """``d`` reflected in y, the flow the other way: y becomes top + bottom
    - y at every point, band bound and apex, read afresh for each point.
    The definition of ``layout(pop, up=True)`` from ``layout(pop)``.  An
    int top + bottom keeps the ints on the crossing lines ints."""
    x0, y0, x1, y1 = d.box
    h = y0 + y1
    h = h.numerator if h.denominator == 1 else h
    return dataclasses.replace(
        d, flow="up" if d.flow == "down" else "down",
        box=(x0, h - y1, x1, h - y0),
        bands=tuple(sorted((h - b, h - a) for a, b in d.bands)),
        vertices={v: (x, h - y) for v, (x, y) in d.vertices.items()},
        routes={e: tuple((x, h - y) for x, y in pts) for e, pts in d.routes.items()})


def with_apexes(d: pg.Drawing) -> pg.Drawing:
    """The downward plain drawing ``d`` with its inputs starting at a source
    apex s and its outputs ending at a sink apex t, each one unit beyond its
    boundary line at mid-width, both coordinates a ``Fraction``.  The
    definition of ``layout_st(pop)`` from ``layout(pop)``."""
    assert d.flow == "down" and not d.st
    x0, y0, x1, y1 = d.box
    s, t = (Fraction(x0 + x1, 2), Fraction(y0 - 1)), (Fraction(x0 + x1, 2), Fraction(y1 + 1))
    routes = dict(d.routes)
    for e in d.inputs:
        routes[e] = (s,) + routes[e]
    for e in d.outputs:
        routes[e] = routes[e] + (t,)
    return dataclasses.replace(d, vertices={**d.vertices, "s": s, "t": t}, routes=routes,
                               st=True, source="s", sink="t")


def first_primes(n: int) -> list[int]:
    """The first n primes, by trial division by the primes up to the root."""
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
        k += 1
    return primes


def moved_by_primes(d: pg.Drawing, rng: random.Random, most: Fraction) -> pg.Drawing:
    """``d`` with one interior point of each route that has one moved in x
    by +-k/p, where p is a prime of the route's own and k is not a multiple
    of p, with k/p up to about ``most``: the worst case for denominators,
    since the lcm of all of them is the product of the primes."""
    primes = iter(first_primes(len(d.routes)))
    routes = dict(d.routes)
    for e, pts in d.routes.items():
        if len(pts) < 3:
            continue
        p, i = next(primes), rng.randrange(1, len(pts) - 1)
        k = rng.randint(1, max(1, int(most * p)))
        k = rng.choice((-1, 1)) * (k + 1 if k % p == 0 else k)
        x, y = pts[i]
        routes[e] = pts[:i] + ((x + Fraction(k, p), y),) + pts[i + 1:]
    return dataclasses.replace(d, routes=routes)


def perturbed(pop: pg.POPGraph, rng: random.Random) -> pg.POPGraph | None:
    """A different valid planar order on the same graph, if one exists
    within an adjacent transposition."""
    seq = list(pop.order.sequence)
    idxs = list(range(len(seq) - 1))
    rng.shuffle(idxs)
    for i in idxs:
        a, b = seq[i], seq[i + 1]
        if pop.graph.strictly_reaches(a, b):
            continue
        swapped = seq[:i] + [b, a] + seq[i + 2:]
        try:
            return pg.validate_planar_order(pop.graph, swapped)
        except pg.InvalidPlanarOrder:
            continue
    return None


def spider_layer_with_outputs(rng: random.Random, tag: str, m: int) -> pg.POPGraph:
    """One spider plus bare edges, with exactly m outputs in total."""
    q = rng.randint(1, min(3, m))
    p = rng.randint(1, 3)
    bares = m - q
    at = rng.randint(0, bares)
    edges = []
    n = 0

    def bare():
        nonlocal n
        n += 1
        edges.append(pg.Edge(f"{tag}e{n}", f"{tag}s{n}", f"{tag}t{n}"))

    for _ in range(at):
        bare()
    v = f"{tag}v"
    for _ in range(p):
        n += 1
        edges.append(pg.Edge(f"{tag}e{n}", f"{tag}s{n}", v))
    for _ in range(q):
        n += 1
        edges.append(pg.Edge(f"{tag}e{n}", v, f"{tag}t{n}"))
    for _ in range(bares - at):
        bare()
    g = pg.ProgressiveGraph(pg.DirectedMultigraph(edges))
    return pg.validate_planar_order(g, [e.id for e in edges])


def random_single_spider_layer(rng: random.Random, tag: str,
                               n_inputs: int | None = None) -> pg.POPGraph:
    """A random layer with exactly one internal vertex (rest bare edges),
    named like ``pg.random_elementary_layer``: its row stops drawing
    spiders after the first, and one is put in when none was drawn."""
    remaining = n_inputs if n_inputs is not None else rng.randint(1, 6)
    blocks: list[tuple[int, int]] = []  # (p, q); p == 0 marks a bare edge
    while remaining > 0:
        if not any(p for p, _ in blocks) and rng.random() < 0.6:
            p = rng.randint(1, min(3, remaining))
            blocks.append((p, rng.randint(1, 3)))
            remaining -= p
        else:
            blocks.append((0, 0))
            remaining -= 1
    if not any(p for p, _ in blocks):
        # the spider consumes p inputs, so p - 1 bare blocks go
        p = rng.randint(1, min(3, len(blocks)))
        blocks[rng.randrange(len(blocks))] = (p, rng.randint(1, 3))
        for _ in range(p - 1):
            blocks.remove((0, 0))
    return _row(blocks, tag)


def is_elementary(g: pg.ProgressiveGraph) -> bool:
    """True when every connected component has at most one internal vertex:
    the components are then spiders (one internal vertex and its legs) and
    bare edges.  Components are found by a plain search over vertices."""
    nbrs: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        nbrs[e.src].add(e.dst)
        nbrs[e.dst].add(e.src)
    seen: set[str] = set()
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        stack, internal = [start], 0
        while stack:
            v = stack.pop()
            internal += v in g.internal_vertices
            for w in nbrs[v] - seen:
                seen.add(w)
                stack.append(w)
        if internal > 1:
            return False
    return True


def isomorphic_by_edges(a, b) -> bool:
    """Whether two graphs with the same edge ids are isomorphic under the
    identity on ids: the pairs (vertex of a, vertex of b) that the edges'
    tails and heads match up are a bijection.  Takes any mix of
    DirectedMultigraph, ProgressiveGraph and StGraph; every vertex of
    either is an endpoint, so the pairs cover both vertex sets."""
    ga, gb = getattr(a, "graph", a), getattr(b, "graph", b)
    if sorted(ga.edge_ids) != sorted(gb.edge_ids):
        return False
    pairs = set()
    for ea in ga.edges:
        eb = gb.edge(ea.id)
        pairs.update(((ea.src, eb.src), (ea.dst, eb.dst)))
    return len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})

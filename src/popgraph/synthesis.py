"""Recovering planar orders from local data, and enumerating and counting them.

A progressive graph rarely wears its planar order openly; what a drawing
determines directly is *local*: the left-to-right order of edges around each
internal vertex (the vertex orders) and the left-to-right order of the
boundary edges (the anchors).  This module reconstructs the unique planar
order consistent with such data, or proves there is none.

The comparator decides each pair of distinct edges by exactly one of three
disjoint cases:

1. one strictly reaches the other: reachability decides;
2. no vertex reaches the tails of both: the edges live over disjoint parts
   of the input boundary, and the anchor decides via input windows (with the
   dual output-window comparison applied when no vertex is reachable from
   the heads of both; a disagreement or overlapping windows means no planar
   order exists);
3. some vertex reaches both tails: a maximal such vertex (the least by name,
   when there are several) sees the two edges through distinct outgoing
   legs, and its vertex order decides.

The comparator reads rows that its first call builds once per graph: per
edge, the bit rows of the edges it reaches and of the edges reaching it
(itself included), its input and output windows as anchor positions, and
the ancestors of its tail; per vertex, its ancestors and, if internal, its
out-legs in vertex order.  Ancestor rows are bits over the vertices numbered
in reverse topological order, so a vertex reaches only lower numbers, and
one upstream pass builds them.  Case 1 reads two edge rows and case 2
compares windows.  In case 3 the common ancestors of the two tails are one
AND of ancestor rows, and the lowest of them is a maximal one.  The
reachability poset of a planar st graph is a lattice (Kelly and Rival 1975,
Platt 1976), so when the graph has any planar order that vertex is the
only maximal one, which one more row confirms.  Only when several are
maximal (a graph with no planar order) does the comparator walk the common
ancestors to find them all, and the least by name decides.  A comparison
builds no sets or lists; what stays quadratic is the number of pairs.

Every pair is compared once (never sorting with a comparator), and each edge
keeps a bit row of the edges it precedes.  Ranking by popcount gives the
order, which is validated against both planar-order axioms and re-extracted
and compared with the given data, so every inconsistency, comparisons that
cycle included, surfaces as NoConsistentOrder with witnesses.

Local data has one check, which takes partial data too (:class:`PAGraph`
adds completeness), and one read, a walk over the order (unchecked).

The enumerator extends prefixes of linear extensions in lexicographic order
of edge declaration, one step at a time: placing an edge bans, by
betweenness, the edges that may no longer follow it, and a step that bans an
unplaced edge is cut.  It keeps one frame per depth on an explicit stack.
A prefix that survives bans only placed edges, so the orders completing it
depend on its set of placed edges alone, not on their order.  The counter
counts the completions of each placed set once and remembers them, stepping
in place through placed sets with a single ready edge.  Unless forced, both
stop past a bound on search states (prefixes pushed, sets remembered).  The
test suite checks both against two oracles that share none of this: a
filter over all permutations (``brute_orders``) and one over all linear
extensions (``linear_extension_orders``).
"""

from __future__ import annotations

import enum
from functools import cached_property
from itertools import islice
from typing import Mapping, NamedTuple

from .core import ProgressiveGraph
from .errors import NoConsistentOrder, PpgError, TooLarge, UnknownEdge, UnknownVertex
from .order import (PlanarOrder, POPGraph, _expect_permutation, _members,
                    validate_planar_order)


class VertexOrder(NamedTuple):
    """Ordered incident edges of one internal vertex (left to right)."""
    incoming: tuple[str, ...]
    outgoing: tuple[str, ...]


class Anchor(NamedTuple):
    """Ordered boundary edges of the whole graph (left to right)."""
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


def _sides(value, vertex: str | None = None) -> tuple[tuple, tuple]:
    """The two sides of the vertex order at ``vertex``, or of the anchor, as
    tuples; PpgError naming it unless there are exactly two."""
    try:
        first, second = value
        return tuple(first), tuple(second)
    except (TypeError, ValueError):
        what = "the anchor" if vertex is None else f"the vertex order at {vertex!r}"
        raise PpgError(f"{what} must have exactly two sides of edge ids") from None


def _check_local_data(graph: ProgressiveGraph, vertex_orders: Mapping[str, VertexOrder | tuple],
                      anchor: Anchor | tuple | None
                      ) -> tuple[dict[str, VertexOrder], Anchor | None]:
    """Check whatever local data is given (no anchor, partial vertex orders):
    each has two sides, and each side is a permutation of its boundary or of
    an internal vertex's legs.  Returns the data as tuples."""
    if anchor is not None:
        anchor = Anchor(*_sides(anchor))
        _expect_permutation(anchor.inputs, graph.inputs)
        _expect_permutation(anchor.outputs, graph.outputs)
    if not isinstance(vertex_orders, Mapping):
        raise PpgError("vertex orders must be a mapping from internal vertex to its "
                       f"order, not {type(vertex_orders).__name__}")
    orders = {}
    for v, vo in vertex_orders.items():
        if v not in graph.internal_vertices:
            raise UnknownVertex(v)
        orders[v] = vo = VertexOrder(*_sides(vo, v))
        _expect_permutation(vo.incoming, (e.id for e in graph.in_edges(v)))
        _expect_permutation(vo.outgoing, (e.id for e in graph.out_edges(v)))
    return orders, anchor


class _Rows(NamedTuple):
    """The comparator's view of a :class:`PAGraph`, by edge index and by
    vertex number (reverse topological order); bit rows are over edge
    indexes or vertex numbers, windows are anchor positions."""
    reach: tuple[int, ...]  # the edges it reaches, itself included
    reached: tuple[int, ...]  # the edges reaching it, itself included
    windows: tuple[tuple[int, int, int, int], ...]  # input lo, hi, output lo, hi
    anc: tuple[int, ...]  # the vertices reaching its tail, the tail included
    below: tuple[int, ...]  # by vertex: the vertices reaching it, itself included
    names: tuple[str, ...]  # by vertex: its name
    legs: tuple[tuple[int, ...], ...]  # by vertex: its out-legs in vertex order


class PAGraph:
    """A progressive graph with vertex orders at every internal vertex and
    anchors on the boundary; the combinatorial shadow of a plane drawing."""

    def __init__(self, graph: ProgressiveGraph,
                 vertex_orders: Mapping[str, VertexOrder | tuple],
                 anchor: Anchor | tuple):
        self.graph = graph
        # an anchor is required here: a missing one has no sides
        self.vertex_orders, self.anchor = _check_local_data(
            graph, vertex_orders, () if anchor is None else anchor)
        missing = graph.internal_vertices.difference(self.vertex_orders)
        if missing:
            raise PpgError(f"missing vertex order for internal vertex {min(missing)!r}")

    @cached_property
    def _rows(self) -> _Rows:
        """What :func:`compare_edges` reads: per edge its reflexive reach and
        reacher rows, its input and output windows and its tail's ancestors,
        and per vertex its ancestors, its name and its out-legs in vertex
        order.  Built once, from the reach rows and the local data, by the
        first comparison, so that extracting or emitting local data never
        pays for it."""
        g = self.graph
        ids = g.edge_ids
        reach = tuple(g.reach_bits(e) | 1 << i for i, e in enumerate(ids))
        reached = tuple(g.reacher_bits(e) | 1 << i for i, e in enumerate(ids))

        def side(edges: tuple[str, ...]) -> tuple[dict[int, int], int]:
            """Anchor position by edge index, and the side as a bitset."""
            pos = {g.edge_index(e): k for k, e in enumerate(edges)}
            return pos, sum(1 << i for i in pos)

        def span(pos: dict[int, int], anchored: int) -> tuple[int, int]:
            ks = [pos[i] for i in _members(anchored)]
            return min(ks), max(ks)

        (ins, in_mask), (outs, out_mask) = map(side, self.anchor)
        # every edge is reached by an input and reaches an output
        windows = tuple(span(ins, t & in_mask) + span(outs, r & out_mask)
                        for r, t in zip(reach, reached))
        # vertices numbered in reverse topological order; walking the
        # topological order meets the tails of a vertex's in-edges first
        names = tuple(reversed(g._topo))
        number = {v: n for n, v in enumerate(names)}
        below = [0] * len(names)
        for v in g._topo:
            n = number[v]
            row = 1 << n
            for e in g.in_edges(v):
                row |= below[number[e.src]]
            below[n] = row
        orders = self.vertex_orders
        legs = tuple(tuple(map(g.edge_index, orders[v].outgoing)) if v in orders else ()
                     for v in names)
        return _Rows(reach, reached, windows, tuple(below[number[e.src]] for e in g.edges),
                     tuple(below), names, legs)

    def __eq__(self, other):
        if isinstance(other, PAGraph):
            return (self.graph == other.graph
                    and self.vertex_orders == other.vertex_orders
                    and self.anchor == other.anchor)
        return NotImplemented

    def __repr__(self):
        return f"PAGraph({len(self.graph.edges)} edges)"


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    INCONSISTENT = "inconsistent"


_LESS, _GREATER, _INCONSISTENT = Comparison.LESS, Comparison.GREATER, Comparison.INCONSISTENT


def compare_edges(pa: PAGraph, e1: str, e2: str) -> Comparison:
    """Decide the relative planar-order position of two distinct edges.

    Antisymmetric by construction; INCONSISTENT means the vertex orders and
    anchors admit no planar order that relates this pair.  Reads only the
    rows :class:`PAGraph` builds once: two reach rows for case 1, the
    precomputed windows for case 2, and for case 3 the AND of the two tails'
    ancestor rows.  Its lowest vertex w is a maximal common ancestor, as w
    reaches only lower numbers.  Since reachability in a planar st graph is
    a lattice, w is the only maximal one whenever the graph has a planar
    order; it is exactly when every common ancestor reaches w, and w then
    decides through its first out-leg towards either edge, in its vertex
    order.  Otherwise (the graph has no planar order) the maximal common
    ancestors are found by a walk from the low bits that drops the
    ancestors of each one it meets, and the least by name decides.
    """
    if e1 == e2:
        raise PpgError("compare_edges requires two distinct edges")
    ix = pa.graph._eix
    try:
        i, j = ix[e1], ix[e2]
    except (KeyError, TypeError):  # an unknown id, or one that cannot be hashed
        raise UnknownEdge(e2 if e1 in pa.graph.edge_ids else e1) from None
    reach, reached, windows, anc, below, names, legs = pa._rows
    r1, r2 = reach[i], reach[j]
    if r1 >> j & 1:
        return _LESS
    if r2 >> i & 1:
        return _GREATER

    common = anc[i] & anc[j]
    if not common:
        # over disjoint parts of the input boundary: the input windows
        # decide, and the output windows must agree unless both edges
        # reach a common edge
        lo1, hi1, out_lo1, out_hi1 = windows[i]
        lo2, hi2, out_lo2, out_hi2 = windows[j]
        verdict = _LESS if hi1 < lo2 else _GREATER if hi2 < lo1 else _INCONSISTENT
        if not r1 & r2 and verdict is not (
                _LESS if out_hi1 < out_lo2 else _GREATER if out_hi2 < out_lo1 else _INCONSISTENT):
            return _INCONSISTENT
        return verdict

    w = (common & -common).bit_length() - 1
    if common & ~below[w]:  # a common ancestor not reaching w: several are maximal
        rest = common
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= ~below[k]
            if names[k] < names[w]:
                w = k
    # no leg of w reaches both edges (its head would be a lower common
    # ancestor), so its first leg into either row decides
    t1, t2 = reached[i], reached[j]
    for k in legs[w]:
        if t1 >> k & 1:
            return _LESS
        if t2 >> k & 1:
            return _GREATER


def synthesize_order(pa: PAGraph) -> PlanarOrder:
    """The unique planar order consistent with the given data.

    Every pair is compared once, and each edge keeps a bit row of the edges
    it precedes; ranking by that row's popcount gives the order when the
    comparisons are a strict total order.  The ranking is validated against
    both axioms and re-extracted to confirm it reproduces the input data, so
    any failure, cyclic comparisons included, raises NoConsistentOrder
    naming witnesses.
    """
    g = pa.graph
    ids = g.edge_ids
    witnesses: list[str] = []
    later = [0] * len(ids)
    for i, a in enumerate(ids):
        row = later[i]
        for j, b in enumerate(ids[i + 1:], i + 1):
            c = compare_edges(pa, a, b)
            if c is _LESS:
                row |= 1 << j
            elif c is _GREATER:
                later[j] |= 1 << i
            else:
                witnesses.append(f"no consistent position for pair ({a}, {b})")
        later[i] = row
    if witnesses:
        raise NoConsistentOrder(tuple(witnesses))

    seq = sorted(ids, key=lambda e: -later[g.edge_index(e)].bit_count())
    try:
        pop = validate_planar_order(g, seq)
    except PpgError as err:
        raise NoConsistentOrder((f"synthesized order is not planar: {err}",)) from err
    if _local_data(pop) != (pa.vertex_orders, pa.anchor):
        raise NoConsistentOrder(
            ("synthesized order does not reproduce the given vertex orders/anchors",))
    return pop.order


def _local_data(pop: POPGraph) -> tuple[dict[str, VertexOrder], Anchor]:
    """The vertex orders and anchors of a planar order, unchecked, in one walk
    that appends each edge to the legs of its tail and of its head."""
    g = pop.graph
    legs = {v: ([], []) for v in sorted(g.internal_vertices)}
    boundary = ([], [])  # one vertex for the rest: outputs come in, inputs go out
    for eid in pop.order.sequence:
        e = g.edge(eid)
        legs.get(e.src, boundary)[1].append(eid)
        legs.get(e.dst, boundary)[0].append(eid)
    vertex_orders = {v: VertexOrder(tuple(a), tuple(b)) for v, (a, b) in legs.items()}
    return vertex_orders, Anchor(tuple(boundary[1]), tuple(boundary[0]))


def extract_pa(pop: POPGraph) -> PAGraph:
    """Read the vertex orders and anchors off a planar order, checked."""
    return PAGraph(pop.graph, *_local_data(pop))


class EnumerationResult(NamedTuple):
    orders: tuple[PlanarOrder, ...]
    truncated: bool


_STATES = 1 << 16  # search states an unforced count or listing may reach


class _Moves(NamedTuple):
    """What a search step reads, by edge index: bit rows over edge indexes."""
    reach: list[int]  # the edges it strictly reaches
    reachers: list[int]  # the edges strictly reaching it
    succ: list[int]  # the out-edges of its head
    reaching: int  # the edges that reach some edge


def _start(g: ProgressiveGraph, force: bool) -> tuple[_Moves, int, float]:
    """The search rows of g, its first ready edges and its bound on states."""
    reach = [g.reach_bits(e) for e in g.edge_ids]
    reachers = [g.reacher_bits(e) for e in g.edge_ids]
    moves = _Moves(reach, reachers,
                   [sum(1 << g.edge_index(c.id) for c in g.out_edges(e.dst)) for e in g.edges],
                   sum(1 << i for i, row in enumerate(reach) if row))
    ready = sum(1 << i for i, row in enumerate(reachers) if not row)
    return moves, ready, float("inf") if force else _STATES


def _step(moves: _Moves, placed: int, ready: int, b: int) -> tuple[int, int, bool]:
    """Place the ready edge b after the placed edges: the new placed and
    ready masks, and whether the step bans an unplaced edge, which cuts it
    (the masks are then left as they were).

    Placing b after a placed a that does not reach b bans every edge a
    reaches and b does not: by betweenness none may come after b.  Only the
    placed edges that reach some edge can ban one, and only the out-edges of
    b's head can become ready.
    """
    reach, reachers, succ, reaching = moves
    free = ~(placed | reach[b])  # unplaced, and not reached by b
    for a in _members(placed & reaching & ~reachers[b]):
        if reach[a] & free:
            return placed, ready, True
    placed |= 1 << b
    ready &= ~(1 << b)
    for c in _members(succ[b]):
        if not reachers[c] & ~placed:
            ready |= 1 << c
    return placed, ready, False


def _search(g: ProgressiveGraph, force: bool):
    """Generate the planar orders of g, lexicographic by declaration.

    Linear-extension backtracking over :func:`_step`, with one frame per
    depth on an explicit stack (placed, ready, the ready edges still to
    try), so depth is bounded by memory, not by the recursion limit.  A ban
    never lifts, so a step that bans an unplaced edge is cut; every full
    sequence is a planar order, and none is missed.  Memory stays linear in
    the number of edges; time follows the prefixes pushed, dead ones
    included, and unless forced more than ``_STATES`` of them raise TooLarge.
    """
    moves, ready, bound = _start(g, force)
    ids = g.edge_ids
    if not ready:  # no edges
        yield PlanarOrder(())
        return
    prefix: list[int] = []
    frames = [[0, ready, ready]]
    pushed = 0
    while True:
        frame = frames[-1]
        todo = frame[2]
        if not todo:  # every candidate tried at this depth: backtrack
            frames.pop()
            if not frames:
                return
            prefix.pop()
            continue
        b = (todo & -todo).bit_length() - 1
        frame[2] = todo & (todo - 1)
        placed, ready, cut = _step(moves, frame[0], frame[1], b)
        if cut:
            continue
        if not ready:  # every edge placed
            yield PlanarOrder([ids[i] for i in prefix] + [ids[b]])
            continue
        frames.append([placed, ready, ready])
        prefix.append(b)
        pushed += 1
        if pushed > bound:
            raise TooLarge("prefixes searched", bound)


def _list_orders(g: ProgressiveGraph, limit: int | None, force: bool, emit) -> bool:
    """Pass the planar orders of g to ``emit`` as the search finds them, at
    most ``limit`` of them; True when the limit cut the listing short."""
    if limit is not None and limit < 0:
        raise PpgError(f"limit must be 0 or more, not {limit}")
    orders = _search(g, force)
    for order in islice(orders, limit):
        emit(order)
    return next(orders, None) is not None


def enumerate_planar_orders(g: ProgressiveGraph, limit: int | None = None, *,
                            force: bool = False) -> EnumerationResult:
    """All planar orders of g, lexicographic by edge declaration order.

    Raises TooLarge once the search pushes more than ``_STATES`` prefixes,
    unless forced; with ``limit`` the result is cut off there and flagged as
    truncated; a negative ``limit`` raises PpgError.
    """
    orders: list[PlanarOrder] = []
    truncated = _list_orders(g, limit, force, orders.append)
    return EnumerationResult(tuple(orders), truncated)


def count_planar_orders(g: ProgressiveGraph, *, force: bool = False) -> int:
    """Number of planar orders of g, without materializing them.

    A prefix that bans no unplaced edge bans only placed edges, and
    :func:`_step` derives each step's bans from the placed set, so the
    orders completing such a prefix depend on its placed set alone, not on
    its order.  Each placed set is counted once, on an explicit stack, and
    remembered: time and memory grow with the number of placed sets the
    search meets (at most 2^m for m edges), not with the number of orders.
    A placed set with one ready edge steps on in place.  Above the first
    branch it is not remembered, so a path costs no memory; below one it is
    remembered with the count its forced steps lead to, so the other
    branches that reach it stop there.  Unless forced, remembering more than
    ``_STATES`` placed sets raises TooLarge.
    """
    moves, ready, bound = _start(g, force)
    memo: dict[int, int] = {}
    # placed, ready, ready edges still to try, completions, the forced
    # placed sets that led to it
    frames: list[list] = []
    placed, cut = 0, False
    while True:
        chain = []
        while ready and not ready & (ready - 1) and not cut:  # a forced step
            if frames:
                if placed in memo:
                    break
                chain.append(placed)
            placed, ready, cut = _step(moves, placed, ready, ready.bit_length() - 1)
        n = 0 if cut else 1 if not ready else memo.get(placed)
        if n is None:
            frames.append([placed, ready, ready, 0, chain])
        else:  # add n to the frame above; finish the frames with nothing left to try
            for key in chain:
                memo[key] = n
            while True:
                if not frames:
                    return n
                frame = frames[-1]
                frame[3] += n
                if frame[2]:
                    break
                frames.pop()
                n = memo[frame[0]] = frame[3]
                for key in frame[4]:
                    memo[key] = n
            if len(memo) > bound:
                raise TooLarge("placed sets remembered", bound)
        frame = frames[-1]
        todo = frame[2]
        frame[2] = todo & (todo - 1)
        placed, ready, cut = _step(moves, frame[0], frame[1], (todo & -todo).bit_length() - 1)

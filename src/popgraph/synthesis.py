"""Recovering planar orders from local data, and enumerating and counting them.

A progressive graph rarely wears its planar order openly; what a drawing
determines directly is *local*: the left-to-right order of edges around each
internal vertex (the vertex orders) and the left-to-right order of the
boundary edges (the anchors).  This module reconstructs the unique planar
order consistent with such data, or proves there is none.

Local data are the restrictions of one planar order, so two lists that hold
the same two edges must order them alike.  Every edge lies in exactly two
lists: its tail's out-legs (the inputs, when the tail is a source) and its
head's in-legs (the outputs, when the head is a sink).  Before any
comparison, so before the comparator's rows are built, the edges are
grouped by that pair of lists and each group's pairs ordered both ways are
counted as inversions, in O(m log m) for m edges; any such pair refuses the
data with NoConsistentOrder, naming the pair and both lists.  Every other
conflict goes on to the comparator.

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

The comparator reads the graph's own strict reach rows, and rows that its
first call builds once per graph: per edge, its input and output windows as
anchor positions and the ancestors of its tail; per vertex, its ancestors
and, if internal, its out-legs in vertex order.  Ancestor rows are bits over
the vertices numbered in reverse topological order, so a vertex reaches only
lower numbers, and one upstream pass builds them.  A window is the span of
the anchor positions of the boundary edges an edge sees, carried in one pass
each way: an edge leaving a vertex takes the span of the input windows of
the edges entering it, and an edge entering one that of the output windows
leaving it.  Case 1 reads two edge rows and case 2 compares windows.  In
case 3 the common ancestors of the two tails are one AND of ancestor rows,
and the lowest of them is a maximal one.  The reachability poset of a planar
st graph is a lattice (Kelly and Rival 1975, Platt 1976), so when the graph
has any planar order that vertex is the only maximal one, which one more row
confirms.  Only when several are maximal (a graph with no planar order) does
the comparator walk the common ancestors to find them all, and the least by
name decides, through its first out-leg that is either edge or reaches it.
A comparison builds no sets or lists; what stays quadratic is the number of
pairs.

Every pair is compared once (never sorting with a comparator), and each edge
keeps a bit row of the edges it precedes.  Ranking by popcount gives the
order, which is validated against both planar-order axioms and re-extracted
and compared with the given data, so every inconsistency, comparisons that
cycle included, surfaces as NoConsistentOrder with witnesses.  A refusal
builds only the first SHOWN witness strings and counts the rest.

Local data has one check, which takes partial data too (:class:`PAGraph`
adds completeness), and one read, ``POPGraph._local`` (unchecked).

The enumerator extends prefixes of linear extensions in lexicographic order
of edge declaration, one step at a time: placing an edge bans, by
betweenness, the edges that may no longer follow it, and a step that bans an
unplaced edge is cut.  It keeps one frame per depth on an explicit stack.
A prefix that survives bans only placed edges, so the orders completing it
depend on its set of placed edges alone, not on their order.  The counter
counts, layer by layer from the empty set, the prefixes reaching each placed
set.  Unless forced, both stop past a bound on search states (prefixes
pushed, placed sets in layers of two or more).  The test suite checks both
against two oracles that share none of this: a filter over all permutations
(``brute_orders``) and one over all linear extensions
(``linear_extension_orders``).
"""

from __future__ import annotations

import enum
import sys
from functools import cached_property
from itertools import islice
from typing import Mapping, NamedTuple

from .core import ProgressiveGraph, _sides
from .errors import (SHOWN, NoConsistentOrder, PpgError, TooLarge, UnknownEdge,
                     UnknownVertex, _expect_type)
from .order import (Anchor, PlanarOrder, POPGraph, VertexOrder, _members,
                    _permutation, validate_planar_order)


def _check_local_data(graph: ProgressiveGraph, vertex_orders: Mapping[str, VertexOrder | tuple],
                      anchor: Anchor | tuple | None
                      ) -> tuple[dict[str, VertexOrder], Anchor | None, list[dict[str, int]]]:
    """Check whatever local data is given (no anchor, partial vertex orders):
    each has two sides, and each side is a permutation of its boundary or of
    an internal vertex's legs.  Returns the data as tuples, and the position
    of each edge in the head-side lists, which :func:`_refuse_both_ways`
    reads: the outputs first when there is an anchor, then the in-legs of
    each vertex in the order of the returned vertex orders."""
    heads = []
    if anchor is not None:
        anchor = Anchor(*_sides(anchor, "the anchor"))
        _permutation(anchor.inputs, graph.inputs)
        heads.append(_permutation(anchor.outputs, graph.outputs)[1])
    if not isinstance(vertex_orders, Mapping):
        raise PpgError("vertex orders must be a mapping from internal vertex to its "
                       f"order, not {type(vertex_orders).__name__}")
    orders = {}
    for v, vo in vertex_orders.items():
        if v not in graph.internal_vertices:
            raise UnknownVertex(v)
        orders[v] = vo = VertexOrder(*_sides(vo, f"the vertex order at {v!r}"))
        heads.append(_permutation(vo.incoming, (e.id for e in graph.in_edges(v)))[1])
        _permutation(vo.outgoing, (e.id for e in graph.out_edges(v)))
    return orders, anchor, heads


class _Rows(NamedTuple):
    """The comparator's view of a :class:`PAGraph`, by edge index and by
    vertex number (reverse topological order); bit rows are over edge
    indexes or vertex numbers, windows are anchor positions."""
    reach: tuple[int, ...]  # the edges it strictly reaches: the graph's own rows
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
        self.graph = _expect_type(graph, "PAGraph", ProgressiveGraph)
        # an anchor is required here: a missing one has no sides
        self.vertex_orders, self.anchor, self._head_positions = _check_local_data(
            graph, vertex_orders, () if anchor is None else anchor)
        missing = graph.internal_vertices.difference(self.vertex_orders)
        if missing:
            raise PpgError(f"missing vertex order for internal vertex {min(missing)!r}")

    @cached_property
    def _rows(self) -> _Rows:
        """What :func:`compare_edges` reads: per edge the graph's strict reach
        row (not a copy), its input and output windows and its tail's
        ancestors, and per vertex its ancestors, its name and its out-legs in
        vertex order.  Built once, from the local data, by the first
        comparison, so that extracting or emitting local data never pays for
        it; no reacher row is built."""
        g = self.graph
        ids, ix = g.edge_ids, g._eix

        def sweep(vertices, into, out_of, boundary: tuple[str, ...]) -> list[tuple[int, int]]:
            """Per edge index, the least and greatest position in ``boundary``
            of the boundary edges on its side: a boundary edge has its own,
            and the edges ``out_of`` a vertex share the span of the edges
            ``into`` it, which ``vertices`` lists first."""
            win = [(0, 0)] * len(ids)
            for k, e in enumerate(boundary):
                win[ix[e]] = (k, k)
            for v in vertices:
                seen = [win[ix[e.id]] for e in into(v)]
                if seen:
                    span = min(lo for lo, _ in seen), max(hi for _, hi in seen)
                    for e in out_of(v):
                        win[ix[e.id]] = span
            return win

        # every edge is reached by an input and reaches an output
        inputs, outputs = self.anchor
        windows = tuple(a + b for a, b in zip(
            sweep(g._topo, g.in_edges, g.out_edges, inputs),
            sweep(reversed(g._topo), g.out_edges, g.in_edges, outputs)))
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
        return _Rows(g._ereach, windows, tuple(below[number[e.src]] for e in g.edges),
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
    graph's strict reach rows and the rows :class:`PAGraph` builds once: two
    reach rows for case 1, the precomputed windows for case 2, and for case
    3 the AND of the two tails' ancestor rows.  Its lowest vertex w is a
    maximal common ancestor, as w reaches only lower numbers.  Since
    reachability in a planar st graph is a lattice, w is the only maximal
    one whenever the graph has a planar order; it is exactly when every
    common ancestor reaches w, and w then decides through its first out-leg,
    in its vertex order, that is either edge or reaches it.  Otherwise (the
    graph has no planar order) the maximal common ancestors are found by a
    walk from the low bits that drops the ancestors of each one it meets,
    and the least by name decides.
    """
    if e1 == e2:
        raise PpgError("compare_edges requires two distinct edges")
    try:
        ix, rows = pa.graph._eix, pa._rows
    except AttributeError:  # checked only here, off the path of m^2/2 calls
        _expect_type(pa, "compare_edges", PAGraph)
        raise
    try:
        i, j = ix[e1], ix[e2]
    except (KeyError, TypeError):  # an unknown id, or one that cannot be hashed
        raise UnknownEdge(e2 if e1 in pa.graph.edge_ids else e1) from None
    reach, windows, anc, below, names, legs = rows
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
    # ancestor), so its first leg that is or reaches either edge decides
    for k in legs[w]:
        if k == i or reach[k] >> i & 1:
            return _LESS
        if k == j or reach[k] >> j & 1:
            return _GREATER


def _later_and_lower(keys: list[int]) -> list[int]:
    """Per position i, how many later positions hold a lower key (the keys
    are distinct): one Fenwick tree over the key ranks, filled from the
    end, in O(n log n)."""
    n = len(keys)
    rank = [0] * n
    for r, i in enumerate(sorted(range(n), key=keys.__getitem__), 1):
        rank[i] = r
    tree = [0] * (n + 1)
    counts = [0] * n
    for i in reversed(range(n)):
        r = rank[i]
        k, c = r - 1, 0
        while k:
            c += tree[k]
            k &= k - 1
        counts[i] = c
        while r <= n:
            tree[r] += 1
            r += r & -r
    return counts


def _refuse_both_ways(pa: PAGraph) -> None:
    """NoConsistentOrder when two local lists order an edge pair both ways.

    Every edge lies in exactly two lists: the out-legs of its tail (the
    inputs, when the tail is a source) and the in-legs of its head (the
    outputs, when the head is a sink).  A planar order restricts to both,
    so two edges that share both lists must be ordered alike by each.  The
    edges are grouped by their pair of lists, each group in the order of its
    first list, and the pairs the second list reverses are counted as
    inversions, in O(g log g) for a group of g edges.  The witnesses name
    the pair as the first list orders it, and come by the declaration index
    of its left edge, then of its right one; only the first SHOWN are built.
    """
    ix = pa.graph._eix
    orders, inputs = pa.vertex_orders, pa.anchor.inputs
    names = (None, *orders)
    # per edge, its head-side list (0 for the outputs, j for the in-legs of
    # names[j]) and its position there, as the local data check found it
    side, at = {}, {}
    for j, position in enumerate(pa._head_positions):
        side.update(dict.fromkeys(position, j))
        at.update(position)
    total, bad = 0, []  # bad: the left edges of reversed pairs, with their group
    for j, legs in enumerate((inputs, *(vo.outgoing for vo in orders.values()))):
        heads = [side[e] for e in legs]
        if len(set(heads)) == len(heads):  # no two legs share their other list
            continue
        groups: dict[int, list[str]] = {}
        for e, h in zip(legs, heads):
            groups.setdefault(h, []).append(e)
        for h, group in groups.items():
            keys = [at[e] for e in group]
            if any(a > b for a, b in zip(keys, keys[1:])):
                for i, c in enumerate(_later_and_lower(keys)):
                    if c:
                        total += c
                        bad.append((ix[group[i]], i, group, keys, j, h))
    if not total:
        return

    def witnesses():
        for _, i, group, keys, j, h in sorted(bad, key=lambda b: b[0]):
            a, k = group[i], keys[i]
            first = f"the out-legs of {names[j]}" if j else "the inputs"
            second = f"the in-legs of {names[h]}" if h else "the outputs"
            for b in sorted((b for b, kb in zip(group[i + 1:], keys[i + 1:]) if kb < k),
                            key=ix.__getitem__):
                yield f"pair ({a}, {b}) is ordered ({a}, {b}) by {first} and ({b}, {a}) by {second}"

    raise NoConsistentOrder(witnesses(), total)


def synthesize_order(pa: PAGraph) -> PlanarOrder:
    """The unique planar order consistent with the given data.

    First, before any comparison, local data in which two lists order an
    edge pair both ways is refused in O(m log m) (m edges).  Then every pair
    is compared once, and each edge keeps a bit row of the edges it
    precedes; ranking by that row's popcount gives the order when the
    comparisons are a strict total order.  The ranking is validated against
    both axioms and re-extracted to confirm it reproduces the input data, so
    any failure, cyclic comparisons included, raises NoConsistentOrder
    naming witnesses: the first SHOWN, and the total.
    """
    _refuse_both_ways(_expect_type(pa, "synthesize_order", PAGraph))
    g = pa.graph
    ids = g.edge_ids
    witnesses: list[str] = []
    total = 0
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
                total += 1
                if total <= SHOWN:
                    witnesses.append(f"no consistent position for pair ({a}, {b})")
        later[i] = row
    if total:
        raise NoConsistentOrder(witnesses, total)

    seq = sorted(ids, key=lambda e: -later[g.edge_index(e)].bit_count())
    try:
        pop = validate_planar_order(g, seq)
    except PpgError as err:
        raise NoConsistentOrder((f"synthesized order is not planar: {err}",)) from err
    if pop._local != (pa.vertex_orders, pa.anchor):
        raise NoConsistentOrder(
            ("synthesized order does not reproduce the given vertex orders/anchors",))
    return pop.order


def extract_pa(pop: POPGraph) -> PAGraph:
    """Read the vertex orders and anchors off a planar order, checked."""
    return PAGraph(_expect_type(pop, "extract_pa", POPGraph).graph, *pop._local)


class EnumerationResult(NamedTuple):
    orders: tuple[PlanarOrder, ...]
    truncated: bool


_STATES = 1 << 16  # search states an unforced count or listing may reach


class _Moves(NamedTuple):
    """What a search step reads, by edge index: bit rows over edge indexes."""
    reach: tuple[int, ...]  # the edges it strictly reaches: the graph's own rows
    reachers: tuple[int, ...]  # the edges strictly reaching it: the graph's own rows
    succ: list[int]  # the out-edges of its head
    reaching: int  # the edges that reach some edge


def _start(g: ProgressiveGraph, force: bool) -> tuple[_Moves, int, float]:
    """The search rows of g, its first ready edges and its bound on states."""
    _expect_type(force, "force", bool)
    reach, reachers = g._ereach, g._ereachers
    leaving = dict.fromkeys(g.vertices, 0)  # per vertex, its out-edges
    for i, e in enumerate(g.edges):
        leaving[e.src] |= 1 << i
    moves = _Moves(reach, reachers, [leaving[e.dst] for e in g.edges],
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
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise PpgError(f"limit must be None or an int, not {type(limit).__name__}")
        if limit < 0:
            raise PpgError(f"limit must be 0 or more, not {limit}")
        limit = min(limit, sys.maxsize)  # islice's bound; no listing gets that far
    orders = _search(g, force)
    for order in islice(orders, limit):
        emit(order)
    return next(orders, None) is not None


def enumerate_planar_orders(g: ProgressiveGraph, limit: int | None = None, *,
                            force: bool = False) -> EnumerationResult:
    """All planar orders of g, lexicographic by edge declaration order.

    Raises TooLarge once the search pushes more than ``_STATES`` prefixes,
    unless forced; with ``limit`` the result is cut off there and flagged as
    truncated; a ``limit`` that is negative or no int raises PpgError.
    """
    orders: list[PlanarOrder] = []
    truncated = _list_orders(_expect_type(g, "enumerate_planar_orders", ProgressiveGraph),
                             limit, force, orders.append)
    return EnumerationResult(tuple(orders), truncated)


def count_planar_orders(g: ProgressiveGraph, *, force: bool = False) -> int:
    """Number of planar orders of g, without materializing them.

    :func:`_step` derives each step's cut and ready edges from the placed
    set, so the prefixes that place one set of edges share their
    completions.  One forward pass counts the prefixes reaching each placed
    set: layer k + 1 steps every ready edge of every set of layer k, and the
    one set of the last layer holds the count (none: no order).  Time follows
    the placed sets met (at most 2^m for m edges), not the orders; memory,
    two layers.  Unless forced, more than ``_STATES`` sets in the layers of
    two or more raise TooLarge, so a path remembers none; the first set past
    the bound raises, not the end of its layer.
    """
    moves, ready, bound = _start(_expect_type(g, "count_planar_orders", ProgressiveGraph), force)
    layer = {0: [ready, 1]}  # placed set: its ready edges, the prefixes reaching it
    remembered = 0
    for _ in g.edges:
        reached: dict[int, list[int]] = {}
        room = max(bound - remembered, 1)  # a set alone in its layer is not remembered
        for placed, (ready, n) in layer.items():
            for b in _members(ready):
                nxt, nxt_ready, cut = _step(moves, placed, ready, b)
                if cut:
                    continue
                if nxt in reached:
                    reached[nxt][1] += n
                elif len(reached) < room:
                    reached[nxt] = [nxt_ready, n]
                else:
                    raise TooLarge("placed sets remembered", bound)
        layer = reached
        if len(layer) > 1:
            remembered += len(layer)
    return sum(n for _, n in layer.values())

"""Planar orders on progressive graphs and their conjugates.

A planar order is a total order on the edge set satisfying two axioms:

1. extension: whenever edge a strictly reaches edge b, a comes first;
2. betweenness: whenever a < b < c in the order and a strictly reaches c,
   b must relate to one of them (a reaches b, or b reaches c).

The betweenness axiom is equivalent to transitivity of the conjugate
relation (a <* b  iff  a < b and a does not reach b).  Relations are held as
bit rows, one per edge.  Validation decides an order by a chain check on
rows indexed by rank, O(m * depth) row operations (``_reach_chains_hold``),
and lists the violations only of an order that fails it.  The conjugate
together with strict reachability covers every unordered edge pair exactly
once, which the conjugacy check reads off four rows per edge.  A relation
that does so is transitive exactly when its union with reachability, ranked
by popcount, passes the same chain check and has the relation as its
conjugate; that union is then the planar order, so the two presentations
are interchangeable.  One helper lists the intransitive triples of a set of
rows, one step per member of each row plus one per witness, and runs only
on what these checks refuse: the listing takes its betweenness violations
from the conjugate rows, and the conjugacy check its transitivity witnesses
from the given relation.  The test suite checks all of this against
definitional pair and triple scans.

The interval partition that composition shuffles by locates each edge
relative to the ordered boundary: after the last input that reaches it, and
before the first output it reaches.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .core import ProgressiveGraph
from .errors import (InvalidPlanarOrder, NotAPermutation, NotConjugate, PpgError,
                     UnknownEdge)


class PlanarOrder:
    """A total order on edge ids, with 1-based ranks."""

    def __init__(self, sequence):
        self.sequence: tuple[str, ...] = tuple(sequence)
        self.ranks: dict[str, int] = {e: i + 1 for i, e in enumerate(self.sequence)}
        if len(self.ranks) != len(self.sequence):
            raise NotAPermutation((), (), _duplicates(self.sequence))

    def rank(self, e: str) -> int:
        try:
            return self.ranks[e]
        except KeyError:
            raise UnknownEdge(e) from None

    def __iter__(self):
        return iter(self.sequence)

    def __len__(self):
        return len(self.sequence)

    def __eq__(self, other):
        if isinstance(other, PlanarOrder):
            return self.sequence == other.sequence
        return NotImplemented

    def __hash__(self):
        return hash(self.sequence)

    def __repr__(self):
        return "PlanarOrder(" + " ".join(self.sequence) + ")"


class POPGraph:
    """A progressive graph together with a validated planar order.

    Build via :func:`validate_planar_order`.
    """

    def __init__(self, graph: ProgressiveGraph, order: PlanarOrder):
        self.graph = graph
        self.order = order

    def rank(self, e: str) -> int:
        return self.order.rank(e)

    @property
    def inputs_ordered(self) -> tuple[str, ...]:
        return tuple(e for e in self.order if e in self.graph.inputs)

    @property
    def outputs_ordered(self) -> tuple[str, ...]:
        return tuple(e for e in self.order if e in self.graph.outputs)

    def __eq__(self, other):
        if isinstance(other, POPGraph):
            return self.graph == other.graph and self.order == other.order
        return NotImplemented

    def __repr__(self):
        return f"POPGraph({len(self.order)} edges)"


def _duplicates(seq: tuple[str, ...]) -> tuple[str, ...]:
    """The ids listed more than once in ``seq``, sorted."""
    return tuple(sorted(e for e, n in Counter(seq).items() if n > 1))


def _expect_permutation(seq: Iterable[str], universe: Iterable[str]) -> None:
    seq = tuple(seq)
    want = set(universe)
    have = set(seq)
    if have != want or len(have) != len(seq):
        raise NotAPermutation(tuple(sorted(want - have)),
                              tuple(sorted(have - want)), _duplicates(seq))


def _members(bits: int):
    """The indexes of the set bits, low to high."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _conjugate_rows(g: ProgressiveGraph, seq: tuple[str, ...]) -> tuple[list[int], list[int]]:
    """Per edge index i: the earlier edges in ``seq`` that edge i reaches (its
    extension violations), and the conjugate row of edge i, the later edges
    it does not reach; both are bitsets over edge declaration indexes."""
    full = (1 << len(seq)) - 1
    late, conj = [0] * len(seq), [0] * len(seq)
    placed = 0
    for e in seq:
        i, reach = g.edge_index(e), g.reach_bits(e)
        late[i] = reach & placed
        placed |= 1 << i
        conj[i] = full & ~(placed | reach)
    return late, conj


def _intransitive(rows: list[int]) -> list[tuple[int, int, int]]:
    """The triples (i, j, k) with j in row i, k in row j and k not in row i;
    only rows whose members' union escapes the row are expanded."""
    triples = []
    for i, row in enumerate(rows):
        # the union inline: a generator here would slow the valid path
        union, rest = 0, row
        while rest:
            low = rest & -rest
            union |= rows[low.bit_length() - 1]
            rest ^= low
        if union & ~row:
            triples.extend((i, j, k) for j in _members(row) for k in _members(rows[j] & ~row))
    return triples


def order_violations(g: ProgressiveGraph, sequence) -> tuple[list, list]:
    """Enumerate every violation of the two planar-order axioms.

    Returns (extension pairs, betweenness triples); the sequence must be a
    permutation of the edge set.  Pairs are (a, b) with a reaching b but
    ranked later; triples (a, b, c) are the intransitive triples of the
    conjugate rows: a reaches c and b relates to neither.  Both are listed
    in sequence order.
    """
    seq = tuple(sequence)
    ids = g.edge_ids
    _expect_permutation(seq, ids)
    late, conj = _conjugate_rows(g, seq)
    pairs = [(ids[i], ids[j]) for i, row in enumerate(late) if row for j in _members(row)]
    triples = [(ids[i], ids[j], ids[k]) for i, j, k in _intransitive(conj)]
    if pairs or triples:
        rank = {e: k for k, e in enumerate(seq)}.__getitem__
        pairs.sort(key=lambda t: tuple(map(rank, t)))
        triples.sort(key=lambda t: tuple(map(rank, t)))
    return pairs, triples


def _reach_chains_hold(g: ProgressiveGraph, seq: tuple[str, ...]) -> bool:
    """Whether ``seq`` is a planar order of g (False also when it is not a
    permutation of the edges), in O(m * depth) operations on bit rows
    indexed by rank.

    One pass from the last rank to the first builds each reach row as the
    union, over the edges leaving the edge's head, of their bit and their
    row; an edge ranked before one it leads into breaks the extension axiom.
    The conjugate row of rank k is then every later rank that k does not
    reach, and betweenness says these rows are transitive.  Going from the
    last rank to the first, the rows after k are already transitive, so row
    k is checked along a chain: take its lowest member j unchecked so far,
    require row j inside row k (which vouches for the members of row j too),
    and go on with the members that j reaches, the only later ranks row j
    leaves out.  A chain follows reach, so it is no longer than the longest
    path.
    """
    m = len(seq)
    rank = {e: r for r, e in enumerate(seq)}
    if len(rank) != m or rank.keys() != set(g.edge_ids):
        return False
    outs = g.graph._out
    reach = [0] * m
    for r in range(m - 1, -1, -1):
        row = 0
        for c in outs[g.edge(seq[r]).dst]:
            rc = rank[c.id]
            if rc < r:
                return False
            row |= 1 << rc | reach[rc]
        reach[r] = row
    full = (1 << m) - 1
    conj = [0] * m
    for k in range(m - 1, -1, -1):
        row = conj[k] = full ^ ((2 << k) - 1) ^ reach[k]  # reach[k] is all later
        rest = row
        while rest:
            j = (rest & -rest).bit_length() - 1
            if conj[j] & ~row:
                return False
            rest &= reach[j]
    return True


def validate_planar_order(g: ProgressiveGraph, sequence) -> POPGraph:
    """Check both axioms by reach chains; when they fail, list every
    violation with :func:`order_violations` and raise with them."""
    seq = tuple(sequence)
    if not _reach_chains_hold(g, seq):
        pairs, triples = order_violations(g, seq)
        if pairs or triples:
            raise InvalidPlanarOrder(pairs, triples)
    return POPGraph(g, PlanarOrder(seq))


def conjugate_order(pop: POPGraph) -> frozenset[tuple[str, str]]:
    """All pairs (a, b) with a before b in the order and a not reaching b.

    Transitive by the betweenness axiom; together with strict reachability it
    covers each unordered pair exactly once.
    """
    ids = pop.graph.edge_ids
    _, conj = _conjugate_rows(pop.graph, pop.order.sequence)
    return frozenset((ids[i], ids[j]) for i, row in enumerate(conj) for j in _members(row))


class ConjugacyReport:
    def __init__(self, problems):
        self.problems: tuple[str, ...] = tuple(problems)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"ConjugacyReport(ok={self.ok}, problems={list(self.problems)})"


def _conjugacy_problems(g: ProgressiveGraph, rel) -> tuple[list[str], tuple[str, ...]]:
    """:func:`check_conjugacy`'s problems, and when there are none the
    planar order whose conjugate ``rel`` is.

    The rows of ``rel`` are built straight from its pairs; only a relation
    naming an unknown edge or a reflexive pair is listed sorted.  Once every
    pair is related exactly once, the edges ranked by how many edges they
    precede form a planar order exactly when ``rel`` is transitive, and then
    ``rel`` is that order's conjugate: a reach-chain check and one row
    comparison accept it, and only a relation they refuse has its
    intransitive triples listed.
    """
    rel = set(rel)
    ids = g.edge_ids
    ix = g._eix
    out, into = [0] * len(ids), [0] * len(ids)
    for a, b in rel:
        i, j = ix.get(a), ix.get(b)
        if i is None or j is None or i == j:
            return _unknown_or_reflexive(rel, ix), ()
        out[i] |= 1 << j
        into[j] |= 1 << i
    problems = []
    rows = zip(map(g.reach_bits, ids), map(g.reacher_bits, ids), out, into)
    for i, (r, rt, c, ct) in enumerate(rows):
        # bit j > i: reach, reached-by, rel-out and rel-in must hold exactly once
        bad = (~((r | c) ^ (rt | ct)) | r & c | rt & ct) & ((1 << len(ids)) - (2 << i))
        problems.extend(f"pair ({ids[i]}, {ids[j]}) is related "
                        f"{sum(x >> j & 1 for x in (r, rt, c, ct))} times, expected exactly once"
                        for j in _members(bad))
    if not problems:
        later = [(g.reach_bits(e) | row).bit_count() for e, row in zip(ids, out)]
        seq = tuple(e for _, e in sorted(zip(later, ids), reverse=True))
        if _reach_chains_hold(g, seq) and _conjugate_rows(g, seq)[1] == out:
            return problems, seq
    witnesses = sorted(_intransitive(out), key=lambda t: (ids[t[0]], ids[t[1]]))
    problems.extend(f"({ids[i]}, {ids[j]}) and ({ids[j]}, {ids[k]}) without ({ids[i]}, {ids[k]})"
                    for i, j, k in witnesses)
    return problems, ()


def _unknown_or_reflexive(rel: set, ix: dict[str, int]) -> list[str]:
    """The pairs of ``rel`` naming an unknown edge or an edge twice, sorted."""
    problems = []
    for a, b in sorted(rel):
        if a not in ix or b not in ix:
            problems.append(f"({a}, {b}) names an unknown edge")
        elif a == b:
            problems.append(f"({a}, {a}) is reflexive")
    return problems


def check_conjugacy(g: ProgressiveGraph, rel) -> ConjugacyReport:
    """Is ``rel`` a conjugate order for g?

    Required: irreflexive; transitive; and together with strict reachability
    it relates every unordered pair of distinct edges exactly once.  Reports
    every witness rather than stopping at the first.
    """
    return ConjugacyReport(_conjugacy_problems(g, rel)[0])


def order_from_conjugate(g: ProgressiveGraph, rel) -> PlanarOrder:
    """Rebuild the planar order whose conjugate is ``rel``.

    A relation that passes :func:`check_conjugacy` has as its union with
    strict reachability a planar order (betweenness is its transitivity), in
    which the edge with the most successors comes first.  The check itself
    ranks the edges that way and accepts when the ranking passes the
    reach-chain test and its conjugate rows are those of ``rel``, so the
    order is what the check accepted.
    """
    problems, seq = _conjugacy_problems(g, rel)
    if problems:
        raise NotConjugate(tuple(problems))
    return PlanarOrder(seq)


def interval_partition(pop: POPGraph):
    """Partition non-inputs by the input they follow, and non-outputs by the
    output they precede.

    Returns (after_input, before_output): ``after_input[i]`` lists, in order,
    the non-input edges between input i and the next input (or the end);
    ``before_output[o]`` lists the non-output edges between the previous
    output and o.  Every non-input edge lands after the first input and every
    non-output edge before the last output, so these are genuine partitions;
    an order that breaks this (it is not planar) raises PpgError.
    An edge in ``after_input[i]`` has i as the last input, in the order, that
    reaches it, and an edge in ``before_output[o]`` has o as the first output
    it reaches (the test suite checks this against a scan of its windows).
    """
    g = pop.graph
    seq = pop.order.sequence
    after_input: dict[str, list[str]] = {i: [] for i in pop.inputs_ordered}
    current = None
    for e in seq:
        if e in g.inputs:
            current = e
        elif current is None:
            raise PpgError(f"non-input edge {e} comes before every input")
        else:
            after_input[current].append(e)
    before_output: dict[str, list[str]] = {o: [] for o in pop.outputs_ordered}
    pending: list[str] = []
    for e in seq:
        if e in g.outputs:
            before_output[e] = pending
            pending = []
        else:
            pending.append(e)
    if pending:
        raise PpgError(f"non-output edge {pending[0]} comes after every output")
    return ({i: tuple(b) for i, b in after_input.items()},
            {o: tuple(b) for o, b in before_output.items()})

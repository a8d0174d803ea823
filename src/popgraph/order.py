"""Planar orders on progressive graphs and their conjugates.

A planar order is a total order on the edge set satisfying two axioms:

1. extension: whenever edge a strictly reaches edge b, a comes first;
2. betweenness: whenever a < b < c in the order and a strictly reaches c,
   b must relate to one of them (a reaches b, or b reaches c).

The betweenness axiom is equivalent to transitivity of the conjugate
relation (a <* b  iff  a < b and a does not reach b).  Relations are held as
bit rows, one per edge, and one helper lists the intransitive triples of
such rows: validation takes its betweenness violations from the conjugate
rows, and the conjugacy check its transitivity witnesses from the given
relation, in O(m^2) words plus one step per witness.  The conjugate together
with strict reachability covers every unordered edge pair exactly once, which
the check reads off four rows per edge; their union is then the planar
order, so the two presentations are interchangeable.  The test suite checks
all of this against definitional pair and triple scans.

Input and output windows locate an edge relative to the ordered boundary:
the window of a non-input edge e is the span, in the order restricted to
inputs, of the inputs that reach e.  The interval partition that composition
shuffles by agrees with the windows.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .core import ProgressiveGraph, _reachers
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


def validate_planar_order(g: ProgressiveGraph, sequence) -> POPGraph:
    """Check both axioms; on failure raise with every violation listed."""
    seq = tuple(sequence)
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


def _conjugacy_problems(g: ProgressiveGraph, rel) -> tuple[list[str], list[int]]:
    """:func:`check_conjugacy`'s problems, and ``rel``'s rows over edge indexes."""
    rel = set(rel)
    problems = []
    ids = g.edge_ids
    ix = {e: i for i, e in enumerate(ids)}
    for a, b in sorted(rel):
        if a not in ix or b not in ix:
            problems.append(f"({a}, {b}) names an unknown edge")
        elif a == b:
            problems.append(f"({a}, {a}) is reflexive")
    if problems:
        return problems, []
    out, into = [0] * len(ids), [0] * len(ids)
    for a, b in rel:
        out[ix[a]] |= 1 << ix[b]
        into[ix[b]] |= 1 << ix[a]
    for i, (r, rt, c, ct) in enumerate(zip(map(g.reach_bits, ids), _reachers(g), out, into)):
        # bit j > i: reach, reached-by, rel-out and rel-in must hold exactly once
        bad = (~((r | c) ^ (rt | ct)) | r & c | rt & ct) & ((1 << len(ids)) - (2 << i))
        problems.extend(f"pair ({ids[i]}, {ids[j]}) is related "
                        f"{sum(x >> j & 1 for x in (r, rt, c, ct))} times, expected exactly once"
                        for j in _members(bad))
    witnesses = sorted(_intransitive(out), key=lambda t: (ids[t[0]], ids[t[1]]))
    problems.extend(f"({ids[i]}, {ids[j]}) and ({ids[j]}, {ids[k]}) without ({ids[i]}, {ids[k]})"
                    for i, j, k in witnesses)
    return problems, out


def check_conjugacy(g: ProgressiveGraph, rel) -> ConjugacyReport:
    """Is ``rel`` a conjugate order for g?

    Required: irreflexive; transitive; and together with strict reachability
    it relates every unordered pair of distinct edges exactly once.  Reports
    every witness rather than stopping at the first.
    """
    return ConjugacyReport(_conjugacy_problems(g, rel)[0])


def order_from_conjugate(g: ProgressiveGraph, rel) -> PlanarOrder:
    """Rebuild the planar order whose conjugate is ``rel``.

    Once ``rel`` passes :func:`check_conjugacy`, its union with strict
    reachability is a planar order (betweenness is the transitivity just
    checked), in which the edge with the most successors comes first.
    """
    problems, out = _conjugacy_problems(g, rel)
    if problems:
        raise NotConjugate(tuple(problems))
    later = [(g.reach_bits(e) | row).bit_count() for e, row in zip(g.edge_ids, out)]
    return PlanarOrder(e for _, e in sorted(zip(later, g.edge_ids), reverse=True))


def input_window(pop: POPGraph, e: str) -> tuple[str, str]:
    """The first and last input, in the order, that reach e.

    For an input edge the window is (e, e) by convention.
    """
    g = pop.graph
    g.edge(e)
    if e in g.inputs:
        return (e, e)
    hits = [i for i in pop.inputs_ordered if g.strictly_reaches(i, e)]
    return (hits[0], hits[-1])


def output_window(pop: POPGraph, e: str) -> tuple[str, str]:
    """The first and last output, in the order, reachable from e."""
    g = pop.graph
    g.edge(e)
    if e in g.outputs:
        return (e, e)
    hits = [o for o in pop.outputs_ordered if g.strictly_reaches(e, o)]
    return (hits[0], hits[-1])


def interval_partition(pop: POPGraph):
    """Partition non-inputs by the input they follow, and non-outputs by the
    output they precede.

    Returns (after_input, before_output): ``after_input[i]`` lists, in order,
    the non-input edges between input i and the next input (or the end);
    ``before_output[o]`` lists the non-output edges between the previous
    output and o.  Every non-input edge lands after the first input and every
    non-output edge before the last output, so these are genuine partitions;
    an order that breaks this (it is not planar) raises PpgError.
    They agree with the windows: an edge in ``after_input[i]`` has i as the
    last input of its input window, and an edge in ``before_output[o]`` has o
    as the first output of its output window (the test suite checks this).
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

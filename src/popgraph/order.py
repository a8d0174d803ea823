"""Planar orders on progressive graphs and their conjugates.

A planar order is a total order on the edge set satisfying two axioms:

1. extension: whenever edge a strictly reaches edge b, a comes first;
2. betweenness: whenever a < b < c in the order and a strictly reaches c,
   b must relate to one of them (a reaches b, or b reaches c).

The betweenness axiom is equivalent to transitivity of the conjugate
relation (a <* b  iff  a < b and a does not reach b), which gives an
O(m^2)-word validation path; the definitional triple scan is kept as the
diagnostic path and the two are asserted to agree in the test suite.
The conjugate relation together with strict reachability covers every
unordered edge pair exactly once, and the planar order can be rebuilt from
it, so the two presentations are interchangeable.

Input and output windows locate an edge relative to the ordered boundary:
the window of a non-input edge e is the span, in the order restricted to
inputs, of the inputs that reach e.  Windows drive both composition and
synthesis.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .core import ProgressiveGraph
from .errors import InvalidPlanarOrder, NotAPermutation, NotConjugate, UnknownEdge


class PlanarOrder:
    """A total order on edge ids, with 1-based ranks."""

    def __init__(self, sequence):
        self.sequence: tuple[str, ...] = tuple(sequence)
        self.ranks: dict[str, int] = {e: i + 1 for i, e in enumerate(self.sequence)}
        if len(self.ranks) != len(self.sequence):
            dups = sorted({e for e in self.sequence if self.sequence.count(e) > 1})
            raise NotAPermutation((), (), tuple(dups))

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


def _expect_permutation(seq: Iterable[str], universe: Iterable[str]) -> None:
    seq = tuple(seq)
    want = set(universe)
    have = set(seq)
    if have != want or len(have) != len(seq):
        dups = tuple(sorted({e for e in seq if seq.count(e) > 1}))
        raise NotAPermutation(tuple(sorted(want - have)),
                              tuple(sorted(have - want)), dups)


def order_violations(g: ProgressiveGraph, sequence) -> tuple[list, list]:
    """Enumerate every violation of the two planar-order axioms.

    Returns (extension pairs, betweenness triples); the sequence must be a
    permutation of the edge set.  Pairs are (a, b) with a reaching b but
    ranked later; triples (a, b, c) are listed in sequence order.  This is
    the O(m^3) definitional scan, used for diagnostics.
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


def _fast_valid(g: ProgressiveGraph, seq: tuple[str, ...]) -> bool:
    """Bitset check: extension axiom plus transitivity of the conjugate."""
    m = len(seq)
    full = (1 << m) - 1
    before = {}
    acc = 0
    for e in seq:
        before[e] = acc
        acc |= 1 << g.edge_index(e)
    conj = [0] * m
    for e in seq:
        i = g.edge_index(e)
        reach = g.reach_bits(e)
        if reach & before[e]:
            return False
        after = full & ~before[e] & ~(1 << i)
        conj[i] = after & ~reach
    for i in range(m):
        row = conj[i]
        union = 0
        rest = row
        while rest:
            low = rest & -rest
            union |= conj[low.bit_length() - 1]
            rest ^= low
        if union & ~row:
            return False
    return True


def validate_planar_order(g: ProgressiveGraph, sequence) -> POPGraph:
    """Check both axioms; on failure raise with every violation listed."""
    seq = tuple(sequence)
    _expect_permutation(seq, g.edge_ids)
    if not _fast_valid(g, seq):
        pairs, triples = order_violations(g, seq)
        raise InvalidPlanarOrder(pairs, triples)
    return POPGraph(g, PlanarOrder(seq))


def conjugate_order(pop: POPGraph) -> frozenset[tuple[str, str]]:
    """All pairs (a, b) with a before b in the order and a not reaching b.

    Transitive by the betweenness axiom; together with strict reachability it
    covers each unordered pair exactly once.
    """
    seq = pop.order.sequence
    g = pop.graph
    out = set()
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if not g.strictly_reaches(a, b):
                out.add((a, b))
    return frozenset(out)


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


def check_conjugacy(g: ProgressiveGraph, rel) -> ConjugacyReport:
    """Is ``rel`` a conjugate order for g?

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
        return ConjugacyReport(problems)
    seq = g.edge_ids
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            hits = (g.strictly_reaches(a, b) + g.strictly_reaches(b, a)
                    + ((a, b) in rel) + ((b, a) in rel))
            if hits != 1:
                problems.append(
                    f"pair ({a}, {b}) is related {hits} times, expected exactly once")
    for a, b in sorted(rel):
        for c in seq:
            if (b, c) in rel and (a, c) not in rel:
                problems.append(f"({a}, {b}) and ({b}, {c}) without ({a}, {c})")
    return ConjugacyReport(problems)


def order_from_conjugate(g: ProgressiveGraph, rel) -> PlanarOrder:
    """Rebuild the planar order whose conjugate is ``rel``.

    The union of strict reachability and ``rel`` linearly orders the edges;
    an edge's rank is one more than its number of predecessors, the edges
    that strictly reach it plus the pairs of ``rel`` that end at it.
    """
    report = check_conjugacy(g, rel)
    if not report:
        raise NotConjugate(report.problems)
    rel = set(rel)
    ids = g.edge_ids
    preds = Counter(b for a in ids for b in ids
                    if g.strictly_reaches(a, b) or (a, b) in rel)
    seq = sorted(ids, key=preds.__getitem__)
    return validate_planar_order(g, seq).order


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
    non-output edge before the last output, so these are genuine partitions.
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
        else:
            assert current is not None, "non-input edge before the first input"
            after_input[current].append(e)
    before_output: dict[str, list[str]] = {o: [] for o in pop.outputs_ordered}
    pending: list[str] = []
    for e in seq:
        if e in g.outputs:
            before_output[e] = pending
            pending = []
        else:
            pending.append(e)
    assert not pending, "non-output edges after the last output"
    return ({i: tuple(b) for i, b in after_input.items()},
            {o: tuple(b) for o, b in before_output.items()})

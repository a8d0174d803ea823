"""Planar orders on progressive graphs and their conjugates.

A planar order is a total order on the edge set satisfying two axioms:

1. extension: whenever edge a strictly reaches edge b, a comes first;
2. betweenness: whenever a < b < c in the order and a strictly reaches c,
   b must relate to one of them (a reaches b, or b reaches c).

The betweenness axiom is equivalent to transitivity of the conjugate
relation (a <* b  iff  a < b and a does not reach b).  Relations are held as
bit rows.  Every question about a sequence reads one pair of row lists
indexed by rank (``_ranked``): the ranks each edge reaches, and its
conjugate row, the later ranks it does not reach.  A chain check on them,
O(m * depth) row operations, decides an order.  Only an order it refuses
has its violations counted, by popcounts over the same rows, and of those
only the first SHOWN of each kind are built, in sequence order.  The count
walks the conjugate rows along chains like the check's and reads a member
on its own only where a chain breaks, so refusing a near-miss, such as one
adjacent swap, costs O(m * depth) row operations, and no refusal costs
more than O(m^2), however many violations there are.
The conjugate together with strict reachability relates every unordered
edge pair exactly once, which the conjugacy check reads off four rows per
edge.  Such a relation is transitive exactly when its union with
reachability is a transitive tournament whose ranking passes the chain
check; it is then the conjugate of that planar order, so the two
presentations are interchangeable.  One helper counts the intransitive
triples of a set of rows and one lists them, and both run only on what
these checks refuse: the betweenness violations of an order and the
transitivity witnesses of a relation, of which a refusal again builds the
first SHOWN and counts the rest.  ``order_violations`` still lists every
violation.  The test suite checks all of this against definitional pair and
triple scans.

The interval partition that composition shuffles by locates each edge
relative to the ordered boundary: after the last input that reaches it, and
before the first output it reaches.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from typing import Iterable

from .core import ProgressiveGraph
from .errors import (InvalidPlanarOrder, NotAPermutation, NotConjugate, PpgError,
                     UnknownEdge, _first)


class PlanarOrder:
    """A total order on edge ids, with 1-based ranks.  Ids are strings: a
    value that is not iterable, a sequence with a repeat, or else one with
    a member that is not a string, raises NotAPermutation."""

    def __init__(self, sequence):
        self.sequence: tuple[str, ...] = _as_sequence(sequence, ())
        try:
            self.ranks: dict[str, int] = {e: i + 1 for i, e in enumerate(self.sequence)}
        except TypeError:  # an unhashable member
            self.ranks = {}
        if len(self.ranks) != len(self.sequence):
            raise _not_a_permutation(self.sequence)
        try:
            "".join(self.sequence)  # in one C pass, as repr shows the ids
        except TypeError:  # a member that is not a string, so no id
            ids = {e for e in self.ranks if isinstance(e, str)}
            raise _not_a_permutation(self.sequence, ids) from None

    def rank(self, e: str) -> int:
        try:
            return self.ranks[e]
        except (KeyError, TypeError):  # unknown, or unhashable so no id
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


def _id_key(e) -> tuple:
    """Sorts ids as messages list them: strings first, then the rest by repr."""
    return (0, e) if type(e) is str else (1, repr(e))


def _not_a_permutation(seq: tuple, want=None) -> NotAPermutation:
    """The error for ``seq``, which does not list each id of ``want`` once
    (by default its own hashable members, so only repeats count).  A member
    that cannot be hashed is no id, so it is extra."""
    count, extra = Counter(), []
    for e in seq:
        try:
            count[e] += 1
        except TypeError:
            extra.append(e)
    want = count.keys() if want is None else want
    extra += (e for e in count if e not in want)
    return NotAPermutation(tuple(sorted(want - count.keys(), key=_id_key)),
                           tuple(sorted(extra, key=_id_key)),
                           tuple(sorted((e for e, n in count.items() if n > 1), key=_id_key)))


def _as_sequence(seq, universe: Iterable[str]) -> tuple:
    """``seq`` as a tuple.  A value that is not iterable lists no id of
    ``universe``: NotAPermutation, with the value as its one extra member."""
    try:
        return tuple(seq)
    except TypeError:
        raise _not_a_permutation((seq,), set(universe)) from None


def _expect_permutation(seq: Iterable[str], universe: Iterable[str]) -> dict[str, int]:
    """The 0-based rank of each id in ``seq``, which must list each id of
    ``universe`` once; NotAPermutation otherwise."""
    seq = tuple(seq)
    want = set(universe)
    try:
        rank = {e: r for r, e in enumerate(seq)}
    except TypeError:  # an unhashable member
        rank = {}
    if len(rank) != len(seq) or rank.keys() != want:
        raise _not_a_permutation(seq, want)
    return rank


def _members(bits: int):
    """The indexes of the set bits, low to high."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _ranked(g: ProgressiveGraph, seq: tuple[str, ...]) -> tuple[list[int], list[int]]:
    """Rows over ranks in ``seq``, which must list each edge of g once: per
    rank r, the ranks that edge r reaches (earlier ones break extension), and
    its conjugate row, the later ranks it does not reach."""
    reach = g._downstream(_expect_permutation(seq, g.edge_ids))
    full = (1 << len(seq)) - 1
    return reach, [full & ~((2 << r) - 1 | row) for r, row in enumerate(reach)]


def _chains_hold(reach: list[int], conj: list[int]) -> bool:
    """Whether the rows of :func:`_ranked` are those of a planar order, in
    O(m * depth) row operations.

    Extension says no rank reaches an earlier one; then every later rank is
    in the reach row or the conjugate row of rank k, and betweenness says
    the conjugate rows are transitive.  Going from the last rank to the
    first, the ranks after k already pass both, so rank k must not reach
    back and its conjugate row is checked along a chain: take its lowest
    member j unchecked so far, require row j inside row k (which vouches for
    the members of row j too), and go on with the members that j reaches,
    the only later ranks row j leaves out.  A chain follows reach, so it is
    no longer than the longest path.
    """
    for k in range(len(conj) - 1, -1, -1):
        if reach[k] & ((1 << k) - 1):
            return False
        row = rest = conj[k]
        while rest:
            j = (rest & -rest).bit_length() - 1
            if conj[j] & ~row:
                return False
            rest &= reach[j]
    return True


def _intransitive(rows: list[int]) -> tuple[int, list[int]]:
    """The number of triples (i, j, k) with j in row i, k in row j and k not
    in row i, and the rows i that have one, ascending.

    Rows are settled smallest first, each along a chain as in
    :func:`_chains_hold`: the lowest member j of row i not yet covered,
    when row j lies inside row i and was settled with no triple, covers
    itself and all of row j, since no member of row j leaves row j.  Any
    other member is counted on its own, by one popcount.  The rows are
    irreflexive, so a row j inside row i is the smaller and settled first.
    On the conjugate rows of a planar order every chain holds and follows
    reach, so it is no longer than the longest path; a near-miss then costs
    O(m * depth) row operations plus one for each member its violations
    leave uncovered, and no row takes more steps than it has members.
    """
    closed = [False] * len(rows)
    total, escaping = 0, []
    for i in sorted(range(len(rows)), key=[row.bit_count() for row in rows].__getitem__):
        row = rest = rows[i]
        outside, n = ~row, 0
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            out = rows[j] & outside
            if out:
                n += out.bit_count()
            elif closed[j]:
                rest &= ~rows[j]
            rest ^= low
        if n:
            total += n
            escaping.append(i)
        else:
            closed[i] = True
    return total, sorted(escaping)


def _triples(rows: list[int], escaping: list[int], key=None):
    """The triples that :func:`_intransitive` counts, from the rows i in
    ``escaping``: by i, then by j, in the order of ``key`` (index order by
    default), and by k ascending.  Lazy, so a refusal draws only what its
    message shows."""
    for i in sorted(escaping, key=key):
        row = rows[i]
        for j in sorted((j for j in _members(row) if rows[j] & ~row), key=key):
            for k in _members(rows[j] & ~row):
                yield i, j, k


def _witnesses(seq: tuple[str, ...], reach: list[int], conj: list[int]):
    """The extension pairs and the betweenness triples of the rank rows of
    ``seq``, as lazy iterators in sequence order, then the total of each,
    counted by popcounts: the arguments of :class:`InvalidPlanarOrder`, which
    draws only the first SHOWN of each."""
    below = [row & ((1 << r) - 1) for r, row in enumerate(reach)]
    pairs = ((seq[r], seq[j]) for r, row in enumerate(below) for j in _members(row))
    n_triples, escaping = _intransitive(conj)
    triples = ((seq[i], seq[j], seq[k]) for i, j, k in _triples(conj, escaping))
    return pairs, triples, sum(map(int.bit_count, below)), n_triples


def order_violations(g: ProgressiveGraph, sequence) -> tuple[list, list]:
    """Enumerate every violation of the two planar-order axioms.

    Returns (extension pairs, betweenness triples); the sequence must be a
    permutation of the edge set.  Pairs are (a, b) with a reaching b but
    ranked later; triples (a, b, c) are the intransitive triples of the
    conjugate rows: a reaches c and b relates to neither.  Both are read off
    the rank rows rank by rank, so they come out in sequence order.  These
    are the lists of which :class:`InvalidPlanarOrder` keeps the first SHOWN.
    """
    seq = _as_sequence(sequence, g.edge_ids)
    pairs, triples, _, _ = _witnesses(seq, *_ranked(g, seq))
    return list(pairs), list(triples)


def validate_planar_order(g: ProgressiveGraph, sequence) -> POPGraph:
    """Check both axioms by the chain check on the rank rows; when it fails,
    raise InvalidPlanarOrder with the first SHOWN violations of each kind
    and their totals, read off the same rows."""
    seq = _as_sequence(sequence, g.edge_ids)
    reach, conj = _ranked(g, seq)
    if not _chains_hold(reach, conj):
        raise InvalidPlanarOrder(*_witnesses(seq, reach, conj))
    return POPGraph(g, PlanarOrder(seq))


def conjugate_order(pop: POPGraph) -> frozenset[tuple[str, str]]:
    """All pairs (a, b) with a before b in the order and a not reaching b.

    Transitive by the betweenness axiom; together with strict reachability it
    covers each unordered pair exactly once.
    """
    seq = pop.order.sequence
    _, conj = _ranked(pop.graph, seq)
    return frozenset((seq[i], seq[j]) for i, row in enumerate(conj) for j in _members(row))


class ConjugacyReport:
    """The verdict of :func:`check_conjugacy`.  ``problems`` keeps the first
    SHOWN witnesses and ``total`` counts them all (by default, the length of
    the iterable given)."""

    def __init__(self, problems: Iterable[str], total: int | None = None):
        self.problems, self.total = _first(problems, total)

    @property
    def ok(self) -> bool:
        return not self.total

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (f"ConjugacyReport(ok={self.ok}, problems={list(self.problems)}, "
                f"total={self.total})")


def _conjugacy_problems(g: ProgressiveGraph, rel) -> tuple[ConjugacyReport, tuple[str, ...]]:
    """:func:`check_conjugacy`'s report, and when it has no problem the
    planar order whose conjugate ``rel`` is.

    The rows of ``rel`` are built straight from its pairs (a set is read as
    it is; anything else is copied); only a relation with a member that is
    not a tuple of two distinct known edges is listed sorted.  Once every
    pair is related exactly once, the union of ``rel`` with reachability is
    a tournament.  ``rel`` is transitive exactly when that tournament is
    transitive, no two edges preceding equally many, and its ranking passes
    the chain check; ``rel`` is then the conjugate of that ranking.  Only a
    relation these refuse has its problems counted, by popcounts of the
    rows, and the first SHOWN of them built: the pairs not related exactly
    once by index, then the intransitive triples by the ids of their first
    two edges.
    """
    ids = g.edge_ids
    ix = g._eix
    if not isinstance(rel, (set, frozenset)):
        try:
            iter(rel)
        except TypeError:  # not iterable, so no relation
            return ConjugacyReport((f"{rel!r} is not a collection of edge pairs",)), ()
        rel = list(rel)
        try:
            rel = set(rel)
        except TypeError:  # an unhashable member
            return _unknown_or_reflexive(rel, ix), ()
    if not all(map(isinstance, rel, repeat(tuple))):  # only a tuple is a pair
        return _unknown_or_reflexive(rel, ix), ()
    out, into = [0] * len(ids), [0] * len(ids)
    try:
        for a, b in rel:
            i, j = ix.get(a), ix.get(b)
            if i is None or j is None or i == j:
                return _unknown_or_reflexive(rel, ix), ()
            out[i] |= 1 << j
            into[j] |= 1 << i
    except (TypeError, ValueError):  # a tuple that is not a pair
        return _unknown_or_reflexive(rel, ix), ()
    rows = list(zip(map(g.reach_bits, ids), map(g.reacher_bits, ids), out, into))
    # bit j > i: reach, reached-by, rel-out and rel-in must hold exactly once
    bad = [(~((r | c) ^ (rt | ct)) | r & c | rt & ct) & ((1 << len(ids)) - (2 << i))
           for i, (r, rt, c, ct) in enumerate(rows)]
    if not any(bad):
        # place each edge by how many edges it precedes, most first
        seq = [None] * len(ids)
        for e, row in zip(ids, out):
            seq[~(g.reach_bits(e) | row).bit_count()] = e
        if None not in seq and _chains_hold(*_ranked(g, seq)):
            return ConjugacyReport(()), tuple(seq)
    pairs = (f"pair ({ids[i]}, {ids[j]}) is related "
             f"{sum(x >> j & 1 for x in rows[i])} times, expected exactly once"
             for i, row in enumerate(bad) for j in _members(row))
    n_triples, escaping = _intransitive(out)
    triples = (f"({ids[i]}, {ids[j]}) and ({ids[j]}, {ids[k]}) without ({ids[i]}, {ids[k]})"
               for i, j, k in _triples(out, escaping, ids.__getitem__))
    return ConjugacyReport(chain(pairs, triples), sum(map(int.bit_count, bad)) + n_triples), ()


def _unknown_or_reflexive(rel, ix: dict[str, int]) -> ConjugacyReport:
    """The members of ``rel`` that are not a hashable tuple of two distinct
    known edges, each once: pairs of strings sorted, then the rest by repr."""
    problems = set()
    for member in rel:
        try:
            hash(member)
            a, b = member if isinstance(member, tuple) else ()
            known = a in ix and b in ix
        except (TypeError, ValueError):
            problems.add(((1, repr(member)), f"{member!r} is not a pair of edge ids"))
            continue
        key = (0, (a, b)) if type(a) is str and type(b) is str else (1, repr(member))
        if not known:
            problems.add((key, f"({a}, {b}) names an unknown edge"))
        elif a == b:
            problems.add((key, f"({a}, {a}) is reflexive"))
    return ConjugacyReport([text for _, text in sorted(problems)])


def check_conjugacy(g: ProgressiveGraph, rel) -> ConjugacyReport:
    """Is ``rel`` a conjugate order for g?

    Required: irreflexive; transitive; and together with strict reachability
    it relates every unordered pair of distinct edges exactly once.  Counts
    every witness rather than stopping at the first, and reports the first
    SHOWN of them; a value that is not iterable is one problem.
    """
    return _conjugacy_problems(g, rel)[0]


def order_from_conjugate(g: ProgressiveGraph, rel) -> PlanarOrder:
    """Rebuild the planar order whose conjugate is ``rel``.

    A relation that passes :func:`check_conjugacy` has as its union with
    strict reachability a planar order (betweenness is its transitivity), in
    which the edge with the most successors comes first.  The check itself
    places the edges that way and accepts only when no two share a place
    and the ranking passes the chain check, so the order is what the check
    accepted; a member that is not a hashable tuple of two edge ids, or a
    value that is not iterable, is a problem like any other, raised as
    NotConjugate with the report's problems and total.
    """
    report, seq = _conjugacy_problems(g, rel)
    if not report:
        raise NotConjugate(report.problems, report.total)
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

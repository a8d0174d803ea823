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
edge.  A relation that does so and is transitive is the conjugate of the
planar order its union with reachability makes, so the two presentations
are interchangeable.  Both directions run in C-level passes over the
pairs: the conjugate is written by selecting each row's members with
``itertools.compress`` (``_pairs``), and a set that is a conjugate is
accepted by placing each edge by its reach and its out-degree in the set,
then checking the placement by the chain check and the set by membership
of the placement's own pairs; only a relation that is no conjugate has
rows of its own built, to report its problems.  One helper
counts the intransitive triples of a set of rows and one lists them: the
count decides a relation and counts the betweenness violations of an order
the chain check refuses, and a refusal of either again builds the first
SHOWN witnesses and counts the rest.  ``order_violations`` still lists
every violation.  The test suite checks all of this against definitional
pair and triple scans.

An ordered graph reads its local data (vertex orders and anchor) off its
order in one walk, once, and its ordered boundary is the anchor.  The
interval partition that composition shuffles by locates each edge relative
to it: after the last input that reaches it, and before the first output.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .core import _NOT_IDS, ProgressiveGraph
from .errors import (InvalidPlanarOrder, NotAPermutation, NotConjugate, PpgError,
                     UnknownEdge, _expect_type, _first)


class PlanarOrder:
    """A total order on edge ids, with 1-based ranks.  Ids are strings: a
    value that is not iterable, a string or a set, a sequence with a repeat,
    or else one with a member that is not a string, raises NotAPermutation."""

    def __init__(self, sequence):
        # the ids, and the 0-based place of each
        self.sequence, self._index = _permutation(sequence)

    def rank(self, e: str) -> int:
        try:
            return self._index[e] + 1
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


class VertexOrder(NamedTuple):
    """Ordered incident edges of one internal vertex (left to right)."""
    incoming: tuple[str, ...]
    outgoing: tuple[str, ...]


class Anchor(NamedTuple):
    """Ordered boundary edges of the whole graph (left to right)."""
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


class POPGraph:
    """A progressive graph together with a validated planar order.

    Build via :func:`validate_planar_order`.  The constructor checks only
    that the order lists each edge of the graph once (NotAPermutation);
    planarity is :func:`validate_planar_order`'s.
    """

    def __init__(self, graph: ProgressiveGraph, order: PlanarOrder):
        self.graph = _expect_type(graph, "POPGraph", ProgressiveGraph)
        self.order = _expect_type(order, "POPGraph", PlanarOrder)
        if order._index.keys() != graph._eix.keys():
            raise _not_a_permutation(order.sequence, graph._eix.keys())

    def rank(self, e: str) -> int:
        return self.order.rank(e)

    @cached_property
    def _local(self) -> tuple[dict[str, VertexOrder], Anchor]:
        """The vertex orders and the anchor, unchecked: one walk appends each
        edge to the legs of its tail and of its head.  Kept, so every reader
        gets the same objects and treats them as read-only."""
        g = self.graph
        legs = {v: ([], []) for v in sorted(g.internal_vertices)}
        boundary = ([], [])  # one vertex for the rest: outputs come in, inputs go out
        for eid in self.order.sequence:
            e = g.edge(eid)
            legs.get(e.src, boundary)[1].append(eid)
            legs.get(e.dst, boundary)[0].append(eid)
        return ({v: VertexOrder(tuple(a), tuple(b)) for v, (a, b) in legs.items()},
                Anchor(tuple(boundary[1]), tuple(boundary[0])))

    def _conjugate(self) -> Iterator[tuple[str, str]]:
        """The pairs of the conjugate order, sorted by the ranks of both
        ends: read off the conjugate rows by rank, with no bytecode run per
        pair.  ``conjugate_order`` holds them as a set and ``ppg conjugate``
        prints them in this order."""
        return _pairs(self.order.sequence, _ranked(self.graph, self.order._index)[1])

    @property
    def inputs_ordered(self) -> tuple[str, ...]:
        return self._local[1].inputs

    @property
    def outputs_ordered(self) -> tuple[str, ...]:
        return self._local[1].outputs

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


def _permutation(seq, universe: Iterable[str] | None = None
                 ) -> tuple[tuple[str, ...], dict[str, int]]:
    """``seq`` as a tuple, and the 0-based place of each of its members,
    which must list each id of ``universe`` once, or with no universe be
    distinct strings; NotAPermutation otherwise.  A PlanarOrder gives its
    own, built once.  A value that is not iterable, a string or a set lists
    no id: it is the one extra member."""
    want = None if universe is None else set(universe)
    if isinstance(seq, PlanarOrder):
        seq, index = seq.sequence, seq._index
    else:
        try:
            if isinstance(seq, _NOT_IDS):
                raise TypeError
            seq = tuple(seq)
        except TypeError:
            raise NotAPermutation(tuple(sorted(want or (), key=_id_key)), (seq,), ()) from None
        try:
            index = {e: i for i, e in enumerate(seq)}
        except TypeError:  # an unhashable member
            index = {}
    if len(index) != len(seq) or want is not None and index.keys() != want:
        raise _not_a_permutation(seq, want)
    if want is None:
        try:
            "".join(seq)  # in one C pass, as repr shows the ids
        except TypeError:  # a member that is not a string, so no id
            raise _not_a_permutation(seq, {e for e in index if isinstance(e, str)}) from None
    return seq, index


def _members(bits: int):
    """The indexes of the set bits, low to high."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# the binary digits of bin() as bytes 0 and 1, which compress reads as flags
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _pairs(seq: tuple[str, ...], rows: list[int]) -> Iterator[tuple[str, str]]:
    """The pairs (seq[i], seq[j]) for each j in rows[i], row by row and j
    ascending.  Each row's binary digits, low bit first, select its members
    from ``seq`` in one ``compress`` pass, so no bytecode runs per pair."""
    return chain.from_iterable(
        zip(repeat(a), compress(seq, bin(row).encode()[:1:-1].translate(_DIGITS)))
        for a, row in zip(seq, rows) if row)


def _ranked(g: ProgressiveGraph, index: dict[str, int]) -> tuple[list[int], list[int]]:
    """Rows over the 0-based ranks of ``index``, which must place each edge
    of g once: per rank r, the ranks that edge r reaches (earlier ones break
    extension), and its conjugate row, the later ranks it does not reach."""
    reach = g._downstream(index)
    full = (1 << len(index)) - 1
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
    n_triples, escaping = _intransitive(conj)
    triples = ((seq[i], seq[j], seq[k]) for i, j, k in _triples(conj, escaping))
    return _pairs(seq, below), triples, sum(map(int.bit_count, below)), n_triples


def order_violations(g: ProgressiveGraph, sequence) -> tuple[list, list]:
    """Enumerate every violation of the two planar-order axioms.

    Returns (extension pairs, betweenness triples); the sequence must be a
    permutation of the edge set.  Pairs are (a, b) with a reaching b but
    ranked later; triples (a, b, c) are the intransitive triples of the
    conjugate rows: a reaches c and b relates to neither.  Both are read off
    the rank rows rank by rank, so they come out in sequence order.  These
    are the lists of which :class:`InvalidPlanarOrder` keeps the first SHOWN.
    """
    _expect_type(g, "order_violations", ProgressiveGraph)
    seq, index = _permutation(sequence, g.edge_ids)
    pairs, triples, _, _ = _witnesses(seq, *_ranked(g, index))
    return list(pairs), list(triples)


def validate_planar_order(g: ProgressiveGraph, sequence) -> POPGraph:
    """Check both axioms by the chain check on the rank rows; when it fails,
    raise InvalidPlanarOrder with the first SHOWN violations of each kind
    and their totals, read off the same rows.  A PlanarOrder is checked on
    its own index and kept."""
    _expect_type(g, "validate_planar_order", ProgressiveGraph)
    seq, index = _permutation(sequence, g.edge_ids)
    reach, conj = _ranked(g, index)
    if not _chains_hold(reach, conj):
        raise InvalidPlanarOrder(*_witnesses(seq, reach, conj))
    if not isinstance(sequence, PlanarOrder):
        sequence = PlanarOrder.__new__(PlanarOrder)
        sequence.sequence, sequence._index = seq, index
    return POPGraph(g, sequence)


def conjugate_order(pop: POPGraph) -> frozenset[tuple[str, str]]:
    """All pairs (a, b) with a before b in the order and a not reaching b.

    Transitive by the betweenness axiom; together with strict reachability it
    covers each unordered pair exactly once.
    """
    return frozenset(_expect_type(pop, "conjugate_order", POPGraph)._conjugate())


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

    A set is read as it is, anything else is copied into one.
    :func:`_conjugate_of` accepts every conjugate, with no row of ``rel``
    built.  Any other relation is refused: the rows of ``rel`` are built
    straight from its pairs, and only a relation with a member that is not
    a tuple of two distinct known edges is listed sorted.  The problems are
    the pairs that ``rel`` and reachability together do not relate exactly
    once and the intransitive triples of ``rel``, both counted by popcounts
    of the rows.  A relation refused here has at least one: irreflexive,
    transitive and relating each pair exactly once together with
    reachability, its union with reachability would be a linear order.  (If
    a <* b and b reaches c, then c <* a would give c <* b, and c reaching a
    would give b reaching a, each relating a pair twice; so a comes before
    c, and likewise when a reaches b and b <* c.)  That order extends
    reachability and its conjugate is ``rel``, which is transitive, so it
    would be planar and ``rel`` its conjugate.  The report builds the first
    SHOWN problems: the pairs not related exactly once by index, then the
    intransitive triples by the ids of their first two edges.
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
    seq = _conjugate_of(g, rel)
    if seq is not None:
        return ConjugacyReport(()), seq
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
    n_triples, escaping = _intransitive(out)
    pairs = (f"pair ({ids[i]}, {ids[j]}) is related "
             f"{sum(x >> j & 1 for x in rows[i])} times, expected exactly once"
             for i, row in enumerate(bad) for j in _members(row))
    triples = (f"({ids[i]}, {ids[j]}) and ({ids[j]}, {ids[k]}) without ({ids[i]}, {ids[k]})"
               for i, j, k in _triples(out, escaping, ids.__getitem__))
    return ConjugacyReport(chain(pairs, triples), sum(map(int.bit_count, bad)) + n_triples), ()


def _conjugate_of(g: ProgressiveGraph, rel: set | frozenset) -> tuple[str, ...] | None:
    """The planar order whose conjugate the set ``rel`` is, read off in
    C-level passes over its pairs; None when ``rel`` is no conjugate.

    The edges after e in such an order are those e reaches and those it
    precedes in ``rel``, so e takes its place by how many there are: the
    out-degrees in ``rel`` are counted by their first members.  The
    placement must be a permutation that passes the chain check, and
    ``rel`` must hold exactly its conjugate pairs, as many of them and each
    one found by membership; then ``rel`` is the conjugate of a planar
    order, which it determines.  Every conjugate passes, since it places
    each edge where its order does.
    """
    m = len(g.edge_ids)
    if len(rel) != m * (m - 1) // 2 - sum(map(int.bit_count, g._ereach)):
        return None
    try:
        outdeg = Counter(map(itemgetter(0), rel))
    except (TypeError, IndexError):  # a member that is no pair
        return None
    seq = [None] * m
    for e, row in zip(g.edge_ids, g._ereach):
        k = row.bit_count() + outdeg[e]
        if k >= m or seq[~k] is not None:
            return None
        seq[~k] = e
    reach, conj = _ranked(g, dict(zip(seq, range(m))))
    if _chains_hold(reach, conj) and rel.issuperset(_pairs(seq, conj)):
        return tuple(seq)
    return None


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
    return _conjugacy_problems(_expect_type(g, "check_conjugacy", ProgressiveGraph), rel)[0]


def order_from_conjugate(g: ProgressiveGraph, rel) -> PlanarOrder:
    """Rebuild the planar order whose conjugate is ``rel``.

    A relation that passes :func:`check_conjugacy` has as its union with
    strict reachability a planar order (betweenness is its transitivity), in
    which the edge with the most successors comes first; the check places
    the edges that way as it accepts.  A member that is not a hashable
    tuple of two edge ids, or a value that is not iterable, is a problem
    like any other, raised as NotConjugate with the report's problems and
    total.
    """
    report, seq = _conjugacy_problems(
        _expect_type(g, "order_from_conjugate", ProgressiveGraph), rel)
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
    g = _expect_type(pop, "interval_partition", POPGraph).graph
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

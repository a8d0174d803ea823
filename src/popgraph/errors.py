"""Exception types shared across the package.

Every failure the library can report deliberately is a ``PpgError``; anything
else escaping the public API is a bug.  The CLI maps these onto exit codes
(see cli.py), which is why the taxonomy is flat and explicit.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable

SHOWN = 20  # witnesses a message lists before it counts the rest


def _capped(items: Iterable[str], total: int, sep: str = "; ") -> str:
    """The first SHOWN of ``total`` items joined by ``sep``, then a count of
    the rest, so that a message stays short however many witnesses there
    are."""
    text = sep.join(islice(items, SHOWN))
    if total > SHOWN:
        text += f"{sep}... and {total - SHOWN} more ({total} in all)"
    return text


class PpgError(Exception):
    """Base class for all deliberate failures raised by this package."""


class DuplicateId(PpgError):
    def __init__(self, kind: str, name: str):
        super().__init__(f"duplicate {kind} id {name!r}")
        self.kind = kind
        self.name = name


class UnknownEdge(PpgError):
    def __init__(self, name: str):
        super().__init__(f"unknown edge id {name!r}")
        self.name = name


class UnknownVertex(PpgError):
    def __init__(self, name: str):
        super().__init__(f"unknown vertex id {name!r}")
        self.name = name


class CycleDetected(PpgError):
    """The directed graph is not acyclic.  ``cycle`` is a witness vertex
    loop, its first vertex repeated at the end; the message lists a loop of
    at most SHOWN vertices in full, and the first SHOWN of a longer one."""

    def __init__(self, cycle: tuple[str, ...]):
        n = len(cycle) - 1  # vertices on the loop
        text = " -> ".join(cycle) if n <= SHOWN else _capped(cycle, n, " -> ")
        super().__init__("directed cycle: " + text)
        self.cycle = cycle


class BadBoundaryDegree(PpgError):
    """A source or sink vertex has degree other than one, or, with
    ``declared``, is a source or sink other than the declared one."""

    def __init__(self, vertex: str, kind: str, degree: int, declared: str | None = None):
        if declared is None:
            super().__init__(f"{kind} vertex {vertex!r} has degree {degree}, expected 1")
        else:
            side = "in" if kind == "source" else "out"
            super().__init__(f"vertex {vertex!r} has no {side}-edge and is not "
                             f"the declared {kind} {declared!r}")
        self.vertex = vertex
        self.kind = kind
        self.degree = degree


class ReservedVertexName(PpgError):
    """A fresh vertex name required by a construction is already taken."""

    def __init__(self, name: str):
        super().__init__(f"vertex id {name!r} is reserved by this construction")
        self.name = name


def _first(items: Iterable, total: int | None) -> tuple[tuple, int]:
    """The first SHOWN of ``items`` and their total: ``total`` when given
    (then only SHOWN items are drawn), else the number of items."""
    if total is None:
        items = tuple(items)
        return items[:SHOWN], len(items)
    return tuple(islice(items, SHOWN)), total


def _shown(name) -> str:
    """An id as a message shows it: a string as it is, anything else by repr."""
    return name if isinstance(name, str) else repr(name)


def _expect_type(value, where: str, *types: type):
    """``value``, when it is an instance of one of ``types``; otherwise a
    PpgError saying what ``where`` expects and naming the type given."""
    if not isinstance(value, types):
        expected = " or ".join("None" if t is type(None) else t.__name__ for t in types)
        raise PpgError(f"{where} expects {expected}, not {type(value).__name__}")
    return value


def _expect_count(value, what: str, least: int = 0) -> None:
    """PpgError unless ``value`` is an int of ``least`` or more; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PpgError(f"{what} must be an int, not {type(value).__name__}")
    if value < least:
        raise PpgError(f"{what} must be {least} or more, not {value}")


class NotAPermutation(PpgError):
    """A sequence that must list each edge exactly once does not.  The
    attributes list every id; the message shows the first SHOWN of each."""

    def __init__(self, missing: tuple[str, ...], extra: tuple[str, ...],
                 duplicated: tuple[str, ...]):
        parts = [f"{kind} {_capped(map(_shown, ids), len(ids), ' ')}"
                 for kind, ids in (("missing", missing), ("extra", extra),
                                   ("duplicated", duplicated)) if ids]
        super().__init__("not a permutation of the edge set: " + "; ".join(parts))
        self.missing = missing
        self.extra = extra
        self.duplicated = duplicated


class InvalidPlanarOrder(PpgError):
    """A total order on the edges fails one of the two planar-order axioms.

    ``extension_violations`` lists pairs (a, b) where a reaches b but the
    order puts b first (the order fails to extend edge precedence).
    ``betweenness_violations`` lists triples (a, b, c), increasing in the
    order, where a reaches c but b is reachability-unrelated to both, i.e.
    an unrelated edge sits between the endpoints of a precedence pair.
    Each keeps the first SHOWN violations of its kind, in sequence order;
    ``extension_total`` and ``betweenness_total`` count them all (by
    default, the length of the iterable given).  The message shows the
    first SHOWN of both and the total.
    """

    def __init__(self, extension_violations, betweenness_violations,
                 extension_total: int | None = None, betweenness_total: int | None = None):
        self.extension_violations, self.extension_total = _first(
            extension_violations, extension_total)
        self.betweenness_violations, self.betweenness_total = _first(
            betweenness_violations, betweenness_total)
        bits = chain(
            (f"{b} precedes {a} although {a} reaches {b}"
             for a, b in self.extension_violations),
            (f"{b} sits between {a} and {c} but relates to neither"
             for a, b, c in self.betweenness_violations))
        total = self.extension_total + self.betweenness_total
        super().__init__("not a planar order: " + _capped(bits, total))


class NotConjugate(PpgError):
    """A relation is not the conjugate order of any planar order.
    ``problems`` keeps the first SHOWN witnesses and ``total`` counts them
    all (by default, the length of the iterable given); the message shows
    the first SHOWN."""

    def __init__(self, problems: Iterable[str], total: int | None = None):
        self.problems, self.total = _first(problems, total)
        super().__init__("not a conjugate order: " + _capped(self.problems, self.total))


class ArityMismatch(PpgError):
    """Composition requires output arity of the first factor to equal input
    arity of the second."""

    def __init__(self, outputs: int, inputs: int):
        super().__init__(f"cannot glue {outputs} outputs onto {inputs} inputs")
        self.outputs = outputs
        self.inputs = inputs


class NoInternalVertex(PpgError):
    def __init__(self):
        super().__init__("graph has no internal vertex to split off")


class NoConsistentOrder(PpgError):
    """Synthesis failed: no planar order realizes the given vertex orders and
    boundary anchors.  ``witnesses`` keeps the first SHOWN human-readable
    conflict reports and ``total`` counts them all (by default, the length
    of the iterable given); the message shows the first SHOWN."""

    def __init__(self, witnesses: Iterable[str], total: int | None = None):
        self.witnesses, self.total = _first(witnesses, total)
        super().__init__("no consistent planar order: " + _capped(self.witnesses, self.total))


class TooLarge(PpgError):
    """Enumeration stopped: the search passed its bound on search states,
    ``what`` it counts (the prefixes a listing searched, or the placed sets
    a count remembered)."""

    def __init__(self, what: str, bound: int):
        super().__init__(f"enumeration bound passed: more than {bound} {what}; "
                         "force to override")
        self.what = what
        self.bound = bound


class ParseError(PpgError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UsageError(PpgError):
    """Command-line usage problem (bad flags, wrong arity of arguments)."""

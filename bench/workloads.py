"""Seeded corpora, operations and answer checks for the four workloads.

Every input is generated from the workload seed through the package's public
builders (plus the fixed fixtures under ``tests/fixtures``), and every input
comes with its known answer.  An :class:`Item` bundles one input with the
operation the benchmark times and the check it runs afterwards, outside the
timed section.

Layered graphs follow the ROADMAP recipe (an elementary layer of width W,
then L-1 more layers composed below it), with pins that keep seeds from
changing the size of the work: each layer's output count stays within one
of W, and the whole graph must land in fixed windows of edges, internal
vertices and, for drawn shapes, layout segments.  Seeds therefore vary the
structure of the graphs, not their size.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random
import xml.etree.ElementTree as ET
from bisect import bisect_right
from pathlib import Path
from typing import Any, Callable

import popgraph as pg
from popgraph import cli

FIXTURES = ("canonical19.ppg", "layer_top.ppg", "layer_mid.ppg", "layer_bot.ppg")

# (layers, width) -> accepted windows on the edge count, the internal vertex
# count and, for the small shapes that are drawn and checked, the number of
# route segments in the layout (the exact checker's work grows with its
# square).
SHAPES = {
    (6, 10): {"m": (50, 62), "internal": (23, 25)},
    (8, 12): {"m": (76, 88), "internal": (35, 37)},
    (10, 12): {"m": (92, 106), "internal": (44, 46)},
    (8, 16): {"m": (102, 118), "internal": (48, 50)},
    (16, 8): {"m": (94, 110), "internal": (48, 51)},
    (3, 6): {"m": (17, 23), "internal": (6, 8), "segments": (54, 64)},
    (4, 6): {"m": (22, 28), "internal": (9, 10), "segments": (74, 86)},
    (5, 6): {"m": (28, 34), "internal": (12, 13), "segments": (100, 116)},
    (4, 8): {"m": (30, 36), "internal": (12, 14), "segments": (130, 150)},
}

RENDER_VARIANTS = (("svg", ".svg", ()), ("tikz", ".tex", ()),
                   ("st", ".svg", ("--st",)), ("up", ".svg", ("--up",)))


@dataclasses.dataclass
class Item:
    """One input: the timed operation and the untimed check of its outcome.

    ``op`` takes the pass number and returns the outcome; ``check`` takes the
    outcome (an exception, if the op raised) and returns None when the answer
    is right, else a one-line reason.  ``pop`` is the graph the input was made
    from, for the manifest; ``digest_text`` is what the corpus digest hashes;
    ``files`` counts the files one op writes.
    """
    name: str
    edges: int
    op: Callable[[int], Any]
    check: Callable[[Any], str | None]
    digest_text: str
    pop: pg.POPGraph | None = None
    files: int = 0


# -- generators -----------------------------------------------------------

def _layer(rng: random.Random, tag: str, n_inputs: int, width: int) -> pg.POPGraph:
    while True:
        lay = pg.random_elementary_layer(rng, tag, n_inputs=n_inputs)
        if abs(len(lay.graph.outputs) - width) <= 1:
            return lay


def _size(pop: pg.POPGraph, key: str) -> int:
    if key == "m":
        return len(pop.graph.edges)
    if key == "internal":
        return len(pop.graph.internal_vertices)
    return sum(len(pts) - 1 for pts in pg.layout(pop).routes.values())


def layered(rng: random.Random, layers: int, width: int) -> pg.POPGraph:
    """A layered graph of the given shape that lands in all its windows."""
    window = SHAPES[(layers, width)]
    while True:
        pop = _layer(rng, "L0.", width, width)
        for k in range(1, layers):
            pop = pg.compose(pop, _layer(rng, f"L{k}.", len(pop.graph.outputs), width))
        if all(lo <= _size(pop, key) <= hi for key, (lo, hi) in window.items()):
            return pop


def path(k: int) -> pg.POPGraph:
    """k edges in a row: the single-order extreme, one factor per edge but one."""
    edges = [pg.Edge(f"p{i}", f"v{i}", f"v{i + 1}") for i in range(k)]
    g = pg.validate_progressive(pg.DirectedMultigraph(edges))
    return pg.validate_planar_order(g, [e.id for e in edges])


def fixture_text(root: Path, name: str) -> str:
    return (root / "tests" / "fixtures" / name).read_text(encoding="utf-8")


def without_order(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("order "))


def with_order(pop: pg.POPGraph, sequence) -> str:
    return without_order(pg.emit_ppg(pop)) + "order " + " ".join(sequence) + "\n"


def _write(workdir: Path, name: str, text: str) -> Path:
    p = workdir / name
    p.write_text(text, encoding="utf-8")
    return p


def _expect_ok(outcome) -> str | None:
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {str(outcome)[:120]}"
    return None


# -- synthesize -----------------------------------------------------------

def synthesize_op(text: str):
    """``ppg order`` plus the conjugate round trip, on one .ppg text."""
    doc = pg.parse_ppg(text)
    order = pg.synthesize_order(doc.pa())
    pop = pg.validate_planar_order(doc.graph, order.sequence)
    back = pg.order_from_conjugate(doc.graph, pg.conjugate_order(pop))
    return order.sequence, back.sequence


def _synthesize_item(workdir: Path, name: str, text: str, want: tuple[str, ...],
                     pop: pg.POPGraph | None) -> Item:
    text = without_order(text)
    _write(workdir, name + ".ppg", text)

    def check(outcome):
        bad = _expect_ok(outcome)
        if bad:
            return bad
        synthesized, round_trip = outcome
        if synthesized != want:
            return "synthesized order differs from the generator's order"
        if round_trip != want:
            return "conjugate round trip differs from the generator's order"
        return None

    return Item(name, len(want), lambda _pass: synthesize_op(text), check, text, pop)


def synthesize_corpus(rng: random.Random, root: Path, workdir: Path) -> list[Item]:
    items = []
    for name in FIXTURES:
        text = fixture_text(root, name)
        pop = pg.parse_ppg(text).pop()
        items.append(_synthesize_item(workdir, name[:-4], text, pop.order.sequence, pop))
    shapes = [(6, 10)] * 11 + [(8, 12)] * 6 + [(10, 12)] * 3 + [(8, 16)] * 3
    for k, (layers, width) in enumerate(shapes):
        pop = layered(rng, layers, width)
        items.append(_synthesize_item(workdir, f"layered{layers}x{width}_{k}",
                                      pg.emit_ppg(pop), pop.order.sequence, pop))
    for p, q in ((24, 24), (32, 32)):
        pop = pg.spider(p, q)
        items.append(_synthesize_item(workdir, f"spider{p}_{q}", pg.emit_ppg(pop),
                                      pop.order.sequence, pop))
    return items


# -- draw -----------------------------------------------------------------

def _render_check(text: str, fmt: str, pop: pg.POPGraph, st: bool) -> str | None:
    m = len(pop.graph.edges)
    vertices = len(pop.graph.internal_vertices) + (2 if st else 0)
    if fmt == "tikz":
        arrows, dots = text.count(r"\draw[->]"), text.count(r"\filldraw")
        if (arrows, dots) != (m, vertices):
            return f"tikz has {arrows} arrows and {dots} vertices, want {m} and {vertices}"
        return None
    svg = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    paths = len(svg.findall(ns + "path"))
    circles = len(svg.findall(ns + "circle"))
    if (paths, circles) != (m, vertices):
        return f"svg has {paths} paths and {circles} circles, want {m} and {vertices}"
    return None


def _decompose_check(outdir: Path, pop: pg.POPGraph) -> str | None:
    lines = (outdir / "manifest.txt").read_text(encoding="utf-8").splitlines()
    names = [line.split()[2] for line in lines if line.startswith("factor ")]
    want = max(1, len(pop.graph.internal_vertices))
    if len(names) != want:
        return f"{len(names)} factors, want one per internal vertex ({want})"
    factors = [pg.parse_ppg((outdir / n).read_text(encoding="utf-8")).pop() for n in names]
    if pg.recompose(factors) != pop:
        return "recomposed factors differ from the source graph"
    return None


def _tree_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _draw_items(workdir: Path, index: int, name: str, pop: pg.POPGraph,
                text: str | None = None) -> list[Item]:
    """``ppg render`` (svg, tikz, --st and --up in turn) and ``ppg decompose``
    on one input file, as two ops."""
    text = text if text is not None else pg.emit_ppg(pop)
    src = str(_write(workdir, name + ".ppg", text))
    outdir = workdir / (name + ".factors")
    verified: set[tuple[str, str]] = set()

    def variant(pass_no: int):
        return RENDER_VARIANTS[(pass_no + index) % len(RENDER_VARIANTS)]

    def cli_main(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def render(pass_no: int):
        fmt, ext, flags = variant(pass_no)
        return pass_no, cli_main(["render", src, "-o", str(workdir / (name + ext)), *flags])

    def check_render(outcome):
        bad = _expect_ok(outcome)
        if bad:
            return bad
        pass_no, code = outcome
        if code != 0:
            return f"ppg render exited with {code}"
        fmt, ext, flags = variant(pass_no)
        out = workdir / (name + ext)
        key = (fmt, _tree_digest([out]))
        if key not in verified:
            why = _render_check(out.read_text(encoding="utf-8"), fmt, pop, "--st" in flags)
            if why:
                return why
            verified.add(key)
        return None

    def check_decompose(outcome):
        bad = _expect_ok(outcome)
        if bad:
            return bad
        if outcome != 0:
            return f"ppg decompose exited with {outcome}"
        key = ("decompose", _tree_digest(sorted(outdir.iterdir())))
        if key not in verified:
            why = _decompose_check(outdir, pop)
            if why:
                return why
            verified.add(key)
        return None

    m = len(pop.graph.edges)
    # decompose writes one file per factor and the manifest
    factor_files = max(1, len(pop.graph.internal_vertices)) + 1
    return [
        Item("render:" + name, m, render, check_render, text, pop, 1),
        Item("decompose:" + name, m,
             lambda _pass: cli_main(["decompose", src, "-o", str(outdir)]),
             check_decompose, "", None, factor_files),
    ]


def draw_corpus(rng: random.Random, root: Path, workdir: Path) -> list[Item]:
    inputs: list[tuple[str, pg.POPGraph, str | None]] = []
    for name in FIXTURES:
        text = fixture_text(root, name)
        inputs.append((name[:-4], pg.parse_ppg(text).pop(), text))
    for k in range(9):
        inputs.append((f"layered16x8_{k}", layered(rng, 16, 8), None))
    for k in (150, 160, 170, 250):
        inputs.append((f"path{k}", path(k), None))
    return [item for i, (name, pop, text) in enumerate(inputs)
            for item in _draw_items(workdir, i, name, pop, text)]


# -- verify ---------------------------------------------------------------

def drawing_op(pop: pg.POPGraph):
    d = pg.layout(pop)
    return pg.check_drawing(d), pg.read_back(d, pop.graph)


def _drawing_item(name: str, pop: pg.POPGraph) -> Item:
    want = pg.extract_pa(pop)

    def check(outcome):
        bad = _expect_ok(outcome)
        if bad:
            return bad
        report, pa = outcome
        if not report.ok or report.problems:
            return "check_drawing rejects the layout: " + "; ".join(report.problems[:3])
        if pa != want:
            return "read_back differs from extract_pa"
        return None

    return Item(name, len(pop.graph.edges), lambda _pass: drawing_op(pop), check,
                pg.emit_ppg(pop), pop)


def _count_item(name: str, pop: pg.POPGraph, want: int) -> Item:
    g = pop.graph

    def check(outcome):
        bad = _expect_ok(outcome)
        if bad:
            return bad
        return None if outcome == want else f"counted {outcome} orders, want {want}"

    return Item(name, len(g.edges), lambda _pass: pg.count_planar_orders(g, force=True),
                check, pg.emit_ppg(pop), pop)


def verify_corpus(rng: random.Random, root: Path, workdir: Path) -> list[Item]:
    items = [
        _count_item("count_bare7", pg.bare_edges(7), math.factorial(7)),
        _count_item("count_spider4_4", pg.spider(4, 4), math.factorial(4) ** 2),
        _count_item("count_spider3_5", pg.spider(3, 5), math.factorial(3) * math.factorial(5)),
        _count_item("count_path200", path(200), 1),
    ]
    shapes = [(3, 6)] * 6 + [(4, 6)] * 14 + [(5, 6)] * 3 + [(4, 8)] * 7
    for k, (layers, width) in enumerate(shapes):
        items.append(_drawing_item(f"draw{layers}x{width}_{k}", layered(rng, layers, width)))
    for item in items:
        _write(workdir, item.name + ".ppg", item.digest_text)
    return items


# -- reject ---------------------------------------------------------------

def _raises(expected: type, pair: tuple[str, str] | None = None):
    """Check that the op raised ``expected``, naming ``pair`` if one was planted."""
    def check(outcome):
        if not isinstance(outcome, expected):
            got = type(outcome).__name__ if isinstance(outcome, BaseException) else "a result"
            return f"expected {expected.__name__}, got {got}"
        if pair is not None and pair not in outcome.extension_violations:
            return f"planted pair {pair} is not among the violations"
        return None
    return check


def _parse_item(workdir: Path, name: str, text: str, edges: int, check,
                pop: pg.POPGraph | None = None) -> Item:
    _write(workdir, name + ".ppg", text)
    return Item(name, edges, lambda _pass: pg.parse_ppg(text), check, text, pop)


def _local_conflict(rng: random.Random, pop: pg.POPGraph) -> str | None:
    """Local data in which one edge pair is ordered both ways, or None when
    no pair of ``pop`` shares two local lists.

    The pair shares two local lists (the anchor and a vertex order, or two
    vertex orders); reversing it in one of them leaves data that no planar
    order reproduces.
    """
    pa = pg.extract_pa(pop)
    g = pop.graph
    choices = []  # (vertex, side, a, b)
    for v, vo in sorted(pa.vertex_orders.items()):
        for side, legs in (("in", vo.incoming), ("out", vo.outgoing)):
            for a, b in zip(legs, legs[1:]):
                shared = (
                    (side == "in" and a in g.inputs and b in g.inputs)
                    or (side == "out" and a in g.outputs and b in g.outputs)
                    or (side == "in" and g.edge(a).src == g.edge(b).src)
                    or (side == "out" and g.edge(a).dst == g.edge(b).dst))
                if shared:
                    choices.append((v, side, a, b))
    if not choices:
        return None
    v, side, a, b = rng.choice(choices)
    vo = pa.vertex_orders[v]
    legs = list(vo.incoming if side == "in" else vo.outgoing)
    i = legs.index(a)
    legs[i], legs[i + 1] = b, a
    orders = dict(pa.vertex_orders)
    orders[v] = (pg.VertexOrder(tuple(legs), vo.outgoing) if side == "in"
                 else pg.VertexOrder(vo.incoming, tuple(legs)))
    return pg.emit_ppg(pg.PAGraph(g, orders, pa.anchor))


def _swap_in_drawing(rng: random.Random, pop: pg.POPGraph):
    """The layout of ``pop`` with two adjacent pass-through edges swapped in x
    on one interior line, or None when the drawing has no such pair."""
    d = pg.layout(pop)
    at: dict[int, dict[str, int]] = {}  # line -> edge -> point index
    for e, pts in d.routes.items():
        for i, (x, y) in enumerate(pts):
            if y.denominator == 1:  # vertices sit at half-integer y
                at.setdefault(int(y), {})[e] = i
    choices = []
    for k in range(1, len(d.bands)):
        row = sorted(at.get(k, {}), key=lambda e: d.routes[e][at[k][e]][0])
        for a, b in zip(row, row[1:]):
            through = all(k - 1 in at and k + 1 in at and e in at[k - 1] and e in at[k + 1]
                          for e in (a, b))
            if through:
                choices.append((k, a, b))
    if not choices:
        return None
    k, a, b = rng.choice(choices)
    routes = dict(d.routes)
    ia, ib = at[k][a], at[k][b]
    pa_, pb_ = routes[a][ia], routes[b][ib]
    routes[a] = routes[a][:ia] + ((pb_[0], pa_[1]),) + routes[a][ia + 1:]
    routes[b] = routes[b][:ib] + ((pa_[0], pb_[1]),) + routes[b][ib + 1:]
    return dataclasses.replace(d, routes=routes), (a, b)


def _drawing_reject_item(name: str, drawing, pair: tuple[str, str]) -> Item:
    a, b = pair
    named = (f"routes {a} and {b} cross", f"routes {b} and {a} cross")

    def check(outcome):
        bad = _expect_ok(outcome)
        if bad:
            return bad
        if outcome.ok:
            return "check_drawing accepts a drawing with a planted crossing"
        if not any(p.startswith(named) for p in outcome.problems):
            return f"planted crossing of {a} and {b} is not reported"
        return None

    text = repr(sorted(drawing.routes.items()))
    return Item(name, len(drawing.routes), lambda _pass: pg.check_drawing(drawing),
                check, text)


MALFORMED = (
    ("bad_header", "ppg 2\nedge a s t\n", pg.ParseError),
    ("unknown_directive", "ppg 1\nedge a s t\nlabel a x\n", pg.ParseError),
    ("short_edge", "ppg 1\nedge a s\n", pg.ParseError),
    ("undeclared_in_order", "ppg 1\nedge a s t\norder a b\n", pg.ParseError),
)


def _cycle_text(rng: random.Random, k: int) -> str:
    """A path s -> v0 -> ... -> v{k-1} -> t with one edge leading back."""
    lines = ["ppg 1", "edge in s v0"]
    lines += [f"edge c{i} v{i} v{i + 1}" for i in range(k - 1)]
    j = rng.randrange(k - 1)
    lines += [f"edge back v{k - 1} v{j}", f"edge out v{k - 1} t"]
    return "\n".join(lines) + "\n"


def reject_corpus(rng: random.Random, root: Path, workdir: Path) -> list[Item]:
    items = []
    order_shapes = [(6, 10), (8, 12), (10, 12), (8, 16), (16, 8)] * 2
    for k, (layers, width) in enumerate(order_shapes):
        pop = layered(rng, layers, width)
        seq = list(pop.order.sequence)
        m = len(seq)
        items.append(_parse_item(workdir, f"reversed{layers}x{width}_{k}",
                                 with_order(pop, reversed(seq)), m,
                                 _raises(pg.InvalidPlanarOrder), pop))
        g = pop.graph
        i = rng.choice([i for i in range(m - 1) if g.strictly_reaches(seq[i], seq[i + 1])])
        pair = (seq[i], seq[i + 1])
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        items.append(_parse_item(workdir, f"swapped{layers}x{width}_{k}",
                                 with_order(pop, seq), m,
                                 _raises(pg.InvalidPlanarOrder, pair), pop))
    pop = path(150)
    items.append(_parse_item(workdir, "reversed_path150",
                             with_order(pop, reversed(pop.order.sequence)), 150,
                             _raises(pg.InvalidPlanarOrder), pop))

    def synthesize(text: str):
        return lambda _pass: pg.synthesize_order(pg.parse_ppg(text).pa())

    for k, (layers, width) in enumerate([(6, 10)] * 4 + [(8, 12)] * 3):
        while True:
            pop = layered(rng, layers, width)
            text = _local_conflict(rng, pop)
            if text:
                break
        name = f"conflict{layers}x{width}_{k}"
        _write(workdir, name + ".ppg", text)
        items.append(Item(name, len(pop.graph.edges), synthesize(text),
                          _raises(pg.NoConsistentOrder), text, pop))

    for k, (layers, width) in enumerate([(4, 6)] * 5 + [(5, 6)] * 4):
        while True:
            pop = layered(rng, layers, width)
            planted = _swap_in_drawing(rng, pop)
            if planted:
                break
        drawing, pair = planted
        item = _drawing_reject_item(f"crossing{layers}x{width}_{k}", drawing, pair)
        item.pop = pop
        items.append(item)

    for k in range(3):
        text = _cycle_text(rng, 8 + 4 * k)
        items.append(_parse_item(workdir, f"cycle_{k}", text, text.count("\nedge "),
                                 _raises(pg.CycleDetected)))
    for name, text, expected in MALFORMED:
        items.append(_parse_item(workdir, name, text, max(1, text.count("\nedge ")),
                                 _raises(expected)))
    return items


CORPORA = {
    "synthesize": synthesize_corpus,
    "draw": draw_corpus,
    "verify": verify_corpus,
    "reject": reject_corpus,
}


def build(workload: str, seed: int, root: Path, workdir: Path) -> list[Item]:
    """The workload's inputs for ``seed``, with their files written to ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return CORPORA[workload](rng, root, workdir)


def digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.name.encode() + b"\0" + item.digest_text.encode() + b"\0")
    return h.hexdigest()


# -- manifest -------------------------------------------------------------

def y_overlap(d) -> tuple[int, int, int]:
    """(segments, segment pairs on distinct routes, those that overlap in y).

    These are the pairs the exact crossing checker compares; the overlapping
    ones are the pairs a y-sweep would still have to compare.
    """
    spans = []
    same_route_pairs = same_route_overlaps = 0
    for pts in d.routes.values():
        segs = [(min(a[1], b[1]), max(a[1], b[1])) for a, b in zip(pts, pts[1:])]
        spans += segs
        for i, (lo1, hi1) in enumerate(segs):
            for lo2, hi2 in segs[i + 1:]:
                same_route_pairs += 1
                same_route_overlaps += lo2 <= hi1 and lo1 <= hi2
    s = len(spans)
    los = sorted(lo for lo, _ in spans)
    disjoint = sum(s - bisect_right(los, hi) for _, hi in spans)
    overlapping = s * (s - 1) // 2 - disjoint
    return s, s * (s - 1) // 2 - same_route_pairs, overlapping - same_route_overlaps


def properties(item: Item) -> dict:
    """Per-input properties for the corpus manifest."""
    props: dict[str, Any] = {"name": item.name, "m": item.edges}
    if item.pop is None:
        return props
    d = pg.layout(item.pop)
    per_line: dict[int, int] = {}
    vertex_points = set(d.vertices.values())
    for pts in d.routes.values():
        for p in pts:
            if p[1].denominator == 1 and p not in vertex_points:
                per_line[int(p[1])] = per_line.get(int(p[1]), 0) + 1
    segments, pairs, overlapping = y_overlap(d)
    props.update(
        internal_vertices=len(item.pop.graph.internal_vertices),
        factors=len(d.bands),
        max_boundary_width=max(per_line.values()),
        segments=segments,
        y_overlap_share=round(overlapping / pairs, 4) if pairs else 0.0)
    return props

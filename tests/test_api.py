"""The public surface: what ``popgraph`` exports, and the type gate at it.

``__all__`` is an explicit list, so a name joins or leaves the package only
with an edit here too.  Every public callable refuses an int in place of
its graph, ordered graph, local data, drawing or text with a PpgError,
never an AttributeError or TypeError from inside; so do the drawing
checker, ``read_back`` and the renderers for a drawing with an int in any
one field they read, or a flow that is neither down nor up.  The callables are
walked from ``__all__``: one that takes none of these must be named in
``NOT_GATED``, and a parameter the walk cannot fill fails the test, so a
new public name cannot pass the gate unseen.  A graph refuses an edge id
that is no string, as a planar order refuses such a member.  A flag must be
a bool and a builder's count an int of 0 or more; the random builders take a
``random.Random``, and layer bounds and input counts they can build from.
"""

from __future__ import annotations

import __future__
import dataclasses
import inspect
import random
import types

import pytest

import popgraph as pg

PUBLIC = {
    "bare_edges", "generator_suite", "random_elementary_layer", "random_pop",
    "side_by_side", "spider", "theta", "two_level_tree",
    "ElementaryDecomposition", "compose", "decompose_step",
    "elementary_decomposition", "glue_table", "pop_isomorphic", "recompose",
    "DirectedMultigraph", "Edge", "ProgressiveGraph", "StGraph", "circ", "hat",
    "validate_progressive",
    "ArityMismatch", "BadBoundaryDegree", "CycleDetected", "DuplicateId",
    "InvalidPlanarOrder", "NoConsistentOrder", "NoInternalVertex",
    "NotAPermutation", "NotConjugate", "ParseError", "PpgError",
    "ReservedVertexName", "TooLarge", "UnknownEdge", "UnknownVertex", "UsageError",
    "Drawing", "DrawingReport", "check_drawing", "layout", "layout_st",
    "read_back", "render_svg", "render_tikz",
    "ConjugacyReport", "PlanarOrder", "POPGraph", "check_conjugacy",
    "conjugate_order", "interval_partition", "order_from_conjugate",
    "order_violations", "validate_planar_order",
    "PpgDocument", "emit_ppg", "emit_stg", "parse_ppg", "parse_stg",
    "Anchor", "Comparison", "EnumerationResult", "PAGraph", "VertexOrder",
    "compare_edges", "count_planar_orders", "enumerate_planar_orders",
    "extract_pa", "synthesize_order",
}

# helpers of the test suite, in tests/conftest.py
MOVED = ("is_elementary", "isomorphic_by_edges", "random_single_spider_layer")

# plain values (the exceptions are found by type), and builders that take
# counts, names or a random generator but no graph
NOT_GATED = {
    "Anchor", "Comparison", "ConjugacyReport", "Drawing", "DrawingReport", "Edge",
    "EnumerationResult", "VertexOrder",
    "bare_edges", "generator_suite", "random_elementary_layer", "random_pop",
    "spider", "theta", "two_level_tree",
}

# parameters that are no graph, local data, drawing or text; a relation
# that is not iterable is a problem check_conjugacy reports, not raises
NOT_DATA = {"force", "limit", "rel", "up"}


def _is_exception(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, BaseException)


GATED = sorted(name for name in pg.__all__ if name not in NOT_GATED
               and callable(getattr(pg, name)) and not _is_exception(getattr(pg, name)))

CASES = [(name, param) for name in GATED
         for param in inspect.signature(getattr(pg, name)).parameters
         if param not in NOT_DATA]


@pytest.fixture(scope="module")
def samples() -> dict[str, dict]:
    """Valid arguments by parameter name, and per callable the names that
    mean another type there."""
    pop = pg.two_level_tree()
    g = pop.graph
    pa = pg.extract_pa(pop)
    st = pg.hat(g)
    common = {
        "graph": g, "g": g, "p": g, "pop": pop, "a": pop, "b": pop, "first": pop,
        "second": pop, "left": pop, "right": pop, "doc": pop, "factors": [pop],
        "decomposition": pg.elementary_decomposition(pop), "pa": pa,
        "vertex_orders": pa.vertex_orders, "anchor": pa.anchor, "order": pop.order,
        "sequence": pop.order.sequence, "edges": g.edges, "d": pg.layout(pop),
        "st": st, "text": pg.emit_ppg(pop), "rotation": None, "source": "s",
        "sink": "t", "e1": "1", "e2": "2", "rel": pg.conjugate_order(pop),
    }
    return {
        "": common,
        "StGraph": {"graph": st},
        "parse_stg": {"text": pg.emit_stg(st)},
        "glue_table": {"second": pg.bare_edges(len(g.outputs))},
    }


def call(samples: dict[str, dict], name: str, given: str | None = None):
    """``pg.<name>`` on valid arguments, except an int for parameter ``given``."""
    fn = getattr(pg, name)
    values = {**samples[""], **samples.get(name, {})}
    args, kwargs = [], {}
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.VAR_POSITIONAL:
            args += [5] if p.name == given else values[p.name]
        elif p.name == given:
            kwargs[p.name] = 5
        elif p.default is p.empty:
            kwargs[p.name] = values[p.name]
    return fn(*args, **kwargs)


def test_all_is_the_public_surface():
    assert len(pg.__all__) == len(set(pg.__all__)) == len(PUBLIC) == 70
    assert set(pg.__all__) == PUBLIC
    for name in pg.__all__:
        obj = getattr(pg, name)
        assert not isinstance(obj, (types.ModuleType, __future__._Feature)), name


def test_test_helpers_left_the_package():
    for name in MOVED:
        assert not hasattr(pg, name), name
    assert "spider_slots" not in inspect.signature(pg.random_elementary_layer).parameters


def test_every_public_callable_is_gated_or_named():
    assert NOT_GATED <= set(pg.__all__)
    for name in pg.__all__:
        assert callable(getattr(pg, name)), name
    for name in GATED:
        assert any(n == name for n, _ in CASES), f"{name} takes no graph, data or text"


@pytest.mark.parametrize("name", GATED)
def test_valid_arguments_are_accepted(samples, name):
    call(samples, name)


@pytest.mark.parametrize("name, param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_an_int_is_refused_with_a_ppg_error(samples, name, param):
    with pytest.raises(pg.PpgError):
        call(samples, name, param)


# the fields of a Drawing that the checker, read_back or a renderer reads
DRAWING_FIELDS = ("flow", "box", "vertices", "routes", "inputs", "outputs", "st",
                  "source", "sink")


@pytest.mark.parametrize("field, value", [(f, 5) for f in DRAWING_FIELDS]
                         + [("flow", "sideways"), ("box", (0, 0, 1))],
                         ids=[*DRAWING_FIELDS, "flow-sideways", "box-three"])
def test_a_drawing_field_of_another_kind_is_refused(samples, field, value):
    d = dataclasses.replace(samples[""]["d"], **{field: value})
    g = samples[""]["g"]
    for check in (pg.check_drawing, pg.render_svg, pg.render_tikz,
                  lambda d: pg.read_back(d, g)):
        with pytest.raises(pg.PpgError, match=f"drawing {field} "):
            check(d)


@pytest.mark.parametrize("edges, bad", [([pg.Edge(1, "a", "b")], "1"),
                                        ([("e", "a", "b"), (2.5, "b", "c")], "2.5"),
                                        ([("e", "a", "b"), ((1, 2), "b", "c")], r"\(1, 2\)")],
                         ids=["int", "float", "tuple"])
def test_an_edge_id_that_is_no_string_is_refused(edges, bad):
    # a planar order refuses such a member, so the graph refuses the id
    with pytest.raises(pg.PpgError, match=f"^edge id {bad} is not a string$"):
        pg.DirectedMultigraph(edges)
    with pytest.raises(pg.NotAPermutation):
        pg.PlanarOrder([e[0] for e in edges])


def _bare(k):
    return pg.bare_edges(k).graph


# a flag read by truthiness would take "no" for True: 17! orders counted
# past the bound, a listing forced, a drawing turned upward
@pytest.mark.parametrize("call, name, value", [
    (lambda v: pg.count_planar_orders(_bare(17), force=v), "force", "no"),
    (lambda v: pg.count_planar_orders(_bare(2), force=v), "force", 0),
    (lambda v: pg.enumerate_planar_orders(_bare(2), force=v), "force", 1),
    (lambda v: pg.enumerate_planar_orders(_bare(2), 0, force=v), "force", None),
    (lambda v: pg.layout(pg.spider(1, 1), up=v), "up", "yes"),
    (lambda v: pg.layout_st(pg.spider(1, 1), up=v), "up", 1),
], ids=["count-str", "count-int", "enumerate-int", "enumerate-limit0-None",
        "layout-str", "layout_st-int"])
def test_a_flag_that_is_no_bool_is_refused(call, name, value):
    with pytest.raises(pg.PpgError, match=f"^{name} expects bool, not {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("call, name, value, message", [
    (pg.bare_edges, "k", 2.5, "an int, not float"),
    (pg.bare_edges, "k", True, "an int, not bool"),
    (pg.bare_edges, "k", -1, "0 or more, not -1"),
    (lambda v: pg.spider(v, 2), "p", "a", "an int, not str"),
    (lambda v: pg.spider(2, v), "q", -3, "0 or more, not -3"),
    (lambda v: pg.spider(2, v), "q", False, "an int, not bool"),
], ids=["bare-float", "bare-bool", "bare-negative", "spider-str", "spider-negative",
        "spider-bool"])
def test_a_count_that_is_no_int_of_0_or_more_is_refused(call, name, value, message):
    with pytest.raises(pg.PpgError, match=f"^{name} must be {message}$"):
        call(value)


def _layer(**kwargs):
    return pg.random_elementary_layer(kwargs.pop("rng", random.Random(0)), "t", **kwargs)


def _pop(**kwargs):
    return pg.random_pop(kwargs.pop("rng", random.Random(0)), **kwargs)


# a row of no inputs has no internal vertex, so random_pop(n_inputs=0) would
# draw rows forever; a bound or count of the wrong type would escape from
# inside the draw as a TypeError, ValueError or AttributeError
@pytest.mark.parametrize("call, kwargs, message", [
    (_pop, dict(n_inputs=0), "n_inputs must be 1 or more, not 0"),
    (_pop, dict(n_inputs=-1), "n_inputs must be 1 or more, not -1"),
    (_pop, dict(n_inputs="3"), "n_inputs must be an int, not str"),
    (_pop, dict(min_layers=3, max_layers=1), "max_layers must be 3 or more, not 1"),
    (_pop, dict(max_layers=0), "max_layers must be 1 or more, not 0"),
    (_pop, dict(min_layers=0), "min_layers must be 1 or more, not 0"),
    (_pop, dict(min_layers=None), "min_layers must be an int, not NoneType"),
    (_pop, dict(max_layers=2.0), "max_layers must be an int, not float"),
    (_pop, dict(rng=None), "random_pop expects Random, not NoneType"),
    (_pop, dict(rng=5), "random_pop expects Random, not int"),
    (_layer, dict(n_inputs="3"), "n_inputs must be an int, not str"),
    (_layer, dict(n_inputs=2.5), "n_inputs must be an int, not float"),
    (_layer, dict(n_inputs=-1), "n_inputs must be 0 or more, not -1"),
    (_layer, dict(rng=None), "random_elementary_layer expects Random, not NoneType"),
    (_layer, dict(rng=5), "random_elementary_layer expects Random, not int"),
], ids=["pop-inputs0", "pop-inputs-negative", "pop-inputs-str", "pop-bounds-crossed",
        "pop-max0", "pop-min0", "pop-min-None", "pop-max-float", "pop-rng-None",
        "pop-rng-int", "layer-inputs-str", "layer-inputs-float", "layer-inputs-negative",
        "layer-rng-None", "layer-rng-int"])
def test_a_random_builder_refuses_what_it_cannot_draw(call, kwargs, message):
    with pytest.raises(pg.PpgError, match=f"^{message}$"):
        call(**kwargs)


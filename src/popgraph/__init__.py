"""popgraph: the combinatorial calculus of planarly ordered progressive graphs.

Progressive graphs are acyclic directed multigraphs whose boundary vertices
have degree one; a planar order is a total order on the edges that encodes a
planar upward drawing purely combinatorially.  This package validates such
orders, computes their conjugates, composes and decomposes ordered graphs,
reconstructs orders from vertex-local data, enumerates all orders of small
graphs, and emits layered drawings as SVG or TikZ.
"""

from .build import (bare_edges, generator_suite, random_elementary_layer,
                    random_pop, side_by_side, spider, theta, two_level_tree)
from .composition import (ElementaryDecomposition, compose, decompose_step,
                          elementary_decomposition, glue_table, pop_isomorphic,
                          recompose)
from .core import (DirectedMultigraph, Edge, ProgressiveGraph, StGraph, circ,
                   hat, validate_progressive)
from .errors import (ArityMismatch, BadBoundaryDegree, CycleDetected,
                     DuplicateId, InvalidPlanarOrder, NoConsistentOrder,
                     NoInternalVertex, NotAPermutation, NotConjugate,
                     ParseError, PpgError, ReservedVertexName, TooLarge,
                     UnknownEdge, UnknownVertex, UsageError)
from .layout import (Drawing, DrawingReport, check_drawing, layout, layout_st,
                     read_back, render_svg, render_tikz)
from .order import (ConjugacyReport, PlanarOrder, POPGraph, check_conjugacy,
                    conjugate_order, interval_partition, order_from_conjugate,
                    order_violations, validate_planar_order)
from .ppgfile import PpgDocument, emit_ppg, emit_stg, parse_ppg, parse_stg
from .synthesis import (Anchor, Comparison, EnumerationResult, PAGraph,
                        VertexOrder, compare_edges, count_planar_orders,
                        enumerate_planar_orders, extract_pa, synthesize_order)

__version__ = "0.1.0"

# the public names, module by module as imported above
__all__ = [
    "bare_edges", "generator_suite", "random_elementary_layer", "random_pop",
    "side_by_side", "spider", "theta", "two_level_tree",
    "ElementaryDecomposition", "compose", "decompose_step",
    "elementary_decomposition", "glue_table", "pop_isomorphic", "recompose",
    "DirectedMultigraph", "Edge", "ProgressiveGraph", "StGraph", "circ", "hat",
    "validate_progressive",
    "ArityMismatch", "BadBoundaryDegree", "CycleDetected", "DuplicateId",
    "InvalidPlanarOrder", "NoConsistentOrder", "NoInternalVertex",
    "NotAPermutation", "NotConjugate", "ParseError", "PpgError",
    "ReservedVertexName", "TooLarge", "UnknownEdge", "UnknownVertex",
    "UsageError",
    "Drawing", "DrawingReport", "check_drawing", "layout", "layout_st",
    "read_back", "render_svg", "render_tikz",
    "ConjugacyReport", "PlanarOrder", "POPGraph", "check_conjugacy",
    "conjugate_order", "interval_partition", "order_from_conjugate",
    "order_violations", "validate_planar_order",
    "PpgDocument", "emit_ppg", "emit_stg", "parse_ppg", "parse_stg",
    "Anchor", "Comparison", "EnumerationResult", "PAGraph", "VertexOrder",
    "compare_edges", "count_planar_orders", "enumerate_planar_orders",
    "extract_pa", "synthesize_order",
]

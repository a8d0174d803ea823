"""The names the benchmark's tracer wraps still exist.

``bench/spans.py`` times the package by replacing module attributes and
methods named in its ``SPANS``, ``COUNTS`` and ``METHOD_COUNTS`` tables.  A
refactor that renames or removes one of them breaks ``bench/run.py --trace 1``
without failing any library test; this module reads the tables as they are
and fails instead.  A progressive graph must answer with the very methods
the tracer wraps on ``DirectedMultigraph``, or its adjacency scans go
uncounted.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import popgraph as pg

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # spans imports its sibling, workloads
        yield importlib.import_module("spans")


def test_wrapped_functions_exist(spans):
    assert spans.SPANS and spans.COUNTS
    for mod, attr, name in spans.SPANS + spans.COUNTS:
        module = importlib.import_module("popgraph." + mod)
        assert callable(vars(module).get(attr)), f"{name}: popgraph.{mod}.{attr} is gone"


def test_wrapped_methods_exist(spans):
    assert spans.METHOD_COUNTS
    for cls, attr, name in spans.METHOD_COUNTS:
        assert callable(cls.__dict__.get(attr)), f"{name}: {cls.__name__}.{attr} is gone"
        # a progressive graph answers with the wrapped method itself, so an
        # override in the subclass cannot stop the counter unseen
        assert getattr(pg.ProgressiveGraph, attr) is cls.__dict__[attr], (
            f"{name}: ProgressiveGraph.{attr} is not {cls.__name__}.{attr}")


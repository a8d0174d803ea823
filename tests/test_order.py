from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgraph as pg
from popgraph.order import _fast_valid
from conftest import slow_planar


class TestValidate:
    def test_canonical_sequence(self, canonical):
        assert canonical.order.sequence == tuple(str(k) for k in range(1, 20))
        assert canonical.inputs_ordered == ("1", "2", "3", "4", "10", "11", "17", "19")
        assert canonical.outputs_ordered == ("7", "13", "14", "16", "18", "19")

    def test_reversed_breaks_extension(self, canonical):
        seq = list(reversed(canonical.order.sequence))
        with pytest.raises(pg.InvalidPlanarOrder) as exc:
            pg.validate_planar_order(canonical.graph, seq)
        assert ("8", "13") in exc.value.extension_violations

    def test_swap_breaks_betweenness(self, canonical):
        seq = list(canonical.order.sequence)
        i8, i9 = seq.index("8"), seq.index("9")
        seq[i8], seq[i9] = seq[i9], seq[i8]
        with pytest.raises(pg.InvalidPlanarOrder) as exc:
            pg.validate_planar_order(canonical.graph, seq)
        assert not exc.value.extension_violations
        assert ("5", "9", "8") in exc.value.betweenness_violations

    def test_not_a_permutation(self, canonical):
        g = canonical.graph
        seq = list(g.edge_ids)
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.validate_planar_order(g, seq[:-1])
        assert exc.value.missing == ("19",)
        with pytest.raises(pg.NotAPermutation):
            pg.validate_planar_order(g, seq + ["19"])
        with pytest.raises(pg.NotAPermutation):
            pg.validate_planar_order(g, seq[:-1] + ["ghost"])

    def test_fast_agrees_with_definitional(self, canonical):
        # the bitset path and the O(m^3) scan must never disagree
        g = canonical.graph
        rng = random.Random(5)
        seq = list(g.edge_ids)
        agree = 0
        for _ in range(120):
            rng.shuffle(seq)
            ext, bet = pg.order_violations(g, seq)
            assert _fast_valid(g, tuple(seq)) == (not ext and not bet)
            agree += not ext and not bet
        # shuffled sequences of a graph this constrained are basically never valid
        assert agree <= 2

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_valid_orders_satisfy_slow_oracle(self, seed):
        pop = pg.random_pop(random.Random(seed), max_layers=3)
        assert slow_planar(pop.graph, pop.order.sequence)


class TestConjugate:
    def test_frozen_membership(self, canonical):
        rel = pg.conjugate_order(canonical)
        assert ("5", "6") in rel
        assert ("8", "13") not in rel  # 8 reaches 13, so the pair is not conjugate

    def test_exactly_once_coverage(self, canonical):
        g = canonical.graph
        rel = pg.conjugate_order(canonical)
        ids = g.edge_ids
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                ways = sum((
                    g.strictly_reaches(a, b), g.strictly_reaches(b, a),
                    (a, b) in rel, (b, a) in rel))
                assert ways == 1, (a, b)

    def test_check_conjugacy_accepts(self, canonical):
        rel = pg.conjugate_order(canonical)
        report = pg.check_conjugacy(canonical.graph, rel)
        assert report.ok and not report.problems

    def test_check_conjugacy_rejects_tampering(self, canonical):
        g = canonical.graph
        rel = pg.conjugate_order(canonical)
        some = next(iter(rel))
        assert not pg.check_conjugacy(g, rel - {some})
        assert not pg.check_conjugacy(g, rel | {tuple(reversed(some))})
        assert not pg.check_conjugacy(g, rel | {("5", "13")})  # 5 reaches 13
        assert not pg.check_conjugacy(g, frozenset({("5", "5")}))

    def test_round_trip_canonical(self, canonical):
        rel = pg.conjugate_order(canonical)
        assert pg.order_from_conjugate(canonical.graph, rel) == canonical.order

    def test_round_trip_suite(self, suite):
        for name, pop in suite:
            rel = pg.conjugate_order(pop)
            assert pg.check_conjugacy(pop.graph, rel).ok, name
            assert pg.order_from_conjugate(pop.graph, rel) == pop.order, name

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_random(self, seed):
        pop = pg.random_pop(random.Random(seed))
        rel = pg.conjugate_order(pop)
        assert pg.order_from_conjugate(pop.graph, rel) == pop.order

    def test_not_conjugate_raises(self, canonical):
        rel = pg.conjugate_order(canonical)
        some = next(iter(rel))
        with pytest.raises(pg.NotConjugate):
            pg.order_from_conjugate(canonical.graph, rel - {some})


class TestWindows:
    def test_frozen_input_windows(self, canonical):
        assert pg.input_window(canonical, "8") == ("1", "4")
        assert pg.input_window(canonical, "12") == ("10", "11")
        assert pg.input_window(canonical, "19") == ("19", "19")

    def test_output_window_convention(self, canonical):
        assert pg.output_window(canonical, "19") == ("19", "19")
        assert pg.output_window(canonical, "10") == ("13", "16")

    def test_interval_partition_frozen(self, canonical):
        after_in, before_out = pg.interval_partition(canonical)
        assert after_in["4"] == ("5", "6", "7", "8", "9")
        assert after_in["19"] == ()

    def test_partition_members_lie_in_windows(self, suite):
        # an edge follows the last input of its input window and precedes the
        # first output of its output window
        rng = random.Random(0)
        pops = suite + [(f"random{k}", pg.random_pop(rng)) for k in range(50)]
        for name, pop in pops:
            after_in, before_out = pg.interval_partition(pop)
            for i, block in after_in.items():
                for e in block:
                    assert pg.input_window(pop, e)[1] == i, (name, i, e)
            for o, block in before_out.items():
                for e in block:
                    assert pg.output_window(pop, e)[0] == o, (name, o, e)

    def test_partition_covers_all_edges(self, canonical):
        after_in, before_out = pg.interval_partition(canonical)
        non_inputs = [e for e in canonical.order.sequence
                      if e not in canonical.graph.inputs]
        assert sorted(e for blk in after_in.values() for e in blk) == sorted(non_inputs)

from __future__ import annotations

import random
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgraph as pg
import popgraph.order
from popgraph.cli import main
from popgraph.errors import SHOWN
from popgraph.order import _chains_hold, _intransitive, _ranked
from conftest import (_scan_window, check_conjugacy_scan, conjugate_pairs_scan,
                      conjugate_pop, intransitive_scan, order_from_conjugate_scan,
                      order_violations_scan, run_optimized, slow_planar, vertex_reach_dfs)


def tampered(pop: pg.POPGraph, rng: random.Random):
    """The conjugate of ``pop`` intact and tampered six ways, as (name, rel)."""
    rel = pg.conjugate_order(pop)
    ids = pop.graph.edge_ids
    a, b = rng.sample(ids, 2)
    if (a, b) in rel:
        a, b = b, a  # so that adding (a, b) changes the relation
    out = [("intact", rel), ("add", rel | {(a, b)}), ("both", rel | {(a, b), (b, a)}),
           ("unknown", rel | {(a, "ghost")}), ("reflexive", rel | {(a, a)})]
    if rel:
        some = rng.choice(sorted(rel))
        out += [("drop", rel - {some}), ("reverse", rel - {some} | {some[::-1]})]
    return out


def random_linear_extension(g: pg.ProgressiveGraph, rng: random.Random) -> list[str]:
    """A uniformly chosen ready edge at each step: an order that extends
    reachability, planar or not."""
    ids = g.edge_ids
    waiting = {e: g.reacher_bits(e) for e in ids}
    placed, out = 0, []
    while waiting:
        e = rng.choice([e for e, row in waiting.items() if not row & ~placed])
        del waiting[e]
        placed |= 1 << g.edge_index(e)
        out.append(e)
    return out


def assert_refusal_matches(g, seq, ext, bet):
    """``validate_planar_order`` refuses ``seq`` exactly when the scan lists
    violations ``ext`` and ``bet``, keeping the first SHOWN of each and
    counting them all."""
    try:
        pg.validate_planar_order(g, seq)
    except pg.InvalidPlanarOrder as exc:
        assert exc.extension_violations == tuple(ext[:SHOWN])
        assert exc.betweenness_violations == tuple(bet[:SHOWN])
        assert (exc.extension_total, exc.betweenness_total) == (len(ext), len(bet))
    else:
        assert not ext and not bet


def outcome(build, g, rel):
    """What ``build(g, rel)`` returns, or the type, message and problems it raises."""
    try:
        order = build(g, rel)
    except pg.PpgError as exc:
        return type(exc), str(exc), exc.problems
    pg.validate_planar_order(g, order.sequence)
    return order


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
        # the lists read off the conjugate rows equal the O(m^3) scan's,
        # element for element and in order
        g = canonical.graph
        rng = random.Random(5)
        seq = list(g.edge_ids)
        agree = 0
        for _ in range(120):
            rng.shuffle(seq)
            ext, bet = pg.order_violations(g, seq)
            assert (ext, bet) == order_violations_scan(g, seq)
            assert_refusal_matches(g, seq, ext, bet)
            agree += not ext and not bet
        # shuffled sequences of a graph this constrained are basically never valid
        assert agree <= 2

    def test_violations_match_the_scan_on_random_graphs(self):
        rng = random.Random(17)
        invalid = 0
        for k in range(200):
            pop = pg.random_pop(random.Random(k))
            g, seq = pop.graph, list(pop.order.sequence)
            i = rng.randrange(len(seq) - 1)
            swapped = seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2:]
            shuffled = rng.sample(seq, len(seq))
            for cand in (seq, seq[::-1], swapped, shuffled):
                got = pg.order_violations(g, cand)
                assert got == order_violations_scan(g, cand), (k, cand)
                assert_refusal_matches(g, cand, *got)
                invalid += bool(got[0] or got[1])
        assert invalid > 400

    def test_chain_verdict_matches_the_scan(self):
        # the chain check on the rank rows accepts exactly the sequences in
        # which the O(m^3) scan finds no violation; reversed and shuffled
        # sequences give rank rows that reach earlier ranks
        rng = random.Random(29)
        verdicts = Counter()
        for k in range(200):
            pop = pg.random_pop(random.Random(1000 + k))
            g, seq = pop.graph, list(pop.order.sequence)
            cands = [seq, random_linear_extension(g, rng), seq[::-1], rng.sample(seq, len(seq))]
            for i in rng.sample(range(len(seq) - 1), min(3, len(seq) - 1)):
                cands.append(seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2:])
            for cand in cands:
                ext, bet = order_violations_scan(g, cand)
                holds = _chains_hold(*_ranked(g, tuple(cand)))
                assert holds == (not ext and not bet), (k, cand)
                assert_refusal_matches(g, cand, ext, bet)
                verdicts[holds, bool(ext)] += 1
        # accepted, refused by betweenness only, and by extension
        assert min(verdicts[True, False], verdicts[False, False],
                   verdicts[False, True]) > 100, verdicts

    def test_a_value_that_is_not_iterable_is_not_a_permutation(self):
        # like [1, 2, 3, 4]: every id missing, and the value extra
        g = pg.spider(2, 2).graph
        for check in (pg.validate_planar_order, pg.order_violations):
            for value in (5, None):
                with pytest.raises(pg.NotAPermutation) as exc:
                    check(g, value)
                assert str(exc.value) == (
                    f"not a permutation of the edge set: missing i1 i2 o1 o2; extra {value}")
                assert exc.value.extra == (value,)

    def test_chain_refuses_what_is_not_a_permutation(self, canonical):
        g, seq = canonical.graph, canonical.order.sequence
        for bad in (seq[:-1], seq + seq[-1:], seq[:-1] + ("ghost",), ()):
            with pytest.raises(pg.NotAPermutation):
                _ranked(g, bad)

    @pytest.mark.parametrize("seq, message", [
        ([1, 2, 3, 4], "missing i1 i2 o1 o2; extra 1 2 3 4"),
        ([["i1"], "i2", "o1", "o2"], "missing i1; extra ['i1']"),
        (["o2", 2, "i1", ("o1",), "o2"], "missing i2 o1; extra ('o1',) 2; duplicated o2"),
    ], ids=["ints", "unhashable", "mixed"])
    def test_members_that_are_not_ids_are_not_a_permutation(self, seq, message):
        g = pg.spider(2, 2).graph
        for check in (pg.validate_planar_order, pg.order_violations):
            with pytest.raises(pg.NotAPermutation) as exc:
                check(g, seq)
            assert str(exc.value) == "not a permutation of the edge set: " + message

    def test_planar_order_refuses_repeats_of_any_member(self):
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.PlanarOrder([1, 1])
        assert exc.value.duplicated == (1,)
        assert str(exc.value) == "not a permutation of the edge set: duplicated 1"
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.PlanarOrder(["a", ["b"]])
        assert exc.value.extra == (["b"],)

    @pytest.mark.parametrize("seq, message", [
        ([1, 2], "extra 1 2"),
        (["b", 2, "a"], "extra 2"),
        ([b"a", "b", None], "extra None b'a'"),
        (5, "extra 5"),
        (None, "extra None"),
    ], ids=["ints", "one int", "bytes and None", "not iterable", "none"])
    def test_planar_order_refuses_members_that_are_not_strings(self, seq, message):
        # a value that is not iterable is its own one extra member, as in
        # validate_planar_order; TypeError escaped from the constructor
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.PlanarOrder(seq)
        assert str(exc.value) == "not a permutation of the edge set: " + message
        assert not exc.value.missing and not exc.value.duplicated

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

    def test_pairs_match_the_scan(self, suite):
        rng = random.Random(23)
        pops = suite + [(f"random{k}", pg.random_pop(rng)) for k in range(200)]
        for name, pop in pops:
            assert pg.conjugate_order(pop) == conjugate_pairs_scan(pop), name

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

    def test_transitivity_witnesses(self):
        rel = {("w1", "w2"), ("w2", "w3"), ("w3", "w1")}
        report = pg.check_conjugacy(pg.bare_edges(3).graph, rel)
        assert report.problems == (
            "(w1, w2) and (w2, w3) without (w1, w3)",
            "(w2, w3) and (w3, w1) without (w2, w1)",
            "(w3, w1) and (w1, w2) without (w3, w2)",
        )

    def test_round_trip_canonical(self, canonical):
        rel = pg.conjugate_order(canonical)
        assert pg.order_from_conjugate(canonical.graph, rel) == canonical.order

    @pytest.mark.parametrize("member", [("i1",), ("i1", "i2", "o1"), None, (1, "i2"),
                                        frozenset({"i1", "i2"}), b"ab"],
                             ids=["one", "three", "none", "int", "frozenset", "bytes"])
    def test_a_member_that_is_not_a_pair_of_ids_is_a_problem(self, member):
        # only a tuple is a pair: a frozenset unpacks in hash order, bytes into ints
        pop = pg.spider(2, 2)
        rel = pg.conjugate_order(pop) | {member}
        want = ("(1, i2) names an unknown edge" if member == (1, "i2")
                else f"{member!r} is not a pair of edge ids")
        assert pg.check_conjugacy(pop.graph, rel).problems == (want,)
        with pytest.raises(pg.NotConjugate) as exc:
            pg.order_from_conjugate(pop.graph, rel)
        assert exc.value.problems == (want,)

    def test_unhashable_members_are_problems(self):
        # a list of two edge ids unpacks like a pair, but is not one
        g = pg.spider(2, 2).graph
        rel = [["i1", "i2"], ("o1", "o2"), ["o1", "o2"], ["i1", "i2"]]
        want = ("['i1', 'i2'] is not a pair of edge ids",
                "['o1', 'o2'] is not a pair of edge ids")
        assert pg.check_conjugacy(g, rel).problems == want
        with pytest.raises(pg.NotConjugate) as exc:
            pg.order_from_conjugate(g, rel)
        assert exc.value.problems == want
        assert pg.order_from_conjugate(g, iter([("i1", "i2"), ("o1", "o2")])).sequence == (
            "i1", "i2", "o1", "o2")

    @pytest.mark.parametrize("edges", [
        (("a", "p", "q"), ("b", "r", "s")),
        (("a", "p", "v"), ("b", "v", "q")),
    ], ids=["unrelated", "related"])
    def test_a_string_is_never_a_pair(self, edges):
        # "ab" unpacks into the one-letter ids a and b, but is no pair
        g = pg.validate_progressive(pg.DirectedMultigraph(edges))
        for rel in ({"ab"}, ["ab"], {"ab", ("a", "b")}):
            assert pg.check_conjugacy(g, rel).problems == ("'ab' is not a pair of edge ids",)
            with pytest.raises(pg.NotConjugate) as exc:
                pg.order_from_conjugate(g, rel)
            assert exc.value.problems == ("'ab' is not a pair of edge ids",)

    def test_mixed_members_are_listed_pairs_of_strings_first(self):
        pop = pg.spider(2, 2)
        rel = pg.conjugate_order(pop) | {(2, 1), ("i1", "i1"), None, ("zz", "i1"), (3, "o1")}
        assert pg.check_conjugacy(pop.graph, rel).problems == (
            "(i1, i1) is reflexive", "(zz, i1) names an unknown edge",
            "(2, 1) names an unknown edge", "(3, o1) names an unknown edge",
            "None is not a pair of edge ids")

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

    def test_agrees_with_the_scan_oracle(self):
        # 500 graphs, each relation intact and tampered six ways: the row check
        # reports the scan's problems, in its order, and order_from_conjugate
        # has the outcome of the pair-counting rebuild.  Every other graph
        # declares its edges in shuffled order, so that an edge can reach an
        # edge declared before it.
        rng = random.Random(31)
        kinds = dict.fromkeys(("intact", "add", "both", "unknown", "reflexive",
                               "drop", "reverse"), 0)
        rejected = 0
        for k in range(500):
            pop = pg.random_pop(random.Random(k))
            if k % 2:
                g = pg.ProgressiveGraph(pg.DirectedMultigraph(
                    rng.sample(pop.graph.edges, len(pop.graph.edges))))
                pop = pg.validate_planar_order(g, pop.order.sequence)
            g = pop.graph
            for kind, rel in tampered(pop, rng):
                report = pg.check_conjugacy(g, rel)
                scan = check_conjugacy_scan(g, rel)
                assert (report.problems, report.total) == (scan.problems, scan.total), (k, kind)
                got = outcome(pg.order_from_conjugate, g, rel)
                assert got == outcome(order_from_conjugate_scan, g, rel), (k, kind)
                assert isinstance(got, pg.PlanarOrder) == report.ok, (k, kind)
                assert kind != "intact" or got == pop.order, k
                kinds[kind] += 1
                rejected += not report.ok
        assert min(kinds.values()) > 450, kinds
        assert rejected > 2500

    def test_conjugates_of_linear_extensions_match_the_scan(self):
        # the "conjugate" of any linear extension relates each pair exactly
        # once, but is transitive only when the extension is planar: the
        # reach-chain test must accept the planar ones and hand the rest to
        # the triple listing, with the outcome of the pair-counting rebuild
        rng = random.Random(37)
        accepted = refused = 0
        for k in range(200):
            g = pg.random_pop(random.Random(2000 + k), max_layers=2).graph
            seq = random_linear_extension(g, rng)
            rel = {(a, b) for i, a in enumerate(seq) for b in seq[i + 1:]
                   if not g.strictly_reaches(a, b)}
            got = outcome(pg.order_from_conjugate, g, rel)
            assert got == outcome(order_from_conjugate_scan, g, rel), (k, seq)
            if isinstance(got, pg.PlanarOrder):
                assert got.sequence == tuple(seq), k
                accepted += 1
            else:
                refused += 1
        assert accepted > 50 and refused > 50, (accepted, refused)

    def test_a_flipped_adjacent_pair_is_the_swapped_orders_conjugate(self, monkeypatch):
        # two adjacent edges that neither reaches, swapped: when the swapped
        # order is planar, the conjugate with their pair flipped is its
        # conjugate, accepted by membership with no triple counted;
        # otherwise it is refused; either way as the pair-counting rebuild
        calls = []
        intransitive = popgraph.order._intransitive
        monkeypatch.setattr(popgraph.order, "_intransitive",
                            lambda rows: calls.append(1) or intransitive(rows))
        accepted = refused = 0
        for k in range(60):
            pop = pg.random_pop(random.Random(3000 + k))
            g, seq = pop.graph, list(pop.order.sequence)
            rel = pg.conjugate_order(pop)
            for i in range(len(seq) - 1):
                a, b = seq[i], seq[i + 1]
                if (a, b) not in rel:  # a reaches b
                    continue
                flipped = rel - {(a, b)} | {(b, a)}
                swapped = seq[:i] + [b, a] + seq[i + 2:]
                del calls[:]
                got = outcome(pg.order_from_conjugate, g, flipped)
                if slow_planar(g, swapped):
                    assert got == pg.PlanarOrder(swapped) and not calls, (k, i)
                    accepted += 1
                else:
                    assert not isinstance(got, pg.PlanarOrder), (k, i)
                    refused += 1
                assert got == outcome(order_from_conjugate_scan, g, flipped), (k, i)
        assert accepted > 200 and refused > 100, (accepted, refused)

    @pytest.mark.parametrize("value", [5, None], ids=["int", "none"])
    def test_a_value_that_is_not_iterable_is_one_problem(self, value):
        g = pg.spider(2, 2).graph
        want = (f"{value!r} is not a collection of edge pairs",)
        report = pg.check_conjugacy(g, value)
        assert not report and (report.problems, report.total) == (want, 1)
        with pytest.raises(pg.NotConjugate) as exc:
            pg.order_from_conjugate(g, value)
        assert (exc.value.problems, exc.value.total) == (want, 1)
        assert str(exc.value) == "not a conjugate order: " + want[0]

    def test_not_conjugate_raises(self, canonical):
        rel = pg.conjugate_order(canonical)
        some = next(iter(rel))
        with pytest.raises(pg.NotConjugate):
            pg.order_from_conjugate(canonical.graph, rel - {some})


class TestIntransitive:
    """The chain count of ``order._intransitive`` against the member by
    member count of ``conftest.intransitive_scan``."""

    def test_rank_rows_match_the_scan(self):
        rng = random.Random(41)
        escaping = 0
        for k in range(150):
            pop = pg.random_pop(random.Random(3000 + k))
            g, seq = pop.graph, list(pop.order.sequence)
            cands = [seq, seq[::-1], rng.sample(seq, len(seq)), random_linear_extension(g, rng)]
            for i in rng.sample(range(len(seq) - 1), min(3, len(seq) - 1)):
                cands.append(seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2:])
            for cand in cands:
                _, conj = _ranked(g, tuple(cand))
                got = _intransitive(conj)
                assert got == intransitive_scan(conj), (k, cand)
                escaping += bool(got[1])
        assert escaping > 200, escaping

    def test_relation_rows_match_the_scan(self):
        # conjugates with one pair flipped, dropped or present both ways,
        # and random irreflexive relations of every density
        rng = random.Random(43)
        escaping = 0
        for k in range(150):
            pop = pg.random_pop(random.Random(4000 + k))
            ix = {e: i for i, e in enumerate(pop.graph.edge_ids)}
            rel = sorted(pg.conjugate_order(pop))
            rels = [rel]
            if rel:
                some = rng.choice(rel)
                rels += [[p for p in rel if p != some] + [some[::-1]],
                         [p for p in rel if p != some], rel + [some[::-1]]]
            for rel in rels:
                rows = [0] * len(ix)
                for a, b in rel:
                    rows[ix[a]] |= 1 << ix[b]
                got = _intransitive(rows)
                assert got == intransitive_scan(rows), (k, rel)
                escaping += bool(got[1])
            m, density = len(ix), rng.random()
            rows = [sum(1 << j for j in range(m) if j != i and rng.random() < density)
                    for i in range(m)]
            assert _intransitive(rows) == intransitive_scan(rows), (k, rows)
        assert escaping > 100, escaping


class TestConjugatePop:
    """The paper's conjugate as an ordered graph on the opposite edges, built
    by the ``conftest.conjugate_pop`` oracle."""

    def test_is_an_involution_to_a_planar_order(self, suite):
        pops = suite + [(f"random{k}", pg.random_pop(random.Random(k))) for k in range(300)]
        for name, pop in pops:
            conj = conjugate_pop(pop)
            assert pg.validate_planar_order(conj.graph, conj.order.sequence) == conj, name
            assert conjugate_pop(conj) == pop, name
            assert pg.conjugate_order(conj) == pg.conjugate_order(pop), name

    def test_reverses_composition(self):
        rng = random.Random(41)
        for k in range(200):
            a = pg.random_elementary_layer(rng, f"a{k}.")
            b = pg.random_elementary_layer(rng, f"b{k}.", n_inputs=len(a.graph.outputs))
            assert pg.pop_isomorphic(conjugate_pop(pg.compose(a, b)),
                                     pg.compose(conjugate_pop(b), conjugate_pop(a))), k


class TestBoundedMessages:
    """Messages list the first ``SHOWN`` witnesses and count the rest; the
    planar-order and conjugacy refusals keep the first ``SHOWN`` witnesses
    of each kind and their exact totals, the others every witness."""

    @staticmethod
    def assert_capped(message: str, total: int):
        assert message.count("; ") == SHOWN
        assert message.endswith(f"; ... and {total - SHOWN} more ({total} in all)")

    def test_invalid_planar_order(self):
        pop = pg.spider(8, 8)
        with pytest.raises(pg.InvalidPlanarOrder) as exc:
            pg.validate_planar_order(pop.graph, pop.order.sequence[::-1])
        assert len(exc.value.extension_violations) == SHOWN
        assert exc.value.extension_total == 64
        assert not exc.value.betweenness_violations and not exc.value.betweenness_total
        self.assert_capped(str(exc.value), 64)

    def test_not_conjugate(self):
        # the 28 input pairs and 28 output pairs of the spider are unrelated
        pop = pg.spider(8, 8)
        with pytest.raises(pg.NotConjugate) as exc:
            pg.order_from_conjugate(pop.graph, set())
        assert len(exc.value.problems) == SHOWN
        assert exc.value.total == 56
        report = pg.check_conjugacy(pop.graph, set())
        assert (report.problems, report.total) == (exc.value.problems, 56)
        self.assert_capped(str(exc.value), 56)

    def test_no_consistent_order(self):
        # bare edges whose outputs are anchored in reverse: the two anchors
        # order every pair both ways
        g = pg.bare_edges(12).graph
        ids = g.edge_ids
        with pytest.raises(pg.NoConsistentOrder) as exc:
            pg.synthesize_order(pg.PAGraph(g, {}, (ids, ids[::-1])))
        assert len(exc.value.witnesses) == SHOWN
        assert exc.value.total == 66
        assert exc.value.witnesses[0] == ("pair (w1, w2) is ordered (w1, w2) by the inputs "
                                          "and (w2, w1) by the outputs")
        self.assert_capped(str(exc.value), 66)
        # six paths of two edges, their outputs anchored in reverse: no two
        # edges share two lists, and the comparator finds no consistent
        # position for the 4 * 15 pairs of edges on distinct paths
        g = pg.validate_progressive(pg.DirectedMultigraph(
            e for k in range(6)
            for e in ((f"i{k}", f"s{k}", f"v{k}"), (f"o{k}", f"v{k}", f"t{k}"))))
        outs = tuple(f"o{k}" for k in reversed(range(6)))
        orders = {f"v{k}": ((f"i{k}",), (f"o{k}",)) for k in range(6)}
        with pytest.raises(pg.NoConsistentOrder) as exc:
            pg.synthesize_order(pg.PAGraph(g, orders, (tuple(f"i{k}" for k in range(6)), outs)))
        assert len(exc.value.witnesses) == SHOWN
        assert exc.value.total == 60
        assert exc.value.witnesses[0] == "no consistent position for pair (i0, i1)"
        self.assert_capped(str(exc.value), 60)

    def test_not_a_permutation(self, capsys, tmp_path):
        # one edge of 5000 listed: 4999 missing ids, of which the message shows 20
        pop = pg.bare_edges(5000)
        with pytest.raises(pg.NotAPermutation) as exc:
            pg.validate_planar_order(pop.graph, ["w1"])
        assert exc.value.missing == tuple(sorted(pop.graph.edge_ids[1:]))
        message = str(exc.value)
        assert len(message) < 300
        assert message.endswith(" w1016 ... and 4979 more (4999 in all)")
        path = tmp_path / "bare5000.ppg"
        lines = pg.emit_ppg(pop).splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("order ")) + "order w1\n",
                        encoding="utf-8")
        assert main(["check-order", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        short = pg.NotAPermutation(("a", "b"), ("c",), ("d", "e"))
        assert str(short) == ("not a permutation of the edge set: "
                              "missing a b; extra c; duplicated d e")

    def test_cycle_detected(self):
        for n in (SHOWN, 5000):
            edges = [pg.Edge(f"e{k}", f"v{k}", f"v{(k + 1) % n}") for k in range(n)]
            with pytest.raises(pg.CycleDetected) as exc:
                pg.validate_progressive(pg.DirectedMultigraph(edges))
            cycle = exc.value.cycle
            assert len(cycle) == n + 1 and cycle[0] == cycle[-1]
            message = str(exc.value)
            if n == SHOWN:
                assert message == "directed cycle: " + " -> ".join(cycle)
            else:
                assert len(message) < 200
                assert message.endswith(f" -> {cycle[SHOWN - 1]} -> ... and "
                                        f"{n - SHOWN} more ({n} in all)")

    def test_a_short_list_is_shown_whole(self):
        for n in (SHOWN, SHOWN + 1):
            message = str(pg.NoConsistentOrder(tuple(f"w{k}" for k in range(n))))
            assert ("w19; ... and 1 more (21 in all)" in message) == (n > SHOWN)
            assert message.endswith("w19") == (n == SHOWN)


def windows(pop: pg.POPGraph, forward: bool) -> dict[str, tuple[str, str]]:
    """Per edge, the first and last input reaching it (forward) or output it
    reaches, in the order; a boundary edge is its own window."""
    g = pop.graph
    side = pop.inputs_ordered if forward else pop.outputs_ordered
    below, pos = vertex_reach_dfs(g), {b: k for k, b in enumerate(side)}
    return {e: tuple(side[k] for k in _scan_window(g, below, pos, side, e, forward))
            for e in g.edge_ids}


class TestWindows:
    def test_frozen_input_windows(self, canonical):
        inputs = windows(canonical, True)
        assert inputs["8"] == ("1", "4")
        assert inputs["12"] == ("10", "11")
        assert inputs["19"] == ("19", "19")

    def test_output_window_convention(self, canonical):
        outputs = windows(canonical, False)
        assert outputs["19"] == ("19", "19")
        assert outputs["10"] == ("13", "16")

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
            inputs, outputs = windows(pop, True), windows(pop, False)
            for i, block in after_in.items():
                for e in block:
                    assert inputs[e][1] == i, (name, i, e)
            for o, block in before_out.items():
                for e in block:
                    assert outputs[e][0] == o, (name, o, e)

    @pytest.mark.parametrize("graph, seq, message", [
        (pg.spider(1, 1).graph, ("o1", "i1"), "non-input edge o1 comes before every input"),
        (pg.spider(2, 1).graph, ("i1", "o1", "i2"), "non-output edge i2 comes after every output"),
    ], ids=["input_first", "output_last"])
    def test_partition_refuses_a_non_planar_order(self, graph, seq, message):
        with pytest.raises(pg.PpgError, match=f"^{message}$"):
            pg.interval_partition(pg.POPGraph(graph, pg.PlanarOrder(seq)))

    def test_partition_refuses_a_non_planar_order_under_O(self):
        script = textwrap.dedent("""\
            import popgraph as pg
            print(__debug__)
            for graph, seq in ((pg.spider(1, 1).graph, ["o1", "i1"]),
                               (pg.spider(2, 1).graph, ["i1", "o1", "i2"])):
                try:
                    pg.interval_partition(pg.POPGraph(graph, pg.PlanarOrder(seq)))
                except pg.PpgError as exc:
                    print(exc)
            """)
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False", "non-input edge o1 comes before every input",
            "non-output edge i2 comes after every output"]

    def test_partition_covers_all_edges(self, canonical):
        after_in, before_out = pg.interval_partition(canonical)
        non_inputs = [e for e in canonical.order.sequence
                      if e not in canonical.graph.inputs]
        assert sorted(e for blk in after_in.values() for e in blk) == sorted(non_inputs)

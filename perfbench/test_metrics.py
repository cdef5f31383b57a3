"""Tests of the benchmark's own arithmetic on synthetic spans and counts.

Run from the repository root:  python3 -m pytest perfbench
"""

import math

import pytest

from metrics import (
    Span,
    children_index,
    classify_draws,
    fail_ratio,
    layer_metrics,
    merge_layers,
    other_time,
    percentile,
    self_time,
    summarize,
    throughput,
)


def span(n, parent, name, start, end):
    return Span((0, n), None if parent is None else (0, parent), name, start, end)


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        root = span(0, None, "cli.main", 0.0, 10.0)
        outer = span(1, 0, "bounds.verify", 1.0, 9.0)
        inner = span(2, 1, "networks.simulate", 2.0, 6.0)
        leaf = span(3, 2, "networks.sample", 3.0, 4.0)
        index = children_index([root, outer, inner, leaf])
        assert self_time(root, index) == pytest.approx(2.0)
        assert self_time(outer, index) == pytest.approx(4.0)
        assert self_time(inner, index) == pytest.approx(3.0)
        assert self_time(leaf, index) == pytest.approx(1.0)

    def test_parallel_children_cover_their_union(self):
        parent = span(0, None, "bounds.verify", 0.0, 10.0)
        a = span(1, 0, "networks.simulate", 1.0, 5.0)
        b = span(2, 0, "networks.simulate", 2.0, 6.0)   # overlaps a
        c = span(3, 0, "networks.simulate", 8.0, 12.0)  # runs past the parent
        index = children_index([parent, a, b, c])
        # covered: [1, 6] and [8, 10] -> 7
        assert self_time(parent, index) == pytest.approx(3.0)


class TestSummaries:
    def test_median_and_count_without_tail(self):
        s = summarize([3.0, 1.0, 2.0, 5.0, 4.0])
        assert s == {"mean": 3.0, "median": 3.0, "n": 5, "tail": None}

    def test_mean_moves_with_the_share_of_slow_samples(self):
        # two speeds: the median jumps between them, the mean moves smoothly
        fast, slow = [1.0] * 5, [1.6] * 5
        assert summarize(fast[:3] + slow[:2])["median"] == 1.0
        assert summarize(fast[:2] + slow[:3])["median"] == 1.6
        assert summarize(fast[:3] + slow[:2])["mean"] == pytest.approx(1.24)
        assert summarize(fast[:2] + slow[:3])["mean"] == pytest.approx(1.36)

    def test_tail_needs_ten_samples_beyond_it(self):
        values = [float(i) for i in range(1, 100)]  # 99 samples: p90 has 9.9 beyond
        assert summarize(values)["tail"] is None
        values.append(100.0)                        # 100 samples: p90 has 10 beyond
        q, v = summarize(values)["tail"]
        assert q == 90.0
        assert v == pytest.approx(90.1)

    def test_highest_qualifying_percentile_wins(self):
        s = summarize([float(i) for i in range(1000)])
        assert s["n"] == 1000
        assert s["tail"][0] == 99.0
        assert s["tail"][1] == pytest.approx(percentile(range(1000), 99.0))

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([7.0], 99.0) == 7.0


class TestDraws:
    def test_unresolved_inputs_cost_only_their_pilot(self):
        verdicts = ["consistent", "unresolved", "violated", "unresolved"]
        assert classify_draws(1000, verdicts) == 4 * 1000 + 2 * 1000

    def test_draws_per_second_over_a_run(self):
        draws = [classify_draws(1000, ["consistent"] * 3),       # 6000
                 classify_draws(1000, ["unresolved"] * 3)]       # 3000
        assert throughput(draws, [1.0, 2.0]) == pytest.approx(3000.0)
        assert throughput([], []) == 0.0


class TestFailRatio:
    def test_counting(self):
        outcomes = [(0, []), (2, []), (1, []), (0, ["manifest mismatch"]), (3, [])]
        failed, attempted, share = fail_ratio(outcomes)
        assert (failed, attempted) == (3, 5)
        assert share == pytest.approx(0.6)

    def test_violation_verdict_is_not_a_failure(self):
        assert fail_ratio([(2, []), (2, [])]) == (0, 2, 0.0)


class TestOtherTime:
    def test_remainder_after_top_level_spans(self):
        root = span(0, None, "cli.main", 0.0, 10.0)
        spans = [root,
                 span(1, 0, "networks.run_network", 0.5, 3.0),
                 span(2, 1, "networks.sample", 1.0, 2.0),   # nested: not top level
                 span(3, 0, "seeding.stream", 3.0, 3.5),
                 span(4, 0, "networks.run_network", 4.0, 6.0)]
        assert other_time(root, children_index(spans)) == pytest.approx(5.0)

    def test_layer_metrics_account_for_the_root(self):
        root = span(0, None, "cli.main", 0.0, 10.0)
        spans = [root,
                 span(1, 0, "bounds.verify", 0.0, 8.0),
                 span(2, 1, "networks.simulate", 1.0, 7.0),
                 span(3, 2, "networks.sample", 2.0, 4.0),
                 span(4, 2, "seeding.stream", 1.0, 1.5),
                 span(5, 1, "bounds.estimate_tail", 7.0, 7.5)]
        counts = {"networks.kernel.mac": 700, "networks.draws": 10}
        m = layer_metrics(spans, counts, root, depth=2)
        assert m["harness.other_s"] == pytest.approx(2.0)
        assert m["bounds.verify.self_s"] == pytest.approx(1.5)
        assert m["networks.kernel.s"] == pytest.approx(3.5)
        assert m["networks.kernel.s_per_layer"] == pytest.approx(1.75)
        assert m["networks.kernel.mac_per_s"] == pytest.approx(200.0)
        top = sum(s.duration for s in spans if s.parent == root.id)
        assert top + m["harness.other_s"] == pytest.approx(root.duration)

    def test_useful_lp_ratio_counts_only_counting_lps(self):
        root = span(0, None, "cli.main", 0.0, 10.0)
        spans = [root,
                 span(1, 0, "tropical.count_regions", 0.0, 4.0),
                 span(2, 1, "tropical.lp", 0.0, 1.0),
                 span(3, 1, "tropical.lp", 1.0, 2.0),
                 span(4, 0, "networks.run_symbolic", 4.0, 8.0),
                 span(5, 4, "tropical.prune", 4.0, 6.0),
                 span(6, 5, "tropical.lp", 4.0, 5.0)]
        m = layer_metrics(spans, {"tropical.regions": 1}, root, depth=3)
        assert m["tropical.lp.calls"] == 3
        assert m["tropical.lp.useful_ratio"] == pytest.approx(0.5)
        assert m["tropical.count_regions.self_s"] == pytest.approx(2.0)
        assert not math.isnan(m["classifier.audit.resolved_ratio"])


class TestMergeLayers:
    def test_round_sums_additive_values_and_recomputes_ratios(self):
        root_a = span(0, None, "cli.main", 0.0, 4.0)
        a = [root_a, span(1, 0, "networks.simulate", 0.0, 2.0)]
        root_b = span(10, None, "cli.main", 4.0, 10.0)
        b = [root_b, span(11, 10, "networks.simulate", 4.0, 9.0),
             span(12, 10, "classifier.audit", 9.0, 9.5)]
        ma = layer_metrics(a, {"networks.kernel.mac": 100}, root_a, depth=2)
        mb = layer_metrics(b, {"networks.kernel.mac": 700, "classifier.inputs": 4,
                               "classifier.resolved": 3}, root_b, depth=8)
        m = merge_layers([ma, mb])
        assert m["networks.kernel.s"] == pytest.approx(7.0)
        assert m["networks.kernel.s_per_layer"] == pytest.approx(2.0 / 2 + 5.0 / 8)
        assert m["networks.kernel.mac_per_s"] == pytest.approx(800 / 7.0)
        assert m["classifier.audit.resolved_ratio"] == pytest.approx(0.75)
        assert m["harness.other_s"] == pytest.approx(2.0 + 0.5)

"""Unit tests for path-explosion analysis (repro.core.explosion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contacts import Contact, ContactTrace
from repro.core import (
    PathEnumerator,
    SpaceTimeGraph,
    analyze_dataset,
    analyze_message,
    arrival_curve,
    random_messages,
)


@pytest.fixture
def diamond_trace() -> ContactTrace:
    return ContactTrace(
        [Contact(0.0, 10.0, 0, 1),
         Contact(0.0, 10.0, 0, 2),
         Contact(30.0, 40.0, 1, 3),
         Contact(60.0, 70.0, 2, 3)],
        nodes=range(4), duration=100.0,
    )


class TestAnalyzeMessage:
    def test_basic_record(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        record = analyze_message(enumerator, 0, 3, 0.0, n_explosion=2)
        assert record.delivered
        assert record.num_paths == 2
        assert record.optimal_duration == pytest.approx(40.0)
        assert record.time_to_explosion == pytest.approx(30.0)  # 70 - 40
        assert record.exploded

    def test_not_exploded_when_too_few_paths(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        record = analyze_message(enumerator, 0, 3, 0.0, n_explosion=5)
        assert record.delivered
        assert not record.exploded
        assert record.time_to_explosion is None

    def test_undelivered_record(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        record = analyze_message(enumerator, 3, 0, 80.0, n_explosion=2)
        assert not record.delivered
        assert record.optimal_duration is None
        assert record.t1 is None
        assert record.arrivals_since_t1() == []

    def test_t1_is_absolute_time(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        record = analyze_message(enumerator, 0, 3, 5.0, n_explosion=2)
        assert record.t1 == pytest.approx(40.0)
        assert record.optimal_duration == pytest.approx(35.0)

    def test_keep_paths_flag(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        without = analyze_message(enumerator, 0, 3, 0.0, n_explosion=2)
        with_paths = analyze_message(enumerator, 0, 3, 0.0, n_explosion=2,
                                     keep_paths=True)
        assert without.paths == []
        assert len(with_paths.paths) == with_paths.num_paths

    def test_hop_counts_recorded(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        record = analyze_message(enumerator, 0, 3, 0.0, n_explosion=2)
        assert record.hop_counts == [2, 2]

    def test_rejects_bad_threshold(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        with pytest.raises(ValueError):
            analyze_message(enumerator, 0, 3, 0.0, n_explosion=0)

    def test_arrivals_since_t1_start_at_zero(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        record = analyze_message(enumerator, 0, 3, 0.0, n_explosion=2)
        arrivals = record.arrivals_since_t1()
        assert arrivals[0] == 0.0
        assert arrivals[-1] == pytest.approx(30.0)


class TestRandomMessages:
    def test_count_and_structure(self, small_conference_trace):
        messages = random_messages(small_conference_trace, 25, seed=3)
        assert len(messages) == 25
        for source, destination, t1 in messages:
            assert source != destination
            assert source in small_conference_trace.nodes
            assert destination in small_conference_trace.nodes
            assert 0 <= t1 <= small_conference_trace.duration

    def test_default_generation_window_is_two_thirds(self, small_conference_trace):
        messages = random_messages(small_conference_trace, 200, seed=1)
        latest = max(t1 for _, _, t1 in messages)
        assert latest <= small_conference_trace.duration * 2.0 / 3.0

    def test_custom_window(self, small_conference_trace):
        messages = random_messages(small_conference_trace, 50, seed=1,
                                   generation_window=(100.0, 200.0))
        assert all(100.0 <= t1 < 200.0 for _, _, t1 in messages)

    def test_reproducible(self, small_conference_trace):
        assert (random_messages(small_conference_trace, 10, seed=5)
                == random_messages(small_conference_trace, 10, seed=5))

    def test_zero_messages(self, small_conference_trace):
        assert random_messages(small_conference_trace, 0, seed=1) == []

    def test_validation(self, small_conference_trace):
        with pytest.raises(ValueError):
            random_messages(small_conference_trace, -1)
        with pytest.raises(ValueError):
            random_messages(small_conference_trace, 5,
                            generation_window=(500.0, 100.0))
        tiny = ContactTrace([], nodes=[0], duration=10.0)
        with pytest.raises(ValueError):
            random_messages(tiny, 1)


class TestAnalyzeDataset:
    def test_produces_one_record_per_message(self, small_conference_trace):
        messages = random_messages(small_conference_trace, 8, seed=2)
        records = analyze_dataset(small_conference_trace, messages,
                                  n_explosion=20)
        assert len(records) == 8
        assert all(r.n_explosion == 20 for r in records)

    def test_accepts_prebuilt_graph(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        messages = random_messages(small_conference_trace, 4, seed=2)
        records = analyze_dataset(small_conference_trace, messages,
                                  n_explosion=10, graph=graph)
        assert len(records) == 4

    def test_most_messages_explode_on_dense_trace(self, small_conference_trace):
        messages = random_messages(small_conference_trace, 15, seed=4)
        records = analyze_dataset(small_conference_trace, messages,
                                  n_explosion=30)
        exploded = sum(1 for r in records if r.exploded)
        # The paper's central observation: the vast majority of delivered
        # messages see an explosion.  On this dense synthetic trace at least
        # half of the messages must reach the (small) threshold.
        assert exploded >= len(records) // 2

    def test_optimal_duration_can_exceed_time_to_explosion(self, small_conference_trace):
        messages = random_messages(small_conference_trace, 20, seed=5)
        records = analyze_dataset(small_conference_trace, messages,
                                  n_explosion=30)
        exploded = [r for r in records if r.exploded]
        assert exploded
        # TE is bounded by the trailing window; T1 is unconstrained, and on
        # average the explosion is quick relative to the slowest optimal path.
        assert max(r.optimal_duration for r in exploded) >= np.median(
            [r.time_to_explosion for r in exploded])


class TestArrivalCurve:
    def test_staircase_without_binning(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        record = analyze_message(PathEnumerator(graph, k=10), 0, 3, 0.0,
                                 n_explosion=2)
        times, counts = arrival_curve(record)
        assert list(times) == [0.0, 30.0]
        assert list(counts) == [1.0, 2.0]

    def test_binned_curve_is_cumulative(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        record = analyze_message(PathEnumerator(graph, k=10), 0, 3, 0.0,
                                 n_explosion=2)
        bins, cumulative = arrival_curve(record, bin_seconds=10.0)
        assert cumulative[-1] == 2.0
        assert np.all(np.diff(cumulative) >= 0)

    def test_empty_for_undelivered(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        record = analyze_message(PathEnumerator(graph, k=10), 3, 0, 90.0,
                                 n_explosion=2)
        times, counts = arrival_curve(record)
        assert times.size == 0 and counts.size == 0

    def test_rejects_bad_bin(self, diamond_trace):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        record = analyze_message(PathEnumerator(graph, k=10), 0, 3, 0.0,
                                 n_explosion=2)
        with pytest.raises(ValueError):
            arrival_curve(record, bin_seconds=0.0)

    @pytest.mark.parametrize("bin_seconds", [float("inf"), float("nan")])
    @pytest.mark.parametrize("source", [0, 3])  # delivered, undelivered
    def test_rejects_non_finite_bin(self, diamond_trace, bin_seconds, source):
        graph = SpaceTimeGraph(diamond_trace, delta=10.0)
        record = analyze_message(PathEnumerator(graph, k=10), source,
                                 3 - source, 0.0, n_explosion=2)
        with pytest.raises(ValueError, match="finite"):
            arrival_curve(record, bin_seconds=bin_seconds)

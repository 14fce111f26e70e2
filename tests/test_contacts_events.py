"""Unit tests for the contact-trace data model (repro.contacts.events)."""

from __future__ import annotations

import pytest

from repro.contacts import Contact, ContactTrace


class TestContact:
    def test_canonical_pair_order(self):
        contact = Contact(0.0, 10.0, 5, 2)
        assert contact.a == 2
        assert contact.b == 5
        assert contact.pair == (2, 5)

    def test_already_ordered_pair_is_unchanged(self):
        contact = Contact(0.0, 10.0, 1, 9)
        assert (contact.a, contact.b) == (1, 9)

    def test_duration(self):
        assert Contact(5.0, 25.0, 0, 1).duration == 20.0

    def test_zero_duration_contact_allowed(self):
        contact = Contact(5.0, 5.0, 0, 1)
        assert contact.duration == 0.0

    def test_rejects_self_contact(self):
        with pytest.raises(ValueError):
            Contact(0.0, 10.0, 3, 3)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            Contact(10.0, 5.0, 0, 1)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Contact(-1.0, 5.0, 0, 1)

    @pytest.mark.parametrize("start, end", [(float("nan"), 5.0),
                                            (0.0, float("nan"))])
    def test_rejects_nan_times(self, start, end):
        with pytest.raises(ValueError):
            Contact(start, end, 0, 1)

    def test_involves(self):
        contact = Contact(0.0, 1.0, 2, 7)
        assert contact.involves(2)
        assert contact.involves(7)
        assert not contact.involves(3)

    def test_peer(self):
        contact = Contact(0.0, 1.0, 2, 7)
        assert contact.peer(2) == 7
        assert contact.peer(7) == 2

    def test_peer_rejects_non_member(self):
        with pytest.raises(ValueError):
            Contact(0.0, 1.0, 2, 7).peer(5)

    def test_overlaps_interior(self):
        contact = Contact(10.0, 20.0, 0, 1)
        assert contact.overlaps(15.0, 16.0)
        assert contact.overlaps(5.0, 11.0)
        assert contact.overlaps(19.0, 30.0)

    def test_overlaps_excludes_disjoint(self):
        contact = Contact(10.0, 20.0, 0, 1)
        assert not contact.overlaps(0.0, 10.0)
        assert not contact.overlaps(20.0, 30.0)

    def test_zero_duration_overlap_semantics(self):
        contact = Contact(10.0, 10.0, 0, 1)
        assert contact.overlaps(10.0, 11.0)
        assert not contact.overlaps(9.0, 10.0)

    def test_active_at(self):
        contact = Contact(10.0, 20.0, 0, 1)
        assert contact.active_at(10.0)
        assert contact.active_at(15.0)
        assert not contact.active_at(20.0)
        assert not contact.active_at(9.99)

    def test_zero_duration_active_only_at_start(self):
        contact = Contact(10.0, 10.0, 0, 1)
        assert contact.active_at(10.0)
        assert not contact.active_at(10.5)

    def test_shifted(self):
        contact = Contact(10.0, 20.0, 0, 1).shifted(5.0)
        assert (contact.start, contact.end) == (15.0, 25.0)

    def test_ordering_by_start_time(self):
        early = Contact(1.0, 2.0, 0, 1)
        late = Contact(3.0, 4.0, 0, 1)
        assert early < late

    def test_equality_and_hash(self):
        a = Contact(0.0, 1.0, 4, 2)
        b = Contact(0.0, 1.0, 2, 4)
        assert a == b
        assert hash(a) == hash(b)


class TestContactTrace:
    def test_len_and_iteration(self, tiny_trace):
        assert len(tiny_trace) == 5
        assert len(list(tiny_trace)) == 5

    def test_contacts_sorted_by_start(self):
        trace = ContactTrace([
            Contact(50.0, 60.0, 0, 1),
            Contact(10.0, 20.0, 1, 2),
            Contact(30.0, 40.0, 0, 2),
        ])
        starts = [c.start for c in trace]
        assert starts == sorted(starts)

    def test_nodes_inferred_from_contacts(self):
        trace = ContactTrace([Contact(0.0, 1.0, 3, 8)])
        assert trace.nodes == frozenset({3, 8})

    def test_explicit_nodes_include_silent_nodes(self):
        trace = ContactTrace([Contact(0.0, 1.0, 0, 1)], nodes=range(4))
        assert trace.nodes == frozenset({0, 1, 2, 3})
        assert trace.contact_counts()[3] == 0

    def test_rejects_contacts_outside_declared_nodes(self):
        with pytest.raises(ValueError):
            ContactTrace([Contact(0.0, 1.0, 0, 9)], nodes=range(3))

    def test_duration_inferred(self):
        trace = ContactTrace([Contact(0.0, 75.0, 0, 1)])
        assert trace.duration == 75.0

    def test_rejects_duration_shorter_than_contacts(self):
        with pytest.raises(ValueError):
            ContactTrace([Contact(0.0, 75.0, 0, 1)], duration=50.0)

    def test_contacts_of(self, tiny_trace):
        assert len(tiny_trace.contacts_of(0)) == 2
        assert len(tiny_trace.contacts_of(2)) == 2

    def test_contacts_between_is_order_insensitive(self, tiny_trace):
        assert tiny_trace.contacts_between(1, 0) == tiny_trace.contacts_between(0, 1)
        assert len(tiny_trace.contacts_between(0, 1)) == 1

    def test_contacts_in_window(self, tiny_trace):
        window = tiny_trace.contacts_in_window(25.0, 65.0)
        pairs = {c.pair for c in window}
        assert pairs == {(1, 2), (2, 3)}

    def test_contacts_starting_in(self, tiny_trace):
        assert len(tiny_trace.contacts_starting_in(0.0, 31.0)) == 2
        assert len(tiny_trace.contacts_starting_in(100.0, 200.0)) == 1

    def test_active_at(self, tiny_trace):
        active = tiny_trace.active_at(40.0)
        assert len(active) == 1
        assert active[0].pair == (1, 2)

    def test_contact_counts(self, tiny_trace):
        counts = tiny_trace.contact_counts()
        assert counts == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}

    def test_contact_rates_scale_with_duration(self, tiny_trace):
        rates = tiny_trace.contact_rates()
        assert rates[0] == pytest.approx(2 / 200.0)

    def test_pair_contact_counts(self, star_trace):
        counts = star_trace.pair_contact_counts()
        assert counts[(0, 1)] == 6
        assert (1, 2) not in counts

    def test_inter_contact_times(self, star_trace):
        gaps = star_trace.inter_contact_times()
        assert (0, 1) in gaps
        # contacts for the pair (0,1) are 80 seconds apart end-to-start.
        assert all(g == pytest.approx(80.0) for g in gaps[(0, 1)])

    def test_inter_contact_times_skips_single_contact_pairs(self, tiny_trace):
        assert tiny_trace.inter_contact_times() == {}

    def test_window_clips_and_rebases(self, tiny_trace):
        sub = tiny_trace.window(25.0, 85.0)
        assert sub.duration == 60.0
        assert len(sub) == 2
        assert sub[0].start == pytest.approx(5.0)  # 30 - 25

    def test_window_without_rebase_keeps_absolute_times(self, tiny_trace):
        sub = tiny_trace.window(25.0, 85.0, rebase=False)
        assert sub[0].start == pytest.approx(30.0)

    def test_window_keeps_node_set(self, tiny_trace):
        sub = tiny_trace.window(0.0, 10.0)
        assert sub.nodes == tiny_trace.nodes

    def test_window_rejects_bad_bounds(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.window(50.0, 50.0)

    def test_restricted_to(self, tiny_trace):
        sub = tiny_trace.restricted_to([0, 1, 2])
        assert sub.nodes == frozenset({0, 1, 2})
        assert all(c.a in {0, 1, 2} and c.b in {0, 1, 2} for c in sub)

    def test_restricted_to_rejects_unknown_nodes(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.restricted_to([0, 99])

    def test_merged_with(self, tiny_trace, dense_burst_trace):
        merged = tiny_trace.merged_with(dense_burst_trace)
        assert len(merged) == len(tiny_trace) + len(dense_burst_trace)
        assert merged.duration == max(tiny_trace.duration, dense_burst_trace.duration)

    def test_relabeled(self, dense_burst_trace):
        mapping = {0: 10, 1: 11, 2: 12, 3: 13}
        renamed = dense_burst_trace.relabeled(mapping)
        assert renamed.nodes == frozenset({10, 11, 12, 13})
        assert len(renamed) == len(dense_burst_trace)

    def test_relabeled_requires_complete_mapping(self, dense_burst_trace):
        with pytest.raises(ValueError):
            dense_burst_trace.relabeled({0: 10})

    def test_relabeled_requires_injective_mapping(self, dense_burst_trace):
        with pytest.raises(ValueError):
            dense_burst_trace.relabeled({0: 10, 1: 10, 2: 12, 3: 13})

    def test_equality(self, tiny_trace):
        clone = ContactTrace(list(tiny_trace.contacts), nodes=tiny_trace.nodes,
                             duration=tiny_trace.duration, name="tiny-clone")
        assert clone == tiny_trace  # name is not part of equality

    def test_summary_keys(self, tiny_trace):
        summary = tiny_trace.summary()
        assert summary["num_nodes"] == 5
        assert summary["num_contacts"] == 5
        assert summary["mean_contact_duration"] == pytest.approx(20.0)

    def test_empty_trace(self):
        trace = ContactTrace([], nodes=range(3), duration=100.0)
        assert len(trace) == 0
        assert trace.contact_counts() == {0: 0, 1: 0, 2: 0}
        assert trace.summary()["contacts_per_second"] == 0.0

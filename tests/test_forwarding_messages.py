"""Unit tests for message workloads (repro.forwarding.messages)."""

from __future__ import annotations

import pytest

from repro.forwarding import Message, PoissonMessageWorkload, UniformMessageWorkload, messages_from_tuples


class TestMessage:
    def test_fields(self):
        message = Message(id=3, source=1, destination=2, creation_time=10.0)
        assert message.endpoints == (1, 2)

    def test_rejects_loopback(self):
        with pytest.raises(ValueError):
            Message(id=0, source=1, destination=1, creation_time=0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Message(id=0, source=1, destination=2, creation_time=-1.0)

    @pytest.mark.parametrize("field", ["creation_time", "size", "ttl"])
    def test_rejects_nan(self, field):
        fields = {"id": 0, "source": 1, "destination": 2,
                  "creation_time": 0.0, field: float("nan")}
        with pytest.raises(ValueError, match=field):
            Message(**fields)

    def test_messages_from_tuples(self):
        messages = messages_from_tuples([(0, 1, 5.0), (2, 3, 6.0)])
        assert [m.id for m in messages] == [0, 1]
        assert messages[1].source == 2


class TestPoissonWorkload:
    def test_rate_controls_volume(self, small_conference_trace):
        few = PoissonMessageWorkload(rate=0.005).generate(small_conference_trace, seed=1)
        many = PoissonMessageWorkload(rate=0.05).generate(small_conference_trace, seed=1)
        assert len(many) > len(few)

    def test_expected_count_close_to_rate_times_window(self, small_conference_trace):
        rate = 0.05
        workload = PoissonMessageWorkload(rate=rate)
        messages = workload.generate(small_conference_trace, seed=2)
        window = small_conference_trace.duration * 2.0 / 3.0
        expected = rate * window
        assert expected * 0.6 < len(messages) < expected * 1.4

    def test_messages_within_generation_window(self, small_conference_trace):
        workload = PoissonMessageWorkload(rate=0.05, generation_window=(100.0, 500.0))
        messages = workload.generate(small_conference_trace, seed=3)
        assert all(100.0 <= m.creation_time < 500.0 for m in messages)

    def test_messages_sorted_by_time(self, small_conference_trace):
        messages = PoissonMessageWorkload(rate=0.05).generate(small_conference_trace, seed=4)
        times = [m.creation_time for m in messages]
        assert times == sorted(times)

    def test_unique_ids(self, small_conference_trace):
        messages = PoissonMessageWorkload(rate=0.05).generate(small_conference_trace, seed=5)
        ids = [m.id for m in messages]
        assert len(ids) == len(set(ids))

    def test_endpoints_are_valid(self, small_conference_trace):
        messages = PoissonMessageWorkload(rate=0.05).generate(small_conference_trace, seed=6)
        for message in messages:
            assert message.source in small_conference_trace.nodes
            assert message.destination in small_conference_trace.nodes
            assert message.source != message.destination

    def test_reproducible(self, small_conference_trace):
        workload = PoissonMessageWorkload(rate=0.02)
        assert (workload.generate(small_conference_trace, seed=9)
                == workload.generate(small_conference_trace, seed=9))

    def test_validation(self, small_conference_trace):
        with pytest.raises(ValueError):
            PoissonMessageWorkload(rate=0.0)
        workload = PoissonMessageWorkload(rate=0.1, generation_window=(500.0, 100.0))
        with pytest.raises(ValueError):
            workload.generate(small_conference_trace, seed=1)

    def test_paper_default_rate(self):
        assert PoissonMessageWorkload().rate == pytest.approx(0.25)


class TestUniformWorkload:
    def test_exact_count(self, small_conference_trace):
        workload = UniformMessageWorkload(num_messages=17)
        assert len(workload.generate(small_conference_trace, seed=1)) == 17

    def test_sorted_and_within_window(self, small_conference_trace):
        workload = UniformMessageWorkload(num_messages=30,
                                          generation_window=(0.0, 1000.0))
        messages = workload.generate(small_conference_trace, seed=2)
        times = [m.creation_time for m in messages]
        assert times == sorted(times)
        assert all(t < 1000.0 for t in times)

    def test_zero_messages(self, small_conference_trace):
        assert UniformMessageWorkload(num_messages=0).generate(small_conference_trace) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformMessageWorkload(num_messages=-1)

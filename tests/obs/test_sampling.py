"""Tests for tail-based trace sampling: budgets, must-keeps, reservoirs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    SamplingConfig,
    SamplingTracer,
    Tracer,
    parse_sampling_spec,
    validate_chrome_trace,
)
from repro.obs import sampling, trace
from repro.obs.export import chrome_trace


def _request(
    tracer: SamplingTracer,
    correlation: int,
    start_ms: float,
    latency_ms: float,
    *,
    deadline_ms: float | None = None,
    outcome: str = "completed",
) -> None:
    """Emit one request lifecycle the way the serving loop does."""
    name = f"request {correlation}"
    args = {"deadline_ms": deadline_ms} if deadline_ms is not None else {}
    tracer.async_begin(
        name, "serving/requests", correlation, start_ms,
        category="request", args=args,
    )
    tracer.async_end(
        name, "serving/requests", correlation, start_ms + latency_ms,
        category="request", args={"outcome": outcome},
    )


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert config.max_records > 0
        assert config.keep_slo_miss and config.keep_rejected

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(max_records=0)
        with pytest.raises(ValueError):
            SamplingConfig(head_every=-1)
        with pytest.raises(ValueError):
            SamplingConfig(track_budget=0)

    def test_parse_spec_defaults_and_overrides(self):
        assert parse_sampling_spec("") == SamplingConfig()
        assert parse_sampling_spec("default") == SamplingConfig()
        config = parse_sampling_spec("budget=2000,head=50,track=100")
        assert config.max_records == 2000
        assert config.head_every == 50
        assert config.track_budget == 100

    def test_parse_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_sampling_spec("rate=5")
        with pytest.raises(ValueError):
            parse_sampling_spec("budget=lots")


class TestTailSampling:
    def test_every_slo_miss_is_kept_under_a_tight_budget(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=10, head_every=0, track_budget=10)
        )
        misses = []
        for correlation in range(1, 101):
            # Every 10th request misses its 5ms deadline.
            missed = correlation % 10 == 0
            latency = 9.0 if missed else 1.0
            if missed:
                misses.append(correlation)
            _request(
                tracer, correlation, float(correlation), latency, deadline_ms=5.0
            )
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        assert set(misses) <= kept
        meta = tracer.sampling_metadata()
        assert meta["requests"]["slo_miss_kept"] == len(misses)

    def test_every_rejection_is_kept(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=6, head_every=0, track_budget=10)
        )
        for correlation in range(1, 31):
            outcome = "rejected" if correlation % 7 == 0 else "completed"
            _request(tracer, correlation, float(correlation), 1.0, outcome=outcome)
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        assert {7, 14, 21, 28} <= kept
        assert tracer.sampling_metadata()["requests"]["rejected_kept"] == 4

    def test_eviction_drops_the_fastest_discretionary_requests_first(self):
        # Budget of 6 records = 3 two-record groups.  When request 4 settles,
        # the fastest discretionary group (request 2) is the one evicted.
        tracer = SamplingTracer(
            SamplingConfig(max_records=6, head_every=0, track_budget=10)
        )
        for correlation, latency in [(1, 5.0), (2, 1.0), (3, 9.0), (4, 2.0)]:
            _request(tracer, correlation, 0.0, latency)
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        assert kept == {1, 3, 4}

    def test_head_sampling_outranks_slower_discretionary_groups(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=4, head_every=10, track_budget=10)
        )
        _request(tracer, 10, 0.0, 1.0)  # head (10 % 10 == 0), fast
        _request(tracer, 11, 0.0, 50.0)  # slower, but not head
        _request(tracer, 12, 0.0, 60.0)  # forces one eviction
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        # The non-head request 11 evicts despite being slower than the head.
        assert kept == {10, 12}
        assert tracer.sampling_metadata()["requests"]["head_kept"] == 1

    def test_peak_request_records_honours_the_budget(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=8, head_every=0, track_budget=10)
        )
        for correlation in range(1, 41):
            _request(tracer, correlation, float(correlation), 1.0)
        meta = tracer.sampling_metadata()
        assert meta["records"]["peak_request_records"] <= 8
        assert meta["requests"]["total"] == 40
        assert meta["requests"]["kept"] + meta["requests"]["dropped"] == 40

    def test_lifecycle_groups_keep_or_drop_atomically(self):
        # A dropped request loses both halves of its lifecycle, so async
        # begin/end pairs always stay balanced in the exported trace.
        tracer = SamplingTracer(
            SamplingConfig(max_records=2, head_every=0, track_budget=10)
        )
        _request(tracer, 1, 0.0, 1.0)
        _request(tracer, 2, 0.0, 9.0)
        kept = [r for r in tracer.records if r.category == "request"]
        assert {record.correlation for record in kept} == {2}
        assert len(kept) == 2
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_track_reservoir_bounds_non_request_records(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=100, head_every=0, track_budget=8)
        )
        for index in range(100):
            tracer.add_span(
                f"kernel {index}", "worker 0/stream 0",
                float(index), float(index) + 0.5, category="kernel",
            )
        spans = [r for r in tracer.records if r.category == "kernel"]
        assert len(spans) <= 8
        assert tracer.sampling_metadata()["records"]["dropped"] >= 92

    def test_alert_and_autoscale_instants_are_exempt(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=2, head_every=0, track_budget=2)
        )
        for index in range(20):
            tracer.instant(
                f"alert rule-{index}", "serving/alerts", float(index),
                category="alert",
            )
            tracer.instant(
                "scale up", "serving/autoscale", float(index),
                category="autoscale",
            )
        categories = [record.category for record in tracer.records]
        assert categories.count("alert") == 20
        assert categories.count("autoscale") == 20

    def test_records_merge_in_emission_order(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=100, head_every=1, track_budget=100)
        )
        tracer.instant("before", "serving/admission", 0.0, category="admission")
        _request(tracer, 1, 1.0, 1.0)
        tracer.instant("after", "serving/admission", 3.0, category="admission")
        names = [record.name for record in tracer.records]
        assert names == ["before", "request 1", "request 1", "after"]

    def test_clear_resets_all_state(self):
        tracer = SamplingTracer(SamplingConfig(max_records=10))
        _request(tracer, 1, 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.records == []
        assert tracer.sampling_metadata()["requests"]["total"] == 0

    def test_lifecycle_opened_by_an_end_does_not_crash(self):
        # An end with no matching begin closes the group it opened; the
        # lifecycle is measured from that first record, with no deadline.
        plain, sampled = Tracer(), SamplingTracer()
        for tracer in (plain, sampled):
            for _ in range(2):
                tracer.async_end(
                    "request 1", "serving/requests", 1, 5.0, category="request"
                )
        assert sampled.records == plain.records
        requests = sampled.sampling_metadata()["requests"]
        assert requests["total"] == requests["kept"] == 1
        assert requests["slo_miss_kept"] == 0


def _request_recount(tracer: SamplingTracer) -> int:
    """Brute-force count of the retained request-lifecycle records."""
    return sum(len(group) for group in tracer._kept_groups.values()) + sum(
        len(group) for _, group in tracer._open.values()
    )


def _recount(tracer: SamplingTracer) -> int:
    """Brute-force count of every retained record."""
    return (
        _request_recount(tracer)
        + sum(len(reservoir.kept) for reservoir in tracer._tracks.values())
        + len(tracer._exempt)
    )


#: One recording call: (kind, a choice index, a time step, a deadline).
_CALLS = st.lists(
    st.tuples(
        st.sampled_from(
            ["begin", "child", "complete", "reject", "span", "counter", "exempt"]
        ),
        st.integers(0, 7),
        st.floats(0.0, 2.0),
        st.one_of(st.none(), st.floats(0.5, 4.0)),
    ),
    max_size=120,
)


class TestRunningCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        calls=_CALLS,
        max_records=st.integers(1, 12),
        track_budget=st.integers(2, 6),
        head_every=st.integers(0, 3),
    )
    def test_counts_match_a_brute_force_recount(
        self, calls, max_records, track_budget, head_every
    ):
        tracer = SamplingTracer(
            SamplingConfig(
                max_records=max_records, head_every=head_every,
                track_budget=track_budget,
            )
        )
        peaks = {"peak_retained": 0, "peak_request_records": 0}

        def call(method, *args, **kwargs):
            """Make one recording call, then check every count against a recount."""
            getattr(tracer, method)(*args, **kwargs)
            retained = _recount(tracer)
            peaks["peak_retained"] = max(peaks["peak_retained"], retained)
            peaks["peak_request_records"] = max(
                peaks["peak_request_records"], _request_recount(tracer)
            )
            records = tracer.sampling_metadata()["records"]
            assert len(tracer) == retained
            assert records["kept"] == retained
            assert len(tracer.records) == retained
            assert records["peak_retained"] == peaks["peak_retained"]
            assert records["peak_request_records"] == peaks["peak_request_records"]

        now, next_id, open_ids = 0.0, 0, []
        for kind, choice, step, deadline in calls:
            now += step
            if kind == "begin":
                args = {"deadline_ms": deadline} if deadline is not None else {}
                call(
                    "async_begin", f"request {next_id}", "serving/requests", next_id,
                    now, category="request", args=args,
                )
                open_ids.append(next_id)
                next_id += 1
            elif kind in ("child", "complete", "reject") and open_ids:
                correlation = open_ids[choice % len(open_ids)]
                if kind == "child":
                    for method in ("async_begin", "async_end"):
                        call(
                            method, "queued", "serving/requests", correlation, now,
                            category="request",
                        )
                else:
                    open_ids.remove(correlation)
                    outcome = "rejected" if kind == "reject" else "completed"
                    call(
                        "async_end", f"request {correlation}", "serving/requests",
                        correlation, now, category="request",
                        args={"outcome": outcome},
                    )
            elif kind == "span":
                call(
                    "add_span", "kernel", f"worker {choice % 3}/stream 0", now,
                    now + step, category="kernel",
                )
            elif kind == "counter":
                call("counter", "queue depth", "serving/loop", now, {"requests": choice})
            elif kind == "exempt":
                call("instant", "alert", "serving/alerts", now, category="alert")

    def test_decimated_track_records_are_never_built(self, monkeypatch):
        built, admitted = [0], [0]

        class CountingRecord(trace.TraceRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built[0] += 1

        admits = sampling._TrackReservoir.admits

        def counting_admits(reservoir):
            verdict = admits(reservoir)
            admitted[0] += verdict
            return verdict

        monkeypatch.setattr(trace, "TraceRecord", CountingRecord)
        monkeypatch.setattr(sampling._TrackReservoir, "admits", counting_admits)
        tracer = SamplingTracer(SamplingConfig(track_budget=64))
        for index in range(10_000):
            tracer.add_span(
                "kernel", "worker 0/stream 0", float(index), index + 0.5,
                category="kernel",
            )
        assert built[0] == admitted[0]
        assert built[0] < 1_000
        assert len(tracer) < 64

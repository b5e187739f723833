"""Tests for serving metrics aggregation."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, run_cluster_serving
from repro.obs import default_alert_rules
from repro.serve import (
    BatchPolicy,
    BurstSlo,
    InferenceRequest,
    InferenceService,
    LatencySummary,
    PriorityClassSlo,
    RejectedRequest,
    RequestRecord,
    ServingConfig,
    SloSummary,
    TrafficConfig,
    TrafficGenerator,
    build_report,
    build_slo_summary,
    percentile,
)
from repro.serve.registry import RegistryStats


def record(request_id: int, arrival: float, completed: float,
           dispatched: float | None = None, **request_kwargs) -> RequestRecord:
    dispatched = arrival if dispatched is None else dispatched
    return RequestRecord(
        request=InferenceRequest(request_id=request_id, model="m",
                                 arrival_ms=arrival, **request_kwargs),
        batched_ms=dispatched,
        dispatch_ms=dispatched,
        completion_ms=completed,
        executed_batch_size=1,
        worker_id=0,
    )


def rejection(request_id: int, arrival: float, reason: str = "shed",
              **request_kwargs) -> RejectedRequest:
    return RejectedRequest(
        request=InferenceRequest(request_id=request_id, model="m",
                                 arrival_ms=arrival, **request_kwargs),
        rejected_ms=arrival,
        reason=reason,
    )


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestBuildReport:
    def test_throughput_uses_the_full_span(self):
        records = [record(0, 0.0, 50.0), record(1, 100.0, 200.0)]
        report = build_report(records, num_batches=2, batch_size_counts={1: 2},
                              registry_stats=RegistryStats(), worker_summary=[])
        # 2 requests over 200 ms of virtual time.
        assert report.throughput_rps == pytest.approx(10.0)
        assert report.makespan_ms == pytest.approx(200.0)

    def test_latency_and_queue_delay_summaries(self):
        records = [
            record(0, 0.0, 4.0, dispatched=1.0),
            record(1, 0.0, 8.0, dispatched=2.0),
        ]
        report = build_report(records, num_batches=2, batch_size_counts={1: 2},
                              registry_stats=RegistryStats(), worker_summary=[])
        assert report.latency.mean_ms == pytest.approx(6.0)
        assert report.latency.max_ms == pytest.approx(8.0)
        assert report.queue_delay.mean_ms == pytest.approx(1.5)

    def test_mean_batch_occupancy(self):
        records = [record(i, 0.0, 1.0) for i in range(6)]
        report = build_report(records, num_batches=2, batch_size_counts={4: 1, 2: 1},
                              registry_stats=RegistryStats(), worker_summary=[])
        assert report.mean_batch_occupancy == pytest.approx(3.0)
        assert list(report.batch_size_counts) == [2, 4]

    def test_describe_mentions_the_headline_numbers(self):
        records = [record(0, 0.0, 2.0)]
        report = build_report(records, num_batches=1, batch_size_counts={1: 1},
                              registry_stats=RegistryStats(searches=3),
                              worker_summary=[{"worker": 0, "device": "v100",
                                              "batches": 1, "samples": 1,
                                              "busy_ms": 2.0, "utilization": 1.0}])
        text = report.describe()
        assert "1 requests" in text
        assert "3 searches" in text
        assert "worker 0 (v100)" in text

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_report([], num_batches=0, batch_size_counts={},
                         registry_stats=RegistryStats(), worker_summary=[])

    def test_no_slo_summary_without_slo_signals(self):
        report = build_report([record(0, 0.0, 2.0)], num_batches=1,
                              batch_size_counts={1: 1},
                              registry_stats=RegistryStats(), worker_summary=[])
        assert report.slo_summary is None

    def test_all_rejected_run_builds_an_empty_latency_report(self):
        report = build_report(
            [], num_batches=0, batch_size_counts={},
            registry_stats=RegistryStats(), worker_summary=[],
            rejected=[rejection(0, 0.0), rejection(1, 1.0)],
        )
        assert report.num_requests == 0
        assert report.latency == LatencySummary.empty()
        assert report.slo_summary.offered == 2
        assert report.slo_summary.rejected == 2
        assert report.slo_summary.attainment_rate == 0.0


class TestSloSummary:
    def test_attainment_counts_rejections_as_misses(self):
        records = [
            record(0, 0.0, 5.0, deadline_ms=10.0),   # met
            record(1, 0.0, 20.0, deadline_ms=10.0),  # violated
            record(2, 0.0, 5.0),                     # no SLO: counts as met
        ]
        rejected = [rejection(3, 0.0, deadline_ms=10.0)]
        slo = build_slo_summary(records, rejected)
        assert slo.offered == 4
        assert slo.admitted == 3
        assert slo.rejected == 1
        assert slo.met == 2
        assert slo.violations == 1
        assert slo.with_deadline == 2
        assert slo.attainment_rate == pytest.approx(0.5)

    def test_rejection_reasons_are_tallied(self):
        slo = build_slo_summary([], [
            rejection(0, 0.0, reason="predicted-deadline-miss"),
            rejection(1, 0.0, reason="predicted-deadline-miss"),
            rejection(2, 0.0, reason="low-priority-shed"),
        ])
        assert slo.rejection_reasons == {
            "predicted-deadline-miss": 2,
            "low-priority-shed": 1,
        }

    def test_per_priority_breakdown_is_highest_first(self):
        records = [
            record(0, 0.0, 5.0, deadline_ms=10.0, priority=1),
            record(1, 0.0, 20.0, deadline_ms=10.0, priority=0),
        ]
        rejected = [rejection(2, 0.0, deadline_ms=10.0, priority=0)]
        slo = build_slo_summary(records, rejected)
        assert [row.priority for row in slo.per_priority] == [1, 0]
        high, low = slo.per_priority
        assert (high.offered, high.met, high.attainment) == (1, 1, 1.0)
        assert (low.offered, low.met, low.attainment) == (2, 0, 0.0)
        assert low.rejected == 1

    def test_per_burst_breakdown(self):
        records = [
            record(0, 0.0, 5.0, deadline_ms=10.0, burst_id=0),
            record(1, 0.0, 30.0, deadline_ms=10.0, burst_id=1),
        ]
        rejected = [rejection(2, 0.0, deadline_ms=10.0, burst_id=1)]
        slo = build_slo_summary(records, rejected)
        assert [row.burst_id for row in slo.per_burst] == [0, 1]
        first, second = slo.per_burst
        assert first.attainment == 1.0
        assert second.offered == 2
        assert second.attainment == 0.0

    def test_describe_mentions_attainment_and_rejections(self):
        slo = build_slo_summary(
            [record(0, 0.0, 5.0, deadline_ms=10.0)],
            [rejection(1, 0.0, reason="predicted-deadline-miss")],
        )
        text = slo.describe()
        assert "1/2 met" in text
        assert "predicted-deadline-miss×1" in text

    def test_deadline_met_property(self):
        assert record(0, 0.0, 5.0, deadline_ms=10.0).deadline_met
        assert not record(0, 0.0, 15.0, deadline_ms=10.0).deadline_met
        assert record(0, 0.0, 1e9).deadline_met  # no SLO is never violated


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportGolden:
    """Seeded serving and cluster reports are pinned digest for digest.

    Report assembly and metric recording may be restructured for speed, but
    the SLO breakdowns, the per-device rows, the metrics dump and the alert
    transitions they produce must not move by a bit.
    """

    BURSTY = {
        "slo_summary": (
            "0d66c248c19e99726eb34f884cc40467f9653c2ae322b1f033487c0e7f449eef"
        ),
        "device_summary": (
            "1a4b483f4644a10b849cf28ff0d7cb0fc7909450d93f794732aaf3df096e3c8a"
        ),
        "metrics": (
            "8137822d9df935df0287145c3a8329d92fd05ac81a1e94e581bf83c133dfe589"
        ),
    }
    WINDOWED = {
        "slo_summary": (
            "33697551742c38a245b610fe4fa7bc71567b70e618d0425387faeb47d941919d"
        ),
        "device_summary": (
            "5f9141a708af84b66de1cba5cefb4e20fde0e5b0e6dcb95e0c7ff02e3ad9b113"
        ),
        "metrics": (
            "43e3c25c3c0cb278312b94b81db48abcdc1b247665c0b0bc040c006cbec817d4"
        ),
        "windows": (
            "84e71f88278c57a5cf5847c456b7f8750f596aa8ea7a69f85beb91264b93b685"
        ),
        "alerts": (
            "f91f10820e10c905174f76f29105316eb04695a496cb405bbcd6ff2f97229f7a"
        ),
    }
    CLUSTER = {
        "slo_summary": (
            "bdf451fca99932e2ae5b3a3b0df2c7e8b475378479296cb7cc638401a8d8d760"
        ),
        "host_metrics": (
            "ab1dec6a3af6cb54500fee3e168119bbbcd3738b529001217efe14680a055f07"
        ),
    }

    @staticmethod
    def _service(admission: str, **kwargs) -> InferenceService:
        return InferenceService(
            ServingConfig(
                model="squeezenet", fleet="k80:1,v100:1", batch_sizes=(1, 2, 4, 8),
                policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
                admission=admission,
            ),
            **kwargs,
        )

    @staticmethod
    def _digests(report) -> dict[str, str]:
        return {
            "slo_summary": _digest(repr(report.slo_summary)),
            "device_summary": _digest(repr(report.device_summary)),
            "metrics": _digest(report.metrics.to_json()),
        }

    def test_bursty_priority_run_matches_the_golden_digests(self):
        requests = TrafficGenerator(
            TrafficConfig(
                model="squeezenet", pattern="bursty", num_requests=4000,
                burst_size=96, burst_gap_ms=30.0, slo_ms=20.0,
                priorities=(0, 1), priority_weights=(0.7, 0.3), seed=7,
            )
        ).generate()
        report = self._service("priority").run(requests)
        assert len(report.slo_summary.per_priority) == 2
        assert len(report.slo_summary.per_burst) > 40
        assert report.rejected
        assert self._digests(report) == self.BURSTY

    def test_windowed_alerting_run_matches_the_golden_digests(self):
        service = self._service(
            "deadline", alerts=default_alert_rules(slo_ms=20.0), window_ms=20.0
        )
        report = service.run(
            TrafficGenerator(
                TrafficConfig(
                    model="squeezenet", pattern="poisson", num_requests=2000,
                    rate_rps=3300.0, slo_ms=20.0, seed=11,
                )
            ).generate()
        )
        assert report.alerts
        digests = self._digests(report)
        digests["windows"] = _digest(
            json.dumps(report.metrics.window_snapshot(), sort_keys=True)
        )
        digests["alerts"] = _digest(repr(report.alerts))
        assert digests == self.WINDOWED

    def test_partitioned_cluster_run_matches_the_golden_digest(self):
        cluster = run_cluster_serving(
            TrafficConfig(
                model="squeezenet", pattern="bursty", num_requests=1500,
                burst_size=32, burst_gap_ms=40.0, slo_ms=60.0, seed=5,
            ),
            ClusterConfig(
                serving=ServingConfig(
                    model="squeezenet", devices=("k80",), batch_sizes=(1, 2, 4, 8),
                    policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
                ),
                num_hosts=4, partition=True, router="partition-affinity",
                link="bw=12.5,lat=0.05",
            ),
        )
        assert cluster.plan is not None and cluster.plan.num_stages == 4
        assert len(cluster.report.slo_summary.per_burst) > 40
        host_metrics = [
            host_report.metrics.to_json()
            for host_report in cluster.host_reports
            if host_report is not None
        ]
        assert len(host_metrics) == 4
        assert {
            "slo_summary": _digest(repr(cluster.report.slo_summary)),
            "host_metrics": _digest("\n".join(host_metrics)),
        } == self.CLUSTER


def oracle_slo_summary(records, rejected) -> SloSummary:
    """Brute-force SLO summary: rescan everything once per class and burst."""
    offered = len(records) + len(rejected)
    met = sum(1 for record in records if record.deadline_met)
    reasons: dict[str, int] = {}
    for rejection in rejected:
        reasons[rejection.reason] = reasons.get(rejection.reason, 0) + 1
    per_priority = []
    priorities = sorted(
        {record.request.priority for record in records}
        | {rejection.request.priority for rejection in rejected},
        reverse=True,
    )
    for priority in priorities:
        class_records = [r for r in records if r.request.priority == priority]
        class_rejected = [r for r in rejected if r.request.priority == priority]
        class_met = sum(1 for record in class_records if record.deadline_met)
        class_offered = len(class_records) + len(class_rejected)
        latencies = [record.latency_ms for record in class_records]
        per_priority.append(
            PriorityClassSlo(
                priority=priority,
                offered=class_offered,
                admitted=len(class_records),
                rejected=len(class_rejected),
                met=class_met,
                violations=len(class_records) - class_met,
                attainment=class_met / class_offered if class_offered else 0.0,
                p50_ms=percentile(latencies, 50) if latencies else 0.0,
                p95_ms=percentile(latencies, 95) if latencies else 0.0,
                p99_ms=percentile(latencies, 99) if latencies else 0.0,
            )
        )
    per_burst = []
    burst_ids = sorted(
        {r.request.burst_id for r in records if r.request.burst_id is not None}
        | {r.request.burst_id for r in rejected if r.request.burst_id is not None}
    )
    for burst_id in burst_ids:
        burst_records = [r for r in records if r.request.burst_id == burst_id]
        burst_rejected = [r for r in rejected if r.request.burst_id == burst_id]
        burst_met = sum(1 for record in burst_records if record.deadline_met)
        burst_offered = len(burst_records) + len(burst_rejected)
        per_burst.append(
            BurstSlo(
                burst_id=burst_id,
                offered=burst_offered,
                admitted=len(burst_records),
                met=burst_met,
                attainment=burst_met / burst_offered if burst_offered else 0.0,
            )
        )
    return SloSummary(
        offered=offered,
        admitted=len(records),
        rejected=len(rejected),
        with_deadline=sum(1 for r in records if r.request.deadline_ms is not None),
        met=met,
        violations=len(records) - met,
        attainment_rate=met / offered if offered else 0.0,
        rejection_reasons=reasons,
        per_priority=per_priority,
        per_burst=per_burst,
    )


_request_fields = st.fixed_dictionaries({
    "priority": st.sampled_from((0, 1, 2)),
    "burst_id": st.one_of(st.none(), st.integers(0, 6)),
    "deadline_ms": st.one_of(st.none(), st.sampled_from((2.0, 5.0, 10.0))),
    "arrival": st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
})


@st.composite
def slo_inputs(draw):
    """Records and rejections over few classes and bursts, ids unique."""
    completed = draw(st.lists(
        st.tuples(_request_fields, st.floats(0.0, 20.0, allow_nan=False)), max_size=40
    ))
    shed = draw(st.lists(
        st.tuples(_request_fields, st.sampled_from(("shed", "late"))), max_size=20
    ))
    records = [
        record(i, fields["arrival"], fields["arrival"] + took,
               priority=fields["priority"], burst_id=fields["burst_id"],
               deadline_ms=fields["deadline_ms"])
        for i, (fields, took) in enumerate(completed)
    ]
    rejected = [
        rejection(len(records) + i, fields["arrival"], reason=reason,
                  priority=fields["priority"], burst_id=fields["burst_id"],
                  deadline_ms=fields["deadline_ms"])
        for i, (fields, reason) in enumerate(shed)
    ]
    return records, rejected


class TestSloSummaryOracle:
    """The one-pass summary equals today's rescan-per-group arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(slo_inputs())
    def test_summary_equals_the_brute_force_oracle(self, inputs):
        records, rejected = inputs
        assert repr(build_slo_summary(records, rejected)) == repr(
            oracle_slo_summary(records, rejected)
        )

    @pytest.mark.parametrize("records, rejected", [
        ([], []),
        ([], [rejection(0, 0.0, burst_id=3, priority=1)]),
        ([record(0, 0.0, 4.0, deadline_ms=5.0)], []),
        (
            [record(0, 0.0, 4.0, deadline_ms=5.0, burst_id=None),
             record(1, 1.0, 9.0, deadline_ms=5.0, burst_id=0)],
            [rejection(2, 1.0, burst_id=1), rejection(3, 2.0, burst_id=None)],
        ),
    ], ids=["empty", "rejections-only", "single-class", "burst-only-rejected"])
    def test_named_edge_cases_equal_the_oracle(self, records, rejected):
        assert repr(build_slo_summary(records, rejected)) == repr(
            oracle_slo_summary(records, rejected)
        )


class CountingRequest:
    """A request stub whose ``priority`` and ``burst_id`` count their reads."""

    reads = 0

    def __init__(self, request_id: int, burst_id: int, priority: int):
        self.request_id = request_id
        self.arrival_ms = float(request_id)
        self.deadline_ms = 10.0
        self.absolute_deadline_ms = self.arrival_ms + 10.0
        self._burst_id = burst_id
        self._priority = priority

    @property
    def burst_id(self) -> int:
        CountingRequest.reads += 1
        return self._burst_id

    @property
    def priority(self) -> int:
        CountingRequest.reads += 1
        return self._priority


class TestSloSummaryLinearity:
    """Grouping reads each request's class and burst a constant number of times."""

    BURSTS = 400
    PER_BURST = 4

    def test_reads_grow_with_records_not_records_times_bursts(self):
        records, rejected = [], []
        for burst in range(self.BURSTS):
            for slot in range(self.PER_BURST):
                request_id = burst * self.PER_BURST + slot
                request = CountingRequest(request_id, burst, priority=slot % 2)
                if slot == 0:
                    rejected.append(
                        RejectedRequest(request=request, rejected_ms=0.0, reason="shed")
                    )
                else:
                    records.append(RequestRecord(
                        request=request, batched_ms=request.arrival_ms,
                        dispatch_ms=request.arrival_ms,
                        completion_ms=request.arrival_ms + 5.0,
                        executed_batch_size=1, worker_id=0,
                    ))
        CountingRequest.reads = 0
        summary = build_slo_summary(records, rejected)
        assert len(summary.per_burst) == self.BURSTS
        assert len(summary.per_priority) == 2
        requests = len(records) + len(rejected)
        reads = CountingRequest.reads
        assert reads <= 4 * requests, f"{reads} reads for {requests} requests"

"""Live observability through the serving stack: alerts, watch, sampling.

The acceptance bar of the live layer:

* on an overloaded scenario the burn-rate rule **fires mid-run**, before the
  final report's attainment lands below its target;
* alert transitions are virtual-clock deterministic — same seed, same events;
* sampling observes without perturbing: a sampled run's ``describe()`` is
  byte-identical to the unsampled same-seed run;
* the sampler keeps **every** SLO-missed request while holding the peak of
  retained request records at the budget.
"""

from __future__ import annotations

import hashlib
import io
import json

from repro.hardware import get_devices
from repro.models import chain_graph
from repro.obs import (
    SamplingConfig,
    SamplingTracer,
    WatchRenderer,
    alerts_snapshot,
    default_alert_rules,
    validate_chrome_trace,
)
from repro.obs.export import chrome_trace
from repro.serve import (
    AutoscaleConfig,
    BatchPolicy,
    InferenceService,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
    WorkerPool,
)

SLO_MS = 1.5
WINDOW_MS = 2.0


def overload_requests(seed: int = 3):
    """Bursty deadline-carrying traffic that a single k80 cannot hold."""
    return TrafficGenerator(
        TrafficConfig(
            model="toy", pattern="bursty", num_requests=80, rate_rps=4000.0,
            burst_size=32, burst_gap_ms=2.0, sample_sizes=(1, 2),
            sample_weights=(0.6, 0.4), slo_ms=SLO_MS, seed=seed,
        )
    ).generate()


def overload_service(**overrides) -> InferenceService:
    registry = ScheduleRegistry(
        graph_builder=lambda model, bs: chain_graph(length=6, batch_size=bs)
    )
    config = ServingConfig(
        model="toy", devices=("k80",), batch_sizes=(1, 2, 4),
        policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0),
        admission=overrides.pop("admission", "admit-all"),
        autoscale=overrides.pop("autoscale", None),
    )
    return InferenceService(config, registry=registry, **overrides)


def run_with_alerts(**overrides):
    service = overload_service(
        alerts=default_alert_rules(slo_ms=SLO_MS), window_ms=WINDOW_MS,
        **overrides,
    )
    return service.run(overload_requests())


class TestAlertingEndToEnd:
    def test_burn_rate_fires_before_attainment_lands_below_target(self):
        report = run_with_alerts()
        slo = report.slo_summary
        assert slo.attainment_rate < 0.95  # the run really is overloaded
        firing = [
            event for event in report.alerts
            if event.rule == "slo-burn-rate" and event.state == "firing"
        ]
        assert firing, "the burn-rate rule must fire on an overloaded run"
        # The alert leads the report: it fires at a window close inside the
        # run, not after the last request lands.
        last_window_end = max(event.time_ms for event in report.alerts)
        assert firing[0].time_ms <= last_window_end
        assert firing[0].severity == "critical"

    def test_alert_transitions_are_deterministic(self):
        first = alerts_snapshot(run_with_alerts().alerts)
        second = alerts_snapshot(run_with_alerts().alerts)
        assert first == second
        assert first  # non-empty: the scenario alerts

    def test_describe_lists_the_alert_section(self):
        report = run_with_alerts()
        text = report.describe()
        assert "alerts    :" in text
        assert "slo-burn-rate" in text

    def test_report_without_alerts_keeps_the_old_shape(self):
        report = overload_service().run(overload_requests())
        assert report.alerts == []
        assert "alerts    :" not in report.describe()

    def test_firing_alert_scales_the_pool_up(self):
        report = run_with_alerts(
            autoscale=AutoscaleConfig(
                min_workers=1, max_workers=3, interval_ms=5.0,
                scale_up_backlog_ms=1e9,  # the watermark alone never trips
            )
        )
        alert_scale_ups = [
            event for event in report.scale_events
            if event.action == "up" and event.reason.startswith("alert ")
        ]
        assert alert_scale_ups, "a firing alert must grow the pool"

    def test_watch_renders_dashboard_lines(self):
        stream = io.StringIO()
        service = overload_service(
            alerts=default_alert_rules(slo_ms=SLO_MS),
            watch=WatchRenderer(stream=stream), window_ms=WINDOW_MS,
        )
        service.run(overload_requests())
        lines = stream.getvalue().splitlines()
        assert lines
        assert all("rps" in line and "p99" in line for line in lines)
        assert any("ALERTS:" in line for line in lines)


class TestSamplingEndToEnd:
    def test_sampled_describe_is_byte_identical_to_unsampled(self):
        unsampled = overload_service().run(overload_requests())
        sampled_service = overload_service(
            tracer=SamplingTracer(
                SamplingConfig(max_records=60, head_every=10, track_budget=50)
            )
        )
        sampled = sampled_service.run(overload_requests())
        assert sampled.describe() == unsampled.describe()

    def test_sampler_keeps_every_slo_missed_request(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=40, head_every=0, track_budget=50)
        )
        report = overload_service(tracer=tracer).run(overload_requests())
        violations = report.slo_summary.violations
        assert violations > 0
        meta = tracer.sampling_metadata()
        assert meta["requests"]["slo_miss_kept"] == violations
        assert meta["requests"]["dropped"] > 0  # the budget did bind

    def test_peak_retained_request_records_honours_the_budget(self):
        # The budget must exceed the scenario's peak concurrency: an open
        # lifecycle cannot be shed before its outcome is known (that *is*
        # tail sampling), so the enforceable floor is open buffers plus
        # must-keeps.  Above that floor the peak pins at the budget exactly.
        budget = 120
        tracer = SamplingTracer(
            SamplingConfig(max_records=budget, head_every=0, track_budget=50)
        )
        overload_service(tracer=tracer).run(overload_requests())
        meta = tracer.sampling_metadata()
        assert meta["records"]["peak_request_records"] <= budget
        assert meta["requests"]["dropped"] > 0  # ...while still binding

    def test_sampled_trace_still_validates(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=40, head_every=10, track_budget=50)
        )
        overload_service(tracer=tracer).run(overload_requests())
        document = chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["sampling"]["requests"]["total"] == 80


class TestLoopReuse:
    def test_reused_loop_dumps_the_same_metrics_for_the_same_run(self):
        # The loop binds its metric series per run, after clearing the
        # registry: a handle kept from the first run would write into a
        # family the clear dropped, and the second dump would lose it.
        slo_ms = 2.5  # sheds part of each burst and still fires alerts
        requests = TrafficGenerator(
            TrafficConfig(
                model="toy", pattern="bursty", num_requests=80, rate_rps=4000.0,
                burst_size=32, burst_gap_ms=2.0, sample_sizes=(1, 2),
                sample_weights=(0.6, 0.4), slo_ms=slo_ms, seed=3,
            )
        ).generate()
        service = overload_service(
            admission="deadline", alerts=default_alert_rules(slo_ms=slo_ms),
            window_ms=WINDOW_MS,
        )
        service.warmup()
        loop = service.loop
        dumps = []
        for _ in range(2):
            # Fresh worker horizons: only the loop and its metrics registry
            # carry over from the first run.
            loop.pool = WorkerPool(get_devices(("k80",)))
            loop.metrics.clear()
            result = loop.run(requests)
            assert result.records and result.rejected and result.alerts
            dump = json.loads(loop.metrics.to_json())
            # The schedule registry's counters are cumulative across runs.
            del dump["serve.registry.lookups"]
            dumps.append(dump)
        assert dumps[0] == dumps[1]
        assert "serve.admission.rejected" in dumps[1]


class TestSampledTraceGolden:
    """A seeded sampled overload run is pinned record for record.

    The sampler's bookkeeping may be restructured for speed, but what it
    keeps, drops and reports must not move: the digests below cover the
    retained virtual-clock records (the wall-clock ``compile/*`` track is
    excluded) and the full sampling metadata.
    """

    RECORDS_DIGEST = (
        "ebeaa0d8c37d7fcc6d8a0bfd6588c0f90456051bce9f7df15e12f418f11fbe9d"
    )
    METADATA_DIGEST = (
        "6c7a9114b5027c83dcfbcca3f00eb8e1155172d53306d43ef627296020797b0d"
    )

    def test_sampled_overload_trace_matches_the_golden_digests(self):
        tracer = SamplingTracer(SamplingConfig(max_records=2000))
        service = InferenceService(
            ServingConfig(
                model="squeezenet", fleet="k80:1,v100:1", batch_sizes=(1, 2, 4, 8),
                policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
                admission="deadline",
            ),
            tracer=tracer, alerts=default_alert_rules(slo_ms=20.0),
        )
        service.run(
            TrafficGenerator(
                TrafficConfig(
                    model="squeezenet", pattern="poisson", num_requests=2000,
                    rate_rps=3300.0, slo_ms=20.0, seed=11,
                )
            ).generate()
        )
        records = [
            record for record in tracer.records
            if not record.track.startswith("compile/")
        ]
        metadata = json.dumps(tracer.sampling_metadata(), sort_keys=True)
        assert tracer.sampling_metadata()["requests"]["dropped"] > 0
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            self.RECORDS_DIGEST
        )
        assert hashlib.sha256(metadata.encode()).hexdigest() == self.METADATA_DIGEST

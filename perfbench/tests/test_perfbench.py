"""The benchmark's own tests: span arithmetic, wrappers, output checks, contract."""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402
from perfbench.layers import LAYER_METRICS, TARGETS  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Bindings,
    SpanRecorder,
    iteration_wrapper,
    layer_table,
    resolve_owners,
    self_times,
    span_wrapper,
)
from perfbench.worker import install_targets  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def record(recorder: SpanRecorder, name: str):
    return recorder.open(recorder.name_index(name))


# ------------------------------------------------------------- self time
def test_self_time_of_nested_spans():
    recorder = SpanRecorder(FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 10.0]))
    root = record(recorder, "root")          # 0 .. 10
    a = record(recorder, "a")                # 1 .. 5
    b = record(recorder, "b")                # 2 .. 4
    recorder.close(b)
    recorder.close(a)
    recorder.close(root)
    own = self_times(recorder)
    assert own == {"root": 6.0, "a": 2.0, "b": 2.0}
    assert sum(own.values()) == 10.0


def test_self_time_of_recursive_spans_counts_each_instant_once():
    # f calls f calls f: each level's own time is counted once, under f.
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 10.0]
    recorder = SpanRecorder(FakeClock(times))
    root = record(recorder, "root")          # 0 .. 10
    outer = record(recorder, "f")            # 1 .. 9
    middle = record(recorder, "f")           # 2 .. 6
    inner = record(recorder, "f")            # 3 .. 4
    recorder.close(inner)
    recorder.close(middle)
    recorder.close(outer)
    recorder.close(root)
    own = self_times(recorder)
    assert own["f"] == pytest.approx(8.0)
    assert own["root"] == pytest.approx(2.0)


def test_layer_table_rows_sum_to_traced_wall():
    recorder = SpanRecorder(FakeClock([0.0, 1.0, 3.0, 4.0, 7.0, 8.0]))
    root = record(recorder, "root")
    first = record(recorder, "x")
    recorder.close(first)
    second = record(recorder, "y")
    recorder.close(second)
    recorder.close(root)
    rows = layer_table(self_times(recorder), 8.0, "root", ["x", "y", "idle"])
    assert any(row.startswith("unaccounted") and "3.0000" in row for row in rows)
    assert "sum" in rows[-1] and "8.0000" in rows[-1]


def test_closing_out_of_order_is_an_error():
    recorder = SpanRecorder()
    outer = record(recorder, "a")
    record(recorder, "b")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


# --------------------------------------------------------------- wrappers
def test_span_wrapper_counts_outermost_calls_and_extracts():
    recorder = SpanRecorder()

    def extract(counts: Counter, args, result):
        counts["seen"] += result

    calls = []

    def work(value, again=False):
        calls.append(value)
        return wrapped(value, False) if again else value

    wrapped = span_wrapper(recorder, "layer", work, count="calls", extract=extract)
    assert wrapped(3, again=True) == 3
    assert calls == [3, 3]
    assert recorder.counts == Counter({"calls": 1, "seen": 3})
    assert len(recorder) == 2


def test_override_calling_super_counts_once():
    class Base:
        def admit(self):
            return 1

    class Child(Base):
        def admit(self):
            return super().admit() + 1

    recorder = SpanRecorder()
    bindings = Bindings()
    for owner in (Base, Child):
        bindings.patch(owner, "admit",
                       lambda fn: span_wrapper(recorder, "admission", fn, count="calls"))
    try:
        assert Child().admit() == 2
    finally:
        bindings.restore()
    assert recorder.counts["calls"] == 1
    assert len(recorder) == 2
    assert "admit" in vars(Child) and Child().admit() == 2


def test_generator_wrapper_times_the_iteration_not_the_call():
    recorder = SpanRecorder()
    started = []

    def numbers():
        started.append(True)
        yield from range(3)

    wrapped = iteration_wrapper(recorder, "gen", numbers, count="yielded")
    iterator = wrapped()
    assert not started and len(recorder) == 0
    assert list(iterator) == [0, 1, 2]
    # Three items plus the final, exhausting next().
    assert len(recorder) == 4
    assert recorder.counts["yielded"] == 3


def test_every_target_resolves_to_plain_functions():
    for target in TARGETS:
        owners, attr = resolve_owners(target.spec)
        assert owners, target.spec
        for owner in owners:
            assert callable(vars(owner)[attr]), target.spec


def test_overrides_are_wrapped_on_every_subclass():
    from repro.serve.admission import AdmissionPolicy, DeadlineAwareAdmission, PriorityAdmission

    owners, _ = resolve_owners("repro.serve.admission:AdmissionPolicy.admit")
    assert {AdmissionPolicy, DeadlineAwareAdmission, PriorityAdmission} <= set(owners)


def test_wrappers_are_removed_after_a_traced_run():
    from repro.engine import Engine
    from repro.models import diamond_graph

    originals = {}
    for target in TARGETS:
        owners, attr = resolve_owners(target.spec)
        for owner in owners:
            originals[(owner, attr)] = vars(owner)[attr]
    recorder = SpanRecorder()
    bindings = Bindings()
    install_targets(recorder, bindings, TARGETS)
    try:
        assert len(bindings) == len(originals)
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in originals.items())
        root = record(recorder, "root")
        Engine("v100").compile(diamond_graph())
        recorder.close(root)
    finally:
        bindings.restore()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    own = self_times(recorder)
    assert own["core.dp"] > 0 and own["hardware.contention"] > 0
    wall = recorder.end[root] - recorder.start[root]
    assert sum(own.values()) == pytest.approx(wall)


# ----------------------------------------------------------------- checks
@pytest.fixture(scope="module")
def served():
    from repro.serve import (
        BatchPolicy, InferenceService, ServingConfig, TrafficConfig, TrafficGenerator,
    )

    config = ServingConfig(
        model="squeezenet", fleet="k80:1,v100:1", batch_sizes=(1, 2, 4, 8),
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0), admission="deadline",
    )
    traffic = TrafficConfig(
        model="squeezenet", pattern="bursty", num_requests=400, burst_size=64,
        burst_gap_ms=10.0, slo_ms=8.0, seed=0,
    )
    requests = TrafficGenerator(traffic).generate()
    report = InferenceService(config).run(requests)
    assert report.rejected and report.records
    return report, len(requests)


def all_checks(report, offered):
    return (
        checks.check_ends_once(range(offered), report.records, report.rejected)
        + checks.check_causal(report.records, report.rejected)
        + checks.check_workers(report.records)
        + checks.check_serving_totals(report, offered)
    )


def test_checks_accept_a_real_replay(served):
    report, offered = served
    assert all_checks(report, offered) == []


def test_duplicated_request_is_rejected(served):
    report, offered = served
    duplicate = replace(report, records=report.records + [report.records[5]])
    violations = checks.check_ends_once(range(offered), duplicate.records, duplicate.rejected)
    assert [v.subject for v in violations] == [report.records[5].request.request_id]
    assert checks.count_failed(all_checks(duplicate, offered), offered) >= 1


def test_lost_request_is_rejected(served):
    report, offered = served
    violations = checks.check_ends_once(range(offered), report.records[1:], report.rejected)
    assert [v.subject for v in violations] == [report.records[0].request.request_id]


def test_overlapping_worker_is_rejected(served):
    report, _ = served
    first = report.records[0]
    # A second execution on the same worker, starting before the first ends.
    overlap = replace(
        first,
        request=replace(first.request, request_id=10**6),
        dispatch_ms=first.dispatch_ms + 1e-3,
        completion_ms=first.completion_ms + 1.0,
    )
    violations = checks.check_workers(report.records + [overlap])
    assert 10**6 in {v.subject for v in violations}
    assert first.request.request_id in {v.subject for v in violations}


def test_acausal_record_is_rejected(served):
    report, _ = served
    record = report.records[3]
    early = replace(record, dispatch_ms=record.batched_ms - 1.0)
    violations = checks.check_causal([early])
    assert [v.subject for v in violations] == [record.request.request_id]


def test_report_totals_must_match_records(served):
    report, offered = served
    violations = checks.check_serving_totals(replace(report, num_requests=1), offered)
    assert violations and all(v.subject is None for v in violations)


@pytest.fixture(scope="module")
def compiled():
    from repro.engine import Engine
    from repro.models import figure5_graph

    return Engine("v100").compile(figure5_graph())


def test_plan_check_accepts_a_real_compile(compiled):
    assert checks.check_plan(compiled.graph, compiled.schedule, compiled.plan) == []


def test_schedule_missing_an_operator_is_rejected(compiled):
    import copy

    plan = copy.deepcopy(compiled.plan)
    stage = next(stage for stage in plan.stages if stage.operators())
    group = next(group for group in stage.groups if group)
    dropped = group.pop()
    violations = checks.check_plan(compiled.graph, compiled.schedule, plan)
    assert dropped.name in {v.subject for v in violations}


def test_operator_run_twice_is_rejected(compiled):
    import copy

    plan = copy.deepcopy(compiled.plan)
    stage = next(
        stage for stage in plan.stages
        if stage.strategy != "operator merge" and stage.operators()
    )
    stage.groups.append([stage.operators()[0]])
    violations = checks.check_plan(compiled.graph, compiled.schedule, plan)
    assert violations


# --------------------------------------------------------------- contract
def test_benchmark_json_matches_the_code():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in contract["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]

"""Output checks: every run verifies what the program produced.

Each checker returns a list of :class:`Violation`.  A violation names the
request it implicates when there is one, so a run counts failed operations
as the distinct requests (or compiles) that failed a check, plus one per
report-level inconsistency.  The checks read only the program's outputs
(records, reports, schedules, plans) and recompute what they assert from
them; none of them calls the program's own validators.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = [
    "Violation",
    "count_failed",
    "check_ends_once",
    "check_causal",
    "check_workers",
    "check_serving_totals",
    "check_cluster_totals",
    "check_plan",
]


@dataclass(frozen=True)
class Violation:
    """One failed check; ``subject`` is the request id or operator it concerns."""

    message: str
    subject: Any = None


def count_failed(violations: Iterable[Violation], attempted: int) -> int:
    """Failed operations: distinct implicated subjects plus unattributed violations."""
    subjects: set = set()
    unattributed = 0
    for violation in violations:
        if violation.subject is None:
            unattributed += 1
        else:
            subjects.add(violation.subject)
    return min(attempted, len(subjects) + unattributed)


def check_ends_once(offered: Sequence[int], records, rejected) -> list[Violation]:
    """Every offered request ends exactly once: completed or rejected."""
    ends = Counter(record.request.request_id for record in records)
    ends.update(rejection.request.request_id for rejection in rejected)
    violations = []
    expected = set(offered)
    for request_id in offered:
        seen = ends.get(request_id, 0)
        if seen != 1:
            violations.append(
                Violation(f"request {request_id} ended {seen} times", request_id)
            )
    for request_id in sorted(set(ends) - expected):
        violations.append(
            Violation(f"request {request_id} ended but was never offered", request_id)
        )
    return violations


def check_causal(records, rejected=()) -> list[Violation]:
    """arrival <= batched <= dispatch <= completion; rejections at or after arrival."""
    violations = []
    for record in records:
        arrival = record.request.arrival_ms
        times = (arrival, record.batched_ms, record.dispatch_ms, record.completion_ms)
        if not times[0] <= times[1] <= times[2] <= times[3]:
            violations.append(
                Violation(
                    f"request {record.request.request_id} is not causal: "
                    f"arrival/batched/dispatch/completion = {times}",
                    record.request.request_id,
                )
            )
    for rejection in rejected:
        if rejection.rejected_ms < rejection.request.arrival_ms:
            violations.append(
                Violation(
                    f"request {rejection.request.request_id} rejected before it arrived",
                    rejection.request.request_id,
                )
            )
    return violations


def check_workers(records, scope: str = "") -> list[Violation]:
    """No worker runs two executions at once, nor more samples than its batch size.

    Records of one execution share worker, dispatch time, completion time and
    specialised batch size.
    """
    executions: dict[tuple, list] = defaultdict(list)
    for record in records:
        key = (record.worker_id, record.dispatch_ms, record.completion_ms,
               record.executed_batch_size)
        executions[key].append(record)
    violations = []
    by_worker: dict[Any, list[tuple]] = defaultdict(list)
    for key, members in executions.items():
        worker, start, end, batch_size = key
        ids = [member.request.request_id for member in members]
        samples = sum(member.request.num_samples for member in members)
        if samples > batch_size:
            violations.extend(
                Violation(
                    f"{scope}worker {worker} ran {samples} samples in a batch-{batch_size} "
                    f"execution at {start}",
                    request_id,
                )
                for request_id in ids
            )
        by_worker[worker].append((start, end, ids))
    for worker, intervals in by_worker.items():
        intervals.sort(key=lambda interval: (interval[0], interval[1]))
        busy_until, busy_ids = float("-inf"), []
        for start, end, ids in intervals:
            if start < busy_until:
                violations.extend(
                    Violation(
                        f"{scope}worker {worker} starts an execution at {start} while "
                        f"busy until {busy_until}",
                        request_id,
                    )
                    for request_id in ids + busy_ids
                )
            if end > busy_until:
                busy_until, busy_ids = end, ids
    return violations


def _histogram_count(histogram) -> int:
    return sum(histogram.count(**labels) for labels in histogram.labelsets())


def check_serving_totals(report, offered: int) -> list[Violation]:
    """A single-host report's totals agree with its own records."""
    records, rejected = report.records, report.rejected
    met = sum(1 for record in records
              if record.request.deadline_ms is not None and record.deadline_met)
    with_deadline = sum(1 for record in records if record.request.deadline_ms is not None)
    expected = [
        ("num_requests", report.num_requests, len(records)),
        ("executions", sum(report.batch_size_counts.values()), report.num_batches),
    ]
    slo = report.slo_summary
    if slo is not None:
        expected += [
            ("slo.offered", slo.offered, offered),
            ("slo.admitted", slo.admitted, len(records)),
            ("slo.rejected", slo.rejected, len(rejected)),
            ("slo.met", slo.met, met),
            ("slo.violations", slo.violations, with_deadline - met),
            ("slo.per_priority.offered", sum(row.offered for row in slo.per_priority),
             offered),
            ("slo.per_priority.met", sum(row.met for row in slo.per_priority), met),
        ]
        if slo.per_burst:
            expected.append(
                ("slo.per_burst.offered", sum(row.offered for row in slo.per_burst), offered)
            )
    metrics = report.metrics
    if metrics is not None:
        expected += [
            ("metric serve.requests.offered",
             metrics.counter("serve.requests.offered").total(), offered),
            ("metric serve.admission.admitted",
             metrics.counter("serve.admission.admitted").total(), len(records)),
            ("metric serve.admission.rejected",
             metrics.counter("serve.admission.rejected").total(), len(rejected)),
            ("metric serve.latency_ms count",
             _histogram_count(metrics.histogram("serve.latency_ms")), len(records)),
            ("metric serve.executions",
             metrics.counter("serve.executions").total(), report.num_batches),
        ]
    return [
        Violation(f"report {name} = {got}, records say {want}")
        for name, got, want in expected
        if got != want
    ]


def check_cluster_totals(cluster_report, offered: int) -> list[Violation]:
    """A cluster report's totals agree with its end-to-end and per-host records."""
    report = cluster_report.report
    expected = [
        ("num_requests", report.num_requests, len(report.records)),
        ("routed", sum(cluster_report.routed.values()), offered),
    ]
    plan = cluster_report.plan
    if plan is not None and not cluster_report.link.models_ingress:
        # Each stage completion short of the last hands off exactly once.
        final_host = plan.host_of_stage(plan.num_stages - 1)
        handoffs = sum(
            len(host_report.records)
            for host_id, host_report in enumerate(cluster_report.host_reports)
            if host_report is not None and host_id != final_host
        )
        expected.append(("transfers", cluster_report.transfers.count, handoffs))
    metrics = cluster_report.cluster_metrics
    if metrics is not None:
        expected.append(
            ("metric cluster.requests.routed",
             metrics.counter("cluster.requests.routed").total(), offered)
        )
    return [
        Violation(f"cluster report {name} = {got}, records say {want}")
        for name, got, want in expected
        if got != want
    ]


def check_plan(graph, schedule, plan) -> list[Violation]:
    """The lowered plan runs every schedulable operator once, in dependency order.

    Plan stage ``i`` lowers schedule stage ``i``.  A merged stage holds one
    fused operator standing for the schedule stage's operators, none of which
    may depend on another; in any other stage an operator may depend on an
    operator of the same stage only through an earlier position of its group.
    """
    # Imported here: run.py loads this module without the program on its path.
    from repro.core.schedule import ParallelizationStrategy
    from repro.ir.ops import Placeholder

    violations = []
    if len(plan.stages) != len(schedule.stages):
        return [Violation(
            f"plan has {len(plan.stages)} stages for a {len(schedule.stages)}-stage schedule"
        )]
    schedulable = {
        name for name, node in graph.nodes.items() if not isinstance(node, Placeholder)
    }
    position: dict[str, tuple[int, int, int]] = {}
    merged_stages: set[int] = set()
    for index, (stage, lowered) in enumerate(zip(schedule.stages, plan.stages)):
        if stage.strategy is ParallelizationStrategy.MERGE and len(stage.operators) > 1:
            operators = lowered.operators()
            if len(operators) != 1:
                violations.append(Violation(
                    f"merged stage {index} lowers to {len(operators)} operators"
                ))
            groups = [list(stage.operators)]
            merged_stages.add(index)
        else:
            groups = [[op.name for op in group] for group in lowered.groups]
        for group_index, group in enumerate(groups):
            for slot, name in enumerate(group):
                if name in position:
                    violations.append(Violation(
                        f"operator {name!r} runs in stages {position[name][0]} and {index}",
                        name,
                    ))
                elif name not in schedulable:
                    violations.append(Violation(
                        f"stage {index} runs {name!r}, not an operator of {graph.name}", name
                    ))
                else:
                    position[name] = (index, group_index, slot)
    for name in sorted(schedulable - set(position)):
        violations.append(Violation(f"operator {name!r} is never run", name))
    for name, (stage, group, slot) in position.items():
        for producer in graph.nodes[name].inputs:
            if producer not in schedulable:
                continue
            where = position.get(producer)
            if where is None:
                continue
            p_stage, p_group, p_slot = where
            in_order = p_stage < stage or (
                p_stage == stage and stage not in merged_stages
                and p_group == group and p_slot < slot
            )
            if not in_order:
                violations.append(Violation(
                    f"{name!r} (stage {stage}) runs before or beside its input "
                    f"{producer!r} (stage {p_stage})",
                    name,
                ))
    return violations

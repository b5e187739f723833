"""One run of one workload, in the fresh process it was started in.

    python3 -m perfbench.worker --workload NAME --seed N --spawned-at T [--spans PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and imports.  With
``--spans`` the run is traced: every binding in :data:`perfbench.layers.TARGETS`
is wrapped for the set-up and timed phase, restored before the checks, and
the spans are written to ``PATH``.  The last line of standard output is one
JSON object describing the run.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import resource
import sys
import time

ROOT_SPAN = "root"


def install_targets(recorder, bindings, targets) -> None:
    """Wrap every target binding, recording into ``recorder``."""
    from .spans import count_wrapper, iteration_wrapper, resolve_owners, span_wrapper

    for target in targets:
        owners, attr = resolve_owners(target.spec)
        for owner in owners:
            original = vars(owner)[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{target.spec} is not a plain function")
            if target.kind == "count":
                make = functools.partial(count_wrapper, recorder, target.count)
            elif inspect.isgeneratorfunction(original):
                make = functools.partial(
                    iteration_wrapper, recorder, target.layer, count=target.count
                )
            elif target.kind == "span":
                make = functools.partial(
                    span_wrapper, recorder, target.layer,
                    count=target.count, extract=target.extract,
                )
            else:
                raise ValueError(f"unknown target kind {target.kind!r}")
            bindings.patch(owner, attr, lambda fn, make=make: make(fn=fn))


def layer_metrics(self_s: dict[str, float], counts, facts: dict[str, float]) -> dict:
    """The per-layer metrics of one traced run."""
    from .layers import LAYERS

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {f"{layer}_s": self_s.get(layer, 0.0) for layer in LAYERS}
    for name in ("passes.rewrites", "core.block_searches", "core.memo_hits",
                 "core.endings.yielded", "core.cost_model.calls",
                 "hardware.contention.calls", "serve.dispatch.calls", "obs.alerts.events"):
        metrics[name] = counts.get(name, 0)
    calls = counts.get("core.cost_model.calls", 0)
    metrics["core.cost_model.hit_ratio"] = share(
        calls - counts.get("core.cost_model.measured", 0), calls
    )
    metrics["serve.admission.rejected_share"] = share(
        counts.get("serve.admission.rejected", 0), counts.get("serve.admission.calls", 0)
    )
    for name in ("serve.registry.hit_ratio", "obs.sampling.kept_ratio", "cluster.transfers"):
        metrics[name] = facts.get(name, 0.0)
    metrics["trace.unaccounted_s"] = self_s.get(ROOT_SPAN, 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None, help="trace, writing spans here")
    args = parser.parse_args(argv)

    # Everything from here to the first timed call is set-up.
    import repro.cluster  # noqa: F401  (loads every class the targets name)
    import repro.engine  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.serve  # noqa: F401

    from .layers import LAYERS, TARGETS
    from .spans import Bindings, SpanRecorder, layer_table, self_times
    from .workloads import WORKLOADS, Marks

    workload = WORKLOADS[args.workload]
    bindings = Bindings()
    marks = Marks()
    marks.install(bindings)
    recorder = None
    if args.spans:
        recorder = SpanRecorder()
        install_targets(recorder, bindings, TARGETS)
    window_start = time.monotonic()
    root = recorder.open(recorder.name_index(ROOT_SPAN)) if recorder is not None else None
    try:
        state = workload.run(args.seed, marks)
    finally:
        if recorder is not None:
            recorder.close(root)
        bindings.restore()
    window_s = time.monotonic() - window_start
    outcome = workload.check(state)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": [v.message for v in outcome.violations[:20]] + outcome.errors[:20],
        "setup_s": marks.timed_start - args.spawned_at,
        "compile_s": marks.compile_s,
        "timed_s": marks.timed_end - marks.timed_start,
        "items": outcome.items,
        "window_s": window_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": outcome.results,
    }
    if recorder is not None:
        self_s = self_times(recorder)
        wall_s = recorder.end[root] - recorder.start[root]
        report["layers"] = layer_metrics(self_s, recorder.counts, outcome.facts)
        report["layers"]["trace.wall_s"] = wall_s
        report["spans"] = len(recorder)
        report["table"] = layer_table(self_s, wall_s, ROOT_SPAN, list(LAYERS))
        recorder.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

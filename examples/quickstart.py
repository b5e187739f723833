#!/usr/bin/env python
"""Quickstart: schedule one CNN with IOS and compare it against the baselines.

This is the 5-minute tour of the library:

1. build a benchmark network (Inception V3) from the model zoo;
2. pick a simulated device (Tesla V100);
3. compute the sequential and greedy baseline schedules;
4. run the IOS dynamic-programming search (Algorithm 1 of the paper);
5. execute all three schedules on the simulated GPU and report latency,
   throughput and the speedups the paper's Figure 6 is about.

Run with::

    python examples/quickstart.py [model] [device]
"""

from __future__ import annotations

import sys

from repro import get_device, load, optimize
from repro.core import greedy_schedule, measure_schedule, sequential_schedule


def main(model_name: str = "inception_v3", device_name: str = "v100") -> None:
    device = get_device(device_name)
    graph = load(model_name, batch_size=1)
    print(f"Loaded {graph.name}: {len(graph.operators())} operators, "
          f"{graph.total_flops() / 1e9:.2f} GFLOPs, {len(graph.blocks)} blocks")
    print(f"Target device: {device.name} ({device.num_sms} SMs, "
          f"{device.peak_fp32_tflops} TFLOPs/s peak)\n")

    schedules = {
        "sequential": sequential_schedule(graph),
        "greedy": greedy_schedule(graph),
    }
    print("Running the IOS dynamic-programming search (this profiles candidate stages)...")
    schedules["ios"] = optimize(graph, device)

    print(f"\n{'schedule':<12} {'stages':>7} {'latency (ms)':>13} {'images/s':>10} {'speedup':>8}")
    baseline_latency = None
    for name, schedule in schedules.items():
        result = measure_schedule(graph, schedule, device)
        if baseline_latency is None:
            baseline_latency = result.latency_ms
        print(
            f"{name:<12} {schedule.num_stages():>7d} {result.latency_ms:>13.3f} "
            f"{result.throughput():>10.1f} {baseline_latency / result.latency_ms:>7.2f}x"
        )

    ios = schedules["ios"]
    print("\nFirst stages of the IOS schedule:")
    for stage in ios.stages[:8]:
        groups = stage.groups(graph)
        print(f"  [{stage.strategy.value:>20s}] " + " | ".join(",".join(g) for g in groups))
    print("  ...")


if __name__ == "__main__":
    main(*(sys.argv[1:3]))

"""Benchmark: heterogeneous fleet serving vs homogeneous fleets.

Serves one seeded overload workload through ``run_fleet_comparison``: a mixed
``k80 + v100`` fleet against homogeneous fleets of each member type at equal
worker count, routed by the device-aware earliest-finish policy.  The mixed
fleet must land between the homogeneous extremes — strictly faster than
all-k80 (its fast members absorb more load) and no faster than all-v100 —
and the per-device-group utilisation must show both groups engaged under
overload.

A second stage compiles the served model through the per-device engine
fan-out (:func:`repro.engine.get_engines`) to report the latency asymmetry
the router exploits.
"""

from conftest import full_run, run_once

from repro.engine import get_engines
from repro.frontend import load
from repro.serve import FleetSpec, run_fleet_comparison

FLEET = "k80:2,v100:2"
LADDER = (1, 2, 4, 8)


def _by_fleet(table, pattern):
    return {row["fleet"]: row for row in table.rows if row["pattern"] == pattern}


def test_fleet_serving_overloaded(benchmark, device_name):
    num_requests = 600 if full_run() else 200
    table = run_once(
        benchmark, run_fleet_comparison,
        model="squeezenet", fleet=FLEET, num_requests=num_requests,
        rate_rps=4000.0, batch_sizes=LADDER, max_wait_ms=3.0,
        patterns=("poisson",), seed=11,
    )
    rows = _by_fleet(table, "poisson")
    mixed, slow, fast = rows[FLEET], rows["k80:4"], rows["v100:4"]
    # Heterogeneity pays: the mixed fleet beats the slow homogeneous fleet...
    assert mixed["throughput_rps"] > slow["throughput_rps"]
    # ...and cannot beat replacing its slow members with fast ones.
    assert mixed["throughput_rps"] <= fast["throughput_rps"] * 1.001
    # Equal worker counts everywhere, so the comparison isolates device mix.
    assert FleetSpec.parse(FLEET).num_workers == 4


def test_fleet_latency_asymmetry_is_what_routing_exploits(benchmark):
    """The per-device compile fan-out shows why earliest-finish routes off k80."""
    def fan_out():
        engines = get_engines(FleetSpec.parse(FLEET))
        graph = load("squeezenet", batch_size=4)
        return {name: engine.compile(graph).latency_ms()
                for name, engine in engines.items()}

    latencies = benchmark.pedantic(fan_out, rounds=1, iterations=1)
    print(f"\nper-device latency fan-out: {latencies}")
    assert set(latencies) == {"k80", "v100"}
    assert latencies["k80"] > latencies["v100"]

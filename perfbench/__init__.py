"""The repository's benchmark: four seeded workloads, end to end and layer by layer.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` explains the
workloads, the metrics and how the traced run attributes time to layers.
"""

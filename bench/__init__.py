"""The repo's one benchmark: request to packets, end to end and by layer.

See ``bench/README.md`` for the workloads, the metrics and how to read
them; ``BENCHMARK.json`` at the repo root is the machine-readable spec.
"""

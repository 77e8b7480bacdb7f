"""End-to-end and per-layer benchmark of the racekit commands.

Run ``python3 racebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``racebench/run.py`` documents the
workloads and metrics.
"""

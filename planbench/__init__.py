"""The repository benchmark: fixed-work planner and serving workloads.

``python3 planbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints one JSON
result line; ``planbench/README.md`` documents the workloads and metrics.
"""

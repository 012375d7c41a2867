"""The repository benchmark: workloads, traced layer breakdown and checks.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``perfbench/README.md`` describes the
workloads and metrics.
"""

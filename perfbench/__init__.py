"""rangesynth benchmark: workloads, oracles, tracer; run with perfbench/run.py."""

"""The repository benchmark: four paper workloads, end-to-end timings
split into setup and run, and a per-layer self-time profile.

See ``perfbench/README.md`` for the workloads, metrics and run recipe.
"""

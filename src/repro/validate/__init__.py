"""Correctness tooling for the simulated Mochi stack.

Three pillars, all deterministic:

* :mod:`repro.validate.invariants` -- opt-in runtime invariant checkers
  (``Cluster(validate=...)``) that watch a run through the same observer
  seams the telemetry layer uses and report violations with simulated
  time, process, and callpath.
* :mod:`repro.validate.fuzz` -- a seed/workload/fault-plan fuzzer that
  runs every configuration twice to cross-check export-level
  determinism and shrinks failures to a minimal reproducing config.
  Its ``churn`` workload aims kill/revive sequences at a sharded fleet
  and audits that no acknowledged write is silently lost.
* :mod:`repro.validate.golden` -- a checked-in corpus of canonical
  service runs with regression-locked artifact digests.

Both build every run through
:func:`repro.validate.workloads.run_workload`.

``python -m repro.validate fuzz|golden`` is the command-line entry.

Only the invariant layer is imported eagerly -- :mod:`repro.cluster`
depends on it, and the fuzz/golden modules depend on the cluster in
turn, so they load lazily to keep the import graph acyclic.
"""

from .invariants import (
    InvariantMonitor,
    InvariantViolation,
    InvariantViolationError,
    ValidationConfig,
)

__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "ValidationConfig",
]

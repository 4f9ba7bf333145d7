"""SYMBIOSYS reproduction: integrated performance analysis for
composable HPC data services over a simulated Mochi stack.

Package map (bottom-up):

* :mod:`repro.sim`       -- discrete-event kernel (tasks, events, clocks)
* :mod:`repro.argobots`  -- user-level threading (ULTs, pools, ESs)
* :mod:`repro.net`       -- RDMA fabric + OFI-style completion queues
* :mod:`repro.mercury`   -- RPC library with the PVAR tool interface
* :mod:`repro.margo`     -- the per-process Mochi layer (providers,
  blocking forward/respond, progress loop, runtime reconfiguration)
* :mod:`repro.ssg`       -- scalable service groups
* :mod:`repro.symbiosys` -- THE PAPER'S CONTRIBUTION: callpath profiling,
  distributed tracing, PVAR fusion, analysis scripts, Zipkin export,
  and the online monitor, whose ``autotune`` option applies the Table IV
  remedies to a live run
* :mod:`repro.services`  -- BAKE, SDSKV, Sonata, Mobject, HEPnOS
* :mod:`repro.workloads` -- ior, synthetic event files, JSON records
* :mod:`repro.experiments` -- Table IV configs and per-figure harnesses
  (also a CLI: ``python -m repro.experiments``)

See README.md for a quickstart and DESIGN.md / EXPERIMENTS.md for the
reproduction methodology and paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

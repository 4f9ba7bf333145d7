"""The runtime keeps its tasking statistics as counters; in a monitored
C5-shaped run they must equal what a scan of the pools and streams
recomputes at every slice, and the utilisation sampled into trace
events must be bit-equal to the per-stream sum."""

from repro.argobots import AbtRuntime
from repro.experiments import TABLE_IV
from repro.experiments.hepnos import run_hepnos_experiment
from repro.margo.instance import ProcessStats
from repro.symbiosys.monitor import MonitorConfig


class CounterCheck:
    """Scheduler observer recomputing the counters after every slice."""

    def __init__(self, rt):
        self.rt = rt
        self.slices = 0

    def on_slice(self, es, ult, start, end):
        rt = self.rt
        assert rt.num_ready == sum(len(p) for p in rt.pools)
        assert rt.num_running == sum(
            1 for x in rt.xstreams if x.current is not None
        )
        # Each stream's busy time is the slot at its position.
        assert [x._busy_slot for x in rt.xstreams] == list(range(len(rt.es_busy)))
        self.slices += 1


def test_counters_match_recomputed_sums_in_a_monitored_c5_run(monkeypatch):
    checks = []
    init = AbtRuntime.__init__

    def checked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        check = CounterCheck(self)
        checks.append(check)
        self.add_sched_observer(check)

    utilisations = []
    cpu_utilization = ProcessStats.cpu_utilization

    def checked_cpu_utilization(self):
        # The per-stream generator sum, over the same state.
        rt = self._mi.rt
        now = self._mi.sim.now
        busy = sum(rt.es_busy[es._busy_slot] for es in rt.xstreams)
        last_t, last_busy = self._last_cpu_sample
        dt = now - last_t
        n_es = max(1, len(rt.xstreams))
        want = 0.0 if dt <= 0 else min(1.0, (busy - last_busy) / (dt * n_es))
        got = cpu_utilization(self)
        assert got == want and type(got) is type(want)
        assert self._last_cpu_sample == (now, busy)
        utilisations.append(got)
        return got

    monkeypatch.setattr(AbtRuntime, "__init__", checked_init)
    monkeypatch.setattr(ProcessStats, "cpu_utilization", checked_cpu_utilization)
    result = run_hepnos_experiment(
        TABLE_IV["C5"],
        seed=0,
        monitoring=MonitorConfig(),
        events_per_client=48,
        pipeline_width=8,
    )
    assert result.events_stored == TABLE_IV["C5"].total_clients * 48
    assert sum(check.slices for check in checks) > 1000
    # Four trace events per RPC, each sampling the utilisation.
    assert len(utilisations) == 4 * result.rpcs_issued
    assert any(0.0 < u < 1.0 for u in utilisations)
    for check in checks:
        assert check.rt.num_ready == sum(len(p) for p in check.rt.pools)
        assert check.rt.num_running == 0


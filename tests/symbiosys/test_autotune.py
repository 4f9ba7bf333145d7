"""Tests for the monitor's live-tuning loop: the ``ofi_reads_pegged`` and
``completion_backlog`` detectors and the Table IV remedies that
``MonitorConfig(autotune=True)`` applies to their findings."""

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.experiments import TABLE_IV, run_hepnos_experiment
from repro.net import CQEntry, CQKind
from repro.symbiosys import Stage
from repro.symbiosys.monitor import (
    AnomalyDetector,
    CompletionBacklogDetector,
    Finding,
    MonitorConfig,
    OfiReadsPeggedDetector,
    _raise_ofi_max_events,
)

# ------------------------------------------------------------ detector units
#
# Each detector runs against a stub process whose signal is set tick by
# tick, so every window edge is exercised exactly.


def _stub(*, read=0, cap=16, cq_depth=0, cq_size=0):
    values = {"num_ofi_events_read": read, "completion_queue_size": cq_size}
    return SimpleNamespace(
        crashed=False,
        endpoint=SimpleNamespace(cq_depth=cq_depth),
        hg=SimpleNamespace(
            ofi_max_events=cap,
            pvars=SimpleNamespace(raw_value=values.__getitem__),
            values=values,
        ),
    )


def _monitor(**processes):
    return SimpleNamespace(iter_processes=lambda: list(processes.items()))


def _feed(det, mi, reads):
    """One tick per entry of ``reads`` (the PVAR value that tick, with
    completions still queued); returns the tick index of each finding."""
    fired = []
    mi.endpoint.cq_depth = 1
    for i, read in enumerate(reads):
        mi.hg.values["num_ofi_events_read"] = read
        fired.extend(i for _ in det.on_sample(i * 1e-4, _monitor(p=mi)))
    return fired


def test_ofi_reads_pegged_fires_on_three_of_four_ticks():
    det = OfiReadsPeggedDetector(MonitorConfig())
    mi = _stub()
    # Two pegged ticks, a gap, then a third inside the 4-tick window.
    assert _feed(det, mi, [16, 16, 3, 20]) == [3]
    # One tick is not a window.
    assert _feed(OfiReadsPeggedDetector(MonitorConfig()), _stub(), [16]) == []
    # Alternating pegged ticks never reach 3 of 4.
    assert _feed(OfiReadsPeggedDetector(MonitorConfig()), _stub(),
                 [16, 1, 16, 1, 16, 1, 16]) == []


def test_ofi_reads_pegged_reports_the_onset_once_per_cap():
    det = OfiReadsPeggedDetector(MonitorConfig())
    mi = _stub()
    assert _feed(det, mi, [16] * 10) == [3]


def test_ofi_reads_pegged_rearms_on_cap_change():
    det = OfiReadsPeggedDetector(MonitorConfig())
    mi = _stub()
    assert _feed(det, mi, [16] * 4) == [3]
    mi.hg.ofi_max_events = 32
    # Reads at the old cap are not pegged at the new one, and the
    # window restarts: the next onset needs 3 ticks at 32.
    assert _feed(det, mi, [16, 32, 32]) == []
    assert _feed(det, mi, [32]) == [0]


def test_ofi_reads_pegged_keeps_no_state_for_idle_processes():
    det = OfiReadsPeggedDetector(MonitorConfig())
    assert _feed(det, _stub(), [0, 5, 15, 0]) == []
    assert det._state == {}
    # A lone pegged tick ages out of the window and takes its entry.
    mi = _stub()
    _feed(det, mi, [16, 0, 0, 0, 0])
    assert det._state == {}


def test_ofi_reads_pegged_ignores_a_stale_read_on_an_idle_process():
    # One capped read drains the queue.  Until the next progress
    # iteration the PVAR still reads 16 with the queue empty, which is
    # not a backed-up queue.
    det = OfiReadsPeggedDetector(MonitorConfig())
    stale = _stub(read=16, cq_depth=0)
    assert not [
        f for i in range(4) for f in det.on_sample(i * 1e-4, _monitor(p=stale))
    ]
    # The next, empty read sets the PVAR to 0.
    cluster, mi = _flooded(autotune=False, entries=16)
    with cluster:
        cluster.sim.run(until=2e-3)
    assert mi.hg.pvars.raw_value("num_ofi_events_read") == 0
    assert mi.endpoint.cq_depth == 0
    assert not _by_detector(cluster.monitor, "ofi_reads_pegged")


def _backlog_ticks(det, mi, deep):
    fired = []
    for i, d in enumerate(deep):
        mi.endpoint.cq_depth = 5 if d else 0
        mi.hg.values["completion_queue_size"] = 3 if d else 0
        fired.extend(i for _ in det.on_sample(i * 1e-4, _monitor(p=mi)))
    return fired


def test_completion_backlog_fires_on_eight_of_sixteen_ticks():
    # OFI depth 5 plus Mercury completion queue 3 is a backlog of 8.
    det = CompletionBacklogDetector(MonitorConfig())
    assert _backlog_ticks(det, _stub(), [True, False] * 8) == [15]
    det = CompletionBacklogDetector(MonitorConfig())
    # Seven of 16 is not enough, however long it lasts.
    assert _backlog_ticks(det, _stub(), ([True] * 7 + [False] * 9) * 3) == []


def test_completion_backlog_needs_a_full_window():
    det = CompletionBacklogDetector(MonitorConfig())
    mi = _stub()
    assert _backlog_ticks(det, mi, [True] * 15) == []
    assert _backlog_ticks(det, mi, [True]) == [0]


def test_completion_backlog_rearms_after_a_clean_window():
    det = CompletionBacklogDetector(MonitorConfig())
    mi = _stub()
    assert _backlog_ticks(det, mi, [True] * 20) == [15]
    # Fifteen clean ticks leave a backlogged tick in the window.
    assert _backlog_ticks(det, mi, [False] * 15 + [True] * 8) == []
    assert _backlog_ticks(det, mi, [False] * 16) == []
    assert det._state == {}
    assert _backlog_ticks(det, mi, [True] * 8) == [7]


# ------------------------------------------------------------ the loop


def _flooded(autotune=True, ofi_max_events=16, entries=4000):
    """A monitored FULL-stage process whose OFI completion queue holds
    ``entries`` RDMA completions, drained in capped batches."""
    cluster = Cluster(
        seed=0,
        stage=Stage.FULL,
        monitoring=MonitorConfig(autotune=autotune),
    )
    mi = cluster.process("cli", "n0")
    mi.set_ofi_max_events(ofi_max_events)
    for _ in range(entries):
        mi.endpoint.push(
            CQEntry(
                kind=CQKind.RDMA_COMPLETE,
                payload=("bulk", mi.rt.eventual()),
                enqueued_at=0.0,
            )
        )
    return cluster, mi


def _by_detector(monitor, name):
    return [f for f in monitor.findings if f.detector == name]


def test_autotune_remedies_a_synthetic_cq_flood():
    cluster, mi = _flooded()
    n_es = len(mi.rt.xstreams)
    with cluster:
        cluster.sim.run(until=3e-3)
    actions = [f.message for f in _by_detector(cluster.monitor, "autotune")]
    assert actions == [
        "OFI_max_events 16 -> 32",
        "OFI_max_events 32 -> 64",
        "progress loop moved to a dedicated ES",
    ]
    assert mi.hg.ofi_max_events == 64
    assert len(mi.rt.xstreams) == n_es + 1
    # Each remedy is logged at the tick of the finding it answers.
    pegged = _by_detector(cluster.monitor, "ofi_reads_pegged")
    times = [f.time for f in _by_detector(cluster.monitor, "autotune")]
    assert times[:2] == [f.time for f in pegged[:2]]


def test_autotune_leaves_a_cap_of_64_alone():
    cluster, mi = _flooded(ofi_max_events=64, entries=8000)
    with cluster:
        cluster.sim.run(until=1e-3)
    assert _by_detector(cluster.monitor, "ofi_reads_pegged")
    assert not any(
        "OFI_max_events" in f.message
        for f in _by_detector(cluster.monitor, "autotune")
    )
    assert mi.hg.ofi_max_events == 64


def test_raise_ofi_max_events_doubles_up_to_64():
    cluster = Cluster(seed=0, stage=Stage.FULL)
    with cluster:
        mi = cluster.process("p", "n0")
        assert _raise_ofi_max_events(mi) == "OFI_max_events 16 -> 32"
        mi.set_ofi_max_events(48)
        assert _raise_ofi_max_events(mi) == "OFI_max_events 48 -> 64"
        assert _raise_ofi_max_events(mi) == ""
        assert mi.hg.ofi_max_events == 64


def test_without_autotune_findings_change_nothing():
    cluster, mi = _flooded(autotune=False)
    n_es = len(mi.rt.xstreams)
    with cluster:
        cluster.sim.run(until=3e-3)
    assert _by_detector(cluster.monitor, "ofi_reads_pegged")
    assert _by_detector(cluster.monitor, "completion_backlog")
    assert not _by_detector(cluster.monitor, "autotune")
    assert mi.hg.ofi_max_events == 16
    assert len(mi.rt.xstreams) == n_es


def test_crashed_process_gets_no_remedy():
    cluster, mi = _flooded()
    n_es = len(mi.rt.xstreams)
    with cluster:
        cluster.sim.run(until=0.25e-3)  # two pegged ticks, no onset yet
        mi.crash()
        cluster.sim.run(until=3e-3)
    monitor = cluster.monitor
    assert not _by_detector(monitor, "ofi_reads_pegged")
    assert not _by_detector(monitor, "completion_backlog")
    assert not _by_detector(monitor, "autotune")
    assert mi.hg.ofi_max_events == 16
    assert len(mi.rt.xstreams) == n_es


def test_only_the_two_detectors_have_remedies():
    class Loud(AnomalyDetector):
        name = "loud"

        def on_sample(self, t, monitor):
            return [Finding(t, self.name, "cli", "always")]

    cluster, mi = _flooded(entries=0)
    with cluster:
        cluster.monitor.detectors.append(Loud())
        cluster.sim.run(until=1e-3)
    assert _by_detector(cluster.monitor, "loud")
    assert not _by_detector(cluster.monitor, "autotune")


def test_autotune_requires_pvars():
    with Cluster(
        seed=0, stage=Stage.STAGE2, monitoring=MonitorConfig(autotune=True)
    ) as cluster:
        with pytest.raises(ValueError, match="PVARs"):
            cluster.process("p", "n0")
    assert cluster.leaked_events == 0  # the refused process is finalized
    # The same process is adoptable once PVARs are on.
    with Cluster(
        seed=0, stage=Stage.FULL, monitoring=MonitorConfig(autotune=True)
    ) as cluster:
        cluster.process("p", "n0")


def test_autotuned_c5_retunes_the_clients_only():
    """Table IV C5 (shared progress ES, OFI_max_events 16) with the
    loop on: both remedies fire on each client and on no server, and
    the cumulative RPC time falls below the static C5's."""
    kw = dict(events_per_client=512, pipeline_width=64)
    plain = run_hepnos_experiment(TABLE_IV["C5"], **kw)
    tuned = run_hepnos_experiment(
        TABLE_IV["C5"], monitoring=MonitorConfig(autotune=True), **kw
    )
    actions = _by_detector(tuned.monitor, "autotune")
    assert {f.process for f in actions} == {"cli0", "cli1"}
    for cli in ("cli0", "cli1"):
        mine = [f.message for f in actions if f.process == cli]
        assert any(m.startswith("OFI_max_events 16 -> ") for m in mine)
        assert "progress loop moved to a dedicated ES" in mine
    assert not any(f.process.startswith("hepnos") for f in actions)
    assert tuned.cumulative_origin_time < plain.cumulative_origin_time

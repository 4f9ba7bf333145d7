"""The unified export package: registry protocol, byte-parity with the
historical per-format helpers."""


import pytest

from repro.symbiosys import Stage
from repro.symbiosys.export import (
    ExportBundle,
    events_to_json,
    exporter_names,
    get_exporter,
    series_to_csv,
    to_prometheus,
    write_profile_csv,
)
from repro.symbiosys.perfetto import chrome_trace_json

from ..conftest import make_echo_cluster, run_client_calls


@pytest.fixture(scope="module")
def finished_world():
    world = make_echo_cluster(seed=0, stage=Stage.FULL, monitoring=True)
    results = run_client_calls(world, [("echo", {"i": i}) for i in range(4)])
    assert world.sim.run_until(lambda: len(results) == 4, limit=5.0)
    world.cluster.shutdown()
    return world


@pytest.fixture(scope="module")
def bundle(finished_world):
    return ExportBundle.from_cluster(finished_world.cluster)


class TestRegistry:
    def test_all_formats_registered(self):
        assert exporter_names() == [
            "critical", "csv", "json", "perfetto", "profile",
            "prometheus",
        ]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown exporter"):
            get_exporter("xml")

    def test_missing_bundle_field_raises(self):
        with pytest.raises(ValueError, match="bundle.monitor"):
            get_exporter("prometheus").render(ExportBundle())

    def test_from_cluster_captures_seed(self, finished_world, bundle):
        assert bundle.seed == finished_world.cluster.seed
        assert bundle.monitor is finished_world.cluster.monitor
        assert bundle.collector is finished_world.cluster.collector


class TestByteParity:
    """Registry renders must equal the historical helpers byte-for-byte
    (the every-existing-export-stays-identical acceptance criterion)."""

    def test_prometheus(self, finished_world, bundle):
        assert get_exporter("prometheus").render(bundle) == to_prometheus(
            finished_world.cluster.monitor.registry
        )

    def test_series_csv(self, finished_world, bundle):
        assert get_exporter("csv").render(bundle) == series_to_csv(
            finished_world.cluster.monitor.store
        )

    def test_profile_csv(self, finished_world, bundle):
        collector = finished_world.cluster.collector
        assert get_exporter("profile").render(bundle) == write_profile_csv(
            collector.merged_origin_profile(), collector.registry
        )

    def test_trace_json(self, finished_world, bundle):
        assert get_exporter("json").render(bundle) == events_to_json(
            finished_world.cluster.collector.all_events()
        )

    def test_perfetto(self, finished_world, bundle):
        cluster = finished_world.cluster
        assert get_exporter("perfetto").render(bundle) == chrome_trace_json(
            monitor=cluster.monitor,
            collector=cluster.collector,
            fault_events=cluster.fault_events(),
        )

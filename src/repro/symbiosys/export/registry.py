"""The common exporter surface: one bundle in, one artifact out.

Every text export format the repo knows -- Prometheus text, series
CSV, profile CSV, trace JSON, Perfetto/Chrome trace -- is an
:class:`Exporter` registered here under a short name.  Callers build an :class:`ExportBundle` from whatever they
have (a live :class:`~repro.symbiosys.monitor.Monitor`, a
:class:`~repro.symbiosys.instrument.SymbiosysCollector`, or both) and
ask an exporter to render or write it::

    bundle = ExportBundle.from_monitor(monitor, collector=collector)
    text = get_exporter("prometheus").render(bundle)
    get_exporter("perfetto").write(bundle, "trace.json")

Text exporters are byte-deterministic for same-seed runs; the bytes
are produced by the same functions as the historical per-format
helpers (:func:`~repro.symbiosys.export.text.to_prometheus` and
friends), so consolidating behind this registry changed no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Type

from .profile import events_to_json, write_profile_csv
from .text import series_to_csv, to_prometheus, write_text

__all__ = [
    "ExportBundle",
    "Exporter",
    "exporter_names",
    "get_exporter",
    "register_exporter",
]


@dataclass
class ExportBundle:
    """Everything an exporter may want from a finished (or live) run.

    All fields are optional; each exporter declares what it needs and
    raises ``ValueError`` when the bundle lacks it.
    """

    monitor: Optional[object] = None
    collector: Optional[object] = None
    fault_events: Sequence[object] = ()
    seed: Optional[int] = None

    @classmethod
    def from_monitor(cls, monitor, *, collector=None, **kwargs) -> "ExportBundle":
        return cls(monitor=monitor, collector=collector, **kwargs)

    @classmethod
    def from_cluster(cls, cluster, **kwargs) -> "ExportBundle":
        """Bundle a :class:`~repro.cluster.Cluster` after ``shutdown()``."""
        kwargs.setdefault("seed", getattr(cluster, "seed", None))
        fault_events = getattr(cluster, "fault_events", None)
        kwargs.setdefault(
            "fault_events",
            fault_events() if callable(fault_events) else fault_events or (),
        )
        return cls(
            monitor=getattr(cluster, "monitor", None),
            collector=getattr(cluster, "collector", None),
            **kwargs,
        )

    def require(self, attr: str, exporter: str):
        value = getattr(self, attr)
        if value is None:
            raise ValueError(
                f"exporter {exporter!r} needs bundle.{attr}, which is unset"
            )
        return value


class Exporter:
    """One export format.

    Subclasses set :attr:`name` / :attr:`filename` and implement
    :meth:`render`; :meth:`write` defaults to rendering into a file
    with the repo's stable-newline convention.
    """

    #: Registry key, e.g. ``"prometheus"``.
    name: str = ""
    #: Conventional artifact filename, e.g. ``"metrics.prom"``.
    filename: str = ""

    def render(self, bundle: ExportBundle) -> str:
        raise NotImplementedError

    def write(self, bundle: ExportBundle, path) -> None:
        write_text(path, self.render(bundle))


_REGISTRY: Dict[str, Exporter] = {}


def register_exporter(cls: Type[Exporter]) -> Type[Exporter]:
    """Class decorator: register an exporter under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    _REGISTRY[cls.name] = cls()
    return cls


def get_exporter(name: str) -> Exporter:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown exporter {name!r} "
            f"(available: {', '.join(exporter_names())})"
        ) from None


def exporter_names() -> list:
    return sorted(_REGISTRY)


@register_exporter
class PrometheusExporter(Exporter):
    """Prometheus text-exposition snapshot of the metrics registry."""

    name = "prometheus"
    filename = "metrics.prom"

    def render(self, bundle: ExportBundle) -> str:
        monitor = bundle.require("monitor", self.name)
        return to_prometheus(monitor.registry)


@register_exporter
class SeriesCsvExporter(Exporter):
    """Ring-buffer time-series as ``name,labels,time,value`` CSV."""

    name = "csv"
    filename = "series.csv"

    def render(self, bundle: ExportBundle) -> str:
        monitor = bundle.require("monitor", self.name)
        return series_to_csv(monitor.store)


@register_exporter
class ProfileCsvExporter(Exporter):
    """Callpath-profile rows (merged origin profile) as CSV."""

    name = "profile"
    filename = "profile.csv"

    def render(self, bundle: ExportBundle) -> str:
        collector = bundle.require("collector", self.name)
        return write_profile_csv(
            collector.merged_origin_profile(), collector.registry
        )


@register_exporter
class TraceJsonExporter(Exporter):
    """Lossless trace-event JSON (``load_events_json`` round-trips it)."""

    name = "json"
    filename = "events.json"

    def render(self, bundle: ExportBundle) -> str:
        collector = bundle.require("collector", self.name)
        return events_to_json(collector.all_events())


@register_exporter
class PerfettoExporter(Exporter):
    """Chrome ``trace_event`` JSON for ui.perfetto.dev / about:tracing."""

    name = "perfetto"
    filename = "trace.json"

    def render(self, bundle: ExportBundle) -> str:
        from ..perfetto import chrome_trace_json

        return chrome_trace_json(
            monitor=bundle.monitor,
            collector=bundle.collector,
            fault_events=bundle.fault_events,
        )


@register_exporter
class CriticalPathExporter(Exporter):
    """Perfetto trace with the per-request critical-path lane added:
    each decomposed request's wait-state segments render as an async
    track flow-linked to its RPC spans."""

    name = "critical"
    filename = "critical.trace.json"

    def render(self, bundle: ExportBundle) -> str:
        from ..critical import analyze_collector
        from ..perfetto import chrome_trace_json

        collector = bundle.require("collector", self.name)
        return chrome_trace_json(
            monitor=bundle.monitor,
            collector=collector,
            fault_events=bundle.fault_events,
            critical=analyze_collector(collector, bundle.monitor),
        )
